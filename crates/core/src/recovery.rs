//! Post-crash recovery engines (§III-G) for Steins, ASIT and STAR.
//!
//! All three are *functional*: they actually read the persisted NVM state,
//! reconstruct the lost dirty nodes, verify everything (HMACs, LIncs or
//! cache-tree roots), and hand back a live [`SecureNvmSystem`] whose
//! metadata cache holds the recovered nodes marked dirty. NVM reads are
//! counted and converted to an estimated wall time at the paper's 100 ns
//! per read-and-verify (§IV-D) — the series Fig. 17 plots.
//!
//! One image recovers serially: every rebuild loop walks its items in one
//! canonical order and journals `hwm` = items done after each, so an
//! interrupted attempt's journal covers exactly the first `hwm` items.
//! Parallelism lives one level up, across whole shards
//! ([`crate::ShardedEngine::recover_all`]).

use crate::cachetree::CacheTree;
use crate::cme::MacRecord;
use crate::config::SchemeKind;
use crate::crash::{CrashedSystem, NvState};
use crate::engine::SecureNvmSystem;
use crate::error::IntegrityError;
use crate::linc::LincBank;
use crate::nvbuffer::NvBuffer;
use crate::scheme::{star, AsitState, SchemeState, SteinsState};
use std::collections::{BTreeSet, HashMap, HashSet};
use steins_crypto::CryptoEngine;
use steins_metadata::counter::{CounterBlock, SplitCounters};
use steins_metadata::records::{record_coords, RecordLine, RECORDS_PER_LINE};
use steins_metadata::{CounterMode, NodeId, SitNode};
use steins_nvm::{AdrRegion, NvmDevice, RecoveryJournal};
use steins_obs::MetricRegistry;

/// Phase tags of the ADR-resident recovery journal
/// ([`steins_nvm::RecoveryJournal`]). The journal makes recovery a
/// restartable state machine: every phase is re-entrant, and a crash at any
/// persist boundary inside recovery leaves a journal telling the next
/// attempt where the previous one stopped (and, for STAR, how much of the
/// cache-tree register the interrupted rebuild had regrown).
pub mod journal {
    /// No recovery has ever run on this image.
    pub const IDLE: u8 = 0;
    /// Steins: reinstalling recovered nodes into the metadata cache.
    /// Durable NVM state is untouched in this phase (installs are volatile;
    /// the LInc registers and NV buffer still hold their crash values), so
    /// a re-run simply repeats the whole recovery.
    pub const STEINS_REBUILD: u8 = 1;
    /// Steins: rewriting the offset-record region to the fresh slot
    /// assignment. Slot-pinned installs make the rewritten lines byte-equal
    /// to the pre-crash ones for every previously-recorded slot, and the
    /// still-unswitched LInc/NV-buffer registers reconcile any partially
    /// rewritten mix exactly as the first attempt did.
    pub const STEINS_RECORDS: u8 = 2;
    /// ASIT: replaying shadow-slot updates against a cache-tree seeded from
    /// the durable shadow content — each update is the normal runtime
    /// register-then-push sequence, so every boundary inside the replay is
    /// a runtime-consistent image.
    pub const ASIT_REPLAY: u8 = 3;
    /// STAR: reinstalling nodes in canonical order while regrowing the
    /// cache-tree register from empty; `hwm` counts completed items, so a
    /// re-run verifies the register over exactly the covered prefix.
    pub const STAR_REBUILD: u8 = 4;
    /// Lenient scrub rewriting the image (see `crate::scrub`). Strict
    /// recovery refuses to run over a half-scrubbed image.
    pub const SCRUB: u8 = 5;
    /// The last recovery or scrub ran to completion.
    pub const DONE: u8 = 6;
    /// The online integrity service's incremental background scrub
    /// (`crate::online`) is stamping its pass cursor into `hwm`. The
    /// online pass is peek-only and idempotent — it rewrites none of the
    /// structures strict recovery trusts — so this phase is *terminal*
    /// (not in-progress): a crash mid-pass recovers strictly, and the
    /// cursor lets the restarted service resume instead of rescanning
    /// from line zero.
    pub const ONLINE: u8 = 7;

    /// Human-readable phase name.
    pub fn name(phase: u8) -> &'static str {
        match phase {
            IDLE => "idle",
            STEINS_REBUILD => "steins-rebuild",
            STEINS_RECORDS => "steins-records",
            ASIT_REPLAY => "asit-replay",
            STAR_REBUILD => "star-rebuild",
            SCRUB => "scrub",
            DONE => "done",
            ONLINE => "online-scrub",
            _ => "unknown",
        }
    }

    /// Whether the journal records an interrupted (non-terminal) recovery.
    pub fn in_progress(phase: u8) -> bool {
        !matches!(phase, IDLE | DONE | ONLINE)
    }
}

/// Seals a journal under the engine key: the 64-bit tag stored with the
/// durable journal line (see [`RecoveryJournal::mac_message`] for the
/// domain-separated byte string it covers).
pub(crate) fn seal_journal(crypto: &dyn CryptoEngine, j: &RecoveryJournal) -> u64 {
    crypto.mac64(&j.mac_message())
}

/// Whether the device's journal line authenticates under the engine key.
///
/// A never-written journal (default contents, zero MAC) is authentic: the
/// image predates journaling or was wiped by a from-scratch rebuild. An
/// attacker who zeroes both fields therefore gains nothing — a default
/// journal *is* the from-scratch resume decision, exactly what fail-closed
/// would pick anyway. Any other content must carry a matching MAC.
pub(crate) fn journal_authentic(crypto: &dyn CryptoEngine, nvm: &NvmDevice) -> bool {
    let j = nvm.recovery_journal();
    if j == RecoveryJournal::default() && nvm.journal_mac() == 0 {
        return true;
    }
    nvm.journal_mac() == seal_journal(crypto, &j)
}

/// What a recovery run did and how long it would take on hardware.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Scheme label.
    pub scheme: String,
    /// NVM line reads performed during recovery.
    pub nvm_reads: u64,
    /// Dirty nodes reconstructed and verified.
    pub nodes_recovered: usize,
    /// Recovered-node count per tree level (leaves first).
    pub per_level: Vec<usize>,
    /// Estimated recovery wall time (reads × the configured 100 ns).
    pub est_seconds: f64,
    /// Per-phase metrics under `core.recovery.` — phase timings are modeled
    /// NVM read counts (deterministic), not wall clock.
    pub metrics: MetricRegistry,
}

/// Builds the `core.recovery.` registry: total/per-phase modeled read
/// counts, per-level recovered-node counts, and the restart/journal state
/// this attempt started from (`prior` is the journal as found at entry —
/// an in-progress phase there means this attempt is a restart).
fn recovery_metrics(
    phases: &[(&str, u64)],
    reads: u64,
    nodes: usize,
    per_level: &[usize],
    prior: RecoveryJournal,
    restarts: u32,
) -> MetricRegistry {
    let mut m = MetricRegistry::new();
    m.counter_add("core.recovery.reads", reads);
    m.counter_add("core.recovery.nodes", nodes as u64);
    m.counter_add("core.recovery.restarts", restarts as u64);
    m.counter_add(
        "core.recovery.resumed",
        journal::in_progress(prior.phase) as u64,
    );
    m.counter_add(
        &format!("core.recovery.journal.prior.{}", journal::name(prior.phase)),
        1,
    );
    m.counter_add("core.recovery.journal.prior_hwm", prior.hwm);
    for (name, r) in phases {
        m.counter_add(&format!("core.recovery.phase.{name}.reads"), *r);
    }
    for (k, n) in per_level.iter().enumerate() {
        m.counter_add(&format!("core.recovery.level.{k}.nodes"), *n as u64);
    }
    m
}

/// Internal read-counting view over the crashed NVM.
struct Reader<'a> {
    crashed: &'a CrashedSystem,
    reads: u64,
}

impl<'a> Reader<'a> {
    fn new(crashed: &'a CrashedSystem) -> Self {
        Reader { crashed, reads: 0 }
    }

    fn line(&mut self, addr: u64) -> [u8; 64] {
        self.reads += 1;
        self.crashed.nvm.peek(addr)
    }
}

/// Parses a metadata line per its level/mode.
fn parse_node(mode: CounterMode, id: NodeId, line: &[u8; 64]) -> SitNode {
    if id.level == 0 && mode == CounterMode::Split {
        SitNode::split_from_line(line)
    } else {
        SitNode::general_from_line(line)
    }
}

fn is_zero_node(node: &SitNode) -> bool {
    node.hmac == 0 && node.to_line() == [0u8; 64]
}

impl CrashedSystem {
    /// Recovers the machine: reconstructs and verifies every lost dirty
    /// metadata node, returning the live system and the recovery metrics.
    ///
    /// Fails with the precise [`IntegrityError`] when the persisted state
    /// was tampered with or replayed (§III-H).
    pub fn recover(self) -> Result<(SecureNvmSystem, RecoveryReport), IntegrityError> {
        let mut out = None;
        let report = self.recover_into(&mut out)?;
        Ok((
            out.take().expect("recovery parks the rebuilt system"),
            report,
        ))
    }

    /// Restartable form of [`Self::recover`]: the rebuilt system is parked
    /// in `out` *before* recovery issues its first durable write, so if a
    /// second crash trips mid-rebuild (an armed persist point inside
    /// recovery, returned as [`IntegrityError::PowerCut`]), the caller still
    /// owns the partially-rebuilt system — including its NVM image and ADR
    /// recovery journal — and can crash it again and re-run recovery. All
    /// planning and verification happen before parking and touch nothing
    /// durable.
    pub fn recover_into(
        self,
        out: &mut Option<SecureNvmSystem>,
    ) -> Result<RecoveryReport, IntegrityError> {
        if matches!(self.cfg.scheme, SchemeKind::WriteBack) {
            return Err(IntegrityError::RecoveryUnsupported);
        }
        // The journal is the root of every resume decision, so authenticate
        // it before trusting a single field. Strict recovery fails closed —
        // the caller falls back to the lenient scrub, which discards the
        // forged journal and rebuilds from scratch.
        if !journal_authentic(self.crypto.as_ref(), &self.nvm) {
            return Err(IntegrityError::JournalForged);
        }
        let prior = self.nvm.recovery_journal();
        if prior.phase == journal::SCRUB {
            return Err(IntegrityError::ScrubInterrupted);
        }
        let restarts = if journal::in_progress(prior.phase) {
            prior.restarts.saturating_add(1)
        } else {
            0
        };
        let shard = self.nvm.shard();
        let mut report = match self.cfg.scheme {
            SchemeKind::WriteBack => unreachable!("handled above"),
            SchemeKind::Steins => self.recover_steins(out, prior, restarts),
            SchemeKind::Asit => self.recover_asit(out, prior, restarts),
            SchemeKind::Star => self.recover_star(out, prior, restarts),
        }?;
        // Which shard's journal line drove this attempt — the sharded
        // engine recovers each shard independently off its own line.
        report
            .metrics
            .gauge_set("core.recovery.shard", shard as f64);
        Ok(report)
    }

    fn mac_record(&self, data_line: u64) -> MacRecord {
        let (laddr, byte) = self.layout.mac_slot(data_line);
        MacRecord::read_slot(&self.nvm.peek(laddr), byte / 16)
    }

    /// Verifies a node's stored HMAC against a parent counter (Steins/ASIT
    /// full-width; STAR masks to 48 bits). Zero nodes under zero counters
    /// are the lazily-initialized state.
    fn check_node(&self, node: &SitNode, id: NodeId, pc: u64) -> Result<(), IntegrityError> {
        if pc == 0 && is_zero_node(node) {
            return Ok(());
        }
        let off = self.layout.geometry.offset_of(id);
        let mac = self
            .crypto
            .mac64(&node.mac_message(self.layout.node_addr(off), pc));
        let ok = if matches!(self.cfg.scheme, SchemeKind::Star) {
            star::unpack_hmac(node.hmac).0 == mac & star::STAR_MAC_MASK
        } else {
            node.hmac == mac
        };
        if ok {
            Ok(())
        } else {
            Err(IntegrityError::NodeMac { node: id })
        }
    }

    /// Recovers a leaf's counters from the persisted data blocks and their
    /// MAC records (§III-G; the 8 reads/leaf in GC, 64 in SC behind
    /// Fig. 17's Steins-SC point), verifying every data block's HMAC.
    fn recover_leaf(
        &self,
        rd: &mut u64,
        id: NodeId,
        stale: &SitNode,
    ) -> Result<SitNode, IntegrityError> {
        let geo = &self.layout.geometry;
        match self.cfg.mode {
            CounterMode::General => {
                let mut g = *stale.counters.as_general();
                for (j, d) in geo.data_of_leaf(id).into_iter().enumerate() {
                    let rec = self.mac_record(d);
                    *rd += 1;
                    let addr = self.layout.data_base + d * 64;
                    let data = self.nvm.peek(addr);
                    if rec == MacRecord::default() && data == [0u8; 64] {
                        g.set(j, 0);
                        continue;
                    }
                    let (ctr, minor) = MacRecord::unpack_recovery(rec.recovery);
                    if self.crypto.data_mac(addr, &data, ctr, minor) != rec.mac {
                        return Err(IntegrityError::DataMac { addr });
                    }
                    g.set(j, ctr);
                }
                Ok(SitNode {
                    counters: CounterBlock::General(g),
                    hmac: stale.hmac,
                })
            }
            CounterMode::Split => {
                let mut major = 0u64;
                let mut minors = [0u8; 64];
                for (j, d) in geo.data_of_leaf(id).into_iter().enumerate() {
                    let rec = self.mac_record(d);
                    *rd += 1;
                    let addr = self.layout.data_base + d * 64;
                    let data = self.nvm.peek(addr);
                    if rec == MacRecord::default() && data == [0u8; 64] {
                        continue;
                    }
                    let (mj, mn) = MacRecord::unpack_recovery(rec.recovery);
                    if self.crypto.data_mac(addr, &data, mj, mn) != rec.mac {
                        return Err(IntegrityError::DataMac { addr });
                    }
                    major = major.max(mj);
                    minors[j] = mn as u8;
                }
                Ok(SitNode {
                    counters: CounterBlock::Split(SplitCounters { major, minors }),
                    hmac: stale.hmac,
                })
            }
        }
    }

    // ——————————————————————— Steins ———————————————————————

    fn recover_steins(
        self,
        out: &mut Option<SecureNvmSystem>,
        prior: RecoveryJournal,
        restarts: u32,
    ) -> Result<RecoveryReport, IntegrityError> {
        let geo = self.layout.geometry.clone();
        let (mut lincs, nv_buffer) = match &self.nv {
            NvState::Steins { lincs, nv_buffer } => (lincs.clone(), nv_buffer.clone()),
            _ => unreachable!("steins recovery under steins scheme"),
        };
        let mut reads = 0u64;

        // 1. Offset records → candidate dirty set (may over-approximate;
        //    clean nodes recover to themselves, §III-H). Remember each
        //    offset's recorded slot: the rebuild pins nodes back into their
        //    old slots so the rewritten record region is byte-identical to
        //    the pre-crash one (recovery idempotence).
        let slots = self.cfg.meta_cache.slots();
        let sets = self.cfg.meta_cache.sets();
        let ways = self.cfg.meta_cache.ways as u64;
        let rec_lines = slots.div_ceil(RECORDS_PER_LINE);
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        let mut pinned: HashMap<u64, u64> = HashMap::new();
        for r in 0..rec_lines {
            reads += 1;
            let line = self.nvm.peek(self.layout.record_addr(r));
            for (e, off) in RecordLine::from_line(&line).entries() {
                let off = u64::from(off);
                if off < geo.total_nodes() {
                    dirty.insert(off);
                    // Stale duplicates (a node re-dirtied in a new slot
                    // leaves its old entry behind) resolve last-wins; any
                    // consistent choice keeps chosen slots unique because a
                    // slot's entry names exactly one offset. Entries whose
                    // slot is not in the offset's set are never written by
                    // the runtime — they are zero-initialized record lines
                    // decoding as "offset 0" — so they only feed the dirty
                    // over-approximation, not the slot pinning.
                    let slot = r * RECORDS_PER_LINE + e as u64;
                    if slot / ways == off % sets {
                        pinned.insert(off, slot);
                    }
                }
            }
        }

        let reads_record_scan = reads;

        // 2. NV-buffer replay (§III-G step ⑤): transfer pending LInc deltas
        //    and mark the un-updated parents for recovery.
        for e in nv_buffer.entries() {
            if e.child_offset >= geo.total_nodes() {
                // No crash-free execution buffers an out-of-tree offset: the
                // buffer line tore. Fail-stop rather than index out of range.
                return Err(IntegrityError::Torn {
                    addr: e.child_offset,
                });
            }
            let cid = geo.node_at_offset(e.child_offset);
            // Root parents are applied inline and never buffered, so a root
            // entry here is likewise a torn/corrupt buffer image.
            let Some((pid, slot)) = geo.parent_of(cid) else {
                return Err(IntegrityError::Torn {
                    addr: e.child_offset,
                });
            };
            let poff = geo.offset_of(pid);
            reads += 1;
            let sp = parse_node(
                self.cfg.mode,
                pid,
                &self.nvm.peek(self.layout.node_addr(poff)),
            );
            let p_old = sp.counters.as_general().get(slot);
            if e.generated > p_old {
                let delta = e.generated - p_old;
                if lincs.get(cid.level) < delta {
                    return Err(IntegrityError::LIncMismatch {
                        level: cid.level,
                        stored: lincs.get(cid.level),
                        recomputed: 0,
                    });
                }
                lincs.sub(cid.level, delta);
                lincs.add(pid.level, delta);
            }
            dirty.insert(poff);
            dirty.insert(e.child_offset);
        }

        let reads_buffer_replay = reads - reads_record_scan;

        // 3. Top-down recovery with per-level LInc verification. Offsets
        //    run level by level, so a level's dirty nodes are one range of
        //    `dirty`. The recovered nodes go into one Vec in install order
        //    (level descending, offset ascending), where a node's parent
        //    sits in the previous level's run.
        let mut recovered: Vec<(u64, SitNode)> = Vec::with_capacity(dirty.len());
        let mut per_level = vec![0usize; geo.levels()];
        let mut parents = 0..0;
        for k in (0..geo.levels()).rev() {
            let mut delta_sum: i128 = 0;
            let run = recovered.len();
            let base = geo.offset_of(NodeId { level: k, index: 0 });
            for &off in dirty.range(base..base + geo.nodes_at(k)) {
                let id = geo.node_at_offset(off);
                reads += 1;
                let stale = parse_node(
                    self.cfg.mode,
                    id,
                    &self.nvm.peek(self.layout.node_addr(off)),
                );
                // Verify the stale copy against its (recovered) parent —
                // catches tampering/replay of the stale node itself.
                let pc = if k == geo.top_level() {
                    self.root.get(geo.root_slot(id))
                } else {
                    let (pid, slot) = geo.parent_of(id).expect("non-top");
                    let poff = geo.offset_of(pid);
                    let level_above = &recovered[parents.clone()];
                    let parent = match level_above.binary_search_by_key(&poff, |&(o, _)| o) {
                        Ok(i) => level_above[i].1,
                        Err(_) => {
                            reads += 1;
                            parse_node(
                                self.cfg.mode,
                                pid,
                                &self.nvm.peek(self.layout.node_addr(poff)),
                            )
                        }
                    };
                    parent.counters.as_general().get(slot)
                };
                self.check_node(&stale, id, pc)?;

                // Reconstruct the latest counters from persistent children
                // (§III-B: the generation functions make this possible).
                let rec = if k >= 1 {
                    let mut g = *stale.counters.as_general();
                    for (j, cid) in geo.children_of(id).into_iter().enumerate() {
                        let coff = geo.offset_of(cid);
                        reads += 1;
                        let child = parse_node(
                            self.cfg.mode,
                            cid,
                            &self.nvm.peek(self.layout.node_addr(coff)),
                        );
                        let cval = child.counters.parent_value();
                        self.check_node(&child, cid, cval)?;
                        g.set(j, cval);
                    }
                    SitNode {
                        counters: CounterBlock::General(g),
                        hmac: stale.hmac,
                    }
                } else {
                    self.recover_leaf(&mut reads, id, &stale)?
                };
                delta_sum +=
                    rec.counters.parent_value() as i128 - stale.counters.parent_value() as i128;
                recovered.push((off, rec));
            }
            per_level[k] = recovered.len() - run;
            parents = run..recovered.len();
            if delta_sum != lincs.get(k) as i128 {
                return Err(IntegrityError::LIncMismatch {
                    level: k,
                    stored: lincs.get(k),
                    recomputed: delta_sum.max(0) as u64,
                });
            }
        }

        let nodes = recovered.len();
        let metrics = recovery_metrics(
            &[
                ("record_scan", reads_record_scan),
                ("buffer_replay", reads_buffer_replay),
                ("rebuild", reads - reads_record_scan - reads_buffer_replay),
            ],
            reads,
            nodes,
            &per_level,
            prior,
            restarts,
        );
        let read_ns = self.cfg.recovery_read_ns;
        self.rebuild_steins(out, recovered, lincs, pinned, restarts)?;
        let est_seconds = reads as f64 * read_ns * 1e-9;
        Ok(RecoveryReport {
            scheme: "Steins".into(),
            nvm_reads: reads,
            nodes_recovered: nodes,
            per_level,
            est_seconds,
            metrics,
        })
    }

    /// Rebuilds the live Steins system, restartably, from the recovered
    /// nodes in install order (level descending, offset ascending). The
    /// phase structure:
    ///
    /// 1. `STEINS_REBUILD` — reinstall recovered nodes into the metadata
    ///    cache (volatile). The scheme registers keep their *crash-time*
    ///    LInc/NV-buffer values, so durable state is completely unchanged
    ///    through this phase: a crash here re-runs recovery verbatim.
    /// 2. `STEINS_RECORDS` — rewrite the offset-record region. Nodes were
    ///    pinned back into their recorded slots, so for those slots the new
    ///    lines equal the old ones; lines gaining buffer-replay parents may
    ///    differ, but the still-old registers make a partial mix replay to
    ///    the same recovered state (or, if an injected tear mangles a word,
    ///    fail closed into the scrub path).
    /// 3. Register switch + `DONE` — the recovered LIncs and an empty NV
    ///    buffer are installed in the same persist interval as the `DONE`
    ///    journal write, so no crash can observe new records with old
    ///    registers or vice versa beyond what phase 2 already reconciles.
    ///    An over-full set's evicting install (phase 1) flushes a victim
    ///    through the runtime path against the still-live crash-time
    ///    registers; its LInc transfer and any parent update it parked are
    ///    carried across the switch.
    fn rebuild_steins(
        self,
        out: &mut Option<SecureNvmSystem>,
        recovered: Vec<(u64, SitNode)>,
        lincs: LincBank,
        pinned: HashMap<u64, u64>,
        restarts: u32,
    ) -> Result<(), IntegrityError> {
        let cfg = self.cfg.clone();
        let geo = self.layout.geometry.clone();
        let (old_lincs, old_buffer) = match &self.nv {
            NvState::Steins { lincs, nv_buffer } => (lincs.clone(), nv_buffer.clone()),
            _ => unreachable!("steins rebuild under steins scheme"),
        };
        let (crash_queued, crash_retired) = (old_buffer.entries().len(), old_buffer.retired());
        let sys = out.insert(self.revive());
        sys.ctrl.scheme = SchemeState::Steins(SteinsState {
            lincs: old_lincs.clone(),
            nv_buffer: old_buffer,
            record_cache: AdrRegion::new(cfg.record_cache_lines),
            draining: false,
        });
        // Reinstall recovered nodes dirty (§III-G: "all the retrieved nodes
        // will be marked as dirty"). Nodes with a record entry go back into
        // their recorded slot; buffer-replay parents (never recorded) take
        // a free way in their set. Slot-assigned installs must all land
        // before any over-full fallback runs: the evicting install picks
        // its own victim way and would otherwise fill a way that `occupied`
        // reserved for a later pinned install (tripping install_at's
        // occupied-slot assert at small cache sizes). So a node with no
        // way left waits in `deferred`, in install order, for a second
        // pass. Both passes journal `hwm` = items installed. Installs are
        // volatile in this phase (a re-run repeats the whole recovery), so
        // the mark is a progress record, not a resume point.
        let sets = cfg.meta_cache.sets();
        let ways = cfg.meta_cache.ways as u64;
        let mut occupied: HashSet<u64> = pinned.values().copied().collect();
        let total = recovered.len() as u64;
        let mut installed = 0u64;
        let mut deferred = Vec::new();
        sys.ctrl
            .journal_write(RecoveryJournal::new(journal::STEINS_REBUILD, 0, restarts))?;
        for (off, node) in recovered {
            let slot = pinned.get(&off).copied().or_else(|| {
                let set = off % sets;
                let free = (0..ways)
                    .map(|w| set * ways + w)
                    .find(|f| !occupied.contains(f));
                if let Some(f) = free {
                    occupied.insert(f);
                }
                free
            });
            let Some(s) = slot else {
                deferred.push((off, node));
                continue;
            };
            sys.ctrl.meta.install_at(s, off, node, true);
            installed += 1;
            sys.ctrl.journal_write(RecoveryJournal::new(
                journal::STEINS_REBUILD,
                installed,
                restarts,
            ))?;
        }
        // Set over-full (a parent landed in a set whose ways were all
        // recorded dirty): fall back to the evicting install. A fallback
        // flush can drain the NV buffer, which fetches parents; a parent
        // still waiting here must come back as its recovered value, not its
        // stale NVM copy. So every deferred node stays pending until it is
        // in, and a drain inside an earlier one's eviction installs it from
        // the recovered value.
        sys.ctrl.rebuild_pending = deferred.iter().copied().collect();
        for (off, node) in deferred {
            if sys.ctrl.rebuild_pending.contains_key(&off) {
                sys.ctrl
                    .install_node(0, geo.node_at_offset(off), node, true)?;
                sys.ctrl.rebuild_pending.remove(&off);
            }
            installed += 1;
            sys.ctrl.journal_write(RecoveryJournal::new(
                journal::STEINS_REBUILD,
                installed,
                restarts,
            ))?;
        }
        // Rewrite the record region to match the slot assignment.
        sys.ctrl
            .journal_write(RecoveryJournal::new(journal::STEINS_RECORDS, 0, restarts))?;
        let slots = cfg.meta_cache.slots();
        let rec_lines = slots.div_ceil(RECORDS_PER_LINE) as usize;
        let mut lines = vec![RecordLine::default(); rec_lines];
        for (slot, offset, _) in sys.ctrl.meta.dirty_nodes() {
            let (rl, e) = record_coords(slot);
            lines[rl as usize].set(e, offset as u32);
        }
        for (r, rl) in lines.iter().enumerate() {
            let addr = sys.ctrl.layout.record_addr(r as u64);
            sys.ctrl.nvm.poke(addr, &rl.to_line())?;
        }
        // Atomic register switch: recovered LIncs + empty buffer become
        // live in the same persist interval as the DONE journal write —
        // plus whatever the fallback flushes did to the live registers:
        // their LInc deltas, and the entries they parked behind the
        // crash-time ones still queued. (A crash-time entry a fallback
        // drain retires finds its parent recovered: its apply is a no-op.)
        if let SchemeState::Steins(st) = &mut sys.ctrl.scheme {
            let mut carried = lincs;
            for k in 0..carried.levels() {
                carried.add(k, st.lincs.get(k));
                carried.sub(k, old_lincs.get(k));
            }
            let retired = (st.nv_buffer.retired() - crash_retired) as usize;
            let mut buffer = NvBuffer::new(cfg.nv_buffer_bytes);
            for &e in &st.nv_buffer.entries()[crash_queued.saturating_sub(retired)..] {
                buffer.push(e);
            }
            st.lincs = carried;
            st.nv_buffer = buffer;
        }
        sys.ctrl
            .journal_write(RecoveryJournal::new(journal::DONE, total, restarts))?;
        sys.ctrl.nvm.reset_stats();
        Ok(())
    }

    // ——————————————————————— ASIT ———————————————————————

    fn recover_asit(
        self,
        out: &mut Option<SecureNvmSystem>,
        prior: RecoveryJournal,
        restarts: u32,
    ) -> Result<RecoveryReport, IntegrityError> {
        let (nv_root, shadow_tags, inflight) = match &self.nv {
            NvState::Asit {
                nv_root,
                shadow_tags,
                inflight,
            } => (*nv_root, shadow_tags.clone(), *inflight),
            _ => unreachable!("asit recovery under asit scheme"),
        };
        let geo = self.layout.geometry.clone();
        let slots = self.cfg.meta_cache.slots();
        let mut rd = Reader::new(&self);
        // Tag reads (8 tags per line, kept beside the table).
        rd.reads += slots.div_ceil(8);
        let mut leaf_macs = vec![0u64; slots as usize];
        let mut slot_lines: Vec<Option<(u64, [u8; 64])>> = vec![None; slots as usize];
        // Read every occupied shadow slot first, then MAC all of their
        // leaf strings in one batch — the whole scan is independent reads,
        // the recovery shape that benefits most from full crypto lanes.
        let mut occupied: Vec<u64> = Vec::new();
        let mut msgs: Vec<[u8; 72]> = Vec::new();
        for slot in 0..slots {
            if let Some(&off) = shadow_tags.get(&slot) {
                let line = rd.line(self.layout.shadow_addr(slot));
                let mut msg = [0u8; 72];
                msg[..64].copy_from_slice(&line);
                msg[64..].copy_from_slice(&slot.to_le_bytes());
                occupied.push(slot);
                msgs.push(msg);
                slot_lines[slot as usize] = Some((off, line));
            }
        }
        let mut macs = vec![0u64; msgs.len()];
        self.crypto.mac64_72_many(&msgs, &mut macs);
        for (slot, mac) in occupied.iter().zip(macs) {
            leaf_macs[*slot as usize] = mac;
        }
        let reads_shadow_scan = rd.reads;
        // The seed for the rebuilt system's cache-tree: the tree over the
        // *durable-consistent* shadow content (post-rollback if the
        // in-flight write tore), with the matching root and — while the torn
        // slot's line is still unrewritten in NVM — the original in-flight
        // pre-image, so a crash during the replay below recovers again.
        let mut seed_root = nv_root;
        let mut seed_inflight = None;
        let (rebuilt, _) = CacheTree::rebuild(self.crypto.as_ref(), &leaf_macs);
        if rebuilt != nv_root {
            // Under 8 B write atomicity the one shadow write that was in
            // flight at the crash may have torn — the registers already hold
            // the post-update root, but NVM holds a mixed line. The ADR
            // staging buffer carries that update's authenticated pre-image:
            // substitute it and require the tree to match the *previous*
            // root. Anything else (no in-flight write, or a mismatch even
            // after rollback) is tampering, not tearing.
            let Some(inf) = inflight else {
                return Err(IntegrityError::CacheTreeMismatch {
                    stored: nv_root,
                    recomputed: rebuilt,
                });
            };
            let old_mac = if inf.prev_tag.is_some() {
                let mut msg = [0u8; 72];
                msg[..64].copy_from_slice(&inf.prev_line);
                msg[64..].copy_from_slice(&inf.slot.to_le_bytes());
                self.crypto.mac64_72(&msg)
            } else {
                0
            };
            let mut prev_macs = leaf_macs.clone();
            prev_macs[inf.slot as usize] = old_mac;
            let (prev_rebuilt, _) = CacheTree::rebuild(self.crypto.as_ref(), &prev_macs);
            if prev_rebuilt != inf.prev_root {
                return Err(IntegrityError::CacheTreeMismatch {
                    stored: nv_root,
                    recomputed: rebuilt,
                });
            }
            // Roll the torn slot back to its pre-image: the interrupted op
            // was never acked, so the pre-state is the correct durable state.
            slot_lines[inf.slot as usize] = inf.prev_tag.map(|off| (off, inf.prev_line));
            leaf_macs = prev_macs;
            seed_root = inf.prev_root;
            seed_inflight = Some(inf);
        }
        let mut entries: Vec<(u64, u64, SitNode)> = Vec::new();
        for (slot, sl) in slot_lines.iter().enumerate() {
            if let Some((off, line)) = sl {
                let id = geo.node_at_offset(*off);
                entries.push((slot as u64, *off, parse_node(self.cfg.mode, id, line)));
            }
        }
        // Torn-write reconciliation: within one write op the shadow push
        // persists before the data line + MacRecord push, so a crash in
        // between leaves a slot whose shadow counter runs exactly one
        // increment ahead of the data plane (the op was never acked).
        // Rebuild each leaf from the MacRecords — the data-consistent truth,
        // with every data block's HMAC verified — and reject any divergence
        // outside that one-ahead window as replay/tampering. The reconciled
        // leaf is installed dirty; the replayed slot update below re-syncs
        // its shadow copy and the cache-tree.
        for (_, off, node) in entries.iter_mut() {
            let id = geo.node_at_offset(*off);
            if id.level != 0 {
                continue;
            }
            let reconciled = self.recover_leaf(&mut rd.reads, id, node)?;
            let shadow = node.counters.as_general();
            let data = reconciled.counters.as_general();
            for j in 0..geo.data_of_leaf(id).len() {
                let (s, d) = (shadow.get(j), data.get(j));
                if s != d && s != d + 1 {
                    return Err(IntegrityError::NodeMac { node: id });
                }
            }
            *node = reconciled;
        }
        let reads = rd.reads;
        let nodes = entries.len();
        let mut per_level = vec![0usize; geo.levels()];
        for (_, off, _) in &entries {
            per_level[geo.node_at_offset(*off).level] += 1;
        }
        let metrics = recovery_metrics(
            &[
                ("shadow_scan", reads_shadow_scan),
                ("reconcile", reads - reads_shadow_scan),
            ],
            reads,
            nodes,
            &per_level,
            prior,
            restarts,
        );

        let read_ns = self.cfg.recovery_read_ns;
        // Seed the scheme state from the verified durable image instead of
        // starting empty: the tags, tree and root already describe what is
        // in NVM, so every boundary inside the replay below is a state this
        // same recovery procedure accepts — the replay is re-entrant.
        let seeded = CacheTree::from_leaves(self.crypto.as_ref(), &leaf_macs);
        debug_assert_eq!(seeded.root(), seed_root, "seed tree must match root");
        let tags: HashMap<u64, u64> = entries.iter().map(|(s, off, _)| (*s, *off)).collect();
        let sys = out.insert(self.revive());
        sys.ctrl.scheme = SchemeState::Asit(AsitState {
            cache_tree: seeded,
            nv_root: seed_root,
            shadow_tags: tags,
            inflight: seed_inflight,
        });
        // Install every shadow copy as dirty (home copies may be stale) in
        // its *original* slot, and replay the slot updates so the shadow
        // table and cache-tree converge on the reconciled content. Each
        // update is the normal runtime sequence (stage pre-image → update
        // registers → push shadow line), so a crash at any point inside it
        // is recoverable like a runtime crash. The journal's `hwm` counts
        // replayed items; every boundary is runtime-consistent, so the mark
        // is a progress record for diagnostics, not a resume point.
        let mut items = entries;
        items.sort_by_key(|(_, off, _)| {
            let id = geo.node_at_offset(*off);
            (std::cmp::Reverse(id.level), id.index)
        });
        let total = items.len() as u64;
        sys.ctrl
            .journal_write(RecoveryJournal::new(journal::ASIT_REPLAY, 0, restarts))?;
        for (i, (slot, off, node)) in items.into_iter().enumerate() {
            sys.ctrl.meta.install_at(slot, off, node, true);
            sys.ctrl.asit_slot_update(0, off)?;
            sys.ctrl.journal_write(RecoveryJournal::new(
                journal::ASIT_REPLAY,
                i as u64 + 1,
                restarts,
            ))?;
        }
        sys.ctrl
            .journal_write(RecoveryJournal::new(journal::DONE, total, restarts))?;
        sys.ctrl.nvm.reset_stats();
        let est_seconds = reads as f64 * read_ns * 1e-9;
        Ok(RecoveryReport {
            scheme: "ASIT".into(),
            nvm_reads: reads,
            nodes_recovered: nodes,
            per_level,
            est_seconds,
            metrics,
        })
    }

    // ——————————————————————— STAR ———————————————————————

    fn recover_star(
        self,
        out: &mut Option<SecureNvmSystem>,
        prior: RecoveryJournal,
        restarts: u32,
    ) -> Result<RecoveryReport, IntegrityError> {
        let nv_root = match &self.nv {
            NvState::Star { nv_root } => *nv_root,
            _ => unreachable!("star recovery under star scheme"),
        };
        let geo = self.layout.geometry.clone();
        let mut reads = 0u64;

        // 1. Read the dirty bitmap.
        let total = geo.total_nodes();
        let bitmap_lines = total.div_ceil(8).div_ceil(64);
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        for l in 0..bitmap_lines {
            reads += 1;
            let line = self.nvm.peek(self.layout.bitmap_base + l * 64);
            for (byte_idx, byte) in line.iter().enumerate() {
                if *byte == 0 {
                    continue;
                }
                for bit in 0..8 {
                    if byte & (1 << bit) != 0 {
                        let off = l * 512 + byte_idx as u64 * 8 + bit;
                        if off < total {
                            dirty.insert(off);
                        }
                    }
                }
            }
        }

        let reads_bitmap_scan = reads;

        // 2. Top-down reconstruction from child-carried counter LSBs.
        let mut by_level: Vec<Vec<u64>> = vec![Vec::new(); geo.levels()];
        for off in &dirty {
            by_level[geo.node_at_offset(*off).level].push(*off);
        }
        let mut recovered: HashMap<u64, SitNode> = HashMap::new();
        for k in (0..geo.levels()).rev() {
            for &off in &by_level[k] {
                let id = geo.node_at_offset(off);
                reads += 1;
                let stale = parse_node(
                    self.cfg.mode,
                    id,
                    &self.nvm.peek(self.layout.node_addr(off)),
                );
                let rec = if k >= 1 {
                    let mut g = *stale.counters.as_general();
                    for (j, cid) in geo.children_of(id).into_iter().enumerate() {
                        let coff = geo.offset_of(cid);
                        reads += 1;
                        let child = parse_node(
                            self.cfg.mode,
                            cid,
                            &self.nvm.peek(self.layout.node_addr(coff)),
                        );
                        if is_zero_node(&child) {
                            continue;
                        }
                        let (_, lsbs) = star::unpack_hmac(child.hmac);
                        let rc = star::reconstruct_counter(g.get(j), lsbs);
                        self.check_node(&child, cid, rc)?;
                        g.set(j, rc);
                    }
                    SitNode {
                        counters: CounterBlock::General(g),
                        hmac: stale.hmac,
                    }
                } else {
                    self.recover_leaf(&mut reads, id, &stale)?
                };
                recovered.insert(off, rec);
            }
        }

        // Canonical install order, shared by first runs and restarts: the
        // rebuild below regrows the cache-tree register one item at a time
        // in exactly this order, bumping the journal high-water mark after
        // each item.
        let mut items: Vec<(u64, SitNode)> = recovered.iter().map(|(o, n)| (*o, *n)).collect();
        items.sort_by_key(|(off, _)| {
            let id = geo.node_at_offset(*off);
            (std::cmp::Reverse(id.level), id.index)
        });

        // 3. Verify the cache-tree register (per-set sorted MACs, exactly as
        //    maintained at runtime). A completed run's register covers every
        //    recovered node; an *interrupted rebuild's* register covers
        //    exactly the first `hwm` items of the canonical order — the
        //    journal write is the only persist boundary in the rebuild loop
        //    and always follows the register update for the same item.
        let covered = if prior.phase == journal::STAR_REBUILD {
            (prior.hwm as usize).min(items.len())
        } else {
            items.len()
        };
        let sets = self.cfg.meta_cache.sets();
        let mut leaf_macs = vec![0u64; sets as usize];
        // Build every occupied set's MAC message, then present the set MACs
        // to the engine as one batch (messages are variable-length; sets of
        // equal occupancy still share lanes).
        let mut occupied_sets: Vec<u64> = Vec::new();
        let mut set_msgs: Vec<Vec<u8>> = Vec::new();
        for set in 0..sets {
            let mut in_set: Vec<(u64, &SitNode)> = items[..covered]
                .iter()
                .filter(|(off, _)| *off % sets == set)
                .map(|(off, n)| (*off, n))
                .collect();
            if in_set.is_empty() {
                continue;
            }
            in_set.sort_by_key(|(off, _)| *off);
            let mut msg = Vec::with_capacity(in_set.len() * 72);
            for (off, n) in &in_set {
                // The runtime set-MAC zeroes the HMAC field (it changes at
                // flush without the counters changing); mirror that here.
                let mut m = **n;
                m.hmac = 0;
                msg.extend_from_slice(&off.to_le_bytes());
                msg.extend_from_slice(&m.to_line());
            }
            occupied_sets.push(set);
            set_msgs.push(msg);
        }
        let refs: Vec<&[u8]> = set_msgs.iter().map(|m| m.as_slice()).collect();
        let mut macs = vec![0u64; refs.len()];
        self.crypto.mac64_many(&refs, &mut macs);
        for (set, mac) in occupied_sets.iter().zip(macs) {
            leaf_macs[*set as usize] = mac;
        }
        let (rebuilt, _) = CacheTree::rebuild(self.crypto.as_ref(), &leaf_macs);
        if rebuilt != nv_root {
            return Err(IntegrityError::CacheTreeMismatch {
                stored: nv_root,
                recomputed: rebuilt,
            });
        }

        let nodes = recovered.len();
        let per_level: Vec<usize> = by_level.iter().map(|v| v.len()).collect();
        let metrics = recovery_metrics(
            &[
                ("bitmap_scan", reads_bitmap_scan),
                ("rebuild", reads - reads_bitmap_scan),
            ],
            reads,
            nodes,
            &per_level,
            prior,
            restarts,
        );
        let read_ns = self.cfg.recovery_read_ns;
        let sys = out.insert(self.revive());
        sys.ctrl
            .journal_write(RecoveryJournal::new(journal::STAR_REBUILD, 0, restarts))?;
        // Reinstall in canonical order, refreshing the register after every
        // item: the durable bitmap, node lines and data plane are untouched,
        // so a crash here re-derives the same `recovered` set, and the
        // cover rule above re-verifies the partially-regrown register off
        // the journal's `hwm`. Every dirty set was fully resident at crash
        // time, so no install can overflow its set (no evictions, no
        // durable node writes).
        let total = items.len() as u64;
        for (i, (off, node)) in items.into_iter().enumerate() {
            let id = geo.node_at_offset(off);
            sys.ctrl.install_node(0, id, node, true)?;
            let set = sys.ctrl.meta.set_index(off);
            sys.ctrl.star_tree_update(0, set);
            sys.ctrl.journal_write(RecoveryJournal::new(
                journal::STAR_REBUILD,
                i as u64 + 1,
                restarts,
            ))?;
        }
        sys.ctrl
            .journal_write(RecoveryJournal::new(journal::DONE, total, restarts))?;
        sys.ctrl.nvm.reset_stats();
        let est_seconds = reads as f64 * read_ns * 1e-9;
        Ok(RecoveryReport {
            scheme: "STAR".into(),
            nvm_reads: reads,
            nodes_recovered: nodes,
            per_level,
            est_seconds,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use steins_metadata::CounterMode;

    fn exercise(scheme: SchemeKind, mode: CounterMode) -> (SecureNvmSystem, Vec<(u64, [u8; 64])>) {
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let mut sys = SecureNvmSystem::new(cfg);
        let mut expected = Vec::new();
        for i in 0..300u64 {
            let addr = (i * 13 % 512) * 64;
            let mut data = [0u8; 64];
            data[..8].copy_from_slice(&i.to_le_bytes());
            sys.write(addr, &data).unwrap();
            expected.retain(|(a, _)| *a != addr);
            expected.push((addr, data));
        }
        (sys, expected)
    }

    fn crash_recover_check(scheme: SchemeKind, mode: CounterMode) {
        let (sys, expected) = exercise(scheme, mode);
        let crashed = sys.crash();
        let (mut recovered, report) = crashed.recover().expect("recovery verifies");
        assert!(report.nvm_reads > 0);
        assert!(report.est_seconds > 0.0);
        for (addr, data) in expected {
            assert_eq!(
                recovered.read(addr).unwrap(),
                data,
                "{scheme:?}/{mode:?}: data at {addr:#x} after recovery"
            );
        }
    }

    #[test]
    fn steins_gc_crash_recover() {
        crash_recover_check(SchemeKind::Steins, CounterMode::General);
    }

    #[test]
    fn steins_sc_crash_recover() {
        crash_recover_check(SchemeKind::Steins, CounterMode::Split);
    }

    #[test]
    fn asit_crash_recover() {
        crash_recover_check(SchemeKind::Asit, CounterMode::General);
    }

    #[test]
    fn star_crash_recover() {
        crash_recover_check(SchemeKind::Star, CounterMode::General);
    }

    #[test]
    fn steins_rebuild_with_overfull_sets() {
        // Regression for the Fig. 17 small-cache panic: stride one flushed
        // write across each leaf's coverage so (nearly) every cache slot
        // holds a recorded dirty node, plus buffer-replay parents that were
        // never recorded. Some sets then have more recovered nodes than
        // ways, and the rebuild's evicting fallback must not steal a way
        // reserved for a later slot-pinned install ("install_at into
        // occupied slot N").
        let small = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let coverage = CounterMode::General.leaf_coverage();
        let stride: Vec<(u64, [u8; 64])> = (0..small.meta_cache.slots() * 3 / 2)
            .map(|i| (i * coverage * 64, crate::SweepOp::payload(i, i as u8)))
            .collect();
        assert!(stride.len() as u64 * coverage <= small.data_lines);
        // A four-level tree under a random stream: the fallback's victims
        // park parent updates and drain a three-entry NV buffer mid-rebuild,
        // fetching parents the rebuild has not reinstalled yet.
        let mut deep = small.clone();
        deep.data_lines *= 16;
        deep.nvm.capacity_bytes *= 16;
        deep.nv_buffer_bytes = 48;
        let random = crate::SweepOp::stream(5, deep.data_lines, 300)
            .into_iter()
            .filter_map(|op| match op {
                crate::SweepOp::Write { line, tag } => {
                    Some((line * 64, crate::SweepOp::payload(line, tag)))
                }
                crate::SweepOp::Read { .. } => None,
            })
            .collect();
        for (cfg, writes) in [(small, stride), (deep, random)] {
            let mut sys = SecureNvmSystem::new(cfg);
            let mut expected = std::collections::BTreeMap::new();
            for (addr, data) in writes {
                sys.write(addr, &data).unwrap();
                expected.insert(addr, data);
            }
            let (mut recovered, report) = sys.crash().recover().expect("recovery verifies");
            assert!(report.nvm_reads > 0);
            // The fallback's flushes ran against the crash-time registers;
            // the switch must carry their LInc transfers and parked parent
            // updates.
            assert_eq!(recovered.ctrl.lincs(), recovered.ctrl.recompute_lincs());
            for (&addr, &data) in &expected {
                assert_eq!(recovered.read(addr).unwrap(), data, "addr {addr:#x}");
            }
            let (mut again, _) = recovered
                .crash()
                .recover()
                .expect("second recovery verifies");
            for (addr, data) in expected {
                assert_eq!(again.read(addr).unwrap(), data, "addr {addr:#x} (second)");
            }
        }
    }

    #[test]
    fn wb_cannot_recover() {
        let (sys, _) = exercise(SchemeKind::WriteBack, CounterMode::General);
        assert_eq!(
            sys.crash().recover().err().map(|e| e.to_string()),
            Some(IntegrityError::RecoveryUnsupported.to_string())
        );
    }

    #[test]
    fn recovered_system_keeps_working_and_recovers_again() {
        let (sys, _) = exercise(SchemeKind::Steins, CounterMode::Split);
        let (mut recovered, _) = sys.crash().recover().unwrap();
        // Keep writing, crash again, recover again.
        for i in 0..200u64 {
            recovered.write((i % 128) * 64, &[i as u8; 64]).unwrap();
        }
        let stored = recovered.ctrl.lincs().unwrap();
        let expect = recovered.ctrl.recompute_lincs().unwrap();
        assert_eq!(stored, expect, "LInc invariant survives recovery");
        let (mut again, _) = recovered.crash().recover().expect("second recovery");
        // Line 0 was last written with value 128 (i = 128 ⇒ 128 % 128 == 0)…
        // writes above go i ∈ [0,200), so line 0 saw i = 0 and i = 128.
        assert_eq!(again.read(0).unwrap(), [128u8; 64]);
    }
}
