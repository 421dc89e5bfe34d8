//! Post-crash recovery (§III-G): the scaffolding every scheme's strict
//! recovery shares — the ADR recovery journal, [`CrashedSystem::recover_into`],
//! leaf recovery from the data plane, and the report. Each scheme's own
//! recovery lives beside its runtime hooks in `scheme/<name>.rs`.
//!
//! Every recovery is *functional*: it reads the persisted NVM state,
//! reconstructs the lost dirty nodes, verifies everything (HMACs, LIncs or
//! cache-tree roots), and hands back a live [`SecureNvmSystem`] whose
//! metadata cache holds the recovered nodes marked dirty. NVM reads are
//! counted and converted to an estimated wall time at the paper's 100 ns
//! per read-and-verify (§IV-D) — the series Fig. 17 plots.
//!
//! One image recovers serially: every rebuild loop walks its items in one
//! canonical order and journals `hwm` = items done after each, so an
//! interrupted attempt's journal covers exactly the first `hwm` items.
//! Parallelism lives one level up, across whole shards
//! ([`crate::ShardedEngine::recover_all`]).

use crate::cme::{LineVerdict, MacRecord};
use crate::crash::CrashedSystem;
use crate::engine::{parse_node, verify_node, SecureNvmSystem};
use crate::error::IntegrityError;
use steins_crypto::CryptoEngine;
use steins_metadata::counter::{CounterBlock, SplitCounters};
use steins_metadata::{CounterMode, NodeId, SitNode};
use steins_nvm::{NvmDevice, RecoveryJournal};
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
            _ => "unknown",
        }
    }

    /// Whether the journal records an interrupted (non-terminal) recovery.
    pub fn in_progress(phase: u8) -> bool {
        !matches!(phase, IDLE | DONE)
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

impl RecoveryReport {
    /// The report of a `scheme` recovery that read `phases`' lines and
    /// rebuilt `per_level` nodes per level (leaves first). Its registry
    /// holds the total and per-phase modeled read counts, the per-level
    /// node counts, and the restart/journal state the attempt started from
    /// (`prior` is the journal as found at entry — an in-progress phase
    /// there means this attempt is a restart).
    pub(crate) fn new(
        scheme: &str,
        phases: &[(&str, u64)],
        per_level: Vec<usize>,
        prior: RecoveryJournal,
        restarts: u32,
        read_ns: f64,
    ) -> Self {
        let reads: u64 = phases.iter().map(|(_, r)| r).sum();
        let nodes: usize = per_level.iter().sum();
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
        RecoveryReport {
            scheme: scheme.into(),
            nvm_reads: reads,
            nodes_recovered: nodes,
            per_level,
            est_seconds: reads as f64 * read_ns * 1e-9,
            metrics: m,
        }
    }
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
    /// durable; verification may fill the unparked machine's volatile
    /// metadata cache (Steins installs each node as it verifies), which a
    /// refusal drops with the image.
    pub fn recover_into(
        self,
        out: &mut Option<SecureNvmSystem>,
    ) -> Result<RecoveryReport, IntegrityError> {
        if !self.recoverable() {
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
        let mut report = self.recover_scheme(out, prior, restarts)?;
        // Which shard's journal line drove this attempt — the sharded
        // engine recovers each shard independently off its own line.
        report
            .metrics
            .gauge_set("core.recovery.shard", shard as f64);
        Ok(report)
    }

    /// Node `id`'s copy in NVM (uncounted: callers count their reads).
    pub(crate) fn stale_node(&self, id: NodeId) -> SitNode {
        let addr = self.layout.node_addr(self.layout.geometry.offset_of(id));
        parse_node(self.cfg.mode, id, &self.nvm.peek(addr))
    }

    /// Verifies node `id`'s stored MAC field against parent counter `pc`.
    pub(crate) fn verify_node(
        &self,
        node: &SitNode,
        id: NodeId,
        pc: u64,
    ) -> Result<(), IntegrityError> {
        let (crypto, scheme) = (self.crypto.as_ref(), self.cfg.scheme);
        verify_node(crypto, &self.layout, scheme, node, id, pc, &mut 0)
    }

    /// Recovers a leaf's counters from the persisted data blocks and their
    /// MAC records (§III-G; the 8 reads/leaf in GC, 64 in SC behind
    /// Fig. 17's Steins-SC point): one read per line, since the record
    /// rides the line's ECC bits (DESIGN.md §2.7). The first forged line
    /// fails recovery.
    pub(crate) fn recover_leaf(
        &self,
        rd: &mut u64,
        id: NodeId,
        stale: &SitNode,
    ) -> Result<SitNode, IntegrityError> {
        self.leaf_from_data(rd, 1, id, *stale, |addr, v| match v {
            LineVerdict::Forged { .. } => Err(IntegrityError::DataMac { addr }),
            _ => Ok(()),
        })
    }

    /// Rebuilds leaf `id` over `base` from its data lines' verdicts, in
    /// coverage order, charging `per_line` reads a line. `seen` sees each
    /// verdict first and may stop the rebuild. A general leaf takes every
    /// line's record counter (0 if unwritten); a split leaf starts from zero
    /// and takes the largest authentic major and each authentic minor.
    /// Total on arbitrary record/data bytes.
    pub(crate) fn leaf_from_data<E>(
        &self,
        rd: &mut u64,
        per_line: u64,
        id: NodeId,
        base: SitNode,
        mut seen: impl FnMut(u64, LineVerdict) -> Result<(), E>,
    ) -> Result<SitNode, E> {
        let mut counters = match self.cfg.mode {
            CounterMode::General => base.counters,
            CounterMode::Split => CounterBlock::Split(SplitCounters {
                major: 0,
                minors: [0; 64],
            }),
        };
        let lines = self.layout.geometry.data_of_leaf(id);
        for (j, d) in lines.into_iter().enumerate() {
            *rd += per_line;
            let addr = self.layout.data_base + d * 64;
            let rec = MacRecord::load(&self.nvm, &self.layout, d);
            let v = rec.judge(self.crypto.as_ref(), addr, &self.nvm.peek(addr));
            seen(addr, v)?;
            match (&mut counters, v) {
                (CounterBlock::General(g), LineVerdict::Unwritten) => g.set(j, 0),
                (
                    CounterBlock::General(g),
                    LineVerdict::Authentic { major, .. } | LineVerdict::Forged { major },
                ) => g.set(j, major),
                (CounterBlock::Split(s), LineVerdict::Authentic { major, minor }) => {
                    s.major = s.major.max(major);
                    s.minors[j] = minor as u8;
                }
                (CounterBlock::Split(_), _) => {}
            }
        }
        Ok(SitNode {
            counters,
            hmac: base.hmac,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchemeKind, SystemConfig};

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
