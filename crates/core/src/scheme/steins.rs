//! Steins (§III): generated parent counters, offset records, per-level
//! LInc trust bases and the NV parent-counter buffer — the registers, the
//! runtime hooks, the crash remnant and the strict recovery.

use super::SchemeState;
use crate::config::HASH_LATENCY;
use crate::crash::CrashedSystem;
use crate::engine::{parse_node, SecureMemoryController, SecureNvmSystem};
use crate::error::IntegrityError;
use crate::linc::LincBank;
use crate::nvbuffer::{NvBuffer, NvBufferEntry};
use crate::recovery::{journal, RecoveryReport};
use std::cmp::Reverse;
use steins_crypto::FxHashMap;
use steins_metadata::counter::CounterBlock;
use steins_metadata::records::{record_coords, RecordLine, RECORDS_PER_LINE};
use steins_metadata::{NodeId, SitNode};
use steins_nvm::{AdrRegion, Cycle, NvmDevice, PowerCut, RecoveryJournal};

/// Mutable Steins state (§III).
pub(crate) struct SteinsState {
    /// The on-chip NV registers: what survives a power cut.
    pub(crate) nv: SteinsNv,
    /// Record lines cached in the memory controller, inside the ADR domain
    /// (§III-C); evictions write back to the record region in NVM.
    record_cache: AdrRegion,
    /// Re-entrancy guard: evictions triggered *while draining* the NV buffer
    /// fall back to inline parent fetches instead of re-parking.
    draining: bool,
    /// Recovered nodes a rebuild has yet to reinstall (empty outside
    /// recovery): a fetch of one installs its recovered value, never the
    /// stale NVM copy.
    rebuild_pending: FxHashMap<u64, SitNode>,
}

/// Steins' on-chip NV registers.
pub(crate) struct SteinsNv {
    /// Per-level trust bases (§III-D).
    pub(crate) lincs: LincBank,
    /// Parked parent-counter updates (§III-E).
    buffer: NvBuffer,
}

impl SteinsState {
    /// Fresh state for a tree with `levels` NVM levels.
    pub(crate) fn new(levels: usize, nv_buffer_bytes: usize, record_cache_lines: usize) -> Self {
        SteinsState {
            nv: SteinsNv {
                lincs: LincBank::new(levels),
                buffer: NvBuffer::new(nv_buffer_bytes),
            },
            record_cache: AdrRegion::new(record_cache_lines),
            draining: false,
            rebuild_pending: FxHashMap::default(),
        }
    }

    /// The newest parked generated-counter for `child_offset`. Entries stay
    /// in the (non-volatile) buffer until fully applied, so a mid-drain
    /// lookup still sees them.
    fn parked_generated(&self, child_offset: u64) -> Option<u64> {
        self.nv
            .buffer
            .entries()
            .iter()
            .filter(|e| e.child_offset == child_offset)
            .map(|e| e.generated)
            .max()
    }

    /// Updates the record entry for metadata-cache slot `cache_slot` to
    /// point at `node_offset`, operating on the cached record line.
    /// The caller must have ensured the record line at `record_addr` is
    /// resident (fetching it from NVM on miss).
    fn set_record(&mut self, record_addr: u64, cache_slot: u64, node_offset: u64) {
        let (_, entry) = record_coords(cache_slot);
        let line = self
            .record_cache
            .get_mut(record_addr)
            .expect("record line resident");
        let mut rl = RecordLine::from_line(line);
        rl.set(entry, node_offset as u32);
        *line = rl.to_line();
    }

    /// ADR flush: residual power writes the cached record lines home.
    pub(crate) fn power_cut(mut self, nvm: &mut NvmDevice) -> SteinsNv {
        for (addr, line) in self.record_cache.crash_flush() {
            nvm.overwrite(addr, &line);
        }
        self.nv
    }
}

/// The Steins variant; the dispatch in `scheme` runs these hooks only
/// under Steins.
fn regs(scheme: &mut SchemeState) -> &mut SteinsState {
    match scheme {
        SchemeState::Steins(st) => st,
        _ => unreachable!("a Steins hook ran under another scheme"),
    }
}

impl SecureMemoryController {
    /// Fetch, before the parent walk: a rebuild's pending node installs
    /// its recovered value. Otherwise the NV parent-counter buffer drains
    /// first, so verification sees up-to-date parent counters (§III-E).
    /// Entries stay in the buffer until applied, so fetches issued *by* the
    /// drain itself must not re-enter it.
    pub(super) fn steins_fetch(
        &mut self,
        t: Cycle,
        id: NodeId,
        offset: u64,
    ) -> Result<Option<Cycle>, IntegrityError> {
        let st = regs(&mut self.scheme);
        if let Some(node) = st.rebuild_pending.remove(&offset) {
            return self.install_node(t, id, node, true).map(Some);
        }
        if !st.draining && !st.nv.buffer.is_empty() {
            self.drain_nv_buffer(t)?;
        }
        Ok(None)
    }

    /// Fetch, after the parent walk: a node flushed with a generated
    /// counter that is still parked in the NV buffer (or held by an
    /// in-progress drain) carries an HMAC over that value, not the parent's
    /// stale counter (§III-E).
    pub(super) fn steins_fetch_counter(&mut self, offset: u64, pc: u64) -> u64 {
        match regs(&mut self.scheme).parked_generated(offset) {
            Some(g) => pc.max(g),
            None => pc,
        }
    }

    /// Modify, clean→dirty (§III-C): write the dirty node's offset into its
    /// record line, fetching the line into the ADR record cache on a miss.
    ///
    /// The fetch and any evicted-line write-back are *posted*: the record
    /// cache lives in the ADR domain, so the controller does not wait for
    /// them — they cost NVM traffic and bank occupancy, not front-end time
    /// (the write stalls only on write-queue back-pressure). This is the
    /// cost asymmetry versus STAR's write-through bitmap.
    pub(super) fn steins_record(
        &mut self,
        mut t: Cycle,
        cache_slot: u64,
        offset: u64,
    ) -> Result<Cycle, PowerCut> {
        let (rline, _) = record_coords(cache_slot);
        let raddr = self.layout.record_addr(rline);
        let st = regs(&mut self.scheme);
        if !st.record_cache.touch(raddr) {
            let (line, _) = self.nvm.read(t, raddr); // posted: no t advance
            if let Some((ev_addr, ev_line)) = st.record_cache.insert(raddr, line) {
                t = self.wq.push(t, ev_addr, &ev_line, &mut self.nvm)?;
            }
        }
        st.set_record(raddr, cache_slot, offset);
        self.energy.cache_accesses += 1;
        // The record line lives in the ADR domain: this in-place update is a
        // durable-state transition (an enumerable crash point).
        self.nvm.adr_persist_event(raddr)?;
        Ok(t)
    }

    /// Data write: node `offset`'s generated counter moved from `pre` to
    /// `post`, and its level's LInc takes the delta. The bump rides
    /// atomically with the write that makes the increment durable (the data
    /// line + its MacRecord, pushed next): register updates emit no persist
    /// event, so a crash either observes both the new MacRecord and the
    /// bumped register, or neither. Bumping before the record update left a
    /// crash window where L0Inc counted an increment no MacRecord had
    /// durably recorded, which recovery rejects as a replay.
    pub(super) fn steins_counters_moved(
        &mut self,
        t: Cycle,
        offset: u64,
        pre: &SitNode,
        post: &SitNode,
    ) -> Cycle {
        let level = self.layout.geometry.node_at_offset(offset).level;
        let delta = post.counters.parent_value() - pre.counters.parent_value();
        regs(&mut self.scheme).nv.lincs.add(level, delta);
        t
    }

    /// Evict (§III-E): flushes a dirty node with a locally generated parent
    /// counter, never touching the parent on the critical path (NV buffer
    /// on a parent miss).
    pub(super) fn steins_flush(
        &mut self,
        mut t: Cycle,
        offset: u64,
    ) -> Result<Cycle, IntegrityError> {
        let id = self.layout.geometry.node_at_offset(offset);
        // Preparatory work that can run nested evictions (which may even
        // advance this pinned node's counters) goes FIRST: fetch the parent
        // for a re-entrant drain flush, or make room in the NV buffer. Only
        // afterwards is the node snapshotted.
        let parent = self.layout.geometry.parent_of(id);
        if let Some((pid, _)) = parent {
            let poff = self.layout.geometry.offset_of(pid);
            if !self.meta.contains(poff) {
                let st = regs(&mut self.scheme);
                if st.draining {
                    // Re-entrant eviction during a drain: fetch inline.
                    t = self.ensure_cached(t, pid)?;
                } else if st.nv.buffer.is_full() {
                    self.drain_nv_buffer(t)?;
                }
            }
        }
        let mut node = self.meta.peek(offset).expect("flush target resident");
        let p_new = node.counters.parent_value();
        // Crash-ordering invariant: the parent-side accounting for `p_new`
        // (parent record + counter apply, or NV-buffer park, or
        // root-register update) becomes durable BEFORE the child's line
        // write below, and the final register updates share the child
        // write's persist interval. A crash at any persist boundary
        // therefore observes either the old child with the old accounting,
        // or the new child with accounting that recovery can replay — never
        // a flushed child whose generated counter no record, buffer entry,
        // or register accounts for.
        match parent {
            None => {
                let slot = self.layout.geometry.root_slot(id);
                let delta = p_new - self.root.get(slot);
                self.root.set(slot, p_new);
                regs(&mut self.scheme).nv.lincs.sub(id.level, delta);
            }
            Some((pid, slot)) => {
                let poff = self.layout.geometry.offset_of(pid);
                if self.meta.contains(poff) {
                    t = self.steins_apply_parent(t, id, pid, slot, p_new)?;
                } else {
                    regs(&mut self.scheme).nv.buffer.push(NvBufferEntry {
                        child_offset: offset,
                        generated: p_new,
                    });
                }
            }
        }
        self.energy.hashes += 1;
        node.hmac = self.mac_probe(&node, offset, p_new);
        t += HASH_LATENCY;
        let addr = self.layout.node_addr(offset);
        t = self.wq.push(t, addr, &node.to_line(), &mut self.nvm)?;
        // The NVM copy is now current: mirror the recomputed HMAC into the
        // cached copy and clean it.
        self.meta.write(offset, node);
        self.meta.mark_clean(offset);
        Ok(t)
    }

    /// Applies a generated parent counter to a cached parent and transfers
    /// the LInc delta between levels (§III-E steps ④–⑤).
    fn steins_apply_parent(
        &mut self,
        t: Cycle,
        child: NodeId,
        pid: NodeId,
        slot: usize,
        p_new: u64,
    ) -> Result<Cycle, IntegrityError> {
        let poff = self.layout.geometry.offset_of(pid);
        let mut p = self.meta.read(poff).expect("parent resident");
        let p_old = p.counters.as_general().get(slot);
        if p_new <= p_old {
            // Already applied (a later flush of the same child raced ahead
            // through the buffer); nothing to do.
            return Ok(t);
        }
        let delta = p_new - p_old;
        let pre = p;
        p.counters.as_general_mut().set(slot, p_new);
        self.meta.write(poff, p);
        let t = self.on_node_modified(t, poff, &pre)?;
        let st = regs(&mut self.scheme);
        st.nv.lincs.sub(child.level, delta);
        st.nv.lincs.add(pid.level, delta);
        Ok(t)
    }

    /// Drains the NV buffer: fetch parents (off the critical path), apply
    /// generated counters, transfer LInc deltas (§III-E step ④–⑦).
    ///
    /// Each entry is retired from the (non-volatile) buffer only *after* its
    /// parent update and LInc transfer complete. A crash at any persist
    /// boundary inside the drain therefore still finds every not-yet-applied
    /// entry in the buffer, and recovery replays it (§III-G step ⑤). The
    /// already-applied prefix is harmless to replay: the `p_new ≤ p_old`
    /// guards here and in recovery skip it.
    fn drain_nv_buffer(&mut self, t: Cycle) -> Result<(), IntegrityError> {
        if regs(&mut self.scheme).nv.buffer.is_empty() {
            return Ok(());
        }
        regs(&mut self.scheme).draining = true;
        let result = (|| {
            while let Some(e) = regs(&mut self.scheme).nv.buffer.front() {
                let cid = self.layout.geometry.node_at_offset(e.child_offset);
                let (pid, slot) = self
                    .layout
                    .geometry
                    .parent_of(cid)
                    .expect("root parents are applied inline, never buffered");
                // Background fetch: charges device occupancy but not
                // front_free.
                let t2 = self.ensure_cached(t, pid)?;
                self.steins_apply_parent(t2, cid, pid, slot, e.generated)?;
                regs(&mut self.scheme).nv.buffer.pop_front();
            }
            Ok(())
        })();
        regs(&mut self.scheme).draining = false;
        result
    }

    /// Current LInc values (Steins only; used by invariant tests).
    pub fn lincs(&self) -> Option<Vec<u64>> {
        let SchemeState::Steins(st) = &self.scheme else {
            return None;
        };
        Some(
            (0..st.nv.lincs.levels())
                .map(|k| st.nv.lincs.get(k))
                .collect(),
        )
    }

    /// Recomputes, from first principles, what each LInc should be: the sum
    /// over dirty cached nodes of (generated parent value of cached) −
    /// (generated parent value of NVM-stale copy), **plus** parked NV-buffer
    /// deltas not yet transferred. Used by the LInc-invariant tests.
    pub fn recompute_lincs(&self) -> Option<Vec<u64>> {
        let SchemeState::Steins(st) = &self.scheme else {
            return None;
        };
        let geo = &self.layout.geometry;
        let stale = |id: NodeId| {
            let line = self.nvm.peek(self.layout.node_addr(geo.offset_of(id)));
            parse_node(self.cfg.mode, id, &line)
        };
        let mut expect = vec![0u64; geo.levels()];
        for (_, offset, node, dirty) in self.meta.resident_nodes() {
            if !dirty {
                continue;
            }
            let id = geo.node_at_offset(offset);
            expect[id.level] += node.counters.parent_value() - stale(id).counters.parent_value();
        }
        // Parked entries: the child's NVM copy already carries the new
        // counters, but the parent (and the level transfer) is pending, so
        // the child's level still owes the delta and the parent's does not
        // yet hold it.
        for e in st.nv.buffer.entries() {
            let cid = geo.node_at_offset(e.child_offset);
            let (pid, slot) = geo.parent_of(cid).expect("buffered parents are non-root");
            let p_old = if self.meta.is_dirty(geo.offset_of(pid)) {
                // Parent dirty in cache: its cached value is the reference.
                self.meta
                    .peek(geo.offset_of(pid))
                    .expect("dirty implies resident")
                    .counters
                    .as_general()
                    .get(slot)
            } else {
                stale(pid).counters.as_general().get(slot)
            };
            if e.generated > p_old {
                expect[cid.level] += e.generated - p_old;
            }
        }
        Some(expect)
    }
}

impl CrashedSystem {
    /// Strict recovery (§III-G): offset records and NV-buffer replay name
    /// the candidate dirty set, which is rebuilt top-down from persistent
    /// children with per-level LInc verification. Each node goes into the
    /// crash-built machine's metadata cache as soon as its own checks pass;
    /// that cache is volatile, so a refused recovery drops it with `self`.
    pub(super) fn recover_steins(
        mut self,
        nv: SteinsNv,
        out: &mut Option<SecureNvmSystem>,
        prior: RecoveryJournal,
        restarts: u32,
    ) -> Result<RecoveryReport, IntegrityError> {
        let geo = self.layout.geometry.clone();
        let mut lincs = nv.lincs.clone();
        let mut reads = 0u64;

        // 1. Offset records → the plan, one (offset, recorded slot) entry
        //    per in-tree entry (may over-approximate; clean nodes recover to
        //    themselves, §III-H). Nodes go back into their recorded slots,
        //    so the rewritten record region is byte-identical to the
        //    pre-crash one (recovery idempotence). An entry whose slot is
        //    not in its offset's set is never written by the runtime — it
        //    is a zero-initialized line decoding as "offset 0" — so it pins
        //    no slot. Slots number cache lines, far below 2³².
        let sets = self.cfg.meta_cache.sets();
        let ways = self.cfg.meta_cache.ways as u64;
        let record_lines = self.layout.record_lines();
        let mut plan: Vec<(u64, Option<u32>)> = Vec::with_capacity(
            (record_lines * RECORDS_PER_LINE) as usize + 2 * nv.buffer.entries().len(),
        );
        for r in 0..record_lines {
            reads += 1;
            let line = self.nvm.peek(self.layout.record_addr(r));
            for (e, off) in RecordLine::from_line(&line).entries() {
                let off = u64::from(off);
                if off < geo.total_nodes() {
                    let slot = r * RECORDS_PER_LINE + e as u64;
                    plan.push((off, (slot / ways == off % sets).then_some(slot as u32)));
                }
            }
        }

        let reads_record_scan = reads;

        // 2. NV-buffer replay (§III-G step ⑤): transfer pending LInc deltas
        //    and mark the un-updated parents for recovery.
        for e in nv.buffer.entries() {
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
            let sp = self.stale_node(pid);
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
            plan.push((poff, None));
            plan.push((e.child_offset, None));
        }

        let reads_buffer_replay = reads - reads_record_scan;

        // Each offset once, with the largest slot it recorded: the scan met
        // slots ascending, so stale duplicates (a node re-dirtied in a new
        // slot leaves its old entry behind) resolve last-wins. Chosen slots
        // stay unique because a slot's entry names exactly one offset.
        plan.sort_unstable_by_key(|&(off, slot)| (off, Reverse(slot)));
        plan.dedup_by_key(|&mut (off, _)| off);

        // 3. Top-down recovery with per-level LInc verification, in install
        //    order (level descending, offset ascending); offsets run level by
        //    level, so a level's nodes are one run of `plan`. A verified node
        //    goes dirty (§III-G: "all the retrieved nodes will be marked as
        //    dirty") into its recorded slot, else (a buffer-replay parent)
        //    into its set's first unclaimed way. Every recorded slot is
        //    claimed up front, so no free way is one a later node needs. A
        //    node whose set is full waits in `deferred` for the rebuild's
        //    evicting pass, so a recovered parent is resident or in the
        //    previous level's run of `deferred`.
        let mut occupied = vec![0u64; (sets * ways).div_ceil(64) as usize];
        let claim = |occupied: &mut [u64], s: u64| occupied[(s / 64) as usize] |= 1 << (s % 64);
        for s in plan.iter().filter_map(|&(_, s)| s) {
            claim(&mut occupied, u64::from(s));
        }
        let mut deferred: Vec<(u64, SitNode)> = Vec::new();
        let mut per_level = vec![0usize; geo.levels()];
        let mut parents = 0..0;
        for k in (0..geo.levels()).rev() {
            let mut delta_sum: i128 = 0;
            let base = geo.offset_of(NodeId { level: k, index: 0 });
            let end = base + geo.nodes_at(k);
            let level =
                plan.partition_point(|&(o, _)| o < base)..plan.partition_point(|&(o, _)| o < end);
            let run = deferred.len();
            for &(off, pinned) in &plan[level.clone()] {
                let id = geo.node_at_offset(off);
                reads += 1;
                let stale = self.stale_node(id);
                // Verify the stale copy against its (recovered) parent —
                // catches tampering/replay of the stale node itself.
                let pc = if k == geo.top_level() {
                    self.root.get(geo.root_slot(id))
                } else {
                    let (pid, slot) = geo.parent_of(id).expect("non-top");
                    let poff = geo.offset_of(pid);
                    let level_above = &deferred[parents.clone()];
                    let parent = match self.machine.ctrl.meta.peek(poff) {
                        Some(p) => p,
                        None => match level_above.binary_search_by_key(&poff, |&(o, _)| o) {
                            Ok(i) => level_above[i].1,
                            Err(_) => {
                                reads += 1;
                                self.stale_node(pid)
                            }
                        },
                    };
                    parent.counters.as_general().get(slot)
                };
                self.verify_node(&stale, id, pc)?;

                // Reconstruct the latest counters from persistent children
                // (§III-B: the generation functions make this possible).
                let rec = if k >= 1 {
                    let mut g = *stale.counters.as_general();
                    for (j, cid) in geo.children_of(id).into_iter().enumerate() {
                        reads += 1;
                        let child = self.stale_node(cid);
                        let cval = child.counters.parent_value();
                        self.verify_node(&child, cid, cval)?;
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
                let slot = pinned.map(u64::from).or_else(|| {
                    let set = off % sets;
                    let free = (set * ways..(set + 1) * ways)
                        .find(|&f| occupied[(f / 64) as usize] & (1 << (f % 64)) == 0);
                    if let Some(f) = free {
                        claim(&mut occupied, f);
                    }
                    free
                });
                match slot {
                    Some(s) => self.machine.ctrl.meta.install_at(s, off, rec, true),
                    None => deferred.push((off, rec)),
                }
            }
            per_level[k] = level.len();
            parents = run..deferred.len();
            if delta_sum != lincs.get(k) as i128 {
                return Err(IntegrityError::LIncMismatch {
                    level: k,
                    stored: lincs.get(k),
                    recomputed: delta_sum.max(0) as u64,
                });
            }
        }

        // Every node is placed: free the plan before the rebuild allocates.
        let installed = (plan.len() - deferred.len()) as u64;
        drop((plan, occupied));
        let report = RecoveryReport::new(
            "Steins",
            &[
                ("record_scan", reads_record_scan),
                ("buffer_replay", reads_buffer_replay),
                ("rebuild", reads - reads_record_scan - reads_buffer_replay),
            ],
            per_level,
            prior,
            restarts,
            self.cfg.recovery_read_ns,
        );
        self.rebuild_steins(out, nv, installed, deferred, lincs, restarts)?;
        Ok(report)
    }

    /// Rebuilds the live Steins system, restartably, around the `installed`
    /// nodes verification already put into the metadata cache. The phase
    /// structure:
    ///
    /// 1. `STEINS_REBUILD` — journal the cached nodes, then install the
    ///    `deferred` ones (volatile). The scheme registers keep their
    ///    *crash-time* LInc/NV-buffer values (`nv`), so durable state is
    ///    completely unchanged through this phase: a crash here re-runs
    ///    recovery verbatim.
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
        nv: SteinsNv,
        mut installed: u64,
        deferred: Vec<(u64, SitNode)>,
        lincs: LincBank,
        restarts: u32,
    ) -> Result<(), IntegrityError> {
        let cfg = self.cfg.clone();
        let geo = self.layout.geometry.clone();
        let (crash_queued, crash_retired) = (nv.buffer.entries().len(), nv.buffer.retired());
        let old_lincs = nv.lincs.clone();
        let total = installed + deferred.len() as u64;
        let sys = out.insert(self.revive());
        regs(&mut sys.ctrl.scheme).nv = nv;
        // `hwm` = nodes installed: a progress record, not a resume point.
        for hwm in 0..=installed {
            sys.ctrl
                .journal_write(journal::STEINS_REBUILD, hwm, restarts)?;
        }
        // Set over-full (a parent landed in a set whose ways were all
        // recorded dirty): fall back to the evicting install. A fallback
        // flush can drain the NV buffer, which fetches parents; a parent
        // still waiting here must come back as its recovered value, not its
        // stale NVM copy. So every deferred node stays pending until it is
        // in, and a drain inside an earlier one's eviction installs it from
        // the recovered value.
        regs(&mut sys.ctrl.scheme).rebuild_pending = deferred.iter().copied().collect();
        for (off, node) in deferred {
            if regs(&mut sys.ctrl.scheme)
                .rebuild_pending
                .contains_key(&off)
            {
                sys.ctrl
                    .install_node(0, geo.node_at_offset(off), node, true)?;
                regs(&mut sys.ctrl.scheme).rebuild_pending.remove(&off);
            }
            installed += 1;
            sys.ctrl
                .journal_write(journal::STEINS_REBUILD, installed, restarts)?;
        }
        // Rewrite the record region to match the slot assignment. The
        // region is whole lines, so entries past the last slot stay empty.
        sys.ctrl
            .journal_write(journal::STEINS_RECORDS, 0, restarts)?;
        for r in 0..sys.ctrl.layout.record_lines() {
            let mut rl = RecordLine::default();
            for e in 0..RECORDS_PER_LINE as usize {
                if let Some(off) = sys.ctrl.meta.dirty_at(r * RECORDS_PER_LINE + e as u64) {
                    rl.set(e, off as u32);
                }
            }
            let addr = sys.ctrl.layout.record_addr(r);
            sys.ctrl.nvm.poke(addr, &rl.to_line())?;
        }
        // Atomic register switch: recovered LIncs + empty buffer become
        // live in the same persist interval as the DONE journal write —
        // plus whatever the fallback flushes did to the live registers:
        // their LInc deltas, and the entries they parked behind the
        // crash-time ones still queued. (A crash-time entry a fallback
        // drain retires finds its parent recovered: its apply is a no-op.)
        let st = regs(&mut sys.ctrl.scheme);
        let mut carried = lincs;
        for k in 0..carried.levels() {
            carried.add(k, st.nv.lincs.get(k));
            carried.sub(k, old_lincs.get(k));
        }
        let retired = (st.nv.buffer.retired() - crash_retired) as usize;
        let mut buffer = NvBuffer::new(cfg.nv_buffer_bytes);
        for &e in &st.nv.buffer.entries()[crash_queued.saturating_sub(retired)..] {
            buffer.push(e);
        }
        st.nv = SteinsNv {
            lincs: carried,
            buffer,
        };
        sys.ctrl.journal_write(journal::DONE, total, restarts)?;
        sys.ctrl.nvm.reset_stats();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_record_updates_the_right_entry() {
        let mut s = SteinsState::new(4, 128, 2);
        // Pretend the record line for slots 0..16 lives at address 0x1000
        // and was fetched (all-empty).
        s.record_cache
            .insert(0x1000, RecordLine::default().to_line());
        s.set_record(0x1000, 5, 777);
        let rl = RecordLine::from_line(s.record_cache.get(0x1000).unwrap());
        assert_eq!(rl.get(5), Some(777));
        assert_eq!(rl.get(4), None);
        assert_eq!(RECORDS_PER_LINE, 16);
    }
}
