//! The secure memory controller and the full trace-driven system.
//!
//! [`SecureMemoryController`] implements the paper's runtime (§III-E/F):
//! counter-mode encryption, the lazy-update SIT with per-scheme hooks, the
//! metadata cache, the write queue, and the controller front-end that
//! serializes requests (per §IV-F, requests to one DIMM are processed
//! serially). [`SecureNvmSystem`] wraps it with the CPU model and cache
//! hierarchy and runs workload traces.
//!
//! ## Timing model
//!
//! Every request carries its arrival cycle; the controller front-end is
//! busy until `front_free`. Fills stall the core (minus an MLP overlap
//! credit); write-backs do not stall the core directly but advance
//! `front_free` — so the *extra* metadata work a scheme performs (ASIT's
//! shadow writes and cache-tree chains, STAR's sorting and bitmap misses,
//! Steins' record-line misses) delays subsequent fills, which is exactly
//! how the paper's execution-time differences arise.

use crate::cme::{xor_otp, MacRecord};
use crate::config::{LeafRecovery, SchemeKind, SystemConfig};
use crate::error::{pass_cut, IntegrityError};
use crate::nvbuffer::NvBufferEntry;
use crate::online::{OnlinePolicy, OnlineService};
use crate::report::{LatencyStats, RunReport};
use crate::scheme::{star, AsitState, SchemeState, StarState, SteinsState};
use steins_cache::{CacheHierarchy, CpuModel, MemEvent};
use steins_crypto::{data_mac_message, engine::make_engine, CryptoEngine, FxHashMap};
use steins_metadata::counter::{CounterBlock, CounterMode, SplitIncrement};
use steins_metadata::records::record_coords;
use steins_metadata::{MemoryLayout, MetadataCache, NodeId, RootNode, SitNode};
use steins_nvm::{Cycle, EnergyCounters, EnergyModel, NvmDevice, PowerCut, WriteQueue};
use steins_trace::{OpKind, TraceOp};

/// The secure memory controller: functional state + timing + statistics.
pub struct SecureMemoryController {
    pub(crate) cfg: SystemConfig,
    pub(crate) layout: MemoryLayout,
    pub(crate) crypto: Box<dyn CryptoEngine>,
    pub(crate) nvm: NvmDevice,
    pub(crate) wq: WriteQueue,
    pub(crate) meta: MetadataCache,
    pub(crate) root: RootNode,
    pub(crate) scheme: SchemeState,
    pub(crate) front_free: Cycle,
    pub(crate) energy: EnergyCounters,
    pub(crate) wlat: LatencyStats,
    pub(crate) rlat: LatencyStats,
    pinned: Vec<u64>,
    /// Recovered nodes a Steins rebuild has yet to reinstall (empty outside
    /// recovery): a fetch of one installs its recovered value, never the
    /// stale NVM copy.
    pub(crate) rebuild_pending: FxHashMap<u64, SitNode>,
    /// Scratch: STAR's per-write dirty-set collection, reused across calls
    /// so the set-MAC path performs no steady-state allocation.
    star_dirty: Vec<(u64, SitNode)>,
    /// Scratch: variable-length MAC message buffer, reused across calls.
    mac_msg: Vec<u8>,
}

impl SecureMemoryController {
    /// Builds a fresh controller (zeroed NVM, empty caches).
    pub fn new(cfg: SystemConfig) -> Self {
        let crypto = make_engine(cfg.crypto, cfg.secret_key());
        Self::with_engine(cfg, crypto)
    }

    /// Builds a fresh controller around an injected crypto engine. Tests use
    /// this to wrap the real engine (e.g. in a `SerialPresentation`) and
    /// prove batched and serial crypto presentation drive byte-identical
    /// system behavior; `cfg.crypto` is ignored in favor of `crypto`.
    pub fn with_engine(cfg: SystemConfig, crypto: Box<dyn CryptoEngine>) -> Self {
        cfg.validate();
        let layout = MemoryLayout::new(cfg.mode, cfg.data_lines, cfg.meta_cache.slots());
        assert!(
            layout.end <= cfg.nvm.capacity_bytes,
            "regions ({} B) exceed device capacity ({} B); shrink data_lines",
            layout.end,
            cfg.nvm.capacity_bytes
        );
        let nvm = NvmDevice::new(cfg.nvm.clone());
        let wq = WriteQueue::new(cfg.nvm.write_queue_entries);
        let meta = MetadataCache::new(cfg.meta_cache);
        let root = RootNode::new(layout.geometry.root_fanout());
        let scheme = match cfg.scheme {
            SchemeKind::WriteBack => SchemeState::WriteBack,
            SchemeKind::Asit => SchemeState::Asit(AsitState::new(
                crypto.as_ref(),
                cfg.meta_cache.slots() as usize,
            )),
            SchemeKind::Star => SchemeState::Star(StarState::new(
                crypto.as_ref(),
                cfg.meta_cache.sets() as usize,
                cfg.bitmap_cache_lines,
            )),
            SchemeKind::Steins => SchemeState::Steins(SteinsState::new(
                layout.geometry.levels(),
                cfg.nv_buffer_bytes,
                cfg.record_cache_lines,
            )),
        };
        SecureMemoryController {
            cfg,
            layout,
            crypto,
            nvm,
            wq,
            meta,
            root,
            scheme,
            front_free: 0,
            energy: EnergyCounters::default(),
            wlat: LatencyStats::default(),
            rlat: LatencyStats::default(),
            pinned: Vec::new(),
            rebuild_pending: FxHashMap::default(),
            star_dirty: Vec::new(),
            mac_msg: Vec::new(),
        }
    }

    /// Writes the ADR recovery journal sealed under the engine key. Every
    /// journal write in the controller crates goes through here — the MAC
    /// is what lets the next recovery attempt prove the resume point was
    /// written by a holder of the key, not forged on the bus.
    pub(crate) fn journal_write(
        &mut self,
        journal: steins_nvm::RecoveryJournal,
    ) -> Result<(), PowerCut> {
        let mac = crate::recovery::seal_journal(self.crypto.as_ref(), &journal);
        self.nvm.set_recovery_journal(journal, mac)
    }

    /// Whether Steins is the active scheme.
    fn is_steins(&self) -> bool {
        matches!(self.cfg.scheme, SchemeKind::Steins)
    }

    /// Parses a metadata NVM line according to the node's level.
    pub(crate) fn parse_node(&self, id: NodeId, line: &[u8; 64]) -> SitNode {
        if id.level == 0 && self.cfg.mode == CounterMode::Split {
            SitNode::split_from_line(line)
        } else {
            SitNode::general_from_line(line)
        }
    }

    fn is_zero_node(node: &SitNode) -> bool {
        node.hmac == 0 && node.to_line() == [0u8; 64]
    }

    /// Computes the 64-bit MAC a node stores when flushed with parent
    /// counter `pc` (STAR packs the counter LSBs into the field).
    fn node_mac_field(&mut self, node: &SitNode, offset: u64, pc: u64) -> u64 {
        self.energy.hashes += 1;
        let mac = self
            .crypto
            .mac64_72(&node.mac_message(self.layout.node_addr(offset), pc));
        if matches!(self.cfg.scheme, SchemeKind::Star) {
            star::pack_hmac(mac, pc)
        } else {
            mac
        }
    }

    /// Verifies a fetched node against its parent counter. Zero nodes under
    /// a zero parent counter are the lazily-initialized state and pass.
    pub(crate) fn verify_node(
        &mut self,
        node: &SitNode,
        id: NodeId,
        pc: u64,
    ) -> Result<(), IntegrityError> {
        if pc == 0 && Self::is_zero_node(node) {
            return Ok(());
        }
        let offset = self.layout.geometry.offset_of(id);
        self.energy.hashes += 1;
        let mac = self
            .crypto
            .mac64_72(&node.mac_message(self.layout.node_addr(offset), pc));
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

    /// The trusted parent counter for `id`, fetching/verifying ancestors as
    /// needed. Returns `(counter, time)`.
    fn parent_counter(&mut self, t: Cycle, id: NodeId) -> Result<(u64, Cycle), IntegrityError> {
        match self.layout.geometry.parent_of(id) {
            None => Ok((self.root.get(self.layout.geometry.root_slot(id)), t)),
            Some((pid, slot)) => {
                let t = self.ensure_cached(t, pid)?;
                let poff = self.layout.geometry.offset_of(pid);
                let p = self.meta.peek(poff).expect("parent just ensured");
                Ok((p.counters.as_general().get(slot), t))
            }
        }
    }

    /// Fetches `id` into the metadata cache (verifying the ancestor chain)
    /// if absent. Returns the cycle the node is available.
    pub(crate) fn ensure_cached(&mut self, t: Cycle, id: NodeId) -> Result<Cycle, IntegrityError> {
        let offset = self.layout.geometry.offset_of(id);
        if self.meta.lookup(offset).is_some() {
            self.energy.cache_accesses += 1;
            return Ok(t);
        }
        if let Some(node) = self.rebuild_pending.remove(&offset) {
            return self.install_node(t, id, node, true);
        }
        // Steins drains the NV parent-counter buffer before node fetches so
        // verification always sees up-to-date parent counters (§III-E).
        // Entries stay in the buffer until applied, so fetches issued *by*
        // the drain itself must not re-enter it.
        if self.is_steins()
            && !self.scheme.steins_ref().draining
            && !self.scheme.steins_ref().nv_buffer.is_empty()
        {
            self.drain_nv_buffer(t)?;
        }
        let (pc, t) = self.parent_counter(t, id)?;
        // Fetching the parent can evict a dirty node whose flush walks back
        // through `id` and installs it (e.g. the victim's parent *is* `id`).
        // Installing again would duplicate the node with stale counters.
        if self.meta.contains(offset) {
            return Ok(t);
        }
        // If this node was flushed with a generated counter that is still
        // parked in the NV buffer (or held by an in-progress drain), its
        // stored HMAC was computed with that value, not the parent's stale
        // counter (§III-E).
        let pc = if self.is_steins() {
            match self.scheme.steins_ref().parked_generated(offset) {
                Some(g) => pc.max(g),
                None => pc,
            }
        } else {
            pc
        };
        let (line, t) = self.nvm.read(t, self.layout.node_addr(offset));
        let node = self.parse_node(id, &line);
        let t = t + self.cfg.hash_latency;
        self.verify_node(&node, id, pc)?;
        self.install_node(t, id, node, false)
    }

    /// Installs a node, making room first by flushing dirty victims **in
    /// place** — while still resident and pinned — so that any node fetch
    /// the flush triggers (parent walks, NV-buffer drains) observes the
    /// victim's live counters instead of its stale NVM copy. Only clean
    /// victims are ever silently dropped.
    pub(crate) fn install_node(
        &mut self,
        t: Cycle,
        id: NodeId,
        node: SitNode,
        dirty: bool,
    ) -> Result<Cycle, IntegrityError> {
        let offset = self.layout.geometry.offset_of(id);
        self.pinned.push(offset);
        let mut t = t;
        let result = (|| {
            loop {
                if self.meta.contains(offset) {
                    // Nested work (a victim flush walking back through this
                    // node, or a drain fetching a rebuild's pending node)
                    // installed it already — and may have modified it since,
                    // so the cached copy wins.
                    return Ok(t);
                }
                match self.meta.probe_victim(offset, &self.pinned) {
                    Some((voff, true)) => {
                        t = self.flush_in_place(t, voff)?;
                        // Loop: the flush may have reshuffled the set (or
                        // installed `offset` itself).
                    }
                    _ => break,
                }
            }
            let evicted = self.meta.install_pinned(offset, node, dirty, &self.pinned);
            if let Some(ev) = evicted {
                debug_assert!(!ev.dirty, "victims are flushed in place first");
                t = self.scheme_slot_vacated(t, ev.slot, ev.offset);
            }
            Ok(t)
        })();
        self.pinned.pop();
        result
    }

    /// Scheme work when a cache slot's previous (clean) occupant leaves:
    /// ASIT retires the slot's shadow entry from the cache-tree. Clean
    /// fetches cost nothing under any scheme (ASIT mirrors modifications,
    /// not installs; STAR's cache-tree covers dirty nodes only).
    fn scheme_slot_vacated(&mut self, mut t: Cycle, slot: u64, _offset: u64) -> Cycle {
        if let SchemeState::Asit(st) = &mut self.scheme {
            if st.shadow_tags.remove(&slot).is_some() {
                let hashes = st.cache_tree.update(self.crypto.as_ref(), slot as usize, 0);
                st.commit_root();
                self.energy.hashes += hashes as u64;
                t += hashes as u64 * self.cfg.hash_latency;
            }
        }
        t
    }

    /// Marks a cached node dirty after a content change and runs the
    /// per-scheme tracking/persistence hooks (§III table in `scheme`).
    /// `pre` is the node's content just before the mutation — STAR's
    /// cache-tree needs it at a clean→dirty transition (see below).
    pub(crate) fn on_node_modified(
        &mut self,
        mut t: Cycle,
        offset: u64,
        pre: &SitNode,
    ) -> Result<Cycle, IntegrityError> {
        let (slot, was_clean) = self.meta.mark_dirty(offset);
        match self.cfg.scheme {
            SchemeKind::WriteBack => {}
            SchemeKind::Steins => {
                if was_clean {
                    t = self.steins_record_update(t, slot, offset)?;
                }
            }
            SchemeKind::Asit => {
                t = self.asit_slot_update(t, offset)?;
            }
            SchemeKind::Star => {
                if was_clean {
                    // Cache-tree register first — over the node's
                    // PRE-mutation content, which is what recovery can
                    // reconstruct from NVM at this boundary — so the
                    // register rides the bitmap line's persist event
                    // atomically (register writes emit no event).
                    let set = self.meta.set_index(offset);
                    t = self.star_tree_update_with(t, set, Some((offset, *pre)));
                    t = self.star_bitmap_update(t, offset, true)?;
                }
                // The register refresh over the NEW content is deferred to
                // the call site, where it rides the persist event that makes
                // the mutation itself durable (data-line or child write).
            }
        }
        Ok(t)
    }

    /// Steins §III-C: write the dirty node's offset into its record line,
    /// fetching the line into the ADR record cache on a miss.
    ///
    /// The fetch and any evicted-line write-back are *posted*: the record
    /// cache lives in the ADR domain, so the controller does not wait for
    /// them — they cost NVM traffic and bank occupancy, not front-end time
    /// (the write stalls only on write-queue back-pressure). This is the
    /// cost asymmetry versus STAR's write-through bitmap below.
    fn steins_record_update(
        &mut self,
        mut t: Cycle,
        cache_slot: u64,
        offset: u64,
    ) -> Result<Cycle, PowerCut> {
        let (rline, _) = record_coords(cache_slot);
        let raddr = self.layout.record_addr(rline);
        let st = match &mut self.scheme {
            SchemeState::Steins(s) => s,
            _ => unreachable!("steins hook under steins scheme"),
        };
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

    /// STAR: flip the node's dirty bit in the bitmap.
    ///
    /// STAR predates Steins' ADR-resident record trick: its bitmap must be
    /// durable on its own, so every transition **writes the updated line
    /// through to NVM** (the "extra memory access overhead" of §II-D and
    /// the 1.3× traffic of Fig. 13). The line cache only absorbs re-reads.
    fn star_bitmap_update(
        &mut self,
        mut t: Cycle,
        offset: u64,
        set_bit: bool,
    ) -> Result<Cycle, PowerCut> {
        let (baddr, bit) = self.layout.bitmap_slot(offset);
        let st = match &mut self.scheme {
            SchemeState::Star(s) => s,
            _ => unreachable!("star hook under star scheme"),
        };
        if !st.bitmap_cache.touch(baddr) {
            let (line, t2) = self.nvm.read(t, baddr);
            t = t2;
            // Write-through lines are never dirty: drop evictions silently.
            st.bitmap_cache.insert(baddr, line);
        }
        let line = st.bitmap_cache.get_mut(baddr).expect("just ensured");
        let (byte, off) = (bit / 8, bit % 8);
        if set_bit {
            line[byte] |= 1 << off;
        } else {
            line[byte] &= !(1 << off);
        }
        let line = *line;
        self.energy.cache_accesses += 1;
        // The cached bitmap line is in the ADR domain: flipping the bit is a
        // durable transition on its own, ahead of the write-through below.
        self.nvm.adr_persist_event(baddr)?;
        self.wq.push(t, baddr, &line, &mut self.nvm)
    }

    /// STAR: recompute the set-MAC (sorted dirty nodes) and the cache-tree
    /// path above it.
    pub(crate) fn star_tree_update(&mut self, t: Cycle, set: usize) -> Cycle {
        self.star_tree_update_with(t, set, None)
    }

    /// The set-MAC, optionally substituting one node's content (used at a
    /// clean→dirty transition, where the register must cover the node's
    /// PRE-mutation content: that is what recovery reconstructs from NVM at
    /// the bitmap write's persist boundary — the mutated content only
    /// becomes reconstructible at its own persist event, where the caller
    /// refreshes the register again).
    ///
    /// The HMAC field is excluded from the MAC (zeroed): a dirty node's
    /// stored HMAC is recomputed when it flushes, so including it would tie
    /// the register to a field whose NVM copy changes at the flush boundary
    /// without any counter changing.
    fn star_tree_update_with(
        &mut self,
        t: Cycle,
        set: usize,
        substitute: Option<(u64, SitNode)>,
    ) -> Cycle {
        // Reusable scratch (taken/restored around the &mut self borrows):
        // this runs once per STAR write, so a fresh Vec per call was the
        // scheme's single largest allocation source.
        let mut dirty = std::mem::take(&mut self.star_dirty);
        dirty.clear();
        self.meta.dirty_set_nodes_into(set, &mut dirty);
        if let Some((off, node)) = substitute {
            for e in &mut dirty {
                if e.0 == off {
                    e.1 = node;
                }
            }
        }
        dirty.sort_unstable_by_key(|(o, _)| *o);
        let leaf_mac = if dirty.is_empty() {
            0
        } else {
            let mut msg = std::mem::take(&mut self.mac_msg);
            msg.clear();
            msg.reserve(dirty.len() * 72);
            for (o, n) in &dirty {
                let mut n = *n;
                n.hmac = 0;
                msg.extend_from_slice(&o.to_le_bytes());
                msg.extend_from_slice(&n.to_line());
            }
            self.energy.hashes += 1;
            let mac = self.crypto.mac64(&msg);
            self.mac_msg = msg;
            mac
        };
        self.star_dirty = dirty;
        let st = match &mut self.scheme {
            SchemeState::Star(s) => s,
            _ => unreachable!("star hook under star scheme"),
        };
        let hashes = st.cache_tree.update(self.crypto.as_ref(), set, leaf_mac);
        st.commit_root();
        self.energy.hashes += hashes as u64;
        let ways = self.cfg.meta_cache.ways;
        t + StarState::sort_latency(ways) + (1 + hashes as u64) * self.cfg.hash_latency
    }

    /// ASIT: mirror the slot's content into the shadow table and rebuild the
    /// cache-tree path for it.
    pub(crate) fn asit_slot_update(
        &mut self,
        mut t: Cycle,
        offset: u64,
    ) -> Result<Cycle, PowerCut> {
        let slot = self.meta.slot_of(offset).expect("node resident");
        let node = *self.meta.peek(offset).expect("node resident");
        let line = node.to_line();
        // Leaf MAC over (content ‖ slot), then the path to the root. The
        // register updates are persist-event-free, so doing them BEFORE the
        // shadow-line write makes them atomic with it: a crash at the shadow
        // write's persist boundary observes the new shadow content together
        // with the root that authenticates it (updating the root after the
        // write left a boundary where recovery rebuilt a root the register
        // did not hold yet).
        let mut msg = [0u8; 72];
        msg[..64].copy_from_slice(&line);
        msg[64..].copy_from_slice(&slot.to_le_bytes());
        self.energy.hashes += 1;
        let leaf_mac = self.crypto.mac64_72(&msg);
        // Stage the pre-image (slot, previous root/tag/durable line) in the
        // ADR-domain in-flight buffer before touching any register: under
        // 8 B write atomicity the shadow line below can tear, and recovery
        // falls back to this authenticated pre-state (see `AsitInflight`).
        let prev_line = self.nvm.peek(self.layout.shadow_addr(slot));
        let st = match &mut self.scheme {
            SchemeState::Asit(s) => s,
            _ => unreachable!("asit hook under asit scheme"),
        };
        st.inflight = Some(crate::scheme::asit::AsitInflight {
            slot,
            prev_root: st.nv_root,
            prev_tag: st.shadow_tags.get(&slot).copied(),
            prev_line,
        });
        st.shadow_tags.insert(slot, offset);
        let hashes = st
            .cache_tree
            .update(self.crypto.as_ref(), slot as usize, leaf_mac);
        st.commit_root();
        self.energy.hashes += hashes as u64;
        t += (1 + hashes as u64) * self.cfg.hash_latency;
        // Shadow write: the 2× traffic of Fig. 13.
        t = self
            .wq
            .push(t, self.layout.shadow_addr(slot), &line, &mut self.nvm)?;
        // The queue accepted the line (durable): the update is no longer in
        // flight. A power cut inside the push above returns before this
        // clear, leaving the pre-image staged for recovery.
        match &mut self.scheme {
            SchemeState::Asit(s) => s.inflight = None,
            _ => unreachable!("asit hook under asit scheme"),
        }
        Ok(t)
    }

    /// Flushes a dirty node to NVM **in place** (§III-E): the node stays
    /// resident (and pinned) throughout, so nested fetches triggered by the
    /// parent walk always observe its live counters. On return the node is
    /// clean; its NVM copy matches the cached value at flush time.
    ///
    /// Steins generates the parent counter locally and never touches the
    /// parent on the critical path (NV buffer on a miss); baselines
    /// self-increment the — possibly fetched — parent first.
    pub(crate) fn flush_in_place(
        &mut self,
        mut t: Cycle,
        offset: u64,
    ) -> Result<Cycle, IntegrityError> {
        let id = self.layout.geometry.node_at_offset(offset);
        let addr = self.layout.node_addr(offset);
        self.pinned.push(offset);
        let result = (|| {
            if self.is_steins() {
                // Preparatory work that can run nested evictions (which may
                // even advance this pinned node's counters) goes FIRST: fetch
                // the parent for a re-entrant drain flush, or make room in
                // the NV buffer. Only afterwards is the node snapshotted.
                let parent = self.layout.geometry.parent_of(id);
                if let Some((pid, _)) = parent {
                    let poff = self.layout.geometry.offset_of(pid);
                    if !self.meta.contains(poff) {
                        if self.scheme.steins_ref().draining {
                            // Re-entrant eviction during a drain: fetch inline.
                            t = self.ensure_cached(t, pid)?;
                        } else if self.scheme.steins_ref().nv_buffer.is_full() {
                            self.drain_nv_buffer(t)?;
                        }
                    }
                }
                let mut node = *self.meta.peek(offset).expect("flush target resident");
                let p_new = node.counters.parent_value();
                // Crash-ordering invariant: the parent-side accounting for
                // `p_new` (parent record + counter apply, or NV-buffer park,
                // or root-register update) becomes durable BEFORE the
                // child's line write below, and the final register updates
                // share the child write's persist interval. A crash at any
                // persist boundary therefore observes either the old child
                // with the old accounting, or the new child with accounting
                // that recovery can replay — never a flushed child whose
                // generated counter no record, buffer entry, or register
                // accounts for.
                match parent {
                    None => {
                        let slot = self.layout.geometry.root_slot(id);
                        let delta = p_new - self.root.get(slot);
                        self.root.set(slot, p_new);
                        self.scheme.steins().lincs.sub(id.level, delta);
                    }
                    Some((pid, slot)) => {
                        let poff = self.layout.geometry.offset_of(pid);
                        if self.meta.contains(poff) {
                            t = self.steins_apply_parent(t, id, pid, slot, p_new)?;
                        } else {
                            self.scheme.steins().nv_buffer.push(NvBufferEntry {
                                child_offset: offset,
                                generated: p_new,
                            });
                        }
                    }
                }
                node.hmac = self.node_mac_field(&node, offset, p_new);
                t += self.cfg.hash_latency;
                t = self.wq.push(t, addr, &node.to_line(), &mut self.nvm)?;
                // The NVM copy is now current: mirror the recomputed HMAC
                // into the cached copy and clean it.
                self.meta.write(offset, node);
                self.meta.mark_clean(offset);
            } else {
                // WB / ASIT / STAR: self-increasing parent counter, needed
                // before the child's HMAC can be computed. The parent walk
                // may run arbitrary nested evictions — the node is pinned
                // and resident, so they see (and may even update) it; its
                // value is re-read afterwards.
                let pc = match self.layout.geometry.parent_of(id) {
                    None => {
                        let slot = self.layout.geometry.root_slot(id);
                        let v = self.root.get(slot) + 1;
                        self.root.set(slot, v);
                        v
                    }
                    Some((pid, slot)) => {
                        t = self.ensure_cached(t, pid)?;
                        let poff = self.layout.geometry.offset_of(pid);
                        let pre = *self.meta.peek(poff).expect("parent just ensured");
                        let mut p = pre;
                        p.counters.as_general_mut().increment(slot);
                        let v = p.counters.as_general().get(slot);
                        self.meta.write(poff, p);
                        t = self.on_node_modified(t, poff, &pre)?;
                        if matches!(self.cfg.scheme, SchemeKind::Star) {
                            // Refresh the register over the incremented
                            // parent: it rides the child's line write below,
                            // which is the persist event making the
                            // increment reconstructible (the child's counter
                            // LSBs carry it).
                            let pset = self.meta.set_index(poff);
                            t = self.star_tree_update(t, pset);
                        }
                        v
                    }
                };
                let mut node = *self.meta.peek(offset).expect("flush target resident");
                node.hmac = self.node_mac_field(&node, offset, pc);
                t += self.cfg.hash_latency;
                t = self.wq.push(t, addr, &node.to_line(), &mut self.nvm)?;
                self.meta.write(offset, node);
                self.meta.mark_clean(offset);
                if matches!(self.cfg.scheme, SchemeKind::Star) {
                    // dirty→clean transition: STAR must clear the bitmap bit
                    // (the tracking write Steins avoids, §IV-B) and drop the
                    // node from the set-MAC. Register first: it emits no
                    // persist event, so it rides the bitmap clear's event
                    // atomically — clearing the bit first left a boundary
                    // where the bitmap excluded the node but the register
                    // still covered it.
                    let set = self.meta.set_index(offset);
                    t = self.star_tree_update(t, set);
                    t = self.star_bitmap_update(t, offset, false)?;
                }
            }
            Ok(t)
        })();
        self.pinned.pop();
        result
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
        let st = self.scheme.steins();
        st.lincs.sub(child.level, delta);
        st.lincs.add(pid.level, delta);
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
        if self.scheme.steins_ref().nv_buffer.is_empty() {
            return Ok(());
        }
        self.scheme.steins().draining = true;
        let result = (|| {
            while let Some(e) = self.scheme.steins_ref().nv_buffer.front() {
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
                self.scheme.steins().nv_buffer.pop_front();
            }
            Ok(())
        })();
        self.scheme.steins().draining = false;
        result
    }

    // ——— MAC records (functionally ECC-embedded; see DESIGN.md §2.7) ———

    pub(crate) fn get_mac_record(&self, data_line: u64) -> MacRecord {
        let (laddr, byte) = self.layout.mac_slot(data_line);
        let line = self.nvm.peek(laddr);
        MacRecord::read_slot(&line, byte / 16)
    }

    pub(crate) fn set_mac_record(
        &mut self,
        data_line: u64,
        rec: MacRecord,
    ) -> Result<(), PowerCut> {
        let (laddr, byte) = self.layout.mac_slot(data_line);
        let mut line = self.nvm.peek(laddr);
        rec.write_slot(&mut line, byte / 16);
        self.nvm.poke(laddr, &line)
    }

    /// Re-encrypts every persisted block a split leaf covers after a minor
    /// overflow (§II-B), except the block currently being written.
    ///
    /// Every covered line is MAC-verified under its old counter pair before
    /// being re-encrypted; corrupt or unreadable lines are skipped so their
    /// stale `(ciphertext, record)` keeps failing closed instead of being
    /// laundered under a fresh MAC.
    #[allow(clippy::too_many_arguments)]
    fn reencrypt_leaf(
        &mut self,
        mut t: Cycle,
        leaf: NodeId,
        old_major: u64,
        old_minors: &[u8; 64],
        new_major: u64,
        skip_line: u64,
    ) -> Result<Cycle, IntegrityError> {
        // Phase 1 — verify, then compute. Each covered line's ciphertext is
        // read through the fault overlay, so it must be authenticated under
        // the *old* pair before being touched: re-encrypting a flipped or
        // stuck line and stamping it with a fresh MAC would launder the
        // corruption into an authenticated block. A line that fails the
        // check (or is unreadable outright) is left exactly as it was — old
        // ciphertext, old record — so it keeps failing closed on reads until
        // the scrub quarantines it. Only the crypto is batched; no durable
        // state changes in this phase.
        let mut candidates: Vec<(u64, u64, [u8; 64], u64)> = Vec::new();
        for d in self.layout.geometry.data_of_leaf(leaf) {
            if d == skip_line {
                continue;
            }
            let daddr = self.layout.data_base + d * 64;
            if !self.nvm.storage().contains(daddr) {
                continue; // never written: nothing to re-encrypt
            }
            if !self.nvm.is_readable(daddr) {
                continue; // fails closed already; the scrub will alarm it
            }
            let slot = (d % self.cfg.mode.leaf_coverage()) as usize;
            let (ct, t2) = self.nvm.read(t, daddr);
            t = t2;
            candidates.push((d, daddr, ct, u64::from(old_minors[slot])));
        }
        let verify_msgs: Vec<[u8; 88]> = candidates
            .iter()
            .map(|(_, daddr, ct, minor)| data_mac_message(*daddr, ct, old_major, *minor))
            .collect();
        let mut verify_macs = vec![0u64; verify_msgs.len()];
        self.crypto.mac64_88_many(&verify_msgs, &mut verify_macs);
        let mut pending: Vec<(u64, u64, [u8; 64])> = Vec::new();
        for ((d, daddr, ct, minor), vmac) in candidates.into_iter().zip(verify_macs) {
            self.energy.hashes += 1;
            if self.get_mac_record(d).mac != vmac {
                continue; // corrupt under the old pair: skip, never launder
            }
            let mut buf = ct;
            // Decrypt under the old pair, re-encrypt under (new major, 0).
            xor_otp(self.crypto.as_ref(), daddr, old_major, minor, &mut buf);
            xor_otp(self.crypto.as_ref(), daddr, new_major, 0, &mut buf);
            self.energy.aes_ops += 2;
            self.energy.hashes += 1;
            pending.push((d, daddr, buf));
        }
        let msgs: Vec<[u8; 88]> = pending
            .iter()
            .map(|(_, daddr, buf)| data_mac_message(*daddr, buf, new_major, 0))
            .collect();
        let mut macs = vec![0u64; msgs.len()];
        self.crypto.mac64_88_many(&msgs, &mut macs);
        // Phase 2 — persist, in exactly the serial order the crash sweeps
        // enumerate: [record_1, data_1, record_2, data_2, …]. Hoisting the
        // records ahead of the data writes would open crash windows where a
        // record describes counters no durable ciphertext matches, so the
        // per-line interleaving must never change — batching stops at the
        // crypto.
        for ((d, daddr, buf), mac) in pending.iter().zip(macs) {
            self.set_mac_record(
                *d,
                MacRecord {
                    mac,
                    recovery: MacRecord::pack_recovery(new_major, 0),
                },
            )?;
            t = self.wq.push(t, *daddr, buf, &mut self.nvm)?;
        }
        Ok(t)
    }

    /// Epoch re-encryption sweep step, driven by the online integrity
    /// service (`crate::online`): advances a split leaf's major counter
    /// past its current epoch and re-encrypts every persisted block it
    /// covers under the fresh `(major′, 0)` pairs — the same
    /// [`Self::reencrypt_leaf`] machinery the natural minor-overflow path
    /// uses, triggered by policy instead of by overflow. Returns `false`
    /// (no-op) for general-counter leaves, which have no epoch.
    ///
    /// The major bump absorbs the minors being reset (`Δ = ⌈Σminors/64⌉`,
    /// floored at 1), so the generated parent value (Eq. 2) stays
    /// monotone and the L0Inc accounting mirrors the overflow path
    /// exactly. Runs in the background: device and queue occupancy are
    /// charged, the controller front-end is not ratcheted.
    ///
    /// The caller should verify every covered line first; as defense in
    /// depth [`Self::reencrypt_leaf`] additionally re-checks each line's
    /// MAC under its old pair and skips any that fail, so a poisoned or
    /// stuck line is never laundered under a fresh MAC.
    pub(crate) fn epoch_reencrypt(&mut self, leaf_id: NodeId) -> Result<bool, IntegrityError> {
        let t = self.front_free;
        let t = self.ensure_cached(t, leaf_id)?;
        let loff = self.layout.geometry.offset_of(leaf_id);
        let pre = *self.meta.peek(loff).expect("leaf just ensured");
        let mut leaf = pre;
        let CounterBlock::Split(s) = &mut leaf.counters else {
            return Ok(false);
        };
        let old_major = s.major;
        let old_minors = s.minors;
        let minor_sum: u64 = s.minors.iter().map(|&m| u64::from(m)).sum();
        let delta = minor_sum.div_ceil(64).max(1);
        s.major += delta;
        s.minors = [0; 64];
        let pv_delta = leaf.counters.parent_value() - pre.counters.parent_value();
        self.meta.write(loff, leaf);
        let t = self.on_node_modified(t, loff, &pre)?;
        self.reencrypt_leaf(
            t,
            leaf_id,
            old_major,
            &old_minors,
            old_major + delta,
            u64::MAX,
        )?;
        if self.is_steins() {
            self.scheme.steins().lincs.add(0, pv_delta);
        }
        Ok(true)
    }

    /// Secure write of one 64 B user line (LLC write-back or flush, §III-F).
    /// Returns the cycle the controller front-end is free again.
    pub fn write_data(
        &mut self,
        arrival: Cycle,
        addr: u64,
        plaintext: &[u8; 64],
    ) -> Result<Cycle, IntegrityError> {
        assert!(
            self.layout.is_data(addr),
            "write at {addr:#x} outside the data region ({} lines)",
            self.layout.data_lines
        );
        let mut t = arrival.max(self.front_free);
        let dline = addr / 64;
        let (leaf_id, slot) = self.layout.geometry.leaf_of_data(dline);
        t = self.ensure_cached(t, leaf_id)?;
        let loff = self.layout.geometry.offset_of(leaf_id);
        let pre_leaf = *self.meta.peek(loff).expect("leaf just ensured");
        let mut leaf = pre_leaf;
        let pv_before = leaf.counters.parent_value();
        let mut reenc: Option<(u64, [u8; 64])> = None;
        match &mut leaf.counters {
            CounterBlock::General(g) => {
                g.increment(slot);
            }
            CounterBlock::Split(s) => {
                let old = *s;
                let skip = self.is_steins();
                if let SplitIncrement::Overflow { .. } = s.increment(slot, skip) {
                    reenc = Some((old.major, old.minors));
                }
            }
        }
        let (major, minor) = leaf.counters.enc_pair(slot);
        let pv_after = leaf.counters.parent_value();
        self.meta.write(loff, leaf);
        t = self.on_node_modified(t, loff, &pre_leaf)?;
        if let Some((old_major, old_minors)) = reenc {
            t = self.reencrypt_leaf(t, leaf_id, old_major, &old_minors, major, dline)?;
        }
        // Encrypt, MAC, persist.
        let mut line = *plaintext;
        xor_otp(self.crypto.as_ref(), addr, major, minor, &mut line);
        self.energy.aes_ops += 1;
        self.energy.hashes += 1;
        let mac = self.crypto.data_mac(addr, &line, major, minor);
        t += self.cfg.hash_latency;
        let recovery = match self.cfg.leaf_recovery {
            // Osiris keeps no counter beside the data; recovery probes.
            LeafRecovery::OsirisProbe { .. } => 0,
            LeafRecovery::MacRecord => MacRecord::pack_recovery(major, minor),
        };
        // The L0Inc bump must ride atomically with the write that makes the
        // counter increment durable (the data line + its MacRecord, below):
        // register updates emit no persist event, so placing the bump here —
        // with no persist boundary before the push — means a crash either
        // observes both the new MacRecord and the bumped register, or
        // neither. Bumping earlier (before the record update above) left a
        // crash window where L0Inc counted an increment no MacRecord had
        // durably recorded, which recovery rejects as a replay.
        if self.is_steins() {
            self.scheme.steins().lincs.add(0, pv_after - pv_before);
        }
        if matches!(self.cfg.scheme, SchemeKind::Star) {
            // STAR's deferred register refresh: the new leaf counter becomes
            // reconstructible exactly when this data line + MacRecord land,
            // so the refresh rides the push's persist event atomically.
            let set = self.meta.set_index(loff);
            t = self.star_tree_update(t, set);
        }
        self.set_mac_record(dline, MacRecord { mac, recovery })?;
        t = self.wq.push(t, addr, &line, &mut self.nvm)?;
        // Osiris stop-loss (§V): every `window` increments, write the leaf
        // through so the post-crash probe distance stays bounded.
        if let LeafRecovery::OsirisProbe { window } = self.cfg.leaf_recovery {
            if major % window == 0 && self.meta.is_dirty(loff) {
                t = self.flush_in_place(t, loff)?;
            }
        }
        self.front_free = t;
        self.wlat.record(arrival, t);
        Ok(t)
    }

    /// Secure read of one 64 B user line (LLC fill, §III-F). Returns the
    /// plaintext and the cycle it is available.
    pub fn read_data(
        &mut self,
        arrival: Cycle,
        addr: u64,
    ) -> Result<([u8; 64], Cycle), IntegrityError> {
        assert!(
            self.layout.is_data(addr),
            "read at {addr:#x} outside the data region ({} lines)",
            self.layout.data_lines
        );
        let mut t = arrival.max(self.front_free);
        let dline = addr / 64;
        let (leaf_id, slot) = self.layout.geometry.leaf_of_data(dline);
        t = self.ensure_cached(t, leaf_id)?;
        let loff = self.layout.geometry.offset_of(leaf_id);
        let (major, minor) = self
            .meta
            .peek(loff)
            .expect("leaf just ensured")
            .counters
            .enc_pair(slot);
        let (ct, t2) = self.nvm.read(t, addr);
        t = t2;
        if !self.nvm.is_readable(addr) {
            // Uncorrectable media error: the bytes are poison, not merely
            // tampered — report it as such instead of a spurious MAC verdict.
            return Err(IntegrityError::Unreadable { addr });
        }
        // The OTP is generated in parallel with the NVM read (§II-B), so it
        // adds no latency; the MAC check does.
        self.energy.aes_ops += 1;
        let rec = self.get_mac_record(dline);
        if rec == MacRecord::default() && ct == [0u8; 64] {
            // Never-written line: defined to read as zeros, nothing to MAC.
            // (The leaf's major may be nonzero if siblings overflowed — the
            // record, not the counter pair, says whether data exists.)
            self.front_free = t;
            self.rlat.record(arrival, t);
            return Ok((ct, t));
        }
        self.energy.hashes += 1;
        // Decrypt before the MAC verdict lands: the OTP was free (overlapped
        // with the read), so the XOR overlaps the hash-unit latency and the
        // plaintext is ready the moment the check passes. On a MAC mismatch
        // the plaintext is discarded with the error — never returned.
        let mut out = ct;
        xor_otp(self.crypto.as_ref(), addr, major, minor, &mut out);
        let mac = self.crypto.data_mac(addr, &ct, major, minor);
        t += self.cfg.hash_latency;
        if mac != rec.mac {
            return Err(IntegrityError::DataMac { addr });
        }
        self.front_free = t;
        self.rlat.record(arrival, t);
        Ok((out, t))
    }

    /// Immutable NVM device access (stats, storage inspection).
    pub fn nvm(&self) -> &NvmDevice {
        &self.nvm
    }

    /// Mutable NVM device access — fault injection in tests and chaos
    /// harnesses (mirrors [`crate::crash::CrashedSystem::nvm_mut`]).
    pub fn nvm_mut(&mut self) -> &mut NvmDevice {
        &mut self.nvm
    }

    /// Peeks a cached node (diagnostics).
    pub fn meta_peek(&self, offset: u64) -> Option<&SitNode> {
        self.meta.peek(offset)
    }

    /// Offsets of every dirty node currently in the metadata cache
    /// (tests/diagnostics — the state a crash would lose).
    pub fn meta_dirty_offsets(&self) -> Vec<u64> {
        self.meta
            .dirty_nodes()
            .into_iter()
            .map(|(_, offset, _)| offset)
            .collect()
    }

    /// Reads a data block's MAC record (diagnostics).
    pub fn data_mac_record(&self, data_line: u64) -> crate::cme::MacRecord {
        self.get_mac_record(data_line)
    }

    /// Recomputes a data MAC under an arbitrary counter pair (diagnostics).
    pub fn data_mac_probe(&self, addr: u64, data: &[u8; 64], major: u64, minor: u64) -> u64 {
        self.crypto.data_mac(addr, data, major, minor)
    }

    /// Recomputes the MAC a node would store under parent counter `pc`
    /// (diagnostics/ablation probing; does not touch energy counters).
    pub fn mac_probe(&self, node: &SitNode, offset: u64, pc: u64) -> u64 {
        let mac = self
            .crypto
            .mac64_72(&node.mac_message(self.layout.node_addr(offset), pc));
        if matches!(self.cfg.scheme, SchemeKind::Star) {
            star::pack_hmac(mac, pc)
        } else {
            mac
        }
    }

    /// The memory layout in force.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Metadata cache hit/miss counters.
    pub fn meta_stats(&self) -> (u64, u64) {
        self.meta.stats()
    }

    /// Current LInc values (Steins only; used by invariant tests).
    pub fn lincs(&self) -> Option<Vec<u64>> {
        match &self.scheme {
            SchemeState::Steins(s) => Some((0..s.lincs.levels()).map(|k| s.lincs.get(k)).collect()),
            _ => None,
        }
    }

    /// Recomputes, from first principles, what each LInc should be: the sum
    /// over dirty cached nodes of (generated parent value of cached) −
    /// (generated parent value of NVM-stale copy), **plus** parked NV-buffer
    /// deltas not yet transferred. Used by the LInc-invariant tests.
    pub fn recompute_lincs(&self) -> Option<Vec<u64>> {
        let st = match &self.scheme {
            SchemeState::Steins(s) => s,
            _ => return None,
        };
        let geo = &self.layout.geometry;
        let mut expect = vec![0u64; geo.levels()];
        for (_, offset, node, dirty) in self.meta.resident_nodes() {
            if !dirty {
                continue;
            }
            let id = geo.node_at_offset(offset);
            let stale = self.parse_node(id, &self.nvm.peek(self.layout.node_addr(offset)));
            expect[id.level] += node.counters.parent_value() - stale.counters.parent_value();
        }
        // Parked entries: the child's NVM copy already carries the new
        // counters, but the parent (and the level transfer) is pending, so
        // the child's level still owes the delta and the parent's does not
        // yet hold it.
        for e in st.nv_buffer.entries() {
            let cid = geo.node_at_offset(e.child_offset);
            let (pid, slot) = geo.parent_of(cid).expect("buffered parents are non-root");
            let stale_parent = self.parse_node(
                pid,
                &self.nvm.peek(self.layout.node_addr(geo.offset_of(pid))),
            );
            let p_old = if self.meta.is_dirty(geo.offset_of(pid)) {
                // Parent dirty in cache: its cached value is the reference.
                self.meta
                    .peek(geo.offset_of(pid))
                    .expect("dirty implies resident")
                    .counters
                    .as_general()
                    .get(slot)
            } else {
                stale_parent.counters.as_general().get(slot)
            };
            if e.generated > p_old {
                expect[cid.level] += e.generated - p_old;
            }
        }
        Some(expect)
    }
}

/// Deterministic synthetic content for trace-driven stores: a recognizable
/// pattern over (address, version).
pub fn synth_data(addr: u64, version: u64) -> [u8; 64] {
    let mut line = [0u8; 64];
    for (i, chunk) in line.chunks_exact_mut(16).enumerate() {
        chunk[..8].copy_from_slice(&(addr ^ (i as u64) << 60).to_le_bytes());
        chunk[8..].copy_from_slice(&version.wrapping_mul(0x9e3779b97f4a7c15).to_le_bytes());
    }
    line
}

/// The full system: CPU model + cache hierarchy + secure memory controller.
pub struct SecureNvmSystem {
    pub(crate) cfg: SystemConfig,
    /// The secure memory controller (exposed for inspection and tests).
    pub ctrl: SecureMemoryController,
    pub(crate) cpu: CpuModel,
    pub(crate) hier: CacheHierarchy,
    /// Last-stored plaintext per line — the functional ground truth.
    /// FxHash-keyed: consulted on every simulated read and write.
    pub(crate) truth: FxHashMap<u64, [u8; 64]>,
    write_seq: u64,
    /// The online integrity service ([`crate::online`]), when enabled.
    /// `None` by default: existing single-system workloads pay nothing.
    online: Option<OnlineService>,
}

impl SecureNvmSystem {
    /// Builds the system.
    pub fn new(cfg: SystemConfig) -> Self {
        let ctrl = SecureMemoryController::new(cfg.clone());
        Self::from_controller(cfg, ctrl)
    }

    /// Builds the system around an injected crypto engine (see
    /// [`SecureMemoryController::with_engine`]).
    pub fn with_engine(cfg: SystemConfig, crypto: Box<dyn CryptoEngine>) -> Self {
        let ctrl = SecureMemoryController::with_engine(cfg.clone(), crypto);
        Self::from_controller(cfg, ctrl)
    }

    fn from_controller(cfg: SystemConfig, ctrl: SecureMemoryController) -> Self {
        SecureNvmSystem {
            cpu: CpuModel::new(cfg.cpu),
            hier: CacheHierarchy::new(cfg.hierarchy),
            cfg,
            ctrl,
            truth: FxHashMap::default(),
            write_seq: 0,
            online: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn truth_line(&self, addr: u64) -> [u8; 64] {
        *self
            .truth
            .get(&addr)
            .expect("write-back of a line that was never stored")
    }

    /// Services the memory events one CPU access produced. Returns the fill
    /// latency (if the access reached memory).
    fn service_events(&mut self, events: &[MemEvent]) -> Result<Option<Cycle>, IntegrityError> {
        let mut fill = None;
        for ev in events {
            match *ev {
                MemEvent::WriteBack { addr } => {
                    let data = self.truth_line(addr);
                    self.ctrl.write_data(self.cpu.now, addr, &data)?;
                }
                MemEvent::Fill { addr } => {
                    let (data, ready) = self.ctrl.read_data(self.cpu.now, addr)?;
                    if let Some(expected) = self.truth.get(&addr) {
                        assert_eq!(
                            &data, expected,
                            "decrypted fill diverged from stored plaintext at {addr:#x}"
                        );
                    }
                    fill = Some(ready.saturating_sub(self.cpu.now));
                }
                MemEvent::Prefetch { .. } => {}
            }
        }
        Ok(fill)
    }

    /// Runs a trace to completion, returning the run metrics.
    pub fn run_trace(
        &mut self,
        ops: impl Iterator<Item = TraceOp>,
    ) -> Result<RunReport, IntegrityError> {
        for op in ops {
            if op.gap > 0 {
                self.cpu.compute(op.gap as u64);
            }
            match op.kind {
                OpKind::Load => {
                    let acc = self.hier.access(op.addr, false);
                    let fill = self.service_events(&acc.events)?;
                    self.cpu.load(acc.on_chip_cycles, fill);
                }
                OpKind::Store => {
                    // Write-allocate: service the miss (whose fill returns
                    // the previously persisted contents) before the store's
                    // new value becomes the ground truth.
                    let acc = self.hier.access(op.addr, true);
                    let fill = self.service_events(&acc.events)?;
                    self.write_seq += 1;
                    self.truth
                        .insert(op.addr, synth_data(op.addr, self.write_seq));
                    // Write-allocate: the store waits for its fill like a
                    // load; write-backs ride the controller front-end.
                    self.cpu.load(acc.on_chip_cycles, fill);
                }
                OpKind::Flush => {
                    if let Some(MemEvent::WriteBack { addr }) = self.hier.flush_line(op.addr) {
                        let data = self.truth_line(addr);
                        let t = self.ctrl.write_data(self.cpu.now, addr, &data)?;
                        // clwb + fence: the core orders behind acceptance.
                        let stall = t.saturating_sub(self.cpu.now);
                        self.cpu.store(2, stall);
                    } else {
                        self.cpu.compute(1);
                    }
                }
            }
        }
        Ok(self.report())
    }

    /// Direct API: securely writes one line and persists it (store + clwb).
    pub fn write(&mut self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        let addr = addr & !63;
        self.check_quarantine(addr)?;
        let acc = self.hier.access(addr, true);
        self.service_events(&acc.events)?;
        let prev = self.truth.insert(addr, *data);
        if let Some(MemEvent::WriteBack { addr: wb }) = self.hier.flush_line(addr) {
            let line = self.truth_line(wb);
            // A power cut leaves the store's durability to the crash path,
            // which reconciles ground truth against the tripping persist.
            if let Err(e) = pass_cut(self.ctrl.write_data(self.cpu.now, wb, &line))? {
                // The store never became durable (e.g. its metadata path is
                // damaged): the ack is an error, so ground truth must keep
                // the previous value — the device still holds it with a
                // valid MAC, and a later fill must not count as divergence.
                match prev {
                    Some(p) => self.truth.insert(addr, p),
                    None => self.truth.remove(&addr),
                };
                return Err(e);
            }
        }
        self.maybe_online_step()
    }

    /// Direct API: securely reads one line (through the CPU caches; a hit
    /// returns the cached truth, a miss decrypts and verifies from NVM).
    pub fn read(&mut self, addr: u64) -> Result<[u8; 64], IntegrityError> {
        let addr = addr & !63;
        self.check_quarantine(addr)?;
        let acc = self.hier.access(addr, false);
        let mut from_mem = None;
        for ev in &acc.events {
            match *ev {
                MemEvent::WriteBack { addr: a } => {
                    let data = self.truth_line(a);
                    self.ctrl.write_data(self.cpu.now, a, &data)?;
                }
                MemEvent::Fill { addr: a } => {
                    let (data, _) = self.ctrl.read_data(self.cpu.now, a)?;
                    from_mem = Some(data);
                }
                MemEvent::Prefetch { .. } => {}
            }
        }
        self.maybe_online_step()?;
        Ok(match from_mem {
            Some(data) => data,
            None => self.truth.get(&addr).copied().unwrap_or([0u8; 64]),
        })
    }

    /// Fails typed when the online integrity service has quarantined
    /// `addr`'s region — the request must never be silently mis-acked
    /// against content the scrub proved untrustworthy.
    fn check_quarantine(&self, addr: u64) -> Result<(), IntegrityError> {
        match &self.online {
            Some(o) if o.is_quarantined(addr) => Err(IntegrityError::Quarantined { addr }),
            _ => Ok(()),
        }
    }

    /// Runs a scrub step if the service is enabled and the period elapsed.
    /// The service is taken out of `self` for the step so it can drive the
    /// controller through `&mut self` without aliasing; a power cut inside
    /// the step drops it with the rest of the volatile state.
    fn maybe_online_step(&mut self) -> Result<(), IntegrityError> {
        if let Some(mut svc) = self.online.take() {
            if svc.note_op() {
                svc.step(self)?;
            }
            self.online = Some(svc);
        }
        Ok(())
    }

    /// Enables the online integrity service under `policy`, replacing any
    /// prior service (cursor, quarantine, and telemetry reset).
    pub fn enable_online(&mut self, policy: OnlinePolicy) {
        self.online = Some(OnlineService::new(policy));
    }

    /// The online integrity service, when enabled.
    pub fn online(&self) -> Option<&OnlineService> {
        self.online.as_ref()
    }

    /// The online integrity service, mutably (policy retuning, cursor
    /// resume from a crashed image's journal).
    pub fn online_mut(&mut self) -> Option<&mut OnlineService> {
        self.online.as_mut()
    }

    /// Forces one scrub step now, regardless of the period (the throttle
    /// still applies). No-op when the service is disabled.
    pub fn online_step(&mut self) -> Result<(), IntegrityError> {
        if let Some(mut svc) = self.online.take() {
            svc.step(self)?;
            self.online = Some(svc);
        }
        Ok(())
    }

    /// Forces one full scrub pass over every data line, ignoring both the
    /// period and the throttle — the operator's "finish the scrub now"
    /// lever. No-op when the service is disabled.
    pub fn online_scrub_pass(&mut self) -> Result<(), IntegrityError> {
        if let Some(mut svc) = self.online.take() {
            svc.full_pass(self)?;
            self.online = Some(svc);
        }
        Ok(())
    }

    /// Drains the online service's alarm events (empty when disabled).
    pub fn drain_alarms(&mut self) -> Vec<steins_obs::Alarm> {
        match &mut self.online {
            Some(o) => o.alarms.drain(),
            None => Vec::new(),
        }
    }

    /// Operator override: releases `addr`'s line from quarantine, raising
    /// an auditable `QuarantineCleared` alarm. Returns whether it was
    /// quarantined. Prefer [`Self::heal_write`], which re-admits the line
    /// only after fresh data survives a verify-after-write round-trip.
    pub fn clear_quarantine(&mut self, addr: u64) -> bool {
        let shard = self.ctrl.nvm.shard();
        let cycle = self.sim_cycles();
        match &mut self.online {
            Some(o) => o.clear_quarantine(shard, addr, cycle),
            None => false,
        }
    }

    /// Supervised quarantine healing: writes fresh authenticated data to a
    /// quarantined line and re-admits it only if the data reads back
    /// MAC-verified and byte-equal. On a non-quarantined line this is a
    /// plain [`Self::write`]. On failure the line stays quarantined (the
    /// re-detection alarm is raised again) and the error is typed — the
    /// set never shrinks on anything but proof.
    pub fn heal_write(&mut self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        let addr = addr & !63;
        let Some(svc) = self.online.as_mut() else {
            return self.write(addr, data);
        };
        if !svc.is_quarantined(addr) {
            return self.write(addr, data);
        }
        // Lift the quarantine silently for the probe — the audited clear
        // happens only after the round-trip proves the line sound.
        svc.remove_quarantined(addr);
        let requarantine = |s: &mut Self, e: IntegrityError| {
            let shard = s.ctrl.nvm.shard();
            let cycle = s.sim_cycles();
            if let Some(svc) = s.online.as_mut() {
                svc.requarantine(shard, addr, cycle);
            }
            Err(e)
        };
        // A power cut passes straight up: the service dies with the power.
        if let Err(e) = pass_cut(self.write(addr, data))? {
            return requarantine(self, e);
        }
        // Verify-after-write: read straight from the device through the
        // MAC-checking path (not the CPU cache, which would echo the
        // just-written truth back without touching media).
        match pass_cut(self.ctrl.read_data(self.cpu.now, addr))? {
            Ok((got, _)) if got == *data => {
                let shard = self.ctrl.nvm.shard();
                let cycle = self.sim_cycles();
                if let Some(svc) = self.online.as_mut() {
                    svc.note_heal(shard, addr, cycle);
                }
                Ok(())
            }
            Ok(_) => requarantine(self, IntegrityError::DataMac { addr }),
            Err(e) => requarantine(self, e),
        }
    }

    /// Deterministic simulated-cycle makespan of this machine: the furthest
    /// any of its clocks has advanced — the CPU core, the controller
    /// front-end (which ratchets per accepted line even under the direct
    /// [`Self::write`]/[`Self::read`] API, where the core clock stays put),
    /// and the write queue's drain horizon. The sharded stress bench scales
    /// modeled throughput by the max of this value across shards.
    pub fn sim_cycles(&self) -> u64 {
        self.cpu
            .now
            .max(self.ctrl.front_free)
            .max(self.ctrl.wq.drain_horizon())
    }

    /// Current run metrics, including the full component-path metric
    /// registry (every layer exports its counters and histograms here).
    pub fn report(&self) -> RunReport {
        let nvm = *self.ctrl.nvm.stats();
        let mut energy = self.ctrl.energy;
        energy.nvm_reads = nvm.reads;
        energy.nvm_writes = nvm.writes;
        let (meta_hits, meta_misses) = self.ctrl.meta.stats();
        let mut metrics = steins_obs::MetricRegistry::new();
        self.ctrl.nvm.export_metrics(&mut metrics);
        self.ctrl.wq.export_metrics(&mut metrics);
        self.hier.export_metrics(&mut metrics);
        self.ctrl.meta.export_metrics(&mut metrics);
        metrics.counter_add("core.engine.aes_ops", energy.aes_ops);
        metrics.counter_add("core.engine.mac_calls", energy.hashes);
        metrics.counter_add("core.engine.cache_accesses", energy.cache_accesses);
        metrics.counter_add("core.cpu.cycles", self.cpu.now);
        metrics.counter_add("core.cpu.instructions", self.cpu.instructions);
        metrics.counter_add("core.cpu.read_stall_cycles", self.cpu.read_stall_cycles);
        metrics.counter_add("core.cpu.write_stall_cycles", self.cpu.write_stall_cycles);
        metrics.insert_hist("core.read.latency_cycles", &self.ctrl.rlat.hist);
        metrics.insert_hist("core.write.latency_cycles", &self.ctrl.wlat.hist);
        if let Some(o) = &self.online {
            o.export_metrics(&mut metrics);
        }
        RunReport {
            label: self.cfg.scheme.label(self.cfg.mode),
            cycles: self.cpu.now,
            seconds: self.cpu.seconds(self.cfg.nvm.timings.freq_ghz),
            instructions: self.cpu.instructions,
            write_latency: self.ctrl.wlat.avg(),
            read_latency: self.ctrl.rlat.avg(),
            nvm,
            energy_events: energy,
            energy_pj: energy.total_pj(&EnergyModel::default()),
            meta_hits,
            meta_misses,
            read_stall_cycles: self.cpu.read_stall_cycles,
            write_stall_cycles: self.cpu.write_stall_cycles,
            read_hist: self.ctrl.rlat.hist.clone(),
            write_hist: self.ctrl.wlat.hist.clone(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_metadata::CounterMode;

    fn all_schemes() -> Vec<(SchemeKind, CounterMode)> {
        vec![
            (SchemeKind::WriteBack, CounterMode::General),
            (SchemeKind::WriteBack, CounterMode::Split),
            (SchemeKind::Asit, CounterMode::General),
            (SchemeKind::Star, CounterMode::General),
            (SchemeKind::Steins, CounterMode::General),
            (SchemeKind::Steins, CounterMode::Split),
        ]
    }

    #[test]
    fn write_read_roundtrip_every_scheme() {
        for (scheme, mode) in all_schemes() {
            let cfg = SystemConfig::small_for_tests(scheme, mode);
            let mut sys = SecureNvmSystem::new(cfg);
            let data = [0xAB; 64];
            sys.write(0x400, &data).unwrap();
            assert_eq!(
                sys.read(0x400).unwrap(),
                data,
                "{scheme:?}/{mode:?} roundtrip"
            );
        }
    }

    #[test]
    fn many_writes_roundtrip_through_evictions() {
        for (scheme, mode) in all_schemes() {
            let cfg = SystemConfig::small_for_tests(scheme, mode);
            let mut sys = SecureNvmSystem::new(cfg);
            // Enough lines to overflow the tiny metadata cache repeatedly.
            for i in 0..600u64 {
                let mut data = [0u8; 64];
                data[..8].copy_from_slice(&i.to_le_bytes());
                sys.write(i * 64, &data).unwrap();
            }
            for i in (0..600u64).step_by(7) {
                let got = sys.read(i * 64).unwrap();
                assert_eq!(
                    u64::from_le_bytes(got[..8].try_into().unwrap()),
                    i,
                    "{scheme:?}/{mode:?} line {i}"
                );
            }
        }
    }

    #[test]
    fn repeated_writes_same_line_advance_counters() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::Split);
        let mut sys = SecureNvmSystem::new(cfg);
        for v in 0..200u64 {
            let mut data = [0u8; 64];
            data[..8].copy_from_slice(&v.to_le_bytes());
            sys.write(0, &data).unwrap();
        }
        let got = sys.read(0).unwrap();
        assert_eq!(u64::from_le_bytes(got[..8].try_into().unwrap()), 199);
    }

    #[test]
    fn split_minor_overflow_reencrypts_and_stays_readable() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::Split);
        let mut sys = SecureNvmSystem::new(cfg);
        // Neighbor in the same leaf, written once.
        sys.write(64, &[0x11; 64]).unwrap();
        // Hot line: > 63 writes forces a minor overflow (re-encryption).
        for v in 0..70u64 {
            let mut data = [0u8; 64];
            data[..8].copy_from_slice(&v.to_le_bytes());
            sys.write(0, &data).unwrap();
        }
        assert_eq!(
            sys.read(64).unwrap(),
            [0x11; 64],
            "neighbor survives re-encryption"
        );
        let got = sys.read(0).unwrap();
        assert_eq!(u64::from_le_bytes(got[..8].try_into().unwrap()), 69);
    }

    #[test]
    fn linc_invariant_holds_under_mixed_traffic() {
        for mode in [CounterMode::General, CounterMode::Split] {
            let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, mode);
            let mut sys = SecureNvmSystem::new(cfg);
            for i in 0..400u64 {
                sys.write((i * 7 % 256) * 64, &[i as u8; 64]).unwrap();
                if i % 3 == 0 {
                    let _ = sys.read((i % 100) * 64).unwrap();
                }
            }
            let stored = sys.ctrl.lincs().unwrap();
            let expected = sys.ctrl.recompute_lincs().unwrap();
            assert_eq!(stored, expected, "{mode:?}: LInc invariant (§III-D)");
        }
    }

    #[test]
    fn trace_run_produces_consistent_report() {
        use steins_trace::{Workload, WorkloadKind};
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let data_lines = cfg.data_lines;
        let mut sys = SecureNvmSystem::new(cfg);
        let mut wl = Workload::new(WorkloadKind::PHash, 2_000, 11);
        wl.footprint_lines = data_lines;
        let report = sys.run_trace(wl.generate()).unwrap();
        assert!(report.cycles > 0);
        assert!(report.instructions >= 2_000);
        assert!(report.nvm.writes > 0, "persistent workload must write NVM");
        assert!(report.write_latency > 0.0);
        assert!(report.energy_pj > 0.0);
    }

    #[test]
    fn asit_writes_roughly_double_wb() {
        use steins_trace::{Workload, WorkloadKind};
        let run = |scheme| {
            let cfg = SystemConfig::small_for_tests(scheme, CounterMode::General);
            let data_lines = cfg.data_lines;
            let mut sys = SecureNvmSystem::new(cfg);
            let mut wl = Workload::new(WorkloadKind::PHash, 3_000, 5);
            wl.footprint_lines = data_lines;
            sys.run_trace(wl.generate()).unwrap().nvm.writes as f64
        };
        let wb = run(SchemeKind::WriteBack);
        let asit = run(SchemeKind::Asit);
        let ratio = asit / wb;
        assert!(
            ratio > 1.5 && ratio < 3.0,
            "ASIT write amplification off: {ratio:.2} (wb={wb}, asit={asit})"
        );
    }

    #[test]
    fn steins_traffic_close_to_wb() {
        use steins_trace::{Workload, WorkloadKind};
        let run = |scheme| {
            let cfg = SystemConfig::small_for_tests(scheme, CounterMode::General);
            let data_lines = cfg.data_lines;
            let mut sys = SecureNvmSystem::new(cfg);
            let mut wl = Workload::new(WorkloadKind::PHash, 3_000, 5);
            wl.footprint_lines = data_lines;
            sys.run_trace(wl.generate()).unwrap().nvm.writes as f64
        };
        let wb = run(SchemeKind::WriteBack);
        let steins = run(SchemeKind::Steins);
        let ratio = steins / wb;
        // The tiny test config (4 record-cache lines, 128-slot metadata
        // cache) thrashes the record cache far more than Table I's sizing;
        // the figure-scale check of the paper's ≈1.05× lives in the bench
        // harness. Here we only require Steins ≪ ASIT's 2×.
        assert!(
            ratio < 1.45,
            "Steins write amplification should be small: {ratio:.2}"
        );
    }
}
