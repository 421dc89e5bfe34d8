//! The secure memory controller and the full trace-driven system.
//!
//! [`SecureMemoryController`] implements the paper's runtime (§III-E/F):
//! counter-mode encryption, the lazy-update SIT (whose per-scheme hooks
//! live in `scheme/<name>.rs`), the metadata cache, the write queue, and
//! the controller front-end that serializes requests (per §IV-F, requests
//! to one DIMM are processed serially). [`SecureNvmSystem`] wraps it with
//! the CPU model and cache hierarchy and runs workload traces.
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
use crate::config::{SchemeKind, SystemConfig, HASH_LATENCY};
use crate::error::{pass_cut, IntegrityError};
use crate::online::{OnlinePolicy, OnlineService};
use crate::report::RunReport;
use crate::scheme::{self, SchemeState};
use crate::truth::Truth;
use steins_cache::{CacheHierarchy, CpuModel, MemEvent};
use steins_crypto::{engine::make_engine, CryptoEngine};
use steins_metadata::counter::{CounterBlock, CounterMode, SplitIncrement};
use steins_metadata::{MemoryLayout, MetadataCache, NodeId, RootNode, SitNode};
use steins_nvm::{Cycle, EnergyCounters, EnergyModel, NvmDevice, PowerCut, WriteQueue};
use steins_obs::Histogram;
use steins_trace::{OpKind, TraceOp};

/// Parses a metadata NVM line by its level: split-mode leaves hold split
/// counters, every other node general ones.
pub(crate) fn parse_node(mode: CounterMode, id: NodeId, line: &[u8; 64]) -> SitNode {
    if id.level == 0 && mode == CounterMode::Split {
        SitNode::split_from_line(line)
    } else {
        SitNode::general_from_line(line)
    }
}

/// The lazily-initialized state: a never-written, all-zero node.
pub(crate) fn is_zero_node(node: &SitNode) -> bool {
    node.hmac == 0 && node.to_line() == [0u8; 64]
}

/// The MAC field the node at metadata offset `offset` stores under parent
/// counter `pc`.
pub(crate) fn seal_node(
    crypto: &dyn CryptoEngine,
    layout: &MemoryLayout,
    scheme: SchemeKind,
    node: &SitNode,
    offset: u64,
    pc: u64,
) -> u64 {
    let mac = crypto.mac64_72(&node.mac_message(layout.node_addr(offset), pc));
    scheme::seal_node_mac(scheme, mac, pc)
}

/// Verifies a node's stored MAC field against its parent counter `pc`,
/// adding the MAC it computes to `hashes`. A zero node under a zero parent
/// counter is the lazily-initialized state and passes unhashed. It opens
/// the raw MAC rather than [`seal_node`]'s field: every metadata fetch runs
/// this check, and sealing first only to mask STAR's counter bits off again
/// adds host time (about 1.6 % of the frozen benchmark's recover-4g
/// recovery on a 2-vCPU VM).
pub(crate) fn verify_node(
    crypto: &dyn CryptoEngine,
    layout: &MemoryLayout,
    scheme: SchemeKind,
    node: &SitNode,
    id: NodeId,
    pc: u64,
    hashes: &mut u64,
) -> Result<(), IntegrityError> {
    if pc == 0 && is_zero_node(node) {
        return Ok(());
    }
    let offset = layout.geometry.offset_of(id);
    *hashes += 1;
    let mac = crypto.mac64_72(&node.mac_message(layout.node_addr(offset), pc));
    if scheme::node_mac_opens(scheme, node.hmac, mac) {
        Ok(())
    } else {
        Err(IntegrityError::NodeMac { node: id })
    }
}

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
    pub(crate) wlat: Histogram,
    pub(crate) rlat: Histogram,
    pinned: Vec<u64>,
}

impl SecureMemoryController {
    /// Builds a fresh controller (zeroed NVM, empty caches).
    pub fn new(cfg: SystemConfig) -> Self {
        let crypto = make_engine(cfg.crypto, cfg.secret_key());
        Self::with_engine(cfg, crypto)
    }

    /// Builds a fresh controller around an injected crypto engine (the
    /// benchmark's timed engine, for one); `cfg.crypto` is ignored in favor
    /// of `crypto`.
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
        let meta = MetadataCache::new(cfg.meta_cache, &layout.geometry);
        let root = RootNode::new(layout.geometry.root_fanout());
        let scheme = scheme::new_state(&cfg, &layout, crypto.as_ref());
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
            wlat: Histogram::new(),
            rlat: Histogram::new(),
            pinned: Vec::new(),
        }
    }

    /// Writes the ADR recovery journal `(phase, hwm, restarts)` sealed under
    /// the engine key. Every journal write in the controller crates goes
    /// through here — the MAC is what lets the next recovery attempt prove
    /// the resume point was written by a holder of the key, not forged on
    /// the bus.
    pub(crate) fn journal_write(
        &mut self,
        phase: u8,
        hwm: u64,
        restarts: u32,
    ) -> Result<(), PowerCut> {
        let journal = steins_nvm::RecoveryJournal::new(phase, hwm, restarts);
        let mac = crate::recovery::seal_journal(self.crypto.as_ref(), &journal);
        self.nvm.set_recovery_journal(journal, mac)
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
        if self.meta.touch(offset) {
            self.energy.cache_accesses += 1;
            return Ok(t);
        }
        if let Some(t) = self.scheme_fetch(t, id, offset)? {
            return Ok(t);
        }
        let (pc, t) = self.parent_counter(t, id)?;
        // Fetching the parent can evict a dirty node whose flush walks back
        // through `id` and installs it (e.g. the victim's parent *is* `id`).
        // Installing again would duplicate the node with stale counters.
        if self.meta.contains(offset) {
            return Ok(t);
        }
        let pc = self.scheme_fetch_counter(offset, pc);
        let (line, t) = self.nvm.read(t, self.layout.node_addr(offset));
        let node = parse_node(self.cfg.mode, id, &line);
        let t = t + HASH_LATENCY;
        let (crypto, hashes) = (self.crypto.as_ref(), &mut self.energy.hashes);
        verify_node(crypto, &self.layout, self.cfg.scheme, &node, id, pc, hashes)?;
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
                t = self.slot_vacated(t, ev.slot);
            }
            Ok(t)
        })();
        self.pinned.pop();
        result
    }

    /// Flushes a dirty node to NVM **in place** (§III-E): the node stays
    /// resident (and pinned) throughout, so nested fetches triggered by the
    /// parent walk always observe its live counters. On return the node is
    /// clean; its NVM copy matches the cached value at flush time.
    pub(crate) fn flush_in_place(
        &mut self,
        t: Cycle,
        offset: u64,
    ) -> Result<Cycle, IntegrityError> {
        self.pinned.push(offset);
        let result = self.scheme_flush(t, offset);
        self.pinned.pop();
        result
    }

    /// The self-increment flush WB, ASIT and STAR share: the — possibly
    /// fetched — parent counter is incremented first, since the child's
    /// HMAC needs it. The parent walk may run arbitrary nested evictions —
    /// the node is pinned and resident, so they see (and may even update)
    /// it; its value is re-read afterwards.
    pub(crate) fn increment_flush(
        &mut self,
        mut t: Cycle,
        offset: u64,
    ) -> Result<Cycle, IntegrityError> {
        let id = self.layout.geometry.node_at_offset(offset);
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
                let pre = self.meta.peek(poff).expect("parent just ensured");
                let mut p = pre;
                p.counters.as_general_mut().increment(slot);
                let v = p.counters.as_general().get(slot);
                self.meta.write(poff, p);
                t = self.on_node_modified(t, poff, &pre)?;
                t = self.counters_moved(t, poff, &pre, &p);
                v
            }
        };
        let mut node = self.meta.peek(offset).expect("flush target resident");
        self.energy.hashes += 1;
        node.hmac = self.mac_probe(&node, offset, pc);
        t += HASH_LATENCY;
        let addr = self.layout.node_addr(offset);
        t = self.wq.push(t, addr, &node.to_line(), &mut self.nvm)?;
        self.meta.write(offset, node);
        self.meta.mark_clean(offset);
        Ok(self.scheme_cleaned(t, offset)?)
    }

    // ——— MAC records (functionally ECC-embedded; see DESIGN.md §2.7) ———

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
        // Phase 1 — read, verify, compute. Each covered line's ciphertext is
        // read through the fault overlay, so it must be authenticated under
        // the *old* pair before being touched: re-encrypting a flipped or
        // stuck line and stamping it with a fresh MAC would launder the
        // corruption into an authenticated block. A line that fails the
        // check (or is unreadable outright) is left exactly as it was — old
        // ciphertext, old record — so it keeps failing closed on reads until
        // the scrub quarantines it. No durable state changes in this phase.
        let mut pending: Vec<(u64, u64, [u8; 64], u64)> = Vec::new();
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
            let minor = u64::from(old_minors[(d % self.cfg.mode.leaf_coverage()) as usize]);
            let (mut buf, t2) = self.nvm.read(t, daddr);
            t = t2;
            self.energy.hashes += 1;
            if self.data_mac_record(d).mac != self.crypto.data_mac(daddr, &buf, old_major, minor) {
                continue; // corrupt under the old pair: skip, never launder
            }
            // Decrypt under the old pair, re-encrypt under (new major, 0).
            xor_otp(self.crypto.as_ref(), daddr, old_major, minor, &mut buf);
            xor_otp(self.crypto.as_ref(), daddr, new_major, 0, &mut buf);
            self.energy.aes_ops += 2;
            self.energy.hashes += 1;
            let mac = self.crypto.data_mac(daddr, &buf, new_major, 0);
            pending.push((d, daddr, buf, mac));
        }
        // Phase 2 — persist, in exactly the serial order the crash sweeps
        // enumerate: [record_1, data_1, record_2, data_2, …]. Hoisting the
        // records ahead of the data writes would open crash windows where a
        // record describes counters no durable ciphertext matches, so the
        // per-line interleaving must never change.
        for (d, daddr, buf, mac) in pending {
            self.set_mac_record(
                d,
                MacRecord {
                    mac,
                    recovery: MacRecord::pack_recovery(new_major, 0),
                },
            )?;
            t = self.wq.push(t, daddr, &buf, &mut self.nvm)?;
        }
        Ok(t)
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
        let pre_leaf = self.meta.peek(loff).expect("leaf just ensured");
        let mut leaf = pre_leaf;
        let mut reenc: Option<(u64, [u8; 64])> = None;
        match &mut leaf.counters {
            CounterBlock::General(g) => {
                g.increment(slot);
            }
            CounterBlock::Split(s) => {
                let old = *s;
                if let SplitIncrement::Overflow { .. } =
                    s.increment(slot, self.scheme.skip_update())
                {
                    reenc = Some((old.major, old.minors));
                }
            }
        }
        let (major, minor) = leaf.counters.enc_pair(slot);
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
        t += HASH_LATENCY;
        let recovery = MacRecord::pack_recovery(major, minor);
        // Scheme registers ride the data line + MacRecord push below: it is
        // the persist event that makes the counter increment durable.
        t = self.counters_moved(t, loff, &pre_leaf, &leaf);
        self.set_mac_record(dline, MacRecord { mac, recovery })?;
        t = self.wq.push(t, addr, &line, &mut self.nvm)?;
        self.front_free = t;
        self.wlat.record(t - arrival);
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
        let (major, minor) = self.meta.enc_pair(loff, slot).expect("leaf just ensured");
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
        let rec = self.data_mac_record(dline);
        if rec.unwritten(&ct) {
            // Never-written line: defined to read as zeros, nothing to MAC.
            // (The leaf's major may be nonzero if siblings overflowed — the
            // record, not the counter pair, says whether data exists.)
            self.front_free = t;
            self.rlat.record(t - arrival);
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
        t += HASH_LATENCY;
        if mac != rec.mac {
            return Err(IntegrityError::DataMac { addr });
        }
        self.front_free = t;
        self.rlat.record(t - arrival);
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

    /// Offsets of every dirty node currently in the metadata cache
    /// (tests/diagnostics — the state a crash would lose).
    pub fn meta_dirty_offsets(&self) -> Vec<u64> {
        (0..self.meta.config().slots())
            .filter_map(|slot| self.meta.dirty_at(slot))
            .collect()
    }

    /// Data line `data_line`'s MAC record (uncounted: a peek).
    pub fn data_mac_record(&self, data_line: u64) -> MacRecord {
        MacRecord::load(&self.nvm, &self.layout, data_line)
    }

    /// Recomputes the MAC field a node would store under parent counter
    /// `pc` (does not touch energy counters).
    pub fn mac_probe(&self, node: &SitNode, offset: u64, pc: u64) -> u64 {
        let (crypto, scheme) = (self.crypto.as_ref(), self.cfg.scheme);
        seal_node(crypto, &self.layout, scheme, node, offset, pc)
    }

    /// The memory layout in force.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }
}

/// Deterministic synthetic content for trace-driven stores: a recognizable
/// pattern over (address, version). It is also the ground truth's payload
/// generator: a trace store's truth keeps only its version and regenerates
/// the line from this function, so it must stay a pure function of
/// (address, version).
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
    pub(crate) truth: Truth,
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
            truth: Truth::default(),
            write_seq: 0,
            online: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn truth_line(&self, addr: u64) -> [u8; 64] {
        self.truth
            .get(addr)
            .expect("write-back of a line that was never stored")
    }

    /// Reads `addr` from the controller for a CPU-cache fill. The access
    /// that asked for the fill has already installed the line, so a fill
    /// that fails invalidates it and discards its write-back: otherwise a
    /// later hit would serve the truth as `Ok`, and a later write-back
    /// would re-seal it over the line the controller refused.
    fn fill(&mut self, addr: u64) -> Result<([u8; 64], Cycle), IntegrityError> {
        let filled = self.ctrl.read_data(self.cpu.now, addr);
        if filled.is_err() {
            self.hier.flush_line(addr);
        }
        filled
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
                    let (data, ready) = self.fill(addr)?;
                    if let Some(expected) = self.truth.get(addr) {
                        assert_eq!(
                            data, expected,
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
                    self.truth.set_version(op.addr, self.write_seq);
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
    /// Panics on an address past the data region.
    pub fn write(&mut self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        let addr = addr & !63;
        // Checked before the caches or `truth` see the address: otherwise
        // the write-allocate fill panics first, naming a read.
        assert!(
            addr / 64 < self.cfg.data_lines,
            "write at {addr:#x} outside the data region ({} lines)",
            self.cfg.data_lines
        );
        self.check_quarantine(addr)?;
        let acc = self.hier.access(addr, true);
        self.service_events(&acc.events)?;
        match self.hier.flush_line(addr) {
            Some(_) => self.persist_line(addr, data)?,
            None => self.truth.set(addr, data),
        }
        self.maybe_online_step();
        Ok(())
    }

    /// Writes `data` to `addr`'s line through the controller, with no CPU
    /// cache in between, and keeps ground truth in step.
    fn persist_line(&mut self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        let written = self.ctrl.write_data(self.cpu.now, addr, data).map(drop);
        match written {
            // The store never became durable (e.g. its metadata path is
            // damaged): the ack is an error, so ground truth keeps the
            // previous value — the device still holds it with a valid MAC,
            // and a later fill must not count as divergence.
            Err(ref e) if *e != IntegrityError::PowerCut => {}
            // A power cut leaves the store's durability to the crash path,
            // which reconciles ground truth against the tripping persist.
            _ => self.truth.set(addr, data),
        }
        written
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
                    let (data, _) = self.fill(a)?;
                    from_mem = Some(data);
                }
                MemEvent::Prefetch { .. } => {}
            }
        }
        self.maybe_online_step();
        Ok(match from_mem {
            Some(data) => data,
            None => self.truth.get(addr).unwrap_or([0u8; 64]),
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
    /// controller through `&mut self` without aliasing.
    fn maybe_online_step(&mut self) {
        if let Some(mut svc) = self.online.take() {
            if svc.note_op() {
                svc.step(self);
            }
            self.online = Some(svc);
        }
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

    /// The online integrity service, mutably (quarantine audits).
    pub fn online_mut(&mut self) -> Option<&mut OnlineService> {
        self.online.as_mut()
    }

    /// Forces one scrub step now, regardless of the period (the throttle
    /// still applies). No-op when the service is disabled.
    pub fn online_step(&mut self) {
        if let Some(mut svc) = self.online.take() {
            svc.step(self);
            self.online = Some(svc);
        }
    }

    /// Forces one full scrub pass over every data line, ignoring both the
    /// period and the throttle — the operator's "finish the scrub now"
    /// lever. No-op when the service is disabled.
    pub fn online_scrub_pass(&mut self) {
        if let Some(mut svc) = self.online.take() {
            svc.full_pass(self);
            self.online = Some(svc);
        }
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
        // Replace the line whole. `write`'s write-allocate fill would read
        // and verify the old line first, and that line failing its MAC is
        // why it is quarantined; a CPU-cached copy is dropped unwritten. A
        // power cut passes straight up: the service dies with the power.
        self.hier.flush_line(addr);
        if let Err(e) = pass_cut(self.persist_line(addr, data))? {
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
        metrics.insert_hist("core.read.latency_cycles", &self.ctrl.rlat);
        metrics.insert_hist("core.write.latency_cycles", &self.ctrl.wlat);
        if let Some(o) = &self.online {
            o.export_metrics(&mut metrics);
        }
        RunReport {
            label: self.cfg.scheme.label(self.cfg.mode),
            cycles: self.cpu.now,
            seconds: self.cpu.seconds(self.cfg.nvm.timings.freq_ghz),
            instructions: self.cpu.instructions,
            write_latency: self.ctrl.wlat.mean(),
            read_latency: self.ctrl.rlat.mean(),
            nvm,
            energy_events: energy,
            energy_pj: energy.total_pj(&EnergyModel::default()),
            meta_hits,
            meta_misses,
            read_stall_cycles: self.cpu.read_stall_cycles,
            write_stall_cycles: self.cpu.write_stall_cycles,
            read_hist: self.ctrl.rlat.clone(),
            write_hist: self.ctrl.wlat.clone(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_metadata::CounterMode;

    #[test]
    fn write_read_roundtrip_every_scheme() {
        for (scheme, mode) in crate::config::COMBOS {
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

    /// A line whose NVM copy was tampered with fails every read, and a
    /// write over it fails and leaves it failing: a failed fill leaves no
    /// copy in the CPU caches for a later hit to serve as `Ok`, nor a dirty
    /// one whose write-back would re-seal the old truth over the tampering.
    #[test]
    fn a_tampered_line_fails_every_access() {
        for (scheme, mode) in crate::config::COMBOS {
            let mut sys = SecureNvmSystem::new(SystemConfig::small_for_tests(scheme, mode));
            let (read, written) = (5 * 64, 9 * 64);
            for addr in [read, written] {
                sys.write(addr, &[addr as u8; 64]).unwrap();
                sys.ctrl.nvm_mut().inject_bit_flip(addr, 3, 1);
            }
            let refused = |addr| Err(IntegrityError::DataMac { addr });
            for i in 0..3 {
                assert_eq!(
                    sys.read(read),
                    refused(read),
                    "{scheme:?}/{mode:?} read {i}"
                );
            }
            assert_eq!(
                sys.write(written, &[0xEE; 64]),
                Err(IntegrityError::DataMac { addr: written }),
                "{scheme:?}/{mode:?} write"
            );
            assert!(
                !sys.hier.dirty_lines().contains(&written),
                "{scheme:?}/{mode:?}: the failed write left its line dirty"
            );
            for i in 0..3 {
                assert_eq!(
                    sys.read(written),
                    refused(written),
                    "{scheme:?}/{mode:?} read {i} after the write"
                );
            }
        }
    }

    /// The fill check compares every decrypted fill with the truth, which
    /// regenerates a trace store's payload from its version.
    #[test]
    #[should_panic(expected = "decrypted fill diverged")]
    fn a_fill_that_disagrees_with_the_truth_panics() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let mut sys = SecureNvmSystem::new(cfg);
        let addr = 12 * 64;
        let op = |kind| TraceOp::new(0, kind, addr);
        sys.run_trace([op(OpKind::Store), op(OpKind::Flush)].into_iter())
            .unwrap();
        sys.truth.set_version(addr, sys.write_seq + 1);
        let _ = sys.run_trace(std::iter::once(op(OpKind::Load)));
    }

    #[test]
    fn many_writes_roundtrip_through_evictions() {
        for (scheme, mode) in crate::config::COMBOS {
            // One set of 8 ways: 600 lines overflow it repeatedly, so dirty
            // nodes are evicted and flushed.
            let mut sys = SecureNvmSystem::new(crate::crash::tests::one_set(scheme, mode));
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
