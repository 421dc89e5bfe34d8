//! Banked NVM device with transaction-level timing.
//!
//! Each request is serviced to completion against per-bank occupancy
//! windows: a request targeting a busy bank waits for the bank's next free
//! cycle, then occupies it for the command's service time. One row buffer
//! per bank models open-row locality (sequential workloads enjoy tCL-only
//! reads; random workloads pay tRCD on nearly every access — this asymmetry
//! drives the per-workload spread in Figs. 9–16).

use crate::config::NvmConfig;
use crate::fault::FaultPlane;
use crate::stats::NvmStats;
use crate::storage::{Line, SparseStore};
use crate::Cycle;
use steins_obs::{Histogram, MetricRegistry};

/// Number of atomically-persisted words per 64 B line. Real NVM DIMMs
/// guarantee 8-byte write atomicity, not whole-line atomicity: a power
/// failure mid-line may persist any subset of these words.
pub const WORDS_PER_LINE: usize = 8;

/// Bounded re-read attempts the timed read path makes against a transient
/// media fault before the uncorrectable error reaches the engine. A
/// transient that is still failing after the last attempt is promoted to a
/// *permanent* unreadable fault (see [`NvmDevice::take_retry_exhausted`]).
pub const READ_RETRY_ATTEMPTS: u32 = 3;

/// Modeled-cycle delay before the *first* re-read of a transiently
/// failing line. Attempt `k` (1-based) waits `2^(k-1)` times this before
/// re-reading — a deterministic bounded exponential-backoff schedule:
/// marginal cells get geometrically more settle time, the worst case
/// stays bounded at `(2^READ_RETRY_ATTEMPTS - 1) ×` this, and no wall
/// clock is involved anywhere.
pub const READ_RETRY_BASE_CYCLES: Cycle = 32;

/// Reserved line address of the ADR-resident recovery journal. Far outside
/// any data/metadata region (the sparse store never allocates it), so the
/// journal's persist events never collide with a real line.
pub const RECOVERY_JOURNAL_ADDR: u64 = !63;

/// Byte length of [`RecoveryJournal::mac_message`]: domain tag (8) +
/// phase (1) + zero padding (3) + restarts (4) + hwm (8).
pub const JOURNAL_MAC_MSG_BYTES: usize = 24;

/// Capacity of the device's retry-exhaustion log: promotions beyond it
/// evict the oldest entry and bump the dropped counter, so an undrained
/// chaos soak sees bounded memory instead of unbounded growth.
pub const EXHAUSTED_LOG_CAP: usize = 1024;

/// The ADR-resident recovery journal: a phase tag plus high-water mark that
/// recovery updates as it replays durable state, making a second crash
/// *during* recovery survivable. `phase` values are assigned by the
/// controller crate (the device only persists them); `hwm` counts the
/// items of the phase's canonical order completed so far (a resume covers
/// exactly the first `hwm`); `restarts` counts recovery attempts that were
/// interrupted before reaching their terminal phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryJournal {
    /// Controller-defined phase tag (0 = idle / never recovered).
    pub phase: u8,
    /// Completed steps within the phase (re-entry resumes past these).
    pub hwm: u64,
    /// Recovery attempts interrupted before completion.
    pub restarts: u32,
}

impl RecoveryJournal {
    /// A journal at `phase` with `hwm` items done and `restarts` prior
    /// interrupted attempts.
    pub fn new(phase: u8, hwm: u64, restarts: u32) -> Self {
        RecoveryJournal {
            phase,
            hwm,
            restarts,
        }
    }

    /// The canonical byte string a journal MAC covers: an 8-byte domain
    /// tag, then every field in a fixed little-endian layout. The domain
    /// tag keeps journal MACs disjoint from every other MAC the engine
    /// key produces (line MACs, tree-node MACs).
    pub fn mac_message(&self) -> [u8; JOURNAL_MAC_MSG_BYTES] {
        let mut msg = [0u8; JOURNAL_MAC_MSG_BYTES];
        msg[..8].copy_from_slice(b"SNVMJRNL");
        msg[8] = self.phase;
        // msg[9..12] stays zero (padding).
        msg[12..16].copy_from_slice(&self.restarts.to_le_bytes());
        msg[16..24].copy_from_slice(&self.hwm.to_le_bytes());
        msg
    }
}

#[derive(Clone, Copy, Default)]
struct Bank {
    next_free: Cycle,
    open_row: Option<u64>,
}

/// What kind of durable-state transition a persist point marks.
///
/// Crash-consistency analysis enumerates exactly these: a 64 B line becoming
/// durable through the write queue (entries are durable at acceptance — the
/// queue sits in the ADR domain), and an in-place update of an ADR-resident
/// line (record/bitmap caches), which residual power flushes on a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistKind {
    /// A timed 64 B line write accepted by the device.
    LineWrite,
    /// An in-place mutation of a line held in the ADR persist domain.
    AdrUpdate,
}

/// One enumerable crash point: the `seq`-th durable-state transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PersistPoint {
    /// 1-based sequence number of the transition.
    pub seq: u64,
    /// Transition kind.
    pub kind: PersistKind,
    /// The NVM address the transition made durable.
    pub addr: u64,
}

/// The armed crash point was reached: the modeled power is gone. Every
/// persist-edge call ([`NvmDevice::write`], a traced [`NvmDevice::poke`],
/// [`NvmDevice::adr_persist_event`], [`NvmDevice::set_recovery_journal`])
/// returns it as a value. The tripping transition has landed; the caller
/// must issue nothing after it and hand the machine to its crash path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerCut;

/// The NVM device: functional storage + timing state + statistics.
pub struct NvmDevice {
    cfg: NvmConfig,
    banks: Vec<Bank>,
    /// Earliest cycle the next activate may issue (tFAW pacing).
    next_activate: Cycle,
    storage: SparseStore,
    stats: NvmStats,
    /// Durable-state transitions so far (crash-point enumeration).
    persist_seq: u64,
    /// Armed crash point: trip when `persist_seq` reaches this value.
    crash_at: Option<u64>,
    /// Word-persistence mask for the tripping write: bit `i` set means
    /// 8-byte word `i` of the line persisted. `0xFF` models the legacy
    /// whole-line-atomic crash; anything else is a torn write.
    crash_torn_mask: u8,
    /// The point that tripped, readable after the cut.
    tripped: Option<PersistPoint>,
    /// When enabled, every persist point is journaled (crash-point
    /// enumeration wants the kinds, not just the count; write-endurance
    /// attribution folds the line writes by address).
    journal_points: bool,
    /// The journal itself.
    point_journal: Vec<PersistPoint>,
    /// When enabled, functional `poke` writes are treated as timed line
    /// writes for crash-point purposes: they emit persist events and honor
    /// torn-write masks. Recovery turns this on so a crash *during* its own
    /// NVM rewrites is enumerable; normal pokes (ADR flush at crash, attack
    /// injection) stay silent.
    trace_pokes: bool,
    /// ADR-resident recovery progress record (see [`RecoveryJournal`]).
    recovery_journal: RecoveryJournal,
    /// MAC sealed over [`Self::recovery_journal`] by its last writer.
    /// The device stores it opaquely (it has no key); the controller
    /// verifies at journal-read time and fails closed on mismatch.
    journal_mac: u64,
    /// Which shard of a sharded engine this device backs (0 for an
    /// unsharded system). Stamped into the recovery journal so a shard can
    /// prove it is recovering off its *own* ADR journal line — each shard
    /// has its own device and therefore its own [`RECOVERY_JOURNAL_ADDR`]
    /// line, and a routing bug that hands one shard another's image
    /// surfaces as a journal-owner mismatch instead of silent corruption.
    shard_label: u16,
    /// Shard label stamped by the last recovery-journal write (the journal
    /// line's durable owner byte).
    journal_owner: u16,
    /// Injected media faults (read-path overlay).
    faults: FaultPlane,
    /// Timed reads that retried a transient media fault this epoch.
    read_retries: u64,
    /// Transients promoted to permanent faults after exhausting the
    /// backoff schedule this epoch.
    retry_exhausted: u64,
    /// `(line addr, completion cycle)` of each promotion since the last
    /// [`Self::take_retry_exhausted`] — the online service drains these
    /// into typed alarms. Bounded at [`EXHAUSTED_LOG_CAP`] entries
    /// (oldest evicted first) so an undrained soak cannot grow it
    /// without limit.
    exhausted_log: Vec<(u64, Cycle)>,
    /// Promotions evicted from [`Self::exhausted_log`] because the ring
    /// was full, this measurement epoch.
    exhausted_dropped: u64,
    /// Arrival→completion service-cycle distribution of reads.
    read_hist: Histogram,
    /// Arrival→completion service-cycle distribution of writes.
    write_hist: Histogram,
    /// Per-bank service-cycle distributions (reads and writes pooled).
    bank_hists: Vec<Histogram>,
    /// Timed line-write persist events this measurement epoch.
    persist_line_writes: u64,
    /// In-place ADR-update persist events this measurement epoch.
    persist_adr_updates: u64,
}

impl NvmDevice {
    /// Creates a device per `cfg` with all-zero contents.
    pub fn new(cfg: NvmConfig) -> Self {
        let banks = vec![Bank::default(); cfg.banks];
        let bank_hists = vec![Histogram::new(); cfg.banks];
        NvmDevice {
            cfg,
            banks,
            next_activate: 0,
            storage: SparseStore::new(),
            stats: NvmStats::default(),
            persist_seq: 0,
            crash_at: None,
            crash_torn_mask: 0xFF,
            tripped: None,
            journal_points: false,
            point_journal: Vec::new(),
            trace_pokes: false,
            recovery_journal: RecoveryJournal::default(),
            journal_mac: 0,
            shard_label: 0,
            journal_owner: 0,
            faults: FaultPlane::new(),
            read_retries: 0,
            retry_exhausted: 0,
            exhausted_log: Vec::new(),
            exhausted_dropped: 0,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
            bank_hists,
            persist_line_writes: 0,
            persist_adr_updates: 0,
        }
    }

    /// Records one durable-state transition and, if a crash is armed at this
    /// sequence number, pulls the plug: returns [`PowerCut`]. The transition
    /// itself *has* happened (the state it made durable survives);
    /// everything after it is lost.
    fn persist_event(&mut self, kind: PersistKind, addr: u64) -> Result<(), PowerCut> {
        self.persist_seq += 1;
        match kind {
            PersistKind::LineWrite => self.persist_line_writes += 1,
            PersistKind::AdrUpdate => self.persist_adr_updates += 1,
        }
        if self.journal_points {
            self.point_journal.push(PersistPoint {
                seq: self.persist_seq,
                kind,
                addr,
            });
        }
        if self.crash_at == Some(self.persist_seq) {
            self.tripped = Some(PersistPoint {
                seq: self.persist_seq,
                kind,
                addr,
            });
            return Err(PowerCut);
        }
        Ok(())
    }

    /// Marks an in-place update of an ADR-resident line as a crash point.
    /// Called by the controller whenever it mutates a record/bitmap line
    /// held in the ADR domain without writing NVM.
    pub fn adr_persist_event(&mut self, addr: u64) -> Result<(), PowerCut> {
        self.persist_event(PersistKind::AdrUpdate, addr)
    }

    /// Number of durable-state transitions since construction.
    pub fn persist_seq(&self) -> u64 {
        self.persist_seq
    }

    /// Arms a crash at transition number `at` (1-based). The call that
    /// completes that transition returns [`PowerCut`]; the tripping write
    /// persists in full (whole-line-atomic legacy model).
    pub fn arm_crash(&mut self, at: u64) {
        self.arm_crash_torn(at, 0xFF);
    }

    /// Arms a crash at transition `at` with torn-write semantics: if the
    /// tripping transition is a 64 B line write, only the 8-byte words whose
    /// bit is set in `word_mask` persist — the rest keep their pre-write
    /// content (real NVM guarantees 8 B, not 64 B, atomicity). `0xFF`
    /// reproduces [`Self::arm_crash`]; `0x00` drops the write entirely.
    /// ADR in-place updates are sub-word and never tear.
    pub fn arm_crash_torn(&mut self, at: u64, word_mask: u8) {
        assert!(at >= 1, "crash points are 1-based");
        self.crash_at = Some(at);
        self.crash_torn_mask = word_mask;
        self.tripped = None;
    }

    /// Disarms any pending crash point.
    pub fn disarm_crash(&mut self) {
        self.crash_at = None;
        self.crash_torn_mask = 0xFF;
    }

    /// The persist point that tripped the armed crash, if any.
    pub fn tripped_at(&self) -> Option<PersistPoint> {
        self.tripped
    }

    /// Enables/disables persist-point journaling (crash-point enumeration).
    /// Enabling clears any previous journal.
    pub fn journal_points(&mut self, on: bool) {
        self.journal_points = on;
        self.point_journal.clear();
    }

    /// The journaled persist points (empty unless journaling was on).
    pub fn point_journal(&self) -> &[PersistPoint] {
        &self.point_journal
    }

    fn bank_of(&self, addr: u64) -> usize {
        // Line-interleave across banks: consecutive lines hit distinct banks,
        // the standard mapping for bandwidth.
        ((addr / crate::storage::LINE_BYTES as u64) % self.cfg.banks as u64) as usize
    }

    fn row_of(&self, addr: u64) -> u64 {
        addr / (self.cfg.row_bytes * self.cfg.banks as u64)
    }

    /// Reads the line at `addr`, returning `(data, completion_cycle)`.
    /// `now` is when the request arrives at the device.
    pub fn read(&mut self, now: Cycle, addr: u64) -> (Line, Cycle) {
        let bank_idx = self.bank_of(addr);
        let row = self.row_of(addr);
        let bank = &mut self.banks[bank_idx];
        let row_hit = bank.open_row == Some(row);
        let mut start = now.max(bank.next_free);
        if !row_hit {
            start = start.max(self.next_activate);
            self.next_activate = start + self.cfg.timings.faw_spacing_cycles();
        }
        let service = self.cfg.timings.read_cycles(row_hit);
        let mut done = start + service;
        bank.open_row = Some(row);

        // Bounded exponential-backoff re-reads against transient media
        // faults: attempt k waits 2^(k-1) × READ_RETRY_BASE_CYCLES modeled
        // cycles, then re-reads — each failed attempt consumes one pending
        // failure and bumps the persistent retry counter, so the accounting
        // covers the exhausted-then-error path too. Short transients heal
        // before the error can reach the engine; a transient that outlives
        // the budget is promoted to a permanent unreadable fault and logged
        // for the online service to alarm on.
        let mut attempts = 0;
        while attempts < READ_RETRY_ATTEMPTS && self.faults.consume_transient_failure(addr) {
            done += READ_RETRY_BASE_CYCLES << attempts;
            attempts += 1;
            self.read_retries += 1;
        }
        if attempts == READ_RETRY_ATTEMPTS && self.faults.promote_transient(addr) {
            self.retry_exhausted += 1;
            if self.exhausted_log.len() >= EXHAUSTED_LOG_CAP {
                self.exhausted_log.remove(0);
                self.exhausted_dropped += 1;
            }
            self.exhausted_log.push((addr & !63, done));
        }
        self.banks[bank_idx].next_free = done;

        self.stats.reads += 1;
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.read_service_cycles += done - now;
        self.stats.contention_cycles += start - now;
        self.read_hist.record(done - now);
        self.bank_hists[bank_idx].record(done - now);

        (self.faults.observe(addr, self.storage.read(addr)), done)
    }

    /// Writes `line` at `addr`, returning the persist-completion cycle.
    pub fn write(&mut self, now: Cycle, addr: u64, line: &Line) -> Result<Cycle, PowerCut> {
        let bank_idx = self.bank_of(addr);
        let row = self.row_of(addr);
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.next_free);
        let done = start + self.cfg.timings.write_cycles();
        // Write-to-read turnaround keeps the bank busy a little longer for
        // a subsequent read.
        bank.next_free = done + self.cfg.timings.wtr_cycles();
        bank.open_row = Some(row);

        self.stats.writes += 1;
        self.stats.write_service_cycles += done - now;
        self.stats.contention_cycles += start - now;
        self.write_hist.record(done - now);
        self.bank_hists[bank_idx].record(done - now);

        self.store_line(addr, line);
        self.persist_event(PersistKind::LineWrite, addr)?;
        Ok(done)
    }

    /// Stores a line as a line-write persist point will: applies the
    /// torn-write word mask if the next persist event trips the armed
    /// crash. Shared by the timed write path and traced pokes, which emit
    /// the event after it.
    fn store_line(&mut self, addr: u64, line: &Line) {
        // Torn-write injection: if this very write trips the armed crash
        // under a partial word mask, persist only the masked 8-byte words —
        // the line's other words keep their previous durable content.
        let will_trip = self.crash_at == Some(self.persist_seq + 1);
        if will_trip && self.crash_torn_mask != 0xFF {
            let mut merged = self.storage.read(addr);
            for w in 0..WORDS_PER_LINE {
                if self.crash_torn_mask & (1 << w) != 0 {
                    merged[w * 8..w * 8 + 8].copy_from_slice(&line[w * 8..w * 8 + 8]);
                }
            }
            self.storage.write(addr, &merged);
        } else {
            self.storage.write(addr, line);
        }
    }

    /// Functional read without timing (used by recovery-time analysis which
    /// charges its own fixed per-read latency, and by assertions). Observes
    /// injected media faults like the timed read path does.
    pub fn peek(&self, addr: u64) -> Line {
        self.faults.observe(addr, self.storage.read(addr))
    }

    // ——— Media-fault injection (see `crate::fault`) ———

    /// Flips bit `bit` of byte `byte` in the stored line at `addr` (a
    /// one-shot corruption; a later full-line write heals it).
    pub fn inject_bit_flip(&mut self, addr: u64, byte: usize, bit: u8) {
        let base = addr & !63;
        let mut line = self.storage.read(base);
        line[byte % crate::storage::LINE_BYTES] ^= 1 << (bit % 8);
        self.storage.write(base, &line);
    }

    /// Marks `addr`'s line stuck at `line`: reads return `line` forever,
    /// writes are timed and counted but have no visible effect.
    pub fn inject_stuck_line(&mut self, addr: u64, line: Line) {
        self.faults.stick_line(addr, line);
    }

    /// Marks `addr`'s line unreadable: reads return the poison pattern and
    /// [`Self::is_readable`] reports the uncorrectable error.
    pub fn inject_unreadable(&mut self, addr: u64) {
        self.faults.mark_unreadable(addr);
    }

    /// Marks `addr`'s line transiently unreadable: the next `failures` read
    /// attempts fail, then the line heals. Transients within
    /// [`READ_RETRY_ATTEMPTS`] are absorbed by the timed read path's
    /// exponential-backoff re-read schedule and never reach the engine;
    /// longer transients are promoted to permanent unreadable faults on
    /// the first timed read that exhausts the budget.
    pub fn inject_transient_unreadable(&mut self, addr: u64, failures: u32) {
        self.faults.mark_transient_unreadable(addr, failures);
    }

    /// Transients promoted to permanent faults after exhausting the
    /// backoff schedule this measurement epoch.
    pub fn retry_exhausted(&self) -> u64 {
        self.retry_exhausted
    }

    /// Drains the `(line addr, completion cycle)` log of backoff-schedule
    /// exhaustions since the last drain. The online integrity service
    /// turns each entry into a typed `RetryExhausted` alarm and
    /// quarantines the region.
    pub fn take_retry_exhausted(&mut self) -> Vec<(u64, Cycle)> {
        std::mem::take(&mut self.exhausted_log)
    }

    /// Whether `addr`'s line reads back real content (false = uncorrectable
    /// media error; the returned bytes are poison).
    pub fn is_readable(&self, addr: u64) -> bool {
        self.faults.is_readable(addr)
    }

    /// Functional write without timing: the controller's in-place rewrites
    /// (MAC records, recovery and scrub rewrites). When poke tracing is on
    /// (recovery in progress under the nested-crash harness), the write is
    /// a full persist point: enumerable, armable, and tearable like a timed
    /// line write.
    pub fn poke(&mut self, addr: u64, line: &Line) -> Result<(), PowerCut> {
        if self.trace_pokes {
            self.store_line(addr, line);
            return self.persist_event(PersistKind::LineWrite, addr);
        }
        self.storage.write(addr, line);
        Ok(())
    }

    /// Overwrites the stored line at `addr` with no persist-point semantics,
    /// whatever the tracing mode: the residual-power ADR flush of a machine
    /// already crashed, and an attacker's write to a powered-off image.
    pub fn overwrite(&mut self, addr: u64, line: &Line) {
        self.storage.write(addr, line);
    }

    /// Enables/disables persist-event tracing of `poke` writes.
    pub fn trace_pokes(&mut self, on: bool) {
        self.trace_pokes = on;
    }

    /// The ADR-resident recovery journal.
    pub fn recovery_journal(&self) -> RecoveryJournal {
        self.recovery_journal
    }

    /// Updates the recovery journal and the MAC sealed over it. The update
    /// is itself a durable-state transition (an in-place ADR word rewrite),
    /// so it emits a persist event — and can therefore trip an armed crash
    /// *after* the new journal content is in place, exactly like any other
    /// ADR update. The device's shard label rides with the journal line
    /// (see [`Self::set_shard`]); the MAC is stored opaquely — the
    /// controller seals it under the engine key and verifies at read time.
    pub fn set_recovery_journal(
        &mut self,
        journal: RecoveryJournal,
        mac: u64,
    ) -> Result<(), PowerCut> {
        self.recovery_journal = journal;
        self.journal_mac = mac;
        self.journal_owner = self.shard_label;
        self.persist_event(PersistKind::AdrUpdate, RECOVERY_JOURNAL_ADDR)
    }

    /// The MAC stored with the last recovery-journal write (0 if the
    /// journal was never written).
    pub fn journal_mac(&self) -> u64 {
        self.journal_mac
    }

    /// Labels this device as shard `shard` of a sharded engine. The label
    /// is stamped into every subsequent recovery-journal write so recovery
    /// can verify it is resuming off its own shard's journal line.
    pub fn set_shard(&mut self, shard: u16) {
        self.shard_label = shard;
    }

    /// This device's shard label (0 for an unsharded system).
    pub fn shard(&self) -> u16 {
        self.shard_label
    }

    /// The shard label stamped by the last recovery-journal write — the
    /// owner byte of the durable journal line. A mismatch with
    /// [`Self::shard`] means a routing bug handed this shard another
    /// shard's image.
    pub fn journal_owner(&self) -> u16 {
        self.journal_owner
    }

    /// Immutable view of the backing store.
    pub fn storage(&self) -> &SparseStore {
        &self.storage
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Mutable statistics (the write queue files its stall cycles here).
    pub fn stats_mut(&mut self) -> &mut NvmStats {
        &mut self.stats
    }

    /// Device configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.cfg
    }

    /// Zeroes the statistics (e.g. when a recovered system starts a fresh
    /// measurement epoch). Histograms and persist-event counters reset with
    /// the rest; `persist_seq` does not (crash-point enumeration spans
    /// epochs), and neither does the recovery journal (it is durable ADR
    /// state, not a statistic).
    pub fn reset_stats(&mut self) {
        self.stats = NvmStats::default();
        self.read_hist = Histogram::new();
        self.write_hist = Histogram::new();
        for h in &mut self.bank_hists {
            *h = Histogram::new();
        }
        self.persist_line_writes = 0;
        self.persist_adr_updates = 0;
        self.read_retries = 0;
        self.retry_exhausted = 0;
        self.exhausted_log.clear();
        self.exhausted_dropped = 0;
    }

    /// Exports device metrics under the `nvm.` prefix: event counters,
    /// ADR persist counts, global and per-bank service-latency histograms
    /// (idle banks are omitted).
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        reg.counter_add("nvm.device.reads", self.stats.reads);
        reg.counter_add("nvm.device.writes", self.stats.writes);
        reg.counter_add("nvm.device.row_hits", self.stats.row_hits);
        reg.counter_add("nvm.device.row_misses", self.stats.row_misses);
        reg.counter_add("nvm.device.contention_cycles", self.stats.contention_cycles);
        reg.counter_add("nvm.device.wq_stall_cycles", self.stats.wq_stall_cycles);
        reg.counter_add("nvm.adr.persists.line_write", self.persist_line_writes);
        reg.counter_add("nvm.adr.persists.in_place", self.persist_adr_updates);
        reg.counter_add("nvm.read.retries", self.read_retries);
        reg.counter_add("nvm.read.retry_exhausted", self.retry_exhausted);
        if self.exhausted_dropped > 0 {
            reg.counter_add("nvm.read.retry_exhausted.dropped", self.exhausted_dropped);
        }
        reg.gauge_set("nvm.shard", self.shard_label as f64);
        reg.insert_hist("nvm.device.read_service_cycles", &self.read_hist);
        reg.insert_hist("nvm.device.write_service_cycles", &self.write_hist);
        for (i, h) in self.bank_hists.iter().enumerate() {
            if h.count() > 0 {
                reg.insert_hist(&format!("nvm.bank.{i:02}.service_cycles"), h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::NvmTimings;

    fn dev() -> NvmDevice {
        NvmDevice::new(NvmConfig::small_for_tests())
    }

    #[test]
    fn read_returns_written_data_and_later_completion() {
        let mut d = dev();
        let line = [0x5A; 64];
        let wdone = d.write(0, 128, &line).unwrap();
        assert!(wdone >= NvmTimings::default().write_cycles());
        let (data, rdone) = d.read(wdone, 128);
        assert_eq!(data, line);
        assert!(rdone > wdone);
    }

    #[test]
    fn row_buffer_hit_faster_than_miss() {
        let mut d = dev();
        // Two reads in the same row, same bank: second should be a hit.
        let banks = d.config().banks as u64;
        let (_, t1) = d.read(0, 0);
        let (_, t2) = d.read(t1, 64 * banks); // same bank (line interleave), same row
        assert!(
            t2 - t1 < t1,
            "hit ({}) must be faster than miss ({t1})",
            t2 - t1
        );
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn busy_bank_serializes_requests() {
        let mut d = dev();
        let (_, t1) = d.read(0, 0);
        // Issue to the same bank at cycle 0: must queue behind the first.
        let banks = d.config().banks as u64;
        let (_, t2) = d.read(0, 64 * banks * 100); // same bank, different row
        assert!(t2 > t1);
        assert!(d.stats().contention_cycles > 0);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dev();
        let (_, t1) = d.read(0, 0);
        let (_, t2) = d.read(0, 64); // next line = next bank
                                     // Both issued at 0 to different banks: completions overlap (equal,
                                     // modulo tFAW pacing on the second activate).
        assert!(
            t2 < t1 * 2,
            "bank parallelism should overlap: t1={t1} t2={t2}"
        );
    }

    #[test]
    fn poke_peek_bypass_timing() {
        let mut d = dev();
        d.poke(0, &[9; 64]).unwrap();
        assert_eq!(d.peek(0), [9; 64]);
        assert_eq!(d.stats().reads, 0);
        assert_eq!(d.stats().writes, 0);
    }

    #[test]
    fn persist_points_count_writes_and_adr_updates() {
        let mut d = dev();
        assert_eq!(d.persist_seq(), 0);
        d.write(0, 0, &[1; 64]).unwrap();
        d.write(0, 64, &[2; 64]).unwrap();
        d.adr_persist_event(128).unwrap();
        assert_eq!(d.persist_seq(), 3);
        let (_, _) = d.read(0, 0);
        d.poke(192, &[3; 64]).unwrap();
        assert_eq!(d.persist_seq(), 3, "reads and pokes are not persist events");
    }

    #[test]
    fn armed_persist_returns_power_cut_and_keeps_only_masked_words() {
        let mut d = dev();
        d.write(0, 0, &[0x11; 64]).unwrap();
        // Arm point 2 with only the first three words persisting.
        d.arm_crash_torn(2, 0b0000_0111);
        assert_eq!(d.write(0, 0, &[0x22; 64]), Err(PowerCut));
        let line = d.peek(0);
        assert_eq!(&line[..24], &[0x22; 24][..], "masked words persist");
        assert_eq!(
            &line[24..],
            &[0x11; 40][..],
            "unmasked words keep old content"
        );
        let p = d.tripped_at().expect("trip recorded");
        assert_eq!((p.seq, p.kind, p.addr), (2, PersistKind::LineWrite, 0));
        // A whole-line trip keeps the tripping write in full.
        d.arm_crash(3);
        assert_eq!(d.write(0, 64, &[0x33; 64]), Err(PowerCut));
        assert_eq!(d.peek(64), [0x33; 64]);
        // Mask 0x00 drops the write entirely.
        d.arm_crash_torn(4, 0x00);
        assert_eq!(d.write(0, 128, &[0x44; 64]), Err(PowerCut));
        assert_eq!(d.peek(128), [0u8; 64], "mask 0x00 drops the write");
        // Traced pokes are tearable persist points; untraced ones are silent.
        d.poke(192, &[2; 64]).unwrap();
        assert_eq!(d.persist_seq(), 4, "untraced pokes are silent");
        d.trace_pokes(true);
        d.arm_crash_torn(5, 0x01);
        assert_eq!(d.poke(192, &[3; 64]), Err(PowerCut));
        assert_eq!(&d.peek(192)[..16], &[[3; 8], [2; 8]].concat()[..]);
        // ADR updates trip untorn; the journal content is in place first.
        d.arm_crash(6);
        assert_eq!(d.adr_persist_event(256), Err(PowerCut));
        assert_eq!(
            d.tripped_at().map(|p| p.kind),
            Some(PersistKind::AdrUpdate),
            "ADR updates trip untorn"
        );
        d.arm_crash(7);
        let j = RecoveryJournal::new(4, 0, 0);
        assert_eq!(d.set_recovery_journal(j, 0), Err(PowerCut));
        assert_eq!(d.recovery_journal(), j);
        assert_eq!(d.tripped_at().map(|p| p.addr), Some(RECOVERY_JOURNAL_ADDR));
        // Disarmed, the persist edge is plain again.
        d.disarm_crash();
        d.write(0, 320, &[5; 64]).unwrap();
        assert_eq!(d.persist_seq(), 8);
    }

    #[test]
    fn recovery_journal_is_a_persist_point_and_survives_reset() {
        let mut d = dev();
        let j = RecoveryJournal::new(3, 17, 1);
        d.set_recovery_journal(j, 0x1234).unwrap();
        assert_eq!(d.persist_seq(), 1, "journal update is an ADR persist");
        assert_eq!(d.recovery_journal(), j);
        d.reset_stats();
        assert_eq!(d.recovery_journal(), j, "journal is durable, not a stat");
    }

    #[test]
    fn journal_owner_stamped_per_shard() {
        let mut d = dev();
        assert_eq!(d.shard(), 0);
        d.set_shard(3);
        assert_eq!(d.shard(), 3);
        // The stamp lands with the journal write, not with set_shard.
        assert_eq!(d.journal_owner(), 0);
        d.set_recovery_journal(RecoveryJournal::new(1, 7, 0), 0xDEAD)
            .unwrap();
        assert_eq!(d.journal_owner(), 3);
        assert_eq!(d.recovery_journal().hwm, 7);
        assert_eq!(d.journal_mac(), 0xDEAD, "MAC is stored with the journal");
    }

    /// The journal records each persist point at its address: a timed
    /// write, one that trips an armed torn crash too, and a traced poke as
    /// a line write. Untraced pokes, overwrites and injected bit flips add
    /// nothing, so its line writes are the device's timed writes wherever
    /// poke tracing is off.
    #[test]
    fn point_journal_records_kinds() {
        use PersistKind::{AdrUpdate, LineWrite};
        let mut d = dev();
        d.journal_points(true);
        d.write(0, 0, &[1; 64]).unwrap();
        d.adr_persist_event(64).unwrap();
        d.poke(192, &[2; 64]).unwrap();
        d.overwrite(256, &[3; 64]);
        d.inject_bit_flip(0, 5, 1);
        d.arm_crash_torn(3, 0b0101_0101);
        assert_eq!(d.write(0, 128, &[4; 64]), Err(PowerCut));
        d.disarm_crash();
        d.trace_pokes(true);
        d.poke(320, &[5; 64]).unwrap();
        let j: Vec<_> = d
            .point_journal()
            .iter()
            .map(|p| (p.seq, p.kind, p.addr))
            .collect();
        let want = [
            (1, LineWrite, 0),
            (2, AdrUpdate, 64),
            (3, LineWrite, 128),
            (4, LineWrite, 320),
        ];
        assert_eq!(j, want);
        d.journal_points(false);
        d.write(0, 192, &[3; 64]).unwrap();
        assert!(d.point_journal().is_empty(), "disabling clears the journal");
    }

    #[test]
    fn media_faults_overlay_reads_not_writes() {
        let mut d = dev();
        d.write(0, 0, &[5; 64]).unwrap();
        d.inject_bit_flip(0, 3, 2);
        let mut want = [5u8; 64];
        want[3] ^= 1 << 2;
        assert_eq!(d.peek(0), want, "bit flip lands in storage");
        d.write(0, 0, &[6; 64]).unwrap();
        assert_eq!(d.peek(0), [6; 64], "full-line write heals the flip");

        d.inject_stuck_line(64, [0xAA; 64]);
        d.write(0, 64, &[7; 64]).unwrap();
        assert_eq!(d.peek(64), [0xAA; 64], "stuck line ignores writes");
        let (got, _) = d.read(0, 64);
        assert_eq!(got, [0xAA; 64]);

        d.inject_unreadable(128);
        assert!(!d.is_readable(128));
        assert!(d.is_readable(64));
        assert_eq!(d.peek(128), [crate::fault::POISON_BYTE; 64]);
        assert_eq!(
            d.storage.read(64),
            [7; 64],
            "the overlay keeps stored content"
        );
        // The overlay is per device: a fresh one reads what it stored.
        let mut fresh = dev();
        fresh.write(0, 64, &[7; 64]).unwrap();
        assert_eq!(fresh.peek(64), [7; 64]);
        assert!(fresh.is_readable(128));
    }

    #[test]
    fn transient_fault_retries_then_heals_or_promotes() {
        let mut d = dev();
        d.write(0, 0, &[4; 64]).unwrap();
        // Fault-free baseline completion on the (open-row) line.
        let (_, t_plain) = d.read(10_000, 0);
        // Within the retry budget: the engine-visible read succeeds, paying
        // exactly the deterministic backoff schedule in modeled cycles.
        d.inject_transient_unreadable(0, READ_RETRY_ATTEMPTS);
        assert!(!d.is_readable(0), "pending transient reads as a fault");
        let (got, t_retried) = d.read(20_000, 0);
        assert_eq!(got, [4; 64], "backoff re-reads absorb a short transient");
        assert!(d.is_readable(0));
        let backoff: Cycle = (0..READ_RETRY_ATTEMPTS)
            .map(|k| READ_RETRY_BASE_CYCLES << k)
            .sum();
        assert_eq!(
            t_retried - 20_000,
            (t_plain - 10_000) + backoff,
            "each attempt doubles the previous wait"
        );
        // Beyond the budget: the schedule exhausts and the transient is
        // promoted to a permanent unreadable fault — it does NOT heal.
        d.inject_transient_unreadable(0, READ_RETRY_ATTEMPTS + 2);
        let (got, _) = d.read(30_000, 0);
        assert_eq!(got, [crate::fault::POISON_BYTE; 64]);
        assert!(!d.is_readable(0));
        // The exhausted read burned its full budget before erroring — those
        // attempts must be counted even though the read ultimately failed.
        let mut reg = MetricRegistry::new();
        d.export_metrics(&mut reg);
        assert_eq!(
            reg.counter("nvm.read.retries"),
            Some(READ_RETRY_ATTEMPTS as u64 * 2),
            "failed-final-attempt retries are counted"
        );
        assert_eq!(reg.counter("nvm.read.retry_exhausted"), Some(1));
        let exhausted = d.take_retry_exhausted();
        assert_eq!(exhausted.len(), 1);
        assert_eq!(exhausted[0].0, 0, "promotion pinned to the line addr");
        assert!(d.take_retry_exhausted().is_empty(), "drain empties the log");
        // The fault is now permanent: later reads poison without retrying.
        let (got, _) = d.read(40_000, 0);
        assert_eq!(got, [crate::fault::POISON_BYTE; 64]);
        let mut reg = MetricRegistry::new();
        d.export_metrics(&mut reg);
        assert_eq!(
            reg.counter("nvm.read.retries"),
            Some(READ_RETRY_ATTEMPTS as u64 * 2),
            "permanent faults are not retried"
        );
        d.reset_stats();
        let mut reg = MetricRegistry::new();
        d.export_metrics(&mut reg);
        assert_eq!(reg.counter("nvm.read.retries"), Some(0));
        assert_eq!(reg.counter("nvm.read.retry_exhausted"), Some(0));
    }

    #[test]
    fn write_then_read_same_bank_pays_wtr() {
        let mut d = dev();
        let wdone = d.write(0, 0, &[1; 64]).unwrap();
        let (_, rdone) = d.read(wdone, 0);
        let t = NvmTimings::default();
        // Read issued exactly at write completion still waits out tWTR.
        assert!(rdone >= wdone + t.wtr_cycles() + t.read_cycles(true));
    }

    #[test]
    fn exhausted_log_is_a_bounded_ring() {
        let mut d = dev();
        // Promote EXHAUSTED_LOG_CAP + 3 distinct lines past the retry
        // budget without draining in between.
        for i in 0..(EXHAUSTED_LOG_CAP as u64 + 3) {
            let addr = i * 64;
            d.inject_transient_unreadable(addr, u32::MAX);
            let _ = d.read(i * 100_000, addr);
        }
        let mut reg = MetricRegistry::new();
        d.export_metrics(&mut reg);
        let dropped = "nvm.read.retry_exhausted.dropped";
        assert_eq!(reg.counter(dropped), Some(3), "oldest 3 evicted");
        let log = d.take_retry_exhausted();
        assert_eq!(log.len(), EXHAUSTED_LOG_CAP, "ring holds exactly the cap");
        assert_eq!(log[0].0, 3 * 64, "survivors start past the evicted head");
        assert_eq!(
            log[EXHAUSTED_LOG_CAP - 1].0,
            (EXHAUSTED_LOG_CAP as u64 + 2) * 64
        );
        d.reset_stats();
        let mut reg = MetricRegistry::new();
        d.export_metrics(&mut reg);
        assert_eq!(reg.counter(dropped), None, "dropped resets per epoch");
    }

    #[test]
    fn journal_mac_message_binds_every_field() {
        // The fixed layout: domain tag, phase, padding, restarts, hwm.
        let base = RecoveryJournal::new(3, 17, 2);
        let msg = base.mac_message();
        assert_eq!(&msg[..8], b"SNVMJRNL");
        assert_eq!(msg[8..12], [3, 0, 0, 0]);
        assert_eq!(msg[12..16], 2u32.to_le_bytes());
        assert_eq!(msg[16..24], 17u64.to_le_bytes());
        // Changing phase, hwm or restarts changes the message the journal
        // MAC covers.
        for other in [
            RecoveryJournal::new(4, 17, 2),
            RecoveryJournal::new(3, 18, 2),
            RecoveryJournal::new(3, 17, 3),
        ] {
            assert_ne!(base.mac_message(), other.mac_message(), "{other:?}");
        }
    }
}
