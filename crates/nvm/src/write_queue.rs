//! The memory controller's write queue (Table I: 64 entries).
//!
//! Writes retire into the queue and drain to the device in the background;
//! the producer (the secure engine) only stalls when the queue is full. This
//! is the mechanism through which the schemes' *extra writes* (ASIT's shadow
//! table, STAR's bitmap lines, Steins' record lines) turn into execution-time
//! loss on write-intensive workloads: more writes ⇒ the queue saturates
//! sooner ⇒ the front end stalls.
//!
//! The queue lives inside the ADR persist domain: entries accepted before a
//! crash are guaranteed durable (flushed with residual power), matching the
//! crash semantics all four schemes assume.

use crate::device::{NvmDevice, PowerCut};
use crate::storage::Line;
use crate::Cycle;
use std::collections::VecDeque;
use steins_obs::{Histogram, MetricRegistry};

struct Entry {
    completes_at: Cycle,
}

/// Bounded write queue draining into an [`NvmDevice`].
pub struct WriteQueue {
    capacity: usize,
    in_flight: VecDeque<Entry>,
    /// Post-push occupancy distribution (how close to saturation the queue
    /// runs — the leading indicator of the stalls below).
    occ_hist: Histogram,
    /// Pushes that found the queue full.
    stalls: u64,
    /// Producer cycles lost waiting for the oldest entry to drain.
    stall_cycles: u64,
    /// Batch-size distribution of [`WriteQueue::push_batch`] calls.
    batch_hist: Histogram,
    /// Lines submitted through the batched entry point.
    batched_writes: u64,
}

impl WriteQueue {
    /// Creates a queue with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write queue needs at least one entry");
        WriteQueue {
            capacity,
            in_flight: VecDeque::with_capacity(capacity),
            occ_hist: Histogram::new(),
            stalls: 0,
            stall_cycles: 0,
            batch_hist: Histogram::new(),
            batched_writes: 0,
        }
    }

    fn reap(&mut self, now: Cycle) {
        while let Some(front) = self.in_flight.front() {
            if front.completes_at <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Enqueues a line write. Returns the cycle at which the *producer* may
    /// continue: `now` if the queue had room, or later if it had to stall for
    /// the oldest entry to drain. The write itself completes asynchronously.
    /// A write that trips the device's armed crash point returns its
    /// [`PowerCut`] and leaves no queue entry behind.
    pub fn push(
        &mut self,
        now: Cycle,
        addr: u64,
        line: &Line,
        dev: &mut NvmDevice,
    ) -> Result<Cycle, PowerCut> {
        let mut now = now;
        self.reap(now);
        if self.in_flight.len() == self.capacity {
            // Full: stall until the oldest write persists.
            let wait_until = self.in_flight.front().expect("non-empty").completes_at;
            dev.stats_mut().wq_stall_cycles += wait_until - now;
            self.stalls += 1;
            self.stall_cycles += wait_until - now;
            now = wait_until;
            self.reap(now);
        }
        let completes_at = dev.write(now, addr, line)?;
        self.in_flight.push_back(Entry { completes_at });
        self.occ_hist.record(self.in_flight.len() as u64);
        Ok(now)
    }

    /// Enqueues a persist batch in submission order. Each line goes through
    /// the same admission path as [`WriteQueue::push`] — same stall
    /// accounting, same device timing — so a batch is *byte- and
    /// order-identical* to pushing its lines one by one. Batching buys the
    /// caller a single producer handoff (and gives the model a batch-size
    /// signal via `nvm.write_queue.batch_size`), not reordering: the persist
    /// order of a batch IS its submission order, which is what lets the
    /// secure engine present `[record_i, data_i, …]` flush batches without
    /// widening any crash window. A power cut stops the batch at the
    /// tripping line.
    pub fn push_batch(
        &mut self,
        now: Cycle,
        lines: &[(u64, Line)],
        dev: &mut NvmDevice,
    ) -> Result<Cycle, PowerCut> {
        let mut now = now;
        for (addr, line) in lines {
            now = self.push(now, *addr, line, dev)?;
        }
        self.batch_hist.record(lines.len() as u64);
        self.batched_writes += lines.len() as u64;
        Ok(now)
    }

    /// Number of writes still in flight at `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.reap(now);
        self.in_flight.len()
    }

    /// Cycle by which every queued write has persisted.
    pub fn drain_horizon(&self) -> Cycle {
        self.in_flight.back().map(|e| e.completes_at).unwrap_or(0)
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exports queue metrics under the `nvm.write_queue.` prefix.
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        reg.gauge_set("nvm.write_queue.capacity", self.capacity as f64);
        reg.counter_add("nvm.write_queue.stalls", self.stalls);
        reg.counter_add("nvm.write_queue.stall_cycles", self.stall_cycles);
        reg.counter_add("nvm.write_queue.batched_writes", self.batched_writes);
        reg.insert_hist("nvm.write_queue.occupancy", &self.occ_hist);
        reg.insert_hist("nvm.write_queue.batch_size", &self.batch_hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NvmConfig;

    fn setup() -> (WriteQueue, NvmDevice) {
        let cfg = NvmConfig::small_for_tests(); // 8-entry queue in cfg, but we pick our own
        (WriteQueue::new(4), NvmDevice::new(cfg))
    }

    #[test]
    fn push_is_free_until_full() {
        let (mut q, mut dev) = setup();
        let mut now = 0;
        for i in 0..4u64 {
            let t = q.push(now, i * 64, &[0; 64], &mut dev).unwrap();
            assert_eq!(t, now, "no stall while queue has room");
            now = t;
        }
        assert_eq!(q.occupancy(now), 4);
    }

    #[test]
    fn full_queue_stalls_producer() {
        let (mut q, mut dev) = setup();
        // Hammer one bank so entries drain slowly.
        let bank_stride = 64 * dev.config().banks as u64;
        let mut now = 0;
        for i in 0..10u64 {
            now = q.push(now, i * bank_stride, &[0; 64], &mut dev).unwrap();
        }
        assert!(now > 0, "producer must have stalled");
        assert!(dev.stats().wq_stall_cycles > 0);
    }

    #[test]
    fn entries_reap_over_time() {
        let (mut q, mut dev) = setup();
        q.push(0, 0, &[0; 64], &mut dev).unwrap();
        let horizon = q.drain_horizon();
        assert_eq!(q.occupancy(horizon), 0);
    }

    #[test]
    fn writes_are_functionally_applied() {
        let (mut q, mut dev) = setup();
        q.push(0, 192, &[0xEE; 64], &mut dev).unwrap();
        assert_eq!(dev.peek(192), [0xEE; 64]);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        WriteQueue::new(0);
    }

    #[test]
    fn push_batch_equals_serial_pushes() {
        // Same lines through push_batch and through a push loop: identical
        // producer time, identical stall stats, identical device contents.
        let lines: Vec<(u64, Line)> = (0..10u64)
            .map(|i| (i * 64 * 4, [i as u8; 64])) // hammer bank 0 (4 banks in test cfg)
            .collect();

        let (mut qa, mut da) = setup();
        let ta = qa.push_batch(0, &lines, &mut da).unwrap();

        let (mut qb, mut db) = setup();
        let mut tb = 0;
        for (addr, line) in &lines {
            tb = qb.push(tb, *addr, line, &mut db).unwrap();
        }

        assert_eq!(ta, tb, "batched producer time must match serial");
        assert_eq!(da.stats().wq_stall_cycles, db.stats().wq_stall_cycles);
        for (addr, line) in &lines {
            assert_eq!(da.peek(*addr), *line);
            assert_eq!(db.peek(*addr), *line);
        }
    }

    #[test]
    fn push_batch_preserves_submission_order() {
        // Two writes to the same address inside one batch: the later entry
        // must win, proving the batch persists in submission order.
        let (mut q, mut dev) = setup();
        let lines = [(128u64, [0xAA; 64]), (192, [0x11; 64]), (128, [0xBB; 64])];
        q.push_batch(0, &lines, &mut dev).unwrap();
        assert_eq!(dev.peek(128), [0xBB; 64], "later batch entry wins");
        assert_eq!(dev.peek(192), [0x11; 64]);
    }

    #[test]
    fn push_batch_records_metrics() {
        let (mut q, mut dev) = setup();
        q.push_batch(0, &[(0, [1; 64]), (64, [2; 64])], &mut dev)
            .unwrap();
        q.push_batch(0, &[(128, [3; 64])], &mut dev).unwrap();
        assert_eq!(q.batch_hist.count(), 2);
        assert_eq!(q.batch_hist.sum(), 3);

        let mut reg = MetricRegistry::new();
        q.export_metrics(&mut reg);
        let json = reg.to_json().pretty();
        assert!(json.contains("nvm.write_queue.batched_writes"));
        assert!(json.contains("nvm.write_queue.batch_size"));
    }

    #[test]
    fn empty_batch_is_a_noop_on_timing() {
        let (mut q, mut dev) = setup();
        assert_eq!(q.push_batch(7, &[], &mut dev), Ok(7));
        assert_eq!(q.occupancy(7), 0);
        // Degenerate batches still show up in the size distribution.
        assert_eq!(q.batch_hist.count(), 1);
        assert_eq!(q.batch_hist.sum(), 0);
    }
}
