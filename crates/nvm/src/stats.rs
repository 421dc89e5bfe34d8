//! NVM access statistics, the raw series behind Figs. 10, 11, 13 and 14.

/// Counters accumulated by [`crate::device::NvmDevice`] and
/// [`crate::write_queue::WriteQueue`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NvmStats {
    /// Lines read from the device.
    pub reads: u64,
    /// Lines written to the device (user data + metadata + scheme extras).
    pub writes: u64,
    /// Row-buffer hits among reads.
    pub row_hits: u64,
    /// Row-buffer misses among reads.
    pub row_misses: u64,
    /// Total device-service cycles spent on reads (issue → data).
    pub read_service_cycles: u64,
    /// Total device-service cycles spent on writes (issue → persisted).
    pub write_service_cycles: u64,
    /// Cycles requests waited for a busy bank/queue before issuing.
    pub contention_cycles: u64,
    /// Cycles the producer stalled because the write queue was full.
    pub wq_stall_cycles: u64,
}

impl NvmStats {
    /// Total write traffic in bytes.
    pub fn write_traffic_bytes(&self) -> u64 {
        self.writes * crate::storage::LINE_BYTES as u64
    }

    /// Folds another stats block into this one (used when merging per-bank or
    /// per-phase counters).
    pub fn merge(&mut self, other: &NvmStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.read_service_cycles += other.read_service_cycles;
        self.write_service_cycles += other.write_service_cycles;
        self.contention_cycles += other.contention_cycles;
        self.wq_stall_cycles += other.wq_stall_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = NvmStats {
            reads: 1,
            writes: 2,
            ..Default::default()
        };
        let b = NvmStats {
            reads: 10,
            writes: 20,
            wq_stall_cycles: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 11);
        assert_eq!(a.writes, 22);
        assert_eq!(a.wq_stall_cycles, 5);
        assert_eq!(a.write_traffic_bytes(), 22 * 64);
    }
}
