//! Write-endurance tracking.
//!
//! PCM cells wear out (the paper's introduction lists limited write
//! endurance among NVM's problems); recovery schemes that amplify writes
//! (ASIT's 2×) also halve lifetime. This tracker keeps per-line write
//! counts and summarizes the wear profile, letting the harness report
//! *where* each scheme concentrates its extra writes (shadow table, bitmap,
//! record region, metadata…).
//!
//! The counts ride on the device's line store: one `u32` per arena slot,
//! indexed by the slot [`SparseStore::write`] returns, so a timed write
//! costs no second lookup and a line costs 4 B more. A profile is read
//! through the store's index ([`WearTracker::profile`]), in address order.

use crate::storage::SparseStore;

/// Per-line write counters, one per slot of a [`SparseStore`].
#[derive(Clone, Debug, Default)]
pub struct WearTracker {
    /// Timed writes per slot. A slot past the end, or one the store gave
    /// to a line that only untimed writes reached, counts zero. A count
    /// stops at `u32::MAX`, some 4 × 10⁹ writes to one line.
    counts: Vec<u32>,
}

/// Summary of a wear profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WearSummary {
    /// Distinct lines ever written.
    pub lines_touched: u64,
    /// Total line writes.
    pub total_writes: u64,
    /// Most-written line's count (the wear-out bound).
    pub max_writes: u64,
    /// Address of the most-written line (the lowest such address on a tie).
    pub hottest_line: u64,
    /// Mean writes per touched line.
    pub mean_writes: f64,
}

impl WearTracker {
    /// New, all-zero tracker. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one write to the line the store keeps in `slot`.
    pub fn record(&mut self, slot: u32) {
        let slot = slot as usize;
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] = self.counts[slot].saturating_add(1);
    }

    /// The profile of the lines `store` holds: the store whose slots were
    /// recorded.
    pub fn profile<'a>(&'a self, store: &'a SparseStore) -> WearProfile<'a> {
        WearProfile {
            counts: &self.counts,
            store,
        }
    }
}

/// A wear profile read through its line store's index.
#[derive(Clone, Copy)]
pub struct WearProfile<'a> {
    counts: &'a [u32],
    store: &'a SparseStore,
}

impl WearProfile<'_> {
    /// `(line address, writes)` of every line written at least once, in
    /// ascending address order.
    fn lines(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.store.slots().filter_map(|(addr, slot)| {
            let writes = self.counts.get(slot as usize).copied().unwrap_or(0);
            (writes > 0).then_some((addr, u64::from(writes)))
        })
    }

    /// Summarizes the profile (`None` when nothing was written).
    pub fn summary(&self) -> Option<WearSummary> {
        let (mut touched, mut total) = (0u64, 0u64);
        let (mut hottest_line, mut max_writes) = (0u64, 0u64);
        for (addr, writes) in self.lines() {
            touched += 1;
            total += writes;
            // Strictly greater: lines come in address order, so a tie
            // keeps the lowest address.
            if writes > max_writes {
                (hottest_line, max_writes) = (addr, writes);
            }
        }
        (touched > 0).then(|| WearSummary {
            lines_touched: touched,
            total_writes: total,
            max_writes,
            hottest_line,
            mean_writes: total as f64 / touched as f64,
        })
    }

    /// Total writes landing in `[base, end)` — per-region attribution.
    pub fn in_range(&self, base: u64, end: u64) -> u64 {
        self.lines()
            .filter(|&(a, _)| a >= base && a < end)
            .map(|(_, c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store and its tracker, with a timed write that records wear.
    #[derive(Default)]
    struct Worn {
        store: SparseStore,
        wear: WearTracker,
    }

    impl Worn {
        fn record(&mut self, addr: u64) {
            let slot = self.store.write(addr & !63, &[1; 64]);
            self.wear.record(slot);
        }

        fn profile(&self) -> WearProfile<'_> {
            self.wear.profile(&self.store)
        }
    }

    #[test]
    fn empty_has_no_summary() {
        assert!(Worn::default().profile().summary().is_none());
        // A line written without a recorded write is not worn.
        let mut w = Worn::default();
        w.store.write(0, &[1; 64]);
        assert!(w.profile().summary().is_none());
    }

    #[test]
    fn counts_and_summary() {
        let mut w = Worn::default();
        for _ in 0..5 {
            w.record(0);
        }
        w.record(64);
        w.record(67); // same line as 64
        let s = w.profile().summary().unwrap();
        assert_eq!(s.lines_touched, 2);
        assert_eq!(s.total_writes, 7);
        assert_eq!(s.max_writes, 5);
        assert_eq!(s.hottest_line, 0);
        assert!((s.mean_writes - 3.5).abs() < 1e-12);
    }

    #[test]
    fn hottest_line_tie_goes_to_the_lowest_address() {
        // Many equally hot lines, recorded high to low: slots run opposite
        // to addresses, and the lowest address still wins.
        let mut w = Worn::default();
        for line in (1..200u64).rev() {
            w.record(line * 64);
            w.record(line * 64);
        }
        w.record(64 * 500);
        let s = w.profile().summary().unwrap();
        assert_eq!(s.max_writes, 2);
        assert_eq!(s.hottest_line, 64);
    }

    #[test]
    fn range_attribution() {
        let mut w = Worn::default();
        w.record(0);
        w.record(64);
        w.record(1024);
        assert_eq!(w.profile().in_range(0, 128), 2);
        assert_eq!(w.profile().in_range(128, 2048), 1);
        assert_eq!(w.profile().in_range(2048, 4096), 0);
    }
}
