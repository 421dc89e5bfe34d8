//! Write-endurance tracking.
//!
//! PCM cells wear out (the paper's introduction lists limited write
//! endurance among NVM's problems); recovery schemes that amplify writes
//! (ASIT's 2×) also halve lifetime. This tracker keeps per-line write
//! counts and summarizes the wear profile, letting the harness report
//! *where* each scheme concentrates its extra writes (shadow table, bitmap,
//! record region, metadata…).
//!
//! The map is an [`FxHashMap`] for the reason the backing store's is: line
//! addresses are internal, non-adversarial keys, and every timed NVM write
//! updates it.

use std::cmp::Reverse;
use steins_crypto::FxHashMap;

/// Per-line write counters with summary statistics.
#[derive(Clone, Debug, Default)]
pub struct WearTracker {
    writes: FxHashMap<u64, u64>,
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
    /// New, all-zero tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one write to the line at byte address `addr`.
    pub fn record(&mut self, addr: u64) {
        *self.writes.entry(addr & !63).or_insert(0) += 1;
    }

    /// Write count of one line.
    pub fn of(&self, addr: u64) -> u64 {
        self.writes.get(&(addr & !63)).copied().unwrap_or(0)
    }

    /// Summarizes the profile (`None` when nothing was written).
    pub fn summary(&self) -> Option<WearSummary> {
        if self.writes.is_empty() {
            return None;
        }
        let total: u64 = self.writes.values().sum();
        let (hottest_line, max_writes) = self
            .writes
            .iter()
            .max_by_key(|(a, c)| (**c, Reverse(**a)))
            .map(|(a, c)| (*a, *c))
            .expect("nonempty");
        Some(WearSummary {
            lines_touched: self.writes.len() as u64,
            total_writes: total,
            max_writes,
            hottest_line,
            mean_writes: total as f64 / self.writes.len() as f64,
        })
    }

    /// Total writes landing in `[base, end)` — per-region attribution.
    pub fn in_range(&self, base: u64, end: u64) -> u64 {
        self.writes
            .iter()
            .filter(|(a, _)| **a >= base && **a < end)
            .map(|(_, c)| *c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_summary() {
        assert!(WearTracker::new().summary().is_none());
    }

    #[test]
    fn counts_and_summary() {
        let mut w = WearTracker::new();
        for _ in 0..5 {
            w.record(0);
        }
        w.record(64);
        w.record(67); // same line as 64
        let s = w.summary().unwrap();
        assert_eq!(s.lines_touched, 2);
        assert_eq!(s.total_writes, 7);
        assert_eq!(s.max_writes, 5);
        assert_eq!(s.hottest_line, 0);
        assert!((s.mean_writes - 3.5).abs() < 1e-12);
        assert_eq!(w.of(64), 2);
        assert_eq!(w.of(128), 0);
    }

    #[test]
    fn hottest_line_tie_goes_to_the_lowest_address() {
        // Many equally hot lines, recorded high to low: whatever order the
        // map iterates them in, the lowest address wins.
        let mut w = WearTracker::new();
        for line in (1..200u64).rev() {
            w.record(line * 64);
            w.record(line * 64);
        }
        w.record(64 * 500);
        let s = w.summary().unwrap();
        assert_eq!(s.max_writes, 2);
        assert_eq!(s.hottest_line, 64);
    }

    #[test]
    fn range_attribution() {
        let mut w = WearTracker::new();
        w.record(0);
        w.record(64);
        w.record(1024);
        assert_eq!(w.in_range(0, 128), 2);
        assert_eq!(w.in_range(128, 2048), 1);
        assert_eq!(w.in_range(2048, 4096), 0);
    }
}
