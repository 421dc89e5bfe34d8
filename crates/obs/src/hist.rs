//! Log-bucketed histogram (HDR-style) for integer samples.
//!
//! Values are binned into 2^SUB_BITS sub-buckets per power-of-two octave:
//! values below `2^SUB_BITS` land in exact unit buckets, larger values in
//! buckets whose width doubles each octave, bounding the relative
//! quantization error by `2^-SUB_BITS` (≈1.6% at the default 6 bits).
//! Counts are kept only up to the octave of the largest sample and grow one
//! octave (64 buckets, 512 B) at a time, so an empty histogram allocates
//! nothing and samples below 2^20 need at most 15 octaves (7.5 KB), not the
//! 59 (≈30 KB) that span all of `u64`. Because the length follows the
//! largest sample, two histograms holding the same samples are equal however
//! they were built. Two histograms merge by element-wise addition (the
//! shorter side grows first) — the property that lets per-workload latency
//! series fold into one per-scheme distribution without losing the tail.

/// Sub-bucket precision bits: 64 sub-buckets per octave.
const SUB_BITS: u32 = 6;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total buckets covering the full u64 range (the longest `counts` gets).
#[cfg(test)]
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Mergeable log-bucketed histogram over `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts up to the end of `max`'s octave; empty while `count`
    /// is 0.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of `v`.
fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let shift = top - SUB_BITS;
        let group = (top - SUB_BITS + 1) as usize;
        group * SUB + ((v >> shift) as usize & (SUB - 1))
    }
}

/// Highest value mapping to bucket `idx` (the bucket's representative).
fn bucket_high(idx: usize) -> u64 {
    let group = idx / SUB;
    let sub = (idx % SUB) as u64;
    if group == 0 {
        sub
    } else {
        let shift = (group - 1) as u32;
        let low = (SUB as u64 + sub) << shift;
        low + ((1u64 << shift) - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = index_of(v);
        if idx >= self.counts.len() {
            self.grow_to(idx);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Extends `counts` to the end of `idx`'s octave.
    #[cold]
    fn grow_to(&mut self, idx: usize) {
        let len = (idx / SUB + 1) * SUB;
        self.counts.reserve_exact(len - self.counts.len());
        self.counts.resize(len, 0);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`: the sample of rank `ceil(q·count)`
    /// (1-clamped), reported as the highest value of its bucket, clamped to
    /// the exact observed `[min, max]`. Exact for samples below `2^7`;
    /// within `2^-6` relative error beyond. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Folds `other` into `self` (element-wise; associative and
    /// commutative, so per-workload histograms merge into per-scheme ones
    /// in any order).
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.grow_to(other.counts.len() - 1);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_exact_below_two_octaves() {
        // Unit buckets below SUB; width-1 buckets up to 2·SUB: indices are
        // distinct and representative == value for every v < 2^(SUB_BITS+1).
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..(2 * SUB as u64) {
            let idx = index_of(v);
            assert!(seen.insert(idx), "distinct bucket for {v}");
            assert_eq!(bucket_high(idx), v, "exact representative for {v}");
        }
    }

    #[test]
    fn bucket_boundaries_log_spacing_above() {
        // 128..255 is the first width-2 octave at SUB_BITS = 6.
        assert_eq!(index_of(128), index_of(129));
        assert_ne!(index_of(128), index_of(130));
        assert_eq!(bucket_high(index_of(128)), 129);
        // Relative error bound: bucket_high(v) / v < 1 + 2^-SUB_BITS + ε.
        for v in [130u64, 1_000, 12_345, 1 << 33, u64::MAX / 3] {
            let hi = bucket_high(index_of(v));
            assert!(hi >= v, "representative below sample at {v}");
            assert!(
                (hi - v) as f64 / v as f64 <= 1.0 / SUB as f64,
                "error too large at {v}: high {hi}"
            );
        }
        // The top of the range still maps in bounds.
        assert!(index_of(u64::MAX) < BUCKETS);
        assert_eq!(bucket_high(index_of(u64::MAX)), u64::MAX);
    }

    #[test]
    fn percentiles_exact_on_known_distribution() {
        // 1..=100: every value exact (below 128), classic textbook ranks.
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p90(), 90);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.p999(), 100);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
        assert!((h.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_on_skewed_distribution() {
        // 999 samples at 10, one at 100: the tail only shows at p999+.
        let mut h = Histogram::new();
        h.record_n(10, 999);
        h.record(100);
        assert_eq!(h.p50(), 10);
        assert_eq!(h.p99(), 10);
        assert_eq!(h.p999(), 10);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_is_associative_and_matches_pooled() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        let mut pooled = Histogram::new();
        for (i, h) in [(0u64, &mut a), (1, &mut b), (2, &mut c)] {
            for k in 0..200u64 {
                let v = (i * 977 + k * 31) % 5000 + 1;
                h.record(v);
                pooled.record(v);
            }
        }
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == pooled recording.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge associativity");
        assert_eq!(left, pooled, "merge equals pooled recording");
        assert_eq!(left.count(), 600);
    }

    #[test]
    fn counts_end_at_the_octave_of_the_largest_sample() {
        let mut h = Histogram::new();
        assert_eq!(
            h.counts.capacity(),
            0,
            "an empty histogram must not allocate"
        );
        h.record(5);
        assert_eq!(h.counts.len(), SUB);
        h.record(1 << 20);
        assert_eq!(h.counts.len(), (index_of(1 << 20) / SUB + 1) * SUB);
        h.record(7);
        assert_eq!(h.counts.len(), (index_of(1 << 20) / SUB + 1) * SUB);
        h.record(u64::MAX);
        assert_eq!(h.counts.len(), BUCKETS);
    }

    #[test]
    fn merge_grows_the_shorter_side() {
        let mut small = Histogram::new();
        small.record_n(3, 4);
        let mut big = Histogram::new();
        big.record(1 << 30);
        let mut pooled = Histogram::new();
        pooled.record(1 << 30);
        pooled.record_n(3, 4);
        let mut up = small.clone();
        up.merge(&big);
        let mut down = big.clone();
        down.merge(&small);
        assert_eq!(up, pooled, "short ⊕ long equals pooled recording");
        assert_eq!(down, pooled, "long ⊕ short equals pooled recording");
        assert_eq!(up.p50(), 3);
        assert_eq!(up.quantile(1.0), 1 << 30);

        // An empty side changes nothing, in either direction.
        let mut empty = Histogram::new();
        empty.merge(&Histogram::new());
        assert_eq!(empty, Histogram::new());
        assert_eq!(empty.counts.capacity(), 0);
        empty.merge(&pooled);
        assert_eq!(empty, pooled);
        let mut same = pooled.clone();
        same.merge(&Histogram::new());
        assert_eq!(same, pooled);
    }

    #[test]
    fn bucket_index_is_monotone_and_total() {
        // Property sweep over the spots where a group/shift off-by-one
        // would bite: 0, u64::MAX, every power-of-two boundary (2^k − 1,
        // 2^k, 2^k + 1), the first/last sub-bucket of each octave, and a
        // seeded random fill. For every ordered pair the index must be
        // non-decreasing (monotone), every index in bounds (total), and
        // every value must sit inside its own bucket's value range:
        // bucket_high(idx − 1) < v ≤ bucket_high(idx).
        let mut probes: Vec<u64> = vec![0, 1, u64::MAX, u64::MAX - 1];
        for k in 0..64u32 {
            let p = 1u64 << k;
            probes.push(p.wrapping_sub(1));
            probes.push(p);
            probes.push(p.saturating_add(1));
        }
        // First and last sub-bucket of each octave above the linear range.
        for group in 1..=(64 - SUB_BITS) {
            let shift = group - 1;
            let first = (SUB as u64) << shift; // octave base
            probes.push(first);
            probes.push(first + ((1u64 << shift) - 1)); // top of first sub-bucket
            let last_low = ((2 * SUB as u64) - 1) << shift; // base of last sub-bucket
            probes.push(last_low);
            probes.push(last_low.saturating_add((1u64 << shift) - 1));
        }
        let mut x = 0x5EED_0B5Eu64;
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Cover all magnitudes: shrink by a pseudo-random shift.
            probes.push(x >> (x % 64));
        }
        probes.sort_unstable();
        probes.dedup();

        let mut prev_idx = 0usize;
        for (i, &v) in probes.iter().enumerate() {
            let idx = index_of(v);
            assert!(idx < BUCKETS, "index out of bounds for {v}");
            if i > 0 {
                assert!(idx >= prev_idx, "index_of not monotone at {v}");
            }
            assert!(bucket_high(idx) >= v, "value above its bucket at {v}");
            if idx > 0 {
                assert!(
                    bucket_high(idx - 1) < v,
                    "value fits an earlier bucket at {v}"
                );
            }
            prev_idx = idx;
        }
    }

    #[test]
    fn quantiles_monotone_in_q() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x >> 40);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= prev, "quantile must be monotone");
            prev = v;
        }
        assert!(h.quantile(1.0) == h.max());
    }
}
