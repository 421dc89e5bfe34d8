//! Zipfian sampler over `{0, …, n−1}`.
//!
//! Rank `i` (0 = hottest) weighs `1/(i+1)^s`. Workloads like `omnetpp`
//! (event queues) and the persistent B-tree have hot-key distributions that
//! Zipf captures.
//!
//! Construction computes every weight once, in one O(n) pass, into two
//! tables of running sums. The ranks are cut into buckets of
//! `stride = ⌈√n⌉` items:
//!
//! * `bucket_cum[b]` is the total weight before bucket `b` (about √n
//!   entries);
//! * `item_cum[i]` is the running sum through rank `i`, started from its
//!   bucket's `bucket_cum` entry. It costs 8 B per item: 256 KB at the
//!   persistent B-tree's 2¹⁵ lines, 512 KB at omnetpp's 2¹⁶.
//!
//! A draw scales a uniform `[0, 1)` variate by the total weight,
//! binary-searches the bucket, then binary-searches the first rank inside
//! it whose running sum reaches the target: O(log n), no `powf`.
//!
//! **Exactness.** The tables reproduce, rank for rank, the sampler they
//! replaced, which walked the chosen bucket recomputing each weight with
//! `powf`. Each `item_cum` entry is that walk's accumulator at its rank:
//! the same weights, added in the same order from the same start. The
//! search must stay two-level. `bucket_cum[b + 1]` adds the bucket's
//! weights summed from zero, so it rounds differently from the bucket's
//! last running sum. A target between the two makes the walk fall back to
//! the bucket's last rank, where one flat search over `item_cum` would
//! return the next bucket's first rank. A test keeps the walk as a
//! reference and checks the draws against it.

use crate::rng::SmallRng;

/// Zipfian distribution with exponent `s` over `n` items.
pub struct Zipf {
    n: u64,
    /// Cumulative weights at bucket boundaries; bucket b spans
    /// `[b·stride, min((b+1)·stride, n))`.
    bucket_cum: Vec<f64>,
    /// Running sum through each rank, restarted at `bucket_cum[b]` at the
    /// start of every bucket b.
    item_cum: Vec<f64>,
    stride: u64,
    total: f64,
}

impl Zipf {
    /// Builds a Zipf(s) sampler over `n ≥ 1` items.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one item");
        let stride = ((n as f64).sqrt().ceil() as u64).max(1);
        let buckets = n.div_ceil(stride);
        let mut bucket_cum = Vec::with_capacity(buckets as usize + 1);
        let mut item_cum = Vec::with_capacity(n as usize);
        bucket_cum.push(0.0);
        let mut total = 0.0;
        for b in 0..buckets {
            let lo = b * stride;
            let hi = ((b + 1) * stride).min(n);
            let mut w = 0.0;
            let mut acc = total;
            for i in lo..hi {
                let wi = 1.0 / ((i + 1) as f64).powf(s);
                w += wi;
                acc += wi;
                item_cum.push(acc);
            }
            total += w;
            bucket_cum.push(total);
        }
        Zipf {
            n,
            bucket_cum,
            item_cum,
            stride,
            total,
        }
    }

    /// Samples a rank in `{0, …, n−1}` (0 = hottest).
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        self.rank(rng.gen_f64() * self.total)
    }

    /// The rank a draw of `target ∈ [0, total]` lands on: the first rank of
    /// the target's bucket whose running sum reaches it, else the bucket's
    /// last rank.
    fn rank(&self, target: f64) -> u64 {
        let last = self.bucket_cum.len() - 1;
        let bucket = self.bucket_cum[1..last].partition_point(|&c| c <= target) as u64;
        let start = bucket * self.stride;
        let end = ((bucket + 1) * self.stride).min(self.n);
        let run = &self.item_cum[start as usize..end as usize];
        (start + run.partition_point(|&c| c < target) as u64).min(end - 1)
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket walk `rank` replaced: binary-search the bucket, then
    /// recompute each weight with `powf` and accumulate until the running
    /// sum reaches `target`.
    fn walk(z: &Zipf, s: f64, target: f64) -> u64 {
        let mut lo = 0usize;
        let mut hi = z.bucket_cum.len() - 1;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if z.bucket_cum[mid] <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let bucket = lo as u64;
        let mut acc = z.bucket_cum[lo];
        let start = bucket * z.stride;
        let end = ((bucket + 1) * z.stride).min(z.n);
        for i in start..end {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            if acc >= target {
                return i;
            }
        }
        end - 1
    }

    const EXPONENTS: [f64; 7] = [0.0, 0.5, 0.8, 0.9, 0.99, 1.0, 3.0];

    #[test]
    fn table_matches_bucket_walk_draw_for_draw() {
        for n in [1, 2, 3, 7, 100, 4096, 4097, 32768, 65536, 131072] {
            for s in EXPONENTS {
                let z = Zipf::new(n, s);
                for seed in 0..12 {
                    let mut table = SmallRng::seed_from_u64(seed);
                    let mut reference = SmallRng::seed_from_u64(seed);
                    for draw in 0..2_000 {
                        let want = walk(&z, s, reference.gen_f64() * z.total);
                        assert_eq!(
                            z.sample(&mut table),
                            want,
                            "n={n} s={s} seed={seed} draw={draw}"
                        );
                    }
                }
            }
        }
    }

    /// Targets at every table entry and one ulp either side, where a search
    /// that rounds differently from the walk would show.
    #[test]
    fn table_matches_bucket_walk_at_every_boundary() {
        let ulp_down = |c: f64| {
            if c > 0.0 {
                f64::from_bits(c.to_bits() - 1)
            } else {
                c
            }
        };
        let ulp_up = |c: f64| f64::from_bits(c.to_bits() + 1);
        let mut fallbacks = 0;
        for n in [1, 2, 3, 7, 100, 4096, 4097] {
            for s in EXPONENTS {
                let z = Zipf::new(n, s);
                for &c in z.item_cum.iter().chain(&z.bucket_cum) {
                    for t in [ulp_down(c), c, ulp_up(c)] {
                        let t = t.min(z.total);
                        let got = z.rank(t);
                        assert_eq!(got, walk(&z, s, t), "n={n} s={s} target={t:e}");
                        fallbacks += usize::from(z.item_cum[got as usize] < t);
                    }
                }
            }
        }
        // The walk's `end − 1` fallback is the case a flat search gets
        // wrong; make sure these targets reach it.
        assert!(fallbacks > 0, "no target took the end − 1 fallback");
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipf::new(10_000, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0u64; 10_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[100]);
        assert!(counts[0] > counts[9999]);
        // Zipf(1.0): rank 0 should take roughly 1/H(n) ≈ 10% of mass.
        assert!(counts[0] > 5_000, "rank 0 got {}", counts[0]);
    }

    #[test]
    fn single_item_degenerate() {
        let z = Zipf::new(1, 0.8);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn s_zero_is_near_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(
            (max as f64) < 1.5 * (min as f64).max(1.0),
            "uniform-ish: min={min} max={max}"
        );
    }
}
