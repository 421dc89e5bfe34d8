//! Zipfian sampler over `{0, …, n−1}`.
//!
//! Rank `i` (0 = hottest) weighs `1/(i+1)^s`. Workloads like `omnetpp`
//! (event queues) and the persistent B-tree have hot-key distributions that
//! Zipf captures.
//!
//! A draw inverts the distribution function. It takes the top 53 bits `m`
//! of one RNG word, scales them to a target `t = m·2⁻⁵³·total`, and returns
//! the first rank whose threshold reaches `t`. Two tables make that O(1)
//! expected, with no `powf` and no search.
//!
//! **The threshold table.** Construction computes every weight once, in one
//! O(n) pass, cutting the ranks into buckets of `stride = ⌈√n⌉` items. Each
//! rank's running sum starts from its bucket's start sum, and each start
//! sum adds the previous bucket's weights summed from zero. Rank `r` of
//! bucket `β` gets `thr[r] = min(a, b)`:
//!
//! * `a` is `r`'s running sum, or +∞ at the bucket's last rank;
//! * `b` is the largest `f64` below bucket `β + 1`'s start sum, or +∞ in
//!   the last bucket.
//!
//! The table costs 8 B an item: 256 KB at the persistent B-tree's 2¹⁵
//! lines, 512 KB at omnetpp's 2¹⁶. Its last entry is +∞.
//!
//! **Exactness.** A draw returns, rank for rank, what the sampler before
//! these tables returned: it binary-searched the bucket start sums for the
//! last one at or below `t`, then walked that bucket adding each weight to
//! the start sum, stopped at the first rank whose sum reached `t`, and fell
//! back to the bucket's last rank. That walk lands past rank `r` exactly
//! when
//!
//! 1. `t` lies in a later bucket: `t ≥ start[β + 1]`, or
//! 2. the walk steps past `r` inside bucket `β`: `r` is not the bucket's
//!    last rank and `t > sum[r]`.
//!
//! Case 2 needs no bucket condition. The running sum starts at
//! `start[β]` and adds positive weights, so `sum[r] ≥ start[β]`, and
//! `t > sum[r]` already puts `t` in bucket `β` or a later one. No `f64`
//! lies strictly between `b` and `start[β + 1]`, so case 1 reads `t > b`,
//! and case 2 reads `t > a`. Hence the walk lands past `r` if and only if
//! `t > min(a, b) = thr[r]`, for every target and rank. The rank is the
//! first `r` with `t ≤ thr[r]`, and `thr` never decreases (landing past
//! `r + 1` implies landing past `r`). Folding `b` in is what lets one table
//! stand for two levels: a start sum and its bucket's last running sum add
//! the same weights in different orders and can round apart, and a target
//! between them falls back to the bucket's last rank.
//!
//! **The guide table.** Chen and Asau's cutpoint method ("On generating
//! random variates from an empirical distribution", 1974) finds that rank
//! without a search. The top `k` bits of `m` pick one of `2^k ≥ n` cells;
//! `guide[g]` is the rank of cell `g`'s smallest draw, and one extra entry
//! holds the rank of the largest draw. The target never falls as `m`
//! grows (scaling by 2⁻⁵³ is exact, and rounding a product by the positive
//! total is monotone), so every draw of cell `g` lands in
//! `guide[g]..=guide[g + 1]`. A draw starts at its cell's entry and steps
//! while `t > thr[r]`. Averaged over the cells, it steps past at most
//! `(n − 1)/2^k < 1` ranks. One merged sweep over cells and ranks fills
//! the guide in O(n + 2^k). It costs 4 B a cell, at most 2 cells an item.
//!
//! Tests keep the old bucket walk as the reference and check draws,
//! thresholds and guide entries against it.

use crate::rng::SmallRng;

/// Zipfian distribution with exponent `s` over `n` items.
pub struct Zipf {
    /// A target lands past rank `r` exactly when it exceeds `thr[r]`; the
    /// last entry is +∞.
    thr: Vec<f64>,
    /// The rank of each cell's smallest draw, then of the largest draw.
    guide: Vec<u32>,
    /// A 53-bit draw's cell is the draw shifted right by this.
    shift: u32,
    total: f64,
}

impl Zipf {
    /// Builds a Zipf(s) sampler over `n ≥ 1` items.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one item");
        assert!(n <= u64::from(u32::MAX), "Zipf ranks must fit in a u32");
        let stride = ((n as f64).sqrt().ceil() as u64).max(1);
        let buckets = n.div_ceil(stride);
        let mut thr = Vec::with_capacity(n as usize);
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
                thr.push(acc);
            }
            total += w;
            // The module doc's `b`: below the next bucket's start sum.
            let cap = if hi < n { below(total) } else { f64::INFINITY };
            let bucket = &mut thr[lo as usize..];
            bucket[bucket.len() - 1] = f64::INFINITY;
            for t in bucket {
                *t = t.min(cap);
            }
        }

        let k = u64::BITS - (n - 1).leading_zeros();
        let shift = 53 - k;
        let cells = 1u64 << k;
        let mut guide = Vec::with_capacity(cells as usize + 1);
        let mut r = 0;
        for g in 0..=cells {
            let m = (g << shift).min((1 << 53) - 1);
            let t = target(m, total);
            while t > thr[r] {
                r += 1;
            }
            guide.push(r as u32);
        }
        Zipf {
            thr,
            guide,
            shift,
            total,
        }
    }

    /// Samples a rank in `{0, …, n−1}` (0 = hottest).
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let m = rng.next_u64() >> 11;
        let t = target(m, self.total);
        let mut r = self.guide[(m >> self.shift) as usize] as usize;
        while t > self.thr[r] {
            r += 1;
        }
        r as u64
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.thr.len() as u64
    }
}

/// The target of a 53-bit draw `m`: `SmallRng::gen_f64`'s value for the
/// same word, times `total`.
fn target(m: u64, total: f64) -> f64 {
    m as f64 * (1.0 / (1u64 << 53) as f64) * total
}

/// The largest `f64` below a positive `x`.
fn below(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The buckets the old sampler searched: bucket `b` spans ranks
    /// `b·stride .. min((b+1)·stride, n)`, and `start[b]` is the weight
    /// before it, each bucket's weights summed from zero.
    struct Buckets {
        n: u64,
        stride: u64,
        start: Vec<f64>,
        /// Each rank's running sum, started from its bucket's start sum:
        /// the walk's accumulator at that rank.
        sum: Vec<f64>,
        /// Each rank's weight, `powf`'d once so the walk need not redo it.
        weight: Vec<f64>,
    }

    impl Buckets {
        fn new(n: u64, s: f64) -> Self {
            let stride = ((n as f64).sqrt().ceil() as u64).max(1);
            let weight: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
            let mut start = vec![0.0];
            let mut sum = Vec::new();
            for bucket in weight.chunks(stride as usize) {
                let from = *start.last().unwrap();
                let mut acc = from;
                for &w in bucket {
                    acc += w;
                    sum.push(acc);
                }
                start.push(from + bucket.iter().fold(0.0, |w, &wi| w + wi));
            }
            Buckets {
                n,
                stride,
                start,
                sum,
                weight,
            }
        }

        fn total(&self) -> f64 {
            *self.start.last().unwrap()
        }
    }

    /// The sampler the tables replaced: binary-search the bucket, then add
    /// each weight to its start sum until the sum reaches `target`, else
    /// take the bucket's last rank.
    fn walk(z: &Buckets, target: f64) -> u64 {
        let mut lo = 0usize;
        let mut hi = z.start.len() - 1;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if z.start[mid] <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let bucket = lo as u64;
        let mut acc = z.start[lo];
        let start = bucket * z.stride;
        let end = ((bucket + 1) * z.stride).min(z.n);
        for i in start..end {
            acc += z.weight[i as usize];
            if acc >= target {
                return i;
            }
        }
        end - 1
    }

    const EXPONENTS: [f64; 7] = [0.0, 0.5, 0.8, 0.9, 0.99, 1.0, 3.0];

    /// `sample` against the walk, draw for draw, for `draws` draws from
    /// each of `seeds` seeds.
    fn check_draws(n: u64, s: f64, seeds: u64, draws: u64) {
        let z = Zipf::new(n, s);
        let b = Buckets::new(n, s);
        assert_eq!(z.total.to_bits(), b.total().to_bits(), "n={n} s={s}");
        for seed in 0..seeds {
            let mut table = SmallRng::seed_from_u64(seed);
            let mut reference = SmallRng::seed_from_u64(seed);
            for draw in 0..draws {
                let want = walk(&b, reference.gen_f64() * b.total());
                assert_eq!(
                    z.sample(&mut table),
                    want,
                    "n={n} s={s} seed={seed} draw={draw}"
                );
            }
        }
    }

    #[test]
    fn table_matches_bucket_walk_draw_for_draw() {
        for n in [1, 2, 3, 7, 100, 4096, 4097, 32768, 65536, 131072] {
            for s in EXPONENTS {
                check_draws(n, s, 12, 2_000);
            }
        }
    }

    /// The figure traces' table sizes (2¹⁵, 2¹⁶), twice omnetpp's and a
    /// prime that is no power of two, a million draws a seed. Run by the
    /// weekly long sweep.
    #[test]
    #[ignore = "deep differential, ~112 M draws; run with --release"]
    fn table_matches_bucket_walk_deep() {
        for n in [1 << 15, 1 << 16, 1 << 17, 100_003] {
            for s in EXPONENTS {
                check_draws(n, s, 4, 1_000_000);
            }
        }
    }

    /// At every old table entry and one ulp either side, where a search
    /// that rounds differently from the walk would show, the walk's rank
    /// `R` is the first whose threshold reaches the target:
    /// `thr[R − 1] < t ≤ thr[R]`.
    #[test]
    fn table_matches_bucket_walk_at_every_boundary() {
        let ulp_down = |c: f64| if c > 0.0 { below(c) } else { c };
        let ulp_up = |c: f64| f64::from_bits(c.to_bits() + 1);
        let mut fallbacks = 0;
        for n in [1, 2, 3, 7, 100, 4096, 4097] {
            for s in EXPONENTS {
                let z = Zipf::new(n, s);
                let b = Buckets::new(n, s);
                assert!(z.thr.windows(2).all(|w| w[0] <= w[1]), "n={n} s={s}");
                assert_eq!(z.thr[n as usize - 1], f64::INFINITY);
                for &c in b.sum.iter().chain(&b.start) {
                    for t in [ulp_down(c), c, ulp_up(c)] {
                        let t = t.min(b.total());
                        let r = walk(&b, t) as usize;
                        assert!(t <= z.thr[r], "n={n} s={s} target={t:e} rank={r}");
                        if r > 0 {
                            assert!(z.thr[r - 1] < t, "n={n} s={s} target={t:e} rank={r}");
                        }
                        fallbacks += usize::from(b.sum[r] < t);
                    }
                }
            }
        }
        // The walk's `end − 1` fallback is the case a flat search over the
        // running sums gets wrong; make sure these targets reach it.
        assert!(fallbacks > 0, "no target took the end − 1 fallback");
    }

    /// Each cell's guide entry is the walk's rank of the cell's smallest
    /// draw, and the last entry is the rank of the largest draw.
    #[test]
    fn guide_holds_the_walk_rank_of_each_cells_smallest_draw() {
        for n in [1, 2, 3, 7, 100, 4096, 4097] {
            for s in EXPONENTS {
                let z = Zipf::new(n, s);
                let b = Buckets::new(n, s);
                let cells = n.next_power_of_two();
                assert_eq!(z.guide.len() as u64, cells + 1, "n={n}");
                assert_eq!(cells << z.shift, 1 << 53, "n={n}");
                for (g, &rank) in z.guide.iter().enumerate() {
                    let m = ((g as u64) << z.shift).min((1 << 53) - 1);
                    let t = m as f64 / (1u64 << 53) as f64 * b.total();
                    assert_eq!(u64::from(rank), walk(&b, t), "n={n} s={s} cell={g}");
                }
            }
        }
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
