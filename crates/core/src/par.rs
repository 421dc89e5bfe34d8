//! Work-stealing execution and deterministic lane folding for parallel
//! recovery.
//!
//! Recovery parallelism in this codebase has two halves with different
//! determinism requirements:
//!
//! * **Execution** — independent regions (one crashed shard each, or one
//!   scrub leaf range) really do run on OS threads. [`StealQueue`] is a
//!   chunked work queue in the chase-lev mold: every worker owns a
//!   contiguous interval of the job index space packed into one
//!   `AtomicU64`, pops its own front with a single CAS, and when drained
//!   steals the *back half* of a victim's remaining interval with another
//!   single CAS. No locks, no ABA (intervals only ever shrink or move
//!   wholesale, and a drained interval is never re-grown by anyone but its
//!   owner installing a fresh steal).
//! * **Reporting** — every exported number must be byte-identical no matter
//!   how many threads the host actually ran. [`fold_lanes`] therefore
//!   *models* the parallel schedule: per-region costs are assigned to
//!   `lanes` modeled workers longest-processing-time-first (the balance an
//!   idle-stealing scheduler converges to), and the makespan is the max
//!   lane. Real thread count affects wall clock only.
//!
//! The env knob `STEINS_RECOVERY_WORKERS` selects the worker count
//! ([`recovery_workers`]); it is capped at
//! [`steins_nvm::RECOVERY_LANES`] because each in-flight region journals
//! its progress in its own per-lane mark slot of the ADR
//! [`steins_nvm::RecoveryJournal`] (see `crate::recovery`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hard cap on recovery workers — one journal mark slot per lane.
pub const MAX_WORKERS: usize = steins_nvm::RECOVERY_LANES;

/// Worker count for parallel recovery: `STEINS_RECOVERY_WORKERS`, default
/// 1, clamped to `1..=`[`MAX_WORKERS`].
pub fn recovery_workers() -> usize {
    std::env::var("STEINS_RECOVERY_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .clamp(1, MAX_WORKERS)
}

/// Splits `n` items into at most `lanes` contiguous spans of
/// `ceil(n / lanes)` items (the last span may be short; trailing spans may
/// be empty and are omitted). Span `l` covers canonical indices
/// `[l * chunk, min((l + 1) * chunk, n))`.
pub fn lane_spans(n: usize, lanes: usize) -> Vec<(usize, usize)> {
    let lanes = lanes.clamp(1, MAX_WORKERS);
    if n == 0 {
        return vec![(0, 0)];
    }
    let chunk = n.div_ceil(lanes);
    (0..lanes)
        .map(|l| ((l * chunk).min(n), ((l + 1) * chunk).min(n)))
        .filter(|(s, e)| e > s)
        .collect()
}

/// The lane whose span ([`lane_spans`]) contains canonical index `i`.
pub fn lane_of(n: usize, lanes: usize, i: usize) -> usize {
    let lanes = lanes.clamp(1, MAX_WORKERS);
    if n == 0 {
        return 0;
    }
    i / n.div_ceil(lanes)
}

/// Deterministic longest-processing-time-first fold of per-region costs
/// onto `lanes` modeled workers: regions sorted by descending cost (index
/// tiebreak) each go to the currently least-loaded lane (lowest index
/// tiebreak). Returns the per-lane load sums. This is the schedule an
/// idle-stealing worker pool converges to, computed without running one —
/// the folded numbers are byte-identical regardless of host parallelism.
pub fn fold_lanes(costs: &[u64], lanes: usize) -> Vec<u64> {
    let lanes = lanes.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut load = vec![0u64; lanes];
    for i in order {
        let best = (0..lanes)
            .min_by_key(|&l| (load[l], l))
            .expect("lanes >= 1");
        load[best] += costs[i];
    }
    load
}

/// Modeled makespan of [`fold_lanes`]: the max lane load (0 for no regions).
pub fn makespan(costs: &[u64], lanes: usize) -> u64 {
    fold_lanes(costs, lanes).into_iter().max().unwrap_or(0)
}

/// Packs a half-open job interval `[next, end)` into one atomic word.
fn pack(next: u32, end: u32) -> u64 {
    (u64::from(next) << 32) | u64::from(end)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Chunked work-stealing queue over the job index space `0..jobs`.
///
/// Construction deals each worker a contiguous interval (round-robin over
/// [`lane_spans`]-style chunks). `next(w)` pops worker `w`'s own front;
/// once drained, `w` scans the other lanes and steals the back half of the
/// largest-remaining victim interval. Both operations are single-word CAS.
pub struct StealQueue {
    lanes: Vec<AtomicU64>,
    steals: AtomicU64,
}

impl StealQueue {
    /// Deals `jobs` indices across `workers` lanes as contiguous chunks.
    pub fn new(jobs: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        assert!(jobs <= u32::MAX as usize, "job space fits u32 packing");
        let chunk = if jobs == 0 { 0 } else { jobs.div_ceil(workers) };
        let lanes = (0..workers)
            .map(|w| {
                let s = (w * chunk).min(jobs) as u32;
                let e = ((w + 1) * chunk).min(jobs) as u32;
                AtomicU64::new(pack(s, e))
            })
            .collect();
        StealQueue {
            lanes,
            steals: AtomicU64::new(0),
        }
    }

    /// Next job index for worker `w`: own front first, then a steal.
    /// `None` once the whole queue is drained.
    pub fn next(&self, w: usize) -> Option<usize> {
        if let Some(j) = self.pop_own(w) {
            return Some(j);
        }
        self.steal(w)
    }

    fn pop_own(&self, w: usize) -> Option<usize> {
        let lane = &self.lanes[w];
        loop {
            let cur = lane.load(Ordering::Acquire);
            let (next, end) = unpack(cur);
            if next >= end {
                return None;
            }
            if lane
                .compare_exchange_weak(
                    cur,
                    pack(next + 1, end),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return Some(next as usize);
            }
        }
    }

    /// Steals the back half of the victim with the most remaining work.
    /// The first stolen index is returned for immediate execution; the
    /// rest (if any) is installed as the thief's new interval.
    fn steal(&self, thief: usize) -> Option<usize> {
        loop {
            // Pick the currently largest victim; retry from scratch on any
            // CAS race (another thief or the owner moved the interval).
            let mut best: Option<(usize, u64, u32)> = None;
            for (v, lane) in self.lanes.iter().enumerate() {
                if v == thief {
                    continue;
                }
                let cur = lane.load(Ordering::Acquire);
                let (next, end) = unpack(cur);
                let rem = end.saturating_sub(next);
                if rem > best.map_or(0, |(_, _, r)| r) {
                    best = Some((v, cur, rem));
                }
            }
            let (victim, cur, rem) = best?;
            let (next, end) = unpack(cur);
            let take = rem.div_ceil(2);
            let split = end - take;
            if self.lanes[victim]
                .compare_exchange(cur, pack(next, split), Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            self.steals.fetch_add(1, Ordering::Relaxed);
            // The stolen span [split, end) is now privately owned. Keep its
            // first index, park the rest in our own (drained) lane. Nobody
            // else writes a drained lane, so a plain store is safe.
            if take > 1 {
                self.lanes[thief].store(pack(split + 1, end), Ordering::Release);
            }
            return Some(split as usize);
        }
    }

    /// Successful steals so far (wall-side diagnostics only — scheduling-
    /// dependent, never exported into deterministic artifacts).
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

/// Runs `jobs` independent region jobs on `workers` OS threads (at most
/// one per job) driving a [`StealQueue`], returning the per-job results in
/// job order plus the steal count. `f(job, worker)` must be independent
/// across jobs — results are deterministic in `job` regardless of which
/// worker ran it. A panic in `f` propagates once every worker has stopped.
/// Recovery callers clamp `workers` to [`MAX_WORKERS`] themselves (one
/// journal mark slot per lane); the bench's parallel map uses any count.
pub fn run_regions<T, F>(workers: usize, jobs: usize, f: F) -> (Vec<T>, u64)
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = workers.max(1).min(jobs.max(1));
    let queue = StealQueue::new(jobs, workers);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    if workers == 1 {
        // Inline fast path: no threads for the serial case.
        while let Some(j) = queue.next(0) {
            *slots[j].lock().unwrap() = Some(f(j, 0));
        }
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (queue, slots, f) = (&queue, &slots, &f);
                scope.spawn(move || {
                    while let Some(j) = queue.next(w) {
                        *slots[j].lock().unwrap() = Some(f(j, w));
                    }
                });
            }
        });
    }
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a worker's panic propagates out of the scope first")
                .expect("drained queue visited every job")
        })
        .collect();
    (results, queue.steals())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn lane_spans_partition_exactly() {
        for n in [0usize, 1, 7, 8, 9, 64, 1000] {
            for lanes in 1..=MAX_WORKERS {
                let spans = lane_spans(n, lanes);
                let mut covered = 0;
                for (i, (s, e)) in spans.iter().enumerate() {
                    assert!(e >= s);
                    assert_eq!(*s, covered, "spans contiguous (n={n} lanes={lanes})");
                    covered = *e;
                    if n > 0 {
                        for x in *s..*e {
                            assert_eq!(lane_of(n, lanes, x), i);
                        }
                    }
                }
                assert_eq!(covered, n, "spans cover 0..{n}");
            }
        }
    }

    #[test]
    fn fold_lanes_is_deterministic_and_balanced() {
        let costs = [100u64, 1, 1, 1, 97, 3, 50, 49];
        assert_eq!(fold_lanes(&costs, 1), vec![302]);
        let l4 = fold_lanes(&costs, 4);
        assert_eq!(l4, fold_lanes(&costs, 4), "same inputs, same fold");
        assert_eq!(l4.iter().sum::<u64>(), 302);
        assert_eq!(makespan(&costs, 4), *l4.iter().max().unwrap());
        // LPT on this set is near-perfect: 302/4 = 75.5, max lane = 100.
        assert_eq!(makespan(&costs, 4), 100);
        // Monotone: more lanes never increases the makespan.
        assert!(makespan(&costs, 8) <= makespan(&costs, 4));
        assert!(makespan(&costs, 4) <= makespan(&costs, 2));
    }

    #[test]
    fn steal_queue_visits_every_job_exactly_once() {
        for (jobs, workers) in [(0usize, 4usize), (1, 4), (5, 2), (64, 4), (257, 8)] {
            let q = StealQueue::new(jobs, workers);
            let mut seen = HashSet::new();
            // Serial drive through all workers round-robin, exercising the
            // steal path once lanes drain unevenly.
            let mut w = 0;
            while let Some(j) = q.next(w) {
                assert!(seen.insert(j), "job {j} dealt twice");
                w = (w + 1) % workers;
            }
            assert_eq!(seen.len(), jobs);
            for extra in 0..workers {
                assert_eq!(q.next(extra), None, "drained queue stays drained");
            }
        }
    }

    #[test]
    fn run_regions_returns_results_in_job_order() {
        for workers in [1usize, 2, 4, 8] {
            let (out, _) = run_regions(workers, 37, |j, _w| j * j);
            assert_eq!(out, (0..37).map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_regions_contended_threads_cover_all_jobs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits = AtomicU64::new(0);
        let (out, _steals) = run_regions(4, 200, |j, _w| {
            hits.fetch_add(1, Ordering::Relaxed);
            // Skewed job costs force steals from the heavy front lanes.
            let spin = if j < 50 { 2000 } else { 10 };
            let mut acc = j as u64;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (j as u64, acc)
        });
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        for (j, (got, _)) in out.iter().enumerate() {
            assert_eq!(*got, j as u64);
        }
    }

    #[test]
    fn run_regions_propagates_region_panics() {
        let r = std::panic::catch_unwind(|| {
            run_regions(4, 16, |j, _w| {
                if j == 11 {
                    panic!("region 11 tripped");
                }
                j
            })
        });
        assert!(r.is_err(), "a tripped region must unwind the pool");
    }

    #[test]
    fn env_worker_count_clamped() {
        // No env set in tests: default is 1.
        assert!(recovery_workers() >= 1);
        assert!(recovery_workers() <= MAX_WORKERS);
    }
}
