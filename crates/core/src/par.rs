//! Parallel execution and deterministic worker folding for recovery.
//!
//! Recovery parallelism has two halves with different determinism
//! requirements:
//!
//! * **Execution** — independent jobs (one crashed shard each in
//!   [`crate::ShardedEngine::recover_all`], one chaos shard, one bench job)
//!   really do run on OS threads. [`run_regions`] takes the
//!   jobs by value and hands them out off one shared queue: an idle worker
//!   claims the next unclaimed job, moving it out of the queue. Within one
//!   image, recovery is serial in canonical order and journals one
//!   high-water mark (see `crate::recovery`).
//! * **Reporting** — every exported number must be byte-identical no matter
//!   how many threads the host actually ran. [`fold_lanes`] therefore
//!   *models* the parallel schedule: per-job costs are assigned to `lanes`
//!   modeled workers longest-processing-time-first (the balance a pool of
//!   idle workers claiming jobs converges to), and the makespan is the max
//!   lane. Real thread count affects wall clock only.

use std::sync::Mutex;

/// Deterministic longest-processing-time-first fold of per-region costs
/// onto `lanes` modeled workers: regions sorted by descending cost (index
/// tiebreak) each go to the currently least-loaded lane (lowest index
/// tiebreak). Returns the per-lane load sums. This is the schedule a pool
/// of idle workers claiming jobs converges to, computed without running
/// one — the folded numbers are byte-identical regardless of host
/// parallelism.
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

/// Runs `f` over `jobs` on `workers` OS threads (at most one per job),
/// returning the results in job order. Workers claim jobs one at a time off
/// one shared queue, so every job runs exactly once; callers that need a
/// job's position pass `(index, job)` pairs. `f(job)` must be independent
/// across jobs — its result is deterministic in `job` regardless of which
/// thread ran it. One worker runs the jobs inline, in order, with no
/// threads. A panic in `f` propagates, with its payload, once every worker
/// has stopped.
pub fn run_regions<T, R, F>(workers: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = jobs.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return jobs.into_iter().map(f).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // A `let` statement drops the queue guard before the
                        // job runs (a `while let` would hold it through the
                        // body), so jobs run in parallel and a panicking job
                        // cannot poison the queue.
                        let Some((i, job)) = queue
                            .lock()
                            .expect("no job runs under the queue lock")
                            .next()
                        else {
                            return done;
                        };
                        done.push((i, f(job)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in done {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("the queue hands out every job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn run_regions_returns_results_in_job_order() {
        for workers in [1usize, 2, 4, 8] {
            let out = run_regions(workers, (0..37).collect(), |j| j * j);
            assert_eq!(out, (0..37).map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_regions_contended_threads_cover_all_jobs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits = AtomicU64::new(0);
        let out = run_regions(4, (0..200).collect(), |j| {
            hits.fetch_add(1, Ordering::Relaxed);
            // Skewed job costs: the heavy front jobs keep some workers busy
            // while the others drain the cheap tail.
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
    fn run_regions_runs_claimed_jobs_at_once() {
        // Each of two jobs waits for the other to start: a pool that ran
        // one job at a time, say by holding the queue lock through a job,
        // would time out instead.
        use std::sync::mpsc::channel;
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        let met = run_regions(2, vec![(tx0, rx1), (tx1, rx0)], |(tx, rx)| {
            tx.send(()).expect("the other job holds the receiver");
            rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok()
        });
        assert_eq!(met, vec![true, true]);
    }

    #[test]
    fn run_regions_propagates_region_panics() {
        let r = std::panic::catch_unwind(|| {
            run_regions(4, (0..16).collect(), |j| {
                if j == 11 {
                    panic!("region 11 tripped");
                }
                j
            })
        });
        let payload = r.expect_err("a tripped region must unwind the pool");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"region 11 tripped"),
            "the region's own panic payload comes back"
        );
    }
}
