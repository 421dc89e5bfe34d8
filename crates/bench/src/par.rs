//! Order-preserving parallel map for the bench binaries: a thin layer over
//! the shared-counter job pool [`steins_core::par::run_regions`] that
//! parallel recovery runs on, so the workspace keeps one parallel map.

use std::sync::Mutex;

/// Number of worker threads: env `STEINS_THREADS`, default = available
/// parallelism.
pub fn threads() -> usize {
    std::env::var("STEINS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Applies `f` to every job on a pool of [`threads()`] workers, preserving
/// input order in the result.
pub fn map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_with(threads(), jobs, f)
}

/// [`map`] with an explicit worker count, bypassing `STEINS_THREADS`.
/// Lets tests compare 1-worker vs N-worker runs of the same sweep without
/// racing on process-global environment variables.
pub fn map_with<T, R, F>(workers: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    steins_core::par::run_regions(workers, jobs.len(), |i| {
        let job = jobs[i].lock().expect("job slot poisoned by a panic").take();
        f(job.expect("each job runs exactly once"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = map((0..100u64).collect(), |x| x * 2);
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_ok() {
        let out: Vec<u64> = map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_job() {
        assert_eq!(map(vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn map_with_matches_sequential() {
        let jobs: Vec<u64> = (0..37).collect();
        let seq = map_with(1, jobs.clone(), |x| x * x);
        let par = map_with(4, jobs, |x| x * x);
        assert_eq!(seq, par);
    }
}
