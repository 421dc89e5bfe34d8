//! Order-preserving parallel map for the bench binaries: the shared job
//! pool [`steins_core::par::run_regions`] that parallel recovery runs on,
//! sized by `STEINS_THREADS`, so the workspace keeps one parallel map.

/// Number of worker threads: env `STEINS_THREADS`; unset or `0` = available
/// parallelism.
pub fn threads() -> usize {
    crate::env::int("STEINS_THREADS")
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Applies `f` to every job on a pool of [`threads()`] workers, preserving
/// input order in the result. Tests that compare worker counts call
/// [`steins_core::par::run_regions`] directly, without racing on the
/// process-global environment.
pub fn map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    steins_core::par::run_regions(threads(), jobs, f)
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
}
