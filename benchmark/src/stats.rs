//! Order statistics over repetitions and per-op samples.

/// Quartiles `[q1, q2, q3]` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones computed over result files. Fewer
/// than two values repeat the single value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        n => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// The median (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Exact nearest-rank percentile `p` (0–100) of host latency samples, in
/// nanoseconds. Reorders `samples`.
pub fn percentile_ns(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1 as f64
}

/// The process's peak resident set (`VmHWM`) in MB, or NaN off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut s: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile_ns(&mut s, 50.0), 500.0);
        assert_eq!(percentile_ns(&mut s, 99.0), 990.0);
        assert_eq!(percentile_ns(&mut s, 100.0), 1000.0);
    }
}
