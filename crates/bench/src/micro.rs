//! Minimal std-only micro-benchmark harness (criterion replacement).
//!
//! Calibrates an iteration count to a target measurement time, takes a
//! handful of samples, and prints median ± spread in ns/op. Good enough
//! to compare the simulator's hot paths release-to-release; not a
//! statistics engine.

use std::time::{Duration, Instant};

/// One named group of benchmarks (prints a header line).
pub struct Group {
    name: String,
    target: Duration,
    samples: usize,
}

/// Starts a benchmark group with default settings (2 s target, 7 samples).
/// `STEINS_MICRO_MS` overrides the per-benchmark budget in milliseconds —
/// CI's perf-smoke job sets a small value so the suite completes quickly.
pub fn group(name: &str) -> Group {
    println!("\n== bench group: {name} ==");
    let target = crate::env::int("STEINS_MICRO_MS")
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(2));
    Group {
        name: name.to_string(),
        target,
        samples: 7,
    }
}

impl Group {
    /// Benchmarks `f`, printing median ns/op. Returns the median so suites
    /// can record results (e.g. the `BENCH_crypto.json` speedup table).
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> f64 {
        // Calibrate: how many iters fit in ~1/10 of the budget?
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let el = t.elapsed();
            if el >= self.target / 10 || iters >= 1 << 30 {
                break;
            }
            iters = if el.is_zero() {
                iters * 128
            } else {
                (iters as f64 * (self.target.as_secs_f64() / 10.0 / el.as_secs_f64()).min(128.0))
                    .ceil() as u64
            }
            .max(iters + 1);
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let med = per_iter[per_iter.len() / 2];
        let spread = per_iter[per_iter.len() - 1] - per_iter[0];
        println!(
            "{}/{name:<32} {med:>12.1} ns/op  (±{spread:.1} over {} samples × {iters} iters)",
            self.name, self.samples
        );
        med
    }

    /// Benchmarks `f` with a fresh `setup()` value per invocation; only the
    /// time inside `f` is counted. Returns the median ns per invocation.
    pub fn bench_batched<S, Setup, F>(&mut self, name: &str, mut setup: Setup, mut f: F) -> f64
    where
        Setup: FnMut() -> S,
        F: FnMut(S),
    {
        let mut samples: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            f(input);
            samples.push(t.elapsed().as_secs_f64() * 1e9);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let med = samples[samples.len() / 2];
        println!(
            "{}/{name:<32} {med:>12.1} ns/op  (median of {} one-shot samples)",
            self.name, self.samples
        );
        med
    }
}
