//! CI gate: compares a freshly measured `results/BENCH_crypto.json`
//! against a committed baseline and fails on hot-path speedup regressions.
//!
//! Usage: `perf_gate <baseline.json> <fresh.json>` (defaults:
//! `results/BENCH_crypto_baseline.json results/BENCH_crypto.json`).
//!
//! Both files carry per-bench *speedup ratios* (`before_ns / after_ns`
//! measured on the same machine in the same process), so the comparison is
//! machine-independent: a fresh speedup may fall below the baseline's by at
//! most `STEINS_PERF_TOL` (relative, default 0.25). Absolute nanoseconds
//! are printed for context but never gated on. A bench present in the
//! baseline but missing from the fresh run is a failure; extra fresh
//! benches are ignored (additions should land with a new baseline).

use steins_obs::json::{parse, Json};

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    parse(&text).unwrap_or_else(|e| die(&format!("{path}: invalid JSON: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

/// `benches` array as (name, speedup, after_ns) tuples.
fn benches(doc: &Json, path: &str) -> Vec<(String, f64, f64)> {
    let arr = doc
        .get("benches")
        .and_then(|b| b.as_arr())
        .unwrap_or_else(|| die(&format!("{path}: no `benches` array")));
    arr.iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(|n| n.as_str())
                .unwrap_or_else(|| die(&format!("{path}: bench without a name")));
            let speedup = b
                .get("speedup")
                .and_then(|s| s.as_f64())
                .unwrap_or_else(|| die(&format!("{path}: {name} has no speedup")));
            let after = b.get("after_ns").and_then(|s| s.as_f64()).unwrap_or(0.0);
            (name.to_string(), speedup, after)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("results/BENCH_crypto_baseline.json");
    let fresh_path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("results/BENCH_crypto.json");
    let tol = steins_bench::env::float("STEINS_PERF_TOL").unwrap_or(0.25);

    let baseline = benches(&load(baseline_path), baseline_path);
    let fresh = benches(&load(fresh_path), fresh_path);
    println!("perf_gate: baseline {baseline_path}, fresh {fresh_path}, tol {tol}");
    println!(
        "{:<28}{:>10}{:>10}{:>10}{:>12}",
        "bench", "base", "fresh", "floor", "after_ns"
    );

    let mut failures = Vec::new();
    for (name, base_speedup, _) in &baseline {
        let floor = base_speedup * (1.0 - tol);
        match fresh.iter().find(|(n, _, _)| n == name) {
            Some((_, speedup, after_ns)) => {
                println!(
                    "{name:<28}{base_speedup:>10.2}{speedup:>10.2}{floor:>10.2}{after_ns:>12.1}"
                );
                // `partial_cmp` so a NaN speedup counts as a regression.
                if speedup.partial_cmp(&floor) == Some(std::cmp::Ordering::Less) || speedup.is_nan()
                {
                    failures.push(format!(
                        "{name}: speedup {speedup:.2} below floor {floor:.2} \
                         (baseline {base_speedup:.2}, tol {tol})"
                    ));
                }
            }
            None => failures.push(format!(
                "{name}: present in baseline, missing from fresh run"
            )),
        }
    }

    if failures.is_empty() {
        println!(
            "\nperf_gate: all {} benches within tolerance",
            baseline.len()
        );
    } else {
        eprintln!("\nperf_gate: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
