//! Figure/table regeneration harness.
//!
//! Every evaluation artifact of the paper (§IV, Table I and Figs. 9–17 plus
//! the storage analysis) has a binary in `src/bin/` that reruns the
//! experiment and prints the paper's series. This library holds the shared
//! machinery: scheme matrices, parallel sweep execution (std threads — each
//! simulation is independent, mirroring §IV-F's parallel memory
//! controllers), normalization, and table formatting.
//!
//! Knobs (environment variables):
//!
//! * `STEINS_OPS` — memory operations per workload (default 1,000,000).
//! * `STEINS_SEED` — trace seed (default 42).
//! * `STEINS_THREADS` — sweep worker count (default: available parallelism).
//!
//! Every binary reads its knobs through [`mod@env`]: a malformed value exits 2
//! naming the variable, never falls back to the default.
//!
//! Besides the printed tables and `results/*.csv`, every figure run exports
//! its full metric registry (tail-latency histograms, device/cache/metadata
//! counters) as `results/METRICS_<run>.json` — see [`metrics`].

use std::collections::BTreeMap;
use steins_core::{RunReport, SchemeKind, SystemConfig};
use steins_metadata::CounterMode;
use steins_trace::{Workload, WorkloadKind};

pub mod env;
pub mod ladder;
pub mod metrics;
pub mod micro;
pub mod par;
pub mod recovery_bench;
pub mod shape;
pub mod stress;

/// Writes one figure's normalized rows as CSV under `results/` (one file
/// per figure), so the series can be plotted without re-running the sweep.
/// Errors are reported but non-fatal — the printed tables are the primary
/// output.
pub fn write_csv(figure: &str, workloads: &[WorkloadKind], rows: &[(String, Vec<f64>, f64)]) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("results/: {e}");
        return;
    }
    let mut out = String::from("scheme");
    for w in workloads {
        out.push(',');
        out.push_str(w.label());
    }
    out.push_str(",gmean\n");
    for (label, vals, g) in rows {
        out.push_str(label);
        for v in vals {
            out.push_str(&format!(",{v:.4}"));
        }
        out.push_str(&format!(",{g:.4}\n"));
    }
    let path = dir.join(format!("{figure}.csv"));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("{}: {e}", path.display());
    }
}

/// One scheme/mode cell of the comparison matrix.
pub type Cell = (SchemeKind, CounterMode);

/// The GC comparison of Figs. 9–11, 13, 15: baseline first.
pub const GC_MATRIX: [Cell; 4] = [
    (SchemeKind::WriteBack, CounterMode::General),
    (SchemeKind::Asit, CounterMode::General),
    (SchemeKind::Star, CounterMode::General),
    (SchemeKind::Steins, CounterMode::General),
];

/// The SC comparison of Figs. 12, 14, 16: baseline first.
pub const SC_MATRIX: [Cell; 2] = [
    (SchemeKind::WriteBack, CounterMode::Split),
    (SchemeKind::Steins, CounterMode::Split),
];

/// Memory operations per workload (env `STEINS_OPS`).
pub fn ops() -> u64 {
    env::int("STEINS_OPS").unwrap_or(1_000_000)
}

/// Trace seed (env `STEINS_SEED`).
pub fn seed() -> u64 {
    env::int("STEINS_SEED").unwrap_or(42)
}

/// Runs one (scheme, mode, workload) simulation and returns its report.
pub fn run_one(cell: Cell, kind: WorkloadKind, ops: u64, seed: u64) -> RunReport {
    let (scheme, mode) = cell;
    let cfg = SystemConfig::sweep(scheme, mode);
    let mut sys = steins_core::SecureNvmSystem::new(cfg);
    let wl = Workload::new(kind, ops, seed);
    sys.run_trace(wl.generate()).unwrap_or_else(|e| {
        panic!("integrity failure in clean run ({scheme:?}/{mode:?}/{kind:?}): {e}")
    })
}

/// Results keyed by `(cell label, workload label)`.
pub type Matrix = BTreeMap<(String, &'static str), RunReport>;

/// Runs `cells × workloads` in parallel — one job per simulation on the
/// shared-counter job pool behind [`par`] (`STEINS_THREADS` controls the
/// worker count).
pub fn run_matrix(cells: &[Cell], workloads: &[WorkloadKind]) -> Matrix {
    let ops = ops();
    let seed = seed();
    let jobs: Vec<(Cell, WorkloadKind)> = cells
        .iter()
        .flat_map(|c| workloads.iter().map(move |w| (*c, *w)))
        .collect();
    par::map(jobs, |(cell, wl)| {
        let report = run_one(cell, wl, ops, seed);
        ((cell.0.label(cell.1), wl.label()), report)
    })
    .into_iter()
    .collect()
}

/// Geometric mean (the summary bar in each figure).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints one figure: a metric per (scheme, workload), normalized to the
/// baseline scheme per workload, with a trailing geometric mean column.
/// Returns the rows as `(scheme, per-workload normalized values, gmean)`.
pub fn print_normalized(
    title: &str,
    matrix: &Matrix,
    cells: &[Cell],
    workloads: &[WorkloadKind],
    baseline: Cell,
    metric: impl Fn(&RunReport) -> f64,
) -> Vec<(String, Vec<f64>, f64)> {
    println!("\n== {title} ==");
    print!("{:<12}", "scheme");
    for w in workloads {
        print!("{:>12}", w.label());
    }
    println!("{:>12}", "gmean");
    let base_label = baseline.0.label(baseline.1);
    let mut rows = Vec::new();
    for cell in cells {
        let label = cell.0.label(cell.1);
        let mut vals = Vec::new();
        for w in workloads {
            let r = &matrix[&(label.clone(), w.label())];
            let b = &matrix[&(base_label.clone(), w.label())];
            let (m, mb) = (metric(r), metric(b));
            vals.push(if mb == 0.0 { f64::NAN } else { m / mb });
        }
        let valid: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
        let g = gmean(&valid);
        print!("{label:<12}");
        for v in &vals {
            print!("{v:>12.3}");
        }
        println!("{g:>12.3}");
        rows.push((label, vals, g));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn run_one_smoke() {
        std::env::set_var("STEINS_OPS", "2000");
        let r = run_one(
            (SchemeKind::Steins, CounterMode::General),
            WorkloadKind::PHash,
            2_000,
            1,
        );
        assert!(r.cycles > 0);
        assert!(r.nvm.writes > 0);
    }
}
