//! CI gate: reruns a small-budget sweep and asserts the qualitative shape
//! recorded in EXPERIMENTS.md, exiting non-zero on any violation.
//!
//! Invariants (gmean across all ten workloads, normalized to WB-GC /
//! WB-SC):
//!
//! * Steins-GC beats ASIT and STAR on execution time, write latency, and
//!   NVM write traffic;
//! * Steins-SC tracks WB-SC on execution time within [`TOL`] (15%);
//! * recovery cost at a 256 KB metadata cache orders
//!   ASIT < STAR < Steins-GC < Steins-SC.
//!
//! Each workload runs [`OPS`] ops (small enough for CI, large enough that
//! the orderings are stable); the one knob is `STEINS_SEED`. The check
//! logic itself lives in [`steins_bench::shape`] so the trip conditions
//! are unit-tested.

use std::collections::BTreeMap;
use steins_bench::recovery_bench::recovery_at_cache_size;
use steins_bench::shape::{check_below, check_close, check_increasing};
use steins_bench::{env, gmean, par, run_one, Cell, GC_MATRIX, SC_MATRIX};
use steins_core::{RunReport, SchemeKind};
use steins_metadata::CounterMode;
use steins_trace::WorkloadKind;

/// Memory ops per workload.
const OPS: u64 = 20_000;

/// How far Steins-SC's execution time may sit from WB-SC's (relative).
const TOL: f64 = 0.15;

/// Gmean over all workloads of `metric(cell) / metric(baseline)`.
fn norm_gmean(
    matrix: &BTreeMap<(String, &'static str), RunReport>,
    cell: Cell,
    baseline: Cell,
    metric: impl Fn(&RunReport) -> f64,
) -> f64 {
    let label = cell.0.label(cell.1);
    let base = baseline.0.label(baseline.1);
    let ratios: Vec<f64> = WorkloadKind::ALL
        .iter()
        .map(|w| {
            metric(&matrix[&(label.clone(), w.label())])
                / metric(&matrix[&(base.clone(), w.label())])
        })
        // Zero-write workloads at tiny op budgets yield 0/0; skip them
        // rather than poisoning the gmean (matches `print_normalized`).
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    gmean(&ratios)
}

fn main() {
    let seed = env::int("STEINS_SEED").unwrap_or(42);
    println!("shape_check: ops/workload = {OPS}, seed = {seed}, tol = {TOL}");

    let cells: Vec<Cell> = GC_MATRIX.iter().chain(SC_MATRIX.iter()).copied().collect();
    let jobs: Vec<(Cell, WorkloadKind)> = cells
        .iter()
        .flat_map(|c| WorkloadKind::ALL.iter().map(move |w| (*c, *w)))
        .collect();
    let matrix: BTreeMap<(String, &'static str), RunReport> = par::map(jobs, |(cell, wl)| {
        (
            (cell.0.label(cell.1), wl.label()),
            run_one(cell, wl, OPS, seed),
        )
    })
    .into_iter()
    .collect();

    let wb_gc = GC_MATRIX[0];
    let asit = GC_MATRIX[1];
    let star = GC_MATRIX[2];
    let steins_gc = GC_MATRIX[3];
    let wb_sc = SC_MATRIX[0];
    let steins_sc = SC_MATRIX[1];

    let mut violations = Vec::new();
    for (metric_name, metric) in [
        (
            "exec_time",
            (|r: &RunReport| r.cycles as f64) as fn(&RunReport) -> f64,
        ),
        ("write_latency", |r: &RunReport| r.write_latency),
        ("write_traffic", |r: &RunReport| r.nvm.writes as f64),
    ] {
        let s = norm_gmean(&matrix, steins_gc, wb_gc, metric);
        let a = norm_gmean(&matrix, asit, wb_gc, metric);
        let t = norm_gmean(&matrix, star, wb_gc, metric);
        println!("{metric_name:<14} Steins-GC {s:.4}  ASIT-GC {a:.4}  STAR-GC {t:.4}");
        violations.extend(check_below(
            metric_name,
            "Steins-GC",
            s,
            &[("ASIT-GC", a), ("STAR-GC", t)],
        ));
    }

    let sc_ratio = norm_gmean(&matrix, steins_sc, wb_sc, |r| r.cycles as f64);
    println!("exec_time_sc   Steins-SC/WB-SC {sc_ratio:.4}");
    violations.extend(check_close(
        "exec_time_sc",
        "Steins-SC",
        sc_ratio,
        "WB-SC",
        1.0,
        TOL,
    ));

    // Recovery ladder at the smallest (256 KB) metadata cache.
    let recovery_cells = [
        (SchemeKind::Asit, CounterMode::General, "ASIT"),
        (SchemeKind::Star, CounterMode::General, "STAR"),
        (SchemeKind::Steins, CounterMode::General, "Steins-GC"),
        (SchemeKind::Steins, CounterMode::Split, "Steins-SC"),
    ];
    let secs: Vec<(&str, f64)> = par::map(recovery_cells.to_vec(), |(s, m, label)| {
        (label, recovery_at_cache_size(s, m, 256 << 10).est_seconds)
    });
    print!("recovery_256kb");
    for (label, v) in &secs {
        print!("  {label} {v:.4}");
    }
    println!();
    violations.extend(check_increasing("recovery_seconds_256kb", &secs));

    if violations.is_empty() {
        println!("\nshape_check: all ordering invariants hold");
    } else {
        eprintln!("\nshape_check: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
