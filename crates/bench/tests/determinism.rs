//! The exported metrics JSON must not depend on sweep parallelism: a
//! 1-worker and a 4-worker run of the same metric-emitting sweep produce
//! byte-identical deterministic exports (`par::run_regions` preserves
//! input order, and each simulation is fully seeded).

use std::collections::BTreeMap;
use steins_bench::metrics::matrix_metrics;
use steins_bench::{run_one, Cell};
use steins_core::config::COMBOS;
use steins_core::crash::{campaign_metrics, SWEEP_LINES};
use steins_core::par;
use steins_core::{CrashSweep, Jobs, PointSelection, SchemeKind, SweepOp, SystemConfig};
use steins_metadata::CounterMode;
use steins_obs::MetricRegistry;
use steins_trace::WorkloadKind;

fn sweep_json(workers: usize) -> String {
    let cells: [Cell; 2] = [
        (SchemeKind::Steins, CounterMode::General),
        (SchemeKind::Steins, CounterMode::Split),
    ];
    let workloads = [WorkloadKind::PHash, WorkloadKind::PTree];
    let jobs: Vec<(Cell, WorkloadKind)> = cells
        .iter()
        .flat_map(|c| workloads.iter().map(move |w| (*c, *w)))
        .collect();
    let matrix: BTreeMap<(String, &'static str), _> =
        par::run_regions(workers, jobs, |(cell, wl)| {
            (
                (cell.0.label(cell.1), wl.label()),
                run_one(cell, wl, 2_000, 42),
            )
        })
        .into_iter()
        .collect();
    matrix_metrics(&matrix).to_json_deterministic().pretty()
}

#[test]
fn metrics_export_identical_for_1_and_4_workers() {
    let seq = sweep_json(1);
    let par4 = sweep_json(4);
    assert!(seq.contains("core.read.latency_cycles"));
    assert!(!seq.contains("wall."), "wall-clock must be excluded");
    assert_eq!(seq, par4, "worker count must not change exported metrics");
}

/// The committed `results/METRICS_campaign.json` is the default campaign
/// (`fault_campaign` at seed `0x5EED_FA17`, 168 points per combo, 40-op
/// streams): the seeded lists — including the nested crash-during-recovery
/// axis — run at 1 and at 4 `run` threads must both export it byte for byte.
fn campaign_json(threads: usize) -> String {
    let seed = 0x5EED_FA17;
    let mut total = MetricRegistry::new();
    for (combo, (scheme, mode)) in COMBOS.into_iter().enumerate() {
        let ops = SweepOp::stream(seed ^ ((combo as u64) << 17), SWEEP_LINES, 40);
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let sweep = CrashSweep::new(cfg, ops, PointSelection::All);
        let jobs = sweep.jobs(Jobs::Seeded(seed, 0..168));
        let report = sweep.run(jobs.clone(), threads);
        total.merge(&campaign_metrics(&jobs.unwrap(), &report));
    }
    total.to_json_deterministic().pretty()
}

#[test]
fn campaign_metrics_with_nested_axis_identical_for_1_and_4_workers() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/METRICS_campaign.json"
    );
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(committed.contains("core.campaign.points.nested"));
    for threads in [1, 4] {
        assert_eq!(campaign_json(threads), committed, "{threads} run thread(s)");
    }
}
