//! The exported metrics JSON must not depend on sweep parallelism: a
//! 1-worker and a 4-worker run of the same metric-emitting sweep produce
//! byte-identical deterministic exports (`par::run_regions` preserves
//! input order, and each simulation is fully seeded).

use std::collections::BTreeMap;
use steins_bench::metrics::matrix_metrics;
use steins_bench::{run_one, Cell};
use steins_core::campaign::{CampaignConfig, CampaignReport, FaultCampaign, COMBOS};
use steins_core::par;
use steins_core::SchemeKind;
use steins_metadata::CounterMode;
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

/// The fault campaign's exported metrics — including the nested
/// crash-during-recovery axis (every iteration with `i % 4 == 2`) — must be
/// byte-identical across worker counts: each iteration's RNG derives from
/// `(seed, combo, i)` alone and combos merge in a fixed order.
fn campaign_json(workers: usize) -> String {
    let cfg = CampaignConfig {
        seed: 0xD17E,
        points_per_combo: 4,
        ops: 14,
    };
    let campaign = FaultCampaign::new(cfg.clone());
    let reports = par::run_regions(
        workers,
        COMBOS.iter().enumerate().collect::<Vec<_>>(),
        |(ci, (scheme, mode))| campaign.run_combo(ci, *scheme, *mode),
    );
    let mut merged = CampaignReport {
        seed: cfg.seed,
        ..CampaignReport::default()
    };
    for r in &reports {
        merged.merge(r);
    }
    merged.metrics().to_json_deterministic().pretty()
}

#[test]
fn campaign_metrics_with_nested_axis_identical_for_1_and_4_workers() {
    let seq = campaign_json(1);
    let par4 = campaign_json(4);
    assert!(seq.contains("core.campaign.points.nested"));
    assert_eq!(seq, par4, "worker count must not change campaign metrics");
}
