//! Parallel-recovery seconds-per-GB ladder.
//!
//! The recovery-at-scale experiment behind `results/BENCH_recovery.json`:
//! for each rung (a modeled protected-image size), an N-shard
//! [`ShardedEngine`] is dirtied the way §IV-D assumes — (nearly) every
//! per-shard metadata-cache slot holds a dirty node when the power cut
//! lands — then the whole engine crashes and recovers through
//! [`ShardedEngine::recover_all`]. Per-shard recovery work (counted NVM
//! read-and-verifies) is measured once per rung; the worker axis is then
//! *modeled* by folding those per-region costs onto `w` lanes with the
//! same deterministic LPT fold recovery itself reports
//! ([`steins_core::par::fold_lanes`]). Seconds follow the paper's charge
//! of `recovery_read_ns` (100 ns) per read.
//!
//! The rung's cache footprint scales with the modeled image — 256 B of
//! per-shard metadata cache per modeled MB, floored at 8 KB — so the
//! 256 MB → 4 GB ladder sweeps dirty-state sizes two orders of magnitude
//! apart without simulating terabytes of traffic.
//!
//! Determinism: the artifact depends only on the rung list, worker list,
//! shard count, and tolerance. The OS worker count used to *execute*
//! the recovery affects wall clock (printed, never exported) — per-shard
//! reports are worker-count-invariant by the lane contract, so the JSON is
//! byte-identical across `STEINS_THREADS` settings and host core counts.
//!
//! The scaling gate: every rung × workers cell must reach
//! `min(workers, shards) × (1 − STEINS_RECOVERY_SCALE_TOL)` speedup over
//! the same rung's 1-worker fold (default tolerance 0.375, so 4 workers
//! must clear 2.5×).
//!
//! Knobs: `STEINS_LADDER_MB` (comma list, default `256,1024,4096`),
//! `STEINS_LADDER_WORKERS` (default `1,2,4,8`), `STEINS_LADDER_SHARDS`
//! (default 8), `STEINS_RECOVERY_SCALE_TOL`.

use crate::env;
use std::fmt::Write as _;

use steins_core::par;
use steins_core::{SchemeKind, ShardedEngine, SystemConfig};
use steins_metadata::cache::MetaCacheConfig;
use steins_metadata::CounterMode;
use steins_obs::MetricRegistry;
use steins_trace::{Pattern, Workload, WorkloadKind};

/// The rung/worker grid and knobs one ladder run covers.
#[derive(Clone, Debug)]
pub struct LadderConfig {
    /// Modeled image sizes in MB.
    pub rungs_mb: Vec<u64>,
    /// Worker counts the fold models.
    pub workers: Vec<usize>,
    /// Shards (= independent recovery regions).
    pub shards: usize,
    /// Scaling-gate tolerance (fraction of ideal allowed to be lost).
    pub tol: f64,
}

impl LadderConfig {
    /// Grid from the environment (see module docs for the knobs).
    pub fn from_env() -> Self {
        LadderConfig {
            rungs_mb: env::list("STEINS_LADDER_MB").unwrap_or_else(|| vec![256, 1024, 4096]),
            workers: env::list("STEINS_LADDER_WORKERS").unwrap_or_else(|| vec![1, 2, 4, 8]),
            shards: env::int("STEINS_LADDER_SHARDS").unwrap_or(8),
            tol: env::float("STEINS_RECOVERY_SCALE_TOL").unwrap_or(0.375),
        }
    }
}

/// One rung × workers cell of the ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Modeled image size in MB.
    pub mb: u64,
    /// Modeled worker count.
    pub workers: usize,
    /// Sum of every region's recovery reads.
    pub total_reads: u64,
    /// Busiest lane's reads after the LPT fold onto `workers` lanes.
    pub makespan_reads: u64,
    /// Modeled recovery time: `makespan_reads × recovery_read_ns`.
    pub est_seconds: f64,
    /// `est_seconds` normalized per modeled GB.
    pub sec_per_gb: f64,
    /// Speedup of this fold over the same rung's 1-worker fold.
    pub speedup: f64,
}

/// A full ladder run: cells in (rung, workers) grid order, the gate
/// verdict, the largest rung's folded recovery registry, the deterministic
/// JSON artifact, and the step-summary markdown table.
pub struct LadderReport {
    /// Every cell, rung-major.
    pub rungs: Vec<Rung>,
    /// Gate failures (empty = pass).
    pub failures: Vec<String>,
    /// The largest rung's [`ShardedEngine::recover_all`] registry.
    pub metrics: MetricRegistry,
    /// `results/BENCH_recovery.json` contents.
    pub json: String,
    /// Markdown seconds-per-GB table (for `$GITHUB_STEP_SUMMARY`).
    pub markdown: String,
}

impl LadderReport {
    /// True when every cell met its scaling floor.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The per-shard system one rung runs on: Steins-GC over a metadata cache
/// of 256 B per modeled MB (≥ 8 KB), with the data region and device sized
/// to fit the leaf-strided dirtying workload.
pub fn rung_config(mb: u64, shards: usize) -> SystemConfig {
    let mut cfg = SystemConfig::sweep(SchemeKind::Steins, CounterMode::General);
    let per_shard_bytes = (mb * 256).max(8 << 10);
    cfg.meta_cache = MetaCacheConfig {
        capacity_bytes: per_shard_bytes * shards as u64,
        ways: 8,
    };
    let per_shard = MetaCacheConfig {
        capacity_bytes: per_shard_bytes,
        ways: 8,
    };
    let coverage = CounterMode::General.leaf_coverage();
    let footprint = per_shard.slots() * 3 / 2 * coverage;
    cfg.data_lines = footprint * shards as u64;
    // Per-shard device: data (64 B/line) + MACs + metadata + headroom.
    cfg.nvm.capacity_bytes = (footprint * 64 * 3 / 2).next_power_of_two();
    cfg
}

/// Dirties (nearly) every metadata-cache slot of every shard: one write
/// per leaf, strided at the leaf coverage, 1.5× the slot count, driven at
/// shard-local addresses so each region's recovery bill is independent of
/// the striping mode.
fn dirty_all_shards(engine: &ShardedEngine) {
    let per_shard = engine.shard_config();
    let coverage = CounterMode::General.leaf_coverage();
    let writes = per_shard.meta_cache.slots() * 3 / 2;
    for s in 0..engine.shards() {
        engine.with_shard(s, |sys| {
            let mut wl = Workload::new(WorkloadKind::PHash, writes, 7 + s as u64);
            wl.footprint_lines = per_shard.data_lines;
            wl.write_ratio = 1.0;
            wl.flush_stores = true;
            wl.pattern = Pattern::Sequential { stride: coverage };
            sys.run_trace(wl.generate())
                .expect("fill run is attack-free");
        });
    }
}

/// Runs the whole ladder, executing each rung's recovery once on
/// `exec_workers` OS threads and modeling the worker axis from its
/// per-region read counts. The artifact never depends on `exec_workers`.
pub fn run_ladder(lc: &LadderConfig, exec_workers: usize) -> LadderReport {
    let mut rungs = Vec::new();
    let mut failures = Vec::new();
    let mut metrics = MetricRegistry::new();
    let mut read_ns = 100.0;

    for &mb in &lc.rungs_mb {
        let cfg = rung_config(mb, lc.shards);
        read_ns = cfg.recovery_read_ns;
        let engine = ShardedEngine::new(cfg, lc.shards);
        dirty_all_shards(&engine);
        let images = engine.crash_all();
        let pr = engine
            .recover_all(images, exec_workers)
            .expect("ladder recovery is attack-free");
        // The exported registry is rebuilt from the per-shard reports (which
        // are worker-count-invariant) — `pr.metrics` itself folds lanes by
        // the *execution* worker count, which must never leak into results.
        metrics = MetricRegistry::new();
        for (s, r) in pr.reports.iter().enumerate() {
            metrics.fold_shard(&format!("shard.{s:02}"), &r.metrics);
        }
        metrics.gauge_set("bench.ladder.mb", mb as f64);
        metrics.gauge_set("bench.ladder.shards", lc.shards as f64);

        let costs: Vec<u64> = pr.reports.iter().map(|r| r.nvm_reads).collect();
        let total_reads: u64 = costs.iter().sum();
        let serial = par::makespan(&costs, 1).max(1);
        let gb = mb as f64 / 1024.0;
        for &w in &lc.workers {
            let makespan = par::makespan(&costs, w).max(1);
            let est_seconds = makespan as f64 * read_ns * 1e-9;
            let speedup = serial as f64 / makespan as f64;
            let ideal = w.min(lc.shards) as f64;
            let floor = ideal * (1.0 - lc.tol);
            if speedup + 1e-9 < floor {
                failures.push(format!(
                    "{mb} MB x {w} workers: speedup {speedup:.2} < floor {floor:.2}"
                ));
            }
            rungs.push(Rung {
                mb,
                workers: w,
                total_reads,
                makespan_reads: makespan,
                est_seconds,
                sec_per_gb: est_seconds / gb,
                speedup,
            });
        }
    }

    let json = render_json(lc, read_ns, &rungs, &failures);
    let markdown = render_markdown(lc, &rungs);
    LadderReport {
        rungs,
        failures,
        metrics,
        json,
        markdown,
    }
}

/// Deterministic artifact: fixed field order, integers for reads, fixed
/// decimal widths for derived quantities. Wall clock is never written.
fn render_json(lc: &LadderConfig, read_ns: f64, rungs: &[Rung], failures: &[String]) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(
        j,
        "  \"suite\": \"parallel recovery ladder (modeled reads)\","
    );
    let _ = writeln!(j, "  \"shards\": {},", lc.shards);
    let _ = writeln!(j, "  \"read_ns\": {read_ns:.1},");
    let _ = writeln!(j, "  \"tolerance\": {:.3},", lc.tol);
    let _ = writeln!(j, "  \"rungs\": [");
    for (i, r) in rungs.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"mb\": {}, \"workers\": {}, \"total_reads\": {}, \
             \"makespan_reads\": {}, \"est_seconds\": {:.6}, \
             \"sec_per_gb\": {:.6}, \"speedup\": {:.3}}}{}",
            r.mb,
            r.workers,
            r.total_reads,
            r.makespan_reads,
            r.est_seconds,
            r.sec_per_gb,
            r.speedup,
            if i + 1 == rungs.len() { "" } else { "," }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"gate\": {{");
    let _ = writeln!(j, "    \"pass\": {},", failures.is_empty());
    let _ = writeln!(j, "    \"failures\": [");
    for (i, f) in failures.iter().enumerate() {
        let _ = writeln!(
            j,
            "      \"{f}\"{}",
            if i + 1 == failures.len() { "" } else { "," }
        );
    }
    let _ = writeln!(j, "    ]");
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");
    j
}

/// Markdown seconds-per-GB table: one row per rung, one column per worker
/// count.
fn render_markdown(lc: &LadderConfig, rungs: &[Rung]) -> String {
    let mut m = String::new();
    let _ = writeln!(
        m,
        "### Recovery ladder — seconds per GB ({} shards)\n",
        lc.shards
    );
    let mut header = String::from("| image |");
    let mut rule = String::from("|---|");
    for w in &lc.workers {
        let _ = write!(header, " {w} worker{} |", if *w == 1 { "" } else { "s" });
        rule.push_str("---|");
    }
    let _ = writeln!(m, "{header}");
    let _ = writeln!(m, "{rule}");
    for &mb in &lc.rungs_mb {
        let mut row = if mb >= 1024 && mb % 1024 == 0 {
            format!("| {} GB |", mb / 1024)
        } else {
            format!("| {mb} MB |")
        };
        for &w in &lc.workers {
            if let Some(r) = rungs.iter().find(|r| r.mb == mb && r.workers == w) {
                let _ = write!(row, " {:.4} ({:.2}x) |", r.sec_per_gb, r.speedup);
            } else {
                row.push_str(" — |");
            }
        }
        let _ = writeln!(m, "{row}");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LadderConfig {
        LadderConfig {
            rungs_mb: vec![1, 2],
            workers: vec![1, 2],
            shards: 2,
            tol: 0.375,
        }
    }

    #[test]
    fn tiny_ladder_scales_and_gate_passes() {
        let report = run_ladder(&tiny(), 1);
        assert!(report.pass(), "{:?}", report.failures);
        let cell = report
            .rungs
            .iter()
            .find(|r| r.mb == 2 && r.workers == 2)
            .unwrap();
        assert!(cell.speedup >= 1.25, "2-worker speedup {}", cell.speedup);
        assert!(cell.est_seconds > 0.0 && cell.sec_per_gb > 0.0);
    }

    /// The BENCH_recovery.json artifact must not depend on how many OS
    /// workers executed the recovery.
    #[test]
    fn artifact_is_byte_identical_across_exec_worker_counts() {
        let lc = tiny();
        let one = run_ladder(&lc, 1);
        let four = run_ladder(&lc, 4);
        assert_eq!(one.json, four.json);
        assert_eq!(one.markdown, four.markdown);
        assert_eq!(
            one.metrics.to_json_deterministic().pretty(),
            four.metrics.to_json_deterministic().pretty()
        );
    }

    #[test]
    fn bigger_rungs_cost_more_reads() {
        let report = run_ladder(&tiny(), 2);
        let small = report
            .rungs
            .iter()
            .find(|r| r.mb == 1 && r.workers == 1)
            .unwrap();
        let large = report
            .rungs
            .iter()
            .find(|r| r.mb == 2 && r.workers == 1)
            .unwrap();
        // Both rungs clamp to the 8 KB cache floor at these toy sizes, so
        // equality is allowed — monotonicity is what the ladder promises.
        assert!(large.total_reads >= small.total_reads);
    }
}
