//! Contended multi-shard write-throughput stress bench.
//!
//! Drives uniform and Zipfian(θ≈0.99) write mixes through a
//! [`ShardedEngine`] over a grid of shard counts × model thread counts and
//! reports *modeled* throughput: operations per simulated cycle, where a
//! cell's makespan is the longest serial lane after assigning shard clocks
//! round-robin to `t` model threads. The model is fully deterministic —
//! the same stream partitions the same way regardless of how many OS
//! workers actually executed it — so `results/BENCH_shard.json` is
//! byte-identical across `STEINS_THREADS` settings and CI boxes of any
//! core count. Wall-clock time is printed for context but never written
//! to the artifact.
//!
//! The scaling gate: every **uniform** cell must reach
//! `min(shards, threads) × (1 − STEINS_SCALE_TOL)` speedup over the
//! 1-shard/1-thread baseline (default tolerance 0.25, so the 4×4 cell
//! must clear 3.0×). Zipfian cells are reported but not gated — a skewed
//! mix legitimately loses some balance to its hottest lines.
//!
//! Knobs: `STEINS_STRESS_SHARDS` / `STEINS_STRESS_THREADS` (comma lists,
//! default `1,2,4,8`), `STEINS_STRESS_OPS` (writes per cell), `STEINS_SEED`,
//! `STEINS_SCALE_TOL`.

use crate::env;
use std::fmt::Write as _;

use steins_core::engine::synth_data;
use steins_core::{par, SchemeKind, ShardedEngine, SystemConfig};
use steins_metadata::CounterMode;
use steins_obs::MetricRegistry;
use steins_trace::rng::SmallRng;
use steins_trace::Zipf;

/// The grid and knobs one stress run covers.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Shard counts to sweep.
    pub shards: Vec<usize>,
    /// Model thread counts to sweep.
    pub threads: Vec<usize>,
    /// Writes per cell.
    pub ops: usize,
    /// Stream seed.
    pub seed: u64,
    /// Scaling-gate tolerance (fraction of ideal allowed to be lost).
    pub tol: f64,
}

impl StressConfig {
    /// Grid from the environment (see module docs for the knobs).
    pub fn from_env() -> Self {
        StressConfig {
            shards: env::list("STEINS_STRESS_SHARDS").unwrap_or_else(|| vec![1, 2, 4, 8]),
            threads: env::list("STEINS_STRESS_THREADS").unwrap_or_else(|| vec![1, 2, 4, 8]),
            ops: env::int("STEINS_STRESS_OPS").unwrap_or(24_000),
            seed: env::int("STEINS_SEED").unwrap_or(42),
            tol: env::float("STEINS_SCALE_TOL").unwrap_or(0.25),
        }
    }
}

/// Address mix of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every line equally likely.
    Uniform,
    /// Zipfian with θ ≈ 0.99 (hottest lines are the lowest-numbered, which
    /// interleave striping spreads across shards).
    Zipfian,
}

impl Mix {
    /// Stable label used in the JSON artifact.
    pub fn label(&self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::Zipfian => "zipfian",
        }
    }
}

/// A deterministic write stream: `len` line numbers over `[0, lines)`,
/// drawn from one [`SmallRng`] seeded from `seed`. The Zipfian mix samples
/// [`Zipf`], the sampler the trace workloads use.
pub fn stream(mix: Mix, seed: u64, lines: u64, len: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xda3e_39cb_94b9_5bdb);
    match mix {
        Mix::Uniform => (0..len).map(|_| rng.gen_range(0, lines)).collect(),
        Mix::Zipfian => {
            let zipf = Zipf::new(lines, 0.99);
            (0..len).map(|_| zipf.sample(&mut rng)).collect()
        }
    }
}

/// One cell's outcome (`scaling` is filled in against the 1×1 baseline).
#[derive(Clone, Debug)]
pub struct Cell {
    /// Shard count.
    pub shards: usize,
    /// Model thread count (lanes the shard clocks are folded onto).
    pub threads: usize,
    /// Address mix.
    pub mix: Mix,
    /// Modeled makespan: the longest lane after round-robin assignment of
    /// per-shard simulated clocks to `threads` lanes.
    pub makespan_cycles: u64,
    /// The single slowest shard's clock (the `threads ≥ shards` makespan).
    pub max_shard_cycles: u64,
    /// Speedup over the same mix's 1-shard/1-thread cell.
    pub scaling: f64,
    /// Wall-clock nanoseconds the replay took (informational only).
    pub wall_ns: u128,
}

/// Replays one cell: partitions the global stream per shard (routing order
/// is preserved inside each shard, so the result is independent of
/// `workers`) and replays it on `workers` OS threads claiming whole-shard
/// jobs. Returns the engine, each shard's simulated clock, and the replay's
/// wall-clock nanoseconds.
pub fn run_cell(
    cfg: &SystemConfig,
    mix: Mix,
    shards: usize,
    lines: u64,
    ops: usize,
    seed: u64,
    workers: usize,
) -> (ShardedEngine, Vec<u64>, u128) {
    let engine = ShardedEngine::new(cfg.clone(), shards);
    let global = stream(mix, seed, lines, ops);
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for &line in &global {
        per_shard[engine.map().shard_of(line)].push(line);
    }

    let t0 = std::time::Instant::now();
    par::run_regions(workers, per_shard, |shard_lines| {
        for line in shard_lines {
            engine
                .write(line * 64, &synth_data(line * 64, line))
                .expect("stress write");
        }
    });
    let wall_ns = t0.elapsed().as_nanos();

    let clocks = (0..shards)
        .map(|s| engine.with_shard(s, |sys| sys.sim_cycles()))
        .collect();
    (engine, clocks, wall_ns)
}

/// A full grid run: cells, the gate verdict, the shard-stress metric
/// registry (per-shard write-queue occupancy/stall histograms from the
/// largest uniform cell), and the deterministic JSON artifact.
pub struct StressReport {
    /// Every cell, uniform then Zipfian, in grid order.
    pub cells: Vec<Cell>,
    /// Gate failures (empty = pass).
    pub failures: Vec<String>,
    /// The largest uniform cell's folded registry (per-shard `shard.NN.`
    /// prefixes plus the merged aggregate).
    pub metrics: MetricRegistry,
    /// `results/BENCH_shard.json` contents.
    pub json: String,
}

impl StressReport {
    /// True when every gated cell met its scaling floor.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the whole grid on `workers` OS threads. The artifact and gate
/// verdict depend only on the grid, ops, and seed — never on `workers`.
pub fn run_grid(cfg: &SystemConfig, sc: &StressConfig, workers: usize) -> StressReport {
    // `ShardedEngine` rounds its region down to a multiple of the shard
    // count, so every cell draws over the largest line count that every
    // grid shard count divides.
    let lines = (1..=cfg.data_lines)
        .rev()
        .find(|&n| sc.shards.iter().all(|&s| n % s as u64 == 0))
        .expect("no line count in the data region divides by every shard count");
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    let mut metrics = MetricRegistry::new();
    let mut biggest_uniform = 0usize;

    for &mix in &[Mix::Uniform, Mix::Zipfian] {
        let (_, base, _) = run_cell(cfg, mix, 1, lines, sc.ops, sc.seed, workers);
        let base_cycles = base[0].max(1);
        for &s in &sc.shards {
            // One replay per shard count; the model lanes reuse its clocks.
            let (engine, clocks, wall_ns) = run_cell(cfg, mix, s, lines, sc.ops, sc.seed, workers);
            if mix == Mix::Uniform && s >= biggest_uniform {
                biggest_uniform = s;
                metrics = engine.report();
            }
            let max_shard_cycles = clocks.iter().copied().max().unwrap_or(0);
            for &t in &sc.threads {
                let lanes = t.min(s).max(1);
                let mut lane_cycles = vec![0u64; lanes];
                for (i, &c) in clocks.iter().enumerate() {
                    lane_cycles[i % lanes] += c;
                }
                let makespan = lane_cycles.iter().copied().max().unwrap_or(0).max(1);
                let scaling = base_cycles as f64 / makespan as f64;
                let ideal = s.min(t) as f64;
                if mix == Mix::Uniform {
                    let floor = ideal * (1.0 - sc.tol);
                    if scaling + 1e-9 < floor {
                        failures.push(format!(
                            "uniform {s} shards x {t} threads: scaling {scaling:.2} < floor {floor:.2}"
                        ));
                    }
                }
                cells.push(Cell {
                    shards: s,
                    threads: t,
                    mix,
                    makespan_cycles: makespan,
                    max_shard_cycles,
                    scaling,
                    wall_ns,
                });
            }
        }
    }

    let json = render_json(sc, &cells, &failures);
    StressReport {
        cells,
        failures,
        metrics,
        json,
    }
}

/// Deterministic artifact: fixed field order, integers for cycles, three
/// decimals for derived ratios. Wall clock is deliberately excluded.
fn render_json(sc: &StressConfig, cells: &[Cell], failures: &[String]) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(
        j,
        "  \"suite\": \"sharded write-throughput stress (modeled cycles)\","
    );
    let _ = writeln!(j, "  \"ops_per_cell\": {},", sc.ops);
    let _ = writeln!(j, "  \"seed\": {},", sc.seed);
    let _ = writeln!(j, "  \"tolerance\": {:.3},", sc.tol);
    let _ = writeln!(j, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let ops_per_kcycle = sc.ops as f64 * 1000.0 / c.makespan_cycles as f64;
        let _ = writeln!(
            j,
            "    {{\"mix\": \"{}\", \"shards\": {}, \"threads\": {}, \
             \"makespan_cycles\": {}, \"max_shard_cycles\": {}, \
             \"ops_per_kcycle\": {:.3}, \"scaling\": {:.3}}}{}",
            c.mix.label(),
            c.shards,
            c.threads,
            c.makespan_cycles,
            c.max_shard_cycles,
            ops_per_kcycle,
            c.scaling,
            if i + 1 == cells.len() { "" } else { "," }
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

/// The default stress system: the small-but-real-crypto configuration the
/// crash sweeps use, Steins scheme, general counters.
pub fn default_cfg() -> SystemConfig {
    SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StressConfig {
        StressConfig {
            shards: vec![1, 2],
            threads: vec![1, 2],
            ops: 1_500,
            seed: 7,
            tol: 0.25,
        }
    }

    #[test]
    fn streams_are_deterministic_and_in_range() {
        let a = stream(Mix::Zipfian, 9, 256, 2_000);
        assert_eq!(a, stream(Mix::Zipfian, 9, 256, 2_000));
        assert!(a.iter().all(|&l| l < 256));
        // Zipf skew: the hottest line dominates a uniform line's share.
        let hot = a.iter().filter(|&&l| l == 0).count();
        assert!(hot > 2_000 / 256 * 4, "hottest line drew {hot}");
        let u = stream(Mix::Uniform, 9, 256, 2_000);
        assert!(u.iter().filter(|&&l| l == 0).count() < hot);
    }

    #[test]
    fn two_shards_scale_and_gate_passes() {
        let report = run_grid(&default_cfg(), &tiny(), 1);
        assert!(report.pass(), "{:?}", report.failures);
        let cell = report
            .cells
            .iter()
            .find(|c| c.mix == Mix::Uniform && c.shards == 2 && c.threads == 2)
            .unwrap();
        assert!(cell.scaling >= 1.5, "2x2 scaling {}", cell.scaling);
    }

    /// Three shards do not divide the 4,096-line region, so each engine
    /// keeps only 4,095 lines. Every drawn line must still route inside
    /// its shard.
    #[test]
    fn non_dividing_shard_count_draws_inside_every_region() {
        let sc = StressConfig {
            shards: vec![1, 3],
            ..tiny()
        };
        let report = run_grid(&default_cfg(), &sc, 1);
        assert!(report.pass(), "{:?}", report.failures);
    }

    /// The BENCH_shard.json artifact must not depend on how many OS
    /// workers executed the replay (the satellite determinism contract:
    /// byte-identical across `STEINS_THREADS` settings).
    #[test]
    fn artifact_is_byte_identical_across_worker_counts() {
        let cfg = default_cfg();
        let one = run_grid(&cfg, &tiny(), 1);
        let four = run_grid(&cfg, &tiny(), 4);
        assert_eq!(one.json, four.json);
        assert_eq!(
            one.metrics.to_json_deterministic().pretty(),
            four.metrics.to_json_deterministic().pretty()
        );
    }

    #[test]
    fn per_shard_histograms_survive_the_fold() {
        let report = run_grid(&default_cfg(), &tiny(), 1);
        let m = &report.metrics;
        assert!(m.counter("shard.00.nvm.device.writes").unwrap_or(0) > 0);
        assert!(m.counter("shard.01.nvm.device.writes").unwrap_or(0) > 0);
        assert!(
            m.hist("shard.00.nvm.write_queue.occupancy").is_some(),
            "per-shard occupancy histogram missing"
        );
        assert!(m.hist("nvm.write_queue.occupancy").is_some());
    }
}
