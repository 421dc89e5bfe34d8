//! Contended sharded-throughput stress bench and scaling gate.
//!
//! Sweeps write mixes over a shards × threads grid (see
//! [`steins_bench::stress`]), prints the scaling table, writes the
//! deterministic `results/BENCH_shard.json` artifact plus the per-shard
//! metric registry `results/METRICS_shard_stress.json`, and exits nonzero
//! if any uniform cell misses its scaling floor
//! (`min(shards, threads) × (1 − SCALE_TOL)`, [`SCALE_TOL`] = 0.25).

use steins_bench::stress::{default_cfg, run_grid, Mix, StressConfig, SCALE_TOL};

fn main() {
    let sc = StressConfig::from_env();
    let cfg = default_cfg();
    let workers = steins_bench::par::threads();
    println!(
        "sharded stress: {} ops/cell, seed {}, shards {:?} x threads {:?}, {} workers, tol {}",
        sc.ops, sc.seed, sc.shards, sc.threads, workers, SCALE_TOL
    );

    let report = run_grid(&cfg, &sc, workers);

    for mix in [Mix::Uniform, Mix::Zipfian] {
        println!(
            "\n{} writes (scaling vs 1 shard / 1 thread = work × par_eff × min(shards, threads)):",
            mix.label()
        );
        println!(
            "{:>8} {:>8} {:>16} {:>14} {:>9} {:>7} {:>8}",
            "shards", "threads", "makespan_cycles", "ops/kcycle", "scaling", "work", "par_eff"
        );
        for c in report.cells.iter().filter(|c| c.mix == mix) {
            println!(
                "{:>8} {:>8} {:>16} {:>14.1} {:>9.2} {:>7.3} {:>8.3}",
                c.shards,
                c.threads,
                c.makespan_cycles,
                sc.ops as f64 * 1000.0 / c.makespan_cycles as f64,
                c.scaling,
                c.work_factor,
                c.efficiency
            );
        }
    }

    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("results/: {e}");
    }
    match std::fs::write("results/BENCH_shard.json", &report.json) {
        Ok(()) => println!("\nwrote results/BENCH_shard.json"),
        Err(e) => eprintln!("results/BENCH_shard.json: {e}"),
    }
    if let Some(p) = steins_bench::metrics::write_metrics("shard_stress", &report.metrics) {
        println!("wrote {}", p.display());
    }

    if report.pass() {
        println!("scaling gate: PASS");
    } else {
        eprintln!("scaling gate: FAIL");
        for f in &report.failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
