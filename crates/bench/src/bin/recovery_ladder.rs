//! Parallel-recovery seconds-per-GB ladder with a scaling gate.
//!
//! Crashes and recovers an N-shard engine at each modeled image size,
//! models the worker axis by folding per-region read bills onto lanes,
//! and fails (exit 1) if any rung × workers cell misses its speedup
//! floor. Writes `results/BENCH_recovery.json` (deterministic — see
//! [`steins_bench::ladder`]), `results/BENCH_recovery.md` (step-summary
//! table), and `results/METRICS_recovery_ladder.json`. Beside the modeled
//! speedups it prints, on stdout only, each rung's real-thread wall
//! speedup: `recover_all` on the execution threads against on one, each
//! after a fresh fill and crash.

use steins_bench::ladder::{recovery_wall, run_ladder, LadderConfig, SCALE_TOL};

fn main() {
    let lc = LadderConfig::from_env();
    let exec_workers = steins_bench::par::threads().min(lc.shards).max(1);
    println!(
        "== recovery ladder: {:?} MB x {:?} workers, {} shards (exec on {exec_workers} threads) ==",
        lc.rungs_mb, lc.workers, lc.shards
    );

    let start = std::time::Instant::now();
    let report = run_ladder(&lc, exec_workers);
    let wall = start.elapsed();

    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>12} {:>12} {:>9}",
        "image", "workers", "total_reads", "makespan", "est_sec", "sec/GB", "speedup"
    );
    for r in &report.rungs {
        println!(
            "{:>6}MB {:>8} {:>14} {:>14} {:>12.6} {:>12.6} {:>8.2}x",
            r.mb,
            r.workers,
            r.total_reads,
            r.makespan_reads,
            r.est_seconds,
            r.sec_per_gb,
            r.speedup
        );
    }
    println!(
        "(wall {:.2?} — wall clock is never part of the artifact)",
        wall
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "real threads: recover_all on {exec_workers} threads against on 1 \
         (available_parallelism {cores}), a fresh fill and crash each"
    );
    for &mb in &lc.rungs_mb {
        let one = recovery_wall(mb, lc.shards, 1);
        let many = recovery_wall(mb, lc.shards, exec_workers);
        let modeled = report
            .rungs
            .iter()
            .find(|r| r.mb == mb && r.workers == exec_workers)
            .map_or("not modeled".to_string(), |r| format!("{:.2}x", r.speedup));
        println!(
            "{mb:>6}MB wall {:>8.2?} -> {:>8.2?}: speedup {:.2}x on {exec_workers} threads, \
             modeled {modeled}",
            one,
            many,
            one.as_secs_f64() / many.as_secs_f64()
        );
    }

    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("results/: {e}");
    }
    for (path, body) in [
        ("results/BENCH_recovery.json", &report.json),
        ("results/BENCH_recovery.md", &report.markdown),
    ] {
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("{path}: {e}"),
        }
    }
    steins_bench::metrics::write_metrics("recovery_ladder", &report.metrics);

    if report.pass() {
        println!("GATE PASS: every cell met its scaling floor (tol {SCALE_TOL:.3})");
    } else {
        for f in &report.failures {
            eprintln!("GATE FAIL: {f}");
        }
        std::process::exit(1);
    }
}
