//! Mini Fig. 17: recovery time versus metadata cache size, at example scale
//! (three small cache sizes so it finishes in seconds; the full sweep is
//! Fig. 17 of `cargo run -p steins-bench --release --bin all`).
//!
//! Run: `cargo run --release --example recovery_sweep`

use steins::core::SchemeKind;
use steins::metadata::cache::MetaCacheConfig;
use steins::prelude::*;
use steins::trace::{Workload, WorkloadKind};

fn recover_with_cache(scheme: SchemeKind, mode: CounterMode, cache_bytes: u64) -> (u64, f64) {
    let mut cfg = SystemConfig::small_for_tests(scheme, mode);
    cfg.meta_cache = MetaCacheConfig {
        capacity_bytes: cache_bytes,
        ways: 8,
    };
    let data_lines = cfg.data_lines;
    let mut sys = SecureNvmSystem::new(cfg);
    let mut wl = Workload::new(WorkloadKind::PHash, 0, 3);
    wl.footprint_lines = data_lines;
    wl.ops = data_lines / 2;
    wl.write_ratio = 1.0;
    sys.run_trace(wl.generate()).expect("fill run");
    let (_, report) = sys.crash().recover().expect("recovery verifies");
    (report.nvm_reads, report.est_seconds)
}

fn main() {
    let sizes = [4u64 << 10, 8 << 10, 16 << 10];
    let cells = [
        (SchemeKind::Asit, CounterMode::General, "ASIT"),
        (SchemeKind::Star, CounterMode::General, "STAR"),
        (SchemeKind::Steins, CounterMode::General, "Steins-GC"),
        (SchemeKind::Steins, CounterMode::Split, "Steins-SC"),
    ];
    println!("recovery NVM reads (and est. µs at 100 ns/read) by metadata cache size\n");
    print!("{:<12}", "scheme");
    for s in sizes {
        print!("{:>16}", format!("{} KB", s >> 10));
    }
    println!();
    for (scheme, mode, label) in cells {
        print!("{label:<12}");
        for s in sizes {
            let (reads, secs) = recover_with_cache(scheme, mode, s);
            print!("{:>16}", format!("{reads} ({:.0} µs)", secs * 1e6));
        }
        println!();
    }
    println!("\nShape to notice: recovery effort grows linearly with cache size, and");
    println!("Steins-SC pays ~8× Steins-GC per leaf (64 vs 8 child reads) — the");
    println!("ordering ASIT < STAR < Steins-GC < Steins-SC of the paper's Fig. 17.");
}
