//! Chaos-under-load — the CI graceful-degradation gate.
//!
//! Spins up a sharded engine with the online integrity service enabled and
//! serves a seeded Zipfian write mix from worker threads while media faults
//! (bit flips, stuck-at lines, uncorrectable and transient reads) and
//! whole-shard power cuts land mid-traffic. The run must degrade
//! gracefully, never fail:
//!
//! * **zero unwinds** — no panic ever escapes an operation;
//! * **zero silent-wrong acks** — a read is correct, a typed
//!   `IntegrityError`, or indeterminate-by-crash, never wrong-as-`Ok`;
//! * **alarm shape** — every quarantined line sits behind an alarm carrying
//!   its `(shard, addr)`, every fault ends up healed or quarantined (or its
//!   whole shard parked `Degraded` behind the lifecycle alarm);
//! * **repair verdicts** — a tripped shard comes back through one
//!   self-healing repair (quarantine capture → scrub rebuild → full
//!   re-verification → audited replay), so after the run every shard is
//!   `Serving` again or parked behind its alarm trail;
//! * **scrub overhead** — with zero faults, enabling the service at the
//!   *default* policy may cost at most 10% modeled makespan versus serving
//!   with the service off.
//!
//! Fully deterministic for a fixed seed regardless of the worker count,
//! which is the shared `STEINS_THREADS` (unset or 0 = available
//! parallelism). Env knobs (defaults from [`ChaosConfig::default`]):
//! `STEINS_CHAOS_SHARDS` (4), `STEINS_CHAOS_OPS` (ops per shard, 192),
//! `STEINS_CHAOS_FAULTS` (faults per shard, 5), `STEINS_CHAOS_SEED`.
//! Writes `results/METRICS_chaos.json`; exits non-zero on any gate failure,
//! after printing every event and alarm.

use steins_bench::metrics::write_metrics;
use steins_bench::{env, par};
use steins_core::chaos::{run_chaos, ChaosConfig};
use steins_core::OnlinePolicy;

const OVERHEAD_LIMIT: f64 = 1.10;

fn main() {
    let defaults = ChaosConfig::default();
    let cfg = ChaosConfig {
        seed: env::int("STEINS_CHAOS_SEED").unwrap_or(defaults.seed),
        shards: env::int("STEINS_CHAOS_SHARDS").unwrap_or(defaults.shards),
        threads: par::threads(),
        ops_per_shard: env::int("STEINS_CHAOS_OPS").unwrap_or(defaults.ops_per_shard),
        faults_per_shard: env::int("STEINS_CHAOS_FAULTS").unwrap_or(defaults.faults_per_shard),
        ..defaults
    };
    // The worker count goes to stderr: stdout is the same at any count.
    eprintln!("chaos on {} workers", cfg.threads);
    println!(
        "Chaos: seed {:#x}, {} shards x {} ops ({} faults/shard), scrub on",
        cfg.seed, cfg.shards, cfg.ops_per_shard, cfg.faults_per_shard,
    );

    let r = run_chaos(&cfg);
    println!("{r}");
    if !r.clean() {
        for e in &r.events {
            println!("  {e}");
        }
        for a in r.alarms.events() {
            println!("  alarm: {a:?}");
        }
    }

    // Scrub-overhead gate: identical fault-free traffic, service off vs on
    // at the *default* policy (the chaos run above deliberately runs an
    // aggressive policy to maximize fault coverage).
    let quiet = ChaosConfig {
        faults_per_shard: 0,
        policy: None,
        ..cfg.clone()
    };
    let base = run_chaos(&quiet);
    let scrubbed = run_chaos(&ChaosConfig {
        policy: Some(OnlinePolicy::default()),
        ..quiet.clone()
    });
    assert_eq!(
        base.unwinds + scrubbed.unwinds,
        0,
        "quiet runs must not panic"
    );
    let overhead = scrubbed.makespan_cycles as f64 / base.makespan_cycles.max(1) as f64;
    let overhead_ok = overhead <= OVERHEAD_LIMIT;
    println!(
        "Scrub overhead (fault-free, default policy): {} -> {} cycles ({:.2}x, limit {:.2}x) [{}]",
        base.makespan_cycles,
        scrubbed.makespan_cycles,
        overhead,
        OVERHEAD_LIMIT,
        if overhead_ok { "pass" } else { "FAIL" }
    );

    let mut m = r.metrics();
    m.gauge_set(
        "core.chaos.overhead.base_cycles",
        base.makespan_cycles as f64,
    );
    m.gauge_set(
        "core.chaos.overhead.scrubbed_cycles",
        scrubbed.makespan_cycles as f64,
    );
    m.gauge_set("core.chaos.overhead.ratio", overhead);
    if let Some(path) = write_metrics("chaos", &m) {
        println!("metrics -> {}", path.display());
    }

    if let Ok(step) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(step) {
            let _ = f.write_all(
                format!(
                    "### Chaos under load\n\n\
                     | ops | ok | typed | unwinds | silent-wrong | crashes | restored | parked | faults | healed | quarantined | alarms | scrub overhead | result |\n\
                     |---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n\
                     | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2}x | {} |\n",
                    r.ops_attempted,
                    r.served_ok,
                    r.typed_errors,
                    r.unwinds,
                    r.silent_wrong,
                    r.crashes_recovered,
                    r.shards_restored,
                    r.shards_parked,
                    r.faults_injected,
                    r.faults_healed,
                    r.faults_quarantined,
                    r.alarms.len(),
                    overhead,
                    if r.clean() && overhead_ok {
                        "pass"
                    } else {
                        "FAIL"
                    }
                )
                .as_bytes(),
            );
        }
    }

    if !r.clean() || !overhead_ok {
        std::process::exit(1);
    }
}
