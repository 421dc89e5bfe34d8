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
//! * **scrub overhead** — with zero faults, enabling the service at the
//!   *default* policy may cost at most 10% modeled makespan versus serving
//!   with the service off.
//!
//! With `STEINS_CHAOS_REPAIR=1`, tripped shards come back through one
//! self-healing repair (quarantine capture → scrub rebuild → full
//! re-verification → audited replay) and the gate additionally requires
//! [`steins_core::ChaosReport::repair_clean`]: after the soak every shard
//! is `Serving` again or parked behind its alarm trail.
//!
//! Fully deterministic for a fixed seed regardless of `STEINS_CHAOS_THREADS`.
//! Env knobs: `STEINS_CHAOS_SHARDS` (default 4), `STEINS_CHAOS_THREADS`
//! (default 4), `STEINS_CHAOS_OPS` (ops per shard, default 192),
//! `STEINS_CHAOS_FAULTS` (faults per shard, default 5), `STEINS_CHAOS_SEED`,
//! `STEINS_CHAOS_REPAIR` (`1` enables the repair), `STEINS_CHAOS_VERBOSE`
//! (`1` prints every event and alarm).
//! Writes `results/METRICS_chaos.json`; exits non-zero on any gate failure.

use steins_bench::env;
use steins_bench::metrics::write_metrics;
use steins_core::campaign::{run_chaos, ChaosConfig};
use steins_core::OnlinePolicy;

const OVERHEAD_LIMIT: f64 = 1.10;

fn main() {
    let defaults = ChaosConfig::default();
    let repair = env::flag("STEINS_CHAOS_REPAIR");
    let cfg = ChaosConfig {
        seed: env::int("STEINS_CHAOS_SEED").unwrap_or(defaults.seed),
        shards: env::int("STEINS_CHAOS_SHARDS").unwrap_or(4),
        threads: env::int("STEINS_CHAOS_THREADS").unwrap_or(4),
        ops_per_shard: env::int("STEINS_CHAOS_OPS").unwrap_or(192),
        faults_per_shard: env::int("STEINS_CHAOS_FAULTS").unwrap_or(5),
        repair,
        ..defaults
    };
    println!(
        "Chaos: seed {:#x}, {} shards x {} ops ({} faults/shard), {} workers, scrub on, repair {}",
        cfg.seed,
        cfg.shards,
        cfg.ops_per_shard,
        cfg.faults_per_shard,
        cfg.threads,
        if repair { "on" } else { "off" },
    );

    let r = run_chaos(&cfg);
    println!("{r}");
    let repair_ok = !repair || r.repair_clean();
    if !repair_ok {
        println!(
            "repair gate FAIL: degraded {:?} vs parked {:?} — a shard was \
             abandoned without a repair verdict",
            r.degraded_shards, r.parked_shards
        );
    }
    if !r.clean() || !repair_ok || env::flag("STEINS_CHAOS_VERBOSE") {
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
        scrub: false,
        ..cfg.clone()
    };
    let base = run_chaos(&quiet);
    let scrubbed = run_chaos(&ChaosConfig {
        scrub: true,
        policy: OnlinePolicy::default(),
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
                     | ops | ok | typed | unwinds | silent-wrong | crashes | repairs | restored | parked | faults | healed | quarantined | alarms | scrub overhead | result |\n\
                     |---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n\
                     | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2}x | {} |\n",
                    r.ops_attempted,
                    r.served_ok,
                    r.typed_errors,
                    r.unwinds,
                    r.silent_wrong,
                    r.crashes_recovered,
                    r.repairs_attempted,
                    r.shards_restored,
                    r.shards_parked,
                    r.faults_injected,
                    r.faults_healed,
                    r.faults_quarantined,
                    r.alarms.len(),
                    overhead,
                    if r.clean() && repair_ok && overhead_ok {
                        "pass"
                    } else {
                        "FAIL"
                    }
                )
                .as_bytes(),
            );
        }
    }

    if !r.clean() || !repair_ok || !overhead_ok {
        std::process::exit(1);
    }
}
