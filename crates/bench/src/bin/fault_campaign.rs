//! Seeded randomized fault campaign — the CI robustness gate.
//!
//! Composes the full fault model at every injected point: a random crash
//! point × a torn-word mask (whole, prefix, sparse, dropped) × — on every
//! other iteration — post-crash corruption (node/data bit flips, offset
//! record rewrites, raw overwrites) and media faults (stuck-at lines,
//! uncorrectable reads). Crash-only points must meet the strong sweep
//! contract (every acknowledged line back, torn line failing closed);
//! attacked points must meet the robustness contract (no panic anywhere in
//! strict recovery, the lenient scrub, or post-scrub reads; tampered
//! durable data never whitewashed as intact; no read ever returns wrong
//! data as `Ok`).
//!
//! Every fourth iteration is a **nested point**: the crash is injected,
//! recovery starts, and a second crash lands on one of recovery's own
//! persist points (journal updates, record/shadow rewrites) — the second
//! recovery must converge off the ADR recovery journal.
//!
//! Each combo is one seeded `CrashSweep` job list (`Jobs::Seeded`) run
//! through `CrashSweep::run`, so every point is checked by the crash
//! sweep's one probe. Fully deterministic for a fixed seed: a failure names
//! its job index, which is its iteration — replay exactly that point with
//! `fault_campaign --repro <combo-label>:<iteration>` (e.g.
//! `--repro Steins-GC:42`) under the same seed env. Exits non-zero on any
//! contract violation or escaped panic.
//!
//! Each stream is 40 ops long. Env knobs: `STEINS_CAMPAIGN_POINTS` (fault
//! points per combo, default 168 → 1008 total), `STEINS_CAMPAIGN_SEED`
//! (default `0x5EED_FA17`), `STEINS_THREADS`.

use steins_bench::metrics::write_metrics;
use steins_bench::{env, par};
use steins_core::config::COMBOS;
use steins_core::crash::{campaign_metrics, SWEEP_LINES};
use steins_core::{CrashSweep, Jobs, PointSelection, SweepOp, SystemConfig};
use steins_obs::MetricRegistry;

/// Length of every combo's op stream.
const OPS: usize = 40;

/// The campaign's sweep of `COMBOS[combo]`: a stream of its own seed.
fn combo_sweep(seed: u64, combo: usize) -> CrashSweep {
    let (scheme, mode) = COMBOS[combo];
    let ops = SweepOp::stream(seed ^ ((combo as u64) << 17), SWEEP_LINES, OPS);
    let cfg = SystemConfig::small_for_tests(scheme, mode);
    CrashSweep::new(cfg, ops, PointSelection::All)
}

/// Parses a `--repro` point spec `<combo-label>:<iteration>` against the
/// campaign's combo labels.
fn parse_repro(spec: &str) -> Option<(usize, usize)> {
    let (label, iter) = spec.rsplit_once(':')?;
    let iter = iter.trim().parse().ok()?;
    let combo = COMBOS
        .iter()
        .position(|(s, m)| s.label(*m) == label.trim())?;
    Some((combo, iter))
}

/// One `core.campaign.*` counter of `m`.
fn counter(m: &MetricRegistry, key: &str) -> u64 {
    m.counter(&format!("core.campaign.{key}")).unwrap_or(0)
}

/// The table's columns: points, crash, nested, attack, panics, strict
/// detections and unrecoverable data lines.
fn columns(m: &MetricRegistry) -> [u64; 7] {
    let kinds = ["points.crash", "points.nested", "points.attack"].map(|k| counter(m, k));
    [
        kinds.iter().sum(),
        kinds[0],
        kinds[1],
        kinds[2],
        counter(m, "panics"),
        counter(m, "strict.detected"),
        counter(m, "scrub.data.unrecoverable"),
    ]
}

fn main() {
    let seed = env::int("STEINS_CAMPAIGN_SEED").unwrap_or(0x5EED_FA17);
    let points = env::int("STEINS_CAMPAIGN_POINTS").unwrap_or(168);

    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--repro") {
        let spec = args.get(pos + 1).cloned().unwrap_or_default();
        let Some((combo, iter)) = parse_repro(&spec) else {
            eprintln!(
                "usage: fault_campaign --repro <combo-label>:<iteration>  (e.g. Steins-GC:42)\n\
                 combo labels: {}",
                COMBOS
                    .iter()
                    .map(|(s, m)| s.label(*m))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        };
        let (scheme, mode) = COMBOS[combo];
        println!(
            "Repro: {} iteration {iter}, seed {seed:#x}, {OPS} ops/stream",
            scheme.label(mode)
        );
        let sweep = combo_sweep(seed, combo);
        let failure = match sweep.jobs(Jobs::Seeded(seed, iter..iter + 1)) {
            Ok(jobs) => jobs.into_iter().find_map(|job| {
                println!("  job {iter}: {job:?}");
                sweep.probe(job).map(|repro| repro.to_string())
            }),
            Err(e) => Some(format!("baseline run failed: {e}")),
        };
        if let Some(failure) = failure {
            println!("  FAIL: {failure}");
            std::process::exit(1);
        }
        println!("  PASS: every point met its contract");
        return;
    }

    let threads = par::threads();
    // The worker count goes to stderr: stdout is the same at any count.
    eprintln!("fault campaign on {threads} workers");
    println!(
        "Fault campaign: seed {seed:#x}, {points} points × {} combos ({OPS} ops/stream)",
        COMBOS.len(),
    );

    let mut summary = String::from(
        "### Fault campaign\n\n\
         | combo | points | crash | nested | attack | panics | detected | unrecoverable | result |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    println!(
        "{:>10}  {:>7}  {:>6}  {:>7}  {:>7}  {:>7}  {:>9}  {:>14}  result",
        "combo", "points", "crash", "nested", "attack", "panics", "detected", "unrecoverable"
    );
    let mut total = MetricRegistry::new();
    let mut failures = Vec::new();
    for (combo, (scheme, mode)) in COMBOS.into_iter().enumerate() {
        let sweep = combo_sweep(seed, combo);
        let jobs = sweep.jobs(Jobs::Seeded(seed, 0..points));
        let report = sweep.run(jobs.clone(), threads);
        let m = campaign_metrics(jobs.as_deref().unwrap_or_default(), &report);
        let label = scheme.label(mode);
        let verdict = if report.clean() { "pass" } else { "FAIL" };
        let [n, crash, nested, attack, panics, detected, unrecoverable] = columns(&m);
        println!(
            "{label:>10}  {n:>7}  {crash:>6}  {nested:>7}  {attack:>7}  {panics:>7}  \
             {detected:>9}  {unrecoverable:>14}  {verdict}"
        );
        summary.push_str(&format!(
            "| {label} | {n} | {crash} | {nested} | {attack} | {panics} | {detected} | \
             {unrecoverable} | {verdict} |\n"
        ));
        total.merge(&m);
        failures.extend(report.failures);
    }
    let [n, crash, nested, attack, panics, detected, unrecoverable] = columns(&total);
    println!(
        "\ncampaign seed {seed:#x}: {n} points ({crash} crash, {nested} nested, {attack} attack), \
         {panics} panics, {detected} strict detections, scrub {{intact {}, \
         unrecoverable {unrecoverable}, meta-recovered {}}}",
        counter(&total, "scrub.data.intact"),
        counter(&total, "scrub.meta.recovered"),
    );
    if failures.is_empty() {
        println!("  PASS: every point met its contract");
    } else {
        println!("  FAIL: {} point(s) broke the contract", failures.len());
        for failure in &failures {
            println!("  - {failure}");
        }
    }
    summary.push_str(&format!(
        "\n**{n} total points ({nested} nested), {panics} panics, {} failures.**\n",
        failures.len()
    ));

    if let Some(path) = write_metrics("campaign", &total) {
        println!("metrics -> {}", path.display());
    }
    if let Ok(step) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(step) {
            let _ = f.write_all(summary.as_bytes());
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
