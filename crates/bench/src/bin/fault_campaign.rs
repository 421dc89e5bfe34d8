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
//! Fully deterministic for a fixed seed: any failure reproduces from the
//! `(seed, combo, iteration)` tuple in its repro line — replay exactly one
//! point with `fault_campaign --repro <combo-label>:<iteration>` (e.g.
//! `--repro Steins-GC:42`) under the same seed/ops env. Exits non-zero on
//! any contract violation or escaped panic.
//!
//! Each stream is 40 ops long. Env knobs: `STEINS_CAMPAIGN_POINTS` (fault
//! points per combo, default 168 → 1008 total), `STEINS_CAMPAIGN_SEED`
//! (default `0x5EED_FA17`), `STEINS_THREADS`.

use steins_bench::metrics::write_metrics;
use steins_bench::{env, par};
use steins_core::campaign::{CampaignConfig, CampaignReport, FaultCampaign, COMBOS};

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

fn main() {
    let cfg = CampaignConfig {
        seed: env::int("STEINS_CAMPAIGN_SEED").unwrap_or(0x5EED_FA17),
        points_per_combo: env::int("STEINS_CAMPAIGN_POINTS").unwrap_or(168),
        ops: 40,
    };

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
            "Repro: {} iteration {iter}, seed {:#x}, {} ops/stream",
            scheme.label(mode),
            cfg.seed,
            cfg.ops
        );
        let r = FaultCampaign::new(cfg)
            .run_point(combo, iter)
            .expect("combo index in range");
        println!("{r}");
        std::process::exit(if r.clean() { 0 } else { 1 });
    }

    println!(
        "Fault campaign: seed {:#x}, {} points × {} combos ({} ops/stream), {} workers",
        cfg.seed,
        cfg.points_per_combo,
        COMBOS.len(),
        cfg.ops,
        par::threads()
    );

    let campaign = FaultCampaign::new(cfg.clone());
    let reports: Vec<(String, CampaignReport)> = par::map(
        COMBOS.iter().enumerate().collect::<Vec<_>>(),
        |(ci, (scheme, mode))| (scheme.label(*mode), campaign.run_combo(ci, *scheme, *mode)),
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
    let mut merged = CampaignReport {
        seed: cfg.seed,
        ..CampaignReport::default()
    };
    for (label, r) in &reports {
        let verdict = if r.clean() { "pass" } else { "FAIL" };
        println!(
            "{:>10}  {:>7}  {:>6}  {:>7}  {:>7}  {:>7}  {:>9}  {:>14}  {verdict}",
            label,
            r.points(),
            r.crash_points,
            r.nested_points,
            r.attack_points,
            r.panics,
            r.strict_detected,
            r.data_unrecoverable
        );
        summary.push_str(&format!(
            "| {label} | {} | {} | {} | {} | {} | {} | {} | {verdict} |\n",
            r.points(),
            r.crash_points,
            r.nested_points,
            r.attack_points,
            r.panics,
            r.strict_detected,
            r.data_unrecoverable
        ));
        merged.merge(r);
    }
    println!("\n{merged}");
    summary.push_str(&format!(
        "\n**{} total points ({} nested), {} panics, {} failures.**\n",
        merged.points(),
        merged.nested_points,
        merged.panics,
        merged.failures.len()
    ));

    if let Some(path) = write_metrics("campaign", &merged.metrics()) {
        println!("metrics -> {}", path.display());
    }
    if let Ok(step) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(step) {
            let _ = f.write_all(summary.as_bytes());
        }
    }
    if !merged.clean() {
        std::process::exit(1);
    }
}
