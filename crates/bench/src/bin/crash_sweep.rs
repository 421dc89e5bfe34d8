//! Exhaustive persist-boundary crash sweep — every scheme × counter mode.
//!
//! For each supported combination, replays a fixed op stream once to
//! enumerate every durable-state transition (64 B line writes and in-place
//! ADR updates), then for every transition `k` replays the stream with the
//! NVM device armed to lose power the instant transition `k` completes,
//! runs the scheme's recovery, and verifies the full tree plus a read-back
//! of every acknowledged write. WB is swept against its contract instead:
//! it must *refuse* recovery at every point. ASIT-SC and STAR-SC are
//! skipped — those baselines are general-counter-only by design (their
//! recovery needs self-increasing parent counters).
//!
//! Phase two tears the writes: every selected 64 B line-write boundary is
//! re-crashed under partial word masks (NVM guarantees 8 B, not 64 B,
//! atomicity) — a dropped write, a one-word prefix, a half line, and two
//! sparse patterns. The contract per (point, mask): strict recovery
//! succeeds with the torn line failing closed, or the lenient scrub
//! salvages every other acknowledged line without panicking.
//!
//! Phase three nests the crashes: at selected outer boundaries (whole-line
//! and torn), the second crash is armed at a persist point *recovery
//! itself* fires — journal updates, record/shadow rewrites, scrub pokes —
//! and the doubly-crashed machine must recover again, restartably, off the
//! ADR recovery journal.
//!
//! Phase four runs the same harness at `STEINS_SHARD_SWEEP_SHARDS` shards
//! (phases one to three are its 1-shard case): the stream routes across
//! that many controllers and each crash (whole-line and torn) is armed on
//! one target shard at a time, with its neighbors required to keep serving
//! and to report pristine journals afterwards. A nested leg re-crashes each
//! target shard during its own recovery, and a worker-crash leg trips the
//! target's worker in the middle of a parallel rebuild of every shard on
//! `STEINS_RECOVERY_WORKERS` threads, which must restart only that region.
//!
//! Every row is one job list from `CrashSweep::jobs`, probed by
//! `CrashSweep::run` on the worker pool and printed from its report. Each
//! phase selects by one rule: per mask, the selection strides over the
//! points that mask can trip on — every point whole-line, only line writes
//! torn — so phase four's half-line tear lands on line writes too. The
//! worker-crash rows re-run the nested rows' jobs as worker crashes.
//!
//! Env knobs: `STEINS_SWEEP_OPS` (stream length, default 150),
//! `STEINS_TORN_POINTS` (line-write boundaries torn per combo, default 48),
//! `STEINS_NESTED_OUTER` (outer boundaries nested per combo, default 12),
//! `STEINS_NESTED_INNER` (recovery-time points per outer crash, default 6),
//! `STEINS_SHARD_SWEEP_SHARDS` (shard count of phase four, default 2),
//! `STEINS_SHARD_POINTS` (points per target shard, default 4),
//! `STEINS_SHARD_NESTED` (outer × inner nested and worker-crash points per
//! shard, default 2), `STEINS_RECOVERY_WORKERS` (worker-crash rebuild
//! threads, default 1), `STEINS_THREADS` (worker pool size).

use steins_bench::{env, par};
use steins_core::{CrashSweep, Jobs, PointSelection, SweepReport};

/// Torn-word masks swept at every selected line-write boundary: dropped,
/// one-word prefix, half-line prefix, sparse even words, sparse odd words.
const TORN_MASKS: [u8; 5] = [0x00, 0x01, 0x0F, 0x55, 0xAA];

/// Outer masks of the nested sweep: the classic whole-line crash plus a
/// half-line tear (which forces the scrub leg under a second crash).
const NESTED_OUTER_MASKS: [u8; 2] = [0xFF, 0x0F];

/// Inner masks re-armed against recovery's own writes.
const NESTED_INNER_MASKS: [u8; 2] = [0xFF, 0x0F];

/// Masks of the sharded phase: whole-line crash plus a half-line tear
/// (exercising the per-shard scrub leg).
const SHARD_MASKS: [u8; 2] = [0xFF, 0x0F];

/// Prints a combo's row from its report — jobs tested, failures, verdict —
/// plus its first three repros. Returns whether every job held the
/// contract.
fn print_row(label: &str, report: &SweepReport, [clean, violated]: [&str; 2]) -> bool {
    let verdict = if report.clean() { clean } else { violated };
    let (tested, failed) = (report.tested_points, report.failures.len());
    println!("{label:>10}  {tested:>8}  {failed:>8}  {verdict}");
    for repro in report.failures.iter().take(3) {
        println!("{repro}");
    }
    report.clean()
}

fn main() {
    let ops = env::int("STEINS_SWEEP_OPS").unwrap_or(150);
    let torn_points = env::int("STEINS_TORN_POINTS").unwrap_or(48);
    let nested_outer = env::int("STEINS_NESTED_OUTER").unwrap_or(12);
    let nested_inner = env::int("STEINS_NESTED_INNER").unwrap_or(6);
    let shard_shards = env::int("STEINS_SHARD_SWEEP_SHARDS").unwrap_or(2);
    let shard_points = env::int("STEINS_SHARD_POINTS").unwrap_or(4);
    let shard_nested = env::int("STEINS_SHARD_NESTED").unwrap_or(2);
    let workers = env::int("STEINS_RECOVERY_WORKERS").unwrap_or(1).max(1);
    let threads = par::threads();
    let combos = steins_core::config::COMBOS;
    let bounded =
        |scheme, mode, sel| CrashSweep::small(scheme, mode, ops, PointSelection::AtMost(sel));
    let mut all_clean = true;

    // The worker count goes to stderr: stdout is the same at any count.
    eprintln!("crash sweep on {threads} workers");
    println!("Crash sweep: {ops}-op stream, every persist point");
    println!("{:>10}  {:>8}  {:>8}  result", "combo", "points", "failed");
    for (scheme, mode) in combos {
        let sweep = CrashSweep::small(scheme, mode, ops, PointSelection::All);
        all_clean &= print_row(
            &scheme.label(mode),
            &sweep.run(sweep.jobs(Jobs::Masks(&[0xFF], None)), threads),
            ["all points recovered & verified", "UNRECOVERABLE POINTS"],
        );
    }
    println!("{:>10}  skipped: general-counter-only baseline", "Asit-SC");
    println!("{:>10}  skipped: general-counter-only baseline", "Star-SC");

    println!(
        "\nTorn-write sweep: {} masks × ≤{torn_points} line-write boundaries per combo",
        TORN_MASKS.len()
    );
    println!("{:>10}  {:>8}  {:>8}  result", "combo", "torn", "failed");
    for (scheme, mode) in combos {
        let sweep = bounded(scheme, mode, torn_points);
        all_clean &= print_row(
            &scheme.label(mode),
            &sweep.run(sweep.jobs(Jobs::Masks(&TORN_MASKS, None)), threads),
            [
                "all torn points recovered or scrubbed",
                "TORN CONTRACT VIOLATIONS",
            ],
        );
    }

    println!(
        "\nNested sweep: crash during recovery, ≤{nested_outer} outer × ≤{nested_inner} \
         recovery-time points per combo, outer masks {NESTED_OUTER_MASKS:02x?}, \
         inner masks {NESTED_INNER_MASKS:02x?}"
    );
    println!("{:>10}  {:>8}  {:>8}  result", "combo", "nested", "failed");
    let inner = Some((
        &NESTED_INNER_MASKS[..],
        PointSelection::AtMost(nested_inner),
    ));
    for (scheme, mode) in combos {
        let sweep = bounded(scheme, mode, nested_outer);
        all_clean &= print_row(
            &scheme.label(mode),
            &sweep.run(sweep.jobs(Jobs::Masks(&NESTED_OUTER_MASKS, inner)), threads),
            [
                "all nested points re-recovered",
                "NESTED CONTRACT VIOLATIONS",
            ],
        );
    }

    println!(
        "\nSharded sweep: {shard_shards} shards, crash+torn ≤{shard_points} points per target \
         shard (masks {SHARD_MASKS:02x?}), nested ≤{shard_nested}×{shard_nested}"
    );
    println!("{:>10}  {:>8}  {:>8}  result", "combo", "tested", "failed");
    const SHARDED_VIOLATED: &str = "SHARDED CONTRACT VIOLATIONS";
    let inner = Some((&[0xFF][..], PointSelection::AtMost(shard_nested)));
    let mut worker_rows = Vec::new();
    for (scheme, mode) in combos {
        let label = scheme.label(mode);
        let sweep = bounded(scheme, mode, shard_points).with_shards(shard_shards);
        all_clean &= print_row(
            &label,
            &sweep.run(sweep.jobs(Jobs::Masks(&SHARD_MASKS, None)), threads),
            [
                "all shards recovered, neighbors kept serving",
                SHARDED_VIOLATED,
            ],
        );
        let sweep = bounded(scheme, mode, shard_nested).with_shards(shard_shards);
        let nested = sweep.jobs(Jobs::Masks(&[0xFF], inner));
        // The worker-crash leg re-tags the same whole-line nested jobs.
        let worker = nested.clone().map(|jobs| {
            jobs.into_iter()
                .map(|job| job.on_workers(workers))
                .collect()
        });
        all_clean &= print_row(
            &format!("{label}*"),
            &sweep.run(nested, threads),
            [
                "all shards re-recovered, neighbors pristine",
                SHARDED_VIOLATED,
            ],
        );
        worker_rows.push((format!("{label}+"), sweep.run(worker, threads)));
    }
    let worker_clean =
        format!("only the crashed worker's region restarted ({workers}-worker rebuild)");
    for (label, report) in &worker_rows {
        all_clean &= print_row(
            label,
            report,
            [&worker_clean, "WORKER-CRASH CONTRACT VIOLATIONS"],
        );
    }
    println!("{:>10}  (* = nested crash-during-recovery leg)", "");

    if !all_clean {
        std::process::exit(1);
    }
}
