//! Cross-cutting contracts of recovery across worker counts and restarts.
//!
//! * **Worker-count determinism** — the sharded engine recovers whole
//!   shards on `workers` threads, and each shard recovers serially, so the
//!   per-shard reports, read counts and terminal ADR journals are identical
//!   at every worker count, for all four schemes (WB refuses at every
//!   count).
//! * **Journal resume** — a recovery interrupted at any of its persist
//!   points resumes off its one-mark ADR journal with exactly one restart
//!   recorded (no spurious extras), and a *completed* journal resumes with
//!   zero restarts.
//! * **Resume across worker counts** — a shard's journal does not depend on
//!   how many workers rebuilt the engine: a shard interrupted under a
//!   serial engine recovery resumes under a parallel one and vice versa,
//!   with exactly one restart on that shard and none on its neighbors.

use steins_core::recovery::journal;
use steins_core::{
    par, CounterMode, IntegrityError, ParallelRecovery, SchemeKind, SecureNvmSystem, ShardedEngine,
    SystemConfig,
};
use steins_nvm::RecoveryJournal;

const LINES: u64 = 48;

fn payload(i: u64) -> [u8; 64] {
    let mut d = [0u8; 64];
    d[0] = i as u8;
    d[1] = (i >> 8) as u8;
    d[63] = !(i as u8);
    d
}

fn dirty_system(scheme: SchemeKind) -> SecureNvmSystem {
    let cfg = SystemConfig::small_for_tests(scheme, CounterMode::General);
    let mut sys = SecureNvmSystem::new(cfg);
    for i in 0..LINES {
        sys.write(i * 64, &payload(i)).unwrap();
    }
    // A second pass over a prefix leaves a mix of clean and re-dirtied
    // metadata, which is what makes the rebuild non-trivial.
    for i in 0..LINES / 3 {
        sys.write(i * 64, &payload(i ^ 0x55)).unwrap();
    }
    sys
}

fn expected(i: u64) -> [u8; 64] {
    if i < LINES / 3 {
        payload(i ^ 0x55)
    } else {
        payload(i)
    }
}

const SHARDS: usize = 4;

/// The shard whose recovery the cross-worker-count resume tests interrupt.
const TARGET: usize = 1;

/// A [`SHARDS`]-shard engine written like [`dirty_system`].
fn dirty_engine(scheme: SchemeKind) -> ShardedEngine {
    let cfg = SystemConfig::small_for_tests(scheme, CounterMode::General);
    let engine = ShardedEngine::new(cfg, SHARDS);
    for i in 0..LINES {
        engine.write(i * 64, &payload(i)).unwrap();
    }
    for i in 0..LINES / 3 {
        engine.write(i * 64, &payload(i ^ 0x55)).unwrap();
    }
    engine
}

/// Reads every line back through the engine and returns each shard's
/// terminal ADR journal.
fn read_back(engine: &ShardedEngine) -> Vec<RecoveryJournal> {
    for i in 0..LINES {
        assert_eq!(
            engine.read(i * 64).unwrap(),
            expected(i),
            "line {i} diverged"
        );
    }
    (0..engine.shards())
        .map(|s| engine.with_shard(s, |sys| sys.ctrl.nvm().recovery_journal()))
        .collect()
}

/// A [`dirty_engine`] crashed whole, recovered on `workers` threads and
/// read back; returns the recovery and each shard's terminal ADR journal.
fn sharded_recovery(
    scheme: SchemeKind,
    workers: usize,
) -> (ParallelRecovery, Vec<RecoveryJournal>) {
    let engine = dirty_engine(scheme);
    let pr = engine.recover_all(engine.crash_all(), workers).unwrap();
    let journals = read_back(&engine);
    (pr, journals)
}

fn per_shard_metrics(pr: &ParallelRecovery) -> Vec<String> {
    pr.reports
        .iter()
        .map(|r| r.metrics.to_json_deterministic().pretty())
        .collect()
}

#[test]
fn worker_count_is_invisible_in_recovery_reports() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        let (pr1, j1) = sharded_recovery(scheme, 1);
        for workers in [2usize, 4, 8] {
            let (pr, j) = sharded_recovery(scheme, workers);
            assert_eq!(
                per_shard_metrics(&pr1),
                per_shard_metrics(&pr),
                "{scheme:?}: metrics diverge at {workers} workers"
            );
            assert_eq!(
                pr1.total_reads, pr.total_reads,
                "{scheme:?}: read counts diverge at {workers} workers"
            );
            assert_eq!(
                j1, j,
                "{scheme:?}: terminal journals diverge at {workers} workers"
            );
        }
        assert!(j1.iter().all(|j| j.phase == journal::DONE), "{j1:?}");
    }
}

#[test]
fn wb_refuses_recovery_at_every_lane_count() {
    assert!(matches!(
        dirty_system(SchemeKind::WriteBack).crash().recover(),
        Err(IntegrityError::RecoveryUnsupported)
    ));
    for workers in [1usize, 4] {
        let cfg = SystemConfig::small_for_tests(SchemeKind::WriteBack, CounterMode::General);
        let engine = ShardedEngine::new(cfg, 2);
        engine.write(0, &payload(0)).unwrap();
        assert!(
            matches!(
                engine.recover_all(engine.crash_all(), workers),
                Err(IntegrityError::RecoveryUnsupported)
            ),
            "WB must refuse recovery with {workers} workers"
        );
    }
}

/// Enumerates the absolute persist points a recovery of `scheme`'s crashed
/// image fires (on a sacrificial replay of the same deterministic scenario).
fn recovery_points(scheme: SchemeKind) -> Vec<u64> {
    let mut probe = dirty_system(scheme).crash();
    probe.nvm_mut().journal_points(true);
    let mut slot = None;
    probe.recover_into(&mut slot).unwrap();
    let sys = slot.expect("recovery parks the rebuilt system");
    sys.ctrl
        .nvm()
        .point_journal()
        .iter()
        .map(|p| p.seq)
        .collect()
}

/// Every point but the last (the `DONE` write) leaves an in-progress
/// journal, so resuming at 25/60/90 % of the points must record exactly one
/// restart, end `DONE`, and read every line back.
#[test]
fn interrupted_recovery_resumes_with_exactly_one_restart() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        let points = recovery_points(scheme);
        assert!(
            points.len() > 1,
            "{scheme:?}: recovery fires too few points"
        );
        for frac in [0.25, 0.6, 0.9] {
            let j = points[((points.len() - 1) as f64 * frac) as usize];
            let mut crashed = dirty_system(scheme).crash();
            crashed.nvm_mut().arm_crash_torn(j, 0xFF);
            let mut slot = None;
            assert_eq!(
                crashed.recover_into(&mut slot).err(),
                Some(IntegrityError::PowerCut),
                "{scheme:?}: inner point {j} must trip"
            );
            let partial = slot.take().expect("recovery parks before durable writes");
            let interrupted = partial.ctrl.nvm().recovery_journal();
            assert!(
                journal::in_progress(interrupted.phase),
                "{scheme:?}: point {j} left {interrupted:?}"
            );
            let mut crashed2 = partial.crash();
            crashed2.nvm_mut().disarm_crash();
            let (mut sys, report) = crashed2
                .recover()
                .unwrap_or_else(|e| panic!("{scheme:?}: resume after point {j} failed: {e}"));
            assert_eq!(
                report.metrics.counter("core.recovery.restarts"),
                Some(1),
                "{scheme:?}: point {j} must record exactly one restart"
            );
            for i in 0..LINES {
                assert_eq!(sys.read(i * 64).unwrap(), expected(i), "line {i} diverged");
            }
            assert_eq!(sys.ctrl.nvm().recovery_journal().phase, journal::DONE);
        }
    }
}

/// Enumerates the absolute persist points shard [`TARGET`]'s recovery fires
/// (on a sacrificial replay of the same deterministic engine).
fn shard_recovery_points(scheme: SchemeKind) -> Vec<u64> {
    let engine = dirty_engine(scheme);
    let mut probe = engine.crash_shard(TARGET);
    probe.nvm_mut().journal_points(true);
    let mut slot = None;
    probe.recover_into(&mut slot).unwrap();
    let sys = slot.expect("recovery parks the rebuilt system");
    sys.ctrl
        .nvm()
        .point_journal()
        .iter()
        .map(|p| p.seq)
        .collect()
}

/// Crashes a [`dirty_engine`] whole and rebuilds it on `first_workers`
/// threads with a second crash armed at the `frac`-th persist point of
/// shard [`TARGET`]'s recovery; then crashes the engine again and finishes
/// the job with [`ShardedEngine::recover_all`] on `second_workers` threads.
/// The first attempt runs the regions by hand with `recover_into`, as
/// `recover_all` does with `recover`, so the interrupted shard keeps its
/// partial rebuild. The resume must record exactly one restart on the
/// target, zero on every shard that finished the first time, end `DONE`
/// everywhere and read every line back.
fn interrupt_then_resume(
    scheme: SchemeKind,
    first_workers: usize,
    second_workers: usize,
    frac: f64,
) {
    let points = shard_recovery_points(scheme);
    assert!(
        points.len() > 1,
        "{scheme:?}: shard {TARGET} recovery fires too few points"
    );
    let j = points[((points.len() - 1) as f64 * frac) as usize];

    let engine = dirty_engine(scheme);
    let mut images = engine.crash_all();
    images[TARGET].nvm_mut().arm_crash_torn(j, 0xFF);
    let first = par::run_regions(first_workers, images, |img| {
        let mut slot = None;
        (img.recover_into(&mut slot), slot)
    });
    let mut partial = None;
    for (s, (result, sys)) in first.into_iter().enumerate() {
        let sys = sys.expect("recovery parks before durable writes");
        if s == TARGET {
            assert_eq!(
                result.err(),
                Some(IntegrityError::PowerCut),
                "{scheme:?}: inner point {j} must trip"
            );
            let interrupted = sys.ctrl.nvm().recovery_journal();
            assert!(
                journal::in_progress(interrupted.phase),
                "{scheme:?}: point {j} left {interrupted:?}"
            );
            partial = Some(sys);
        } else {
            let report = result
                .unwrap_or_else(|e| panic!("{scheme:?}: uninterrupted shard {s} failed: {e}"));
            assert_eq!(report.metrics.counter("core.recovery.restarts"), Some(0));
            engine.put_shard(s, sys);
        }
    }

    let mut partial = partial.expect("the target region ran").crash();
    partial.nvm_mut().disarm_crash();
    let mut partial = Some(partial);
    let images = (0..SHARDS)
        .map(|s| {
            if s == TARGET {
                partial.take().expect("one target image")
            } else {
                engine.crash_shard(s)
            }
        })
        .collect();
    let pr = engine
        .recover_all(images, second_workers)
        .unwrap_or_else(|e| {
            panic!("{scheme:?}: resume {first_workers}→{second_workers} workers failed: {e}")
        });
    for (s, report) in pr.reports.iter().enumerate() {
        assert_eq!(
            report.metrics.counter("core.recovery.restarts"),
            Some(u64::from(s == TARGET)),
            "{scheme:?}: shard {s} after {first_workers}→{second_workers} workers, point {j}"
        );
    }
    let journals = read_back(&engine);
    assert!(
        journals.iter().all(|j| j.phase == journal::DONE),
        "{journals:?}"
    );
}

/// A shard interrupted while the engine recovers serially (the legacy,
/// single-lane path) resumes under the 4-worker parallel recoverer.
#[test]
fn legacy_journal_resumes_under_the_parallel_recoverer() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        for frac in [0.25, 0.6, 0.9] {
            interrupt_then_resume(scheme, 1, 4, frac);
        }
    }
}

/// A shard interrupted while 4 workers (lanes) rebuild the engine resumes
/// under the serial recoverer.
#[test]
fn laned_journal_resumes_under_the_single_threaded_recoverer() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        for frac in [0.25, 0.6, 0.9] {
            interrupt_then_resume(scheme, 4, 1, frac);
        }
    }
}

/// A journal that reads `DONE` (strict recovery's or the scrub's) is not an
/// interrupted attempt, whichever recoverer wrote it.
#[test]
fn completed_journals_resume_with_zero_restarts() {
    let (strict, _) = dirty_system(SchemeKind::Steins).crash().recover().unwrap();
    let (scrubbed, _) = dirty_system(SchemeKind::Steins).crash().recover_lenient();
    for sys in [strict, scrubbed.expect("Steins rebuilds")] {
        let done = sys.ctrl.nvm().recovery_journal();
        assert_eq!(done.phase, journal::DONE);
        // Crash again right away: the ADR journal still reads DONE.
        let (_sys, report) = sys.crash().recover().unwrap();
        assert_eq!(
            report.metrics.counter("core.recovery.restarts"),
            Some(0),
            "a DONE journal (hwm {}) is not an interrupted attempt",
            done.hwm
        );
    }
}

/// Whole-engine parallel recovery exercised through the public front-end:
/// the same crash recovered by 1 and by 4 workers yields identical
/// per-shard reports, identical terminal shard journals and identical
/// modeled totals; only the fold changes.
#[test]
fn sharded_parallel_recovery_is_worker_count_deterministic() {
    let (serial, serial_journals) = sharded_recovery(SchemeKind::Steins, 1);
    let (quad, quad_journals) = sharded_recovery(SchemeKind::Steins, 4);
    assert_eq!(serial.total_reads, quad.total_reads);
    assert!(quad.makespan_reads < serial.makespan_reads);
    assert_eq!(per_shard_metrics(&serial), per_shard_metrics(&quad));
    assert_eq!(serial_journals, quad_journals);
}
