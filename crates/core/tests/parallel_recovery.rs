//! Cross-cutting contracts of the parallel (laned) recovery path.
//!
//! * **Worker-count determinism** — the lane count a recovery runs with is
//!   a journal-layout choice, never a semantic one: recoveries with 1 and 4
//!   lanes produce byte-identical deterministic metric exports, identical
//!   post-recovery tree state, and the same terminal journal, for all four
//!   schemes (WB refuses either way).
//! * **Journal compatibility** — an attempt interrupted under the legacy
//!   single-mark layout resumes under the laned recoverer and vice versa,
//!   with exactly one restart recorded (no spurious extras), and a
//!   *completed* journal resumes with zero restarts whatever layout wrote
//!   it.

use steins_core::recovery::journal;
use steins_core::{
    CounterMode, CrashedSystem, SchemeKind, SecureNvmSystem, ShardedEngine, SystemConfig,
};

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

/// Runs the full crash+recover scenario with `lanes` lane slots and
/// returns everything an observer could compare across lane counts.
fn recovered_state(scheme: SchemeKind, lanes: usize) -> (String, u64, steins_nvm::RecoveryJournal) {
    let crashed = dirty_system(scheme).crash().with_recovery_lanes(lanes);
    let (mut sys, report) = crashed.recover().unwrap();
    for i in 0..LINES {
        assert_eq!(sys.read(i * 64).unwrap(), expected(i), "line {i} diverged");
    }
    (
        report.metrics.to_json_deterministic().pretty(),
        report.nvm_reads,
        sys.ctrl.nvm().recovery_journal(),
    )
}

#[test]
fn worker_count_is_invisible_in_recovery_reports() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        let (m1, r1, j1) = recovered_state(scheme, 1);
        for lanes in [2usize, 4, 8] {
            let (m, r, j) = recovered_state(scheme, lanes);
            assert_eq!(m1, m, "{scheme:?}: metrics diverge at {lanes} lanes");
            assert_eq!(r1, r, "{scheme:?}: read counts diverge at {lanes} lanes");
            assert_eq!(
                j1, j,
                "{scheme:?}: terminal journal diverges at {lanes} lanes"
            );
        }
        assert_eq!(j1.lanes, 0, "terminal journals are always legacy-form");
        assert_eq!(j1.phase, journal::DONE);
    }
}

#[test]
fn wb_refuses_recovery_at_every_lane_count() {
    for lanes in [1usize, 4] {
        let crashed = dirty_system(SchemeKind::WriteBack)
            .crash()
            .with_recovery_lanes(lanes);
        assert!(
            matches!(
                crashed.recover(),
                Err(steins_core::IntegrityError::RecoveryUnsupported)
            ),
            "WB must refuse recovery with {lanes} lanes"
        );
    }
}

/// Enumerates the absolute persist points a recovery of `scheme`'s crashed
/// image fires (on a sacrificial replay of the same deterministic scenario).
fn recovery_points(scheme: SchemeKind, lanes: usize) -> Vec<u64> {
    let mut probe = dirty_system(scheme).crash().with_recovery_lanes(lanes);
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

/// Interrupts a recovery journaling with `first_lanes` lane slots at its
/// `frac`-th durable write, then finishes the job with `second_lanes` —
/// the journal written by one layout must be resumable by the other.
fn interrupt_then_resume(scheme: SchemeKind, first_lanes: usize, second_lanes: usize, frac: f64) {
    let points = recovery_points(scheme, first_lanes);
    assert!(!points.is_empty(), "{scheme:?}: recovery fires no points");
    let j = points[((points.len() - 1) as f64 * frac) as usize];

    let mut crashed = dirty_system(scheme)
        .crash()
        .with_recovery_lanes(first_lanes);
    crashed.nvm_mut().arm_crash_torn(j, 0xFF);
    let mut slot = None;
    assert_eq!(
        crashed.recover_into(&mut slot).err(),
        Some(steins_core::IntegrityError::PowerCut),
        "{scheme:?}: inner point {j} must trip"
    );
    let partial = slot.take().expect("recovery parks before durable writes");
    let interrupted = partial.ctrl.nvm().recovery_journal();
    let mut crashed2: CrashedSystem = partial.crash().with_recovery_lanes(second_lanes);
    crashed2.nvm_mut().disarm_crash();
    let was_in_progress = journal::in_progress(interrupted.phase);
    let (mut sys, report) = crashed2.recover().unwrap_or_else(|e| {
        panic!("{scheme:?}: resume {first_lanes}→{second_lanes} lanes failed: {e}")
    });
    let restarts = report
        .metrics
        .counter("core.recovery.restarts")
        .unwrap_or(0);
    if was_in_progress {
        assert_eq!(
            restarts, 1,
            "{scheme:?}: {first_lanes}→{second_lanes} lanes must record exactly one restart"
        );
    } else {
        assert_eq!(restarts, 0, "{scheme:?}: finished journals restart nothing");
    }
    for i in 0..LINES {
        assert_eq!(sys.read(i * 64).unwrap(), expected(i), "line {i} diverged");
    }
    assert_eq!(sys.ctrl.nvm().recovery_journal().phase, journal::DONE);
}

#[test]
fn legacy_journal_resumes_under_the_parallel_recoverer() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        for frac in [0.25, 0.6, 0.9] {
            interrupt_then_resume(scheme, 1, 4, frac);
        }
    }
}

#[test]
fn laned_journal_resumes_under_the_single_threaded_recoverer() {
    for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
        for frac in [0.25, 0.6, 0.9] {
            interrupt_then_resume(scheme, 4, 1, frac);
        }
    }
}

#[test]
fn completed_journals_resume_with_zero_restarts_in_either_layout() {
    for (first, second) in [(1usize, 4usize), (4, 1)] {
        let crashed = dirty_system(SchemeKind::Steins)
            .crash()
            .with_recovery_lanes(first);
        let (sys, _report) = crashed.recover().unwrap();
        // Crash again right away: the ADR journal still reads DONE from the
        // first recovery, whatever layout wrote its in-progress entries.
        let crashed2 = sys.crash().with_recovery_lanes(second);
        let (_sys, report) = crashed2.recover().unwrap();
        assert_eq!(
            report
                .metrics
                .counter("core.recovery.restarts")
                .unwrap_or(0),
            0,
            "{first}→{second} lanes: a DONE journal is not an interrupted attempt"
        );
    }
}

/// Whole-engine parallel recovery exercised through the public front-end:
/// the same crash recovered by 1 and by 4 workers yields identical
/// per-shard reports and identical modeled totals; only the fold changes.
#[test]
fn sharded_parallel_recovery_is_worker_count_deterministic() {
    let run = |workers: usize| {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let engine = ShardedEngine::new(cfg, 4);
        for i in 0..96u64 {
            engine.write(i * 64, &payload(i)).unwrap();
        }
        let images = engine.crash_all();
        let pr = engine.recover_all(images, workers).unwrap();
        for i in 0..96u64 {
            assert_eq!(engine.read(i * 64).unwrap(), payload(i));
        }
        pr
    };
    let serial = run(1);
    let quad = run(4);
    assert_eq!(serial.total_reads, quad.total_reads);
    assert!(quad.makespan_reads < serial.makespan_reads);
    let per_shard = |pr: &steins_core::ParallelRecovery| {
        pr.reports
            .iter()
            .map(|r| r.metrics.to_json_deterministic().pretty())
            .collect::<Vec<_>>()
    };
    assert_eq!(per_shard(&serial), per_shard(&quad));
}
