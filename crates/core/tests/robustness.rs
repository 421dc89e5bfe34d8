//! Robustness contract, end to end: the lenient scrub is *total* — no NVM
//! image, however corrupted, may panic recovery — and every randomized
//! driver is deterministic for a fixed seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use steins_core::config::COMBOS;
use steins_core::crash::{campaign_metrics, CrashedSystem, SWEEP_LINES};
use steins_core::{
    CounterMode, CrashSweep, Jobs, PointSelection, SchemeKind, SecureNvmSystem, SweepOp,
    SystemConfig,
};
use steins_metadata::MemoryLayout;
use steins_trace::rng::SmallRng;

/// Builds a crashed machine whose *entire* NVM span is overwritten with
/// seeded garbage, plus a few media faults — the worst image the scrub can
/// meet. Deterministic in `(scheme, mode, seed)`.
fn garbage_image(scheme: SchemeKind, mode: CounterMode, seed: u64) -> CrashedSystem {
    let cfg = SystemConfig::small_for_tests(scheme, mode);
    let layout = MemoryLayout::new(cfg.mode, cfg.data_lines, cfg.meta_cache.slots());
    let mut sys = SecureNvmSystem::new(cfg);
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..24u64 {
        let line = rng.next_u64() % 192;
        sys.write(line * 64, &[(i as u8) ^ 0x5A; 64]).unwrap();
    }
    let mut crashed = sys.crash();
    for line in 0..layout.end / 64 {
        let mut garbage = [0u8; 64];
        for chunk in garbage.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        crashed.poke_raw(line * 64, &garbage);
    }
    for _ in 0..4 {
        let addr = (rng.next_u64() % (layout.end / 64)) * 64;
        match rng.next_u64() % 3 {
            0 => crashed.nvm_mut().inject_stuck_line(addr, [0xEE; 64]),
            1 => crashed.nvm_mut().inject_unreadable(addr),
            _ => crashed.nvm_mut().inject_bit_flip(
                addr,
                (rng.next_u64() % 64) as usize,
                (rng.next_u64() % 8) as u8,
            ),
        }
    }
    crashed
}

#[test]
fn lenient_scrub_never_panics_on_fully_random_images() {
    for (scheme, mode) in [
        (SchemeKind::WriteBack, CounterMode::General),
        (SchemeKind::Asit, CounterMode::General),
        (SchemeKind::Star, CounterMode::General),
        (SchemeKind::Steins, CounterMode::General),
        (SchemeKind::Steins, CounterMode::Split),
    ] {
        for seed in 0..8u64 {
            // Strict recovery may (and should) reject the image, but must
            // not unwind.
            let crashed = garbage_image(scheme, mode, seed);
            let strict = catch_unwind(AssertUnwindSafe(move || crashed.recover().err()));
            assert!(
                strict.is_ok(),
                "strict recovery panicked on garbage ({scheme:?}, {mode:?}, seed {seed})"
            );

            // The lenient scrub must classify and rebuild, never unwind —
            // and reads of whatever machine it returns must fail closed,
            // not panic or hand back unauthenticated bytes.
            let crashed = garbage_image(scheme, mode, seed);
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let (sys, report) = crashed.recover_lenient();
                if let Some(mut sys) = sys {
                    for line in 0..32u64 {
                        let _ = sys.read(line * 64);
                    }
                }
                report
            }));
            let report = outcome.unwrap_or_else(|_| {
                panic!("scrub panicked on garbage ({scheme:?}, {mode:?}, seed {seed})")
            });
            assert!(
                report.data_intact + report.data_untouched + report.data_unrecoverable > 0,
                "scrub must classify the data plane even on garbage"
            );
        }
    }
}

#[test]
fn scrub_reports_are_deterministic_for_a_fixed_seed() {
    let a = garbage_image(SchemeKind::Steins, CounterMode::General, 0xD5EED).recover_lenient();
    let b = garbage_image(SchemeKind::Steins, CounterMode::General, 0xD5EED).recover_lenient();
    let (ra, rb) = (a.1, b.1);
    assert_eq!(ra.data_intact, rb.data_intact);
    assert_eq!(ra.data_untouched, rb.data_untouched);
    assert_eq!(ra.data_unrecoverable, rb.data_unrecoverable);
    assert_eq!(ra.unrecoverable_addrs, rb.unrecoverable_addrs);
    assert_eq!(ra.meta_intact, rb.meta_intact);
    assert_eq!(ra.meta_recovered, rb.meta_recovered);
    assert_eq!(ra.anchors_updated, rb.anchors_updated);
    // The exported registries must be byte-identical too (CI diffs these).
    assert_eq!(
        ra.metrics().to_json_deterministic().pretty(),
        rb.metrics().to_json_deterministic().pretty()
    );
}

/// The seeded campaign's contract on every combo (DESIGN.md §6d clause
/// 14): crash-only and nested jobs meet the sweep contract, attacked ones
/// the robustness contract, and the lists, verdicts and exported metrics
/// are the same at one and two `run` threads.
#[test]
fn fault_campaign_all_combos_clean_and_deterministic() {
    let (seed, mut points, mut detected, mut unrecoverable) = (0xCAFE, 0, 0, 0);
    for (combo, (scheme, mode)) in COMBOS.into_iter().enumerate() {
        let ops = SweepOp::stream(seed ^ ((combo as u64) << 17), SWEEP_LINES, 24);
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let sweep = CrashSweep::new(cfg, ops, PointSelection::All);
        let list = || sweep.jobs(Jobs::Seeded(seed, 0..8)).unwrap();
        let jobs = list();
        assert_eq!(jobs, list());
        let a = sweep.run(Ok(jobs.clone()), 1);
        assert!(a.clean(), "campaign failed:\n{a}");
        assert_eq!(a.attacked.unwinds, 0);
        let b = sweep.run(Ok(list()), 2);
        assert_eq!(
            campaign_metrics(&jobs, &a).to_json_deterministic().pretty(),
            campaign_metrics(&jobs, &b).to_json_deterministic().pretty()
        );
        points += a.tested_points;
        detected += a.attacked.detected;
        unrecoverable += a.attacked.data_unrecoverable;
    }
    assert_eq!(points, 48);
    assert!(detected > 0 && unrecoverable > 0, "the attacks hit nothing");
}
