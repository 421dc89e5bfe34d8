//! Bounded sharded crash/torn/nested sweeps across every scheme.
//!
//! The unsharded sweeps in `crash::tests` and
//! `tests/integration_crash_sweep.rs` run the same [`CrashSweep`] at one
//! shard; here it replays through 2 shards, with the crash armed on one
//! target shard at a time while its neighbor keeps serving the rest of the
//! stream. Point selections are strided samples so the full matrix stays
//! cheap; the exhaustive runs live in the `crash_sweep` bench binary.

use steins_core::{CounterMode, CrashSweep, Jobs, PointSelection, SchemeKind};

const TORN_MASKS: [u8; 2] = [0xFF, 0x0F];

fn sweep(scheme: SchemeKind, mode: CounterMode) {
    let sharded = |sel| CrashSweep::small(scheme, mode, 28, sel).with_shards(2);
    let sweep = sharded(PointSelection::AtMost(3));
    let report = sweep.run(sweep.jobs(Jobs::Masks(&TORN_MASKS, None)), 1);
    assert!(report.clean(), "{report}");
    let sweep = sharded(PointSelection::AtMost(2));
    let nested = sweep.run(
        sweep.jobs(Jobs::Masks(
            &[0xFF],
            Some((&[0xFF], PointSelection::AtMost(2))),
        )),
        1,
    );
    assert!(nested.tested_points > 0);
    assert!(nested.clean(), "{nested}");
}

#[test]
fn wb_general_sharded_sweep_refuses_cleanly() {
    sweep(SchemeKind::WriteBack, CounterMode::General);
}

#[test]
fn asit_general_sharded_sweep_is_clean() {
    sweep(SchemeKind::Asit, CounterMode::General);
}

#[test]
fn star_general_sharded_sweep_is_clean() {
    sweep(SchemeKind::Star, CounterMode::General);
}

#[test]
fn steins_general_sharded_sweep_is_clean() {
    sweep(SchemeKind::Steins, CounterMode::General);
}

#[test]
fn steins_split_sharded_sweep_is_clean() {
    sweep(SchemeKind::Steins, CounterMode::Split);
}
