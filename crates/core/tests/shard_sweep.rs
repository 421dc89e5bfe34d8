//! Bounded sharded crash/torn/nested sweeps across every scheme.
//!
//! The unsharded sweeps in `robustness.rs` and the crate's unit tests run
//! the same [`CrashSweep`] at one shard; here it replays through 2 shards,
//! with the crash armed on one target shard at a time while its neighbor
//! keeps serving the rest of the stream. Point selections are strided
//! samples so the full matrix stays cheap; the exhaustive runs live in the
//! `crash_sweep` bench binary.

use steins_core::{CounterMode, CrashSweep, PointSelection, SchemeKind};

const TORN_MASKS: [u8; 2] = [0xFF, 0x0F];

fn sweep(scheme: SchemeKind, mode: CounterMode) {
    let sharded = |sel| CrashSweep::small(scheme, mode, 28, sel).with_shards(2);
    let sweep = sharded(PointSelection::AtMost(3));
    for p in sweep.crash_points().unwrap() {
        for mask in TORN_MASKS {
            if let Some(repro) = sweep.probe_point_torn(p, mask) {
                panic!("{repro}");
            }
        }
    }
    let nested =
        sharded(PointSelection::AtMost(2)).run_nested(&[0xFF], &[0xFF], PointSelection::AtMost(2));
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
