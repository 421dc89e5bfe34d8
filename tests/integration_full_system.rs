//! Cross-crate integration: full-system runs across every scheme × counter
//! mode, checking functional equivalence and report sanity.

use steins::core::config::COMBOS;
use steins::prelude::*;
use steins::trace::{Workload, WorkloadKind};

fn run_workload(scheme: SchemeKind, mode: CounterMode, kind: WorkloadKind, ops: u64) -> RunReport {
    let cfg = SystemConfig::small_for_tests(scheme, mode);
    let data_lines = cfg.data_lines;
    let mut sys = SecureNvmSystem::new(cfg);
    let mut wl = Workload::new(kind, ops, 99);
    wl.footprint_lines = wl.footprint_lines.min(data_lines);
    sys.run_trace(wl.generate())
        .expect("clean run is attack-free")
}

#[test]
fn every_scheme_runs_every_workload_class() {
    for (scheme, mode) in COMBOS {
        for kind in [WorkloadKind::Lbm, WorkloadKind::Milc, WorkloadKind::PHash] {
            let report = run_workload(scheme, mode, kind, 3_000);
            assert!(report.cycles > 0, "{scheme:?}/{mode:?}/{kind:?}");
            assert!(report.instructions >= 3_000);
            assert!(report.energy_pj > 0.0);
        }
    }
}

#[test]
fn user_visible_data_identical_across_schemes() {
    // The recovery scheme must never change what the application reads.
    let mut final_reads: Vec<Vec<u8>> = Vec::new();
    for (scheme, mode) in COMBOS {
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let mut sys = SecureNvmSystem::new(cfg);
        for i in 0..500u64 {
            let mut data = [0u8; 64];
            data[..8].copy_from_slice(&(i * 3).to_le_bytes());
            sys.write((i * 11 % 1024) * 64, &data).unwrap();
        }
        let mut reads = Vec::new();
        for i in (0..1024u64).step_by(13) {
            reads.extend_from_slice(&sys.read(i * 64).unwrap());
        }
        final_reads.push(reads);
    }
    for pair in final_reads.windows(2) {
        assert_eq!(pair[0], pair[1], "schemes disagree on user data");
    }
}

#[test]
fn write_traffic_ordering_matches_paper() {
    // Fig. 13's ordering: WB ≤ Steins < STAR < ASIT on a write-heavy
    // random workload.
    let writes = |scheme| {
        run_workload(scheme, CounterMode::General, WorkloadKind::PHash, 4_000)
            .nvm
            .writes
    };
    let wb = writes(SchemeKind::WriteBack);
    let steins = writes(SchemeKind::Steins);
    let star = writes(SchemeKind::Star);
    let asit = writes(SchemeKind::Asit);
    assert!(wb <= steins, "wb={wb} steins={steins}");
    assert!(steins < star, "steins={steins} star={star}");
    assert!(star < asit + asit / 2, "star={star} asit={asit}");
    assert!(
        asit as f64 / wb as f64 > 1.6,
        "ASIT must roughly double traffic: {asit} vs {wb}"
    );
}

#[test]
fn execution_time_ordering_matches_paper() {
    // Fig. 9's ordering: WB ≤ Steins < STAR ≤ ASIT.
    let cycles =
        |scheme| run_workload(scheme, CounterMode::General, WorkloadKind::PHash, 4_000).cycles;
    let wb = cycles(SchemeKind::WriteBack);
    let steins = cycles(SchemeKind::Steins);
    let star = cycles(SchemeKind::Star);
    let asit = cycles(SchemeKind::Asit);
    assert!(wb <= steins);
    assert!(steins < star, "steins={steins} star={star}");
    assert!(steins < asit, "steins={steins} asit={asit}");
}

#[test]
fn split_counters_beat_general_counters() {
    // §IV-A: the split-counter leaf covers 8× the data, raising metadata
    // hit rates — Steins-SC must beat Steins-GC on execution time.
    let gc = run_workload(
        SchemeKind::Steins,
        CounterMode::General,
        WorkloadKind::Milc,
        6_000,
    );
    let sc = run_workload(
        SchemeKind::Steins,
        CounterMode::Split,
        WorkloadKind::Milc,
        6_000,
    );
    assert!(
        sc.cycles < gc.cycles,
        "SC ({}) should beat GC ({})",
        sc.cycles,
        gc.cycles
    );
    assert!(sc.meta_hit_rate() > gc.meta_hit_rate());
}

#[test]
fn reports_are_internally_consistent() {
    let r = run_workload(
        SchemeKind::Steins,
        CounterMode::Split,
        WorkloadKind::PTree,
        3_000,
    );
    assert_eq!(r.label, "Steins-SC");
    assert!(r.seconds > 0.0);
    assert!(r.nvm.reads > 0);
    assert_eq!(r.energy_events.nvm_writes, r.nvm.writes);
    assert!(r.meta_hits + r.meta_misses > 0);
    assert!(r.write_latency > 0.0);
    assert!(r.read_latency > 0.0);
}
