//! Write-endurance attribution: where each scheme's NVM writes land.
//!
//! NVM cells wear out; a recovery scheme that doubles writes (ASIT) or
//! hammers one small region (STAR's bitmap, Steins' records) concentrates
//! wear. This experiment runs the same workload under every scheme and
//! attributes every timed NVM write to its region — data, SIT metadata,
//! offset records, shadow table, or bitmap — plus the single hottest line.
//!
//! The counts come from the device's persist-point journal, switched on
//! before the run: each timed write is one line-write point at its
//! address (the run traces no pokes), folded here into writes per line.

use std::collections::BTreeMap;
use steins_core::{SchemeKind, SecureNvmSystem, SystemConfig};
use steins_metadata::CounterMode;
use steins_nvm::PersistKind;
use steins_trace::{Workload, WorkloadKind};

fn main() {
    let ops: u64 = steins_bench::env::int("STEINS_OPS").unwrap_or(200_000);
    println!("== Write-endurance attribution ({ops} ops of phash) ==\n");
    println!(
        "{:<11}{:>10}{:>10}{:>10}{:>10}{:>10}{:>12}{:>10}",
        "scheme", "data", "SIT", "records", "shadow", "bitmap", "total", "max/line"
    );
    for (scheme, mode) in [
        (SchemeKind::WriteBack, CounterMode::General),
        (SchemeKind::Asit, CounterMode::General),
        (SchemeKind::Star, CounterMode::General),
        (SchemeKind::Steins, CounterMode::General),
        (SchemeKind::Steins, CounterMode::Split),
    ] {
        let cfg = SystemConfig::sweep(scheme, mode);
        let mut sys = SecureNvmSystem::new(cfg);
        sys.ctrl.nvm_mut().journal_points(true);
        let wl = Workload::new(WorkloadKind::PHash, ops, 42);
        sys.run_trace(wl.generate()).expect("clean run");
        let mut writes: BTreeMap<u64, u64> = BTreeMap::new();
        for p in sys.ctrl.nvm().point_journal() {
            if p.kind == PersistKind::LineWrite {
                *writes.entry(p.addr).or_default() += 1;
            }
        }
        let in_range = |base, end| writes.range(base..end).map(|(_, n)| n).sum::<u64>();
        let layout = sys.ctrl.layout();
        println!(
            "{:<11}{:>10}{:>10}{:>10}{:>10}{:>10}{:>12}{:>10}",
            scheme.label(mode),
            in_range(layout.data_base, layout.mac_base),
            in_range(layout.metadata_base, layout.records_base),
            in_range(layout.records_base, layout.shadow_base),
            in_range(layout.shadow_base, layout.bitmap_base),
            in_range(layout.bitmap_base, layout.end),
            writes.values().sum::<u64>(),
            writes.values().max().expect("writes happened")
        );
    }
    println!("\nReading the table: ASIT's shadow column ≈ its data+SIT columns");
    println!("combined (the 2× of Fig. 13); STAR's bitmap column is its");
    println!("write-through tracking; Steins' record column is the small");
    println!("ADR-buffered residue the paper's design aims for.");
}
