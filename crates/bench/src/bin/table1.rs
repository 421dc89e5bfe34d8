//! Table I — the evaluated NVM system configuration.

use steins_core::config::HASH_LATENCY;
use steins_core::{SchemeKind, SystemConfig};
use steins_metadata::CounterMode;

fn main() {
    let cfg = SystemConfig::table1(SchemeKind::Steins, CounterMode::Split);
    let t = &cfg.nvm.timings;
    println!("== Table I: configurations of the evaluated NVM system ==\n");
    println!("Processor");
    println!(
        "  CPU                  trace-driven x86-64 model, {} GHz",
        t.freq_ghz
    );
    println!(
        "  Private L1i/d cache  {} KB, {}-way, LRU, 64 B block",
        cfg.hierarchy.l1_bytes >> 10,
        cfg.hierarchy.l1_ways
    );
    println!(
        "  Shared L2 cache      {} KB, {}-way, LRU, 64 B block",
        cfg.hierarchy.l2_bytes >> 10,
        cfg.hierarchy.l2_ways
    );
    println!(
        "  Shared L3 cache      {} MB, {}-way, LRU, 64 B block",
        cfg.hierarchy.l3_bytes >> 20,
        cfg.hierarchy.l3_ways
    );
    println!("DDR-based NVM");
    println!("  Capacity             {} GB", cfg.nvm.capacity_bytes >> 30);
    println!(
        "  PCM latency model    tRCD/tCL/tCWD/tFAW/tWTR/tWR = {}/{}/{}/{}/{}/{} ns",
        t.t_rcd_ns, t.t_cl_ns, t.t_cwd_ns, t.t_faw_ns, t.t_wtr_ns, t.t_wr_ns
    );
    println!(
        "  Write queue          {} entries",
        cfg.nvm.write_queue_entries
    );
    println!("Secure parameters");
    println!(
        "  Metadata cache       {} KB, {}-way, LRU, 64 B block",
        cfg.meta_cache.capacity_bytes >> 10,
        cfg.meta_cache.ways
    );
    let gc = steins_metadata::SitGeometry::new(CounterMode::General, cfg.nvm.lines() * 3 / 4);
    let sc = steins_metadata::SitGeometry::new(CounterMode::Split, cfg.nvm.lines() * 3 / 4);
    println!(
        "  SIT                  {}/{} levels (SC/GC, incl. root), 8-way, 64 B block",
        sc.height(),
        gc.height()
    );
    println!("  Hash latency         {} cycles", HASH_LATENCY);
    println!("  Non-volatile buffer  {} B", cfg.nv_buffer_bytes);
    println!(
        "  Offset records       {} KB region, {} lines cached in the MC",
        (cfg.meta_cache.slots() * 4) >> 10,
        cfg.record_cache_lines
    );
}
