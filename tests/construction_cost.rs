//! Pins what it costs to build a machine. Every benchmark session, shard
//! and crash builds a fresh `SecureNvmSystem`, so its set-up allocations
//! bound how large a sweep or test we can afford. A recovery builds none:
//! the crash built the machine it revives into, after freeing the old
//! volatile state, and Steins recovery holds no copy of the nodes it
//! rebuilds. It also pins the bytes the NVM device holds per line,
//! the largest item in a large run's peak memory, what a line stored by
//! `run_trace` costs with the ground truth beside it, and what a Zipf
//! sampler costs per item.
//!
//! A counting global allocator tallies allocation calls and live bytes per
//! thread, so the test harness's other threads never leak into a
//! measurement. It also splits the live bytes by size class, so the
//! ignored `heap_profile` tests can say what a peak is made of.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use steins::cache::{CacheHierarchy, HierarchyConfig};
use steins::core::engine::synth_data;
use steins::metadata::cache::MetaCacheConfig;
use steins::metadata::{MetadataCache, SitGeometry};
use steins::nvm::SparseStore;
use steins::prelude::*;
use steins::trace::{OpKind, TraceOp, Zipf};
use steins_bench::ladder::{dirty_all_shards, rung_config};
use steins_obs::Histogram;

struct Counting;

/// Size classes: class `c` holds blocks of 2^(c−1) + 1 to 2^c bytes.
const CLASSES: usize = 48;

/// The size class of a `bytes`-long block.
fn class(bytes: usize) -> usize {
    (usize::BITS - bytes.saturating_sub(1).leading_zeros()) as usize
}

/// One thread's allocator traffic. `live` is signed: a thread may free
/// what another allocated.
struct Tally {
    calls: u64,
    live: i64,
    peak: i64,
    /// Live bytes per size class.
    class_live: [i64; CLASSES],
    /// `class_live` when `peak` was last reached.
    class_at_peak: [i64; CLASSES],
}

impl Tally {
    /// Restarts the peak from what is live now.
    fn reset_peak(&mut self) {
        self.peak = self.live;
        self.class_at_peak = self.class_live;
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = const {
        RefCell::new(Tally {
            calls: 0,
            live: 0,
            peak: 0,
            class_live: [0; CLASSES],
            class_at_peak: [0; CLASSES],
        })
    };
}

/// Files `calls` allocation calls that freed a block of `freed` bytes and
/// allocated one of `allocated` (0 for none).
fn record(calls: u64, freed: usize, allocated: usize) {
    // `try_with`: a thread's last frees and allocations may run after its
    // locals are gone.
    let _ = TALLY.try_with(|t| {
        let mut v = t.borrow_mut();
        v.calls += calls;
        v.class_live[class(freed)] -= freed as i64;
        v.class_live[class(allocated)] += allocated as i64;
        v.live += allocated as i64 - freed as i64;
        if v.live > v.peak {
            v.reset_peak();
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, 0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, 0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size(), 0);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = TALLY.with(|t| t.borrow().calls);
    let out = f();
    (TALLY.with(|t| t.borrow().calls) - before, out)
}

/// The most bytes live at once on this thread while `f` runs, above what
/// was live when it started, and its result.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let start = TALLY.with(|t| {
        let mut v = t.borrow_mut();
        v.reset_peak();
        v.live
    });
    let out = f();
    (TALLY.with(|t| t.borrow().peak) - start, out)
}

/// A figure-sweep machine takes 16 allocations: one slab per cache, and
/// none for an empty histogram. The bound leaves room for a few more, but
/// not for one per CPU-cache set (5,376 at the Table I geometry).
const SWEEP_MACHINE_ALLOCS: u64 = 32;

#[test]
fn a_sweep_machine_is_built_from_a_few_allocations() {
    let cfg = SystemConfig::sweep(SchemeKind::Steins, CounterMode::General);
    let (n, sys) = allocations(|| SecureNvmSystem::new(cfg));
    assert!(
        n <= SWEEP_MACHINE_ALLOCS,
        "building a sweep machine took {n} allocations (bound {SWEEP_MACHINE_ALLOCS})"
    );
    drop(sys);
}

#[test]
fn empty_histograms_allocate_nothing() {
    let (n, _) = allocations(|| {
        let mut a = Histogram::new();
        let b = a.clone();
        a.merge(&b);
        let c = Histogram::default();
        a.merge(&c);
        (a, b, c)
    });
    assert_eq!(n, 0, "creating, cloning and merging empty histograms");
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    // Guards the tests here against a counter that never moves.
    let (n, v) = allocations(|| vec![1u8; 64]);
    assert_eq!((n, v.len()), (1, 64));
    let (peak, v) = peak_bytes(|| {
        drop(vec![0u8; 4096]);
        vec![1u8; 64]
    });
    assert_eq!((peak, v.len()), (4096, 64));
}

#[test]
fn an_empty_line_store_allocates_nothing() {
    let (n, _) = allocations(SparseStore::new);
    assert_eq!(n, 0, "SparseStore::new");
}

/// The most bytes live at once while a machine of `cfg` is built.
fn machine_bytes(cfg: &SystemConfig) -> i64 {
    let (bytes, sys) = peak_bytes(|| SecureNvmSystem::new(cfg.clone()));
    drop(sys);
    bytes
}

/// A CPU cache way is one 8 B tag word (tag, valid and dirty bits, LRU
/// rank), and a metadata-cache slot is one 8 B tag word beside its node's
/// eight counter words and HMAC: a Table I hierarchy allocates 8 B per
/// line, where a way with a 64-bit LRU stamp took 24 B, and a Table I
/// metadata cache 80 B per slot in either counter mode, where a slot
/// holding an 88 B `SitNode` took 96 B, and one with a stamp 112 B.
#[test]
fn a_cache_way_is_one_8_byte_tag_word() {
    let cfg = HierarchyConfig::default();
    let lines = (cfg.l1_bytes + cfg.l2_bytes + cfg.l3_bytes) / 64;
    let (bytes, cpu) = peak_bytes(|| CacheHierarchy::new(cfg));
    assert_eq!(bytes, lines as i64 * 8, "a Table I CPU hierarchy");
    drop(cpu);
    let meta = MetaCacheConfig::table1();
    for mode in [CounterMode::General, CounterMode::Split] {
        let tree = SitGeometry::new(mode, (16 << 30) / 64);
        let (bytes, cache) = peak_bytes(|| MetadataCache::new(meta, &tree));
        assert_eq!(
            bytes,
            meta.slots() as i64 * 80,
            "a Table I {mode:?} metadata cache"
        );
        drop(cache);
    }
}

/// A figure-sweep machine peaks at 662,640 B while it is built: 8 B per
/// CPU cache way and 80 B per metadata-cache slot. With 96 B slots it
/// peaked at 728,176 B, and with a 64-bit LRU stamp and padded state in
/// every way at 1,457,264 B.
#[test]
fn a_sweep_machine_costs_at_most_700_kb() {
    let bytes = machine_bytes(&SystemConfig::sweep(
        SchemeKind::Steins,
        CounterMode::General,
    ));
    assert!(
        bytes <= 700_000,
        "building a sweep machine peaked at {bytes} B"
    );
}

/// A sweep machine after `ops` operations of the persistent B-tree trace.
fn served(scheme: SchemeKind, mode: CounterMode, ops: u64) -> SecureNvmSystem {
    let mut sys = SecureNvmSystem::new(SystemConfig::sweep(scheme, mode));
    sys.run_trace(Workload::new(WorkloadKind::PTree, ops, 42).generate())
        .expect("clean run");
    sys
}

/// Recovery revives the image into the machine the crash built: its peak
/// is its own working set, below what building a machine costs.
#[test]
fn recovery_builds_no_machine() {
    for mode in [CounterMode::General, CounterMode::Split] {
        let bound = machine_bytes(&SystemConfig::sweep(SchemeKind::Steins, mode));
        let crashed = served(SchemeKind::Steins, mode, 20_000).crash();
        let (peak, recovered) = peak_bytes(|| crashed.recover());
        let (_, report) = recovered.expect("recovery verifies");
        assert!(report.nodes_recovered > 0, "{mode:?}: nothing to recover");
        assert!(
            peak < bound,
            "{mode:?}: recovery peaked at {peak} B, a machine costs {bound} B"
        );
    }
}

/// The crash frees the old volatile state before it builds the machine
/// the image revives into, so the two never coexist.
#[test]
fn a_crash_holds_one_machine_at_a_time() {
    let (scheme, mode) = (SchemeKind::Steins, CounterMode::General);
    let bound = machine_bytes(&SystemConfig::sweep(scheme, mode));
    let sys = served(scheme, mode, 2_000);
    let (peak, crashed) = peak_bytes(|| sys.crash());
    assert!(
        peak < bound / 2,
        "the crash peaked {peak} B above its start; a machine costs {bound} B"
    );
    drop(crashed);
}

/// A whole-engine recovery on one worker runs on this thread and builds
/// no shard machine.
#[test]
fn engine_recovery_builds_no_shard_machine() {
    let cfg = SystemConfig::sweep(SchemeKind::Steins, CounterMode::General);
    let engine = ShardedEngine::new(cfg, 4);
    let bound = machine_bytes(engine.shard_config());
    let lines = engine.map().total_lines();
    for i in 0..4_000u64 {
        let line = i * 97 % lines;
        engine
            .write(line * 64, &SweepOp::payload(line, i as u8))
            .expect("clean write");
    }
    let images = engine.crash_all();
    let (peak, recovered) = peak_bytes(|| engine.recover_all(images, 1));
    let pr = recovered.expect("every shard recovers");
    assert_eq!(pr.reports.len(), 4);
    assert!(
        peak < bound,
        "recover_all peaked at {peak} B, one shard machine costs {bound} B"
    );
}

/// Steins recovery keeps no copy of the nodes it recovers: each goes into
/// the machine the crash built as soon as it verifies, and the record
/// rewrite reads the slots back from that machine's cache. What it holds
/// is its plan, one 16 B (offset, slot) entry per record entry, and a bit
/// per cache slot. On the recovery ladder's 1,024 MB rung, one shard with
/// all 4,096 metadata slots dirty, it peaks at 17.9 B per recovered node;
/// it peaked at 172 B while it kept the plan in a `BTreeSet` and an
/// `FxHashMap` and the recovered and the rewritten dirty nodes in two
/// `Vec`s.
#[test]
fn a_recovered_node_costs_at_most_32_bytes() {
    let engine = ShardedEngine::new(rung_config(1024, 1), 1);
    dirty_all_shards(&engine);
    let images = engine.crash_all();
    let (peak, recovered) = peak_bytes(|| engine.recover_all(images, 1));
    let pr = recovered.expect("ladder recovery is attack-free");
    let nodes: usize = pr.reports.iter().map(|r| r.nodes_recovered).sum();
    let per_node = peak as f64 / nodes as f64;
    assert!(
        per_node <= 32.0,
        "recovery peaked at {per_node:.1} B per recovered node ({peak} B, {nodes} nodes)"
    );
}

/// Peak bytes per line while a fresh store takes `lines` writes, `stride`
/// lines apart.
fn store_bytes_per_line(lines: u64, stride: u64) -> f64 {
    let (peak, store) = peak_bytes(|| {
        let mut s = SparseStore::new();
        for i in 0..lines {
            s.write(i * stride * 64, &[i as u8; 64]);
        }
        s
    });
    assert_eq!(store.population() as u64, lines);
    peak as f64 / lines as f64
}

/// Dense writes pay the 64 B line plus 4 B of index (68 B): a full index
/// page is direct, one `u32` slot per line.
#[test]
fn a_dense_line_costs_at_most_80_bytes() {
    let b = store_bytes_per_line(100_000, 1);
    assert!(b <= 80.0, "{b:.1} B per line written densely");
}

/// At stride 8, the recovery ladder's leaf-strided fill in general-counter
/// mode, each index page holds 128 lines: packed, 128 slots behind a
/// 192 B header (70.0 B per line; 96.3 B when every page was direct).
#[test]
fn a_line_written_at_stride_8_costs_at_most_80_bytes() {
    let b = store_bytes_per_line(100_000, 8);
    assert!(b <= 80.0, "{b:.1} B per line written at stride 8");
}

/// At stride 64 a packed page holds 16 slots behind its header (82.2 B
/// per line; 320.9 B when every page was direct).
#[test]
fn a_line_written_at_stride_64_costs_at_most_96_bytes() {
    let b = store_bytes_per_line(100_000, 64);
    assert!(b <= 96.0, "{b:.1} B per line written at stride 64");
}

/// Peak bytes per line while a fresh device takes `lines` timed writes,
/// `stride` lines apart: its line store.
fn device_bytes_per_line(lines: u64, stride: u64) -> f64 {
    let cfg = steins::nvm::NvmConfig::default();
    let (peak, dev) = peak_bytes(|| {
        let mut dev = steins::nvm::NvmDevice::new(cfg);
        for i in 0..lines {
            dev.write(0, i * stride * 64, &[i as u8; 64])
                .expect("no crash armed");
        }
        dev
    });
    let stored = dev.storage().population() as u64;
    assert_eq!((stored, dev.stats().writes), (lines, lines));
    peak as f64 / lines as f64
}

/// Peak bytes per line while a sweep machine's `run_trace` stores and
/// flushes `lines` distinct lines in address order: the device's line
/// store, the metadata the stores write back, and the ground truth.
fn traced_bytes_per_line(lines: u64) -> f64 {
    let cfg = SystemConfig::sweep(SchemeKind::Steins, CounterMode::General);
    let mut sys = SecureNvmSystem::new(cfg);
    let ops = (0..lines)
        .flat_map(|i| [OpKind::Store, OpKind::Flush].map(|kind| TraceOp::new(0, kind, i * 64)));
    let (peak, report) = peak_bytes(|| sys.run_trace(ops).expect("clean run"));
    assert!(report.nvm.writes >= lines);
    peak as f64 / lines as f64
}

/// The ground truth keeps a trace store's version, one 8 B word on the
/// line store's paged index, and regenerates its payload: a line stored by
/// `run_trace` peaks at 106.7 B, where it peaked at 117.2 B with a wear
/// count per device line, at 137.9 B with the version in a 25 B hash
/// bucket and at 201.9 B with the 64 B payload.
#[test]
fn a_traced_line_costs_at_most_110_bytes() {
    let b = traced_bytes_per_line(100_000);
    assert!(b <= 110.0, "{b:.1} B per line stored by run_trace");
}

/// Dense timed writes pay the store's 68 B and nothing per line beside it
/// (69.1 B; 74.4 B with a 4 B wear count per line).
#[test]
fn a_dense_device_line_costs_at_most_72_bytes() {
    let b = device_bytes_per_line(100_000, 1);
    assert!(b <= 72.0, "{b:.1} B per line written densely");
}

/// At stride 8 the device costs its store's packed pages (70.2 B per
/// line; 75.5 B with wear counts, 101.8 B when every page was direct).
#[test]
fn a_device_line_written_at_stride_8_costs_at_most_74_bytes() {
    let b = device_bytes_per_line(100_000, 8);
    assert!(b <= 74.0, "{b:.1} B per line written at stride 8");
}

/// At stride 64 the device costs its store's packed pages (82.4 B per
/// line; 87.7 B with wear counts, 326.4 B when every page was direct).
#[test]
fn a_device_line_written_at_stride_64_costs_at_most_86_bytes() {
    let b = device_bytes_per_line(100_000, 64);
    assert!(b <= 86.0, "{b:.1} B per line written at stride 64");
}

/// A Zipf sampler is two tables: an 8 B threshold per item and a 4 B guide
/// entry per cell, at most two cells an item. At the persistent B-tree's
/// 2¹⁵ lines it peaks at 393,220 B (12.0 B an item), and at omnetpp's 2¹⁶
/// at 786,436 B.
#[test]
fn a_zipf_item_costs_at_most_16_bytes() {
    let n = 1u64 << 15;
    let (calls, (peak, z)) = allocations(|| peak_bytes(|| Zipf::new(n, 0.8)));
    assert_eq!(z.n(), n);
    assert!(calls <= 2, "building the sampler took {calls} allocations");
    let b = peak as f64 / n as f64;
    assert!(b <= 16.0, "{b:.2} B per item while the sampler was built");
}

/// This thread's live bytes per size class at its peak, largest first,
/// skipping classes under 10 kB.
fn peak_classes() -> Vec<(usize, i64)> {
    let at_peak = TALLY.with(|t| t.borrow().class_at_peak);
    let mut classes: Vec<(usize, i64)> = (0..CLASSES)
        .map(|c| (c, at_peak[c]))
        .filter(|&(_, b)| b >= 10_000)
        .collect();
    classes.sort_by_key(|&(_, b)| std::cmp::Reverse(b));
    classes
}

/// A power of two in B, KiB or MiB.
fn binary_size(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 20 => format!("{} MiB", b >> 20),
        b if b >= 1 << 10 => format!("{} KiB", b >> 10),
        b => format!("{b} B"),
    }
}

/// Prints the live bytes per block size class in `classes`.
fn print_classes(classes: &[(usize, i64)]) {
    for &(c, bytes) in classes {
        println!(
            "  ≤ {:>7} {:>8.2} MB",
            binary_size(1 << c),
            bytes as f64 / 1e6
        );
    }
}

/// The Steins figure-sweep geometry with the bit-faithful crypto engine,
/// as the repository benchmark builds its trace and kv-sharded machines.
fn bench_config(mode: CounterMode) -> SystemConfig {
    let mut cfg = SystemConfig::sweep(SchemeKind::Steins, mode);
    cfg.crypto = CryptoKind::Real;
    cfg
}

/// A profiled run's phases: each one's name, its heap peak above its own
/// start and the live bytes per size class at that peak.
type Phases = Vec<(&'static str, i64, Vec<(usize, i64)>)>;

/// Runs `f` as a phase of `phases` and returns its result.
fn phase<T>(phases: &mut Phases, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (peak, out) = peak_bytes(f);
    phases.push((name, peak, peak_classes()));
    out
}

/// Prints each phase's peak and the live bytes per block size class at
/// the highest.
fn print_phases(phases: &Phases) {
    for (name, peak, _) in phases {
        println!(
            "{name:>8}: heap peak {:.2} MB above its start",
            *peak as f64 / 1e6
        );
    }
    let (name, _, classes) = phases.iter().max_by_key(|(_, p, _)| *p).expect("a phase");
    println!("live at the {name} peak, by block size:");
    print_classes(classes);
}

/// Prints where the heap peaks on the repository benchmark's workloads
/// but recover-4g (its sibling below), each at its benchmark size on
/// Steins with the bit-faithful crypto engine, all on this thread: a
/// machine serving ptree-gc's, cactus-gc's and mcf-sc's trace, crashing
/// and recovering; and kv-sharded's 4-shard engine taking both clients'
/// requests through the direct API, one client after the other, then
/// crashing and recovering on one worker. Run with `cargo test --release
/// --test construction_cost -- --ignored --exact heap_profile
/// --nocapture`.
#[test]
#[ignore = "a profile to read, not a check"]
fn heap_profile() {
    let traces = [
        (
            "ptree-gc",
            WorkloadKind::PTree,
            CounterMode::General,
            300_000,
        ),
        (
            "cactus-gc",
            WorkloadKind::CactusAdm,
            CounterMode::General,
            300_000,
        ),
        ("mcf-sc", WorkloadKind::Mcf, CounterMode::Split, 2_000_000),
    ];
    for (name, kind, mode, ops) in traces {
        let mut sys = SecureNvmSystem::new(bench_config(mode));
        let mut phases = Phases::new();
        let wl = Workload::new(kind, ops, 42);
        let report = phase(&mut phases, "serve", || {
            sys.run_trace(wl.generate()).expect("clean run")
        });
        let crashed = phase(&mut phases, "crash", || sys.crash());
        let recovered = phase(&mut phases, "recover", || crashed.recover());
        let (_, rr) = recovered.expect("recovery verifies");
        println!(
            "{name}, {ops} ops: {} NVM writes, {} nodes recovered",
            report.nvm.writes, rr.nodes_recovered
        );
        print_phases(&phases);
    }
    // Each client replays its own persistent B-tree stream (200 k ops,
    // flushes dropped) on the lines whose bit 2 is its number, writing a
    // trace store's payload, as the benchmark's clients do.
    let shards = 4;
    let engine = ShardedEngine::new(bench_config(CounterMode::General), shards);
    let mut phases = Phases::new();
    let requests = phase(&mut phases, "serve", || {
        let mut requests = 0;
        for c in 0..2u64 {
            let seed = 42 ^ (c + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let ops = Workload::new(WorkloadKind::PTree, 200_000, seed).generate();
            for (i, op) in ops.filter(|op| op.kind != OpKind::Flush).enumerate() {
                let addr = (((op.addr / 64) & !4) | (c << 2)) * 64;
                if op.kind == OpKind::Store {
                    let data = synth_data(addr, i as u64 + 1);
                    engine.write(addr, &data).expect("clean write");
                } else {
                    engine.read(addr).expect("clean read");
                }
                requests += 1;
            }
        }
        requests
    });
    let images = phase(&mut phases, "crash", || engine.crash_all());
    let recovered = phase(&mut phases, "recover", || engine.recover_all(images, 1));
    let pr = recovered.expect("every shard recovers");
    let nodes: usize = pr.reports.iter().map(|r| r.nodes_recovered).sum();
    println!("kv-sharded, {requests} requests on {shards} shards: {nodes} nodes recovered");
    print_phases(&phases);
}

/// Prints where the recovery ladder's 4 GB rung peaks while its 8 shard
/// machines are built, filled until every metadata-cache slot is dirty,
/// crashed and recovered: each phase's peak, the bytes live after it, and
/// the live bytes per block size class at the highest peak. One execution
/// worker keeps every allocation on this thread. Run with `cargo test
/// --release --test construction_cost -- --ignored heap_profile_recover_4g
/// --nocapture`.
#[test]
#[ignore = "a profile to read, not a check"]
fn heap_profile_recover_4g() {
    let mb = |b: i64| b as f64 / 1e6;
    let live = || TALLY.with(|t| t.borrow().live);
    let start = live();
    let mut phases = Vec::new();
    // Files a phase's peak above the profile's start, from its peak above
    // its own.
    let mut phase = |name: &'static str, peak: i64, before: i64| {
        phases.push((name, before - start + peak, peak_classes()));
        println!(
            "{name:>8}: heap peak {:.2} MB above its start, {:.2} MB live after it",
            mb(peak),
            mb(live() - start)
        );
    };
    let shards = 8;
    let before = live();
    let (peak, engine) = peak_bytes(|| ShardedEngine::new(rung_config(4096, shards), shards));
    phase("build", peak, before);
    let before = live();
    let (peak, ()) = peak_bytes(|| dirty_all_shards(&engine));
    phase("fill", peak, before);
    let before = live();
    let (peak, images) = peak_bytes(|| engine.crash_all());
    phase("crash", peak, before);
    let before = live();
    let (peak, recovered) = peak_bytes(|| engine.recover_all(images, 1));
    phase("recover", peak, before);
    let pr = recovered.expect("ladder recovery is attack-free");
    let reads: u64 = pr.reports.iter().map(|r| r.nvm_reads).sum();
    println!("4096 MB x {shards} shards: {reads} recovery reads");
    let (name, peak, classes) = phases
        .iter()
        .max_by_key(|&&(_, peak, _)| peak)
        .expect("four phases");
    println!(
        "heap peak {:.2} MB above its start, in the {name} phase",
        mb(*peak)
    );
    println!("live at the {name} peak, by block size:");
    print_classes(classes);
}
