//! Pins what it costs to build a machine. Every benchmark session, shard,
//! crash point and recovery builds a fresh `SecureNvmSystem`, so its set-up
//! allocations bound how large a sweep or test we can afford.
//!
//! A counting global allocator tallies allocation calls per thread, so the
//! test harness's other threads never leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use steins::prelude::*;
use steins_obs::Histogram;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread's last frees and allocations may run after its
    // locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A figure-sweep machine takes 17 allocations: one slab per cache, and
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
    // Guards the two tests above against a counter that never moves.
    let (n, v) = allocations(|| vec![1u8; 64]);
    assert_eq!((n, v.len()), (1, 64));
}
