//! The reference step that host times are reported in.
//!
//! On a shared host, neighbours slow memory-bound work by up to 2× in
//! bursts lasting seconds to minutes, through the shared last-level cache
//! and memory. Thread CPU time moves with wall time there, so no OS clock
//! removes it. A chain of dependent loads through a 32 MB random cycle
//! slows with them. Each session therefore times a fixed walk of that cycle
//! beside its own phases, and host times are reported in its steps (unit
//! `ref`): what an operation costs in dependent L3-resident loads. The
//! step removes much of the slowdown in calm hours and only part of it in
//! noisy ones (README.md).

use std::hint::black_box;
use std::time::Instant;

/// Entries of the cycle: 32 MB of `u32`.
const ENTRIES: usize = 8 << 20;
/// Steps of one walk (about 70 ms on an idle 2 GHz Xeon).
const STEPS: u32 = 500_000;

/// A step's time on the idle 2-vCPU 2.0 GHz Xeon the bounds were set on.
/// `setup_s` must be reported in seconds, so set-up times are rescaled to
/// this speed instead of being given in steps.
pub const NOMINAL_STEP_S: f64 = 130e-9;

/// A single random cycle through [`ENTRIES`] slots.
pub struct Canary {
    next: Vec<u32>,
}

impl Canary {
    /// Builds the cycle (Sattolo's shuffle under a fixed generator, so every
    /// run walks the same cycle).
    pub fn new() -> Canary {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Canary { next }
    }

    fn walk(&self, start: u32) -> f64 {
        let t = Instant::now();
        let mut p = start;
        for _ in 0..STEPS {
            p = self.next[p as usize];
        }
        black_box(p);
        t.elapsed().as_secs_f64() / f64::from(STEPS)
    }

    /// Seconds per step, walking on `threads` threads at once (their mean),
    /// so a two-thread session is compared with both of its cores.
    pub fn step_s(&self, threads: usize) -> f64 {
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads)
                .map(|t| s.spawn(move || self.walk(t as u32 * 7919)))
                .collect();
            let mine = self.walk(0);
            mine + others
                .into_iter()
                .map(|h| h.join().expect("a walk does not panic"))
                .sum::<f64>()
        });
        total / threads as f64
    }
}
