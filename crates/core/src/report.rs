//! Run metrics — the raw series behind every figure of §IV.

use steins_nvm::{EnergyCounters, NvmStats};
use steins_obs::{Histogram, MetricRegistry};

/// Everything a figure needs from one simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scheme-and-mode label ("Steins-SC", "WB-GC", …).
    pub label: String,
    /// Execution time in cycles (Figs. 9, 12).
    pub cycles: u64,
    /// Execution time in seconds at the configured clock.
    pub seconds: f64,
    /// Instructions retired.
    pub instructions: u64,
    /// Mean MC write latency, cycles (Fig. 10): writeback arrival →
    /// data + metadata path complete.
    pub write_latency: f64,
    /// Mean MC read latency, cycles (Fig. 11): fill arrival → verified data.
    pub read_latency: f64,
    /// NVM device statistics (Figs. 13, 14 use `writes`).
    pub nvm: NvmStats,
    /// Crypto/cache event counters.
    pub energy_events: EnergyCounters,
    /// Total energy, picojoules (Figs. 15, 16).
    pub energy_pj: f64,
    /// Metadata cache hits and misses.
    pub meta_hits: u64,
    /// Metadata cache misses.
    pub meta_misses: u64,
    /// Cycles the core spent stalled on reads.
    pub read_stall_cycles: u64,
    /// Cycles the core spent stalled on the write path.
    pub write_stall_cycles: u64,
    /// Per-op MC read-latency distribution (same series as `read_latency`).
    pub read_hist: Histogram,
    /// Per-op MC write-latency distribution (same series as
    /// `write_latency`).
    pub write_hist: Histogram,
    /// Full component-path metric registry (`nvm.`, `cache.`, `meta.`,
    /// `core.` subtrees) — the source of `results/METRICS_*.json`.
    pub metrics: MetricRegistry,
}

impl RunReport {
    /// Write traffic in bytes.
    pub fn write_traffic(&self) -> u64 {
        self.nvm.write_traffic_bytes()
    }

    /// Metadata cache hit rate.
    pub fn meta_hit_rate(&self) -> f64 {
        let total = self.meta_hits + self.meta_misses;
        if total == 0 {
            0.0
        } else {
            self.meta_hits as f64 / total as f64
        }
    }
}
