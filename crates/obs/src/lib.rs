//! Zero-dependency observability layer for the Steins simulator.
//!
//! The paper's evaluation (§IV) argues through *distributions and
//! orderings* — write/read latency, write traffic, recovery time — not
//! flat averages. This crate provides the substrate every runtime crate
//! reports through:
//!
//! * [`hist::Histogram`] — a log-bucketed, mergeable latency histogram
//!   whose memory grows with its largest sample (none while empty), with
//!   p50/p90/p99/p999 queries,
//! * [`registry::MetricRegistry`] — a typed metric store (counters,
//!   gauges, histograms) keyed by component paths such as
//!   `nvm.write_queue.occupancy` or `core.engine.mac_calls`,
//! * [`json::Json`] — a minimal JSON value with a byte-stable serializer
//!   and a parser, used for `results/METRICS_*.json` and the CI perf gate,
//! * [`alarm::AlarmLog`] — the typed attack-detection alarm channel for
//!   the online integrity service (canonical ordering, byte-stable export).
//!
//! Everything here is deterministic given deterministic inputs: metric
//! paths sort in a `BTreeMap`, floats serialize via Rust's shortest
//! round-trip formatting, and histograms record exact integer cycles.

pub mod alarm;
pub mod hist;
pub mod json;
pub mod registry;

pub use alarm::{Alarm, AlarmKind, AlarmLog};
pub use hist::Histogram;
pub use json::Json;
pub use registry::{Metric, MetricRegistry};
