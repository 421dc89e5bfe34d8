//! Workload trace generation.
//!
//! The paper evaluates eight SPEC2006/2017 benchmarks (taken from ASIT's
//! evaluation) and two persistent workloads (from STAR's). SPEC binaries and
//! inputs are proprietary, so this crate generates **synthetic traces that
//! reproduce each benchmark's memory behaviour class** — footprint,
//! read/write mix, and locality pattern — which is the only property the
//! paper's evaluation exploits (see DESIGN.md §2.2). Traces are produced
//! lazily by iterators, deterministic in a seed, so a 100-million-op trace
//! costs no memory.
//!
//! * [`record::TraceOp`] — one memory operation (load/store/flush) plus the
//!   number of non-memory instructions preceding it.
//! * [`pattern::Pattern`] — the locality engine (sequential, strided
//!   stencil, uniform-random, pointer-chase, Zipfian).
//! * [`workload::Workload`] — the ten named workloads with calibrated
//!   parameters, plus custom constructors.

pub mod pattern;
pub mod record;
pub mod rng;
pub mod workload;
pub mod zipf;

pub use pattern::Pattern;
pub use record::{OpKind, TraceOp};
pub use workload::{TraceGen, Workload, WorkloadKind};
pub use zipf::Zipf;
