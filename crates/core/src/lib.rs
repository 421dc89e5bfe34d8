//! The Steins secure memory controller and its competitors.
//!
//! This crate is the paper's primary contribution plus every baseline it is
//! evaluated against:
//!
//! * [`engine`] — the secure memory controller: counter-mode encryption,
//!   lazy-update SGX-style integrity tree, metadata cache and write queue;
//!   plus [`engine::SecureNvmSystem`], the full system (CPU model + cache
//!   hierarchy + controller) that runs traces.
//! * `scheme` (crate-private) — the four recovery schemes, one file each:
//!   **WB** (write-back baseline, no recovery), **ASIT** (Anubis: shadow
//!   table + cache-tree), **STAR** (dirty bitmap + sorted-set cache-tree),
//!   and **Steins** (counter-generation + offset records + LIncs + NV
//!   buffer). Each file holds the scheme's state, its runtime hooks, its
//!   crash remnant and its strict recovery.
//! * [`crash`] / [`recovery`] — crash injection (volatile state loss with
//!   ADR flush) and the scaffolding the schemes' strict recoveries share.
//!   [`crash::CrashSweep`] is the one crash harness: whole-line, torn,
//!   nested and worker crashes at enumerated persist points, and the
//!   seeded fault campaign's crashes, nested crashes and post-crash
//!   attacks, all listed by one `jobs` and checked by one `probe`.
//! * [`attack`] — tampering/replay injection used by the security tests.
//! * [`scrub`] — lenient recovery: the non-panicking integrity scrub, which
//!   rebuilds every node from the data plane.
//! * [`chaos`] — chaos mode: media faults, torn writes and whole-shard
//!   power cuts injected under live multi-shard serving traffic.
//! * [`online`] — the online integrity service: incremental background
//!   scrub, quarantine, and alarms.
//! * [`par`] — the shared-counter job pool and deterministic lane folding
//!   behind parallel recovery (see [`shard::ParallelRecovery`]).
//! * [`cme`], [`linc`], [`nvbuffer`], [`cachetree`] — building blocks.
//! * `truth` (crate-private) — the functional ground truth every fill is
//!   checked against: a trace store's version, or a given payload.
//! * [`report`] — run metrics backing every figure of §IV.

pub mod attack;
pub mod cachetree;
pub mod chaos;
pub mod cme;
pub mod config;
pub mod crash;
pub mod diagnose;
pub mod engine;
pub mod error;
pub mod linc;
pub mod nvbuffer;
pub mod online;
pub mod par;
pub mod recovery;
pub mod report;
mod scheme;
pub mod scrub;
pub mod shard;
mod truth;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use config::{SchemeKind, SystemConfig};
pub use crash::{
    CrashJob, CrashPoint, CrashRepro, CrashSweep, CrashedSystem, Jobs, PointSelection, SweepOp,
    SweepReport,
};
pub use engine::SecureNvmSystem;
pub use error::IntegrityError;
pub use online::{OnlinePolicy, OnlineService};
pub use recovery::RecoveryReport;
pub use report::RunReport;
pub use scrub::ScrubReport;
pub use shard::{ParallelRecovery, RepairOutcome, ShardedEngine};

// Re-export the counter mode so downstream users need only this crate.
pub use steins_metadata::CounterMode;
