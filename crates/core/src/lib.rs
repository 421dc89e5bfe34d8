//! The Steins secure memory controller and its competitors.
//!
//! This crate is the paper's primary contribution plus every baseline it is
//! evaluated against:
//!
//! * [`engine`] — the secure memory controller: counter-mode encryption,
//!   lazy-update SGX-style integrity tree, metadata cache, write queue, and
//!   the per-scheme runtime hooks; plus [`engine::SecureNvmSystem`], the
//!   full system (CPU model + cache hierarchy + controller) that runs
//!   traces.
//! * [`scheme`] — the four recovery schemes: **WB** (write-back baseline,
//!   no recovery), **ASIT** (Anubis: shadow table + cache-tree), **STAR**
//!   (dirty bitmap + sorted-set cache-tree), and **Steins**
//!   (counter-generation + offset records + LIncs + NV buffer).
//! * [`crash`] / [`recovery`] — crash injection (volatile state loss with
//!   ADR flush) and the per-scheme recovery engines with full verification.
//! * [`attack`] — tampering/replay injection used by the security tests.
//! * [`scrub`] — lenient recovery: the non-panicking integrity scrub with
//!   region-granular verdicts (`Intact`/`Recovered`/`Unrecoverable`).
//! * [`campaign`] — the seeded randomized fault campaign composing crash
//!   points × torn-word masks × attacks/media faults, plus the chaos mode
//!   that injects them under live multi-shard serving traffic.
//! * [`online`] — the online integrity service: incremental background
//!   scrub, epoch re-encryption, wear rotation, quarantine, and alarms.
//! * [`par`] — the work-stealing region queue and deterministic lane
//!   folding behind parallel recovery (see [`shard::ParallelRecovery`]).
//! * [`cme`], [`linc`], [`nvbuffer`], [`cachetree`] — building blocks.
//! * [`bmt`] — the Bonsai-Merkle-Tree baseline of §II-C, quantifying why
//!   the paper (and this engine) build on the SIT instead.
//! * [`report`] — run metrics backing every figure of §IV.

pub mod attack;
pub mod bmt;
pub mod cachetree;
pub mod campaign;
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
pub mod scheme;
pub mod scrub;
pub mod shard;

pub use campaign::{
    run_chaos, CampaignConfig, CampaignOutcome, CampaignReport, ChaosConfig, ChaosReport,
    FaultCampaign,
};
pub use config::{SchemeKind, SystemConfig};
pub use crash::{
    CrashPoint, CrashRepro, CrashSweep, CrashedSystem, PointSelection, SweepOp, SweepReport,
};
pub use engine::SecureNvmSystem;
pub use error::IntegrityError;
pub use online::{OnlinePolicy, OnlineService};
pub use recovery::RecoveryReport;
pub use report::RunReport;
pub use scrub::{ScrubReport, Verdict};
pub use shard::{ParallelRecovery, RepairOutcome, RepairPolicy, ShardedEngine};

// Re-export the counter mode so downstream users need only this crate.
pub use steins_metadata::CounterMode;
