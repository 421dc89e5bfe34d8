//! # Steins — high-performance, fast-recovery secure NVM
//!
//! A full-system Rust reproduction of *"A High-Performance and Fast-Recovery
//! Scheme for Secure Non-Volatile Memory Systems"* (Shi, Hua, Huang — IEEE
//! CLUSTER 2024).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`crypto`] — from-scratch AES-128 / SHA-256 / HMAC / SipHash engines,
//! * [`nvm`] — PCM-like NVM device timing, energy, ADR persist domain,
//! * [`cache`] — set-associative caches and the trace-driven CPU hierarchy,
//! * [`trace`] — SPEC-like and persistent-memory workload generators,
//! * [`metadata`] — counter blocks, SGX-style integrity-tree geometry,
//!   metadata cache, offset record lines,
//! * [`core`] — the secure memory controller with four recovery schemes
//!   (WB, ASIT/Anubis, STAR, **Steins**) in general- and split-counter modes,
//!   crash injection, attack injection, and recovery engines.
//!
//! ## Quickstart
//!
//! ```
//! use steins::prelude::*;
//!
//! // A small secure NVM protected by Steins with split counters.
//! let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::Split);
//! let mut sys = SecureNvmSystem::new(cfg);
//!
//! // Write and read back through the encrypted, integrity-protected path.
//! let addr = 0x1_0000;
//! sys.write(addr, &[0xAB; 64]).unwrap();
//! assert_eq!(sys.read(addr).unwrap(), [0xAB; 64]);
//!
//! // Crash (losing all volatile metadata), recover, and read again.
//! let crashed = sys.crash();
//! let (mut recovered, report) = crashed.recover().expect("recovery verifies");
//! assert!(report.nvm_reads > 0);
//! assert_eq!(recovered.read(addr).unwrap(), [0xAB; 64]);
//! ```

pub use steins_cache as cache;
pub use steins_core as core;
pub use steins_crypto as crypto;
pub use steins_metadata as metadata;
pub use steins_nvm as nvm;
pub use steins_trace as trace;

/// Commonly used items in one import.
pub mod prelude {
    pub use steins_core::config::{CounterMode, SchemeKind, SystemConfig};
    pub use steins_core::crash::{
        CrashPoint, CrashRepro, CrashSweep, PointSelection, SweepOp, SweepReport,
    };
    pub use steins_core::engine::SecureNvmSystem;
    pub use steins_core::recovery::RecoveryReport;
    pub use steins_core::report::RunReport;
    pub use steins_core::shard::ShardedEngine;
    pub use steins_crypto::CryptoKind;
    pub use steins_metadata::{ShardMap, StripeMode};
    pub use steins_trace::workload::{Workload, WorkloadKind};
}
