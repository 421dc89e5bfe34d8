//! Transaction-level model of a DDR-attached non-volatile memory device
//! (PCM-class timings), plus the supporting pieces a secure memory
//! controller needs:
//!
//! * [`timing::NvmTimings`] — the paper's Table I latency set
//!   (tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns),
//! * [`device::NvmDevice`] — banked device with row-buffer and per-bank
//!   occupancy, returning completion times for reads/writes,
//! * [`write_queue::WriteQueue`] — the 64-entry MC write queue; writes leave
//!   the critical path unless the queue fills,
//! * [`storage::SparseStore`] — 64 B-line backing store (or one word per
//!   line) that holds only the lines written, behind a page index over an
//!   arena,
//! * [`adr::AdrRegion`] — the asynchronous-DRAM-refresh persist domain:
//!   volatile MC state that is guaranteed to flush to NVM on a crash,
//! * [`energy::EnergyModel`] — per-operation energy accounting.
//!
//! Time is measured in **memory-controller cycles** at the configured CPU
//! frequency (2 GHz in Table I ⇒ 1 cycle = 0.5 ns). All latencies convert
//! through [`timing::NvmTimings::cycles`].

pub mod adr;
pub mod config;
pub mod device;
pub mod energy;
pub mod fault;
pub mod stats;
pub mod storage;
pub mod timing;
pub mod write_queue;

pub use adr::AdrRegion;
pub use config::NvmConfig;
pub use device::{
    NvmDevice, PersistKind, PersistPoint, PowerCut, RecoveryJournal, EXHAUSTED_LOG_CAP,
    JOURNAL_MAC_MSG_BYTES, READ_RETRY_ATTEMPTS, READ_RETRY_BASE_CYCLES, RECOVERY_JOURNAL_ADDR,
    WORDS_PER_LINE,
};
pub use energy::{EnergyCounters, EnergyModel};
pub use fault::{FaultPlane, POISON_BYTE};
pub use stats::NvmStats;
pub use storage::{Line, SparseStore, LINE_BYTES};
pub use timing::NvmTimings;
pub use write_queue::WriteQueue;

/// Simulation time unit: memory-controller clock cycles.
pub type Cycle = u64;
