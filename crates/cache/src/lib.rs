//! Set-associative cache models and the trace-driven CPU side of the
//! simulator.
//!
//! * [`set_assoc::SetAssocCache`] — a generic tag-array cache (configurable
//!   size/ways, true-LRU) with dirty-bit tracking and full statistics. It is
//!   *tag-only*: user data is synthesized functionally at the memory
//!   controller, so the CPU caches need no payloads.
//! * [`hierarchy::CacheHierarchy`] — the Table I three-level hierarchy
//!   (L1 32 KB/2-way, L2 512 KB/8-way, L3 2 MB/8-way, all 64 B lines, LRU),
//!   returning for each CPU access the stream of LLC fills and write-backs
//!   that reach the memory controller.
//! * [`cpu::CpuModel`] — a trace-driven in-order front end with a
//!   configurable non-memory IPC and bounded outstanding misses; it converts
//!   memory-system latencies into execution cycles (Fig. 9/12's metric).

pub mod cpu;
pub mod hierarchy;
mod lru_rank;
pub mod set_assoc;
pub mod stats;

pub use cpu::{CpuConfig, CpuModel};
pub use hierarchy::{CacheHierarchy, HierarchyConfig, MemEvent};
pub use set_assoc::{AccessOutcome, CacheConfig, SetAssocCache};
pub use stats::CacheStats;
