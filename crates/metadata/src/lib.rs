//! Security metadata structures for SGX-style integrity trees (SIT).
//!
//! Everything at the paper's exact 64 B granularity:
//!
//! * [`counter`] — general counter blocks (8 × 56-bit) and split counter
//!   blocks (64-bit major + 64 × 6-bit minors), including Steins' two
//!   parent-counter generation functions (Eq. 1 and Eq. 2 with skip-update),
//! * [`node`] — SIT nodes (counter block + 64-bit HMAC) with bit-exact
//!   64 B (de)serialization,
//! * [`geometry`] — tree shape: level sizes, parent/child maps, node
//!   offsets inside the metadata region, data↔leaf mapping,
//! * [`layout`] — the NVM address map (data, MAC, metadata, record,
//!   shadow-table, bitmap regions),
//! * [`cache`] — the memory-controller metadata cache, holding live node
//!   values with a plain empty/clean/dirty state and tag per slot and
//!   true-LRU replacement,
//! * [`shard`] — address striping across shard-local coordinate systems,
//! * [`records`] — Steins' 4-byte-offset record lines (16 offsets / 64 B).

pub mod cache;
pub mod counter;
pub mod geometry;
pub mod layout;
pub mod node;
pub mod records;
pub mod shard;

pub use cache::{EvictedNode, MetadataCache};
pub use counter::{
    CounterBlock, CounterMode, GeneralCounters, SplitCounters, CTR56_MAX, MINOR_MAX,
};
pub use geometry::{NodeId, SitGeometry};
pub use layout::MemoryLayout;
pub use node::{RootNode, SitNode};
pub use records::{RecordLine, RECORDS_PER_LINE, RECORD_EMPTY};
pub use shard::ShardMap;
