//! The three-level CPU cache hierarchy of Table I.
//!
//! The hierarchy is inclusive-enough-for-simulation: each access walks
//! L1 → L2 → L3; a miss installs the line at every level; dirty evictions
//! propagate downward and only LLC write-backs reach the memory controller.
//! The output of an access is the list of [`MemEvent`]s the secure memory
//! controller must service, in order.

use crate::set_assoc::{AccessOutcome, CacheConfig, SetAssocCache};
use crate::stats::CacheStats;

/// Geometry of the three levels.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// L1 data cache capacity in bytes (Table I: 32 KB, 2-way).
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 capacity (512 KB, 8-way).
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L3 capacity (2 MB, 8-way).
    pub l3_bytes: u64,
    /// L3 associativity.
    pub l3_ways: usize,
    /// L1 hit latency, cycles.
    pub l1_lat: u64,
    /// L2 hit latency, cycles.
    pub l2_lat: u64,
    /// L3 hit latency, cycles.
    pub l3_lat: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1_bytes: 32 << 10,
            l1_ways: 2,
            l2_bytes: 512 << 10,
            l2_ways: 8,
            l3_bytes: 2 << 20,
            l3_ways: 8,
            l1_lat: 2,
            l2_lat: 10,
            l3_lat: 30,
        }
    }
}

impl HierarchyConfig {
    /// A scaled-down hierarchy for tests: tiny caches so LLC misses and
    /// write-backs occur within a few hundred accesses.
    pub fn small_for_tests() -> Self {
        HierarchyConfig {
            l1_bytes: 512,
            l1_ways: 2,
            l2_bytes: 2048,
            l2_ways: 4,
            l3_bytes: 8192,
            l3_ways: 4,
            l1_lat: 2,
            l2_lat: 10,
            l3_lat: 30,
        }
    }
}

/// A request the LLC issues to the memory controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemEvent {
    /// Demand line fill (on the CPU's critical path).
    Fill { addr: u64 },
    /// Dirty line write-back (off the critical path; enters the write queue).
    WriteBack { addr: u64 },
    /// Prefetch fill. Never emitted: Table I's hierarchy has no
    /// prefetcher. The variant stays because the `benchmark/` package's
    /// replay loops match on it.
    Prefetch { addr: u64 },
}

/// Result of one CPU access against the hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyAccess {
    /// Cycles of on-chip latency (hit level's latency; memory latency is
    /// added by the caller from the Fill's service time).
    pub on_chip_cycles: u64,
    /// Events for the memory controller, in issue order (write-backs first,
    /// then the fill if any).
    pub events: Vec<MemEvent>,
}

/// Three-level write-back hierarchy.
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    cfg: HierarchyConfig,
}

impl CacheHierarchy {
    /// Builds the hierarchy per `cfg`.
    pub fn new(cfg: HierarchyConfig) -> Self {
        CacheHierarchy {
            l1: SetAssocCache::new(CacheConfig::new(cfg.l1_bytes, cfg.l1_ways)),
            l2: SetAssocCache::new(CacheConfig::new(cfg.l2_bytes, cfg.l2_ways)),
            l3: SetAssocCache::new(CacheConfig::new(cfg.l3_bytes, cfg.l3_ways)),
            cfg,
        }
    }

    /// Performs one load (`write = false`) or store (`write = true`).
    pub fn access(&mut self, addr: u64, write: bool) -> HierarchyAccess {
        let mut events = Vec::new();

        // L1.
        let l1_out = self.l1.access(addr, write);
        if l1_out == AccessOutcome::Hit {
            return HierarchyAccess {
                on_chip_cycles: self.cfg.l1_lat,
                events,
            };
        }
        if let AccessOutcome::Miss { victim: Some(v) } = l1_out {
            if v.dirty {
                // Dirty L1 victim lands in L2.
                Self::install_dirty(&mut self.l2, &mut self.l3, v.addr, &mut events);
            }
        }

        // L2.
        let l2_out = self.l2.access(addr, write);
        if l2_out == AccessOutcome::Hit {
            return HierarchyAccess {
                on_chip_cycles: self.cfg.l1_lat + self.cfg.l2_lat,
                events,
            };
        }
        if let AccessOutcome::Miss { victim: Some(v) } = l2_out {
            if v.dirty {
                Self::install_dirty_l3(&mut self.l3, v.addr, &mut events);
            }
        }

        // L3 (LLC).
        let l3_out = self.l3.access(addr, write);
        let on_chip = self.cfg.l1_lat + self.cfg.l2_lat + self.cfg.l3_lat;
        match l3_out {
            AccessOutcome::Hit => HierarchyAccess {
                on_chip_cycles: on_chip,
                events,
            },
            AccessOutcome::Miss { victim } => {
                if let Some(v) = victim {
                    if v.dirty {
                        events.push(MemEvent::WriteBack { addr: v.addr });
                    }
                }
                events.push(MemEvent::Fill { addr });
                HierarchyAccess {
                    on_chip_cycles: on_chip,
                    events,
                }
            }
        }
    }

    /// Installs a dirty line evicted from L1 into L2, cascading evictions.
    fn install_dirty(
        l2: &mut SetAssocCache,
        l3: &mut SetAssocCache,
        addr: u64,
        events: &mut Vec<MemEvent>,
    ) {
        if let AccessOutcome::Miss { victim: Some(v) } = l2.access(addr, true) {
            if v.dirty {
                Self::install_dirty_l3(l3, v.addr, events);
            }
        }
    }

    /// Installs a dirty line evicted from L2 into L3, emitting a write-back
    /// if L3 in turn evicts a dirty victim.
    fn install_dirty_l3(l3: &mut SetAssocCache, addr: u64, events: &mut Vec<MemEvent>) {
        if let AccessOutcome::Miss { victim: Some(v) } = l3.access(addr, true) {
            if v.dirty {
                events.push(MemEvent::WriteBack { addr: v.addr });
            }
        }
    }

    /// Flushes one line out of the whole hierarchy (clwb/clflush semantics of
    /// the persistent workloads). Returns a `WriteBack` event if any level
    /// held the line dirty.
    pub fn flush_line(&mut self, addr: u64) -> Option<MemEvent> {
        let d1 = self.l1.invalidate(addr);
        let d2 = self.l2.invalidate(addr);
        let d3 = self.l3.invalidate(addr);
        if d1 || d2 || d3 {
            Some(MemEvent::WriteBack { addr })
        } else {
            None
        }
    }

    /// Drains every dirty line in the hierarchy (used at end-of-trace so
    /// all functional state reaches the controller). Returns write-backs.
    pub fn drain(&mut self) -> Vec<MemEvent> {
        let mut dirty: Vec<u64> = self.l1.dirty_lines();
        dirty.extend(self.l2.dirty_lines());
        dirty.extend(self.l3.dirty_lines());
        dirty.sort_unstable();
        dirty.dedup();
        for &a in &dirty {
            self.l1.invalidate(a);
            self.l2.invalidate(a);
            self.l3.invalidate(a);
        }
        dirty
            .into_iter()
            .map(|addr| MemEvent::WriteBack { addr })
            .collect()
    }

    /// Per-level statistics `(l1, l2, l3)`.
    pub fn stats(&self) -> (&CacheStats, &CacheStats, &CacheStats) {
        (self.l1.stats(), self.l2.stats(), self.l3.stats())
    }

    /// Exports per-level hit/miss/eviction counters under `cache.l1.` /
    /// `cache.l2.` / `cache.l3.`.
    pub fn export_metrics(&self, reg: &mut steins_obs::MetricRegistry) {
        self.l1.stats().export_metrics(reg, "cache.l1");
        self.l2.stats().export_metrics(reg, "cache.l2");
        self.l3.stats().export_metrics(reg, "cache.l3");
    }

    /// All line addresses dirty anywhere in the hierarchy, without mutating
    /// state (crash modeling: these contents are lost at power failure).
    pub fn dirty_lines(&self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self.l1.dirty_lines();
        dirty.extend(self.l2.dirty_lines());
        dirty.extend(self.l3.dirty_lines());
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::small_for_tests())
    }

    #[test]
    fn first_access_misses_to_memory() {
        let mut h = small();
        let a = h.access(0, false);
        assert_eq!(a.events, vec![MemEvent::Fill { addr: 0 }]);
        // Second access hits in L1 with no events.
        let b = h.access(0, false);
        assert!(b.events.is_empty());
        assert_eq!(b.on_chip_cycles, 2);
    }

    #[test]
    fn store_then_capacity_eviction_writes_back() {
        let mut h = small();
        h.access(0, true);
        // Touch enough distinct lines to push line 0 out of all levels.
        let mut seen_wb = false;
        for i in 1..1024u64 {
            let a = h.access(i * 64, false);
            if a.events.contains(&MemEvent::WriteBack { addr: 0 }) {
                seen_wb = true;
            }
        }
        assert!(seen_wb, "dirty line 0 must eventually write back");
    }

    #[test]
    fn flush_line_emits_writeback_only_if_dirty() {
        let mut h = small();
        h.access(0, false);
        assert_eq!(h.flush_line(0), None);
        h.access(64, true);
        assert_eq!(h.flush_line(64), Some(MemEvent::WriteBack { addr: 64 }));
        // Flushed: next access misses again.
        let a = h.access(64, false);
        assert_eq!(a.events, vec![MemEvent::Fill { addr: 64 }]);
    }

    #[test]
    fn drain_returns_all_dirty_lines_once() {
        let mut h = small();
        h.access(0, true);
        h.access(64, true);
        h.access(128, false);
        let wbs = h.drain();
        let mut addrs: Vec<u64> = wbs
            .iter()
            .map(|e| match e {
                MemEvent::WriteBack { addr } => *addr,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0, 64]);
        assert!(h.drain().is_empty(), "second drain is empty");
    }

    #[test]
    fn latencies_grow_with_depth() {
        let mut h = small();
        h.access(0, false); // install everywhere
        let l1 = h.access(0, false).on_chip_cycles;
        // Evict from L1 only: touch other lines mapping to set of addr 0 in L1.
        // L1 small: 512B/2way/64B = 4 sets; lines 0,256,512 share set 0.
        h.access(256, false);
        h.access(512, false);
        let deeper = h.access(0, false).on_chip_cycles;
        assert!(deeper > l1);
    }
}
