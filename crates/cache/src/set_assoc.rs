//! Generic set-associative, true-LRU, write-back cache (tag array only).
//!
//! Used as the CPU L1/L2/L3 levels and in unit benches. Lines are 64 B (the
//! whole system's granularity, Table I).
//!
//! The tag array is one contiguous slab of ways indexed `set * ways + way`
//! (not a `Vec<Vec<_>>`), the layout the metadata cache uses too: building
//! a cache is one allocation instead of one per set (5,376 for the Table I
//! hierarchy), and a lookup scans one slice with no second pointer chase.

use crate::stats::CacheStats;
use std::ops::Range;

/// Line size shared by every cache in the system.
pub const LINE_BYTES: u64 = 64;

/// Cache geometry.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a config, asserting the geometry is realizable.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        let cfg = CacheConfig {
            capacity_bytes,
            ways,
        };
        assert!(cfg.sets() >= 1, "capacity too small for associativity");
        cfg
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / LINE_BYTES / self.ways as u64
    }

    /// Total lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / LINE_BYTES
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Monotone use stamp; smaller = older (true LRU).
    lru: u64,
}

/// What happened on an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present.
    Hit,
    /// Line absent; `victim` is a dirty line that must be written back, if
    /// any. The requested line is now installed.
    Miss { victim: Option<Victim> },
}

/// An evicted line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// Byte address of the evicted line.
    pub addr: u64,
    /// Whether it was dirty (needs a write-back).
    pub dirty: bool,
}

/// Tag-array set-associative cache with true LRU and write-back dirty bits.
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Way slab: way `w` of set `s` lives at index `s * ways + w`.
    slab: Vec<Way>,
    /// `cfg.sets()`, cached off the hot path.
    sets: u64,
    stamp: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache for `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        SetAssocCache {
            cfg,
            slab: vec![Way::default(); cfg.sets() as usize * cfg.ways],
            sets: cfg.sets(),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / LINE_BYTES;
        ((line % self.sets) as usize, line / self.sets)
    }

    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets + set as u64) * LINE_BYTES
    }

    /// Slab indices of set `set`'s ways.
    fn ways_of(&self, set: usize) -> Range<usize> {
        set * self.cfg.ways..(set + 1) * self.cfg.ways
    }

    /// The resident way holding `addr`, if any.
    fn find_mut(&mut self, addr: u64) -> Option<&mut Way> {
        let (set, tag) = self.index(addr);
        let ways = self.ways_of(set);
        self.slab[ways].iter_mut().find(|w| w.valid && w.tag == tag)
    }

    /// Resident lines' addresses, in slab order, filtered by `keep`.
    fn lines_where(&self, keep: impl Fn(&Way) -> bool) -> Vec<u64> {
        let ways = self.cfg.ways;
        self.slab
            .iter()
            .enumerate()
            .filter(|(_, w)| w.valid && keep(w))
            .map(|(i, w)| self.addr_of(i / ways, w.tag))
            .collect()
    }

    /// Accesses `addr`; `write` marks the line dirty on hit/install.
    /// On a miss the line is installed (allocate-on-miss for both reads and
    /// writes, the policy of write-back caches with write-allocate).
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.stamp += 1;
        let (set_idx, tag) = self.index(addr);
        let ways = self.ways_of(set_idx);
        let set = &mut self.slab[ways];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.stamp;
            way.dirty |= write;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        // Choose victim: an invalid way, else the true-LRU way.
        let victim_idx = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("ways nonzero")
        });
        let victim = if set[victim_idx].valid {
            let v = set[victim_idx];
            if v.dirty {
                self.stats.writebacks += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
            Some(Victim {
                addr: (v.tag * self.sets + set_idx as u64) * LINE_BYTES,
                dirty: v.dirty,
            })
        } else {
            None
        };
        set[victim_idx] = Way {
            valid: true,
            dirty: write,
            tag,
            lru: self.stamp,
        };
        AccessOutcome::Miss { victim }
    }

    /// Whether `addr` is currently cached (no LRU update, no stats).
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.slab[self.ways_of(set)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Whether `addr` is cached *and* dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.slab[self.ways_of(set)]
            .iter()
            .any(|w| w.valid && w.tag == tag && w.dirty)
    }

    /// Clears the dirty bit of `addr` (after an explicit write-back/flush).
    pub fn clean(&mut self, addr: u64) {
        if let Some(w) = self.find_mut(addr) {
            w.dirty = false;
        }
    }

    /// Invalidates `addr`, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        match self.find_mut(addr) {
            Some(w) => {
                let dirty = w.dirty;
                w.valid = false;
                w.dirty = false;
                dirty
            }
            None => false,
        }
    }

    /// All currently-resident dirty line addresses (crash modeling: these are
    /// the lines whose latest contents are lost).
    pub fn dirty_lines(&self) -> Vec<u64> {
        self.lines_where(|w| w.dirty)
    }

    /// All resident line addresses.
    pub fn resident_lines(&self) -> Vec<u64> {
        self.lines_where(|_| true)
    }

    /// Drops every line (crash: volatile contents vanish).
    pub fn clear(&mut self) {
        self.slab.fill(Way::default());
    }

    /// Statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The set index `addr` maps to (exposed for STAR's per-set cache-tree).
    pub fn set_of(&self, addr: u64) -> usize {
        self.index(addr).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets × 2 ways × 64B = 512B.
        SetAssocCache::new(CacheConfig::new(512, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(512, 2);
        assert_eq!(c.sets(), 4);
        assert_eq!(c.lines(), 8);
    }

    #[test]
    fn hit_after_install() {
        let mut c = small();
        assert!(matches!(c.access(0, false), AccessOutcome::Miss { .. }));
        assert_eq!(c.access(0, false), AccessOutcome::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Set 0 holds lines 0 and 4*64=256 (tags 0,1); line 512 (tag 2) evicts LRU.
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // refresh line 0; 256 is now LRU
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v.addr, 256),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(0));
        assert!(!c.contains(256));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = small();
        c.access(0, true);
        c.access(256, false);
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some(v) } => {
                assert_eq!(v.addr, 0);
                assert!(v.dirty);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = small();
        c.access(64, false);
        assert!(!c.is_dirty(64));
        c.access(64, true);
        assert!(c.is_dirty(64));
        c.clean(64);
        assert!(!c.is_dirty(64));
    }

    #[test]
    fn dirty_lines_enumerates() {
        let mut c = small();
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        let mut dirty = c.dirty_lines();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 128]);
        assert_eq!(c.resident_lines().len(), 3);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.access(0, true);
        assert!(c.invalidate(0));
        assert!(!c.contains(0));
        assert!(!c.invalidate(0));
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = small();
        c.access(0, true);
        c.access(64, true);
        c.clear();
        assert!(c.dirty_lines().is_empty());
        assert!(!c.contains(0));
    }

    #[test]
    fn every_way_of_every_set_holds_its_own_line() {
        // 8 lines fill 4 sets × 2 ways exactly: no slot is shared between
        // sets, so nothing is evicted until a ninth line arrives.
        let mut c = small();
        let lines: Vec<u64> = (0..8).map(|i| i * 64).collect();
        for &a in &lines {
            assert_eq!(
                c.access(a, a % 128 == 0),
                AccessOutcome::Miss { victim: None }
            );
        }
        // Slab order: set by set, way by way.
        assert_eq!(
            c.resident_lines(),
            vec![0, 256, 64, 320, 128, 384, 192, 448]
        );
        assert_eq!(c.dirty_lines(), vec![0, 256, 128, 384]);
        match c.access(3 * 64 + 512, false) {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v.addr, 192),
            other => panic!("expected set 3's LRU line, got {other:?}"),
        }
    }

    #[test]
    fn address_reconstruction_is_inverse() {
        let mut c = small();
        for addr in [0u64, 64, 512, 4096, 1 << 20] {
            c.access(addr, false);
            assert!(c.contains(addr), "addr {addr}");
            assert!(c.resident_lines().contains(&addr));
        }
    }
}
