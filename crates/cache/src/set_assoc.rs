//! Generic set-associative, true-LRU, write-back cache (tag array only).
//!
//! Used as the CPU L1/L2/L3 levels and in unit benches. Lines are 64 B (the
//! whole system's granularity, Table I).
//!
//! The tag array is one contiguous slab of ways indexed `set * ways + way`
//! (not a `Vec<Vec<_>>`), the layout the metadata cache uses too: building
//! a cache is one allocation instead of one per set (5,376 for the Table I
//! hierarchy), and a lookup scans one slice with no second pointer chase.
//! A way is one 8-byte tag word holding its tag, valid and dirty bits and
//! LRU rank (`lru_rank.rs`), so a set holds at most 64 ways.

use crate::lru_rank::{self, check_ways, fill, find, key, rank, tag_of, touch, DIRTY, VALID};
use crate::stats::CacheStats;
use std::ops::Range;

/// Line size shared by every cache in the system.
pub const LINE_BYTES: u64 = 64;

/// Cache geometry.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set, at most 64).
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a config, asserting the geometry is realizable.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        check_ways(ways);
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
    /// Tag-word slab: way `w` of set `s` lives at index `s * ways + w`.
    slab: Vec<u64>,
    /// `cfg.sets()`, cached off the hot path.
    sets: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache for `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        let cfg = CacheConfig::new(cfg.capacity_bytes, cfg.ways);
        SetAssocCache {
            cfg,
            slab: vec![0; cfg.sets() as usize * cfg.ways],
            sets: cfg.sets(),
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

    /// `addr`'s set and the way of it holding `addr`, if resident.
    fn find_mut(&mut self, addr: u64) -> Option<(&mut [u64], usize)> {
        let (set, tag) = self.index(addr);
        let ways = self.ways_of(set);
        let set = &mut self.slab[ways];
        let way = find(set, tag)?;
        Some((set, way))
    }

    /// The tag word holding `addr`, if resident.
    fn word(&self, addr: u64) -> Option<u64> {
        let (set, tag) = self.index(addr);
        let set = &self.slab[self.ways_of(set)];
        find(set, tag).map(|w| set[w])
    }

    /// Resident lines' addresses, in slab order, filtered by `keep`.
    fn lines_where(&self, keep: impl Fn(u64) -> bool) -> Vec<u64> {
        let ways = self.cfg.ways;
        self.slab
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w & VALID != 0 && keep(w))
            .map(|(i, &w)| self.addr_of(i / ways, tag_of(w)))
            .collect()
    }

    /// Accesses `addr`; `write` marks the line dirty on hit/install.
    /// On a miss the line is installed (allocate-on-miss for both reads and
    /// writes, the policy of write-back caches with write-allocate).
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let (set_idx, tag) = self.index(addr);
        let ways = self.ways_of(set_idx);
        let set = &mut self.slab[ways];
        let dirty = if write { DIRTY } else { 0 };

        if let Some(way) = find(set, tag) {
            touch(set, way);
            set[way] |= dirty;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        // Choose victim: an invalid way, else the true-LRU (highest-ranked)
        // way.
        let way = lru_rank::victim(set, |_| true).expect("ways nonzero");
        let old = set[way];
        let victim = if old & VALID != 0 {
            let dirty = old & DIRTY != 0;
            if dirty {
                self.stats.writebacks += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
            Some(Victim {
                addr: (tag_of(old) * self.sets + set_idx as u64) * LINE_BYTES,
                dirty,
            })
        } else {
            None
        };
        fill(set, way, key(tag) | dirty);
        AccessOutcome::Miss { victim }
    }

    /// Whether `addr` is currently cached (no LRU update, no stats).
    pub fn contains(&self, addr: u64) -> bool {
        self.word(addr).is_some()
    }

    /// Whether `addr` is cached *and* dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.word(addr).is_some_and(|w| w & DIRTY != 0)
    }

    /// Clears the dirty bit of `addr` (after an explicit write-back/flush).
    pub fn clean(&mut self, addr: u64) {
        if let Some((set, w)) = self.find_mut(addr) {
            set[w] &= !DIRTY;
        }
    }

    /// Invalidates `addr`, returning whether it was dirty. The ways ranked
    /// after it move up one, closing the gap.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let Some((set, w)) = self.find_mut(addr) else {
            return false;
        };
        let old = std::mem::take(&mut set[w]);
        for x in set {
            if *x & VALID != 0 && rank(*x) > rank(old) {
                *x -= 1;
            }
        }
        old & DIRTY != 0
    }

    /// All currently-resident dirty line addresses (crash modeling: these are
    /// the lines whose latest contents are lost).
    pub fn dirty_lines(&self) -> Vec<u64> {
        self.lines_where(|w| w & DIRTY != 0)
    }

    /// All resident line addresses.
    pub fn resident_lines(&self) -> Vec<u64> {
        self.lines_where(|_| true)
    }

    /// Drops every line (crash: volatile contents vanish).
    pub fn clear(&mut self) {
        self.slab.fill(0);
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
    use crate::lru_rank::next;

    fn small() -> SetAssocCache {
        // 4 sets × 2 ways × 64B = 512B.
        SetAssocCache::new(CacheConfig::new(512, 2))
    }

    /// The per-access use stamps the tag words' ranks replaced, kept as
    /// the reference the ranks are checked against: each way keeps the
    /// stamp of its last access, and the victim is the first invalid way,
    /// else the way with the oldest stamp.
    #[derive(Clone, Copy, Default)]
    struct StampWay {
        valid: bool,
        dirty: bool,
        tag: u64,
        lru: u64,
    }

    struct StampCache {
        ways: usize,
        sets: u64,
        slab: Vec<StampWay>,
        stamp: u64,
    }

    impl StampCache {
        fn new(cfg: CacheConfig) -> Self {
            StampCache {
                ways: cfg.ways,
                sets: cfg.sets(),
                slab: vec![StampWay::default(); cfg.sets() as usize * cfg.ways],
                stamp: 0,
            }
        }

        /// `addr`'s set index, tag and ways.
        fn set(&mut self, addr: u64) -> (usize, u64, &mut [StampWay]) {
            let line = addr / LINE_BYTES;
            let set = (line % self.sets) as usize;
            let ways = &mut self.slab[set * self.ways..(set + 1) * self.ways];
            (set, line / self.sets, ways)
        }

        fn find(&mut self, addr: u64) -> Option<&mut StampWay> {
            let (_, tag, set) = self.set(addr);
            set.iter_mut().find(|w| w.valid && w.tag == tag)
        }

        fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
            self.stamp += 1;
            let (stamp, sets) = (self.stamp, self.sets);
            let (set_idx, tag, set) = self.set(addr);
            if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                way.lru = stamp;
                way.dirty |= write;
                return AccessOutcome::Hit;
            }
            let i = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
                (0..set.len())
                    .min_by_key(|&i| set[i].lru)
                    .expect("ways nonzero")
            });
            let v = set[i];
            set[i] = StampWay {
                valid: true,
                dirty: write,
                tag,
                lru: stamp,
            };
            AccessOutcome::Miss {
                victim: v.valid.then_some(Victim {
                    addr: (v.tag * sets + set_idx as u64) * LINE_BYTES,
                    dirty: v.dirty,
                }),
            }
        }

        fn clean(&mut self, addr: u64) {
            if let Some(w) = self.find(addr) {
                w.dirty = false;
            }
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            self.find(addr).is_some_and(|w| {
                let dirty = w.dirty;
                (w.valid, w.dirty) = (false, false);
                dirty
            })
        }

        fn clear(&mut self) {
            self.slab.fill(StampWay::default());
        }

        fn lines_where(&self, keep: impl Fn(&StampWay) -> bool) -> Vec<u64> {
            self.slab
                .iter()
                .enumerate()
                .filter(|(_, w)| w.valid && keep(w))
                .map(|(i, w)| (w.tag * self.sets + (i / self.ways) as u64) * LINE_BYTES)
                .collect()
        }
    }

    /// Seeded random access/invalidate/clean/clear streams give the same
    /// outcome, victim and dirty set under ranks as under stamps, on 2-,
    /// 8-, 16- and 64-way sets.
    #[test]
    fn ranks_match_stamps_op_for_op() {
        for ways in [2usize, 8, 16, 64] {
            let cfg = CacheConfig::new(4 * ways as u64 * LINE_BYTES, ways);
            for seed in 1..=4u64 {
                let mut ranks = SetAssocCache::new(cfg);
                let mut stamps = StampCache::new(cfg);
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for op in 0..50_000 {
                    let r = next(&mut rng);
                    // Half the lines come from a hot half-capacity range,
                    // so hits land at every rank; the rest from three
                    // times the capacity, so sets fill and evict.
                    let lines = if r & 1 == 0 {
                        cfg.lines() / 2
                    } else {
                        3 * cfg.lines()
                    };
                    let addr = (r >> 16) % lines * LINE_BYTES;
                    let at = format!("{ways} ways, seed {seed}, op {op}");
                    match (r >> 8) % 1000 {
                        0 => {
                            ranks.clear();
                            stamps.clear();
                        }
                        1..=99 => {
                            ranks.clean(addr);
                            stamps.clean(addr);
                        }
                        100..=199 => {
                            let got = ranks.invalidate(addr);
                            assert_eq!(got, stamps.invalidate(addr), "invalidate, {at}");
                        }
                        _ => {
                            let write = r & 2 != 0;
                            let got = ranks.access(addr, write);
                            assert_eq!(got, stamps.access(addr, write), "access, {at}");
                        }
                    }
                    assert_eq!(
                        ranks.dirty_lines(),
                        stamps.lines_where(|w| w.dirty),
                        "dirty lines, {at}"
                    );
                    assert_eq!(
                        ranks.resident_lines(),
                        stamps.lines_where(|_| true),
                        "resident lines, {at}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn a_65_way_geometry_is_refused() {
        CacheConfig::new(65 * LINE_BYTES, 65);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn a_65_way_cache_is_refused_without_new() {
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 65 * LINE_BYTES,
            ways: 65,
        });
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
