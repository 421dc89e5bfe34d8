//! The memory-controller metadata cache (Table I: 256 KB, 8-way, LRU, 64 B).
//!
//! Unlike the tag-only CPU caches, this cache holds *live node values*: the
//! secure engine reads cached nodes out and writes them back changed, and
//! the crash model needs the exact dirty contents that are lost. Slots are identified by a flat index
//! `set · ways + way`, the coordinate Steins' offset records are keyed by
//! (§III-C: "a record for each metadata cache line").
//!
//! Storage is one slab of slots indexed by that flat slot (not a
//! `Vec<Vec<_>>`). A slot is one 8-byte tag word, the CPU caches' way (the
//! node offset as the tag, the valid and dirty bits, and the slot's LRU
//! rank among its set's resident slots: `lru_rank.rs` in `steins-cache`,
//! included here by path), beside its node as eight counter words and the
//! HMAC, 80 B in all. The words are `SitNode::counter_words`: a general
//! block's counters verbatim, a split leaf's major and its minors ten to a
//! word. Which offsets hold split leaves (the leaf level in split-counter
//! mode, none in general-counter mode) the cache learns from the tree
//! geometry it is built for, so nodes go in and come out as [`SitNode`]
//! values. The victim is the first empty slot, else the least recently
//! used unpinned one, and a set holds at most 64 ways.
//!
//! One controller owns the cache and mutates it through `&mut` — the
//! sharded engine holds the shard's mutex — so no slot state is shared
//! across threads. Recovery's slot-pinned [`MetadataCache::install_at`]
//! refuses an occupied slot, so a pinned install can never silently
//! overwrite a node another install already placed.

use crate::counter::{CounterBlock, CounterMode};
use crate::geometry::SitGeometry;
use crate::node::SitNode;
use lru_rank::{check_ways, fill, find, key, tag_of, touch, Way, DIRTY, TAG_SHIFT, VALID};
use std::ops::Range;
use steins_crypto as _; // crate-level dependency kept for doc links
use steins_obs::{Histogram, MetricRegistry};

/// Metadata cache geometry.
#[derive(Clone, Copy, Debug)]
pub struct MetaCacheConfig {
    /// Capacity in bytes (nodes are 64 B).
    pub capacity_bytes: u64,
    /// Associativity (at most 64).
    pub ways: usize,
}

impl MetaCacheConfig {
    /// Table I default: 256 KB, 8-way.
    pub fn table1() -> Self {
        MetaCacheConfig {
            capacity_bytes: 256 << 10,
            ways: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / 64 / self.ways as u64
    }

    /// Total slots (= cache lines = record entries).
    pub fn slots(&self) -> u64 {
        self.capacity_bytes / 64
    }

    /// This cache split across `shards` equal parts (at least one set
    /// each): the sharded engine divides one cache budget, it does not
    /// multiply it.
    pub fn split(&self, shards: usize) -> MetaCacheConfig {
        assert!(shards >= 1);
        let min = 64 * self.ways as u64; // one set
        MetaCacheConfig {
            capacity_bytes: (self.capacity_bytes / shards as u64).max(min),
            ways: self.ways,
        }
    }
}

#[path = "../../cache/src/lru_rank.rs"]
mod lru_rank;

/// One slot: its tag word and the node it holds, as its counter words and
/// HMAC (stale while empty).
#[derive(Clone, Copy)]
struct Slot {
    word: u64,
    counters: [u64; 8],
    hmac: u64,
}

impl Way for Slot {
    fn word(&self) -> u64 {
        self.word
    }
    fn word_mut(&mut self) -> &mut u64 {
        &mut self.word
    }
}

/// A node evicted to make room.
#[derive(Clone, Debug)]
pub struct EvictedNode {
    /// Its metadata-region offset.
    pub offset: u64,
    /// Whether it was dirty (must be flushed through the secure write path).
    pub dirty: bool,
    /// The flat slot index it vacated.
    pub slot: u64,
}

/// Value-holding, true-LRU, set-associative metadata cache keyed by node
/// offset.
pub struct MetadataCache {
    cfg: MetaCacheConfig,
    /// Slot `(set, way)` lives at index `set * ways + way`.
    slots: Vec<Slot>,
    /// Offsets below this hold split leaves (the leaf level sits first in
    /// the metadata region); 0 in general-counter mode.
    split_below: u64,
    sets: usize,
    ways: usize,
    hits: u64,
    misses: u64,
    /// Dirty resident nodes right now (maintained incrementally — the slab
    /// is never walked on the hot path).
    dirty_count: u64,
    /// Dirty-population distribution, sampled at each clean→dirty
    /// transition (how much state a crash at that instant would lose).
    dirty_occ_hist: Histogram,
    /// Sizes of dirty-node batches collected per flush/set-MAC pass.
    flush_batch_hist: Histogram,
}

impl MetadataCache {
    /// Builds an empty cache for the nodes of `geometry`'s tree.
    pub fn new(cfg: MetaCacheConfig, geometry: &SitGeometry) -> Self {
        check_ways(cfg.ways);
        assert!(cfg.sets() >= 1, "metadata cache too small");
        let sets = cfg.sets() as usize;
        let ways = cfg.ways;
        MetadataCache {
            cfg,
            slots: vec![
                Slot {
                    word: 0,
                    counters: [0; 8],
                    hmac: 0,
                };
                sets * ways
            ],
            split_below: match geometry.mode() {
                CounterMode::Split => geometry.nodes_at(0),
                CounterMode::General => 0,
            },
            sets,
            ways,
            hits: 0,
            misses: 0,
            dirty_count: 0,
            dirty_occ_hist: Histogram::new(),
            flush_batch_hist: Histogram::new(),
        }
    }

    /// The node flat slot `flat` holds, which sits at `offset`.
    fn node(&self, flat: usize, offset: u64) -> SitNode {
        let s = &self.slots[flat];
        SitNode::from_counter_words(&s.counters, s.hmac, offset < self.split_below)
    }

    /// Puts `node`, which sits at `offset`, into flat slot `flat`'s words.
    fn store(&mut self, flat: usize, offset: u64, node: &SitNode) {
        debug_assert_eq!(
            matches!(node.counters, CounterBlock::Split(_)),
            offset < self.split_below,
            "node {offset} is not in its level's counter layout"
        );
        let s = &mut self.slots[flat];
        s.counters = node.counter_words();
        s.hmac = node.hmac;
    }

    fn set_of(&self, offset: u64) -> usize {
        (offset % self.sets as u64) as usize
    }

    /// Flat slot index of `(set, way)`.
    fn flat(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Flat slot indices of set `set`.
    fn slots_of(&self, set: usize) -> Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// The way of `set` holding `offset`, if resident.
    #[inline]
    fn way_of(&self, set: usize, offset: u64) -> Option<usize> {
        find(&self.slots[self.slots_of(set)], offset)
    }

    /// The flat slot holding `offset`, if resident.
    fn find(&self, offset: u64) -> Option<usize> {
        let set = self.set_of(offset);
        self.way_of(set, offset).map(|w| self.flat(set, w))
    }

    /// The flat slot holding `offset`, made its set's most recent slot,
    /// counting the hit or miss.
    fn hit(&mut self, offset: u64) -> Option<usize> {
        let set = self.set_of(offset);
        let way = self.way_of(set, offset);
        match way {
            Some(way) => {
                self.hits += 1;
                let slots = self.slots_of(set);
                touch(&mut self.slots[slots], way);
            }
            None => self.misses += 1,
        }
        way.map(|way| self.flat(set, way))
    }

    /// Whether `offset` is resident, with [`Self::read`]'s LRU update and
    /// hit/miss accounting but copying nothing.
    pub fn touch(&mut self, offset: u64) -> bool {
        self.hit(offset).is_some()
    }

    /// The node at `offset`, by value, updating LRU and hit/miss counters.
    pub fn read(&mut self, offset: u64) -> Option<SitNode> {
        self.hit(offset).map(|flat| self.node(flat, offset))
    }

    /// Copy-in write of a resident node's contents (no hit/miss accounting;
    /// pairs with [`Self::read`]). Returns `false` if the node is absent.
    pub fn write(&mut self, offset: u64, node: SitNode) -> bool {
        match self.find(offset) {
            Some(flat) => {
                self.store(flat, offset, &node);
                true
            }
            None => false,
        }
    }

    /// The set index `offset` maps to (STAR's set-MACs are per cache set).
    pub fn set_index(&self, offset: u64) -> usize {
        self.set_of(offset)
    }

    /// The resident flat slots among `flats` with their tag words, in
    /// slot order.
    fn resident(&self, flats: Range<usize>) -> impl Iterator<Item = (usize, u64)> + '_ {
        flats
            .map(|flat| (flat, self.slots[flat].word))
            .filter(|&(_, w)| w & VALID != 0)
    }

    /// All resident nodes of one set as `(offset, node, dirty)`, in way
    /// order (STAR sorts these by address before MACing).
    pub fn set_nodes(&self, set: usize) -> Vec<(u64, SitNode, bool)> {
        self.resident(self.slots_of(set))
            .map(|(flat, w)| (tag_of(w), self.node(flat, tag_of(w)), w & DIRTY != 0))
            .collect()
    }

    /// Appends the *dirty* resident nodes of one set to `out` as
    /// `(offset, node)`, in way order — the allocation-free form of
    /// [`Self::set_nodes`] for STAR's per-write set-MAC update, where the
    /// engine reuses one scratch vector across calls.
    pub fn dirty_set_nodes_into(&mut self, set: usize, out: &mut Vec<(u64, SitNode)>) {
        let before = out.len();
        out.extend(
            self.resident(self.slots_of(set))
                .filter(|&(_, w)| w & DIRTY != 0)
                .map(|(flat, w)| (tag_of(w), self.node(flat, tag_of(w)))),
        );
        self.flush_batch_hist.record((out.len() - before) as u64);
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The node at `offset`, by value, without LRU/stat side effects.
    pub fn peek(&self, offset: u64) -> Option<SitNode> {
        self.find(offset).map(|flat| self.node(flat, offset))
    }

    /// The `(major, minor)` encryption-counter pair of child `slot` of the
    /// node at `offset` ([`CounterBlock::enc_pair`]), read from the slot's
    /// words without unpacking the node or touching LRU/stats.
    pub fn enc_pair(&self, offset: u64, slot: usize) -> Option<(u64, u64)> {
        let flat = self.find(offset)?;
        let split = offset < self.split_below;
        Some(SitNode::enc_pair_in_words(
            &self.slots[flat].counters,
            split,
            slot,
        ))
    }

    /// Whether `offset` is resident.
    pub fn contains(&self, offset: u64) -> bool {
        self.find(offset).is_some()
    }

    /// Whether `offset` is resident and dirty (no LRU or stat side
    /// effects).
    pub fn is_dirty(&self, offset: u64) -> bool {
        self.find(offset)
            .is_some_and(|flat| self.slots[flat].word & DIRTY != 0)
    }

    /// Marks a resident node dirty. Returns `(slot, was_clean)`; panics if
    /// the node is absent (engine bug).
    pub fn mark_dirty(&mut self, offset: u64) -> (u64, bool) {
        let flat = self
            .find(offset)
            .unwrap_or_else(|| panic!("mark_dirty on non-resident node offset {offset}"));
        let word = &mut self.slots[flat].word;
        let was_clean = *word & DIRTY == 0;
        *word |= DIRTY;
        if was_clean {
            self.dirty_count += 1;
            self.dirty_occ_hist.record(self.dirty_count);
        }
        (flat as u64, was_clean)
    }

    /// Clears the dirty bit (after a flush that kept the node resident).
    pub fn mark_clean(&mut self, offset: u64) {
        if let Some(flat) = self.find(offset) {
            let word = &mut self.slots[flat].word;
            if *word & DIRTY != 0 {
                *word &= !DIRTY;
                self.dirty_count -= 1;
            }
        }
    }

    /// Installs `node` at `offset`, evicting the LRU way if the set is full.
    /// The caller handles the eviction through the secure flush path.
    pub fn install(&mut self, offset: u64, node: SitNode, dirty: bool) -> Option<EvictedNode> {
        self.install_pinned(offset, node, dirty, &[])
    }

    /// The way [`Self::install_pinned`] fills for a node of `set`: the
    /// first empty way, else the least recently used (highest-ranked) way
    /// whose node is not `pinned`. `None` if every way is pinned.
    fn victim_way(&self, set: usize, pinned: &[u64]) -> Option<usize> {
        lru_rank::victim(&self.slots[self.slots_of(set)], |w| {
            !pinned.contains(&tag_of(w))
        })
    }

    /// Reports what [`Self::install_pinned`] would evict for `offset` right
    /// now, without evicting: `None` if a free way exists, otherwise the
    /// victim's `(offset, dirty)`. The engine uses this to flush dirty
    /// victims *in place* (still resident, still visible to nested fetches)
    /// before the actual install.
    pub fn probe_victim(&self, offset: u64, pinned: &[u64]) -> Option<(u64, bool)> {
        let set = self.set_of(offset);
        let w = self.slots[self.flat(set, self.victim_way(set, pinned)?)].word;
        (w & VALID != 0).then_some((tag_of(w), w & DIRTY != 0))
    }

    /// Like [`Self::install`], but never evicts a way holding one of the
    /// `pinned` offsets. The secure engine pins the ancestor chain it is
    /// operating on so recursive evictions cannot displace in-flight nodes.
    ///
    /// Panics if every way of the set is pinned. In general-counter mode a
    /// node's flush keeps it pinned while its parent is installed, so a
    /// 1-way set would always reach this panic, and `SystemConfig::validate`
    /// requires 2 ways there. Nothing bounds deeper pin chains by the
    /// associativity yet: a one-set metadata cache under the
    /// `small_for_tests` hierarchy reaches this panic at 2 and 3 ways
    /// (Steins-GC, when an NV-buffer drain nests victim flushes), and
    /// whether the Table I geometry (8 ways) can reach it is open.
    pub fn install_pinned(
        &mut self,
        offset: u64,
        node: SitNode,
        dirty: bool,
        pinned: &[u64],
    ) -> Option<EvictedNode> {
        let set = self.set_of(offset);
        assert!(
            !self.contains(offset),
            "install over resident node {offset} (duplicate would desync counters)"
        );
        let way = self
            .victim_way(set, pinned)
            .expect("metadata cache set fully pinned: associativity exhausted");
        let flat = self.flat(set, way);
        let w = self.slots[flat].word;
        let evicted = (w & VALID != 0).then(|| EvictedNode {
            offset: tag_of(w),
            dirty: w & DIRTY != 0,
            slot: flat as u64,
        });
        if evicted.as_ref().is_some_and(|e| e.dirty) {
            self.dirty_count -= 1;
        }
        self.fill(flat, offset, &node, dirty);
        evicted
    }

    /// Installs `node` at a *specific* flat slot index. Recovery uses this
    /// to put a node back into the slot the durable per-slot state (Steins'
    /// offset records, ASIT's shadow tags) says it occupied, so the rebuilt
    /// per-slot regions are byte-identical to the pre-crash ones and a
    /// re-run of recovery is idempotent.
    ///
    /// Panics if `slot` is not in `offset`'s set, is already occupied, or
    /// `offset` is already resident elsewhere — recovery installs into a
    /// fresh cache, so any of these is a recovery bug.
    pub fn install_at(&mut self, slot: u64, offset: u64, node: SitNode, dirty: bool) {
        let set = self.set_of(offset);
        assert_eq!(
            (slot as usize) / self.ways,
            set,
            "slot {slot} is not in offset {offset}'s set"
        );
        assert!(
            !self.contains(offset),
            "install_at over resident node {offset}"
        );
        let w = self.slots[slot as usize].word;
        assert!(
            w & VALID == 0,
            "install_at into occupied slot {slot} (holds offset {})",
            tag_of(w)
        );
        self.fill(slot as usize, offset, &node, dirty);
    }

    /// Puts `node` into the vacated flat slot `flat` as its set's most
    /// recent slot, counting it if dirty.
    fn fill(&mut self, flat: usize, offset: u64, node: &SitNode, dirty: bool) {
        assert!(
            offset >> (64 - TAG_SHIFT) == 0,
            "node offset {offset:#x} does not fit a tag word"
        );
        let set = flat / self.ways;
        let slots = self.slots_of(set);
        let word = key(offset) | if dirty { DIRTY } else { 0 };
        fill(&mut self.slots[slots], flat % self.ways, word);
        self.store(flat, offset, node);
        if dirty {
            self.dirty_count += 1;
            self.dirty_occ_hist.record(self.dirty_count);
        }
    }

    /// The flat slot index currently holding `offset`.
    pub fn slot_of(&self, offset: u64) -> Option<u64> {
        self.find(offset).map(|flat| flat as u64)
    }

    /// The offset of the node flat slot `slot` holds dirty — what a crash
    /// destroys there. `None` for a clean or empty slot, or one past the
    /// cache.
    pub fn dirty_at(&self, slot: u64) -> Option<u64> {
        let w = self.slots.get(slot as usize)?.word;
        (w & VALID != 0 && w & DIRTY != 0).then(|| tag_of(w))
    }

    /// All resident nodes as `(slot, offset, node, dirty)`.
    pub fn resident_nodes(&self) -> Vec<(u64, u64, SitNode, bool)> {
        self.resident(0..self.slots.len())
            .map(|(flat, w)| {
                let offset = tag_of(w);
                (flat as u64, offset, self.node(flat, offset), w & DIRTY != 0)
            })
            .collect()
    }

    /// Crash: every resident line vanishes.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.word = 0;
        }
        self.dirty_count = 0;
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Dirty resident nodes right now.
    pub fn dirty_count(&self) -> u64 {
        self.dirty_count
    }

    /// Exports hit/miss counters, the current dirty population, and the
    /// dirty-occupancy / flush-batch distributions under `meta.cache.`.
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        reg.counter_add("meta.cache.hits", self.hits);
        reg.counter_add("meta.cache.misses", self.misses);
        reg.gauge_set("meta.cache.dirty_nodes", self.dirty_count as f64);
        reg.insert_hist("meta.cache.dirty_occupancy", &self.dirty_occ_hist);
        reg.insert_hist("meta.cache.flush_batch_nodes", &self.flush_batch_hist);
    }

    /// Geometry.
    pub fn config(&self) -> &MetaCacheConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::lru_rank::next;
    use super::*;
    use crate::counter::{CTR56_MAX, MINOR_MAX};

    /// A cache of `cfg` for a general-counter tree, whose offsets all hold
    /// general nodes.
    fn general(cfg: MetaCacheConfig) -> MetadataCache {
        MetadataCache::new(cfg, &SitGeometry::new(CounterMode::General, 1))
    }

    fn tiny() -> MetadataCache {
        // 2 sets × 2 ways.
        general(MetaCacheConfig {
            capacity_bytes: 4 * 64,
            ways: 2,
        })
    }

    /// The per-access use stamps the tag words' ranks replaced, kept as
    /// the reference the ranks are checked against: each slot keeps the
    /// stamp of its last lookup or install, and the victim is the first
    /// empty slot, else the unpinned slot with the oldest stamp.
    #[derive(Clone, Copy)]
    struct StampSlot {
        /// `None` while empty, else whether the node is dirty.
        dirty: Option<bool>,
        offset: u64,
        node: SitNode,
        lru: u64,
    }

    struct StampCache {
        sets: usize,
        ways: usize,
        slots: Vec<StampSlot>,
        stamp: u64,
    }

    impl StampCache {
        fn new(cfg: MetaCacheConfig) -> Self {
            let empty = StampSlot {
                dirty: None,
                offset: 0,
                node: SitNode::zero_general(),
                lru: 0,
            };
            StampCache {
                sets: cfg.sets() as usize,
                ways: cfg.ways,
                slots: vec![empty; cfg.slots() as usize],
                stamp: 0,
            }
        }

        /// Flat slot indices of `offset`'s set.
        fn set(&self, offset: u64) -> Range<usize> {
            let set = (offset % self.sets as u64) as usize;
            set * self.ways..(set + 1) * self.ways
        }

        fn find(&self, offset: u64) -> Option<usize> {
            self.set(offset)
                .find(|&i| self.slots[i].dirty.is_some() && self.slots[i].offset == offset)
        }

        fn lookup(&mut self, offset: u64) -> Option<SitNode> {
            self.stamp += 1;
            let i = self.find(offset)?;
            self.slots[i].lru = self.stamp;
            Some(self.slots[i].node)
        }

        /// The slot an install of `offset` fills, `None` if the set is full
        /// and every way pinned.
        fn victim(&self, offset: u64, pinned: &[u64]) -> Option<usize> {
            let set = self.set(offset);
            set.clone()
                .find(|&i| self.slots[i].dirty.is_none())
                .or_else(|| {
                    set.filter(|&i| !pinned.contains(&self.slots[i].offset))
                        .min_by_key(|&i| self.slots[i].lru)
                })
        }

        fn probe_victim(&self, offset: u64, pinned: &[u64]) -> Option<(u64, bool)> {
            let s = self.slots[self.victim(offset, pinned)?];
            s.dirty.map(|d| (s.offset, d))
        }

        fn install_pinned(
            &mut self,
            offset: u64,
            node: SitNode,
            dirty: bool,
            pinned: &[u64],
        ) -> Option<(u64, bool, u64)> {
            let i = self.victim(offset, pinned).expect("a way is unpinned");
            let old = self.slots[i];
            self.install_at(i, offset, node, dirty);
            old.dirty.map(|d| (old.offset, d, i as u64))
        }

        fn install_at(&mut self, slot: usize, offset: u64, node: SitNode, dirty: bool) {
            self.stamp += 1;
            self.slots[slot] = StampSlot {
                dirty: Some(dirty),
                offset,
                node,
                lru: self.stamp,
            };
        }

        fn mark_dirty(&mut self, offset: u64) -> (u64, bool) {
            let i = self.find(offset).expect("resident");
            let was_clean = self.slots[i].dirty == Some(false);
            self.slots[i].dirty = Some(true);
            (i as u64, was_clean)
        }

        fn mark_clean(&mut self, offset: u64) {
            if let Some(i) = self.find(offset) {
                self.slots[i].dirty = Some(false);
            }
        }

        fn clear(&mut self) {
            for s in &mut self.slots {
                s.dirty = None;
            }
        }

        fn resident_nodes(&self) -> Vec<(u64, u64, SitNode, bool)> {
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.dirty.map(|d| (i as u64, s.offset, s.node, d)))
                .collect()
        }
    }

    /// Seeded random lookup/install/probe/mark/clear streams pick the same
    /// victims and leave the same slots, nodes and dirty bits under ranks
    /// as under stamps, on 2-, 8-, 16- and 64-way sets.
    #[test]
    fn ranks_match_stamps_op_for_op() {
        for ways in [2usize, 8, 16, 64] {
            let cfg = MetaCacheConfig {
                capacity_bytes: 4 * ways as u64 * 64,
                ways,
            };
            for seed in 1..=4u64 {
                let mut ranks = general(cfg);
                let mut stamps = StampCache::new(cfg);
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for op in 0..20_000 {
                    let r = next(&mut rng);
                    // Half the offsets come from a hot half-capacity range,
                    // so hits land at every rank; the rest from three
                    // times the capacity, so sets fill and evict.
                    let universe = if r & 1 == 0 {
                        cfg.slots() / 2
                    } else {
                        3 * cfg.slots()
                    };
                    let offset = (r >> 16) % universe;
                    let mut node = SitNode::zero_general();
                    node.hmac = next(&mut rng);
                    let dirty = r & 2 != 0;
                    let at = format!("{ways} ways, seed {seed}, op {op}");
                    match (r >> 8) % 1000 {
                        0 => {
                            ranks.clear();
                            stamps.clear();
                        }
                        1..=99 => {
                            ranks.mark_clean(offset);
                            stamps.mark_clean(offset);
                        }
                        100..=199 if stamps.find(offset).is_some() => {
                            let got = ranks.mark_dirty(offset);
                            assert_eq!(got, stamps.mark_dirty(offset), "mark_dirty, {at}");
                        }
                        200..=299 if stamps.find(offset).is_none() => {
                            // A slot-pinned install into an empty way of
                            // the set, if it has one.
                            let set = stamps.set(offset);
                            let empty: Vec<usize> =
                                set.filter(|&i| stamps.slots[i].dirty.is_none()).collect();
                            if !empty.is_empty() {
                                let slot = empty[(r >> 40) as usize % empty.len()];
                                ranks.install_at(slot as u64, offset, node, dirty);
                                stamps.install_at(slot, offset, node, dirty);
                            }
                        }
                        300..=599 if stamps.find(offset).is_none() => {
                            // Pin each resident node of the set with
                            // probability ½, unless that pins every way.
                            let mut bits = next(&mut rng);
                            let pinned: Vec<u64> = stamps
                                .set(offset)
                                .map(|i| stamps.slots[i])
                                .filter(|s| s.dirty.is_some())
                                .map(|s| s.offset)
                                .filter(|_| {
                                    bits >>= 1;
                                    bits & 1 == 1
                                })
                                .collect();
                            let want = stamps.probe_victim(offset, &pinned);
                            assert_eq!(ranks.probe_victim(offset, &pinned), want, "probe, {at}");
                            if stamps.victim(offset, &pinned).is_some() {
                                let got = ranks
                                    .install_pinned(offset, node, dirty, &pinned)
                                    .map(|e| (e.offset, e.dirty, e.slot));
                                let want = stamps.install_pinned(offset, node, dirty, &pinned);
                                assert_eq!(got, want, "evicted, {at}");
                            }
                        }
                        _ => {
                            let got = ranks.read(offset);
                            assert_eq!(got, stamps.lookup(offset), "lookup, {at}");
                        }
                    }
                    let want = stamps.resident_nodes();
                    assert_eq!(ranks.resident_nodes(), want, "resident nodes, {at}");
                    let want_dirty: Vec<(u64, u64)> = want
                        .into_iter()
                        .filter(|&(_, _, _, d)| d)
                        .map(|(slot, offset, _, _)| (slot, offset))
                        .collect();
                    let dirty: Vec<(u64, u64)> = (0..cfg.slots())
                        .filter_map(|s| Some((s, ranks.dirty_at(s)?)))
                        .collect();
                    assert_eq!(dirty, want_dirty, "dirty nodes, {at}");
                    assert_eq!(ranks.dirty_count(), want_dirty.len() as u64, "{at}");
                }
            }
        }
    }

    /// Seeded nodes come back bit for bit through the slot codec and
    /// through a one-slot cache (install → peek and every child's
    /// `enc_pair`, and peek again just before the next install evicts
    /// it): general blocks
    /// over the whole `u64` range, and split leaves with any major and
    /// every minor value at every position, in a general-counter cache and
    /// a split-counter one.
    #[test]
    fn nodes_round_trip_through_slots() {
        let one_slot = MetaCacheConfig {
            capacity_bytes: 64,
            ways: 1,
        };
        // 512 leaves under 64 level-1 nodes in either mode, so the
        // split-counter cache holds general nodes too.
        let gc = SitGeometry::new(CounterMode::General, 512 * 8);
        let sc = SitGeometry::new(CounterMode::Split, 512 * 64);
        let mut rng = 0x5107_C0DE_u64;
        let mut seen = [0u64; 64]; // minor values seen, one bit each, per position
        for geo in [&gc, &sc] {
            let mut c = MetadataCache::new(one_slot, geo);
            let mut last: Option<(u64, SitNode, bool)> = None;
            for i in 0..2_000u64 {
                let step = 1 + next(&mut rng) % (geo.total_nodes() - 1);
                let offset = last.map_or(0, |(o, _, _)| o + step) % geo.total_nodes();
                let split =
                    geo.mode() == CounterMode::Split && geo.node_at_offset(offset).level == 0;
                let mut node = if split {
                    SitNode::zero_split()
                } else {
                    SitNode::zero_general()
                };
                node.hmac = next(&mut rng);
                match &mut node.counters {
                    CounterBlock::General(g) if i % 16 == 0 => {
                        g.0 = [0, 1, CTR56_MAX, 1 << 56, u64::MAX - 1, u64::MAX, 1 << 63, 7];
                    }
                    CounterBlock::General(g) => g.0 = [(); 8].map(|_| next(&mut rng)),
                    CounterBlock::Split(s) => {
                        s.major = next(&mut rng);
                        for (j, m) in s.minors.iter_mut().enumerate() {
                            *m = next(&mut rng) as u8 & MINOR_MAX;
                            seen[j] |= 1 << *m;
                        }
                    }
                }
                let words = node.counter_words();
                assert_eq!(SitNode::from_counter_words(&words, node.hmac, split), node);
                if let Some((o, n, _)) = last {
                    assert_eq!(c.peek(o), Some(n), "{:?}", geo.mode());
                }
                let dirty = i % 2 == 0;
                let evicted = c.install(offset, node, dirty);
                assert_eq!(
                    evicted.map(|e| (e.offset, e.dirty, e.slot)),
                    last.map(|(o, _, d)| (o, d, 0)),
                    "{:?}",
                    geo.mode()
                );
                assert_eq!(c.peek(offset), Some(node));
                for j in 0..node.counters.fanout() {
                    assert_eq!(c.enc_pair(offset, j), Some(node.counters.enc_pair(j)));
                }
                last = Some((offset, node, dirty));
            }
        }
        assert!(
            seen.iter().all(|&s| s == u64::MAX),
            "every minor value at every position"
        );
    }

    /// A node packed in the other level's layout is caught where it is
    /// packed.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not in its level's counter layout")]
    fn a_general_node_at_a_split_leaf_is_refused() {
        let sc = SitGeometry::new(CounterMode::Split, 64 * 64);
        let mut c = MetadataCache::new(MetaCacheConfig::table1(), &sc);
        c.install(0, SitNode::zero_general(), false);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn a_65_way_geometry_is_refused() {
        general(MetaCacheConfig {
            capacity_bytes: 65 * 64,
            ways: 65,
        });
    }

    #[test]
    fn install_at_pins_slot_and_accounts_dirty() {
        let mut c = tiny();
        // Offsets 0 and 2 map to set 0 (2 sets); pin them to specific ways.
        c.install_at(1, 2, SitNode::zero_general(), true);
        c.install_at(0, 0, SitNode::zero_general(), false);
        assert_eq!(c.slot_of(2), Some(1));
        assert_eq!(c.slot_of(0), Some(0));
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(c.dirty_at(1), Some(2));
        assert_eq!(c.dirty_at(0), None);
    }

    #[test]
    #[should_panic(expected = "not in offset")]
    fn install_at_rejects_wrong_set() {
        let mut c = tiny();
        // Offset 1 maps to set 1 (slots 2..4); slot 0 is in set 0.
        c.install_at(0, 1, SitNode::zero_general(), false);
    }

    #[test]
    #[should_panic(expected = "install_at into occupied slot")]
    fn install_at_rejects_occupied_slot() {
        let mut c = tiny();
        c.install_at(0, 0, SitNode::zero_general(), false);
        c.install_at(0, 2, SitNode::zero_general(), false);
    }

    #[test]
    fn table1_geometry() {
        let c = MetaCacheConfig::table1();
        assert_eq!(c.slots(), 4096);
        assert_eq!(c.sets(), 512);
    }

    #[test]
    fn split_divides_capacity_with_one_set_floor() {
        let c = MetaCacheConfig::table1();
        assert_eq!(c.split(4).capacity_bytes, 64 << 10);
        assert_eq!(c.split(4).ways, c.ways);
        // A tiny cache split many ways still has one full set per shard.
        let tiny = MetaCacheConfig {
            capacity_bytes: 16 * 64,
            ways: 8,
        };
        assert_eq!(tiny.split(8).sets(), 1);
    }

    #[test]
    fn install_lookup_roundtrip() {
        let mut c = tiny();
        let mut node = SitNode::zero_general();
        node.hmac = 77;
        assert!(c.install(4, node, false).is_none());
        assert_eq!(c.read(4).map(|n| n.hmac), Some(77));
        assert!(!c.touch(6));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn mark_dirty_reports_first_transition() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), false);
        let (slot, was_clean) = c.mark_dirty(0);
        assert!(was_clean);
        let (slot2, was_clean2) = c.mark_dirty(0);
        assert_eq!(slot, slot2);
        assert!(!was_clean2, "second marking is not a transition");
        assert!(c.is_dirty(0));
    }

    #[test]
    fn lru_eviction_returns_victim_contents() {
        let mut c = tiny();
        let mut n0 = SitNode::zero_general();
        n0.hmac = 10;
        // Offsets 0,2,4 share set 0 (sets=2).
        c.install(0, n0, true);
        c.install(2, SitNode::zero_general(), false);
        c.touch(2); // 0 becomes LRU
        assert_eq!(c.peek(0).map(|n| n.hmac), Some(10));
        let ev = c
            .install(4, SitNode::zero_general(), false)
            .expect("evicts");
        assert_eq!((ev.offset, ev.dirty, ev.slot), (0, true, 0));
        assert!(!c.contains(0));
    }

    #[test]
    fn dirty_nodes_enumeration_and_clear() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), true);
        c.install(1, SitNode::zero_general(), false);
        c.install(2, SitNode::zero_general(), true);
        // Slots 0 and 1 are set 0's ways, slot 2 set 1's first; a slot past
        // the cache holds nothing.
        let dirty: Vec<Option<u64>> = (0..5).map(|s| c.dirty_at(s)).collect();
        assert_eq!(dirty, [Some(0), Some(2), None, None, None]);
        c.clear();
        assert!((0..4).all(|s| c.dirty_at(s).is_none()));
        assert!(!c.contains(0));
    }

    #[test]
    fn slot_indices_are_stable_coordinates() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), false);
        let slot = c.slot_of(0).unwrap();
        let (slot2, _) = c.mark_dirty(0);
        assert_eq!(slot, slot2);
        assert!(slot < c.config().slots());
    }

    #[test]
    fn mutation_via_read_and_write() {
        let mut c = tiny();
        c.install(8, SitNode::zero_general(), false);
        let mut node = c.read(8).unwrap();
        node.counters.as_general_mut().set(3, 99);
        assert!(c.write(8, node));
        assert_eq!(c.peek(8).unwrap().counters.as_general().get(3), 99);
        assert!(!c.write(10, node), "a write to an absent node is refused");
        assert_eq!(c.stats(), (1, 0), "peek and write count nothing");
    }

    #[test]
    fn flat_slot_indices_match_set_ways_layout() {
        let mut c = tiny(); // 2 sets × 2 ways → slots 0..4
        c.install(0, SitNode::zero_general(), false); // set 0, way 0
        c.install(2, SitNode::zero_general(), false); // set 0, way 1
        c.install(1, SitNode::zero_general(), false); // set 1, way 0
        assert_eq!(c.slot_of(0), Some(0));
        assert_eq!(c.slot_of(2), Some(1));
        assert_eq!(c.slot_of(1), Some(2));
    }

    #[test]
    fn dirty_set_nodes_into_matches_set_nodes_filter() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), true);
        c.install(2, SitNode::zero_general(), false);
        c.install(1, SitNode::zero_general(), true);
        let mut out = Vec::new();
        c.dirty_set_nodes_into(0, &mut out);
        let expect: Vec<(u64, SitNode)> = c
            .set_nodes(0)
            .into_iter()
            .filter(|(_, _, d)| *d)
            .map(|(o, n, _)| (o, n))
            .collect();
        assert_eq!(out, expect);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
        // Appends without clearing: caller owns the lifecycle.
        c.dirty_set_nodes_into(1, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].0, 1);
    }

    #[test]
    fn is_dirty_agrees_with_contains_and_slot_of() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), true);
        c.install(2, SitNode::zero_general(), false);
        assert!(c.contains(0) && c.is_dirty(0));
        assert_eq!(c.slot_of(0), Some(0));
        assert!(c.contains(2) && !c.is_dirty(2));
        assert_eq!(c.slot_of(2), Some(1));
        assert!(!c.contains(4) && !c.is_dirty(4));
        assert_eq!(c.slot_of(4), None);
        // Residency queries leave LRU and hit/miss stats untouched.
        assert_eq!(c.stats(), (0, 0));
        c.mark_clean(0);
        assert!(c.contains(0) && !c.is_dirty(0));
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    #[should_panic(expected = "mark_dirty on non-resident node")]
    fn mark_dirty_requires_residency() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), false);
        c.mark_dirty(2);
    }
}
