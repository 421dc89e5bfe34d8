//! STAR: the registers, the runtime hooks, the crash remnant and the
//! strict recovery.
//!
//! STAR tracks dirty nodes in a multi-layer **bitmap** (updated on both
//! clean→dirty *and* dirty→clean transitions — twice Steins' record
//! traffic) and verifies recovery through a cache-tree whose leaves are
//! per-set MACs over the set's dirty nodes **sorted by address** (the
//! sorting cost §II-D calls out). Parent-counter LSBs ride in the child
//! node's HMAC field — here 16 LSBs beside a 48-bit MAC, so a stale parent
//! counter can be reconstructed from children at recovery as long as it
//! advanced < 2^16 between its own flushes (amply true: a metadata cache
//! holds thousands of nodes, not tens of thousands of evictions of one
//! child between parent evictions).

use super::SchemeState;
use crate::cachetree::CacheTree;
use crate::config::HASH_LATENCY;
use crate::crash::CrashedSystem;
use crate::engine::{is_zero_node, SecureMemoryController, SecureNvmSystem};
use crate::error::IntegrityError;
use crate::recovery::{journal, RecoveryReport};
use steins_crypto::CryptoEngine;
use steins_metadata::counter::CounterBlock;
use steins_metadata::{NodeId, SitNode};
use steins_nvm::{AdrRegion, Cycle, NvmDevice, PowerCut, RecoveryJournal};

/// Mask selecting the 48-bit MAC portion of a STAR node's `hmac` field.
const STAR_MAC_MASK: u64 = (1 << 48) - 1;

/// Packs a 48-bit MAC and the parent counter's low 16 bits into the node's
/// 64-bit HMAC field.
pub(super) fn pack_hmac(mac: u64, parent_counter: u64) -> u64 {
    (mac & STAR_MAC_MASK) | ((parent_counter & 0xFFFF) << 48)
}

/// Extracts `(mac48, parent_lsbs)` from the packed field.
pub(super) fn unpack_hmac(field: u64) -> (u64, u16) {
    (field & STAR_MAC_MASK, (field >> 48) as u16)
}

/// Reconstructs a full parent counter from its stale value and the 16 LSBs
/// a child carried: keep the stale high bits, splice the LSBs, bump by 2^16
/// if that went backwards (the counter advanced past an LSB wrap).
fn reconstruct_counter(stale: u64, lsbs: u16) -> u64 {
    let candidate = (stale & !0xFFFF) | u64::from(lsbs);
    if candidate < stale {
        candidate + 0x1_0000
    } else {
        candidate
    }
}

/// Mutable STAR state.
pub(crate) struct StarState {
    /// Cache-tree over metadata-cache *sets* (leaves = set-MACs of sorted
    /// dirty nodes).
    cache_tree: CacheTree,
    /// NV-register copy of the root.
    nv_root: u64,
    /// Bitmap lines cached in the controller (ADR-domain; evictions write
    /// back to the bitmap region).
    bitmap_cache: AdrRegion,
    /// Scratch: the per-write dirty-set collection and the set-MAC message,
    /// reused across calls so the set-MAC path allocates nothing in steady
    /// state (a fresh Vec per STAR write was its largest allocation source).
    dirty: Vec<(u64, SitNode)>,
    msg: Vec<u8>,
}

impl StarState {
    /// Fresh state for a cache with `sets` sets.
    pub(crate) fn new(engine: &dyn CryptoEngine, sets: usize, bitmap_cache_lines: usize) -> Self {
        let cache_tree = CacheTree::from_leaves(engine, vec![0; sets]);
        let nv_root = cache_tree.root();
        StarState {
            cache_tree,
            nv_root,
            bitmap_cache: AdrRegion::new(bitmap_cache_lines),
            dirty: Vec::new(),
            msg: Vec::new(),
        }
    }

    /// Approximate cycles an in-set address sort costs (a small sorting
    /// network; §II-D: "STAR needs to sort the dirty nodes in the same set
    /// by the addresses").
    fn sort_latency(ways: usize) -> u64 {
        // Batcher network depth ≈ log²(n) stages of compare-exchange.
        let n = ways.max(2) as u64;
        let log = 64 - n.leading_zeros() as u64;
        log * log
    }

    /// ADR flush: residual power writes the cached bitmap lines home; the
    /// root register is the remnant.
    pub(crate) fn power_cut(mut self, nvm: &mut NvmDevice) -> u64 {
        for (addr, line) in self.bitmap_cache.crash_flush() {
            nvm.overwrite(addr, &line);
        }
        self.nv_root
    }
}

/// The set-MAC message: each node's offset and line in address order, with
/// the HMAC field zeroed — a dirty node's stored HMAC is recomputed when it
/// flushes, so including it would tie the register to a field whose NVM
/// copy changes at the flush boundary without any counter changing.
fn set_message<'a>(msg: &mut Vec<u8>, sorted: impl Iterator<Item = (u64, &'a SitNode)>) {
    for (off, n) in sorted {
        let mut n = *n;
        n.hmac = 0;
        msg.extend_from_slice(&off.to_le_bytes());
        msg.extend_from_slice(&n.to_line());
    }
}

/// The STAR variant; the dispatch in `scheme` runs these hooks only under
/// STAR.
fn regs(scheme: &mut SchemeState) -> &mut StarState {
    match scheme {
        SchemeState::Star(st) => st,
        _ => unreachable!("a STAR hook ran under another scheme"),
    }
}

impl SecureMemoryController {
    /// Modify, clean→dirty: cache-tree register first — over the node's
    /// PRE-mutation content, which is what recovery can reconstruct from
    /// NVM at this boundary — so the register rides the bitmap line's
    /// persist event atomically (register writes emit no event). The
    /// refresh over the NEW content is deferred to [`Self::star_refresh`],
    /// where it rides the persist event that makes the mutation itself
    /// durable (the data-line or child write).
    pub(super) fn star_mark_dirty(
        &mut self,
        t: Cycle,
        offset: u64,
        pre: &SitNode,
    ) -> Result<Cycle, PowerCut> {
        let set = self.meta.set_index(offset);
        let t = self.star_set_mac(t, set, Some((offset, *pre)));
        self.star_bitmap_update(t, offset, true)
    }

    /// Data write, and evict after a parent increment: refresh the register
    /// over the set of mutated node `offset`. The new counter becomes
    /// reconstructible exactly when the next push lands (the data line +
    /// MacRecord, or the child whose counter LSBs carry the increment), so
    /// the refresh rides that push's persist event atomically.
    pub(super) fn star_refresh(&mut self, t: Cycle, offset: u64) -> Cycle {
        let set = self.meta.set_index(offset);
        self.star_set_mac(t, set, None)
    }

    /// Evict, dirty→clean: clear the bitmap bit (the tracking write Steins
    /// avoids, §IV-B) and drop the node from the set-MAC. Register first:
    /// it emits no persist event, so it rides the bitmap clear's event
    /// atomically — clearing the bit first left a boundary where the bitmap
    /// excluded the node but the register still covered it.
    pub(super) fn star_cleaned(&mut self, t: Cycle, offset: u64) -> Result<Cycle, PowerCut> {
        let t = self.star_refresh(t, offset);
        self.star_bitmap_update(t, offset, false)
    }

    /// Flips the node's dirty bit in the bitmap.
    ///
    /// STAR predates Steins' ADR-resident record trick: its bitmap must be
    /// durable on its own, so every transition **writes the updated line
    /// through to NVM** (the "extra memory access overhead" of §II-D and
    /// the 1.3× traffic of Fig. 13). The line cache only absorbs re-reads.
    fn star_bitmap_update(
        &mut self,
        mut t: Cycle,
        offset: u64,
        set_bit: bool,
    ) -> Result<Cycle, PowerCut> {
        let (baddr, bit) = self.layout.bitmap_slot(offset);
        let st = regs(&mut self.scheme);
        if !st.bitmap_cache.touch(baddr) {
            let (line, t2) = self.nvm.read(t, baddr);
            t = t2;
            // Write-through lines are never dirty: drop evictions silently.
            st.bitmap_cache.insert(baddr, line);
        }
        let line = st.bitmap_cache.get_mut(baddr).expect("just ensured");
        let (byte, off) = (bit / 8, bit % 8);
        if set_bit {
            line[byte] |= 1 << off;
        } else {
            line[byte] &= !(1 << off);
        }
        let line = *line;
        self.energy.cache_accesses += 1;
        // The cached bitmap line is in the ADR domain: flipping the bit is a
        // durable transition on its own, ahead of the write-through below.
        self.nvm.adr_persist_event(baddr)?;
        self.wq.push(t, baddr, &line, &mut self.nvm)
    }

    /// Recomputes the set-MAC (sorted dirty nodes) and the cache-tree path
    /// above it, optionally substituting one node's content (a clean→dirty
    /// transition, where the register must cover the node's PRE-mutation
    /// content: that is what recovery reconstructs from NVM at the bitmap
    /// write's persist boundary).
    fn star_set_mac(&mut self, t: Cycle, set: usize, substitute: Option<(u64, SitNode)>) -> Cycle {
        let st = regs(&mut self.scheme);
        let (mut dirty, mut msg) = (std::mem::take(&mut st.dirty), std::mem::take(&mut st.msg));
        dirty.clear();
        self.meta.dirty_set_nodes_into(set, &mut dirty);
        if let Some((off, node)) = substitute {
            for e in &mut dirty {
                if e.0 == off {
                    e.1 = node;
                }
            }
        }
        dirty.sort_unstable_by_key(|(o, _)| *o);
        let leaf_mac = if dirty.is_empty() {
            0
        } else {
            msg.clear();
            msg.reserve(dirty.len() * 72);
            set_message(&mut msg, dirty.iter().map(|(o, n)| (*o, n)));
            self.energy.hashes += 1;
            self.crypto.mac64(&msg)
        };
        let st = regs(&mut self.scheme);
        (st.dirty, st.msg) = (dirty, msg);
        let hashes = st.cache_tree.update(self.crypto.as_ref(), set, leaf_mac);
        st.nv_root = st.cache_tree.root();
        self.energy.hashes += hashes as u64;
        let ways = self.cfg.meta_cache.ways;
        t + StarState::sort_latency(ways) + (1 + hashes as u64) * HASH_LATENCY
    }
}

impl CrashedSystem {
    /// Strict recovery: the bitmap names the dirty nodes, which are rebuilt
    /// top-down from child-carried counter LSBs and checked against the
    /// cache-tree register.
    pub(super) fn recover_star(
        self,
        nv_root: u64,
        out: &mut Option<SecureNvmSystem>,
        prior: RecoveryJournal,
        restarts: u32,
    ) -> Result<RecoveryReport, IntegrityError> {
        let geo = self.layout.geometry.clone();
        let mut reads = 0u64;

        // 1. Read the dirty bitmap. The scan meets offsets ascending and
        //    once each, so `dirty` comes out sorted.
        let total = geo.total_nodes();
        let mut dirty: Vec<u64> = Vec::new();
        for l in 0..self.layout.bitmap_lines() {
            reads += 1;
            let line = self.nvm.peek(self.layout.bitmap_base + l * 64);
            for (byte_idx, byte) in line.iter().enumerate() {
                if *byte == 0 {
                    continue;
                }
                for bit in 0..8 {
                    if byte & (1 << bit) != 0 {
                        let off = l * 512 + byte_idx as u64 * 8 + bit;
                        if off < total {
                            dirty.push(off);
                        }
                    }
                }
            }
        }

        let reads_bitmap_scan = reads;

        // 2. Top-down reconstruction from child-carried counter LSBs, one
        //    level's run of `dirty` at a time. `items` comes out in the
        //    canonical install order (level descending, offset ascending)
        //    shared by first runs and restarts: the rebuild below regrows
        //    the cache-tree register one item at a time in exactly this
        //    order, bumping the journal high-water mark after each item.
        let mut items: Vec<(u64, SitNode)> = Vec::with_capacity(dirty.len());
        let mut per_level = vec![0usize; geo.levels()];
        for k in (0..geo.levels()).rev() {
            let base = geo.offset_of(NodeId { level: k, index: 0 });
            let end = base + geo.nodes_at(k);
            let level = dirty.partition_point(|&o| o < base)..dirty.partition_point(|&o| o < end);
            for &off in &dirty[level] {
                let id = geo.node_at_offset(off);
                reads += 1;
                let stale = self.stale_node(id);
                let rec = if k >= 1 {
                    let mut g = *stale.counters.as_general();
                    for (j, cid) in geo.children_of(id).into_iter().enumerate() {
                        reads += 1;
                        let child = self.stale_node(cid);
                        if is_zero_node(&child) {
                            continue;
                        }
                        let (_, lsbs) = unpack_hmac(child.hmac);
                        let rc = reconstruct_counter(g.get(j), lsbs);
                        self.verify_node(&child, cid, rc)?;
                        g.set(j, rc);
                    }
                    SitNode {
                        counters: CounterBlock::General(g),
                        hmac: stale.hmac,
                    }
                } else {
                    self.recover_leaf(&mut reads, id, &stale)?
                };
                items.push((off, rec));
                per_level[k] += 1;
            }
        }

        // 3. Verify the cache-tree register (per-set sorted MACs, exactly as
        //    maintained at runtime). A completed run's register covers every
        //    recovered node; an *interrupted rebuild's* register covers
        //    exactly the first `hwm` items of the canonical order — the
        //    journal write is the only persist boundary in the rebuild loop
        //    and always follows the register update for the same item.
        let covered = if prior.phase == journal::STAR_REBUILD {
            (prior.hwm as usize).min(items.len())
        } else {
            items.len()
        };
        let sets = self.cfg.meta_cache.sets();
        let mut leaf_macs = vec![0u64; sets as usize];
        for (set, leaf) in leaf_macs.iter_mut().enumerate() {
            let mut in_set: Vec<(u64, &SitNode)> = items[..covered]
                .iter()
                .filter(|(off, _)| *off % sets == set as u64)
                .map(|(off, n)| (*off, n))
                .collect();
            if in_set.is_empty() {
                continue;
            }
            in_set.sort_by_key(|(off, _)| *off);
            let mut msg = Vec::with_capacity(in_set.len() * 72);
            set_message(&mut msg, in_set.into_iter());
            *leaf = self.crypto.mac64(&msg);
        }
        let rebuilt = CacheTree::rebuild(self.crypto.as_ref(), &leaf_macs);
        if rebuilt != nv_root {
            return Err(IntegrityError::CacheTreeMismatch {
                stored: nv_root,
                recomputed: rebuilt,
            });
        }

        let report = RecoveryReport::new(
            "STAR",
            &[
                ("bitmap_scan", reads_bitmap_scan),
                ("rebuild", reads - reads_bitmap_scan),
            ],
            per_level,
            prior,
            restarts,
            self.cfg.recovery_read_ns,
        );
        let sys = out.insert(self.revive());
        sys.ctrl.journal_write(journal::STAR_REBUILD, 0, restarts)?;
        // Reinstall in canonical order, refreshing the register after every
        // item: the durable bitmap, node lines and data plane are untouched,
        // so a crash here re-derives the same `items`, and the cover rule
        // above re-verifies the partially-regrown register off the
        // journal's `hwm`. Every dirty set was fully resident at crash time,
        // so no install can overflow its set (no evictions, no durable node
        // writes).
        let total = items.len() as u64;
        for (i, (off, node)) in items.into_iter().enumerate() {
            sys.ctrl
                .install_node(0, geo.node_at_offset(off), node, true)?;
            sys.ctrl.star_refresh(0, off);
            sys.ctrl
                .journal_write(journal::STAR_REBUILD, i as u64 + 1, restarts)?;
        }
        sys.ctrl.journal_write(journal::DONE, total, restarts)?;
        sys.ctrl.nvm.reset_stats();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmac_packing_roundtrip() {
        let (mac, lsbs) = unpack_hmac(pack_hmac(0x0000_FFFF_FFFF_FFFF, 0x3_1A35));
        assert_eq!(mac, 0x0000_FFFF_FFFF_FFFF);
        assert_eq!(lsbs, 0x1A35);
    }

    #[test]
    fn counter_reconstruction() {
        // No wrap: stale 0x10005, child saw 0x10007.
        assert_eq!(reconstruct_counter(0x10005, 0x0007), 0x10007);
        // Wrap: stale 0x1FFFE, child saw 0x20003.
        assert_eq!(reconstruct_counter(0x1FFFE, 0x0003), 0x20003);
        // Equal: stale exact.
        assert_eq!(reconstruct_counter(0x42, 0x42), 0x42);
    }

    #[test]
    fn sort_latency_grows_with_ways() {
        assert!(StarState::sort_latency(16) > StarState::sort_latency(8));
        assert!(StarState::sort_latency(8) > 0);
    }
}
