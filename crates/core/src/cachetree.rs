//! The cache-tree used by ASIT and STAR (§II-D, §IV).
//!
//! A small Merkle tree whose leaves summarize metadata-cache state:
//!
//! * **ASIT**: one leaf per cache *slot* — `H(node line ‖ slot)` — rebuilt
//!   whenever that slot's content changes (4 levels over 4096 slots).
//! * **STAR**: one leaf per cache *set* — the set-MAC over the set's dirty
//!   nodes, sorted by address (the sorting the paper calls out as STAR's
//!   extra overhead).
//!
//! Intermediate levels are volatile MC SRAM; only the root lives in an
//! on-chip NV register. Every leaf update recomputes the path to the root —
//! `depth` serial HMACs, the computation cost Steins' LIncs avoid.

use steins_crypto::CryptoEngine;

/// Fanout of cache-tree levels.
pub const CT_FANOUT: usize = 8;

/// Merkle tree over `leaves` 64-bit summaries.
#[derive(Clone, Debug)]
pub struct CacheTree {
    /// `levels[0]` = leaf macs; last = single root.
    levels: Vec<Vec<u64>>,
}

impl CacheTree {
    fn recompute_all(&mut self, engine: &dyn CryptoEngine) {
        for level in 1..self.levels.len() {
            let (lower, upper) = self.levels.split_at_mut(level);
            let below = lower.last().expect("level >= 1");
            for (parent, mac) in upper[0].iter_mut().enumerate() {
                let first = parent * CT_FANOUT;
                let last = (first + CT_FANOUT).min(below.len());
                *mac = Self::node_mac(engine, level, parent, &below[first..last]);
            }
        }
    }

    /// Number of levels above the leaves (= serial HMACs per update).
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// MAC of one interior node: `children LE ‖ level ‖ index`.
    fn node_mac(engine: &dyn CryptoEngine, level: usize, index: usize, children: &[u64]) -> u64 {
        // Stack buffer: ≤ CT_FANOUT children plus level/index, never larger.
        // This runs `depth` times per leaf update — the hot inner loop of
        // every ASIT/STAR write.
        debug_assert!(children.len() <= CT_FANOUT);
        let mut msg = [0u8; CT_FANOUT * 8 + 16];
        for (i, c) in children.iter().enumerate() {
            msg[i * 8..i * 8 + 8].copy_from_slice(&c.to_le_bytes());
        }
        let n = children.len() * 8;
        msg[n..n + 8].copy_from_slice(&(level as u64).to_le_bytes());
        msg[n + 8..n + 16].copy_from_slice(&(index as u64).to_le_bytes());
        engine.mac64(&msg[..n + 16])
    }

    /// Sets leaf `slot` to `leaf_mac` and recomputes the path to the root.
    /// Returns the number of HMACs computed (the latency the caller
    /// charges: `hashes × HASH_LATENCY`, serial).
    pub fn update(&mut self, engine: &dyn CryptoEngine, slot: usize, leaf_mac: u64) -> usize {
        self.levels[0][slot] = leaf_mac;
        let mut index = slot;
        let mut hashes = 0;
        for level in 1..self.levels.len() {
            let parent = index / CT_FANOUT;
            let first = parent * CT_FANOUT;
            let last = (first + CT_FANOUT).min(self.levels[level - 1].len());
            let mac = Self::node_mac(engine, level, parent, &self.levels[level - 1][first..last]);
            self.levels[level][parent] = mac;
            hashes += 1;
            index = parent;
        }
        hashes
    }

    /// The current root.
    pub fn root(&self) -> u64 {
        *self.levels.last().expect("nonempty").first().expect("root")
    }

    /// Builds a whole tree over `leaf_macs` with every interior MAC
    /// computed, so incremental updates and full rebuilds always agree. A
    /// fresh machine's tree sits over all-zero leaves; recovery seeds a
    /// restartable tree from the durable leaf summaries it has just
    /// verified, then resumes incremental updates from there.
    pub fn from_leaves(engine: &dyn CryptoEngine, leaf_macs: Vec<u64>) -> Self {
        assert!(!leaf_macs.is_empty());
        let mut tree = CacheTree {
            levels: vec![leaf_macs],
        };
        while tree.levels.last().expect("nonempty").len() > 1 {
            let next = tree.levels.last().unwrap().len().div_ceil(CT_FANOUT);
            tree.levels.push(vec![0u64; next]);
        }
        tree.recompute_all(engine);
        tree
    }

    /// The root of a whole tree rebuilt from scratch over `leaf_macs`
    /// (recovery path).
    pub fn rebuild(engine: &dyn CryptoEngine, leaf_macs: &[u64]) -> u64 {
        Self::from_leaves(engine, leaf_macs.to_vec()).root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_crypto::{engine::make_engine, CryptoKind, SecretKey};

    fn eng() -> Box<dyn CryptoEngine> {
        make_engine(CryptoKind::Fast, SecretKey([7; 16]))
    }

    #[test]
    fn depth_matches_anubis_4_levels() {
        // 4096 slots / fanout 8 ⇒ 512, 64, 8, 1: 4 levels above leaves.
        let e = eng();
        let t = CacheTree::from_leaves(e.as_ref(), vec![0; 4096]);
        assert_eq!(t.depth(), 4, "§IV: ASIT's 4-level cache-tree");
    }

    #[test]
    fn update_changes_root_and_counts_hashes() {
        let e = eng();
        let mut t = CacheTree::from_leaves(e.as_ref(), vec![0; 64]);
        let r0 = t.root();
        let hashes = t.update(e.as_ref(), 5, 0x1234);
        assert_eq!(hashes, t.depth());
        assert_ne!(t.root(), r0);
    }

    #[test]
    fn incremental_equals_rebuild() {
        let e = eng();
        let mut t = CacheTree::from_leaves(e.as_ref(), vec![0; 100]);
        let mut leaves = vec![0u64; 100];
        for (i, v) in [(3usize, 7u64), (99, 8), (0, 9), (50, 10)] {
            t.update(e.as_ref(), i, v);
            leaves[i] = v;
        }
        let root = CacheTree::rebuild(e.as_ref(), &leaves);
        assert_eq!(t.root(), root);
    }

    #[test]
    fn rebuild_detects_any_leaf_change() {
        let e = eng();
        let leaves: Vec<u64> = (0..32).collect();
        let root = CacheTree::rebuild(e.as_ref(), &leaves);
        let mut tampered = leaves.clone();
        tampered[17] ^= 1;
        let root2 = CacheTree::rebuild(e.as_ref(), &tampered);
        assert_ne!(root, root2);
    }

    #[test]
    fn from_leaves_resumes_incremental_updates() {
        let e = eng();
        let leaves: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let mut seeded = CacheTree::from_leaves(e.as_ref(), leaves.clone());
        let root = CacheTree::rebuild(e.as_ref(), &leaves);
        assert_eq!(seeded.root(), root);
        // Incremental update on the seeded tree matches a fresh rebuild.
        seeded.update(e.as_ref(), 17, 0xBEEF);
        let mut changed = leaves;
        changed[17] = 0xBEEF;
        let root2 = CacheTree::rebuild(e.as_ref(), &changed);
        assert_eq!(seeded.root(), root2);
    }

    #[test]
    fn single_leaf_tree() {
        let e = eng();
        let mut t = CacheTree::from_leaves(e.as_ref(), vec![0; 1]);
        assert_eq!(t.depth(), 0);
        t.update(e.as_ref(), 0, 42);
        assert_eq!(t.root(), 42);
    }
}
