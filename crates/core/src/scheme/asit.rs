//! ASIT (Anubis for SGX Integrity Trees): the registers, the runtime hooks,
//! the crash remnant and the strict recovery.
//!
//! ASIT mirrors every metadata-cache line into a **shadow table** in NVM —
//! one 64 B entry per cache slot, written on every modification (the 2×
//! write traffic of Fig. 13) — and verifies recovery through a 4-level
//! **cache-tree** whose leaves MAC each cache slot's content (the serial
//! HMAC chains behind ASIT's Fig. 9/10 slowdowns).

use super::SchemeState;
use crate::cachetree::CacheTree;
use crate::crash::CrashedSystem;
use crate::engine::{parse_node, SecureMemoryController, SecureNvmSystem};
use crate::error::IntegrityError;
use crate::recovery::{journal, RecoveryReport};
use std::collections::HashMap;
use steins_crypto::CryptoEngine;
use steins_metadata::SitNode;
use steins_nvm::{Cycle, PowerCut, RecoveryJournal};

/// The in-flight shadow update staged in the controller's ADR domain.
///
/// The cache-tree registers are updated *before* the shadow-line write (so
/// they ride its persist event atomically), which under whole-line-atomic
/// writes was sufficient. Under 8 B write atomicity the shadow line itself
/// can tear: the registers then hold the new root while NVM holds a torn
/// mix. The staging buffer keeps the outgoing update's **pre-image** — the
/// slot, the previous root, the previous tag, and the previous durable line
/// content — until the write-queue accepts the line (entries are durable at
/// acceptance). Recovery uses it to fall back to the authenticated pre-state
/// when the rebuilt root does not match; a clean shutdown leaves it `None`,
/// so tampering detection is unchanged when no write was in flight.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AsitInflight {
    /// The cache slot whose shadow write was in flight.
    slot: u64,
    /// The NV root before this update was registered.
    prev_root: u64,
    /// The slot's tag before the update (`None`: slot was unoccupied).
    prev_tag: Option<u64>,
    /// The slot's durable shadow-line content before the update.
    prev_line: [u8; 64],
}

/// Mutable ASIT state.
pub(crate) struct AsitState {
    /// Cache-tree over cache slots (intermediate levels volatile, root in an
    /// NV register).
    cache_tree: CacheTree,
    /// The NV registers: what survives a power cut.
    nv: AsitNv,
}

/// ASIT's NV registers.
pub(crate) struct AsitNv {
    /// The NV-register copy of the cache-tree root.
    root: u64,
    /// Which node offset each shadow-table slot currently mirrors. Real
    /// hardware keeps these tags in the shadow entries' spare/ECC bits; they
    /// are non-volatile alongside the table itself.
    shadow_tags: HashMap<u64, u64>,
    /// Pre-image of the shadow update currently in flight (ADR domain:
    /// cleared once the write queue accepts the line, so `Some` after a
    /// crash exactly when it landed inside a shadow write, where the line
    /// may have torn).
    inflight: Option<AsitInflight>,
}

impl AsitState {
    /// Fresh state for a metadata cache with `slots` lines.
    pub(crate) fn new(engine: &dyn CryptoEngine, slots: usize) -> Self {
        let cache_tree = CacheTree::new(engine, slots);
        let root = cache_tree.root();
        AsitState {
            cache_tree,
            nv: AsitNv {
                root,
                shadow_tags: HashMap::new(),
                inflight: None,
            },
        }
    }

    /// Commits the current cache-tree root to the NV register.
    fn commit_root(&mut self) {
        self.nv.root = self.cache_tree.root();
    }

    /// ASIT has no ADR-cached lines: the registers are the remnant.
    pub(crate) fn power_cut(self) -> AsitNv {
        self.nv
    }
}

/// The ASIT variant; the dispatch in `scheme` runs these hooks only under
/// ASIT.
fn regs(scheme: &mut SchemeState) -> &mut AsitState {
    match scheme {
        SchemeState::Asit(st) => st,
        _ => unreachable!("an ASIT hook ran under another scheme"),
    }
}

/// The cache-tree leaf string of a shadow slot: its content ‖ the slot.
fn leaf_message(line: &[u8; 64], slot: u64) -> [u8; 72] {
    let mut msg = [0u8; 72];
    msg[..64].copy_from_slice(line);
    msg[64..].copy_from_slice(&slot.to_le_bytes());
    msg
}

impl SecureMemoryController {
    /// Vacate: the slot's shadow entry leaves the cache-tree.
    pub(super) fn asit_vacate(&mut self, mut t: Cycle, slot: u64) -> Cycle {
        let st = regs(&mut self.scheme);
        if st.nv.shadow_tags.remove(&slot).is_some() {
            let hashes = st.cache_tree.update(self.crypto.as_ref(), slot as usize, 0);
            st.commit_root();
            self.energy.hashes += hashes as u64;
            t += hashes as u64 * self.cfg.hash_latency;
        }
        t
    }

    /// Modify: mirror the slot's content into the shadow table and rebuild
    /// the cache-tree path for it.
    pub(super) fn asit_mirror(&mut self, mut t: Cycle, offset: u64) -> Result<Cycle, PowerCut> {
        let slot = self.meta.slot_of(offset).expect("node resident");
        let node = *self.meta.peek(offset).expect("node resident");
        let line = node.to_line();
        // Leaf MAC over (content ‖ slot), then the path to the root. The
        // register updates are persist-event-free, so doing them BEFORE the
        // shadow-line write makes them atomic with it: a crash at the shadow
        // write's persist boundary observes the new shadow content together
        // with the root that authenticates it (updating the root after the
        // write left a boundary where recovery rebuilt a root the register
        // did not hold yet).
        self.energy.hashes += 1;
        let leaf_mac = self.crypto.mac64_72(&leaf_message(&line, slot));
        // Stage the pre-image (slot, previous root/tag/durable line) in the
        // ADR-domain in-flight buffer before touching any register: under
        // 8 B write atomicity the shadow line below can tear, and recovery
        // falls back to this authenticated pre-state (see `AsitInflight`).
        let prev_line = self.nvm.peek(self.layout.shadow_addr(slot));
        let st = regs(&mut self.scheme);
        st.nv.inflight = Some(AsitInflight {
            slot,
            prev_root: st.nv.root,
            prev_tag: st.nv.shadow_tags.get(&slot).copied(),
            prev_line,
        });
        st.nv.shadow_tags.insert(slot, offset);
        let hashes = st
            .cache_tree
            .update(self.crypto.as_ref(), slot as usize, leaf_mac);
        st.commit_root();
        self.energy.hashes += hashes as u64;
        t += (1 + hashes as u64) * self.cfg.hash_latency;
        // Shadow write: the 2× traffic of Fig. 13.
        t = self
            .wq
            .push(t, self.layout.shadow_addr(slot), &line, &mut self.nvm)?;
        // The queue accepted the line (durable): the update is no longer in
        // flight. A power cut inside the push above returns before this
        // clear, leaving the pre-image staged for recovery.
        regs(&mut self.scheme).nv.inflight = None;
        Ok(t)
    }
}

impl CrashedSystem {
    /// Strict recovery: rebuild the cache-tree from the shadow table,
    /// check it against the root register, and replay every shadow slot.
    pub(super) fn recover_asit(
        self,
        nv: AsitNv,
        out: &mut Option<SecureNvmSystem>,
        prior: RecoveryJournal,
        restarts: u32,
    ) -> Result<RecoveryReport, IntegrityError> {
        let geo = self.layout.geometry.clone();
        let slots = self.cfg.meta_cache.slots();
        // Tag reads (8 tags per line, kept beside the table).
        let mut reads = slots.div_ceil(8);
        let mut leaf_macs = vec![0u64; slots as usize];
        let mut slot_lines: Vec<Option<(u64, [u8; 64])>> = vec![None; slots as usize];
        for slot in 0..slots {
            if let Some(&off) = nv.shadow_tags.get(&slot) {
                reads += 1;
                let line = self.nvm.peek(self.layout.shadow_addr(slot));
                leaf_macs[slot as usize] = self.crypto.mac64_72(&leaf_message(&line, slot));
                slot_lines[slot as usize] = Some((off, line));
            }
        }
        let reads_shadow_scan = reads;
        // The seed for the rebuilt system's cache-tree: the tree over the
        // *durable-consistent* shadow content (post-rollback if the
        // in-flight write tore), with the matching root and — while the torn
        // slot's line is still unrewritten in NVM — the original in-flight
        // pre-image, so a crash during the replay below recovers again.
        let mut seed_root = nv.root;
        let mut seed_inflight = None;
        let (rebuilt, _) = CacheTree::rebuild(self.crypto.as_ref(), &leaf_macs);
        if rebuilt != nv.root {
            // Under 8 B write atomicity the one shadow write that was in
            // flight at the crash may have torn — the registers already hold
            // the post-update root, but NVM holds a mixed line. The ADR
            // staging buffer carries that update's authenticated pre-image:
            // substitute it and require the tree to match the *previous*
            // root. Anything else (no in-flight write, or a mismatch even
            // after rollback) is tampering, not tearing.
            let Some(inf) = nv.inflight else {
                return Err(IntegrityError::CacheTreeMismatch {
                    stored: nv.root,
                    recomputed: rebuilt,
                });
            };
            let old_mac = if inf.prev_tag.is_some() {
                self.crypto
                    .mac64_72(&leaf_message(&inf.prev_line, inf.slot))
            } else {
                0
            };
            let mut prev_macs = leaf_macs.clone();
            prev_macs[inf.slot as usize] = old_mac;
            let (prev_rebuilt, _) = CacheTree::rebuild(self.crypto.as_ref(), &prev_macs);
            if prev_rebuilt != inf.prev_root {
                return Err(IntegrityError::CacheTreeMismatch {
                    stored: nv.root,
                    recomputed: rebuilt,
                });
            }
            // Roll the torn slot back to its pre-image: the interrupted op
            // was never acked, so the pre-state is the correct durable state.
            slot_lines[inf.slot as usize] = inf.prev_tag.map(|off| (off, inf.prev_line));
            leaf_macs = prev_macs;
            seed_root = inf.prev_root;
            seed_inflight = Some(inf);
        }
        let mut entries: Vec<(u64, u64, SitNode)> = Vec::new();
        for (slot, sl) in slot_lines.iter().enumerate() {
            if let Some((off, line)) = sl {
                let id = geo.node_at_offset(*off);
                entries.push((slot as u64, *off, parse_node(self.cfg.mode, id, line)));
            }
        }
        // Torn-write reconciliation: within one write op the shadow push
        // persists before the data line + MacRecord push, so a crash in
        // between leaves a slot whose shadow counter runs exactly one
        // increment ahead of the data plane (the op was never acked).
        // Rebuild each leaf from the MacRecords — the data-consistent truth,
        // with every data block's HMAC verified — and reject any divergence
        // outside that one-ahead window as replay/tampering. The reconciled
        // leaf is installed dirty; the replayed slot update below re-syncs
        // its shadow copy and the cache-tree.
        for (_, off, node) in entries.iter_mut() {
            let id = geo.node_at_offset(*off);
            if id.level != 0 {
                continue;
            }
            let reconciled = self.recover_leaf(&mut reads, id, node)?;
            let shadow = node.counters.as_general();
            let data = reconciled.counters.as_general();
            for j in 0..geo.data_of_leaf(id).len() {
                let (s, d) = (shadow.get(j), data.get(j));
                if s != d && s != d + 1 {
                    return Err(IntegrityError::NodeMac { node: id });
                }
            }
            *node = reconciled;
        }
        let mut per_level = vec![0usize; geo.levels()];
        for (_, off, _) in &entries {
            per_level[geo.node_at_offset(*off).level] += 1;
        }
        let report = RecoveryReport::new(
            "ASIT",
            &[
                ("shadow_scan", reads_shadow_scan),
                ("reconcile", reads - reads_shadow_scan),
            ],
            per_level,
            prior,
            restarts,
            self.cfg.recovery_read_ns,
        );
        // Seed the scheme state from the verified durable image instead of
        // starting empty: the tags, tree and root already describe what is
        // in NVM, so every boundary inside the replay below is a state this
        // same recovery procedure accepts — the replay is re-entrant.
        let seeded = CacheTree::from_leaves(self.crypto.as_ref(), &leaf_macs);
        debug_assert_eq!(seeded.root(), seed_root, "seed tree must match root");
        let tags: HashMap<u64, u64> = entries.iter().map(|(s, off, _)| (*s, *off)).collect();
        let sys = out.insert(self.revive());
        sys.ctrl.scheme = SchemeState::Asit(AsitState {
            cache_tree: seeded,
            nv: AsitNv {
                root: seed_root,
                shadow_tags: tags,
                inflight: seed_inflight,
            },
        });
        // Install every shadow copy as dirty (home copies may be stale) in
        // its *original* slot, and replay the slot updates so the shadow
        // table and cache-tree converge on the reconciled content. Each
        // update is the normal runtime sequence (stage pre-image → update
        // registers → push shadow line), so a crash at any point inside it
        // is recoverable like a runtime crash. The journal's `hwm` counts
        // replayed items; every boundary is runtime-consistent, so the mark
        // is a progress record for diagnostics, not a resume point.
        let mut items = entries;
        items.sort_by_key(|(_, off, _)| {
            let id = geo.node_at_offset(*off);
            (std::cmp::Reverse(id.level), id.index)
        });
        let total = items.len() as u64;
        sys.ctrl.journal_write(journal::ASIT_REPLAY, 0, restarts)?;
        for (i, (slot, off, node)) in items.into_iter().enumerate() {
            sys.ctrl.meta.install_at(slot, off, node, true);
            sys.ctrl.asit_mirror(0, off)?;
            sys.ctrl
                .journal_write(journal::ASIT_REPLAY, i as u64 + 1, restarts)?;
        }
        sys.ctrl.journal_write(journal::DONE, total, restarts)?;
        sys.ctrl.nvm.reset_stats();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_crypto::{engine::make_engine, CryptoKind, SecretKey};

    #[test]
    fn commit_tracks_tree() {
        let e = make_engine(CryptoKind::Fast, SecretKey([1; 16]));
        let mut s = AsitState::new(e.as_ref(), 64);
        s.cache_tree.update(e.as_ref(), 3, 99);
        assert_ne!(s.nv.root, s.cache_tree.root());
        s.commit_root();
        assert_eq!(s.nv.root, s.cache_tree.root());
    }
}
