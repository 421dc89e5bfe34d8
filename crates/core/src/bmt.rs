//! Bonsai Merkle Tree baseline (§II-C, Fig. 2).
//!
//! Before SIT, secure memories used the BMT: counter blocks are hashed into
//! parent HMAC blocks, recursively up to an on-chip root. Because a parent
//! hash is computed **over the child's content**, updating a leaf forces a
//! *sequential* chain of HMAC computations up the branch — the cost §II-C
//! contrasts with SIT's parallel self-increasing counters, and the reason
//! this repository's main engine (like the paper) builds on SIT.
//!
//! This module is a compact, self-contained BMT-protected write-back memory
//! over the same substrates (NVM device, metadata cache, crypto). It exists
//! to reproduce the background claim: per secure write, the BMT spends
//! `O(height)` serial hashes where the lazy SIT spends one. The
//! `sit_update` bench and `bmt_vs_sit` unit tests quantify it.
//!
//! Layout: level 0 nodes are the CME counter blocks (8 × 56-bit counters);
//! every level ≥ 1 node packs eight 56-bit truncated child hashes (reusing
//! the 64 B general-node layout; a production BMT stores 8 × 64-bit hashes
//! in a 64 B line with no slack — the truncation only shortens the tags,
//! not the structure). The root's eight (≤ 64) child hashes live on chip.

use crate::cme::xor_otp;
use crate::config::SystemConfig;
use crate::error::IntegrityError;
use steins_crypto::CryptoEngine;
use steins_metadata::counter::CTR56_MAX;
use steins_metadata::{MemoryLayout, MetadataCache, NodeId, SitNode};
use steins_nvm::{Cycle, NvmDevice, WriteQueue};

/// A BMT-protected write-back secure memory (comparison baseline).
pub struct BmtSystem {
    cfg: SystemConfig,
    layout: MemoryLayout,
    crypto: Box<dyn CryptoEngine>,
    nvm: NvmDevice,
    wq: WriteQueue,
    meta: MetadataCache,
    /// On-chip hashes of the top NVM level's nodes.
    root_hashes: Vec<u64>,
    front_free: Cycle,
    /// Serial HMAC computations performed (the §II-C comparison metric).
    pub hash_ops: u64,
    /// Total serial hash latency charged, cycles.
    pub hash_cycles: u64,
    now: Cycle,
}

impl BmtSystem {
    /// Builds the system (general counters only — the classic BMT).
    pub fn new(cfg: SystemConfig) -> Self {
        assert_eq!(
            cfg.mode,
            steins_metadata::CounterMode::General,
            "the classic BMT hashes general counter blocks"
        );
        let layout = MemoryLayout::new(cfg.mode, cfg.data_lines, cfg.meta_cache.slots());
        let crypto = steins_crypto::engine::make_engine(cfg.crypto, cfg.secret_key());
        let nvm = NvmDevice::new(cfg.nvm.clone());
        let wq = WriteQueue::new(cfg.nvm.write_queue_entries);
        let meta = MetadataCache::new(cfg.meta_cache);
        let root_hashes = vec![0; layout.geometry.root_fanout()];
        BmtSystem {
            cfg,
            layout,
            crypto,
            nvm,
            wq,
            meta,
            root_hashes,
            front_free: 0,
            hash_ops: 0,
            hash_cycles: 0,
            now: 0,
        }
    }

    /// 56-bit node hash over the counter payload and address.
    fn node_hash(&mut self, node: &SitNode, offset: u64) -> u64 {
        self.hash_ops += 1;
        self.hash_cycles += self.cfg.hash_latency;
        let mut msg = [0u8; 64];
        msg[..56].copy_from_slice(&node.counter_bytes());
        msg[56..].copy_from_slice(&self.layout.node_addr(offset).to_le_bytes());
        self.crypto.mac64(&msg) & CTR56_MAX
    }

    /// Fetches + verifies a node against its parent's stored hash.
    fn ensure_cached(&mut self, mut t: Cycle, id: NodeId) -> Result<Cycle, IntegrityError> {
        let offset = self.layout.geometry.offset_of(id);
        if self.meta.lookup(offset).is_some() {
            return Ok(t);
        }
        // Parent first (recursively), to obtain the trusted hash.
        let expected = match self.layout.geometry.parent_of(id) {
            None => self.root_hashes[self.layout.geometry.root_slot(id)],
            Some((pid, slot)) => {
                t = self.ensure_cached(t, pid)?;
                let poff = self.layout.geometry.offset_of(pid);
                self.meta
                    .peek(poff)
                    .expect("parent ensured")
                    .counters
                    .as_general()
                    .get(slot)
            }
        };
        let (line, t2) = self.nvm.read(t, self.layout.node_addr(offset));
        t = t2 + self.cfg.hash_latency;
        let node = SitNode::general_from_line(&line);
        let actual = self.node_hash(&node, offset);
        if expected != actual && !(expected == 0 && line == [0u8; 64]) {
            return Err(IntegrityError::NodeMac { node: id });
        }
        // Install; dirty victims flush through the sequential-hash path.
        loop {
            if self.meta.contains(offset) {
                return Ok(t);
            }
            match self.meta.probe_victim(offset, &[offset]) {
                Some((voff, true)) => t = self.flush(t, voff)?,
                _ => break,
            }
        }
        self.meta.install(offset, node, false);
        Ok(t)
    }

    /// Flushes a dirty node: write it, then recompute the parent's stored
    /// hash — which dirties the parent, whose own flush will hash again:
    /// the BMT's *sequential* HMAC chain (here propagated eagerly to the
    /// first cached ancestor, as cached-BMT designs do).
    fn flush(&mut self, mut t: Cycle, offset: u64) -> Result<Cycle, IntegrityError> {
        let id = self.layout.geometry.node_at_offset(offset);
        let node = *self.meta.peek(offset).expect("flush target resident");
        let addr = self.layout.node_addr(offset);
        t = self.wq.push(t, addr, &node.to_line(), &mut self.nvm)?;
        self.meta.mark_clean(offset);
        let h = self.node_hash(&node, offset);
        t += self.cfg.hash_latency; // serial: the parent hash needs this one
        match self.layout.geometry.parent_of(id) {
            None => {
                self.root_hashes[self.layout.geometry.root_slot(id)] = h;
            }
            Some((pid, slot)) => {
                t = self.ensure_cached(t, pid)?;
                let poff = self.layout.geometry.offset_of(pid);
                let mut p = self.meta.read(poff).expect("parent ensured");
                p.counters.as_general_mut().set(slot, h);
                self.meta.write(poff, p);
                self.meta.mark_dirty(poff);
            }
        }
        Ok(t)
    }

    /// Secure write of one line.
    pub fn write(&mut self, addr: u64, plaintext: &[u8; 64]) -> Result<(), IntegrityError> {
        let arrival = self.now;
        let mut t = arrival.max(self.front_free);
        let dline = addr / 64;
        let (leaf, slot) = self.layout.geometry.leaf_of_data(dline);
        t = self.ensure_cached(t, leaf)?;
        let loff = self.layout.geometry.offset_of(leaf);
        let mut node = self.meta.read(loff).expect("leaf ensured");
        node.counters.as_general_mut().increment(slot);
        let (major, minor) = node.counters.enc_pair(slot);
        self.meta.write(loff, node);
        self.meta.mark_dirty(loff);
        let mut line = *plaintext;
        xor_otp(self.crypto.as_ref(), addr, major, minor, &mut line);
        self.hash_ops += 1;
        self.hash_cycles += self.cfg.hash_latency;
        t += self.cfg.hash_latency; // data HMAC
        t = self.wq.push(t, addr, &line, &mut self.nvm)?;
        self.front_free = t;
        self.now = t;
        Ok(())
    }

    /// Secure read of one line (decrypt via the leaf counter).
    pub fn read(&mut self, addr: u64) -> Result<[u8; 64], IntegrityError> {
        let arrival = self.now;
        let mut t = arrival.max(self.front_free);
        let dline = addr / 64;
        let (leaf, slot) = self.layout.geometry.leaf_of_data(dline);
        t = self.ensure_cached(t, leaf)?;
        let loff = self.layout.geometry.offset_of(leaf);
        let (major, minor) = self
            .meta
            .peek(loff)
            .expect("leaf ensured")
            .counters
            .enc_pair(slot);
        let (ct, t2) = self.nvm.read(t, addr);
        t = t2;
        let mut out = ct;
        xor_otp(self.crypto.as_ref(), addr, major, minor, &mut out);
        self.front_free = t;
        self.now = t;
        Ok(out)
    }

    /// Simulated cycles so far.
    pub fn cycles(&self) -> Cycle {
        self.now
    }

    /// NVM statistics.
    pub fn nvm_stats(&self) -> &steins_nvm::NvmStats {
        self.nvm.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use crate::engine::SecureNvmSystem;
    use steins_metadata::CounterMode;

    fn bmt() -> BmtSystem {
        BmtSystem::new(SystemConfig::small_for_tests(
            SchemeKind::WriteBack,
            CounterMode::General,
        ))
    }

    #[test]
    fn write_read_roundtrip() {
        let mut b = bmt();
        b.write(0x400, &[0x5C; 64]).unwrap();
        assert_eq!(b.read(0x400).unwrap(), [0x5C; 64]);
    }

    #[test]
    fn survives_evictions() {
        let mut b = bmt();
        for i in 0..500u64 {
            let mut data = [0u8; 64];
            data[..8].copy_from_slice(&i.to_le_bytes());
            b.write((i % 2048) * 64, &data).unwrap();
        }
        for i in (0..500u64).step_by(37) {
            let got = b.read((i % 2048) * 64).unwrap();
            assert_eq!(u64::from_le_bytes(got[..8].try_into().unwrap()), i);
        }
    }

    #[test]
    fn bmt_spends_more_serial_hashes_than_sit() {
        // §II-C's claim quantified: same write stream, count HMAC ops.
        let mut b = bmt();
        for i in 0..800u64 {
            b.write((i * 13 % 2048) * 64, &[i as u8; 64]).unwrap();
        }
        let bmt_hashes = b.hash_ops;

        let cfg = SystemConfig::small_for_tests(SchemeKind::WriteBack, CounterMode::General);
        let mut s = SecureNvmSystem::new(cfg);
        for i in 0..800u64 {
            s.write((i * 13 % 2048) * 64, &[i as u8; 64]).unwrap();
        }
        let sit_hashes = s.report().energy_events.hashes;
        assert!(
            bmt_hashes > sit_hashes,
            "BMT must hash more: bmt={bmt_hashes} sit={sit_hashes}"
        );
    }

    #[test]
    fn detects_tampered_node() {
        let mut b = bmt();
        for i in 0..300u64 {
            b.write((i * 7 % 2048) * 64, &[i as u8; 64]).unwrap();
        }
        // Find a leaf that is currently NOT cached and corrupt its NVM copy.
        let geo = b.layout.geometry.clone();
        let mut victim = None;
        for idx in 0..geo.nodes_at(0) {
            let off = geo.offset_of(NodeId {
                level: 0,
                index: idx,
            });
            let addr = b.layout.node_addr(off);
            if !b.meta.contains(off) && b.nvm.peek(addr) != [0u8; 64] {
                victim = Some((off, addr, idx));
                break;
            }
        }
        let (_, addr, idx) = victim.expect("some persisted uncached leaf");
        let mut line = b.nvm.peek(addr);
        line[5] ^= 1;
        b.nvm.overwrite(addr, &line);
        let data_line = geo.data_of_leaf(NodeId {
            level: 0,
            index: idx,
        })[0];
        assert!(
            b.read(data_line * 64).is_err(),
            "tampered BMT node must fail verification"
        );
    }
}
