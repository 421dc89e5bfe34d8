//! Attack injection against a crashed machine (§III-H's threat catalogue).
//!
//! With the machine down, the attacker owns the NVM: they can flip bits
//! (tampering), restore old line contents they recorded earlier (replay),
//! and rewrite the offset records (mis-marking dirty/clean). Recovery must
//! detect all of it — the security tests drive these helpers and assert the
//! right [`crate::IntegrityError`] comes back.

use crate::crash::CrashedSystem;
use steins_metadata::records::{record_coords, RecordLine, RECORD_EMPTY};

impl CrashedSystem {
    /// Snapshot of a metadata node's current NVM line (record now, replay
    /// later).
    pub fn snapshot_node(&self, offset: u64) -> [u8; 64] {
        self.nvm.peek(self.layout.node_addr(offset))
    }

    /// Replays a previously recorded node line into NVM.
    pub fn replay_node(&mut self, offset: u64, old_line: &[u8; 64]) {
        self.nvm.overwrite(self.layout.node_addr(offset), old_line);
    }

    /// Flips one bit of a metadata node in NVM (tampering), at the default
    /// position (byte 13, mask `0x40` — mid-counter-region).
    pub fn tamper_node(&mut self, offset: u64) {
        self.tamper_node_at(offset, 13, 0x40);
    }

    /// XORs `mask` into byte `byte` of a metadata node in NVM: the
    /// position-parameterized tamper primitive (randomized campaigns pick
    /// byte/mask; a zero `mask` is a no-op and is rejected by debug builds).
    pub fn tamper_node_at(&mut self, offset: u64, byte: usize, mask: u8) {
        debug_assert!(mask != 0, "zero mask tampers nothing");
        let addr = self.layout.node_addr(offset);
        let mut line = self.nvm.peek(addr);
        line[byte % 64] ^= mask;
        self.nvm.overwrite(addr, &line);
    }

    /// Flips one bit of a user data line in NVM (tampering), at the default
    /// position (byte 0, mask `0x01`).
    pub fn tamper_data(&mut self, data_line: u64) {
        self.tamper_data_at(data_line, 0, 0x01);
    }

    /// XORs `mask` into byte `byte` of a user data line in NVM.
    pub fn tamper_data_at(&mut self, data_line: u64, byte: usize, mask: u8) {
        debug_assert!(mask != 0, "zero mask tampers nothing");
        let addr = self.layout.data_base + data_line * 64;
        let mut line = self.nvm.peek(addr);
        line[byte % 64] ^= mask;
        self.nvm.overwrite(addr, &line);
    }

    /// Snapshot of a user data line (for data replay).
    pub fn snapshot_data(&self, data_line: u64) -> [u8; 64] {
        self.nvm.peek(self.layout.data_base + data_line * 64)
    }

    /// Replays a previously recorded data line.
    pub fn replay_data(&mut self, data_line: u64, old_line: &[u8; 64]) {
        self.nvm
            .overwrite(self.layout.data_base + data_line * 64, old_line);
    }

    /// Rewrites the offset record for metadata-cache slot `slot` — either
    /// pointing it at `Some(offset)` (marking that node dirty) or clearing
    /// it (`None`: marking whatever was there as clean).
    pub fn rewrite_record(&mut self, slot: u64, entry: Option<u64>) {
        let (rline, idx) = record_coords(slot);
        let addr = self.layout.record_addr(rline);
        let mut line = self.nvm.peek(addr);
        let mut rl = RecordLine::from_line(&line);
        match entry {
            Some(off) => rl.set(idx, off as u32),
            None => rl.clear(idx),
        }
        line = rl.to_line();
        self.nvm.overwrite(addr, &line);
    }

    /// Reads the persisted record entry for cache slot `slot`.
    pub fn record_entry(&self, slot: u64) -> Option<u64> {
        let (rline, idx) = record_coords(slot);
        let line = self.nvm.peek(self.layout.record_addr(rline));
        RecordLine::from_line(&line).get(idx).map(u64::from)
    }

    /// NVM address of ASIT's shadow-table line for cache slot `slot`.
    pub fn shadow_probe(&self, slot: u64) -> u64 {
        self.layout.shadow_addr(slot)
    }

    /// Raw NVM overwrite at an arbitrary line address (generic attack
    /// primitive for regions without a dedicated helper).
    pub fn poke_raw(&mut self, addr: u64, line: &[u8; 64]) {
        self.nvm.overwrite(addr, line);
    }

    /// Every node offset currently marked dirty by the persisted records
    /// (attack reconnaissance / test assertions).
    pub fn recorded_dirty_offsets(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for r in 0..self.layout.record_lines() {
            let line = self.nvm.peek(self.layout.record_addr(r));
            let rl = RecordLine::from_line(&line);
            for (_, off) in rl.entries() {
                if off != RECORD_EMPTY {
                    out.push(u64::from(off));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}
