//! Asynchronous DRAM Refresh (ADR) persist domain.
//!
//! ADR guarantees that a small amount of memory-controller state is flushed
//! to NVM by residual power when the machine loses power. Steins keeps its
//! cached offset **record lines** here (§III-C); all schemes keep the write
//! queue here. The model is a bounded set of 64 B lines with LRU
//! replacement: evicting a line writes it to NVM *during runtime* (charged
//! to the caller), while a crash flushes every resident line for free.

use crate::storage::Line;
use std::collections::VecDeque;

/// A bounded, LRU-managed set of NVM-backed lines inside the ADR domain.
pub struct AdrRegion {
    capacity: usize,
    /// LRU order: front = least recently used. Small (≤ tens of lines), so a
    /// VecDeque scan beats hash-map bookkeeping.
    resident: VecDeque<(u64, Line)>,
}

impl AdrRegion {
    /// Creates a region holding up to `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ADR region needs at least one line");
        AdrRegion {
            capacity,
            resident: VecDeque::with_capacity(capacity),
        }
    }

    /// Looks up `addr`, promoting it to MRU. Returns whether it was resident.
    pub fn touch(&mut self, addr: u64) -> bool {
        if let Some(pos) = self.resident.iter().position(|(a, _)| *a == addr) {
            let entry = self.resident.remove(pos).expect("position valid");
            self.resident.push_back(entry);
            true
        } else {
            false
        }
    }

    /// Reads a resident line (None if absent).
    pub fn get(&self, addr: u64) -> Option<&Line> {
        self.resident
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|(_, l)| l)
    }

    /// Inserts or updates `addr`, evicting the LRU line if full.
    /// Returns the evicted `(addr, line)` so the caller can write it to NVM.
    pub fn insert(&mut self, addr: u64, line: Line) -> Option<(u64, Line)> {
        if let Some(pos) = self.resident.iter().position(|(a, _)| *a == addr) {
            self.resident.remove(pos);
            self.resident.push_back((addr, line));
            return None;
        }
        let evicted = if self.resident.len() == self.capacity {
            self.resident.pop_front()
        } else {
            None
        };
        self.resident.push_back((addr, line));
        evicted
    }

    /// Mutable access to a resident line, promoting it to MRU.
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut Line> {
        if self.touch(addr) {
            self.resident.back_mut().map(|(_, l)| l)
        } else {
            None
        }
    }

    /// Crash flush: drains every resident line as `(addr, line)` pairs, in
    /// LRU order. ADR hardware persists these with residual power, so the
    /// flush costs no simulated runtime.
    pub fn crash_flush(&mut self) -> Vec<(u64, Line)> {
        self.resident.drain(..).collect()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_touch_hits() {
        let mut adr = AdrRegion::new(2);
        assert!(!adr.touch(64));
        adr.insert(64, [1; 64]);
        assert!(adr.touch(64));
        assert_eq!(adr.get(64), Some(&[1; 64]));
    }

    #[test]
    fn lru_eviction_order() {
        let mut adr = AdrRegion::new(2);
        assert!(adr.insert(0, [0; 64]).is_none());
        assert!(adr.insert(64, [1; 64]).is_none());
        adr.touch(0); // 64 becomes LRU
        let evicted = adr.insert(128, [2; 64]).expect("must evict");
        assert_eq!(evicted.0, 64);
        assert!(adr.touch(0));
        assert!(adr.touch(128));
    }

    #[test]
    fn update_in_place_does_not_evict() {
        let mut adr = AdrRegion::new(1);
        adr.insert(0, [1; 64]);
        assert!(adr.insert(0, [2; 64]).is_none());
        assert_eq!(adr.get(0), Some(&[2; 64]));
    }

    #[test]
    fn crash_flush_returns_everything_and_clears() {
        let mut adr = AdrRegion::new(4);
        adr.insert(0, [1; 64]);
        adr.insert(64, [2; 64]);
        let flushed = adr.crash_flush();
        assert_eq!(flushed.len(), 2);
        assert!(adr.is_empty());
    }

    #[test]
    fn get_mut_promotes_to_mru() {
        let mut adr = AdrRegion::new(2);
        adr.insert(0, [0; 64]);
        adr.insert(64, [0; 64]);
        adr.get_mut(0).unwrap()[0] = 9;
        let evicted = adr.insert(128, [0; 64]).unwrap();
        assert_eq!(evicted.0, 64, "line 0 was promoted by get_mut");
        assert_eq!(adr.get(0).unwrap()[0], 9);
    }
}
