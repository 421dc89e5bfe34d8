//! The NVM address map.
//!
//! One contiguous physical space, carved into regions (all 64 B-aligned):
//!
//! ```text
//! [ user data | data MAC records | SIT metadata | offset records |
//!   shadow table (ASIT) | dirty bitmap (STAR) ]
//! ```
//!
//! * **Data MAC records**: 16 B per data block — the 64-bit data HMAC plus
//!   the 64-bit recovery counter (SC: the major; GC: the full counter).
//!   DESIGN.md §2.7 documents this as the ECC-spare-bits substitution.
//! * **SIT metadata**: the tree nodes, level 0 first ([`SitGeometry`]
//!   offsets index into this region).
//! * **Offset records**: Steins' record lines, one 4 B entry per metadata
//!   cache slot (§III-C).
//! * **Shadow table**: ASIT's duplicate of every metadata cache line.
//! * **Bitmap**: STAR's dirty bitmap, 1 bit per metadata node.

use crate::counter::CounterMode;
use crate::geometry::SitGeometry;

/// Bytes of MAC+recovery record kept per data block.
pub const MAC_RECORD_BYTES: u64 = 16;

/// Byte offsets of each region plus the computed tree geometry.
#[derive(Clone, Debug)]
pub struct MemoryLayout {
    /// Number of user data lines.
    pub data_lines: u64,
    /// Tree geometry over those lines.
    pub geometry: SitGeometry,
    /// Base of the user data region (always 0).
    pub data_base: u64,
    /// Base of the data MAC record region.
    pub mac_base: u64,
    /// Base of the SIT metadata region.
    pub metadata_base: u64,
    /// Base of the offset record region.
    pub records_base: u64,
    /// Base of ASIT's shadow table.
    pub shadow_base: u64,
    /// Base of STAR's dirty bitmap.
    pub bitmap_base: u64,
    /// First byte past all regions.
    pub end: u64,
}

impl MemoryLayout {
    /// Lays out a system with `data_lines` user lines in `mode`, reserving a
    /// record region for `cache_slots` metadata cache slots.
    pub fn new(mode: CounterMode, data_lines: u64, cache_slots: u64) -> Self {
        let geometry = SitGeometry::new(mode, data_lines);
        let data_base = 0u64;
        let data_bytes = data_lines * 64;
        let mac_base = data_base + data_bytes;
        let mac_bytes = (data_lines * MAC_RECORD_BYTES).next_multiple_of(64);
        let metadata_base = mac_base + mac_bytes;
        let metadata_bytes = geometry.total_nodes() * 64;
        let records_base = metadata_base + metadata_bytes;
        // 4 B per cache slot, line-rounded (§III-C: 16 KB for a 256 KB cache).
        let records_bytes = (cache_slots * 4).next_multiple_of(64);
        let shadow_base = records_base + records_bytes;
        // One 64 B shadow line per cache slot (ASIT).
        let shadow_bytes = cache_slots * 64;
        let bitmap_base = shadow_base + shadow_bytes;
        // 1 bit per metadata node, line-rounded (STAR).
        let bitmap_bytes = geometry.total_nodes().div_ceil(8).next_multiple_of(64);
        let end = bitmap_base + bitmap_bytes;
        MemoryLayout {
            data_lines,
            geometry,
            data_base,
            mac_base,
            metadata_base,
            records_base,
            shadow_base,
            bitmap_base,
            end,
        }
    }

    /// NVM byte address of a metadata node given its region offset.
    pub fn node_addr(&self, offset: u64) -> u64 {
        self.metadata_base + offset * 64
    }

    /// Region offset of a metadata node NVM address.
    pub fn node_offset(&self, addr: u64) -> u64 {
        debug_assert!(addr >= self.metadata_base && addr < self.records_base);
        (addr - self.metadata_base) / 64
    }

    /// NVM line address + intra-line byte offset of data block `d`'s MAC
    /// record.
    pub fn mac_slot(&self, data_line: u64) -> (u64, usize) {
        let byte = self.mac_base + data_line * MAC_RECORD_BYTES;
        (byte & !63, (byte % 64) as usize)
    }

    /// NVM address of record line `r`.
    pub fn record_addr(&self, record_line: u64) -> u64 {
        self.records_base + record_line * 64
    }

    /// Lines in the offset-record region.
    pub fn record_lines(&self) -> u64 {
        (self.shadow_base - self.records_base) / 64
    }

    /// Lines in the dirty-bitmap region.
    pub fn bitmap_lines(&self) -> u64 {
        (self.end - self.bitmap_base) / 64
    }

    /// NVM address of the shadow-table line for cache slot `s`.
    pub fn shadow_addr(&self, slot: u64) -> u64 {
        self.shadow_base + slot * 64
    }

    /// NVM line address + bit position of node-offset `o` in the bitmap.
    pub fn bitmap_slot(&self, offset: u64) -> (u64, usize) {
        let bit = offset;
        let byte = self.bitmap_base + bit / 8;
        (byte & !63, (bit % 8 + (byte % 64) * 8) as usize)
    }

    /// Whether `addr` falls in the user data region.
    pub fn is_data(&self, addr: u64) -> bool {
        addr < self.mac_base
    }

    /// Whether `addr` falls in the SIT metadata region.
    pub fn is_metadata(&self, addr: u64) -> bool {
        addr >= self.metadata_base && addr < self.records_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> MemoryLayout {
        MemoryLayout::new(CounterMode::General, 4096, 64)
    }

    #[test]
    fn regions_are_ordered_and_disjoint() {
        let l = layout();
        assert!(l.data_base < l.mac_base);
        assert!(l.mac_base < l.metadata_base);
        assert!(l.metadata_base < l.records_base);
        assert!(l.records_base < l.shadow_base);
        assert!(l.shadow_base < l.bitmap_base);
        assert!(l.bitmap_base < l.end);
        for base in [
            l.mac_base,
            l.metadata_base,
            l.records_base,
            l.shadow_base,
            l.bitmap_base,
            l.end,
        ] {
            assert_eq!(base % 64, 0, "region base {base} not line-aligned");
        }
    }

    #[test]
    fn node_addr_roundtrip() {
        let l = layout();
        for off in [0u64, 1, 100, l.geometry.total_nodes() - 1] {
            assert_eq!(l.node_offset(l.node_addr(off)), off);
            assert!(l.is_metadata(l.node_addr(off)));
        }
    }

    #[test]
    fn mac_slots_pack_four_per_line() {
        let l = layout();
        let (line0, o0) = l.mac_slot(0);
        let (line1, o1) = l.mac_slot(1);
        let (line4, _) = l.mac_slot(4);
        assert_eq!(line0, line1);
        assert_eq!(o1 - o0, 16);
        assert_eq!(line4, line0 + 64);
    }

    #[test]
    fn record_region_matches_paper_ratio() {
        // §III-C: a 256 KB cache (4096 slots) needs a 16 KB record region.
        let l = MemoryLayout::new(CounterMode::General, 1 << 20, 4096);
        assert_eq!(l.shadow_base - l.records_base, 16 << 10);
    }

    #[test]
    fn bitmap_slots_unique() {
        let l = layout();
        let mut seen = std::collections::HashSet::new();
        for off in 0..l.geometry.total_nodes() {
            assert!(seen.insert(l.bitmap_slot(off)), "bitmap slot collision");
        }
    }

    #[test]
    fn data_predicate() {
        let l = layout();
        assert!(l.is_data(0));
        assert!(l.is_data(4096 * 64 - 64));
        assert!(!l.is_data(l.mac_base));
        assert!(!l.is_metadata(0));
    }
}
