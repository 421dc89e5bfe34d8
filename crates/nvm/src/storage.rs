//! Sparse 64 B-line backing store.
//!
//! The simulated device addresses far more lines than any run writes, so
//! the store keeps only the lines written; a line never written reads as
//! all-zeroes (matching a freshly initialized secure region whose counters
//! are all zero).
//!
//! Two structures hold it, both allocated on first write:
//!
//! * an **index**: one 4 KB page of `u32` slot numbers per 1,024 lines,
//!   behind a directory that grows to the highest page written. Slot `s`
//!   names line `s` of the arena; slot 0 means never written;
//! * an **arena**: the lines in first-write order, in fixed 64 KB chunks,
//!   after an all-zero line 0. A chunk never moves, so a growing store never
//!   holds two copies of its lines.
//!
//! A read goes directory → page → chunk → line, with no hash and no probe.
//! A stored line costs its 64 bytes plus its share of its index page: 68 B
//! per line when writes fill whole pages, 96 B at a stride of 8 lines, up
//! to 4 KB for a page holding a single line. The directory adds 8 B per
//! page up to the highest one written. [`SparseStore::iter`] yields lines
//! in ascending address order.
//!
//! A line keeps its slot for the life of the store, and
//! [`SparseStore::write`] returns it, so a per-line side table can be a
//! plain array indexed by slot: the device's wear counts
//! ([`crate::WearTracker`]) add 4 B per line that way, with no second
//! lookup. [`SparseStore::slots`] walks the slots in address order.

/// Cache-line granularity of the whole system (Table I: 64 B everywhere).
pub const LINE_BYTES: usize = 64;

/// One 64-byte memory line.
pub type Line = [u8; LINE_BYTES];

/// Lines one index page maps (4 KB of `u32` slots).
const PAGE_LINES: usize = 1024;

/// Lines one arena chunk holds (64 KB).
const CHUNK_LINES: usize = 1024;

/// Arena slot numbers of one page's lines (0 = never written).
type Page = [u32; PAGE_LINES];

/// One arena chunk. Its lines keep the allocator's 16-byte alignment: a
/// 64-byte-aligned chunk goes through `posix_memalign`, whose split-off
/// slivers fragment the heap enough to cost a multi-session run several
/// MB of peak RSS.
type Chunk = [Line; CHUNK_LINES];

/// Sparse line-granular storage with zero-fill semantics.
#[derive(Clone, Default)]
pub struct SparseStore {
    /// Index pages by page number; `None` for a page never written.
    pages: Vec<Option<Box<Page>>>,
    /// The arena. Its line 0, the one slot 0 names, stays all-zero, so a
    /// read inside a written page needs no test for a never-written slot.
    chunks: Vec<Box<Chunk>>,
    /// Lines written: arena lines `1..=len`.
    len: usize,
}

/// Byte address → (index page, slot within it). All accessors go through
/// this one helper so alignment handling cannot diverge between `read`,
/// `write`, and `contains`. A page number past `usize` maps to
/// `usize::MAX`, which no directory reaches.
#[inline]
fn locate(addr: u64) -> (usize, usize) {
    debug_assert_eq!(addr % LINE_BYTES as u64, 0, "unaligned line address");
    let line = addr / LINE_BYTES as u64;
    let page = usize::try_from(line / PAGE_LINES as u64).unwrap_or(usize::MAX);
    (page, (line % PAGE_LINES as u64) as usize)
}

/// Slot → (arena chunk, line within it).
#[inline]
fn position(slot: u32) -> (usize, usize) {
    (slot as usize / CHUNK_LINES, slot as usize % CHUNK_LINES)
}

impl SparseStore {
    /// Creates an empty (all-zero) store. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index page holding byte address `addr` and the slot's offset
    /// in it, if that page was ever written.
    #[inline]
    fn page_of(&self, addr: u64) -> Option<(&Page, usize)> {
        let (page, off) = locate(addr);
        Some((self.pages.get(page)?.as_deref()?, off))
    }

    /// The arena line a slot of a written page names.
    #[inline]
    fn line(&self, slot: u32) -> &Line {
        let (chunk, i) = position(slot);
        &self.chunks[chunk][i]
    }

    /// Reads the line holding byte address `addr` (which must be 64 B
    /// aligned conceptually; callers pass line-aligned addresses).
    #[inline]
    pub fn read(&self, addr: u64) -> Line {
        match self.page_of(addr) {
            Some((page, off)) => *self.line(page[off]),
            None => [0u8; LINE_BYTES],
        }
    }

    /// Writes a full line at byte address `addr` and returns its slot: the
    /// same number for every write to one line, from 1 up, in first-write
    /// order.
    pub fn write(&mut self, addr: u64, line: &Line) -> u32 {
        let (page, off) = locate(addr);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let slot = &mut self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_LINES]))[off];
        if *slot == 0 {
            let next = self.len + 1;
            *slot = u32::try_from(next).expect("the index holds at most u32::MAX lines");
            if next / CHUNK_LINES == self.chunks.len() {
                // Built on the heap: a 64 KB array would pass through the
                // stack.
                let chunk = vec![[0; LINE_BYTES]; CHUNK_LINES].into_boxed_slice();
                self.chunks
                    .push(chunk.try_into().expect("a chunk holds CHUNK_LINES lines"));
            }
            self.len = next;
        }
        let slot = *slot;
        let (chunk, i) = position(slot);
        self.chunks[chunk][i] = *line;
        slot
    }

    /// Whether the line was ever written (used by attack injection to pick
    /// interesting targets).
    pub fn contains(&self, addr: u64) -> bool {
        self.page_of(addr).is_some_and(|(page, off)| page[off] != 0)
    }

    /// Number of distinct lines written.
    pub fn population(&self) -> usize {
        self.len
    }

    /// Iterates over `(byte_addr, line)` pairs of populated lines, in
    /// ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Line)> {
        self.slots().map(|(addr, slot)| (addr, self.line(slot)))
    }

    /// Iterates over `(byte_addr, slot)` pairs of populated lines, in
    /// ascending address order.
    pub fn slots(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let pages = self.pages.iter().enumerate();
        let pages = pages.filter_map(|(p, page)| Some((p, page.as_deref()?)));
        pages.flat_map(|(p, page)| {
            let slots = page.iter().enumerate().filter(|&(_, &slot)| slot != 0);
            slots.map(move |(off, &slot)| {
                let line = (p * PAGE_LINES + off) as u64;
                (line * LINE_BYTES as u64, slot)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_by_default() {
        let s = SparseStore::new();
        assert_eq!(s.read(0), [0u8; 64]);
        assert_eq!(s.read(1 << 33), [0u8; 64]); // beyond-4GB addressing works
        assert_eq!(s.population(), 0);
    }

    #[test]
    fn never_written_lines_stay_zero_after_neighbor_writes() {
        let mut s = SparseStore::new();
        s.write(0, &[0xAA; 64]);
        s.write(128, &[0xBB; 64]);
        // The line between them was never written: zero-filled, not resident.
        assert_eq!(s.read(64), [0u8; 64]);
        assert!(!s.contains(64));
        assert_eq!(s.population(), 2);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = SparseStore::new();
        let line = [0xCD; 64];
        s.write(640, &line);
        assert_eq!(s.read(640), line);
        assert_eq!(s.read(704), [0u8; 64]);
        assert!(s.contains(640));
        assert!(!s.contains(704));
        assert_eq!(s.population(), 1);
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = SparseStore::new();
        s.write(0, &[1; 64]);
        s.write(0, &[2; 64]);
        assert_eq!(s.read(0), [2; 64]);
        assert_eq!(s.population(), 1);
    }

    #[test]
    fn a_line_keeps_the_slot_its_first_write_got() {
        let mut s = SparseStore::new();
        assert_eq!(s.write(4096, &[1; 64]), 1);
        assert_eq!(s.write(0, &[2; 64]), 2);
        assert_eq!(s.write(4096, &[3; 64]), 1);
        assert_eq!(s.slots().collect::<Vec<_>>(), [(0, 2), (4096, 1)]);
    }

    #[test]
    fn contains_and_population_after_overwrite() {
        let mut s = SparseStore::new();
        for round in 1..=3u8 {
            s.write(4096, &[round; 64]);
            assert!(s.contains(4096), "round {round}");
            assert_eq!(s.population(), 1, "round {round}");
        }
        // Writing all-zeroes still counts as written (explicit residency).
        s.write(4096, &[0; 64]);
        assert!(s.contains(4096));
        assert_eq!(s.population(), 1);
    }

    #[test]
    fn read_write_contains_agree_on_line_identity() {
        // All three accessors share `line_index`, so a write must be visible
        // through every path at exactly its own line address.
        let mut s = SparseStore::new();
        let addrs = [0u64, 64, 1 << 20, (1 << 33) + 64 * 7];
        for (i, &a) in addrs.iter().enumerate() {
            s.write(a, &[i as u8 + 1; 64]);
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert!(s.contains(a));
            assert_eq!(s.read(a), [i as u8 + 1; 64]);
        }
        assert_eq!(s.population(), addrs.len());
        let touched: std::collections::BTreeSet<u64> = s.iter().map(|(a, _)| a).collect();
        assert_eq!(touched, addrs.iter().copied().collect());
    }

    /// Seeded differential run against a plain map: random lines across
    /// four index pages, the lines on both sides of each page boundary, a
    /// far address, overwrites and all-zero writes. Every accessor must
    /// agree with the model after every operation.
    #[test]
    fn matches_a_plain_map() {
        use std::collections::HashMap;
        // xorshift64: this crate has no RNG.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges = [1023u64, 1024, 2047, 2048, (1 << 33) / 64];
        let mut s = SparseStore::new();
        let mut model: HashMap<u64, Line> = HashMap::new();
        for op in 0..20_000u32 {
            let r = next();
            let line = match r % 8 {
                0 => edges[(r >> 8) as usize % edges.len()],
                _ => (r >> 8) % 4096,
            };
            let addr = line * 64;
            if r % 3 == 0 {
                let data = if r % 5 == 0 { [0; 64] } else { [r as u8; 64] };
                s.write(addr, &data);
                model.insert(addr, data);
            }
            let want = model.get(&addr).copied().unwrap_or([0; 64]);
            assert_eq!(s.read(addr), want, "op {op}: read {addr:#x}");
            assert_eq!(s.contains(addr), model.contains_key(&addr), "op {op}");
            assert_eq!(s.population(), model.len(), "op {op}");
        }
        let mut want: Vec<(u64, Line)> = model.into_iter().collect();
        want.sort_unstable_by_key(|&(a, _)| a);
        let got: Vec<(u64, Line)> = s.iter().map(|(a, l)| (a, *l)).collect();
        assert_eq!(
            got, want,
            "iter yields the model in ascending address order"
        );
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    #[cfg(debug_assertions)]
    fn unaligned_read_panics_in_debug() {
        SparseStore::new().read(3);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    #[cfg(debug_assertions)]
    fn unaligned_contains_panics_in_debug() {
        SparseStore::new().contains(65);
    }
}
