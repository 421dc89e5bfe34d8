//! Sparse line-granular map: the device's 64 B lines, or a word per line.
//!
//! The simulated device addresses far more lines than any run writes, so
//! the store keeps only the lines written. A [`SparseStore`] maps a line
//! address to a [`Value`]: a [`Line`] for the device image, or a `u64`
//! word for the engine's ground truth, which keeps a trace store's version
//! per line. A line never written reads as the value's zero (all-zero
//! bytes, matching a freshly initialized secure region whose counters are
//! all zero, or the word 0).
//!
//! Two structures hold it, both allocated on first write:
//!
//! * an **index**: one page of `u32` slot numbers per 1,024 lines, behind
//!   a directory that grows to the highest page written. Slot `s` names
//!   value `s` of the arena; slot 0 means never written;
//! * an **arena**: the values in first-write order, in fixed chunks of
//!   1,024 (64 KB of lines, 8 KB of words), after a zero value 0. A chunk
//!   never moves, so a growing store never holds two copies of its values.
//!
//! An index page takes one of two forms:
//!
//! * **packed**, for a page holding up to 512 lines: one `u32` slice, a
//!   1,024-bit presence bitmap, then each 64-bit bitmap word's count of
//!   lines before it (the 192 B header), then the written lines' slots in
//!   offset order. A line's slot sits at its rank: the count before its
//!   word plus the set bits below it. A new line shifts the slots above its
//!   rank up by one, and a full page doubles its room, from 1 slot to 512;
//! * **direct**: 1,024 slots, one per line (4 KB). A page turns direct at
//!   its 513th line, where the packed form would grow to 1,024 slots behind
//!   its header (4,288 B), past a direct page.
//!
//! The directory keeps the forms apart in two vectors indexed by page: a
//! direct page behind a thin pointer, a packed one behind a slice's fat
//! pointer (empty, allocating nothing, where the page is direct or never
//! written). So a dense read goes directory → page → chunk → value with the
//! loads and tests of a store whose pages are all direct; one fat-pointer
//! directory telling the forms apart by length cost a dense read about
//! 4 % more (a shift and a length load). A packed read adds a header
//! test, a bit test and a popcount, with no hash and no probe.
//!
//! A stored value costs its own bytes plus its share of its index page:
//! 4 B per line written densely (a direct page), 5.5 B at a stride of 8
//! lines (128 slots and the header, 704 B a page) and 16 B at a stride of
//! 64 (16 slots, 256 B a page), where direct pages cost 32 B and 256 B a
//! line. So a line of the device image costs 68 B dense, 69.5 B at stride
//! 8 and 80 B at stride 64, and a word 12 B, 13.5 B and 24 B. A page
//! holding one line costs 196 B of index. The directory adds 24 B per page
//! up to the highest one written. [`SparseStore::iter`] yields values in
//! ascending address order.

/// Cache-line granularity of the whole system (Table I: 64 B everywhere).
pub const LINE_BYTES: usize = 64;

/// One 64-byte memory line.
pub type Line = [u8; LINE_BYTES];

/// Lines one index page maps.
const PAGE_LINES: usize = 1024;

/// `u32` words of a packed page's presence bitmap: bit `off % 32` of word
/// `off / 32` is set when line `off` was written.
const BITMAP: usize = PAGE_LINES / 32;

/// `u32` words of a packed page's header: the bitmap, then one count per
/// 64-bit bitmap word of the lines before it. The slots follow.
const HEADER: usize = BITMAP + PAGE_LINES / 64;

/// Values one arena chunk holds (64 KB of lines).
const CHUNK_LINES: usize = 1024;

/// One arena chunk. Its lines keep the allocator's 16-byte alignment: a
/// 64-byte-aligned chunk goes through `posix_memalign`, whose split-off
/// slivers fragment the heap enough to cost a multi-session run several
/// MB of peak RSS.
type Chunk<T> = [T; CHUNK_LINES];

/// What a [`SparseStore`] keeps per line: a [`Line`] or a `u64` word.
pub trait Value: Copy + std::fmt::Debug {
    /// What a never-written line reads as.
    const ZERO: Self;
}

impl Value for Line {
    const ZERO: Self = [0; LINE_BYTES];
}

impl Value for u64 {
    const ZERO: Self = 0;
}

/// Sparse line-granular storage with zero-fill semantics: a map from line
/// address to a `T`, by default the line itself.
#[derive(Clone)]
pub struct SparseStore<T: Value = Line> {
    /// Direct index pages by page number (module docs); `None` for a page
    /// that is packed or never written.
    direct: Vec<Option<Box<[u32; PAGE_LINES]>>>,
    /// Packed index pages by page number, as many entries as `direct`;
    /// empty for a page that is direct or never written.
    packed: Vec<Box<[u32]>>,
    /// The arena. Its value 0, the one slot 0 names, stays zero, so a read
    /// of a never-written line the directory reaches needs no test.
    chunks: Vec<Box<Chunk<T>>>,
    /// Lines written: arena values `1..=len`.
    len: usize,
}

impl<T: Value> Default for SparseStore<T> {
    /// An empty store. Allocates nothing.
    fn default() -> Self {
        SparseStore {
            direct: Vec::new(),
            packed: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }
}

/// Byte address → (index page, line within it). All accessors go through
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

/// A packed page's header; `None` for an empty page.
#[inline]
fn header(p: &[u32]) -> Option<&[u32; HEADER]> {
    p.get(..HEADER)?.try_into().ok()
}

/// The presence bits in header `h` for lines `64 * w..64 * w + 64`.
#[inline]
fn presence(h: &[u32; HEADER], w: usize) -> u64 {
    u64::from(h[2 * w]) | (u64::from(h[2 * w + 1]) << 32)
}

/// Line `off`'s rank in the packed page with header `h` (the lines
/// written before it, so where its slot sits after the header) and
/// whether it was written.
#[inline]
fn rank(h: &[u32; HEADER], off: usize) -> (usize, bool) {
    let (w, bit) = (off / 64, off % 64);
    let word = presence(h, w);
    let below = (word & ((1 << bit) - 1)).count_ones();
    ((h[BITMAP + w] + below) as usize, (word >> bit) & 1 == 1)
}

/// Lines the packed page with header `h` holds.
#[inline]
fn packed_lines(h: &[u32; HEADER]) -> usize {
    let last = PAGE_LINES / 64 - 1;
    (h[BITMAP + last] + presence(h, last).count_ones()) as usize
}

/// The slot packed page `p` gives line `off` (0 = never written).
#[inline]
fn packed_slot(p: &[u32], off: usize) -> u32 {
    match header(p).map(|h| rank(h, off)) {
        Some((r, true)) => p[HEADER + r],
        _ => 0,
    }
}

/// Whether packed page `p` must turn direct to take line `off`: the line
/// is new, the page is full, and doubling it would outgrow a direct page.
fn turns_direct(p: &[u32], off: usize) -> bool {
    header(p).is_some_and(|h| {
        !rank(h, off).1
            && HEADER + packed_lines(h) == p.len()
            && HEADER + 2 * (p.len() - HEADER) > PAGE_LINES
    })
}

/// Line `off`'s slot in packed page `page`, made room for when the line is
/// new: an empty page gets room for one slot, a full one doubles. A new
/// line's slot reads 0 until the caller numbers it.
fn packed_slot_mut(page: &mut Box<[u32]>, off: usize) -> &mut u32 {
    if page.is_empty() {
        *page = vec![0; HEADER + 1].into();
    }
    let h = header(page).expect("a packed page has its header");
    let (r, written) = rank(h, off);
    if !written {
        let lines = packed_lines(h);
        if HEADER + lines == page.len() {
            let slots = page.len() - HEADER;
            let mut grown = std::mem::take(page).into_vec();
            grown.reserve_exact(slots);
            grown.resize(HEADER + 2 * slots, 0);
            *page = grown.into_boxed_slice();
        }
        page[off / 32] |= 1 << (off % 32);
        for before in &mut page[BITMAP + off / 64 + 1..HEADER] {
            *before += 1;
        }
        page.copy_within(HEADER + r..HEADER + lines, HEADER + r + 1);
        page[HEADER + r] = 0;
    }
    &mut page[HEADER + r]
}

impl SparseStore {
    /// Creates an empty (all-zero) line store. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Value> SparseStore<T> {
    /// The slot the index gives line `off` of page `page` (0 = never
    /// written). `page` must be one the directory reaches.
    #[inline]
    fn slot(&self, page: usize, off: usize) -> u32 {
        match &self.direct[page] {
            Some(direct) => direct[off],
            None => packed_slot(&self.packed[page], off),
        }
    }

    /// The arena value a slot of a written page names.
    #[inline]
    fn value(&self, slot: u32) -> &T {
        let (chunk, i) = position(slot);
        &self.chunks[chunk][i]
    }

    /// Reads the value of the line holding byte address `addr` (which must
    /// be 64 B aligned conceptually; callers pass line-aligned addresses).
    #[inline]
    pub fn read(&self, addr: u64) -> T {
        let (page, off) = locate(addr);
        if page < self.direct.len() {
            *self.value(self.slot(page, off))
        } else {
            T::ZERO
        }
    }

    /// Writes the value of the line at byte address `addr`.
    pub fn write(&mut self, addr: u64, value: &T) {
        let (page, off) = locate(addr);
        if page >= self.direct.len() {
            self.direct.resize_with(page + 1, || None);
            self.packed.resize_with(page + 1, Box::default);
        }
        if self.direct[page].is_none() && turns_direct(&self.packed[page], off) {
            let packed = std::mem::take(&mut self.packed[page]);
            let direct: Box<[u32]> = (0..PAGE_LINES).map(|o| packed_slot(&packed, o)).collect();
            self.direct[page] = Some(direct.try_into().expect("a direct page maps PAGE_LINES"));
        }
        let slot = match &mut self.direct[page] {
            Some(direct) => &mut direct[off],
            None => packed_slot_mut(&mut self.packed[page], off),
        };
        if *slot == 0 {
            let next = self.len + 1;
            *slot = u32::try_from(next).expect("the index holds at most u32::MAX lines");
            if next / CHUNK_LINES == self.chunks.len() {
                // Built on the heap: a 64 KB array would pass through the
                // stack.
                let chunk = vec![T::ZERO; CHUNK_LINES].into_boxed_slice();
                self.chunks
                    .push(chunk.try_into().expect("a chunk holds CHUNK_LINES lines"));
            }
            self.len = next;
        }
        let (chunk, i) = position(*slot);
        self.chunks[chunk][i] = *value;
    }

    /// Whether the line was ever written (used by attack injection to pick
    /// interesting targets).
    pub fn contains(&self, addr: u64) -> bool {
        let (page, off) = locate(addr);
        page < self.direct.len() && self.slot(page, off) != 0
    }

    /// Number of distinct lines written.
    pub fn population(&self) -> usize {
        self.len
    }

    /// Iterates over `(byte_addr, value)` pairs of populated lines, in
    /// ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots().map(|(addr, slot)| (addr, self.value(slot)))
    }

    /// Iterates over `(byte_addr, slot)` pairs of populated lines, in
    /// ascending address order.
    fn slots(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let pages = 0..self.direct.len();
        let pages = pages.filter(|&p| self.direct[p].is_some() || !self.packed[p].is_empty());
        pages.flat_map(move |p| {
            let slots = (0..PAGE_LINES).map(move |off| (off, self.slot(p, off)));
            slots
                .filter(|&(_, slot)| slot != 0)
                .map(move |(off, slot)| {
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
        let mut words = SparseStore::<u64>::default();
        assert_eq!(words.read(1 << 33), 0);
        words.write(64, &7);
        assert_eq!((words.read(0), words.read(64)), (0, 7));
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
        s.write(4096, &[1; 64]);
        s.write(0, &[2; 64]);
        s.write(4096, &[3; 64]);
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

    /// A seeded xorshift64 stream: this crate has no RNG.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Seeded differential run against a plain map: random lines across
    /// four index pages, the lines on both sides of each page boundary, a
    /// far address, overwrites and all-zero writes. Every accessor must
    /// agree with the model after every operation.
    #[test]
    fn matches_a_plain_map() {
        use std::collections::HashMap;
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
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

    /// Each line's first-write slot and last payload, by address.
    type Model = std::collections::BTreeMap<u64, (u32, Line)>;

    /// The lines a [`differential`] run writes, one index page per
    /// `(stride, lines)` fill: strides 64, 8, 2 and 1, and pages of 511,
    /// 512, 513 and 1,024 lines on both sides of the packed → direct
    /// switch. The seed adds a page of random lines past one left empty.
    fn fills(next: &mut impl FnMut() -> u64) -> Vec<u64> {
        let fills = [(64, 16), (8, 128), (1, 511), (2, 512), (1, 513), (1, 1024)];
        let mut lines: Vec<u64> = (0u64..)
            .zip(fills)
            .flat_map(|(page, (stride, n))| (0..n).map(move |i| page * 1024 + i * stride))
            .collect();
        let page = (fills.len() as u64 + 1) * 1024;
        let mut random: Vec<u64> = (0..=next() % 1024).map(|_| page + next() % 1024).collect();
        random.sort_unstable();
        random.dedup();
        lines.extend(random);
        lines
    }

    /// Checks every accessor of `s` against `model` at `addr`.
    fn agrees(s: &SparseStore, model: &Model, addr: u64, at: &str) {
        let want = model.get(&addr);
        let line = want.map_or([0; 64], |&(_, line)| line);
        assert_eq!(s.read(addr), line, "{at}: read {addr:#x}");
        assert_eq!(s.contains(addr), want.is_some(), "{at}: contains {addr:#x}");
        assert_eq!(s.population(), model.len(), "{at}: population");
        let slots = model.iter().map(|(&addr, &(slot, _))| (addr, slot));
        assert!(s.slots().eq(slots), "{at}: slots() in address order");
    }

    /// Writes each line of [`fills`] for the first time in ascending,
    /// descending and shuffled order, so new lines land below written
    /// ones and shift their slots. Each first write is followed by
    /// `rounds` rewrites of a written line and reads of a random line of
    /// the run's pages, the empty one too; one write in five is
    /// all-zero. After every op the store agrees with the model, every
    /// line keeping its first-write slot. A clone of the finished store,
    /// which holds both page forms, reads the same.
    fn differential(seed: u64, rounds: u32) {
        for order in ["ascending", "descending", "shuffled"] {
            let mut next = xorshift(seed);
            let mut lines = fills(&mut next);
            match order {
                "descending" => lines.reverse(),
                "shuffled" => {
                    for i in (1..lines.len()).rev() {
                        lines.swap(i, (next() % (i as u64 + 1)) as usize);
                    }
                }
                _ => {}
            }
            let span = 8 * 1024;
            let mut s = SparseStore::new();
            let mut model = Model::new();
            let write = |s: &mut SparseStore, model: &mut Model, addr: u64, r: u64| {
                let data = if r % 5 == 0 { [0; 64] } else { [r as u8; 64] };
                let first = model.len() as u32 + 1;
                model.entry(addr).or_insert((first, data)).1 = data;
                s.write(addr, &data);
            };
            let mut written = Vec::new();
            for (op, &line) in lines.iter().enumerate() {
                let at = format!("seed {seed:#x}, {order}, first write {op}");
                write(&mut s, &mut model, line * 64, next());
                agrees(&s, &model, line * 64, &at);
                written.push(line * 64);
                for _ in 0..rounds {
                    let addr = written[(next() % written.len() as u64) as usize];
                    write(&mut s, &mut model, addr, next());
                    agrees(&s, &model, addr, &at);
                    agrees(&s, &model, next() % span * 64, &at);
                }
            }
            let pages: Vec<usize> = (0..7)
                .map(|p| s.direct[p].as_ref().map_or(s.packed[p].len(), |d| d.len()))
                .collect();
            let packed = |slots| HEADER + slots;
            assert_eq!(
                pages,
                [
                    packed(16),
                    packed(128),
                    packed(512),
                    packed(512),
                    PAGE_LINES,
                    PAGE_LINES,
                    0
                ],
                "{order}: page forms"
            );
            let copy = s.clone();
            for addr in (0..span).map(|line| line * 64) {
                assert_eq!(
                    copy.read(addr),
                    s.read(addr),
                    "{order}: clone reads {addr:#x}"
                );
                assert_eq!(copy.contains(addr), s.contains(addr), "{order}: clone");
            }
            assert_eq!(copy.population(), s.population());
            assert!(copy.slots().eq(s.slots()), "{order}: clone's slots()");
        }
    }

    #[test]
    fn packed_and_direct_pages_match_a_plain_map() {
        differential(0x9E37_79B9_7F4A_7C15, 1);
    }

    /// The differential at eight rewrites and reads per first write over
    /// four seeds (seconds in release; run weekly by CI's long sweep).
    #[test]
    #[ignore = "deep differential, four seeds; run with --release"]
    fn packed_and_direct_pages_match_a_plain_map_deep() {
        for seed in 1..=4 {
            differential(seed, 8);
        }
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
