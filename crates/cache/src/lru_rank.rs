//! One 8-byte tag word per cache way, with true LRU kept as a rank.
//!
//! A word packs the way's tag above bit 8, then the valid and dirty bits,
//! then the way's LRU rank among its set's valid ways in the low six bits
//! (0 = most recently used); an empty way is the all-zero word. The ranks
//! of a set's valid ways are always `0..n`, in the order per-access use
//! stamps would sort them, so the victim is the first invalid way, else
//! the highest-ranked evictable one: true LRU without a stamp. Six bits
//! bound a set at 64 ways.
//!
//! The CPU caches (`SetAssocCache`) keep bare words, the metadata cache
//! (`steins-metadata`, which includes this file by path) keeps each word
//! beside its node; both reach it through [`Way`].

/// Most ways a set can have: a way's LRU rank is six bits.
const MAX_WAYS: usize = 64;
/// A tag word's LRU rank bits.
const RANK: u64 = MAX_WAYS as u64 - 1;
pub(crate) const DIRTY: u64 = 1 << 6;
pub(crate) const VALID: u64 = 1 << 7;
pub(crate) const TAG_SHIFT: u32 = 8;
/// The bits a lookup compares: valid and tag.
const KEY: u64 = !(RANK | DIRTY);

/// Panics unless a set of `ways` ways can rank them.
pub(crate) fn check_ways(ways: usize) {
    assert!(
        ways <= MAX_WAYS,
        "{ways} ways: a set holds at most {MAX_WAYS} ways (a way's LRU rank is 6 bits)"
    );
}

/// A cache way, reached through its tag word.
pub(crate) trait Way {
    fn word(&self) -> u64;
    fn word_mut(&mut self) -> &mut u64;
}

impl Way for u64 {
    fn word(&self) -> u64 {
        *self
    }
    fn word_mut(&mut self) -> &mut u64 {
        self
    }
}

/// The valid tag word a resident `tag` matches under [`KEY`]. A tag has
/// 56 bits, so a CPU cache of four or more sets fits any address; with
/// fewer, an address must stay below 2^62 × sets. The metadata cache
/// asserts that a node offset fits before it fills a slot.
pub(crate) fn key(tag: u64) -> u64 {
    debug_assert!(
        tag >> (64 - TAG_SHIFT) == 0,
        "tag {tag:#x} overflows its word"
    );
    tag << TAG_SHIFT | VALID
}

/// The tag a valid word holds.
pub(crate) fn tag_of(w: u64) -> u64 {
    w >> TAG_SHIFT
}

/// A tag word's LRU rank (0 = most recently used).
pub(crate) fn rank(w: u64) -> u64 {
    w & RANK
}

/// The way of `set` holding `tag`, if resident.
pub(crate) fn find<W: Way>(set: &[W], tag: u64) -> Option<usize> {
    set.iter().position(|w| w.word() & KEY == key(tag))
}

/// The way a fill of `set` takes: the first invalid way, else the least
/// recently used (highest-ranked) valid way that `evictable` accepts.
/// `None` if it accepts none.
pub(crate) fn victim<W: Way>(set: &[W], evictable: impl Fn(u64) -> bool) -> Option<usize> {
    set.iter().position(|w| w.word() & VALID == 0).or_else(|| {
        (0..set.len())
            .filter(|&i| evictable(set[i].word()))
            .max_by_key(|&i| rank(set[i].word()))
    })
}

/// Ages by one every valid way of `set` ranked below `below`.
fn age_below<W: Way>(set: &mut [W], below: u64) {
    // Branch-free: which ways age depends on the access stream, so a
    // branch per way would mispredict often.
    for w in set {
        let w = w.word_mut();
        *w += u64::from(*w & VALID != 0) & u64::from(rank(*w) < below);
    }
}

/// Makes valid way `i` its set's most recent, aging the valid ways ranked
/// below it (nothing moves when it already is).
pub(crate) fn touch<W: Way>(set: &mut [W], i: usize) {
    let r = rank(set[i].word());
    if r > 0 {
        age_below(set, r);
        *set[i].word_mut() &= !RANK;
    }
}

/// Puts `word` (rank 0) into way `i`, aging every valid way ranked below
/// the vacated way's rank (all of them when the way was empty).
pub(crate) fn fill<W: Way>(set: &mut [W], i: usize, word: u64) {
    let old = set[i].word();
    let below = if old & VALID != 0 {
        rank(old)
    } else {
        MAX_WAYS as u64
    };
    age_below(set, below);
    *set[i].word_mut() = word;
}

/// xorshift64*: the seeded op streams of the caches' differential tests.
#[cfg(test)]
pub(crate) fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
