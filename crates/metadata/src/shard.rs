//! Address striping across shards.
//!
//! The sharded engine splits the protected data-line space across N
//! controller instances, each owning a disjoint contiguous *local* line
//! space with its own SIT ([`crate::SitGeometry`] is rebuilt per shard over
//! `lines_per_shard` lines), metadata cache, and write queue. The
//! [`ShardMap`] is the pure routing function between the two coordinate
//! systems:
//!
//! * **global** line — what callers address (`addr / 64` over the whole
//!   protected space), and
//! * **shard + local** line — which controller owns it and at what offset
//!   inside that controller's own layout.
//!
//! The striping interleaves: `shard = line % N`, like banks — sequential
//! global lines round-robin across shards, so uniform *and* sequential
//! traffic both spread — and the local line is `line / N`.

/// The pure global ⇄ (shard, local) line mapping.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    shards: u64,
    lines_per_shard: u64,
}

impl ShardMap {
    /// A map of `shards` shards over `total_lines` global lines.
    /// `total_lines` must divide evenly (shards are identical machines).
    pub fn new(shards: usize, total_lines: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let shards = shards as u64;
        assert!(
            total_lines >= shards && total_lines % shards == 0,
            "total_lines {total_lines} must be a positive multiple of shards {shards}"
        );
        ShardMap {
            shards,
            lines_per_shard: total_lines / shards,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Local lines each shard owns.
    pub fn lines_per_shard(&self) -> u64 {
        self.lines_per_shard
    }

    /// Total global lines covered.
    pub fn total_lines(&self) -> u64 {
        self.lines_per_shard * self.shards
    }

    /// Owning shard of a global line.
    pub fn shard_of(&self, line: u64) -> usize {
        debug_assert!(line < self.total_lines(), "line {line} out of range");
        (line % self.shards) as usize
    }

    /// The line's offset inside its owning shard.
    pub fn local_line(&self, line: u64) -> u64 {
        debug_assert!(line < self.total_lines(), "line {line} out of range");
        line / self.shards
    }

    /// Inverse of ([`Self::shard_of`], [`Self::local_line`]).
    pub fn global_line(&self, shard: usize, local: u64) -> u64 {
        debug_assert!((shard as u64) < self.shards && local < self.lines_per_shard);
        local * self.shards + shard as u64
    }

    /// Routes a global byte address: `(shard, local byte address)`.
    pub fn route(&self, addr: u64) -> (usize, u64) {
        let line = addr / 64;
        (
            self.shard_of(line),
            self.local_line(line) * 64 + (addr % 64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = ShardMap::new(4, 64);
        for line in 0..m.total_lines() {
            let (s, l) = (m.shard_of(line), m.local_line(line));
            assert!(s < 4);
            assert!(l < m.lines_per_shard());
            assert_eq!(m.global_line(s, l), line, "line {line}");
        }
    }

    #[test]
    fn stripes_are_balanced_partitions() {
        let m = ShardMap::new(4, 64);
        let mut per_shard = [0u64; 4];
        for line in 0..m.total_lines() {
            per_shard[m.shard_of(line)] += 1;
        }
        assert_eq!(per_shard, [16; 4]);
    }

    #[test]
    fn interleave_round_robins_sequential_lines() {
        let m = ShardMap::new(4, 64);
        let shards: Vec<usize> = (0..8).map(|l| m.shard_of(l)).collect();
        assert_eq!(shards, [0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn route_preserves_intra_line_offset() {
        let m = ShardMap::new(2, 8);
        let (s, local) = m.route(5 * 64 + 17);
        assert_eq!(s, m.shard_of(5));
        assert_eq!(local % 64, 17);
        assert_eq!(local / 64, m.local_line(5));
    }

    #[test]
    #[should_panic(expected = "multiple of shards")]
    fn uneven_split_rejected() {
        ShardMap::new(3, 64);
    }

    #[test]
    fn single_shard_is_identity() {
        let m = ShardMap::new(1, 16);
        for line in 0..16 {
            assert_eq!(m.shard_of(line), 0);
            assert_eq!(m.local_line(line), line);
        }
    }
}
