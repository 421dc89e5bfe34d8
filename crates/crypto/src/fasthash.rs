//! Fast non-cryptographic and lightweight-keyed hashing.
//!
//! * [`SipHash24`]: a 64-bit keyed pseudo-random function, implemented from
//!   scratch. The figure harness runs hundreds of millions of MAC
//!   computations across the 6-scheme × 10-workload sweep; SipHash keeps
//!   those sweeps tractable while remaining a *keyed* function so every
//!   security check (tamper / replay detection) still exercises real
//!   key-dependent comparisons. Functional tests run with HMAC-SHA-256 too.
//! * [`FxHasher64`]: an FxHash-style multiply-rotate hasher for `HashMap`s
//!   whose keys are plain line addresses. The std default (randomized
//!   SipHash-1-3) costs ~10× more per lookup than the maps' actual collision
//!   risk warrants inside a single-process simulator; these maps are not
//!   attacker-facing, so a fast deterministic hash is the right trade.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// SipHash-2-4 with a 128-bit key.
#[derive(Clone, Copy)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

impl SipHash24 {
    /// Creates a SipHash instance from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        SipHash24 {
            k0: u64::from_le_bytes(key[..8].try_into().unwrap()),
            k1: u64::from_le_bytes(key[8..].try_into().unwrap()),
        }
    }

    /// 64-bit keyed hash of `msg`.
    pub fn hash(&self, msg: &[u8]) -> u64 {
        let mut v = [
            self.k0 ^ 0x736f6d6570736575,
            self.k1 ^ 0x646f72616e646f6d,
            self.k0 ^ 0x6c7967656e657261,
            self.k1 ^ 0x7465646279746573,
        ];
        let mut chunks = msg.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().unwrap());
            v[3] ^= m;
            sipround(&mut v);
            sipround(&mut v);
            v[0] ^= m;
        }
        let rest = chunks.remainder();
        let mut last = (msg.len() as u64) << 56;
        for (i, &b) in rest.iter().enumerate() {
            last |= (b as u64) << (8 * i);
        }
        v[3] ^= last;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= last;
        v[2] ^= 0xff;
        for _ in 0..4 {
            sipround(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

/// FxHash-style 64-bit hasher (rustc's `FxHasher`, re-derived from its
/// public description: `hash = (hash rol 5 ^ word) * K` per word, with a
/// fixed odd multiplier). Deterministic and unkeyed — only for internal,
/// non-adversarial maps such as Steins' pending-rebuild nodes. The NVM
/// device's line store and the engine's ground truth use no hash at all:
/// a page index over an arena (`steins_nvm::SparseStore`).
#[derive(Default, Clone, Copy)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher64`] (zero-sized, `Default`-constructible).
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` keyed by the fast deterministic [`FxHasher64`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash paper (Aumasson & Bernstein):
    /// key = 000102...0f, messages = [], [00], [00 01], ... little-endian out.
    #[test]
    fn reference_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let sip = SipHash24::new(&key);
        let expected: [u64; 8] = [
            u64::from_le_bytes([0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72]),
            u64::from_le_bytes([0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74]),
            u64::from_le_bytes([0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d]),
            u64::from_le_bytes([0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85]),
            u64::from_le_bytes([0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf]),
            u64::from_le_bytes([0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18]),
            u64::from_le_bytes([0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb]),
            u64::from_le_bytes([0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab]),
        ];
        let msg: Vec<u8> = (0..8u8).collect();
        for (len, &want) in expected.iter().enumerate() {
            assert_eq!(sip.hash(&msg[..len]), want, "len={len}");
        }
    }

    #[test]
    fn key_sensitivity() {
        let a = SipHash24::new(&[1; 16]).hash(b"block");
        let b = SipHash24::new(&[2; 16]).hash(b"block");
        assert_ne!(a, b);
    }

    #[test]
    fn message_sensitivity_single_bit() {
        let sip = SipHash24::new(&[9; 16]);
        let mut m = [0u8; 64];
        let h0 = sip.hash(&m);
        m[31] ^= 1;
        assert_ne!(sip.hash(&m), h0);
    }

    #[test]
    fn fx_hasher_is_deterministic_and_input_sensitive() {
        fn h(k: u64) -> u64 {
            let mut hasher = FxHasher64::default();
            hasher.write_u64(k);
            hasher.finish()
        }
        assert_eq!(h(0x40), h(0x40));
        assert_ne!(h(0x40), h(0x80));
        assert_ne!(h(0), h(1));
    }

    #[test]
    fn fx_hasher_slice_and_word_paths_differ_only_by_framing() {
        // Line addresses hash via write_u64; byte slices pad the tail.
        // Both must be usable: sanity-check there are no trivial collisions
        // across nearby keys in either path.
        let mut seen = std::collections::HashSet::new();
        for k in 0..1024u64 {
            let mut hasher = FxHasher64::default();
            hasher.write(&k.to_le_bytes());
            assert!(seen.insert(hasher.finish()), "slice-path collision at {k}");
        }
    }

    #[test]
    fn fx_hashmap_basic_ops() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for k in (0..4096u64).step_by(64) {
            m.insert(k, (k / 64) as u32);
        }
        assert_eq!(m.len(), 64);
        assert_eq!(m.get(&(63 * 64)), Some(&63));
        assert_eq!(m.get(&1), None);
    }
}
