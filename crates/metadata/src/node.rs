//! SIT nodes and the on-chip root, with bit-exact 64 B serialization.
//!
//! * General node: `8 × 56-bit counters (56 B) ‖ 64-bit HMAC (8 B)`.
//! * Split leaf: `64-bit major (8 B) ‖ 64 × 6-bit minors (48 B) ‖ HMAC (8 B)`.
//!
//! The node HMAC is computed over `(counter bytes ‖ node address ‖ parent
//! counter)` under the MAC key (§II-C) — [`SitNode::mac_message`] builds
//! that exact byte string so every scheme MACs identically.

use crate::counter::{CounterBlock, GeneralCounters, SplitCounters, CTR56_MAX, MINOR_MAX};

/// 64-byte line, re-declared locally to keep this crate independent of the
/// device crate.
pub type Line = [u8; 64];

/// One SIT node: a counter block plus its 64-bit HMAC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SitNode {
    /// The counters.
    pub counters: CounterBlock,
    /// 64-bit truncated HMAC over counters ‖ address ‖ parent counter.
    pub hmac: u64,
}

impl SitNode {
    /// Fresh all-zero general node.
    pub fn zero_general() -> Self {
        SitNode {
            counters: CounterBlock::zero_general(),
            hmac: 0,
        }
    }

    /// Fresh all-zero split node.
    pub fn zero_split() -> Self {
        SitNode {
            counters: CounterBlock::zero_split(),
            hmac: 0,
        }
    }

    /// Serializes the counter payload (56 bytes, no HMAC).
    pub fn counter_bytes(&self) -> [u8; 56] {
        let mut out = [0u8; 56];
        match &self.counters {
            CounterBlock::General(g) => {
                // 8 × 56-bit, little-endian, packed back to back. Values
                // are masked, not asserted: nodes reconstructed from corrupt
                // images may carry out-of-range sums, and serialization must
                // truncate exactly as the field width dictates.
                for (i, &c) in g.0.iter().enumerate() {
                    let bytes = (c & CTR56_MAX).to_le_bytes();
                    out[i * 7..i * 7 + 7].copy_from_slice(&bytes[..7]);
                }
            }
            CounterBlock::Split(s) => {
                out[..8].copy_from_slice(&s.major.to_le_bytes());
                // 64 × 6-bit minors into 48 bytes: 4 minors per 3 bytes.
                for (group, chunk) in s.minors.chunks_exact(4).enumerate() {
                    let packed: u32 = u32::from(chunk[0])
                        | u32::from(chunk[1]) << 6
                        | u32::from(chunk[2]) << 12
                        | u32::from(chunk[3]) << 18;
                    let b = packed.to_le_bytes();
                    out[8 + group * 3..8 + group * 3 + 3].copy_from_slice(&b[..3]);
                }
            }
        }
        out
    }

    /// Serializes the full node into a 64 B line.
    pub fn to_line(&self) -> Line {
        let mut line = [0u8; 64];
        line[..56].copy_from_slice(&self.counter_bytes());
        line[56..].copy_from_slice(&self.hmac.to_le_bytes());
        line
    }

    /// The counters as eight words, the form a metadata-cache slot keeps:
    /// a general block's counters verbatim (lossless, a counter an
    /// increment carried to 2^56 included), a split block's major in word
    /// 0 and its six-bit minors ten to a word, low bits first, in words
    /// 1–7. Like [`Self::counter_bytes`], it relies on every minor being at
    /// most [`MINOR_MAX`].
    pub(crate) fn counter_words(&self) -> [u64; 8] {
        match &self.counters {
            CounterBlock::General(g) => g.0,
            CounterBlock::Split(s) => {
                let mut tens = [0u8; 70];
                tens[..64].copy_from_slice(&s.minors);
                let mut words = [s.major, 0, 0, 0, 0, 0, 0, 0];
                for (w, ten) in words[1..].iter_mut().zip(tens.chunks_exact(10)) {
                    let eight = u64::from_le_bytes(ten[..8].try_into().expect("8 bytes"));
                    *w = gather8(eight) | u64::from(ten[8]) << 48 | u64::from(ten[9]) << 54;
                }
                words
            }
        }
    }

    /// Inverse of [`Self::counter_words`] for a node of the given layout.
    pub(crate) fn from_counter_words(words: &[u64; 8], hmac: u64, split: bool) -> Self {
        let counters = if split {
            let mut tens = [0u8; 70];
            for (ten, &w) in tens.chunks_exact_mut(10).zip(&words[1..]) {
                ten[..8].copy_from_slice(&spread8(w).to_le_bytes());
                ten[8] = (w >> 48) as u8 & MINOR_MAX;
                ten[9] = (w >> 54) as u8 & MINOR_MAX;
            }
            let mut minors = [0u8; 64];
            minors.copy_from_slice(&tens[..64]);
            CounterBlock::Split(SplitCounters {
                major: words[0],
                minors,
            })
        } else {
            CounterBlock::General(GeneralCounters(*words))
        };
        SitNode { counters, hmac }
    }

    /// [`CounterBlock::enc_pair`] of the node whose counter words are
    /// `words`, read without unpacking the node.
    pub(crate) fn enc_pair_in_words(words: &[u64; 8], split: bool, slot: usize) -> (u64, u64) {
        if split {
            let minor = words[1 + slot / 10] >> (6 * (slot % 10)) & u64::from(MINOR_MAX);
            (words[0], minor)
        } else {
            (words[slot], 0)
        }
    }

    /// Deserializes a general node from a 64 B line.
    pub fn general_from_line(line: &Line) -> Self {
        let mut g = GeneralCounters::default();
        for i in 0..8 {
            let mut bytes = [0u8; 8];
            bytes[..7].copy_from_slice(&line[i * 7..i * 7 + 7]);
            g.0[i] = u64::from_le_bytes(bytes);
        }
        SitNode {
            counters: CounterBlock::General(g),
            hmac: u64::from_le_bytes(line[56..64].try_into().unwrap()),
        }
    }

    /// Deserializes a split node from a 64 B line.
    pub fn split_from_line(line: &Line) -> Self {
        let major = u64::from_le_bytes(line[..8].try_into().unwrap());
        let mut minors = [0u8; 64];
        for group in 0..16 {
            let mut b = [0u8; 4];
            b[..3].copy_from_slice(&line[8 + group * 3..8 + group * 3 + 3]);
            let packed = u32::from_le_bytes(b);
            for j in 0..4 {
                minors[group * 4 + j] = ((packed >> (6 * j)) as u8) & MINOR_MAX;
            }
        }
        SitNode {
            counters: CounterBlock::Split(SplitCounters { major, minors }),
            hmac: u64::from_le_bytes(line[56..64].try_into().unwrap()),
        }
    }

    /// The exact byte string the node HMAC covers:
    /// `counters (56 B) ‖ node address (8 B) ‖ parent counter (8 B)`.
    pub fn mac_message(&self, node_addr: u64, parent_counter: u64) -> [u8; 72] {
        let mut msg = [0u8; 72];
        msg[..56].copy_from_slice(&self.counter_bytes());
        msg[56..64].copy_from_slice(&node_addr.to_le_bytes());
        msg[64..72].copy_from_slice(&parent_counter.to_le_bytes());
        msg
    }
}

/// Eight six-bit fields, the low 48 bits of `w`, spread one to a byte:
/// halves to 32-bit lanes, quarters to 16-bit lanes, fields to bytes. A
/// cached split leaf's minors go through here and [`gather8`] each time
/// the leaf is read out or written back, so both are branch-free.
fn spread8(w: u64) -> u64 {
    let x = (w & 0xFF_FFFF) | (w >> 24 & 0xFF_FFFF) << 32;
    let x = (x & 0x0000_0FFF_0000_0FFF) | (x >> 12 & 0x0000_0FFF_0000_0FFF) << 16;
    (x & 0x003F_003F_003F_003F) | (x >> 6 & 0x003F_003F_003F_003F) << 8
}

/// Inverse of [`spread8`]: the low six bits of each of eight bytes,
/// packed into the low 48 bits.
fn gather8(x: u64) -> u64 {
    let x = (x & 0x003F_003F_003F_003F) | (x >> 8 & 0x003F_003F_003F_003F) << 6;
    let x = (x & 0x0000_0FFF_0000_0FFF) | (x >> 16 & 0x0000_0FFF_0000_0FFF) << 12;
    (x & 0xFF_FFFF) | (x >> 32 & 0xFF_FFFF) << 24
}

/// The on-chip root: up to 64 trusted counters in a non-volatile register
/// file. It needs no HMAC (it never leaves the trusted domain) and covers
/// the top NVM level directly — giving the paper's 9-level (GC) / 8-level
/// (SC) total heights over 16 GB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootNode {
    /// One counter per top-level node.
    pub counters: Vec<u64>,
}

impl RootNode {
    /// Root covering `children` top-level nodes (≤ 64).
    pub fn new(children: usize) -> Self {
        assert!(children <= 64, "root register covers at most 64 nodes");
        RootNode {
            counters: vec![0; children],
        }
    }

    /// Counter for top-level node `slot`.
    pub fn get(&self, slot: usize) -> u64 {
        self.counters[slot]
    }

    /// Sets the counter for top-level node `slot`.
    pub fn set(&mut self, slot: usize, value: u64) {
        self.counters[slot] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Tiny deterministic generator for the randomized tests below
    /// (replaces proptest; keeps the suite dependency-free).
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn general_roundtrip_exact() {
        let mut g = GeneralCounters::default();
        for i in 0..8 {
            g.set(i, (i as u64 + 1) * 0x0011_2233_4455 % CTR56_MAX);
        }
        let node = SitNode {
            counters: CounterBlock::General(g),
            hmac: 0xDEAD_BEEF_CAFE_F00D,
        };
        let line = node.to_line();
        assert_eq!(SitNode::general_from_line(&line), node);
    }

    #[test]
    fn split_roundtrip_exact() {
        let mut s = SplitCounters {
            major: u64::MAX - 7,
            ..Default::default()
        };
        for i in 0..64 {
            s.minors[i] = (i as u8).wrapping_mul(7) & MINOR_MAX;
        }
        let node = SitNode {
            counters: CounterBlock::Split(s),
            hmac: 42,
        };
        let line = node.to_line();
        assert_eq!(SitNode::split_from_line(&line), node);
    }

    #[test]
    fn zero_nodes_serialize_to_zero_lines() {
        assert_eq!(SitNode::zero_general().to_line(), [0u8; 64]);
        assert_eq!(SitNode::zero_split().to_line(), [0u8; 64]);
    }

    #[test]
    fn mac_message_binds_all_inputs() {
        let node = SitNode::zero_general();
        let m1 = node.mac_message(0x40, 1);
        assert_ne!(m1[..], node.mac_message(0x80, 1)[..]);
        assert_ne!(m1[..], node.mac_message(0x40, 2)[..]);
        let mut node2 = node;
        node2.counters.as_general_mut().set(0, 1);
        assert_ne!(m1[..], node2.mac_message(0x40, 1)[..]);
    }

    #[test]
    fn root_bounds() {
        let mut r = RootNode::new(16);
        r.set(15, 9);
        assert_eq!(r.get(15), 9);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn root_too_wide_rejected() {
        RootNode::new(65);
    }

    #[test]
    fn general_roundtrip_randomized() {
        let mut st = 0x1234_5678_9abc_def1u64;
        for _ in 0..256 {
            let mut g = GeneralCounters::default();
            for i in 0..8 {
                g.set(i, xorshift(&mut st) % (CTR56_MAX + 1));
            }
            let node = SitNode {
                counters: CounterBlock::General(g),
                hmac: xorshift(&mut st),
            };
            assert_eq!(SitNode::general_from_line(&node.to_line()), node);
        }
    }

    #[test]
    fn split_roundtrip_randomized() {
        let mut st = 0xfeed_face_dead_beefu64;
        for _ in 0..256 {
            let mut m = [0u8; 64];
            for b in m.iter_mut() {
                *b = (xorshift(&mut st) as u8) & MINOR_MAX;
            }
            let node = SitNode {
                counters: CounterBlock::Split(SplitCounters {
                    major: xorshift(&mut st),
                    minors: m,
                }),
                hmac: xorshift(&mut st),
            };
            assert_eq!(SitNode::split_from_line(&node.to_line()), node);
        }
    }

    /// Distinct counter blocks never serialize identically (the packing
    /// is injective).
    #[test]
    fn general_packing_injective_randomized() {
        let mut st = 0x0bad_cafe_0bad_cafeu64;
        for case in 0..256 {
            let a: Vec<u64> = (0..8)
                .map(|_| xorshift(&mut st) % (CTR56_MAX + 1))
                .collect();
            // Every third case checks the equal-inputs direction too.
            let b: Vec<u64> = if case % 3 == 0 {
                a.clone()
            } else {
                (0..8)
                    .map(|_| xorshift(&mut st) % (CTR56_MAX + 1))
                    .collect()
            };
            let mut ga = GeneralCounters::default();
            let mut gb = GeneralCounters::default();
            for i in 0..8 {
                ga.set(i, a[i]);
                gb.set(i, b[i]);
            }
            let na = SitNode {
                counters: CounterBlock::General(ga),
                hmac: 0,
            };
            let nb = SitNode {
                counters: CounterBlock::General(gb),
                hmac: 0,
            };
            assert_eq!(na.to_line() == nb.to_line(), a == b);
        }
    }
}
