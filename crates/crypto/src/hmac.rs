//! HMAC-SHA-256 (RFC 2104 / FIPS-198-1), built on [`crate::sha256::Sha256`].
//!
//! Secure-NVM metadata MACs are 64-bit; [`HmacSha256::mac64`] truncates the
//! full HMAC to its first 8 bytes, the standard truncation used by SGX-style
//! integrity-tree designs (VAULT, Anubis, STAR, SCUE).
//!
//! The implementation stores the two *midstates* — the SHA-256 chaining
//! values after absorbing the inner and outer pads — instead of cloneable
//! hasher objects. A MAC then runs the compression function directly over
//! the message from the inner midstate (padding built on the stack) and
//! finishes with exactly **one** outer compression: the 32-byte inner digest
//! plus its padding is a single block. No allocation, no buffer copies, no
//! intermediate `Sha256` clones. Every compression is
//! [`Sha256::compress`], SHA-NI where the CPU has it; the private
//! `new_with`/`mac_with` take the compression as a parameter, so the tests
//! can compare every entry point against the portable one.

use crate::sha256::{Sha256, H0};

/// Keyed HMAC-SHA-256 instance with precomputed inner/outer midstates.
#[derive(Clone)]
pub struct HmacSha256 {
    /// Chaining value after compressing `key ^ ipad`.
    istate: [u32; 8],
    /// Chaining value after compressing `key ^ opad`.
    ostate: [u32; 8],
}

impl HmacSha256 {
    /// Creates an HMAC instance for `key` (any length; hashed if > 64 bytes).
    pub fn new(key: &[u8]) -> Self {
        Self::new_with(key, Sha256::compress)
    }

    /// [`Self::new`] on the given compression.
    pub(crate) fn new_with(key: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64]) + Copy) -> Self {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            let mut h = Sha256::new();
            h.absorb(key, compress);
            k[..32].copy_from_slice(&h.finish(compress));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..64 {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut istate = H0;
        compress(&mut istate, &ipad);
        let mut ostate = H0;
        compress(&mut ostate, &opad);
        HmacSha256 { istate, ostate }
    }

    /// Inner hash: `SHA-256(ipad-midstate ‖ msg)` with stack-built padding.
    #[inline]
    fn inner_state(&self, msg: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> [u32; 8] {
        let mut st = self.istate;
        let mut chunks = msg.chunks_exact(64);
        for chunk in &mut chunks {
            compress(&mut st, chunk.try_into().unwrap());
        }
        let rest = chunks.remainder();
        // Total hashed length includes the 64-byte ipad block.
        let bit_len = ((64 + msg.len()) as u64) * 8;
        let mut block = [0u8; 64];
        block[..rest.len()].copy_from_slice(rest);
        block[rest.len()] = 0x80;
        if rest.len() >= 56 {
            compress(&mut st, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut st, &block);
        st
    }

    /// Outer hash: one compression — 32 digest bytes, padding, and the
    /// length (64 + 32 bytes = 768 bits) all fit in a single block.
    #[inline]
    fn outer_state(
        &self,
        inner: [u32; 8],
        compress: impl Fn(&mut [u32; 8], &[u8; 64]),
    ) -> [u32; 8] {
        let mut block = [0u8; 64];
        for (i, word) in inner.iter().enumerate() {
            block[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        block[32] = 0x80;
        block[56..].copy_from_slice(&(96u64 * 8).to_be_bytes());
        let mut st = self.ostate;
        compress(&mut st, &block);
        st
    }

    /// Full 32-byte HMAC of `msg`.
    pub fn mac(&self, msg: &[u8]) -> [u8; 32] {
        self.mac_with(msg, Sha256::compress)
    }

    /// [`Self::mac`] on the given compression.
    pub(crate) fn mac_with(
        &self,
        msg: &[u8],
        compress: impl Fn(&mut [u32; 8], &[u8; 64]) + Copy,
    ) -> [u8; 32] {
        let st = self.outer_state(self.inner_state(msg, compress), compress);
        let mut out = [0u8; 32];
        for (i, word) in st.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// 64-bit truncated HMAC, the wire format of secure-NVM metadata MACs.
    /// One-shot: only the first two state words are ever serialized.
    #[inline]
    pub fn mac64(&self, msg: &[u8]) -> u64 {
        let inner = self.inner_state(msg, Sha256::compress);
        Self::truncate64(&self.outer_state(inner, Sha256::compress))
    }

    /// Message lengths with a dedicated monomorphized fast path wired into
    /// the [`crate::engine::RealCrypto`] hot paths: 72 B (node-MAC / ASIT
    /// slot strings) and 88 B (data-MAC strings). The microbench asserts the
    /// hot message sizes stay on this list, so a routing regression (like
    /// the one that sent 88 B messages down the generic slice path) fails
    /// the bench run instead of only showing up as a slow number.
    pub const FIXED_FAST_LENS: [usize; 2] = [72, 88];

    /// Monomorphized [`Self::mac64`] for fixed-size messages. Unlike the
    /// generic slice path, `N` is a compile-time constant here, so the block
    /// count, tail split, and padding layout all resolve at monomorphization
    /// time and the copies/loops fully unroll. Output is bit-identical to
    /// `mac64(msg)`.
    #[inline]
    pub fn mac64_fixed<const N: usize>(&self, msg: &[u8; N]) -> u64 {
        let mut st = self.istate;
        let full = N / 64;
        for b in 0..full {
            let block: &[u8; 64] = msg[b * 64..b * 64 + 64].try_into().unwrap();
            Sha256::compress(&mut st, block);
        }
        let rem = N % 64;
        // Total hashed length includes the 64-byte ipad block.
        let bit_len = ((64 + N) as u64) * 8;
        let mut block = [0u8; 64];
        block[..rem].copy_from_slice(&msg[full * 64..]);
        block[rem] = 0x80;
        if rem >= 56 {
            Sha256::compress(&mut st, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        Sha256::compress(&mut st, &block);
        Self::truncate64(&self.outer_state(st, Sha256::compress))
    }

    /// Fixed-length fast path for the 72-byte node-MAC string.
    #[inline]
    pub fn mac64_72(&self, msg: &[u8; 72]) -> u64 {
        self.mac64_fixed(msg)
    }

    /// Fixed-length fast path for the 88-byte data-MAC string.
    #[inline]
    pub fn mac64_88(&self, msg: &[u8; 88]) -> u64 {
        self.mac64_fixed(msg)
    }

    /// First 8 MAC bytes of an outer state, in the `mac64` wire format.
    #[inline(always)]
    fn truncate64(st: &[u32; 8]) -> u64 {
        let mut first8 = [0u8; 8];
        first8[..4].copy_from_slice(&st[0].to_be_bytes());
        first8[4..].copy_from_slice(&st[1].to_be_bytes());
        u64::from_le_bytes(first8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The pre-midstate implementation: cloned hashers and intermediate
    /// digests. Kept as the differential reference for the fast path.
    fn mac_ref(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            let d = Sha256::digest(key);
            k[..32].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..64 {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        inner.update(msg);
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// An RFC 4231 case on the public (dispatched) path and on the
    /// portable compression.
    fn check_rfc4231(key: &[u8], msg: &[u8], expect: &str) {
        assert_eq!(hex(&HmacSha256::new(key).mac(msg)), expect, "dispatched");
        let p = Sha256::compress_portable;
        assert_eq!(
            hex(&HmacSha256::new_with(key, p).mac_with(msg, p)),
            expect,
            "portable"
        );
    }

    #[test]
    fn rfc4231_case1() {
        check_rfc4231(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case2() {
        check_rfc4231(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case3() {
        check_rfc4231(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        check_rfc4231(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    /// The midstate fast path must agree with the two-hasher reference on
    /// every message length around the block/padding boundaries.
    #[test]
    fn midstate_matches_reference_all_boundary_lengths() {
        let key = b"steins-mac-key";
        let h = HmacSha256::new(key);
        let data: Vec<u8> = (0..300).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(h.mac(&data[..len]), mac_ref(key, &data[..len]), "len={len}");
        }
    }

    #[test]
    fn mac64_is_prefix_of_mac() {
        let h = HmacSha256::new(b"key");
        let full = h.mac(b"message");
        assert_eq!(
            h.mac64(b"message"),
            u64::from_le_bytes(full[..8].try_into().unwrap())
        );
    }

    #[test]
    fn mac64_fixed_matches_slice_path() {
        let h = HmacSha256::new(b"key");
        let msg72 = [0x5a; 72];
        assert_eq!(h.mac64_fixed(&msg72), h.mac64(&msg72));
        let msg88 = [0xc3; 88];
        assert_eq!(h.mac64_fixed(&msg88), h.mac64(&msg88));
    }

    #[test]
    fn different_keys_give_different_macs() {
        let a = HmacSha256::new(b"k1").mac64(b"m");
        let b = HmacSha256::new(b"k2").mac64(b"m");
        assert_ne!(a, b);
    }

    #[test]
    fn fixed_paths_match_generic_and_are_registered() {
        let h = HmacSha256::new(b"fixed-key");
        let mut msg72 = [0u8; 72];
        let mut msg88 = [0u8; 88];
        for (i, b) in msg72.iter_mut().enumerate() {
            *b = (i * 13 + 1) as u8;
        }
        for (i, b) in msg88.iter_mut().enumerate() {
            *b = (i * 29 + 3) as u8;
        }
        assert_eq!(h.mac64_72(&msg72), h.mac64(&msg72));
        assert_eq!(h.mac64_88(&msg88), h.mac64(&msg88));
        // Both hot message sizes must stay routed off the generic path.
        assert!(HmacSha256::FIXED_FAST_LENS.contains(&72));
        assert!(HmacSha256::FIXED_FAST_LENS.contains(&88));
    }

    /// `mac64_fixed` must agree with the slice path on every tail layout:
    /// short tail, the 56-byte padding split, and exact block multiples.
    #[test]
    fn mac64_fixed_matches_generic_on_boundary_lengths() {
        let h = HmacSha256::new(b"key");
        fn check<const N: usize>(h: &HmacSha256) {
            let msg: [u8; N] = core::array::from_fn(|i| (i * 7 + N) as u8);
            assert_eq!(h.mac64_fixed(&msg), h.mac64(&msg), "N={N}");
        }
        check::<0>(&h);
        check::<1>(&h);
        check::<55>(&h);
        check::<56>(&h);
        check::<63>(&h);
        check::<64>(&h);
        check::<65>(&h);
        check::<72>(&h);
        check::<88>(&h);
        check::<119>(&h);
        check::<120>(&h);
        check::<128>(&h);
        check::<200>(&h);
    }

    fn prefix64(mac: [u8; 32]) -> u64 {
        u64::from_le_bytes(mac[..8].try_into().unwrap())
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x
    }

    /// Dispatched vs portable on the variable-length entry points: 10 000
    /// random messages of 0–300 B through `mac` and `mac64`, and random
    /// lines through `RealCrypto::data_mac`, each against the full HMAC on
    /// the portable compression (whose first 8 bytes are the 64-bit MAC).
    /// The data-MAC key is derived on the portable compression too.
    #[test]
    fn dispatched_matches_portable_on_10k_random_messages() {
        use crate::engine::{data_mac_message, CryptoEngine, RealCrypto};
        use crate::SecretKey;
        eprintln!("comparing {} against portable", Sha256::compression());
        let p = Sha256::compress_portable;
        let mut seed = 0x5eed_1234_u64;
        let mut key = vec![0u8; 1 + (lcg(&mut seed) % 100) as usize];
        key.iter_mut().for_each(|b| *b = lcg(&mut seed) as u8);
        let dispatched = HmacSha256::new(&key);
        let portable = HmacSha256::new_with(&key, p);
        let secret = SecretKey([0x42; 16]);
        let real = RealCrypto::new(secret);
        let mut derive = Sha256::new();
        derive.absorb(&secret.0, p);
        derive.absorb(b"mac", p);
        let data_key = HmacSha256::new_with(&derive.finish(p)[..16], p);
        for i in 0..10_000 {
            let len = (lcg(&mut seed) % 301) as usize;
            let msg: Vec<u8> = (0..len).map(|_| lcg(&mut seed) as u8).collect();
            let want = portable.mac_with(&msg, p);
            assert_eq!(dispatched.mac(&msg), want, "mac #{i} len={len}");
            assert_eq!(dispatched.mac64(&msg), prefix64(want), "mac64 #{i}");
            let line: [u8; 64] = core::array::from_fn(|_| lcg(&mut seed) as u8);
            let (addr, major, minor) = (lcg(&mut seed), lcg(&mut seed), lcg(&mut seed) % 128);
            let want = data_key.mac_with(&data_mac_message(addr, &line, major, minor), p);
            assert_eq!(
                real.data_mac(addr, &line, major, minor),
                prefix64(want),
                "data_mac #{i}"
            );
        }
    }

    /// Dispatched vs portable on the fixed-length entry points (the hot
    /// shapes): 5 000 random 72 B and 5 000 random 88 B messages through
    /// `mac64_fixed`, `mac64_72` and `mac64_88`.
    #[test]
    fn fixed_dispatched_matches_portable_on_10k_random_messages() {
        eprintln!("comparing {} against portable", Sha256::compression());
        let dispatched = HmacSha256::new(b"fixed-key");
        let portable = HmacSha256::new_with(b"fixed-key", Sha256::compress_portable);
        let mut seed = 0xfeed_5678_u64;
        for i in 0..5_000 {
            let m72: [u8; 72] = core::array::from_fn(|_| lcg(&mut seed) as u8);
            let want = prefix64(portable.mac_with(&m72, Sha256::compress_portable));
            assert_eq!(dispatched.mac64_fixed(&m72), want, "72 B #{i}");
            assert_eq!(dispatched.mac64_72(&m72), want, "mac64_72 #{i}");
        }
        for i in 0..5_000 {
            let m88: [u8; 88] = core::array::from_fn(|_| lcg(&mut seed) as u8);
            let want = prefix64(portable.mac_with(&m88, Sha256::compress_portable));
            assert_eq!(dispatched.mac64_fixed(&m88), want, "88 B #{i}");
            assert_eq!(dispatched.mac64_88(&m88), want, "mac64_88 #{i}");
        }
    }
}
