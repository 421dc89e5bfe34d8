//! SHA-256, implemented from scratch per FIPS-180-4.
//!
//! Used by [`crate::hmac::HmacSha256`] for the MAC engine and by
//! [`crate::SecretKey::derive`] for key derivation. Every digest and MAC
//! runs through one compression entry point, [`Sha256::compress`]: the
//! SHA-NI instructions where the running CPU has them, the portable rounds
//! everywhere else. It picks with `is_x86_feature_detected!("sha")`, the way
//! [`crate::Aes128`] picks AES-NI. The portable body is also the reference
//! the tests compare the SHA-NI body against.
//!
//! The portable compression keeps only a rolling 16-word message schedule
//! (instead of materializing all 64 `W[t]` up front) and unrolls the round
//! loop so the eight working variables never shuffle through a register
//! rotation — the standard software-SHA-256 shape, ~2× the naive loop.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// σ0: the small sigma of the message schedule.
#[inline(always)]
fn ssig0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

/// σ1: the small sigma of the message schedule.
#[inline(always)]
fn ssig1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// Whether the running CPU has every feature [`shani::compress`] enables.
#[cfg(target_arch = "x86_64")]
#[inline]
fn sha_ni() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
}

/// The SHA-NI compression.
///
/// `SHA256RNDS2` keeps the eight working variables as two vectors, ABEF and
/// CDGH (A in the highest lane), and runs two rounds per instruction on the
/// low two lanes of a `W + K` quad; `SHA256MSG1`/`SHA256MSG2` advance the
/// message schedule a quad at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// One compression over `block`.
    ///
    /// # Safety
    /// The `sha`, `ssse3` and `sse4.1` target features must be available
    /// (runtime-detected by [`super::sha_ni`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte order within each 32-bit word: the message is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let p = state.as_ptr().cast::<__m128i>();
        // SAFETY: two 16-byte loads inside the 32-byte `state`.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        let (abef0, cdgh0) = (abef, cdgh);

        let m = block.as_ptr().cast::<__m128i>();
        // SAFETY: four 16-byte loads inside the 64-byte `block`.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            [
                _mm_loadu_si128(m),
                _mm_loadu_si128(m.add(1)),
                _mm_loadu_si128(m.add(2)),
                _mm_loadu_si128(m.add(3)),
            ]
        };
        w0 = _mm_shuffle_epi8(w0, bswap);
        w1 = _mm_shuffle_epi8(w1, bswap);
        w2 = _mm_shuffle_epi8(w2, bswap);
        w3 = _mm_shuffle_epi8(w3, bswap);

        // Four rounds on message quad `$w` = W[4i..4i+4].
        macro_rules! quad {
            ($w:expr, $i:expr) => {{
                // SAFETY: `$i < 16`, so the load stays inside `K`.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()) };
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }
        // The next quad, W[t..t+4] = W[t−16] + σ0(W[t−15]) + W[t−7] +
        // σ1(W[t−2]), overwrites the oldest one (`$a`); `$b`, `$c`, `$d` hold
        // the three after it. Then its four rounds.
        macro_rules! next_quad {
            ($a:ident, $b:ident, $c:ident, $d:ident, $i:expr) => {{
                let t = _mm_add_epi32(_mm_sha256msg1_epu32($a, $b), _mm_alignr_epi8($d, $c, 4));
                $a = _mm_sha256msg2_epu32(t, $d);
                quad!($a, $i);
            }};
        }
        quad!(w0, 0);
        quad!(w1, 1);
        quad!(w2, 2);
        quad!(w3, 3);
        for i in [4, 8, 12] {
            next_quad!(w0, w1, w2, w3, i);
            next_quad!(w1, w2, w3, w0, i + 1);
            next_quad!(w2, w3, w0, w1, i + 2);
            next_quad!(w3, w0, w1, w2, i + 3);
        }

        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        let p = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: two 16-byte stores inside the 32-byte `state`.
        unsafe {
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One compression over a 64-byte block (FIPS-180-4 §6.2.2): SHA-NI
    /// where the running CPU has it, else [`Sha256::compress_portable`].
    /// Every digest and MAC in the crate runs through here.
    #[inline]
    pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if sha_ni() {
            // SAFETY: `sha_ni` confirmed every feature `shani::compress`
            // enables.
            return unsafe { shani::compress(state, block) };
        }
        Self::compress_portable(state, block)
    }

    /// Which body [`Sha256::compress`] runs on this CPU: `"sha-ni"` or
    /// `"portable"`.
    pub fn compression() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if sha_ni() {
            return "sha-ni";
        }
        "portable"
    }

    /// The portable compression: the fallback of [`Sha256::compress`] and
    /// the reference its SHA-NI body is tested against.
    #[inline]
    pub fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        // One round, expressed so the working variables stay in fixed
        // registers: the caller rotates the *argument order* instead of the
        // values (the new `e` lands in the old `d`, the new `a` in the old
        // `h`).
        macro_rules! rnd {
            ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident,$t:expr,$i:expr) => {{
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add(K[$t])
                    .wrapping_add(w[$i]);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            }};
        }
        macro_rules! rnd16 {
            ($t:expr) => {{
                rnd!(a, b, c, d, e, f, g, h, $t, 0);
                rnd!(h, a, b, c, d, e, f, g, $t + 1, 1);
                rnd!(g, h, a, b, c, d, e, f, $t + 2, 2);
                rnd!(f, g, h, a, b, c, d, e, $t + 3, 3);
                rnd!(e, f, g, h, a, b, c, d, $t + 4, 4);
                rnd!(d, e, f, g, h, a, b, c, $t + 5, 5);
                rnd!(c, d, e, f, g, h, a, b, $t + 6, 6);
                rnd!(b, c, d, e, f, g, h, a, $t + 7, 7);
                rnd!(a, b, c, d, e, f, g, h, $t + 8, 8);
                rnd!(h, a, b, c, d, e, f, g, $t + 9, 9);
                rnd!(g, h, a, b, c, d, e, f, $t + 10, 10);
                rnd!(f, g, h, a, b, c, d, e, $t + 11, 11);
                rnd!(e, f, g, h, a, b, c, d, $t + 12, 12);
                rnd!(d, e, f, g, h, a, b, c, $t + 13, 13);
                rnd!(c, d, e, f, g, h, a, b, $t + 14, 14);
                rnd!(b, c, d, e, f, g, h, a, $t + 15, 15);
            }};
        }
        // Advance the rolling schedule by 16: slot `i` becomes `W[t+16]`
        // (`W[t] + σ0(W[t+1]) + W[t+9] + σ1(W[t+14])`, indices mod 16 — the
        // slots left of `i` were already advanced this pass, which is
        // exactly the generation the recurrence needs).
        macro_rules! sched16 {
            () => {{
                for i in 0..16 {
                    w[i] = w[i]
                        .wrapping_add(ssig0(w[(i + 1) & 15]))
                        .wrapping_add(w[(i + 9) & 15])
                        .wrapping_add(ssig1(w[(i + 14) & 15]));
                }
            }};
        }
        rnd16!(0);
        sched16!();
        rnd16!(16);
        sched16!();
        rnd16!(32);
        sched16!();
        rnd16!(48);
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, Self::compress);
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(Self::compress)
    }

    /// [`Sha256::update`] on the given compression (tests pass
    /// [`Sha256::compress_portable`]).
    pub(crate) fn absorb(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything landed in the partial buffer; do not let the
                // remainder path below clobber it.
                return;
            }
            debug_assert_eq!(self.buf_len, 0, "buffer must be drained here");
        }
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            compress(&mut self.state, chunk.try_into().unwrap());
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// [`Sha256::finalize`] on the given compression.
    pub(crate) fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length, written into one
        // block after the buffered tail. A tail of 56 bytes or more leaves
        // no room for the length, so a second block carries it.
        let n = self.buf_len;
        let mut block = [0u8; 64];
        block[..n].copy_from_slice(&self.buf[..n]);
        block[n] = 0x80;
        if n >= 56 {
            compress(&mut self.state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Compress = fn(&mut [u32; 8], &[u8; 64]);

    /// Both compressions: every vector below runs on each. Where the CPU
    /// has no SHA-NI, the dispatched one is the portable one and the
    /// comparison says so.
    fn compressions() -> [(&'static str, Compress); 2] {
        [
            (Sha256::compression(), Sha256::compress),
            ("portable", Sha256::compress_portable),
        ]
    }

    fn digest_with(data: &[u8], compress: Compress) -> [u8; 32] {
        let mut h = Sha256::new();
        h.absorb(data, compress);
        h.finish(compress)
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn check_vector(data: &[u8], expect: &str) {
        assert_eq!(hex(&Sha256::digest(data)), expect, "Sha256::digest");
        for (name, c) in compressions() {
            assert_eq!(hex(&digest_with(data, c)), expect, "{name}");
        }
    }

    #[test]
    fn empty_vector() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    /// FIPS-180-4 long-message vector: one million 'a's — 15,625 straight
    /// compression rounds, the regression guard for the unrolled rewrite.
    #[test]
    fn million_a_vector() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for (name, c) in compressions() {
            for split in [0usize, 1, 17, 63, 64, 65, 500, 999, 1000] {
                let mut h = Sha256::new();
                h.absorb(&data[..split], c);
                h.absorb(&data[split..], c);
                assert_eq!(h.finish(c), digest_with(&data, c), "{name} split={split}");
            }
        }
    }

    /// Byte-at-a-time padding, one `absorb` per pad byte: the reference
    /// `finish`'s in-place padding is compared with.
    fn finish_bytewise(mut h: Sha256, compress: Compress) -> [u8; 32] {
        let bit_len = h.total_len.wrapping_mul(8);
        h.absorb(&[0x80], compress);
        while h.buf_len != 56 {
            h.absorb(&[0], compress);
        }
        h.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = h.buf;
        compress(&mut h.state, &block);
        let mut out = [0u8; 32];
        for (i, word) in h.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Every tail length, across one and two padding blocks and after
    /// whole blocks, pads exactly as the byte-at-a-time padding did.
    #[test]
    fn in_place_padding_matches_bytewise_padding() {
        for (name, c) in compressions() {
            for len in 0..=256usize {
                let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
                let mut h = Sha256::new();
                h.absorb(&data, c);
                assert_eq!(
                    h.clone().finish(c),
                    finish_bytewise(h, c),
                    "{name} len={len}"
                );
            }
        }
    }

    /// Known answers (Python's `hashlib`) at the padding edges: the last
    /// one-block tail (55), the two-block tails (63, 119) and a whole
    /// block (64).
    #[test]
    fn padding_edge_vectors() {
        for (len, expect) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
        ] {
            check_vector(&vec![b'a'; len], expect);
        }
    }

    /// Feeding a message one byte at a time must match the one-shot digest
    /// across every buffer-boundary alignment the streaming path has.
    #[test]
    fn one_byte_at_a_time_matches_oneshot() {
        for (name, c) in compressions() {
            for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 129, 300] {
                let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
                let mut h = Sha256::new();
                for b in &data {
                    h.absorb(std::slice::from_ref(b), c);
                }
                assert_eq!(h.finish(c), digest_with(&data, c), "{name} len={len}");
            }
        }
    }

    /// Irregular chunk sizes (prime-ish strides crossing the 64 B block
    /// boundary in every phase) must match the one-shot digest.
    #[test]
    fn chunked_updates_match_oneshot() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        for (name, c) in compressions() {
            for stride in [1usize, 3, 7, 31, 61, 64, 67, 256, 1000] {
                let mut h = Sha256::new();
                for chunk in data.chunks(stride) {
                    h.absorb(chunk, c);
                }
                assert_eq!(h.finish(c), digest_with(&data, c), "{name} stride={stride}");
            }
        }
    }

    /// 100,000 random (state, block) pairs through both compressions.
    #[test]
    fn dispatched_compression_matches_portable_on_100k_random_blocks() {
        eprintln!("comparing {} against portable", Sha256::compression());
        let mut x = 0x5eed_c0de_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..100_000 {
            let state: [u32; 8] = core::array::from_fn(|_| next() as u32);
            let mut block = [0u8; 64];
            for word in block.chunks_exact_mut(8) {
                word.copy_from_slice(&next().to_le_bytes());
            }
            let (mut got, mut want) = (state, state);
            Sha256::compress(&mut got, &block);
            Sha256::compress_portable(&mut want, &block);
            assert_eq!(got, want, "pair {i}");
        }
    }
}
