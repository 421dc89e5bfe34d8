//! AES-128 encryption, implemented from scratch per FIPS-197.
//!
//! Counter-mode encryption in secure NVM generates a 64-byte one-time pad by
//! encrypting four 16-byte counter/address seeds, and XORs the same pad to
//! encrypt and to decrypt, so only the forward cipher ever runs; there is no
//! inverse cipher here.
//!
//! [`Aes128::otp64`] is the one entry point. It runs the AES-NI body where
//! `is_x86_feature_detected!("aes")` finds it and [`Aes128::otp64_portable`]
//! everywhere else, the way [`crate::Sha256::compress`] picks SHA-NI. The
//! portable body is the byte-oriented FIPS-197 rounds, one lane-tweaked
//! block at a time, and it is also the reference the tests compare the
//! AES-NI body against. It is not constant-time — it models a *hardware* AES
//! unit inside a simulator, it is not a production cipher for secrets on
//! shared hosts.

/// The AES S-box (SubBytes lookup), generated from the multiplicative inverse
/// in GF(2^8) followed by the FIPS-197 affine transformation.
const fn build_sbox() -> [u8; 256] {
    // GF(2^8) multiplication with the AES polynomial x^8+x^4+x^3+x+1 (0x11b).
    const fn gmul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        let mut i = 0;
        while i < 8 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1b;
            }
            b >>= 1;
            i += 1;
        }
        p
    }
    // a^254 = a^{-1} in GF(2^8), via square-and-multiply.
    const fn ginv(a: u8) -> u8 {
        if a == 0 {
            return 0;
        }
        let mut result = 1u8;
        let mut base = a;
        let mut exp = 254u32;
        while exp > 0 {
            if exp & 1 != 0 {
                result = gmul(result, base);
            }
            base = gmul(base, base);
            exp >>= 1;
        }
        result
    }
    let mut sbox = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let inv = ginv(i as u8);
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let mut x = inv;
        let mut y = inv;
        let mut r = 0;
        while r < 4 {
            y = y.rotate_left(1);
            x ^= y;
            r += 1;
        }
        sbox[i] = x ^ 0x63;
        i += 1;
    }
    sbox
}

const SBOX: [u8; 256] = build_sbox();

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// xtime (multiplication by `x` in GF(2^8)).
#[inline]
fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// SubBytes applied to each byte of a big-endian word (key schedule).
#[inline]
fn sub_word(w: u32) -> u32 {
    (u32::from(SBOX[(w >> 24) as usize]) << 24)
        | (u32::from(SBOX[(w >> 16 & 0xff) as usize]) << 16)
        | (u32::from(SBOX[(w >> 8 & 0xff) as usize]) << 8)
        | u32::from(SBOX[(w & 0xff) as usize])
}

/// Hardware AES (AES-NI), used when the running CPU supports it.
///
/// The round keys are the standard byte-order schedule, which is exactly
/// what `AESENC` consumes, so no reformatting is needed. [`Aes128::new`]
/// probes for the `aes` feature once and [`Aes128::otp64`] runs the portable
/// body everywhere else.
#[cfg(target_arch = "x86_64")]
mod hw {
    use core::arch::x86_64::*;

    /// Encrypts the four OTP lanes (`seed` with byte 15 XOR-tweaked per
    /// lane) through the pipelined AES-NI rounds.
    ///
    /// # Safety
    /// The `aes` target feature must be available (runtime-detected).
    #[target_feature(enable = "aes")]
    pub unsafe fn otp64(round_keys: &[[u8; 16]; 11], seed: &[u8; 16]) -> [u8; 64] {
        // SAFETY: each load reads 16 bytes from a [u8; 16].
        let rk: [__m128i; 11] =
            core::array::from_fn(|i| unsafe { _mm_loadu_si128(round_keys[i].as_ptr().cast()) });
        let mut lanes = [[0u8; 16]; 4];
        for (lane, block) in lanes.iter_mut().enumerate() {
            *block = *seed;
            block[15] ^= lane as u8;
        }
        // SAFETY: each load reads 16 bytes from a [u8; 16].
        let mut s: [__m128i; 4] =
            core::array::from_fn(|l| unsafe { _mm_loadu_si128(lanes[l].as_ptr().cast()) });
        for v in s.iter_mut() {
            *v = _mm_xor_si128(*v, rk[0]);
        }
        for key in &rk[1..10] {
            for v in s.iter_mut() {
                *v = _mm_aesenc_si128(*v, *key);
            }
        }
        let mut out = [0u8; 64];
        for (l, v) in s.iter_mut().enumerate() {
            *v = _mm_aesenclast_si128(*v, rk[10]);
            // SAFETY: writes 16 bytes at out[l*16..l*16+16], in bounds.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().add(l * 16).cast(), *v) };
        }
        out
    }
}

/// AES-128 with a precomputed key schedule.
///
/// [`Aes128::otp64`] runs AES-NI when the CPU has it, otherwise
/// [`Aes128::otp64_portable`]; both read the same 11 round keys and agree
/// bit-for-bit (see the differential test).
#[derive(Clone)]
pub struct Aes128 {
    /// The 11 round keys, byte-wise (FIPS-197 column-major order).
    round_keys: [[u8; 16]; 11],
    /// Whether the running CPU's AES instructions are usable.
    use_hw: bool,
}

impl Aes128 {
    /// Expands `key` into the AES-128 key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut ek = [0u32; 44];
        for i in 0..4 {
            ek[i] = u32::from_be_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 4..44 {
            let mut t = ek[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            ek[i] = ek[i - 4] ^ t;
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&ek[r * 4 + c].to_be_bytes());
            }
        }
        #[cfg(target_arch = "x86_64")]
        let use_hw = std::arch::is_x86_feature_detected!("aes");
        #[cfg(not(target_arch = "x86_64"))]
        let use_hw = false;
        Aes128 { round_keys, use_hw }
    }

    /// Which body [`Aes128::otp64`] runs on this CPU: `"aes-ni"` or
    /// `"portable"`.
    pub fn body(&self) -> &'static str {
        if self.use_hw {
            "aes-ni"
        } else {
            "portable"
        }
    }

    /// Generates a 64-byte one-time pad from a 16-byte seed by encrypting
    /// `seed || ctr_i` for four consecutive block counters, exactly like the
    /// hardware CME pipelines in Supermem/Anubis which fan a (line address,
    /// counter) seed across four AES lanes. The per-lane tweak lands in byte
    /// 15, so lane 0 is E_k(seed).
    pub fn otp64(&self, seed: &[u8; 16]) -> [u8; 64] {
        #[cfg(target_arch = "x86_64")]
        if self.use_hw {
            // SAFETY: `use_hw` is set only when `is_x86_feature_detected!`
            // confirmed the `aes` feature on this CPU.
            return unsafe { hw::otp64(&self.round_keys, seed) };
        }
        self.otp64_portable(seed)
    }

    /// The portable OTP, one lane-tweaked block at a time: the fallback of
    /// [`Aes128::otp64`] and the reference its AES-NI body is tested
    /// against.
    pub fn otp64_portable(&self, seed: &[u8; 16]) -> [u8; 64] {
        let mut out = [0u8; 64];
        for i in 0..4u8 {
            let mut block = *seed;
            block[15] ^= i; // per-lane tweak keeps the four pads distinct
            self.encrypt_block(&mut block);
            out[i as usize * 16..i as usize * 16 + 16].copy_from_slice(&block);
        }
        out
    }

    /// Encrypts one 16-byte block in place (byte-oriented rounds).
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::mix_columns(block);
            Self::add_round_key(block, &self.round_keys[round]);
        }
        Self::sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[10]);
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    // State layout: state[c*4 + r] = row r, column c (column-major).
    #[inline]
    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
            for c in 0..4 {
                state[c * 4 + r] = row[(c + r) % 4];
            }
        }
    }

    #[inline]
    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[c * 4..c * 4 + 4];
            let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
            col[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
            col[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
            col[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
            col[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn rand_bytes<const N: usize>(st: &mut u64) -> [u8; N] {
        let mut out = [0u8; N];
        for chunk in out.chunks_mut(8) {
            let w = xorshift(st).to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        out
    }

    /// Lane 0 of the pad is E_k(seed), so a FIPS-197 vector checks both
    /// bodies through their first 16 bytes. Where the CPU has no AES-NI,
    /// the dispatched body is the portable one.
    fn check_vector(key: &[u8; 16], plaintext: &[u8; 16], expected: &[u8; 16]) {
        let aes = Aes128::new(key);
        assert_eq!(aes.otp64(plaintext)[..16], expected[..], "{}", aes.body());
        assert_eq!(
            aes.otp64_portable(plaintext)[..16],
            expected[..],
            "portable"
        );
    }

    #[test]
    fn sbox_matches_fips197_samples() {
        // Spot values from the FIPS-197 S-box table.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 2b7e1516..., plaintext 3243f6a8...
        check_vector(
            &[
                0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                0x4f, 0x3c,
            ],
            &[
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34,
            ],
            &[
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32,
            ],
        );
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff.
        check_vector(
            &core::array::from_fn(|i| i as u8),
            &core::array::from_fn(|i| (i * 0x11) as u8),
            &[
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a,
            ],
        );
    }

    /// 10,000 random (key, seed) pairs through both bodies, all four lanes.
    #[test]
    fn otp64_matches_reference_differential() {
        eprintln!(
            "comparing {} against portable",
            Aes128::new(&[0; 16]).body()
        );
        let mut st = 0xdead_beef_1234_5678u64;
        for i in 0..10_000 {
            let key: [u8; 16] = rand_bytes(&mut st);
            let seed: [u8; 16] = rand_bytes(&mut st);
            let aes = Aes128::new(&key);
            assert_eq!(
                aes.otp64(&seed)[..],
                aes.otp64_portable(&seed)[..],
                "pair {i}"
            );
        }
    }

    #[test]
    fn otp64_lanes_are_distinct() {
        let aes = Aes128::new(&[3; 16]);
        let otp = aes.otp64(&[9; 16]);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(otp[i * 16..i * 16 + 16], otp[j * 16..j * 16 + 16]);
            }
        }
    }

    #[test]
    fn otp64_differs_per_seed() {
        let aes = Aes128::new(&[3; 16]);
        let a = aes.otp64(&[1; 16]);
        let b = aes.otp64(&[2; 16]);
        assert_ne!(a[..], b[..]);
    }
}
