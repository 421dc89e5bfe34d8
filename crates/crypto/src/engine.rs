//! The [`CryptoEngine`] abstraction: one interface over the two fidelity
//! levels of the simulator's crypto units.
//!
//! * [`RealCrypto`]: AES-128 OTPs + HMAC-SHA-256/64 MACs — bit-faithful to
//!   the hardware design the papers assume, on AES-NI and SHA-NI where the
//!   host has them and on the portable bodies elsewhere, with the same
//!   bytes either way. Used by functional tests.
//! * [`FastCrypto`]: SipHash-2-4 for both the OTP and MAC roles — keyed and
//!   collision-resistant enough for simulation, ~40× faster. Used by the
//!   long figure sweeps.
//!
//! Both variants perform *keyed* operations, so security checks (MAC
//! comparisons, replay detection) behave identically; only byte values
//! differ. The simulator charges the paper's fixed hash/AES latencies
//! regardless of which engine computes the bytes.

use crate::aes::Aes128;
use crate::fasthash::SipHash24;
use crate::hmac::HmacSha256;
use crate::SecretKey;

/// Which crypto fidelity to instantiate.

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CryptoKind {
    /// AES-128 + HMAC-SHA-256 (slow, faithful).
    Real,
    /// SipHash-2-4 everywhere (fast, still keyed).
    #[default]
    Fast,
}

/// Builds the 88-byte data-MAC message of §II-C: `data ‖ addr ‖ major ‖
/// minor`, all little-endian. [`CryptoEngine::data_mac`] MACs exactly these
/// bytes.
pub fn data_mac_message(addr: u64, data: &[u8; 64], major: u64, minor: u64) -> [u8; 88] {
    let mut msg = [0u8; 64 + 8 + 8 + 8];
    msg[..64].copy_from_slice(data);
    msg[64..72].copy_from_slice(&addr.to_le_bytes());
    msg[72..80].copy_from_slice(&major.to_le_bytes());
    msg[80..88].copy_from_slice(&minor.to_le_bytes());
    msg
}

/// A memory-controller crypto unit: OTP generation and 64-bit MACs.
pub trait CryptoEngine: Send + Sync {
    /// 64-byte one-time pad for counter-mode encryption of one cache line,
    /// parameterized by the line address and its (major, minor) counter pair.
    /// General counter blocks pass the counter as `major` with `minor = 0`.
    fn otp(&self, addr: u64, major: u64, minor: u64) -> [u8; 64];

    /// 64-bit MAC over arbitrary message bytes.
    fn mac64(&self, msg: &[u8]) -> u64;

    /// 64-bit MAC over a fixed 72-byte message — the SIT node-MAC string
    /// (`counters ‖ addr ‖ parent`) and the ASIT slot-update string are both
    /// exactly this size. A separate trait method (the trait is used as
    /// `dyn`, so a generic won't do) lets engines route it to a fully
    /// unrolled fixed-size path.
    fn mac64_72(&self, msg: &[u8; 72]) -> u64 {
        self.mac64(msg)
    }

    /// 64-bit MAC over a fixed 88-byte message — the data-MAC string built
    /// by [`data_mac_message`].
    fn mac64_88(&self, msg: &[u8; 88]) -> u64 {
        self.mac64(msg)
    }

    /// Convenience: MAC over a 64-byte payload plus address and counter —
    /// the data-block HMAC of §II-C.
    fn data_mac(&self, addr: u64, data: &[u8; 64], major: u64, minor: u64) -> u64 {
        self.mac64_88(&data_mac_message(addr, data, major, minor))
    }

    /// MAC lanes per call: `1`, since no engine batches (DESIGN.md §5e).
    /// It and the three batch loops below stay only because the
    /// `benchmark` package's timed engine (`benchmark/src/traced.rs`)
    /// overrides them; nothing in the workspace calls them.
    fn mac_lanes(&self) -> usize {
        1
    }

    /// `out[i] = mac64(msgs[i])`, one call per message; kept only for the
    /// `benchmark` package's timed engine.
    fn mac64_many(&self, msgs: &[&[u8]], out: &mut [u64]) {
        for (m, o) in msgs.iter().zip(out.iter_mut()) {
            *o = self.mac64(m);
        }
    }

    /// `out[i] = mac64_72(msgs[i])`, one call per message; kept only for
    /// the `benchmark` package's timed engine.
    fn mac64_72_many(&self, msgs: &[[u8; 72]], out: &mut [u64]) {
        for (m, o) in msgs.iter().zip(out.iter_mut()) {
            *o = self.mac64_72(m);
        }
    }

    /// `out[i] = mac64_88(msgs[i])`, one call per message; kept only for
    /// the `benchmark` package's timed engine.
    fn mac64_88_many(&self, msgs: &[[u8; 88]], out: &mut [u64]) {
        for (m, o) in msgs.iter().zip(out.iter_mut()) {
            *o = self.mac64_88(m);
        }
    }
}

/// Full-fidelity engine: AES-128 OTPs, HMAC-SHA-256/64 MACs.
pub struct RealCrypto {
    aes: Aes128,
    hmac: HmacSha256,
}

impl RealCrypto {
    /// Builds the engine, deriving separate OTP and MAC subkeys from `key`.
    pub fn new(key: SecretKey) -> Self {
        RealCrypto {
            aes: Aes128::new(&key.derive("otp").0),
            hmac: HmacSha256::new(&key.derive("mac").0),
        }
    }
}

impl CryptoEngine for RealCrypto {
    fn otp(&self, addr: u64, major: u64, minor: u64) -> [u8; 64] {
        // Seed = addr || major || minor-folded, the unique CME tuple.
        let mut seed = [0u8; 16];
        seed[..8].copy_from_slice(&addr.to_le_bytes());
        seed[8..16].copy_from_slice(&(major ^ minor.rotate_left(32)).to_le_bytes());
        // Fold minor separately so (major=1,minor=0) != (major=0,minor=1<<32).
        seed[7] ^= (minor & 0x7f) as u8;
        self.aes.otp64(&seed)
    }

    fn mac64(&self, msg: &[u8]) -> u64 {
        self.hmac.mac64(msg)
    }

    fn mac64_72(&self, msg: &[u8; 72]) -> u64 {
        self.hmac.mac64_72(msg)
    }

    fn mac64_88(&self, msg: &[u8; 88]) -> u64 {
        self.hmac.mac64_88(msg)
    }
}

/// Fast engine: SipHash-2-4 expanded OTPs and SipHash MACs.
pub struct FastCrypto {
    otp_key: SipHash24,
    mac_key: SipHash24,
}

impl FastCrypto {
    /// Builds the engine, deriving separate OTP and MAC subkeys from `key`.
    pub fn new(key: SecretKey) -> Self {
        FastCrypto {
            otp_key: SipHash24::new(&key.derive("otp").0),
            mac_key: SipHash24::new(&key.derive("mac").0),
        }
    }
}

impl CryptoEngine for FastCrypto {
    fn otp(&self, addr: u64, major: u64, minor: u64) -> [u8; 64] {
        let mut out = [0u8; 64];
        for lane in 0..8u64 {
            let mut msg = [0u8; 32];
            msg[..8].copy_from_slice(&addr.to_le_bytes());
            msg[8..16].copy_from_slice(&major.to_le_bytes());
            msg[16..24].copy_from_slice(&minor.to_le_bytes());
            msg[24..32].copy_from_slice(&lane.to_le_bytes());
            let h = self.otp_key.hash(&msg);
            out[lane as usize * 8..lane as usize * 8 + 8].copy_from_slice(&h.to_le_bytes());
        }
        out
    }

    fn mac64(&self, msg: &[u8]) -> u64 {
        self.mac_key.hash(msg)
    }
}

/// Instantiates the requested engine behind a trait object.
pub fn make_engine(kind: CryptoKind, key: SecretKey) -> Box<dyn CryptoEngine> {
    match kind {
        CryptoKind::Real => Box::new(RealCrypto::new(key)),
        CryptoKind::Fast => Box::new(FastCrypto::new(key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines() -> Vec<(&'static str, Box<dyn CryptoEngine>)> {
        let key = SecretKey([0x42; 16]);
        vec![
            ("real", make_engine(CryptoKind::Real, key)),
            ("fast", make_engine(CryptoKind::Fast, key)),
        ]
    }

    #[test]
    fn otp_unique_per_counter_and_address() {
        for (name, e) in engines() {
            let base = e.otp(0x1000, 5, 3);
            assert_ne!(base[..], e.otp(0x1000, 6, 3)[..], "{name}: major bump");
            assert_ne!(base[..], e.otp(0x1000, 5, 4)[..], "{name}: minor bump");
            assert_ne!(base[..], e.otp(0x1040, 5, 3)[..], "{name}: addr bump");
            assert_eq!(base[..], e.otp(0x1000, 5, 3)[..], "{name}: deterministic");
        }
    }

    #[test]
    fn otp_major_minor_not_confused() {
        // (major=1, minor=0) and (major=0, minor=1) must give distinct pads.
        for (name, e) in engines() {
            assert_ne!(e.otp(0, 1, 0)[..], e.otp(0, 0, 1)[..], "{name}");
        }
    }

    #[test]
    fn mac_detects_single_bit_flip() {
        for (name, e) in engines() {
            let mut data = [7u8; 64];
            let m0 = e.data_mac(0x80, &data, 9, 1);
            data[13] ^= 0x20;
            assert_ne!(m0, e.data_mac(0x80, &data, 9, 1), "{name}");
        }
    }

    #[test]
    fn mac_binds_address_and_counter() {
        for (name, e) in engines() {
            let data = [1u8; 64];
            let m = e.data_mac(0x40, &data, 2, 0);
            assert_ne!(m, e.data_mac(0x80, &data, 2, 0), "{name}: addr");
            assert_ne!(m, e.data_mac(0x40, &data, 3, 0), "{name}: major");
            assert_ne!(m, e.data_mac(0x40, &data, 2, 1), "{name}: minor");
        }
    }

    #[test]
    fn mac64_72_matches_slice_mac64() {
        for (name, e) in engines() {
            let mut msg = [0u8; 72];
            for (i, b) in msg.iter_mut().enumerate() {
                *b = (i * 37 + 11) as u8;
            }
            assert_eq!(e.mac64_72(&msg), e.mac64(&msg), "{name}");
        }
    }

    #[test]
    fn mac64_88_matches_slice_mac64() {
        for (name, e) in engines() {
            let mut msg = [0u8; 88];
            for (i, b) in msg.iter_mut().enumerate() {
                *b = (i * 53 + 19) as u8;
            }
            assert_eq!(e.mac64_88(&msg), e.mac64(&msg), "{name}");
        }
    }

    #[test]
    fn data_mac_routes_through_data_mac_message() {
        for (name, e) in engines() {
            let data: [u8; 64] = core::array::from_fn(|i| (i * 3 + 1) as u8);
            let msg = data_mac_message(0xbeef, &data, 7, 2);
            assert_eq!(e.data_mac(0xbeef, &data, 7, 2), e.mac64_88(&msg), "{name}");
        }
    }

    /// The batch methods kept for the benchmark's timed engine are serial
    /// loops on every engine: the same MACs as one call per message, on
    /// every batch size, and one lane.
    #[test]
    fn batched_trait_methods_match_scalar_loops() {
        for (name, e) in engines() {
            assert_eq!(e.mac_lanes(), 1, "{name}");
            for n in [0usize, 1, 3, 4, 5, 8, 9, 26] {
                let m72: Vec<[u8; 72]> = (0..n)
                    .map(|i| core::array::from_fn(|j| (i * 7 + j) as u8))
                    .collect();
                let m88: Vec<[u8; 88]> = (0..n)
                    .map(|i| core::array::from_fn(|j| (i * 11 + j + 1) as u8))
                    .collect();
                let refs: Vec<&[u8]> = m72.iter().map(|m| m.as_slice()).collect();

                let mut got = vec![0u64; n];
                e.mac64_many(&refs, &mut got);
                let expect: Vec<u64> = refs.iter().map(|m| e.mac64(m)).collect();
                assert_eq!(got, expect, "{name}: mac64_many n={n}");

                e.mac64_72_many(&m72, &mut got);
                let expect: Vec<u64> = m72.iter().map(|m| e.mac64_72(m)).collect();
                assert_eq!(got, expect, "{name}: mac64_72_many n={n}");

                e.mac64_88_many(&m88, &mut got);
                let expect: Vec<u64> = m88.iter().map(|m| e.mac64_88(m)).collect();
                assert_eq!(got, expect, "{name}: mac64_88_many n={n}");
            }
        }
    }

    #[test]
    fn engines_differ_but_are_internally_consistent() {
        let key = SecretKey([0x42; 16]);
        let real = RealCrypto::new(key);
        let fast = FastCrypto::new(key);
        // Different algorithms must not collide on the same inputs (they are
        // independent PRFs; equality would be a 2^-64 fluke or a bug).
        assert_ne!(real.mac64(b"block"), fast.mac64(b"block"));
        assert_ne!(real.otp(0, 0, 0)[..], fast.otp(0, 0, 0)[..]);
    }
}
