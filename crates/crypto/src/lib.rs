//! From-scratch cryptographic primitives for the Steins secure-NVM stack.
//!
//! Secure NVM systems (Steins, ASIT, STAR, SCUE, …) rely on two hardware
//! crypto units inside the memory controller:
//!
//! * an **AES engine** producing one-time pads (OTPs) for counter-mode
//!   encryption (CME), and
//! * a **keyed-hash (HMAC) engine** producing 64-bit MACs over security
//!   metadata and user data.
//!
//! This crate implements both from scratch — AES-128 per FIPS-197 and
//! SHA-256/HMAC-SHA-256 per FIPS-180-4/RFC-2104 — plus a fast SipHash-2-4
//! style keyed hash. All are exposed behind the [`CryptoEngine`] trait so the
//! simulator can choose full-fidelity crypto for functional tests and the
//! fast keyed hash for long figure sweeps *without changing any code path*:
//! the set of crypto invocations (and hence the charged timing) is identical.

pub mod aes;
pub mod engine;
pub mod fasthash;
pub mod hmac;
pub mod sha256;

pub use aes::Aes128;
pub use engine::{data_mac_message, CryptoEngine, CryptoKind, FastCrypto, RealCrypto};
pub use fasthash::{FxBuildHasher, FxHashMap, FxHasher64, SipHash24};
pub use hmac::HmacSha256;
pub use sha256::Sha256;

/// A 128-bit secret key, shared by the OTP and MAC engines.
///
/// In a real controller this never leaves the processor die; here it is a
/// plain value because the simulator *is* the trusted domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SecretKey(pub [u8; 16]);

impl SecretKey {
    /// Derives a deterministic per-purpose subkey (domain separation), so the
    /// OTP, node-MAC and data-MAC engines never share a raw key.
    pub fn derive(&self, purpose: &str) -> SecretKey {
        let mut h = Sha256::new();
        h.update(&self.0);
        h.update(purpose.as_bytes());
        let d = h.finalize();
        let mut k = [0u8; 16];
        k.copy_from_slice(&d[..16]);
        SecretKey(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_purpose_separated() {
        let k = SecretKey([7u8; 16]);
        assert_eq!(k.derive("otp"), k.derive("otp"));
        assert_ne!(k.derive("otp"), k.derive("mac"));
        assert_ne!(k.derive("otp").0, k.0);
    }
}
