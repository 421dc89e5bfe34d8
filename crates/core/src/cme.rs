//! Counter-mode encryption helpers and the per-block MAC record.
//!
//! CME (§II-B): a data line is XORed with a one-time pad generated from
//! `(line address, major counter, minor counter)` — the pad is never reused
//! because each write advances the counter.
//!
//! Each data block also carries a 16-byte **MAC record**: its 64-bit HMAC
//! and a 64-bit *recovery field* packing the encryption counter
//! (`(major << 6) | minor` for split counters, the raw counter for general
//! ones). §II-D: "we store the major counter in the HMAC of the data block
//! for recovery"; DESIGN.md §2.7 documents the ECC-spare-bits substitution.
//!
//! What a record says about its line is decided here and nowhere else:
//! [`MacRecord::load`] is the one read of a record, [`MacRecord::unwritten`]
//! the one never-written test, and [`MacRecord::judge`] the one verdict that
//! strict recovery, the scrub and the online patrol act on.

use steins_crypto::CryptoEngine;
use steins_metadata::MemoryLayout;
use steins_nvm::NvmDevice;

/// XORs a 64 B line with the OTP for `(addr, major, minor)` — both
/// encryption and decryption.
pub fn xor_otp(engine: &dyn CryptoEngine, addr: u64, major: u64, minor: u64, line: &mut [u8; 64]) {
    let otp = engine.otp(addr, major, minor);
    for (b, o) in line.iter_mut().zip(otp.iter()) {
        *b ^= o;
    }
}

/// What a data line's MAC record says about its stored bytes, judged under
/// the record's own counter pair. `Authentic` proves a key holder wrote
/// these bytes under that pair, not that the pair is current: a replayed
/// data-and-record pair is authentic too (DESIGN.md §5c).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineVerdict {
    /// Default record over zero bytes: never written, reads as zeros.
    Unwritten,
    /// The MAC verifies under the record's `(major, minor)`.
    Authentic {
        /// The record's major (general mode: the whole) counter.
        major: u64,
        /// The record's minor counter (0 in general mode).
        minor: u64,
    },
    /// The MAC does not verify: torn write, media fault or tampering.
    Forged {
        /// The record's major counter, unauthenticated.
        major: u64,
    },
}

/// The 16-byte per-data-block MAC + recovery record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MacRecord {
    /// 64-bit HMAC over (ciphertext ‖ address ‖ major ‖ minor).
    pub mac: u64,
    /// Packed recovery counter.
    pub recovery: u64,
}

impl MacRecord {
    /// Packs `(major, minor)` into the recovery field.
    pub fn pack_recovery(major: u64, minor: u64) -> u64 {
        debug_assert!(minor < 64, "minor exceeds 6 bits");
        debug_assert!(major < (1 << 58), "major exceeds 58 bits");
        (major << 6) | minor
    }

    /// Unpacks the recovery field into `(major, minor)`.
    pub fn unpack_recovery(recovery: u64) -> (u64, u64) {
        (recovery >> 6, recovery & 63)
    }

    /// Serializes into 16 bytes.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.mac.to_le_bytes());
        out[8..].copy_from_slice(&self.recovery.to_le_bytes());
        out
    }

    /// Deserializes from 16 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        MacRecord {
            mac: u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            recovery: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        }
    }

    /// Reads record `slot` (0–3) out of a 64 B MAC-region line.
    fn read_slot(line: &[u8; 64], slot: usize) -> Self {
        debug_assert!(slot < 4);
        Self::from_bytes(&line[slot * 16..slot * 16 + 16])
    }

    /// Data line `line`'s record, peeked from its MAC-region line (callers
    /// count their reads).
    pub fn load(nvm: &NvmDevice, layout: &MemoryLayout, line: u64) -> Self {
        let (laddr, byte) = layout.mac_slot(line);
        Self::read_slot(&nvm.peek(laddr), byte / 16)
    }

    /// Whether this record over ciphertext `ct` is a never-written line.
    pub fn unwritten(&self, ct: &[u8; 64]) -> bool {
        *self == MacRecord::default() && *ct == [0u8; 64]
    }

    /// Judges ciphertext `ct` at `addr` against this record.
    pub fn judge(&self, crypto: &dyn CryptoEngine, addr: u64, ct: &[u8; 64]) -> LineVerdict {
        if self.unwritten(ct) {
            return LineVerdict::Unwritten;
        }
        let (major, minor) = Self::unpack_recovery(self.recovery);
        if crypto.data_mac(addr, ct, major, minor) == self.mac {
            LineVerdict::Authentic { major, minor }
        } else {
            LineVerdict::Forged { major }
        }
    }

    /// Writes this record into `slot` of a MAC-region line.
    pub fn write_slot(&self, line: &mut [u8; 64], slot: usize) {
        debug_assert!(slot < 4);
        line[slot * 16..slot * 16 + 16].copy_from_slice(&self.to_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_crypto::{CryptoKind, SecretKey};

    fn engine() -> Box<dyn CryptoEngine> {
        steins_crypto::engine::make_engine(CryptoKind::Real, SecretKey([1; 16]))
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let e = engine();
        let plain = [0x3C; 64];
        let mut line = plain;
        xor_otp(e.as_ref(), 0x1000, 7, 3, &mut line);
        assert_ne!(line, plain, "ciphertext differs");
        xor_otp(e.as_ref(), 0x1000, 7, 3, &mut line);
        assert_eq!(line, plain, "XOR is an involution");
    }

    #[test]
    fn wrong_counter_garbles() {
        let e = engine();
        let plain = [9u8; 64];
        let mut line = plain;
        xor_otp(e.as_ref(), 0x40, 1, 0, &mut line);
        xor_otp(e.as_ref(), 0x40, 2, 0, &mut line);
        assert_ne!(line, plain);
    }

    #[test]
    fn recovery_pack_roundtrip() {
        for (maj, min) in [(0u64, 0u64), (1, 63), (12345, 17), ((1 << 56) - 1, 63)] {
            let packed = MacRecord::pack_recovery(maj, min);
            assert_eq!(MacRecord::unpack_recovery(packed), (maj, min));
        }
    }

    /// Strict recovery, the scrub and the online patrol judge a line one
    /// way. The image's only stores are an authentic line and a line whose
    /// stored bytes are then damaged, in a leaf that also holds
    /// never-written lines. The damage is a bit flip, or a wipe to zeros
    /// that must not pass for a never-written line while its record
    /// survives.
    #[test]
    fn strict_recovery_scrub_and_patrol_agree_on_a_damaged_line() {
        use crate::{IntegrityError, OnlinePolicy, SchemeKind, SecureNvmSystem, SystemConfig};
        use steins_metadata::CounterMode;
        use steins_obs::AlarmKind;

        for mode in [CounterMode::General, CounterMode::Split] {
            for wipe in [false, true] {
                let image = || {
                    let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, mode);
                    let mut sys = SecureNvmSystem::new(cfg);
                    sys.write(0, &[0x11; 64]).unwrap();
                    sys.write(64, &[0x22; 64]).unwrap();
                    let addr = sys.ctrl.layout().data_base + 64;
                    let nvm = sys.ctrl.nvm_mut();
                    if wipe {
                        nvm.overwrite(addr, &[0; 64]);
                    } else {
                        nvm.inject_bit_flip(addr, 9, 2);
                    }
                    (sys, addr)
                };
                let case = format!("{mode:?}, wipe {wipe}");

                let (sys, bad) = image();
                let err = sys.crash().recover().err();
                assert_eq!(err, Some(IntegrityError::DataMac { addr: bad }), "{case}");

                let (sys, _) = image();
                let lines = sys.config().data_lines;
                let (_, r) = sys.crash().recover_lenient();
                assert_eq!(r.data_intact, 1, "{case}: {r}");
                assert_eq!(r.data_unrecoverable, 1, "{case}: {r}");
                assert_eq!(r.unrecoverable_addrs, vec![bad], "{case}");
                assert_eq!(r.data_untouched, lines - 2, "{case}: {r}");

                let (mut live, _) = image();
                live.enable_online(OnlinePolicy::default());
                live.online_scrub_pass();
                let held: Vec<u64> = live.online().unwrap().quarantined().collect();
                assert_eq!(held, vec![bad], "{case}");
                let alarms: Vec<_> = live
                    .drain_alarms()
                    .into_iter()
                    .map(|a| (a.kind, a.addr))
                    .collect();
                assert_eq!(alarms, vec![(AlarmKind::MacMismatch, Some(bad))], "{case}");
            }
        }
    }

    #[test]
    fn slots_are_independent() {
        let mut line = [0u8; 64];
        let a = MacRecord {
            mac: 1,
            recovery: 2,
        };
        let b = MacRecord {
            mac: 3,
            recovery: 4,
        };
        a.write_slot(&mut line, 0);
        b.write_slot(&mut line, 3);
        assert_eq!(MacRecord::read_slot(&line, 0), a);
        assert_eq!(MacRecord::read_slot(&line, 3), b);
        assert_eq!(MacRecord::read_slot(&line, 1), MacRecord::default());
    }
}
