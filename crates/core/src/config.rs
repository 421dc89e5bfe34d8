//! System configuration (the knobs of Table I).

use steins_cache::{CpuConfig, HierarchyConfig};
use steins_crypto::CryptoKind;
use steins_metadata::cache::MetaCacheConfig;
pub use steins_metadata::CounterMode;
use steins_nvm::NvmConfig;

/// Which recovery scheme protects the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Plain write-back secure NVM: CME + lazy-update SIT, **no recovery
    /// support**. The figures' baseline (WB-GC / WB-SC).
    WriteBack,
    /// Anubis for SGX integrity trees: every metadata-cache modification is
    /// mirrored to a shadow table (2× writes) and verified through a 4-level
    /// cache-tree over cached nodes.
    Asit,
    /// SIT trace-and-recovery: parent-counter LSBs stored in children,
    /// multi-layer dirty bitmap (updated on clean↔dirty both ways), and a
    /// cache-tree over dirty nodes requiring per-set address sorting.
    Star,
    /// This paper: generated parent counters, offset records (clean→dirty
    /// only, ADR-cached), per-level LInc trust bases, NV parent-counter
    /// buffer removing parent reads from the write critical path.
    Steins,
}

impl SchemeKind {
    /// Figure label combined with a counter mode ("Steins-GC" etc.).
    pub fn label(&self, mode: CounterMode) -> String {
        let base = match self {
            SchemeKind::WriteBack => "WB",
            SchemeKind::Asit => "ASIT",
            SchemeKind::Star => "STAR",
            SchemeKind::Steins => "Steins",
        };
        format!("{}-{}", base, mode.label())
    }

    /// Whether the scheme can recover security metadata after a crash.
    pub fn supports_recovery(&self) -> bool {
        !matches!(self, SchemeKind::WriteBack)
    }
}

/// How a leaf node's counters are recovered after a crash (§V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafRecovery {
    /// Default: the encryption counter rides in the per-block MAC record
    /// (the ECC-spare-bits substitution of DESIGN.md §2.7) — §II-D's
    /// "store the major counter in the HMAC of the data block".
    MacRecord,
    /// Osiris-style (§V): no counter is stored with the data. Instead every
    /// counter is write-through-flushed each `window` increments
    /// (stop-loss), and recovery *probes* counters in
    /// `[stale, stale + window]` until the data MAC verifies. The retrieved
    /// leaves are then verified with `L0Inc`, exactly as the paper sketches
    /// for the Osiris integration.
    OsirisProbe {
        /// Stop-loss window (Osiris' N).
        window: u64,
    },
}

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Recovery scheme.
    pub scheme: SchemeKind,
    /// Leaf counter organization (GC/SC).
    pub mode: CounterMode,
    /// Crypto fidelity (real AES/HMAC vs fast keyed hash).
    pub crypto: CryptoKind,
    /// NVM device organization + timings.
    pub nvm: NvmConfig,
    /// CPU cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// CPU front end.
    pub cpu: CpuConfig,
    /// Metadata cache geometry.
    pub meta_cache: MetaCacheConfig,
    /// User data lines protected by the tree (the rest of the device holds
    /// metadata regions).
    pub data_lines: u64,
    /// HMAC unit latency in cycles (Table I: 40).
    pub hash_latency: u64,
    /// Steins' non-volatile parent-counter buffer capacity in bytes
    /// (Table I: 128 B ⇒ 8 × 16 B entries).
    pub nv_buffer_bytes: usize,
    /// Record lines cached in the memory controller's ADR region
    /// (Table I: 16).
    pub record_cache_lines: usize,
    /// STAR: bitmap lines cached in the controller.
    pub bitmap_cache_lines: usize,
    /// Secret key seed (deterministic runs).
    pub key_seed: u64,
    /// Assumed latency to read-and-verify one metadata line during
    /// *recovery*, in nanoseconds (§IV-D: 100 ns, as in Anubis/STAR/Osiris).
    pub recovery_read_ns: f64,
    /// Leaf-counter recovery mechanism (§V).
    pub leaf_recovery: LeafRecovery,
}

impl SystemConfig {
    /// The paper's Table I configuration.
    pub fn table1(scheme: SchemeKind, mode: CounterMode) -> Self {
        let nvm = NvmConfig::default();
        SystemConfig {
            scheme,
            mode,
            crypto: CryptoKind::Fast,
            data_lines: nvm.lines() * 3 / 4, // data region; the rest holds metadata
            nvm,
            hierarchy: HierarchyConfig::default(),
            cpu: CpuConfig::default(),
            meta_cache: MetaCacheConfig::table1(),
            hash_latency: 40,
            nv_buffer_bytes: 128,
            record_cache_lines: 16,
            bitmap_cache_lines: 16,
            key_seed: 0x57E_145,
            recovery_read_ns: 100.0,
            leaf_recovery: LeafRecovery::MacRecord,
        }
    }

    /// A fast configuration for the figure sweeps: Table I secure
    /// parameters, scaled-down footprint-matched device.
    pub fn sweep(scheme: SchemeKind, mode: CounterMode) -> Self {
        let mut cfg = Self::table1(scheme, mode);
        cfg.nvm.capacity_bytes = 256 << 20;
        cfg.data_lines = (128u64 << 20) / 64; // 128 MB data region
        cfg
    }

    /// A tiny configuration for unit/integration tests: small caches so
    /// evictions, crashes and recovery paths trigger within a few hundred
    /// operations. Uses real AES/HMAC crypto.
    pub fn small_for_tests(scheme: SchemeKind, mode: CounterMode) -> Self {
        SystemConfig {
            scheme,
            mode,
            crypto: CryptoKind::Real,
            nvm: NvmConfig::small_for_tests(),
            hierarchy: HierarchyConfig::small_for_tests(),
            cpu: CpuConfig::default(),
            meta_cache: MetaCacheConfig {
                capacity_bytes: 8 << 10, // 128 slots: 16 sets × 8 ways
                ways: 8,
            },
            data_lines: 1 << 12, // 256 KB of data
            hash_latency: 40,
            nv_buffer_bytes: 128,
            record_cache_lines: 4,
            bitmap_cache_lines: 4,
            key_seed: 0xDEC0DE,
            recovery_read_ns: 100.0,
            leaf_recovery: LeafRecovery::MacRecord,
        }
    }

    /// The derived secret key.
    pub fn secret_key(&self) -> steins_crypto::SecretKey {
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&self.key_seed.to_le_bytes());
        k[8..].copy_from_slice(&self.key_seed.rotate_left(17).to_le_bytes());
        steins_crypto::SecretKey(k)
    }

    /// Validates cross-field constraints, panicking with a clear message on
    /// nonsense (ASIT/STAR are GC-only designs, §IV: "neither ASIT nor STAR
    /// considers the split counter block").
    pub fn validate(&self) {
        if matches!(self.scheme, SchemeKind::Asit | SchemeKind::Star) {
            assert_eq!(
                self.mode,
                CounterMode::General,
                "{:?} does not support split counter blocks",
                self.scheme
            );
        }
        assert!(self.data_lines >= 1, "empty data region");
        assert!(
            self.nv_buffer_bytes >= 16,
            "NV buffer must hold at least one 16 B entry"
        );
        assert!(self.record_cache_lines >= 1);
        if let LeafRecovery::OsirisProbe { window } = self.leaf_recovery {
            assert!(window >= 2, "Osiris stop-loss window must be at least 2");
            assert_eq!(
                self.mode,
                CounterMode::General,
                "Osiris probing recovers plain counters; use GC mode"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(SchemeKind::Steins.label(CounterMode::Split), "Steins-SC");
        assert_eq!(SchemeKind::WriteBack.label(CounterMode::General), "WB-GC");
    }

    #[test]
    fn recovery_support() {
        assert!(!SchemeKind::WriteBack.supports_recovery());
        assert!(SchemeKind::Steins.supports_recovery());
        assert!(SchemeKind::Asit.supports_recovery());
        assert!(SchemeKind::Star.supports_recovery());
    }

    #[test]
    fn table1_matches_paper() {
        let c = SystemConfig::table1(SchemeKind::Steins, CounterMode::Split);
        assert_eq!(c.hash_latency, 40);
        assert_eq!(c.nv_buffer_bytes, 128);
        assert_eq!(c.record_cache_lines, 16);
        assert_eq!(c.meta_cache.capacity_bytes, 256 << 10);
        assert_eq!(c.nvm.capacity_bytes, 16 << 30);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "does not support split")]
    fn asit_split_rejected() {
        SystemConfig::small_for_tests(SchemeKind::Asit, CounterMode::Split).validate();
    }

    #[test]
    fn secret_key_deterministic() {
        let a = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let b = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        assert_eq!(a.secret_key().0, b.secret_key().0);
    }
}
