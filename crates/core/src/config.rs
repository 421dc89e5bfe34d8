//! System configuration (the knobs of Table I).

use steins_cache::{CpuConfig, HierarchyConfig};
use steins_crypto::CryptoKind;
use steins_metadata::cache::MetaCacheConfig;
use steins_metadata::geometry::ROOT_FANOUT;
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

/// The six supported (scheme, counter-mode) combinations: ASIT and STAR are
/// general-counter designs (split-counter variants are out of scope by
/// design), WB and Steins run in both modes.
pub const COMBOS: [(SchemeKind, CounterMode); 6] = [
    (SchemeKind::WriteBack, CounterMode::General),
    (SchemeKind::WriteBack, CounterMode::Split),
    (SchemeKind::Asit, CounterMode::General),
    (SchemeKind::Star, CounterMode::General),
    (SchemeKind::Steins, CounterMode::General),
    (SchemeKind::Steins, CounterMode::Split),
];

/// HMAC unit latency in cycles (Table I: 40).
pub const HASH_LATENCY: u64 = 40;

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
            nv_buffer_bytes: 128,
            record_cache_lines: 16,
            bitmap_cache_lines: 16,
            key_seed: 0x57E_145,
            recovery_read_ns: 100.0,
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
            nv_buffer_bytes: 128,
            record_cache_lines: 4,
            bitmap_cache_lines: 4,
            key_seed: 0xDEC0DE,
            recovery_read_ns: 100.0,
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
        // A dirty node stays resident and pinned while its flush installs
        // its parent, which a 1-way set has no way left for. Only a tree
        // whose leaves all sit under the root has no parent to install.
        let leaves = self.data_lines.div_ceil(self.mode.leaf_coverage());
        if leaves > ROOT_FANOUT {
            assert!(
                self.meta_cache.ways >= 2,
                "a tree with a parent level ({leaves} leaves over a {ROOT_FANOUT}-counter \
                 root) needs >= 2 metadata-cache ways, got {}: a node's flush pins it while \
                 its parent is installed (the full pin-depth bound Steins-GC needs is still \
                 open, ROADMAP item 8)",
                self.meta_cache.ways
            );
        }
        assert!(
            self.nv_buffer_bytes >= 16,
            "NV buffer must hold at least one 16 B entry"
        );
        assert!(
            self.record_cache_lines >= 1,
            "record_cache_lines must be >= 1: the ADR record region needs at least one line"
        );
        if self.scheme == SchemeKind::Star {
            assert!(
                self.bitmap_cache_lines >= 1,
                "STAR needs bitmap_cache_lines >= 1: its ADR bitmap region needs at least one line"
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
        assert_eq!(HASH_LATENCY, 40);
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
    #[should_panic(expected = "record_cache_lines must be >= 1")]
    fn zero_record_lines_rejected() {
        let mut c = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        c.record_cache_lines = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "STAR needs bitmap_cache_lines >= 1")]
    fn star_without_bitmap_lines_rejected() {
        let mut c = SystemConfig::small_for_tests(SchemeKind::Star, CounterMode::General);
        c.bitmap_cache_lines = 0;
        c.validate();
    }

    /// A `small_for_tests` config with a 1-way metadata cache of four sets.
    fn one_way(scheme: SchemeKind, mode: CounterMode) -> SystemConfig {
        let mut c = SystemConfig::small_for_tests(scheme, mode);
        c.meta_cache = MetaCacheConfig {
            capacity_bytes: 4 * 64,
            ways: 1,
        };
        c
    }

    #[test]
    #[should_panic(expected = "(512 leaves over a 64-counter root) needs >= 2 metadata-cache ways")]
    fn one_way_wb_gc_rejected() {
        one_way(SchemeKind::WriteBack, CounterMode::General).validate();
    }

    #[test]
    #[should_panic(expected = "(512 leaves over a 64-counter root) needs >= 2 metadata-cache ways")]
    fn one_way_asit_rejected() {
        one_way(SchemeKind::Asit, CounterMode::General).validate();
    }

    #[test]
    #[should_panic(expected = "(512 leaves over a 64-counter root) needs >= 2 metadata-cache ways")]
    fn one_way_star_rejected() {
        one_way(SchemeKind::Star, CounterMode::General).validate();
    }

    #[test]
    #[should_panic(expected = "(512 leaves over a 64-counter root) needs >= 2 metadata-cache ways")]
    fn one_way_steins_gc_rejected() {
        one_way(SchemeKind::Steins, CounterMode::General).validate();
    }

    /// A tree whose leaves all sit under the root has no parent level for
    /// a flush to install, so 1 way serves it: a `small_for_tests`
    /// split-counter tree (64 leaves), or a general-counter one over 512
    /// data lines.
    #[test]
    fn one_way_serves_a_tree_without_a_parent_level() {
        for scheme in [SchemeKind::WriteBack, SchemeKind::Steins] {
            one_way(scheme, CounterMode::Split).validate();
            let mut gc = one_way(scheme, CounterMode::General);
            gc.data_lines = 64 * 8;
            gc.validate();
        }
    }

    #[test]
    #[should_panic(expected = "(65 leaves over a 64-counter root) needs >= 2 metadata-cache ways")]
    fn one_way_split_counter_with_a_parent_level_rejected() {
        let mut sc = one_way(SchemeKind::Steins, CounterMode::Split);
        sc.data_lines = 64 * 64 + 1;
        sc.validate();
    }

    #[test]
    fn secret_key_deterministic() {
        let a = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let b = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        assert_eq!(a.secret_key().0, b.secret_key().0);
    }
}
