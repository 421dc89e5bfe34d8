//! A tiny persistent key-value store on top of the *sharded* secure NVM —
//! the kind of application the paper's persistent workloads (phash/ptree)
//! model, now spread across independent memory controllers.
//!
//! ## Routing API
//!
//! [`ShardedEngine`] owns N complete secure-memory controllers (each with
//! its own integrity tree, metadata cache, write queue, and ADR
//! recovery-journal line) behind one flat address space:
//!
//! * `ShardedEngine::new(cfg, n)` splits `cfg.data_lines` across `n`
//!   shards, interleave-striped: global line `l` belongs to shard `l % n`,
//!   at local line `l / n`.
//! * `engine.write(addr, &line)` / `engine.read(addr)` take **global**
//!   byte addresses and route internally — callers never see shard-local
//!   coordinates. Both take `&self`: threads drive disjoint shards
//!   concurrently, one mutex per shard.
//! * `engine.map()` exposes the pure [`ShardMap`] routing function
//!   (`shard_of`, `local_line`, `global_line`) when you do want to know
//!   which controller owns a line.
//! * `engine.crash_shard(s)` power-cuts one shard only; the others keep
//!   serving. `engine.recover_shard(s, crashed)` rebuilds that shard off
//!   its own journal line and reinstates it.
//!
//! Keys hash to fixed 64 B slots; every put is written through the secure
//! path and persisted (store + clwb semantics), so a crash loses nothing
//! that `put` returned for — and with shards, a crash on one controller
//! does not even pause the keys that live on the others.
//!
//! Run: `cargo run --release --example persistent_kvstore`

use steins::prelude::*;

const SHARDS: usize = 4;

/// Fixed-size open-addressed KV store over the sharded secure NVM.
struct SecureKv {
    engine: ShardedEngine,
    slots: u64,
}

impl SecureKv {
    fn new(scheme: SchemeKind, mode: CounterMode) -> Self {
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let slots = cfg.data_lines.min(1024);
        SecureKv {
            engine: ShardedEngine::new(cfg, SHARDS),
            slots,
        }
    }

    fn slot_of(&self, key: &str) -> u64 {
        // FNV-1a over the key, mapped to a global line address; the engine
        // routes it to the owning shard.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % self.slots) * 64
    }

    /// Stores up to 48 bytes of value under `key` (persisted on return).
    fn put(&self, key: &str, value: &[u8]) {
        assert!(value.len() <= 48, "value too large for one slot");
        let mut line = [0u8; 64];
        line[0] = 1; // occupied
        line[1] = value.len() as u8;
        let kh = self.slot_of(key);
        line[2..10].copy_from_slice(&kh.to_le_bytes());
        line[16..16 + value.len()].copy_from_slice(value);
        self.engine.write(kh, &line).expect("secure put");
    }

    /// Fetches the value stored under `key`.
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        let line = self.engine.read(self.slot_of(key)).expect("secure get");
        if line[0] != 1 {
            return None;
        }
        let len = line[1] as usize;
        Some(line[16..16 + len].to_vec())
    }

    /// Which shard a key's slot lives on (routing introspection).
    fn shard_of(&self, key: &str) -> usize {
        self.engine.map().shard_of(self.slot_of(key) / 64)
    }

    /// Crashes one shard and recovers it off its own journal line. Every
    /// other shard keeps serving throughout.
    fn crash_and_recover_shard(&self, s: usize) {
        let crashed = self.engine.crash_shard(s);
        let report = self
            .engine
            .recover_shard(s, crashed)
            .expect("recovery verifies");
        println!(
            "  …shard {s} recovered: {} nodes, {} NVM reads",
            report.nodes_recovered, report.nvm_reads
        );
    }
}

fn main() {
    let kv = SecureKv::new(SchemeKind::Steins, CounterMode::Split);

    println!("populating the store across {SHARDS} shards…");
    for i in 0..200 {
        kv.put(&format!("user:{i}"), format!("value-{i}").as_bytes());
    }
    kv.put("motd", b"el psy kongroo");

    assert_eq!(kv.get("motd").as_deref(), Some(&b"el psy kongroo"[..]));
    assert_eq!(kv.get("user:42").as_deref(), Some(&b"value-42"[..]));
    assert_eq!(kv.get("missing-key"), None);
    println!("reads verified before crash ✓");

    // Crash the shard that owns "motd" — and only that shard.
    let hot = kv.shard_of("motd");
    println!("crash shard {hot} (owner of \"motd\") + recover…");

    // While it is down, keys on the other shards still serve.
    let survivor = (0..200)
        .map(|i| format!("user:{i}"))
        .find(|k| kv.shard_of(k) != hot)
        .expect("some key lives elsewhere");
    let crashed = kv.engine.crash_shard(hot);
    assert!(kv.get(&survivor).is_some());
    println!(
        "  …shard {} still serving mid-recovery ✓",
        kv.shard_of(&survivor)
    );
    let report = kv
        .engine
        .recover_shard(hot, crashed)
        .expect("recovery verifies");
    println!(
        "  …shard {hot} recovered: {} nodes, {} NVM reads",
        report.nodes_recovered, report.nvm_reads
    );

    assert_eq!(kv.get("motd").as_deref(), Some(&b"el psy kongroo"[..]));
    for i in (0..200).step_by(17) {
        assert_eq!(
            kv.get(&format!("user:{i}")).as_deref(),
            Some(format!("value-{i}").as_bytes())
        );
    }
    println!("all sampled keys intact after recovery ✓");

    // Keep working after recovery — then cycle every other shard too.
    kv.put("post-crash", b"still running");
    assert_eq!(kv.get("post-crash").as_deref(), Some(&b"still running"[..]));
    for s in (0..SHARDS).filter(|&s| s != hot) {
        kv.crash_and_recover_shard(s);
    }
    assert_eq!(kv.get("motd").as_deref(), Some(&b"el psy kongroo"[..]));
    println!("post-recovery writes work, all shards cycled ✓");
}
