//! Before/after hot-path microbench suite.
//!
//! Measures the optimized implementations against in-tree references
//! (the portable AES and SHA-256 bodies, a clone-based HMAC, a std SipHash
//! map) and writes the comparison to `results/BENCH_crypto.json`:
//!
//! * AES-128 OTP generation (B/s) — the byte-oriented portable body vs
//!   `Aes128::otp64`, which runs AES-NI where the CPU has it (the run
//!   prints which)
//! * HMAC-SHA-256/64 over the 72 B node-MAC message (msgs/s) — midstate
//!   fast path vs clone-based two-hasher reference
//! * the 88 B data-MAC (msgs/s)
//! * one SHA-256 compression (blocks/s) — the portable body vs
//!   `Sha256::compress`, which runs SHA-NI where the CPU has it (the run
//!   prints which)
//! * sparse line-store reads (reads/s) — `SparseStore` vs std SipHash map
//! * end-to-end secure writes (writes/s) at both crypto fidelities
//!
//! Knobs: `STEINS_MICRO_MS` (per-bench budget, ms), `STEINS_MICRO_OPS`
//! (trace length of the end-to-end runs, default 2000).

use std::collections::HashMap;
use steins_bench::{env, micro};
use steins_core::{SchemeKind, SystemConfig};
use steins_crypto::{engine::make_engine, Aes128, CryptoKind, HmacSha256, SecretKey, Sha256};
use steins_metadata::CounterMode;
use steins_nvm::SparseStore;
use steins_trace::{Workload, WorkloadKind};

/// The pre-optimization HMAC shape: cloned hashers and intermediate digest
/// copies (what `HmacSha256` did before the midstate rewrite).
struct RefHmac {
    inner: Sha256,
    outer: Sha256,
}

impl RefHmac {
    fn new(key: &[u8]) -> Self {
        let mut k = [0u8; 64];
        k[..key.len()].copy_from_slice(key);
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..64 {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        RefHmac { inner, outer }
    }

    fn mac64(&self, msg: &[u8]) -> u64 {
        let mut h = self.inner.clone();
        h.update(msg);
        let d = h.finalize();
        let mut o = self.outer.clone();
        o.update(&d);
        let full = o.finalize();
        u64::from_le_bytes(full[..8].try_into().unwrap())
    }
}

struct Entry {
    name: &'static str,
    unit: &'static str,
    before_ns: f64,
    after_ns: f64,
    rate_unit: &'static str,
    /// Work per op in `rate_unit` terms (64 for B/op, 1 for msgs etc.).
    work_per_op: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns
    }
    fn rate_after(&self) -> f64 {
        self.work_per_op / (self.after_ns * 1e-9)
    }
}

fn end_to_end_ns_per_write(g: &mut micro::Group, label: &str, kind: CryptoKind) -> f64 {
    let ops: u64 = env::int("STEINS_MICRO_OPS").unwrap_or(2000);
    let med_run_ns = g.bench_batched(
        label,
        || {
            let mut cfg = SystemConfig::sweep(SchemeKind::Steins, CounterMode::Split);
            cfg.crypto = kind;
            let sys = steins_core::SecureNvmSystem::new(cfg);
            let trace = Workload::new(WorkloadKind::Lbm, ops, 42).generate();
            (sys, trace)
        },
        |(mut sys, trace)| {
            std::hint::black_box(sys.run_trace(trace).expect("clean run"));
        },
    );
    med_run_ns / ops as f64
}

fn main() {
    let mut entries: Vec<Entry> = Vec::new();

    let mut g = micro::group("aes_otp");
    let aes = Aes128::new(&[7u8; 16]);
    println!("Aes128::otp64 runs the {} body", aes.body());
    let seed = [3u8; 16];
    let before = g.bench("otp64_portable", || {
        std::hint::black_box(aes.otp64_portable(&seed));
    });
    let after = g.bench("otp64_dispatched", || {
        std::hint::black_box(aes.otp64(&seed));
    });
    entries.push(Entry {
        name: "aes128_otp64",
        unit: "ns per 64 B OTP",
        before_ns: before,
        after_ns: after,
        rate_unit: "B/s",
        work_per_op: 64.0,
    });

    let mut g = micro::group("hmac");
    let msg72 = [0x5a_u8; 72];
    let href = RefHmac::new(b"steins-mac-key");
    let before = g.bench("mac64_72B_clone_ref", || {
        std::hint::black_box(href.mac64(&msg72));
    });
    let hmac = HmacSha256::new(b"steins-mac-key");
    let after = g.bench("mac64_72B_midstate", || {
        std::hint::black_box(hmac.mac64_fixed(&msg72));
    });
    assert_eq!(
        href.mac64(&msg72),
        hmac.mac64_fixed(&msg72),
        "fast path must compute the same MAC"
    );
    entries.push(Entry {
        name: "hmac_mac64_72B",
        unit: "ns per 72 B MAC",
        before_ns: before,
        after_ns: after,
        rate_unit: "msgs/s",
        work_per_op: 1.0,
    });

    let engine = make_engine(CryptoKind::Real, SecretKey([1; 16]));
    let data = [4u8; 64];
    let mut msg88 = [0u8; 88];
    msg88[..64].copy_from_slice(&data);
    msg88[64..72].copy_from_slice(&0x40u64.to_le_bytes());
    msg88[72..80].copy_from_slice(&7u64.to_le_bytes());
    msg88[80..88].copy_from_slice(&3u64.to_le_bytes());
    let ref88 = RefHmac::new(b"steins-mac-key");
    let before = g.bench("data_mac_88B_clone_ref", || {
        std::hint::black_box(ref88.mac64(&msg88));
    });
    let after = g.bench("data_mac_88B_real", || {
        std::hint::black_box(engine.data_mac(0x40, &data, 7, 3));
    });
    entries.push(Entry {
        name: "data_mac_88B",
        unit: "ns per 88 B data MAC",
        before_ns: before,
        after_ns: after,
        rate_unit: "msgs/s",
        work_per_op: 1.0,
    });

    // Satellite routing guard: the two hot message sizes must stay on the
    // monomorphized fixed-length path. If either falls off this list (the
    // `data_mac_88B` regression), the bench run fails loudly instead of the
    // slowdown only showing up as a worse number.
    for len in [72usize, 88] {
        assert!(
            HmacSha256::FIXED_FAST_LENS.contains(&len),
            "{len} B messages fell off the fixed fast-path list"
        );
    }
    assert_eq!(
        engine.data_mac(0x40, &data, 7, 3),
        engine.mac64_88(&msg88),
        "data_mac must build the canonical 88 B message and route it through mac64_88"
    );

    let mut g = micro::group("sha256_compress");
    println!(
        "Sha256::compress runs the {} compression",
        Sha256::compression()
    );
    let block: [u8; 64] = core::array::from_fn(|i| (i * 7 + 1) as u8);
    let mut state = [0u32; 8];
    let before = g.bench("compress_portable", || {
        Sha256::compress_portable(&mut state, std::hint::black_box(&block));
        std::hint::black_box(&state);
    });
    let after = g.bench("compress_dispatched", || {
        Sha256::compress(&mut state, std::hint::black_box(&block));
        std::hint::black_box(&state);
    });
    entries.push(Entry {
        name: "sha256_compress",
        unit: "ns per 64 B compression (portable vs dispatched)",
        before_ns: before,
        after_ns: after,
        rate_unit: "blocks/s",
        work_per_op: 1.0,
    });

    let mut g = micro::group("line_store");
    const LINES: u64 = 4096;
    let mut sip_map: HashMap<u64, [u8; 64]> = HashMap::new();
    let mut store = SparseStore::new();
    for i in 0..LINES {
        sip_map.insert(i, [i as u8; 64]);
        store.write(i * 64, &[i as u8; 64]);
    }
    let mut k = 0u64;
    let before = g.bench("reads_std_siphash_map", || {
        k = (k.wrapping_mul(6364136223846793005).wrapping_add(1)) % LINES;
        std::hint::black_box(sip_map.get(&k));
    });
    let mut k = 0u64;
    let after = g.bench("reads_sparse_store", || {
        k = (k.wrapping_mul(6364136223846793005).wrapping_add(1)) % LINES;
        std::hint::black_box(store.read(k * 64));
    });
    entries.push(Entry {
        name: "sparse_store_read",
        unit: "ns per line read",
        before_ns: before,
        after_ns: after,
        rate_unit: "reads/s",
        work_per_op: 1.0,
    });

    // Fast is the baseline and Real the measured side, so a faster real
    // engine raises the row's speedup.
    let mut g = micro::group("end_to_end");
    let real = end_to_end_ns_per_write(&mut g, "steins_writes_real_crypto", CryptoKind::Real);
    let fast = end_to_end_ns_per_write(&mut g, "steins_writes_fast_crypto", CryptoKind::Fast);
    entries.push(Entry {
        name: "end_to_end_write_real_vs_fast",
        unit: "ns per op (Fast as before, Real as after)",
        before_ns: fast,
        after_ns: real,
        rate_unit: "ops/s",
        work_per_op: 1.0,
    });

    // Hand-rolled JSON (the repo has no serde dependency).
    let mut json = String::from("{\n  \"suite\": \"steins microbench (hot-path before/after)\",\n");
    json.push_str("  \"benches\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"before_ns\": {:.1}, \"after_ns\": {:.1}, \"speedup\": {:.2}, \"rate_after\": {:.3e}, \"rate_unit\": \"{}\"}}{}\n",
            e.name,
            e.unit,
            e.before_ns,
            e.after_ns,
            e.speedup(),
            e.rate_after(),
            e.rate_unit,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_crypto.json", &json).expect("write json");

    println!("\n== speedups ==");
    for e in &entries {
        println!(
            "{:<32} {:>8.1} ns -> {:>8.1} ns   {:>6.2}x   ({:.3e} {})",
            e.name,
            e.before_ns,
            e.after_ns,
            e.speedup(),
            e.rate_after(),
            e.rate_unit
        );
    }
    println!("\nwrote results/BENCH_crypto.json");

    let aes = &entries[0];
    if aes.speedup() < 5.0 {
        eprintln!(
            "WARNING: AES OTP speedup {:.2}x is below the 5x target",
            aes.speedup()
        );
    }
}
