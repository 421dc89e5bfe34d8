//! The five workloads and their untraced sessions.
//!
//! A session is one life of a protected machine: build it (set-up), serve
//! the workload's operations (timed), pull the plug, and recover (timed).
//! Modeled caches start empty in every session, as in every figure run.
//!
//! What a session checks: every fill the trace runner decrypts is compared
//! with the stored plaintext, every kv read with the client's last write,
//! and recovery verifies the whole tree (HMACs, LIncs). Reading every line
//! back after recovery is left out: on today's code some recoveries leave a
//! node that fails its MAC on a later fetch (see the ignored test below).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use steins_core::engine::synth_data;
use steins_core::{
    par, CounterMode, IntegrityError, RunReport, SchemeKind, SecureNvmSystem, ShardedEngine,
    SystemConfig,
};
use steins_crypto::{CryptoKind, FxHashMap};
use steins_obs::MetricRegistry;
use steins_trace::{OpKind, Pattern, TraceOp, Workload, WorkloadKind};

use crate::canary::Canary;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "ptree-gc",
    "cactus-gc",
    "mcf-sc",
    "kv-sharded",
    "recover-4g",
];

/// Recovery workers the modeled makespan is folded onto, on every workload.
pub const RECOVERY_WORKERS: usize = 2;
/// Shards of the `kv-sharded` engine.
pub const KV_SHARDS: usize = 4;
/// Shards of the `recover-4g` rung (the committed ladder's shard count).
pub const RECOVER_SHARDS: usize = 8;
/// The committed recovery ladder that `recover-4g` must reproduce.
const LADDER_ARTIFACT: &str = "results/BENCH_recovery.json";

/// `rel`, a path relative to the repository root, wherever the benchmark
/// runs from.
pub fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel)
}

/// A benchmark workload and its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Spec {
    /// A Steins trace run through `SecureNvmSystem::run_trace`.
    Trace {
        /// Trace generator.
        kind: WorkloadKind,
        /// Counter organization.
        mode: CounterMode,
        /// Memory operations per session.
        ops: u64,
    },
    /// Closed-loop clients on a sharded engine's direct write/read API.
    Kv {
        /// Requests per session, split evenly between the two clients.
        requests: u64,
    },
    /// The recovery ladder's all-slots-dirty fill on one rung, then a
    /// whole-engine crash and parallel recovery.
    Recover {
        /// Modeled image size of the rung in MB.
        mb: u64,
    },
}

impl Spec {
    /// The workload called `name`, at its benchmark size.
    pub fn named(name: &str) -> Option<Spec> {
        let trace = |kind, mode, ops| Spec::Trace { kind, mode, ops };
        Some(match name {
            "ptree-gc" => trace(WorkloadKind::PTree, CounterMode::General, 300_000),
            "cactus-gc" => trace(WorkloadKind::CactusAdm, CounterMode::General, 300_000),
            "mcf-sc" => trace(WorkloadKind::Mcf, CounterMode::Split, 2_000_000),
            "kv-sharded" => Spec::Kv { requests: 400_000 },
            "recover-4g" => Spec::Recover { mb: 4096 },
            _ => return None,
        })
    }

    /// Host threads the end-to-end session runs on (on `recover-4g`, the
    /// recovery workers; its fill runs on one thread). The other count
    /// (1 ↔ 2) is run only by the traced run, to measure thread scaling.
    pub fn threads(self) -> usize {
        match self {
            Spec::Trace { .. } => 1,
            Spec::Kv { .. } | Spec::Recover { .. } => 2,
        }
    }

    /// Whether the modeled state repeats exactly. Two kv clients interleave
    /// on shared shards in host order, so their modeled state does not.
    pub fn deterministic(self) -> bool {
        !matches!(self, Spec::Kv { .. })
    }

    /// The same code paths at sizes that run in well under a second.
    #[cfg(test)]
    pub fn tiny(self) -> Spec {
        match self {
            Spec::Trace { kind, mode, .. } => Spec::Trace {
                kind,
                mode,
                // Enough to overflow the 2 MB LLC, so data reaches NVM.
                ops: 60_000,
            },
            Spec::Kv { .. } => Spec::Kv { requests: 4_000 },
            Spec::Recover { .. } => Spec::Recover { mb: 1 },
        }
    }
}

/// The modeled side of one session.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// Modeled cycles summed over the machines (CPU clock under traces, the
    /// controller's busy horizon under the direct API).
    pub cycles: u64,
    /// Per-machine modeled cycles.
    pub machine_cycles: Vec<u64>,
    /// NVM write traffic in bytes.
    pub nvm_write_bytes: u64,
    /// Modeled energy in picojoules.
    pub energy_pj: f64,
    /// Recovery reads of each independent region (shard).
    pub region_reads: Vec<u64>,
    /// Serve-phase registry (shards folded) merged with the recovery
    /// registry.
    pub registry: MetricRegistry,
}

impl Model {
    /// Adds one machine's serve phase; `cycles` is its modeled clock.
    pub fn add_machine(&mut self, shard: Option<usize>, cycles: u64, report: &RunReport) {
        self.cycles += cycles;
        self.machine_cycles.push(cycles);
        self.nvm_write_bytes += report.write_traffic();
        self.energy_pj += report.energy_pj;
        match shard {
            Some(s) => self
                .registry
                .fold_shard(&format!("shard.{s:02}"), &report.metrics),
            None => self.registry.merge(&report.metrics),
        }
    }

    /// The modeled recovery critical path: the busiest of
    /// [`RECOVERY_WORKERS`] lanes after the deterministic LPT fold.
    pub fn makespan_reads(&self) -> u64 {
        par::makespan(&self.region_reads, RECOVERY_WORKERS)
    }
}

/// One session's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds to build the machine.
    pub setup_s: f64,
    /// Host seconds of the serve phase.
    pub serve_s: f64,
    /// Operations served.
    pub ops: u64,
    /// Host nanoseconds of each served operation.
    pub op_ns: Vec<u32>,
    /// Host seconds of the recovery call.
    pub recovery_s: f64,
    /// Host seconds per canary step around the session (`canary.rs`).
    pub ref_s: f64,
    /// Recovery reads performed, over every region and replica.
    pub recovery_reads: u64,
    /// Modeled state.
    pub model: Model,
    /// Failed operations: error results, divergent reads, caught panics.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
}

impl Rep {
    /// Counts one failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Files one recovered region's read count.
    pub fn region_recovered(&mut self, reads: u64) {
        self.recovery_reads += reads;
        self.model.region_reads.push(reads);
    }
}

/// Runs one session of `spec` on `threads` host threads, with a canary
/// walk on as many threads before and after it.
pub fn session(spec: Spec, seed: u64, canary: &Canary, threads: usize) -> Rep {
    let before = canary.step_s(threads);
    let mut rep = session_body(spec, seed, threads);
    rep.ref_s = (before + canary.step_s(threads)) / 2.0;
    rep
}

fn session_body(spec: Spec, seed: u64, threads: usize) -> Rep {
    let run = catch_unwind(AssertUnwindSafe(|| match spec {
        Spec::Trace { kind, mode, ops } if threads == 1 => {
            trace_replica(kind, mode, ops, seed, None)
        }
        Spec::Trace { kind, mode, ops } => {
            // One machine cannot be split between threads, so the 2-thread
            // session serves two replicas of it side by side.
            let sync = Barrier::new(2);
            let (a, b) = std::thread::scope(|s| {
                let other = s.spawn(|| trace_replica(kind, mode, ops, seed, Some(&sync)));
                let a = trace_replica(kind, mode, ops, seed, Some(&sync));
                (a, other.join().expect("replica failures are caught"))
            });
            combine_replicas(a, b)
        }
        Spec::Kv { requests } => kv_session(seed, requests, threads),
        Spec::Recover { mb } => recover_session(mb, seed, threads),
    }));
    run.unwrap_or_else(|p| {
        let mut rep = Rep::default();
        rep.fail(format!("session panicked: {}", panic_message(&*p)));
        rep
    })
}

/// Runs `f`, turning an integrity error or a panic into a failure message.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, IntegrityError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("{what}: {e}")),
        Err(p) => Err(format!("{what}: panic: {}", panic_message(&*p))),
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string payload".into())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A host duration in nanoseconds, saturated to `u32`.
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// The Steins figure-sweep geometry with the bit-faithful crypto engine.
pub fn trace_config(mode: CounterMode) -> SystemConfig {
    let mut cfg = SystemConfig::sweep(SchemeKind::Steins, mode);
    cfg.crypto = CryptoKind::Real;
    cfg
}

/// Hands a trace to `run_trace`, timing each memory operation (a store
/// together with its flush).
struct Metered<'a, I> {
    inner: I,
    last: Option<Instant>,
    op_ns: &'a mut Vec<u32>,
}

impl<'a, I> Metered<'a, I> {
    fn new(inner: I, op_ns: &'a mut Vec<u32>) -> Self {
        Metered {
            inner,
            last: None,
            op_ns,
        }
    }
}

impl<I: Iterator<Item = TraceOp>> Iterator for Metered<'_, I> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        let op = self.inner.next();
        if !matches!(
            op,
            Some(TraceOp {
                kind: OpKind::Flush,
                ..
            })
        ) {
            let now = Instant::now();
            if let Some(prev) = self.last.replace(now) {
                self.op_ns.push(ns32(now - prev));
            }
        }
        op
    }
}

/// One machine serving one trace. Replicas meet at `sync` before serving
/// and before recovering, so their timed phases overlap.
fn trace_replica(
    kind: WorkloadKind,
    mode: CounterMode,
    ops: u64,
    seed: u64,
    sync: Option<&Barrier>,
) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    let mut sys = SecureNvmSystem::new(trace_config(mode));
    rep.setup_s = secs(t);

    rep.op_ns.reserve(ops as usize);
    let wait = || sync.map(Barrier::wait);
    wait();
    let t = Instant::now();
    let served = guarded("serve", || {
        sys.run_trace(Metered::new(
            Workload::new(kind, ops, seed).generate(),
            &mut rep.op_ns,
        ))
    });
    rep.serve_s = secs(t);
    rep.ops = ops;
    let crashed = served.map(|report| (report, sys.crash().with_recovery_lanes(1)));

    wait();
    let t = Instant::now();
    let recovered = crashed.and_then(|(report, crashed)| {
        guarded("recovery", || crashed.recover()).map(|(_, rr)| (report, rr))
    });
    rep.recovery_s = secs(t);

    match recovered {
        Ok((report, rr)) => {
            rep.model.add_machine(None, report.cycles, &report);
            rep.model.registry.merge(&rr.metrics);
            rep.region_recovered(rr.nvm_reads);
        }
        Err(e) => rep.fail(e),
    }
    rep
}

fn combine_replicas(mut a: Rep, b: Rep) -> Rep {
    if a.model.registry != b.model.registry {
        a.problems
            .push("replicas of one seed diverged in modeled state".into());
    }
    a.setup_s = a.setup_s.max(b.setup_s);
    a.serve_s = a.serve_s.max(b.serve_s);
    a.recovery_s = a.recovery_s.max(b.recovery_s);
    a.ops += b.ops;
    a.op_ns.extend(b.op_ns);
    a.recovery_reads += b.recovery_reads;
    a.failed += b.failed;
    a.problems.extend(b.problems);
    a
}

// ——————————————————————————— kv-sharded ———————————————————————————

/// One closed-loop client request.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// Global data line.
    pub line: u64,
    /// Store + clwb (`true`) or read.
    pub write: bool,
}

/// Client `c`'s stream: the persistent B-tree trace (Zipf θ = 0.8, 60 %
/// stores) as direct reads and writes, remapped onto the lines whose bit 2
/// equals `c`. With 4-way interleaving each client owns half of every
/// shard: both clients contend for every shard lock, and every read a
/// client issues can be checked against its own last write.
pub fn kv_stream(seed: u64, c: u64, len: u64) -> Vec<Req> {
    let client_seed = seed ^ (c + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    Workload::new(WorkloadKind::PTree, len, client_seed)
        .generate()
        .filter(|op| op.kind != OpKind::Flush)
        .map(|op| Req {
            line: ((op.addr / 64) & !4) | (c << 2),
            write: op.kind == OpKind::Store,
        })
        .collect()
}

/// Both clients' streams, generated on two threads.
pub fn kv_streams(seed: u64, requests: u64) -> Vec<Vec<Req>> {
    std::thread::scope(|s| {
        let one = s.spawn(|| kv_stream(seed, 1, requests / 2));
        let zero = kv_stream(seed, 0, requests / 2);
        vec![zero, one.join().expect("stream generation does not panic")]
    })
}

/// The version a client's `i`-th request writes, and its payload.
pub fn kv_payload(line: u64, i: usize) -> (u64, [u8; 64]) {
    let version = i as u64 + 1;
    (version, synth_data(line * 64, version))
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Host nanoseconds of each request.
    pub op_ns: Vec<u32>,
    /// Last acknowledged version of each line the client wrote.
    last: FxHashMap<u64, u64>,
    /// Failed requests: errors and reads that returned another value.
    failed: u64,
}

impl ClientRun {
    /// Files one request's outcome: `None` acknowledges a write, `Some`
    /// carries what a read returned.
    pub fn settle(
        &mut self,
        req: Req,
        version: u64,
        got: Result<Option<[u8; 64]>, IntegrityError>,
    ) {
        match got {
            Ok(None) => {
                self.last.insert(req.line, version);
            }
            Ok(Some(data)) => {
                let want = self
                    .last
                    .get(&req.line)
                    .map_or([0u8; 64], |&v| synth_data(req.line * 64, v));
                self.failed += u64::from(data != want);
            }
            Err(_) => self.failed += 1,
        }
    }
}

fn kv_client(engine: &ShardedEngine, stream: &[Req]) -> ClientRun {
    let mut run = ClientRun {
        op_ns: Vec::with_capacity(stream.len()),
        ..ClientRun::default()
    };
    for (i, &req) in stream.iter().enumerate() {
        let addr = req.line * 64;
        let (version, data) = kv_payload(req.line, i);
        let t = Instant::now();
        let got = if req.write {
            engine.write(addr, &data).map(|()| None)
        } else {
            engine.read(addr).map(Some)
        };
        run.op_ns.push(ns32(t.elapsed()));
        run.settle(req, version, got);
    }
    run
}

/// Runs each stream on its own client thread, or all on this thread.
pub fn run_clients<F>(streams: &[Vec<Req>], threads: usize, client: F) -> Vec<ClientRun>
where
    F: Fn(&[Req]) -> ClientRun + Sync,
{
    if threads == 1 {
        return streams.iter().map(|s| client(s)).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| s.spawn(|| client(stream)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientRun {
                    failed: 1,
                    ..ClientRun::default()
                })
            })
            .collect()
    })
}

/// Folds the clients' outcomes into `rep`.
pub fn settle_clients(rep: &mut Rep, runs: Vec<ClientRun>) {
    for run in runs {
        rep.ops += run.op_ns.len() as u64;
        rep.op_ns.extend(run.op_ns);
        if run.failed > 0 {
            rep.failed += run.failed;
            rep.problems
                .push(format!("{} client requests failed", run.failed));
        }
    }
}

/// Crashes the whole engine and recovers it on `workers` threads; the
/// recovery call alone is timed.
pub fn crash_and_recover(rep: &mut Rep, engine: &ShardedEngine, workers: usize) {
    let images = engine.crash_all();
    let t = Instant::now();
    let recovered = guarded("recovery", || engine.recover_all(images, workers));
    rep.recovery_s = secs(t);
    match recovered {
        Ok(pr) => {
            rep.model.registry.merge(&pr.metrics);
            for r in &pr.reports {
                rep.region_recovered(r.nvm_reads);
            }
        }
        Err(e) => rep.fail(e),
    }
}

/// Set-up makes the request streams as well as the engine, so work moved
/// from serving into stream generation shows in `setup_s`.
fn kv_session(seed: u64, requests: u64, clients: usize) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    let streams = kv_streams(seed, requests);
    let engine = ShardedEngine::new(trace_config(CounterMode::General), KV_SHARDS);
    rep.setup_s = secs(t);

    let t = Instant::now();
    let runs = run_clients(&streams, clients, |s| kv_client(&engine, s));
    rep.serve_s = secs(t);
    settle_clients(&mut rep, runs);
    // Under the direct API the core clock never moves, so a shard's modeled
    // time is its busy horizon.
    for s in 0..KV_SHARDS {
        engine.with_shard(s, |sys| {
            rep.model
                .add_machine(Some(s), sys.sim_cycles(), &sys.report())
        });
    }
    crash_and_recover(&mut rep, &engine, clients);
    rep
}

// ——————————————————————————— recover-4g ———————————————————————————

/// The recovery ladder's rung `mb` with the bit-faithful crypto engine.
pub fn recover_config(mb: u64) -> SystemConfig {
    let mut cfg = steins_bench::ladder::rung_config(mb, RECOVER_SHARDS);
    cfg.crypto = CryptoKind::Real;
    cfg
}

/// The recovery ladder's fill of shard `s` (`steins_bench::ladder`): one
/// flushed store per leaf, strided at the leaf coverage, 1.5× the
/// metadata-cache slots, so (nearly) every slot holds a dirty node when the
/// plug is pulled. The seed moves the instruction gaps, not the dirty set,
/// so every seed owes the committed ladder's recovery bill.
pub fn fill_workload(shard_cfg: &SystemConfig, seed: u64, s: usize) -> Workload {
    let coverage = CounterMode::General.leaf_coverage();
    let mut wl = Workload::new(
        WorkloadKind::PHash,
        shard_cfg.meta_cache.slots() * 3 / 2,
        seed.wrapping_mul(RECOVER_SHARDS as u64)
            .wrapping_add(s as u64),
    );
    wl.footprint_lines = shard_cfg.data_lines;
    wl.write_ratio = 1.0;
    wl.flush_stores = true;
    wl.pattern = Pattern::Sequential { stride: coverage };
    wl
}

/// Files each shard's fill, then crashes and recovers the engine on
/// `workers` threads and checks the bill against the committed ladder.
pub fn finish_recover(
    rep: &mut Rep,
    engine: &ShardedEngine,
    fills: Vec<Result<RunReport, String>>,
    mb: u64,
    workers: usize,
) {
    let mut all_served = true;
    for (s, fill) in fills.into_iter().enumerate() {
        match fill {
            Ok(report) => rep.model.add_machine(Some(s), report.cycles, &report),
            Err(e) => {
                rep.fail(e);
                all_served = false;
            }
        }
    }
    if all_served {
        crash_and_recover(rep, engine, workers);
        check_ladder(rep, mb, engine.shard_config().recovery_read_ns);
    }
}

/// Checks the recovery bill against the committed ladder's row for this
/// rung at [`RECOVERY_WORKERS`] workers, when the ladder has one.
fn check_ladder(rep: &mut Rep, mb: u64, read_ns: f64) {
    let Ok(text) = std::fs::read_to_string(repo_path(LADDER_ARTIFACT)) else {
        rep.problems
            .push(format!("{LADDER_ARTIFACT} is not readable"));
        return;
    };
    let Ok(doc) = steins_obs::json::parse(&text) else {
        rep.problems
            .push(format!("{LADDER_ARTIFACT} does not parse"));
        return;
    };
    let num = |row: &steins_obs::Json, k: &str| row.get(k).and_then(|v| v.as_f64());
    let row = doc.get("rungs").and_then(|r| r.as_arr()).and_then(|rows| {
        rows.iter().find(|row| {
            num(row, "mb") == Some(mb as f64)
                && num(row, "workers") == Some(RECOVERY_WORKERS as f64)
        })
    });
    let Some(row) = row else {
        return;
    };
    let total: u64 = rep.model.region_reads.iter().sum();
    let makespan = rep.model.makespan_reads();
    let seconds = format!("{:.6}", makespan as f64 * read_ns * 1e-9);
    let want_seconds = num(row, "est_seconds").map(|s| format!("{s:.6}"));
    if num(row, "total_reads") != Some(total as f64)
        || num(row, "makespan_reads") != Some(makespan as f64)
        || want_seconds.as_deref() != Some(seconds.as_str())
    {
        rep.problems.push(format!(
            "{mb} MB x {RECOVERY_WORKERS} workers: {total} reads, makespan {makespan}, \
             {seconds} s differ from {LADDER_ARTIFACT}"
        ));
    }
}

/// The fill runs shard after shard on this thread and only the recovery on
/// `workers`. Over eight alternating runs on a shared 2-vCPU VM, the fill's
/// time per op spread 11 % from run to run with two fill threads and 5 %
/// with one.
fn recover_session(mb: u64, seed: u64, workers: usize) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    let engine = ShardedEngine::new(recover_config(mb), RECOVER_SHARDS);
    rep.setup_s = secs(t);
    let shard_cfg = engine.shard_config().clone();

    let t = Instant::now();
    let fills: Vec<_> = (0..RECOVER_SHARDS)
        .map(|s| {
            let wl = fill_workload(&shard_cfg, seed, s);
            engine.with_shard(s, |sys| {
                guarded("fill", || {
                    sys.run_trace(Metered::new(wl.generate(), &mut rep.op_ns))
                })
            })
        })
        .collect();
    rep.serve_s = secs(t);
    rep.ops = rep.op_ns.len() as u64;
    finish_recover(&mut rep, &engine, fills, mb, workers);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Spec {
        Spec::named(name).expect("known workload").tiny()
    }

    #[test]
    fn every_workload_serves_and_recovers_at_both_thread_counts() {
        let canary = Canary::new();
        for name in WORKLOADS {
            for threads in [1, 2] {
                let rep = session(tiny(name), 5, &canary, threads);
                assert_eq!(rep.failed, 0, "{name}/{threads}: {:?}", rep.problems);
                assert!(rep.problems.is_empty(), "{name}: {:?}", rep.problems);
                assert!(rep.ops > 0 && rep.op_ns.len() as u64 == rep.ops, "{name}");
                assert!(rep.recovery_reads > 0, "{name}: empty recovery");
                assert!(rep.model.nvm_write_bytes > 0, "{name}: nothing reached NVM");
                assert!(rep.model.cycles > 0 && rep.model.energy_pj > 0.0, "{name}");
            }
        }
    }

    #[test]
    fn deterministic_workloads_repeat_their_modeled_state() {
        let canary = Canary::new();
        for name in ["ptree-gc", "mcf-sc", "recover-4g"] {
            let a = session(tiny(name), 9, &canary, 2);
            let b = session(tiny(name), 9, &canary, 2);
            assert!(a.problems.is_empty(), "{name}: {:?}", a.problems);
            assert_eq!(a.model.registry, b.model.registry, "{name}");
        }
    }

    #[test]
    fn kv_clients_own_disjoint_halves_of_every_shard() {
        let streams = kv_streams(3, 2_000);
        for (c, stream) in streams.iter().enumerate() {
            assert!(stream.iter().all(|r| (r.line >> 2) & 1 == c as u64));
            let shards: std::collections::BTreeSet<u64> =
                stream.iter().map(|r| r.line % KV_SHARDS as u64).collect();
            assert_eq!(shards.len(), KV_SHARDS, "client {c} reaches every shard");
        }
    }

    /// Real and fast crypto compute different bytes but must drive the
    /// same modeled machine.
    #[test]
    fn modeled_registry_is_identical_under_real_and_fast_crypto() {
        let run = |crypto| {
            let mut cfg = trace_config(CounterMode::General);
            cfg.crypto = crypto;
            let mut sys = SecureNvmSystem::new(cfg);
            sys.run_trace(Workload::new(WorkloadKind::PTree, 5_000, 4).generate())
                .expect("attack-free run")
                .metrics
        };
        assert_eq!(run(CryptoKind::Real), run(CryptoKind::Fast));
    }

    /// Known defect, kept as its reproduction: on ptree seed 11 the Steins
    /// rebuild installs one leaf through the evicting fallback (its set is
    /// full of recorded dirty nodes). Recovery returns Ok, but reading the
    /// recovered lines back in this order then fails `NodeMac` on the
    /// leaf's level-1 parent. When it passes, sessions can read every line
    /// back after recovery.
    #[test]
    #[ignore = "steins-core recovery defect; run with --release -- --ignored"]
    fn recovered_lines_read_back() {
        let wl = Workload::new(WorkloadKind::PTree, 300_000, 11);
        let mut cfg = trace_config(CounterMode::General);
        cfg.crypto = CryptoKind::Fast;
        let mut sys = SecureNvmSystem::new(cfg);
        sys.run_trace(wl.generate()).expect("attack-free run");
        let mut last = FxHashMap::default();
        let stores = wl.generate().filter(|op| op.kind == OpKind::Store);
        for (i, op) in stores.enumerate() {
            last.insert(op.addr, i as u64 + 1);
        }
        let crashed = sys.crash();
        for addr in crashed.lost_lines() {
            last.remove(addr);
        }
        let (mut sys, _) = crashed.recover().expect("recovery verifies");
        let mut lines: Vec<(u64, u64)> = last.into_iter().collect();
        lines.sort_by_key(|&(addr, _)| addr.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17));
        for (addr, version) in lines {
            let now = sys.sim_cycles();
            let got = sys.ctrl.read_data(now, addr).map(|(data, _)| data);
            assert_eq!(got, Ok(synth_data(addr, version)), "line {addr:#x}");
        }
    }
}
