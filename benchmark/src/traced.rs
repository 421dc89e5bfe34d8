//! The traced run: each layer measured from outside.
//!
//! The traced session replays the workload through this file's own copy of
//! the simulator's outer loops — `run_trace`'s per-op loop and the direct
//! `write`/`read` API — built on the public `CacheHierarchy`, `CpuModel` and
//! `SecureMemoryController::{write_data, read_data}`, so the calls into
//! each layer can be timed at their boundaries. Crypto is timed by wrapping
//! the real engine in a [`CryptoEngine`] passed through `with_engine`. Trace
//! generation is timed on its own, in a separate pass that materializes the
//! trace. Modeled counts come from the machine's metric registry, which must
//! equal the untraced run's (the parity guard in `main.rs`).
//!
//! Spans of the first [`SPAN_OPS`] operations are kept in memory and
//! written out at exit.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use steins_cache::{CacheHierarchy, CpuModel, MemEvent};
use steins_core::engine::{synth_data, SecureMemoryController};
use steins_core::{CounterMode, IntegrityError, SecureNvmSystem, ShardedEngine, SystemConfig};
use steins_crypto::{CryptoEngine, FxHashMap, RealCrypto};
use steins_obs::Json;
use steins_trace::{OpKind, TraceOp, Workload};

use crate::session::{
    crash_and_recover, fill_workload, finish_recover, guarded, kv_payload, kv_streams, ns32,
    recover_config, run_clients, secs, settle_clients, trace_config, ClientRun, Rep, Req, Spec,
    KV_SHARDS, RECOVER_SHARDS,
};

/// Operations whose spans are kept.
pub const SPAN_OPS: u64 = 2_000;

/// One recorded span: a layer call nested in an operation, or a crypto call
/// nested in a layer call.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

thread_local! {
    /// The span new crypto spans on this thread nest under (0: none).
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

/// In-memory span log, bounded to the first [`SPAN_OPS`] operations.
pub struct SpanLog {
    origin: Instant,
    ops: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log; times are reported relative to now.
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            origin: Instant::now(),
            ops: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// A span id for a new operation, or 0 once [`SPAN_OPS`] are recorded.
    fn begin_op(&self) -> u64 {
        if self.ops.load(Ordering::Relaxed) >= SPAN_OPS
            || self.ops.fetch_add(1, Ordering::Relaxed) >= SPAN_OPS
        {
            return 0;
        }
        self.id()
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Spans as JSON, in id order: `{id, parent, name, start_ns, end_ns}`.
    pub fn to_json(&self) -> Json {
        let mut spans = self.spans.lock().expect("span log lock");
        spans.sort_by_key(|s| s.id);
        let ns = |t: Instant| Json::Num(t.duration_since(self.origin).as_nanos() as f64);
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id".to_string(), Json::Num(s.id as f64)),
                        ("parent".to_string(), Json::Num(s.parent as f64)),
                        ("name".to_string(), Json::Str(s.name.into())),
                        ("start_ns".to_string(), ns(s.start)),
                        ("end_ns".to_string(), ns(s.end)),
                    ])
                })
                .collect(),
        )
    }
}

/// Crypto work counted by [`TimedCrypto`].
#[derive(Default)]
pub struct CryptoStats {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// A snapshot of [`CryptoStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CryptoCounts {
    /// Host nanoseconds inside the engine.
    pub ns: u64,
    /// Calls, a batch counting once.
    pub calls: u64,
}

impl CryptoStats {
    fn counts(&self) -> CryptoCounts {
        CryptoCounts {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for CryptoCounts {
    type Output = CryptoCounts;

    fn sub(self, o: CryptoCounts) -> CryptoCounts {
        CryptoCounts {
            ns: self.ns - o.ns,
            calls: self.calls - o.calls,
        }
    }
}

/// The real engine, timed per call. Byte-identical to [`RealCrypto`] and
/// presenting the same lane count, so the machine batches exactly as
/// untraced.
pub struct TimedCrypto {
    inner: RealCrypto,
    stats: Arc<CryptoStats>,
    spans: Arc<SpanLog>,
}

impl TimedCrypto {
    /// A timed real engine under `cfg`'s key, boxed for `with_engine`.
    pub fn boxed(
        cfg: &SystemConfig,
        stats: &Arc<CryptoStats>,
        spans: &Arc<SpanLog>,
    ) -> Box<dyn CryptoEngine> {
        Box::new(TimedCrypto {
            inner: RealCrypto::new(cfg.secret_key()),
            stats: stats.clone(),
            spans: spans.clone(),
        })
    }

    fn timed<R>(&self, name: &'static str, f: impl FnOnce(&RealCrypto) -> R) -> R {
        let start = Instant::now();
        let r = f(&self.inner);
        let end = Instant::now();
        let s = &self.stats;
        s.ns.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        s.calls.fetch_add(1, Ordering::Relaxed);
        let parent = PARENT.with(Cell::get);
        if parent != 0 {
            self.spans.push(Span {
                id: self.spans.id(),
                parent,
                name,
                start,
                end,
            });
        }
        r
    }
}

impl CryptoEngine for TimedCrypto {
    fn otp(&self, addr: u64, major: u64, minor: u64) -> [u8; 64] {
        self.timed("crypto.otp", |c| c.otp(addr, major, minor))
    }

    fn mac64(&self, msg: &[u8]) -> u64 {
        self.timed("crypto.mac", |c| c.mac64(msg))
    }

    fn mac64_72(&self, msg: &[u8; 72]) -> u64 {
        self.timed("crypto.mac", |c| c.mac64_72(msg))
    }

    fn mac64_88(&self, msg: &[u8; 88]) -> u64 {
        self.timed("crypto.mac", |c| c.mac64_88(msg))
    }

    fn mac_lanes(&self) -> usize {
        self.inner.mac_lanes()
    }

    fn mac64_many(&self, msgs: &[&[u8]], out: &mut [u64]) {
        self.timed("crypto.mac_batch", |c| c.mac64_many(msgs, out))
    }

    fn mac64_72_many(&self, msgs: &[[u8; 72]], out: &mut [u64]) {
        self.timed("crypto.mac_batch", |c| c.mac64_72_many(msgs, out))
    }

    fn mac64_88_many(&self, msgs: &[[u8; 88]], out: &mut [u64]) {
        self.timed("crypto.mac_batch", |c| c.mac64_88_many(msgs, out))
    }
}

/// Host time spent in each layer call.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// Whole operations: the system's own work plus the layers below.
    pub op_ns: u64,
    /// CPU cache hierarchy.
    pub cache_ns: u64,
    /// `write_data` calls and their nanoseconds (crypto included).
    pub writes: u64,
    /// See `writes`.
    pub write_ns: u64,
    /// `read_data` calls and their nanoseconds (crypto included).
    pub reads: u64,
    /// See `reads`.
    pub read_ns: u64,
    /// Waiting for shard locks.
    pub lock_wait_ns: u64,
}

impl std::ops::AddAssign for LayerTimes {
    fn add_assign(&mut self, o: LayerTimes) {
        self.op_ns += o.op_ns;
        self.cache_ns += o.cache_ns;
        self.writes += o.writes;
        self.write_ns += o.write_ns;
        self.reads += o.reads;
        self.read_ns += o.read_ns;
        self.lock_wait_ns += o.lock_wait_ns;
    }
}

/// One machine's CPU side, driven from here: the core model, the cache
/// hierarchy and the ground truth that `SecureNvmSystem` keeps privately.
pub struct Replay {
    cpu: CpuModel,
    hier: CacheHierarchy,
    truth: FxHashMap<u64, [u8; 64]>,
    write_seq: u64,
    times: LayerTimes,
    spans: Arc<SpanLog>,
    op: u64,
}

impl Replay {
    /// A cold core and cache hierarchy for `cfg`.
    pub fn new(cfg: &SystemConfig, spans: &Arc<SpanLog>) -> Replay {
        Replay {
            cpu: CpuModel::new(cfg.cpu),
            hier: CacheHierarchy::new(cfg.hierarchy),
            truth: FxHashMap::default(),
            write_seq: 0,
            times: LayerTimes::default(),
            spans: spans.clone(),
            op: 0,
        }
    }

    /// Runs one operation, recording its span while the log is open.
    fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op = self.spans.begin_op();
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        self.times.op_ns += (end - start).as_nanos() as u64;
        if self.op != 0 {
            self.spans.push(Span {
                id: self.op,
                parent: 0,
                name,
                start,
                end,
            });
            self.op = 0;
        }
        r
    }

    /// Opens a layer span under the current operation.
    fn open(&self) -> (u64, Instant) {
        let id = if self.op != 0 { self.spans.id() } else { 0 };
        PARENT.with(|p| p.set(id));
        (id, Instant::now())
    }

    /// Closes a layer span, returning its nanoseconds.
    fn close(&self, id: u64, name: &'static str, start: Instant) -> u64 {
        let end = Instant::now();
        if id != 0 {
            PARENT.with(|p| p.set(0));
            self.spans.push(Span {
                id,
                parent: self.op,
                name,
                start,
                end,
            });
        }
        (end - start).as_nanos() as u64
    }

    fn cache<R>(&mut self, f: impl FnOnce(&mut CacheHierarchy) -> R) -> R {
        let (id, start) = self.open();
        let r = f(&mut self.hier);
        self.times.cache_ns += self.close(id, "cache", start);
        r
    }

    fn write_data(
        &mut self,
        ctrl: &mut SecureMemoryController,
        addr: u64,
        data: &[u8; 64],
    ) -> Result<u64, IntegrityError> {
        let (id, start) = self.open();
        let r = ctrl.write_data(self.cpu.now, addr, data);
        self.times.write_ns += self.close(id, "engine.write", start);
        self.times.writes += 1;
        r
    }

    fn read_data(
        &mut self,
        ctrl: &mut SecureMemoryController,
        addr: u64,
    ) -> Result<([u8; 64], u64), IntegrityError> {
        let (id, start) = self.open();
        let r = ctrl.read_data(self.cpu.now, addr);
        self.times.read_ns += self.close(id, "engine.read", start);
        self.times.reads += 1;
        r
    }

    fn truth_line(&self, addr: u64) -> [u8; 64] {
        *self
            .truth
            .get(&addr)
            .expect("write-back of a line that was never stored")
    }

    /// `SecureNvmSystem::service_events`.
    fn service(
        &mut self,
        ctrl: &mut SecureMemoryController,
        events: &[MemEvent],
    ) -> Result<Option<u64>, IntegrityError> {
        let mut fill = None;
        for ev in events {
            match *ev {
                MemEvent::WriteBack { addr } => {
                    let data = self.truth_line(addr);
                    self.write_data(ctrl, addr, &data)?;
                }
                MemEvent::Fill { addr } => {
                    let (data, ready) = self.read_data(ctrl, addr)?;
                    if let Some(expected) = self.truth.get(&addr) {
                        assert_eq!(
                            &data, expected,
                            "decrypted fill diverged from stored plaintext at {addr:#x}"
                        );
                    }
                    fill = Some(ready.saturating_sub(self.cpu.now));
                }
                MemEvent::Prefetch { addr } => {
                    if ctrl.layout().is_data(addr) {
                        self.read_data(ctrl, addr)?;
                    }
                }
            }
        }
        Ok(fill)
    }

    /// One iteration of `SecureNvmSystem::run_trace`.
    pub fn trace_op(
        &mut self,
        ctrl: &mut SecureMemoryController,
        op: TraceOp,
    ) -> Result<(), IntegrityError> {
        let name = match op.kind {
            OpKind::Load => "op.load",
            OpKind::Store => "op.store",
            OpKind::Flush => "op.flush",
        };
        self.op(name, |r| {
            if op.gap > 0 {
                r.cpu.compute(op.gap as u64);
            }
            match op.kind {
                OpKind::Load => {
                    let acc = r.cache(|h| h.access(op.addr, false));
                    let fill = r.service(ctrl, &acc.events)?;
                    r.cpu.load(acc.on_chip_cycles, fill);
                }
                OpKind::Store => {
                    let acc = r.cache(|h| h.access(op.addr, true));
                    let fill = r.service(ctrl, &acc.events)?;
                    r.write_seq += 1;
                    r.truth.insert(op.addr, synth_data(op.addr, r.write_seq));
                    r.cpu.load(acc.on_chip_cycles, fill);
                }
                OpKind::Flush => {
                    if let Some(MemEvent::WriteBack { addr }) = r.cache(|h| h.flush_line(op.addr)) {
                        let data = r.truth_line(addr);
                        let t = r.write_data(ctrl, addr, &data)?;
                        let stall = t.saturating_sub(r.cpu.now);
                        r.cpu.store(2, stall);
                    } else {
                        r.cpu.compute(1);
                    }
                }
            }
            Ok(())
        })
    }

    /// `SecureNvmSystem::write`: store + clwb of one line.
    pub fn write(
        &mut self,
        ctrl: &mut SecureMemoryController,
        addr: u64,
        data: &[u8; 64],
    ) -> Result<(), IntegrityError> {
        self.op("op.write", |r| {
            let acc = r.cache(|h| h.access(addr, true));
            r.service(ctrl, &acc.events)?;
            let prev = r.truth.insert(addr, *data);
            if let Some(MemEvent::WriteBack { addr: wb }) = r.cache(|h| h.flush_line(addr)) {
                let line = r.truth_line(wb);
                if let Err(e) = r.write_data(ctrl, wb, &line) {
                    match prev {
                        Some(p) => r.truth.insert(addr, p),
                        None => r.truth.remove(&addr),
                    };
                    return Err(e);
                }
            }
            Ok(())
        })
    }

    /// `SecureNvmSystem::read`.
    pub fn read(
        &mut self,
        ctrl: &mut SecureMemoryController,
        addr: u64,
    ) -> Result<[u8; 64], IntegrityError> {
        self.op("op.read", |r| {
            let acc = r.cache(|h| h.access(addr, false));
            let mut from_mem = None;
            for ev in &acc.events {
                match *ev {
                    MemEvent::WriteBack { addr: a } => {
                        let data = r.truth_line(a);
                        r.write_data(ctrl, a, &data)?;
                    }
                    MemEvent::Fill { addr: a } => from_mem = Some(r.read_data(ctrl, a)?.0),
                    MemEvent::Prefetch { addr: a } => {
                        if ctrl.layout().is_data(a) {
                            r.read_data(ctrl, a)?;
                        }
                    }
                }
            }
            Ok(from_mem.unwrap_or_else(|| r.truth.get(&addr).copied().unwrap_or([0u8; 64])))
        })
    }

    /// The machine's registry as `run_trace` would report it. `report()`
    /// reads the controller's own layers; the core and caches it holds were
    /// never driven (this replay drove its own), so they export zeros and
    /// the replay's counters are added on top.
    pub fn report(&self, sys: &SecureNvmSystem) -> steins_core::RunReport {
        let mut report = sys.report();
        let reg = &mut report.metrics;
        self.hier.export_metrics(reg);
        reg.counter_add("core.cpu.cycles", self.cpu.now);
        reg.counter_add("core.cpu.instructions", self.cpu.instructions);
        reg.counter_add("core.cpu.read_stall_cycles", self.cpu.read_stall_cycles);
        reg.counter_add("core.cpu.write_stall_cycles", self.cpu.write_stall_cycles);
        report.cycles = self.cpu.now;
        report
    }
}

/// One traced session's measurements.
#[derive(Debug, Default)]
pub struct Traced {
    /// Host seconds of the separate generation pass.
    pub gen_s: f64,
    /// The session; its `model` must equal the untraced one's.
    pub rep: Rep,
    /// Host time per layer during the serve phase.
    pub times: LayerTimes,
    /// Host threads the serve phase ran on.
    pub threads: usize,
    /// Crypto work during the serve phase.
    pub crypto: CryptoCounts,
}

/// Runs one traced session of `spec` on its end-to-end thread count.
pub fn traced_session(spec: Spec, seed: u64, spans: &Arc<SpanLog>) -> Traced {
    let stats = Arc::new(CryptoStats::default());
    match spec {
        Spec::Trace { kind, mode, ops } => trace_traced(kind, mode, ops, seed, &stats, spans),
        Spec::Kv { requests } => kv_traced(requests, seed, &stats, spans),
        Spec::Recover { mb } => recover_traced(mb, seed, &stats, spans),
    }
}

fn trace_traced(
    kind: steins_trace::WorkloadKind,
    mode: steins_core::CounterMode,
    ops: u64,
    seed: u64,
    stats: &Arc<CryptoStats>,
    spans: &Arc<SpanLog>,
) -> Traced {
    let mut out = Traced {
        threads: 1,
        ..Traced::default()
    };
    let t = Instant::now();
    let trace: Vec<TraceOp> = Workload::new(kind, ops, seed).generate().collect();
    out.gen_s = secs(t);

    let cfg = trace_config(mode);
    let rep = &mut out.rep;
    let t = Instant::now();
    let mut sys = SecureNvmSystem::with_engine(cfg.clone(), TimedCrypto::boxed(&cfg, stats, spans));
    rep.setup_s = secs(t);
    let mut replay = Replay::new(&cfg, spans);
    let before = stats.counts();
    let t = Instant::now();
    let served = guarded("serve", || {
        trace
            .iter()
            .try_for_each(|op| replay.trace_op(&mut sys.ctrl, *op))
    });
    rep.serve_s = secs(t);
    out.crypto = stats.counts() - before;
    out.times = replay.times;
    rep.ops = ops;
    if let Err(e) = served {
        rep.fail(e);
        return out;
    }
    let report = replay.report(&sys);
    rep.model.add_machine(None, report.cycles, &report);

    let crashed = sys.crash().with_recovery_lanes(1);
    let t = Instant::now();
    let recovered = guarded("recovery", || crashed.recover());
    rep.recovery_s = secs(t);
    match recovered {
        Ok((_, rr)) => {
            rep.model.registry.merge(&rr.metrics);
            rep.region_recovered(rr.nvm_reads);
        }
        Err(e) => rep.fail(e),
    }
    out
}

/// Replaces shard `s`'s machine with a fresh one around the timed engine.
fn install_timed(engine: &ShardedEngine, s: usize, stats: &Arc<CryptoStats>, spans: &Arc<SpanLog>) {
    let cfg = engine.shard_config().clone();
    drop(engine.take_shard(s));
    let mut sys = SecureNvmSystem::with_engine(cfg.clone(), TimedCrypto::boxed(&cfg, stats, spans));
    sys.ctrl.nvm_mut().set_shard(s as u16);
    engine.put_shard(s, sys);
}

fn kv_traced(requests: u64, seed: u64, stats: &Arc<CryptoStats>, spans: &Arc<SpanLog>) -> Traced {
    let mut out = Traced {
        threads: 2,
        ..Traced::default()
    };
    let t = Instant::now();
    let streams = kv_streams(seed, requests);
    out.gen_s = secs(t);

    let rep = &mut out.rep;
    let t = Instant::now();
    let engine = ShardedEngine::new(trace_config(CounterMode::General), KV_SHARDS);
    for s in 0..KV_SHARDS {
        install_timed(&engine, s, stats, spans);
    }
    let replays: Vec<Mutex<Replay>> = (0..KV_SHARDS)
        .map(|_| Mutex::new(Replay::new(engine.shard_config(), spans)))
        .collect();
    rep.setup_s = secs(t);

    let waits = Mutex::new(LayerTimes::default());
    let before = stats.counts();
    let t = Instant::now();
    let runs = run_clients(&streams, 2, |stream| {
        let (run, times) = traced_client(&engine, &replays, stream);
        *waits.lock().expect("wait tally lock") += times;
        run
    });
    rep.serve_s = secs(t);
    out.crypto = stats.counts() - before;
    out.times = waits.into_inner().expect("wait tally lock");
    settle_clients(rep, runs);

    for (s, replay) in replays.iter().enumerate() {
        let replay = replay.lock().expect("replay lock");
        out.times += replay.times;
        engine.with_shard(s, |sys| {
            rep.model
                .add_machine(Some(s), sys.sim_cycles(), &replay.report(sys))
        });
    }
    crash_and_recover(rep, &engine, 2);
    out
}

/// A kv client issuing its requests through [`Replay`] under the shard
/// lock, as `ShardedEngine::write`/`read` do through the machine's own copy.
fn traced_client(
    engine: &ShardedEngine,
    replays: &[Mutex<Replay>],
    stream: &[Req],
) -> (ClientRun, LayerTimes) {
    let mut run = ClientRun::default();
    let mut times = LayerTimes::default();
    for (i, &req) in stream.iter().enumerate() {
        let (version, data) = kv_payload(req.line, i);
        let (s, local) = engine.map().route(req.line * 64);
        let call = Instant::now();
        let (got, waited) = engine.with_shard(s, |sys| {
            let waited = call.elapsed();
            let mut replay = replays[s].lock().expect("replay lock");
            let got = if req.write {
                replay.write(&mut sys.ctrl, local, &data).map(|()| None)
            } else {
                replay.read(&mut sys.ctrl, local).map(Some)
            };
            (got, waited)
        });
        times.lock_wait_ns += waited.as_nanos() as u64;
        run.op_ns.push(ns32(call.elapsed()));
        run.settle(req, version, got);
    }
    (run, times)
}

fn recover_traced(mb: u64, seed: u64, stats: &Arc<CryptoStats>, spans: &Arc<SpanLog>) -> Traced {
    let mut out = Traced {
        threads: 1,
        ..Traced::default()
    };
    let rep = &mut out.rep;
    let t = Instant::now();
    let engine = ShardedEngine::new(recover_config(mb), RECOVER_SHARDS);
    for s in 0..RECOVER_SHARDS {
        install_timed(&engine, s, stats, spans);
    }
    rep.setup_s = secs(t);
    let shard_cfg = engine.shard_config().clone();

    let t = Instant::now();
    let traces: Vec<Vec<TraceOp>> = (0..RECOVER_SHARDS)
        .map(|s| fill_workload(&shard_cfg, seed, s).generate().collect())
        .collect();
    out.gen_s = secs(t);

    let before = stats.counts();
    let t = Instant::now();
    let mut reports = Vec::new();
    for (s, trace) in traces.iter().enumerate() {
        let mut replay = Replay::new(&shard_cfg, spans);
        let call = Instant::now();
        reports.push(engine.with_shard(s, |sys| {
            replay.times.lock_wait_ns += call.elapsed().as_nanos() as u64;
            guarded("fill", || {
                trace
                    .iter()
                    .try_for_each(|op| replay.trace_op(&mut sys.ctrl, *op))
            })
            .map(|()| replay.report(sys))
        }));
        out.times += replay.times;
    }
    rep.serve_s = secs(t);
    out.crypto = stats.counts() - before;

    rep.ops = traces
        .iter()
        .flatten()
        .filter(|op| op.kind != OpKind::Flush)
        .count() as u64;
    finish_recover(rep, &engine, reports, mb, 2);
    out
}
