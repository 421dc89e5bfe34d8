//! Chaos mode: faults injected under live multi-shard serving traffic.
//! Unlike the crash harness ([`crate::crash::CrashSweep`]), which cuts power
//! on one machine at chosen persist points, chaos keeps an engine serving
//! while the faults land ([`ChaosConfig`]).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use steins_metadata::CounterMode;
use steins_obs::{Alarm, AlarmKind, AlarmLog, MetricRegistry};
use steins_trace::rng::SmallRng;
use steins_trace::Zipf;

use crate::config::{SchemeKind, SystemConfig};
use crate::crash::draw_mask;
use crate::engine::synth_data;
use crate::error::IntegrityError;
use crate::online::OnlinePolicy;
use crate::par;
use crate::shard::{RepairOutcome, ShardedEngine};

/// Chaos-mode parameters. Chaos mode keeps a [`ShardedEngine`] *serving* a
/// Zipfian write mix from worker threads while media faults, torn writes,
/// and whole-shard crashes land mid traffic — and checks graceful
/// degradation: no panic ever escapes, no acknowledged read is silently
/// wrong, and (with the online integrity service enabled) every injected
/// fault ends up healed or quarantined behind a typed alarm.
///
/// Everything is seeded: each shard's op stream, fault schedule, and
/// modeled clock are independent of the host thread schedule, so the
/// report — event log, alarm log, metrics — is byte-identical for a fixed
/// seed no matter how many worker threads serve it.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed for every per-shard stream and fault schedule.
    pub seed: u64,
    /// Shard count of the engine under test.
    pub shards: usize,
    /// Serving worker threads (affects wall-clock only, never the report).
    pub threads: usize,
    /// Operations served per shard.
    pub ops_per_shard: usize,
    /// Faults injected per shard, spread over its op stream.
    pub faults_per_shard: usize,
    /// The online integrity service's policy, or `None` to serve without
    /// the service.
    pub policy: Option<OnlinePolicy>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            shards: 4,
            threads: 4,
            ops_per_shard: 192,
            faults_per_shard: 5,
            policy: Some(OnlinePolicy {
                scrub_period_ops: 16,
                scrub_batch_lines: 4,
                throttle_occupancy: 0.9,
            }),
        }
    }
}

/// One scheduled chaos fault (addresses are shard-local data lines).
#[derive(Clone, Copy, Debug)]
enum ChaosFault {
    /// Silent storage corruption: one bit of a data line flips.
    BitFlip { line: u64, byte: usize, bit: u8 },
    /// Stuck-at media fault: reads of the line return a fixed pattern.
    Stuck { line: u64, fill: u8 },
    /// Uncorrectable media fault: the line stops being readable.
    Unreadable { line: u64 },
    /// Transient read fault: the next `failures` reads fail, then heal
    /// (or exhaust the device's retry budget and promote to permanent).
    Transient { line: u64, failures: u32 },
    /// Power-fail the whole shard `delay` persist transitions from now,
    /// tearing the tripping line with `mask` (0xFF = clean cut).
    ShardCrash { delay: u64, mask: u8 },
}

impl ChaosFault {
    fn label(&self) -> &'static str {
        match self {
            ChaosFault::BitFlip { .. } => "bit-flip",
            ChaosFault::Stuck { .. } => "stuck",
            ChaosFault::Unreadable { .. } => "unreadable",
            ChaosFault::Transient { .. } => "transient",
            ChaosFault::ShardCrash { .. } => "shard-crash",
        }
    }
}

/// A shard's precomputed chaos schedule.
struct ChaosPlan {
    /// `(local data line, is_write)` per op.
    ops: Vec<(u64, bool)>,
    /// `(op index, fault)` — injected just before serving that op.
    faults: Vec<(usize, ChaosFault)>,
}

/// Aggregated chaos-run results. [`Self::clean`] is the CI gate.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Seed the run used.
    pub seed: u64,
    /// Shards served.
    pub shards: usize,
    /// Operations attempted across all shards.
    pub ops_attempted: u64,
    /// Operations that completed `Ok`.
    pub served_ok: u64,
    /// Operations that failed with a *typed* [`crate::IntegrityError`]
    /// (degraded shard, quarantined line, MAC/media detection) — graceful
    /// degradation, not failure.
    pub typed_errors: u64,
    /// Panics that escaped an operation. Must be zero.
    pub unwinds: u64,
    /// Reads acknowledged `Ok` with wrong bytes. Must be zero.
    pub silent_wrong: u64,
    /// Whole-shard power cuts tripped mid-run, each answered by one
    /// [`ShardedEngine::repair_shard`].
    pub crashes_recovered: u64,
    /// Media faults injected (bit flips, stuck, unreadable, transient).
    pub faults_injected: u64,
    /// Faults skipped because their shard was degraded at injection time.
    pub faults_skipped_degraded: u64,
    /// Injected faults whose line verifies clean again after the drain
    /// pass (transient consumed by retries, or overwritten by traffic).
    pub faults_healed: u64,
    /// Injected faults whose line is quarantined behind an alarm.
    pub faults_quarantined: u64,
    /// Faults neither healed nor quarantined (with a `policy`, must be
    /// empty; shard-granular degradation also accounts).
    pub unaccounted_faults: Vec<String>,
    /// Quarantined lines missing a matching alarm (must be empty).
    pub alarm_shape_violations: Vec<String>,
    /// Every alarm raised, in canonical order (engine lifecycle + every
    /// shard's service log).
    pub alarms: AlarmLog,
    /// Human-readable event log, shard-major then op order.
    pub events: Vec<String>,
    /// Deterministic modeled makespan (max shard clock).
    pub makespan_cycles: u64,
    /// Shards still parked degraded at the end of the run.
    pub degraded_shards: Vec<u16>,
    /// Shards parked by a repair that rebuilt nothing.
    pub parked_shards: Vec<u16>,
    /// Tripped shards a repair rebuilt, re-verified, and returned to
    /// `Serving` mid-run.
    pub shards_restored: u64,
    /// Tripped shards a repair parked mid-run.
    pub shards_parked: u64,
}

impl ChaosReport {
    /// The chaos contract: no escaped panic, no silently wrong ack, every
    /// quarantined line behind an alarm, when the scrub ran every injected
    /// fault accounted for (healed, quarantined, or its whole shard
    /// degraded), and every shard either `Serving` again or parked behind
    /// its alarm trail: a shard left `Degraded` but un-parked means a repair
    /// abandoned it without a verdict.
    pub fn clean(&self) -> bool {
        self.unwinds == 0
            && self.silent_wrong == 0
            && self.alarm_shape_violations.is_empty()
            && self.unaccounted_faults.is_empty()
            && self.abandoned_shards().is_empty()
    }

    /// Shards left degraded without a repair verdict (degraded, not parked).
    fn abandoned_shards(&self) -> Vec<u16> {
        self.degraded_shards
            .iter()
            .copied()
            .filter(|s| !self.parked_shards.contains(s))
            .collect()
    }

    /// Exports the chaos counters under `core.chaos.` plus the alarm
    /// counters.
    pub fn metrics(&self) -> MetricRegistry {
        let mut m = MetricRegistry::new();
        m.counter_add("core.chaos.ops", self.ops_attempted);
        m.counter_add("core.chaos.served_ok", self.served_ok);
        m.counter_add("core.chaos.typed_errors", self.typed_errors);
        m.counter_add("core.chaos.unwinds", self.unwinds);
        m.counter_add("core.chaos.silent_wrong", self.silent_wrong);
        m.counter_add("core.chaos.crashes_recovered", self.crashes_recovered);
        m.counter_add("core.chaos.faults.injected", self.faults_injected);
        m.counter_add(
            "core.chaos.faults.skipped_degraded",
            self.faults_skipped_degraded,
        );
        m.counter_add("core.chaos.faults.healed", self.faults_healed);
        m.counter_add("core.chaos.faults.quarantined", self.faults_quarantined);
        m.counter_add(
            "core.chaos.faults.unaccounted",
            self.unaccounted_faults.len() as u64,
        );
        m.counter_add(
            "core.chaos.alarm_shape_violations",
            self.alarm_shape_violations.len() as u64,
        );
        m.counter_add("core.chaos.repairs.restored", self.shards_restored);
        m.counter_add("core.chaos.repairs.parked", self.shards_parked);
        m.gauge_set("core.chaos.makespan_cycles", self.makespan_cycles as f64);
        m.gauge_set(
            "core.chaos.shards.degraded",
            self.degraded_shards.len() as f64,
        );
        m.gauge_set("core.chaos.shards.parked", self.parked_shards.len() as f64);
        m.merge(&self.alarms.metrics());
        m
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos seed {:#x}: {} shards, {} ops ({} ok, {} typed), \
             {} unwinds, {} silent-wrong, {} crashes recovered",
            self.seed,
            self.shards,
            self.ops_attempted,
            self.served_ok,
            self.typed_errors,
            self.unwinds,
            self.silent_wrong,
            self.crashes_recovered,
        )?;
        writeln!(
            f,
            "  faults: {} injected ({} skipped on degraded shards) -> \
             {} healed, {} quarantined, {} unaccounted; {} alarms",
            self.faults_injected,
            self.faults_skipped_degraded,
            self.faults_healed,
            self.faults_quarantined,
            self.unaccounted_faults.len(),
            self.alarms.len(),
        )?;
        if self.crashes_recovered > 0 {
            writeln!(
                f,
                "  repair: {} restored, {} parked permanently \
                 ({} shards parked at end)",
                self.shards_restored,
                self.shards_parked,
                self.parked_shards.len(),
            )?;
        }
        if self.clean() {
            write!(f, "  PASS: graceful degradation held")?;
        } else {
            writeln!(f, "  FAIL:")?;
            for e in self
                .unaccounted_faults
                .iter()
                .chain(self.alarm_shape_violations.iter())
            {
                writeln!(f, "  - {e}")?;
            }
            for s in self.abandoned_shards() {
                writeln!(f, "  - shard {s} left degraded without a repair verdict")?;
            }
        }
        Ok(())
    }
}

/// Per-shard serving outcome, merged into the [`ChaosReport`] in shard
/// order after the workers join.
#[derive(Default)]
struct ShardOutcome {
    served_ok: u64,
    typed_errors: u64,
    unwinds: u64,
    silent_wrong: u64,
    crashes_recovered: u64,
    faults_injected: u64,
    faults_skipped_degraded: u64,
    /// `(local line addr, fault label)` of every injected media fault.
    media_faults: Vec<(u64, &'static str)>,
    /// Global-address ground truth of every acknowledged write.
    expected: HashMap<u64, [u8; 64]>,
    /// Lines whose durable state a mid-write power cut left undefined.
    indeterminate: HashSet<u64>,
    events: Vec<String>,
    healed: u64,
    quarantined: u64,
    unaccounted: Vec<String>,
    shards_restored: u64,
    shards_parked: u64,
}

fn draw_chaos_fault(rng: &mut SmallRng, lines: u64) -> ChaosFault {
    let line = rng.next_u64() % lines;
    match rng.next_u64() % 5 {
        0 => ChaosFault::BitFlip {
            line,
            byte: (rng.next_u64() % 64) as usize,
            bit: (rng.next_u64() % 8) as u8,
        },
        1 => ChaosFault::Stuck {
            line,
            fill: (rng.next_u64() & 0xFF) as u8,
        },
        2 => ChaosFault::Unreadable { line },
        3 => ChaosFault::Transient {
            line,
            failures: if rng.next_u64() % 4 == 0 {
                64 // past the retry budget: promotes to permanent
            } else {
                1 + (rng.next_u64() % 2) as u32
            },
        },
        _ => ChaosFault::ShardCrash {
            delay: rng.next_u64() % 12,
            mask: draw_mask(rng),
        },
    }
}

fn chaos_plan(cfg: &ChaosConfig, shard: usize, lines: u64) -> ChaosPlan {
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed ^ (shard as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let universe = lines.clamp(1, 128);
    // θ = 0.99, the YCSB default, matches the stress bench's hot-set mix.
    let zipf = Zipf::new(universe, 0.99);
    let ops = (0..cfg.ops_per_shard)
        .map(|_| {
            let line = zipf.sample(&mut rng);
            let is_write = rng.next_u64() % 3 != 0; // write-heavy mix
            (line, is_write)
        })
        .collect();
    let mut faults: Vec<(usize, ChaosFault)> = (0..cfg.faults_per_shard)
        .map(|_| {
            let idx = (rng.next_u64() % cfg.ops_per_shard.max(1) as u64) as usize;
            (idx, draw_chaos_fault(&mut rng, universe))
        })
        .collect();
    faults.sort_by_key(|&(i, _)| i);
    ChaosPlan { ops, faults }
}

/// Injects one fault into shard `s`. Degraded shards are skipped (their
/// media is already behind a typed wall).
fn inject_chaos_fault(
    engine: &ShardedEngine,
    s: usize,
    i: usize,
    fault: ChaosFault,
    out: &mut ShardOutcome,
    armed_mask: &mut Option<u8>,
) {
    if engine.is_degraded(s) {
        out.faults_skipped_degraded += 1;
        out.events.push(format!(
            "s{s} op{i}: skip {} (shard degraded)",
            fault.label()
        ));
        return;
    }
    out.faults_injected += 1;
    out.events.push(format!("s{s} op{i}: inject {:?}", fault));
    match fault {
        ChaosFault::BitFlip { line, byte, bit } => {
            engine.with_shard(s, |sys| sys.ctrl.nvm.inject_bit_flip(line * 64, byte, bit));
            out.media_faults.push((line * 64, fault.label()));
        }
        ChaosFault::Stuck { line, fill } => {
            engine.with_shard(s, |sys| {
                sys.ctrl.nvm.inject_stuck_line(line * 64, [fill; 64])
            });
            out.media_faults.push((line * 64, fault.label()));
        }
        ChaosFault::Unreadable { line } => {
            engine.with_shard(s, |sys| sys.ctrl.nvm.inject_unreadable(line * 64));
            out.media_faults.push((line * 64, fault.label()));
        }
        ChaosFault::Transient { line, failures } => {
            engine.with_shard(s, |sys| {
                sys.ctrl
                    .nvm
                    .inject_transient_unreadable(line * 64, failures)
            });
            out.media_faults.push((line * 64, fault.label()));
        }
        ChaosFault::ShardCrash { delay, mask } => {
            engine.with_shard(s, |sys| {
                let at = sys.ctrl.nvm.persist_seq() + 1 + delay;
                sys.ctrl.nvm.arm_crash_torn(at, mask);
            });
            *armed_mask = Some(mask);
        }
    }
}

/// The power-fail path. The cut left the tripped shard `Degraded` (one
/// lifecycle alarm) with its system in the slot; the trip point is read, the
/// device disarmed there, and the shard comes back through one
/// [`ShardedEngine::repair_shard`].
fn recover_tripped_shard(
    engine: &ShardedEngine,
    s: usize,
    i: usize,
    out: &mut ShardOutcome,
    armed_mask: &mut Option<u8>,
) {
    // The power cut drops dirty CPU-cache lines: a previously acknowledged
    // write may come back as an *older* acknowledged version. Durability
    // across crashes is the crash sweep's contract, not chaos's — chaos
    // checks detection — so every pre-crash expectation turns
    // indeterminate until traffic rewrites the line.
    out.indeterminate
        .extend(out.expected.drain().map(|(a, _)| a));
    let (trip, quarantined) = engine.with_shard(s, |sys| {
        let trip = sys.ctrl.nvm.tripped_at();
        sys.ctrl.nvm.disarm_crash();
        (trip, sys.online().map_or(0, |o| o.quarantined().count()))
    });
    if armed_mask.take().map(|m| m != 0xFF) == Some(true) {
        engine.raise_alarm(Alarm {
            kind: AlarmKind::TornWrite,
            shard: s as u16,
            addr: trip.map(|p| p.addr),
            cycle: 0,
        });
    }
    let trip_seq = trip.map(|p| p.seq);
    out.crashes_recovered += 1;
    match engine.repair_shard(s) {
        RepairOutcome::Restored(scrub) => {
            out.shards_restored += 1;
            out.events.push(format!(
                "s{s} op{i}: crash tripped at {trip_seq:?}, repaired online \
                 (data unrec {}, {quarantined} quarantined replayed)",
                scrub.data_unrecoverable,
            ));
        }
        RepairOutcome::Parked => {
            out.shards_parked += 1;
            out.events.push(format!(
                "s{s} op{i}: crash tripped at {trip_seq:?}, nothing rebuilt, \
                 shard parked"
            ));
        }
        RepairOutcome::NotDegraded => unreachable!("a power cut leaves shard {s} degraded"),
    }
}

/// Serves shard `s`'s whole chaos schedule. Entirely shard-local (own op
/// stream, own fault schedule, own modeled clock), so the outcome is
/// independent of which worker thread runs it and when.
fn serve_chaos_shard(
    cfg: &ChaosConfig,
    engine: &ShardedEngine,
    s: usize,
    plan: &ChaosPlan,
) -> ShardOutcome {
    let mut out = ShardOutcome::default();
    let mut armed_mask: Option<u8> = None;
    let mut next_fault = 0usize;
    let mut seq = 0u64;
    for (i, &(line, is_write)) in plan.ops.iter().enumerate() {
        while next_fault < plan.faults.len() && plan.faults[next_fault].0 <= i {
            let (_, fault) = plan.faults[next_fault];
            next_fault += 1;
            inject_chaos_fault(engine, s, i, fault, &mut out, &mut armed_mask);
        }
        let gaddr = engine.map().global_line(s, line) * 64;
        if is_write {
            seq += 1;
            let data = synth_data(gaddr, seq);
            match catch_unwind(AssertUnwindSafe(|| engine.write(gaddr, &data))) {
                Ok(Ok(())) => {
                    out.served_ok += 1;
                    out.expected.insert(gaddr, data);
                    out.indeterminate.remove(&gaddr);
                }
                Ok(Err(IntegrityError::PowerCut)) => {
                    // The cut may or may not have persisted this write.
                    out.expected.remove(&gaddr);
                    out.indeterminate.insert(gaddr);
                    recover_tripped_shard(engine, s, i, &mut out, &mut armed_mask);
                }
                Ok(Err(_)) => out.typed_errors += 1,
                Err(_) => {
                    out.unwinds += 1;
                    out.events.push(format!("s{s} op{i}: write panicked"));
                }
            }
        } else {
            match catch_unwind(AssertUnwindSafe(|| engine.read(gaddr))) {
                Ok(Ok(got)) => {
                    out.served_ok += 1;
                    if !out.indeterminate.contains(&gaddr) {
                        if let Some(want) = out.expected.get(&gaddr) {
                            if got != *want {
                                out.silent_wrong += 1;
                                out.events
                                    .push(format!("s{s} op{i}: read {gaddr:#x} wrong as Ok"));
                            }
                        }
                    }
                }
                Ok(Err(IntegrityError::PowerCut)) => {
                    recover_tripped_shard(engine, s, i, &mut out, &mut armed_mask);
                }
                Ok(Err(_)) => out.typed_errors += 1,
                Err(_) => {
                    out.unwinds += 1;
                    out.events.push(format!("s{s} op{i}: read panicked"));
                }
            }
        }
    }
    // Disarm any crash that never tripped, then — if any media fault hit
    // this shard — run the settling pass so every surviving fault gets
    // classified before accounting. Fault-free shards skip the drain:
    // incremental patrol is the service's steady state, and the full pass
    // would dominate the scrub-overhead measurement.
    if !engine.is_degraded(s) {
        engine.with_shard(s, |sys| sys.ctrl.nvm.disarm_crash());
        if cfg.policy.is_some() && !out.media_faults.is_empty() {
            engine.with_shard(s, |sys| sys.online_scrub_pass());
        }
    }
    // Fault accounting: healed, quarantined, or the whole shard is parked.
    for &(laddr, label) in &out.media_faults {
        if engine.is_degraded(s) {
            out.quarantined += 1; // shard-granular: behind the typed wall
            continue;
        }
        let (quarantined, readable) = engine.with_shard(s, |sys| {
            (
                sys.online().is_some_and(|o| o.is_quarantined(laddr)),
                sys.ctrl.nvm.is_readable(laddr),
            )
        });
        if quarantined {
            out.quarantined += 1;
        } else if readable {
            out.healed += 1;
        } else if cfg.policy.is_some() {
            out.unaccounted.push(format!(
                "s{s} {label} at local {laddr:#x}: unreadable yet not quarantined"
            ));
        }
    }
    out
}

/// Runs chaos mode: `cfg.threads` workers serve `cfg.shards` shards'
/// schedules off one shared job queue while faults land mid-traffic, then
/// a single-threaded verification sweep re-reads every acknowledged line.
/// The engine runs Steins in split-counter mode: chaos exercises the
/// paper's design.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let sys_cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::Split);
    let engine = ShardedEngine::new(sys_cfg, cfg.shards);
    if let Some(policy) = cfg.policy {
        engine.enable_online(policy);
    }
    let plans: Vec<(usize, ChaosPlan)> = (0..cfg.shards)
        .map(|s| (s, chaos_plan(cfg, s, engine.shard_config().data_lines)))
        .collect();
    let outcomes = par::run_regions(cfg.threads, plans, |(s, plan)| {
        serve_chaos_shard(cfg, &engine, s, &plan)
    });

    let mut report = ChaosReport {
        seed: cfg.seed,
        shards: cfg.shards,
        ops_attempted: (cfg.shards * cfg.ops_per_shard) as u64,
        ..ChaosReport::default()
    };
    for out in &outcomes {
        report.served_ok += out.served_ok;
        report.typed_errors += out.typed_errors;
        report.unwinds += out.unwinds;
        report.silent_wrong += out.silent_wrong;
        report.crashes_recovered += out.crashes_recovered;
        report.faults_injected += out.faults_injected;
        report.faults_skipped_degraded += out.faults_skipped_degraded;
        report.faults_healed += out.healed;
        report.faults_quarantined += out.quarantined;
        report.shards_restored += out.shards_restored;
        report.shards_parked += out.shards_parked;
        report
            .unaccounted_faults
            .extend(out.unaccounted.iter().cloned());
        report.events.extend(out.events.iter().cloned());
    }

    // Verification sweep: every acknowledged line reads back correct or
    // fails typed — never wrong-as-Ok, never a panic.
    for (s, out) in outcomes.iter().enumerate() {
        let mut addrs: Vec<u64> = out.expected.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            match catch_unwind(AssertUnwindSafe(|| engine.read(addr))) {
                Ok(Ok(got)) => {
                    if got != out.expected[&addr] {
                        report.silent_wrong += 1;
                        report
                            .events
                            .push(format!("s{s} verify: {addr:#x} wrong as Ok"));
                    }
                }
                Ok(Err(_)) => report.typed_errors += 1,
                Err(_) => {
                    report.unwinds += 1;
                    report
                        .events
                        .push(format!("s{s} verify: read {addr:#x} panicked"));
                }
            }
        }
    }

    // Alarm shape: every quarantined line must sit behind at least one
    // alarm carrying its (shard, addr).
    let drained = engine.drain_alarms();
    for s in 0..cfg.shards {
        if engine.is_degraded(s) {
            continue;
        }
        let quarantined: Vec<u64> = engine.with_shard(s, |sys| match sys.online() {
            Some(o) => o.quarantined().collect(),
            None => Vec::new(),
        });
        for laddr in quarantined {
            let covered = drained
                .events()
                .iter()
                .any(|a| a.shard == s as u16 && a.addr == Some(laddr));
            if !covered {
                report.alarm_shape_violations.push(format!(
                    "s{s} local {laddr:#x} quarantined without an alarm"
                ));
            }
        }
    }
    let mut alarms = AlarmLog::new();
    for a in drained.canonical() {
        alarms.raise(a);
    }
    report.alarms = alarms;
    report.makespan_cycles = engine.sim_cycles();
    report.degraded_shards = engine.degraded_shards();
    report.parked_shards = engine.parked_shards();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_smoke_degrades_gracefully() {
        let r = run_chaos(&ChaosConfig::default());
        assert!(r.clean(), "chaos failed:\n{r}");
        assert_eq!(r.unwinds, 0, "panics escaped:\n{r}");
        assert_eq!(r.silent_wrong, 0, "silently wrong acks:\n{r}");
        assert!(r.faults_injected > 0, "no faults drawn — widen the plan");
        assert!(
            r.served_ok > 0,
            "nothing served despite {} ops",
            r.ops_attempted
        );
        // The fault mix makes shard crashes likely across 4 shards; with
        // the default seed at least one must trip and be repaired.
        assert!(r.crashes_recovered > 0, "no crash exercised:\n{r}");
    }

    #[test]
    fn chaos_with_repair_restores_or_parks_every_shard() {
        let r = run_chaos(&ChaosConfig::default());
        assert!(r.clean(), "shard left degraded but un-parked:\n{r}");
        assert!(r.crashes_recovered > 0, "no crash exercised:\n{r}");
        assert_eq!(
            r.shards_restored + r.shards_parked,
            r.crashes_recovered,
            "every tripped shard needs a repair verdict:\n{r}"
        );
        // A restored shard announces itself: started + restored alarms.
        let count =
            |kind: AlarmKind| r.alarms.events().iter().filter(|a| a.kind == kind).count() as u64;
        assert_eq!(count(AlarmKind::ShardRepairStarted), r.crashes_recovered);
        assert_eq!(count(AlarmKind::ShardRestored), r.shards_restored);
    }

    /// Runs `cfg` at 1, 2, 4 and 8 worker threads, asserts that every run
    /// matches the single-threaded one — a chaos run is a function of its
    /// config alone — and returns that run.
    fn run_at_every_worker_count(cfg: ChaosConfig) -> ChaosReport {
        let run = |threads| {
            run_chaos(&ChaosConfig {
                threads,
                ..cfg.clone()
            })
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            let other = run(threads);
            assert_eq!(one.events, other.events, "event logs diverged");
            assert_eq!(
                one.alarms.to_json().pretty(),
                other.alarms.to_json().pretty(),
                "alarm logs diverged"
            );
            assert_eq!(
                one.metrics().to_json_deterministic().pretty(),
                other.metrics().to_json_deterministic().pretty(),
                "metrics diverged"
            );
            assert_eq!(one.makespan_cycles, other.makespan_cycles);
            assert_eq!(one.degraded_shards, other.degraded_shards);
            assert_eq!(one.parked_shards, other.parked_shards);
        }
        one
    }

    #[test]
    fn chaos_report_is_identical_across_worker_counts() {
        let one = run_at_every_worker_count(ChaosConfig {
            seed: 0xD1CE,
            ..ChaosConfig::default()
        });
        assert!(one.clean(), "chaos failed:\n{one}");
    }

    #[test]
    fn chaos_repair_report_is_identical_across_worker_counts() {
        // Which shards a repair restores and which it parks is part of the
        // report, so the seed must trip at least one shard.
        let one = run_at_every_worker_count(ChaosConfig {
            seed: 0x0DD5_EED0,
            ..ChaosConfig::default()
        });
        assert!(one.clean(), "chaos failed:\n{one}");
        assert!(one.crashes_recovered > 0, "no repair exercised:\n{one}");
    }

    #[test]
    fn chaos_without_scrub_still_never_lies() {
        let r = run_chaos(&ChaosConfig {
            seed: 0x0BAD_5EED,
            policy: None,
            ..ChaosConfig::default()
        });
        // Without the online service there is no quarantine ledger, so
        // fault accounting is relaxed — but the core contract holds. A
        // repaired shard still comes back patrolling, under
        // `OnlinePolicy::default()`: `repair_shard` re-verifies the rebuilt
        // tree before it re-admits the shard.
        assert_eq!(r.unwinds, 0, "panics escaped:\n{r}");
        assert_eq!(r.silent_wrong, 0, "silently wrong acks:\n{r}");
    }
}
