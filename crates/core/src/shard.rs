//! The sharded multi-controller front-end.
//!
//! [`ShardedEngine`] splits the protected data-line space across N
//! independent [`SecureNvmSystem`] instances — each with its own SIT,
//! metadata cache, write queue, NVM device, and ADR recovery-journal line —
//! and routes every request by address through a pure
//! [`steins_metadata::ShardMap`]. Shards share nothing: the only
//! cross-shard structure is the routing function itself, so N shards
//! accept requests from N threads with no coordination beyond one
//! per-shard mutex.
//!
//! Each shard is one `Mutex<Slot>`: the enum is both the shard's lifecycle
//! state and the place its system lives, so every lifecycle transition is
//! one `match` under that lock. [`ShardedEngine::crash_shard`] pulls one
//! shard's plug while its neighbors keep serving, and
//! [`ShardedEngine::recover_shard`] rebuilds it off its own journal line,
//! which the device stamps with its owner
//! ([`steins_nvm::NvmDevice::journal_owner`]) — recovering a shard off a
//! line stamped by another shard is a routing bug and fails loudly.
//! [`ShardedEngine::recover_all`] rebuilds every shard in parallel, and
//! [`ShardedEngine::repair_shard`] brings a degraded shard back online in
//! one attempt. The crash harness ([`crate::CrashSweep`]) drives every
//! replay through this engine; an unsharded system is its 1-shard case.

use std::sync::{Mutex, MutexGuard};

use steins_metadata::ShardMap;
use steins_obs::{Alarm, AlarmKind, AlarmLog, MetricRegistry};

use crate::config::SystemConfig;
use crate::crash::CrashedSystem;
use crate::engine::SecureNvmSystem;
use crate::error::IntegrityError;
use crate::online::OnlinePolicy;
use crate::par;
use crate::recovery::{journal, RecoveryReport};
use crate::scrub::ScrubReport;

/// One shard: its lifecycle state and, where the state has one, its
/// system. Only `Serving` accepts routed requests.
enum Slot {
    /// In service.
    Serving(SecureNvmSystem),
    /// [`ShardedEngine::take_shard`] or [`ShardedEngine::crash_shard`]
    /// removed the system for an offline recovery. Not degraded: routed
    /// requests fail typed, but there is nothing to repair.
    Taken,
    /// Out of service. `Some` is the system a power cut left in place for
    /// [`ShardedEngine::repair_shard`]; `None` once a caller took it away.
    Degraded(Option<SecureNvmSystem>),
    /// A repair attempt holds the cut image and runs its scrub with the
    /// lock released.
    Rebuilding,
    /// The repair rebuilt nothing; only [`ShardedEngine::put_shard`]
    /// revives the shard.
    Parked,
}

impl Slot {
    fn system_mut(&mut self) -> Option<&mut SecureNvmSystem> {
        match self {
            Slot::Serving(sys) | Slot::Degraded(Some(sys)) => Some(sys),
            _ => None,
        }
    }

    fn is_degraded(&self) -> bool {
        matches!(self, Slot::Degraded(_) | Slot::Rebuilding | Slot::Parked)
    }
}

/// What one [`ShardedEngine::repair_shard`] call did.
#[derive(Debug)]
pub enum RepairOutcome {
    /// The shard was rebuilt, re-verified, and is `Serving` again. The
    /// report is the lenient scrub's verdict over the rebuilt image.
    Restored(ScrubReport),
    /// Nothing could be rebuilt — the scheme keeps no metadata redundancy
    /// (WB), or the shard's image was taken away — so the shard is parked
    /// pending operator action.
    Parked,
    /// The shard is not degraded (serving, taken, or already being
    /// rebuilt): there is nothing for this call to repair.
    NotDegraded,
}

/// N independent secure-memory controllers behind one address space.
///
/// Routing: a global byte address maps to `(shard, local address)` via the
/// [`ShardMap`]; the shard's own [`SecureNvmSystem`] — built over
/// `data_lines / N` lines with a `1/N` slice of the metadata-cache budget —
/// serves the request under its own mutex. All methods take `&self`, so
/// any number of threads may drive disjoint shards concurrently.
pub struct ShardedEngine {
    map: ShardMap,
    shard_cfg: SystemConfig,
    shards: Vec<Mutex<Slot>>,
    /// Engine-level lifecycle alarms: `ShardDegraded` transitions raised
    /// by the engine itself, plus harness-observed events recorded via
    /// [`Self::raise_alarm`] (e.g. torn writes in the chaos campaign).
    /// Per-shard *service* alarms live inside each shard's
    /// [`crate::online::OnlineService`]; [`Self::drain_alarms`] merges
    /// both in deterministic order.
    alarms: Mutex<AlarmLog>,
}

impl ShardedEngine {
    /// Builds `shards` interleaved (bank-style) shards over `cfg`'s data
    /// space. A `cfg.data_lines` that does not divide evenly is rounded
    /// down to the nearest multiple (shards are identical machines; the
    /// remainder lines are simply not addressable through the front-end).
    pub fn new(mut cfg: SystemConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        cfg.data_lines -= cfg.data_lines % shards as u64;
        let map = ShardMap::new(shards, cfg.data_lines);
        let shard_cfg = Self::split_config(&cfg, shards);
        let shards = (0..shards)
            .map(|i| {
                let mut sys = SecureNvmSystem::new(shard_cfg.clone());
                sys.ctrl.nvm.set_shard(i as u16);
                Mutex::new(Slot::Serving(sys))
            })
            .collect();
        ShardedEngine {
            map,
            shard_cfg,
            shards,
            alarms: Mutex::new(AlarmLog::new()),
        }
    }

    /// The per-shard configuration a global `cfg` splits into: `1/N` of the
    /// data lines and `1/N` of the metadata-cache capacity (floored at one
    /// set), everything else identical.
    pub fn split_config(cfg: &SystemConfig, shards: usize) -> SystemConfig {
        assert!(shards >= 1, "need at least one shard");
        let mut c = cfg.clone();
        c.data_lines = cfg.data_lines / shards as u64;
        c.meta_cache = cfg.meta_cache.split(shards);
        c
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// The routing function.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The configuration each shard runs with.
    pub fn shard_config(&self) -> &SystemConfig {
        &self.shard_cfg
    }

    /// Locks shard `s`. A panic that escaped a shard operation poisoned
    /// the lock; it propagates here instead of passing for a power cut.
    fn lock(&self, s: usize) -> MutexGuard<'_, Slot> {
        self.shards[s]
            .lock()
            .expect("shard lock poisoned by a panic")
    }

    /// Moves serving shard `s` to `Degraded`, keeping its system in the
    /// slot for [`Self::repair_shard`], and raises `ShardDegraded`.
    /// Lifecycle alarms carry cycle stamp 0: the engine has no global clock,
    /// and a constant stamp keeps the merged alarm log byte-identical across
    /// host thread schedules.
    fn degrade(&self, s: usize, slot: &mut Slot) {
        let Slot::Serving(sys) = std::mem::replace(slot, Slot::Taken) else {
            unreachable!("only a serving shard degrades");
        };
        *slot = Slot::Degraded(Some(sys));
        self.raise_lifecycle(AlarmKind::ShardDegraded, s);
    }

    fn raise_lifecycle(&self, kind: AlarmKind, s: usize) {
        self.raise_alarm(Alarm {
            kind,
            shard: s as u16,
            addr: None,
            cycle: 0,
        });
    }

    /// Records an engine-level lifecycle alarm (see the `alarms` field).
    pub fn raise_alarm(&self, alarm: Alarm) {
        self.alarms
            .lock()
            .expect("alarm log poisoned by a panic")
            .raise(alarm);
    }

    /// Runs `f` on shard `s`'s system if the shard is serving, else fails
    /// typed. A power cut inside `f` parks the shard `Degraded`; the
    /// system stays in its slot for the caller's crash path.
    fn serve<R>(
        &self,
        s: usize,
        f: impl FnOnce(&mut SecureNvmSystem) -> Result<R, IntegrityError>,
    ) -> Result<R, IntegrityError> {
        let mut slot = self.lock(s);
        let Slot::Serving(sys) = &mut *slot else {
            return Err(IntegrityError::ShardDegraded { shard: s as u16 });
        };
        let r = f(sys);
        if matches!(r, Err(IntegrityError::PowerCut)) {
            self.degrade(s, &mut slot);
        }
        r
    }

    /// Whether shard `s` is out of service (`Degraded`, `Rebuilding` or
    /// `Parked`). A taken shard is not degraded.
    pub fn is_degraded(&self, s: usize) -> bool {
        self.lock(s).is_degraded()
    }

    /// Shards currently out of service, in shard order.
    pub fn degraded_shards(&self) -> Vec<u16> {
        (0..self.shards())
            .filter(|&s| self.is_degraded(s))
            .map(|s| s as u16)
            .collect()
    }

    /// Whether shard `s` is `Parked`: a repair rebuilt nothing, and only an
    /// operator [`Self::put_shard`] revives it.
    pub fn is_parked(&self, s: usize) -> bool {
        matches!(*self.lock(s), Slot::Parked)
    }

    /// Shards `Parked`, in shard order.
    pub fn parked_shards(&self) -> Vec<u16> {
        (0..self.shards())
            .filter(|&s| self.is_parked(s))
            .map(|s| s as u16)
            .collect()
    }

    /// Routes a global byte address for `op`. An address past the engine's
    /// lines is a caller bug and panics here, before any shard lock is
    /// taken: a panic under the lock would poison that shard for good.
    fn route(&self, op: &str, addr: u64) -> (usize, u64) {
        let lines = self.map.total_lines();
        assert!(
            addr / 64 < lines,
            "{op} at {addr:#x} outside the data region ({lines} lines)"
        );
        self.map.route(addr)
    }

    /// Securely writes one 64 B line at a global address. A request routed
    /// to a degraded or crashed/taken shard fails typed — a fault on one
    /// shard never panics traffic on the engine. A power cut parks the
    /// shard `Degraded` and returns [`IntegrityError::PowerCut`]. Panics
    /// on an address past the engine's lines.
    pub fn write(&self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        let (s, local) = self.route("write", addr);
        self.serve(s, |sys| sys.write(local, data))
    }

    /// Securely reads one 64 B line at a global address. Degraded and
    /// crashed/taken shards fail typed, and an address past the engine's
    /// lines panics, like [`Self::write`].
    pub fn read(&self, addr: u64) -> Result<[u8; 64], IntegrityError> {
        let (s, local) = self.route("read", addr);
        self.serve(s, |sys| sys.read(local))
    }

    /// Supervised heal of a quarantined global address: routes to
    /// [`SecureNvmSystem::heal_write`], which lifts the quarantine only
    /// after the fresh data passes a verify-after-write round-trip (the
    /// audited alternative to a blind
    /// [`SecureNvmSystem::clear_quarantine`]). Degraded and crashed/taken
    /// shards fail typed, like [`Self::write`].
    pub fn heal_write(&self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        let (s, local) = self.route("heal write", addr);
        self.serve(s, |sys| sys.heal_write(local, data))
    }

    /// Runs `f` against shard `s`'s system under its lock, serving or
    /// degraded (harness and inspection access). Panics if the slot holds
    /// no system.
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&mut SecureNvmSystem) -> R) -> R {
        let mut slot = self.lock(s);
        f(slot
            .system_mut()
            .unwrap_or_else(|| panic!("shard {s} holds no system")))
    }

    /// Removes shard `s`'s system from the engine. A serving shard becomes
    /// taken (requests routed there fail typed until [`Self::put_shard`]);
    /// a degraded one stays degraded.
    pub fn take_shard(&self, s: usize) -> SecureNvmSystem {
        let mut slot = self.lock(s);
        match std::mem::replace(&mut *slot, Slot::Taken) {
            Slot::Serving(sys) => sys,
            Slot::Degraded(Some(sys)) => {
                *slot = Slot::Degraded(None);
                sys
            }
            empty => {
                *slot = empty;
                panic!("shard {s} holds no system")
            }
        }
    }

    /// Reinstates a system into shard `s`, returning it to `Serving`. The
    /// slot must hold no system and no running repair (`Taken`, a
    /// `Degraded` slot whose system was taken, or `Parked` — this is the
    /// operator's way out of `Parked`). The system must carry `s`'s own
    /// device label — installing a machine built for a different shard is
    /// a routing bug.
    pub fn put_shard(&self, s: usize, sys: SecureNvmSystem) {
        assert_eq!(
            sys.ctrl.nvm.shard(),
            s as u16,
            "installing shard {} machine into slot {s}",
            sys.ctrl.nvm.shard()
        );
        let mut slot = self.lock(s);
        match *slot {
            Slot::Taken | Slot::Degraded(None) | Slot::Parked => *slot = Slot::Serving(sys),
            _ => panic!("shard {s} holds a system or a running repair"),
        }
    }

    /// Pulls the plug on shard `s` only. Every other shard keeps running.
    pub fn crash_shard(&self, s: usize) -> CrashedSystem {
        self.take_shard(s).crash()
    }

    /// Strictly recovers shard `s` from its crashed image and reinstates
    /// it. Validates journal ownership first: if the image's ADR journal
    /// line was ever written, it must have been stamped by shard `s`'s own
    /// controller. On error the slot stays empty (callers may fall back to
    /// [`CrashedSystem::recover_lenient`] and [`Self::put_shard`]).
    pub fn recover_shard(
        &self,
        s: usize,
        crashed: CrashedSystem,
    ) -> Result<RecoveryReport, IntegrityError> {
        Self::check_journal_owner(s, &crashed);
        let (sys, report) = crashed.recover()?;
        self.put_shard(s, sys);
        Ok(report)
    }

    fn check_journal_owner(s: usize, crashed: &CrashedSystem) {
        assert_eq!(
            crashed.nvm().shard(),
            s as u16,
            "crashed image labeled shard {} handed to slot {s}",
            crashed.nvm().shard()
        );
        let j = crashed.nvm().recovery_journal();
        if j.phase != journal::IDLE {
            assert_eq!(
                crashed.nvm().journal_owner(),
                s as u16,
                "shard {s}'s journal line was stamped by shard {}: cross-shard routing bug",
                crashed.nvm().journal_owner()
            );
        }
    }

    /// Repairs degraded shard `s` in one attempt while its neighbors keep
    /// serving (nothing here touches another shard's lock or clock).
    ///
    /// The attempt takes the cut system out of its `Degraded` slot, leaving
    /// `Rebuilding`, and raises `ShardRepairStarted`. It captures the
    /// system's quarantine set and online policy (the service is volatile
    /// and dies with the power), pulls the plug, and runs the lenient scrub
    /// with the lock released. A rebuilt system is re-armed with the
    /// captured policy ([`OnlinePolicy::default`] if the cut system ran no
    /// service) and re-verified end to end: a full online scrub pass
    /// re-quarantines, with fresh alarms, any line that is still bad. The
    /// captured set is then replayed (lines the pass did *not*
    /// re-quarantine read back authentic from the rebuilt tree and are
    /// released with an audited `QuarantineCleared`), and the shard is
    /// re-admitted (`→ Serving`, `ShardRestored`). A scrub that rebuilds
    /// nothing parks the shard (`→ Parked`).
    ///
    /// One attempt is all there is: the scrub reads only what NVM holds,
    /// and it fails exactly when the scheme keeps no metadata redundancy
    /// (WB), so a retry could never succeed. A `Degraded` slot whose system
    /// was taken away parks at once; a shard serving, taken, or already
    /// `Rebuilding` returns [`RepairOutcome::NotDegraded`].
    ///
    /// Determinism: lifecycle alarms carry cycle 0; replay releases are
    /// stamped with the rebuilt shard's *own* modeled clock, so concurrent
    /// repairs and host scheduling cannot perturb the exported alarm stream.
    pub fn repair_shard(&self, s: usize) -> RepairOutcome {
        let cut = {
            let mut slot = self.lock(s);
            match std::mem::replace(&mut *slot, Slot::Rebuilding) {
                Slot::Degraded(Some(sys)) => sys,
                Slot::Degraded(None) | Slot::Parked => {
                    *slot = Slot::Parked;
                    return RepairOutcome::Parked;
                }
                other => {
                    *slot = other;
                    return RepairOutcome::NotDegraded;
                }
            }
        };
        self.raise_lifecycle(AlarmKind::ShardRepairStarted, s);
        let (quarantine, policy): (Vec<u64>, OnlinePolicy) = match cut.online() {
            Some(svc) => (svc.quarantined().collect(), *svc.policy()),
            None => (Vec::new(), OnlinePolicy::default()),
        };
        let crashed = cut.crash();
        Self::check_journal_owner(s, &crashed);
        let (rebuilt, report) = crashed.recover_lenient();
        let Some(mut sys) = rebuilt else {
            *self.lock(s) = Slot::Parked;
            return RepairOutcome::Parked;
        };
        sys.enable_online(policy);
        sys.online_scrub_pass();
        let cycle = sys.sim_cycles();
        if let Some(svc) = sys.online_mut() {
            for &addr in &quarantine {
                if !svc.is_quarantined(addr) {
                    svc.note_heal(s as u16, addr, cycle);
                }
            }
        }
        *self.lock(s) = Slot::Serving(sys);
        self.raise_lifecycle(AlarmKind::ShardRestored, s);
        RepairOutcome::Restored(report)
    }

    /// Deterministic simulated-cycle makespan: the furthest any shard's
    /// clocks have advanced (empty slots contribute 0). With perfect
    /// balance this is `1/N` of the serial machine's clock — the quantity
    /// the stress bench's scaling gate is computed from.
    pub fn sim_cycles(&self) -> u64 {
        (0..self.shards())
            .map(|s| self.lock(s).system_mut().map_or(0, |sys| sys.sim_cycles()))
            .max()
            .unwrap_or(0)
    }

    /// Merged metric registry: each shard's full registry appears twice —
    /// once under its own `shard.NN.` prefix (per-shard write-queue
    /// occupancy/stall histograms, cache hit rates, …) and once folded into
    /// the unprefixed aggregate (histograms merge bucket-wise; see
    /// [`MetricRegistry::fold_shard`]).
    pub fn report(&self) -> MetricRegistry {
        let mut agg = MetricRegistry::new();
        for s in 0..self.shards() {
            if let Some(sys) = self.lock(s).system_mut() {
                let m = sys.report().metrics;
                agg.fold_shard(&format!("shard.{s:02}"), &m);
            }
        }
        agg.gauge_set("core.shards", self.shards() as f64);
        agg.gauge_set("core.shards.degraded", self.degraded_shards().len() as f64);
        agg.gauge_set("core.shards.parked", self.parked_shards().len() as f64);
        agg.gauge_set("core.engine.sim_cycles", self.sim_cycles() as f64);
        let lifecycle = self
            .alarms
            .lock()
            .expect("alarm log poisoned by a panic")
            .metrics();
        agg.merge(&lifecycle);
        agg
    }

    /// Enables the online integrity service on every shard that holds a
    /// system, serving or degraded, under one shared `policy` (see
    /// [`crate::online::OnlinePolicy`]). Empty slots are skipped; a system
    /// reinstated later via [`Self::put_shard`] must be re-enabled by the
    /// caller.
    pub fn enable_online(&self, policy: OnlinePolicy) {
        for s in 0..self.shards() {
            if let Some(sys) = self.lock(s).system_mut() {
                sys.enable_online(policy);
            }
        }
    }

    /// Drains every pending alarm in deterministic order: the engine's
    /// lifecycle log first, then each shard's service log in shard order.
    /// Callers wanting a schedule-independent export sort the result with
    /// [`AlarmLog::canonical`].
    pub fn drain_alarms(&self) -> AlarmLog {
        let mut out = AlarmLog::new();
        for a in self
            .alarms
            .lock()
            .expect("alarm log poisoned by a panic")
            .drain()
        {
            out.raise(a);
        }
        for s in 0..self.shards() {
            if let Some(sys) = self.lock(s).system_mut() {
                for a in sys.drain_alarms() {
                    out.raise(a);
                }
            }
        }
        out
    }

    /// Pulls the plug on the whole engine: every shard loses power at its
    /// current persist boundary (no op is in flight on any of them), and
    /// every slot is left empty until recovery reinstates it. Images come
    /// back in shard order.
    pub fn crash_all(&self) -> Vec<CrashedSystem> {
        (0..self.shards()).map(|s| self.crash_shard(s)).collect()
    }

    /// Recovers the whole engine in parallel: the per-shard crashed images
    /// are independent jobs that `workers` threads claim off one shared
    /// queue ([`par::run_regions`]). Each shard recovers serially off its
    /// own ADR journal line and reinstates itself into its slot as soon as
    /// it finishes.
    ///
    /// Determinism: every number in the returned [`ParallelRecovery`] is
    /// computed from the per-shard reports and the *modeled* lane fold
    /// ([`par::fold_lanes`]) — byte-identical no matter how the host
    /// actually schedules the worker threads.
    ///
    /// On the first per-shard error the whole call errors; regions that
    /// already recovered stay installed and the failing slot stays empty.
    pub fn recover_all(
        &self,
        crashed: Vec<CrashedSystem>,
        workers: usize,
    ) -> Result<ParallelRecovery, IntegrityError> {
        assert_eq!(crashed.len(), self.shards(), "one crashed image per shard");
        let workers = workers.max(1);
        let jobs = crashed.into_iter().enumerate().collect();
        let results = par::run_regions(workers, jobs, |(s, img)| self.recover_shard(s, img));
        let mut reports = Vec::with_capacity(results.len());
        for r in results {
            reports.push(r?);
        }

        let costs: Vec<u64> = reports.iter().map(|r| r.nvm_reads).collect();
        let loads = par::fold_lanes(&costs, workers);
        let makespan_reads = loads.iter().copied().max().unwrap_or(0);
        let total_reads: u64 = costs.iter().sum();
        let mut metrics = MetricRegistry::new();
        for (s, r) in reports.iter().enumerate() {
            metrics.fold_shard(&format!("shard.{s:02}"), &r.metrics);
        }
        metrics.gauge_set("core.par.workers", workers as f64);
        metrics.counter_add("core.par.makespan_reads", makespan_reads);
        metrics.counter_add("core.par.total_reads", total_reads);
        for (l, &load) in loads.iter().enumerate() {
            metrics.counter_add(&format!("par.lane.{l:02}.reads"), load);
        }
        Ok(ParallelRecovery {
            reports,
            workers,
            total_reads,
            makespan_reads,
            metrics,
        })
    }
}

/// Outcome of a whole-engine parallel recovery ([`ShardedEngine::recover_all`]).
///
/// Everything here is a pure function of the per-shard recovery reports and
/// the requested worker count — the quantities the recovery ladder's
/// scaling gate and its byte-identical JSON artifact are built from.
pub struct ParallelRecovery {
    /// Per-shard recovery reports, in shard order.
    pub reports: Vec<RecoveryReport>,
    /// Worker/lane count the recovery (and its modeled fold) ran with.
    pub workers: usize,
    /// Sum of every region's recovery reads.
    pub total_reads: u64,
    /// Modeled makespan: the busiest lane's reads after the deterministic
    /// LPT fold of per-region costs onto `workers` lanes.
    pub makespan_reads: u64,
    /// Folded registry: per-region `shard.NN.` prefixes, the unprefixed
    /// aggregate, `core.par.*` fold results, and per-lane `par.lane.NN.reads`.
    pub metrics: MetricRegistry,
}

impl ParallelRecovery {
    /// Modeled wall seconds for the fold: `makespan_reads` sequential NVM
    /// reads at `read_ns` nanoseconds each.
    pub fn est_seconds(&self, read_ns: f64) -> f64 {
        self.makespan_reads as f64 * read_ns * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use crate::crash::{CrashJob, CrashSweep, Jobs, PointSelection, SweepOp};
    use std::panic::AssertUnwindSafe;
    use steins_metadata::CounterMode;

    fn small(scheme: SchemeKind) -> SystemConfig {
        SystemConfig::small_for_tests(scheme, CounterMode::General)
    }

    /// The 2-shard case of `crash::tests::probe_point_propagates_real_panics`:
    /// a stream op past the data region panics out of the sharded probe.
    #[test]
    #[should_panic(expected = "real panic propagated at 2 shard(s)")]
    fn sharded_probe_point_propagates_real_panics() {
        crate::crash::tests::probe_past_the_data_region(2);
    }

    /// An out-of-range address panics before routing, naming the global
    /// address, and the shard it would have reached keeps serving.
    #[test]
    fn an_out_of_range_write_panics_without_poisoning_a_shard() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 4);
        let lines = engine.map().total_lines();
        let addr = lines * 64;
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| engine.write(addr, &[7; 64])))
            .expect_err("an out-of-range write panics");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains(&format!("write at {addr:#x}")) && msg.contains(&format!("{lines} lines")),
            "{msg:?}"
        );
        // Line `lines` would stripe onto shard 0, as line 0 does.
        assert_eq!(engine.map().route(0).0, 0);
        engine
            .write(0, &[9; 64])
            .expect("shard 0 still serves writes");
        assert_eq!(engine.read(0).expect("and reads"), [9; 64]);
    }

    #[test]
    fn routed_writes_read_back_across_shards() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 4);
        for line in 0..64u64 {
            let data = SweepOp::payload(line, 7);
            engine.write(line * 64, &data).unwrap();
        }
        for line in 0..64u64 {
            assert_eq!(engine.read(line * 64).unwrap(), SweepOp::payload(line, 7));
        }
        // Every shard saw exactly its stripe.
        for s in 0..4 {
            let writes = engine.with_shard(s, |sys| sys.ctrl.nvm.stats().writes);
            assert!(writes > 0, "shard {s} never touched");
        }
    }

    #[test]
    fn split_config_divides_lines_and_cache() {
        let cfg = small(SchemeKind::Steins);
        let per = ShardedEngine::split_config(&cfg, 4);
        assert_eq!(per.data_lines, cfg.data_lines / 4);
        assert!(per.meta_cache.capacity_bytes <= cfg.meta_cache.capacity_bytes / 4);
    }

    #[test]
    fn crash_one_shard_neighbors_keep_serving() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..32u64 {
            engine.write(line * 64, &SweepOp::payload(line, 3)).unwrap();
        }
        let crashed = engine.crash_shard(0);
        // Shard 1 still serves reads and writes while shard 0 is down.
        let m = *engine.map();
        let line1 = (0..32u64).find(|&l| m.shard_of(l) == 1).unwrap();
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 3));
        engine
            .write(line1 * 64, &SweepOp::payload(line1, 9))
            .unwrap();
        // Recover shard 0 and verify its stripe.
        engine.recover_shard(0, crashed).unwrap();
        for line in (0..32u64).filter(|&l| m.shard_of(l) == 0) {
            assert_eq!(engine.read(line * 64).unwrap(), SweepOp::payload(line, 3));
        }
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 9));
    }

    #[test]
    fn recovery_report_carries_shard_gauge() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 1)).unwrap();
        }
        let crashed = engine.crash_shard(1);
        let report = engine.recover_shard(1, crashed).unwrap();
        assert_eq!(report.metrics.gauge("core.recovery.shard"), Some(1.0));
        engine.with_shard(1, |sys| {
            assert_eq!(sys.ctrl.nvm.journal_owner(), 1);
        });
        engine.with_shard(0, |sys| {
            assert_eq!(sys.ctrl.nvm.recovery_journal().phase, journal::IDLE);
        });
    }

    #[test]
    #[should_panic(expected = "into slot")]
    fn put_shard_rejects_foreign_machine() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        let sys = engine.take_shard(1);
        engine.put_shard(0, sys);
    }

    #[test]
    fn report_folds_per_shard_prefixes() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 1)).unwrap();
        }
        let m = engine.report();
        let agg = m.counter("nvm.device.writes").unwrap_or(0);
        let s0 = m.counter("shard.00.nvm.device.writes").unwrap_or(0);
        let s1 = m.counter("shard.01.nvm.device.writes").unwrap_or(0);
        assert!(s0 > 0 && s1 > 0);
        assert_eq!(agg, s0 + s1, "aggregate must be the sum of the shards");
    }

    #[test]
    fn sim_cycles_scale_down_with_shards() {
        let cfg = small(SchemeKind::Steins);
        let serial = ShardedEngine::new(cfg.clone(), 1);
        let quad = ShardedEngine::new(cfg, 4);
        for line in 0..256u64 {
            let data = SweepOp::payload(line, 5);
            serial.write(line * 64, &data).unwrap();
            quad.write(line * 64, &data).unwrap();
        }
        let (one, four) = (serial.sim_cycles(), quad.sim_cycles());
        assert!(one > 0 && four > 0);
        assert!(
            (one as f64) / (four as f64) >= 3.0,
            "4 shards must cut the makespan ≥3x: serial {one}, sharded {four}"
        );
    }

    /// A 2-shard crash harness over `ops`, `sel` points per target shard.
    fn sweep2(scheme: SchemeKind, seed: u64, len: usize, sel: PointSelection) -> CrashSweep {
        let cfg = small(scheme);
        let ops = SweepOp::stream(seed, cfg.data_lines.min(64), len);
        CrashSweep::new(cfg, ops, sel).with_shards(2)
    }

    /// The cross-shard smoke contract: crash each shard at sampled persist
    /// points while its neighbor is mid-write; both shards' recovered
    /// state verifies, neighbors keep serving the rest of the stream, and
    /// their journals stay `IDLE`. (The full four-scheme sweep lives in
    /// the integration tests.)
    #[test]
    fn cross_shard_crash_smoke() {
        let sweep = sweep2(SchemeKind::Steins, 11, 40, PointSelection::AtMost(3));
        let jobs = sweep.jobs(Jobs::Masks(&[0xFF], None)).unwrap();
        assert!(jobs
            .iter()
            .any(|job| matches!(job, CrashJob::Point { p, .. } if p.shard == 1)));
        let report = sweep.run(Ok(jobs), 1);
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn wb_refuses_sharded_recovery_at_every_point() {
        let sweep = sweep2(SchemeKind::WriteBack, 5, 24, PointSelection::AtMost(2));
        let report = sweep.run(sweep.jobs(Jobs::Masks(&[0xFF], None)), 1);
        assert!(report.clean(), "{report}");
        assert!(report.tested_points > 0);
    }

    #[test]
    fn nested_crash_restarts_only_the_interrupted_shard() {
        let sweep = sweep2(SchemeKind::Steins, 23, 32, PointSelection::AtMost(2));
        let jobs = sweep.jobs(Jobs::Masks(
            &[0xFF],
            Some((&[0xFF], PointSelection::AtMost(2))),
        ));
        let report = sweep.run(jobs, 1);
        assert!(report.clean(), "{report}");
        assert!(report.tested_points > 0);
    }

    fn dirtied(shards: usize, lines: u64) -> ShardedEngine {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), shards);
        for line in 0..lines {
            engine.write(line * 64, &SweepOp::payload(line, 6)).unwrap();
        }
        engine
    }

    #[test]
    fn parallel_recover_all_restores_every_shard() {
        let engine = dirtied(4, 64);
        let images = engine.crash_all();
        let pr = engine.recover_all(images, 4).unwrap();
        assert_eq!(pr.reports.len(), 4);
        assert_eq!(pr.workers, 4);
        assert_eq!(
            pr.total_reads,
            pr.reports.iter().map(|r| r.nvm_reads).sum::<u64>()
        );
        assert!(pr.makespan_reads <= pr.total_reads);
        assert!(pr.makespan_reads >= pr.total_reads.div_ceil(4));
        assert_eq!(
            pr.metrics.counter("core.par.makespan_reads"),
            Some(pr.makespan_reads)
        );
        for line in 0..64u64 {
            assert_eq!(engine.read(line * 64).unwrap(), SweepOp::payload(line, 6));
        }
        for s in 0..4 {
            engine.with_shard(s, |sys| {
                assert_eq!(sys.ctrl.nvm.journal_owner(), s as u16);
                assert_eq!(sys.ctrl.nvm.recovery_journal().phase, journal::DONE);
            });
        }
    }

    #[test]
    fn worker_count_changes_makespan_but_not_shard_reports() {
        let run = |workers: usize| {
            let engine = dirtied(4, 96);
            let images = engine.crash_all();
            engine.recover_all(images, workers).unwrap()
        };
        let serial = run(1);
        let quad = run(4);
        assert_eq!(serial.makespan_reads, serial.total_reads);
        assert_eq!(serial.total_reads, quad.total_reads);
        assert!(
            3 * quad.makespan_reads <= serial.makespan_reads,
            "4 balanced regions must fold ≥3x: serial {} quad {}",
            serial.makespan_reads,
            quad.makespan_reads
        );
        // The per-shard reports — journals, verification work, exported
        // metrics — are identical whichever worker count rebuilt them.
        for (a, b) in serial.reports.iter().zip(&quad.reports) {
            assert_eq!(a.nvm_reads, b.nvm_reads);
            assert_eq!(
                a.metrics.to_json_deterministic().pretty(),
                b.metrics.to_json_deterministic().pretty()
            );
        }
    }

    #[test]
    fn requests_to_taken_shard_fail_typed_not_panicking() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 2)).unwrap();
        }
        let m = *engine.map();
        let _img = engine.crash_shard(0);
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        assert_eq!(
            engine.write(line0 * 64, &[0; 64]),
            Err(IntegrityError::ShardDegraded { shard: 0 })
        );
        assert_eq!(
            engine.read(line0 * 64),
            Err(IntegrityError::ShardDegraded { shard: 0 })
        );
        // The neighbor is untouched by the typed failure.
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 2));
    }

    /// Cuts shard `s`'s power at its next persist: arms the device, then
    /// rewrites `line` (one of shard `s`'s lines) with the payload it
    /// already holds, so its content survives whichever persist the cut
    /// lands on.
    fn cut_shard(engine: &ShardedEngine, s: usize, line: u64, tag: u8) {
        engine.with_shard(s, |sys| {
            let next = sys.ctrl.nvm.persist_seq() + 1;
            sys.ctrl.nvm.arm_crash(next);
        });
        assert_eq!(
            engine.write(line * 64, &SweepOp::payload(line, tag)),
            Err(IntegrityError::PowerCut)
        );
    }

    #[test]
    fn power_cut_parks_shard_degraded_and_recovers_via_scrub() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 4)).unwrap();
        }
        let m = *engine.map();
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        cut_shard(&engine, 0, line0, 4);
        // The cut parked the shard Degraded: it fails typed, and its
        // neighbor keeps serving.
        assert_eq!(
            engine.read(line0 * 64),
            Err(IntegrityError::ShardDegraded { shard: 0 })
        );
        assert!(engine.is_degraded(0));
        assert_eq!(engine.degraded_shards(), vec![0]);
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 4));
        assert_eq!(engine.report().gauge("core.shards.degraded"), Some(1.0));
        // The repair rebuilds the cut image by the lenient scrub and
        // returns the shard to service.
        let report = match engine.repair_shard(0) {
            RepairOutcome::Restored(r) => r,
            other => panic!("expected Restored, got {other:?}"),
        };
        assert!(report.clean(), "{report}");
        assert!(!engine.is_degraded(0));
        assert_eq!(engine.report().gauge("core.shards.degraded"), Some(0.0));
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 4));
        let kinds: Vec<AlarmKind> = engine
            .drain_alarms()
            .events()
            .iter()
            .map(|a| a.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                AlarmKind::ShardDegraded,
                AlarmKind::ShardRepairStarted,
                AlarmKind::ShardRestored
            ],
            "one cut, one ShardDegraded alarm"
        );
    }

    #[test]
    fn unrebuildable_scrub_parks_shard_degraded() {
        let engine = ShardedEngine::new(small(SchemeKind::WriteBack), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 8)).unwrap();
        }
        let m = *engine.map();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        cut_shard(&engine, 1, line1, 8);
        // WB has no metadata redundancy: the repair's scrub classifies the
        // cut image but cannot rebuild it, so the shard parks Degraded
        // instead of panicking.
        assert!(matches!(engine.repair_shard(1), RepairOutcome::Parked));
        assert!(engine.is_degraded(1));
        assert_eq!(
            engine.read(line1 * 64),
            Err(IntegrityError::ShardDegraded { shard: 1 })
        );
        // Shard 0 never noticed.
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 8));
    }

    #[test]
    fn repair_restores_cut_shard_and_replays_quarantine() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 4)).unwrap();
        }
        engine.enable_online(OnlinePolicy::default());
        let m = *engine.map();
        let mut lines0 = (0..16u64).filter(|&l| m.shard_of(l) == 0);
        let (line0, other0) = (lines0.next().unwrap(), lines0.next().unwrap());
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        let (_, local0) = m.route(line0 * 64);
        // A serving shard has nothing to repair.
        assert!(matches!(engine.repair_shard(0), RepairOutcome::NotDegraded));
        // Quarantine a (actually sound) line, then cut the shard's power:
        // the volatile quarantine set must survive the repair as an
        // audited replay, not silently evaporate with the power.
        engine.with_shard(0, |sys| {
            sys.online_mut().unwrap().requarantine(0, local0, 0);
        });
        assert!(matches!(
            engine.read(line0 * 64),
            Err(IntegrityError::Quarantined { .. })
        ));
        cut_shard(&engine, 0, other0, 4);
        assert_eq!(
            engine.read(line0 * 64),
            Err(IntegrityError::ShardDegraded { shard: 0 })
        );
        // Online repair: neighbors keep serving throughout.
        let outcome = engine.repair_shard(0);
        let report = match outcome {
            RepairOutcome::Restored(r) => r,
            other => panic!("expected Restored, got {other:?}"),
        };
        assert!(report.clean(), "{report}");
        assert!(!engine.is_degraded(0));
        assert!(!engine.is_parked(0));
        // The replay found the line authentic in the rebuilt tree and
        // released it with an audited QuarantineCleared.
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 4));
        assert_eq!(
            engine.read(other0 * 64).unwrap(),
            SweepOp::payload(other0, 4)
        );
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 4));
        engine.with_shard(0, |sys| {
            let svc = sys.online().unwrap();
            assert!(!svc.is_quarantined(local0));
            assert!(svc.cleared() >= 1);
        });
        let log = engine.drain_alarms();
        let kinds_s0: Vec<AlarmKind> = log
            .events()
            .iter()
            .filter(|a| a.shard == 0)
            .map(|a| a.kind)
            .collect();
        assert!(kinds_s0.contains(&AlarmKind::ShardDegraded));
        assert!(kinds_s0.contains(&AlarmKind::ShardRepairStarted));
        assert!(kinds_s0.contains(&AlarmKind::ShardRestored));
        assert!(kinds_s0.contains(&AlarmKind::QuarantineCleared));
        // Nothing left to repair.
        assert!(matches!(engine.repair_shard(0), RepairOutcome::NotDegraded));
    }

    #[test]
    fn unrebuildable_repair_parks_after_one_attempt() {
        // WB keeps no metadata redundancy: the scrub rebuilds nothing from
        // any image, so the one attempt parks the shard.
        let engine = ShardedEngine::new(small(SchemeKind::WriteBack), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 8)).unwrap();
        }
        let m = *engine.map();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        cut_shard(&engine, 1, line1, 8);
        assert!(matches!(engine.repair_shard(1), RepairOutcome::Parked));
        assert!(engine.is_parked(1));
        assert!(engine.is_degraded(1));
        assert_eq!(engine.parked_shards(), vec![1]);
        assert_eq!(engine.report().gauge("core.shards.parked"), Some(1.0));
        assert_eq!(
            engine.read(line1 * 64),
            Err(IntegrityError::ShardDegraded { shard: 1 })
        );
        assert_eq!(
            engine.write(line1 * 64, &[0; 64]),
            Err(IntegrityError::ShardDegraded { shard: 1 })
        );
        // A second call finds nothing to do and raises nothing.
        assert!(matches!(engine.repair_shard(1), RepairOutcome::Parked));
        let kinds_s1: Vec<AlarmKind> = engine
            .drain_alarms()
            .events()
            .iter()
            .filter(|a| a.shard == 1)
            .map(|a| a.kind)
            .collect();
        assert_eq!(
            kinds_s1,
            vec![AlarmKind::ShardDegraded, AlarmKind::ShardRepairStarted]
        );
        // Operator way out: installing a fresh system un-parks the shard.
        let mut fresh = SecureNvmSystem::new(engine.shard_config().clone());
        fresh.ctrl.nvm.set_shard(1);
        engine.put_shard(1, fresh);
        assert!(!engine.is_parked(1));
        assert!(!engine.is_degraded(1));
        engine
            .write(line1 * 64, &SweepOp::payload(line1, 5))
            .unwrap();
        assert_eq!(engine.read(line1 * 64).unwrap(), SweepOp::payload(line1, 5));
    }

    #[test]
    fn repair_with_nothing_to_rebuild_from_parks_immediately() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 3)).unwrap();
        }
        // The degraded shard's image is gone for good (taken and dropped):
        // there is nothing to rebuild from, so repair parks it on the spot.
        cut_shard(&engine, 0, 0, 3);
        drop(engine.take_shard(0));
        assert!(matches!(engine.repair_shard(0), RepairOutcome::Parked));
        assert!(engine.is_parked(0));
        let log = engine.drain_alarms();
        let kinds_s0: Vec<AlarmKind> = log
            .events()
            .iter()
            .filter(|a| a.shard == 0)
            .map(|a| a.kind)
            .collect();
        assert_eq!(kinds_s0, vec![AlarmKind::ShardDegraded]);
    }

    /// Every lifecycle state of the table test below.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum St {
        Serving,
        Taken,
        DegradedSome,
        DegradedNone,
        Rebuilding,
        Parked,
    }

    /// Every event the table test fires at shard 0.
    #[derive(Clone, Copy, Debug)]
    enum Ev {
        /// A routed write, then a routed read.
        Routed,
        /// Arms the device's next persist (if the slot holds a system),
        /// then a routed write.
        CutInOp,
        Take,
        Crash,
        Put,
        Recover,
        Repair,
        WithShard,
    }

    fn state(engine: &ShardedEngine) -> St {
        match &*engine.lock(0) {
            Slot::Serving(_) => St::Serving,
            Slot::Taken => St::Taken,
            Slot::Degraded(Some(_)) => St::DegradedSome,
            Slot::Degraded(None) => St::DegradedNone,
            Slot::Rebuilding => St::Rebuilding,
            Slot::Parked => St::Parked,
        }
    }

    /// A fresh 2-shard Steins engine with shard 0 in `st`, alarms drained.
    fn engine_in(st: St) -> ShardedEngine {
        let engine = dirtied(2, 16);
        match st {
            St::Serving => {}
            St::Taken => drop(engine.take_shard(0)),
            St::DegradedSome => cut_shard(&engine, 0, 0, 6),
            St::DegradedNone => {
                cut_shard(&engine, 0, 0, 6);
                drop(engine.take_shard(0));
            }
            // Only a running repair holds this state; build it directly.
            St::Rebuilding => {
                drop(engine.take_shard(0));
                *engine.lock(0) = Slot::Rebuilding;
            }
            St::Parked => {
                cut_shard(&engine, 0, 0, 6);
                drop(engine.take_shard(0));
                assert!(matches!(engine.repair_shard(0), RepairOutcome::Parked));
            }
        }
        assert_eq!(state(&engine), st);
        engine.drain_alarms();
        engine
    }

    /// A never-written Steins machine of the 2-shard geometry, labeled
    /// shard 0, crashed.
    fn image() -> CrashedSystem {
        let mut sys =
            SecureNvmSystem::new(ShardedEngine::split_config(&small(SchemeKind::Steins), 2));
        sys.ctrl.nvm.set_shard(0);
        sys.crash()
    }

    /// Fires `ev` at shard 0 and names what it returned.
    fn fire(engine: &ShardedEngine, ev: Ev) -> &'static str {
        let typed = |r: Result<(), IntegrityError>| match r {
            Ok(()) => "Ok",
            Err(IntegrityError::PowerCut) => "PowerCut",
            Err(IntegrityError::ShardDegraded { shard: 0 }) => "ShardDegraded",
            Err(e) => panic!("unexpected {e}"),
        };
        match ev {
            Ev::Routed => {
                let w = typed(engine.write(0, &SweepOp::payload(0, 6)));
                assert_eq!(w, typed(engine.read(0).map(|_| ())));
                w
            }
            Ev::CutInOp => {
                if let Some(sys) = engine.lock(0).system_mut() {
                    let next = sys.ctrl.nvm.persist_seq() + 1;
                    sys.ctrl.nvm.arm_crash(next);
                }
                typed(engine.write(0, &SweepOp::payload(0, 6)))
            }
            Ev::Take => {
                engine.take_shard(0);
                "Ok"
            }
            Ev::Crash => {
                engine.crash_shard(0);
                "Ok"
            }
            Ev::Put => {
                let mut sys = SecureNvmSystem::new(engine.shard_config().clone());
                sys.ctrl.nvm.set_shard(0);
                engine.put_shard(0, sys);
                "Ok"
            }
            Ev::Recover => typed(engine.recover_shard(0, image()).map(|_| ())),
            Ev::Repair => match engine.repair_shard(0) {
                RepairOutcome::Restored(_) => "Restored",
                RepairOutcome::Parked => "Parked",
                RepairOutcome::NotDegraded => "NotDegraded",
            },
            Ev::WithShard => engine.with_shard(0, |_| "Ok"),
        }
    }

    /// Every (state, event) pair of the shard lifecycle, fired
    /// sequentially on a fresh engine: what the event returns, the state it
    /// leaves, and the lifecycle alarms it raises. `"panic"` rows assert a
    /// panic; their next-state column is not checked.
    #[test]
    fn lifecycle_table_covers_every_state_and_event() {
        use AlarmKind::{ShardDegraded as D, ShardRepairStarted as S, ShardRestored as R};
        use Ev::*;
        use St::*;
        #[rustfmt::skip]
        let table: &[(St, Ev, &str, St, &[AlarmKind])] = &[
            (Serving, Routed, "Ok", Serving, &[]),
            (Serving, CutInOp, "PowerCut", DegradedSome, &[D]),
            (Serving, Take, "Ok", Taken, &[]),
            (Serving, Crash, "Ok", Taken, &[]),
            (Serving, Put, "panic", Serving, &[]),
            (Serving, Recover, "panic", Serving, &[]),
            (Serving, Repair, "NotDegraded", Serving, &[]),
            (Serving, WithShard, "Ok", Serving, &[]),

            (Taken, Routed, "ShardDegraded", Taken, &[]),
            (Taken, CutInOp, "ShardDegraded", Taken, &[]),
            (Taken, Take, "panic", Taken, &[]),
            (Taken, Crash, "panic", Taken, &[]),
            (Taken, Put, "Ok", Serving, &[]),
            (Taken, Recover, "Ok", Serving, &[]),
            (Taken, Repair, "NotDegraded", Taken, &[]),
            (Taken, WithShard, "panic", Taken, &[]),

            (DegradedSome, Routed, "ShardDegraded", DegradedSome, &[]),
            (DegradedSome, CutInOp, "ShardDegraded", DegradedSome, &[]),
            (DegradedSome, Take, "Ok", DegradedNone, &[]),
            (DegradedSome, Crash, "Ok", DegradedNone, &[]),
            (DegradedSome, Put, "panic", DegradedSome, &[]),
            (DegradedSome, Recover, "panic", DegradedSome, &[]),
            (DegradedSome, Repair, "Restored", Serving, &[S, R]),
            (DegradedSome, WithShard, "Ok", DegradedSome, &[]),

            (DegradedNone, Routed, "ShardDegraded", DegradedNone, &[]),
            (DegradedNone, CutInOp, "ShardDegraded", DegradedNone, &[]),
            (DegradedNone, Take, "panic", DegradedNone, &[]),
            (DegradedNone, Crash, "panic", DegradedNone, &[]),
            (DegradedNone, Put, "Ok", Serving, &[]),
            (DegradedNone, Recover, "Ok", Serving, &[]),
            (DegradedNone, Repair, "Parked", Parked, &[]),
            (DegradedNone, WithShard, "panic", DegradedNone, &[]),

            (Rebuilding, Routed, "ShardDegraded", Rebuilding, &[]),
            (Rebuilding, CutInOp, "ShardDegraded", Rebuilding, &[]),
            (Rebuilding, Take, "panic", Rebuilding, &[]),
            (Rebuilding, Crash, "panic", Rebuilding, &[]),
            (Rebuilding, Put, "panic", Rebuilding, &[]),
            (Rebuilding, Recover, "panic", Rebuilding, &[]),
            (Rebuilding, Repair, "NotDegraded", Rebuilding, &[]),
            (Rebuilding, WithShard, "panic", Rebuilding, &[]),

            (Parked, Routed, "ShardDegraded", Parked, &[]),
            (Parked, CutInOp, "ShardDegraded", Parked, &[]),
            (Parked, Take, "panic", Parked, &[]),
            (Parked, Crash, "panic", Parked, &[]),
            (Parked, Put, "Ok", Serving, &[]),
            (Parked, Recover, "Ok", Serving, &[]),
            (Parked, Repair, "Parked", Parked, &[]),
            (Parked, WithShard, "panic", Parked, &[]),
        ];
        assert_eq!(table.len(), 6 * 8, "one row per (state, event) pair");
        for &(from, ev, want, next, alarms) in table {
            let engine = engine_in(from);
            let got =
                std::panic::catch_unwind(AssertUnwindSafe(|| fire(&engine, ev))).unwrap_or("panic");
            assert_eq!(got, want, "{from:?} x {ev:?}");
            if got == "panic" {
                continue;
            }
            assert_eq!(state(&engine), next, "{from:?} x {ev:?}");
            assert_eq!(engine.is_degraded(0), engine.lock(0).is_degraded());
            let raised: Vec<AlarmKind> = engine
                .drain_alarms()
                .events()
                .iter()
                .map(|a| a.kind)
                .collect();
            assert_eq!(raised, alarms, "{from:?} x {ev:?}");
        }
    }

    #[test]
    fn heal_write_routes_and_clears_quarantine_audited() {
        let engine = ShardedEngine::new(small(SchemeKind::Steins), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 2)).unwrap();
        }
        engine.enable_online(OnlinePolicy::default());
        let m = *engine.map();
        let line0 = (0..16u64).find(|&l| m.shard_of(l) == 0).unwrap();
        let (_, local0) = m.route(line0 * 64);
        engine.with_shard(0, |sys| {
            sys.online_mut().unwrap().requarantine(0, local0, 0);
        });
        assert!(matches!(
            engine.read(line0 * 64),
            Err(IntegrityError::Quarantined { .. })
        ));
        // Supervised heal through the sharded front-end: fresh data plus a
        // verify-after-write round-trip releases the line.
        engine
            .heal_write(line0 * 64, &SweepOp::payload(line0, 9))
            .unwrap();
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 9));
        engine.with_shard(0, |sys| {
            let svc = sys.online().unwrap();
            assert!(!svc.is_quarantined(local0));
            assert!(svc.cleared() >= 1);
        });
        let log = engine.drain_alarms();
        assert!(log
            .events()
            .iter()
            .any(|a| a.kind == AlarmKind::QuarantineCleared && a.shard == 0));
    }

    #[test]
    fn worker_crash_mid_parallel_rebuild_restarts_only_that_region() {
        let sweep = sweep2(SchemeKind::Steins, 29, 32, PointSelection::AtMost(2));
        let jobs = sweep.jobs(Jobs::Masks(
            &[0xFF],
            Some((&[0xFF], PointSelection::AtMost(2))),
        ));
        let jobs = jobs.map(|jobs| jobs.into_iter().map(|job| job.on_workers(4)).collect());
        let report = sweep.run(jobs, 1);
        assert!(report.clean(), "{report}");
        assert!(report.tested_points > 0);
    }
}
