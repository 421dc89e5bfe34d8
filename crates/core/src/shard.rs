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
//! Each shard crashes and recovers on its own: [`ShardedEngine::crash_shard`]
//! pulls one shard's plug while its neighbors keep serving, and
//! [`ShardedEngine::recover_shard`] rebuilds it off its own journal line,
//! which the device stamps with its owner
//! ([`steins_nvm::NvmDevice::journal_owner`]) — recovering a shard off a
//! line stamped by another shard is a routing bug and fails loudly.
//! [`ShardedEngine::recover_all`] rebuilds every shard in parallel, and the
//! repair loop ([`ShardedEngine::repair_shard`]) brings a degraded shard
//! back online. The crash harness ([`crate::CrashSweep`]) drives every
//! replay through this engine; an unsharded system is its 1-shard case.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

use steins_metadata::{ShardMap, StripeMode};
use steins_obs::{Alarm, AlarmKind, AlarmLog, MetricRegistry};

use crate::config::SystemConfig;
use crate::crash::CrashedSystem;
use crate::engine::SecureNvmSystem;
use crate::error::IntegrityError;
use crate::online::OnlinePolicy;
use crate::par;
use crate::recovery::{journal, RecoveryReport};
use crate::scrub::ScrubReport;

/// Shard lifecycle states for the self-healing repair loop. Only a
/// `Serving` shard accepts requests: the state is the serving gate.
///
/// `Serving → Degraded` on any park ([`ShardedEngine::mark_degraded`]),
/// `Degraded → Rebuilding` when a repair attempt claims the shard,
/// `Rebuilding → Serving` when the rebuilt system is re-admitted, and
/// `Rebuilding → Degraded` when a scrub attempt fails (retryable after
/// backoff) or `→ Parked` once the attempt budget is spent. `Parked` is
/// terminal for the automatic loop; only an operator [`ShardedEngine::put_shard`]
/// un-parks it.
mod shard_state {
    pub const SERVING: u8 = 0;
    pub const DEGRADED: u8 = 1;
    pub const REBUILDING: u8 = 2;
    pub const PARKED: u8 = 3;
}

/// Knobs for the background shard-repair loop
/// ([`ShardedEngine::repair_shard`]).
#[derive(Clone, Copy, Debug)]
pub struct RepairPolicy {
    /// Repair attempts a shard may consume before it is parked
    /// permanently (state `Parked`; only an operator
    /// [`ShardedEngine::put_shard`] revives it).
    pub max_attempts: u32,
    /// Base of the exponential retry backoff: after failed attempt `k`
    /// (1-based) the next attempt is gated until
    /// `now + backoff_base_cycles << (k - 1)` modeled cycles. Callers
    /// passing `now = u64::MAX` (a forced/operator retry) bypass the gate.
    pub backoff_base_cycles: u64,
    /// Online-service policy re-armed on the rebuilt system before it is
    /// re-admitted (the pre-crash service state is volatile and lost).
    pub online: OnlinePolicy,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            max_attempts: 3,
            backoff_base_cycles: 1024,
            online: OnlinePolicy::default(),
        }
    }
}

/// What one [`ShardedEngine::repair_shard`] attempt did.
#[derive(Debug)]
pub enum RepairOutcome {
    /// The shard was rebuilt, re-verified, and is `Serving` again. The
    /// report is the lenient scrub's verdict over the rebuilt image.
    Restored(ScrubReport),
    /// The backoff gate is still closed: no attempt was consumed, the
    /// image (if any was supplied) is stashed for the retry at `until`.
    Backoff {
        /// Modeled cycle at which the next attempt may run.
        until: u64,
    },
    /// The attempt ran and could not rebuild a system; the shard is back
    /// in `Degraded` awaiting the next (backoff-gated) attempt.
    Failed {
        /// Attempts consumed so far, including this one.
        attempts: u32,
    },
    /// The attempt budget is spent (or there is nothing left to rebuild
    /// from): the shard is parked permanently pending operator action.
    Parked,
    /// The shard is serving; there is nothing to repair.
    NotDegraded,
}

/// A crashed image plus the quarantine set captured before the plug was
/// pulled, parked between repair attempts.
type StashedImage = (CrashedSystem, Vec<u64>);

/// Everything the engine keeps per shard.
struct Shard {
    /// The shard's system; empty while crashed, taken, or being rebuilt.
    sys: Mutex<Option<SecureNvmSystem>>,
    /// Lifecycle state ([`shard_state`]).
    state: AtomicU8,
    /// Repair attempts consumed ([`RepairPolicy::max_attempts`] bounds
    /// them; [`ShardedEngine::put_shard`] resets the count).
    repair_attempts: AtomicU32,
    /// Modeled-cycle gate before which the next repair attempt is refused
    /// ([`RepairOutcome::Backoff`]). `u64::MAX` as `now` bypasses it.
    next_repair_at: AtomicU64,
    /// Crashed image + captured quarantine set stashed between repair
    /// attempts (a backoff-refused attempt parks its inputs here so the
    /// retry does not need the caller to re-supply them).
    stashed: Mutex<Option<StashedImage>>,
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
    shards: Vec<Shard>,
    /// Engine-level lifecycle alarms: `ShardDegraded` transitions raised
    /// by the engine itself, plus harness-observed events recorded via
    /// [`Self::raise_alarm`] (e.g. torn writes in the chaos campaign).
    /// Per-shard *service* alarms live inside each shard's
    /// [`crate::online::OnlineService`]; [`Self::drain_alarms`] merges
    /// both in deterministic order.
    alarms: Mutex<AlarmLog>,
    /// Knobs for the repair loop (see [`RepairPolicy`]).
    repair_policy: RepairPolicy,
}

impl ShardedEngine {
    /// Builds `shards` interleaved (bank-style) shards over `cfg`'s data
    /// space. A `cfg.data_lines` that does not divide evenly is rounded
    /// down to the nearest multiple (shards are identical machines; the
    /// remainder lines are simply not addressable through the front-end).
    pub fn new(cfg: SystemConfig, shards: usize) -> Self {
        Self::with_mode(cfg, shards, StripeMode::Interleave)
    }

    /// [`Self::new`] with an explicit striping mode.
    pub fn with_mode(mut cfg: SystemConfig, shards: usize, mode: StripeMode) -> Self {
        assert!(shards >= 1, "need at least one shard");
        cfg.data_lines -= cfg.data_lines % shards as u64;
        let map = ShardMap::new(mode, shards, cfg.data_lines);
        let shard_cfg = Self::split_config(&cfg, shards);
        let shards = (0..shards)
            .map(|i| {
                let mut sys = SecureNvmSystem::new(shard_cfg.clone());
                sys.ctrl.nvm.set_shard(i as u16);
                Shard {
                    sys: Mutex::new(Some(sys)),
                    state: AtomicU8::new(shard_state::SERVING),
                    repair_attempts: AtomicU32::new(0),
                    next_repair_at: AtomicU64::new(0),
                    stashed: Mutex::new(None),
                }
            })
            .collect();
        ShardedEngine {
            map,
            shard_cfg,
            shards,
            alarms: Mutex::new(AlarmLog::new()),
            repair_policy: RepairPolicy::default(),
        }
    }

    /// Replaces the repair-loop knobs (construction-time configuration;
    /// the default is [`RepairPolicy::default`]).
    pub fn set_repair_policy(&mut self, policy: RepairPolicy) {
        self.repair_policy = policy;
    }

    /// The repair-loop knobs in force.
    pub fn repair_policy(&self) -> RepairPolicy {
        self.repair_policy
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
    fn guard(&self, s: usize) -> MutexGuard<'_, Option<SecureNvmSystem>> {
        self.shards[s]
            .sys
            .lock()
            .expect("shard lock poisoned by a panic")
    }

    /// Parks a serving shard `s` `Degraded`, raising a `ShardDegraded`
    /// alarm on that transition only; a shard already out of service keeps
    /// its repair state. Lifecycle alarms carry cycle stamp 0: the engine
    /// has no global clock, and a constant stamp keeps the merged alarm log
    /// byte-identical across host thread schedules.
    fn mark_degraded(&self, s: usize) {
        if self.shards[s]
            .state
            .compare_exchange(
                shard_state::SERVING,
                shard_state::DEGRADED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            self.raise_alarm(Alarm {
                kind: AlarmKind::ShardDegraded,
                shard: s as u16,
                addr: None,
                cycle: 0,
            });
        }
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
        let mut g = self.guard(s);
        let Some(sys) = g.as_mut().filter(|_| !self.is_degraded(s)) else {
            return Err(IntegrityError::ShardDegraded { shard: s as u16 });
        };
        let r = f(sys);
        if matches!(r, Err(IntegrityError::PowerCut)) {
            self.mark_degraded(s);
        }
        r
    }

    /// Whether shard `s` is out of service (`Degraded`, `Rebuilding` or
    /// `Parked`).
    pub fn is_degraded(&self, s: usize) -> bool {
        self.shards[s].state.load(Ordering::Acquire) != shard_state::SERVING
    }

    /// Shards currently out of service, in shard order.
    pub fn degraded_shards(&self) -> Vec<u16> {
        (0..self.shards())
            .filter(|&s| self.is_degraded(s))
            .map(|s| s as u16)
            .collect()
    }

    /// Whether shard `s` is permanently `Parked`: its repair attempt
    /// budget is spent (or there was nothing left to rebuild from) and
    /// only an operator [`Self::put_shard`] revives it.
    pub fn is_parked(&self, s: usize) -> bool {
        self.shards[s].state.load(Ordering::Acquire) == shard_state::PARKED
    }

    /// Shards permanently `Parked`, in shard order.
    pub fn parked_shards(&self) -> Vec<u16> {
        (0..self.shards())
            .filter(|&s| self.is_parked(s))
            .map(|s| s as u16)
            .collect()
    }

    /// Parks shard `s` `Degraded`, returning its system (if the slot still
    /// held one) so the caller can crash/scrub it offline. Requests routed
    /// to the shard fail with [`IntegrityError::ShardDegraded`] until
    /// [`Self::put_shard`] reinstates a recovered system.
    pub fn park_degraded(&self, s: usize) -> Option<SecureNvmSystem> {
        let mut g = self.guard(s);
        self.mark_degraded(s);
        g.take()
    }

    /// Securely writes one 64 B line at a global address. A request routed
    /// to a degraded or crashed/taken shard fails typed — a fault on one
    /// shard never panics traffic on the engine. A power cut parks the
    /// shard `Degraded` and returns [`IntegrityError::PowerCut`].
    pub fn write(&self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        let (s, local) = self.map.route(addr);
        self.serve(s, |sys| sys.write(local, data))
    }

    /// Securely reads one 64 B line at a global address. Degraded and
    /// crashed/taken shards fail typed, like [`Self::write`].
    pub fn read(&self, addr: u64) -> Result<[u8; 64], IntegrityError> {
        let (s, local) = self.map.route(addr);
        self.serve(s, |sys| sys.read(local))
    }

    /// Supervised heal of a quarantined global address: routes to
    /// [`SecureNvmSystem::heal_write`], which lifts the quarantine only
    /// after the fresh data passes a verify-after-write round-trip (the
    /// audited alternative to a blind
    /// [`SecureNvmSystem::clear_quarantine`]). Degraded and crashed/taken
    /// shards fail typed, like [`Self::write`].
    pub fn heal_write(&self, addr: u64, data: &[u8; 64]) -> Result<(), IntegrityError> {
        let (s, local) = self.map.route(addr);
        self.serve(s, |sys| sys.heal_write(local, data))
    }

    /// Runs `f` against shard `s`'s system under its lock, whatever its
    /// lifecycle state (harness and inspection access).
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&mut SecureNvmSystem) -> R) -> R {
        let mut g = self.guard(s);
        f(g.as_mut()
            .unwrap_or_else(|| panic!("shard {s} is crashed/taken")))
    }

    /// Removes shard `s`'s system from the engine (its slot stays empty
    /// until [`Self::put_shard`]; requests routed there fail typed
    /// meanwhile).
    pub fn take_shard(&self, s: usize) -> SecureNvmSystem {
        self.guard(s)
            .take()
            .unwrap_or_else(|| panic!("shard {s} already crashed/taken"))
    }

    /// Reinstates a system into shard `s`'s empty slot. The system must
    /// carry `s`'s own device label — installing a machine built for a
    /// different shard is a routing bug.
    pub fn put_shard(&self, s: usize, sys: SecureNvmSystem) {
        assert_eq!(
            sys.ctrl.nvm.shard(),
            s as u16,
            "installing shard {} machine into slot {s}",
            sys.ctrl.nvm.shard()
        );
        let mut g = self.guard(s);
        assert!(g.is_none(), "shard {s} slot already occupied");
        *g = Some(sys);
        // A freshly recovered/rebuilt system un-parks the shard. This is
        // also the operator's escape hatch for a permanently `Parked`
        // shard: installing a system resets the repair lifecycle (state,
        // attempt budget, backoff gate, stashed image).
        let shard = &self.shards[s];
        shard.state.store(shard_state::SERVING, Ordering::Release);
        shard.repair_attempts.store(0, Ordering::Release);
        shard.next_repair_at.store(0, Ordering::Release);
        *shard.stashed.lock().expect("stash poisoned by a panic") = None;
    }

    /// Pulls the plug on shard `s` only. Every other shard keeps running.
    pub fn crash_shard(&self, s: usize) -> CrashedSystem {
        self.take_shard(s).crash()
    }

    /// Strictly recovers shard `s` from its crashed image and reinstates
    /// it. Validates journal ownership first: if the image's ADR journal
    /// line was ever written, it must have been stamped by shard `s`'s own
    /// controller. On error the slot stays empty (callers may fall back to
    /// [`Self::scrub_shard`]).
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

    /// Leniently scrubs shard `s`'s crashed image, reinstating the rebuilt
    /// system when the scheme supports one. A scrub that cannot rebuild a
    /// system (WB has no metadata redundancy) leaves the slot empty and
    /// parks the shard `Degraded` — its verdict is unrecoverable at the
    /// shard level, so routing fails typed instead of panicking.
    pub fn scrub_shard(&self, s: usize, crashed: CrashedSystem) -> ScrubReport {
        Self::check_journal_owner(s, &crashed);
        let (sys, report) = crashed.recover_lenient();
        match sys {
            Some(sys) => self.put_shard(s, sys),
            None => self.mark_degraded(s),
        }
        report
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

    /// Stashes a crashed image (and its captured quarantine set) for a
    /// later repair attempt.
    fn stash_image(&self, s: usize, crashed: CrashedSystem, quarantine: &[u64]) {
        *self.shards[s]
            .stashed
            .lock()
            .expect("stash poisoned by a panic") = Some((crashed, quarantine.to_vec()));
    }

    /// One attempt of the online shard-repair loop: sources a crashed
    /// image for degraded shard `s` and delegates to
    /// [`Self::repair_shard_from`].
    ///
    /// The image comes from, in order: the shard's own slot (a parked but
    /// still-present system — its volatile quarantine set is captured,
    /// then the plug is pulled), or a previously stashed image (a
    /// backoff-refused attempt). A degraded shard with neither has nothing
    /// left to rebuild from — no retry can ever succeed, so it is parked
    /// permanently right away.
    ///
    /// `now` is the caller's modeled-cycle clock for the backoff gate;
    /// pass `u64::MAX` to force the attempt (operator retry, or the chaos
    /// campaign, which must not read neighbor shards' clocks).
    pub fn repair_shard(&self, s: usize, now: u64) -> RepairOutcome {
        if self.is_parked(s) {
            return RepairOutcome::Parked;
        }
        if !self.is_degraded(s) {
            return RepairOutcome::NotDegraded;
        }
        let source = self.guard(s).take();
        let (crashed, quarantine) = match source {
            Some(sys) => {
                // The online service dies with the power: capture the
                // quarantine set before pulling the plug so the rebuilt
                // shard can replay it.
                let q: Vec<u64> = sys
                    .online()
                    .map(|o| o.quarantined().collect())
                    .unwrap_or_default();
                (sys.crash(), q)
            }
            None => match self.shards[s]
                .stashed
                .lock()
                .expect("stash poisoned by a panic")
                .take()
            {
                Some((c, q)) => (c, q),
                None => {
                    self.shards[s]
                        .state
                        .store(shard_state::PARKED, Ordering::Release);
                    return RepairOutcome::Parked;
                }
            },
        };
        self.repair_shard_from(s, crashed, &quarantine, now)
    }

    /// Runs one bounded, backoff-gated repair attempt for degraded shard
    /// `s` from a supplied crashed image, while neighbor shards keep
    /// serving (nothing here touches any other shard's lock).
    ///
    /// `Degraded → Rebuilding`: the attempt claims the shard, raises
    /// `ShardRepairStarted` (lifecycle alarm, cycle 0), and runs the laned
    /// lenient scrub over the image. On success the rebuilt system is
    /// re-verified end to end (a full online scrub pass re-quarantines,
    /// with fresh alarms, any line that is still bad), the captured
    /// `quarantine` set is replayed against it (lines the pass did *not*
    /// re-quarantine are provably clean now and released with an audited
    /// `QuarantineCleared`), and the system is atomically re-admitted
    /// (`→ Serving`, `ShardRestored`). On failure the shard returns to
    /// `Degraded` with an exponential backoff gate, until
    /// [`RepairPolicy::max_attempts`] parks it permanently (`→ Parked`).
    ///
    /// Determinism: lifecycle alarms carry cycle 0; replay releases are
    /// stamped with the rebuilt shard's *own* modeled clock. The attempt
    /// never reads another shard's clock, so concurrent repairs and host
    /// scheduling cannot perturb the exported alarm stream.
    pub fn repair_shard_from(
        &self,
        s: usize,
        crashed: CrashedSystem,
        quarantine: &[u64],
        now: u64,
    ) -> RepairOutcome {
        if self.is_parked(s) {
            // Keep the image for the operator's post-mortem.
            self.stash_image(s, crashed, quarantine);
            return RepairOutcome::Parked;
        }
        let shard = &self.shards[s];
        if shard
            .state
            .compare_exchange(
                shard_state::DEGRADED,
                shard_state::REBUILDING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            self.stash_image(s, crashed, quarantine);
            return RepairOutcome::NotDegraded;
        }
        let until = shard.next_repair_at.load(Ordering::Acquire);
        if now < until {
            self.stash_image(s, crashed, quarantine);
            shard.state.store(shard_state::DEGRADED, Ordering::Release);
            return RepairOutcome::Backoff { until };
        }
        let policy = self.repair_policy;
        let attempt = shard.repair_attempts.fetch_add(1, Ordering::AcqRel) + 1;
        if attempt > policy.max_attempts {
            self.stash_image(s, crashed, quarantine);
            shard.state.store(shard_state::PARKED, Ordering::Release);
            return RepairOutcome::Parked;
        }
        self.raise_alarm(Alarm {
            kind: AlarmKind::ShardRepairStarted,
            shard: s as u16,
            addr: None,
            cycle: 0,
        });
        Self::check_journal_owner(s, &crashed);
        let crashed = crashed.with_recovery_lanes(par::recovery_workers());
        let (sys, report) = crashed.recover_lenient();
        match sys {
            Some(mut sys) => {
                sys.enable_online(policy.online);
                // Re-verify the rebuilt tree end to end before re-admitting
                // the shard: every line that is still bad is re-quarantined
                // with a fresh alarm trail.
                sys.online_scrub_pass()
                    .expect("the scrub leaves the rebuilt device disarmed");
                // Replay the captured quarantine set: anything the full
                // pass did not re-quarantine read back authentic from the
                // rebuilt tree and is released, audited.
                let shard = s as u16;
                let cycle = sys.sim_cycles();
                if let Some(svc) = sys.online_mut() {
                    for &addr in quarantine {
                        if !svc.is_quarantined(addr) {
                            svc.note_heal(shard, addr, cycle);
                        }
                    }
                }
                self.put_shard(s, sys);
                self.raise_alarm(Alarm {
                    kind: AlarmKind::ShardRestored,
                    shard: s as u16,
                    addr: None,
                    cycle: 0,
                });
                RepairOutcome::Restored(report)
            }
            None => {
                // The image is consumed; a retry needs a fresh one.
                if attempt >= policy.max_attempts {
                    shard.state.store(shard_state::PARKED, Ordering::Release);
                    return RepairOutcome::Parked;
                }
                let shift = (attempt - 1).min(16);
                shard.next_repair_at.store(
                    now.saturating_add(policy.backoff_base_cycles << shift),
                    Ordering::Release,
                );
                shard.state.store(shard_state::DEGRADED, Ordering::Release);
                RepairOutcome::Failed { attempts: attempt }
            }
        }
    }

    /// Deterministic simulated-cycle makespan: the furthest any shard's
    /// clocks have advanced (empty slots contribute 0). With perfect
    /// balance this is `1/N` of the serial machine's clock — the quantity
    /// the stress bench's scaling gate is computed from.
    pub fn sim_cycles(&self) -> u64 {
        (0..self.shards())
            .map(|s| self.guard(s).as_ref().map_or(0, |sys| sys.sim_cycles()))
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
            if let Some(sys) = self.guard(s).as_ref() {
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

    /// Enables the online integrity service on every live shard under one
    /// shared `policy` (see [`crate::online::OnlinePolicy`]). Shards whose
    /// slot is empty or degraded are skipped; a system reinstated later via
    /// [`Self::put_shard`] must be re-enabled by the caller.
    pub fn enable_online(&self, policy: OnlinePolicy) {
        for s in 0..self.shards() {
            if let Some(sys) = self.guard(s).as_mut() {
                sys.enable_online(policy);
            }
        }
    }

    /// Runs one scrub step on every live, serving shard (the per-shard
    /// period is bypassed; the occupancy throttle still applies). The
    /// engine-level analogue of [`SecureNvmSystem::online_step`]. A power
    /// cut parks the tripping shard, like [`Self::write`], and ends the
    /// tick there.
    pub fn online_tick(&self) -> Result<(), IntegrityError> {
        for s in 0..self.shards() {
            match self.serve(s, |sys| sys.online_step()) {
                Ok(()) | Err(IntegrityError::ShardDegraded { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
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
            let mut g = self.guard(s);
            if let Some(sys) = g.as_mut() {
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
    /// are independent region jobs on a work-stealing queue served by
    /// `workers` threads (clamped to [`par::MAX_WORKERS`]). Each region
    /// recovers off its own ADR journal line with `workers` lane-mark slots
    /// and reinstates itself into its slot as soon as it finishes.
    ///
    /// Determinism: every number in the returned [`ParallelRecovery`]
    /// except `steals` is computed from the per-shard reports and the
    /// *modeled* lane fold ([`par::fold_lanes`]) — byte-identical no matter
    /// how the host actually schedules the worker threads. `steals` is the
    /// wall-side steal count and is deliberately kept out of `metrics`.
    ///
    /// On the first per-shard error the whole call errors; regions that
    /// already recovered stay installed and the failing slot stays empty
    /// (callers may fall back to [`Self::scrub_all`] on a replay).
    pub fn recover_all(
        &self,
        crashed: Vec<CrashedSystem>,
        workers: usize,
    ) -> Result<ParallelRecovery, IntegrityError> {
        assert_eq!(crashed.len(), self.shards(), "one crashed image per shard");
        let workers = workers.clamp(1, par::MAX_WORKERS);
        let images: Vec<Mutex<Option<CrashedSystem>>> =
            crashed.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let (results, steals) = par::run_regions(workers, images.len(), |s, _w| {
            let img = images[s]
                .lock()
                .unwrap()
                .take()
                .expect("each region runs exactly once")
                .with_recovery_lanes(workers);
            self.recover_shard(s, img)
        });
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
            steals,
            metrics,
        })
    }

    /// The lenient mirror of [`Self::recover_all`]: scrubs every region in
    /// parallel and merges the per-region verdicts ([`ScrubReport::merge`])
    /// into one whole-engine report whose `unrecoverable_addrs` are
    /// translated back into global byte addresses. Shards whose scheme
    /// yields a rebuilt system are reinstated; WB slots stay empty.
    pub fn scrub_all(
        &self,
        crashed: Vec<CrashedSystem>,
        workers: usize,
    ) -> (Vec<ScrubReport>, ScrubReport) {
        assert_eq!(crashed.len(), self.shards(), "one crashed image per shard");
        let workers = workers.clamp(1, par::MAX_WORKERS);
        let images: Vec<Mutex<Option<CrashedSystem>>> =
            crashed.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let (reports, _steals) = par::run_regions(workers, images.len(), |s, _w| {
            let img = images[s]
                .lock()
                .unwrap()
                .take()
                .expect("each region runs exactly once")
                .with_recovery_lanes(workers);
            self.scrub_shard(s, img)
        });
        let mut merged = ScrubReport::empty(reports[0].scheme.clone(), 0, 0);
        for (s, r) in reports.iter().enumerate() {
            let mut global = r.clone();
            global.unrecoverable_addrs = r
                .unrecoverable_addrs
                .iter()
                .map(|&a| self.map.global_line(s, a / 64) * 64)
                .collect();
            merged.merge(&global);
        }
        (reports, merged)
    }
}

/// Outcome of a whole-engine parallel recovery ([`ShardedEngine::recover_all`]).
///
/// Everything here except `steals` is a pure function of the per-shard
/// recovery reports and the requested worker count — the quantities the
/// recovery ladder's scaling gate and its byte-identical JSON artifact are
/// built from. `steals` reflects the host's actual thread interleaving and
/// must never be exported.
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
    /// Work-stealing events observed on the wall-side queue. Varies with
    /// host scheduling; excluded from `metrics` by design.
    pub steals: u64,
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

    /// Modeled speedup of this fold over a baseline fold of the same work.
    pub fn speedup_over(&self, baseline: &ParallelRecovery) -> f64 {
        baseline.makespan_reads as f64 / self.makespan_reads.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use crate::crash::{CrashSweep, PointSelection, SweepOp};
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
        let points = sweep.crash_points().unwrap();
        assert!(points.iter().any(|p| p.shard == 1));
        for p in points {
            assert!(sweep.probe_point(p).is_none(), "{p:?} failed");
        }
    }

    #[test]
    fn wb_refuses_sharded_recovery_at_every_point() {
        let report = sweep2(SchemeKind::WriteBack, 5, 24, PointSelection::AtMost(2)).run();
        assert!(report.clean(), "{report}");
        assert!(report.tested_points > 0);
    }

    #[test]
    fn nested_crash_restarts_only_the_interrupted_shard() {
        let sweep = sweep2(SchemeKind::Steins, 23, 32, PointSelection::AtMost(2));
        let report = sweep.run_nested(&[0xFF], &[0xFF], PointSelection::AtMost(2));
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
            quad.speedup_over(&serial) >= 3.0,
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
    fn parallel_scrub_all_merges_region_verdicts() {
        let engine = dirtied(4, 64);
        let images = engine.crash_all();
        let (reports, merged) = engine.scrub_all(images, 4);
        assert_eq!(reports.len(), 4);
        assert_eq!(
            merged.data_intact,
            reports.iter().map(|r| r.data_intact).sum::<u64>()
        );
        assert_eq!(merged.data_unrecoverable, 0, "{merged}");
        for line in 0..64u64 {
            assert_eq!(engine.read(line * 64).unwrap(), SweepOp::payload(line, 6));
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
        // Operator path: park (taking the cut system), scrub its crashed
        // image offline, reinstate. put_shard returns it to service.
        let cut = engine.park_degraded(0).expect("system still in slot");
        let report = engine.scrub_shard(0, cut.crash());
        assert!(report.clean(), "{report}");
        assert!(!engine.is_degraded(0));
        assert_eq!(engine.read(line0 * 64).unwrap(), SweepOp::payload(line0, 4));
        let kinds: Vec<AlarmKind> = engine
            .drain_alarms()
            .events()
            .iter()
            .map(|a| a.kind)
            .collect();
        assert_eq!(kinds, vec![AlarmKind::ShardDegraded], "one park, one alarm");
    }

    #[test]
    fn unrebuildable_scrub_parks_shard_degraded() {
        let engine = ShardedEngine::new(small(SchemeKind::WriteBack), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 8)).unwrap();
        }
        let m = *engine.map();
        let crashed = engine.crash_shard(1);
        // WB has no metadata redundancy: the scrub classifies but cannot
        // rebuild, so the shard parks Degraded instead of panicking.
        let report = engine.scrub_shard(1, crashed);
        assert!(report.data_intact > 0);
        assert!(engine.is_degraded(1));
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
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
        assert!(matches!(
            engine.repair_shard(0, u64::MAX),
            RepairOutcome::NotDegraded
        ));
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
        let outcome = engine.repair_shard(0, u64::MAX);
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
        assert!(matches!(
            engine.repair_shard(0, u64::MAX),
            RepairOutcome::NotDegraded
        ));
    }

    #[test]
    fn failed_repairs_back_off_exponentially_then_park_permanently() {
        // WB images cannot be rebuilt, so every attempt fails — the loop
        // must consume its bounded budget and park, never spin.
        let donor = || {
            let d = ShardedEngine::new(small(SchemeKind::WriteBack), 2);
            for line in 0..16u64 {
                d.write(line * 64, &SweepOp::payload(line, 8)).unwrap();
            }
            d.crash_shard(1)
        };
        let engine = ShardedEngine::new(small(SchemeKind::WriteBack), 2);
        for line in 0..16u64 {
            engine.write(line * 64, &SweepOp::payload(line, 8)).unwrap();
        }
        let img = engine.park_degraded(1).unwrap().crash();
        // Attempt 1 fails and arms the backoff gate at base << 0.
        assert!(matches!(
            engine.repair_shard_from(1, img, &[], 0),
            RepairOutcome::Failed { attempts: 1 }
        ));
        match engine.repair_shard_from(1, donor(), &[], 100) {
            RepairOutcome::Backoff { until } => assert_eq!(until, 1024),
            other => panic!("expected Backoff, got {other:?}"),
        }
        // Past the gate, the stashed image feeds attempt 2; the gate
        // doubles (5000 + 1024 << 1).
        assert!(matches!(
            engine.repair_shard(1, 5_000),
            RepairOutcome::Failed { attempts: 2 }
        ));
        match engine.repair_shard_from(1, donor(), &[], 6_000) {
            RepairOutcome::Backoff { until } => assert_eq!(until, 7_048),
            other => panic!("expected Backoff, got {other:?}"),
        }
        // Attempt 3 spends the budget: permanently parked.
        assert!(matches!(
            engine.repair_shard(1, u64::MAX),
            RepairOutcome::Parked
        ));
        assert!(engine.is_parked(1));
        assert!(engine.is_degraded(1));
        assert_eq!(engine.parked_shards(), vec![1]);
        assert_eq!(engine.report().gauge("core.shards.parked"), Some(1.0));
        assert!(matches!(
            engine.repair_shard(1, u64::MAX),
            RepairOutcome::Parked
        ));
        let m = *engine.map();
        let line1 = (0..16u64).find(|&l| m.shard_of(l) == 1).unwrap();
        assert_eq!(
            engine.read(line1 * 64),
            Err(IntegrityError::ShardDegraded { shard: 1 })
        );
        // Exact alarm trail: one park, three started attempts, no restore.
        let log = engine.drain_alarms();
        let kinds_s1: Vec<AlarmKind> = log
            .events()
            .iter()
            .filter(|a| a.shard == 1)
            .map(|a| a.kind)
            .collect();
        assert_eq!(
            kinds_s1,
            vec![
                AlarmKind::ShardDegraded,
                AlarmKind::ShardRepairStarted,
                AlarmKind::ShardRepairStarted,
                AlarmKind::ShardRepairStarted,
            ]
        );
        // Operator escape hatch: installing a fresh system un-parks the
        // shard and resets the repair lifecycle.
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
        // The degraded shard's image is gone for good (dropped, not
        // stashed): no retry can ever succeed, so repair parks it on the
        // spot rather than burning attempts.
        drop(engine.park_degraded(0).unwrap());
        assert!(matches!(
            engine.repair_shard(0, u64::MAX),
            RepairOutcome::Parked
        ));
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
        let report = sweep.run_worker_crashes(PointSelection::AtMost(2), 4);
        assert!(report.clean(), "{report}");
        assert!(report.tested_points > 0);
    }
}
