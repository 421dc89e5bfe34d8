//! Online integrity service: incremental background scrub, quarantine and
//! attack-detection alarms — running concurrently with serving traffic
//! instead of stop-the-world.
//!
//! The post-crash lenient scrub ([`crate::scrub`]) verifies the whole
//! machine in one pass while nothing else runs. This module converts that
//! pass into a *cursor-driven* background service a live
//! [`crate::SecureNvmSystem`] (and, per shard, a
//! [`crate::ShardedEngine`]) runs between serving requests:
//!
//! * **Incremental scrub** — every `scrub_period_ops` served operations,
//!   the service verifies the next `scrub_batch_lines` data lines: a timed
//!   background read (charging device bank occupancy — the serving cost
//!   the throttle bounds — and driving the device's bounded
//!   exponential-backoff retry schedule, which heals short transient
//!   faults), then the line's verdict against its MAC record
//!   ([`crate::cme::MacRecord::judge`]). The patrol persists nothing: its
//!   cursor is volatile and dies with the power, so a restarted service
//!   starts at line zero (a repaired shard runs one full pass before it
//!   serves again).
//! * **Throttle negotiation** — a scrub step first consults the live
//!   write-queue occupancy; above `throttle_occupancy` the step yields to
//!   serving traffic (alarm draining still runs — detections are never
//!   throttled).
//! * **Quarantine** — a line that fails its MAC, stays unreadable after
//!   the retry budget, or exhausts its transient re-reads is parked in a
//!   per-region quarantine: subsequent reads *and* writes fail typed with
//!   [`IntegrityError::Quarantined`](crate::IntegrityError::Quarantined)
//!   until an operator clears it. The ack is never silently wrong.
//! * **Alarms** — MAC mismatches, replay suspicion (LInc drift),
//!   unreadable regions, and exhausted retries surface as typed
//!   [`Alarm`]s through the obs alarm channel; the sharded engine adds
//!   `ShardDegraded` and `TornWrite` lifecycle alarms.

use std::collections::BTreeSet;

use steins_obs::{Alarm, AlarmKind, AlarmLog, MetricRegistry};

use crate::cme::LineVerdict;
use crate::engine::SecureNvmSystem;

/// Policy knobs of the online integrity service (Triad-NVM-style:
/// the operator trades scrub latency against serving throughput).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlinePolicy {
    /// Served operations between scrub steps (the scrub period).
    pub scrub_period_ops: u64,
    /// Data lines verified per scrub step (the scrub batch).
    pub scrub_batch_lines: u64,
    /// Write-queue occupancy fraction above which a scrub step yields to
    /// serving traffic (alarm draining still runs).
    pub throttle_occupancy: f64,
}

impl Default for OnlinePolicy {
    /// The default patrols slowly — two lines every 128 served ops — so
    /// enabling the service costs under 10% serving throughput (gated by
    /// the `chaos` bench); chaos/soak configs crank the period down.
    fn default() -> Self {
        OnlinePolicy {
            scrub_period_ops: 128,
            scrub_batch_lines: 2,
            throttle_occupancy: 0.5,
        }
    }
}

/// The per-system online integrity service: scrub cursor, quarantine set,
/// alarm log, and telemetry counters. Owned by a
/// [`SecureNvmSystem`] (one per shard under a
/// [`ShardedEngine`](crate::ShardedEngine)); all state advances only
/// through modeled events, so every counter and alarm is deterministic.
#[derive(Clone, Debug)]
pub struct OnlineService {
    policy: OnlinePolicy,
    /// Next data line the scrub will verify.
    cursor: u64,
    /// Completed full passes over the data region.
    passes: u64,
    ops_since_step: u64,
    /// Quarantined line addresses (local byte addresses, 64 B aligned).
    quarantine: BTreeSet<u64>,
    pub(crate) alarms: AlarmLog,
    // Telemetry.
    steps: u64,
    throttled: u64,
    scanned: u64,
    verified: u64,
    healed: u64,
    quarantine_events: u64,
    /// Quarantine releases (operator clears + supervised heals).
    cleared: u64,
    retry_exhausted: u64,
    replay_suspected: u64,
}

impl OnlineService {
    /// A fresh service under `policy`, cursor at line zero.
    pub fn new(policy: OnlinePolicy) -> Self {
        OnlineService {
            policy,
            cursor: 0,
            passes: 0,
            ops_since_step: 0,
            quarantine: BTreeSet::new(),
            alarms: AlarmLog::new(),
            steps: 0,
            throttled: 0,
            scanned: 0,
            verified: 0,
            healed: 0,
            quarantine_events: 0,
            cleared: 0,
            retry_exhausted: 0,
            replay_suspected: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &OnlinePolicy {
        &self.policy
    }

    /// The scrub cursor (next data line to verify).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Completed full passes.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Audited quarantine releases so far (operator clears, supervised
    /// heals, post-repair replays).
    pub fn cleared(&self) -> u64 {
        self.cleared
    }

    /// Whether `addr`'s line is quarantined.
    pub fn is_quarantined(&self, addr: u64) -> bool {
        self.quarantine.contains(&(addr & !63))
    }

    /// The quarantined line addresses, in address order.
    pub fn quarantined(&self) -> impl Iterator<Item = u64> + '_ {
        self.quarantine.iter().copied()
    }

    /// Releases `addr`'s line from quarantine, raising an auditable
    /// [`AlarmKind::QuarantineCleared`] alarm when it was actually held —
    /// the quarantine set never shrinks silently. Returns whether it was
    /// quarantined. The scrub will re-quarantine the line on the next pass
    /// if the underlying fault persists. `shard`/`cycle` stamp the alarm
    /// (shard-local modeled time keeps the log deterministic).
    pub fn clear_quarantine(&mut self, shard: u16, addr: u64, cycle: u64) -> bool {
        let removed = self.quarantine.remove(&(addr & !63));
        if removed {
            self.cleared += 1;
            self.raise(AlarmKind::QuarantineCleared, shard, Some(addr & !63), cycle);
        }
        removed
    }

    /// Removes `addr` from the set without an alarm — the heal-write
    /// probe's temporary lift; the audited outcome ([`Self::note_heal`] or
    /// [`Self::requarantine`]) always follows before control returns to
    /// the caller.
    pub(crate) fn remove_quarantined(&mut self, addr: u64) {
        self.quarantine.remove(&(addr & !63));
    }

    /// Re-quarantines a line whose heal probe failed: the fault persists,
    /// so the re-detection alarm is raised again (same kind as a fresh
    /// scrub hit).
    pub(crate) fn requarantine(&mut self, shard: u16, addr: u64, cycle: u64) {
        self.quarantine_line(AlarmKind::MacMismatch, shard, addr, cycle);
    }

    /// Records a successful supervised heal: the verify-after-write
    /// round-trip proved the line sound, so the release is audited as a
    /// [`AlarmKind::QuarantineCleared`] event.
    pub(crate) fn note_heal(&mut self, shard: u16, addr: u64, cycle: u64) {
        self.cleared += 1;
        self.raise(AlarmKind::QuarantineCleared, shard, Some(addr & !63), cycle);
    }

    /// The alarm log (drain through
    /// [`SecureNvmSystem::drain_alarms`](crate::SecureNvmSystem::drain_alarms)).
    pub fn alarms(&self) -> &AlarmLog {
        &self.alarms
    }

    /// Counts one served operation; true when a scrub step is due.
    pub(crate) fn note_op(&mut self) -> bool {
        self.ops_since_step += 1;
        self.ops_since_step >= self.policy.scrub_period_ops
    }

    fn raise(&mut self, kind: AlarmKind, shard: u16, addr: Option<u64>, cycle: u64) {
        self.alarms.raise(Alarm {
            kind,
            shard,
            addr,
            cycle,
        });
    }

    fn quarantine_line(&mut self, kind: AlarmKind, shard: u16, addr: u64, cycle: u64) {
        if self.quarantine.insert(addr & !63) {
            self.quarantine_events += 1;
            self.raise(kind, shard, Some(addr & !63), cycle);
        }
    }

    /// Drains the device's exhausted-retry promotions into typed alarms
    /// and quarantine. Never throttled: a fault the serving path already
    /// hit must surface immediately.
    fn drain_retry_exhausted(&mut self, sys: &mut SecureNvmSystem) {
        let shard = sys.ctrl.nvm.shard();
        for (addr, cycle) in sys.ctrl.nvm.take_retry_exhausted() {
            self.retry_exhausted += 1;
            if sys.ctrl.layout.is_data(addr) {
                self.quarantine_line(AlarmKind::RetryExhausted, shard, addr, cycle);
            } else {
                // Metadata-region exhaustion: alarm (recovery's problem to
                // classify), but the data-plane quarantine does not apply.
                self.raise(AlarmKind::RetryExhausted, shard, Some(addr), cycle);
            }
        }
    }

    /// Verifies one data line in the background. Reads through the timed
    /// device path (charging bank occupancy, driving the retry/backoff
    /// schedule), then checks the data MAC against the line's record.
    /// Lines already quarantined are skipped.
    fn verify_line(&mut self, sys: &mut SecureNvmSystem, d: u64) {
        let daddr = sys.ctrl.layout.data_base + d * 64;
        if self.quarantine.contains(&daddr) {
            return;
        }
        // Never-written lines still get the media probe below (a patrol
        // scrub reads the whole region, and faults land anywhere); only
        // the MAC check is skipped for them.
        self.scanned += 1;
        let was_bad = !sys.ctrl.nvm.is_readable(daddr);
        let t = sys.ctrl.front_free;
        let (ct, done) = sys.ctrl.nvm.read(t, daddr);
        // The patrol read occupies the controller front like any other
        // access — this is exactly the throughput cost the throttle knob
        // trades against scrub latency.
        sys.ctrl.front_free = sys.ctrl.front_free.max(done);
        // The read may have promoted an exhausted transient — surface it.
        self.drain_retry_exhausted(sys);
        if !sys.ctrl.nvm.is_readable(daddr) {
            let shard = sys.ctrl.nvm.shard();
            let cycle = sys.sim_cycles();
            self.quarantine_line(AlarmKind::UnreadableRegion, shard, daddr, cycle);
            return;
        }
        if was_bad {
            self.healed += 1;
        }
        let rec = sys.ctrl.data_mac_record(d);
        match rec.judge(sys.ctrl.crypto.as_ref(), daddr, &ct) {
            LineVerdict::Unwritten => {} // defined zeros
            LineVerdict::Authentic { .. } => self.verified += 1,
            LineVerdict::Forged { .. } => {
                let shard = sys.ctrl.nvm.shard();
                let cycle = sys.sim_cycles();
                self.quarantine_line(AlarmKind::MacMismatch, shard, daddr, cycle);
            }
        }
    }

    /// End-of-pass work: the LInc drift check (replay suspicion).
    fn end_of_pass(&mut self, sys: &mut SecureNvmSystem) {
        self.passes += 1;
        // Replay suspicion: the trusted LInc registers must equal a
        // recomputation from the cache + NV-buffer state. Drift means the
        // durable counters no longer account for the trusted increments —
        // the signature replay detection keys on (§III-D).
        if let (Some(have), Some(want)) = (sys.ctrl.lincs(), sys.ctrl.recompute_lincs()) {
            if have != want {
                self.replay_suspected += 1;
                let shard = sys.ctrl.nvm.shard();
                let cycle = sys.sim_cycles();
                self.raise(AlarmKind::Replay, shard, None, cycle);
            }
        }
    }

    /// One scrub step: drain promotions, negotiate the throttle against
    /// live write-queue occupancy, verify the next batch of lines. Persists
    /// nothing.
    pub(crate) fn step(&mut self, sys: &mut SecureNvmSystem) {
        self.steps += 1;
        self.ops_since_step = 0;
        self.drain_retry_exhausted(sys);
        let now = sys.ctrl.front_free;
        let occ = sys.ctrl.wq.occupancy(now) as f64 / sys.ctrl.wq.capacity().max(1) as f64;
        if occ > self.policy.throttle_occupancy {
            self.throttled += 1;
            return;
        }
        let lines = sys.ctrl.layout.data_lines;
        if lines == 0 {
            return;
        }
        for _ in 0..self.policy.scrub_batch_lines.min(lines) {
            let d = self.cursor;
            self.cursor += 1;
            if self.cursor >= lines {
                self.cursor = 0;
            }
            self.verify_line(sys, d);
            if self.cursor == 0 {
                self.end_of_pass(sys);
            }
        }
    }

    /// One full drain pass over every data line, ignoring the period and
    /// throttle — the operator's "finish the scrub now" lever, and the
    /// chaos harness's end-of-run settling pass. Persists nothing.
    pub(crate) fn full_pass(&mut self, sys: &mut SecureNvmSystem) {
        self.drain_retry_exhausted(sys);
        let lines = sys.ctrl.layout.data_lines;
        for d in 0..lines {
            self.verify_line(sys, d);
        }
        self.cursor = 0;
        if lines > 0 {
            self.end_of_pass(sys);
        }
    }

    /// Exports the service's telemetry under `core.online.` plus the
    /// alarm counters (`obs.alarms.*`).
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        reg.counter_add("core.online.steps", self.steps);
        reg.counter_add("core.online.throttled", self.throttled);
        reg.counter_add("core.online.passes", self.passes);
        reg.counter_add("core.online.scanned", self.scanned);
        reg.counter_add("core.online.verified", self.verified);
        reg.counter_add("core.online.healed", self.healed);
        reg.counter_add("core.online.quarantine_events", self.quarantine_events);
        reg.counter_add("core.online.quarantine_cleared", self.cleared);
        reg.counter_add("core.online.retry_exhausted", self.retry_exhausted);
        reg.counter_add("core.online.replay_suspected", self.replay_suspected);
        reg.gauge_set("core.online.quarantined", self.quarantine.len() as f64);
        reg.gauge_set("core.online.cursor", self.cursor as f64);
        reg.merge(&self.alarms.metrics());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchemeKind, SystemConfig};
    use crate::engine::synth_data;
    use crate::error::IntegrityError;
    use steins_metadata::CounterMode;

    fn sys(mode: CounterMode) -> SecureNvmSystem {
        SecureNvmSystem::new(SystemConfig::small_for_tests(SchemeKind::Steins, mode))
    }

    fn active_policy() -> OnlinePolicy {
        OnlinePolicy {
            scrub_period_ops: 8,
            scrub_batch_lines: 8,
            throttle_occupancy: 1.0,
        }
    }

    #[test]
    fn clean_traffic_scrubs_and_raises_no_alarms() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..64u64 {
            s.write(line * 64, &synth_data(line * 64, 1)).unwrap();
        }
        // Force enough steps to complete at least one pass.
        let lines = s.ctrl.layout.data_lines;
        for _ in 0..=lines / 8 {
            s.online_step();
        }
        let svc = s.online().unwrap();
        assert!(svc.passes() >= 1, "cursor never wrapped");
        assert!(svc.verified >= 64, "verified {}", svc.verified);
        assert!(svc.alarms().is_empty());
        assert_eq!(svc.quarantined().count(), 0);
    }

    /// The patrol is read-only: no step and no full pass fires a persist,
    /// so a crash armed at the next persist never trips inside it, and a
    /// read that issues no persist of its own cannot fail `PowerCut`
    /// because a scrub step ran after it.
    #[test]
    fn a_patrol_step_persists_nothing() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..16u64 {
            s.write(line * 64, &synth_data(line * 64, 8)).unwrap();
        }
        let seq = s.ctrl.nvm.persist_seq();
        s.ctrl.nvm.arm_crash(seq + 1);
        let cursor = s.online().unwrap().cursor();
        s.online_step();
        assert_ne!(
            s.online().unwrap().cursor(),
            cursor,
            "the step scanned nothing"
        );
        s.online_scrub_pass();
        assert_eq!(s.ctrl.nvm.persist_seq(), seq);
        assert!(s.ctrl.nvm.tripped_at().is_none());

        // A step due after every op: the first read on a fresh machine
        // fetches its line, persists nothing, and runs a step.
        let mut s = sys(CounterMode::General);
        s.enable_online(OnlinePolicy {
            scrub_period_ops: 1,
            ..active_policy()
        });
        let seq = s.ctrl.nvm.persist_seq();
        s.ctrl.nvm.arm_crash(seq + 1);
        assert_eq!(s.read(3 * 64), Ok([0u8; 64]));
        assert_eq!(s.online().unwrap().steps, 1);
        assert_eq!(s.ctrl.nvm.persist_seq(), seq);
        assert!(s.ctrl.nvm.tripped_at().is_none());
    }

    #[test]
    fn tampered_line_is_quarantined_and_fails_typed() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..16u64 {
            s.write(line * 64, &synth_data(line * 64, 2)).unwrap();
        }
        let victim = 5 * 64;
        s.ctrl.nvm.inject_bit_flip(victim, 3, 1);
        s.online_scrub_pass();
        let svc = s.online().unwrap();
        assert!(svc.is_quarantined(victim));
        assert_eq!(svc.alarms().count(AlarmKind::MacMismatch), 1);
        assert_eq!(
            s.read(victim),
            Err(IntegrityError::Quarantined { addr: victim })
        );
        assert_eq!(
            s.write(victim, &[0; 64]),
            Err(IntegrityError::Quarantined { addr: victim })
        );
        // Neighbors still serve.
        assert_eq!(s.read(6 * 64).unwrap(), synth_data(6 * 64, 2));
        // Operator clears the quarantine; the next pass re-detects.
        assert!(s.clear_quarantine(victim));
        s.online_scrub_pass();
        assert!(s.online().unwrap().is_quarantined(victim));
    }

    /// `heal_write` replaces a line whose stored bytes fail their MAC, the
    /// case it exists for, without reading the old line first: a live line
    /// with a flipped bit, and a tampered line that a lenient recovery
    /// dropped and the patrol then quarantined. The quarantine lifts with
    /// one audited clear and the line reads back the new data.
    #[test]
    fn heal_write_replaces_a_line_that_fails_its_mac() {
        for mode in [CounterMode::General, CounterMode::Split] {
            let written = || {
                let mut s = sys(mode);
                for line in 0..8u64 {
                    s.write(line * 64, &synth_data(line * 64, 5)).unwrap();
                }
                s
            };
            let mut live = written();
            live.enable_online(active_policy());
            live.ctrl.nvm.inject_bit_flip(0, 3, 1);
            live.online_scrub_pass();
            let mut crashed = written().crash();
            crashed.tamper_data_at(3, 17, 0x80);
            let (recovered, _) = crashed.recover_lenient();
            let mut recovered = recovered.expect("Steins rebuilds its metadata");
            recovered.enable_online(active_policy());
            recovered.online_scrub_pass();
            for (mut s, addr) in [(live, 0), (recovered, 3 * 64)] {
                let svc = s.online().unwrap();
                assert!(svc.is_quarantined(addr), "{mode:?} {addr:#x}");
                let fresh = synth_data(addr, 9);
                assert_eq!(s.heal_write(addr, &fresh), Ok(()), "{mode:?} {addr:#x}");
                let svc = s.online().unwrap();
                assert!(!svc.is_quarantined(addr), "{mode:?} {addr:#x}");
                assert_eq!(svc.alarms().count(AlarmKind::QuarantineCleared), 1);
                assert_eq!(s.read(addr), Ok(fresh), "{mode:?} {addr:#x}");
            }
        }
    }

    #[test]
    fn transient_fault_heals_and_permanent_fault_quarantines() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..8u64 {
            s.write(line * 64, &synth_data(line * 64, 3)).unwrap();
        }
        // Short transient: healed by the scrub read's backoff schedule.
        s.ctrl.nvm.inject_transient_unreadable(2 * 64, 2);
        // Permanent: quarantined with an alarm.
        s.ctrl.nvm.inject_unreadable(4 * 64);
        s.online_scrub_pass();
        let svc = s.online().unwrap();
        assert!(svc.healed >= 1, "transient not healed");
        assert!(!svc.is_quarantined(2 * 64));
        assert!(svc.is_quarantined(4 * 64));
        assert_eq!(svc.alarms().count(AlarmKind::UnreadableRegion), 1);
        assert_eq!(s.read(2 * 64).unwrap(), synth_data(2 * 64, 3));
    }

    #[test]
    fn auto_stepping_follows_the_period_and_respects_throttle() {
        let mut s = sys(CounterMode::General);
        s.enable_online(OnlinePolicy {
            scrub_period_ops: 4,
            scrub_batch_lines: 2,
            throttle_occupancy: 0.0, // always throttled
        });
        for line in 0..32u64 {
            s.write(line * 64, &synth_data(line * 64, 4)).unwrap();
        }
        let svc = s.online().unwrap();
        assert!(svc.steps >= 32 / 4, "steps {}", svc.steps);
        assert_eq!(svc.scanned, 0, "a fully-throttled scrub scans nothing");
        assert_eq!(svc.throttled, svc.steps);
    }

    #[test]
    fn linc_drift_raises_a_replay_alarm() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..8u64 {
            s.write(line * 64, &synth_data(line * 64, 5)).unwrap();
        }
        // Sabotage the trusted register directly: the recomputation no
        // longer matches, which is exactly what a replayed counter causes.
        if let crate::scheme::SchemeState::Steins(st) = &mut s.ctrl.scheme {
            st.nv.lincs.add(0, 7);
        }
        s.online_scrub_pass();
        let svc = s.online().unwrap();
        assert_eq!(svc.replay_suspected, 1);
        assert_eq!(svc.alarms().count(AlarmKind::Replay), 1);
    }

    #[test]
    fn retry_exhaustion_surfaces_via_alarm_and_quarantine() {
        let mut s = sys(CounterMode::General);
        s.enable_online(active_policy());
        for line in 0..8u64 {
            s.write(line * 64, &synth_data(line * 64, 6)).unwrap();
        }
        // More pending failures than the retry budget: the serving read
        // path promotes the fault; the service must surface it.
        s.ctrl.nvm.inject_transient_unreadable(64, 100);
        assert!(matches!(s.read(64), Err(IntegrityError::Unreadable { .. })));
        s.online_step();
        let svc = s.online().unwrap();
        assert!(svc.retry_exhausted >= 1);
        assert!(svc.is_quarantined(64));
        assert_eq!(svc.alarms().count(AlarmKind::RetryExhausted), 1);
        assert_eq!(s.read(64), Err(IntegrityError::Quarantined { addr: 64 }));
    }

    #[test]
    fn metrics_export_is_deterministic_and_prefixed() {
        let run = || {
            let mut s = sys(CounterMode::General);
            s.enable_online(active_policy());
            for line in 0..16u64 {
                s.write(line * 64, &synth_data(line * 64, 7)).unwrap();
            }
            s.ctrl.nvm.inject_unreadable(2 * 64);
            s.online_scrub_pass();
            s.report().metrics.to_json_deterministic().pretty()
        };
        let a = run();
        assert_eq!(a, run(), "online metrics must be deterministic");
        assert!(a.contains("core.online.steps"));
        assert!(a.contains("obs.alarms.total"));
    }
}
