//! Seeded randomized fault campaign (§III-H hardening, fault-model edition).
//!
//! The exhaustive crash sweep ([`crate::crash::CrashSweep`]) enumerates
//! *every* persist boundary but only one fault shape at a time. The campaign
//! composes the whole fault model at once, randomly but reproducibly:
//!
//! * a crash point drawn from the stream's persist-boundary range,
//! * a torn-word mask (whole-line, prefix, arbitrary subset, dropped),
//! * and — on attack iterations — post-crash NVM corruption: node/data bit
//!   flips, offset-record rewrites, raw line overwrites, plus *media*
//!   faults (stuck-at lines, uncorrectable reads) injected into the device.
//!
//! The contract is two-tier. **Crash-only points** must satisfy the strong
//! sweep contract: recovery (strict, or the lenient scrub when a torn
//! metadata line defeats fail-stop recovery) brings back every acknowledged
//! line, with the torn line failing closed. **Attacked points** get the
//! robustness contract: neither strict recovery nor the scrub may panic
//! (arbitrary corruption is the scrub's whole reason to exist), tampered
//! durable data must not be reported `Intact`, and no read of the scrubbed
//! machine may ever return wrong data with an `Ok` — detection, not
//! correction, is the promise under active attack.
//!
//! Every iteration derives its own RNG from `(seed, combo, iteration)`, so
//! a failure reproduces from the tuple printed in the report — and the
//! campaign re-runs the failing iteration on a truncated op stream to
//! shrink the repro before reporting it.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use steins_metadata::CounterMode;
use steins_obs::{Alarm, AlarmKind, AlarmLog, Histogram, MetricRegistry};
use steins_trace::rng::SmallRng;
use steins_trace::Zipf;

use crate::config::{SchemeKind, SystemConfig};
use crate::crash::{CrashPoint, CrashSweep, CrashedSystem, Outage, PointSelection, SweepOp};
use crate::engine::synth_data;
use crate::error::IntegrityError;
use crate::online::{OnlinePolicy, OnlineService};
use crate::par;
use crate::scrub::ScrubReport;
use crate::shard::{RepairOutcome, ShardedEngine};

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

/// Campaign parameters. Fully deterministic for a fixed config.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed; every iteration's RNG derives from it.
    pub seed: u64,
    /// Fault points injected per (scheme, mode) combination.
    pub points_per_combo: usize,
    /// Length of the op stream replayed before each crash.
    pub ops: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x5EED_FA17,
            points_per_combo: 32,
            ops: 60,
        }
    }
}

/// How one injected fault point resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignOutcome {
    /// Crash-only point: the strong sweep contract held.
    CrashRecovered,
    /// Crash-only point: the strong contract was violated.
    CrashFailed,
    /// Attacked point: no panic, verdicts and read-backs consistent.
    AttackHandled,
    /// Attacked point: strict recovery or the scrub unwound.
    AttackPanicked,
    /// Attacked point: a tampered durable line was reported intact, or a
    /// read returned wrong data with `Ok`.
    AttackInconsistent,
}

/// Aggregated campaign results (merge-able across combos).
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Crash-only points injected / passed.
    pub crash_points: u64,
    /// Nested points injected (crash *during* recovery of a crash).
    pub nested_points: u64,
    /// Attacked points injected.
    pub attack_points: u64,
    /// Panics that escaped recovery or the scrub (must be zero).
    pub panics: u64,
    /// Strict-recovery integrity errors observed under attack (detection
    /// events; informational).
    pub strict_detected: u64,
    /// Aggregated scrub verdict counters over all attack iterations.
    pub data_intact: u64,
    /// Data lines the scrub classified unrecoverable (expected under
    /// attack; informational).
    pub data_unrecoverable: u64,
    /// Metadata nodes rebuilt by the scrub.
    pub meta_recovered: u64,
    /// Human-readable minimal repros, one per failed point.
    pub failures: Vec<String>,
    /// Distribution of injected crash points (persist-boundary index).
    pub point_hist: Histogram,
}

impl CampaignReport {
    /// True when every injected point met its contract.
    pub fn clean(&self) -> bool {
        self.failures.is_empty() && self.panics == 0
    }

    /// Total injected fault points.
    pub fn points(&self) -> u64 {
        self.crash_points + self.nested_points + self.attack_points
    }

    /// Folds another combo's report into this one.
    pub fn merge(&mut self, other: &CampaignReport) {
        self.crash_points += other.crash_points;
        self.nested_points += other.nested_points;
        self.attack_points += other.attack_points;
        self.panics += other.panics;
        self.strict_detected += other.strict_detected;
        self.data_intact += other.data_intact;
        self.data_unrecoverable += other.data_unrecoverable;
        self.meta_recovered += other.meta_recovered;
        self.failures.extend(other.failures.iter().cloned());
        self.point_hist.merge(&other.point_hist);
    }

    /// Exports the campaign counters under `core.campaign.`.
    pub fn metrics(&self) -> MetricRegistry {
        let mut m = MetricRegistry::new();
        m.counter_add("core.campaign.points.crash", self.crash_points);
        m.counter_add("core.campaign.points.nested", self.nested_points);
        m.counter_add("core.campaign.points.attack", self.attack_points);
        m.counter_add("core.campaign.panics", self.panics);
        m.counter_add("core.campaign.failures", self.failures.len() as u64);
        m.counter_add("core.campaign.strict.detected", self.strict_detected);
        m.counter_add("core.campaign.scrub.data.intact", self.data_intact);
        m.counter_add(
            "core.campaign.scrub.data.unrecoverable",
            self.data_unrecoverable,
        );
        m.counter_add("core.campaign.scrub.meta.recovered", self.meta_recovered);
        m.insert_hist("core.campaign.point", &self.point_hist);
        m
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "campaign seed {:#x}: {} points ({} crash, {} nested, {} attack), \
             {} panics, {} strict detections, scrub {{intact {}, \
             unrecoverable {}, meta-recovered {}}}",
            self.seed,
            self.points(),
            self.crash_points,
            self.nested_points,
            self.attack_points,
            self.panics,
            self.strict_detected,
            self.data_intact,
            self.data_unrecoverable,
            self.meta_recovered,
        )?;
        if self.failures.is_empty() {
            write!(f, "  PASS: every point met its contract")?;
        } else {
            writeln!(
                f,
                "  FAIL: {} point(s) broke the contract",
                self.failures.len()
            )?;
            for fail in &self.failures {
                writeln!(f, "  - {fail}")?;
            }
        }
        Ok(())
    }
}

/// One random post-crash corruption, drawn per attack iteration.
#[derive(Clone, Copy, Debug)]
enum Attack {
    TamperNode {
        offset: u64,
        byte: usize,
        mask: u8,
    },
    TamperData {
        line: u64,
        byte: usize,
        mask: u8,
    },
    RewriteRecord {
        slot: u64,
        entry: Option<u64>,
    },
    RawOverwrite {
        node_offset: u64,
        fill: u8,
    },
    StuckLine {
        node_offset: u64,
        fill: u8,
    },
    Unreadable {
        data_line: u64,
    },
    BitFlip {
        data_line: u64,
        byte: usize,
        bit: u8,
    },
}

/// The randomized fault-campaign driver.
pub struct FaultCampaign {
    pub cfg: CampaignConfig,
}

impl FaultCampaign {
    /// A campaign with the given parameters.
    pub fn new(cfg: CampaignConfig) -> Self {
        FaultCampaign { cfg }
    }

    /// Per-iteration RNG: independent of execution order, so any single
    /// iteration reproduces from `(seed, combo, i)` alone.
    fn rng_for(&self, combo: usize, i: usize) -> SmallRng {
        SmallRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(combo as u32 * 7)
                ^ (i as u64).wrapping_mul(0xD134_2543_DE82_EF95),
        )
    }

    /// Draws the torn-word mask: whole-line persists stay the common case,
    /// with prefix tears, arbitrary subsets, and dropped writes mixed in.
    fn draw_mask(rng: &mut SmallRng) -> u8 {
        match rng.next_u64() % 4 {
            0 | 1 => 0xFF,
            2 => {
                // Prefix tear: the first 1..=7 words landed.
                let words = 1 + (rng.next_u64() % 7) as u8;
                (1u16 << words).wrapping_sub(1) as u8
            }
            _ => (rng.next_u64() & 0xFF) as u8, // arbitrary subset, 0x00 possible
        }
    }

    /// Draws one post-crash corruption against the given image geometry.
    fn draw_attack(
        rng: &mut SmallRng,
        total_nodes: u64,
        data_lines: u64,
        cache_slots: u64,
    ) -> Attack {
        let nz = |m: u8| if m == 0 { 1 } else { m };
        match rng.next_u64() % 7 {
            0 => Attack::TamperNode {
                offset: rng.next_u64() % total_nodes,
                byte: (rng.next_u64() % 64) as usize,
                mask: nz((rng.next_u64() & 0xFF) as u8),
            },
            1 => Attack::TamperData {
                line: rng.next_u64() % data_lines,
                byte: (rng.next_u64() % 64) as usize,
                mask: nz((rng.next_u64() & 0xFF) as u8),
            },
            2 => Attack::RewriteRecord {
                slot: rng.next_u64() % cache_slots,
                entry: if rng.next_u64() % 2 == 0 {
                    Some(rng.next_u64() % total_nodes)
                } else {
                    None
                },
            },
            3 => Attack::RawOverwrite {
                node_offset: rng.next_u64() % total_nodes,
                fill: (rng.next_u64() & 0xFF) as u8,
            },
            4 => Attack::StuckLine {
                node_offset: rng.next_u64() % total_nodes,
                fill: (rng.next_u64() & 0xFF) as u8,
            },
            5 => Attack::Unreadable {
                data_line: rng.next_u64() % data_lines,
            },
            _ => Attack::BitFlip {
                data_line: rng.next_u64() % data_lines,
                byte: (rng.next_u64() % 64) as usize,
                bit: (rng.next_u64() % 8) as u8,
            },
        }
    }

    /// Applies a drawn attack to a crashed image. Returns the *data*
    /// address the attack corrupted in storage, when it targeted the data
    /// plane directly (used for the no-false-`Intact` assertion), and
    /// whether the attack was a read-path media fault.
    fn apply_attack(crashed: &mut CrashedSystem, a: Attack) -> (Option<u64>, bool) {
        match a {
            Attack::TamperNode { offset, byte, mask } => {
                crashed.tamper_node_at(offset, byte, mask);
                (None, false)
            }
            Attack::TamperData { line, byte, mask } => {
                crashed.tamper_data_at(line, byte, mask);
                (Some(crashed.layout.data_base + line * 64), false)
            }
            Attack::RewriteRecord { slot, entry } => {
                crashed.rewrite_record(slot, entry);
                (None, false)
            }
            Attack::RawOverwrite { node_offset, fill } => {
                let addr = crashed.layout.node_addr(node_offset);
                crashed.poke_raw(addr, &[fill; 64]);
                (None, false)
            }
            Attack::StuckLine { node_offset, fill } => {
                let addr = crashed.layout.node_addr(node_offset);
                crashed.nvm_mut().inject_stuck_line(addr, [fill; 64]);
                (None, true)
            }
            Attack::Unreadable { data_line } => {
                let addr = crashed.layout.data_base + data_line * 64;
                crashed.nvm_mut().inject_unreadable(addr);
                (None, true)
            }
            Attack::BitFlip {
                data_line,
                byte,
                bit,
            } => {
                let addr = crashed.layout.data_base + data_line * 64;
                crashed.nvm_mut().inject_bit_flip(addr, byte, bit);
                (Some(addr), false)
            }
        }
    }

    /// Builds the crashed-and-attacked image for one attack iteration.
    /// Rebuilding from scratch (rather than cloning) keeps the image's
    /// fault plane and truth map exactly as recovery will see them.
    fn attacked_image(
        sweep: &CrashSweep,
        k: u64,
        mask: u8,
        attacks: &[Attack],
    ) -> Option<(CrashedSystem, Outage, Vec<u64>, bool)> {
        let (mut crashed, out) = sweep.crash_torn(CrashPoint { shard: 0, k }, mask).ok()??;
        let mut tampered_data = Vec::new();
        let mut media = false;
        for &a in attacks {
            let (data_addr, is_media) = Self::apply_attack(&mut crashed, a);
            if let Some(addr) = data_addr {
                tampered_data.push(addr);
            }
            media |= is_media;
        }
        Some((crashed, out, tampered_data, media))
    }

    /// Runs one attack iteration; returns `Ok(outcome)` or a failure
    /// description.
    fn attack_iteration(
        sweep: &CrashSweep,
        k: u64,
        mask: u8,
        attacks: &[Attack],
        report: &mut CampaignReport,
    ) -> Result<CampaignOutcome, String> {
        // Strict recovery first: it may detect (Err) or even succeed (the
        // attack can land on untouched regions) — it must never unwind.
        let Some((crashed, out, tampered, media)) = Self::attacked_image(sweep, k, mask, attacks)
        else {
            return Err("attack image not reproducible".into());
        };
        let expected = out.expected;
        let sacrificed = out.sacrificed;
        let recoverable = crashed.recoverable();
        match catch_unwind(AssertUnwindSafe(move || crashed.recover().err())) {
            Ok(Some(_)) => report.strict_detected += 1,
            Ok(None) => {}
            Err(_) => {
                report.panics += 1;
                return Err("strict recovery panicked".into());
            }
        }

        // The lenient scrub on a fresh copy of the same image: total by
        // contract, and its damage report must not whitewash the attack.
        let Some((crashed2, ..)) = Self::attacked_image(sweep, k, mask, attacks) else {
            return Err("attack image not reproducible".into());
        };
        let (sys, scrub): (Option<crate::SecureNvmSystem>, ScrubReport) =
            match catch_unwind(AssertUnwindSafe(move || crashed2.recover_lenient())) {
                Ok(r) => r,
                Err(_) => {
                    report.panics += 1;
                    return Err("lenient scrub panicked".into());
                }
            };
        report.data_intact += scrub.data_intact;
        report.data_unrecoverable += scrub.data_unrecoverable;
        report.meta_recovered += scrub.meta_recovered;

        // No false Intact: a data line whose *storage* the attack corrupted
        // and that held acknowledged content must show up unrecoverable —
        // unless a read-path media fault shadows what the scrub saw, or the
        // tear already sacrificed it.
        if !media {
            for &addr in &tampered {
                if expected.contains_key(&addr)
                    && Some(addr) != sacrificed
                    && !scrub.unrecoverable_addrs.contains(&addr)
                {
                    return Err(format!(
                        "tampered durable line {addr:#x} not flagged unrecoverable"
                    ));
                }
            }
        }

        // Post-scrub reads must never panic and never return wrong data as
        // `Ok` — Err is acceptable (detection), wrong-Ok is a MAC break.
        if recoverable {
            let Some(mut sys) = sys else {
                return Err("scrub returned no system for a recoverable scheme".into());
            };
            let mut addrs: Vec<u64> = expected.keys().copied().collect();
            addrs.sort_unstable();
            let verdict = catch_unwind(AssertUnwindSafe(move || {
                for addr in addrs {
                    if let Ok(got) = sys.read(addr) {
                        if got != expected[&addr] {
                            return Some(addr);
                        }
                    }
                }
                None
            }));
            match verdict {
                Ok(None) => {}
                Ok(Some(addr)) => {
                    return Err(format!(
                        "read of {addr:#x} returned wrong data as Ok after scrub"
                    ));
                }
                Err(_) => {
                    report.panics += 1;
                    return Err("post-scrub read panicked".into());
                }
            }
        }
        Ok(CampaignOutcome::AttackHandled)
    }

    /// Runs the campaign for one (scheme, mode) combination.
    pub fn run_combo(&self, combo: usize, scheme: SchemeKind, mode: CounterMode) -> CampaignReport {
        self.run_combo_range(combo, scheme, mode, 0..self.cfg.points_per_combo)
    }

    /// Re-runs exactly one campaign iteration — the `--repro` path. The
    /// per-iteration RNG derives from `(seed, combo, i)` alone, so this
    /// replays the very same point, masks and attacks the full campaign
    /// drew. `None` for an out-of-range combo.
    pub fn run_point(&self, combo: usize, i: usize) -> Option<CampaignReport> {
        let (scheme, mode) = *COMBOS.get(combo)?;
        Some(self.run_combo_range(combo, scheme, mode, i..i + 1))
    }

    /// [`Self::run_combo`] over an explicit iteration range.
    fn run_combo_range(
        &self,
        combo: usize,
        scheme: SchemeKind,
        mode: CounterMode,
        range: std::ops::Range<usize>,
    ) -> CampaignReport {
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let ops = SweepOp::stream(self.cfg.seed ^ ((combo as u64) << 17), 192, self.cfg.ops);
        let sweep = CrashSweep::new(cfg.clone(), ops.clone(), PointSelection::All);
        let label = scheme.label(mode);
        let mut report = CampaignReport {
            seed: self.cfg.seed,
            ..CampaignReport::default()
        };
        let total = match sweep.total_points() {
            Ok(t) if t[0] > 0 => t[0],
            Ok(_) => return report,
            Err(e) => {
                report
                    .failures
                    .push(format!("{label}: baseline run failed: {e}"));
                return report;
            }
        };
        let data_lines = 192u64; // the stream's line universe (SweepOp::stream)
        let layout =
            steins_metadata::MemoryLayout::new(cfg.mode, cfg.data_lines, cfg.meta_cache.slots());
        let total_nodes = layout.geometry.total_nodes();
        let cache_slots = cfg.meta_cache.slots();

        for i in range {
            let mut rng = self.rng_for(combo, i);
            let k = rng.gen_range_inclusive(1, total);
            let p = CrashPoint { shard: 0, k };
            let mask = Self::draw_mask(&mut rng);
            report.point_hist.record(k);
            if i % 4 == 2 {
                // Nested point: crash during recovery, then recover again.
                // The inner point is drawn from the persist points recovery
                // itself fires for this exact outer crash; its mask only
                // applies to tearable (line-write) boundaries.
                report.nested_points += 1;
                let draw = rng.next_u64();
                let m1_draw = Self::draw_mask(&mut rng);
                let inner = match sweep.recovery_points(p, mask) {
                    Ok(pts) => pts,
                    Err(fail) => {
                        report.failures.push(format!(
                            "{label} nested point {k} mask {mask:#04x} \
                             (seed {:#x}, iter {i}, {} ops): {}",
                            self.cfg.seed,
                            ops.len(),
                            fail.error
                        ));
                        continue;
                    }
                };
                let (j, m1) = if inner.is_empty() {
                    // WB never starts recovery: the synthetic point checks
                    // the refusal contract under nested arming.
                    (k + 1, 0xFF)
                } else {
                    let q = inner[(draw % inner.len() as u64) as usize];
                    let m1 = if q.kind == steins_nvm::PersistKind::LineWrite {
                        m1_draw
                    } else {
                        0xFF
                    };
                    (q.seq, m1)
                };
                if let Some(repro) = sweep.probe_point_nested(p, mask, j, m1) {
                    report.failures.push(format!(
                        "{label} nested point {k}>{j} masks {mask:#04x}>{m1:#04x} \
                         (seed {:#x}, iter {i}, {} ops): {}",
                        self.cfg.seed,
                        repro.ops.len(),
                        repro.error
                    ));
                }
            } else if i % 2 == 0 {
                // Crash-only point: the strong sweep contract, torn-aware.
                report.crash_points += 1;
                if let Some(repro) = sweep.probe_point_torn(p, mask) {
                    report.failures.push(format!(
                        "{label} crash point {k} mask {mask:#04x} \
                         (seed {:#x}, iter {i}, {} ops): {}",
                        self.cfg.seed,
                        repro.ops.len(),
                        repro.error
                    ));
                }
            } else {
                // Attacked point: robustness contract.
                report.attack_points += 1;
                let n_attacks = 1 + (rng.next_u64() % 3) as usize;
                let attacks: Vec<Attack> = (0..n_attacks)
                    .map(|_| Self::draw_attack(&mut rng, total_nodes, data_lines, cache_slots))
                    .collect();
                if let Err(why) = Self::attack_iteration(&sweep, k, mask, &attacks, &mut report) {
                    // Shrink: re-run on the stream truncated past the
                    // in-flight op; keep the shorter repro when it still
                    // fails the same way.
                    let mut repro_ops = ops.len();
                    if let Ok(Some((_, out))) = sweep.crash_torn(p, mask) {
                        let cut = out.op_index + 1;
                        let prefix =
                            CrashSweep::new(cfg.clone(), ops[..cut].to_vec(), PointSelection::All);
                        let mut scratch = CampaignReport::default();
                        if cut < ops.len()
                            && Self::attack_iteration(&prefix, k, mask, &attacks, &mut scratch)
                                .is_err()
                        {
                            repro_ops = cut;
                        }
                    }
                    report.failures.push(format!(
                        "{label} attack point {k} mask {mask:#04x} \
                         (seed {:#x}, iter {i}, {repro_ops} ops, {attacks:?}): {why}",
                        self.cfg.seed
                    ));
                }
            }
        }
        report
    }

    /// Runs all six combinations and merges the reports.
    pub fn run_all(&self) -> CampaignReport {
        let mut merged = CampaignReport {
            seed: self.cfg.seed,
            ..CampaignReport::default()
        };
        for (ci, (scheme, mode)) in COMBOS.iter().enumerate() {
            merged.merge(&self.run_combo(ci, *scheme, *mode));
        }
        merged
    }
}

// ---------------------------------------------------------------------------
// Chaos mode: faults injected under live multi-shard serving traffic.
// ---------------------------------------------------------------------------

/// Chaos-mode parameters. Unlike the offline campaign above (which crashes
/// a single machine at chosen persist boundaries), chaos mode keeps a
/// [`ShardedEngine`] *serving* a Zipfian write mix from worker threads
/// while media faults, torn writes, and whole-shard crashes land mid
/// traffic — and checks graceful degradation: no panic ever escapes, no
/// acknowledged read is silently wrong, and (with the online integrity
/// service enabled) every injected fault ends up healed or quarantined
/// behind a typed alarm.
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
    /// Whether the online integrity service runs during the chaos.
    pub scrub: bool,
    /// Whether a tripped shard comes back through one self-healing repair
    /// ([`ShardedEngine::repair_shard`]) instead of the plain lenient
    /// scrub: the volatile quarantine set is captured before the plug is
    /// pulled and replayed (audited) against the rebuilt, re-verified tree,
    /// and a shard the scrub cannot rebuild is parked.
    pub repair: bool,
    /// Policy for the online service (when `scrub`).
    pub policy: OnlinePolicy,
    /// Counter mode (the scheme is always Steins — chaos exercises the
    /// paper's design; `Split` additionally drives epoch re-encryption).
    pub mode: CounterMode,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            shards: 4,
            threads: 4,
            ops_per_shard: 96,
            faults_per_shard: 3,
            scrub: true,
            repair: false,
            policy: OnlinePolicy {
                scrub_period_ops: 16,
                scrub_batch_lines: 4,
                throttle_occupancy: 0.9,
                epoch_threshold: u64::MAX,
                wear_rotation_writes: u64::MAX,
            },
            mode: CounterMode::Split,
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
    /// Whole-shard crashes tripped and brought back through the lenient
    /// scrub mid-run.
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
    /// Faults neither healed nor quarantined (with `scrub`, must be
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
    /// Repairs run against tripped shards (with [`ChaosConfig::repair`]).
    pub repairs_attempted: u64,
    /// Tripped shards a repair rebuilt, re-verified, and returned to
    /// `Serving` mid-run.
    pub shards_restored: u64,
    /// Tripped shards a repair parked mid-run.
    pub shards_parked: u64,
}

impl ChaosReport {
    /// The chaos contract: no escaped panic, no silently wrong ack, every
    /// quarantined line behind an alarm, and — when the scrub ran — every
    /// injected fault accounted for (healed, quarantined, or its whole
    /// shard degraded).
    pub fn clean(&self) -> bool {
        self.unwinds == 0
            && self.silent_wrong == 0
            && self.alarm_shape_violations.is_empty()
            && self.unaccounted_faults.is_empty()
    }

    /// The self-healing contract on top of [`Self::clean`]: after the
    /// soak, every shard is either `Serving` again or parked behind its
    /// alarm trail — a shard left `Degraded` but un-parked means a repair
    /// abandoned it without a verdict.
    pub fn repair_clean(&self) -> bool {
        self.degraded_shards
            .iter()
            .all(|s| self.parked_shards.contains(s))
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
        m.counter_add("core.chaos.repairs.attempted", self.repairs_attempted);
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
        if self.repairs_attempted > 0 {
            writeln!(
                f,
                "  repair: {} attempts -> {} restored, {} parked permanently \
                 ({} shards parked at end)",
                self.repairs_attempted,
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
    repairs_attempted: u64,
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
            mask: FaultCampaign::draw_mask(rng),
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
/// lifecycle alarm) with its system in the slot; the trip point is read and
/// the device disarmed there. With [`ChaosConfig::repair`] the shard comes
/// back through one [`ShardedEngine::repair_shard`]; otherwise its image is
/// crashed and leniently scrubbed back in, and the online service resumes
/// its pass from the [`journal::ONLINE`](crate::recovery::journal::ONLINE)
/// cursor the interrupted scrub left in the ADR journal.
fn recover_tripped_shard(
    cfg: &ChaosConfig,
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
    if cfg.repair {
        out.repairs_attempted += 1;
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
        return;
    }
    let crashed = engine
        .park_degraded(s)
        .expect("a power cut leaves the cut system in its slot")
        .crash();
    let lines = engine.shard_config().data_lines;
    let resume = OnlineService::resume_cursor(&crashed.nvm().recovery_journal(), lines);
    let scrub = engine.scrub_shard(s, crashed);
    out.events.push(format!(
        "s{s} op{i}: crash tripped at {trip_seq:?}, scrubbed back (data unrec {}), cursor {:?}",
        scrub.data_unrecoverable, resume,
    ));
    if cfg.scrub && !engine.is_degraded(s) {
        engine.with_shard(s, |sys| {
            sys.enable_online(cfg.policy);
            if let (Some(c), Some(svc)) = (resume, sys.online_mut()) {
                svc.set_cursor(c);
            }
        });
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
                    recover_tripped_shard(cfg, engine, s, i, &mut out, &mut armed_mask);
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
                    recover_tripped_shard(cfg, engine, s, i, &mut out, &mut armed_mask);
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
        if cfg.scrub && !out.media_faults.is_empty() {
            engine
                .with_shard(s, |sys| sys.online_scrub_pass())
                .expect("the settling pass runs disarmed");
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
        } else if cfg.scrub {
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
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let sys_cfg = SystemConfig::small_for_tests(SchemeKind::Steins, cfg.mode);
    let engine = ShardedEngine::new(sys_cfg, cfg.shards);
    if cfg.scrub {
        engine.enable_online(cfg.policy);
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
        report.repairs_attempted += out.repairs_attempted;
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
    fn campaign_is_deterministic_for_a_fixed_seed() {
        let cfg = CampaignConfig {
            seed: 0xABCD,
            points_per_combo: 4,
            ops: 18,
        };
        let a =
            FaultCampaign::new(cfg.clone()).run_combo(4, SchemeKind::Steins, CounterMode::General);
        let b = FaultCampaign::new(cfg).run_combo(4, SchemeKind::Steins, CounterMode::General);
        assert_eq!(a.clean(), b.clean());
        assert_eq!(a.points(), b.points());
        assert_eq!(a.data_intact, b.data_intact);
        assert_eq!(a.data_unrecoverable, b.data_unrecoverable);
        assert_eq!(a.strict_detected, b.strict_detected);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.point_hist.count(), b.point_hist.count());
        assert_eq!(a.point_hist.sum(), b.point_hist.sum());
    }

    #[test]
    fn small_campaign_passes_on_steins_and_asit() {
        let cfg = CampaignConfig {
            seed: 0xFA17,
            points_per_combo: 6,
            ops: 20,
        };
        let fc = FaultCampaign::new(cfg);
        for (ci, scheme) in [(2, SchemeKind::Asit), (4, SchemeKind::Steins)] {
            let r = fc.run_combo(ci, scheme, CounterMode::General);
            assert!(r.clean(), "campaign failed:\n{r}");
            assert_eq!(r.points(), 6);
            assert_eq!(r.panics, 0);
        }
    }

    #[test]
    fn campaign_metrics_export_round_trips() {
        let cfg = CampaignConfig {
            seed: 1,
            points_per_combo: 2,
            ops: 12,
        };
        let r = FaultCampaign::new(cfg).run_combo(0, SchemeKind::WriteBack, CounterMode::General);
        let m = r.metrics();
        assert_eq!(
            m.counter("core.campaign.points.crash").unwrap()
                + m.counter("core.campaign.points.nested").unwrap()
                + m.counter("core.campaign.points.attack").unwrap(),
            r.points()
        );
        assert!(m.hist("core.campaign.point").is_some());
    }

    #[test]
    fn campaign_includes_nested_axis_and_passes() {
        // points_per_combo ≥ 3 makes iteration 2 a nested point.
        let cfg = CampaignConfig {
            seed: 0x2E57ED,
            points_per_combo: 4,
            ops: 16,
        };
        let fc = FaultCampaign::new(cfg);
        for (ci, scheme) in [(2, SchemeKind::Asit), (3, SchemeKind::Star)] {
            let r = fc.run_combo(ci, scheme, CounterMode::General);
            assert_eq!(r.nested_points, 1, "iteration 2 must be nested");
            assert!(r.clean(), "campaign failed:\n{r}");
        }
    }

    #[test]
    fn repro_replays_a_single_iteration_identically() {
        let cfg = CampaignConfig {
            seed: 0xFA17,
            points_per_combo: 6,
            ops: 20,
        };
        let fc = FaultCampaign::new(cfg.clone());
        // Iteration 2 is the nested slot; replaying it alone must draw the
        // same point and meet the same contract as inside the full run.
        let one = fc.run_point(4, 2).unwrap();
        assert_eq!(one.points(), 1);
        assert_eq!(one.nested_points, 1);
        let two = fc.run_point(4, 2).unwrap();
        assert_eq!(one.clean(), two.clean());
        assert_eq!(one.point_hist.sum(), two.point_hist.sum());
        assert!(fc.run_point(99, 0).is_none(), "unknown combo");
    }

    #[test]
    fn chaos_smoke_degrades_gracefully() {
        let cfg = ChaosConfig::default();
        let r = run_chaos(&cfg);
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
        // the default seed at least one must trip and be scrubbed back.
        assert!(r.crashes_recovered > 0, "no crash exercised:\n{r}");
    }

    #[test]
    fn chaos_report_is_identical_across_worker_counts() {
        let base = ChaosConfig {
            seed: 0xD1CE,
            threads: 1,
            ..ChaosConfig::default()
        };
        let one = run_chaos(&base);
        let four = run_chaos(&ChaosConfig {
            threads: 4,
            ..base.clone()
        });
        assert_eq!(one.events, four.events, "event logs diverged");
        assert_eq!(
            one.alarms.to_json().pretty(),
            four.alarms.to_json().pretty(),
            "alarm logs diverged"
        );
        assert_eq!(
            one.metrics().to_json_deterministic().pretty(),
            four.metrics().to_json_deterministic().pretty(),
            "metrics diverged"
        );
        assert_eq!(one.makespan_cycles, four.makespan_cycles);
        assert_eq!(one.degraded_shards, four.degraded_shards);
    }

    #[test]
    fn chaos_with_repair_restores_or_parks_every_shard() {
        let cfg = ChaosConfig {
            repair: true,
            ..ChaosConfig::default()
        };
        let r = run_chaos(&cfg);
        assert!(r.clean(), "chaos failed:\n{r}");
        assert!(r.repair_clean(), "shard left degraded but un-parked:\n{r}");
        assert!(r.crashes_recovered > 0, "no crash exercised:\n{r}");
        assert!(r.repairs_attempted >= r.crashes_recovered);
        assert_eq!(
            r.shards_restored + r.shards_parked,
            r.crashes_recovered,
            "every tripped shard needs a repair verdict:\n{r}"
        );
        // A restored shard announces itself: started + restored alarms.
        if r.shards_restored > 0 {
            let started = r
                .alarms
                .events()
                .iter()
                .filter(|a| a.kind == AlarmKind::ShardRepairStarted)
                .count() as u64;
            let restored = r
                .alarms
                .events()
                .iter()
                .filter(|a| a.kind == AlarmKind::ShardRestored)
                .count() as u64;
            assert!(started >= r.shards_restored);
            assert_eq!(restored, r.shards_restored);
        }
    }

    #[test]
    fn chaos_repair_report_is_identical_across_worker_counts() {
        let base = ChaosConfig {
            seed: 0xD1CE,
            threads: 1,
            repair: true,
            ..ChaosConfig::default()
        };
        let one = run_chaos(&base);
        let two = run_chaos(&ChaosConfig {
            threads: 2,
            ..base.clone()
        });
        let eight = run_chaos(&ChaosConfig {
            threads: 8,
            ..base.clone()
        });
        for other in [&two, &eight] {
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
    }

    #[test]
    fn chaos_without_scrub_still_never_lies() {
        let r = run_chaos(&ChaosConfig {
            seed: 0x0BAD_5EED,
            scrub: false,
            ..ChaosConfig::default()
        });
        // Without the online service there is no quarantine ledger, so
        // fault accounting is relaxed — but the core contract holds.
        assert_eq!(r.unwinds, 0, "panics escaped:\n{r}");
        assert_eq!(r.silent_wrong, 0, "silently wrong acks:\n{r}");
    }
}
