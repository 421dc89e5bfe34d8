//! Crash injection: what survives a power failure and what does not.
//!
//! Lost: the metadata cache (all dirty nodes — the recovery problem), the
//! CPU caches (dirty user lines — an application-level loss the persistent
//! workloads avoid by flushing), and all volatile scheme state (cache-tree
//! intermediates).
//!
//! Survives: the NVM contents including every write the write queue had
//! accepted (the queue is in the ADR domain), the ADR-cached record/bitmap
//! lines (flushed with residual power), and the on-chip NV registers — the
//! SIT root, Steins' LIncs and NV buffer, ASIT/STAR's cache-tree root.

use crate::config::{SchemeKind, SystemConfig};
use crate::diagnose;
use crate::engine::SecureNvmSystem;
use crate::error::IntegrityError;
use crate::linc::LincBank;
use crate::nvbuffer::NvBuffer;
use crate::scheme::SchemeState;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use steins_crypto::{CryptoEngine, FxHashMap};
use steins_metadata::{CounterMode, MemoryLayout, RootNode};
use steins_nvm::{NvmDevice, PersistKind, PersistPoint};
use steins_trace::rng::SmallRng;

/// Per-scheme non-volatile remnants.
pub enum NvState {
    /// WB keeps nothing (and can recover nothing).
    WriteBack,
    /// ASIT: cache-tree root register + shadow-table tags (non-volatile
    /// alongside the table; see `scheme::asit`).
    Asit {
        /// NV cache-tree root.
        nv_root: u64,
        /// slot → node offset for occupied shadow entries.
        shadow_tags: HashMap<u64, u64>,
        /// ADR-domain pre-image of an in-flight shadow update (None after a
        /// clean boundary; Some exactly when the crash landed inside the
        /// shadow write, where the line may have torn).
        inflight: Option<crate::scheme::asit::AsitInflight>,
    },
    /// STAR: cache-tree root register.
    Star {
        /// NV cache-tree root.
        nv_root: u64,
    },
    /// Steins: LInc register + NV parent-counter buffer.
    Steins {
        /// The per-level trust bases.
        lincs: LincBank,
        /// Parked parent updates.
        nv_buffer: NvBuffer,
    },
}

/// A machine that lost power: only non-volatile state remains.
pub struct CrashedSystem {
    pub(crate) cfg: SystemConfig,
    pub(crate) layout: MemoryLayout,
    pub(crate) crypto: Box<dyn CryptoEngine>,
    pub(crate) nvm: NvmDevice,
    pub(crate) root: RootNode,
    pub(crate) nv: NvState,
    /// Ground truth restricted to lines whose latest value was persisted
    /// (CPU-dirty lines are genuinely lost).
    pub(crate) truth: FxHashMap<u64, [u8; 64]>,
    /// Lines whose latest stores were lost in the CPU caches.
    pub(crate) lost_lines: Vec<u64>,
    /// Recovery lane-count override for this image (None: the
    /// `STEINS_RECOVERY_WORKERS` env default). See [`crate::par`].
    pub(crate) recovery_lanes: Option<usize>,
}

impl SecureNvmSystem {
    /// Pulls the power plug. Consumes the system; only non-volatile state
    /// crosses into the [`CrashedSystem`].
    pub fn crash(mut self) -> CrashedSystem {
        // CPU-cache-resident dirty lines are lost: their last-stored values
        // never reached the controller.
        let lost_lines = self.hier.dirty_lines();
        let mut truth = self.truth;
        for addr in &lost_lines {
            truth.remove(addr);
        }

        // ADR flush: residual power pushes the controller's ADR-domain lines
        // into NVM. (Write-queue entries were applied to the device at
        // acceptance, so they are already durable.)
        let nv = match self.ctrl.scheme {
            SchemeState::WriteBack => NvState::WriteBack,
            SchemeState::Asit(st) => NvState::Asit {
                nv_root: st.nv_root,
                shadow_tags: st.shadow_tags,
                inflight: st.inflight,
            },
            SchemeState::Star(mut st) => {
                for (addr, line) in st.bitmap_cache.crash_flush() {
                    self.ctrl.nvm.overwrite(addr, &line);
                }
                NvState::Star {
                    nv_root: st.nv_root,
                }
            }
            SchemeState::Steins(mut st) => {
                for (addr, line) in st.record_cache.crash_flush() {
                    self.ctrl.nvm.overwrite(addr, &line);
                }
                NvState::Steins {
                    lincs: st.lincs,
                    nv_buffer: st.nv_buffer,
                }
            }
        };

        CrashedSystem {
            cfg: self.cfg,
            layout: self.ctrl.layout,
            crypto: self.ctrl.crypto,
            nvm: self.ctrl.nvm,
            root: self.ctrl.root,
            nv,
            truth,
            lost_lines,
            recovery_lanes: None,
        }
    }
}

impl CrashedSystem {
    /// The configuration the machine ran with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Pins the recovery worker/lane count for this image, overriding the
    /// `STEINS_RECOVERY_WORKERS` env default (clamped to
    /// `1..=`[`crate::par::MAX_WORKERS`] at use). Worker count never
    /// changes what recovery computes — install order, exported metrics and
    /// the terminal journal are lane-count-invariant — only how the
    /// in-progress journal partitions its per-lane high-water marks.
    pub fn with_recovery_lanes(mut self, lanes: usize) -> Self {
        self.recovery_lanes = Some(lanes);
        self
    }

    /// Whether the scheme can recover at all.
    pub fn recoverable(&self) -> bool {
        !matches!(self.cfg.scheme, SchemeKind::WriteBack)
    }

    /// Lines whose latest values were lost in the volatile CPU caches.
    pub fn lost_lines(&self) -> &[u64] {
        &self.lost_lines
    }

    /// Raw NVM view (used by tests and the attack helpers).
    pub fn nvm(&self) -> &NvmDevice {
        &self.nvm
    }

    /// Mutable NVM view — the media-fault injection surface (bit flips,
    /// stuck-at lines, unreadable lines land on the crashed image here).
    pub fn nvm_mut(&mut self) -> &mut NvmDevice {
        &mut self.nvm
    }
}

// ————————————— Exhaustive persist-boundary fault injection —————————————
//
// The NVM device numbers every durable-state transition (each accepted 64 B
// line write, each in-place ADR-line update). [`CrashSweep`] replays a fixed
// op stream once to enumerate those points, then for every point k replays
// the stream with the device armed to lose power the instant transition k
// completes, recovers, and verifies: every acknowledged write reads back
// (which re-verifies the whole ancestor chain of every populated tree path)
// and, under Steins, the LInc registers match a from-scratch recomputation.
// A failing point is shrunk to a minimal op stream and printed with the
// first divergent node and a MAC-probe diagnosis (`debug_repro` style).

/// One operation of the fixed, replayable stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOp {
    /// Persistent store of a recognizable payload to data line `line`.
    Write {
        /// Data line index.
        line: u64,
        /// Payload tag (mixed with the line index).
        tag: u8,
    },
    /// Verified read of data line `line`.
    Read {
        /// Data line index.
        line: u64,
    },
}

impl SweepOp {
    /// Deterministic mixed stream over `lines` data lines: ~2/3 writes, a
    /// quarter of the traffic concentrated on 8 hot lines so counters
    /// advance far enough to exercise minor-overflow re-encryption (SC) and
    /// NV-buffer churn.
    pub fn stream(seed: u64, lines: u64, len: usize) -> Vec<SweepOp> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let line = if rng.next_u64() % 4 == 0 {
                    rng.gen_range(0, 8.min(lines))
                } else {
                    rng.gen_range(0, lines)
                };
                if rng.next_u64() % 3 < 2 {
                    SweepOp::Write {
                        line,
                        tag: rng.next_u64() as u8,
                    }
                } else {
                    SweepOp::Read { line }
                }
            })
            .collect()
    }

    /// The plaintext a `Write` stores: tag-filled, line index in front.
    pub fn payload(line: u64, tag: u8) -> [u8; 64] {
        let mut data = [tag; 64];
        data[..8].copy_from_slice(&line.to_le_bytes());
        data
    }
}

/// Which crash points of the enumeration to test.
#[derive(Clone, Copy, Debug)]
pub enum PointSelection {
    /// Every point (the exhaustive sweep).
    All,
    /// At most `n` points, evenly strided across the enumeration (the
    /// bounded in-test sweep). Always includes point 1.
    AtMost(usize),
}

/// A minimized failing crash point.
#[derive(Clone, Debug)]
pub struct CrashRepro {
    /// Scheme/mode label ("Steins-SC" …).
    pub label: String,
    /// The minimized op stream that still fails.
    pub ops: Vec<SweepOp>,
    /// Index of the op in flight when the crash hit.
    pub op_index: usize,
    /// The failing persist point (1-based) within the minimized stream.
    pub crash_point: u64,
    /// What the tripping transition wrote.
    pub point: Option<PersistPoint>,
    /// The recovery/verification error.
    pub error: String,
    /// First divergent node/line plus MAC-probe diagnosis.
    pub divergent: String,
}

impl fmt::Display for CrashRepro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: crash point {} (op {} of {}) is unrecoverable",
            self.label,
            self.crash_point,
            self.op_index,
            self.ops.len()
        )?;
        if let Some(p) = self.point {
            writeln!(f, "  tripped at {:?} of addr {:#x}", p.kind, p.addr)?;
        }
        writeln!(f, "  error: {}", self.error)?;
        writeln!(f, "  divergence: {}", self.divergent)?;
        write!(f, "  ops: {:?}", self.ops)
    }
}

/// Result of sweeping one scheme/mode.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Scheme/mode label.
    pub label: String,
    /// Durable-state transitions the stream produces (= crash points).
    pub total_points: u64,
    /// Points actually injected and verified.
    pub tested_points: u64,
    /// Minimized repros for every failing point class found (capped).
    pub failures: Vec<CrashRepro>,
}

impl SweepReport {
    /// True when every tested point recovered and verified.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>10}: {:>5}/{:<5} crash points recovered & verified",
            self.label,
            self.tested_points - self.failures.len() as u64,
            self.tested_points
        )?;
        if self.total_points != self.tested_points {
            write!(f, " (of {} enumerated)", self.total_points)?;
        }
        for repro in &self.failures {
            write!(f, "\n{repro}")?;
        }
        Ok(())
    }
}

/// How a single injected crash point failed.
pub(crate) struct PointFailure {
    pub(crate) op_index: usize,
    pub(crate) point: Option<PersistPoint>,
    pub(crate) error: String,
    pub(crate) divergent: String,
}

/// A replayed stream crashed at a (possibly torn) point, with ground truth
/// already reconciled against the in-flight op and the sacrificial torn line.
pub(crate) struct TornCrash {
    pub(crate) crashed: CrashedSystem,
    pub(crate) op_index: usize,
    pub(crate) trip: Option<PersistPoint>,
    /// Every line that must read back after recovery, with its content.
    pub(crate) expected: HashMap<u64, [u8; 64]>,
    /// A data line destroyed by the tear (in-place overwrite mixed old and
    /// new words); reads of it must fail closed.
    pub(crate) sacrificed: Option<u64>,
}

/// What the outer crash promised: carried through a nested run so the
/// final machine — however many recoveries it took — verifies against the
/// same reconciled expectations.
pub(crate) struct NestedCtx {
    op_index: usize,
    trip: Option<PersistPoint>,
    expected: HashMap<u64, [u8; 64]>,
    sacrificed: Option<u64>,
}

/// Outcome of arming a second crash *inside* recovery of an outer crash.
pub(crate) enum NestedRun {
    /// The inner point lay beyond recovery's horizon: recovery finished
    /// first and produced a fully recovered system.
    Completed(Box<SecureNvmSystem>),
    /// Strict recovery failed cleanly before the inner point tripped (a
    /// torn outer line can legitimately defeat fail-stop recovery).
    StrictFailed(IntegrityError),
    /// The inner crash tripped mid-recovery; the partial system — parked in
    /// the caller's slot before recovery's first durable write — lost power
    /// again. The doubly-crashed machine.
    Crashed(Box<CrashedSystem>),
}

/// The exhaustive persist-boundary fault-injection driver.
pub struct CrashSweep {
    cfg: SystemConfig,
    ops: Vec<SweepOp>,
    selection: PointSelection,
    /// Point-test budget for shrinking a failure (0 disables shrinking).
    pub shrink_budget: usize,
    /// Stop after this many distinct failing points (keeps a badly broken
    /// scheme from taking forever).
    pub max_failures: usize,
    /// Lane-mark override for every recovery the nested probes run
    /// (`None` = the `STEINS_RECOVERY_WORKERS` env default). With > 1 the
    /// interrupted attempts leave *laned* ADR journals, so the sweep
    /// exercises resume-from-marks instead of resume-from-prefix.
    pub recovery_lanes: Option<usize>,
}

impl CrashSweep {
    /// A sweep of `ops` against `cfg`, testing the `selection` of points.
    pub fn new(cfg: SystemConfig, ops: Vec<SweepOp>, selection: PointSelection) -> Self {
        CrashSweep {
            cfg,
            ops,
            selection,
            shrink_budget: 2_000,
            max_failures: 3,
            recovery_lanes: None,
        }
    }

    /// Builder: run every nested probe's recoveries with `lanes` lane-mark
    /// slots (see [`CrashedSystem::with_recovery_lanes`]).
    pub fn with_recovery_lanes(mut self, lanes: usize) -> Self {
        self.recovery_lanes = Some(lanes);
        self
    }

    /// Convenience: sweep the standard stream on the small test config.
    pub fn small(
        scheme: SchemeKind,
        mode: CounterMode,
        ops: usize,
        selection: PointSelection,
    ) -> Self {
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let ops = SweepOp::stream(0x5EED ^ ops as u64, 192, ops);
        CrashSweep::new(cfg, ops, selection)
    }

    /// Enumerates the stream's persist points with a crash-free baseline
    /// run. Every `k` in `1..=total` is an injectable crash point.
    pub fn total_points(&self) -> Result<u64, IntegrityError> {
        Self::enumerate(&self.cfg, &self.ops)
    }

    /// Injects a crash at point `k`, recovers and verifies; on failure
    /// returns the minimized repro. The unit of work for point-parallel
    /// sweeps (each call replays the stream from scratch).
    pub fn probe_point(&self, k: u64) -> Option<CrashRepro> {
        match Self::test_point(&self.cfg, &self.ops, k) {
            Ok(()) => None,
            Err(fail) => Some(self.shrink(k, fail)),
        }
    }

    /// Torn variant of [`Self::probe_point`]: at point `k` only the 8-byte
    /// words selected by `word_mask` persist (bit *i* ⇒ word *i* durable;
    /// `0x00` drops the write, `0xFF` is the classic full persist). Failures
    /// are truncated to the in-flight op but not greedily shrunk.
    pub fn probe_point_torn(&self, k: u64, word_mask: u8) -> Option<CrashRepro> {
        match Self::test_point_torn(&self.cfg, &self.ops, k, word_mask) {
            Ok(()) => None,
            Err(fail) => Some(CrashRepro {
                label: format!(
                    "{} torn {word_mask:#04x}",
                    self.cfg.scheme.label(self.cfg.mode)
                ),
                ops: self.ops[..=fail.op_index].to_vec(),
                op_index: fail.op_index,
                crash_point: k,
                point: fail.point,
                error: fail.error,
                divergent: fail.divergent,
            }),
        }
    }

    fn apply_op(sys: &mut SecureNvmSystem, op: SweepOp) -> Result<(), IntegrityError> {
        match op {
            SweepOp::Write { line, tag } => sys.write(line * 64, &SweepOp::payload(line, tag)),
            SweepOp::Read { line } => sys.read(line * 64).map(|_| ()),
        }
    }

    /// Runs the stream to completion (no crash), returning the number of
    /// persist points it produces.
    fn enumerate(cfg: &SystemConfig, ops: &[SweepOp]) -> Result<u64, IntegrityError> {
        let mut sys = SecureNvmSystem::new(cfg.clone());
        for &op in ops {
            Self::apply_op(&mut sys, op)?;
        }
        Ok(sys.ctrl.nvm.persist_seq())
    }

    /// Injects a crash at point `k`, recovers, verifies. `Ok(())` means the
    /// point is recoverable (or provably unrecoverable by design for WB).
    fn test_point(cfg: &SystemConfig, ops: &[SweepOp], k: u64) -> Result<(), PointFailure> {
        Self::test_point_torn(cfg, ops, k, 0xFF)
    }

    /// Replays `ops` with a (possibly torn) crash armed at `k`, then
    /// reconciles ground truth. `Ok(None)` when `k` lies beyond the
    /// stream's horizon. Shared with the randomized fault campaign.
    pub(crate) fn crash_torn(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        word_mask: u8,
    ) -> Result<Option<TornCrash>, PointFailure> {
        let mut sys = SecureNvmSystem::new(cfg.clone());
        sys.ctrl.nvm.arm_crash_torn(k, word_mask);

        // Replay until the armed point pulls the plug.
        let mut acked: HashMap<u64, [u8; 64]> = HashMap::new();
        let mut in_flight: Option<(usize, SweepOp)> = None;
        for (i, &op) in ops.iter().enumerate() {
            match Self::apply_op(&mut sys, op) {
                Ok(()) => {
                    if let SweepOp::Write { line, tag } = op {
                        acked.insert(line * 64, SweepOp::payload(line, tag));
                    }
                }
                Err(IntegrityError::PowerCut) => {
                    in_flight = Some((i, op));
                    break;
                }
                Err(e) => {
                    return Err(PointFailure {
                        op_index: i,
                        point: None,
                        error: format!("integrity error before the crash: {e}"),
                        divergent: "runtime state diverged pre-crash".into(),
                    });
                }
            }
        }
        let Some((op_index, op)) = in_flight else {
            // Armed beyond the stream's horizon: nothing to test.
            return Ok(None);
        };
        let trip = sys.ctrl.nvm.tripped_at();
        sys.ctrl.nvm.disarm_crash();

        // Lose power. Then reconcile ground truth for the op the crash
        // interrupted: its store is durable iff the tripping transition was
        // the data line's own *full* write (the MAC record rides the same
        // line's ECC bits, so the pair is atomic; a torn line is never an
        // acknowledged store).
        let mut expected = acked.clone();
        let mut crashed = sys.crash();
        if let SweepOp::Write { line, tag } = op {
            let addr = line * 64;
            let durable = word_mask == 0xFF
                && trip
                    .map(|p| p.kind == PersistKind::LineWrite && p.addr == addr)
                    .unwrap_or(false);
            if durable {
                let data = SweepOp::payload(line, tag);
                crashed.truth.insert(addr, data);
                expected.insert(addr, data);
            } else {
                match acked.get(&addr) {
                    Some(v) => {
                        crashed.truth.insert(addr, *v);
                    }
                    None => {
                        crashed.truth.remove(&addr);
                    }
                }
            }
        }

        // A partial tear of a *data* line destroys that line's previous
        // content too — the in-place overwrite mixed old and new words, an
        // inherent hazard of journal-free in-place data updates. The line is
        // sacrificial: it must fail closed (MAC mismatch), and every other
        // acked line must still read back.
        let mut sacrificed = None;
        if word_mask != 0xFF {
            if let Some(p) = trip {
                if p.kind == PersistKind::LineWrite && crashed.layout.is_data(p.addr) {
                    sacrificed = Some(p.addr);
                    expected.remove(&p.addr);
                    crashed.truth.remove(&p.addr);
                }
            }
        }

        Ok(Some(TornCrash {
            crashed,
            op_index,
            trip,
            expected,
            sacrificed,
        }))
    }

    /// Verifies a recovered (or scrubbed) machine against the reconciled
    /// expectations.
    #[allow(clippy::too_many_arguments)]
    fn verify_recovered(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        recovered: &mut SecureNvmSystem,
        expected: &HashMap<u64, [u8; 64]>,
        sacrificed: Option<u64>,
        op_index: usize,
        trip: Option<PersistPoint>,
    ) -> Result<(), PointFailure> {
        // Read back every acknowledged write: verifies the data MACs and —
        // through the fetch path — every ancestor node of every populated
        // tree branch.
        let mut lines: Vec<u64> = expected.keys().copied().collect();
        lines.sort_unstable();
        for addr in lines {
            let want = expected[&addr];
            match recovered.read(addr) {
                Ok(got) if got == want => {}
                Ok(got) => {
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        error: format!("acked write at {addr:#x} diverged after recovery"),
                        divergent: format!(
                            "data line {}: got {:02x?}…, want {:02x?}…",
                            addr / 64,
                            &got[..8],
                            &want[..8]
                        ),
                    });
                }
                Err(e) => {
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        divergent: Self::diagnose_error(cfg, ops, k, &e),
                        error: format!("read-back of {addr:#x} failed: {e}"),
                    });
                }
            }
        }

        // The torn line must fail closed: its stored bytes are a mix that
        // cannot verify against the MAC record.
        if let Some(addr) = sacrificed {
            if recovered.read(addr).is_ok() {
                return Err(PointFailure {
                    op_index,
                    point: trip,
                    error: format!("torn data line {addr:#x} read back Ok"),
                    divergent: "a torn line must fail its MAC, never return mixed words".into(),
                });
            }
        }

        // Steins: the recovered LInc registers must equal a from-scratch
        // recomputation over the rebuilt cache + NV buffer.
        if let (Some(stored), Some(expect)) =
            (recovered.ctrl.lincs(), recovered.ctrl.recompute_lincs())
        {
            if stored != expect {
                return Err(PointFailure {
                    op_index,
                    point: trip,
                    error: "LInc registers inconsistent after recovery".into(),
                    divergent: format!("lincs stored {stored:?} != recomputed {expect:?}"),
                });
            }
        }
        Ok(())
    }

    /// Injects a torn crash at point `k` (only `word_mask`'s words of the
    /// tripping line persist) and verifies the torn contract: strict
    /// recovery either succeeds — with every acked line intact and the torn
    /// line failing closed — or errors cleanly, in which case the lenient
    /// scrub must salvage everything except the torn line itself, without
    /// panicking.
    fn test_point_torn(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        word_mask: u8,
    ) -> Result<(), PointFailure> {
        let Some(tc) = Self::crash_torn(cfg, ops, k, word_mask)? else {
            return Ok(());
        };
        let TornCrash {
            crashed,
            op_index,
            trip,
            expected,
            sacrificed,
        } = tc;

        // WB has no recovery: the contract under fault injection is that it
        // says so, at every single point.
        if !crashed.recoverable() {
            return match crashed.recover() {
                Err(IntegrityError::RecoveryUnsupported) => Ok(()),
                other => Err(PointFailure {
                    op_index,
                    point: trip,
                    error: format!(
                        "WB must refuse recovery, got {:?}",
                        other.as_ref().err().map(|e| e.to_string())
                    ),
                    divergent: "n/a".into(),
                }),
            };
        }

        match crashed.recover() {
            Ok((mut recovered, _report)) => Self::verify_recovered(
                cfg,
                ops,
                k,
                &mut recovered,
                &expected,
                sacrificed,
                op_index,
                trip,
            ),
            Err(strict) => {
                if word_mask == 0xFF {
                    // Whole-line persists must always recover strictly.
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        divergent: Self::diagnose_error(cfg, ops, k, &strict),
                        error: strict.to_string(),
                    });
                }
                // A torn line may defeat strict (fail-stop) recovery — e.g.
                // a torn in-place node flush fails its MAC exactly like
                // tampering. The lenient scrub must then rebuild everything
                // from the data plane.
                let Some(tc2) = Self::crash_torn(cfg, ops, k, word_mask)? else {
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        error: "crash image not reproducible for the scrub".into(),
                        divergent: "n/a".into(),
                    });
                };
                let crashed2 = tc2.crashed;
                let outcome = catch_unwind(AssertUnwindSafe(move || crashed2.recover_lenient()));
                let (sys, report) = match outcome {
                    Ok(r) => r,
                    Err(_) => {
                        return Err(PointFailure {
                            op_index,
                            point: trip,
                            error: format!("scrub panicked after strict error: {strict}"),
                            divergent: "lenient recovery must be total".into(),
                        });
                    }
                };
                if let Some(bad) = report
                    .unrecoverable_addrs
                    .iter()
                    .find(|a| Some(**a) != sacrificed)
                {
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        error: format!(
                            "scrub lost durable data at {bad:#x} (strict error: {strict})"
                        ),
                        divergent: format!("{report}"),
                    });
                }
                let Some(mut sys) = sys else {
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        error: "scrub returned no system for a recoverable scheme".into(),
                        divergent: format!("{report}"),
                    });
                };
                Self::verify_recovered(cfg, ops, k, &mut sys, &expected, sacrificed, op_index, trip)
            }
        }
    }

    /// Rebuilds the crashed NVM image for point `k` and probes which counter
    /// the failing MAC actually corresponds to (`debug_repro` style).
    fn diagnose_error(cfg: &SystemConfig, ops: &[SweepOp], k: u64, e: &IntegrityError) -> String {
        let crashed = match Self::crash_at(cfg, ops, k) {
            Some(c) => c,
            None => return "state not reproducible".into(),
        };
        let probe = SecureNvmSystem::new(cfg.clone()); // same key/layout
        match *e {
            IntegrityError::NodeMac { node } => {
                let geo = &crashed.layout.geometry;
                let off = geo.offset_of(node);
                let line = crashed.nvm.peek(crashed.layout.node_addr(off));
                let n = if node.level == 0 && cfg.mode == CounterMode::Split {
                    steins_metadata::SitNode::split_from_line(&line)
                } else {
                    steins_metadata::SitNode::general_from_line(&line)
                };
                let pc = match geo.parent_of(node) {
                    None => crashed.root.get(geo.root_slot(node)),
                    Some((pid, slot)) => {
                        let pline = crashed
                            .nvm
                            .peek(crashed.layout.node_addr(geo.offset_of(pid)));
                        steins_metadata::SitNode::general_from_line(&pline)
                            .counters
                            .as_general()
                            .get(slot)
                    }
                };
                format!(
                    "node {node:?}: {}",
                    diagnose::probe_node_mac(&probe.ctrl, &n, off, pc, 4096)
                )
            }
            IntegrityError::DataMac { addr } => {
                let dline = addr / 64;
                let (laddr, byte) = crashed.layout.mac_slot(dline);
                let rec = crate::cme::MacRecord::read_slot(&crashed.nvm.peek(laddr), byte / 16);
                let (mj, _) = crate::cme::MacRecord::unpack_recovery(rec.recovery);
                let data = crashed.nvm.peek(addr & !63);
                let span = cfg.mode.leaf_coverage().max(64);
                format!(
                    "data line {dline}: {}",
                    diagnose::probe_data_mac(&probe.ctrl, addr & !63, &data, rec.mac, mj, 8, span)
                )
            }
            IntegrityError::LIncMismatch {
                level,
                stored,
                recomputed,
            } => {
                format!("LInc level {level}: register {stored} vs recomputed {recomputed}")
            }
            ref other => format!("{other}"),
        }
    }

    /// Re-runs the stream and crashes at point `k`, returning the crashed
    /// machine (diagnostics only).
    fn crash_at(cfg: &SystemConfig, ops: &[SweepOp], k: u64) -> Option<CrashedSystem> {
        Some(Self::crash_torn(cfg, ops, k, 0xFF).ok()??.crashed)
    }

    /// Finds the first failing point of `ops`, spending at most `budget`
    /// point tests. Returns the point and its failure.
    fn first_failure(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        budget: &mut usize,
    ) -> Option<(u64, PointFailure)> {
        let total = Self::enumerate(cfg, ops).ok()?;
        for k in 1..=total {
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            if let Err(fail) = Self::test_point(cfg, ops, k) {
                return Some((k, fail));
            }
        }
        None
    }

    /// Shrinks a failing (ops, point) pair: truncate past the in-flight op,
    /// then greedily drop earlier ops while *some* point still fails.
    fn shrink(&self, k: u64, fail: PointFailure) -> CrashRepro {
        let mut best_ops: Vec<SweepOp> = self.ops[..=fail.op_index].to_vec();
        let mut best = (k, fail);
        let mut budget = self.shrink_budget;
        // Dropping ops after the in-flight one never changes the execution
        // up to the crash, so the truncation above is free. Now try dropping
        // each earlier op, latest first (later ops are least likely to be
        // load-bearing for the corruption).
        let mut j = best_ops.len().saturating_sub(1);
        while j > 0 && budget > 0 {
            j -= 1;
            let mut candidate = best_ops.clone();
            candidate.remove(j);
            if let Some((k2, f2)) = Self::first_failure(&self.cfg, &candidate, &mut budget) {
                best_ops = candidate;
                best_ops.truncate(f2.op_index + 1);
                best = (k2, f2);
                j = j.min(best_ops.len().saturating_sub(1));
            }
        }
        let (crash_point, fail) = best;
        CrashRepro {
            label: self.cfg.scheme.label(self.cfg.mode),
            op_index: fail.op_index,
            crash_point,
            point: fail.point,
            error: fail.error,
            divergent: fail.divergent,
            ops: best_ops,
        }
    }

    /// The report of a sweep whose crash-free baseline run already fails.
    fn baseline_failed(&self, label: String, e: IntegrityError) -> SweepReport {
        SweepReport {
            label: label.clone(),
            total_points: 0,
            tested_points: 0,
            failures: vec![CrashRepro {
                label,
                ops: self.ops.clone(),
                op_index: 0,
                crash_point: 0,
                point: None,
                error: format!("baseline run failed: {e}"),
                divergent: "stream does not complete without a crash".into(),
            }],
        }
    }

    /// Runs the sweep.
    pub fn run(&self) -> SweepReport {
        let label = self.cfg.scheme.label(self.cfg.mode);
        let total = match Self::enumerate(&self.cfg, &self.ops) {
            Ok(t) => t,
            Err(e) => return self.baseline_failed(label, e),
        };
        let points = self.select((1..=total).collect());
        let mut failures = Vec::new();
        let mut tested = 0u64;
        for &k in &points {
            tested += 1;
            if let Err(fail) = Self::test_point(&self.cfg, &self.ops, k) {
                failures.push(self.shrink(k, fail));
                if failures.len() >= self.max_failures {
                    break;
                }
            }
        }
        SweepReport {
            label,
            total_points: total,
            tested_points: tested,
            failures,
        }
    }

    /// Runs the stream to completion with point journaling on, returning
    /// every persist point it produces (for kind-aware point selection).
    fn enumerate_journal(
        cfg: &SystemConfig,
        ops: &[SweepOp],
    ) -> Result<Vec<PersistPoint>, IntegrityError> {
        let mut sys = SecureNvmSystem::new(cfg.clone());
        sys.ctrl.nvm.journal_points(true);
        for &op in ops {
            Self::apply_op(&mut sys, op)?;
        }
        let journal = sys.ctrl.nvm.point_journal().to_vec();
        Ok(journal)
    }

    /// Applies the sweep's [`PointSelection`] to an arbitrary point list,
    /// striding by index so first and last survive bounding.
    fn select(&self, points: Vec<u64>) -> Vec<u64> {
        Self::select_with(self.selection, points)
    }

    /// [`Self::select`] with an explicit selection (nested sweeps bound
    /// outer and inner point lists independently; the sharded sweep reuses
    /// the same striding so bounded runs compare across harnesses).
    pub(crate) fn select_with<T: Copy>(selection: PointSelection, points: Vec<T>) -> Vec<T> {
        match selection {
            PointSelection::All => points,
            PointSelection::AtMost(n) if n >= points.len() => points,
            PointSelection::AtMost(n) => {
                let n = n.max(1) as u64;
                let last = (points.len() - 1) as u64;
                (0..n)
                    .map(|i| points[(i * last / (n - 1).max(1)) as usize])
                    .collect()
            }
        }
    }

    /// Every persist point of the stream that is a 64 B line write — the
    /// only transitions that can tear (ADR updates are sub-word) — after
    /// applying the sweep's [`PointSelection`]. The unit list for
    /// point-parallel torn sweeps via [`Self::probe_point_torn`].
    pub fn tearable_points(&self) -> Result<Vec<u64>, IntegrityError> {
        let journal = Self::enumerate_journal(&self.cfg, &self.ops)?;
        Ok(self.select(
            journal
                .iter()
                .filter(|p| p.kind == PersistKind::LineWrite)
                .map(|p| p.seq)
                .collect(),
        ))
    }

    /// Sweeps torn-write variants: for each selected `LineWrite` persist
    /// point, re-runs the stream crashing there under every mask in
    /// `word_masks` (bit *i* ⇒ 8-byte word *i* persists). ADR updates are
    /// sub-word and never tear, so only line writes are enumerated. The
    /// contract per (point, mask): strict recovery succeeds with the torn
    /// line failing closed, or the lenient scrub salvages everything but the
    /// torn line without panicking.
    pub fn run_torn(&self, word_masks: &[u8]) -> SweepReport {
        let label = format!("{} torn", self.cfg.scheme.label(self.cfg.mode));
        let journal = match Self::enumerate_journal(&self.cfg, &self.ops) {
            Ok(j) => j,
            Err(e) => return self.baseline_failed(label, e),
        };
        let tearable: Vec<u64> = journal
            .iter()
            .filter(|p| p.kind == PersistKind::LineWrite)
            .map(|p| p.seq)
            .collect();
        let total = tearable.len() as u64;
        let points = self.select(tearable);
        let mut failures = Vec::new();
        let mut tested = 0u64;
        'outer: for &k in &points {
            for &mask in word_masks {
                tested += 1;
                if let Err(fail) = Self::test_point_torn(&self.cfg, &self.ops, k, mask) {
                    failures.push(CrashRepro {
                        label: format!("{label} {mask:#04x}"),
                        ops: self.ops[..=fail.op_index].to_vec(),
                        op_index: fail.op_index,
                        crash_point: k,
                        point: fail.point,
                        error: fail.error,
                        divergent: fail.divergent,
                    });
                    if failures.len() >= self.max_failures {
                        break 'outer;
                    }
                }
            }
        }
        SweepReport {
            label,
            total_points: total * word_masks.len() as u64,
            tested_points: tested,
            failures,
        }
    }

    // ———————— Nested injection: crash *during* recovery ————————
    //
    // The recovery state machine journals its progress in the ADR domain
    // (`RecoveryJournal`), parks the partial system in the caller's slot
    // before its first durable write, and replays each phase re-entrantly.
    // These drivers prove it: reproduce an outer crash, re-arm the device at
    // a persist point *recovery itself* fires (journal updates, record and
    // shadow rewrites, scrub pokes — pokes are traced as tearable points
    // during injection), crash again, and require the second recovery to
    // converge on the same verified state.

    /// Enumerates the persist points recovery fires for the outer crash
    /// `(k, outer_mask)`: journal updates, record/shadow line writes, and —
    /// with poke tracing on — every in-place rewrite. When a torn outer
    /// defeats strict recovery the scrub's points are enumerated instead
    /// (that is the path a second crash would interrupt). Empty when `k` is
    /// beyond the stream's horizon or the scheme cannot recover.
    pub(crate) fn recovery_points(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        outer_mask: u8,
    ) -> Result<Vec<PersistPoint>, PointFailure> {
        let Some(tc) = Self::crash_torn(cfg, ops, k, outer_mask)? else {
            return Ok(Vec::new());
        };
        let mut crashed = tc.crashed;
        if !crashed.recoverable() {
            return Ok(Vec::new());
        }
        crashed.nvm.trace_pokes(true);
        crashed.nvm.journal_points(true);
        let mut slot = None;
        if crashed.recover_into(&mut slot).is_ok() {
            let sys = slot.take().expect("recovery parks the rebuilt system");
            return Ok(sys.ctrl.nvm.point_journal().to_vec());
        }
        // Strict recovery refused (torn outer): the scrub is what a second
        // crash would interrupt — enumerate its points instead.
        let Some(tc2) = Self::crash_torn(cfg, ops, k, outer_mask)? else {
            return Ok(Vec::new());
        };
        let mut crashed2 = tc2.crashed;
        crashed2.nvm.trace_pokes(true);
        crashed2.nvm.journal_points(true);
        let mut slot2 = None;
        let _report = crashed2.recover_lenient_into(&mut slot2);
        Ok(slot2
            .map(|s| s.ctrl.nvm.point_journal().to_vec())
            .unwrap_or_default())
    }

    /// Reproduces the outer crash `(k, outer_mask)`, re-arms the device at
    /// absolute persist point `j` (torn by `inner_mask` for line writes)
    /// with poke tracing on, and runs strict recovery once. Returns how the
    /// nested run ended plus the outer crash's reconciled expectations.
    /// `Ok(None)` when `k` lies beyond the stream's horizon.
    pub(crate) fn crash_nested(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        outer_mask: u8,
        j: u64,
        inner_mask: u8,
        lanes: Option<usize>,
    ) -> Result<Option<(NestedRun, NestedCtx)>, PointFailure> {
        let Some(tc) = Self::crash_torn(cfg, ops, k, outer_mask)? else {
            return Ok(None);
        };
        let TornCrash {
            mut crashed,
            op_index,
            trip,
            expected,
            sacrificed,
        } = tc;
        if let Some(l) = lanes {
            crashed = crashed.with_recovery_lanes(l);
        }
        let ctx = NestedCtx {
            op_index,
            trip,
            expected,
            sacrificed,
        };
        crashed.nvm.trace_pokes(true);
        crashed.nvm.arm_crash_torn(j, inner_mask);
        let mut slot = None;
        let run = match crashed.recover_into(&mut slot) {
            Ok(_report) => {
                let Some(mut sys) = slot.take() else {
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        error: "recovery returned Ok without parking the system".into(),
                        divergent: "recover_into must fill the caller's slot".into(),
                    });
                };
                sys.ctrl.nvm.disarm_crash();
                sys.ctrl.nvm.trace_pokes(false);
                NestedRun::Completed(Box::new(sys))
            }
            Err(IntegrityError::PowerCut) => {
                let Some(mut partial) = slot.take() else {
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        error: format!(
                            "inner crash at point {j} tripped before recovery parked the system"
                        ),
                        divergent: "recovery must park before its first durable write".into(),
                    });
                };
                partial.ctrl.nvm.disarm_crash();
                partial.ctrl.nvm.trace_pokes(false);
                NestedRun::Crashed(Box::new(partial.crash()))
            }
            Err(e) => NestedRun::StrictFailed(e),
        };
        Ok(Some((run, ctx)))
    }

    /// Tests one nested point: outer crash at `k` (mask `outer_mask`), a
    /// second crash at recovery-time point `j` (mask `inner_mask`), then a
    /// *second* recovery of the doubly-crashed machine. The contract:
    /// * WB refuses recovery at every nested point;
    /// * if the inner point never tripped, the single recovery verifies;
    /// * if it tripped, recovery must have parked a partial system whose
    ///   second recovery verifies — reporting `core.recovery.restarts ≥ 1`
    ///   unless the journal already read `DONE` (the inner crash landed on
    ///   recovery's final durable write);
    /// * only a torn write may defeat the strict path, in which case the
    ///   lenient scrub must salvage everything but the sacrificed line —
    ///   including when the inner crash interrupts the scrub itself.
    pub(crate) fn test_point_nested(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        outer_mask: u8,
        j: u64,
        inner_mask: u8,
        lanes: Option<usize>,
    ) -> Result<(), PointFailure> {
        let Some((run, ctx)) = Self::crash_nested(cfg, ops, k, outer_mask, j, inner_mask, lanes)?
        else {
            return Ok(());
        };
        let NestedCtx {
            op_index,
            trip,
            expected,
            sacrificed,
        } = ctx;

        if matches!(cfg.scheme, SchemeKind::WriteBack) {
            return match run {
                NestedRun::StrictFailed(IntegrityError::RecoveryUnsupported) => Ok(()),
                _ => Err(PointFailure {
                    op_index,
                    point: trip,
                    error: "WB must refuse recovery under nested injection".into(),
                    divergent: "n/a".into(),
                }),
            };
        }

        match run {
            NestedRun::Completed(mut sys) => {
                Self::verify_recovered(cfg, ops, k, &mut sys, &expected, sacrificed, op_index, trip)
            }
            NestedRun::Crashed(crashed2) => {
                let mut crashed2 = *crashed2;
                if let Some(l) = lanes {
                    crashed2 = crashed2.with_recovery_lanes(l);
                }
                let finished =
                    !crate::recovery::journal::in_progress(crashed2.nvm.recovery_journal().phase);
                match crashed2.recover() {
                    Ok((mut sys2, report2)) => {
                        let restarts = report2
                            .metrics
                            .counter("core.recovery.restarts")
                            .unwrap_or(0);
                        if restarts == 0 && !finished {
                            return Err(PointFailure {
                                op_index,
                                point: trip,
                                error: format!(
                                    "second recovery after inner crash at {j} reported no restart"
                                ),
                                divergent: "the ADR journal must record the interrupted attempt"
                                    .into(),
                            });
                        }
                        Self::verify_recovered(
                            cfg, ops, k, &mut sys2, &expected, sacrificed, op_index, trip,
                        )
                    }
                    Err(strict) => {
                        if outer_mask == 0xFF && inner_mask == 0xFF {
                            return Err(PointFailure {
                                op_index,
                                point: trip,
                                error: format!(
                                    "clean nested crash {k}>{j} failed second recovery: {strict}"
                                ),
                                divergent: "untorn nested crashes must recover strictly".into(),
                            });
                        }
                        Self::nested_scrub_leg(
                            cfg, ops, k, outer_mask, j, inner_mask, lanes, &expected, sacrificed,
                            op_index, trip, &strict,
                        )
                    }
                }
            }
            NestedRun::StrictFailed(strict) => {
                if outer_mask == 0xFF {
                    // Whole-line outer persists must always recover strictly
                    // — the inner crash never even fired here.
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        divergent: Self::diagnose_error(cfg, ops, k, &strict),
                        error: strict.to_string(),
                    });
                }
                Self::nested_scrub_leg(
                    cfg, ops, k, outer_mask, j, inner_mask, lanes, &expected, sacrificed, op_index,
                    trip, &strict,
                )
            }
        }
    }

    /// The lenient leg of a nested point: reproduces the nested run and
    /// scrubs whatever state the double fault left — the doubly-crashed
    /// partial machine, or the outer image with the inner crash re-armed
    /// against the scrub's own persist points (including a trip *during*
    /// the scrub, which must journal `SCRUB` and complete on the next
    /// lenient pass).
    #[allow(clippy::too_many_arguments)]
    fn nested_scrub_leg(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        outer_mask: u8,
        j: u64,
        inner_mask: u8,
        lanes: Option<usize>,
        expected: &HashMap<u64, [u8; 64]>,
        sacrificed: Option<u64>,
        op_index: usize,
        trip: Option<PersistPoint>,
        strict: &IntegrityError,
    ) -> Result<(), PointFailure> {
        let Some((run, _ctx)) = Self::crash_nested(cfg, ops, k, outer_mask, j, inner_mask, lanes)?
        else {
            return Err(PointFailure {
                op_index,
                point: trip,
                error: "nested crash not reproducible for the scrub".into(),
                divergent: "n/a".into(),
            });
        };
        match run {
            NestedRun::Completed(_) => Err(PointFailure {
                op_index,
                point: trip,
                error: "nested run is nondeterministic: completed on replay".into(),
                divergent: format!("first attempt failed with: {strict}"),
            }),
            NestedRun::Crashed(crashed2) => {
                let mut crashed2 = *crashed2;
                if let Some(l) = lanes {
                    crashed2 = crashed2.with_recovery_lanes(l);
                }
                let min_restarts = u64::from(crate::recovery::journal::in_progress(
                    crashed2.nvm.recovery_journal().phase,
                ));
                Self::scrub_and_verify(
                    cfg,
                    ops,
                    k,
                    crashed2,
                    expected,
                    sacrificed,
                    op_index,
                    trip,
                    strict,
                    min_restarts,
                )
            }
            NestedRun::StrictFailed(_) => {
                // Strict recovery refused before the inner point tripped:
                // the scrub is what runs next, with the inner crash armed
                // against its own rewrites.
                let Some(tc) = Self::crash_torn(cfg, ops, k, outer_mask)? else {
                    return Err(PointFailure {
                        op_index,
                        point: trip,
                        error: "outer crash not reproducible for the scrub".into(),
                        divergent: "n/a".into(),
                    });
                };
                let mut crashed = tc.crashed;
                if let Some(l) = lanes {
                    crashed = crashed.with_recovery_lanes(l);
                }
                crashed.nvm.trace_pokes(true);
                crashed.nvm.arm_crash_torn(j, inner_mask);
                let mut slot = None;
                match crashed.recover_lenient_into(&mut slot) {
                    Ok(report) => {
                        // Inner point beyond the scrub's horizon: the plain
                        // scrub contract applies.
                        let mut sys_opt = slot.take();
                        if let Some(sys) = sys_opt.as_mut() {
                            sys.ctrl.nvm.disarm_crash();
                            sys.ctrl.nvm.trace_pokes(false);
                        }
                        Self::check_scrub_outcome(
                            cfg, ops, k, sys_opt, &report, expected, sacrificed, op_index, trip,
                            strict, 0,
                        )
                    }
                    Err(_cut) => {
                        let Some(mut partial) = slot.take() else {
                            return Err(PointFailure {
                                op_index,
                                point: trip,
                                error: format!(
                                    "inner crash at {j} tripped before the scrub parked the system"
                                ),
                                divergent: "the scrub must park before its first rewrite".into(),
                            });
                        };
                        partial.ctrl.nvm.disarm_crash();
                        partial.ctrl.nvm.trace_pokes(false);
                        let mut crashed3 = partial.crash();
                        if let Some(l) = lanes {
                            crashed3 = crashed3.with_recovery_lanes(l);
                        }
                        // The interrupted scrub must be journaled: strict
                        // recovery is no longer sound on this image. A trip
                        // on the scrub's final write legitimately reads
                        // `DONE` — all durable work already landed.
                        let phase = crashed3.nvm.recovery_journal().phase;
                        if phase != crate::recovery::journal::SCRUB
                            && phase != crate::recovery::journal::DONE
                        {
                            return Err(PointFailure {
                                op_index,
                                point: trip,
                                error: "interrupted scrub left no SCRUB journal entry".into(),
                                divergent: format!(
                                    "journal phase {}",
                                    crate::recovery::journal::name(phase)
                                ),
                            });
                        }
                        let min_restarts = u64::from(crate::recovery::journal::in_progress(phase));
                        Self::scrub_and_verify(
                            cfg,
                            ops,
                            k,
                            crashed3,
                            expected,
                            sacrificed,
                            op_index,
                            trip,
                            strict,
                            min_restarts,
                        )
                    }
                }
            }
        }
    }

    /// Scrubs a (possibly doubly-) crashed machine and checks the lenient
    /// contract against the outer crash's expectations.
    #[allow(clippy::too_many_arguments)]
    fn scrub_and_verify(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        crashed: CrashedSystem,
        expected: &HashMap<u64, [u8; 64]>,
        sacrificed: Option<u64>,
        op_index: usize,
        trip: Option<PersistPoint>,
        strict: &IntegrityError,
        min_restarts: u64,
    ) -> Result<(), PointFailure> {
        let (sys, report) = crashed.recover_lenient();
        Self::check_scrub_outcome(
            cfg,
            ops,
            k,
            sys,
            &report,
            expected,
            sacrificed,
            op_index,
            trip,
            strict,
            min_restarts,
        )
    }

    /// The lenient contract: nothing beyond the sacrificed line is lost,
    /// a system comes back, it verifies, and an interrupted prior pass is
    /// visible as a restart.
    #[allow(clippy::too_many_arguments)]
    fn check_scrub_outcome(
        cfg: &SystemConfig,
        ops: &[SweepOp],
        k: u64,
        sys: Option<SecureNvmSystem>,
        report: &crate::scrub::ScrubReport,
        expected: &HashMap<u64, [u8; 64]>,
        sacrificed: Option<u64>,
        op_index: usize,
        trip: Option<PersistPoint>,
        strict: &IntegrityError,
        min_restarts: u64,
    ) -> Result<(), PointFailure> {
        if report.restarts < min_restarts {
            return Err(PointFailure {
                op_index,
                point: trip,
                error: format!(
                    "scrub after an interrupted pass reported {} restarts, need ≥ {min_restarts}",
                    report.restarts
                ),
                divergent: "the ADR journal must record the interrupted attempt".into(),
            });
        }
        if let Some(bad) = report
            .unrecoverable_addrs
            .iter()
            .find(|a| Some(**a) != sacrificed)
        {
            return Err(PointFailure {
                op_index,
                point: trip,
                error: format!("scrub lost durable data at {bad:#x} (strict error: {strict})"),
                divergent: format!("{report}"),
            });
        }
        let Some(mut sys) = sys else {
            return Err(PointFailure {
                op_index,
                point: trip,
                error: "scrub returned no system for a recoverable scheme".into(),
                divergent: format!("{report}"),
            });
        };
        Self::verify_recovered(cfg, ops, k, &mut sys, expected, sacrificed, op_index, trip)
    }

    /// Probes one nested point, returning the repro on failure (campaign
    /// unit of work; truncated to the in-flight op, not greedily shrunk).
    pub fn probe_point_nested(
        &self,
        k: u64,
        outer_mask: u8,
        j: u64,
        inner_mask: u8,
    ) -> Option<CrashRepro> {
        match Self::test_point_nested(
            &self.cfg,
            &self.ops,
            k,
            outer_mask,
            j,
            inner_mask,
            self.recovery_lanes,
        ) {
            Ok(()) => None,
            Err(fail) => Some(CrashRepro {
                label: format!(
                    "{} nested {k}>{j} masks {outer_mask:#04x}>{inner_mask:#04x}",
                    self.cfg.scheme.label(self.cfg.mode)
                ),
                ops: self.ops[..=fail.op_index].to_vec(),
                op_index: fail.op_index,
                crash_point: k,
                point: fail.point,
                error: fail.error,
                divergent: fail.divergent,
            }),
        }
    }

    /// Enumerates the nested sweep's job tuples `(k, outer_mask, j,
    /// inner_mask)`: for every selected outer point × outer mask, the
    /// persist points *recovery itself* fires, bounded by `inner_sel`. ADR
    /// journal updates are sub-word and never tear, so torn inner masks
    /// only pair with line writes; torn outer masks restrict the outer list
    /// to line writes. When recovery fires no points (WB's refusal, or a
    /// pre-crash error) one synthetic beyond-horizon inner point keeps the
    /// contract checked. The unit list for point-parallel nested sweeps via
    /// [`Self::probe_point_nested`].
    pub fn nested_jobs(
        &self,
        outer_masks: &[u8],
        inner_masks: &[u8],
        inner_sel: PointSelection,
    ) -> Result<Vec<(u64, u8, u64, u8)>, IntegrityError> {
        let journal = Self::enumerate_journal(&self.cfg, &self.ops)?;
        let mut jobs = Vec::new();
        for &m0 in outer_masks {
            let outer: Vec<u64> = self.select(
                journal
                    .iter()
                    .filter(|p| m0 == 0xFF || p.kind == PersistKind::LineWrite)
                    .map(|p| p.seq)
                    .collect(),
            );
            for &k in &outer {
                let inner = Self::recovery_points(&self.cfg, &self.ops, k, m0).unwrap_or_default();
                let inner = if inner.is_empty() {
                    vec![PersistPoint {
                        seq: k + 1,
                        kind: PersistKind::AdrUpdate,
                        addr: 0,
                    }]
                } else {
                    Self::select_with(inner_sel, inner)
                };
                for p in &inner {
                    for &m1 in inner_masks {
                        if p.kind != PersistKind::LineWrite && m1 != 0xFF {
                            // ADR updates are sub-word: they never tear.
                            continue;
                        }
                        jobs.push((k, m0, p.seq, m1));
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// The nested sweep, serially: [`Self::nested_jobs`] × the per-point
    /// nested contract check.
    pub fn run_nested(
        &self,
        outer_masks: &[u8],
        inner_masks: &[u8],
        inner_sel: PointSelection,
    ) -> SweepReport {
        let label = format!("{} nested", self.cfg.scheme.label(self.cfg.mode));
        let jobs = match self.nested_jobs(outer_masks, inner_masks, inner_sel) {
            Ok(j) => j,
            Err(e) => return self.baseline_failed(label, e),
        };
        let mut failures: Vec<CrashRepro> = Vec::new();
        let mut tested = 0u64;
        for &(k, m0, j, m1) in &jobs {
            tested += 1;
            if let Err(fail) =
                Self::test_point_nested(&self.cfg, &self.ops, k, m0, j, m1, self.recovery_lanes)
            {
                failures.push(CrashRepro {
                    label: format!("{label} {k}>{j} masks {m0:#04x}>{m1:#04x}"),
                    ops: self.ops[..=fail.op_index].to_vec(),
                    op_index: fail.op_index,
                    crash_point: k,
                    point: fail.point,
                    error: fail.error,
                    divergent: fail.divergent,
                });
                if failures.len() >= self.max_failures {
                    break;
                }
            }
        }
        SweepReport {
            label,
            total_points: jobs.len() as u64,
            tested_points: tested,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_metadata::CounterMode;

    #[test]
    fn crash_preserves_persisted_truth_and_drops_cpu_dirty() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let mut sys = SecureNvmSystem::new(cfg);
        // write() flushes, so this line is persisted truth.
        sys.write(0x100 * 64, &[7; 64]).unwrap();
        let crashed = sys.crash();
        assert!(crashed.truth.contains_key(&(0x100 * 64)));
        assert!(crashed.recoverable());
    }

    #[test]
    fn wb_is_not_recoverable() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::WriteBack, CounterMode::General);
        let sys = SecureNvmSystem::new(cfg);
        assert!(!sys.crash().recoverable());
    }

    #[test]
    fn sweep_stream_is_deterministic_and_mixed() {
        let a = SweepOp::stream(42, 64, 200);
        let b = SweepOp::stream(42, 64, 200);
        assert_eq!(a, b);
        assert!(a.iter().any(|op| matches!(op, SweepOp::Write { .. })));
        assert!(a.iter().any(|op| matches!(op, SweepOp::Read { .. })));
        let c = SweepOp::stream(43, 64, 200);
        assert_ne!(a, c, "different seeds must give different streams");
    }

    #[test]
    fn steins_gc_sampled_points_all_recover() {
        let sweep = CrashSweep::small(
            SchemeKind::Steins,
            CounterMode::General,
            40,
            PointSelection::AtMost(24),
        );
        let report = sweep.run();
        assert!(report.total_points > 0);
        assert!(report.clean(), "{report}");
    }

    /// Regression: (Steins, GC, crash point 1). The sweep's minimal repro
    /// was a single `Write { line: 5, tag: 128 }` crashing at the very
    /// first persist event (the ADR drain-slot update): `L0Inc` was bumped
    /// before the data line + MacRecord were durable, so recovery
    /// recomputed 0 against a stored 1. Fixed by moving the LInc bump to
    /// ride the data push's persist event.
    #[test]
    fn steins_gc_point_1_single_write_recovers() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let ops = vec![SweepOp::Write { line: 5, tag: 128 }];
        let sweep = CrashSweep::new(cfg, ops, PointSelection::All);
        for k in 1..=sweep.total_points().unwrap() {
            assert!(sweep.probe_point(k).is_none(), "point {k} must recover");
        }
    }

    /// Regression: (ASIT, GC) — the sweep found 67/180 unrecoverable
    /// points from two bugs: the cache-tree register was committed *after*
    /// the shadow push's persist event (register and shadow could tear),
    /// and the shadow leaf legitimately runs one increment ahead of the
    /// data plane between the shadow push and the data push (reconciled
    /// against MacRecords at recovery). Both orderings live in
    /// `asit_slot_update` / `recover_asit`.
    #[test]
    fn asit_gc_sampled_points_all_recover() {
        let sweep = CrashSweep::small(
            SchemeKind::Asit,
            CounterMode::General,
            40,
            PointSelection::AtMost(24),
        );
        let report = sweep.run();
        assert!(report.total_points > 0);
        assert!(report.clean(), "{report}");
    }

    /// Regression: (STAR, GC) — the sweep found 46/136 unrecoverable
    /// points: at a clean→dirty transition the register covered the
    /// post-mutation node while recovery reconstructs the pre-mutation
    /// content, and the set-MAC included the HMAC field, which the flush
    /// path rewrites without any counter changing. Fixed by the pre-image
    /// substitution in `star_tree_update_with` (refresh deferred to the
    /// mutation's own persist event) and by zeroing `hmac` in the set-MAC
    /// on both the runtime and recovery sides.
    #[test]
    fn star_gc_sampled_points_all_recover() {
        let sweep = CrashSweep::small(
            SchemeKind::Star,
            CounterMode::General,
            40,
            PointSelection::AtMost(24),
        );
        let report = sweep.run();
        assert!(report.total_points > 0);
        assert!(report.clean(), "{report}");
    }

    /// A real bug never passes for a power cut: a stream op past the data
    /// region panics out of the probe instead of being reported as a crash
    /// point.
    #[test]
    #[should_panic(expected = "outside the data region")]
    fn probe_point_propagates_real_panics() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let line = cfg.data_lines;
        let ops = vec![SweepOp::Write { line, tag: 1 }];
        CrashSweep::new(cfg, ops, PointSelection::All).probe_point(1);
    }

    #[test]
    fn wb_sweep_passes_via_recovery_unsupported_contract() {
        let sweep = CrashSweep::small(
            SchemeKind::WriteBack,
            CounterMode::General,
            24,
            PointSelection::AtMost(12),
        );
        let report = sweep.run();
        assert!(report.clean(), "{report}");
    }

    /// Batching stops at the crypto: for a fixed trace, the multi-lane
    /// (batched) crypto presentation must drive the *exact* durable-state
    /// transition sequence the serial presentation does — same persist
    /// events, same order, same addresses — or crash-point enumeration
    /// would silently change meaning between the two paths. Compared via a
    /// sequence hash (and the raw journals, for a readable diff on
    /// failure) across the schemes whose hot paths present batches.
    #[test]
    fn batched_flush_persist_sequence_matches_serial() {
        use steins_crypto::{RealCrypto, SerialPresentation};

        fn journal(
            scheme: SchemeKind,
            mode: CounterMode,
            serial: bool,
        ) -> (u64, Vec<PersistPoint>) {
            let cfg = SystemConfig::small_for_tests(scheme, mode);
            let mut sys = if serial {
                let eng = SerialPresentation(RealCrypto::new(cfg.secret_key()));
                SecureNvmSystem::with_engine(cfg, Box::new(eng))
            } else {
                SecureNvmSystem::new(cfg)
            };
            sys.ctrl.nvm.trace_pokes(true);
            sys.ctrl.nvm.journal_points(true);
            for op in SweepOp::stream(0xBA7C4ED, 64, 300) {
                CrashSweep::apply_op(&mut sys, op).expect("trace must run clean");
            }
            let points = sys.ctrl.nvm.point_journal().to_vec();
            // FNV-1a over (seq, kind, addr) — the sequence hash.
            let mut h = 0xcbf29ce484222325u64;
            for p in &points {
                for w in [p.seq, p.kind as u64, p.addr] {
                    for b in w.to_le_bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                    }
                }
            }
            (h, points)
        }

        for (scheme, mode) in [
            (SchemeKind::Steins, CounterMode::General),
            (SchemeKind::Steins, CounterMode::Split), // minor overflow ⇒ batched re-encryption
            (SchemeKind::Asit, CounterMode::General), // cache-tree level batches
        ] {
            let (bh, bj) = journal(scheme, mode, false);
            let (sh, sj) = journal(scheme, mode, true);
            assert!(
                !bj.is_empty(),
                "{scheme:?}/{mode:?}: trace persisted nothing"
            );
            assert_eq!(bj, sj, "{scheme:?}/{mode:?}: persist sequences diverge");
            assert_eq!(bh, sh, "{scheme:?}/{mode:?}: sequence hash diverges");
        }
    }

    #[test]
    fn bounded_selection_covers_first_and_last_point() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let ops = SweepOp::stream(7, 64, 20);
        let total = CrashSweep::enumerate(&cfg, &ops).unwrap();
        assert!(total > 16, "stream too short to exercise striding");
        // AtMost(n) with n < total must stride from 1 to total inclusive.
        let n = 8u64;
        let points: Vec<u64> = (0..n).map(|i| 1 + i * (total - 1) / (n - 1)).collect();
        assert_eq!(points[0], 1);
        assert_eq!(*points.last().unwrap(), total);
        assert_eq!(points.len() as u64, n);
    }

    /// Torn-write contract, sampled per recoverable scheme: at every
    /// selected line-write boundary, tearing the line (prefix, sparse,
    /// dropped) must leave every *other* acked line recoverable — strictly
    /// or via the scrub — with the torn line failing closed.
    fn torn_sweep(scheme: SchemeKind) {
        let sweep = CrashSweep::small(scheme, CounterMode::General, 25, PointSelection::AtMost(10));
        let report = sweep.run_torn(&[0x00, 0x0F, 0x5A]);
        assert!(report.total_points > 0, "no tearable points enumerated");
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn steins_gc_torn_points_recover_or_scrub() {
        torn_sweep(SchemeKind::Steins);
    }

    #[test]
    fn asit_gc_torn_points_recover_or_scrub() {
        torn_sweep(SchemeKind::Asit);
    }

    #[test]
    fn star_gc_torn_points_recover_or_scrub() {
        torn_sweep(SchemeKind::Star);
    }

    #[test]
    fn wb_torn_points_keep_refusing_recovery() {
        torn_sweep(SchemeKind::WriteBack);
    }

    #[test]
    fn full_mask_torn_sweep_matches_classic_contract() {
        // mask 0xFF through the torn driver must behave exactly like the
        // classic whole-line sweep: strict recovery at every point.
        let sweep = CrashSweep::small(
            SchemeKind::Steins,
            CounterMode::Split,
            20,
            PointSelection::AtMost(8),
        );
        let report = sweep.run_torn(&[0xFF]);
        assert!(report.clean(), "{report}");
    }

    /// Nested contract, sampled per scheme: crash at an outer point, crash
    /// *again* during recovery, and require the second recovery (or scrub)
    /// to converge — the recovery state machine is restartable.
    fn nested_sweep(scheme: SchemeKind) {
        let sweep = CrashSweep::small(scheme, CounterMode::General, 18, PointSelection::AtMost(5));
        let report = sweep.run_nested(&[0xFF, 0x0F], &[0xFF, 0x0F], PointSelection::AtMost(4));
        assert!(report.tested_points > 0, "no nested points enumerated");
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn steins_gc_nested_points_all_recover() {
        nested_sweep(SchemeKind::Steins);
    }

    #[test]
    fn asit_gc_nested_points_all_recover() {
        nested_sweep(SchemeKind::Asit);
    }

    #[test]
    fn star_gc_nested_points_all_recover() {
        nested_sweep(SchemeKind::Star);
    }

    #[test]
    fn wb_nested_points_keep_refusing_recovery() {
        nested_sweep(SchemeKind::WriteBack);
    }

    /// The nested contract must survive laned journals: with 4 lane-mark
    /// slots every interrupted attempt leaves per-lane marks in the ADR
    /// journal, and the second recovery resumes from the mark union.
    #[test]
    fn nested_points_recover_with_laned_journals() {
        for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
            let sweep =
                CrashSweep::small(scheme, CounterMode::General, 18, PointSelection::AtMost(4))
                    .with_recovery_lanes(4);
            let report = sweep.run_nested(&[0xFF, 0x0F], &[0xFF], PointSelection::AtMost(3));
            assert!(report.tested_points > 0, "no nested points enumerated");
            assert!(report.clean(), "{report}");
        }
    }

    #[test]
    fn interrupted_recovery_reports_restart_metrics() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let ops = SweepOp::stream(0xD0C5, 64, 20);
        let total = CrashSweep::enumerate(&cfg, &ops).unwrap();
        let k = total / 2;
        let inner = CrashSweep::recovery_points(&cfg, &ops, k, 0xFF)
            .ok()
            .unwrap();
        assert!(!inner.is_empty(), "recovery fires no persist points");
        // Trip on recovery's very first durable write (the phase journal
        // update), then recover the doubly-crashed machine.
        let j = inner[0].seq;
        let (run, _ctx) = CrashSweep::crash_nested(&cfg, &ops, k, 0xFF, j, 0xFF, None)
            .ok()
            .unwrap()
            .unwrap();
        let NestedRun::Crashed(crashed2) = run else {
            panic!("inner point must trip mid-recovery");
        };
        assert!(
            crate::recovery::journal::in_progress(crashed2.nvm.recovery_journal().phase),
            "interrupted recovery must leave an in-progress journal phase"
        );
        let (_sys, report) = crashed2.recover().unwrap();
        assert!(
            report
                .metrics
                .counter("core.recovery.restarts")
                .unwrap_or(0)
                >= 1,
            "second recovery must report a restart"
        );
        assert_eq!(
            report.metrics.counter("core.recovery.resumed"),
            Some(1),
            "second recovery must report it resumed a journaled attempt"
        );
    }

    #[test]
    fn crash_repro_display_names_the_point() {
        let repro = CrashRepro {
            label: "Steins-GC".into(),
            ops: vec![SweepOp::Write { line: 3, tag: 9 }],
            op_index: 0,
            crash_point: 17,
            point: Some(PersistPoint {
                seq: 17,
                kind: PersistKind::AdrUpdate,
                addr: 0x40,
            }),
            error: "LInc registers inconsistent after recovery".into(),
            divergent: "lincs stored [1] != recomputed [2]".into(),
        };
        let s = repro.to_string();
        assert!(s.contains("crash point 17"), "{s}");
        assert!(s.contains("AdrUpdate"), "{s}");
        assert!(s.contains("LInc"), "{s}");
    }
}
