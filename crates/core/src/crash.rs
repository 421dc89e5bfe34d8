//! Crash injection: what survives a power failure and what does not.
//!
//! Lost: the metadata cache (all dirty nodes — the recovery problem), the
//! CPU caches (dirty user lines — an application-level loss the persistent
//! workloads avoid by flushing), and all volatile scheme state (cache-tree
//! intermediates).
//!
//! Survives: the NVM contents including every write the write queue had
//! accepted (the queue is in the ADR domain), the ADR-cached record/bitmap
//! lines (flushed with residual power), the on-chip NV registers — the
//! SIT root, Steins' LIncs and NV buffer, ASIT/STAR's cache-tree root — and
//! the MAC-sealed ADR recovery journal (phase, `hwm`, restarts) that makes a
//! crash during recovery resumable.
//!
//! [`CrashSweep`] is the one fault-injection harness. It replays a stream
//! through a [`ShardedEngine`] (an unsharded system is the 1-shard case)
//! along one path: [`CrashSweep::jobs`] lists the [`CrashJob`]s to inject —
//! a crash at a selected persist point, a second crash during its
//! recovery, a worker crash in the middle of a parallel whole-engine
//! rebuild, or a crash whose image is then tampered with — either by
//! enumeration or drawn by the seeded fault campaign ([`Jobs`]).
//! [`CrashSweep::probe`] injects one and checks it: recovery (and, after a
//! tear, the lenient scrub) against the sweep contract, an attacked image
//! against the robustness contract. [`CrashSweep::run`] probes a list on a
//! worker pool.

use crate::cme::MacRecord;
use crate::config::{SchemeKind, SystemConfig, COMBOS};
use crate::diagnose;
use crate::engine::SecureNvmSystem;
use crate::error::IntegrityError;
use crate::par;
use crate::recovery::{journal, RecoveryReport};
use crate::scheme::NvState;
use crate::scrub::ScrubReport;
use crate::shard::ShardedEngine;
use crate::truth::Truth;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use steins_crypto::CryptoEngine;
use steins_metadata::{CounterMode, MemoryLayout, RootNode};
use steins_nvm::{NvmDevice, PersistKind, PersistPoint};
use steins_obs::{Histogram, MetricRegistry};
use steins_trace::rng::SmallRng;

/// A machine that lost power: only non-volatile state remains, beside the
/// empty machine that recovery revives it into.
pub struct CrashedSystem {
    pub(crate) cfg: SystemConfig,
    pub(crate) layout: MemoryLayout,
    pub(crate) crypto: Box<dyn CryptoEngine>,
    pub(crate) nvm: NvmDevice,
    pub(crate) root: RootNode,
    pub(crate) nv: NvState,
    /// Ground truth restricted to lines whose latest value was persisted
    /// (CPU-dirty lines are genuinely lost).
    pub(crate) truth: Truth,
    /// Lines whose latest stores were lost in the CPU caches.
    pub(crate) lost_lines: Vec<u64>,
    /// A fresh machine of the same configuration: empty caches, write
    /// queue and CPU, fresh scheme registers. [`Self::revive`] moves the
    /// image into it, so recovery never builds a machine of its own.
    pub(crate) machine: SecureNvmSystem,
}

impl SecureNvmSystem {
    /// Pulls the power plug. Consumes the system; only non-volatile state
    /// crosses into the [`CrashedSystem`], with the empty machine its
    /// recovery will fill.
    ///
    /// The old volatile state is freed before that machine is built, so a
    /// crash never holds two machines. Building it here, not in recovery,
    /// keeps it off the recovery workers: a worker thread allocates from
    /// its own glibc arena, which cannot reuse what the crash freed in the
    /// crashing thread's, so a machine built there costs a second
    /// machine's worth of resident memory (DESIGN.md §5b, "Recovery
    /// memory").
    pub fn crash(mut self) -> CrashedSystem {
        // CPU-cache-resident dirty lines are lost: their last-stored values
        // never reached the controller.
        let lost_lines = self.hier.dirty_lines();
        let mut truth = self.truth;
        for &addr in &lost_lines {
            truth.remove(addr);
        }

        // ADR flush: residual power pushes the controller's ADR-domain lines
        // into NVM. (Write-queue entries were applied to the device at
        // acceptance, so they are already durable.)
        let nv = self.ctrl.scheme.power_cut(&mut self.ctrl.nvm);

        // The bulk of the volatile state goes before its replacement comes.
        drop((self.hier, self.ctrl.meta, self.ctrl.wq));
        let machine = SecureNvmSystem::new(self.cfg.clone());
        CrashedSystem {
            cfg: self.cfg,
            layout: self.ctrl.layout,
            crypto: self.ctrl.crypto,
            nvm: self.ctrl.nvm,
            root: self.ctrl.root,
            nv,
            truth,
            lost_lines,
            machine,
        }
    }
}

impl CrashedSystem {
    /// The configuration the machine ran with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// A no-op that returns the image unchanged, kept so callers that pin
    /// a lane count still build. One image always recovers serially and
    /// journals one high-water mark; recovery parallelism is across shards
    /// ([`ShardedEngine::recover_all`]'s `workers`).
    pub fn with_recovery_lanes(self, _lanes: usize) -> Self {
        self
    }

    /// Whether the scheme can recover at all.
    pub fn recoverable(&self) -> bool {
        self.cfg.scheme.supports_recovery()
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

    /// The revived machine: the image's NVM, SIT root and ground truth in
    /// the machine the crash built, whose scheme registers start fresh
    /// (zero LIncs, empty shadow tags, empty cache trees). Every recovery
    /// and the lenient scrub revive through here, after their verification
    /// and before their first durable write. The machine is empty but for
    /// what verification put in its volatile metadata cache: the nodes
    /// Steins recovery verified.
    pub(crate) fn revive(self) -> SecureNvmSystem {
        let mut sys = self.machine;
        sys.ctrl.nvm = self.nvm;
        sys.ctrl.root = self.root;
        sys.truth = self.truth;
        sys
    }
}

// ————————————— Exhaustive persist-boundary fault injection —————————————
//
// The NVM device numbers every durable-state transition (each accepted 64 B
// line write, each in-place ADR-line update). [`CrashSweep`] replays a fixed
// op stream through a [`ShardedEngine`] — an unsharded machine is the
// 1-shard case — once to enumerate every shard's points. Then each job
// replays the stream with its target's device armed to lose power the
// instant transition k completes, recovers that shard, and verifies the
// whole address space against the sweep contract (DESIGN.md §6d): every
// acknowledged write reads back through the router (which re-verifies the
// whole ancestor chain of every populated tree path), and every shard's
// LInc registers and journal line hold what they must. A failing
// whole-line point is shrunk to a minimal op stream and printed with the
// first divergent node and a MAC-probe diagnosis ([`crate::diagnose`]).

/// The data-line universe of the standard streams ([`CrashSweep::small`]
/// and the fault campaign's) and of the campaign's data-line attacks.
pub const SWEEP_LINES: u64 = 192;

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
    /// quarter of the traffic concentrated on 8 hot lines. At the sweep's
    /// sizes (192 lines, up to 1,000 ops) no line is written the 64 times
    /// a split-mode minor overflow needs, and a stream whose tree nodes fit
    /// the metadata cache evicts nothing: no node flush, NV-buffer park or
    /// drain runs.
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

    /// Serves the op through the router (`line` is a global line index).
    fn apply(self, engine: &ShardedEngine) -> Result<(), IntegrityError> {
        match self {
            SweepOp::Write { line, tag } => engine.write(line * 64, &SweepOp::payload(line, tag)),
            SweepOp::Read { line } => engine.read(line * 64).map(|_| ()),
        }
    }
}

/// Which crash points of the enumeration to test.
#[derive(Clone, Copy, Debug)]
pub enum PointSelection {
    /// Every point (the exhaustive sweep).
    All,
    /// At most `n` points per shard, evenly strided across the shard's
    /// enumeration (the bounded in-test sweep). With `n ≥ 2` the first and
    /// the last point are always included; `n = 1` keeps only the first,
    /// and `n = 0` selects nothing.
    AtMost(usize),
}

impl PointSelection {
    /// Applies the selection to one point list, striding by index so first
    /// and last survive bounding.
    fn apply<T: Copy>(self, points: Vec<T>) -> Vec<T> {
        match self {
            PointSelection::All => points,
            PointSelection::AtMost(n) if n >= points.len() => points,
            PointSelection::AtMost(0) => Vec::new(),
            PointSelection::AtMost(n) => {
                let n = n as u64;
                let last = (points.len() - 1) as u64;
                (0..n)
                    .map(|i| points[(i * last / (n - 1).max(1)) as usize])
                    .collect()
            }
        }
    }
}

/// A crash point: the `k`-th persist event (1-based) of shard `shard`'s
/// device. Every point of an unsharded sweep has `shard == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// The shard whose device loses power.
    pub shard: usize,
    /// The persist event the crash trips on.
    pub k: u64,
}

/// One unit of a sweep: the crash (or crashes) to inject. A `mask` is a
/// word mask for the tripping line write — bit *i* ⇒ 8-byte word *i*
/// persists — and `0xFF` is the whole-line crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashJob {
    /// One crash at `p`.
    Point {
        /// The crash point.
        p: CrashPoint,
        /// Word mask of the tripping write.
        mask: u8,
    },
    /// A crash at `p`, then a second one at persist point `j` (absolute on
    /// the target's device) that recovery itself fires.
    Nested {
        /// The outer crash point.
        p: CrashPoint,
        /// Word mask of the outer tripping write.
        mask: u8,
        /// The inner crash's persist point.
        j: u64,
        /// Word mask of the inner tripping write.
        inner: u8,
    },
    /// A whole-line crash at `p`, then a parallel rebuild of every shard on
    /// `workers` threads whose target worker crashes at persist point `j`.
    WorkerCrash {
        /// The outer crash point.
        p: CrashPoint,
        /// The inner crash's persist point on the target's device.
        j: u64,
        /// Rebuild threads.
        workers: usize,
    },
    /// A crash at `p` whose image is then corrupted by `attacks` before
    /// strict recovery and the lenient scrub each run on it.
    Attacked {
        /// The crash point.
        p: CrashPoint,
        /// Word mask of the tripping write.
        mask: u8,
        /// The post-crash corruptions, applied in order.
        attacks: Vec<Attack>,
    },
}

/// What [`CrashSweep::jobs`] lists.
#[derive(Clone, Debug)]
pub enum Jobs<'a> {
    /// `Masks(outer, inner)`: for each outer mask, in order, the sweep's
    /// selection applied per shard to the persist points that mask can
    /// trip on — every point for `0xFF`, only line writes for a torn mask.
    /// Without `inner` each selected point is one [`CrashJob::Point`]. With
    /// `inner = Some((masks, selection))` each is paired with the persist
    /// points recovery itself fires after that crash, bounded by
    /// `selection`, under every inner mask that can trip on them, as
    /// [`CrashJob::Nested`] jobs. When recovery fires none (WB refuses
    /// before its first write), one synthetic point past the outer crash
    /// stands in, so the refusal is still checked under nested arming.
    Masks(&'a [u8], Option<(&'a [u8], PointSelection)>),
    /// `Seeded(seed, iters)`: the fault campaign, one job per iteration `i`
    /// of `iters`, drawn from an RNG seeded by `(seed, combo, i)` alone —
    /// `combo` is the sweep's index in [`COMBOS`] — so an iteration lists
    /// alone as it does inside any range. Each draws a crash point
    /// uniformly over shard 0's persist points and a word mask (`0xFF`
    /// where the point is an ADR update, which never tears). Iterations
    /// with `i % 4 == 2` add a second crash at a drawn recovery-time point
    /// ([`CrashJob::Nested`], its mask likewise tearing only a line write),
    /// other even ones stay a [`CrashJob::Point`], and odd ones draw 1–3
    /// [`Attack`]s ([`CrashJob::Attacked`]).
    Seeded(u64, Range<usize>),
}

impl CrashJob {
    /// A whole-line nested job as a worker crash on `workers` threads: the
    /// same outer and inner points. Other jobs come back unchanged.
    pub fn on_workers(self, workers: usize) -> CrashJob {
        match self {
            CrashJob::Nested {
                p,
                mask: 0xFF,
                j,
                inner: 0xFF,
            } => CrashJob::WorkerCrash { p, j, workers },
            job => job,
        }
    }
}

/// Whether a crash under `mask` can trip on `q`: any point whole-line, only
/// a line write torn (ADR updates are sub-word and never tear).
pub(crate) fn can_trip(q: &PersistPoint, mask: u8) -> bool {
    mask == 0xFF || q.kind == PersistKind::LineWrite
}

/// One post-crash corruption of a [`CrashJob::Attacked`] image. Node
/// offsets index the target's metadata region, lines its data region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attack {
    /// XOR `mask` into byte `byte` of the node at `offset`.
    TamperNode { offset: u64, byte: usize, mask: u8 },
    /// XOR `mask` into byte `byte` of data line `line`.
    TamperData { line: u64, byte: usize, mask: u8 },
    /// Rewrite the offset record of metadata-cache slot `slot`.
    RewriteRecord { slot: u64, entry: Option<u64> },
    /// Overwrite the node at `node_offset` with `fill` bytes.
    RawOverwrite { node_offset: u64, fill: u8 },
    /// Media fault: the node at `node_offset` reads back stuck at `fill`.
    StuckLine { node_offset: u64, fill: u8 },
    /// Media fault: data line `data_line` stops being readable.
    Unreadable { data_line: u64 },
    /// Flip bit `bit` of byte `byte` of data line `data_line` in storage.
    BitFlip {
        data_line: u64,
        byte: usize,
        bit: u8,
    },
}

/// Draws a torn-word mask: whole-line persists stay the common case, with
/// prefix tears, arbitrary subsets, and dropped writes mixed in.
pub(crate) fn draw_mask(rng: &mut SmallRng) -> u8 {
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

/// Draws one post-crash corruption over `total_nodes` metadata nodes,
/// `cache_slots` record slots and the stream's [`SWEEP_LINES`] data lines.
fn draw_attack(rng: &mut SmallRng, total_nodes: u64, cache_slots: u64) -> Attack {
    let nz = |m: u8| if m == 0 { 1 } else { m };
    match rng.next_u64() % 7 {
        0 => Attack::TamperNode {
            offset: rng.next_u64() % total_nodes,
            byte: (rng.next_u64() % 64) as usize,
            mask: nz((rng.next_u64() & 0xFF) as u8),
        },
        1 => Attack::TamperData {
            line: rng.next_u64() % SWEEP_LINES,
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
            data_line: rng.next_u64() % SWEEP_LINES,
        },
        _ => Attack::BitFlip {
            data_line: rng.next_u64() % SWEEP_LINES,
            byte: (rng.next_u64() % 64) as usize,
            bit: (rng.next_u64() % 8) as u8,
        },
    }
}

/// Applies an attack to a crashed image.
fn apply_attack(crashed: &mut CrashedSystem, a: Attack) {
    let data_addr = |line: u64| crashed.layout.data_base + line * 64;
    match a {
        Attack::TamperNode { offset, byte, mask } => crashed.tamper_node_at(offset, byte, mask),
        Attack::TamperData { line, byte, mask } => crashed.tamper_data_at(line, byte, mask),
        Attack::RewriteRecord { slot, entry } => crashed.rewrite_record(slot, entry),
        Attack::RawOverwrite { node_offset, fill } => {
            let addr = crashed.layout.node_addr(node_offset);
            crashed.poke_raw(addr, &[fill; 64]);
        }
        Attack::StuckLine { node_offset, fill } => {
            let addr = crashed.layout.node_addr(node_offset);
            crashed.nvm_mut().inject_stuck_line(addr, [fill; 64]);
        }
        Attack::Unreadable { data_line } => {
            let addr = data_addr(data_line);
            crashed.nvm_mut().inject_unreadable(addr);
        }
        Attack::BitFlip {
            data_line,
            byte,
            bit,
        } => {
            let addr = data_addr(data_line);
            crashed.nvm_mut().inject_bit_flip(addr, byte, bit);
        }
    }
}

/// A minimized failing crash point.
#[derive(Clone, Debug)]
pub struct CrashRepro {
    /// Scheme/mode label ("Steins-SC" …).
    pub label: String,
    /// The failing job's index in the list [`CrashSweep::run`] probed; in
    /// a [`Jobs::Seeded`] list from iteration 0 it is the iteration.
    pub job: Option<usize>,
    /// The shard the crash was armed on, in a sweep of more than one shard.
    pub shard: Option<usize>,
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
        let job = self.job.map(|j| format!("job {j}, ")).unwrap_or_default();
        let shard = self
            .shard
            .map(|s| format!("shard {s} "))
            .unwrap_or_default();
        writeln!(
            f,
            "{}: {job}{shard}crash point {} (op {} of {}) failed",
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

/// What [`CrashJob::Attacked`] jobs count besides pass or fail; no other
/// job counts anything here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackTally {
    /// Strict recoveries of an attacked image that returned an error.
    pub detected: u64,
    /// Unwinds caught in strict recovery, the scrub or a read after it;
    /// each also fails its job.
    pub unwinds: u64,
    /// Data lines the scrubs verified intact.
    pub data_intact: u64,
    /// Data lines the scrubs classified unrecoverable.
    pub data_unrecoverable: u64,
    /// Metadata nodes the scrubs rebuilt.
    pub meta_recovered: u64,
}

/// Result of one [`CrashSweep::run`] over a job list.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Scheme/mode label, plus the shard count when there is more than one.
    pub label: String,
    /// Jobs probed.
    pub tested_points: u64,
    /// The repro of every failing job, in job order.
    pub failures: Vec<CrashRepro>,
    /// The attacked jobs' tallies, summed.
    pub attacked: AttackTally,
}

impl SweepReport {
    /// True when every job held the contract.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The `core.campaign.*` keys of a seeded list and its report: jobs per
/// kind and the histogram of their crash points from `jobs`, failures and
/// the attacked jobs' tallies from `report`.
pub fn campaign_metrics(jobs: &[CrashJob], report: &SweepReport) -> MetricRegistry {
    let mut m = MetricRegistry::new();
    let mut hist = Histogram::new();
    let mut kinds = [("crash", 0), ("nested", 0), ("attack", 0)];
    for job in jobs {
        let (kind, p) = match job {
            CrashJob::Point { p, .. } => (0, p),
            CrashJob::Nested { p, .. } | CrashJob::WorkerCrash { p, .. } => (1, p),
            CrashJob::Attacked { p, .. } => (2, p),
        };
        kinds[kind].1 += 1;
        hist.record(p.k);
    }
    for (kind, n) in kinds {
        m.counter_add(&format!("core.campaign.points.{kind}"), n);
    }
    let t = &report.attacked;
    m.counter_add("core.campaign.panics", t.unwinds);
    m.counter_add("core.campaign.failures", report.failures.len() as u64);
    m.counter_add("core.campaign.strict.detected", t.detected);
    m.counter_add("core.campaign.scrub.data.intact", t.data_intact);
    m.counter_add(
        "core.campaign.scrub.data.unrecoverable",
        t.data_unrecoverable,
    );
    m.counter_add("core.campaign.scrub.meta.recovered", t.meta_recovered);
    m.insert_hist("core.campaign.point", &hist);
    m
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
        for repro in self.failures.iter().take(SHOWN_FAILURES) {
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

/// What a crash of one target shard left besides the target's image: the
/// engine — the target's slot empty, its neighbors live mid-stream with
/// their CPU-dirty lines and half-drained queues — and ground truth
/// reconciled against the in-flight op and the sacrificial torn line. Every
/// later recovery of the target, however many it takes, verifies against
/// these expectations.
pub(crate) struct Outage {
    engine: ShardedEngine,
    target: usize,
    pub(crate) op_index: usize,
    trip: Option<PersistPoint>,
    /// Every line that must read back (global address), with its content.
    pub(crate) expected: HashMap<u64, [u8; 64]>,
    /// A data line (global address) destroyed by the tear — the in-place
    /// overwrite mixed old and new words; reads of it must fail closed.
    pub(crate) sacrificed: Option<u64>,
}

impl Outage {
    fn fail(&self, error: impl Into<String>, divergent: impl Into<String>) -> PointFailure {
        PointFailure {
            op_index: self.op_index,
            point: self.trip,
            error: error.into(),
            divergent: divergent.into(),
        }
    }

    /// WB's contract at every point: it refuses recovery.
    fn refused(&self, err: Option<IntegrityError>) -> Result<(), PointFailure> {
        match err {
            Some(IntegrityError::RecoveryUnsupported) => Ok(()),
            other => Err(self.fail(
                format!(
                    "WB must refuse recovery, got {:?}",
                    other.map(|e| e.to_string())
                ),
                "n/a",
            )),
        }
    }
}

/// How strict recovery of a crash ended, with a second crash armed inside
/// it or none.
enum NestedRun {
    /// Recovery finished (no inner crash, or one beyond recovery's
    /// horizon): the recovered system and its `core.recovery.restarts`.
    Completed(Box<SecureNvmSystem>, u64),
    /// Strict recovery failed cleanly before any inner point tripped (a
    /// torn outer line can legitimately defeat fail-stop recovery).
    StrictFailed(IntegrityError),
    /// The inner crash tripped mid-recovery; the partial system — parked in
    /// the caller's slot before recovery's first durable write — lost power
    /// again. The doubly-crashed machine.
    Crashed(Box<CrashedSystem>),
}

/// Point tests spent shrinking one failure.
const SHRINK_BUDGET: usize = 2_000;

/// Failures a [`SweepReport`] prints; it counts the rest.
const SHOWN_FAILURES: usize = 3;

/// `core.recovery.restarts` of a strict recovery.
fn restarts(report: &RecoveryReport) -> u64 {
    report
        .metrics
        .counter("core.recovery.restarts")
        .unwrap_or(0)
}

/// Drops a second crash's arming and poke tracing from a system that
/// recovery or the scrub handed back.
fn disarmed(mut sys: SecureNvmSystem) -> SecureNvmSystem {
    sys.ctrl.nvm.disarm_crash();
    sys.ctrl.nvm.trace_pokes(false);
    sys
}

/// The persist-boundary fault-injection driver: one protocol for one
/// controller or N of them.
#[derive(Clone)]
pub struct CrashSweep {
    cfg: SystemConfig,
    shards: usize,
    ops: Vec<SweepOp>,
    selection: PointSelection,
}

impl CrashSweep {
    /// A sweep of `ops` (global line indices) against one `cfg` machine,
    /// testing the `selection` of points.
    pub fn new(cfg: SystemConfig, ops: Vec<SweepOp>, selection: PointSelection) -> Self {
        CrashSweep {
            cfg,
            shards: 1,
            ops,
            selection,
        }
    }

    /// Builder: replay the stream through `shards` interleave-striped
    /// shards of `cfg` ([`ShardedEngine::new`]), arming the crash on one
    /// target shard at a time.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
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
        let ops = SweepOp::stream(0x5EED ^ ops as u64, SWEEP_LINES, ops);
        CrashSweep::new(cfg, ops, selection)
    }

    /// Scheme/mode label, plus the shard count when there is more than one.
    fn label(&self) -> String {
        let label = self.cfg.scheme.label(self.cfg.mode);
        if self.shards > 1 {
            format!("{label} x{}", self.shards)
        } else {
            label
        }
    }

    fn engine(&self) -> ShardedEngine {
        ShardedEngine::new(self.cfg.clone(), self.shards)
    }

    /// Runs the stream crash-free with point journaling on, returning every
    /// persist point of every shard's device.
    fn enumerate(&self) -> Result<Vec<Vec<PersistPoint>>, IntegrityError> {
        let engine = self.engine();
        for s in 0..self.shards {
            engine.with_shard(s, |sys| sys.ctrl.nvm.journal_points(true));
        }
        for &op in &self.ops {
            op.apply(&engine)?;
        }
        Ok((0..self.shards)
            .map(|s| engine.with_shard(s, |sys| sys.ctrl.nvm.point_journal().to_vec()))
            .collect())
    }

    /// Each shard's persist-point count: shard `s`'s crash points are
    /// `k` in `1..=total[s]`.
    pub fn total_points(&self) -> Result<Vec<u64>, IntegrityError> {
        Ok(self.enumerate()?.iter().map(|j| j.len() as u64).collect())
    }

    /// The sweep's jobs, listed as `what` says.
    pub fn jobs(&self, what: Jobs) -> Result<Vec<CrashJob>, IntegrityError> {
        let journals = self.enumerate()?;
        let (outer, inner) = match what {
            Jobs::Masks(outer, inner) => (outer, inner),
            Jobs::Seeded(seed, iters) => return Ok(self.seeded(&journals[0], seed, iters)),
        };
        let mut jobs = Vec::new();
        for &mask in outer {
            for (shard, journal) in journals.iter().enumerate() {
                let ks = journal.iter().filter(|q| can_trip(q, mask)).map(|q| q.seq);
                for k in self.selection.apply(ks.collect()) {
                    let p = CrashPoint { shard, k };
                    let Some((inner_masks, inner_sel)) = inner else {
                        jobs.push(CrashJob::Point { p, mask });
                        continue;
                    };
                    for q in inner_sel.apply(self.inner_points(p, mask)) {
                        for &m1 in inner_masks.iter().filter(|&&m1| can_trip(&q, m1)) {
                            jobs.push(CrashJob::Nested {
                                p,
                                mask,
                                j: q.seq,
                                inner: m1,
                            });
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// [`Jobs::Seeded`]'s list, drawn against shard 0's persist points
    /// `journal`.
    fn seeded(&self, journal: &[PersistPoint], seed: u64, iters: Range<usize>) -> Vec<CrashJob> {
        let total = journal.len() as u64;
        if total == 0 {
            return Vec::new();
        }
        let combo = COMBOS
            .iter()
            .position(|&c| c == (self.cfg.scheme, self.cfg.mode))
            .expect("validate admits only the combos");
        let cfg = ShardedEngine::split_config(&self.cfg, self.shards);
        let slots = cfg.meta_cache.slots();
        let nodes = MemoryLayout::new(cfg.mode, cfg.data_lines, slots)
            .geometry
            .total_nodes();
        iters
            .map(|i| {
                let mut rng = SmallRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(combo as u32 * 7)
                        ^ (i as u64).wrapping_mul(0xD134_2543_DE82_EF95),
                );
                let k = rng.gen_range_inclusive(1, total);
                let p = CrashPoint { shard: 0, k };
                let drawn = draw_mask(&mut rng);
                let mask = if can_trip(&journal[k as usize - 1], drawn) {
                    drawn
                } else {
                    0xFF
                };
                if i % 4 == 2 {
                    let draw = rng.next_u64();
                    let drawn = draw_mask(&mut rng);
                    let points = self.inner_points(p, mask);
                    let q = points[(draw % points.len() as u64) as usize];
                    let inner = if can_trip(&q, drawn) { drawn } else { 0xFF };
                    CrashJob::Nested {
                        p,
                        mask,
                        j: q.seq,
                        inner,
                    }
                } else if i % 2 == 0 {
                    CrashJob::Point { p, mask }
                } else {
                    let attacks = (0..1 + rng.next_u64() % 3)
                        .map(|_| draw_attack(&mut rng, nodes, slots))
                        .collect();
                    CrashJob::Attacked { p, mask, attacks }
                }
            })
            .collect()
    }

    /// Replays the stream with a (possibly torn) crash armed at `p`, then
    /// reconciles ground truth. `Ok(None)` when `p.k` lies beyond the
    /// target's horizon.
    pub(crate) fn crash_torn(
        &self,
        p: CrashPoint,
        word_mask: u8,
    ) -> Result<Option<(CrashedSystem, Outage)>, PointFailure> {
        let engine = self.engine();
        let target = p.shard;
        engine.with_shard(target, |sys| sys.ctrl.nvm.arm_crash_torn(p.k, word_mask));

        // Replay until the armed point pulls the plug.
        let mut acked: HashMap<u64, [u8; 64]> = HashMap::new();
        let mut in_flight: Option<(usize, SweepOp)> = None;
        for (i, &op) in self.ops.iter().enumerate() {
            match op.apply(&engine) {
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
            // Armed beyond the target's horizon: nothing to test.
            return Ok(None);
        };
        let trip = engine.with_shard(target, |sys| {
            sys.ctrl.nvm.disarm_crash();
            sys.ctrl.nvm.tripped_at()
        });

        // Only the target loses power. Then reconcile ground truth for the
        // op the crash interrupted: its store is durable iff the tripping
        // transition was the data line's own *full* write (the MAC record
        // rides the same line's ECC bits, so the pair is atomic; a torn line
        // is never an acknowledged store). The trip address and the crashed
        // image's truth are local to the target's device.
        let mut expected = acked.clone();
        let mut crashed = engine.crash_shard(target);
        if let SweepOp::Write { line, tag } = op {
            let addr = line * 64;
            let (_, local) = engine.map().route(addr);
            let durable = word_mask == 0xFF
                && trip.is_some_and(|t| t.kind == PersistKind::LineWrite && t.addr == local);
            if durable {
                let data = SweepOp::payload(line, tag);
                crashed.truth.set(local, &data);
                expected.insert(addr, data);
            } else {
                match acked.get(&addr) {
                    Some(v) => crashed.truth.set(local, v),
                    None => crashed.truth.remove(local),
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
            if let Some(t) = trip {
                if t.kind == PersistKind::LineWrite && crashed.layout.is_data(t.addr) {
                    let addr = engine.map().global_line(target, t.addr / 64) * 64;
                    sacrificed = Some(addr);
                    expected.remove(&addr);
                    crashed.truth.remove(t.addr);
                }
            }
        }

        let outage = Outage {
            engine,
            target,
            op_index,
            trip,
            expected,
            sacrificed,
        };
        Ok(Some((crashed, outage)))
    }

    /// Verifies the engine once the target has a system again: every
    /// acknowledged line reads back through the router (which verifies the
    /// data MACs and — through the fetch path — every ancestor node of every
    /// populated tree branch), the sacrificed line fails closed, every
    /// shard's LInc registers equal a from-scratch recomputation, and the
    /// target's journal is stamped by the target. Neighbors must hold a
    /// pristine `IDLE` journal after a one-shard outage, or — with
    /// `co_recovered`, after a whole-engine rebuild — a finished journal
    /// stamped by themselves.
    fn verify(&self, out: &Outage, p: CrashPoint, co_recovered: bool) -> Result<(), PointFailure> {
        let engine = &out.engine;
        let mut lines: Vec<u64> = out.expected.keys().copied().collect();
        lines.sort_unstable();
        for addr in lines {
            let want = out.expected[&addr];
            match engine.read(addr) {
                Ok(got) if got == want => {}
                Ok(got) => {
                    return Err(out.fail(
                        format!("acked write at {addr:#x} diverged after recovery"),
                        format!(
                            "data line {}: got {:02x?}…, want {:02x?}…",
                            addr / 64,
                            &got[..8],
                            &want[..8]
                        ),
                    ));
                }
                Err(e) => {
                    let owner = engine.map().shard_of(addr / 64);
                    let divergent = if owner == out.target {
                        self.diagnose_error(p, &e)
                    } else {
                        format!("owned by shard {owner}")
                    };
                    return Err(out.fail(format!("read-back of {addr:#x} failed: {e}"), divergent));
                }
            }
        }

        // The torn line must fail closed: its stored bytes are a mix that
        // cannot verify against the MAC record.
        if let Some(addr) = out.sacrificed {
            if engine.read(addr).is_ok() {
                return Err(out.fail(
                    format!("torn data line {addr:#x} read back Ok"),
                    "a torn line must fail its MAC, never return mixed words",
                ));
            }
        }

        for s in 0..self.shards {
            let bad = engine.with_shard(s, |sys| {
                if let (Some(stored), Some(expect)) = (sys.ctrl.lincs(), sys.ctrl.recompute_lincs())
                {
                    if stored != expect {
                        return Some((
                            "LInc registers inconsistent after recovery",
                            format!("shard {s}: lincs stored {stored:?} != recomputed {expect:?}"),
                        ));
                    }
                }
                let owner = sys.ctrl.nvm.journal_owner();
                let phase = sys.ctrl.nvm.recovery_journal().phase;
                let journal_bad = if s == out.target {
                    owner != s as u16
                } else if co_recovered {
                    journal::in_progress(phase) || owner != s as u16
                } else {
                    phase != journal::IDLE
                };
                journal_bad.then(|| {
                    (
                        "journal line inconsistent after recovery",
                        format!(
                            "shard {s} (target {}) journal phase {} stamped by shard {owner}",
                            out.target,
                            journal::name(phase)
                        ),
                    )
                })
            });
            if let Some((error, divergent)) = bad {
                return Err(out.fail(error, divergent));
            }
        }
        Ok(())
    }

    /// Reinstates the target's recovered (or scrubbed) system and verifies
    /// the one-shard outage.
    fn reinstate(
        &self,
        out: &Outage,
        p: CrashPoint,
        sys: SecureNvmSystem,
    ) -> Result<(), PointFailure> {
        out.engine.put_shard(out.target, sys);
        self.verify(out, p, false)
    }

    /// Liveness: after recovery every shard serves the rest of the stream
    /// (skipping the interrupted op, whose ack never reached the caller),
    /// and its writes join the expectations.
    fn serve_rest(&self, out: &mut Outage) -> Result<(), PointFailure> {
        for (i, &op) in self.ops.iter().enumerate().skip(out.op_index + 1) {
            if let Err(e) = op.apply(&out.engine) {
                return Err(PointFailure {
                    op_index: i,
                    point: out.trip,
                    error: format!("post-recovery op failed: {e}"),
                    divergent: "every shard must keep serving the stream after recovery".into(),
                });
            }
            if let SweepOp::Write { line, tag } = op {
                out.expected.insert(line * 64, SweepOp::payload(line, tag));
            }
        }
        Ok(())
    }

    /// The lenient contract: an interrupted prior pass is visible as a
    /// restart, nothing beyond the sacrificed line is lost, a system comes
    /// back, and the reinstated engine verifies.
    fn check_scrub(
        &self,
        out: &Outage,
        p: CrashPoint,
        sys: Option<SecureNvmSystem>,
        report: &ScrubReport,
        strict: &IntegrityError,
        min_restarts: u64,
    ) -> Result<(), PointFailure> {
        if report.restarts < min_restarts {
            return Err(out.fail(
                format!(
                    "scrub after an interrupted pass reported {} restarts, need ≥ {min_restarts}",
                    report.restarts
                ),
                "the ADR journal must record the interrupted attempt",
            ));
        }
        let map = out.engine.map();
        if let Some(bad) = report
            .unrecoverable_addrs
            .iter()
            .map(|&a| map.global_line(out.target, a / 64) * 64)
            .find(|&a| Some(a) != out.sacrificed)
        {
            return Err(out.fail(
                format!("scrub lost durable data at {bad:#x} (strict error: {strict})"),
                format!("{report}"),
            ));
        }
        let Some(sys) = sys else {
            return Err(out.fail(
                "scrub returned no system for a recoverable scheme",
                format!("{report}"),
            ));
        };
        self.reinstate(out, p, sys)
    }

    /// Rebuilds the target's crashed image for `p` and probes which counter
    /// the failing MAC actually corresponds to ([`crate::diagnose`]).
    fn diagnose_error(&self, p: CrashPoint, e: &IntegrityError) -> String {
        let Ok(Some((crashed, _))) = self.crash_torn(p, 0xFF) else {
            return "state not reproducible".into();
        };
        // The image's empty machine: same key and layout as the target.
        let probe = &crashed.machine;
        match *e {
            IntegrityError::NodeMac { node } => {
                let geo = &crashed.layout.geometry;
                let off = geo.offset_of(node);
                let n = crashed.stale_node(node);
                let pc = match geo.parent_of(node) {
                    None => crashed.root.get(geo.root_slot(node)),
                    Some((pid, slot)) => crashed.stale_node(pid).counters.as_general().get(slot),
                };
                format!(
                    "node {node:?}: {}",
                    diagnose::probe_node_mac(&probe.ctrl, &n, off, pc, 4096)
                )
            }
            IntegrityError::DataMac { addr } => {
                let dline = addr / 64;
                let rec = MacRecord::load(&crashed.nvm, &crashed.layout, dline);
                let (mj, _) = MacRecord::unpack_recovery(rec.recovery);
                let data = crashed.nvm.peek(addr & !63);
                let span = self.cfg.mode.leaf_coverage().max(64);
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

    /// A repro of `fail` at `p`, labeled `"{label} {leg}"` and truncated to
    /// the failing op (not greedily shrunk).
    fn repro(&self, leg: &str, p: CrashPoint, fail: PointFailure) -> CrashRepro {
        CrashRepro {
            label: if leg.is_empty() {
                self.label()
            } else {
                format!("{} {leg}", self.label())
            },
            job: None,
            shard: (self.shards > 1).then_some(p.shard),
            ops: self.ops[..=fail.op_index].to_vec(),
            op_index: fail.op_index,
            crash_point: p.k,
            point: fail.point,
            error: fail.error,
            divergent: fail.divergent,
        }
    }

    /// Injects `job`'s crash (or crashes) and checks the sweep contract
    /// (DESIGN.md §6d); on failure returns the repro. A failing whole-line
    /// [`CrashJob::Point`] is shrunk to a minimal op stream, every other
    /// failure truncated to the op in flight. Each call replays the stream
    /// from scratch.
    pub fn probe(&self, job: CrashJob) -> Option<CrashRepro> {
        self.probe_tallied(job).0
    }

    /// [`Self::probe`], plus what an attacked job counted.
    fn probe_tallied(&self, job: CrashJob) -> (Option<CrashRepro>, AttackTally) {
        let mut tally = AttackTally::default();
        let verdict = match job {
            CrashJob::Point { p, mask } => self.test_crash(p, mask, None),
            CrashJob::Nested { p, mask, j, inner } => self.test_crash(p, mask, Some((j, inner))),
            CrashJob::WorkerCrash { p, j, workers } => self.test_worker_crash(p, j, workers),
            CrashJob::Attacked {
                p,
                mask,
                ref attacks,
            } => self.test_attacked(p, mask, attacks, &mut tally),
        };
        let Err(fail) = verdict else {
            return (None, tally);
        };
        let (p, leg) = match job {
            CrashJob::Point { p, mask: 0xFF } => return (Some(self.shrink(p, fail)), tally),
            CrashJob::Point { p, mask } => (p, format!("torn {mask:#04x}")),
            CrashJob::Nested { p, mask, j, inner } => (
                p,
                format!("nested {}>{j} masks {mask:#04x}>{inner:#04x}", p.k),
            ),
            CrashJob::WorkerCrash { p, j, workers } => {
                (p, format!("worker-crash {}>{j} w{workers}", p.k))
            }
            CrashJob::Attacked { p, mask, attacks } => {
                (p, format!("attacked {} mask {mask:#04x} {attacks:?}", p.k))
            }
        };
        (Some(self.repro(&leg, p, fail)), tally)
    }

    /// Finds the first failing whole-line point of the stream, spending at
    /// most `budget` point tests.
    fn first_failure(&self, budget: &mut usize) -> Option<(CrashPoint, PointFailure)> {
        for (shard, total) in self.total_points().ok()?.into_iter().enumerate() {
            for k in 1..=total {
                if *budget == 0 {
                    return None;
                }
                *budget -= 1;
                let p = CrashPoint { shard, k };
                if let Err(fail) = self.test_crash(p, 0xFF, None) {
                    return Some((p, fail));
                }
            }
        }
        None
    }

    /// Shrinks a failing (ops, point) pair: truncate past the failing op,
    /// then greedily drop earlier ops while *some* point still fails.
    fn shrink(&self, p: CrashPoint, fail: PointFailure) -> CrashRepro {
        let mut best = CrashSweep {
            ops: self.ops[..=fail.op_index].to_vec(),
            ..self.clone()
        };
        let mut best_fail = (p, fail);
        let mut budget = SHRINK_BUDGET;
        // Dropping ops after the failing one never changes the execution up
        // to the failure, so the truncation above is free. Now try dropping
        // each earlier op, latest first (later ops are least likely to be
        // load-bearing for the corruption).
        let mut j = best.ops.len().saturating_sub(1);
        while j > 0 && budget > 0 {
            j -= 1;
            let mut candidate = best.clone();
            candidate.ops.remove(j);
            if let Some((p2, f2)) = candidate.first_failure(&mut budget) {
                candidate.ops.truncate(f2.op_index + 1);
                best = candidate;
                best_fail = (p2, f2);
                j = j.min(best.ops.len().saturating_sub(1));
            }
        }
        let (p, fail) = best_fail;
        best.repro("", p, fail)
    }

    /// Probes every job on `threads` workers ([`par::run_regions`]) and
    /// keeps every failure, named by its job index, in job order, with the
    /// attacked jobs' tallies. `jobs` is [`Self::jobs`]'s result: a
    /// crash-free baseline run that already fails becomes a report of that
    /// one failure.
    pub fn run(&self, jobs: Result<Vec<CrashJob>, IntegrityError>, threads: usize) -> SweepReport {
        let mut report = SweepReport {
            label: self.label(),
            tested_points: 0,
            failures: Vec::new(),
            attacked: AttackTally::default(),
        };
        let jobs = match jobs {
            Ok(jobs) => jobs,
            Err(e) => {
                report.failures.push(CrashRepro {
                    label: report.label.clone(),
                    job: None,
                    shard: None,
                    ops: self.ops.clone(),
                    op_index: 0,
                    crash_point: 0,
                    point: None,
                    error: format!("baseline run failed: {e}"),
                    divergent: "stream does not complete without a crash".into(),
                });
                return report;
            }
        };
        report.tested_points = jobs.len() as u64;
        let probed = par::run_regions(
            threads,
            jobs.into_iter().enumerate().collect(),
            |(i, job)| {
                let (repro, tally) = self.probe_tallied(job);
                (repro.map(|r| CrashRepro { job: Some(i), ..r }), tally)
            },
        );
        let sum = &mut report.attacked;
        for (repro, t) in probed {
            report.failures.extend(repro);
            sum.detected += t.detected;
            sum.unwinds += t.unwinds;
            sum.data_intact += t.data_intact;
            sum.data_unrecoverable += t.data_unrecoverable;
            sum.meta_recovered += t.meta_recovered;
        }
        report
    }

    // ———————— The contract: one crash, or a second during recovery ————————
    //
    // The recovery state machine journals its progress in the ADR domain
    // (`RecoveryJournal`), parks the partial system in the caller's slot
    // before its first durable write, and replays each phase re-entrantly.
    // A nested job proves it: reproduce an outer crash, re-arm the target's
    // device at a persist point *recovery itself* fires (journal updates,
    // record and shadow rewrites, scrub pokes — pokes are traced as tearable
    // points during injection), crash again, and require the second
    // recovery to converge on the same verified state. A single crash is
    // the same check with no second crash armed.

    /// Enumerates the persist points recovery fires for the outer crash
    /// `(p, outer_mask)`: journal updates, record/shadow line writes, and —
    /// with poke tracing on — every in-place rewrite. When a torn outer
    /// defeats strict recovery the scrub's points are enumerated instead
    /// (that is the path a second crash would interrupt). Empty when `p.k`
    /// is beyond the target's horizon or the scheme cannot recover.
    pub(crate) fn recovery_points(
        &self,
        p: CrashPoint,
        outer_mask: u8,
    ) -> Result<Vec<PersistPoint>, PointFailure> {
        let Some((mut crashed, _)) = self.crash_torn(p, outer_mask)? else {
            return Ok(Vec::new());
        };
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
        let Some((mut crashed2, _)) = self.crash_torn(p, outer_mask)? else {
            return Ok(Vec::new());
        };
        crashed2.nvm.trace_pokes(true);
        crashed2.nvm.journal_points(true);
        let mut slot2 = None;
        let _report = crashed2.recover_lenient_into(&mut slot2);
        Ok(slot2
            .map(|s| s.ctrl.nvm.point_journal().to_vec())
            .unwrap_or_default())
    }

    /// [`Self::recovery_points`], or — when recovery fires none (WB
    /// refuses before its first write) or the outer crash does not
    /// reproduce — one synthetic point past the outer crash, whose probe
    /// still checks the contract under nested arming.
    pub(crate) fn inner_points(&self, p: CrashPoint, mask: u8) -> Vec<PersistPoint> {
        match self.recovery_points(p, mask) {
            Ok(points) if !points.is_empty() => points,
            _ => vec![PersistPoint {
                seq: p.k + 1,
                kind: PersistKind::AdrUpdate,
                addr: 0,
            }],
        }
    }

    /// Reproduces the crash `(p, mask)`, arms the `inner = (j, inner_mask)`
    /// crash, if any, at absolute persist point `j` of the target's device
    /// (torn by `inner_mask` for line writes) with poke tracing on, and runs
    /// strict recovery once. Returns how the run ended plus the outer
    /// crash's outage. `Ok(None)` when `p.k` lies beyond the target's
    /// horizon.
    fn crash_nested(
        &self,
        p: CrashPoint,
        mask: u8,
        inner: Option<(u64, u8)>,
    ) -> Result<Option<(NestedRun, Outage)>, PointFailure> {
        let Some((mut crashed, out)) = self.crash_torn(p, mask)? else {
            return Ok(None);
        };
        if let Some((j, inner_mask)) = inner {
            crashed.nvm.trace_pokes(true);
            crashed.nvm.arm_crash_torn(j, inner_mask);
        }
        let mut slot = None;
        let run = match crashed.recover_into(&mut slot) {
            Ok(report) => {
                let Some(sys) = slot.take() else {
                    return Err(out.fail(
                        "recovery returned Ok without parking the system",
                        "recover_into must fill the caller's slot",
                    ));
                };
                NestedRun::Completed(Box::new(disarmed(sys)), restarts(&report))
            }
            Err(IntegrityError::PowerCut) => {
                let Some(partial) = slot.take() else {
                    return Err(out.fail(
                        "inner crash tripped before recovery parked the system",
                        "recovery must park before its first durable write",
                    ));
                };
                NestedRun::Crashed(Box::new(disarmed(partial).crash()))
            }
            Err(e) => NestedRun::StrictFailed(e),
        };
        Ok(Some((run, out)))
    }

    /// Checks one crash's contract: a crash at `p` under `mask` and, with
    /// `inner`, a second crash armed at a persist point recovery fires:
    /// * WB refuses recovery at every point;
    /// * a recovery that completes verifies; after a whole-line crash it
    ///   must also report `restarts == 0`, serve the rest of the stream on
    ///   every shard, and verify again;
    /// * if the inner crash tripped, recovery must have parked a partial
    ///   system whose second recovery verifies — reporting
    ///   `core.recovery.restarts ≥ 1` unless the journal already read
    ///   `DONE` (the inner crash landed on recovery's final durable write);
    /// * only a torn write may defeat the strict path, in which case the
    ///   lenient scrub must salvage everything but the sacrificed line
    ///   without panicking — including when the inner crash interrupts the
    ///   scrub itself.
    fn test_crash(
        &self,
        p: CrashPoint,
        mask: u8,
        inner: Option<(u64, u8)>,
    ) -> Result<(), PointFailure> {
        let Some((run, mut out)) = self.crash_nested(p, mask, inner)? else {
            return Ok(());
        };
        if !self.cfg.scheme.supports_recovery() {
            return out.refused(match run {
                NestedRun::StrictFailed(e) => Some(e),
                _ => None,
            });
        }
        let (strict, crashed_twice) = match run {
            NestedRun::Completed(sys, restarts) => {
                self.reinstate(&out, p, *sys)?;
                if mask != 0xFF {
                    return Ok(());
                }
                if restarts != 0 {
                    return Err(out.fail(
                        format!("first recovery reported {restarts} restarts"),
                        "a single crash starts from an idle journal",
                    ));
                }
                self.serve_rest(&mut out)?;
                return self.verify(&out, p, false);
            }
            NestedRun::Crashed(crashed2) => {
                let finished = !journal::in_progress(crashed2.nvm.recovery_journal().phase);
                match crashed2.recover() {
                    Ok((sys2, report2)) => {
                        if restarts(&report2) == 0 && !finished {
                            return Err(out.fail(
                                "second recovery after the inner crash reported no restart",
                                "the ADR journal must record the interrupted attempt",
                            ));
                        }
                        return self.reinstate(&out, p, sys2);
                    }
                    Err(strict) if mask == 0xFF && matches!(inner, Some((_, 0xFF))) => {
                        return Err(out.fail(
                            format!("clean nested crash failed second recovery: {strict}"),
                            "untorn nested crashes must recover strictly",
                        ));
                    }
                    Err(strict) => (strict, true),
                }
            }
            // Whole-line persists must always recover strictly — an inner
            // crash never even fired here.
            NestedRun::StrictFailed(strict) if mask == 0xFF => {
                return Err(out.fail(strict.to_string(), self.diagnose_error(p, &strict)));
            }
            NestedRun::StrictFailed(strict) => (strict, false),
        };
        catch_unwind(AssertUnwindSafe(|| {
            self.scrub_leg(&out, p, mask, inner, crashed_twice, &strict)
        }))
        .unwrap_or_else(|_| {
            Err(out.fail(
                format!("scrub leg panicked after strict error: {strict}"),
                "lenient recovery must be total",
            ))
        })
    }

    /// The lenient leg, on a fresh replay of what strict recovery gave up
    /// on: the doubly-crashed partial machine (`crashed_twice`), or the
    /// outer image with the inner crash, if any, re-armed against the
    /// scrub's own persist points — including a trip *during* the scrub,
    /// which must journal `SCRUB` and complete on the next lenient pass.
    fn scrub_leg(
        &self,
        out: &Outage,
        p: CrashPoint,
        mask: u8,
        inner: Option<(u64, u8)>,
        crashed_twice: bool,
        strict: &IntegrityError,
    ) -> Result<(), PointFailure> {
        if crashed_twice {
            let Some((NestedRun::Crashed(crashed2), out2)) = self.crash_nested(p, mask, inner)?
            else {
                return Err(out.fail(
                    "nested run is nondeterministic: no second crash on replay",
                    format!("first attempt failed with: {strict}"),
                ));
            };
            let min_restarts =
                u64::from(journal::in_progress(crashed2.nvm.recovery_journal().phase));
            let (sys, report) = crashed2.recover_lenient();
            return self.check_scrub(&out2, p, sys, &report, strict, min_restarts);
        }
        let Some((mut crashed, out2)) = self.crash_torn(p, mask)? else {
            return Err(out.fail("outer crash not reproducible for the scrub", "n/a"));
        };
        if let Some((j, inner_mask)) = inner {
            crashed.nvm.trace_pokes(true);
            crashed.nvm.arm_crash_torn(j, inner_mask);
        }
        let mut slot = None;
        if let Ok(report) = crashed.recover_lenient_into(&mut slot) {
            // No inner crash, or one beyond the scrub's horizon: the plain
            // scrub contract applies.
            return self.check_scrub(&out2, p, slot.take().map(disarmed), &report, strict, 0);
        }
        let Some(partial) = slot.take() else {
            return Err(out2.fail(
                "inner crash tripped before the scrub parked the system",
                "the scrub must park before its first rewrite",
            ));
        };
        let crashed3 = disarmed(partial).crash();
        // The interrupted scrub must be journaled: strict recovery is no
        // longer sound on this image. A trip on the scrub's final write
        // legitimately reads `DONE` — all durable work already landed.
        let phase = crashed3.nvm.recovery_journal().phase;
        if phase != journal::SCRUB && phase != journal::DONE {
            return Err(out2.fail(
                "interrupted scrub left no SCRUB journal entry",
                format!("journal phase {}", journal::name(phase)),
            ));
        }
        let min_restarts = u64::from(journal::in_progress(phase));
        let (sys, report) = crashed3.recover_lenient();
        self.check_scrub(&out2, p, sys, &report, strict, min_restarts)
    }

    /// Probes one *worker* crash: a whole-line crash at `p`, then a
    /// whole-engine outage (every neighbor loses power at its own op
    /// boundary), then a parallel rebuild of every shard by `workers`
    /// threads ([`crate::par::run_regions`], as in
    /// [`ShardedEngine::recover_all`]) with a second crash armed at absolute
    /// persist point `j` on the target's device. The worker driving the
    /// target's region trips mid-rebuild; every other region must finish
    /// with `restarts == 0`. The target is then crashed again and strictly
    /// re-recovered: its ADR journal must make it report
    /// `core.recovery.restarts ≥ 1` unless the inner crash landed after
    /// `DONE`. Every shard then serves the rest of the stream, and the whole
    /// space verifies with co-recovered neighbors.
    fn test_worker_crash(&self, p: CrashPoint, j: u64, workers: usize) -> Result<(), PointFailure> {
        enum Region {
            Done(u64),
            Tripped(Box<SecureNvmSystem>),
            Failed(String),
        }

        let Some((mut crashed, mut out)) = self.crash_torn(p, 0xFF)? else {
            return Ok(());
        };
        if !crashed.recoverable() {
            return out.refused(crashed.recover().err());
        }
        crashed.nvm.arm_crash_torn(j, 0xFF);
        let mut target_img = Some(crashed);
        let images: Vec<(usize, CrashedSystem)> = (0..self.shards)
            .map(|s| {
                let img = if s == out.target {
                    target_img.take().expect("one target image")
                } else {
                    out.engine.crash_shard(s)
                };
                (s, img)
            })
            .collect();
        let engine = &out.engine;
        let regions = par::run_regions(workers, images, |(s, img)| {
            let mut slot = None;
            match (img.recover_into(&mut slot), slot.take()) {
                (Ok(report), Some(sys)) => {
                    engine.put_shard(s, disarmed(sys));
                    Region::Done(restarts(&report))
                }
                (Err(IntegrityError::PowerCut), Some(partial)) => {
                    Region::Tripped(Box::new(partial))
                }
                (Err(IntegrityError::PowerCut), None) => {
                    Region::Failed("inner crash tripped before recovery parked the system".into())
                }
                (Err(e), _) => Region::Failed(format!("strict recovery failed: {e}")),
                (Ok(_), None) => Region::Failed("recovery returned Ok without parking".into()),
            }
        });

        for (s, region) in regions.into_iter().enumerate() {
            match region {
                Region::Done(0) => {}
                Region::Done(restarts) => {
                    return Err(out.fail(
                        format!("uninterrupted region {s} reported {restarts} restarts"),
                        "only the crashed worker's region may restart",
                    ));
                }
                Region::Tripped(_) if s != out.target => {
                    return Err(out.fail(
                        format!(
                            "inner crash armed on shard {} tripped region {s}",
                            out.target
                        ),
                        "regions recover off their own devices",
                    ));
                }
                Region::Tripped(partial) => {
                    // Re-crash the interrupted worker's region and recover it
                    // strictly; its journal must carry the interrupted attempt.
                    let crashed2 = disarmed(*partial).crash();
                    let finished = !journal::in_progress(crashed2.nvm.recovery_journal().phase);
                    match crashed2.recover() {
                        Ok((sys2, report2)) if restarts(&report2) > 0 || finished => {
                            out.engine.put_shard(s, sys2);
                        }
                        Ok(_) => {
                            return Err(out.fail(
                                format!(
                                    "second recovery after worker crash at {j} reported no restart"
                                ),
                                "the worker's progress must survive in the shard's ADR journal",
                            ));
                        }
                        Err(e) => {
                            return Err(out.fail(
                                format!("worker crash {}>{j} failed second recovery: {e}", p.k),
                                "untorn nested crashes must recover strictly",
                            ));
                        }
                    }
                }
                Region::Failed(e) => {
                    return Err(out.fail(
                        format!("region {s}: {e}"),
                        "untorn parallel regions must recover strictly",
                    ));
                }
            }
        }
        self.serve_rest(&mut out)?;
        self.verify(&out, p, true)
    }

    // ———————— The robustness contract: a crash, then an attack ————————
    //
    // Tampering after the crash defeats the sweep contract by design: an
    // attacked image promises detection, never correction, and never a
    // panic. A failing job is truncated to the op in flight: the replay
    // stops at the power cut, so no later op could change its verdict.

    /// Reproduces the crash `(p, mask)` and lands `attacks` on the
    /// target's image. `Ok(None)` when `p.k` lies beyond the target's
    /// horizon.
    fn attacked_image(
        &self,
        p: CrashPoint,
        mask: u8,
        attacks: &[Attack],
    ) -> Result<Option<(CrashedSystem, Outage)>, PointFailure> {
        Ok(self.crash_torn(p, mask)?.map(|(mut crashed, out)| {
            for &a in attacks {
                apply_attack(&mut crashed, a);
            }
            (crashed, out)
        }))
    }

    /// Checks an attacked crash image:
    /// * strict recovery must not unwind; an `Err` counts as a detection;
    /// * the lenient scrub, on a freshly rebuilt copy of the image, must
    ///   not unwind either;
    /// * every tampered data line that held acked content must be flagged
    ///   unrecoverable, unless a media fault shadows what the scrub saw or
    ///   the tear sacrificed the line;
    /// * when the scheme can recover, no acked line may read back wrong as
    ///   `Ok`, and no read may unwind.
    ///
    /// WB is held to the same contract: its strict refusal is a detection.
    fn test_attacked(
        &self,
        p: CrashPoint,
        mask: u8,
        attacks: &[Attack],
        tally: &mut AttackTally,
    ) -> Result<(), PointFailure> {
        let Some((crashed, out)) = self.attacked_image(p, mask, attacks)? else {
            return Ok(());
        };
        match catch_unwind(AssertUnwindSafe(move || crashed.recover().err())) {
            Ok(Some(_)) => tally.detected += 1,
            Ok(None) => {}
            Err(_) => {
                tally.unwinds += 1;
                return Err(out.fail(
                    "strict recovery panicked on an attacked image",
                    "recovery must fail closed, never unwind",
                ));
            }
        }
        let Some((crashed, ..)) = self.attacked_image(p, mask, attacks)? else {
            return Err(out.fail("attacked image not reproducible for the scrub", "n/a"));
        };
        let Ok((sys, scrub)) = catch_unwind(AssertUnwindSafe(move || crashed.recover_lenient()))
        else {
            tally.unwinds += 1;
            return Err(out.fail(
                "lenient scrub panicked on an attacked image",
                "lenient recovery must be total",
            ));
        };
        tally.data_intact += scrub.data_intact;
        tally.data_unrecoverable += scrub.data_unrecoverable;
        tally.meta_recovered += scrub.meta_recovered;

        // The data lines whose storage an attack corrupted (global
        // addresses), unless a read-path media fault shadows what the scrub
        // saw.
        let map = out.engine.map();
        let media = attacks
            .iter()
            .any(|a| matches!(a, Attack::StuckLine { .. } | Attack::Unreadable { .. }));
        let mut tampered = attacks.iter().filter_map(|a| match *a {
            Attack::TamperData { line, .. }
            | Attack::BitFlip {
                data_line: line, ..
            } => Some(map.global_line(out.target, line) * 64),
            _ => None,
        });
        let flagged = |addr: u64| {
            scrub
                .unrecoverable_addrs
                .iter()
                .any(|&a| map.global_line(out.target, a / 64) * 64 == addr)
        };
        if let Some(addr) = tampered.find(|&addr| {
            !media
                && out.expected.contains_key(&addr)
                && Some(addr) != out.sacrificed
                && !flagged(addr)
        }) {
            return Err(out.fail(
                format!("tampered durable line {addr:#x} not flagged unrecoverable"),
                format!("{scrub}"),
            ));
        }

        if !self.cfg.scheme.supports_recovery() {
            return Ok(());
        }
        let Some(sys) = sys else {
            return Err(out.fail(
                "scrub returned no system for a recoverable scheme",
                format!("{scrub}"),
            ));
        };
        out.engine.put_shard(out.target, sys);
        let mut lines: Vec<u64> = out.expected.keys().copied().collect();
        lines.sort_unstable();
        let wrong = catch_unwind(AssertUnwindSafe(|| {
            lines.into_iter().find(|&addr| {
                out.engine
                    .read(addr)
                    .is_ok_and(|got| got != out.expected[&addr])
            })
        }));
        match wrong {
            Ok(None) => Ok(()),
            Ok(Some(addr)) => Err(out.fail(
                format!("read of {addr:#x} returned wrong data as Ok after the scrub"),
                "a line that verifies must hold its acked content",
            )),
            Err(_) => {
                tally.unwinds += 1;
                Err(out.fail(
                    "read after the scrub panicked",
                    "reads must fail closed, never unwind",
                ))
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use steins_metadata::CounterMode;

    #[test]
    fn crash_preserves_persisted_truth_and_drops_cpu_dirty() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let mut sys = SecureNvmSystem::new(cfg);
        // write() flushes, so this line is persisted truth.
        sys.write(0x100 * 64, &[7; 64]).unwrap();
        let crashed = sys.crash();
        assert_eq!(crashed.truth.get(0x100 * 64), Some([7; 64]));
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
    fn at_most_strides_over_first_and_last_and_zero_selects_nothing() {
        let points = vec![10, 20, 30, 40, 50];
        for (n, want) in [
            (0, vec![]),
            (1, vec![10]),
            (2, vec![10, 50]),
            (3, vec![10, 30, 50]),
            (5, points.clone()),
            (9, points.clone()),
        ] {
            assert_eq!(
                PointSelection::AtMost(n).apply(points.clone()),
                want,
                "n = {n}"
            );
        }
    }

    /// Runs `ops` on a bare (unsharded) system: the reference the 1-shard
    /// sweep must reproduce.
    fn run_bare(sys: &mut SecureNvmSystem, ops: &[SweepOp]) {
        for &op in ops {
            match op {
                SweepOp::Write { line, tag } => sys.write(line * 64, &SweepOp::payload(line, tag)),
                SweepOp::Read { line } => sys.read(line * 64).map(|_| ()),
            }
            .expect("trace must run clean");
        }
    }

    /// The fold rests on this: a 1-shard sweep replays the stream through
    /// the router onto exactly the persist events a bare system fires, so
    /// its crash points are the unsharded machine's.
    #[test]
    fn one_shard_sweep_enumerates_a_bare_systems_persist_points() {
        for (scheme, mode) in COMBOS {
            let sweep = CrashSweep::small(scheme, mode, 60, PointSelection::All);
            let mut bare = SecureNvmSystem::new(SystemConfig::small_for_tests(scheme, mode));
            run_bare(&mut bare, &sweep.ops);
            let total = bare.ctrl.nvm.persist_seq();
            assert!(total > 0, "{scheme:?}/{mode:?}: stream persisted nothing");
            assert_eq!(
                sweep.total_points().unwrap(),
                vec![total],
                "{scheme:?}/{mode:?}"
            );
            let jobs = sweep.jobs(Jobs::Masks(&[0xFF], None)).unwrap();
            assert_eq!(jobs.len() as u64, total, "{scheme:?}/{mode:?}");
            assert!(jobs
                .iter()
                .all(|job| matches!(job, CrashJob::Point { p, mask: 0xFF } if p.shard == 0)));
        }
    }

    #[test]
    fn steins_gc_sampled_points_all_recover() {
        let sweep = CrashSweep::small(
            SchemeKind::Steins,
            CounterMode::General,
            40,
            PointSelection::AtMost(24),
        );
        let report = sweep.run(sweep.jobs(Jobs::Masks(&[0xFF], None)), 1);
        assert!(report.tested_points > 0);
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
        let report = sweep.run(sweep.jobs(Jobs::Masks(&[0xFF], None)), 1);
        assert!(report.tested_points > 0);
        assert!(report.clean(), "{report}");
    }

    /// Regression: (ASIT, GC) — the sweep found 67/180 unrecoverable
    /// points from two bugs: the cache-tree register was committed *after*
    /// the shadow push's persist event (register and shadow could tear),
    /// and the shadow leaf legitimately runs one increment ahead of the
    /// data plane between the shadow push and the data push (reconciled
    /// against MacRecords at recovery). Both orderings live in
    /// `scheme/asit.rs` (`asit_mirror`, `recover_asit`).
    #[test]
    fn asit_gc_sampled_points_all_recover() {
        let sweep = CrashSweep::small(
            SchemeKind::Asit,
            CounterMode::General,
            40,
            PointSelection::AtMost(24),
        );
        let report = sweep.run(sweep.jobs(Jobs::Masks(&[0xFF], None)), 1);
        assert!(report.tested_points > 0);
        assert!(report.clean(), "{report}");
    }

    /// Regression: (STAR, GC) — the sweep found 46/136 unrecoverable
    /// points: at a clean→dirty transition the register covered the
    /// post-mutation node while recovery reconstructs the pre-mutation
    /// content, and the set-MAC included the HMAC field, which the flush
    /// path rewrites without any counter changing. Fixed by the pre-image
    /// substitution in `star_set_mac` (refresh deferred to the
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
        let report = sweep.run(sweep.jobs(Jobs::Masks(&[0xFF], None)), 1);
        assert!(report.tested_points > 0);
        assert!(report.clean(), "{report}");
    }

    /// A real bug never passes for a power cut: at any shard count, a
    /// stream op past the data region panics out of the probe — at the
    /// router's range check, or the shard's region check when debug
    /// assertions are off — instead of being reported as a crash point.
    /// Once the message is checked it panics again with a fixed text, so
    /// a caller's `should_panic` is met only by a propagated bug, never by
    /// a failed check here.
    pub(crate) fn probe_past_the_data_region(shards: usize) -> ! {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let line = cfg.data_lines;
        let ops = vec![SweepOp::Write { line, tag: 1 }];
        let sweep = CrashSweep::new(cfg, ops, PointSelection::All).with_shards(shards);
        let p = CrashPoint { shard: 0, k: 1 };
        let probe = catch_unwind(AssertUnwindSafe(|| {
            sweep.probe(CrashJob::Point { p, mask: 0xFF })
        }));
        let payload = probe.expect_err("the bug must panic, not become a verdict");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("out of range") || msg.contains("outside the data region"),
            "{shards} shard(s): unexpected panic {msg:?}"
        );
        panic!("real panic propagated at {shards} shard(s): {msg}");
    }

    /// The 1-shard case; `shard::tests::sharded_probe_point_propagates_real_panics`
    /// runs the same probe at 2 shards.
    #[test]
    #[should_panic(expected = "real panic propagated at 1 shard(s)")]
    fn probe_point_propagates_real_panics() {
        probe_past_the_data_region(1);
    }

    #[test]
    fn wb_sweep_passes_via_recovery_unsupported_contract() {
        let sweep = CrashSweep::small(
            SchemeKind::WriteBack,
            CounterMode::General,
            24,
            PointSelection::AtMost(12),
        );
        let report = sweep.run(sweep.jobs(Jobs::Masks(&[0xFF], None)), 1);
        assert!(report.clean(), "{report}");
    }

    /// The test config with its metadata cache cut to one set of 8 ways
    /// (Table I's associativity): a stream over 1,024 lines evicts dirty
    /// nodes, so node flushes, NV-buffer parks and drains and ASIT slot
    /// retirements all run.
    pub(crate) fn one_set(scheme: SchemeKind, mode: CounterMode) -> SystemConfig {
        let mut cfg = SystemConfig::small_for_tests(scheme, mode);
        cfg.meta_cache.capacity_bytes = 512;
        cfg
    }

    /// `SweepOp::stream(seed, 1024, len)` followed by 70 writes to line 0,
    /// which forces one minor overflow (a re-encryption) in split mode.
    fn evicting_stream(seed: u64, len: usize) -> Vec<SweepOp> {
        let mut ops = SweepOp::stream(seed, 1024, len);
        ops.extend((0..70).map(|tag| SweepOp::Write { line: 0, tag }));
        ops
    }

    /// FNV-1a over each point's (seq, kind, addr), continuing from `h`:
    /// the persist-sequence hash.
    fn fold_points(mut h: u64, points: &[PersistPoint]) -> u64 {
        for p in points {
            for w in [p.seq, p.kind as u64, p.addr] {
                for b in w.to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                }
            }
        }
        h
    }

    /// FNV-1a's offset basis: the hash of no points.
    const FNV_BASIS: u64 = 0xcbf29ce484222325;

    /// Pins the persist order of a stream that evicts: the runtime point
    /// journal, then the points recovery fires after a whole-line crash at
    /// the first, middle and last runtime point and after a `0x0F` tear at
    /// the middle one. Node flushes, NV-buffer parks and drains, ASIT slot
    /// retirements, a Steins-SC re-encryption and every scheme's strict
    /// recovery all feed the hash, so a refactor of the engine, the scheme
    /// hooks or recovery that moves, adds or drops one persist changes it.
    #[test]
    fn evicting_persist_order_is_pinned() {
        // Computed before the scheme hooks moved into `scheme/<name>.rs`.
        let pinned = [
            ("WB-GC", 302, 0x3701e399639f6ea1),
            ("WB-SC", 215, 0x1d3fb8b4658f0d22),
            ("ASIT-GC", 539, 0xc66bdab50d438975),
            ("STAR-GC", 880, 0xe10bb61e7fd0c02d),
            ("Steins-GC", 447, 0xb8080070bb9aab43),
            ("Steins-SC", 265, 0xfda7c171fab18932),
        ];
        let got = COMBOS.map(|(scheme, mode)| {
            let ops = evicting_stream(0x5EED ^ 150, 150);
            let sweep = CrashSweep::new(one_set(scheme, mode), ops, PointSelection::All);
            let runtime = sweep.enumerate().unwrap().remove(0);
            let total = runtime.len() as u64;
            let mut h = fold_points(FNV_BASIS, &runtime);
            for (k, mask) in [
                (1, 0xFF),
                (total / 2, 0xFF),
                (total, 0xFF),
                (total / 2, 0x0F),
            ] {
                let inner = sweep.recovery_points(CrashPoint { shard: 0, k }, mask);
                h = fold_points(h, &inner.ok().expect("outer crash reproduces"));
            }
            (sweep.label(), total, h)
        });
        assert_eq!(got, pinned.map(|(l, n, h)| (l.to_string(), n, h)));
    }

    /// A crash inside a Steins rebuild whose over-full set forced the
    /// evicting fallback. Leaf 0's fallback install flushes its parent,
    /// whose recovered counters already include a value still parked in
    /// the crash-time NV buffer, so the flush moves that delta out of a
    /// live L1Inc that never received it. The `DONE` switch reconciles the
    /// registers; a crash before it (inner points 79–82) leaves them off,
    /// and the second recovery fails with an L1Inc mismatch ("stored 3,
    /// recomputed 4"). A crash on the `DONE` write itself (83) recovers.
    #[test]
    #[ignore = "the rebuild fallback's LInc carry breaks under a nested crash (ROADMAP item 8)"]
    fn steins_rebuild_fallback_survives_a_nested_crash() {
        let ops = SweepOp::stream(0x5EED ^ 150, 1024, 150)[..25].to_vec();
        let cfg = one_set(SchemeKind::Steins, CounterMode::General);
        let sweep = CrashSweep::new(cfg, ops, PointSelection::All);
        for j in 79..=83 {
            let p = CrashPoint { shard: 0, k: 69 };
            let job = CrashJob::Nested {
                p,
                mask: 0xFF,
                j,
                inner: 0xFF,
            };
            if let Some(repro) = sweep.probe(job) {
                panic!("inner point {j}:\n{repro}");
            }
        }
    }

    /// The one selection rule: for each mask, `AtMost(n)` strides over
    /// the points that mask can trip on — every point whole-line, only line
    /// writes torn — from the first to the last, on every shard.
    #[test]
    fn bounded_selection_covers_first_and_last_point() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let ops = SweepOp::stream(7, 64, 40);
        for shards in [1, 2] {
            let sweep = CrashSweep::new(cfg.clone(), ops.clone(), PointSelection::AtMost(8))
                .with_shards(shards);
            let journals = sweep.enumerate().unwrap();
            let jobs = sweep.jobs(Jobs::Masks(&[0xFF, 0x0F], None)).unwrap();
            for mask in [0xFF, 0x0F] {
                for (shard, journal) in journals.iter().enumerate() {
                    let candidates: Vec<u64> = journal
                        .iter()
                        .filter(|q| mask == 0xFF || q.kind == PersistKind::LineWrite)
                        .map(|q| q.seq)
                        .collect();
                    assert!(
                        candidates.len() > 8,
                        "stream too short to exercise striding"
                    );
                    let ks: Vec<u64> = jobs
                        .iter()
                        .filter_map(|job| match *job {
                            CrashJob::Point { p, mask: m } if m == mask && p.shard == shard => {
                                Some(p.k)
                            }
                            _ => None,
                        })
                        .collect();
                    let at = format!("{shards} shard(s), shard {shard}, mask {mask:#04x}");
                    assert_eq!(ks.len(), 8, "{at}");
                    assert_eq!(ks[0], candidates[0], "{at}");
                    assert_eq!(ks.last(), candidates.last(), "{at}");
                    if mask == 0xFF {
                        assert_eq!((ks[0], ks[7]), (1, journal.len() as u64), "{at}");
                    }
                    for k in ks {
                        let q = journal
                            .iter()
                            .find(|q| q.seq == k)
                            .expect("a journaled point");
                        assert!(
                            mask == 0xFF || q.kind == PersistKind::LineWrite,
                            "{at}: a torn mask paired with {q:?}"
                        );
                    }
                }
            }
            // A seeded list keeps the rule too: where a drawn mask cannot
            // tear its point, outer or inner, the job carries `0xFF`.
            let seeded = Jobs::Seeded(0x5EED_FA17, 0..40);
            for job in sweep.jobs(seeded).unwrap() {
                let (p, mask, inner) = match job {
                    CrashJob::Point { p, mask } | CrashJob::Attacked { p, mask, .. } => {
                        (p, mask, None)
                    }
                    CrashJob::Nested { p, mask, j, inner } => (p, mask, Some((j, inner))),
                    CrashJob::WorkerCrash { .. } => unreachable!("never drawn"),
                };
                let q = journals[p.shard][p.k as usize - 1];
                assert!(
                    can_trip(&q, mask),
                    "{shards} shard(s): {mask:#04x} on {q:?}"
                );
                if let Some((j, m1)) = inner {
                    let points = sweep.inner_points(p, mask);
                    let q = points
                        .iter()
                        .find(|q| q.seq == j)
                        .expect("a recovery point");
                    assert!(
                        can_trip(q, m1),
                        "{shards} shard(s): inner {m1:#04x} on {q:?}"
                    );
                }
            }
        }
    }

    /// Torn-write contract, sampled per recoverable scheme: at every
    /// selected line-write boundary, tearing the line (prefix, sparse,
    /// dropped) must leave every *other* acked line recoverable — strictly
    /// or via the scrub — with the torn line failing closed.
    fn torn_sweep(scheme: SchemeKind) {
        let sweep = CrashSweep::small(scheme, CounterMode::General, 25, PointSelection::AtMost(10));
        let report = sweep.run(sweep.jobs(Jobs::Masks(&[0x00, 0x0F, 0x5A], None)), 1);
        assert!(report.tested_points > 0, "no tearable points enumerated");
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

    /// Nested contract, sampled per scheme: crash at an outer point, crash
    /// *again* during recovery, and require the second recovery (or scrub)
    /// to converge — the recovery state machine is restartable.
    fn nested_sweep(scheme: SchemeKind) {
        let sweep = CrashSweep::small(scheme, CounterMode::General, 18, PointSelection::AtMost(5));
        let masks = [0xFF, 0x0F];
        let jobs = sweep.jobs(Jobs::Masks(
            &masks,
            Some((&masks, PointSelection::AtMost(4))),
        ));
        let report = sweep.run(jobs, 1);
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

    /// The fault campaign's sweep of `COMBOS[combo]`: its `ops`-op stream,
    /// every point selectable.
    fn campaign_sweep(seed: u64, combo: usize, ops: usize) -> CrashSweep {
        let (scheme, mode) = COMBOS[combo];
        let ops = SweepOp::stream(seed ^ ((combo as u64) << 17), SWEEP_LINES, ops);
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        CrashSweep::new(cfg, ops, PointSelection::All)
    }

    /// Lists the seeded campaign's iterations `0..n` on `sweep` and runs
    /// them on one thread.
    fn seeded_run(sweep: &CrashSweep, seed: u64, n: usize) -> (Vec<CrashJob>, SweepReport) {
        let jobs = sweep.jobs(Jobs::Seeded(seed, 0..n)).unwrap();
        (jobs.clone(), sweep.run(Ok(jobs), 1))
    }

    #[test]
    fn seeded_campaign_is_deterministic_for_a_fixed_seed() {
        let sweep = campaign_sweep(0xABCD, 4, 18);
        let (jobs_a, a) = seeded_run(&sweep, 0xABCD, 4);
        let (jobs_b, b) = seeded_run(&sweep, 0xABCD, 4);
        assert_eq!(jobs_a, jobs_b);
        assert_eq!(a.clean(), b.clean());
        assert_eq!(a.attacked, b.attacked);
        let text = |r: &SweepReport| r.failures.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert_eq!(text(&a), text(&b));
        assert_eq!(
            campaign_metrics(&jobs_a, &a)
                .to_json_deterministic()
                .pretty(),
            campaign_metrics(&jobs_b, &b)
                .to_json_deterministic()
                .pretty()
        );
    }

    #[test]
    fn seeded_campaign_passes_on_steins_and_asit() {
        for combo in [2, 4] {
            let (_, r) = seeded_run(&campaign_sweep(0xFA17, combo, 20), 0xFA17, 6);
            assert!(r.clean(), "campaign failed:\n{r}");
            assert_eq!(r.tested_points, 6);
            assert_eq!(r.attacked.unwinds, 0);
        }
    }

    #[test]
    fn campaign_metrics_export_round_trips() {
        let (jobs, r) = seeded_run(&campaign_sweep(1, 0, 12), 1, 2);
        let m = campaign_metrics(&jobs, &r);
        let counter = |key: &str| m.counter(&format!("core.campaign.{key}")).unwrap();
        assert_eq!(
            counter("points.crash") + counter("points.nested") + counter("points.attack"),
            r.tested_points
        );
        assert_eq!(counter("failures"), r.failures.len() as u64);
        assert_eq!(
            m.hist("core.campaign.point").map(|h| h.count()),
            Some(r.tested_points)
        );
    }

    /// Iteration `i` is a nested job when `i % 4 == 2`, a crash-only job
    /// on other even `i` and an attacked one (1–3 attacks) on odd `i`.
    #[test]
    fn seeded_jobs_include_the_nested_axis_and_pass() {
        for combo in [2, 3] {
            let (jobs, r) = seeded_run(&campaign_sweep(0x2E57ED, combo, 16), 0x2E57ED, 4);
            for (i, job) in jobs.iter().enumerate() {
                match job {
                    CrashJob::Nested { .. } => assert_eq!(i, 2),
                    CrashJob::Point { .. } => assert_eq!(i, 0),
                    CrashJob::Attacked { attacks, .. } => {
                        assert_eq!(i % 2, 1);
                        assert!((1..=3).contains(&attacks.len()), "{attacks:?}");
                    }
                    CrashJob::WorkerCrash { .. } => panic!("never drawn"),
                }
            }
            assert!(r.clean(), "campaign failed:\n{r}");
        }
    }

    /// Clause 14 on a known target: line 3's acked content is tampered in
    /// storage after a crash at the stream's last point. On every combo
    /// the scrub must flag it unrecoverable (and reads of it must not
    /// come back wrong as `Ok`), and WB's refused strict recovery counts
    /// as a detection.
    #[test]
    fn a_tampered_acked_line_is_flagged_unrecoverable() {
        for (scheme, mode) in COMBOS {
            let ops = vec![
                SweepOp::Write { line: 3, tag: 7 },
                SweepOp::Write { line: 9, tag: 1 },
            ];
            let cfg = SystemConfig::small_for_tests(scheme, mode);
            let sweep = CrashSweep::new(cfg, ops, PointSelection::All);
            let k = sweep.total_points().unwrap()[0];
            let job = CrashJob::Attacked {
                p: CrashPoint { shard: 0, k },
                mask: 0xFF,
                attacks: vec![Attack::TamperData {
                    line: 3,
                    byte: 5,
                    mask: 0x10,
                }],
            };
            let report = sweep.run(Ok(vec![job]), 1);
            assert!(report.clean(), "{report}");
            let t = report.attacked;
            assert!(t.data_unrecoverable >= 1, "{scheme:?}/{mode:?}: {t:?}");
            if !scheme.supports_recovery() {
                assert_eq!(t.detected, 1, "WB's refusal is a detection");
            }
        }
    }

    /// `fault_campaign --repro` lists one iteration alone: it must draw
    /// the very job the whole list drew.
    #[test]
    fn repro_replays_a_single_iteration_identically() {
        let sweep = campaign_sweep(0xFA17, 4, 20);
        let all = sweep.jobs(Jobs::Seeded(0xFA17, 0..6)).unwrap();
        for (i, job) in all.iter().enumerate() {
            let one = sweep.jobs(Jobs::Seeded(0xFA17, i..i + 1));
            assert_eq!(one.unwrap(), std::slice::from_ref(job), "iteration {i}");
        }
        assert!(matches!(all[2], CrashJob::Nested { .. }));
        assert!(sweep.probe(all[2].clone()).is_none());
    }

    #[test]
    fn interrupted_recovery_reports_restart_metrics() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let sweep = CrashSweep::new(cfg, SweepOp::stream(0xD0C5, 64, 20), PointSelection::All);
        let total = sweep.total_points().unwrap()[0];
        let p = CrashPoint {
            shard: 0,
            k: total / 2,
        };
        let inner = sweep.recovery_points(p, 0xFF).ok().unwrap();
        assert!(!inner.is_empty(), "recovery fires no persist points");
        // Trip on recovery's very first durable write (the phase journal
        // update), then recover the doubly-crashed machine.
        let j = inner[0].seq;
        let (run, _out) = sweep
            .crash_nested(p, 0xFF, Some((j, 0xFF)))
            .ok()
            .unwrap()
            .unwrap();
        let NestedRun::Crashed(crashed2) = run else {
            panic!("inner point must trip mid-recovery");
        };
        assert!(
            journal::in_progress(crashed2.nvm.recovery_journal().phase),
            "interrupted recovery must leave an in-progress journal phase"
        );
        let (_sys, report) = crashed2.recover().unwrap();
        assert!(
            restarts(&report) >= 1,
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
            job: None,
            shard: None,
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
        assert_eq!(
            s,
            "Steins-GC: crash point 17 (op 0 of 1) failed\n  \
             tripped at AdrUpdate of addr 0x40\n  \
             error: LInc registers inconsistent after recovery\n  \
             divergence: lincs stored [1] != recomputed [2]\n  \
             ops: [Write { line: 3, tag: 9 }]",
            "the 1-shard text names no shard, and a probed job no index"
        );
        let sharded = CrashRepro {
            label: "Steins-GC x2".into(),
            job: Some(4),
            shard: Some(1),
            ..repro
        }
        .to_string();
        assert!(
            sharded.starts_with("Steins-GC x2: job 4, shard 1 crash point 17 (op 0 of 1)"),
            "{sharded}"
        );
    }
}
