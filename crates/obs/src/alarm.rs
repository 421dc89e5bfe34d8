//! Typed attack-detection alarm channel.
//!
//! The online integrity service (core::online) detects conditions —
//! MAC mismatches, replayed records, unreadable regions, torn writes,
//! exhausted read retries, degraded shards — that an operator must see as
//! *events*, not as counters smeared into a histogram. [`AlarmLog`] is the
//! channel: an append-only log of typed [`Alarm`] events with a canonical
//! ordering, a deterministic JSON export (the CI alarm-shape gate diffs
//! it byte-for-byte), and a metric projection under `obs.alarms.*`.
//!
//! Determinism contract: alarms carry *modeled* cycles, never wall time.
//! Per-shard logs are appended in shard order and [`AlarmLog::canonical`]
//! sorts by `(shard, cycle, addr, kind)`, so the export is independent of
//! host thread count and scheduling.

use crate::json::Json;
use crate::registry::MetricRegistry;

/// What tripped. Ordered so the canonical sort is total.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlarmKind {
    /// A data line's stored MAC record no longer verifies: tampering,
    /// media corruption, or a torn data write.
    MacMismatch,
    /// A MAC record or counter verified against *stale* state — the
    /// signature of a rollback/replay of persisted bytes.
    Replay,
    /// A region of NVM returns device-level read failures (permanently
    /// unreadable, or transient failures that outlived the retry budget).
    UnreadableRegion,
    /// A torn (partially persisted) line was detected.
    TornWrite,
    /// The bounded exponential-backoff re-read schedule exhausted its
    /// budget; the transient fault was promoted to a permanent one.
    RetryExhausted,
    /// A whole shard was parked `Degraded` (a power cut mid-operation, an
    /// explicit park, or an unrecoverable scrub verdict); its reads/writes
    /// fail typed.
    ShardDegraded,
    /// A background repair of a degraded shard began (the shard entered
    /// `Rebuilding`; neighbors keep serving).
    ShardRepairStarted,
    /// A repaired shard was re-verified and atomically re-admitted to
    /// serving (`Rebuilding → Serving`).
    ShardRestored,
    /// A quarantined line was released — by an operator override, a
    /// supervised heal-write round-trip, or a post-repair replay that
    /// verified the line clean against the rebuilt tree. Quarantine
    /// mutations are auditable events, never silent.
    QuarantineCleared,
}

impl AlarmKind {
    /// Every kind, in canonical order (the metric/export enumeration).
    pub const ALL: [AlarmKind; 9] = [
        AlarmKind::MacMismatch,
        AlarmKind::Replay,
        AlarmKind::UnreadableRegion,
        AlarmKind::TornWrite,
        AlarmKind::RetryExhausted,
        AlarmKind::ShardDegraded,
        AlarmKind::ShardRepairStarted,
        AlarmKind::ShardRestored,
        AlarmKind::QuarantineCleared,
    ];

    /// Stable snake_case label used in metric paths and JSON export.
    pub fn label(self) -> &'static str {
        match self {
            AlarmKind::MacMismatch => "mac_mismatch",
            AlarmKind::Replay => "replay",
            AlarmKind::UnreadableRegion => "unreadable_region",
            AlarmKind::TornWrite => "torn_write",
            AlarmKind::RetryExhausted => "retry_exhausted",
            AlarmKind::ShardDegraded => "shard_degraded",
            AlarmKind::ShardRepairStarted => "shard_repair_started",
            AlarmKind::ShardRestored => "shard_restored",
            AlarmKind::QuarantineCleared => "quarantine_cleared",
        }
    }
}

impl std::fmt::Display for AlarmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One typed alarm event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Alarm {
    /// What tripped.
    pub kind: AlarmKind,
    /// Which shard raised it (0 for unsharded systems).
    pub shard: u16,
    /// The affected line address, when the alarm is region-scoped
    /// (`None` for shard-scoped alarms such as [`AlarmKind::ShardDegraded`]).
    pub addr: Option<u64>,
    /// Modeled cycle at which the condition was detected (never wall time).
    pub cycle: u64,
}

impl Alarm {
    fn sort_key(&self) -> (u16, u64, u64, AlarmKind) {
        (
            self.shard,
            self.cycle,
            self.addr.map_or(u64::MAX, |a| a),
            self.kind,
        )
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("kind".to_string(), Json::Str(self.kind.label().to_string())),
            ("shard".to_string(), Json::Num(self.shard as f64)),
            (
                "addr".to_string(),
                match self.addr {
                    Some(a) => Json::Num(a as f64),
                    None => Json::Null,
                },
            ),
            ("cycle".to_string(), Json::Num(self.cycle as f64)),
        ])
    }
}

impl std::fmt::Display for Alarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.addr {
            Some(a) => write!(
                f,
                "[{}] shard {} addr {:#x} @ cycle {}",
                self.kind, self.shard, a, self.cycle
            ),
            None => write!(
                f,
                "[{}] shard {} @ cycle {}",
                self.kind, self.shard, self.cycle
            ),
        }
    }
}

/// Default ring capacity of an [`AlarmLog`]: far above what any gated run
/// raises, but a hard ceiling a week-long soak cannot grow past.
pub const ALARM_LOG_CAPACITY: usize = 65_536;

/// Bounded ring of typed alarms: the obs alarm channel.
///
/// Producers [`raise`](Self::raise) into a per-shard log; the engine
/// [`merge`](Self::merge)s shard logs in shard order and exports through
/// [`canonical`](Self::canonical) + [`to_json`](Self::to_json), which is
/// byte-stable for a fixed seed regardless of host parallelism.
///
/// The log is a ring: once `capacity` events are held, each new event
/// evicts the oldest and bumps the [`dropped`](Self::dropped) counter
/// (exported as `obs.alarms.dropped`), so a chaos soak cannot grow the log
/// without limit. Eviction order is arrival order — deterministic for a
/// fixed per-shard event stream.
#[derive(Clone, Debug, PartialEq)]
pub struct AlarmLog {
    events: Vec<Alarm>,
    capacity: usize,
    dropped: u64,
}

impl Default for AlarmLog {
    fn default() -> AlarmLog {
        AlarmLog::with_capacity(ALARM_LOG_CAPACITY)
    }
}

impl AlarmLog {
    /// An empty log with the default ring capacity.
    pub fn new() -> AlarmLog {
        AlarmLog::default()
    }

    /// An empty log bounded at `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> AlarmLog {
        AlarmLog {
            events: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends one alarm event, evicting the oldest when the ring is full.
    pub fn raise(&mut self, alarm: Alarm) {
        if self.events.len() >= self.capacity {
            self.events.remove(0);
            self.dropped += 1;
        }
        self.events.push(alarm);
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The raw events in arrival order.
    pub fn events(&self) -> &[Alarm] {
        &self.events
    }

    /// Number of events raised.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been raised.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events of `kind` have been raised.
    pub fn count(&self, kind: AlarmKind) -> u64 {
        self.events.iter().filter(|a| a.kind == kind).count() as u64
    }

    /// Appends another log's events (callers merge shard logs in shard
    /// order so the result is deterministic). The receiver's ring bound
    /// applies; the other log's drop count carries over.
    pub fn merge(&mut self, other: &AlarmLog) {
        for &a in &other.events {
            self.raise(a);
        }
        self.dropped += other.dropped;
    }

    /// Drains all events, leaving the log empty.
    pub fn drain(&mut self) -> Vec<Alarm> {
        std::mem::take(&mut self.events)
    }

    /// The events in canonical `(shard, cycle, addr, kind)` order — the
    /// order every export uses. Stable for equal keys, so duplicate alarms
    /// survive with multiplicity.
    pub fn canonical(&self) -> Vec<Alarm> {
        let mut v = self.events.clone();
        v.sort_by_key(|a| a.sort_key());
        v
    }

    /// Projects the log onto counters: `obs.alarms.total` plus one
    /// `obs.alarms.<label>` counter per kind that fired, and
    /// `obs.alarms.dropped` when the ring evicted anything.
    pub fn metrics(&self) -> MetricRegistry {
        let mut m = MetricRegistry::new();
        m.counter_add("obs.alarms.total", self.events.len() as u64);
        for kind in AlarmKind::ALL {
            let n = self.count(kind);
            if n > 0 {
                m.counter_add(&format!("obs.alarms.{}", kind.label()), n);
            }
        }
        if self.dropped > 0 {
            m.counter_add("obs.alarms.dropped", self.dropped);
        }
        m
    }

    /// Canonically ordered JSON array — the byte-stable export the CI
    /// alarm-shape gate compares.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.canonical().into_iter().map(Alarm::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alarm(kind: AlarmKind, shard: u16, addr: Option<u64>, cycle: u64) -> Alarm {
        Alarm {
            kind,
            shard,
            addr,
            cycle,
        }
    }

    #[test]
    fn canonical_order_is_arrival_independent() {
        let a = alarm(AlarmKind::MacMismatch, 1, Some(0x40), 10);
        let b = alarm(AlarmKind::ShardDegraded, 0, None, 99);
        let c = alarm(AlarmKind::Replay, 1, Some(0x40), 5);
        let mut fwd = AlarmLog::new();
        for e in [a, b, c] {
            fwd.raise(e);
        }
        let mut rev = AlarmLog::new();
        for e in [c, b, a] {
            rev.raise(e);
        }
        assert_eq!(fwd.canonical(), rev.canonical());
        assert_eq!(fwd.to_json().pretty(), rev.to_json().pretty());
        // Shard-major, then cycle.
        assert_eq!(fwd.canonical()[0].kind, AlarmKind::ShardDegraded);
        assert_eq!(fwd.canonical()[1].kind, AlarmKind::Replay);
    }

    #[test]
    fn merge_counts_and_metrics() {
        let mut s0 = AlarmLog::new();
        s0.raise(alarm(AlarmKind::UnreadableRegion, 0, Some(64), 3));
        s0.raise(alarm(AlarmKind::UnreadableRegion, 0, Some(128), 4));
        let mut s1 = AlarmLog::new();
        s1.raise(alarm(AlarmKind::RetryExhausted, 1, Some(256), 9));
        let mut all = AlarmLog::new();
        all.merge(&s0);
        all.merge(&s1);
        assert_eq!(all.len(), 3);
        assert_eq!(all.count(AlarmKind::UnreadableRegion), 2);
        let m = all.metrics();
        assert_eq!(m.counter("obs.alarms.total"), Some(3));
        assert_eq!(m.counter("obs.alarms.unreadable_region"), Some(2));
        assert_eq!(m.counter("obs.alarms.retry_exhausted"), Some(1));
        assert_eq!(
            m.counter("obs.alarms.mac_mismatch"),
            None,
            "silent kinds omitted"
        );
    }

    #[test]
    fn json_shape_is_stable() {
        let mut log = AlarmLog::new();
        log.raise(alarm(AlarmKind::MacMismatch, 2, Some(0xC0), 17));
        log.raise(alarm(AlarmKind::ShardDegraded, 1, None, 8));
        let json = log.to_json().pretty();
        assert!(json.contains("\"mac_mismatch\""), "{json}");
        assert!(json.contains("\"shard_degraded\""), "{json}");
        assert!(json.contains("\"addr\": null"), "{json}");
        let reparsed = crate::json::parse(json.trim_end()).unwrap();
        assert_eq!(reparsed.as_arr().unwrap().len(), 2);
    }

    #[test]
    fn drain_empties_the_log() {
        let mut log = AlarmLog::new();
        log.raise(alarm(AlarmKind::TornWrite, 0, Some(0), 1));
        let drained = log.drain();
        assert_eq!(drained.len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn ring_bound_evicts_oldest_and_counts_drops() {
        let mut log = AlarmLog::with_capacity(3);
        for cycle in 0..5u64 {
            log.raise(alarm(AlarmKind::MacMismatch, 0, Some(cycle * 64), cycle));
        }
        assert_eq!(log.len(), 3, "ring must hold at most its capacity");
        assert_eq!(log.dropped(), 2);
        // The survivors are the newest three, in arrival order.
        let cycles: Vec<u64> = log.events().iter().map(|a| a.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        let m = log.metrics();
        assert_eq!(m.counter("obs.alarms.dropped"), Some(2));
        assert_eq!(m.counter("obs.alarms.total"), Some(3));
    }

    #[test]
    fn merge_respects_the_receiver_bound() {
        let mut big = AlarmLog::new();
        for i in 0..4u64 {
            big.raise(alarm(AlarmKind::Replay, 1, None, i));
        }
        let mut small = AlarmLog::with_capacity(2);
        small.merge(&big);
        assert_eq!(small.len(), 2);
        assert_eq!(small.dropped(), 2);
    }

    #[test]
    fn repair_lifecycle_kinds_have_stable_labels() {
        assert_eq!(
            AlarmKind::ShardRepairStarted.label(),
            "shard_repair_started"
        );
        assert_eq!(AlarmKind::ShardRestored.label(), "shard_restored");
        assert_eq!(AlarmKind::QuarantineCleared.label(), "quarantine_cleared");
        assert_eq!(AlarmKind::ALL.len(), 9);
    }
}
