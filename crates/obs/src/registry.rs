//! Typed metric registry keyed by dot-separated component paths.
//!
//! Naming convention: `<crate>.<component>.<metric>` — e.g.
//! `nvm.write_queue.occupancy`, `core.engine.mac_calls`,
//! `meta.cache.hits`. Registries hold modeled quantities only (wall clock
//! is printed, never recorded), so [`MetricRegistry::to_json_deterministic`]
//! keeps `results/METRICS_*.json` byte-identical under a fixed seed.

use crate::hist::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;

/// One metric: a monotonic counter, a point-in-time gauge, or a
/// latency/size distribution.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// Monotonically increasing event count.
    Counter(u64),
    /// Last-written scalar observation.
    Gauge(f64),
    /// Log-bucketed sample distribution.
    Hist(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Hist(_) => "histogram",
        }
    }
}

/// A store of [`Metric`]s with stable (sorted) path order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter at `path`, creating it at zero first.
    ///
    /// Panics if `path` already holds a gauge or histogram — a path is one
    /// type for the life of the registry.
    pub fn counter_add(&mut self, path: &str, n: u64) {
        match self
            .metrics
            .entry(path.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += n,
            other => panic!("metric {path} is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge at `path`.
    ///
    /// Panics if `path` already holds a counter or histogram.
    pub fn gauge_set(&mut self, path: &str, v: f64) {
        match self
            .metrics
            .entry(path.to_string())
            .or_insert(Metric::Gauge(0.0))
        {
            Metric::Gauge(g) => *g = v,
            other => panic!("metric {path} is a {}, not a gauge", other.kind()),
        }
    }

    /// Records `v` into the histogram at `path`, creating it if absent.
    ///
    /// Panics if `path` already holds a counter or gauge.
    pub fn record(&mut self, path: &str, v: u64) {
        self.record_n(path, v, 1);
    }

    /// Records `n` identical samples into the histogram at `path`.
    pub fn record_n(&mut self, path: &str, v: u64, n: u64) {
        match self
            .metrics
            .entry(path.to_string())
            .or_insert_with(|| Metric::Hist(Histogram::new()))
        {
            Metric::Hist(h) => h.record_n(v, n),
            other => panic!("metric {path} is a {}, not a histogram", other.kind()),
        }
    }

    /// Inserts a pre-built histogram at `path` (merging into any existing
    /// histogram there).
    pub fn insert_hist(&mut self, path: &str, hist: &Histogram) {
        match self
            .metrics
            .entry(path.to_string())
            .or_insert_with(|| Metric::Hist(Histogram::new()))
        {
            Metric::Hist(h) => h.merge(hist),
            other => panic!("metric {path} is a {}, not a histogram", other.kind()),
        }
    }

    /// The counter value at `path`, if present and a counter.
    pub fn counter(&self, path: &str) -> Option<u64> {
        match self.metrics.get(path) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// The gauge value at `path`, if present and a gauge.
    pub fn gauge(&self, path: &str) -> Option<f64> {
        match self.metrics.get(path) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The histogram at `path`, if present and a histogram.
    pub fn hist(&self, path: &str) -> Option<&Histogram> {
        match self.metrics.get(path) {
            Some(Metric::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// All `(path, metric)` pairs in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms merge, gauges
    /// take `other`'s value. Panics on a type mismatch at the same path.
    pub fn merge(&mut self, other: &MetricRegistry) {
        for (path, metric) in &other.metrics {
            match metric {
                Metric::Counter(n) => self.counter_add(path, *n),
                Metric::Gauge(g) => self.gauge_set(path, *g),
                Metric::Hist(h) => self.insert_hist(path, h),
            }
        }
    }

    /// Re-keys every metric under `prefix.` (used to fold per-workload
    /// registries into a run-level one: `ycsb_a.nvm.reads`, …).
    pub fn prefixed(&self, prefix: &str) -> MetricRegistry {
        MetricRegistry {
            metrics: self
                .metrics
                .iter()
                .map(|(k, v)| (format!("{prefix}.{k}"), v.clone()))
                .collect(),
        }
    }

    /// Folds one shard's registry into this run-level one, twice over:
    /// verbatim under `prefix.` (the per-shard view — per-shard queue
    /// occupancy/stall histograms live here) and merged into the unprefixed
    /// aggregate paths (counters add, histograms merge bucket-wise, gauges
    /// take the last shard's value). Histogram merging is associative and
    /// commutative, so folding N shards in any grouping or order yields the
    /// same aggregate — the property the sharded engine's deterministic
    /// exports rely on when worker threads finish in arbitrary order.
    pub fn fold_shard(&mut self, prefix: &str, shard: &MetricRegistry) {
        self.merge(&shard.prefixed(prefix));
        self.merge(shard);
    }

    /// JSON export in sorted path order — byte-identical across runs with
    /// the same seed and op budget.
    pub fn to_json_deterministic(&self) -> Json {
        let mut out = BTreeMap::new();
        for (path, metric) in &self.metrics {
            let value = match metric {
                Metric::Counter(c) => Json::obj([
                    ("type".to_string(), Json::Str("counter".into())),
                    ("value".to_string(), Json::Num(*c as f64)),
                ]),
                Metric::Gauge(g) => Json::obj([
                    ("type".to_string(), Json::Str("gauge".into())),
                    ("value".to_string(), Json::Num(*g)),
                ]),
                Metric::Hist(h) => hist_summary(h),
            };
            out.insert(path.clone(), value);
        }
        Json::Obj(out)
    }
}

/// JSON summary of a histogram: count/sum/min/max/mean plus the standard
/// percentile ladder.
pub fn hist_summary(h: &Histogram) -> Json {
    Json::obj([
        ("type".to_string(), Json::Str("histogram".into())),
        ("count".to_string(), Json::Num(h.count() as f64)),
        ("sum".to_string(), Json::Num(h.sum() as f64)),
        ("min".to_string(), Json::Num(h.min() as f64)),
        ("max".to_string(), Json::Num(h.max() as f64)),
        ("mean".to_string(), Json::Num(h.mean())),
        ("p50".to_string(), Json::Num(h.p50() as f64)),
        ("p90".to_string(), Json::Num(h.p90() as f64)),
        ("p99".to_string(), Json::Num(h.p99() as f64)),
        ("p999".to_string(), Json::Num(h.p999() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricRegistry::new();
        r.counter_add("nvm.reads", 3);
        r.counter_add("nvm.reads", 4);
        r.gauge_set("core.energy_pj", 1.5);
        r.gauge_set("core.energy_pj", 2.5);
        assert_eq!(r.counter("nvm.reads"), Some(7));
        assert_eq!(r.gauge("core.energy_pj"), Some(2.5));
        assert_eq!(r.counter("core.energy_pj"), None, "type-checked access");
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn type_mismatch_panics() {
        let mut r = MetricRegistry::new();
        r.counter_add("x", 1);
        r.gauge_set("x", 1.0);
    }

    #[test]
    fn merge_adds_counters_and_merges_hists() {
        let mut a = MetricRegistry::new();
        let mut b = MetricRegistry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        a.record("h", 10);
        b.record("h", 30);
        b.gauge_set("g", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.hist("h").unwrap().count(), 2);
        assert_eq!(a.hist("h").unwrap().max(), 30);
        assert_eq!(a.gauge("g"), Some(9.0));
    }

    #[test]
    fn fold_shard_keeps_per_shard_view_and_merges_aggregate() {
        let mut run = MetricRegistry::new();
        let mut s0 = MetricRegistry::new();
        let mut s1 = MetricRegistry::new();
        s0.counter_add("nvm.writes", 10);
        s1.counter_add("nvm.writes", 32);
        s0.record("nvm.write_queue.occupancy", 4);
        s1.record("nvm.write_queue.occupancy", 60);
        run.fold_shard("shard.00", &s0);
        run.fold_shard("shard.01", &s1);
        // Per-shard views survive verbatim.
        assert_eq!(run.counter("shard.00.nvm.writes"), Some(10));
        assert_eq!(run.counter("shard.01.nvm.writes"), Some(32));
        assert_eq!(
            run.hist("shard.01.nvm.write_queue.occupancy")
                .unwrap()
                .max(),
            60
        );
        // Aggregate paths merge, not overwrite: both shards' histogram
        // samples are present.
        assert_eq!(run.counter("nvm.writes"), Some(42));
        let agg = run.hist("nvm.write_queue.occupancy").unwrap();
        assert_eq!(agg.count(), 2);
        assert_eq!(agg.min(), 4);
        assert_eq!(agg.max(), 60);
    }

    /// N-way merge associativity: folding the same shard registries in any
    /// grouping produces byte-identical deterministic JSON — histograms
    /// included (bucket-wise merge is associative; a last-write-wins
    /// implementation would fail this on the histogram percentiles).
    #[test]
    fn n_way_merge_is_associative() {
        let shard = |seed: u64| {
            let mut r = MetricRegistry::new();
            r.counter_add("ops", seed);
            for i in 0..50 {
                r.record("lat", seed * 97 + i * i);
            }
            r
        };
        let regs: Vec<MetricRegistry> = (1..=4).map(shard).collect();

        // Left fold: ((a ⊔ b) ⊔ c) ⊔ d.
        let mut left = MetricRegistry::new();
        for r in &regs {
            left.merge(r);
        }
        // Tree fold: (a ⊔ b) ⊔ (c ⊔ d).
        let mut ab = regs[0].clone();
        ab.merge(&regs[1]);
        let mut cd = regs[2].clone();
        cd.merge(&regs[3]);
        let mut tree = MetricRegistry::new();
        tree.merge(&ab);
        tree.merge(&cd);
        // Reversed fold: d ⊔ c ⊔ b ⊔ a.
        let mut rev = MetricRegistry::new();
        for r in regs.iter().rev() {
            rev.merge(r);
        }

        let want = left.to_json_deterministic().pretty();
        assert_eq!(tree.to_json_deterministic().pretty(), want);
        assert_eq!(rev.to_json_deterministic().pretty(), want);
        assert_eq!(left.counter("ops"), Some(10));
        assert_eq!(left.hist("lat").unwrap().count(), 200);
    }

    #[test]
    fn prefixed_rekeys_everything() {
        let mut r = MetricRegistry::new();
        r.counter_add("nvm.reads", 5);
        let p = r.prefixed("ycsb_a");
        assert_eq!(p.counter("ycsb_a.nvm.reads"), Some(5));
        assert_eq!(p.counter("nvm.reads"), None);
    }

    #[test]
    fn hist_summary_has_percentile_ladder() {
        let mut r = MetricRegistry::new();
        for v in 1..=100 {
            r.record("lat", v);
        }
        let j = r.to_json_deterministic();
        let h = j.get("lat").unwrap();
        assert_eq!(h.get("type").unwrap().as_str(), Some("histogram"));
        assert_eq!(h.get("p50").unwrap().as_f64(), Some(50.0));
        assert_eq!(h.get("p99").unwrap().as_f64(), Some(99.0));
        assert_eq!(h.get("count").unwrap().as_f64(), Some(100.0));
    }
}
