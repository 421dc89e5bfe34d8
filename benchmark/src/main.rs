//! The repository benchmark: end-to-end and per-layer metrics of the
//! Steins reproduction on five workloads.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --check-bounds <set-a> <set-b>
//! ```
//!
//! `--trace 0` runs sessions of one workload (see `session.rs`) until
//! `--seconds` have passed, at least three, and prints the end-to-end
//! metrics, each the median over the sessions. Modeled metrics agree
//! between the sessions of a seed. `setup_s` is a session's set-up time in
//! steps of that session's canary (`canary.rs`), rescaled to the canary's
//! nominal speed. The host timings of serving and recovery are printed
//! beside them, in canary steps and in wall time, but not gated.
//! `--trace 1` runs traced sessions (see `traced.rs`) and prints the
//! per-layer metrics instead.
//! Every metric is printed by name with its unit; the last line of standard
//! output is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is 0 only when every check passed (what a
//! session checks is listed in `session.rs`) and every guard held.
//!
//! It reads `BENCHMARK.json` and the committed `results/BENCH_recovery.json`
//! from the repository it was built in, and writes spans under `target/`
//! there. README.md beside this file holds the metric dictionary;
//! `BENCHMARK.json` holds the bounds.

mod bounds;
mod canary;
mod session;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::time::Instant;

use canary::{Canary, NOMINAL_STEP_S};
use session::{secs, session, Rep, Spec, WORKLOADS};
use stats::{median, percentile_ns, quartiles};
use traced::{traced_session, SpanLog, Traced};

/// End-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_op", "cycles"),
    ("nvm_write_bytes_per_op", "B"),
    ("energy_pj_per_op", "pJ"),
    ("recovery_makespan_reads", "reads"),
];

/// Host timings `(name, unit)` that every end-to-end run prints but does
/// not gate: on a shared host their medians move by half from one hour to
/// the next (README.md).
const HOST_TIMINGS: [(&str, &str); 10] = [
    ("serve_ref_per_op", "ref"),
    ("op_p50_ref", "ref"),
    ("op_p99_ref", "ref"),
    ("recovery_ref", "ref"),
    ("setup_wall_s", "s"),
    ("serve_ns_per_op", "ns"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("recovery_wall_ms", "ms"),
    ("step_ns", "ns"),
];

/// Per-layer metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("trace.gen_ns_per_op", "ns"),
    ("cache.host_ns_per_op", "ns"),
    ("cache.l3.miss_rate", "ratio"),
    ("core.cpu.read_stall_share", "ratio"),
    ("core.cpu.write_stall_share", "ratio"),
    ("core.engine.write_host_ns", "ns"),
    ("core.engine.read_host_ns", "ns"),
    ("core.engine.self_ns_per_op", "ns"),
    ("core.system.self_ns_per_op", "ns"),
    ("core.engine.mac_calls_per_op", "count"),
    ("core.write.lat_p50_cycles", "cycles"),
    ("core.write.lat_p999_cycles", "cycles"),
    ("core.read.lat_p50_cycles", "cycles"),
    ("core.read.lat_p999_cycles", "cycles"),
    ("crypto.host_ns_per_op", "ns"),
    ("crypto.host_share", "ratio"),
    ("crypto.calls_per_op", "count"),
    ("metadata.hit_rate", "ratio"),
    ("metadata.misses_per_op", "count"),
    ("nvm.reads_per_op", "count"),
    ("nvm.writes_per_op", "count"),
    ("nvm.row_hit_rate", "ratio"),
    ("nvm.device.contention_cycles_per_op", "cycles"),
    ("nvm.write_queue.stall_cycles_per_op", "cycles"),
    ("nvm.write_queue.occupancy_p99", "entries"),
    ("nvm.adr.persists_per_op", "count"),
    ("core.shard.lock_wait_share", "ratio"),
    ("core.shard.thread_scaling", "ratio"),
    ("core.shard.load_imbalance", "ratio"),
    ("core.recovery.reads", "count"),
    ("core.recovery.host_ns_per_read", "ns"),
    ("core.par.wall_speedup", "ratio"),
    ("core.par.modeled_speedup", "ratio"),
    ("bench.accounted_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Fewest end-to-end sessions in a run.
const MIN_SESSIONS: usize = 3;
/// Fewest traced iterations in a traced run.
const MIN_TRACED: usize = 2;

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     benchmark --check-bounds <set-a> <set-b>";

struct Args {
    spec: Spec,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    let spec = Spec::named(&workload)
        .ok_or_else(|| format!("unknown workload {workload} (one of {WORKLOADS:?})"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        spec,
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--check-bounds") {
        std::process::exit(bounds::main(&argv[1..]));
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let out = if args.trace {
        per_layer(args.spec, &args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.spec, args.seed, args.seconds)
    };
    for line in &out.lines {
        println!("{line}");
    }
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", out.json_line());
    std::process::exit(if out.correct() { 0 } else { 1 });
}

/// One run's metrics and failure accounting.
#[derive(Default)]
struct Outcome {
    /// `(name, unit, value)` in table order.
    values: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable report lines.
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn tally(&mut self, rep: &Rep) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
        self.problems.extend(rep.problems.iter().cloned());
    }

    /// Records a metric measured once per session as `value`; the report
    /// line adds the sessions' quartiles.
    fn put(
        &mut self,
        table: &[(&'static str, &'static str)],
        name: &str,
        clock: &str,
        value: f64,
        samples: &[f64],
    ) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"));
        self.report(name, unit, clock, value, samples);
        self.values.push((name, unit, value));
    }

    /// Prints a report line for a metric without emitting it.
    fn report(&mut self, name: &str, unit: &str, clock: &str, value: f64, samples: &[f64]) {
        let [q1, q2, q3] = quartiles(samples);
        self.lines.push(format!(
            "{name:<38} {value:>16.6} {unit:<8} {clock:<7} q1 {q1:.6} median {q2:.6} q3 {q3:.6} over {} sessions",
            samples.len()
        ));
    }

    /// Flags metrics that are missing, out of order or not finite.
    fn validate(&mut self, table: &[(&str, &str)], positive: bool) {
        let names: Vec<&str> = self.values.iter().map(|v| v.0).collect();
        let want: Vec<&str> = table.iter().map(|t| t.0).collect();
        if names != want {
            self.problems
                .push(format!("metric set {names:?} differs from {want:?}"));
        }
        for &(name, _, v) in &self.values {
            if !v.is_finite() || (positive && v <= 0.0) {
                self.problems.push(format!("{name} = {v}"));
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Sessions of `spec` on its end-to-end thread count for `seconds`.
fn end_to_end(spec: Spec, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut columns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut reference = None;
    let (mut sessions, mut samples) = (0, 0);
    let canary = Canary::new();
    // Each session is folded into scalars as it ends, so memory does not
    // grow with the session count.
    while sessions < MIN_SESSIONS || secs(start) < seconds {
        let mut r = session(spec, seed, &canary, spec.threads());
        sessions += 1;
        out.tally(&r);
        if spec.deterministic()
            && *reference.get_or_insert_with(|| r.model.registry.clone()) != r.model.registry
        {
            out.problems
                .push("modeled state differs between sessions of one seed".into());
        }
        samples = r.op_ns.len();
        let ops = r.ops as f64;
        let p50_s = percentile_ns(&mut r.op_ns, 50.0) * 1e-9;
        let p99_s = percentile_ns(&mut r.op_ns, 99.0) * 1e-9;
        let row = [
            ("setup_s", r.setup_s * NOMINAL_STEP_S / r.ref_s),
            ("serve_ref_per_op", r.serve_s / ops / r.ref_s),
            ("op_p50_ref", p50_s / r.ref_s),
            ("op_p99_ref", p99_s / r.ref_s),
            ("recovery_ref", r.recovery_s / r.ref_s),
            ("setup_wall_s", r.setup_s),
            ("serve_ns_per_op", r.serve_s * 1e9 / ops),
            ("op_p50_us", p50_s * 1e6),
            ("op_p99_us", p99_s * 1e6),
            ("recovery_wall_ms", r.recovery_s * 1e3),
            ("step_ns", r.ref_s * 1e9),
            ("sim_cycles_per_op", r.model.cycles as f64 / ops),
            (
                "nvm_write_bytes_per_op",
                r.model.nvm_write_bytes as f64 / ops,
            ),
            ("energy_pj_per_op", r.model.energy_pj / ops),
            ("recovery_makespan_reads", r.model.makespan_reads() as f64),
        ];
        for (name, v) in row {
            columns.entry(name).or_default().push(v);
        }
    }
    columns.insert("peak_rss_mb", vec![stats::peak_rss_mb()]);
    out.lines.push(format!(
        "{sessions} sessions; {samples} host latency samples per session; \
         every metric is the median session"
    ));
    for (name, _) in END_TO_END {
        let clock = if matches!(name, "setup_s" | "peak_rss_mb") {
            "host"
        } else {
            "modeled"
        };
        let samples = &columns[name];
        out.put(&END_TO_END, name, clock, median(samples), samples);
    }
    out.lines.push("host timings, not gated:".into());
    for (name, unit) in HOST_TIMINGS {
        let samples = &columns[name];
        out.report(name, unit, "host", median(samples), samples);
    }
    out.validate(&END_TO_END, true);
    out
}

/// Traced iterations for `seconds`: each runs an untraced session on the
/// end-to-end thread count, one on the other thread count, and a traced
/// session.
fn per_layer(spec: Spec, workload: &str, seed: u64, seconds: f64) -> Outcome {
    let spans = SpanLog::new();
    let canary = Canary::new();
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut host: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut first: Option<(Rep, Traced)> = None;
    while host.len() < MIN_TRACED || secs(start) < seconds {
        let base = session(spec, seed, &canary, spec.threads());
        let other = session(spec, seed, &canary, 3 - spec.threads());
        let traced = traced_session(spec, seed, &spans);
        for rep in [&base, &other, &traced.rep] {
            out.tally(rep);
        }
        if spec.deterministic() {
            let reference = first.as_ref().map_or(&base, |(b, _)| b);
            if traced.rep.model.registry != base.model.registry
                || base.model.registry != reference.model.registry
            {
                out.problems.push(
                    "parity: the traced replay's modeled state differs from run_trace's".into(),
                );
            }
        }
        host.push(layer_host(spec, &base, &other, &traced));
        if first.is_none() {
            first = Some((base, traced));
        }
    }
    let (base, traced) = first.expect("at least one iteration");
    let modeled = layer_modeled(&base, &traced);
    for &(name, _) in &PER_LAYER {
        if let Some(&(_, v)) = modeled.iter().find(|(n, _)| *n == name) {
            out.put(&PER_LAYER, name, "modeled", v, &[v]);
        } else {
            let samples: Vec<f64> = host
                .iter()
                .map(|row| {
                    row.iter()
                        .find(|(n, _)| *n == name)
                        .expect("host layer metric")
                        .1
                })
                .collect();
            out.put(&PER_LAYER, name, "host", median(&samples), &samples);
        }
    }
    out.validate(&PER_LAYER, false);
    let dir = session::repo_path("target/benchmark");
    let path = dir.join(format!("{workload}.spans.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.to_json().pretty()));
    match written {
        Ok(()) => out
            .lines
            .push(format!("spans of the first operations: {}", path.display())),
        Err(e) => eprintln!("{}: {e}", path.display()),
    }
    out
}

/// Host per-layer metrics of one traced iteration.
fn layer_host(spec: Spec, base: &Rep, other: &Rep, t: &Traced) -> Vec<(&'static str, f64)> {
    let ops = t.rep.ops as f64;
    let gen_ns = t.gen_s * 1e9;
    // Host time the traced session had: the generation pass plus every
    // serve thread's wall time.
    let wall_ns = gen_ns + t.rep.serve_s * 1e9 * t.threads as f64;
    // Untraced trace runs generate lazily inside the serve phase; kv
    // streams are made during set-up, before serving.
    let untraced_gen_s = if matches!(spec, Spec::Kv { .. }) {
        0.0
    } else {
        t.gen_s
    };
    let l = &t.times;
    let engine_ns = (l.write_ns + l.read_ns) as f64;
    let crypto_ns = t.crypto.ns as f64;
    let (one, two) = if spec.threads() == 1 {
        (base, other)
    } else {
        (other, base)
    };
    let speed = |work: u64, s: f64| work as f64 / s;
    vec![
        ("trace.gen_ns_per_op", gen_ns / ops),
        ("cache.host_ns_per_op", l.cache_ns as f64 / ops),
        (
            "core.engine.write_host_ns",
            ratio(l.write_ns as f64, l.writes as f64),
        ),
        (
            "core.engine.read_host_ns",
            ratio(l.read_ns as f64, l.reads as f64),
        ),
        ("core.engine.self_ns_per_op", (engine_ns - crypto_ns) / ops),
        (
            "core.system.self_ns_per_op",
            (l.op_ns as f64 - l.cache_ns as f64 - engine_ns) / ops,
        ),
        ("crypto.host_ns_per_op", crypto_ns / ops),
        ("crypto.host_share", crypto_ns / wall_ns),
        (
            "core.shard.lock_wait_share",
            ratio(l.lock_wait_ns as f64, (l.lock_wait_ns + l.op_ns) as f64),
        ),
        (
            "core.shard.thread_scaling",
            speed(two.ops, two.serve_s) / speed(one.ops, one.serve_s),
        ),
        (
            "core.recovery.host_ns_per_read",
            base.recovery_s * 1e9 / base.recovery_reads as f64,
        ),
        (
            "core.par.wall_speedup",
            speed(two.recovery_reads, two.recovery_s) / speed(one.recovery_reads, one.recovery_s),
        ),
        (
            "bench.accounted_share",
            (gen_ns + (l.op_ns + l.lock_wait_ns) as f64) / wall_ns,
        ),
        (
            "bench.trace_overhead",
            (untraced_gen_s + t.rep.serve_s) / base.serve_s,
        ),
    ]
}

/// Modeled per-layer metrics: counts from the traced session's registry
/// (equal to the untraced one's wherever the state is deterministic).
fn layer_modeled(base: &Rep, t: &Traced) -> Vec<(&'static str, f64)> {
    let m = &t.rep.model;
    let reg = &m.registry;
    let ops = t.rep.ops as f64;
    let c = |k: &str| reg.counter(k).unwrap_or(0) as f64;
    let hist = |k: &str, q: f64| reg.hist(k).map_or(0.0, |h| h.quantile(q) as f64);
    let machines = m
        .machine_cycles
        .iter()
        .map(|&x| x as f64)
        .collect::<Vec<_>>();
    let max = machines.iter().copied().fold(0.0, f64::max);
    let mean = machines.iter().sum::<f64>() / machines.len().max(1) as f64;
    vec![
        (
            "cache.l3.miss_rate",
            ratio(
                c("cache.l3.misses"),
                c("cache.l3.hits") + c("cache.l3.misses"),
            ),
        ),
        (
            "core.cpu.read_stall_share",
            ratio(c("core.cpu.read_stall_cycles"), c("core.cpu.cycles")),
        ),
        (
            "core.cpu.write_stall_share",
            ratio(c("core.cpu.write_stall_cycles"), c("core.cpu.cycles")),
        ),
        (
            "core.engine.mac_calls_per_op",
            c("core.engine.mac_calls") / ops,
        ),
        (
            "core.write.lat_p50_cycles",
            hist("core.write.latency_cycles", 0.5),
        ),
        (
            "core.write.lat_p999_cycles",
            hist("core.write.latency_cycles", 0.999),
        ),
        (
            "core.read.lat_p50_cycles",
            hist("core.read.latency_cycles", 0.5),
        ),
        (
            "core.read.lat_p999_cycles",
            hist("core.read.latency_cycles", 0.999),
        ),
        ("crypto.calls_per_op", t.crypto.calls as f64 / ops),
        (
            "metadata.hit_rate",
            ratio(
                c("meta.cache.hits"),
                c("meta.cache.hits") + c("meta.cache.misses"),
            ),
        ),
        ("metadata.misses_per_op", c("meta.cache.misses") / ops),
        ("nvm.reads_per_op", c("nvm.device.reads") / ops),
        ("nvm.writes_per_op", c("nvm.device.writes") / ops),
        (
            "nvm.row_hit_rate",
            ratio(
                c("nvm.device.row_hits"),
                c("nvm.device.row_hits") + c("nvm.device.row_misses"),
            ),
        ),
        (
            "nvm.device.contention_cycles_per_op",
            c("nvm.device.contention_cycles") / ops,
        ),
        (
            "nvm.write_queue.stall_cycles_per_op",
            c("nvm.write_queue.stall_cycles") / ops,
        ),
        (
            "nvm.write_queue.occupancy_p99",
            hist("nvm.write_queue.occupancy", 0.99),
        ),
        (
            "nvm.adr.persists_per_op",
            (c("nvm.adr.persists.line_write") + c("nvm.adr.persists.in_place")) / ops,
        ),
        ("core.shard.load_imbalance", ratio(max, mean)),
        (
            "core.recovery.reads",
            base.model.region_reads.iter().sum::<u64>() as f64,
        ),
        (
            "core.par.modeled_speedup",
            steins_core::par::makespan(&base.model.region_reads, 1) as f64
                / base.model.makespan_reads() as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> steins_obs::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the repo root");
        steins_obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn manifest_metrics(section: &str) -> Vec<(String, String)> {
        manifest()
            .get(section)
            .and_then(|s| s.as_arr())
            .expect("metric section")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn names_of(out: &Outcome) -> Vec<(String, String)> {
        out.values
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_name_is_plain() {
        let plain = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(plain(name), "{name}");
        }
        for w in WORKLOADS {
            assert!(plain(w), "{w}");
        }
    }

    #[test]
    fn manifest_matches_the_tables() {
        let m = manifest();
        let workloads: Vec<&str> = m
            .get("workloads")
            .and_then(|w| w.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(manifest_metrics("end_to_end"), table(&END_TO_END));
        assert_eq!(manifest_metrics("per_layer"), table(&PER_LAYER));
    }

    /// A tiny run of every workload in both modes emits exactly the
    /// manifest's metric sets, every value finite and every check passing.
    #[test]
    fn tiny_runs_emit_the_manifest_metric_sets() {
        for name in WORKLOADS {
            let spec = Spec::named(name).expect("known").tiny();
            let e2e = end_to_end(spec, 7, 0.0);
            assert!(e2e.correct(), "{name}: {:?}", e2e.problems);
            assert_eq!(names_of(&e2e), manifest_metrics("end_to_end"), "{name}");
            let layers = per_layer(spec, &format!("test-{name}"), 7, 0.0);
            assert!(layers.correct(), "{name}: {:?}", layers.problems);
            assert_eq!(names_of(&layers), manifest_metrics("per_layer"), "{name}");
            let line = layers.json_line();
            let parsed = steins_obs::json::parse(&line).expect("result line is JSON");
            assert_eq!(parsed.get("correct"), Some(&steins_obs::Json::Bool(true)));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&args("--workload mcf-sc --seed 3 --seconds 10 --trace 1")).unwrap();
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 10.0);
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload mcf-sc --seed x --seconds 10 --trace 0",
            "--workload mcf-sc --seed 3 --seconds 10 --trace 2",
            "--workload mcf-sc --seed 3 --seconds 10",
            "--workload mcf-sc --seed 3 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
