//! `benchmark --check-bounds <set-a> <set-b>`: compares two sets of
//! end-to-end runs against the bounds in `BENCHMARK.json`.
//!
//! A set is a directory of files named `<workload>.<anything>`, each
//! holding one run's standard output; its last line is the result. For
//! every (workload, metric) pair the verdict is
//!
//! * `unresolved` when either set's quartile spread, as a share of its
//!   median, exceeds the bound (`setup_s` excepted) — unless every run of
//!   B reads better than every run of A;
//! * `fail` when B's median is worse than A's by more than the bound;
//! * `pass` otherwise.
//!
//! The exit code is 0 only when every pair passes.

use std::collections::BTreeMap;

use steins_obs::json::parse;
use steins_obs::Json;

use crate::session::repo_path;
use crate::stats::{median, quartiles};

/// One metric's direction and bound from the manifest.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// A pair's verdict.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Pass,
    Fail,
    Unresolved,
}

/// Share of a set's median covered by its quartile spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Judges set `b` against set `a` for one metric. Returns the verdict and
/// how much worse B's median is than A's, as a share of A's.
pub fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    spread_counts: bool,
) -> (Verdict, f64) {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    let worse = sign * (mb - ma) / ma.abs();
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let verdict = if spread_counts && (spread(a) > bound || spread(b) > bound) && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    (verdict, worse)
}

fn load_bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(repo_path("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(bound)) => Ok(Bound {
                    name: n.to_string(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {}", m.pretty())),
            }
        })
        .collect()
}

/// `workload → metric → values` of one set.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(dir: &str) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        let file = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or_default();
        let Some((workload, _)) = file.split_once('.') else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let doc = parse(last).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(m)) => m,
            _ => return Err(format!("{}: no metrics", path.display())),
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// Runs the comparison; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: benchmark --check-bounds <set-a> <set-b>");
        return 2;
    };
    let loaded = load_bounds().and_then(|bounds| Ok((bounds, load_set(a)?, load_set(b)?)));
    let (bounds, set_a, set_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound"
    );
    let mut clean = true;
    for (workload, metrics_a) in &set_a {
        for bound in &bounds {
            let va = metrics_a.get(&bound.name);
            let vb = set_b.get(workload).and_then(|m| m.get(&bound.name));
            let (Some(va), Some(vb)) = (va, vb) else {
                println!("{workload:<12} {:<26} missing from a set", bound.name);
                clean = false;
                continue;
            };
            let (verdict, worse) = judge(
                va,
                vb,
                bound.lower_is_better,
                bound.bound,
                bound.name != "setup_s",
            );
            clean &= verdict == Verdict::Pass;
            println!(
                "{workload:<12} {:<26} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict:?}",
                bound.name,
                median(va),
                median(vb),
                worse * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                bound.bound * 100.0
            );
        }
    }
    i32::from(!clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: 3 % slower passes a 5 % bound, 8 % fails it.
        assert_eq!(judge(&a, &[103.0; 5], true, 0.05, true).0, Verdict::Pass);
        assert_eq!(judge(&a, &[108.0; 5], true, 0.05, true).0, Verdict::Fail);
        // Higher is better: a drop is the regression.
        assert_eq!(judge(&a, &[92.0; 5], false, 0.05, true).0, Verdict::Fail);
        assert_eq!(judge(&a, &[130.0; 5], false, 0.05, true).0, Verdict::Pass);
        // A spread wider than the bound leaves the pair unresolved ...
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[101.0; 5], true, 0.05, true).0,
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A, or spread is exempt.
        assert_eq!(judge(&noisy, &[70.0; 5], true, 0.05, true).0, Verdict::Pass);
        assert_eq!(
            judge(&noisy, &[101.0; 5], true, 0.05, false).0,
            Verdict::Pass
        );
    }
}
