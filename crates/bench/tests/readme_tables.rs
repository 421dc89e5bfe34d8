//! README's numeric tables must match the committed artifacts they quote:
//! the "Measured scaling" table against `results/BENCH_shard.json` and the
//! "Seconds per GB" table against `results/BENCH_recovery.json`. A
//! regenerated artifact that moves a quoted figure fails here until README
//! carries the new figure.

use std::path::Path;
use steins_obs::json::parse;
use steins_obs::Json;

type Check = Result<(), String>;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn artifact(rel: &str) -> Json {
    parse(&repo_file(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The rows of the first Markdown table after the line starting with
/// `caption`, header first and separator dropped, each split into trimmed
/// cells.
fn table_after(readme: &str, caption: &str) -> Result<Vec<Vec<String>>, String> {
    let mut lines = readme.lines().skip_while(|l| !l.starts_with(caption));
    lines
        .next()
        .ok_or(format!("README has no line starting with {caption:?}"))?;
    let rows: Vec<Vec<String>> = lines
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| !l.starts_with("|-"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect();
    if rows.len() < 2 {
        return Err(format!("no table rows after {caption:?}"));
    }
    Ok(rows)
}

/// A README figure such as `2.30×`, `0.0157` or `10.31`.
fn num(cell: &str) -> Result<f64, String> {
    cell.trim_end_matches('×')
        .parse()
        .map_err(|_| format!("not a number: {cell:?}"))
}

fn mix(cell: &Json) -> Option<&str> {
    cell.get("mix").and_then(Json::as_str)
}

fn field(cell: &Json, key: &str) -> Result<f64, String> {
    cell.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("artifact cell lacks {key}"))
}

/// `got` (README, printed to `dp` decimals) is `want` (artifact) rounded.
fn rounds_to(got: f64, want: f64, dp: i32, what: &str) -> Check {
    let half = 0.5 * 10f64.powi(-dp);
    if (got - want).abs() <= half + 1e-12 {
        Ok(())
    } else {
        Err(format!(
            "{what}: README says {got}, the artifact has {want} ({dp} dp)"
        ))
    }
}

fn check_scaling(readme: &str, shard: &Json) -> Check {
    let cells = shard
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("BENCH_shard.json has no cells")?;
    let find = |want: &str, shards: f64, threads: f64| {
        cells
            .iter()
            .find(|c| {
                mix(c) == Some(want)
                    && field(c, "shards") == Ok(shards)
                    && field(c, "threads") == Ok(threads)
            })
            .ok_or(format!(
                "BENCH_shard.json has no {want} cell at {shards}×{threads}"
            ))
    };
    let rows = table_after(readme, "Measured scaling")?;
    let header = [
        "shards",
        "threads",
        "uniform ops/kcycle",
        "uniform scaling",
        "zipfian (θ=0.99) scaling",
    ];
    if rows[0] != header {
        return Err(format!("scaling table header changed: {:?}", rows[0]));
    }
    let diagonal = cells
        .iter()
        .filter(|c| mix(c) == Some("uniform") && field(c, "shards") == field(c, "threads"))
        .count();
    if rows.len() - 1 != diagonal {
        return Err(format!(
            "README quotes {} scaling rows; the artifact has {diagonal} shards == threads cells",
            rows.len() - 1
        ));
    }
    for row in &rows[1..] {
        if row.len() != header.len() {
            return Err(format!("ragged scaling row {row:?}"));
        }
        let (shards, threads) = (num(&row[0])?, num(&row[1])?);
        if shards != threads {
            return Err(format!(
                "README quotes off-diagonal cell {shards}×{threads}"
            ));
        }
        let uniform = find("uniform", shards, threads)?;
        let zipfian = find("zipfian", shards, threads)?;
        let at = format!("{shards}×{threads}");
        rounds_to(
            num(&row[2])?,
            field(uniform, "ops_per_kcycle")?,
            2,
            &format!("uniform ops/kcycle at {at}"),
        )?;
        rounds_to(
            num(&row[3])?,
            field(uniform, "scaling")?,
            2,
            &format!("uniform scaling at {at}"),
        )?;
        rounds_to(
            num(&row[4])?,
            field(zipfian, "scaling")?,
            2,
            &format!("zipfian scaling at {at}"),
        )?;
    }
    Ok(())
}

fn check_seconds_per_gb(readme: &str, recovery: &Json) -> Check {
    let rungs = recovery
        .get("rungs")
        .and_then(Json::as_arr)
        .ok_or("BENCH_recovery.json has no rungs")?;
    let rows = table_after(readme, "Seconds per GB")?;
    if rows[0][0] != "image" {
        return Err(format!(
            "seconds-per-GB table header changed: {:?}",
            rows[0]
        ));
    }
    // Column headers read "1 worker", "2 workers", ...
    let workers = rows[0][1..]
        .iter()
        .map(|h| num(h.split(' ').next().unwrap_or_default()))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut quoted = 0;
    for row in &rows[1..] {
        if row.len() != rows[0].len() {
            return Err(format!("ragged seconds-per-GB row {row:?}"));
        }
        let mb = match row[0].split_once(' ') {
            Some((n, "MB")) => num(n)?,
            Some((n, "GB")) => num(n)? * 1024.0,
            _ => return Err(format!("image size {:?}", row[0])),
        };
        for (cell, &w) in row[1..].iter().zip(&workers) {
            let rung = rungs
                .iter()
                .find(|r| field(r, "mb") == Ok(mb) && field(r, "workers") == Ok(w))
                .ok_or(format!("BENCH_recovery.json has no {mb} MB × {w} rung"))?;
            let at = format!("{} × {w} workers", row[0]);
            // "0.0157 (2.00×)": seconds per GB, then the speedup over one
            // worker, which the 1-worker column leaves out.
            let (sec, speedup) = match cell.split_once(" (") {
                Some((sec, rest)) => (sec, Some(rest.trim_end_matches(')'))),
                None => (cell.as_str(), None),
            };
            rounds_to(
                num(sec)?,
                field(rung, "sec_per_gb")?,
                4,
                &format!("sec/GB at {at}"),
            )?;
            match speedup {
                Some(s) => rounds_to(
                    num(s)?,
                    field(rung, "speedup")?,
                    2,
                    &format!("speedup at {at}"),
                )?,
                None if w == 1.0 => {}
                None => return Err(format!("no speedup quoted at {at}")),
            }
            quoted += 1;
        }
    }
    if quoted != rungs.len() {
        return Err(format!(
            "README quotes {quoted} cells; the artifact has {} rung × workers cells",
            rungs.len()
        ));
    }
    Ok(())
}

#[test]
fn measured_scaling_table_matches_bench_shard() {
    let shard = artifact("results/BENCH_shard.json");
    check_scaling(&repo_file("README.md"), &shard).unwrap();
}

#[test]
fn seconds_per_gb_table_matches_bench_recovery() {
    let recovery = artifact("results/BENCH_recovery.json");
    check_seconds_per_gb(&repo_file("README.md"), &recovery).unwrap();
}

/// Each check catches a one-digit edit to a figure it owns.
#[test]
fn one_digit_readme_edits_fail_the_checks() {
    let readme = repo_file("README.md");
    let shard = artifact("results/BENCH_shard.json");
    let recovery = artifact("results/BENCH_recovery.json");
    for (row, edited) in [
        (
            "| 4 | 4 | 4.46 | 4.56× | 3.53× |",
            "| 4 | 4 | 4.46 | 4.57× | 3.53× |",
        ),
        (
            "| 2 | 2 | 2.25 | 2.30× | 2.03× |",
            "| 2 | 2 | 2.26 | 2.30× | 2.03× |",
        ),
    ] {
        assert!(readme.contains(row), "README no longer has {row:?}");
        let mutated = readme.replace(row, edited);
        assert!(
            check_scaling(&mutated, &shard).is_err(),
            "{edited:?} passed"
        );
    }
    let row = "| 1 GB | 0.0314 | 0.0157 (2.00×) | 0.0079 (4.00×) | 0.0039 (8.00×) |";
    assert!(readme.contains(row), "README no longer has {row:?}");
    for edited in [
        "| 1 GB | 0.0314 | 0.0157 (2.00×) | 0.0078 (4.00×) | 0.0039 (8.00×) |",
        "| 1 GB | 0.0314 | 0.0157 (2.00×) | 0.0079 (4.00×) | 0.0039 (8.01×) |",
    ] {
        let mutated = readme.replace(row, edited);
        assert!(
            check_seconds_per_gb(&mutated, &recovery).is_err(),
            "{edited:?} passed"
        );
    }
}
