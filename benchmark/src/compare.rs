//! `compare <base-dir> <cur-dir>`: judge a change against its parent from
//! saved runs of both, made in alternating pairs.
//!
//! Each directory holds one file per run, named `<workload>.<anything>.json`,
//! whose last line is the run's JSON result. Runs pair up by sorted file
//! name; at least 10 pairs per workload are required, and the pairs must
//! alternate which side ran first (read from the files' modification
//! times). Per workload × metric it prints both sides' median and
//! quartiles, the share of pairs the change wins (ties count for neither),
//! whether the medians differ by more than the parent's interquartile
//! range, and a verdict against the metric's bound: the larger of its
//! `bound` in `BENCHMARK.json` times the parent's median, and its absolute
//! [`floor`].
//!
//! * `unresolved` — the parent's own spread is wider than the bound, and
//!   not every run of the change beats every run of the parent;
//! * `regression` — the change's median is worse by more than the bound;
//! * `gain` — better median, 9/10 of pairs won, difference beyond the IQR;
//! * `worse` — the same the other way, but within the bound (or a
//!   per-layer metric, which has no bound);
//! * `same` otherwise.
//!
//! Exits 1 on any regression, incorrect run, or more failures than the
//! parent; 2 on unusable input.

use crate::report::{median, quartiles, Outcome};
use sbu_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::SystemTime;

const MIN_PAIRS: usize = 10;
const GAIN_SHARE: f64 = 0.9;

/// The least change, in the metric's own unit, that counts against its
/// bound: a metric may worsen by `max(bound × parent median, floor)`.
/// `BENCHMARK.json` gives each metric a relative bound only, so the floors
/// live here. Set-up of the small workloads takes tens of milliseconds, and
/// peak memory moves by whole allocator arenas, so a small absolute change
/// in either is noise, not a regression.
fn floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.050,
        "peak_rss_mb" => 16.0,
        _ => 0.0,
    }
}

struct Run {
    modified: SystemTime,
    outcome: Outcome,
}

/// `(bound, lower_is_better)` per metric name, from `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<BTreeMap<String, (Option<f64>, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_num);
            out.insert(name.to_string(), (bound, lower));
        }
    }
    Ok(out)
}

/// Every run in `dir`, by workload, sorted by file name.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let workload = name.split('.').next().unwrap_or_default().to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or_default();
        let outcome = Outcome::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let modified = std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.entry(workload)
            .or_default()
            .push(Run { modified, outcome });
    }
    Ok(out)
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [base_dir, cur_dir] = args else {
        return Err("compare needs <base-dir> <cur-dir>".into());
    };
    let bounds = bounds(Path::new("BENCHMARK.json"))?;
    let base = load(Path::new(base_dir))?;
    let cur = load(Path::new(cur_dir))?;
    let mut ok = true;
    for (workload, base_runs) in &base {
        let cur_runs = cur
            .get(workload)
            .ok_or(format!("{workload}: no runs in {cur_dir}"))?;
        let pairs = base_runs.len();
        if pairs != cur_runs.len() || pairs < MIN_PAIRS {
            return Err(format!(
                "{workload}: {pairs} base and {} current runs; need {MIN_PAIRS}+ pairs",
                cur_runs.len()
            ));
        }
        let base_first: Vec<bool> = base_runs
            .iter()
            .zip(cur_runs)
            .map(|(b, c)| b.modified <= c.modified)
            .collect();
        if base_first.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!(
                "{workload}: pairs do not alternate which side ran first"
            ));
        }
        let failed = |runs: &[Run]| runs.iter().map(|r| r.outcome.failed).sum::<u64>();
        let all_correct = base_runs.iter().chain(cur_runs).all(|r| r.outcome.correct);
        println!(
            "{workload}: {pairs} alternating pairs; failed {} → {}; {}",
            failed(base_runs),
            failed(cur_runs),
            if all_correct {
                "all runs correct"
            } else {
                "INCORRECT RUNS"
            }
        );
        ok &= all_correct && failed(cur_runs) <= failed(base_runs);
        println!(
            "  {:<28} {:>34} {:>34} {:>5} {:>8} {:>8}  verdict",
            "metric", "base median [q1, q3]", "current median [q1, q3]", "wins", ">IQR", "worse%"
        );
        for (name, _, unit) in &base_runs[0].outcome.metrics {
            let values = |runs: &[Run]| -> Option<Vec<f64>> {
                runs.iter().map(|r| r.outcome.metric(name)).collect()
            };
            let (Some(b), Some(c)) = (values(base_runs), values(cur_runs)) else {
                println!("  {name:<28} missing from some runs");
                ok = false;
                continue;
            };
            let (bound, lower) = bounds.get(name).copied().unwrap_or((None, true));
            let better = |x: f64, y: f64| if lower { x < y } else { x > y };
            let (bm, cm) = (median(&b), median(&c));
            let ((b1, b3), (c1, c3)) = (quartiles(&b), quartiles(&c));
            let wins = b.iter().zip(&c).filter(|(x, y)| better(**y, **x)).count();
            let losses = b.iter().zip(&c).filter(|(x, y)| better(**x, **y)).count();
            let beyond_iqr = (cm - bm).abs() > b3 - b1;
            let worse_by = if lower { cm - bm } else { bm - cm };
            let worse = worse_by / bm.abs().max(f64::MIN_POSITIVE);
            let dominates = c.iter().all(|&y| b.iter().all(|&x| better(y, x)));
            let clearly = |n: usize| n as f64 >= GAIN_SHARE * pairs as f64 && beyond_iqr;
            let allowed = bound.map(|bound| (bound * bm.abs()).max(floor(name)));
            let verdict = match allowed {
                Some(allowed) if b3 - b1 > allowed && !dominates => "unresolved",
                Some(allowed) if worse_by > allowed => "regression",
                _ if better(cm, bm) && clearly(wins) => "gain",
                _ if better(bm, cm) && clearly(losses) => "worse",
                _ => "same",
            };
            ok &= verdict != "regression";
            println!(
                "  {name:<28} {:>34} {:>34} {:>5} {:>8} {:>7.1}%  {verdict}",
                format!("{bm:.4} [{b1:.4}, {b3:.4}] {unit}"),
                format!("{cm:.4} [{c1:.4}, {c3:.4}]"),
                format!("{wins}/{pairs}"),
                if beyond_iqr { "yes" } else { "no" },
                100.0 * worse,
            );
        }
    }
    for workload in cur.keys().filter(|w| !base.contains_key(*w)) {
        println!("{workload}: no parent runs to compare with");
    }
    Ok(ok)
}
