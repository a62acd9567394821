//! Generated artifacts: per-scenario markdown reports, per-scenario OBS
//! snapshots, and the machine-readable `BENCH_scenarios.json` the coverage
//! comparator consumes.
//!
//! # Determinism
//!
//! Report bodies contain **no timestamps and no wall-clock numbers** — a
//! matrix run is described entirely by seeds, op counts, window counts,
//! instrument counters and verdicts, all of which are functions of the
//! recorded histories. Two runs with the same scenario set, seed and
//! thread cap therefore produce byte-identical artifacts (exactly identical
//! when capped at one thread, where histories themselves are
//! schedule-independent), which is what makes the artifacts diffable and
//! the coverage comparator meaningful.

use crate::matrix::CellResult;
use crate::run::{RunConfig, ScenarioResult};
use sbu_obs::json::Json;
use sbu_obs::Snapshot;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// File stem for a scenario (kebab-case name → `SCREAMING_SNAKE` pieces).
fn stem(name: &str) -> String {
    name.replace('-', "_")
}

/// The markdown report body for one scenario.
pub fn render_scenario_report(result: &ScenarioResult, rc: &RunConfig) -> String {
    let s = &result.scenario;
    let mut out = String::new();
    let _ = writeln!(out, "# Scenario `{}`", s.name);
    let _ = writeln!(out);
    let _ = writeln!(out, "{}.", s.about);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Run seed `{}`; thread cap {}; ops factor {}; lie period {} \
         (adversarial cells).",
        rc.seed,
        if rc.max_threads > 0 {
            rc.max_threads.to_string()
        } else {
            "none".to_string()
        },
        rc.ops_factor.max(1),
        s.lie_period,
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "## Phases");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| # | threads | ops/thread | objects | profile | crash threads | eras |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for (i, p) in s.phases.iter().enumerate() {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            i + 1,
            p.threads,
            p.ops_per_thread,
            p.objects,
            p.profile,
            p.crash_threads,
            p.eras
        );
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Matrix");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| object | backend | expected | verdict | ops | completed | windows | violations | cell seed |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for c in &result.cells {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | `{:#x}` |",
            c.object,
            c.backend,
            c.expected,
            verdict_badge(c),
            c.total_ops,
            c.completed_ops,
            c.windows_checked,
            c.violations.len(),
            c.seed,
        );
    }
    let _ = writeln!(out);
    let skipped: Vec<_> = result
        .cells
        .iter()
        .filter_map(|c| Some((c, c.skip_reason?)))
        .collect();
    if !skipped.is_empty() {
        let _ = writeln!(out, "Skipped cells:");
        let _ = writeln!(out);
        for (c, reason) in skipped {
            let _ = writeln!(out, "- `{}`: {reason}.", c.key());
        }
        let _ = writeln!(out);
    }

    // Instruments: the scenario's merged registry snapshot, citing the
    // sbu-obs counters each backend/object attached. Empty (and said so)
    // without the `obs` feature.
    let merged = merged_metrics(result);
    let _ = writeln!(out, "## Instruments");
    let _ = writeln!(out);
    if merged.is_empty() {
        let _ = writeln!(
            out,
            "_No instruments recorded (build without the `obs` feature)._"
        );
    } else {
        let _ = writeln!(out, "| counter | total |");
        let _ = writeln!(out, "|---|---|");
        for (name, v) in &merged.counters {
            let _ = writeln!(out, "| `{name}` | {v} |");
        }
        for (name, h) in &merged.histograms {
            let _ = writeln!(out, "| `{name}` (events) | {} |", h.count);
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Reproduce");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "```\nexp scenarios --scenario {} --seed {}{}\n```",
        s.name,
        rc.seed,
        if rc.max_threads > 0 {
            format!(" --max-threads {}", rc.max_threads)
        } else {
            String::new()
        },
    );
    out
}

/// The verdict cell, flagged when it defies the expectation.
fn verdict_badge(c: &CellResult) -> String {
    if c.is_ok() {
        c.verdict.to_string()
    } else {
        format!("**{}**", c.verdict)
    }
}

/// The scenario's merged instrument snapshot (all cells folded together).
pub fn merged_metrics(result: &ScenarioResult) -> Snapshot {
    let mut merged = Snapshot::default();
    for c in &result.cells {
        // Re-fold with the same merge the cells used internally.
        merged.merge(&c.metrics);
    }
    merged.counters.sort_by(|a, b| a.0.cmp(&b.0));
    merged.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    merged
}

/// One cell as JSON (the coverage comparator's unit of record).
fn cell_json(c: &CellResult) -> Json {
    let counters = Json::Obj(
        c.metrics
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
            .chain(
                c.metrics
                    .histograms
                    .iter()
                    .map(|(n, h)| (n.clone(), Json::Num(h.count as f64))),
            )
            .collect(),
    );
    let mut fields = vec![
        ("object", Json::Str(c.object.key().to_string())),
        ("backend", Json::Str(c.backend.key().to_string())),
        ("expected", Json::Str(c.expected.key().to_string())),
        ("verdict", Json::Str(c.verdict.key().to_string())),
        ("ops", Json::Num(c.total_ops as f64)),
        ("completed", Json::Num(c.completed_ops as f64)),
        ("windows", Json::Num(c.windows_checked as f64)),
        ("violations", Json::Num(c.violations.len() as f64)),
        ("seed", Json::Num(c.seed as f64)),
        ("counters", counters),
    ];
    // The coverage signature does not read the reason, so documents with
    // and without it compare alike.
    if let Some(reason) = c.skip_reason {
        fields.push(("skip_reason", Json::Str(reason.to_string())));
    }
    Json::obj(fields)
}

/// The whole run as `BENCH_scenarios.json`.
pub fn bench_json(results: &[ScenarioResult], rc: &RunConfig) -> Json {
    let scenarios = results
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.scenario.name.to_string())),
                ("about", Json::Str(r.scenario.about.to_string())),
                ("ok", Json::Bool(r.is_ok())),
                ("cells", Json::Arr(r.cells.iter().map(cell_json).collect())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::Str("scenarios".to_string())),
        ("seed", Json::Num(rc.seed as f64)),
        ("max_threads", Json::Num(rc.max_threads as f64)),
        ("ops_factor", Json::Num(rc.ops_factor.max(1) as f64)),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

/// Write every artifact for `results` under `out_dir`; returns the paths
/// written (reports first, then OBS snapshots, then the BENCH summary).
pub fn write_artifacts(
    results: &[ScenarioResult],
    rc: &RunConfig,
    out_dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(out_dir)?;
    let mut written = Vec::new();
    for r in results {
        let stem = stem(r.scenario.name);
        let report = out_dir.join(format!("SCENARIO_{}_REPORT.md", stem.to_uppercase()));
        std::fs::write(&report, render_scenario_report(r, rc))?;
        written.push(report);
        let obs = out_dir.join(format!("OBS_scenario_{stem}.json"));
        std::fs::write(&obs, merged_metrics(r).to_json().render())?;
        written.push(obs);
    }
    let bench = out_dir.join("BENCH_scenarios.json");
    std::fs::write(&bench, bench_json(results, rc).render())?;
    written.push(bench);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{ScenarioBackend, ScenarioObject, Verdict};
    use crate::scenario;

    fn tiny_result() -> ScenarioResult {
        ScenarioResult {
            scenario: scenario::find("steady-state").unwrap(),
            cells: vec![CellResult {
                object: ScenarioObject::Sticky,
                backend: ScenarioBackend::Native,
                expected: Verdict::Pass,
                verdict: Verdict::Pass,
                total_ops: 100,
                completed_ops: 100,
                windows_checked: 7,
                violations: Vec::new(),
                skip_reason: None,
                metrics: Snapshot {
                    counters: vec![("mem.jams".into(), 50)],
                    histograms: Vec::new(),
                },
                seed: 0xABCD,
            }],
        }
    }

    #[test]
    fn report_body_has_no_wall_clock_content() {
        let rc = RunConfig::default();
        let body = render_scenario_report(&tiny_result(), &rc);
        assert!(body.contains("# Scenario `steady-state`"));
        assert!(body.contains("| sticky | native | pass | pass | 100 |"));
        assert!(body.contains("exp scenarios --scenario steady-state --seed 42"));
        for forbidden in ["elapsed", "ops/sec", "ns", "ms"] {
            assert!(
                !body.contains(&format!(" {forbidden} ")),
                "report must not contain timing field {forbidden:?}"
            );
        }
    }

    #[test]
    fn a_thread_capped_run_names_the_cap_as_the_skip_reason() {
        let rc = RunConfig {
            max_threads: 1,
            ..RunConfig::default()
        };
        let s = scenario::find("steady-state").unwrap();
        let cell =
            crate::run::run_cell(&s, ScenarioObject::JamWord, ScenarioBackend::TornLying, &rc);
        let result = ScenarioResult {
            scenario: s,
            cells: vec![cell],
        };
        let body = render_scenario_report(&result, &rc);
        let line = body
            .lines()
            .find(|l| l.starts_with("- `jam-word/torn-lying`: "))
            .expect("the skipped cell is listed with its reason");
        assert!(line.contains("--max-threads cap"), "{line}");
        let doc = bench_json(&[result], &rc);
        let cells = doc.get("scenarios").unwrap().as_arr().unwrap()[0]
            .get("cells")
            .unwrap()
            .as_arr()
            .unwrap();
        let reason = cells[0].get("skip_reason").and_then(Json::as_str);
        assert!(
            reason.is_some_and(|r| r.contains("--max-threads cap")),
            "{reason:?}"
        );
        // The coverage signature ignores the reason.
        assert!(crate::coverage::signature_from_json(&doc).is_ok());
    }

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        let rc = RunConfig::default();
        let doc = bench_json(&[tiny_result()], &rc);
        let reparsed = Json::parse(&doc.render()).expect("self-rendered JSON parses");
        assert_eq!(reparsed, doc);
        let cells = reparsed.get("scenarios").unwrap().as_arr().unwrap()[0]
            .get("cells")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(cells[0].get("verdict").unwrap().as_str(), Some("pass"));
        assert_eq!(
            cells[0]
                .get("counters")
                .unwrap()
                .get("mem.jams")
                .unwrap()
                .as_num(),
            Some(50.0)
        );
    }
}
