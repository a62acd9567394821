//! The repo benchmark for the sbu-service stack.
//!
//! ```text
//! sbu-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!               [--plain-bin PATH] [--smoke]
//! sbu-benchmark compare <base-dir> <cur-dir>
//! ```
//!
//! A run measures a workload (or, with `all`, every workload, their rounds
//! interleaved) in six rounds, each in a fresh child process (`round`).
//! Per workload it prints every metric by name and unit, then one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the gated end-to-end ones. With `--trace 1`
//! (a build with the `trace` feature) they are the per-layer ones: each
//! round runs once traced and once with the plain binary given by
//! `--plain-bin`, so the tracing overhead is measured too, and a `layers`
//! child replays the workload's inputs through each layer. `--seconds` is
//! the measured time summed over the rounds; each round also warms up for
//! a quarter of its measured time first. A correctness violation in any
//! round makes the run exit 1.

mod compare;
mod hist;
mod layers;
mod report;
mod round;
mod workload;

use report::{median, Outcome, END_TO_END, PER_LAYER, UNGATED};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workload::{mix, Workload, WORKLOADS};

const USAGE: &str =
    "usage: sbu-benchmark --workload <closed-uniform|pipelined-hot|pipelined-unix|lossy-unix|all> \
[--seed N] [--seconds S] [--trace 0|1] [--plain-bin PATH] [--smoke]\n       \
sbu-benchmark compare <base-dir> <cur-dir>";

/// Rounds per run (one for `--smoke`).
const ROUNDS: u32 = 6;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    plain_bin: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    let (mut plain_bin, mut smoke) = (None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(WORKLOADS.to_vec()),
            "--workload" => workload = Some(vec![Workload::by_name(value).ok_or(bad)?]),
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--plain-bin" => plain_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if trace && plain_bin.is_none() {
        return Err("--trace 1 needs --plain-bin (the build without `trace`)".into());
    }
    if trace && !cfg!(feature = "trace") {
        return Err("--trace 1 needs a build with the `trace` feature".into());
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        plain_bin,
        smoke,
    })
}

/// Run `exe` with `args` as a child, wait for it, and parse the flat JSON
/// line it prints last.
fn child(exe: &Path, args: &[String]) -> Result<BTreeMap<String, f64>, String> {
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} failed: {}",
            exe.display(),
            args.join(" "),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    report::parse_flat(line)
}

/// Per-metric values across rounds.
#[derive(Default)]
struct Rounds(BTreeMap<String, Vec<f64>>);

impl Rounds {
    fn add(&mut self, round: &BTreeMap<String, f64>) {
        for (k, v) in round {
            self.0.entry(k.clone()).or_default().push(*v);
        }
    }
    fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
    fn median(&self, name: &str) -> f64 {
        median(self.values(name))
    }
    fn sum(&self, name: &str) -> f64 {
        self.values(name).iter().sum()
    }
    /// Whether every round ran every check and found nothing wrong.
    fn clean(&self, rounds: usize) -> bool {
        let checks = self.values("checks");
        checks.len() == rounds
            && checks.iter().all(|&c| c == round::CHECKS)
            && self.values("violations").iter().all(|&v| v == 0.0)
    }
    fn print(&self, names: &[(&str, &str)]) {
        for (name, unit) in names {
            let v = self.values(name);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "  {name:<30} {:>14.4} {unit:<6} (min {min:.4}, max {max:.4})",
                self.median(name)
            );
        }
    }
}

/// Run every round of every workload, round `r` of each workload before
/// round `r + 1` of any, so that machine drift lasting minutes hits every
/// workload alike. Prints each workload's metrics and result line; returns
/// whether all were correct.
fn run(args: Args) -> Result<bool, String> {
    let me = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let (rounds, measure) = if args.smoke {
        (1, Duration::from_secs(1))
    } else {
        (
            ROUNDS,
            Duration::from_secs_f64(args.seconds / f64::from(ROUNDS)),
        )
    };
    let names: Vec<&str> = args.workloads.iter().map(|w| w.name).collect();
    println!(
        "workload {}  seed {}  {rounds} round(s) of {:.2} s warm-up + {:.2} s measured  build {}",
        names.join(", "),
        args.seed,
        measure.as_secs_f64() / 4.0,
        measure.as_secs_f64(),
        if args.trace { "trace" } else { "plain" }
    );
    let mut results: Vec<(Rounds, Rounds)> = names.iter().map(|_| Default::default()).collect();
    for r in 0..rounds {
        for (name, (plain, traced)) in names.iter().zip(&mut results) {
            let mut child_args: Vec<String> = vec![
                "round".into(),
                "--workload".into(),
                (*name).into(),
                "--seed".into(),
                mix(args.seed, u64::from(r)).to_string(),
                "--measure-ms".into(),
                measure.as_millis().to_string(),
            ];
            if args.smoke {
                child_args.push("--smoke".into());
            }
            match &args.plain_bin {
                Some(bin) if args.trace => {
                    plain.add(&child(bin, &child_args)?);
                    traced.add(&child(&me, &child_args)?);
                }
                _ => plain.add(&child(&me, &child_args)?),
            }
        }
    }
    let mut all_correct = true;
    for (name, (plain, traced)) in names.iter().zip(results) {
        let outcome = summarize(&args, &me, name, rounds, plain, traced)?;
        println!("{}", outcome.to_line());
        all_correct &= outcome.correct;
    }
    Ok(all_correct)
}

/// One workload's result from its rounds; prints its metrics by name and
/// unit. A traced run also replays the workload through each layer here.
fn summarize(
    args: &Args,
    me: &Path,
    name: &str,
    rounds: u32,
    mut plain: Rounds,
    mut traced: Rounds,
) -> Result<Outcome, String> {
    println!("{name}:");
    let mut correct = plain.clean(rounds as usize);
    let attempted = plain.sum("attempted") + traced.sum("attempted");
    let failed = plain.sum("failed") + traced.sum("failed");
    plain.add(&BTreeMap::from([(
        "fail_ratio".to_string(),
        failed / attempted.max(1.0),
    )]));

    println!("end to end (median over rounds):");
    plain.print(&END_TO_END);
    plain.print(&UNGATED);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        correct &= traced.clean(rounds as usize);
        let mut layer_args = vec![
            "layers".into(),
            "--workload".into(),
            name.into(),
            "--seed".into(),
            args.seed.to_string(),
        ];
        if args.smoke {
            layer_args.push("--smoke".into());
        }
        let layers = child(me, &layer_args)?;
        correct &= layers.get("violations") == Some(&0.0);
        traced.add(&layers);
        let replayed_ns: f64 = [
            "wire.encode_ns",
            "wire.decode_ns",
            "route.shard_of_ns",
            "shard.apply_ns",
        ]
        .iter()
        .map(|layer| traced.median(layer))
        .sum();
        let unattributed = traced.median("p50_us") - replayed_ns / 1e3;
        let slowdown = 1.0 - traced.median("throughput_ops_s") / plain.median("throughput_ops_s");
        traced.add(&BTreeMap::from([
            ("budget.unattributed_us".to_string(), unattributed),
            ("trace.overhead_pct".to_string(), 100.0 * slowdown),
        ]));
        println!("per layer (traced rounds; replays once):");
        traced.print(&PER_LAYER);
        metrics.extend(PER_LAYER.iter().map(|&(n, u)| (n, traced.median(n), u)));
    } else {
        metrics.extend(END_TO_END.iter().map(|&(n, u)| (n, plain.median(n), u)));
    }
    println!(
        "checks: exactly-once, per-client order and shard totals ran in {} round(s): {}",
        rounds * if args.trace { 2 } else { 1 },
        if correct { "all passed" } else { "VIOLATED" }
    );
    Ok(Outcome {
        correct,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: metrics
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect(),
    })
}

/// The `round` and `layers` children: `--workload W --seed N
/// [--measure-ms M] [--smoke]`; print one flat JSON line.
fn run_child(kind: &str, args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let (mut seed, mut measure_ms, mut smoke) = (0u64, 1000u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Workload::by_name(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--measure-ms" => measure_ms = value()?.parse().map_err(|_| "bad --measure-ms")?,
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let mut w = workload.ok_or("--workload names no workload")?;
    if smoke {
        w = w.smoke();
    }
    let measure = Duration::from_millis(measure_ms);
    let result = match kind {
        "round" => round::run(&w, seed, measure / 4, measure),
        _ => layers::run(&w, seed),
    };
    println!("{}", report::flat_line(&result));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some(kind @ ("round" | "layers")) => run_child(kind, &args[1..]).map(|()| true),
        Some("compare") => compare::run(&args[1..]),
        _ => parse_args(&args).and_then(run),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
