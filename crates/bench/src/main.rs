//! `exp` — regenerate the paper-reproduction tables (see EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p sbu-bench --bin exp -- all
//! cargo run --release -p sbu-bench --bin exp -- e1 e5
//! cargo run --release -p sbu-bench --bin exp -- e8 --baseline benchmarks/BENCH_e8_baseline.json
//! ```
//!
//! E8 and E10–E15 also write `BENCH_<exp>.json` into the working directory
//! (schemas in EXPERIMENTS.md). With `--baseline <path>`, E8 additionally
//! compares its fresh numbers against the recorded baseline and exits
//! non-zero on a >30% `bounded_fast` regression — the CI perf smoke.
//!
//! `exp e12` sweeps the sharded `sbu-service` runtime; `exp e12 --smoke`
//! is the capped CI arm (1 vs 4 shards at 4 clients, exits non-zero if
//! sharding does not pay or `service.route` recorded nothing under obs).
//!
//! `exp e13` sweeps the fault plane (goodput and retry amplification vs
//! drop rate) and exits non-zero if a cell lost or double-applied an acked
//! op or — under obs — amplified past `1/(1-p)²` plus
//! `e13_faults::AMPLIFICATION_MARGIN`; `exp e13 --smoke` runs one cell
//! under the full lossy profile and exits non-zero if an acked op was lost
//! or double-applied, or — under obs — if the shim injected nothing.
//!
//! `exp e14` sweeps block apply (batched vs per-command commands/sec at
//! several block sizes) and exits non-zero if any arm's counter does not
//! read back exactly; `exp e14 --smoke` is the CI arm — batched must not
//! lose to per-command at 4 threads, and under obs the `core.batch_size`
//! histogram must show real multi-command blocks.
//!
//! `exp e15` measures the transport tax — the matched closed-loop counter
//! workload over in-process mailboxes, a Unix-domain socket, and TCP
//! loopback, plus a lossy-socket exactly-once leg — and exits non-zero if
//! any leg lost or double-applied an acked op; `exp e15 --smoke` is the CI
//! arm (a small lossy Unix cell that must hold exactly-once with
//! live `service.accept` traffic).
//!
//! `exp scenarios [...]` runs the deterministic scenario matrix instead
//! (see `sbu-scenario` and EXPERIMENTS.md): every remaining argument goes
//! to that driver, and its exit code (0 ok / 1 verdict or coverage
//! regression / 2 usage) becomes the process's.

use sbu_bench::*;
use std::time::Instant;

/// An experiment's run, given the `--baseline` path: its report, or — when
/// one of its checks failed — the report that makes `exp` exit 1.
type Run = fn(Option<&str>) -> Result<String, String>;

/// The quick CI form that `--smoke` selects, where an experiment has one.
type Smoke = fn() -> Result<String, String>;

/// Every experiment, in `all` order.
const EXPERIMENTS: &[(&str, Run, Option<Smoke>)] = &[
    ("e1", |_| Ok(e1_sticky_byte::run()), None),
    ("e2", |_| Ok(e2_election::run()), None),
    ("e3", |_| Ok(e3_space::run()), None),
    ("e4", |_| Ok(e4_time::run()), None),
    ("e5", |_| Ok(e5_crash::run()), None),
    ("e6", |_| Ok(e6_hierarchy::run()), None),
    ("e7", |_| Ok(e7_randomized::run()), None),
    ("e8", e8_throughput::run, None),
    ("e9", |_| Ok(e9_explore::run()), None),
    ("e10", |_| e10_stress::run(), None),
    ("e11", |_| Ok(e11_recovery::run()), None),
    ("e12", |_| e12_service::run(), Some(e12_service::run_smoke)),
    ("e13", |_| e13_faults::run(), Some(e13_faults::run_smoke)),
    ("e14", |_| e14_batch::run(), Some(e14_batch::run_smoke)),
    ("e15", |_| e15_socket::run(), Some(e15_socket::run_smoke)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The scenario matrix has its own flag surface; hand everything after
    // the subcommand name straight through.
    if args.first().map(String::as_str) == Some("scenarios") {
        std::process::exit(sbu_scenario::cli::run(&args[1..]));
    }
    let mut baseline: Option<String> = None;
    let mut smoke = false;
    let mut names: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--baseline" {
            match iter.next() {
                Some(path) => baseline = Some(path.clone()),
                None => {
                    eprintln!("--baseline requires a path");
                    std::process::exit(2);
                }
            }
        } else if arg == "--smoke" {
            smoke = true;
        } else {
            names.push(arg.as_str());
        }
    }
    if names.is_empty() || names.contains(&"all") {
        names = EXPERIMENTS.iter().map(|&(name, ..)| name).collect();
    }
    for exp in names {
        let Some(&(_, run, smoke_run)) = EXPERIMENTS.iter().find(|&&(name, ..)| name == exp) else {
            eprintln!("unknown experiment {exp:?}; use e1..e15, scenarios, or all");
            std::process::exit(2);
        };
        let t0 = Instant::now();
        let outcome = match smoke_run {
            Some(smoke_run) if smoke => smoke_run(),
            _ => run(baseline.as_deref()),
        };
        match outcome {
            Ok(report) => {
                println!("{report}");
                println!("[{exp} took {:.1?}]\n", t0.elapsed());
            }
            Err(report) => {
                println!("{report}");
                std::process::exit(1);
            }
        }
    }
}
