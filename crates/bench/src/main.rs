//! `exp` — regenerate the paper-reproduction tables (see EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p sbu-bench --bin exp -- all
//! cargo run --release -p sbu-bench --bin exp -- e1 e5
//! cargo run --release -p sbu-bench --bin exp -- e8 --baseline benchmarks/BENCH_e8_baseline.json
//! ```
//!
//! E8/E10/E11 also write `BENCH_<exp>.json` next to the working directory
//! (schema in EXPERIMENTS.md). With `--baseline <path>`, E8 additionally
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
//! `exp e14` sweeps the group-commit batch apply (batched vs per-command
//! commands/sec at several batch caps); `exp e14 --smoke` is the CI arm —
//! batched must not lose to per-command at 4 threads, and under obs the
//! `core.batch_size` histogram must show real multi-command batches.
//!
//! `exp e15` measures the transport tax — the matched closed-loop counter
//! workload over in-process mailboxes, a Unix-domain socket, and TCP
//! loopback, plus a lossy-socket exactly-once leg; `exp e15 --smoke` is
//! the CI arm (a small lossy Unix cell that must hold exactly-once with
//! live `service.accept` traffic).
//!
//! `exp scenarios [...]` runs the deterministic scenario matrix instead
//! (see `sbu-scenario` and EXPERIMENTS.md): every remaining argument goes
//! to that driver, and its exit code (0 ok / 1 verdict or coverage
//! regression / 2 usage) becomes the process's.

use std::time::Instant;

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
    let selected: Vec<&str> = if names.is_empty() || names.contains(&"all") {
        vec![
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e14", "e15",
        ]
    } else {
        names
    };
    for exp in selected {
        let t0 = Instant::now();
        let report = match exp {
            "e1" => sbu_bench::e1_sticky_byte::run(),
            "e2" => sbu_bench::e2_election::run(),
            "e3" => sbu_bench::e3_space::run(),
            "e4" => sbu_bench::e4_time::run(),
            "e5" => sbu_bench::e5_crash::run(),
            "e6" => sbu_bench::e6_hierarchy::run(),
            "e7" => sbu_bench::e7_randomized::run(),
            "e8" => match sbu_bench::e8_throughput::run_checked(baseline.as_deref()) {
                Ok(report) => report,
                Err(report) => {
                    println!("{report}");
                    std::process::exit(1);
                }
            },
            "e9" => sbu_bench::e9_explore::run(),
            "e10" => sbu_bench::e10_stress::run(),
            "e11" => sbu_bench::e11_recovery::run(),
            "e12" if smoke => match sbu_bench::e12_service::run_smoke() {
                Ok(report) => report,
                Err(report) => {
                    println!("{report}");
                    std::process::exit(1);
                }
            },
            "e12" => sbu_bench::e12_service::run(),
            "e13" if smoke => match sbu_bench::e13_faults::run_smoke() {
                Ok(report) => report,
                Err(report) => {
                    println!("{report}");
                    std::process::exit(1);
                }
            },
            "e13" => match sbu_bench::e13_faults::run_checked() {
                Ok(report) => report,
                Err(report) => {
                    println!("{report}");
                    std::process::exit(1);
                }
            },
            "e14" if smoke => match sbu_bench::e14_batch::run_smoke() {
                Ok(report) => report,
                Err(report) => {
                    println!("{report}");
                    std::process::exit(1);
                }
            },
            "e14" => sbu_bench::e14_batch::run(),
            "e15" if smoke => match sbu_bench::e15_socket::run_smoke() {
                Ok(report) => report,
                Err(report) => {
                    println!("{report}");
                    std::process::exit(1);
                }
            },
            "e15" => sbu_bench::e15_socket::run(),
            other => {
                eprintln!("unknown experiment {other:?}; use e1..e15, scenarios, or all");
                std::process::exit(2);
            }
        };
        println!("{report}");
        println!("[{exp} took {:.1?}]\n", t0.elapsed());
    }
}
