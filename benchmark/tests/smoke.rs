//! `--smoke` runs of the built binary: one 1 s round of every workload, on
//! key spaces 16× smaller, must report every metric it owes and pass every
//! correctness check.

use sbu_obs::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "closed-uniform",
    "pipelined-hot",
    "pipelined-unix",
    "lossy-unix",
];
const GATED: [&str; 4] = ["throughput_ops_s", "p50_us", "setup_s", "peak_rss_mb"];
const EXE: &str = env!("CARGO_BIN_EXE_sbu-benchmark");

/// Run the benchmark with `args`; returns (exit code, stdout).
fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code().unwrap_or(-1), stdout)
}

/// Smoke-run `workload` (or `all`); assert each workload it ran passed
/// every check and reported exactly the metrics in `want`, each a positive
/// number. Returns the result lines, one per workload, the last one last.
fn smoke(workload: &str, extra: &[&str], want: &[&str]) -> Vec<String> {
    let mut args = vec!["--smoke", "--workload", workload, "--seed", "7"];
    args.extend_from_slice(extra);
    let (code, stdout) = bench(&args);
    assert_eq!(code, 0, "{workload}: exit {code}\n{stdout}");
    let results: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(String::from)
        .collect();
    assert_eq!(
        stdout
            .matches("exactly-once, per-client order and shard totals ran in")
            .count(),
        results.len(),
        "{workload}: checks did not all run\n{stdout}"
    );
    assert_eq!(
        Some(stdout.lines().last().unwrap_or_default()),
        results.last().map(String::as_str)
    );
    for line in &results {
        check_result(workload, line, want);
    }
    results
}

fn check_result(workload: &str, line: &str, want: &[&str]) {
    let result = Json::parse(line).expect("JSON result line");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert!(result.get("attempted").and_then(Json::as_num) >= Some(1.0));
    assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut sorted = want.to_vec();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "{workload}: metric names");
    for name in GATED {
        if let Some(m) = metrics.get(name) {
            let value = m.get("value").and_then(Json::as_num).expect("value");
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn every_workload_reports_every_gated_metric_and_passes_its_checks() {
    let results = smoke("all", &["--trace", "0"], &GATED);
    assert_eq!(results.len(), WORKLOADS.len());
}

#[cfg(feature = "trace")]
#[test]
fn traced_runs_report_every_per_layer_metric() {
    let per_layer = [
        "client.submit_us.p50",
        "client.wait_us.p50",
        "client.wait_us.p99",
        "client.retry_per_op",
        "client.stale_per_op",
        "wire.encode_ns",
        "wire.decode_ns",
        "route.shard_of_ns",
        "server.queue_depth_mean",
        "server.batch_size_mean",
        "server.dedup_hit_per_op",
        "transport.reads_per_op",
        "transport.partial_per_op",
        "fault.drop_per_op",
        "shard.apply_ns",
        "shard.apply_batch_ns_per_op",
        "shard.first_touch_us",
        "shard.bytes_per_key",
        "core.apply_ns",
        "core.build_us",
        "budget.unattributed_us",
        "trace.overhead_pct",
    ];
    for workload in WORKLOADS {
        let results = smoke(workload, &["--trace", "1", "--plain-bin", EXE], &per_layer);
        assert_eq!(results.len(), 1);
    }
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "no-such-workload"][..],
        &["--workload", "lossy-unix", "--seconds", "0"][..],
    ] {
        let (code, stdout) = bench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
