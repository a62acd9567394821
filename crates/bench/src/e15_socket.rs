//! E15 — the transport tax: in-process vs Unix socket vs TCP loopback.
//!
//! The `Transport` seam (ISSUE 10) lets the same service run over
//! in-process mailboxes or a real kernel socket without changing a line
//! above the byte plane. E15 measures what crossing the kernel costs: the
//! identical closed-loop counter workload at matched shard/worker/client
//! counts over all three transports, reporting throughput plus the
//! **syscall tax** — `service.read_syscall` per acked op, the number of
//! `read(2)` calls the server spent assembling each request's frames
//! (partial reads surface separately as `service.partial_frame`).
//!
//! A fourth leg repeats the Unix cell under the full lossy byte-level
//! profile ([`FaultProfile::lossy`]) to pin the reliability claim on a
//! real wire: retransmission plus `(client, seq)` dedup keeps acked ops
//! exactly-once (per-shard applied totals sum to the acked count) even
//! when frames are dropped, duplicated, delayed, and corrupted between
//! two kernel endpoints.
//!
//! Artifacts: `BENCH_e15.json` and, under `obs`, `OBS_e15.json` (the Unix
//! leg's instruments; schemas in EXPERIMENTS.md). `run_smoke` is the CI
//! arm — a small Unix-socket cell that must show live `service.accept`
//! activity and hold exactly-once.

use crate::{render_table, write_obs_artifact};
use sbu_obs::Json;
use sbu_service::loadgen::{self, LoadgenConfig, LoadgenReport};
use sbu_service::{FaultProfile, TransportConfig};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// Requests each client issues per leg.
pub const OPS_PER_CLIENT: usize = 2_000;

/// Closed-loop clients per leg (also the expected `service.accept` count
/// on the socket legs: one connection per client).
pub const CLIENTS: usize = 4;

/// One transport leg's measurements.
#[derive(Debug, Clone)]
pub struct E15Row {
    /// Transport label: `in-process`, `unix`, `tcp`, or `unix+lossy`.
    pub transport: String,
    /// Requests issued.
    pub ops: u64,
    /// Requests acknowledged with a response.
    pub acked: u64,
    /// Requests that ended in a typed error.
    pub failures: u64,
    /// Acked requests per second.
    pub ops_per_sec: f64,
    /// Connections the acceptor admitted (`service.accept`; 0 in-process
    /// and without the obs feature).
    pub accepts: u64,
    /// Connections dropped server-side (`service.conn_drop`).
    pub conn_drops: u64,
    /// `read(2)` calls the server's readers issued (`service.read_syscall`).
    pub read_syscalls: u64,
    /// Reads that ended mid-frame (`service.partial_frame`).
    pub partial_frames: u64,
    /// Client retransmissions (`service.retry`).
    pub retries: u64,
    /// `read_syscalls / acked` — kernel reads per acked request.
    pub syscall_tax: f64,
    /// Whether per-shard applied totals sum to exactly `acked` with zero
    /// failures — the exactly-once evidence.
    pub exact: bool,
}

/// A scratch Unix-socket path unique within the process.
fn scratch_socket(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sbu-e15-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Whether this environment permits TCP loopback sockets (sandboxes may
/// not); the TCP leg is skipped with a note when it does not.
pub fn tcp_available() -> bool {
    std::net::TcpListener::bind("127.0.0.1:0").is_ok()
}

fn leg_config(transport: TransportConfig, ops: usize, seed: u64, timing: bool) -> LoadgenConfig {
    LoadgenConfig {
        clients: CLIENTS,
        shards: 4,
        workers: 2,
        ops_per_client: ops,
        keys: 256,
        transport,
        seed,
        timing,
        ..Default::default()
    }
}

fn row_from(transport: &str, report: &LoadgenReport) -> E15Row {
    let read_syscalls = report.metrics.counter("service.read_syscall");
    let applied: u64 = report.shards.iter().map(|s| s.ops).sum();
    E15Row {
        transport: transport.into(),
        ops: report.ops,
        acked: report.acked,
        failures: report.failures,
        ops_per_sec: report.ops_per_sec,
        accepts: report.metrics.counter("service.accept"),
        conn_drops: report.metrics.counter("service.conn_drop"),
        read_syscalls,
        partial_frames: report.metrics.counter("service.partial_frame"),
        retries: report.metrics.counter("service.retry"),
        syscall_tax: if report.acked == 0 {
            0.0
        } else {
            read_syscalls as f64 / report.acked as f64
        },
        exact: report.failures == 0 && applied == report.acked,
    }
}

fn run_leg(label: &str, transport: TransportConfig, fault: Option<FaultProfile>) -> E15Row {
    let unix_path = match &transport {
        TransportConfig::Unix(path) => Some(path.clone()),
        _ => None,
    };
    let mut config = leg_config(transport, OPS_PER_CLIENT, 0xE15, true);
    config.fault = fault;
    let report = loadgen::run(&config, CounterSpec::new(), |_| CounterOp::Inc);
    if let Some(path) = unix_path {
        let _ = std::fs::remove_file(path);
    }
    row_from(label, &report)
}

/// Run every leg; `metrics` receives the honest Unix leg's instruments
/// (the `OBS_e15.json` payload). The TCP leg is omitted (with a note in
/// the report, handled by the caller) when loopback TCP is unavailable.
pub fn measure(metrics: &mut sbu_obs::Snapshot) -> Vec<E15Row> {
    let mut rows = vec![run_leg("in-process", TransportConfig::InProcess, None)];

    let unix_path = scratch_socket("bench");
    let config = leg_config(
        TransportConfig::Unix(unix_path.clone()),
        OPS_PER_CLIENT,
        0xE15,
        true,
    );
    let report = loadgen::run(&config, CounterSpec::new(), |_| CounterOp::Inc);
    let _ = std::fs::remove_file(&unix_path);
    metrics.merge(&report.metrics);
    rows.push(row_from("unix", &report));

    if tcp_available() {
        rows.push(run_leg(
            "tcp",
            TransportConfig::Tcp("127.0.0.1:0".into()),
            None,
        ));
    }

    rows.push(run_leg(
        "unix+lossy",
        TransportConfig::Unix(scratch_socket("lossy")),
        Some(FaultProfile::lossy()),
    ));
    rows
}

/// The `BENCH_e15.json` document (schema in EXPERIMENTS.md).
pub fn to_json(rows: &[E15Row]) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str("e15".into())),
        ("object", Json::Str("counter".into())),
        ("unit", Json::Str("ops_per_sec".into())),
        ("ops_per_client", Json::Num(OPS_PER_CLIENT as f64)),
        ("clients", Json::Num(CLIENTS as f64)),
        ("mode", Json::Str("closed".into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("transport", Json::Str(r.transport.clone())),
                            ("ops", Json::Num(r.ops as f64)),
                            ("acked", Json::Num(r.acked as f64)),
                            ("failures", Json::Num(r.failures as f64)),
                            ("ops_per_sec", Json::Num(r.ops_per_sec)),
                            ("accepts", Json::Num(r.accepts as f64)),
                            ("conn_drops", Json::Num(r.conn_drops as f64)),
                            ("read_syscalls", Json::Num(r.read_syscalls as f64)),
                            ("partial_frames", Json::Num(r.partial_frames as f64)),
                            ("retries", Json::Num(r.retries as f64)),
                            ("syscall_tax", Json::Num(r.syscall_tax)),
                            ("exact", Json::Bool(r.exact)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn render(rows: &[E15Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.transport.clone(),
                r.acked.to_string(),
                format!("{:.0}", r.ops_per_sec),
                r.accepts.to_string(),
                r.read_syscalls.to_string(),
                format!("{:.2}", r.syscall_tax),
                r.partial_frames.to_string(),
                r.retries.to_string(),
                r.failures.to_string(),
                if r.exact { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    render_table(
        "E15  transport tax: matched closed-loop counter over each byte plane (release build recommended)",
        &[
            "transport",
            "acked",
            "ops/sec",
            "accepts",
            "reads",
            "reads/op",
            "partial",
            "retries",
            "fail",
            "exact",
        ],
        &table_rows,
    )
}

/// Run the sweep, write `BENCH_e15.json` (+ `OBS_e15.json` under `obs`),
/// and verify the acceptance claims: every leg exactly-once, and — under
/// obs — the socket legs saw one accept per client and real `read(2)`
/// traffic while the in-process leg saw none. `Err` carries the report.
pub fn run_checked() -> Result<String, String> {
    let mut metrics = sbu_obs::Snapshot::default();
    let rows = measure(&mut metrics);

    let mut report = render(&rows);
    if !tcp_available() {
        report.push_str("note: TCP loopback unavailable in this environment; tcp leg skipped\n");
    }
    report.push_str(&metrics.render_table("E15  service instruments (honest unix leg)"));
    match std::fs::write("BENCH_e15.json", to_json(&rows).render()) {
        Ok(()) => report.push_str("wrote BENCH_e15.json\n"),
        Err(e) => report.push_str(&format!("could not write BENCH_e15.json: {e}\n")),
    }
    report.push_str(&write_obs_artifact("e15", &metrics));

    let mut ok = true;
    for r in &rows {
        if !r.exact {
            ok = false;
            report.push_str(&format!("FAIL: {} leg not exactly-once\n", r.transport));
        }
    }
    if cfg!(feature = "obs") {
        for r in &rows {
            let socket = r.transport != "in-process";
            if socket && (r.accepts < CLIENTS as u64 || r.read_syscalls == 0) {
                ok = false;
                report.push_str(&format!(
                    "FAIL: {} leg shows no live socket traffic ({} accepts, {} reads)\n",
                    r.transport, r.accepts, r.read_syscalls
                ));
            }
            if !socket && r.read_syscalls != 0 {
                ok = false;
                report.push_str("FAIL: in-process leg recorded read syscalls\n");
            }
        }
    }
    let tax: Vec<String> = rows
        .iter()
        .map(|r| format!("{} {:.2}", r.transport, r.syscall_tax))
        .collect();
    report.push_str(&format!(
        "acceptance: {}/{} legs exactly-once; reads per acked op: {}\n",
        rows.iter().filter(|r| r.exact).count(),
        rows.len(),
        tax.join(", ")
    ));
    if ok {
        Ok(report)
    } else {
        Err(report)
    }
}

/// Run the experiment without failing the process on the acceptance check
/// (interactive `exp e15`).
pub fn run() -> String {
    match run_checked() {
        Ok(report) => report,
        Err(report) => report + "WARNING: acceptance check failed on this machine\n",
    }
}

/// The CI smoke: one small cell over a real Unix-domain socket under the
/// full lossy profile. Must hold exactly-once, and — under obs — show a
/// live accept per client plus retransmissions actually doing work.
/// Writes `OBS_e15.json` under obs. `Err` carries the report on failure.
pub fn run_smoke() -> Result<String, String> {
    let path = scratch_socket("smoke");
    let mut config = leg_config(TransportConfig::Unix(path.clone()), 200, 0xE15, true);
    config.clients = 2;
    config.keys = 64;
    config.fault = Some(FaultProfile::lossy());
    let report = loadgen::run(&config, CounterSpec::new(), |_| CounterOp::Inc);
    let _ = std::fs::remove_file(&path);
    let row = row_from("unix+lossy", &report);
    let mut out = format!(
        "E15 smoke @2 clients over unix socket, full lossy profile: {} acked, \
         {} failures, {} accepts, {} reads ({:.2}/op), {} retries, exact={}\n",
        row.acked,
        row.failures,
        row.accepts,
        row.read_syscalls,
        row.syscall_tax,
        row.retries,
        row.exact
    );
    out.push_str(&write_obs_artifact("e15", &report.metrics));
    if !row.exact {
        return Err(out + "FAIL: lossy socket smoke lost or double-applied an acked op\n");
    }
    if cfg!(feature = "obs") {
        if row.accepts < 2 {
            return Err(out + "FAIL: service.accept shows no live socket connections\n");
        }
        if row.read_syscalls == 0 {
            return Err(out + "FAIL: service.read_syscall recorded nothing\n");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_schema_carries_every_axis() {
        let rows = vec![E15Row {
            transport: "unix".into(),
            ops: 8000,
            acked: 8000,
            failures: 0,
            ops_per_sec: 123_456.0,
            accepts: 4,
            conn_drops: 0,
            read_syscalls: 9000,
            partial_frames: 12,
            retries: 0,
            syscall_tax: 1.125,
            exact: true,
        }];
        let doc = to_json(&rows).render();
        for needle in [
            "\"experiment\": \"e15\"",
            "\"transport\": \"unix\"",
            "\"accepts\": 4",
            "\"read_syscalls\": 9000",
            "\"syscall_tax\": 1.125",
            "\"partial_frames\": 12",
            "\"exact\": true",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
        assert_eq!(Json::parse(&doc).unwrap(), to_json(&rows));
    }

    #[test]
    fn smoke_cell_holds_exactly_once_over_a_real_socket() {
        let report = run_smoke().expect("lossy unix smoke");
        assert!(report.contains("exact=true"), "{report}");
        let _ = std::fs::remove_file("OBS_e15.json");
    }
}
