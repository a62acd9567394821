//! E10 — monitored torture throughput: native Figure 2 vs lock-based.
//!
//! Unlike E8's raw loops, both columns here run under the `sbu-stress`
//! harness with the online linearizability monitor live — every quiescent
//! window of the recorded history is checked while the workers run, so each
//! number is a *verified* ops/sec figure. The native column drives the
//! Figure 2 sticky byte (`JamWord`, helping protocol, wait-free); the
//! baseline wraps the same sequential `JamWordSpec` in the spin-lock
//! strawman (`SpinLockUniversal`, blocking). The paper's trade is progress
//! guarantees, not raw speed; on a single core the lock often wins — the
//! point is that the wait-free object stays correct and live under the same
//! torture where a lock holder can stall everyone.

use crate::{json_rows, write_artifacts, Table};
use sbu_obs::Json;
use sbu_stress::{
    run_jam_backoff, run_lock_based_jam, run_workload, Inject, Options, StressConfig, Workload,
};

/// Candidate-switch backoff cap for the tuned arm. A failed bit jam spins
/// locally up to this many rounds before rescanning candidates; the shared
/// step sequence is untouched, so the monitor verdicts are identical. Picked
/// by sweeping {2, 6, 16} at 4–8 threads on the reference box.
const TUNED_BACKOFF_LIMIT: u32 = 6;

/// One thread count of the monitored torture, verified ops/sec.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Concurrent worker threads.
    pub threads: usize,
    /// Figure 2 `JamWord`, default backoff.
    pub native_jam: f64,
    /// Figure 2 `JamWord`, backoff capped at `TUNED_BACKOFF_LIMIT`.
    pub native_jam_tuned: f64,
    /// The same spec behind `SpinLockUniversal`.
    pub spin_lock_jam: f64,
    /// Windows the monitor checked on the native arm.
    pub windows_native: usize,
    /// Windows the monitor checked on the lock arm.
    pub windows_lock: usize,
}

fn torture_table() -> Table<E10Row> {
    Table::<E10Row>::new(
        "E10  monitored torture, ops/sec (Figure 2 JamWord; every window checked online)",
    )
    .num("threads", "threads", 0, |r| r.threads as f64)
    .num("native jam", "native_jam", 0, |r| r.native_jam)
    .num("tuned jam", "native_jam_tuned", 0, |r| r.native_jam_tuned)
    .json("tuned_backoff_limit", |_| {
        Json::Num(f64::from(TUNED_BACKOFF_LIMIT))
    })
    .num("spin-lock jam", "spin_lock_jam", 0, |r| r.spin_lock_jam)
    .text("tuned/lock", |r| {
        format!("{:.2}x", r.native_jam_tuned / r.spin_lock_jam)
    })
    .num("windows (native)", "windows_native", 0, |r| {
        r.windows_native as f64
    })
    .num("windows (lock)", "windows_lock", 0, |r| {
        r.windows_lock as f64
    })
}

/// The `BENCH_e10.json` document (schema in EXPERIMENTS.md).
pub fn to_json(rows: &[E10Row]) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str("e10".into())),
        ("object", Json::Str("jam_word".into())),
        ("unit", Json::Str("ops_per_sec".into())),
        ("rows", json_rows(rows, &[&torture_table()])),
    ])
}

/// Run the experiment, write `BENCH_e10.json`, and return the report.
pub fn run() -> Result<String, String> {
    let mut rows = Vec::new();
    let mut last_native_metrics = sbu_obs::Snapshot::default();
    for &threads in &[1usize, 2, 4, 8] {
        // Each sweep point is expressed as stress-CLI flags and parsed by
        // the same `Options::parse` the stress example uses, so E10 can
        // never drift from the driver's flag semantics or defaults.
        let opts = Options::parse([
            "--threads".to_string(),
            threads.to_string(),
            "--ops".to_string(),
            "4000".to_string(),
            "--seed".to_string(),
            0xE10u64.to_string(),
        ])
        .expect("E10's own flag list parses");
        let mut cfg = StressConfig::new(
            opts.threads,
            opts.total_ops.div_ceil(opts.threads),
            opts.seed,
        );
        cfg.objects = opts.objects;

        let native = run_workload(Workload::Jam, &cfg, Inject::None);
        native.assert_clean();
        let tuned = run_jam_backoff(&cfg, TUNED_BACKOFF_LIMIT);
        tuned.assert_clean();
        let lock = run_lock_based_jam(&cfg);
        lock.assert_clean();
        last_native_metrics = native.metrics.clone();
        rows.push(E10Row {
            threads,
            native_jam: native.ops_per_sec(),
            native_jam_tuned: tuned.ops_per_sec(),
            spin_lock_jam: lock.ops_per_sec(),
            windows_native: native.windows_checked,
            windows_lock: lock.windows_checked,
        });
    }
    let mut report = torture_table().render(&rows);
    if !last_native_metrics.is_empty() {
        report.push('\n');
        report.push_str(
            &last_native_metrics.render_table("E10  native-arm instruments (8-thread sweep)"),
        );
    }
    report.push_str(&write_artifacts(
        "e10",
        Some(&to_json(&rows)),
        &last_native_metrics,
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_has_the_documented_shape() {
        let rows = [E10Row {
            threads: 4,
            native_jam: 100.0,
            native_jam_tuned: 150.0,
            spin_lock_jam: 300.0,
            windows_native: 12,
            windows_lock: 34,
        }];
        let doc = to_json(&rows);
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("e10"));
        assert_eq!(doc.get("object").unwrap().as_str(), Some("jam_word"));
        let row = &doc.get("rows").unwrap().as_arr().unwrap()[0];
        for (key, value) in [
            ("threads", 4.0),
            ("native_jam", 100.0),
            ("native_jam_tuned", 150.0),
            ("tuned_backoff_limit", 6.0),
            ("spin_lock_jam", 300.0),
            ("windows_native", 12.0),
            ("windows_lock", 34.0),
        ] {
            assert_eq!(row.get(key).unwrap().as_num(), Some(value), "{key}");
        }
        // And it survives a round trip through the parser.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
