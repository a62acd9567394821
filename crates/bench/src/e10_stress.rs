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
//!
//! A second table re-sweeps the backoff cap for the bounded construction
//! applying blocks ([`sbu_core::Universal::apply_batch`], via the E14
//! harness), and fails the experiment if any cell's counter does not read
//! back exactly.

use crate::{json_rows, write_artifacts, Table};
use sbu_core::bounded::UniversalConfig;
use sbu_obs::Json;
use sbu_stress::{
    run_jam_backoff, run_lock_based_jam, run_workload, Inject, Options, StressConfig, Workload,
};

/// Candidate-switch backoff cap for the tuned arm. A failed bit jam spins
/// locally up to this many rounds before rescanning candidates; the shared
/// step sequence is untouched, so the monitor verdicts are identical. Picked
/// by sweeping {2, 6, 16} at 4–8 threads on the reference box.
const TUNED_BACKOFF_LIMIT: u32 = 6;

/// Backoff caps re-swept with block apply. Blocks change how often the
/// sticky words are contended — one append per block, not per command — so
/// the E10 cap tuned for per-command traffic is re-validated rather than
/// assumed.
const BATCHED_BACKOFF_SWEEP: [u32; 3] = [2, 6, 16];

/// Production backoff cap for block apply, picked by the E10 batched-arm
/// sweep at 4–8 threads on the reference box (see EXPERIMENTS.md §E10).
/// The per-command cap carried over: larger caps only delay the candidate
/// rescan.
pub const BATCHED_BACKOFF_LIMIT: u32 = 6;

/// Block size used for the batched backoff sweep (E14's largest).
const BATCHED_SWEEP_CAP: usize = 8;

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

/// One cell of the batched-configuration backoff re-sweep.
#[derive(Debug, Clone)]
pub struct BackoffRow {
    /// Concurrent processors.
    pub threads: usize,
    /// Candidate-switch backoff cap.
    pub backoff_limit: u32,
    /// Commands/sec in blocks of the sweep's block size.
    pub commands_per_sec: f64,
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

fn backoff_table() -> Table<BackoffRow> {
    Table::<BackoffRow>::new(
        "E10  block-apply backoff re-sweep, commands/sec \
         (blocks of 8, counter read back; production cap marked)",
    )
    .num("threads", "threads", 0, |r| r.threads as f64)
    .num("backoff cap", "backoff_limit", 0, |r| {
        f64::from(r.backoff_limit)
    })
    .num("batched cmd/s", "commands_per_sec", 0, |r| {
        r.commands_per_sec
    })
    .text("production", |r| {
        if r.backoff_limit == BATCHED_BACKOFF_LIMIT {
            "yes".into()
        } else {
            String::new()
        }
    })
}

/// The `BENCH_e10.json` document (schema in EXPERIMENTS.md).
pub fn to_json(rows: &[E10Row], backoff: &[BackoffRow]) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str("e10".into())),
        ("object", Json::Str("jam_word".into())),
        ("unit", Json::Str("ops_per_sec".into())),
        ("rows", json_rows(rows, &[&torture_table()])),
        (
            "batched_backoff",
            Json::obj(vec![
                ("batch_cap", Json::Num(BATCHED_SWEEP_CAP as f64)),
                (
                    "production_limit",
                    Json::Num(f64::from(BATCHED_BACKOFF_LIMIT)),
                ),
                ("rows", json_rows(backoff, &[&backoff_table()])),
            ]),
        ),
    ])
}

/// Run the experiment, write `BENCH_e10.json`, and return the report;
/// `Err` if a batched cell lost or duplicated a command.
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
    // Block-apply backoff re-sweep: the same backoff caps, but driving the
    // bounded construction with blocks of 8 instead of per-command JamWord
    // traffic. Commands/sec via the E14 harness so the arms stay comparable
    // with that experiment's table; each cell reads its counter back.
    let mut backoff = Vec::new();
    let backoff_registry = sbu_obs::Registry::new(8);
    for &threads in &[4usize, 8] {
        for &limit in &BATCHED_BACKOFF_SWEEP {
            let config = UniversalConfig::for_procs(threads).with_backoff_limit(limit);
            backoff.push(BackoffRow {
                threads,
                backoff_limit: limit,
                commands_per_sec: crate::e14_batch::batched_throughput_with(
                    threads,
                    2_000,
                    BATCHED_SWEEP_CAP,
                    config,
                    &backoff_registry,
                )?,
            });
        }
    }
    let mut report = torture_table().render(&rows);
    report.push('\n');
    report.push_str(&backoff_table().render(&backoff));
    if !last_native_metrics.is_empty() {
        report.push('\n');
        report.push_str(
            &last_native_metrics.render_table("E10  native-arm instruments (8-thread sweep)"),
        );
    }
    report.push_str(&write_artifacts(
        "e10",
        Some(&to_json(&rows, &backoff)),
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
        let backoff = [BackoffRow {
            threads: 8,
            backoff_limit: 16,
            commands_per_sec: 250.0,
        }];
        let doc = to_json(&rows, &backoff);
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
        let batched = doc.get("batched_backoff").unwrap();
        assert_eq!(batched.get("batch_cap").unwrap().as_num(), Some(8.0));
        assert_eq!(batched.get("production_limit").unwrap().as_num(), Some(6.0));
        let cell = &batched.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(cell.get("threads").unwrap().as_num(), Some(8.0));
        assert_eq!(cell.get("backoff_limit").unwrap().as_num(), Some(16.0));
        assert_eq!(cell.get("commands_per_sec").unwrap().as_num(), Some(250.0));
        // And it survives a round trip through the parser.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
