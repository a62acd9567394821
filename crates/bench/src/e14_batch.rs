//! E14 — block apply vs per-command apply, native threads.
//!
//! [`Universal::apply_batch`] stores a whole block of commands in one cell
//! and appends it by the paper's protocol (announce, append, help), so a
//! block pays **one** GFC + append round and one scan back and recompute
//! for all of its commands (Def 3.1 lets one append linearize the block).
//! This experiment measures what that amortization buys on real threads:
//! commands per second for per-command apply vs blocks at several caps,
//! with the spin-lock arm from E8 alongside — the batched column is how
//! far blocks close the wait-free construction's gap to a lock.
//!
//! Each thread issues the same total number of commands in every arm; the
//! batched arms submit them as blocks of `cap` commands, so a block costs
//! one protocol round instead of `cap`. Every arm reads the counter back
//! after its run: a lost or duplicated command fails the experiment.
//!
//! `run` writes `BENCH_e14.json` (schema in EXPERIMENTS.md) plus
//! `OBS_e14.json` under the `obs` feature; `run_smoke` is the CI arm — at
//! 4 threads, batched throughput must not lose to per-command, and under
//! obs the `core.batch_size` histogram must have recorded real blocks.

use crate::e8_throughput::counter_arm;
use crate::{json_rows, ops_per_sec, write_artifacts, Table};
use sbu_core::{CellPayload, SpinLockUniversal, Universal, UniversalObject};
use sbu_mem::native::NativeMem;
use sbu_mem::Pid;
use sbu_obs::Json;
use sbu_spec::specs::{CounterOp, CounterSpec};

/// Commands issued per thread in every arm.
pub const OPS_PER_THREAD: usize = 2_000;

/// Thread counts swept.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Block sizes swept in the batched arms.
pub const CAPS: [usize; 3] = [2, 4, 8];

/// One thread-count's measurements, commands/sec.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Concurrent processors.
    pub threads: usize,
    /// Per-command bounded construction (the default config).
    pub per_command: f64,
    /// `(cap, commands/sec)` for the block arms, in [`CAPS`] order.
    pub batched: Vec<(usize, f64)>,
    /// Spin-lock-protected sequential object (the E8 gap reference).
    pub spin_lock: f64,
}

impl E14Row {
    /// The best batched arm at this thread count.
    pub fn best_batched(&self) -> f64 {
        self.batched.iter().map(|&(_, tp)| tp).fold(0.0, f64::max)
    }
}

/// `rate` if the counter read `total` after `threads × ops` increments,
/// else the failure naming the arm.
fn exact(arm: &str, threads: usize, ops: usize, rate: f64, total: u64) -> Result<f64, String> {
    let want = (threads * ops) as u64;
    if total == want {
        Ok(rate)
    } else {
        Err(format!(
            "FAIL: {arm} @{threads} threads: counter read {total} after {want} increments\n"
        ))
    }
}

/// Commands/sec of one `apply` per increment on `obj`, checked by reading
/// the counter back.
fn per_command_arm<U: UniversalObject<CounterSpec>>(
    arm: &str,
    threads: usize,
    ops: usize,
    obj: &U,
    mem: &NativeMem<CellPayload<CounterSpec>>,
) -> Result<f64, String> {
    let rate = counter_arm(threads, ops, obj, mem);
    exact(
        arm,
        threads,
        ops,
        rate,
        obj.apply(mem, Pid(0), &CounterOp::Read),
    )
}

/// A fresh bounded counter for `threads` processors (default config), with
/// its instruments and its memory's attached to `registry`.
fn bounded_counter(
    threads: usize,
    registry: &sbu_obs::Registry,
) -> (NativeMem<CellPayload<CounterSpec>>, Universal<CounterSpec>) {
    let mut mem = NativeMem::new();
    mem.attach_obs(registry);
    let obj = Universal::builder(threads)
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    (mem, obj)
}

/// E8's bounded arm: the per-command construction, default config.
fn per_command_throughput(
    threads: usize,
    ops: usize,
    registry: &sbu_obs::Registry,
) -> Result<f64, String> {
    let (mem, obj) = bounded_counter(threads, registry);
    per_command_arm("per-command", threads, ops, &obj, &mem)
}

/// E8's spin-lock arm.
fn spin_lock_throughput(threads: usize, ops: usize) -> Result<f64, String> {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    let lock = SpinLockUniversal::new(&mut mem, CounterSpec::new());
    per_command_arm("spin lock", threads, ops, &lock, &mem)
}

/// The best batched arm over [`CAPS`].
fn best_batched_throughput(threads: usize, registry: &sbu_obs::Registry) -> Result<f64, String> {
    let mut best = 0.0f64;
    for &cap in &CAPS {
        best = best.max(batched_throughput(threads, OPS_PER_THREAD, cap, registry)?);
    }
    Ok(best)
}

/// Commands/sec of `threads` threads each submitting `ops` increments as
/// `cap`-command [`Universal::apply_batch`] blocks. The counter is read
/// back after the run: a lost or duplicated command is an `Err`.
fn batched_throughput(
    threads: usize,
    ops: usize,
    cap: usize,
    registry: &sbu_obs::Registry,
) -> Result<f64, String> {
    let (mem, obj) = bounded_counter(threads, registry);
    let block = vec![CounterOp::Inc; cap];
    let rate = ops_per_sec(threads, ops, |pid| {
        let mut done = 0;
        while done < ops {
            let take = cap.min(ops - done);
            obj.apply_batch(&mem, pid, &block[..take]);
            done += take;
        }
    });
    let total = obj.apply(&mem, Pid(0), &CounterOp::Read);
    exact(&format!("batched cap={cap}"), threads, ops, rate, total)
}

/// Measure every arm at every thread count, attaching the bounded arms'
/// instruments (including `core.batch_size`) to `registry`. Fails on the
/// first arm whose counter does not read back exactly.
pub fn measure_with(registry: &sbu_obs::Registry) -> Result<Vec<E14Row>, String> {
    let mut rows = Vec::new();
    for &threads in &THREADS {
        let per_command = per_command_throughput(threads, OPS_PER_THREAD, registry)?;
        let mut batched = Vec::new();
        for &cap in &CAPS {
            batched.push((
                cap,
                batched_throughput(threads, OPS_PER_THREAD, cap, registry)?,
            ));
        }
        rows.push(E14Row {
            threads,
            per_command,
            batched,
            spin_lock: spin_lock_throughput(threads, OPS_PER_THREAD)?,
        });
    }
    Ok(rows)
}

fn table() -> Table<E14Row> {
    let mut table =
        Table::<E14Row>::new("E14  block apply, commands/sec (counter; release build recommended)")
            .num("threads", "threads", 0, |r| r.threads as f64)
            .num("per-command", "per_command", 0, |r| r.per_command)
            .json("batched", |r| {
                Json::Arr(
                    r.batched
                        .iter()
                        .map(|&(cap, tp)| {
                            Json::obj(vec![
                                ("cap", Json::Num(cap as f64)),
                                ("commands_per_sec", Json::Num(tp)),
                            ])
                        })
                        .collect(),
                )
            });
    for (i, cap) in CAPS.iter().enumerate() {
        table = table.text(format!("batched cap={cap}"), move |r| {
            format!("{:.0}", r.batched[i].1)
        });
    }
    table
        .text("best speedup", |r| {
            format!("{:.2}×", r.best_batched() / r.per_command)
        })
        .num("spin lock", "spin_lock", 0, |r| r.spin_lock)
        .text("best/lock", |r| {
            format!("{:.2}", r.best_batched() / r.spin_lock)
        })
}

/// The `BENCH_e14.json` document (schema: EXPERIMENTS.md).
pub fn to_json(rows: &[E14Row]) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str("e14".into())),
        ("object", Json::Str("counter".into())),
        ("unit", Json::Str("commands_per_sec".into())),
        ("ops_per_thread", Json::Num(OPS_PER_THREAD as f64)),
        ("rows", json_rows(rows, &[&table()])),
    ])
}

/// Run the sweep, write `BENCH_e14.json` (+ `OBS_e14.json` under obs), and
/// return the report; `Err` if any arm lost or duplicated a command.
pub fn run() -> Result<String, String> {
    let registry = sbu_obs::Registry::new(*THREADS.iter().max().expect("non-empty sweep"));
    let rows = measure_with(&registry)?;
    let mut report = table().render(&rows);
    let metrics = registry.snapshot();
    report.push_str(&metrics.render_table("E14  bounded-arm instruments (all sweeps)"));
    report.push_str(&write_artifacts("e14", Some(&to_json(&rows)), &metrics));
    Ok(report)
}

/// The CI arm: at 4 threads, batched (best cap) must not lose to
/// per-command, and under obs the `core.batch_size` histogram must have
/// recorded real (≥ 2 command) blocks, and no arm may lose or duplicate a
/// command. Millisecond-scale samples are
/// noisy, so the batched side keeps the best of up to three sweeps before
/// a verdict — genuine regressions survive retries, scheduler hiccups
/// don't.
pub fn run_smoke() -> Result<String, String> {
    const SMOKE_THREADS: usize = 4;
    let registry = sbu_obs::Registry::new(SMOKE_THREADS);
    let per_command = per_command_throughput(SMOKE_THREADS, OPS_PER_THREAD, &registry)?;
    let mut batched = best_batched_throughput(SMOKE_THREADS, &registry)?;
    let mut report = format!(
        "E14 smoke @{SMOKE_THREADS} threads: per-command {per_command:.0} \
         commands/sec, batched (best cap) {batched:.0} commands/sec ({:.2}×)\n",
        batched / per_command
    );
    for attempt in 0..2 {
        if batched >= per_command {
            break;
        }
        let fresh =
            best_batched_throughput(SMOKE_THREADS, &registry).map_err(|e| report.clone() + &e)?;
        report.push_str(&format!(
            "retry {}: batched {fresh:.0} commands/sec\n",
            attempt + 1
        ));
        batched = batched.max(fresh);
    }
    let metrics = registry.snapshot();
    report.push_str(&write_artifacts("e14", None, &metrics));
    if cfg!(feature = "obs") {
        let sizes = metrics
            .histogram("core.batch_size")
            .cloned()
            .unwrap_or_default();
        report.push_str(&format!(
            "core.batch_size: {} blocks, max {} commands\n",
            sizes.count, sizes.max
        ));
        if sizes.max < 2 {
            return Err(report + "FAIL: no multi-command block was committed\n");
        }
    }
    if batched >= per_command {
        Ok(report)
    } else {
        Err(report + "FAIL: batched apply slower than per-command at 4 threads\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_has_the_documented_shape() {
        let rows = vec![E14Row {
            threads: 4,
            per_command: 100.0,
            batched: vec![(2, 150.0), (4, 200.0), (8, 250.0)],
            spin_lock: 400.0,
        }];
        let doc = to_json(&rows);
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("e14"));
        let row = &doc.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("threads").unwrap().as_num(), Some(4.0));
        assert_eq!(row.get("per_command").unwrap().as_num(), Some(100.0));
        let batched = row.get("batched").unwrap().as_arr().unwrap();
        assert_eq!(batched.len(), 3);
        assert_eq!(batched[2].get("cap").unwrap().as_num(), Some(8.0));
        assert_eq!(rows[0].best_batched(), 250.0);
        // And it survives a round trip through the parser.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn every_arm_reads_its_counter_back() {
        // A tiny run of every arm in the bench's own harness: each one
        // reads its counter back and would fail on a lost or duplicated
        // command.
        let threads = 2;
        let ops = 64;
        let registry = sbu_obs::Registry::new(threads);
        per_command_throughput(threads, ops, &registry).unwrap();
        spin_lock_throughput(threads, ops).unwrap();
        for cap in [1, 3, 4] {
            batched_throughput(threads, ops, cap, &registry).unwrap();
        }
    }

    #[test]
    fn a_miscount_is_an_error() {
        assert_eq!(exact("arm", 2, 3, 10.0, 6), Ok(10.0));
        let err = exact("arm", 2, 3, 10.0, 5).unwrap_err();
        assert!(err.contains("counter read 5 after 6 increments"), "{err}");
    }
}
