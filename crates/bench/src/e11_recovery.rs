//! E11 — the price of durability: recoverable objects vs their
//! non-durable counterparts on real threads.
//!
//! The crash–restart PR adds `DurableMem` (persistence bookkeeping + torn
//! fences) and recovery protocols (`RecoverableJamWord`, the recoverable
//! bounded counter via `Universal::recover`). Durability is not free: every
//! sticky write is tracked until fenced, and the recoverable jam announces
//! durably and fences per bit. This experiment quantifies the slowdown the
//! robustness buys, plus the one-off cost of a post-crash recovery sweep.
//! Numbers vary by machine; the *shape* (modest constant-factor overhead,
//! microsecond-scale recovery) is the reproducible claim.

use crate::e8_throughput::{bounded_arm, counter_arm};
use crate::{json_rows, ops_per_sec, write_artifacts, Table};
use sbu_core::{bounded::UniversalConfig, CellPayload, Universal};
use sbu_mem::native::NativeMem;
use sbu_mem::{DurableMem, Pid, TornPersist, Word};
use sbu_obs::Json;
use sbu_spec::specs::CounterSpec;
use sbu_sticky::{JamWord, RecoverableJamWord};
use std::time::Instant;

const JAM_OBJECTS: usize = 512;
const COUNTER_OPS: usize = 1_000;
const WIDTH: u32 = 3;

fn value_for(pid: Pid) -> Word {
    (pid.0 as Word) % (1 << WIDTH)
}

/// One thread count's durability tax.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Concurrent processors.
    pub threads: usize,
    /// Plain `JamWord` jam+read ops/sec.
    pub jam_plain: f64,
    /// `RecoverableJamWord` over `DurableMem`, ops/sec.
    pub jam_recoverable: f64,
    /// Post-crash recovery sweep, µs per jam object.
    pub jam_recover_us_per_obj: f64,
    /// Bounded universal counter over `NativeMem`, ops/sec.
    pub counter_plain: f64,
    /// The same counter over `DurableMem`, ops/sec.
    pub counter_recoverable: f64,
    /// `Universal::recover` after a crash, µs.
    pub counter_recover_us: f64,
}

/// Every thread jams its fixed value into each of `JAM_OBJECTS` fresh jam
/// words, then reads each one back: `threads * objects * 2` operations.
fn plain_jam_throughput(threads: usize) -> f64 {
    let mut mem: NativeMem<()> = NativeMem::new();
    let words: Vec<JamWord> = (0..JAM_OBJECTS)
        .map(|_| JamWord::new(&mut mem, threads, WIDTH))
        .collect();
    ops_per_sec(threads, JAM_OBJECTS * 2, |pid| {
        for w in &words {
            w.jam(&mem, pid, value_for(pid));
            w.read(&mem, pid);
        }
    })
}

/// Same workload over the durable backend with the recoverable protocol;
/// also returns the post-crash recovery sweep cost in µs per object.
fn recoverable_jam_throughput(threads: usize) -> (f64, f64) {
    let mut mem: DurableMem<NativeMem<()>> =
        DurableMem::with_policy(NativeMem::new(), TornPersist::Persist);
    let words: Vec<RecoverableJamWord> = (0..JAM_OBJECTS)
        .map(|_| RecoverableJamWord::new(&mut mem, threads, WIDTH))
        .collect();
    let tp = ops_per_sec(threads, JAM_OBJECTS * 2, |pid| {
        for w in &words {
            w.jam(&mem, pid, value_for(pid));
            w.read(&mem, pid);
        }
    });

    // Recovery sweep: crash pid 0, restart it, re-drive its announced jam
    // on every object. One-off cost paid at restart, not per operation.
    mem.crash::<()>(&[Pid(0)]);
    mem.restart(Pid(0));
    let t1 = Instant::now();
    for w in &words {
        w.recover(&mem, Pid(0));
    }
    let sweep_us = t1.elapsed().as_secs_f64() * 1e6 / JAM_OBJECTS as f64;
    (tp, sweep_us)
}

/// The bounded counter over `DurableMem` (recoverable via
/// `Universal::recover`); also returns the post-crash recovery cost in µs.
fn recoverable_counter_throughput(threads: usize, registry: &sbu_obs::Registry) -> (f64, f64) {
    let mut mem: DurableMem<NativeMem<CellPayload<CounterSpec>>> =
        DurableMem::with_policy(NativeMem::new(), TornPersist::Persist);
    mem.attach_obs(registry);
    mem.inner_mut().attach_obs(registry);
    let counter = Universal::builder(threads)
        .obs(registry)
        .build(&mut mem, CounterSpec::new());
    let tp = counter_arm(threads, COUNTER_OPS, &counter, &mem);

    mem.crash::<CellPayload<CounterSpec>>(&[Pid(0)]);
    mem.restart(Pid(0));
    let t1 = Instant::now();
    counter.recover(&mem, Pid(0));
    let recover_us = t1.elapsed().as_secs_f64() * 1e6;
    (tp, recover_us)
}

fn jam_table() -> Table<E11Row> {
    Table::<E11Row>::new("E11a  durability tax, jam word: ops/sec (jam+read over fresh objects)")
        .num("threads", "threads", 0, |r| r.threads as f64)
        .num("plain JamWord", "jam_plain", 0, |r| r.jam_plain)
        .num("RecoverableJamWord", "jam_recoverable", 0, |r| {
            r.jam_recoverable
        })
        .text("slowdown", |r| {
            format!("{:.1}x", r.jam_plain / r.jam_recoverable)
        })
        .num("recover µs/obj", "jam_recover_us_per_obj", 1, |r| {
            r.jam_recover_us_per_obj
        })
}

fn counter_table() -> Table<E11Row> {
    Table::<E11Row>::new("E11b  durability tax, bounded counter: ops/sec (universal Inc)")
        .text("threads", |r| r.threads.to_string())
        .num("NativeMem", "counter_plain", 0, |r| r.counter_plain)
        .num("DurableMem", "counter_recoverable", 0, |r| {
            r.counter_recoverable
        })
        .text("slowdown", |r| {
            format!("{:.1}x", r.counter_plain / r.counter_recoverable)
        })
        .num("recover µs", "counter_recover_us", 1, |r| {
            r.counter_recover_us
        })
}

/// The `BENCH_e11.json` document (schema in EXPERIMENTS.md): one row
/// object carries both tables' keyed columns.
pub fn to_json(rows: &[E11Row]) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str("e11".into())),
        ("unit", Json::Str("ops_per_sec".into())),
        ("rows", json_rows(rows, &[&jam_table(), &counter_table()])),
    ])
}

/// Run the experiment, write `BENCH_e11.json`, and return the report.
pub fn run() -> String {
    let registry = sbu_obs::Registry::new(8);
    let rows: Vec<E11Row> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let jam_plain = plain_jam_throughput(threads);
            let (jam_recoverable, jam_recover_us_per_obj) = recoverable_jam_throughput(threads);
            let counter_plain = bounded_arm(
                threads,
                COUNTER_OPS,
                UniversalConfig::for_procs(threads),
                &registry,
            );
            let (counter_recoverable, counter_recover_us) =
                recoverable_counter_throughput(threads, &registry);
            E11Row {
                threads,
                jam_plain,
                jam_recoverable,
                jam_recover_us_per_obj,
                counter_plain,
                counter_recoverable,
                counter_recover_us,
            }
        })
        .collect();
    let mut out = jam_table().render(&rows);
    out.push('\n');
    out.push_str(&counter_table().render(&rows));
    let metrics = registry.snapshot();
    if !metrics.is_empty() {
        out.push('\n');
        out.push_str(&metrics.render_table("E11  counter-arm instruments (all sweeps)"));
    }
    out.push_str(&write_artifacts("e11", Some(&to_json(&rows)), &metrics));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_has_the_documented_shape() {
        let rows = [E11Row {
            threads: 2,
            jam_plain: 100.0,
            jam_recoverable: 20.0,
            jam_recover_us_per_obj: 0.5,
            counter_plain: 300.0,
            counter_recoverable: 290.0,
            counter_recover_us: 4.5,
        }];
        let doc = to_json(&rows);
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("e11"));
        assert_eq!(doc.get("unit").unwrap().as_str(), Some("ops_per_sec"));
        let row = &doc.get("rows").unwrap().as_arr().unwrap()[0];
        for (key, value) in [
            ("threads", 2.0),
            ("jam_plain", 100.0),
            ("jam_recoverable", 20.0),
            ("jam_recover_us_per_obj", 0.5),
            ("counter_plain", 300.0),
            ("counter_recoverable", 290.0),
            ("counter_recover_us", 4.5),
        ] {
            assert_eq!(row.get(key).unwrap().as_num(), Some(value), "{key}");
        }
        // And it survives a round trip through the parser.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
