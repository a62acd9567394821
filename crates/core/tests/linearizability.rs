//! The central correctness claim (Definition 3.1 / Theorem 6.6): under
//! adversarial scheduling — including hostile corrupt reads and crashes —
//! every history produced by the universal constructions linearizes
//! against the sequential specification.

use sbu_core::{bounded::UniversalConfig, CellPayload, UnboundedUniversal, Universal};
use sbu_mem::Pid;
use sbu_sim::{run_uniform, HistoryRecorder, RandomAdversary, RunOptions, SimMem};
use sbu_spec::linearize::check;
use sbu_spec::specs::{CounterOp, CounterSpec, QueueOp, QueueResp, QueueSpec};
use std::sync::Arc;

fn queue_ops_for(pid: Pid, k: usize) -> Vec<QueueOp> {
    (0..k)
        .map(|i| {
            if (pid.0 + i).is_multiple_of(2) {
                QueueOp::Enqueue((pid.0 * 100 + i) as u64)
            } else {
                QueueOp::Dequeue
            }
        })
        .collect()
}

/// Fuzz the bounded construction on a counter: agreement of responses with
/// some linearization, across many seeds.
#[test]
fn bounded_counter_linearizable_under_fuzz() {
    for seed in 0..25 {
        let n = 3;
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
        let rec: Arc<HistoryRecorder<CounterOp, u64>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed)),
            RunOptions::default(),
            n,
            move |mem, pid| {
                for _ in 0..3 {
                    rec2.record(mem, pid, CounterOp::Inc, || {
                        obj2.apply(mem, pid, &CounterOp::Inc)
                    });
                }
            },
        );
        out.assert_clean();
        let h = rec.history();
        assert_eq!(h.len(), 9);
        assert!(
            check(&h, CounterSpec::new()).is_linearizable(),
            "seed {seed}: {h:?}"
        );
    }
}

/// Same, with hostile corrupt words (valid-looking cell indices) and up to
/// two crashes.
#[test]
fn bounded_counter_linearizable_with_crashes_and_hostile_reads() {
    for seed in 0..25 {
        let n = 3;
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
        let pool = obj.pool_size() as u64;
        let rec: Arc<HistoryRecorder<CounterOp, u64>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(
                RandomAdversary::new(seed)
                    .with_crashes(2, 3_000)
                    .with_corrupt_palette(vec![0, 1, pool - 1, pool, u64::MAX]),
            ),
            RunOptions::default(),
            n,
            move |mem, pid| {
                for _ in 0..3 {
                    rec2.record(mem, pid, CounterOp::Inc, || {
                        obj2.apply(mem, pid, &CounterOp::Inc)
                    });
                }
            },
        );
        assert!(!out.aborted, "seed {seed}: aborted (wait-freedom broken?)");
        assert!(
            out.violations.is_empty(),
            "seed {seed}: {:?}",
            out.violations
        );
        let h = rec.history();
        assert!(
            check(&h, CounterSpec::new()).is_linearizable(),
            "seed {seed}: {h:?}"
        );
    }
}

/// A queue under the bounded construction: mixed enqueues/dequeues.
#[test]
fn bounded_queue_linearizable_under_fuzz() {
    for seed in 0..15 {
        let n = 3;
        let mut mem: SimMem<CellPayload<QueueSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, QueueSpec::new());
        let rec: Arc<HistoryRecorder<QueueOp, QueueResp>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed ^ 0x5EED)),
            RunOptions::default(),
            n,
            move |mem, pid| {
                for op in queue_ops_for(pid, 3) {
                    rec2.record(mem, pid, op, || obj2.apply(mem, pid, &op));
                }
            },
        );
        out.assert_clean();
        let h = rec.history();
        assert!(
            check(&h, QueueSpec::new()).is_linearizable(),
            "seed {seed}: {h:?}"
        );
    }
}

/// The unbounded baseline must satisfy the same property.
#[test]
fn unbounded_counter_linearizable_under_fuzz_with_crashes() {
    for seed in 0..25 {
        let n = 3;
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let obj = UnboundedUniversal::new(&mut mem, n, 8, CounterSpec::new());
        let rec: Arc<HistoryRecorder<CounterOp, u64>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed).with_crashes(1, 5_000)),
            RunOptions::default(),
            n,
            move |mem, pid| {
                for _ in 0..4 {
                    rec2.record(mem, pid, CounterOp::Inc, || {
                        obj2.apply(mem, pid, &CounterOp::Inc)
                    });
                }
            },
        );
        assert!(!out.aborted, "seed {seed}");
        assert!(
            out.violations.is_empty(),
            "seed {seed}: {:?}",
            out.violations
        );
        let h = rec.history();
        assert!(
            check(&h, CounterSpec::new()).is_linearizable(),
            "seed {seed}: {h:?}"
        );
    }
}

/// A queue on the unbounded baseline.
#[test]
fn unbounded_queue_linearizable_under_fuzz() {
    for seed in 0..15 {
        let n = 3;
        let mut mem: SimMem<CellPayload<QueueSpec>> = SimMem::new(n);
        let obj = UnboundedUniversal::new(&mut mem, n, 8, QueueSpec::new());
        let rec: Arc<HistoryRecorder<QueueOp, QueueResp>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed * 31)),
            RunOptions::default(),
            n,
            move |mem, pid| {
                for op in queue_ops_for(pid, 3) {
                    rec2.record(mem, pid, op, || obj2.apply(mem, pid, &op));
                }
            },
        );
        out.assert_clean();
        let h = rec.history();
        assert!(
            check(&h, QueueSpec::new()).is_linearizable(),
            "seed {seed}: {h:?}"
        );
    }
}

/// Two processors, heavier per-seed load, on the bounded construction —
/// cell reuse kicks in within a single run.
#[test]
fn bounded_two_procs_long_run_linearizable() {
    for seed in 0..10 {
        let n = 2;
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
        let rec: Arc<HistoryRecorder<CounterOp, u64>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed ^ 0xFACE)),
            RunOptions {
                max_steps: 10_000_000,
            },
            n,
            move |mem, pid| {
                for i in 0..20 {
                    let op = if i % 5 == 4 {
                        CounterOp::Read
                    } else {
                        CounterOp::Inc
                    };
                    rec2.record(mem, pid, op, || obj2.apply(mem, pid, &op));
                }
            },
        );
        out.assert_clean();
        let h = rec.history();
        assert_eq!(h.len(), 40);
        assert!(
            check(&h, CounterSpec::new()).is_linearizable(),
            "seed {seed}"
        );
        // Reuse must have happened: 40 ops through a 36-cell pool.
        assert!(obj.pool_size() < 40);
    }
}

/// The locality fast paths (§7 extension) must not change correctness:
/// same fuzz as above, hints enabled, crashes and hostile reads included.
#[test]
fn bounded_with_head_hints_linearizable() {
    for seed in 0..20 {
        let n = 3;
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let obj = Universal::builder(n)
            .config(UniversalConfig::for_procs(n))
            .build(&mut mem, CounterSpec::new());
        let pool = obj.pool_size() as u64;
        let rec: Arc<HistoryRecorder<CounterOp, u64>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(
                RandomAdversary::new(seed ^ 0x41B1)
                    .with_crashes(1, 3_000)
                    .with_corrupt_palette(vec![0, 1, pool - 1, pool, u64::MAX]),
            ),
            RunOptions {
                max_steps: 20_000_000,
            },
            n,
            move |mem, pid| {
                for i in 0..4 {
                    let op = if i % 4 == 3 {
                        CounterOp::Read
                    } else {
                        CounterOp::Inc
                    };
                    rec2.record(mem, pid, op, || obj2.apply(mem, pid, &op));
                }
            },
        );
        assert!(!out.aborted, "seed {seed}");
        assert!(out.violations.is_empty(), "seed {seed}");
        let h = rec.history();
        assert!(
            check(&h, CounterSpec::new()).is_linearizable(),
            "seed {seed}: {h:?}"
        );
    }
}
