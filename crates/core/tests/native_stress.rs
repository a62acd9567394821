//! Real-thread stress on the native backend: high-level invariants that
//! any linearizable implementation must keep (totals, per-producer FIFO,
//! CAS winner uniqueness, conservation of money).

use sbu_core::objects::{WaitFreeBank, WaitFreeCas, WaitFreeCounter, WaitFreeQueue};
use sbu_core::{CellPayload, Universal};
use sbu_mem::native::NativeMem;
use sbu_mem::Pid;
use sbu_spec::specs::{BankResp, BankSpec, CasSpec, CounterOp, CounterSpec, QueueSpec};
use std::sync::Arc;

const THREADS: usize = 4;

#[test]
fn counter_total_is_exact() {
    let per = 50;
    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    let obj = Universal::builder(THREADS).build(&mut mem, CounterSpec::new());
    let counter = WaitFreeCounter::new(obj);
    let mem = Arc::new(mem);
    let mut seen: Vec<u64> = std::thread::scope(|s| {
        (0..THREADS)
            .map(|i| {
                let mem = Arc::clone(&mem);
                let counter = counter.clone();
                s.spawn(move || {
                    (0..per)
                        .map(|_| counter.inc(&*mem, Pid(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    // Every increment returned a distinct value 1..=N: a total order on
    // concurrent increments, which is consensus at work.
    seen.sort_unstable();
    let expect: Vec<u64> = (1..=(THREADS * per) as u64).collect();
    assert_eq!(seen, expect);
    assert_eq!(counter.read(&*mem, Pid(0)), (THREADS * per) as u64);
}

/// Single commands and blocks of 1–8 share one list on real threads: 4
/// threads interleave `apply` and `apply_batch` on one counter, 200 times
/// over fresh objects. Every response is distinct and the set is exactly
/// `1..=N`, each block's responses are consecutive, and the counter reads
/// N afterwards — no acknowledged command is lost or applied twice.
#[test]
fn block_counter_total_is_exact() {
    const CALLS: usize = 12;
    for rep in 0..200 {
        let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
        let obj = Universal::builder(THREADS).build(&mut mem, CounterSpec::new());
        let mem = Arc::new(mem);
        let mut seen: Vec<u64> = std::thread::scope(|s| {
            (0..THREADS)
                .map(|i| {
                    let mem = Arc::clone(&mem);
                    let obj = obj.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for c in 0..CALLS {
                            // 0 = one `apply`, 1..=8 = a block of that length.
                            let len = (c * 5 + i * 3 + rep) % 9;
                            if len == 0 {
                                got.push(obj.apply(&*mem, Pid(i), &CounterOp::Inc));
                                continue;
                            }
                            let rs = obj.apply_batch(&*mem, Pid(i), &vec![CounterOp::Inc; len]);
                            assert_eq!(rs.len(), len, "rep {rep}: one response per command");
                            assert!(
                                rs.windows(2).all(|w| w[1] == w[0] + 1),
                                "rep {rep}: block responses {rs:?} not consecutive"
                            );
                            got.extend(rs);
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let n = seen.len() as u64;
        seen.sort_unstable();
        assert_eq!(seen, (1..=n).collect::<Vec<_>>(), "rep {rep}");
        assert_eq!(obj.apply(&*mem, Pid(0), &CounterOp::Read), n, "rep {rep}");
    }
}

#[test]
fn queue_preserves_per_producer_fifo_and_loses_nothing() {
    let per = 30;
    let mut mem: NativeMem<CellPayload<QueueSpec>> = NativeMem::new();
    let obj = Universal::builder(THREADS).build(&mut mem, QueueSpec::new());
    let queue = WaitFreeQueue::new(obj);
    let mem = Arc::new(mem);
    // Producers enqueue tagged values; consumers dequeue everything.
    // Each consumer's stream is collected separately: linearizability
    // guarantees each consumer sees each producer's items in order.
    let per_consumer: Vec<Vec<u64>> = std::thread::scope(|s| {
        let producers: Vec<_> = (0..2)
            .map(|i| {
                let mem = Arc::clone(&mem);
                let queue = queue.clone();
                s.spawn(move || {
                    for k in 0..per {
                        queue.enqueue(&*mem, Pid(i), (i as u64) << 32 | k as u64);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (2..4)
            .map(|i| {
                let mem = Arc::clone(&mem);
                let queue = queue.clone();
                s.spawn(move || {
                    let mut got = Vec::new();
                    // Keep draining until producers are done and the queue
                    // is empty.
                    let mut empties = 0;
                    while empties < 3 {
                        match queue.dequeue(&*mem, Pid(i)) {
                            Some(v) => {
                                empties = 0;
                                got.push(v);
                            }
                            None => {
                                empties += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut streams: Vec<Vec<u64>> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        // Drain any stragglers as one more "consumer".
        let mut rest = Vec::new();
        while let Some(v) = queue.dequeue(&*mem, Pid(0)) {
            rest.push(v);
        }
        streams.push(rest);
        streams
    });
    let total: usize = per_consumer.iter().map(Vec::len).sum();
    assert_eq!(total, 2 * per, "no loss, no duplication");
    let mut all: Vec<u64> = per_consumer.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 2 * per, "every element is distinct");
    // Per-producer FIFO within each consumer's stream.
    for (ci, stream) in per_consumer.iter().enumerate() {
        for tag in 0..2u64 {
            let ks: Vec<u64> = stream
                .iter()
                .filter(|v| *v >> 32 == tag)
                .map(|v| v & 0xFFFF_FFFF)
                .collect();
            let mut sorted = ks.clone();
            sorted.sort_unstable();
            assert_eq!(ks, sorted, "consumer {ci} saw producer {tag} out of order");
        }
    }
}

#[test]
fn cas_register_elects_exactly_one_winner_per_generation() {
    let mut mem: NativeMem<CellPayload<CasSpec>> = NativeMem::new();
    let obj = Universal::builder(THREADS).build(&mut mem, CasSpec::new());
    let cas = WaitFreeCas::new(obj);
    let mem = Arc::new(mem);
    for generation in 0..10u64 {
        let winners: usize = std::thread::scope(|s| {
            (0..THREADS)
                .map(|i| {
                    let mem = Arc::clone(&mem);
                    let cas = cas.clone();
                    s.spawn(move || cas.cas(&*mem, Pid(i), generation, generation + 1).0 as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1, "generation {generation}");
        assert_eq!(cas.read(&*mem, Pid(0)), generation + 1);
    }
}

#[test]
fn bank_conserves_money_under_concurrent_transfers() {
    let accounts = 4;
    let initial = 1000;
    let mut mem: NativeMem<CellPayload<BankSpec>> = NativeMem::new();
    let obj = Universal::builder(THREADS).build(&mut mem, BankSpec::new(accounts, initial));
    let bank = WaitFreeBank::new(obj);
    let mem = Arc::new(mem);
    std::thread::scope(|s| {
        for i in 0..THREADS {
            let mem = Arc::clone(&mem);
            let bank = bank.clone();
            s.spawn(move || {
                for k in 0..40u64 {
                    let from = (i + k as usize) % accounts;
                    let to = (i + 1 + k as usize) % accounts;
                    let r = bank.transfer(&*mem, Pid(i), from, to, 1 + k % 7);
                    assert!(matches!(r, BankResp::Ok | BankResp::InsufficientFunds));
                }
            });
        }
    });
    assert_eq!(
        bank.total(&*mem, Pid(0)),
        accounts as u64 * initial,
        "money must be conserved"
    );
}

#[test]
fn mixed_backends_same_results_sequentially() {
    // Sanity: bounded vs unbounded vs lock-based agree on a sequential
    // script (differential test).
    use sbu_core::{SpinLockUniversal, UnboundedUniversal};
    let script: Vec<CounterOp> = (0..30)
        .map(|i| match i % 4 {
            0 | 1 => CounterOp::Inc,
            2 => CounterOp::Add(5),
            _ => CounterOp::Read,
        })
        .collect();

    let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
    let a = Universal::builder(1).build(&mut mem, CounterSpec::new());
    let b = UnboundedUniversal::new(&mut mem, 1, 64, CounterSpec::new());
    let c = SpinLockUniversal::new(&mut mem, CounterSpec::new());
    for op in &script {
        let ra = a.apply(&mem, Pid(0), op);
        let rb = b.apply(&mem, Pid(0), op);
        let rc = c.apply::<CounterSpec, _>(&mem, Pid(0), op);
        assert_eq!(ra, rb);
        assert_eq!(ra, rc);
    }
}

/// Regression for a native-only TOCTOU cycle in the unbounded append: a
/// helper appends my cell mid-walk; the fallback candidate must not
/// re-propose it at the new end (this livelocked real-thread runs until
/// the post-walk self-validation was added). A watchdog turns any
/// recurrence into a fast failure instead of a hung test.
#[test]
fn unbounded_contended_queue_never_livelocks() {
    use sbu_core::UnboundedUniversal;
    use sbu_spec::specs::{QueueOp, QueueSpec};
    use std::sync::atomic::{AtomicBool, Ordering};

    let rounds = 600;
    let all_done = Arc::new(AtomicBool::new(false));
    let done_w = Arc::clone(&all_done);
    let watchdog = std::thread::spawn(move || {
        for _ in 0..1_200 {
            std::thread::sleep(std::time::Duration::from_millis(100));
            if done_w.load(Ordering::SeqCst) {
                return;
            }
        }
        panic!("unbounded contended queue livelocked (cycle regression)");
    });
    for _ in 0..rounds {
        let threads = 4;
        let per = 50;
        let mut mem: NativeMem<CellPayload<QueueSpec>> = NativeMem::new();
        let obj = UnboundedUniversal::new(&mut mem, threads, per + 4, QueueSpec::new());
        let mem = Arc::new(mem);
        std::thread::scope(|s| {
            for i in 0..threads {
                let mem = Arc::clone(&mem);
                let obj = obj.clone();
                s.spawn(move || {
                    for k in 0..per {
                        let op = if k % 2 == 0 {
                            QueueOp::Enqueue(k as u64)
                        } else {
                            QueueOp::Dequeue
                        };
                        obj.apply(&*mem, Pid(i), &op);
                    }
                });
            }
        });
    }
    all_done.store(true, Ordering::SeqCst);
    watchdog.join().unwrap();
}
