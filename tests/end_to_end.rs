//! Cross-crate integration: the full pipeline from the paper's
//! primitives to user-facing objects, exercised through the public façade.

use std::sync::Arc;
use sticky_universality::prelude::*;
use sticky_universality::spec::specs::{
    KvOp, KvResp, SnapshotOp, SnapshotResp, StackOp, StackResp,
};

/// A KV store under the simulator with full linearizability checking.
#[test]
fn kv_store_linearizable_under_adversary() {
    for seed in 0..10 {
        let n = 3;
        let mut mem: SimMem<CellPayload<KvSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, KvSpec::new());
        let rec: Arc<HistoryRecorder<KvOp, KvResp>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed)),
            RunOptions::default(),
            n,
            move |mem, pid| {
                let k = (pid.0 % 2) as u64; // contended keys
                let ops = [
                    KvOp::Put(k, pid.0 as u64 * 100),
                    KvOp::Get(k),
                    KvOp::Remove(k),
                ];
                for op in ops {
                    rec2.record(mem, pid, op, || obj2.apply(mem, pid, &op));
                }
            },
        );
        out.assert_clean();
        let h = rec.history();
        assert!(
            sticky_universality::spec::linearize::check(&h, KvSpec::new()).is_linearizable(),
            "seed {seed}: {h:?}"
        );
    }
}

/// A wait-free atomic snapshot: scans must be consistent cuts.
#[test]
fn snapshot_scans_are_atomic_cuts() {
    for seed in 0..10 {
        let n = 3;
        let mut mem: SimMem<CellPayload<SnapshotSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, SnapshotSpec::new(n));
        let rec: Arc<HistoryRecorder<SnapshotOp, SnapshotResp>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed ^ 0xA11CE)),
            RunOptions::default(),
            n,
            move |mem, pid| {
                for round in 1..3u64 {
                    let up = SnapshotOp::Update {
                        index: pid.0,
                        value: round * 10 + pid.0 as u64,
                    };
                    rec2.record(mem, pid, up.clone(), || obj2.apply(mem, pid, &up));
                    rec2.record(mem, pid, SnapshotOp::Scan, || {
                        obj2.apply(mem, pid, &SnapshotOp::Scan)
                    });
                }
            },
        );
        out.assert_clean();
        let h = rec.history();
        assert!(
            sticky_universality::spec::linearize::check(&h, SnapshotSpec::new(n)).is_linearizable(),
            "seed {seed}"
        );
    }
}

/// The stack wrapper on native threads: push/pop conservation.
#[test]
fn native_stack_conserves_elements() {
    let threads = 4;
    let per = 25;
    let mut mem: NativeMem<CellPayload<StackSpec>> = NativeMem::new();
    let obj = Universal::builder(threads).build(&mut mem, StackSpec::new());
    let stack = WaitFreeStack::new(obj);
    let mem = Arc::new(mem);
    let popped: Vec<u64> = std::thread::scope(|s| {
        (0..threads)
            .map(|i| {
                let mem = Arc::clone(&mem);
                let stack = stack.clone();
                s.spawn(move || {
                    let mut got = Vec::new();
                    for k in 0..per {
                        stack.push(&*mem, Pid(i), (i * 1000 + k) as u64);
                        if k % 2 == 1 {
                            if let Some(v) = stack.pop(&*mem, Pid(i)) {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let mut rest = Vec::new();
    while let Some(v) = stack.pop(&*mem, Pid(0)) {
        rest.push(v);
    }
    let mut all: Vec<u64> = popped.into_iter().chain(rest).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), threads * per, "every pushed element popped once");
}

/// StackOp smoke test against responses.
#[test]
fn stack_responses_match_spec() {
    let mut mem: NativeMem<CellPayload<StackSpec>> = NativeMem::new();
    let obj = Universal::builder(1).build(&mut mem, StackSpec::new());
    assert_eq!(obj.apply(&mem, Pid(0), &StackOp::Pop), StackResp::Empty);
    assert_eq!(obj.apply(&mem, Pid(0), &StackOp::Push(5)), StackResp::Ack);
    assert_eq!(obj.apply(&mem, Pid(0), &StackOp::Peek), StackResp::Value(5));
    assert_eq!(obj.apply(&mem, Pid(0), &StackOp::Pop), StackResp::Value(5));
}

/// The paper's full loop: a sticky bit built from *randomized consensus
/// over registers* powers a leader election... observed end to end.
#[test]
fn randomized_sticky_bit_composes_with_helpers() {
    use sticky_universality::sticky::ConsensusStickyBit;
    for seed in 0..5 {
        let n = 3;
        let mut mem: SimMem<()> = SimMem::new(n);
        let cons = RandomizedConsensus::new(&mut mem, n, seed);
        let sb = ConsensusStickyBit::new(&mut mem, cons);
        let sb2 = sb.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed ^ 77)),
            RunOptions::default(),
            n,
            move |mem, pid| {
                let v = pid.0 % 2 == 0;
                let jam = sb2.jam(mem, pid, v);
                let seen = sb2.read(mem, pid);
                (jam, seen)
            },
        );
        out.assert_clean();
        // All readers agree on the final defined value.
        let values: Vec<Tri> = out.results().iter().map(|(_, t)| *t).collect();
        assert!(values.iter().all(|&t| t == values[0]), "seed {seed}");
        assert!(!values[0].is_undef());
    }
}

/// The prelude exposes everything the README quickstart needs.
#[test]
fn prelude_quickstart_compiles_and_runs() {
    let mut mem = NativeMem::new();
    let queue = WaitFreeQueue::new(Universal::builder(4).build(&mut mem, QueueSpec::new()));
    queue.enqueue(&mem, Pid(0), 42);
    assert_eq!(queue.dequeue(&mem, Pid(1)), Some(42));
    assert_eq!(queue.dequeue(&mem, Pid(2)), None);
    assert_eq!(queue.len(&mem, Pid(3)), 0);
}

/// Two independent universal objects sharing one memory: their registers
/// must not interfere, and each history must linearize on its own.
#[test]
fn two_objects_share_one_memory() {
    for seed in 0..6 {
        let n = 2;
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let a = Universal::builder(n).build(&mut mem, CounterSpec::new());
        let b = Universal::builder(n)
            .config(UniversalConfig::for_procs(n))
            .build(&mut mem, CounterSpec::new());
        let rec_a: Arc<HistoryRecorder<CounterOp, u64>> = Arc::new(HistoryRecorder::new());
        let rec_b: Arc<HistoryRecorder<CounterOp, u64>> = Arc::new(HistoryRecorder::new());
        let (ra, rb) = (Arc::clone(&rec_a), Arc::clone(&rec_b));
        let (a2, b2) = (a.clone(), b.clone());
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed ^ 0x2222)),
            RunOptions {
                max_steps: 20_000_000,
            },
            n,
            move |mem, pid| {
                for _ in 0..2 {
                    ra.record(mem, pid, CounterOp::Inc, || {
                        a2.apply(mem, pid, &CounterOp::Inc)
                    });
                    rb.record(mem, pid, CounterOp::Inc, || {
                        b2.apply(mem, pid, &CounterOp::Inc)
                    });
                }
            },
        );
        out.assert_clean();
        for (name, rec) in [("a", &rec_a), ("b", &rec_b)] {
            let h = rec.history();
            assert_eq!(h.len(), 4);
            assert!(
                sticky_universality::spec::linearize::check(&h, CounterSpec::new())
                    .is_linearizable(),
                "seed {seed} object {name}: {h:?}"
            );
        }
        assert_eq!(a.apply(&mem, Pid(0), &CounterOp::Read), 4);
        assert_eq!(b.apply(&mem, Pid(0), &CounterOp::Read), 4);
    }
}
