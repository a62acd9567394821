//! Property-based fuzzing of the bounded universal construction: random
//! per-processor operation sequences, random schedules, linearizability as
//! the invariant.

use proptest::prelude::*;
use sbu_core::{bounded::UniversalConfig, CellPayload, Universal};
use sbu_sim::{run_uniform, HistoryRecorder, RunOptions, Scripted, SimMem};
use sbu_spec::linearize::check;
use sbu_spec::specs::{QueueOp, QueueResp, QueueSpec, StackOp, StackResp, StackSpec};
use std::sync::Arc;

fn arb_queue_program() -> impl Strategy<Value = Vec<QueueOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..32).prop_map(QueueOp::Enqueue),
            Just(QueueOp::Dequeue),
        ],
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Queue: random 2-processor programs under random scripted schedules
    /// stay linearizable; no violations, no aborts, always wait-free.
    #[test]
    fn universal_queue_random_programs(
        prog0 in arb_queue_program(),
        prog1 in arb_queue_program(),
        script in prop::collection::vec(0usize..2, 0..96),
    ) {
        let n = 2;
        let mut mem: SimMem<CellPayload<QueueSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, QueueSpec::new());
        let rec: Arc<HistoryRecorder<QueueOp, QueueResp>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let progs = [prog0, prog1];
        let out = run_uniform(
            &mem,
            Box::new(Scripted::new(script)),
            RunOptions { max_steps: 20_000_000 },
            n,
            move |mem, pid| {
                for op in &progs[pid.0] {
                    rec2.record(mem, pid, *op, || obj2.apply(mem, pid, op));
                }
            },
        );
        prop_assert!(out.violations.is_empty(), "{:?}", out.violations);
        prop_assert!(!out.aborted);
        let h = rec.history();
        prop_assert!(
            check(&h, QueueSpec::new()).is_linearizable(),
            "history: {:?}", h
        );
    }

    /// Stack with the fast paths enabled: same property.
    #[test]
    fn universal_stack_random_programs_fast_paths(
        pushes in prop::collection::vec(0u64..32, 1..4),
        script in prop::collection::vec(0usize..2, 0..96),
    ) {
        let n = 2;
        let mut mem: SimMem<CellPayload<StackSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).config(UniversalConfig::for_procs(n)).build(&mut mem, StackSpec::new());
        let rec: Arc<HistoryRecorder<StackOp, StackResp>> = Arc::new(HistoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        let obj2 = obj.clone();
        let pushes2 = pushes.clone();
        let out = run_uniform(
            &mem,
            Box::new(Scripted::new(script)),
            RunOptions { max_steps: 20_000_000 },
            n,
            move |mem, pid| {
                if pid.0 == 0 {
                    for v in &pushes2 {
                        rec2.record(mem, pid, StackOp::Push(*v), || {
                            obj2.apply(mem, pid, &StackOp::Push(*v))
                        });
                    }
                } else {
                    for _ in 0..pushes2.len() {
                        rec2.record(mem, pid, StackOp::Pop, || {
                            obj2.apply(mem, pid, &StackOp::Pop)
                        });
                    }
                }
            },
        );
        prop_assert!(out.violations.is_empty());
        prop_assert!(!out.aborted);
        let h = rec.history();
        prop_assert!(check(&h, StackSpec::new()).is_linearizable(), "{:?}", h);
    }
}
