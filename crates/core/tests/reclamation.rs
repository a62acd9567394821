//! Theorem 6.6's space claim, exercised: the bounded construction reuses
//! its Θ(n²) pool indefinitely, while the unbounded baseline consumes one
//! cell per operation forever.

use sbu_core::bounded::UniversalConfig;
use sbu_core::{CellPayload, UnboundedUniversal, Universal};
use sbu_mem::Pid;
use sbu_sim::{
    run_uniform, Adversary, Decision, RandomAdversary, RoundRobin, RunOptions, RunOutcome, SimMem,
};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Many more operations than pool cells: reuse must work, live cells must
/// stay bounded.
#[test]
fn bounded_pool_is_reused_forever() {
    let n = 2;
    let ops_each = 60; // 120 ops through a 36-cell pool
    let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
    let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
    let obj2 = obj.clone();
    let out = run_uniform(
        &mem,
        Box::new(RoundRobin::new()),
        RunOptions {
            max_steps: 50_000_000,
        },
        n,
        move |mem, pid| {
            for _ in 0..ops_each {
                obj2.apply(mem, pid, &CounterOp::Inc);
            }
        },
    );
    out.assert_clean();
    assert_eq!(
        obj.apply(&mem, Pid(0), &CounterOp::Read),
        (n * ops_each) as u64
    );
    // Live cells bounded well below total ops.
    let live = obj.cells_in_use(&mem, Pid(0));
    assert!(
        live <= obj.pool_size(),
        "live {live} exceeds pool {}",
        obj.pool_size()
    );
    assert!(
        live < n * ops_each / 2,
        "live {live}: reclamation is not keeping up"
    );
}

/// Same workload under an adversarial schedule.
#[test]
fn bounded_pool_reuse_under_adversary() {
    for seed in 0..5 {
        let n = 3;
        let ops_each = 25;
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed)),
            RunOptions {
                max_steps: 50_000_000,
            },
            n,
            move |mem, pid| {
                for _ in 0..ops_each {
                    obj2.apply(mem, pid, &CounterOp::Inc);
                }
            },
        );
        out.assert_clean();
        assert_eq!(
            obj.apply(&mem, Pid(0), &CounterOp::Read),
            (n * ops_each) as u64,
            "seed {seed}"
        );
        // 75 ops >> 88-cell pool is fine; the point is it never exhausts.
        assert!(obj.cells_in_use(&mem, Pid(0)) <= obj.pool_size());
    }
}

/// The unbounded construction's memory grows linearly with operations —
/// the paper's critique, measured.
#[test]
fn unbounded_consumes_one_cell_per_op() {
    let n = 2;
    let ops_each = 10;
    let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
    let obj = UnboundedUniversal::new(&mut mem, n, ops_each, CounterSpec::new());
    let obj2 = obj.clone();
    let out = run_uniform(
        &mem,
        Box::new(RoundRobin::new()),
        RunOptions::default(),
        n,
        move |mem, pid| {
            for _ in 0..ops_each {
                obj2.apply(mem, pid, &CounterOp::Inc);
            }
        },
    );
    out.assert_clean();
    assert_eq!(obj.cells_consumed(&mem, Pid(0)), n * ops_each);
}

/// Exhausting the unbounded arena panics loudly (that *is* the critique).
#[test]
fn unbounded_arena_exhaustion_is_loud() {
    let mut mem: sbu_mem::native::NativeMem<CellPayload<CounterSpec>> =
        sbu_mem::native::NativeMem::new();
    let obj = UnboundedUniversal::new(&mut mem, 1, 3, CounterSpec::new());
    for _ in 0..3 {
        obj.apply(&mem, Pid(0), &CounterOp::Inc);
    }
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        obj.apply(&mem, Pid(0), &CounterOp::Inc)
    }));
    assert!(res.is_err(), "4th op must exhaust the 3-op arena");
}

/// A crashed processor leaks at most a bounded number of cells: the pool
/// still serves many subsequent operations by survivors.
#[test]
fn crash_leaks_are_bounded() {
    for seed in 0..5 {
        let n = 3;
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
        let obj2 = obj.clone();
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed).with_crashes(2, 2_000)),
            RunOptions {
                max_steps: 50_000_000,
            },
            n,
            move |mem, pid| {
                for _ in 0..20 {
                    obj2.apply(mem, pid, &CounterOp::Inc);
                }
            },
        );
        assert!(!out.aborted, "seed {seed}: pool exhausted after crashes?");
        assert!(out.violations.is_empty(), "seed {seed}");
    }
}

/// One leg of a [`Phased`] schedule over two processors.
#[derive(Debug, Clone, Copy)]
enum Leg {
    /// Step P1 until it has completed this many operations.
    P1Until(usize),
    /// Step this processor this many times.
    Steps(usize, u64),
}

/// Runs its legs in order (a leg whose processor has finished ends
/// early), then always steps the lowest waiting pid.
struct Phased {
    legs: Vec<Leg>,
    taken: u64,
    p1_done: Arc<AtomicUsize>,
}

impl Adversary for Phased {
    fn decide(&mut self, waiting: &[Pid], _step: u64) -> Decision {
        let index_of = |p: usize| waiting.iter().position(|&w| w == Pid(p));
        while let Some(&leg) = self.legs.first() {
            let choice = match leg {
                Leg::P1Until(k) if self.p1_done.load(Ordering::SeqCst) < k => index_of(1),
                Leg::Steps(p, k) if self.taken < k => index_of(p),
                _ => None,
            };
            if let Some(i) = choice {
                self.taken += 1;
                return Decision::Step(i);
            }
            self.legs.remove(0);
            self.taken = 0;
        }
        Decision::Step(0)
    }
}

/// P0 applies one increment and P1 three, under `legs`; the counter must
/// read 4 afterwards.
fn two_proc_episode(config: UniversalConfig, legs: Vec<Leg>) -> RunOutcome<()> {
    let n = 2;
    let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
    let obj = Universal::builder(n)
        .config(config)
        .build(&mut mem, CounterSpec::new());
    let p1_done = Arc::new(AtomicUsize::new(0));
    let adversary = Phased {
        legs,
        taken: 0,
        p1_done: Arc::clone(&p1_done),
    };
    let obj2 = obj.clone();
    let out = run_uniform(
        &mem,
        Box::new(adversary),
        RunOptions::default(),
        n,
        move |mem, pid| {
            for _ in 0..if pid.0 == 1 { 3 } else { 1 } {
                obj2.apply(mem, pid, &CounterOp::Inc);
                if pid.0 == 1 {
                    p1_done.fetch_add(1, Ordering::SeqCst);
                }
            }
        },
    );
    out.assert_clean();
    assert_eq!(obj.apply(&mem, Pid(0), &CounterOp::Read), 4);
    out
}

/// Regression for `cell N: followed a ⊥ Next pointer`: the distance-bit
/// walk of step 6 must read a cell's `Next` before setting its bit, since
/// that bit can complete the cell's marks and the marker holds no grab.
/// With n = 2: P1 completes op 1 (cell X); P0 runs op 2 part-way; P1
/// completes op 3, which sets `X.b_1`; P0 takes one step; P1 runs part of
/// op 4; P0 finishes. When P0's one step is the write of `X.b_0`, op 4's
/// GFC reclaims X within its first ~25 steps and re-appends it (a new
/// `Next`) some 60 steps later, so P0's next read lands on a flushed
/// `Next` for most of the sampled cut points.
#[test]
fn distance_bit_walk_never_follows_a_reclaimed_next() {
    for config in [
        UniversalConfig::for_procs(2),
        UniversalConfig::for_procs(2).group_commit(true),
    ] {
        // P0's first steps of op 2 are the same in every schedule below:
        // P1's op 1, then P0 alone.
        let op2_steps = two_proc_episode(config, vec![Leg::P1Until(1)]).steps_per_proc[0];
        for stop in op2_steps.saturating_sub(8)..op2_steps {
            for op4_steps in (16..=96).step_by(16) {
                two_proc_episode(
                    config,
                    vec![
                        Leg::P1Until(1),
                        Leg::Steps(0, stop),
                        Leg::P1Until(2),
                        Leg::Steps(0, 1),
                        Leg::Steps(1, op4_steps),
                    ],
                );
            }
        }
    }
}
