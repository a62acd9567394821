//! Theorem 6.6's space claim, exercised: the bounded construction reuses
//! its Θ(n²) pool indefinitely, while the unbounded baseline consumes one
//! cell per operation forever.

use sbu_core::{CellPayload, UnboundedUniversal, Universal};
use sbu_mem::{AccessKind, LocId, Pid};
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

/// How an episode's processors submit their increments.
#[derive(Debug, Clone, Copy)]
enum Submit {
    /// One `apply` per increment.
    Apply,
    /// One single-command `apply_batch` block per increment.
    Block,
}

/// P0 applies one increment and P1 `p1_ops`, each submitted as `submit`,
/// under `legs`; the counter must read `1 + p1_ops` afterwards.
fn two_proc_episode(submit: Submit, p1_ops: usize, legs: Vec<Leg>) -> RunOutcome<()> {
    let n = 2;
    let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
    let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
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
            for _ in 0..if pid.0 == 1 { p1_ops } else { 1 } {
                match submit {
                    Submit::Apply => {
                        obj2.apply(mem, pid, &CounterOp::Inc);
                    }
                    Submit::Block => {
                        obj2.apply_batch(mem, pid, &[CounterOp::Inc]);
                    }
                }
                if pid.0 == 1 {
                    p1_done.fetch_add(1, Ordering::SeqCst);
                }
            }
        },
    );
    out.assert_clean();
    assert_eq!(
        obj.apply(&mem, Pid(0), &CounterOp::Read),
        1 + p1_ops as u64,
        "an acknowledged increment was lost"
    );
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
    for submit in [Submit::Apply, Submit::Block] {
        // P0's first steps of op 2 are the same in every schedule below:
        // P1's op 1, then P0 alone.
        let op2_steps = two_proc_episode(submit, 3, vec![Leg::P1Until(1)]).steps_per_proc[0];
        for stop in op2_steps.saturating_sub(8)..op2_steps {
            for op4_steps in (16..=96).step_by(16) {
                two_proc_episode(
                    submit,
                    3,
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

/// Regression for the free-cell splice that flat-combining group commit
/// allowed (`batch slot missing or mis-shaped`, or acknowledged increments
/// missing from the count). P0 finds head H, grabs it, and stops inside
/// APPEND-INNER just before jamming `H.Prev`. P1 then completes three
/// operations, so the cell W that won `H.Prev` gets its n = 2 distance
/// marks, and runs part of a fourth, whose GFC reclaims W and reuses it.
/// Then P0 resumes, loses `H.Prev` to W, and its lost-race branch grabs W.
/// Under group commit P0's cell was never announced, so nothing had
/// appended it; the grab succeeded on the reclaimed W and P0 jammed
/// `W.Next = H`, linking a free or re-used cell to a stale head. On the
/// paper's path P0's cell is announced, P1 helps it in right after W, and
/// W's first mark is P0's own step 6, so W cannot be reclaimed while P0 is
/// stopped (Lemma 6.5) and the lost-race branch finds P0's cell already
/// appended.
///
/// P0's stop is swept over the steps it holds the grab on H before the
/// jam (the jam is P0's second sticky-word write: the first claims its
/// cell), and P1's stop over the start of its fourth operation. Flat
/// combining failed 96 of 964 such cut points (P1 stopped 48–95 steps into
/// its fourth block, at the last two P0 stops).
#[test]
fn lost_race_never_grabs_a_reclaimed_winner() {
    for submit in [Submit::Apply, Submit::Block] {
        // With no legs P0 runs its whole operation first.
        let solo = two_proc_episode(submit, 4, Vec::new());
        let prev_jam = solo
            .access_log
            .iter()
            .take(solo.steps_per_proc[0] as usize)
            .enumerate()
            .filter(|(_, a)| matches!(a.loc, LocId::StickyWord(_)) && a.kind == AccessKind::Write)
            .nth(1)
            .expect("P0 claims its cell, then jams H.Prev")
            .0 as u64;
        for stop in prev_jam - 3..=prev_jam {
            for op4_steps in (0..=120).step_by(8) {
                two_proc_episode(
                    submit,
                    4,
                    vec![
                        Leg::Steps(0, stop),
                        Leg::P1Until(3),
                        Leg::Steps(1, op4_steps),
                    ],
                );
            }
        }
    }
}
