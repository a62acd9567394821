//! Crash–restart recovery for the bounded universal construction
//! (the crash–restart PR's `sbu-core` tentpole piece).
//!
//! Shape of every test: a simulated run in which the adversary fail-stops
//! one or more processors mid-operation, then — at the quiescent point —
//! the crash is applied to the [`DurableMem`] persistency bookkeeping, the
//! victims restart, run [`Universal::recover`], and a second run issues new
//! operations from everyone. The combined two-era history must satisfy
//! **durable linearizability** ([`check_durable`]): operations completed
//! before the crash keep their effects, in-flight operations either take
//! effect (recovery re-executes an interrupted append) or vanish, and the
//! pool never wedges on the dead incarnation's announcements or grab bits.

use sbu_core::{CellPayload, Universal};
use sbu_mem::{DurableMem, Pid, TornPersist, WordMem};
use sbu_sim::{
    run_uniform, CrashPlan, HistoryRecorder, RandomAdversary, RoundRobin, RunOptions, SimMem,
};
use sbu_spec::linearize::check_durable;
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::sync::Arc;

type Mem = SimMem<CellPayload<CounterSpec>>;

struct Fixture {
    sim: Mem,
    dmem: Arc<DurableMem<Mem>>,
    obj: Universal<CounterSpec>,
    rec: Arc<HistoryRecorder<CounterOp, u64>>,
}

fn fixture(n: usize) -> Fixture {
    let sim: Mem = SimMem::new(n);
    let mut dmem = DurableMem::with_policy(sim.clone(), TornPersist::Persist);
    let obj = Universal::builder(n).build(&mut dmem, CounterSpec::new());
    Fixture {
        sim,
        dmem: Arc::new(dmem),
        obj,
        rec: Arc::new(HistoryRecorder::new()),
    }
}

impl Fixture {
    /// One simulated era: every processor runs `ops` recorded increments.
    fn era(&self, adversary: Box<dyn sbu_sim::Adversary>, n: usize, ops: usize) -> Vec<Pid> {
        let (obj, dmem, rec) = (
            self.obj.clone(),
            Arc::clone(&self.dmem),
            Arc::clone(&self.rec),
        );
        let out = run_uniform(
            &self.sim,
            adversary,
            RunOptions::default(),
            n,
            move |_, pid| {
                for _ in 0..ops {
                    rec.record(&*dmem, pid, CounterOp::Inc, || {
                        obj.apply(&*dmem, pid, &CounterOp::Inc)
                    });
                }
            },
        );
        assert!(
            !out.aborted,
            "run aborted — wait-freedom or wedge regression"
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        out.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_crashed())
            .map(|(i, _)| Pid(i))
            .collect()
    }

    /// Apply the crash to the persistency model at the quiescent point,
    /// restart the victims, and run recovery. Returns the era cut.
    fn crash_restart_recover(&self, crashed: &[Pid]) -> u64 {
        let cut = self.dmem.op_invoke(Pid(0));
        if !crashed.is_empty() {
            self.dmem.crash::<CellPayload<CounterSpec>>(crashed);
            for &p in crashed {
                self.dmem.restart(p);
                self.obj.recover(&*self.dmem, p);
            }
        }
        assert!(
            self.dmem.violations().is_empty(),
            "{:?}",
            self.dmem.violations()
        );
        cut
    }
}

/// Fuzzed single-crash runs: the two-era history durably linearizes and the
/// crashed processor comes back as a full participant.
#[test]
fn bounded_counter_crash_recover_durably_linearizable() {
    for seed in 0..20 {
        let n = 3;
        let fx = fixture(n);
        let crashed = fx.era(
            Box::new(RandomAdversary::new(seed).with_crashes(1, 2_000)),
            n,
            2,
        );
        let cut = fx.crash_restart_recover(&crashed);
        let crashed2 = fx.era(Box::new(RandomAdversary::new(seed + 1_000)), n, 2);
        assert!(crashed2.is_empty(), "second era runs crash-free");

        let h = fx.rec.history();
        // A victim crashed inside op k never begins ops k+1.. of era one.
        assert!(h.len() >= 3 * n && h.len() <= 4 * n, "{}", h.len());
        let res = check_durable(&h, CounterSpec::new(), &[cut]).unwrap();
        assert!(
            res.is_linearizable(),
            "seed {seed}: two-era history not durably linearizable: {h:?}"
        );
    }
}

/// Both processors of a 2-processor system die mid-operation; each recovery
/// must close over its own interrupted append *and* the other's announced
/// one (the re-run helping pass), and the object must stay usable.
#[test]
fn full_system_crash_recovers_and_resumes() {
    for seed in 0..20 {
        let n = 2;
        let fx = fixture(n);
        let crashed = fx.era(
            Box::new(RandomAdversary::new(seed).with_crashes(2, 300)),
            n,
            2,
        );
        let cut = fx.crash_restart_recover(&crashed);
        fx.era(Box::new(RandomAdversary::new(seed + 1_000)), n, 2);

        let h = fx.rec.history();
        let res = check_durable(&h, CounterSpec::new(), &[cut]).unwrap();
        assert!(res.is_linearizable(), "seed {seed}: {h:?}");
    }
}

/// Repeated crash–recover cycles: stale announcements or grab bits from any
/// dead incarnation would wedge reclamation and (with a Θ(n²) pool) abort a
/// later run; leaked never-appended cells must stay within the pool's
/// padding. Multi-cut durable linearizability across every era.
#[test]
fn repeated_crash_recover_cycles_do_not_wedge_the_pool() {
    let n = 2;
    let fx = fixture(n);
    let mut cuts = Vec::new();
    for cycle in 0..6u64 {
        let victim = Pid((cycle % 2) as usize);
        // Fail-stop the victim a few steps into its first operation; the
        // round-robin baseline keeps both processors active until then.
        let crashed = fx.era(
            Box::new(CrashPlan::new(
                vec![(victim, 3 + 2 * cycle)],
                RoundRobin::new(),
            )),
            n,
            2,
        );
        assert_eq!(crashed, vec![victim], "cycle {cycle}");
        cuts.push(fx.crash_restart_recover(&crashed));
    }
    // A final clean era: every processor still completes operations.
    fx.era(Box::new(RandomAdversary::new(9)), n, 2);

    let h = fx.rec.history();
    let res = check_durable(&h, CounterSpec::new(), &cuts).unwrap();
    assert!(res.is_linearizable(), "multi-era history: {h:?}");
    // The pool absorbed every leak: claimed cells stay within capacity.
    let in_use = fx.obj.cells_in_use(&*fx.dmem, Pid(0));
    assert!(
        in_use < fx.obj.pool_size(),
        "{in_use} of {} cells claimed — leaks outgrew the padding",
        fx.obj.pool_size()
    );
}

/// A block interrupted mid-flight is re-executed whole by `recover`. P0
/// publishes a block of three increments and fail-stops at a point swept
/// from just after the block's `has_cmd` flag is raised to just before its
/// state snapshot is written, so the crash lands before, inside and after
/// the append and during the scan back. Recovery must apply the whole
/// block exactly once: the next increments by both processors return 4
/// and 5, and the counter then reads 5.
#[test]
fn crash_mid_block_recovers_the_whole_block_once() {
    use sbu_mem::{AccessKind, LocId};
    const BLOCK: usize = 3;
    let block = [CounterOp::Inc; BLOCK];
    let era_one = |fx: &Fixture, adversary: Box<dyn sbu_sim::Adversary>| {
        let (obj, dmem) = (fx.obj.clone(), Arc::clone(&fx.dmem));
        run_uniform(
            &fx.sim,
            adversary,
            RunOptions::default(),
            2,
            move |_, pid| {
                if pid == Pid(0) {
                    obj.apply_batch(&*dmem, pid, &block);
                }
            },
        )
    };

    // Calibrate on a crash-free run: P0's first data write is the block,
    // its next write is the `has_cmd` flag, and its second data location
    // written is the state snapshot.
    let solo = era_one(&fixture(2), Box::new(RoundRobin::new()));
    let log = &solo.access_log;
    let is_data_write =
        |i: usize| matches!(log[i].loc, LocId::Data(_)) && log[i].kind == AccessKind::Write;
    let cmd = (0..log.len())
        .find(|&i| is_data_write(i))
        .expect("block written");
    let has_cmd = (cmd..log.len())
        .find(|&i| matches!(log[i].loc, LocId::Safe(_)))
        .expect("has_cmd raised");
    let published = (has_cmd..log.len())
        .take_while(|&i| log[i].loc == log[has_cmd].loc)
        .last()
        .expect("non-empty")
        + 1;
    let state = (published..log.len())
        .find(|&i| is_data_write(i) && log[i].loc != log[cmd].loc)
        .expect("state written");
    assert!(
        state > published + 20,
        "the append lies between publish and state"
    );

    for at in published..=state {
        let fx = fixture(2);
        let out = era_one(
            &fx,
            Box::new(CrashPlan::new(vec![(Pid(0), at as u64)], RoundRobin::new())),
        );
        assert!(out.outcomes[0].is_crashed(), "crash at step {at} missed");
        fx.dmem.crash::<CellPayload<CounterSpec>>(&[Pid(0)]);
        fx.dmem.restart(Pid(0));
        fx.obj.recover(&*fx.dmem, Pid(0));
        assert!(
            fx.dmem.violations().is_empty(),
            "{:?}",
            fx.dmem.violations()
        );

        let mut next: Vec<u64> = [Pid(1), Pid(0)]
            .into_iter()
            .map(|p| fx.obj.apply(&*fx.dmem, p, &CounterOp::Inc))
            .collect();
        next.sort_unstable();
        assert_eq!(
            next,
            vec![BLOCK as u64 + 1, BLOCK as u64 + 2],
            "crash at step {at}: the recovered block did not apply exactly once"
        );
        assert_eq!(
            fx.obj.apply(&*fx.dmem, Pid(1), &CounterOp::Read),
            BLOCK as u64 + 2
        );
    }
}
