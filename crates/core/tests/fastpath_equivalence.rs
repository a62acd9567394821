//! The locality fast paths (frontier cursor, helping-scan combining, GFC
//! free-list hints — `UniversalConfig::fast_paths`) are pure optimizations:
//! every hint is validated under the same grab/jam protocol as a full scan,
//! so the set of reachable outcomes must be *identical* to the paper's
//! full-scan construction. This file checks that mechanically:
//!
//! * DPOR exploration of both configurations on the same workload reports
//!   zero violations, and the outcome sets reached within the same
//!   schedule budget are identical, on 2 and 3 processors;
//! * a random-schedule sweep (cheap enough for hundreds of runs) shows the
//!   two configurations reach the identical and *complete* outcome set —
//!   every linearization order of the increments;
//! * a property test drives the combining helper with random schedules and
//!   checks no announced command is ever dropped or applied twice.
//!
//! Block apply (`Universal::apply_batch`, a block of commands in one cell)
//! rides the same harness: increments submitted as blocks must reach
//! exactly the paper's outcome set (DPOR on 2–3 procs plus the random
//! sweep), a property test checks blocks are never dropped, duplicated or
//! reordered within one owner, a crash torture checks a crashed
//! processor's block is never *partially* applied, a long random sweep
//! mixes single commands and blocks in one list while cycling the cell
//! pool several times, and a pool-exhaustion test checks the combining
//! pass under GFC pressure still helps exactly the announced set.

use proptest::prelude::*;
use sbu_core::{bounded::UniversalConfig, CellPayload, Universal};
use sbu_sim::{
    run_uniform, Adversary, EpisodeResult, Explorer, RandomAdversary, RunOptions, Scripted, SimMem,
};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::cell::RefCell;
use std::collections::BTreeSet;

type Mem = SimMem<CellPayload<CounterSpec>>;

/// How an episode's processors submit their increment.
#[derive(Debug, Clone, Copy)]
enum Submit {
    /// `apply`.
    Apply,
    /// A one-command `apply_batch` block.
    Block,
}

/// One episode: `n` processors, one `Inc` each (submitted as `submit`),
/// under the given adversary. The verdict (a schedule-equivalence
/// invariant: responses and final state only) checks the responses form a
/// permutation of `1..=n`; the reached response vector is added to
/// `outcomes`.
fn episode(
    n: usize,
    config: UniversalConfig,
    submit: Submit,
    adversary: Box<dyn Adversary>,
    outcomes: &RefCell<BTreeSet<Vec<u64>>>,
) -> EpisodeResult {
    let mut mem: Mem = SimMem::new(n);
    let obj = Universal::builder(n)
        .config(config)
        .build(&mut mem, CounterSpec::new());
    let obj2 = obj.clone();
    let out = run_uniform(
        &mem,
        adversary,
        RunOptions {
            max_steps: 10_000_000,
        },
        n,
        move |mem, pid| match submit {
            Submit::Apply => obj2.apply(mem, pid, &CounterOp::Inc),
            Submit::Block => obj2.apply_batch(mem, pid, &[CounterOp::Inc])[0],
        },
    );
    let verdict = (|| {
        if !out.violations.is_empty() {
            return Err(format!("violations: {:?}", out.violations));
        }
        if out.aborted {
            return Err("aborted (wait-freedom?)".into());
        }
        let responses: Vec<u64> = out.results().into_iter().copied().collect();
        let mut sorted = responses.clone();
        sorted.sort_unstable();
        if sorted != (1..=n as u64).collect::<Vec<_>>() {
            return Err(format!("responses {responses:?} not a permutation"));
        }
        outcomes.borrow_mut().insert(responses);
        Ok(())
    })();
    EpisodeResult::from_outcome(&out, verdict)
}

/// DPOR-explore a bounded prefix; panic on any violating schedule, return
/// the outcome set reached.
fn dpor_outcome_set(
    n: usize,
    config: UniversalConfig,
    submit: Submit,
    budget: usize,
) -> BTreeSet<Vec<u64>> {
    let outcomes: RefCell<BTreeSet<Vec<u64>>> = RefCell::new(BTreeSet::new());
    let report = Explorer::new(budget).explore_dpor(|script| {
        episode(
            n,
            config,
            submit,
            Box::new(Scripted::new(script.to_vec())),
            &outcomes,
        )
    });
    report.assert_no_failures();
    assert!(report.schedules >= budget.min(2), "exploration barely ran");
    outcomes.into_inner()
}

/// Run `seeds` random schedules; panic on any violating run, return the
/// outcome set reached.
fn random_outcome_set(
    n: usize,
    config: UniversalConfig,
    submit: Submit,
    seeds: u64,
) -> BTreeSet<Vec<u64>> {
    let outcomes: RefCell<BTreeSet<Vec<u64>>> = RefCell::new(BTreeSet::new());
    for seed in 0..seeds {
        let result = episode(
            n,
            config,
            submit,
            Box::new(RandomAdversary::new(seed)),
            &outcomes,
        );
        if let Err(msg) = result.verdict {
            panic!("seed {seed}: {msg}");
        }
    }
    outcomes.into_inner()
}

/// Every permutation of `1..=n` as a response vector — the full outcome
/// set of `n` concurrent increments.
fn all_permutations(n: usize) -> BTreeSet<Vec<u64>> {
    fn go(rest: &mut Vec<u64>, acc: &mut Vec<u64>, out: &mut BTreeSet<Vec<u64>>) {
        if rest.is_empty() {
            out.insert(acc.clone());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            acc.push(v);
            go(rest, acc, out);
            acc.pop();
            rest.insert(i, v);
        }
    }
    let mut out = BTreeSet::new();
    go(&mut (1..=n as u64).collect(), &mut Vec::new(), &mut out);
    out
}

/// Two processors: DPOR (one representative per Mazurkiewicz trace) over
/// the same bounded prefix finds zero violations in either configuration
/// and reaches the identical outcome set. The full trees are far too large
/// to exhaust, so completeness of the outcome set is the random sweep's
/// job below; here the claim is systematic exploration agrees.
#[test]
fn dpor_outcome_sets_match_on_two_procs() {
    let budget = 150;
    let fast = dpor_outcome_set(2, UniversalConfig::for_procs(2), Submit::Apply, budget);
    let paper = dpor_outcome_set(
        2,
        UniversalConfig::for_procs(2).paper_scans(),
        Submit::Apply,
        budget,
    );
    assert_eq!(fast, paper, "fast paths changed the reachable outcomes");
}

/// Three processors: same property, smaller budget (episodes are longer
/// and DPOR's race analysis is quadratic in trace length).
#[test]
fn dpor_outcome_sets_match_on_three_procs() {
    let budget = 40;
    let fast = dpor_outcome_set(3, UniversalConfig::for_procs(3), Submit::Apply, budget);
    let paper = dpor_outcome_set(
        3,
        UniversalConfig::for_procs(3).paper_scans(),
        Submit::Apply,
        budget,
    );
    assert_eq!(fast, paper, "fast paths changed the reachable outcomes");
}

/// Random schedules reach every linearization order cheaply; across
/// hundreds of them the fast-path and paper-scan outcome sets must both be
/// the complete permutation set — the fast paths neither add outcomes nor
/// lose reachable ones.
#[test]
fn random_schedules_reach_identical_complete_outcome_sets() {
    for n in [2usize, 3] {
        let seeds = 120;
        let fast = random_outcome_set(n, UniversalConfig::for_procs(n), Submit::Apply, seeds);
        let paper = random_outcome_set(
            n,
            UniversalConfig::for_procs(n).paper_scans(),
            Submit::Apply,
            seeds,
        );
        assert_eq!(fast, paper, "n={n}: outcome sets diverge");
        assert_eq!(
            fast,
            all_permutations(n),
            "n={n}: some linearization order was never reached"
        );
    }
}

/// Two processors: increments submitted as one-command blocks reach
/// exactly the paper's outcome set under systematic exploration. The
/// explored schedules include one processor helping the other's announced
/// block cell into the list.
#[test]
fn dpor_outcome_sets_match_blocks_vs_paper_on_two_procs() {
    let budget = 150;
    let config = UniversalConfig::for_procs(2);
    let blocks = dpor_outcome_set(2, config, Submit::Block, budget);
    let paper = dpor_outcome_set(2, config.paper_scans(), Submit::Apply, budget);
    assert_eq!(blocks, paper, "blocks changed the reachable outcomes");
}

/// Three processors: same property, smaller budget.
#[test]
fn dpor_outcome_sets_match_blocks_vs_paper_on_three_procs() {
    let budget = 40;
    let config = UniversalConfig::for_procs(3);
    let blocks = dpor_outcome_set(3, config, Submit::Block, budget);
    let paper = dpor_outcome_set(3, config.paper_scans(), Submit::Apply, budget);
    assert_eq!(blocks, paper, "blocks changed the reachable outcomes");
}

/// Random schedules: the outcome set of increments submitted as blocks is
/// complete (every linearization order of the increments).
#[test]
fn random_schedules_blocks_reach_complete_outcome_set() {
    for n in [2usize, 3] {
        let seeds = 120;
        let blocks = random_outcome_set(n, UniversalConfig::for_procs(n), Submit::Block, seeds);
        assert_eq!(
            blocks,
            all_permutations(n),
            "n={n}: blocks lost or invented a linearization order"
        );
    }
}

/// Crash-mid-batch torture: across ≥100 seeded random schedules with
/// seeded crashes, a crashed processor's *block* (submitted as one
/// `apply_batch` call) is either fully applied or not applied at all —
/// never split. Survivors always complete (a crashed processor's announced
/// block is helped in or never appended), their responses are distinct
/// and per-processor increasing, and the final counter value accounts for
/// whole blocks only.
#[test]
fn crash_mid_batch_never_applies_a_partial_block() {
    const N: usize = 3;
    const BLOCK: usize = 2;
    let mut crashed_total = 0usize;
    for seed in 0..120u64 {
        let mut mem: Mem = SimMem::new(N);
        let obj = Universal::builder(N).build(&mut mem, CounterSpec::new());
        let obj2 = obj.clone();
        let responses: std::sync::Arc<parking_lot::Mutex<Vec<Vec<u64>>>> =
            std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); N]));
        let responses2 = std::sync::Arc::clone(&responses);
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed).with_crashes(2, 20_000)),
            RunOptions {
                max_steps: 20_000_000,
            },
            N,
            move |mem, pid| {
                let ops = vec![CounterOp::Inc; BLOCK];
                let rs = obj2.apply_batch(mem, pid, &ops);
                responses2.lock()[pid.0].extend(rs);
            },
        );
        assert!(
            out.violations.is_empty(),
            "seed {seed}: {:?}",
            out.violations
        );
        assert!(!out.aborted, "seed {seed}: aborted (a survivor wedged)");
        crashed_total += out.crashed_count();

        let survivors: Vec<usize> = (0..N).filter(|&i| !out.outcomes[i].is_crashed()).collect();
        assert!(!survivors.is_empty(), "seed {seed}: everyone crashed");
        let per_proc = responses.lock().clone();
        let mut all: Vec<u64> = Vec::new();
        for &i in &survivors {
            assert_eq!(
                per_proc[i].len(),
                BLOCK,
                "seed {seed}: survivor p{i} lost part of its block"
            );
            assert!(
                per_proc[i].windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: p{i}'s block reordered: {:?}",
                per_proc[i]
            );
            all.extend(&per_proc[i]);
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            all.len(),
            "seed {seed}: duplicated response across survivors"
        );

        // The counter's final value counts every applied entry. Survivor
        // blocks are fully applied; each crashed block contributes all of
        // its BLOCK entries or none — a partial application would leave a
        // remainder.
        let total = obj.apply(&mem, sbu_mem::Pid(survivors[0]), &CounterOp::Read);
        let survivor_ops = (survivors.len() * BLOCK) as u64;
        assert!(
            total >= survivor_ops,
            "seed {seed}: survivor entries lost (total {total})"
        );
        let crashed_entries = total - survivor_ops;
        assert_eq!(
            crashed_entries % BLOCK as u64,
            0,
            "seed {seed}: a crashed block was partially applied \
             (total {total}, {} survivors)",
            survivors.len()
        );
        assert!(
            crashed_entries <= (out.crashed_count() * BLOCK) as u64,
            "seed {seed}: more crashed entries than crashed blocks"
        );
        assert!(
            all.iter().all(|&r| r <= total),
            "seed {seed}: a response exceeds the final total"
        );
    }
    assert!(
        crashed_total >= 10,
        "torture too tame: only {crashed_total} crashes across all seeds"
    );
}

/// Mixed lists over many pool cycles: under random schedules, processors
/// interleave `apply` and `apply_batch` (blocks of 1–3) on one counter
/// until the 4n² + 8n + 4 pool has been cycled at least three times, so
/// every cell is reclaimed and re-used while single commands and blocks
/// share the list. The responses are exactly `1..=total`, each processor's
/// strictly increase, and each block's are consecutive (its commands
/// linearize back to back at the block's append).
#[test]
fn mixed_commands_and_blocks_cycle_the_pool() {
    for (n, seeds) in [(2usize, 6u64), (3, 3)] {
        let pool = UniversalConfig::for_procs(n).cells;
        // Every call takes one cell.
        let calls = 3 * pool / n + 1;
        for seed in 0..seeds {
            let mut mem: Mem = SimMem::new(n);
            let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
            let obj2 = obj.clone();
            let groups: std::sync::Arc<parking_lot::Mutex<Vec<Vec<Vec<u64>>>>> =
                std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); n]));
            let groups2 = std::sync::Arc::clone(&groups);
            let out = run_uniform(
                &mem,
                Box::new(RandomAdversary::new(seed)),
                RunOptions {
                    max_steps: 50_000_000,
                },
                n,
                move |mem, pid| {
                    for i in 0..calls {
                        // 0 = one `apply`, 1..=3 = a block of that length.
                        let len = (i * 7 + pid.0 * 3 + seed as usize) % 4;
                        let rs = if len == 0 {
                            vec![obj2.apply(mem, pid, &CounterOp::Inc)]
                        } else {
                            obj2.apply_batch(mem, pid, &vec![CounterOp::Inc; len])
                        };
                        groups2.lock()[pid.0].push(rs);
                    }
                },
            );
            assert!(
                out.violations.is_empty(),
                "n={n} seed {seed}: {:?}",
                out.violations
            );
            assert!(!out.aborted, "n={n} seed {seed}: aborted (wait-freedom?)");

            let per_proc = groups.lock().clone();
            let mut all: Vec<u64> = Vec::new();
            for (i, gs) in per_proc.iter().enumerate() {
                assert_eq!(gs.len(), calls, "n={n} seed {seed}: p{i} lost a call");
                for g in gs {
                    assert!(
                        g.windows(2).all(|w| w[1] == w[0] + 1),
                        "n={n} seed {seed}: p{i}'s block {g:?} is not consecutive"
                    );
                }
                let mine: Vec<u64> = gs.iter().flatten().copied().collect();
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "n={n} seed {seed}: p{i}'s responses not strictly increasing"
                );
                all.extend(mine);
            }
            let total = all.len() as u64;
            all.sort_unstable();
            assert_eq!(
                all,
                (1..=total).collect::<Vec<_>>(),
                "n={n} seed {seed}: a command was dropped or duplicated"
            );
            assert_eq!(obj.apply(&mem, sbu_mem::Pid(0), &CounterOp::Read), total);
        }
    }
}

/// Combining under GFC exhaustion: with the pool squeezed to 2n + 4 cells —
/// a sliver of the guaranteed 4n² + 8n + 4 — processors regularly announce
/// appends while GFC spins waiting for reclamation, so the helping/combining
/// pass runs interleaved with GFC churn and head cursors go stale (reclaimed
/// and reused cells cut the hint walks). The exact 2n + 2 floor is not used
/// because liveness is not guaranteed there (see
/// `undersized_pool_aborts_cleanly`).
///
/// Contract: no run ever reports a violation, every completed run helped
/// exactly the announced set — each command applied exactly once — and the
/// churn visibly stressed the cursors (`core.frontier_miss` fires, checked
/// when the instruments are compiled in). The *fallback* itself needs both
/// cursors cold in one FIND-HEAD call, which random schedules essentially
/// never produce — the frontier refreshes on every append — so that path
/// is pinned deterministically by
/// `bounded::list::tests::cold_cursors_force_the_full_scan_fallback`.
#[test]
fn combining_survives_gfc_exhaustion_and_falls_back() {
    const N: usize = 3;
    const OPS: usize = 5;
    let registry = sbu_obs::Registry::new(N);
    let mut completed = 0usize;
    for seed in 0..16u64 {
        let mut mem: Mem = SimMem::new(N);
        let obj = Universal::builder(N)
            .config(UniversalConfig::with_cells(2 * N + 4))
            .obs(&registry)
            .build(&mut mem, CounterSpec::new());
        let obj2 = obj.clone();
        let responses: std::sync::Arc<parking_lot::Mutex<Vec<Vec<u64>>>> =
            std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); N]));
        let responses2 = std::sync::Arc::clone(&responses);
        let out = run_uniform(
            &mem,
            Box::new(RandomAdversary::new(seed)),
            RunOptions {
                max_steps: 1_000_000,
            },
            N,
            move |mem, pid| {
                for _ in 0..OPS {
                    let r = obj2.apply(mem, pid, &CounterOp::Inc);
                    responses2.lock()[pid.0].push(r);
                }
            },
        );
        assert!(
            out.violations.is_empty(),
            "seed {seed}: {:?}",
            out.violations
        );
        if out.aborted {
            continue; // exhaustion bit the step limit: loud, not corrupt
        }
        completed += 1;
        let mut all: Vec<u64> = responses.lock().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (1..=(N * OPS) as u64).collect::<Vec<_>>(),
            "seed {seed}: a command was dropped or duplicated under exhaustion"
        );
    }
    assert!(
        completed >= 8,
        "only {completed}/16 exhaustion runs completed — tight pool wedges too often"
    );
    if cfg!(feature = "obs") {
        let snap = registry.snapshot();
        assert!(
            snap.counter("core.frontier_miss") > 0,
            "exhaustion churn never even staled a cursor"
        );
        assert!(
            snap.counter("core.grab_retry") > 0,
            "exhaustion churn never raced a reclamation"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Combining soundness: under random schedules, every announced
    /// increment is applied exactly once — the counter's responses are
    /// exactly the multiset {1, …, total}, each processor's own responses
    /// strictly increase (its commands are not reordered), and the final
    /// total equals the number of operations issued. A dropped command
    /// would shrink the multiset; a duplicated one would repeat a value.
    #[test]
    fn combining_never_drops_or_duplicates_commands(
        n in 2usize..4,
        ops_per_proc in 1usize..4,
        script in prop::collection::vec(0usize..3, 0..160),
    ) {
        let mut mem: Mem = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
        let obj2 = obj.clone();
        let responses: std::sync::Arc<parking_lot::Mutex<Vec<Vec<u64>>>> =
            std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); n]));
        let responses2 = std::sync::Arc::clone(&responses);
        let out = run_uniform(
            &mem,
            Box::new(Scripted::new(script)),
            RunOptions { max_steps: 20_000_000 },
            n,
            move |mem, pid| {
                for _ in 0..ops_per_proc {
                    let r = obj2.apply(mem, pid, &CounterOp::Inc);
                    responses2.lock()[pid.0].push(r);
                }
            },
        );
        prop_assert!(out.violations.is_empty(), "{:?}", out.violations);
        prop_assert!(!out.aborted, "aborted (wait-freedom?)");

        let total = n * ops_per_proc;
        let per_proc = responses.lock().clone();
        for (i, rs) in per_proc.iter().enumerate() {
            prop_assert_eq!(rs.len(), ops_per_proc, "p{} lost a response", i);
            prop_assert!(
                rs.windows(2).all(|w| w[0] < w[1]),
                "p{}'s responses {:?} not strictly increasing", i, rs
            );
        }
        let mut all: Vec<u64> = per_proc.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(
            all,
            (1..=total as u64).collect::<Vec<_>>(),
            "a command was dropped or duplicated"
        );
        let read = obj.apply(&mem, sbu_mem::Pid(0), &CounterOp::Read);
        prop_assert_eq!(read, total as u64);
    }

    /// Block soundness: random schedules over blocks submitted via
    /// `apply_batch` (chunk sizes drawn per case) never drop, duplicate or
    /// reorder one owner's commands — the response multiset is exactly
    /// {1, …, total}, each processor's responses strictly increase, and
    /// the final total matches. This exercises blocks appended by their
    /// owner and blocks helped in by another processor.
    #[test]
    fn batched_blocks_never_drop_duplicate_or_reorder(
        n in 2usize..4,
        ops_per_proc in 1usize..5,
        chunk in 1usize..4,
        script in prop::collection::vec(0usize..3, 0..160),
    ) {
        let mut mem: Mem = SimMem::new(n);
        let obj = Universal::builder(n).build(&mut mem, CounterSpec::new());
        let obj2 = obj.clone();
        let responses: std::sync::Arc<parking_lot::Mutex<Vec<Vec<u64>>>> =
            std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); n]));
        let responses2 = std::sync::Arc::clone(&responses);
        let out = run_uniform(
            &mem,
            Box::new(Scripted::new(script)),
            RunOptions { max_steps: 20_000_000 },
            n,
            move |mem, pid| {
                let ops = vec![CounterOp::Inc; ops_per_proc];
                for block in ops.chunks(chunk) {
                    let rs = obj2.apply_batch(mem, pid, block);
                    responses2.lock()[pid.0].extend(rs);
                }
            },
        );
        prop_assert!(out.violations.is_empty(), "{:?}", out.violations);
        prop_assert!(!out.aborted, "aborted (wait-freedom?)");

        let total = n * ops_per_proc;
        let per_proc = responses.lock().clone();
        for (i, rs) in per_proc.iter().enumerate() {
            prop_assert_eq!(rs.len(), ops_per_proc, "p{} lost a response", i);
            prop_assert!(
                rs.windows(2).all(|w| w[0] < w[1]),
                "p{}'s responses {:?} not strictly increasing", i, rs
            );
        }
        let mut all: Vec<u64> = per_proc.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(
            all,
            (1..=total as u64).collect::<Vec<_>>(),
            "a command was dropped or duplicated"
        );
        let read = obj.apply(&mem, sbu_mem::Pid(0), &CounterOp::Read);
        prop_assert_eq!(read, total as u64);
    }
}
