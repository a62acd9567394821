//! Ready-made torture workloads over the paper's objects.
//!
//! Each workload builds real objects on the native backend
//! ([`sbu_mem::native::NativeMem`]), wires them into the [`torture`]
//! harness, and returns the monitor's [`TortureReport`]. All of them are
//! deterministic in the seed (up to OS scheduling, which only affects
//! interleavings — every interleaving must linearize).
//!
//! Fault injection ([`Inject`]) is only meaningful for [`Workload::Sticky`]:
//! the torn-jam/stale-read lies target raw sticky-bit operations, and the
//! higher-level objects (Figure 2 `Jam`, election, universal construction)
//! sit *on top of* those bits — a lying bit would violate their internal
//! invariants (Figure 2's helping protocol panics on them) rather than
//! surface as a clean object-level non-linearizability.

use crate::harness::{torture, StressConfig, StressObject, TortureReport};
use crate::inject::{Inject, TornMem};
use rand::Rng;
use sbu_core::{CellPayload, SpinLockUniversal, Universal};
use sbu_mem::{native::NativeMem, JamOutcome, Pid, Word, WordMem};
use sbu_spec::specs::{
    CounterOp, CounterSpec, QueueOp, QueueSpec, StickyOp, StickyResp, StickySpec,
};
use sbu_spec::SequentialSpec;
use sbu_sticky::consensus::StickyWordConsensus;
use sbu_sticky::{ConsensusStickyBit, JamWord, LeaderElection};

/// Which object family to torture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Raw native sticky bits (one `AtomicU8` CAS each).
    Sticky,
    /// The Figure 2 sticky byte (`JamWord`, width 8) with helping.
    Jam,
    /// Leader election from sticky bits (§4).
    Election,
    /// Sticky bit built from initializable consensus (§6 reduction).
    ConsensusSticky,
    /// Bounded universal construction (§5–6) wrapping a counter.
    UniversalCounter,
    /// Bounded universal construction wrapping a FIFO queue.
    UniversalQueue,
    /// Bounded universal construction wrapping a counter, with single
    /// commands and one-command blocks in one list: even pids submit each
    /// op as a block (`apply_batch(&[op])`), odd pids through `apply`.
    UniversalBlock,
}

impl Workload {
    /// All workloads, for `--workload all` style iteration.
    pub fn all() -> [Workload; 7] {
        [
            Workload::Sticky,
            Workload::Jam,
            Workload::Election,
            Workload::ConsensusSticky,
            Workload::UniversalCounter,
            Workload::UniversalQueue,
            Workload::UniversalBlock,
        ]
    }
}

impl std::str::FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sticky" => Ok(Workload::Sticky),
            "jam" => Ok(Workload::Jam),
            "election" => Ok(Workload::Election),
            "consensus-sticky" => Ok(Workload::ConsensusSticky),
            "universal-counter" => Ok(Workload::UniversalCounter),
            "universal-queue" => Ok(Workload::UniversalQueue),
            "universal-block" => Ok(Workload::UniversalBlock),
            other => Err(format!(
                "unknown workload {other:?} (sticky|jam|election|consensus-sticky|\
                 universal-counter|universal-queue|universal-block)"
            )),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Workload::Sticky => "sticky",
            Workload::Jam => "jam",
            Workload::Election => "election",
            Workload::ConsensusSticky => "consensus-sticky",
            Workload::UniversalCounter => "universal-counter",
            Workload::UniversalQueue => "universal-queue",
            Workload::UniversalBlock => "universal-block",
        };
        write!(f, "{s}")
    }
}

// The Figure 2 `Jam` word's sequential model now lives in `sbu-spec`
// (the service wire codec needs it without a harness dependency); the
// re-export keeps every existing `sbu_stress::workloads::JamWordSpec`
// path working.
pub use sbu_spec::specs::{JamWordOp, JamWordResp, JamWordSpec};

/// Sequential specification of leader election: the first `Elect` wins and
/// every later one observes the same winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ElectionSpec {
    leader: Option<usize>,
}

/// Commands accepted by [`ElectionSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElectionOp {
    /// Stand for election as processor `p` (returns the winner).
    Elect(usize),
    /// Read the current leader, if any.
    Leader,
}

/// Responses produced by [`ElectionSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElectionResp {
    /// The (unique, forever-fixed) winner.
    Winner(usize),
    /// The current leader (`None` before any election completes).
    Current(Option<usize>),
}

impl ElectionSpec {
    /// No leader elected yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SequentialSpec for ElectionSpec {
    type Op = ElectionOp;
    type Resp = ElectionResp;

    fn apply(&mut self, op: &ElectionOp) -> ElectionResp {
        match *op {
            ElectionOp::Elect(p) => ElectionResp::Winner(*self.leader.get_or_insert(p)),
            ElectionOp::Leader => ElectionResp::Current(self.leader),
        }
    }
}

fn sticky_exec<M: WordMem>(
    mem: &M,
    bit: sbu_mem::StickyBitId,
    pid: Pid,
    op: &StickyOp,
) -> StickyResp {
    match *op {
        StickyOp::Jam(v) => match mem.sticky_jam(pid, bit, v) {
            JamOutcome::Success => StickyResp::Success,
            JamOutcome::Fail => StickyResp::Fail,
        },
        StickyOp::Read => StickyResp::Value(mem.sticky_read(pid, bit)),
        // Flush is non-atomic (Definition 4.1) and never generated here.
        StickyOp::Flush => {
            mem.sticky_flush(pid, bit);
            StickyResp::Flushed
        }
    }
}

/// The fixed value thread `pid` jams into word `obj` (see the Jam workload:
/// one value per (thread, object), but neighbours disagree). Public so the
/// scenario harness (`sbu-scenario`) drives jam objects with the same
/// announcement discipline.
pub fn jam_value_for(pid: Pid, obj: usize) -> Word {
    (pid.0 as u64).wrapping_mul(7).wrapping_add(obj as u64 * 3) % 8
}

fn gen_sticky_op(rng: &mut rand::rngs::SmallRng) -> StickyOp {
    if rng.gen_bool(0.5) {
        StickyOp::Jam(rng.gen_bool(0.5))
    } else {
        StickyOp::Read
    }
}

/// The `Workload::Jam` body, parameterized over the candidate-switch
/// backoff cap (`None` = the paper-verbatim loop). Shared by
/// [`run_workload`] and the tuned arm [`run_jam_backoff`].
fn run_jam_inner(
    cfg: &StressConfig,
    registry: &sbu_obs::Registry,
    backoff_limit: Option<u32>,
) -> TortureReport {
    let mut mem = NativeMem::<()>::new();
    mem.attach_obs(registry);
    let words: Vec<JamWord> = (0..cfg.objects)
        .map(|_| {
            let word = JamWord::new(&mut mem, cfg.threads, 8).with_obs(registry);
            match backoff_limit {
                Some(limit) => word.with_backoff_limit(limit),
                None => word,
            }
        })
        .collect();
    let mem = &mem;
    let objects: Vec<StressObject<'_, JamWordSpec>> = words
        .iter()
        .map(|w| StressObject {
            init: JamWordSpec::new(),
            exec: Box::new(move |pid, op| match *op {
                JamWordOp::Jam(v) => {
                    let (outcome, value) = w.jam(mem, pid, v);
                    JamWordResp::Jam {
                        won: outcome.is_success(),
                        value,
                    }
                }
                JamWordOp::Read => JamWordResp::Value(w.read(mem, pid)),
            }),
        })
        .collect();
    // One fixed value per (thread, object): Figure 2's announcement
    // register `v_i` is single-writer per word, so a thread that
    // re-jams a *different* value would clobber its own announcement
    // while helpers are scanning it. Distinct threads still disagree,
    // which is the race the helping protocol exists for.
    torture(
        cfg,
        |pid| mem.op_invoke(pid),
        objects,
        |rng, pid, obj| {
            if rng.gen_bool(0.6) {
                JamWordOp::Jam(jam_value_for(pid, obj))
            } else {
                JamWordOp::Read
            }
        },
    )
}

/// [`Workload::Jam`] with the candidate-switch backoff capped at
/// `backoff_limit` (the E10 tuning knob: a failed bit jam spins locally
/// before rescanning candidates, shaving shared-word traffic at 4–8
/// threads; the shared-memory step sequence is unchanged, so the monitor
/// checks it exactly like the stock arm).
pub fn run_jam_backoff(cfg: &StressConfig, backoff_limit: u32) -> TortureReport {
    let registry = sbu_obs::Registry::new(cfg.threads);
    let mut report = run_jam_inner(cfg, &registry, Some(backoff_limit));
    report.metrics = registry.snapshot();
    report
}

/// Run `workload` under `cfg`, optionally with sticky-bit fault injection.
///
/// # Panics
///
/// Panics if `inject != Inject::None` for a workload other than
/// [`Workload::Sticky`] (see the module docs for why).
pub fn run_workload(workload: Workload, cfg: &StressConfig, inject: Inject) -> TortureReport {
    assert!(
        inject == Inject::None || workload == Workload::Sticky,
        "fault injection only targets the raw sticky workload"
    );
    // One registry per run: every backend and object attaches its
    // instruments here, and the final snapshot rides out on the report.
    // With the `obs` feature off all of this is free no-ops.
    let registry = sbu_obs::Registry::new(cfg.threads);
    let mut report = match workload {
        Workload::Sticky => {
            let mut inner = NativeMem::<()>::new();
            inner.attach_obs(&registry);
            let mut mem = TornMem::new(inner, inject).with_obs(&registry);
            let bits: Vec<_> = (0..cfg.objects).map(|_| mem.alloc_sticky_bit()).collect();
            let mem = &mem;
            let objects: Vec<StressObject<'_, StickySpec>> = bits
                .iter()
                .map(|&bit| StressObject {
                    init: StickySpec::new(),
                    exec: Box::new(move |pid, op| sticky_exec(mem, bit, pid, op)),
                })
                .collect();
            torture(
                cfg,
                |pid| mem.op_invoke(pid),
                objects,
                |rng, _, _| gen_sticky_op(rng),
            )
        }
        Workload::Jam => run_jam_inner(cfg, &registry, None),
        Workload::Election => {
            let mut mem = NativeMem::<()>::new();
            mem.attach_obs(&registry);
            let elections: Vec<LeaderElection> = (0..cfg.objects)
                .map(|_| LeaderElection::new(&mut mem, cfg.threads))
                .collect();
            let mem = &mem;
            let objects: Vec<StressObject<'_, ElectionSpec>> = elections
                .iter()
                .map(|e| StressObject {
                    init: ElectionSpec::new(),
                    exec: Box::new(move |pid, op| match *op {
                        ElectionOp::Elect(_) => ElectionResp::Winner(e.elect(mem, pid).0),
                        ElectionOp::Leader => {
                            ElectionResp::Current(e.leader(mem, pid).map(|p| p.0))
                        }
                    }),
                })
                .collect();
            torture(
                cfg,
                |pid| mem.op_invoke(pid),
                objects,
                |rng, pid, _| {
                    if rng.gen_bool(0.3) {
                        ElectionOp::Elect(pid.0)
                    } else {
                        ElectionOp::Leader
                    }
                },
            )
        }
        Workload::ConsensusSticky => {
            let mut mem = NativeMem::<()>::new();
            mem.attach_obs(&registry);
            let bits: Vec<ConsensusStickyBit<StickyWordConsensus>> = (0..cfg.objects)
                .map(|_| {
                    let consensus = StickyWordConsensus::new(&mut mem);
                    ConsensusStickyBit::new(&mut mem, consensus)
                })
                .collect();
            let mem = &mem;
            let objects: Vec<StressObject<'_, StickySpec>> = bits
                .iter()
                .map(|b| StressObject {
                    init: StickySpec::new(),
                    exec: Box::new(move |pid, op| match *op {
                        StickyOp::Jam(v) => match b.jam(mem, pid, v) {
                            JamOutcome::Success => StickyResp::Success,
                            JamOutcome::Fail => StickyResp::Fail,
                        },
                        StickyOp::Read => StickyResp::Value(b.read(mem, pid)),
                        StickyOp::Flush => StickyResp::Flushed, // never generated
                    }),
                })
                .collect();
            torture(
                cfg,
                |pid| mem.op_invoke(pid),
                objects,
                |rng, _, _| gen_sticky_op(rng),
            )
        }
        Workload::UniversalCounter | Workload::UniversalBlock => {
            let blocks = workload == Workload::UniversalBlock;
            let mut mem: NativeMem<CellPayload<CounterSpec>> = NativeMem::new();
            mem.attach_obs(&registry);
            let counters: Vec<Universal<CounterSpec>> = (0..cfg.objects)
                .map(|_| {
                    Universal::builder(cfg.threads)
                        .obs(&registry)
                        .build(&mut mem, CounterSpec::new())
                })
                .collect();
            let mem = &mem;
            let objects: Vec<StressObject<'_, CounterSpec>> = counters
                .iter()
                .map(|c| StressObject {
                    init: CounterSpec::new(),
                    exec: Box::new(move |pid, op| {
                        if blocks && pid.0 % 2 == 0 {
                            c.apply_batch(mem, pid, std::slice::from_ref(op))[0]
                        } else {
                            c.apply(mem, pid, op)
                        }
                    }),
                })
                .collect();
            torture(
                cfg,
                |pid| mem.op_invoke(pid),
                objects,
                |rng, _, _| match rng.gen_range(0u32..5) {
                    0..=2 => CounterOp::Inc,
                    3 => CounterOp::Add(rng.gen_range(1u64..5)),
                    _ => CounterOp::Read,
                },
            )
        }
        Workload::UniversalQueue => {
            let mut mem: NativeMem<CellPayload<QueueSpec>> = NativeMem::new();
            mem.attach_obs(&registry);
            let queues: Vec<Universal<QueueSpec>> = (0..cfg.objects)
                .map(|_| {
                    Universal::builder(cfg.threads)
                        .obs(&registry)
                        .build(&mut mem, QueueSpec::new())
                })
                .collect();
            let mem = &mem;
            let objects: Vec<StressObject<'_, QueueSpec>> = queues
                .iter()
                .map(|q| StressObject {
                    init: QueueSpec::new(),
                    exec: Box::new(move |pid, op| q.apply(mem, pid, op)),
                })
                .collect();
            torture(
                cfg,
                |pid| mem.op_invoke(pid),
                objects,
                |rng, _, _| match rng.gen_range(0u32..5) {
                    0..=1 => QueueOp::Enqueue(rng.gen_range(0u64..100)),
                    2..=3 => QueueOp::Dequeue,
                    _ => QueueOp::Len,
                },
            )
        }
    };
    report.metrics = registry.snapshot();
    report
}

/// Throughput measurement of the *same* sticky-byte workload against the
/// lock-based strawman ([`SpinLockUniversal`]), for the E10 baseline column:
/// completed ops/sec with `threads` threads hammering `objects` lock-based
/// jam words (monitored exactly like the native run).
pub fn run_lock_based_jam(cfg: &StressConfig) -> TortureReport {
    let registry = sbu_obs::Registry::new(cfg.threads);
    let mut mem: NativeMem<CellPayload<JamWordSpec>> = NativeMem::new();
    mem.attach_obs(&registry);
    let locks: Vec<SpinLockUniversal> = (0..cfg.objects)
        .map(|_| SpinLockUniversal::new(&mut mem, JamWordSpec::new()))
        .collect();
    let mem = &mem;
    let objects: Vec<StressObject<'_, JamWordSpec>> = locks
        .iter()
        .map(|l| StressObject {
            init: JamWordSpec::new(),
            exec: Box::new(move |pid, op| l.apply::<JamWordSpec, _>(mem, pid, op)),
        })
        .collect();
    // Same op mix as the native Jam workload, for a fair E10 comparison.
    let mut report = torture(
        cfg,
        |pid| mem.op_invoke(pid),
        objects,
        |rng, pid, obj| {
            if rng.gen_bool(0.6) {
                JamWordOp::Jam(jam_value_for(pid, obj))
            } else {
                JamWordOp::Read
            }
        },
    );
    report.metrics = registry.snapshot();
    report
}

/// Quick self-check: a two-thread, sub-second smoke of every workload (used
/// by unit tests; the real entry points are `examples/stress.rs` and the
/// `torture_smoke` integration tests).
#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> StressConfig {
        let mut cfg = StressConfig::new(threads, 96, 7);
        cfg.objects = 2;
        cfg
    }

    #[test]
    fn sticky_workload_linearizes() {
        let report = run_workload(Workload::Sticky, &tiny(3), Inject::None);
        report.assert_clean();
        assert_eq!(report.total_ops, 3 * 96);
        assert!(report.windows_checked > 0);
    }

    #[test]
    fn jam_word_spec_is_sticky() {
        let mut s = JamWordSpec::new();
        assert_eq!(s.apply(&JamWordOp::Read), JamWordResp::Value(None));
        assert_eq!(
            s.apply(&JamWordOp::Jam(3)),
            JamWordResp::Jam {
                won: true,
                value: 3
            }
        );
        assert_eq!(
            s.apply(&JamWordOp::Jam(5)),
            JamWordResp::Jam {
                won: false,
                value: 3
            }
        );
        assert_eq!(s.apply(&JamWordOp::Read), JamWordResp::Value(Some(3)));
    }

    #[test]
    fn election_spec_fixes_first_winner() {
        let mut s = ElectionSpec::new();
        assert_eq!(s.apply(&ElectionOp::Leader), ElectionResp::Current(None));
        assert_eq!(s.apply(&ElectionOp::Elect(2)), ElectionResp::Winner(2));
        assert_eq!(s.apply(&ElectionOp::Elect(0)), ElectionResp::Winner(2));
        assert_eq!(s.apply(&ElectionOp::Leader), ElectionResp::Current(Some(2)));
    }

    #[test]
    #[should_panic(expected = "only targets the raw sticky workload")]
    fn injection_rejected_off_sticky() {
        let _ = run_workload(Workload::Jam, &tiny(2), Inject::TornJam);
    }
}
