//! "Universality of consensus" — the title claim, literally.
//!
//! The bounded construction fixes its agreement primitive (sticky fields).
//! This variant is parameterized over **any**
//! [`Consensus`] object: each list cell
//! carries one consensus instance deciding its unique successor. Plugging
//! in different consensus implementations discharges the paper's
//! corollaries by construction:
//!
//! * [`StickyWordConsensus`](sbu_sticky::consensus::StickyWordConsensus) —
//!   a deterministic cross-validation of the sticky-based constructions;
//! * [`RandomizedConsensus`](sbu_sticky::RandomizedConsensus) — the
//!   introduction's punchline: a **randomized wait-free universal object
//!   from registers only** ("polynomial number of safe bits is sufficient
//!   to convert a safe implementation into a (randomized) wait-free one").
//!
//! Like [`UnboundedUniversal`](crate::unbounded::UnboundedUniversal) this
//! variant consumes one arena cell per operation (no reclamation — the
//! bounded pool is the sticky construction's speciality). Unlike it, the
//! list is *discovered* rather than stored: every walk starts from the
//! anchor and follows consensus decisions, so no shared back-pointers or
//! sequence numbers are needed — only the consensus objects, safe has-bits,
//! and data cells. That keeps the register-only claim clean.
//!
//! Append correctness argument: a walker's walk ends at the true list end
//! `e` at walk time (the only cell whose successor consensus is still
//! undecided — a decision invisible to `decision()` because its winner
//! crashed pre-publication is *discovered* by the walker's own `propose`,
//! which by agreement returns the established winner). A candidate is
//! proposed only if it was not seen linked during the walk; since the only
//! place anything can link afterwards is `e` itself, no cell can ever be
//! linked twice, so the list stays a simple chain.

use crate::CellPayload;
use parking_lot::Mutex;
use sbu_mem::{DataId, DataMem, Pid, SafeId};
use sbu_spec::SequentialSpec;
use sbu_sticky::consensus::Consensus;
use std::sync::Arc;

struct ArenaCell<C> {
    cmd: DataId,
    has_cmd: SafeId,
    state: DataId,
    has_state: SafeId,
    /// Consensus on this cell's successor in the list.
    succ: C,
}

struct Inner<S, C> {
    n: usize,
    ops_per_proc: usize,
    cells: Vec<ArenaCell<C>>,
    /// Announced pending cell per processor: `0 = ⊥`, else index + 1.
    announce: Vec<SafeId>,
    locals: Vec<Mutex<ProcLocal>>,
    _spec: std::marker::PhantomData<fn() -> S>,
}

#[derive(Default)]
struct ProcLocal {
    used: usize,
}

const ANCHOR: usize = 0;

/// A wait-free universal construction from an arbitrary consensus object.
///
/// ```
/// use sbu_core::ConsensusUniversal;
/// use sbu_mem::{native::NativeMem, Pid};
/// use sbu_spec::specs::{CounterSpec, CounterOp};
/// use sbu_sticky::consensus::StickyWordConsensus;
///
/// let mut mem = NativeMem::new();
/// let counter = ConsensusUniversal::new(&mut mem, 2, 8, CounterSpec::new(),
///                                       StickyWordConsensus::new);
/// assert_eq!(counter.apply(&mem, Pid(0), &CounterOp::Inc), 1);
/// assert_eq!(counter.apply(&mem, Pid(1), &CounterOp::Inc), 2);
/// ```
pub struct ConsensusUniversal<S: SequentialSpec, C> {
    inner: Arc<Inner<S, C>>,
}

impl<S: SequentialSpec, C> Clone for ConsensusUniversal<S, C> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: SequentialSpec, C> std::fmt::Debug for ConsensusUniversal<S, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusUniversal")
            .field("n_procs", &self.inner.n)
            .field("arena", &self.inner.cells.len())
            .finish_non_exhaustive()
    }
}

impl<S, C> ConsensusUniversal<S, C>
where
    S: SequentialSpec + Send + Sync,
    S::Op: Send + Sync,
    C: Send + Sync,
{
    /// Build the object, creating one consensus instance per arena cell via
    /// `make_consensus` (e.g. `StickyWordConsensus::new`, or a closure
    /// seeding `RandomizedConsensus`).
    pub fn new<M>(
        mem: &mut M,
        n: usize,
        ops_per_proc: usize,
        initial: S,
        mut make_consensus: impl FnMut(&mut M) -> C,
    ) -> Self
    where
        M: DataMem<CellPayload<S>>,
    {
        assert!(n >= 1 && ops_per_proc >= 1);
        let total = 1 + n * ops_per_proc;
        let cells: Vec<ArenaCell<C>> = (0..total)
            .map(|_| ArenaCell {
                cmd: mem.alloc_data(None),
                has_cmd: mem.alloc_safe(0),
                state: mem.alloc_data(None),
                has_state: mem.alloc_safe(0),
                succ: make_consensus(mem),
            })
            .collect();
        let inner = Inner {
            n,
            ops_per_proc,
            cells,
            announce: (0..n).map(|_| mem.alloc_safe(0)).collect(),
            locals: (0..n).map(|_| Mutex::new(ProcLocal::default())).collect(),
            _spec: std::marker::PhantomData,
        };
        let pid0 = Pid(0);
        mem.data_write(pid0, inner.cells[ANCHOR].state, CellPayload::State(initial));
        mem.safe_write(pid0, inner.cells[ANCHOR].has_state, 1);
        Self {
            inner: Arc::new(inner),
        }
    }

    /// Walk the list from the anchor, following `decision()`s. Returns the
    /// chain of cell indices (anchor first) up to the current end.
    fn walk<M>(&self, mem: &M, pid: Pid) -> Vec<usize>
    where
        M: DataMem<CellPayload<S>>,
        C: Consensus<M>,
    {
        let inner = &*self.inner;
        let mut chain = vec![ANCHOR];
        let mut cur = ANCHOR;
        while let Some(next) = inner.cells[cur].succ.decision(mem, pid) {
            let next = next as usize;
            assert!(next < inner.cells.len(), "decided successor out of range");
            assert!(
                !chain.contains(&next),
                "cycle: cell {next} linked twice (the walked-set validation \
                 must prevent this)"
            );
            chain.push(next);
            cur = next;
        }
        chain
    }

    /// Execute `op`; linearized when some successor consensus decides its
    /// cell.
    pub fn apply<M>(&self, mem: &M, pid: Pid, op: &S::Op) -> S::Resp
    where
        M: DataMem<CellPayload<S>>,
        C: Consensus<M>,
    {
        let inner = &*self.inner;
        assert!(pid.0 < inner.n);
        let mut local = inner.locals[pid.0].lock();
        assert!(
            local.used < inner.ops_per_proc,
            "arena exhausted (raise ops_per_proc)"
        );
        let cell = 1 + pid.0 * inner.ops_per_proc + local.used;
        local.used += 1;

        mem.data_write(pid, inner.cells[cell].cmd, CellPayload::Cmd(op.clone()));
        mem.safe_write(pid, inner.cells[cell].has_cmd, 1);
        mem.safe_write(pid, inner.announce[pid.0], cell as u64 + 1);

        // Append: walk, pick the priority candidate, propose at the end.
        let chain = loop {
            let chain = self.walk(mem, pid);
            if chain.contains(&cell) {
                break chain;
            }
            let end = *chain.last().expect("chain contains the anchor");
            let turn = chain.len() % inner.n;
            let cand = {
                let a = mem.safe_read(pid, inner.announce[turn]) as usize;
                let idx = a.wrapping_sub(1);
                if a != 0
                    && idx < inner.cells.len()
                    && mem.safe_read(pid, inner.cells[idx].has_cmd) != 0
                    && !chain.contains(&idx)
                {
                    idx
                } else {
                    cell
                }
            };
            inner.cells[end].succ.propose(mem, pid, cand as u64);
        };
        mem.safe_write(pid, inner.announce[pid.0], 0);

        // Compute my response from the nearest snapshot behind my cell.
        let my_pos = chain.iter().position(|&c| c == cell).expect("appended");
        let mut ops_to_apply: Vec<&usize> = Vec::new();
        let mut base: Option<S> = None;
        for c in chain[..my_pos].iter().rev() {
            if mem.safe_read(pid, inner.cells[*c].has_state) != 0 {
                match mem.data_read(pid, inner.cells[*c].state) {
                    Some(CellPayload::State(s)) => {
                        base = Some(s);
                        break;
                    }
                    _ => panic!("cell {c}: state slot corrupt"),
                }
            }
            ops_to_apply.push(c);
        }
        let mut state = base.expect("the anchor always holds a state");
        for c in ops_to_apply.iter().rev() {
            match mem.data_read(pid, inner.cells[**c].cmd) {
                Some(CellPayload::Cmd(o)) => {
                    state.apply(&o);
                }
                _ => panic!("cell {c}: command slot corrupt"),
            }
        }
        let resp = state.apply(op);
        mem.data_write(pid, inner.cells[cell].state, CellPayload::State(state));
        mem.safe_write(pid, inner.cells[cell].has_state, 1);
        resp
    }
}

// Note: `UniversalObject` is not implemented for `ConsensusUniversal`
// because its `apply` needs `C: Consensus<M>` for the *caller's* backend
// `M`, which the object-safe-over-all-backends trait cannot express. Use
// the inherent `apply` directly.
