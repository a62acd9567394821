//! The paper's bounded-memory universal construction (Sections 5–6).
//!
//! A fixed pool of **cells** (Figure 3) is linked into a list: appending a
//! cell *is* the linearization of its operation. Every decision that must
//! be agreed on — who owns a cell, which cell succeeds the head, where a
//! cell points — is a sticky field, decided by jamming. Every protocol is
//! paired with a *helping* protocol so that a crashed processor can never
//! block anyone:
//!
//! * **GFC** (get free cell, Figure 6, `gfc.rs`) — announce, claim a cell by
//!   jamming your id into its `ProcID`, then prepare cells for everyone
//!   else still searching.
//! * **APPEND** (Figures 7–8, `list.rs`) — announce the cell, find the head
//!   (a full-pool scan for `Next ≠ ⊥ ∧ ¬NotHead`), jam the head's `Prev`
//!   to become its successor, then help every announced append.
//! * **GRAB/RELEASE/INIT** (Figures 4–5, `sync.rs`) — the reclamation
//!   handshake that makes the *non-atomic* `Flush` safe: a processor may
//!   only flush (reinitialize) a cell after observing every `r_j` bit at 0
//!   with the `Init` flag raised, so no reader can be inside the cell.
//! * **Freeing** (Section 5) — after writing its state snapshot, a
//!   processor marks distance bits `b_1..b_n` on the `n` cells behind it;
//!   an owner reclaims only fully-marked cells, which no scan can still
//!   reach.
//!
//! The `apply` loop itself is Section 5's six steps: get a cell, store the
//! command, append, scan back to the nearest state snapshot (at most `n`
//! command cells away), recompute, publish the new snapshot, mark, return.
//! `apply_batch` runs the same six steps for a block of commands stored in
//! one cell: Def 3.1 lets one append linearize the whole block.

mod cell;
mod gfc;
mod list;
mod obs;
mod sync;

pub use cell::UniversalConfig;
pub use obs::CoreObs;

use crate::{CellPayload, UniversalObject};
use cell::CellHandles;
use parking_lot::Mutex;
use sbu_mem::{AtomicId, Backoff, DataMem, Pid, SafeId, WordMem};
use sbu_spec::SequentialSpec;
use std::sync::Arc;

/// Index of the anchor cell, which holds the initial state and is never
/// reclaimed.
pub(crate) const ANCHOR: usize = 0;

/// One pool cell's observable (sticky/safe-flag) state — a read-only view
/// for tests and debugging; see [`Universal::debug_pool_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSnapshot {
    /// The `Claimed` sticky bit.
    pub claimed: sbu_mem::Tri,
    /// The `ProcID` sticky word (owner pid, or the anchor sentinel `n`).
    pub owner: Option<u64>,
    /// The `NotHead` sticky bit.
    pub not_head: sbu_mem::Tri,
    /// The `Next` pointer.
    pub next: Option<usize>,
    /// The `Prev` pointer.
    pub prev: Option<usize>,
    /// Whether a command has been published.
    pub has_cmd: bool,
    /// Whether a state snapshot has been published.
    pub has_state: bool,
}

/// Per-processor private memory (the paper's processors have local state;
/// none of this is shared).
///
/// The collections are plain `Vec`s, not hash maps: `grabs` holds at most
/// 3 entries (Theorem 6.6) and `dirty` at most as many, so linear search
/// beats hashing — and, more importantly for the service runtime, a fresh
/// `ProcLocal` is three empty `Vec`s (no heap allocation at all), keeping
/// bulk `Universal` construction cheap.
#[derive(Debug, Default)]
pub(crate) struct ProcLocal {
    /// Cells this processor has claimed and not yet reclaimed.
    owned: Vec<usize>,
    /// Re-entrant `(cell, count)` grab entries (a processor holds at most
    /// 3 grabs at once, Theorem 6.6's accounting).
    grabs: Vec<(usize, usize)>,
    /// Last head this processor observed (the FIND-HEAD fast path).
    head_hint: Option<usize>,
    /// Cells this processor reclaimed, retried first by GFC (fast path).
    free_hints: Vec<usize>,
    /// Grabbed cells this processor jammed a sticky field of. RELEASE
    /// fences such writes (flush-on-dependence) before clearing `r`, so
    /// the owner's INIT quiescence observation implies every foreign jam
    /// into the cell is already durable — see DESIGN.md §9.4.
    dirty: Vec<usize>,
}

pub(crate) struct Inner<S> {
    pub(crate) n: usize,
    pub(crate) use_fast_paths: bool,
    pub(crate) backoff_limit: u32,
    pub(crate) cells: Vec<CellHandles>,
    /// Flat `cells.len() × n` slab of grab bits: `r_bits[c*n + j]` is cell
    /// `c`'s `r_j`. One allocation for the whole pool (see `CellHandles`).
    pub(crate) r_bits: Vec<SafeId>,
    /// Flat `cells.len() × n` slab of distance bits, laid out like `r_bits`.
    pub(crate) b_bits: Vec<SafeId>,
    pub(crate) announce_gfc: Vec<SafeId>,
    pub(crate) announce_append: Vec<SafeId>,
    pub(crate) announce_append_cell: Vec<SafeId>,
    /// The frontier cursor: an advisory atomic register holding the most
    /// recently appended cell any processor knows of. FIND-HEAD starts its
    /// walk here instead of scanning the pool from cell 0; every hit is
    /// still validated (`Next ≠ ⊥ ∧ ¬NotHead`) under a grab, so a stale
    /// cursor only costs time, never correctness.
    pub(crate) frontier: AtomicId,
    pub(crate) locals: Vec<Mutex<ProcLocal>>,
    /// Hot-path instruments (inert unless attached via the builder; never
    /// a shared-memory step either way).
    pub(crate) obs: CoreObs,
    pub(crate) _spec: std::marker::PhantomData<fn() -> S>,
}

/// The bounded wait-free universal construction (Theorem 6.6).
///
/// Transforms the *safe* sequential implementation `S` (a plain Rust state
/// machine) into a linearizable, wait-free shared object for `n`
/// processors, using only sticky primitives and safe registers.
///
/// ```
/// use sbu_core::Universal;
/// use sbu_mem::{native::NativeMem, Pid};
/// use sbu_spec::specs::{CounterSpec, CounterOp};
///
/// let mut mem = NativeMem::new();
/// let counter = Universal::builder(2).build(&mut mem, CounterSpec::new());
/// assert_eq!(counter.apply(&mem, Pid(0), &CounterOp::Inc), 1);
/// assert_eq!(counter.apply(&mem, Pid(1), &CounterOp::Inc), 2);
/// ```
///
/// Non-default pool sizing and observability attach through the builder:
///
/// ```
/// use sbu_core::{Universal, bounded::UniversalConfig};
/// use sbu_mem::native::NativeMem;
/// use sbu_spec::specs::CounterSpec;
///
/// let registry = sbu_obs::Registry::new(2);
/// let mut mem = NativeMem::new();
/// let counter = Universal::builder(2)
///     .config(UniversalConfig::with_cells(40).paper_scans())
///     .obs(&registry)
///     .build(&mut mem, CounterSpec::new());
/// assert_eq!(counter.pool_size(), 40);
/// ```
pub struct Universal<S: SequentialSpec> {
    pub(crate) inner: Arc<Inner<S>>,
}

impl<S: SequentialSpec> std::fmt::Debug for Universal<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Universal")
            .field("n_procs", &self.inner.n)
            .field("pool", &self.inner.cells.len())
            .field("fast_paths", &self.inner.use_fast_paths)
            .finish_non_exhaustive()
    }
}

impl<S: SequentialSpec> Clone for Universal<S> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S> Universal<S>
where
    S: SequentialSpec + Send + Sync,
    S::Op: Send + Sync,
{
    /// Start building the object for `n` processors: the default Θ(n²)
    /// pool, fast paths on, no observability. Chain
    /// [`UniversalBuilder::config`] and [`UniversalBuilder::obs`], then
    /// call [`UniversalBuilder::build`].
    pub fn builder(n: usize) -> UniversalBuilder<S> {
        UniversalBuilder {
            n,
            config: UniversalConfig::for_procs(n),
            obs: CoreObs::default(),
            _spec: std::marker::PhantomData,
        }
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.inner.n
    }

    /// Size of the cell pool.
    pub fn pool_size(&self) -> usize {
        self.inner.cells.len()
    }

    /// Number of pool cells currently claimed (live), for Theorem 6.6's
    /// space accounting (experiment E3). Counts the anchor.
    pub fn cells_in_use<M: DataMem<CellPayload<S>>>(&self, mem: &M, pid: Pid) -> usize {
        self.inner
            .cells
            .iter()
            .filter(|c| !mem.sticky_read(pid, c.claimed).is_undef())
            .count()
    }

    /// Observable per-cell state, for tests and forensics.
    pub fn debug_pool_snapshot<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
    ) -> Vec<CellSnapshot> {
        self.inner
            .cells
            .iter()
            .map(|c| CellSnapshot {
                claimed: mem.sticky_read(pid, c.claimed),
                owner: mem.sticky_word_read(pid, c.proc_id),
                not_head: mem.sticky_read(pid, c.not_head),
                next: mem.sticky_word_read(pid, c.next).map(|v| v as usize),
                prev: mem.sticky_word_read(pid, c.prev).map(|v| v as usize),
                has_cmd: mem.safe_read(pid, c.has_cmd) != 0,
                has_state: mem.safe_read(pid, c.has_state) != 0,
            })
            .collect()
    }

    /// Execute `op`, linearized at the step its cell is appended to the
    /// list. Wait-free: O(n) safe-implementation calls plus O(pool · n)
    /// register operations (Section 6.4).
    pub fn apply<M: DataMem<CellPayload<S>>>(&self, mem: &M, pid: Pid, op: &S::Op) -> S::Resp {
        assert!(pid.0 < self.inner.n, "pid out of range");
        let mut local = self.inner.locals[pid.0].lock();
        let inner = &*self.inner;

        // Steps 1–2: get a free cell, store the command and publish it.
        let cell = inner.publish(mem, pid, &mut local, CellPayload::Cmd(op.clone()));

        // Steps 3–6 (shared with `apply_batch` and with crash recovery,
        // which re-executes them for an operation interrupted after its
        // command was published).
        let mut resp = None;
        inner.finish_apply(mem, pid, &mut local, cell, std::slice::from_ref(op), |r| {
            resp = Some(r);
        });

        // Fence before acknowledging: every persistent write backing this
        // response (the jams of the append and the state/command data) must
        // survive a crash that arrives after the caller has seen the
        // result — the durable-linearizability contract for completed ops.
        mem.persist(pid);
        resp.expect("one response per command")
    }

    /// Execute a whole block of `ops` as **one** cell: the same six steps
    /// as [`Universal::apply`] — announced append with helping, one scan
    /// back, one recompute — with one response per command, in order. The
    /// block's commands linearize back to back at the cell's append (Def
    /// 3.1), so per-command linearizability is unchanged. A block of any
    /// length is one cell; an empty block appends nothing and returns no
    /// responses.
    pub fn apply_batch<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
        ops: &[S::Op],
    ) -> Vec<S::Resp> {
        assert!(pid.0 < self.inner.n, "pid out of range");
        if ops.is_empty() {
            return Vec::new();
        }
        let mut local = self.inner.locals[pid.0].lock();
        let inner = &*self.inner;
        inner.obs.batch_size.record(pid.0, ops.len() as u64);
        let cell = inner.publish(mem, pid, &mut local, CellPayload::Block(ops.to_vec()));
        let mut resps = Vec::with_capacity(ops.len());
        inner.finish_apply(mem, pid, &mut local, cell, ops, |r| resps.push(r));
        mem.persist(pid);
        resps
    }

    /// Crash–restart recovery for `pid` (run once after
    /// [`sbu_mem::DurableMem::restart`], before any new [`Universal::apply`]
    /// call by this processor).
    ///
    /// A crash wipes the processor's volatile footprint: its private memory
    /// (grab counts, hints, the owned list) and the liveness of its shared
    /// volatile registers (announce flags, `r` grab bits) — left raised,
    /// those would make helpers prepare cells for a dead search forever and
    /// block the reclamation handshake. Recovery:
    ///
    /// 1. retracts both announcements and clears `r[pid]` on every cell;
    /// 2. rebuilds the owned list from the *persistent* `ProcID`/`Claimed`
    ///    fields, so cells claimed before the crash are reclaimed through
    ///    the unchanged distance-bit protocol once fully marked;
    /// 3. re-executes the interrupted operation, if one is found: a cell
    ///    owned by `pid` with a published command (or block) but no state
    ///    snapshot was crashed between publishing (step 2) and completing
    ///    (step 5). A block is re-executed whole.
    ///    Re-running append + scan + snapshot is idempotent — jams agree,
    ///    the snapshot slot is write-once per incarnation — and makes the
    ///    in-flight operation *take effect* (its response is discarded; the
    ///    history records it as pending, which durable linearizability
    ///    allows to commit). Otherwise the helping pass of Figure 8 is
    ///    re-run, so announced appends by others never wait on the crash.
    ///
    /// A cell claimed without a published command (the crash landed inside
    /// step 2) is left on the owned list but can never be appended or
    /// marked; it leaks, absorbed by the padded Θ(n²) pool — the same
    /// budget that covers cells stranded by processors that never restart.
    pub fn recover<M: DataMem<CellPayload<S>>>(&self, mem: &M, pid: Pid) {
        assert!(pid.0 < self.inner.n, "pid out of range");
        let inner = &*self.inner;
        let mut local = inner.locals[pid.0].lock();
        *local = ProcLocal::default();

        mem.safe_write(pid, inner.announce_gfc[pid.0], 0);
        mem.safe_write(pid, inner.announce_append[pid.0], 0);
        for c in 0..inner.cells.len() {
            mem.safe_write(pid, inner.r(c, pid.0), 0);
        }

        let mut in_flight = None;
        for (i, c) in inner.cells.iter().enumerate() {
            if i != ANCHOR
                && mem.sticky_word_read(pid, c.proc_id) == Some(pid.0 as u64)
                && mem.sticky_read(pid, c.claimed) == sbu_mem::Tri::One
            {
                local.owned.push(i);
                if mem.safe_read(pid, c.has_cmd) != 0 && mem.safe_read(pid, c.has_state) == 0 {
                    debug_assert!(in_flight.is_none(), "two incomplete cells for one pid");
                    in_flight = Some(i);
                }
            }
        }

        if let Some(cell) = in_flight {
            let payload = mem.data_read(pid, inner.cells[cell].cmd);
            let ops = match &payload {
                Some(CellPayload::Cmd(op)) => std::slice::from_ref(op),
                Some(CellPayload::Block(ops)) => ops.as_slice(),
                _ => panic!("cell {cell}: published command missing"),
            };
            inner.finish_apply(mem, pid, &mut local, cell, ops, drop);
        } else {
            inner.help_appends(mem, pid, &mut local);
        }
        mem.persist(pid);
    }
}

/// Builder for [`Universal`] (start with [`Universal::builder`]).
///
/// Collects the construction-time choices — pool sizing / fast paths via
/// [`UniversalBuilder::config`], observability via
/// [`UniversalBuilder::obs`] — then allocates everything in
/// [`UniversalBuilder::build`].
#[derive(Debug)]
pub struct UniversalBuilder<S> {
    n: usize,
    config: UniversalConfig,
    obs: CoreObs,
    _spec: std::marker::PhantomData<fn() -> S>,
}

impl<S> UniversalBuilder<S>
where
    S: SequentialSpec + Send + Sync,
    S::Op: Send + Sync,
{
    /// Override the pool sizing / fast-path config (default:
    /// [`UniversalConfig::for_procs`]).
    pub fn config(mut self, config: UniversalConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach hot-path instruments registered against `registry`
    /// (frontier hits/misses, combining batch sizes, grab retries, …; see
    /// [`CoreObs`]). Without this call the object records nothing.
    pub fn obs(mut self, registry: &sbu_obs::Registry) -> Self {
        self.obs = CoreObs::register(registry);
        self
    }

    /// Build the object: allocates the cell pool, the announce arrays, and
    /// the anchor cell holding `initial` (setup phase, single-threaded).
    pub fn build<M: DataMem<CellPayload<S>>>(self, mem: &mut M, initial: S) -> Universal<S> {
        let (n, config) = (self.n, self.config);
        assert!(n >= 1, "at least one processor");
        assert!(
            config.cells >= 2 * n + 2,
            "pool of {} cells is too small for {n} processors",
            config.cells
        );
        let mut r_bits = Vec::with_capacity(config.cells * n);
        let mut b_bits = Vec::with_capacity(config.cells * n);
        let cells: Vec<CellHandles> = (0..config.cells)
            .map(|_| CellHandles::new(mem, n, &mut r_bits, &mut b_bits))
            .collect();
        let inner = Inner {
            n,
            use_fast_paths: config.fast_paths,
            backoff_limit: config.backoff_limit,
            cells,
            r_bits,
            b_bits,
            announce_gfc: (0..n).map(|_| mem.alloc_safe(0)).collect(),
            announce_append: (0..n).map(|_| mem.alloc_safe(0)).collect(),
            announce_append_cell: (0..n).map(|_| mem.alloc_safe(0)).collect(),
            frontier: mem.alloc_atomic(ANCHOR as u64),
            locals: (0..n).map(|_| Mutex::new(ProcLocal::default())).collect(),
            obs: self.obs,
            _spec: std::marker::PhantomData,
        };
        // The anchor: permanently claimed by the non-existent processor
        // `n`, holding the initial state, linked to itself so FIND-HEAD's
        // `Next ≠ ⊥` criterion matches it from the start.
        let anchor = &inner.cells[ANCHOR];
        let pid0 = Pid(0);
        mem.sticky_jam(pid0, anchor.claimed, true);
        mem.sticky_word_jam(pid0, anchor.proc_id, n as u64);
        mem.data_write(pid0, anchor.state, CellPayload::State(initial));
        mem.safe_write(pid0, anchor.has_state, 1);
        mem.sticky_word_jam(pid0, anchor.next, ANCHOR as u64);
        Universal {
            inner: Arc::new(inner),
        }
    }
}

impl<S> Inner<S>
where
    S: SequentialSpec + Send + Sync,
    S::Op: Send + Sync,
{
    /// Steps 1–2 of the `apply` loop: get a free cell (GFC frees eligible
    /// owned cells first), store `payload` — one command or a block — and
    /// publish it (write-once, so no reader can overlap the write).
    fn publish<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        payload: CellPayload<S>,
    ) -> usize {
        let cell = self.gfc(mem, pid, local);
        mem.data_write(pid, self.cells[cell].cmd, payload);
        mem.safe_write(pid, self.cells[cell].has_cmd, 1);
        cell
    }

    /// Steps 3–6 of the `apply` loop, from a claimed cell whose command
    /// (or block) `ops` is published: append, scan back, recompute — handing
    /// each of `ops`' responses to `out`, in order — publish the snapshot,
    /// mark distance bits. Idempotent, so crash recovery re-runs it
    /// verbatim.
    fn finish_apply<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        cell: usize,
        ops: &[S::Op],
        mut out: impl FnMut(S::Resp),
    ) {
        // Step 3: append — the linearization point.
        self.append(mem, pid, local, cell);

        // Step 4: scan back to the nearest state snapshot, collecting the
        // commands in between (at most ~n cells of them). The walk runs
        // newest → oldest, so a block goes in reversed.
        let mut chain: Vec<S::Op> = Vec::new();
        let mut cur = self.next_of(mem, pid, cell);
        let base: S = loop {
            let ch = &self.cells[cur];
            if mem.safe_read(pid, ch.has_state) != 0 {
                match mem.data_read(pid, ch.state) {
                    Some(CellPayload::State(s)) => break s,
                    _ => panic!("cell {cur}: state slot missing or holding a command"),
                }
            }
            match mem.data_read(pid, ch.cmd) {
                Some(CellPayload::Cmd(o)) => chain.push(o),
                Some(CellPayload::Block(b)) => chain.extend(b.into_iter().rev()),
                _ => panic!("cell {cur}: command slot missing or holding a state"),
            }
            cur = self.next_of(mem, pid, cur);
        };

        // Step 5: recompute the state (oldest command first), apply my own
        // command(s), publish the snapshot.
        let mut state = base;
        for o in chain.iter().rev() {
            state.apply(o);
        }
        for op in ops {
            out(state.apply(op));
        }
        mem.data_write(pid, self.cells[cell].state, CellPayload::State(state));
        mem.safe_write(pid, self.cells[cell].has_state, 1);

        // Step 6: mark distance bits on the n cells behind me.
        self.mark_distance_bits(mem, pid, cell);
    }
}

impl<S> Inner<S> {
    /// Cell `c`'s grab bit `r_j` (flat-slab lookup).
    #[inline]
    pub(crate) fn r(&self, c: usize, j: usize) -> SafeId {
        self.r_bits[c * self.n + j]
    }

    /// Cell `c`'s distance bit `b_d` (flat-slab lookup).
    #[inline]
    pub(crate) fn b(&self, c: usize, d: usize) -> SafeId {
        self.b_bits[c * self.n + d]
    }

    /// Step 6 of `apply`: set `b_d` on the `d + 1`-th cell behind `cell`
    /// for every `d < n`, so their owners can eventually reclaim them
    /// (Section 5). Each cell's `Next` is read *before* its bit is set:
    /// that bit may be the last one the cell was missing, and the marker
    /// holds no grab, so the owner's next GFC may INIT the cell and flush
    /// `Next` as soon as the bit lands. Before that the cell cannot be
    /// reclaimed, because only the cell `d + 1` ahead of it — this walk —
    /// writes its `b_d`.
    pub(crate) fn mark_distance_bits<M: WordMem + ?Sized>(&self, mem: &M, pid: Pid, cell: usize) {
        let mut cur = self.next_of(mem, pid, cell);
        for d in 0..self.n {
            if cur == ANCHOR {
                break;
            }
            let next = self.next_of(mem, pid, cur);
            mem.safe_write(pid, self.b(cur, d), 1);
            cur = next;
        }
    }

    /// A fresh backoff for a retry loop, capped by the configured limit.
    pub(crate) fn new_backoff(&self) -> Backoff {
        Backoff::with_limit(self.backoff_limit)
    }

    /// Follow a cell's `Next` pointer (must be defined — cells we walk are
    /// appended and, by the distance-bit argument, cannot be reclaimed
    /// while we can still reach them).
    pub(crate) fn next_of<M: WordMem + ?Sized>(&self, mem: &M, pid: Pid, c: usize) -> usize {
        let nxt = mem
            .sticky_word_read(pid, self.cells[c].next)
            .unwrap_or_else(|| panic!("cell {c}: followed a ⊥ Next pointer"))
            as usize;
        assert!(nxt < self.cells.len(), "cell {c}: Next out of range");
        nxt
    }
}

impl<S> UniversalObject<S> for Universal<S>
where
    S: SequentialSpec + Send + Sync,
    S::Op: Send + Sync,
{
    fn apply<M: DataMem<CellPayload<S>>>(&self, mem: &M, pid: Pid, op: &S::Op) -> S::Resp {
        Universal::apply(self, mem, pid, op)
    }
}
