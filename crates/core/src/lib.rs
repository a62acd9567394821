//! # sbu-core — the wait-free universal construction (Sections 5–6)
//!
//! The paper's main theorem: **any** safe implementation of a sequential
//! object can be transformed into a wait-free atomic (linearizable) one
//! using O(n² log n) sticky bits and O(n²) state-sized cells
//! (Theorem 6.6). This crate implements that transformation, its baselines,
//! and ready-made wait-free objects built with it.
//!
//! * [`bounded::Universal`] — the paper's bounded-memory construction:
//!   a pool of reusable cells linked into a list by jamming sticky
//!   pointers, with three helping protocols —
//!   [GFC](bounded) (get-free-cell, Figure 6),
//!   APPEND/FIND-HEAD (Figures 7–8), and the GRAB/RELEASE/INIT
//!   reclamation handshake (Figures 4–5) plus the distance-bit freeing rule
//!   of Section 5.
//! * [`unbounded::UnboundedUniversal`] — Herlihy's construction (the
//!   paper's Section 5 starting point and explicit foil): simpler, clearly
//!   correct, but memory grows with the number of operations.
//! * [`lock_based::SpinLockUniversal`] — the mutual-exclusion strawman from
//!   the introduction: atomic but *not* wait-free; one crash inside the
//!   critical section wedges every other processor (experiment E5 shows
//!   exactly this).
//! * [`objects`] — wait-free queue, stack, counter, KV store, CAS register
//!   and bank built by instantiating the universal construction — including
//!   [`objects::WaitFreeCas`], which closes the paper's hierarchy-collapse
//!   loop: an arbitrary-consensus-number RMW object implemented from
//!   3-valued sticky primitives.
//!
//! All constructions implement [`UniversalObject`] so tests, examples and
//! benches can swap them freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod consensus_universal;
pub mod lock_based;
pub mod objects;
pub mod unbounded;

use sbu_mem::{DataMem, Pid};
use sbu_spec::SequentialSpec;

pub use bounded::{Universal, UniversalBuilder};
pub use consensus_universal::ConsensusUniversal;
pub use lock_based::SpinLockUniversal;
pub use unbounded::UnboundedUniversal;

/// What a cell's data slot can hold: the appender's command, or a snapshot
/// of the object state *after* that command (Section 5: "the cells are read
/// until it encounters a cell that holds a state instead of a command").
///
/// A command slot holds either one command ([`Universal::apply`]) or a
/// block of them ([`Universal::apply_batch`]); one list may hold both. A
/// block's cell is appended by the same protocol as a single command's,
/// and Def 3.1 lets that one append linearize the whole block, its
/// commands back to back in order.
#[derive(Debug, Clone, PartialEq)]
pub enum CellPayload<S: SequentialSpec> {
    /// The command stored by the invoking processor before appending.
    Cmd(S::Op),
    /// The state of the simulated object after applying the cell's command
    /// to everything behind it in the list.
    State(S),
    /// A block of commands stored by one invoking processor, applied in
    /// order at the cell's append.
    Block(Vec<S::Op>),
}

/// A linearizable implementation of the sequential object `S`, produced by
/// one of this crate's constructions.
pub trait UniversalObject<S: SequentialSpec>: Send + Sync {
    /// Execute one operation; the implementation decides where in the
    /// concurrent order it takes effect (its linearization point).
    fn apply<M: DataMem<CellPayload<S>>>(&self, mem: &M, pid: Pid, op: &S::Op) -> S::Resp;
}
