//! Group-commit batch apply: flat-combining lifted to the state cell.
//!
//! The paper's Def 3.1 semantics never require one appended cell per
//! command — a single append may linearize any *sequence* of commands, as
//! long as each gets a linearization point and a return value. This module
//! exploits that: one appended [`CellPayload::Batch`] cell carries the
//! appender's own block of commands plus any blocks it packed from the
//! announce array, paying **one** GFC + append protocol and **one**
//! sequential-state recompute for the whole batch.
//!
//! ## Roles
//!
//! Arrivals split on the advisory `combiner_active` token (plain atomic
//! reads/writes, no CAS — same contract as the frontier cursor):
//!
//! * **Combiner** (token clear, or `n = 1`): scans the announce array,
//!   grabs + validates every announced member cell, copies its block into
//!   its own batch cell, appends once, folds once, then *distributes* each
//!   packed cell's `(seq, resp)` envelope back into that cell's response
//!   slot — the grab is held from pack to distribute, so the cell cannot
//!   be reinitialized under the combiner.
//! * **Member** (token raised): publishes its block, announces, and waits
//!   a bounded number of response-flag reads for a combiner to serve it.
//!   On timeout it falls back to the classic self-append + fold, so
//!   wait-freedom never depends on the combiner's liveness.
//!
//! ## Why duplicates are harmless
//!
//! A member that times out *after* a combiner packed its block appends a
//! second copy of the same commands. Every command therefore carries a
//! logical identity — `(pid, seq)` with per-processor monotone tickets —
//! and the fold applies an entry only when its `seq` is newer than the
//! last applied sequence for that pid in the base snapshot. Since a
//! processor issues a new block only after its previous block's responses
//! are in hand (i.e. applied), per-pid sequences enter the list in order
//! and the `seq > last` filter is exact: no drop, no double-apply, and
//! one owner's commands never reorder.
//!
//! ## Crash atomicity
//!
//! The batch cell's append *is* the whole batch's linearization point:
//! either the cell entered the list (every entry folds exactly once, by
//! the dedup argument) or it did not (no entry took effect, and every
//! packed member self-serves through its fallback — "fully re-announced").
//! A crashed combiner's own block is re-executed idempotently by
//! [`super::Universal::recover`]; there is no schedule in which a batch
//! applies partially.

use super::{Inner, ProcLocal};
use crate::{BatchEntry, CellPayload, GroupSnapshot};
use sbu_mem::{DataMem, Pid, Tri};
use sbu_spec::SequentialSpec;

/// A member block a combiner packed: the cell index it came from plus the
/// logical identities of its entries (for envelope assembly after the
/// fold). The combiner holds a grab on `cell` until distribution.
struct PackedBlock {
    cell: usize,
    ids: Vec<(usize, u64)>,
}

impl<S> Inner<S>
where
    S: SequentialSpec + Send + Sync,
    S::Op: Send + Sync,
{
    /// Execute one owner block (1..=`batch_cap` commands) under group
    /// commit, returning one response per command, in order.
    pub(crate) fn apply_group<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        ops: &[S::Op],
    ) -> Vec<S::Resp> {
        debug_assert!(self.group_commit, "group apply without group mode");
        debug_assert!(
            !ops.is_empty() && ops.len() <= self.batch_cap,
            "owner block must hold 1..=batch_cap commands"
        );
        let first = local.next_seq + 1;
        local.next_seq += ops.len() as u64;
        let own: Vec<BatchEntry<S>> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| BatchEntry {
                pid: pid.0 as u64,
                seq: first + i as u64,
                op: op.clone(),
            })
            .collect();
        let seqs: Vec<u64> = own.iter().map(|e| e.seq).collect();

        let cell = self.gfc(mem, pid, local);

        // Role decision: a lone processor always combines (there is nobody
        // to wait for); otherwise take the advisory token if it is clear.
        let combine = self.n == 1 || {
            if mem.atomic_read(pid, self.combiner_active) == 0 {
                mem.atomic_write(pid, self.combiner_active, pid.0 as u64 + 1);
                true
            } else {
                false
            }
        };

        if combine {
            let snap = self.combine_and_append(mem, pid, local, cell, own);
            if self.n > 1 {
                mem.atomic_write(pid, self.combiner_active, 0);
            }
            return collect_resps(&snap, pid.0, &seqs);
        }
        self.member_apply(mem, pid, local, cell, own, &seqs)
    }

    /// The combiner path: pack every announced member block into `cell`'s
    /// batch (grabs held), run one append + one fold, then distribute the
    /// per-cell response envelopes and release the grabs.
    fn combine_and_append<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        cell: usize,
        own: Vec<BatchEntry<S>>,
    ) -> GroupSnapshot<S> {
        let mut packed: Vec<PackedBlock> = Vec::new();
        let mut entries: Vec<BatchEntry<S>> = Vec::new();
        if self.n > 1 {
            for j in 0..self.n {
                if j == pid.0 || mem.safe_read(pid, self.announce_append[j]) == 0 {
                    continue;
                }
                let idx = mem.safe_read(pid, self.announce_append_cell[j]) as usize;
                if idx >= self.cells.len() || idx == cell || !self.grab(mem, pid, local, idx) {
                    continue;
                }
                // Validate under the grab (same criteria as the classic
                // helping pass, plus "not already served"): any block that
                // passes is a currently-invoked pending batch, so packing
                // it is linearizable even off a torn announce read.
                let ch = &self.cells[idx];
                let served = ch
                    .group
                    .as_ref()
                    .is_some_and(|g| mem.safe_read(pid, g.has_resp) != 0);
                let valid = !served
                    && mem.sticky_word_read(pid, ch.proc_id) == Some(j as u64)
                    && mem.sticky_read(pid, ch.claimed) == Tri::One
                    && mem.safe_read(pid, ch.has_cmd) != 0
                    && mem.sticky_word_read(pid, ch.next).is_none();
                let block = valid.then(|| mem.data_read(pid, ch.cmd));
                match block {
                    Some(Some(CellPayload::Batch(block))) if !block.is_empty() => {
                        packed.push(PackedBlock {
                            cell: idx,
                            ids: block.iter().map(|e| (e.pid as usize, e.seq)).collect(),
                        });
                        entries.extend(block);
                        // Grab stays held until distribution: the cell can
                        // neither be reinitialized nor reused underneath us.
                    }
                    _ => self.release(mem, pid, local, idx),
                }
            }
        }
        entries.extend(own);
        self.obs.batch_size.record(pid.0, entries.len() as u64);

        mem.data_write(pid, self.cells[cell].cmd, CellPayload::Batch(entries));
        mem.safe_write(pid, self.cells[cell].has_cmd, 1);

        let snap = self.finish_apply_group(mem, pid, local, cell);

        // Distribute: for every packed cell whose entries all have their
        // responses retained in the folded snapshot (guaranteed while the
        // owner is blocked on this block — see GroupSnapshot), write the
        // envelope under the resp_claim jam so the slot stays
        // single-writer, then release the pack grab.
        for block in packed {
            let envelope: Option<Vec<(u64, S::Resp)>> = block
                .ids
                .iter()
                .map(|&(p, s)| {
                    snap.applied[p]
                        .iter()
                        .find(|(q, _)| *q == s)
                        .map(|(q, r)| (*q, r.clone()))
                })
                .collect();
            if let (Some(env), Some(g)) = (envelope, self.cells[block.cell].group.as_ref()) {
                mem.sticky_word_jam(pid, g.resp_claim, pid.0 as u64);
                self.mark_dirty(local, block.cell);
                if mem.sticky_word_read(pid, g.resp_claim) == Some(pid.0 as u64) {
                    mem.data_write(pid, g.resp, CellPayload::Resp(env));
                    mem.safe_write(pid, g.has_resp, 1);
                }
            }
            self.release(mem, pid, local, block.cell);
        }
        snap
    }

    /// The member path: publish the block, announce it, wait a bounded
    /// number of flag reads for a combiner's envelope, then fall back to
    /// the classic self-append + fold.
    fn member_apply<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        cell: usize,
        own: Vec<BatchEntry<S>>,
        seqs: &[u64],
    ) -> Vec<S::Resp> {
        mem.data_write(pid, self.cells[cell].cmd, CellPayload::Batch(own));
        mem.safe_write(pid, self.cells[cell].has_cmd, 1);
        mem.safe_write(pid, self.announce_append_cell[pid.0], cell as u64);
        mem.safe_write(pid, self.announce_append[pid.0], 1);

        let g = self.cells[cell]
            .group
            .as_ref()
            .expect("group mode allocates response slots");
        let mut waited = 0u32;
        let mut served = false;
        while waited < self.return_spin {
            waited += 1;
            if mem.safe_read(pid, g.has_resp) != 0 {
                served = true;
                break;
            }
            core::hint::spin_loop();
        }
        self.obs.batch_return_wait.record(pid.0, u64::from(waited));
        mem.safe_write(pid, self.announce_append[pid.0], 0);

        if served {
            // The combiner folded this block and wrote the envelope; the
            // cell was never appended (in group mode only its owner ever
            // appends it), so no scan can reach it: self-marking every
            // distance bit hands it straight to the reclaim path.
            let env = match mem.data_read(pid, g.resp) {
                Some(CellPayload::Resp(env)) => env,
                _ => panic!("cell {cell}: response flag raised without an envelope"),
            };
            debug_assert!(
                mem.sticky_word_read(pid, self.cells[cell].next).is_none(),
                "a served member cell cannot be in the list"
            );
            for d in 0..self.n {
                mem.safe_write(pid, self.b(cell, d), 1);
            }
            return seqs
                .iter()
                .map(|s| {
                    env.iter()
                        .find(|(q, _)| q == s)
                        .map(|(_, r)| r.clone())
                        .expect("envelope covers every entry of the served block")
                })
                .collect();
        }

        // Fallback: self-append and fold (a concurrent combiner's copy of
        // this block, if any, dedups). Clearing the token is advisory
        // hygiene — a crashed combiner's stale token would otherwise tax
        // every future arrival with the full wait budget.
        mem.atomic_write(pid, self.combiner_active, 0);
        let snap = self.finish_apply_group(mem, pid, local, cell);
        collect_resps(&snap, pid.0, seqs)
    }

    /// Group-commit crash–restart recovery (the group half of
    /// [`super::Universal::recover`], run after the shared announce/grab
    /// retractions). The retract rules differ from classic recovery in
    /// three ways:
    ///
    /// 1. A cell whose block was **served** by a combiner (response flag
    ///    raised) is *not* re-executed — its entries already folded. If it
    ///    was never appended it is handed to the reclaim path by
    ///    self-marking its distance bits (the crash may have landed
    ///    between reading the envelope and marking).
    /// 2. Every other incomplete cell is re-executed idempotently (the
    ///    dedup fold absorbs entries that a combiner's copy already
    ///    landed). Unappended cells get their distance bits cleared first:
    ///    a torn response-flag read can route a served, self-marked cell
    ///    here, and appending a fully-marked cell would hand a *reachable*
    ///    cell to reclaim.
    /// 3. Tickets are resynced from the list — reusing a `(pid, seq)`
    ///    after a crash would make new commands fold to no-ops. If no
    ///    re-execution produced a snapshot, an empty sync batch is
    ///    committed just to read the latest applied map.
    ///
    /// No helping pass: in group mode a blocked member unblocks *itself*
    /// (bounded wait, then fallback), so recovery owes nobody an append.
    pub(crate) fn recover_group<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
    ) {
        if mem.atomic_read(pid, self.combiner_active) == pid.0 as u64 + 1 {
            mem.atomic_write(pid, self.combiner_active, 0);
        }
        let mut in_flight: Vec<usize> = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            if i == super::ANCHOR
                || mem.sticky_word_read(pid, c.proc_id) != Some(pid.0 as u64)
                || mem.sticky_read(pid, c.claimed) != Tri::One
            {
                continue;
            }
            local.owned.push(i);
            if mem.safe_read(pid, c.has_cmd) == 0 || mem.safe_read(pid, c.has_state) != 0 {
                continue;
            }
            let served = c
                .group
                .as_ref()
                .is_some_and(|g| mem.safe_read(pid, g.has_resp) != 0);
            if served {
                if mem.sticky_word_read(pid, c.next).is_none() {
                    for d in 0..self.n {
                        mem.safe_write(pid, self.b(i, d), 1);
                    }
                }
            } else {
                in_flight.push(i);
            }
        }
        let mut latest = None;
        for cell in in_flight {
            if mem.sticky_word_read(pid, self.cells[cell].next).is_none() {
                for d in 0..self.n {
                    mem.safe_write(pid, self.b(cell, d), 0);
                }
            }
            latest = Some(self.finish_apply_group(mem, pid, local, cell));
        }
        let snap = latest.unwrap_or_else(|| {
            let cell = self.gfc(mem, pid, local);
            mem.data_write(pid, self.cells[cell].cmd, CellPayload::Batch(Vec::new()));
            mem.safe_write(pid, self.cells[cell].has_cmd, 1);
            self.finish_apply_group(mem, pid, local, cell)
        });
        local.next_seq = snap.last_seq(pid.0);
    }

    /// Steps 3–6 of the apply loop in batch form: append `cell` (unless a
    /// previous attempt already did), scan back to the nearest snapshot,
    /// fold every batch in between — and the cell's own batch — with the
    /// `(pid, seq)` dedup filter, publish the [`GroupSnapshot`], mark
    /// distance bits. Idempotent; crash recovery re-runs it verbatim.
    pub(crate) fn finish_apply_group<M: DataMem<CellPayload<S>>>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        cell: usize,
    ) -> GroupSnapshot<S> {
        if mem.sticky_word_read(pid, self.cells[cell].next).is_none() {
            if let Some(head) = self.find_head(mem, pid, local, cell) {
                self.append_inner(mem, pid, local, cell, head);
            }
        }
        debug_assert!(
            mem.sticky_word_read(pid, self.cells[cell].next).is_some(),
            "cell must be in the list before folding"
        );

        let mut chain: Vec<Vec<BatchEntry<S>>> = Vec::new();
        let mut cur = self.next_of(mem, pid, cell);
        let mut snap: GroupSnapshot<S> = loop {
            let ch = &self.cells[cur];
            if mem.safe_read(pid, ch.has_state) != 0 {
                match mem.data_read(pid, ch.state) {
                    Some(CellPayload::BatchState(s)) => break s,
                    _ => panic!("cell {cur}: group snapshot missing or mis-shaped"),
                }
            }
            match mem.data_read(pid, ch.cmd) {
                Some(CellPayload::Batch(b)) => chain.push(b),
                _ => panic!("cell {cur}: batch slot missing or mis-shaped"),
            }
            cur = self.next_of(mem, pid, cur);
        };
        let mine = match mem.data_read(pid, self.cells[cell].cmd) {
            Some(CellPayload::Batch(b)) => b,
            _ => panic!("cell {cell}: own batch missing"),
        };

        // Fold oldest batch first (the walk collected newest → oldest),
        // ending with this cell's own batch. The `seq > last` filter makes
        // replaying any duplicate copy of a block a no-op.
        for block in chain.iter().rev().chain(std::iter::once(&mine)) {
            for e in block {
                let p = e.pid as usize;
                if e.seq > snap.last_seq(p) {
                    let resp = snap.state.apply(&e.op);
                    snap.applied[p].push((e.seq, resp));
                    // Retain one block worth per processor: an owner never
                    // has more than `batch_cap` entries outstanding, and
                    // outstanding entries are the newest, so every response
                    // still awaited survives the truncation.
                    if snap.applied[p].len() > self.batch_cap {
                        snap.applied[p].remove(0);
                    }
                }
            }
        }

        mem.data_write(
            pid,
            self.cells[cell].state,
            CellPayload::BatchState(snap.clone()),
        );
        mem.safe_write(pid, self.cells[cell].has_state, 1);

        self.mark_distance_bits(mem, pid, cell);
        snap
    }
}

/// Pull this owner's responses for `seqs` (ascending) out of a folded
/// snapshot. Guaranteed present: the owner's outstanding block is at most
/// `batch_cap` entries and always the newest for its pid, so the
/// snapshot's bounded retention cannot have evicted any of them.
fn collect_resps<S: SequentialSpec>(
    snap: &GroupSnapshot<S>,
    p: usize,
    seqs: &[u64],
) -> Vec<S::Resp> {
    seqs.iter()
        .map(|s| {
            snap.applied[p]
                .iter()
                .find(|(q, _)| q == s)
                .map(|(_, r)| r.clone())
                .expect("snapshot retains every response of an outstanding block")
        })
        .collect()
}
