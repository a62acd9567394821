//! FIND-HEAD and APPEND, with helping (Figures 7–8).

use super::{Inner, ProcLocal};
use sbu_mem::{Pid, Tri, WordMem};

impl<S> Inner<S> {
    /// FIND-HEAD (Figure 7): scan the pool for the cell that is fully
    /// linked (`Next ≠ ⊥`) but has no successor yet (`¬NotHead`). Returns
    /// the head **grabbed**, or `None` if `my_cell` got appended meanwhile
    /// (a helper finished our job). Bounded by Lemma 6.5: at most n cells
    /// are appended after we announce, so some scan sees a quiescent list.
    ///
    /// Under fast paths, two cursors are tried before the paper's full
    /// scan: the shared frontier (the most recently appended cell *any*
    /// processor published) and this processor's private last-seen head.
    /// Both walks validate their result under a grab exactly like a scan
    /// hit, so a stale cursor degrades to the slow path, never to a wrong
    /// head — the helping invariant is untouched.
    pub(crate) fn find_head<M: WordMem + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        my_cell: usize,
    ) -> Option<usize> {
        if self.use_fast_paths {
            if mem
                .sticky_word_read(pid, self.cells[my_cell].next)
                .is_some()
            {
                return None;
            }
            let cursor = mem.atomic_read(pid, self.frontier) as usize;
            let hints = [
                Some(cursor).filter(|c| *c < self.cells.len()),
                local.head_hint,
            ];
            let mut tried = None;
            for hint in hints.into_iter().flatten() {
                if tried == Some(hint) {
                    continue;
                }
                tried = Some(hint);
                if let Some(found) = self.walk_from_hint(mem, pid, local, my_cell, hint) {
                    self.obs.frontier_hit.incr(pid.0);
                    local.head_hint = Some(found);
                    return Some(found);
                }
                self.obs.frontier_miss.incr(pid.0);
                if mem
                    .sticky_word_read(pid, self.cells[my_cell].next)
                    .is_some()
                {
                    return None;
                }
            }
            self.obs.frontier_fallback.incr(pid.0);
        }
        let mut backoff = self.new_backoff();
        loop {
            if mem
                .sticky_word_read(pid, self.cells[my_cell].next)
                .is_some()
            {
                return None;
            }
            for c in 0..self.cells.len() {
                if c == my_cell || !self.grab(mem, pid, local, c) {
                    continue;
                }
                if mem.sticky_word_read(pid, self.cells[c].next).is_some()
                    && mem.sticky_read(pid, self.cells[c].not_head) == Tri::Undef
                {
                    local.head_hint = Some(c);
                    return Some(c);
                }
                self.release(mem, pid, local, c);
            }
            // A whole sweep raced past us: let the appenders drain before
            // rescanning (local spinning only — no shared step is skipped).
            let rounds = backoff.spin();
            self.obs.backoff_spins.add(pid.0, u64::from(rounds));
        }
    }

    /// The head-hint fast path (§7 open-problem extension): walk forward
    /// from the last head this processor saw, following `Prev` links, until
    /// a cell without a successor. Bails out (to the sound full scan) if
    /// the hint has gone stale in any way — the walk leaves the list, a
    /// grab fails (reclamation in progress), or the walk exceeds the pool
    /// size. Soundness is inherited from the full-scan criterion: the
    /// returned cell is validated (`Next ≠ ⊥ ∧ ¬NotHead`) under a grab,
    /// exactly like a scan hit.
    fn walk_from_hint<M: WordMem + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        my_cell: usize,
        hint: usize,
    ) -> Option<usize> {
        let mut cur = hint;
        for _ in 0..=self.cells.len() {
            if cur == my_cell || !self.grab(mem, pid, local, cur) {
                return None;
            }
            let linked = mem.sticky_word_read(pid, self.cells[cur].next).is_some();
            if linked && mem.sticky_read(pid, self.cells[cur].not_head) == Tri::Undef {
                return Some(cur); // grabbed, validated — a current head
            }
            // Advance toward the head along Prev (set before NotHead, so a
            // NotHead cell always has a successor pointer).
            let next_step = if linked {
                mem.sticky_word_read(pid, self.cells[cur].prev)
            } else {
                None // reclaimed/reused cell: the trail is cold
            };
            self.release(mem, pid, local, cur);
            match next_step {
                Some(p) if (p as usize) < self.cells.len() => cur = p as usize,
                _ => return None,
            }
        }
        None
    }

    /// APPEND (Figure 8): announce the cell, append it, then help every
    /// other announced append. On return, `cell` is in the list.
    pub(crate) fn append<M: WordMem + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        cell: usize,
    ) {
        // Announce: cell index first, flag second, so a raised flag implies
        // a stable index (a torn read can only occur against a *later*
        // announcement, whose cell is validated below anyway).
        mem.safe_write(pid, self.announce_append_cell[pid.0], cell as u64);
        mem.safe_write(pid, self.announce_append[pid.0], 1);

        if mem.sticky_word_read(pid, self.cells[cell].next).is_none() {
            if let Some(head) = self.find_head(mem, pid, local, cell) {
                self.append_inner(mem, pid, local, cell, head);
            }
        }
        debug_assert!(
            mem.sticky_word_read(pid, self.cells[cell].next).is_some(),
            "own cell must be appended before helping"
        );
        mem.safe_write(pid, self.announce_append[pid.0], 0);

        self.help_appends(mem, pid, local);
    }

    /// The helping pass of Figure 8, also re-run by crash recovery before a
    /// restarted processor accepts new operations: finish the append of
    /// every cell whose owner has announced one.
    ///
    /// Under fast paths this is a *combining* scan: all currently announced
    /// pending cells are collected first (advisory reads, no grabs held),
    /// then appended back-to-back. Each append still runs the full grab +
    /// validate + FIND-HEAD protocol, but after the first one the head
    /// cursors point at the cell just linked, so the batch folds into one
    /// warm walk per command instead of one cold pool scan per command.
    /// Exactly the announced set is helped either way — collection reads
    /// the same announce registers the paper's loop reads, and a cell that
    /// gets appended between collection and its turn is filtered by the
    /// same `Next = ⊥` validation, so no command is dropped or duplicated.
    pub(crate) fn help_appends<M: WordMem + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
    ) {
        if self.use_fast_paths {
            // Combining: snapshot every announced (processor, cell) pair
            // before touching any of them, then append back-to-back.
            let mut pending: Vec<(usize, usize)> = Vec::new();
            for j in 0..self.n {
                if j == pid.0 || mem.safe_read(pid, self.announce_append[j]) == 0 {
                    continue;
                }
                let idx = mem.safe_read(pid, self.announce_append_cell[j]) as usize;
                if idx < self.cells.len() {
                    pending.push((j, idx));
                }
            }
            // Record the *post-validation* batch size: a pair collected
            // here can still be filtered by `help_one` (torn announce read,
            // or the cell was appended before its turn), and the histogram
            // should count commands actually helped, not pending reads.
            let helped = pending
                .into_iter()
                .filter(|&(j, idx)| self.help_one(mem, pid, local, j, idx))
                .count();
            self.obs.combine_batch.record(pid.0, helped as u64);
            return;
        }
        for j in 0..self.n {
            if j == pid.0 || mem.safe_read(pid, self.announce_append[j]) == 0 {
                continue;
            }
            let idx = mem.safe_read(pid, self.announce_append_cell[j]) as usize;
            if idx >= self.cells.len() {
                continue; // torn announce read; nothing valid to help with
            }
            self.help_one(mem, pid, local, j, idx);
        }
    }

    /// Append one announced cell on behalf of processor `j`, if it is still
    /// a valid pending command. Returns whether the cell survived
    /// validation (i.e. the pass actually worked on it).
    fn help_one<M: WordMem + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        j: usize,
        idx: usize,
    ) -> bool {
        if !self.grab(mem, pid, local, idx) {
            return false;
        }
        // Validate under the grab: appending any *valid pending* cell
        // of processor j is linearizable (its operation is invoked),
        // even if the announce read was torn.
        let valid = mem.sticky_word_read(pid, self.cells[idx].proc_id) == Some(j as u64)
            && mem.sticky_read(pid, self.cells[idx].claimed) == Tri::One
            && mem.safe_read(pid, self.cells[idx].has_cmd) != 0
            && mem.sticky_word_read(pid, self.cells[idx].next).is_none();
        if valid {
            if let Some(head) = self.find_head(mem, pid, local, idx) {
                self.append_inner(mem, pid, local, idx, head);
            }
        }
        self.release(mem, pid, local, idx);
        valid
    }

    /// APPEND-INNER (Figure 8): starting from a (grabbed) candidate head,
    /// race to jam `head.Prev` with our cell; on losing, link the winner
    /// (help!) and advance to it. The `Prev` jam is the consensus deciding
    /// each cell's unique successor; `Next` and `NotHead` follow from it,
    /// so every helper jams identical values.
    ///
    /// Consumes the grab on `head`.
    pub(crate) fn append_inner<M: WordMem + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        cell: usize,
        mut head: usize,
    ) {
        loop {
            if mem.sticky_word_read(pid, self.cells[cell].next).is_some() {
                self.release(mem, pid, local, head);
                return;
            }
            mem.sticky_word_jam(pid, self.cells[head].prev, cell as u64);
            self.mark_dirty(local, head);
            let winner = mem
                .sticky_word_read(pid, self.cells[head].prev)
                .expect("just jammed") as usize;
            assert!(winner < self.cells.len(), "Prev out of range");
            if winner == cell {
                mem.sticky_word_jam(pid, self.cells[cell].next, head as u64);
                mem.sticky_jam(pid, self.cells[head].not_head, true);
                self.mark_dirty(local, cell);
                self.mark_dirty(local, head);
                if self.use_fast_paths {
                    // Publish the new head so everyone's next FIND-HEAD
                    // starts one step away from it (advisory only).
                    mem.atomic_write(pid, self.frontier, cell as u64);
                    local.head_hint = Some(cell);
                }
                self.release(mem, pid, local, head);
                return;
            }
            // Lost the race: finish linking the winner (it may have
            // crashed), then continue from it as the new head candidate.
            if self.grab(mem, pid, local, winner) {
                mem.sticky_word_jam(pid, self.cells[winner].next, head as u64);
                mem.sticky_jam(pid, self.cells[head].not_head, true);
                self.mark_dirty(local, winner);
                self.mark_dirty(local, head);
                self.release(mem, pid, local, head);
                head = winner;
                continue;
            }
            // The winner is being reclaimed — only possible once it is n
            // deep in the list, by which time our cell must have been
            // appended by a helper (Lemma 6.5). Re-check and, if the world
            // is stranger than the lemma, rescan for a fresh head.
            self.release(mem, pid, local, head);
            match self.find_head(mem, pid, local, cell) {
                None => return,
                Some(h) => head = h,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CellPayload, Universal};
    use sbu_mem::{Pid, Tri, WordMem};
    use sbu_sim::SimMem;
    use sbu_spec::specs::{CounterOp, CounterSpec};

    /// Deterministic full-scan fallback: when *every* cursor FIND-HEAD can
    /// try is cold — the shared frontier points at a reclaimed/never-linked
    /// cell (a stale republish by a slow appender leaves exactly this) and
    /// the processor has no private head hint (fresh start or post-crash
    /// recovery) — the walk must abandon the hints, count a
    /// `core.frontier_fallback`, and still find the true head via the
    /// paper's full Figure-7 pool scan. This pins the fallback path that
    /// random schedules almost never reach (the frontier is refreshed on
    /// every append, so both cursors going cold at once needs a precisely
    /// misplaced stall).
    #[test]
    fn cold_cursors_force_the_full_scan_fallback() {
        let n = 2;
        let registry = sbu_obs::Registry::new(n);
        let mut mem: SimMem<CellPayload<CounterSpec>> = SimMem::new(n);
        let obj = Universal::builder(n)
            .obs(&registry)
            .build(&mut mem, CounterSpec::new());
        // Warm the list: two appends, so a real head exists beyond the
        // anchor and the frontier points at it.
        assert_eq!(obj.apply(&mem, Pid(0), &CounterOp::Inc), 1);
        assert_eq!(obj.apply(&mem, Pid(1), &CounterOp::Inc), 2);

        let inner = &*obj.inner;
        let pid = Pid(0);
        let head = (0..inner.cells.len())
            .find(|&c| {
                mem.sticky_word_read(pid, inner.cells[c].next).is_some()
                    && mem.sticky_read(pid, inner.cells[c].not_head) == Tri::Undef
            })
            .expect("a head must exist after two appends");
        // Two never-linked pool cells: one to play the stale cursor target,
        // one to stand in as the cell being appended.
        let mut cold = (0..inner.cells.len())
            .filter(|&c| mem.sticky_word_read(pid, inner.cells[c].next).is_none());
        let stale = cold.next().expect("pool has unclaimed cells");
        let my_cell = cold.next().expect("pool has unclaimed cells");

        // Poison the shared cursor and blank the private one.
        mem.atomic_write(pid, inner.frontier, stale as u64);
        let mut local = inner.locals[pid.0].lock();
        local.head_hint = None;

        let snap_before = registry.snapshot();
        let found = inner
            .find_head(&mem, pid, &mut local, my_cell)
            .expect("my_cell is not appended, so a head must be returned");
        assert_eq!(found, head, "the full scan must still find the true head");
        inner.release(&mem, pid, &mut local, found);

        if cfg!(feature = "obs") {
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter("core.frontier_fallback"),
                snap_before.counter("core.frontier_fallback") + 1,
                "every cursor was cold: the fallback must be counted"
            );
            assert_eq!(
                snap.counter("core.frontier_miss"),
                snap_before.counter("core.frontier_miss") + 1,
                "the stale cursor walk must be counted as a miss"
            );
        }
    }
}
