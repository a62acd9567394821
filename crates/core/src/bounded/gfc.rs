//! GFC — get a free cell, with helping (Figure 6 plus Section 5's freeing
//! rule).

use super::{Inner, ProcLocal, ANCHOR};
use sbu_mem::{Backoff, DataMem, Pid, Tri};

impl<S> Inner<S> {
    /// Get a free cell for `pid`: reclaim eligible owned cells, announce,
    /// claim a cell, then prepare a cell for every processor still
    /// announced (the helping pass that yields Lemma 6.4's bound).
    pub(crate) fn gfc<P, M>(&self, mem: &M, pid: Pid, local: &mut ProcLocal) -> usize
    where
        P: Clone,
        M: DataMem<P> + ?Sized,
    {
        self.reclaim_owned(mem, pid, local);

        mem.safe_write(pid, self.announce_gfc[pid.0], 1);
        let cell = self.gfc_inner(mem, pid, local, pid.0);
        mem.sticky_jam(pid, self.cells[cell].claimed, true);
        self.mark_dirty(local, cell);
        self.release(mem, pid, local, cell);
        mem.safe_write(pid, self.announce_gfc[pid.0], 0);

        // Help: prepare (but do not claim) a cell for everyone searching.
        for j in 0..self.n {
            if j != pid.0 && mem.safe_read(pid, self.announce_gfc[j]) != 0 {
                let prepared = self.gfc_inner(mem, pid, local, j);
                self.release(mem, pid, local, prepared);
            }
        }

        local.owned.push(cell);
        cell
    }

    /// Reclaim owned cells whose distance bits are all set (Section 5):
    /// such a cell has n state snapshots ahead of it in the list, so no
    /// scan can reach it any more.
    fn reclaim_owned<P, M>(&self, mem: &M, pid: Pid, local: &mut ProcLocal)
    where
        P: Clone,
        M: DataMem<P> + ?Sized,
    {
        let owned = std::mem::take(&mut local.owned);
        for c in owned {
            let fully_marked =
                c != ANCHOR && (0..self.n).all(|d| mem.safe_read(pid, self.b(c, d)) != 0);
            if fully_marked && self.init(mem, pid, local, c) {
                if self.use_fast_paths {
                    local.free_hints.push(c);
                }
                continue; // reclaimed: drop from the owned list
            }
            local.owned.push(c);
        }
    }

    /// The search loop of Figure 6: first look for a cell already prepared
    /// for `target`, then race to jam `target` into unowned cells. The
    /// returned cell is owned by `target`, unclaimed, and still **grabbed**
    /// by the caller.
    pub(crate) fn gfc_inner<P, M>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        target: usize,
    ) -> usize
    where
        P: Clone,
        M: DataMem<P> + ?Sized,
    {
        // Fast path: retry cells this processor reclaimed itself (only for
        // its own allocations — helpers use the paper's scans). Sound: a
        // hint is just a candidate; it passes the same grab + ProcID-jam +
        // Claimed validation as a scan hit.
        if self.use_fast_paths && target == pid.0 {
            while let Some(c) = local.free_hints.pop() {
                if !self.grab(mem, pid, local, c) {
                    continue;
                }
                let cell = &self.cells[c];
                let won = match mem.sticky_word_read(pid, cell.proc_id) {
                    None => {
                        let stuck = mem
                            .sticky_word_jam(pid, cell.proc_id, target as u64)
                            .is_success();
                        self.mark_dirty(local, c);
                        stuck
                    }
                    Some(t) => t == target as u64,
                };
                if won && mem.sticky_read(pid, cell.claimed) == Tri::Undef {
                    self.obs.gfc_hint_hit.incr(pid.0);
                    return c;
                }
                self.release(mem, pid, local, c);
            }
        }
        // Pass 1: a cell previously prepared for `target`.
        for c in 0..self.cells.len() {
            if !self.grab(mem, pid, local, c) {
                continue;
            }
            if mem.sticky_word_read(pid, self.cells[c].proc_id) == Some(target as u64)
                && mem.sticky_read(pid, self.cells[c].claimed) == Tri::Undef
            {
                return c;
            }
            self.release(mem, pid, local, c);
        }
        // Pass 2: race for unowned cells until one sticks. Bounded in
        // expectation by Lemma 6.4 given the Θ(n²) pool; if the pool is
        // exhausted by leaks this spins, which the simulator's step limit
        // turns into a loud failure.
        let mut backoff = Backoff::new();
        loop {
            for c in 0..self.cells.len() {
                if !self.grab(mem, pid, local, c) {
                    continue;
                }
                let cell = &self.cells[c];
                let owner = mem.sticky_word_read(pid, cell.proc_id);
                let won = match owner {
                    None => {
                        let stuck = mem
                            .sticky_word_jam(pid, cell.proc_id, target as u64)
                            .is_success();
                        self.mark_dirty(local, c);
                        stuck
                    }
                    Some(t) => t == target as u64,
                };
                if won && mem.sticky_read(pid, cell.claimed) == Tri::Undef {
                    return c;
                }
                self.release(mem, pid, local, c);
            }
            // Every cell was contended this sweep: back off locally before
            // re-racing the jam loop.
            let rounds = backoff.spin();
            self.obs.backoff_spins.add(pid.0, u64::from(rounds));
        }
    }
}
