//! GRAB / RELEASE / INIT: the reclamation handshake (Figures 4–5).
//!
//! `Flush` on sticky fields is non-atomic, so reinitializing a cell while
//! anyone might operate on it is undefined behaviour (the simulator flags
//! it). The handshake: a processor *grabs* a cell before touching its
//! fields — raise `r_i`, double-checking the owner's `Init` flag around the
//! write — and the owner may only flush after raising `Init` and then
//! observing every `r_j` at 0 at least once (progress memoized in
//! `CountInit` across failed attempts, so repeated INIT calls make
//! monotone progress).
//!
//! Grabs here are re-entrant per processor (tracked in private memory):
//! the protocols of Figures 6–8 can hold up to three grabs at once, and a
//! full-pool scan may revisit a cell the scanner already holds; a plain
//! bit would be cleared by the inner release.

use super::{Inner, ProcLocal};
use sbu_mem::{Pid, WordMem};

impl<S> Inner<S> {
    /// GRAB (Figure 4): returns `true` if the cell is now protected from
    /// initialization until the matching [`Inner::release`].
    pub(crate) fn grab<M: WordMem + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        c: usize,
    ) -> bool {
        if let Some((_, count)) = local.grabs.iter_mut().find(|(cell, _)| *cell == c) {
            *count += 1;
            return true;
        }
        let cell = &self.cells[c];
        if mem.safe_read(pid, cell.init_flag) != 0 {
            self.obs.grab_retry.incr(pid.0);
            return false;
        }
        mem.safe_write(pid, self.r(c, pid.0), 1);
        if mem.safe_read(pid, cell.init_flag) != 0 {
            mem.safe_write(pid, self.r(c, pid.0), 0);
            self.obs.grab_retry.incr(pid.0);
            return false;
        }
        local.grabs.push((c, 1));
        // Theorem 6.6's accounting: "each processor GRABs at most 3 cells
        // at any moment". Anything beyond that is a protocol bug.
        debug_assert!(
            local.grabs.len() <= 3,
            "grab bound exceeded: {:?}",
            local
                .grabs
                .iter()
                .map(|(cell, _)| *cell)
                .collect::<Vec<_>>()
        );
        true
    }

    /// Record that this processor jammed a sticky field of cell `c` while
    /// holding a grab on it. No-op when `c` is not currently grabbed (the
    /// owner's jams into its own un-grabbed cell are fenced by the persist
    /// at the end of `apply` instead).
    pub(crate) fn mark_dirty(&self, local: &mut ProcLocal, c: usize) {
        if local.grabs.iter().any(|(cell, _)| *cell == c) && !local.dirty.contains(&c) {
            local.dirty.push(c);
        }
    }

    /// RELEASE (Figure 4): drop one level of grab; clears `r_i` when the
    /// last level is released.
    ///
    /// Flush-on-dependence: if this processor jammed any sticky field of
    /// the cell under the grab, those writes are fenced *before* `r_i` is
    /// cleared. The owner's INIT flushes only after observing every `r_j`
    /// at 0, so by then every foreign jam into the cell is durable and the
    /// non-atomic flush can never race an unfenced dependent write
    /// (DESIGN.md §9.4).
    pub(crate) fn release<M: WordMem + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        local: &mut ProcLocal,
        c: usize,
    ) {
        let at = local
            .grabs
            .iter()
            .position(|(cell, _)| *cell == c)
            .expect("release without a matching grab");
        local.grabs[at].1 -= 1;
        if local.grabs[at].1 == 0 {
            local.grabs.swap_remove(at);
            if let Some(d) = local.dirty.iter().position(|cell| *cell == c) {
                local.dirty.swap_remove(d);
                mem.persist(pid);
            }
            mem.safe_write(pid, self.r(c, pid.0), 0);
        }
    }

    /// INIT (Figure 5): owner-only. Returns `true` once the cell has been
    /// fully reinitialized (all sticky fields flushed, data cleared); a
    /// `false` means some processor still holds (or raced) a grab — retry
    /// on a later call, resuming from `CountInit`.
    pub(crate) fn init<M, P>(&self, mem: &M, pid: Pid, local: &mut ProcLocal, c: usize) -> bool
    where
        P: Clone,
        M: sbu_mem::DataMem<P> + ?Sized,
    {
        let cell = &self.cells[c];
        if mem.safe_read(pid, cell.init_flag) == 0 {
            mem.safe_write(pid, cell.init_flag, 1);
        }
        // Figure 5 releases the caller's own grab first. No fence needed:
        // the caller is the owner, about to flush this very cell.
        if let Some(at) = local.grabs.iter().position(|(cell, _)| *cell == c) {
            local.grabs.swap_remove(at);
            if let Some(d) = local.dirty.iter().position(|cell| *cell == c) {
                local.dirty.swap_remove(d);
            }
            mem.safe_write(pid, self.r(c, pid.0), 0);
        }
        let mut j = mem.safe_read(pid, cell.count_init) as usize;
        while j < self.n && mem.safe_read(pid, self.r(c, j)) == 0 {
            j += 1;
        }
        mem.safe_write(pid, cell.count_init, j as u64);
        if j < self.n {
            return false;
        }
        // Quiesced: flush everything. This is the only place sticky fields
        // are reset, and the handshake guarantees no concurrent access.
        mem.sticky_flush(pid, cell.claimed);
        mem.sticky_flush(pid, cell.not_head);
        mem.sticky_word_flush(pid, cell.proc_id);
        mem.sticky_word_flush(pid, cell.next);
        mem.sticky_word_flush(pid, cell.prev);
        mem.data_clear(pid, cell.cmd);
        mem.data_clear(pid, cell.state);
        mem.safe_write(pid, cell.has_cmd, 0);
        mem.safe_write(pid, cell.has_state, 0);
        for d in 0..self.n {
            mem.safe_write(pid, self.b(c, d), 0);
        }
        mem.safe_write(pid, cell.count_init, 0);
        mem.safe_write(pid, cell.init_flag, 0);
        true
    }
}
