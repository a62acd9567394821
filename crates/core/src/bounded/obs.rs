//! Observability instruments for the bounded construction's hot paths.
//!
//! Every instrument is a plain per-lane cell (`sbu-obs`): recording never
//! issues a [`sbu_mem::WordMem`] step, so attached and detached objects
//! execute byte-identical shared-memory schedules — the property
//! `crates/core/tests/obs_equivalence.rs` checks exhaustively.

/// Named instruments for GFC / FIND-HEAD / GRAB, registered by
/// [`super::UniversalBuilder::obs`] and recorded by the protocol code.
#[derive(Debug, Clone, Default)]
pub struct CoreObs {
    /// `core.frontier_hit`: FIND-HEAD resolved by walking from a cursor
    /// (the shared frontier or the private head hint).
    pub frontier_hit: sbu_obs::Counter,
    /// `core.frontier_miss`: a cursor walk went stale and was abandoned.
    pub frontier_miss: sbu_obs::Counter,
    /// `core.frontier_fallback`: FIND-HEAD fell back to the paper's full
    /// pool scan (every cursor was cold).
    pub frontier_fallback: sbu_obs::Counter,
    /// `core.grab_retry`: a GRAB failed against a raised `Init` flag and
    /// the caller had to move on.
    pub grab_retry: sbu_obs::Counter,
    /// `core.gfc_hint_hit`: GFC satisfied an allocation from the caller's
    /// own reclaimed-cell hints, skipping the pool scans.
    pub gfc_hint_hit: sbu_obs::Counter,
    /// `core.backoff_spins`: total local spin rounds burned in the
    /// FIND-HEAD and GFC pass-2 retry loops.
    pub backoff_spins: sbu_obs::Counter,
    /// `core.combine_batch`: announced appends actually helped (validated
    /// under a grab) in one combining pass, including empty passes.
    /// Records the *post-validation* count — a torn announce read or a cell
    /// that got appended between collection and its turn is filtered out,
    /// so the histogram matches work done, not work collected.
    pub combine_batch: sbu_obs::Histogram,
    /// `core.batch_size`: commands carried by one block cell (one
    /// [`super::Universal::apply_batch`] call), recorded when the block is
    /// published.
    pub batch_size: sbu_obs::Histogram,
}

impl CoreObs {
    /// Register the instruments against `registry`.
    pub fn register(registry: &sbu_obs::Registry) -> Self {
        Self {
            frontier_hit: registry.counter("core.frontier_hit"),
            frontier_miss: registry.counter("core.frontier_miss"),
            frontier_fallback: registry.counter("core.frontier_fallback"),
            grab_retry: registry.counter("core.grab_retry"),
            gfc_hint_hit: registry.counter("core.gfc_hint_hit"),
            backoff_spins: registry.counter("core.backoff_spins"),
            combine_batch: registry.histogram("core.combine_batch"),
            batch_size: registry.histogram("core.batch_size"),
        }
    }
}
