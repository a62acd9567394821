//! Shard supervision: seeded worker kills, respawn, and state recovery.
//!
//! The fault the paper's construction is *about* — a processor dying
//! mid-protocol — is modeled at the service layer as a worker thread
//! panicking between requests. A [`KillPlan`] arms a seeded kill hook in
//! each worker: after a pseudo-random number of requests (uniform in
//! `[period/2, 3·period/2]`) the worker panics **before applying** the
//! frame it just decoded. The supervisor (the worker thread's own outer
//! loop, see `server.rs`) catches the unwind, counts `service.respawn`,
//! and restarts the loop with state rebuilt per the [`Recovery`] mode:
//!
//! * [`Recovery::Volatile`] — shard state dies with the worker. The
//!   in-flight request is answered with a typed `Unavailable` control
//!   frame *before* the panic, so it is never silently lost; clients
//!   retry against the respawned (fresh) shard.
//! * [`Recovery::Durable`] — each shard's memory is a
//!   [`DurableMem`]-backed word space. The crash runs the repo's real
//!   crash–restart protocol (`crash` resolves unfenced persists; the
//!   shared word space survives, as it does when a worker *thread* dies
//!   in-process) and every materialized `Universal` replays
//!   [`recover`](sbu_core::Universal::recover); the in-flight frame is
//!   pushed back onto the inbox and re-processed after recovery. No ack
//!   was sent and no apply completed, so exactly-once is preserved.
//!
//! Because kills are counted in *requests processed* (not wall time), a
//! 1-client / 1-worker run is fully deterministic: the same seed kills at
//! the same request boundaries and the post-run report is byte-identical.

use crate::shard::Shard;
use crate::wire::WireCodec;
use sbu_core::CellPayload;
use sbu_mem::{DurableMem, NativeMem, Pid};

/// Seeded schedule of worker kills, in units of requests processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Mean number of requests a worker survives between kills. The actual
    /// gap is uniform in `[period/2, 3·period/2]`, redrawn after every
    /// respawn. Must be ≥ 2 (a period of 1 could starve all progress);
    /// [`ServiceBuilder::build`](crate::ServiceBuilder::build) rejects
    /// smaller periods.
    pub period: u64,
}

impl KillPlan {
    /// Kill roughly every `period` requests.
    pub const fn every(period: u64) -> Self {
        Self { period }
    }
}

/// What a shard's state is made of, and therefore what survives a kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recovery {
    /// Plain in-memory shards: a kill loses the worker's shard state, and
    /// the in-flight request is answered `Unavailable`. The default.
    #[default]
    Volatile,
    /// [`DurableMem`]-backed shards: a kill runs the crash–restart
    /// protocol and per-key [`sbu_core::Universal::recover`]; acked
    /// operations are never lost.
    Durable,
}

/// Per-worker kill state: the seeded countdown to the next panic.
#[derive(Debug)]
pub(crate) struct KillState {
    plan: KillPlan,
    /// splitmix64 state; advanced once per redraw.
    rng: u64,
    /// Requests remaining until the next kill.
    remaining: u64,
}

impl KillState {
    pub(crate) fn new(plan: KillPlan, seed: u64, worker: usize) -> Self {
        let mut s = Self {
            plan,
            rng: seed ^ (worker as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
            remaining: 0,
        };
        s.redraw();
        s
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draw the gap to the next kill: uniform in `[period/2, 3·period/2]`.
    pub(crate) fn redraw(&mut self) {
        let half = self.plan.period / 2;
        let span = self.plan.period + 1; // inclusive range width
        self.remaining = half + self.next_u64() % span;
    }

    /// Count one request about to be processed; `true` means *die now,
    /// before applying it*.
    pub(crate) fn fires(&mut self) -> bool {
        if self.remaining == 0 {
            // Armed from a previous call; the supervisor redraws on respawn.
            return true;
        }
        self.remaining -= 1;
        self.remaining == 0
    }
}

/// A shard whose word space is a [`DurableMem`] over [`NativeMem`] — the
/// recoverable twin of the plain [`Shard`]. Applies go through the same
/// per-key `Universal` instances; the only addition is
/// [`crash_recover`](DurableShard::crash_recover), which runs the repo's
/// crash–restart protocol over every materialized key.
pub struct DurableShard<S: WireCodec> {
    inner: Shard<S, DurableMem<NativeMem<CellPayload<S>>>>,
}

impl<S> DurableShard<S>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    /// An empty durable shard (honest persistence: every in-flight write
    /// survives a crash — the conservative-hardware model), over a packed
    /// [`NativeMem::single_owner`] arena like [`Shard::new`]'s.
    pub fn new(id: usize, template: S) -> Self {
        Self {
            inner: Shard::with_mem(id, template, DurableMem::new(NativeMem::single_owner())),
        }
    }

    /// Apply `op` to the object at `key` (see [`Shard::apply`]).
    pub fn apply(&mut self, key: u64, op: &S::Op) -> S::Resp {
        self.inner.apply(key, op)
    }

    /// Model the owning worker dying and coming back: crash the shard's
    /// single processor (resolving unfenced persists by the torn-persist
    /// policy), restart it, and run [`sbu_core::Universal::recover`] on
    /// every materialized object — the same protocol the crash-era stress
    /// harness drives (`crates/stress`, `RecoverableCounter`). This is a
    /// *processor* crash, the paper's fault model: the worker thread dies
    /// but the word space survives, exactly like the in-process service
    /// where a respawned worker reopens the same memory. Idempotent per
    /// crash; acked operations survive. Returns any durability violations
    /// the memory recorded (empty under the honest policy).
    pub fn crash_recover(&mut self) -> Vec<String> {
        let (mem, objects) = self.inner.mem_and_objects();
        mem.crash::<CellPayload<S>>(&[Pid(0)]);
        mem.restart(Pid(0));
        for obj in objects.values() {
            obj.recover(mem, Pid(0));
        }
        mem.violations()
    }
}

impl<S: WireCodec> DurableShard<S> {
    /// This shard's index.
    pub fn id(&self) -> usize {
        self.inner.id()
    }

    /// Number of materialized keys.
    pub fn keys(&self) -> usize {
        self.inner.keys()
    }

    /// Total operations applied.
    pub fn ops(&self) -> u64 {
        self.inner.ops()
    }
}

impl<S: WireCodec> std::fmt::Debug for DurableShard<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableShard")
            .field("id", &self.id())
            .field("keys", &self.keys())
            .field("ops", &self.ops())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbu_spec::specs::{CounterOp, CounterSpec};

    #[test]
    fn kill_state_is_seeded_and_windowed() {
        let plan = KillPlan::every(16);
        let gaps = |seed: u64| {
            let mut st = KillState::new(plan, seed, 0);
            let mut out = Vec::new();
            for _ in 0..50 {
                let mut gap = 0u64;
                while !st.fires() {
                    gap += 1;
                }
                out.push(gap + 1);
                st.redraw();
            }
            out
        };
        let a = gaps(7);
        assert_eq!(a, gaps(7), "same seed, same schedule");
        assert_ne!(a, gaps(8), "different seed, different schedule");
        for &g in &a {
            assert!(
                (8..=24).contains(&g),
                "gap {g} outside [period/2, 3·period/2]"
            );
        }
        // Distinct workers under the same seed draw distinct schedules.
        let mut w1 = KillState::new(plan, 7, 1);
        let mut gap = 0u64;
        while !w1.fires() {
            gap += 1;
        }
        assert!((8..=24).contains(&(gap + 1)));
    }

    #[test]
    fn durable_shard_survives_crash_recover() {
        let mut shard = DurableShard::new(0, CounterSpec::new());
        for _ in 0..5 {
            shard.apply(1, &CounterOp::Inc);
        }
        shard.apply(2, &CounterOp::Inc);
        let violations = shard.crash_recover();
        assert!(violations.is_empty(), "{violations:?}");
        // Acked state survived the crash.
        assert_eq!(shard.apply(1, &CounterOp::Read), 5);
        assert_eq!(shard.apply(2, &CounterOp::Read), 1);
        // And the shard keeps working (several crash cycles).
        for round in 2..5 {
            shard.apply(1, &CounterOp::Inc);
            assert!(shard.crash_recover().is_empty());
            assert_eq!(shard.apply(1, &CounterOp::Read), 4 + round);
        }
    }
}
