//! One shard: a slice of the object space backed by per-key universal
//! constructions.
//!
//! A shard is **single-owner**: exactly one worker thread holds it (the
//! server hands each shard to one worker and never moves it), so the shard
//! needs no interior synchronization of its own — all the concurrency
//! control lives *inside* each `Universal`, and the shard can take `&mut
//! self` for the lazy key → object table. Per-key instances are built with
//! `n = 1` (the owning worker is the only processor that ever applies to
//! them), so the Θ(n²) pool collapses to its constant floor: 16 cells, or
//! 181 word registers and 32 data cells. They live in the shard's
//! [`NativeMem::single_owner`] arena, packed with no cache-line padding,
//! since no other thread touches them. A key then costs ~6.2 KB of resident
//! memory (~7.3 KB in a [`crate::DurableShard`]; `tests/footprint.rs`
//! guards both), against ~43 KB with a register per 128 bytes as a shared
//! arena lays them out: 16 Ki keys take ~100 MB, and 1 M keys ~6 GB. Each
//! instance is labeled with the shard id via the builder's `shard(..)`
//! seam for observability.
//!
//! The shard is generic over its word space `M`: the plain service uses
//! [`NativeMem`] (volatile — state dies with the worker), while the
//! supervised durable mode wraps it in `DurableMem`
//! ([`crate::DurableShard`]) so a worker kill can run the real
//! crash–restart protocol and recover every key.

use crate::wire::WireCodec;
use sbu_core::{bounded::UniversalConfig, CellPayload, Universal};
use sbu_mem::{DataMem, NativeMem, Pid};
use std::collections::HashMap;

/// A single-owner slice of the keyed object space over word space `M`
/// (which must implement `DataMem<CellPayload<S>>` to be applied to).
pub struct Shard<S: WireCodec, M = NativeMem<CellPayload<S>>> {
    /// This shard's index in the [`crate::ShardMap`] partition.
    id: usize,
    /// The initial state cloned into every freshly touched key.
    template: S,
    /// The shard's private memory: every per-key instance allocates here.
    mem: M,
    /// Lazily populated key → object table.
    objects: HashMap<u64, Universal<S>>,
    /// Operations applied by this shard (feeds `service.shard_imbalance`).
    ops: u64,
    /// Build per-key instances in group-commit mode so a block of ops for
    /// one key commits as a single append ([`Shard::apply_batch`]).
    group_commit: bool,
}

impl<S> Shard<S>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    /// An empty volatile shard; keys materialize on first touch as clones
    /// of `template`. Its word space is a [`NativeMem::single_owner`] arena:
    /// only the owning worker touches it, so registers are packed.
    pub fn new(id: usize, template: S) -> Self {
        Self::with_mem(id, template, NativeMem::single_owner())
    }
}

impl<S, M> Shard<S, M>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    M: DataMem<CellPayload<S>>,
{
    /// An empty shard allocating from an explicit word space (the durable
    /// mode's entry point).
    pub fn with_mem(id: usize, template: S, mem: M) -> Self {
        Self {
            id,
            template,
            mem,
            objects: HashMap::new(),
            ops: 0,
            group_commit: false,
        }
    }

    /// Build per-key instances with [`UniversalConfig::group_commit`], so
    /// [`Shard::apply_batch`] commits a block of ops for one key as a
    /// single list append. Applies to keys materialized *after* the call;
    /// set it before the first touch. The service's workers apply per
    /// frame and never set it.
    pub fn group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    /// Materialize the object at `key` if this is its first touch.
    fn materialize(&mut self, key: u64) {
        if !self.objects.contains_key(&key) {
            let config = UniversalConfig::for_procs(1).group_commit(self.group_commit);
            let built = Universal::builder(1)
                .config(config)
                .shard(self.id)
                .build(&mut self.mem, self.template.clone());
            self.objects.insert(key, built);
        }
    }

    /// Apply `op` to the object at `key`, materializing it if this is the
    /// key's first touch. Always runs as `Pid(0)`: the owning worker is
    /// the instance's only processor.
    pub fn apply(&mut self, key: u64, op: &S::Op) -> S::Resp {
        self.ops += 1;
        self.materialize(key);
        let obj = &self.objects[&key];
        obj.apply(&self.mem, Pid(0), op)
    }

    /// Apply a whole block of `ops` to the object at `key`. Under
    /// [`Shard::group_commit`] the block commits as **one** list append
    /// with one state recompute ([`Universal::apply_batch`]); otherwise it
    /// degrades to per-command applies. Responses come back in op order
    /// either way.
    pub fn apply_batch(&mut self, key: u64, ops: &[S::Op]) -> Vec<S::Resp> {
        self.ops += ops.len() as u64;
        self.materialize(key);
        let obj = &self.objects[&key];
        if self.group_commit {
            obj.apply_batch(&self.mem, Pid(0), ops)
        } else {
            ops.iter()
                .map(|op| obj.apply(&self.mem, Pid(0), op))
                .collect()
        }
    }

    /// The word space and the materialized objects, together — the seam
    /// the durable wrapper uses to run crash–restart recovery over every
    /// key.
    pub(crate) fn mem_and_objects(&mut self) -> (&M, &HashMap<u64, Universal<S>>) {
        (&self.mem, &self.objects)
    }
}

impl<S: WireCodec, M> Shard<S, M> {
    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of keys that have been touched (and so materialized).
    pub fn keys(&self) -> usize {
        self.objects.len()
    }

    /// Total operations this shard has applied.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

impl<S: WireCodec, M> std::fmt::Debug for Shard<S, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("keys", &self.objects.len())
            .field("ops", &self.ops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbu_spec::specs::{CounterOp, CounterSpec};

    #[test]
    fn keys_are_independent_and_lazy() {
        let mut shard = Shard::new(0, CounterSpec::new());
        assert_eq!(shard.keys(), 0);
        assert_eq!(shard.apply(1, &CounterOp::Inc), 1);
        assert_eq!(shard.apply(1, &CounterOp::Inc), 2);
        assert_eq!(shard.apply(2, &CounterOp::Inc), 1); // fresh key, fresh state
        assert_eq!(shard.apply(1, &CounterOp::Read), 2);
        assert_eq!(shard.keys(), 2);
        assert_eq!(shard.ops(), 4);
    }

    #[test]
    fn batched_applies_match_per_command_applies() {
        let mut plain = Shard::new(0, CounterSpec::new());
        let mut batched = Shard::new(0, CounterSpec::new()).group_commit(true);
        let ops = vec![CounterOp::Inc, CounterOp::Add(5), CounterOp::Inc];
        let a = plain.apply_batch(7, &ops);
        let b = batched.apply_batch(7, &ops);
        assert_eq!(a, b, "batched and per-command responses must agree");
        assert_eq!(a, vec![1, 6, 7]);
        assert_eq!(plain.apply(7, &CounterOp::Read), 7);
        assert_eq!(batched.apply(7, &CounterOp::Read), 7);
        assert_eq!(batched.ops(), 4);
        // Mixed singles and blocks interleave cleanly on one object.
        assert_eq!(
            batched.apply_batch(7, &[CounterOp::Inc, CounterOp::Inc]),
            vec![8, 9]
        );
        assert_eq!(batched.apply(7, &CounterOp::Read), 9);
    }
}
