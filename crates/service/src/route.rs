//! The `ShardMap` router: a total, stable partition of the key space.
//!
//! Routing must be a *pure function* of `(key, shard count)` — no hidden
//! state, no randomness — so that every client, every worker, and every
//! replayed benchmark agrees on which shard owns a key. Keys are hashed
//! through a 64-bit finalizer before masking, so adjacent keys (the
//! common case in generated workloads) spread across shards.
//!
//! The router also holds the ownership rule: of `workers` workers, worker
//! `w` owns every shard `s` with `s % workers == w`, for the life of the
//! service. Clients and socket readers pick a key's inbox by it, and each
//! worker builds and indexes its shards by it.

/// splitmix64's output mixing step: a bijective 64-bit finalizer (so hash
/// routing never collides two distinct keys onto the same mixed value).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The router: maps every `u64` key to one of a power-of-two number of
/// shards.
///
/// ```
/// use sbu_service::ShardMap;
/// let map = ShardMap::new(8);
/// let s = map.shard_of(42);
/// assert!(s < 8);
/// assert_eq!(s, map.shard_of(42)); // stable
/// assert_eq!(ShardMap::new(1).shard_of(42), 0); // total
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is a power of two (the route masks the
    /// hashed key; a non-power-of-two count would silently bias the
    /// partition).
    pub fn new(shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        Self { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns `key`: the key mixed through splitmix64 and
    /// masked with `shards - 1`. Total (every key maps somewhere) and
    /// stable (a pure function of the shard count).
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(key) & (self.shards - 1) as u64) as usize
    }

    /// The worker, of `workers`, that owns `key`'s shard: shard `s` belongs
    /// to worker `s % workers`.
    #[inline]
    pub(crate) fn worker_of(&self, key: u64, workers: usize) -> usize {
        self.shard_of(key) % workers
    }

    /// The shards worker `w` of `workers` owns, in ascending order:
    /// `w`, `w + workers`, `w + 2·workers`, …
    pub(crate) fn shards_of(&self, w: usize, workers: usize) -> impl Iterator<Item = usize> {
        (w..self.shards).step_by(workers)
    }

    /// Where `key`'s shard sits in its owner's [`shards_of`](Self::shards_of)
    /// list.
    #[inline]
    pub(crate) fn slot_of(&self, key: u64, workers: usize) -> usize {
        self.shard_of(key) / workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_total_and_stable() {
        for shards in [1, 2, 4, 8, 64] {
            let map = ShardMap::new(shards);
            for key in (0..1000).chain([u64::MAX, u64::MAX - 1, 1 << 63]) {
                let s = map.shard_of(key);
                assert!(s < shards, "key {key} → shard {s}/{shards}");
                assert_eq!(s, map.shard_of(key), "routing must be stable");
            }
        }
    }

    #[test]
    fn hash_routing_matches_golden_placements() {
        // Seeded artifacts and the per-shard splits of E12/E13 depend on
        // where keys land, so the route itself is pinned, not only its
        // totality and spread.
        const KEYS: [u64; 9] = [0, 1, 2, 3, 42, 1000, 0xDEAD_BEEF, 1 << 63, u64::MAX];
        let golden: [(usize, [usize; 9]); 4] = [
            (1, [0, 0, 0, 0, 0, 0, 0, 0, 0]),
            (4, [3, 1, 2, 1, 1, 0, 3, 3, 0]),
            (8, [7, 1, 6, 5, 5, 0, 3, 3, 0]),
            (64, [47, 1, 14, 45, 21, 8, 27, 27, 32]),
        ];
        for (shards, want) in golden {
            let map = ShardMap::new(shards);
            let got = KEYS.map(|key| map.shard_of(key));
            assert_eq!(got, want, "placements at {shards} shards");
        }
    }

    #[test]
    fn every_keys_worker_owns_its_shard() {
        for (shards, workers) in [(1, 1), (4, 1), (4, 3), (8, 2), (8, 8), (4, 6), (64, 5)] {
            let map = ShardMap::new(shards);
            let owned: Vec<Vec<usize>> = (0..workers)
                .map(|w| map.shards_of(w, workers).collect())
                .collect();
            // Every shard has exactly one owner.
            let mut all: Vec<usize> = owned.concat();
            all.sort_unstable();
            assert_eq!(all, (0..shards).collect::<Vec<_>>(), "{shards}/{workers}");
            for key in (0..1000).chain([u64::MAX, 1 << 63]) {
                let w = map.worker_of(key, workers);
                let slot = map.slot_of(key, workers);
                assert_eq!(
                    owned[w].get(slot),
                    Some(&map.shard_of(key)),
                    "key {key} at {shards} shards, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn hash_routing_spreads_sequential_keys() {
        let map = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for key in 0..4000 {
            counts[map.shard_of(key)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "shard {s} got {c} of 4000 sequential keys"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_is_rejected() {
        ShardMap::new(3);
    }

    #[test]
    #[should_panic(expected = "shard count must be a power of two, got 0")]
    fn zero_shards_is_rejected() {
        // `0_usize.is_power_of_two()` is false, so the constructor panic
        // also covers the empty map (whose mask would wrap to u64::MAX).
        ShardMap::new(0);
    }
}
