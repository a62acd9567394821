//! Property tests for the router: the partition must be total, stable,
//! and agreed on by every independently constructed `ShardMap` — the
//! property the whole service relies on (a client and a worker that
//! disagree on `shard_of` would corrupt the single-owner discipline).

use proptest::prelude::*;
use sbu_service::ShardMap;

proptest! {
    /// Totality: every key lands strictly inside the shard range, for
    /// every power-of-two shard count.
    #[test]
    fn routing_is_total(key in any::<u64>(), shift in 0usize..10) {
        let shards = 1usize << shift;
        prop_assert!(ShardMap::new(shards).shard_of(key) < shards);
    }

    /// Stability: two independently built routers with the same shard
    /// count agree on every key, and repeated calls agree with themselves
    /// (no hidden state).
    #[test]
    fn routing_is_a_pure_function(keys in proptest::collection::vec(any::<u64>(), 1..64), shift in 0usize..8) {
        let shards = 1usize << shift;
        let a = ShardMap::new(shards);
        let b = ShardMap::new(shards);
        for &key in &keys {
            let s = a.shard_of(key);
            prop_assert_eq!(s, b.shard_of(key));
            prop_assert_eq!(s, a.shard_of(key));
        }
    }
}
