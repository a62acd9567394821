//! Per-key memory guard: a materialized key must stay a few KB.
//!
//! This file holds one `#[test]` so that no other test allocates in its
//! process while it reads `VmRSS`. A key packed in a single-owner arena
//! costs ~6 KB (`Shard`) and ~7 KB (`DurableShard`); with a register per
//! 128 bytes, as a shared arena lays them out, it cost ~43 KB.

#![cfg(target_os = "linux")]

use sbu_service::Shard;
use sbu_spec::specs::{CounterOp, CounterSpec};

/// Keys materialized per shard kind: enough that allocator slack and page
/// granularity average out.
const KEYS: u64 = 4096;

/// The most RSS one materialized key may add.
const MAX_BYTES_PER_KEY: u64 = 16 * 1024;

/// This process's resident set, in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .expect("a VmRSS line in kB");
    kb * 1024
}

#[test]
fn a_materialized_key_costs_at_most_16_kib() {
    let before = rss_bytes();
    let mut shard = Shard::new(0, CounterSpec::new());
    for key in 0..KEYS {
        assert_eq!(shard.apply(key, &CounterOp::Inc), 1);
    }
    let plain = rss_bytes().saturating_sub(before) / KEYS;

    // The volatile shard stays alive, so its pages cannot be reused here.
    let before = rss_bytes();
    let mut durable = Shard::durable(0, CounterSpec::new());
    for key in 0..KEYS {
        assert_eq!(durable.apply(key, &CounterOp::Inc), 1);
    }
    let recoverable = rss_bytes().saturating_sub(before) / KEYS;

    assert_eq!(shard.keys() + durable.keys(), 2 * KEYS as usize);
    println!("bytes per key: Shard {plain}, DurableShard {recoverable}");
    assert!(
        plain <= MAX_BYTES_PER_KEY,
        "Shard: {plain} B per key, limit {MAX_BYTES_PER_KEY}"
    );
    assert!(
        recoverable <= MAX_BYTES_PER_KEY,
        "DurableShard: {recoverable} B per key, limit {MAX_BYTES_PER_KEY}"
    );
}
