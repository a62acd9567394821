//! The no-double-apply property, machine-checked: under a seeded lossy
//! transport with drop, duplication and corruption at ≥ 10% and delay at
//! 5–10%, `N` acked increments leave the counter at exactly `N`.
//!
//! This is the exactly-once contract end to end: drops force the client to
//! retransmit (same `(client, seq)`), duplication hands the worker the
//! same request twice, and the per-worker dedup window must collapse all
//! of it back to one apply per acked op — never zero (an acked op must be
//! applied) and never two (a retransmit must not re-apply).
//!
//! The second property runs the same contract over a **real Unix-domain
//! socket** with the byte-level stream faults — corruption and mid-frame
//! disconnects at ≥ 10% — so reconnect-and-retransmit is exercised against
//! actual kernel streams, not in-process queues.
//!
//! Both drive the closed-loop `call`, where a request never has a later
//! request to the same worker in flight. The pipelined properties keep
//! 2–8 requests in flight per client (`submit`, then `wait` on the oldest),
//! in-process and over a Unix socket, so the client's FIFO loss signal —
//! retransmit an older request once a later one's reply overtakes it —
//! fires under the same faults, spuriously too whenever a delay lets a
//! later reply overtake one that was not lost.

use proptest::prelude::*;
use sbu_service::{FaultProfile, RetryPolicy, Service, TransportConfig};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A loss-heavy profile: the given drop, duplication and disconnect rates,
/// 10% corruption and 5% delay.
fn heavy(drop: f64, duplicate: f64, disconnect: f64) -> FaultProfile {
    FaultProfile {
        drop,
        duplicate,
        corrupt: 0.10,
        delay: 0.05,
        disconnect,
        lie: 0.0,
    }
}

/// One pipelined case: a 4-shard, 2-worker service on `transport` under
/// drop and duplication at the given permille plus 10% corruption and
/// delay. Each client sends `per_client` increments with
/// up to `depth` in flight, waiting on the oldest first; returns the
/// counters read back, summed over `keys`.
fn pipelined_total(
    transport: TransportConfig,
    seed: u64,
    clients: usize,
    per_client: usize,
    keys: u64,
    depth: usize,
    (drop_pm, duplicate_pm): (u64, u64),
) -> u64 {
    let profile = FaultProfile {
        delay: 0.10,
        ..heavy(drop_pm as f64 / 1000.0, duplicate_pm as f64 / 1000.0, 0.0)
    };
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(clients)
        .transport(transport)
        .fault(profile)
        .retry(RetryPolicy::lossy().with_deadline(Duration::from_secs(60)))
        .seed(seed)
        .build(CounterSpec::new());
    std::thread::scope(|scope| {
        for client in 0..clients {
            let svc = &svc;
            scope.spawn(move || {
                let handle = svc.client(client);
                let wait = |pending: sbu_service::Pending<'_, CounterSpec>| {
                    let seq = pending.seq();
                    pending
                        .wait(Instant::now() + Duration::from_secs(60))
                        .unwrap_or_else(|e| panic!("client {client} seq {seq}: {e}"));
                };
                let mut window = VecDeque::with_capacity(depth);
                for i in 0..per_client as u64 {
                    window.push_back(handle.submit(i % keys, &CounterOp::Inc));
                    if window.len() == depth {
                        wait(window.pop_front().expect("window is full"));
                    }
                }
                window.into_iter().for_each(wait);
            });
        }
    });
    let total = (0..keys)
        .map(|key| svc.client(0).call(key, &CounterOp::Read).expect("read"))
        .sum();
    svc.shutdown();
    total
}

/// A scratch Unix-socket path unique across the test binary's threads.
fn scratch_socket() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sbu-faults-prop-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    // Each case boots a real service and rides out actual retransmission
    // timeouts; keep the case count modest so the suite stays snappy.
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// N acked increments ⇒ counter reads exactly N, for arbitrary seeds,
    /// topologies, and fault rates ≥ 10% drop/dup (drawn in permille,
    /// 100‰..200‰, since that is what the vendored proptest's integer
    /// ranges can express).
    #[test]
    fn acked_increments_apply_exactly_once(
        seed in any::<u64>(),
        clients in 1usize..4,
        per_client in 20usize..49,
        keys in 1u64..7,
        drop_pm in 100u64..201,
        duplicate_pm in 100u64..201,
    ) {
        let (drop, duplicate) = (drop_pm as f64 / 1000.0, duplicate_pm as f64 / 1000.0);
        let mut svc = Service::builder(4)
            .workers(2)
            .clients(clients)
            .fault(heavy(drop, duplicate, 0.0))
            .retry(RetryPolicy::lossy().with_deadline(std::time::Duration::from_secs(60)))
            .seed(seed)
            .build(CounterSpec::new());
        std::thread::scope(|scope| {
            for client in 0..clients {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..per_client as u64 {
                        svc.client(client)
                            .call(i % keys, &CounterOp::Inc)
                            .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                    }
                });
            }
        });
        let total: u64 = (0..keys)
            .map(|key| svc.client(0).call(key, &CounterOp::Read).expect("read"))
            .sum();
        let snap = svc.obs_snapshot();
        svc.shutdown();
        prop_assert_eq!(
            total,
            (clients * per_client) as u64,
            "every acked increment must count exactly once (seed {})",
            seed
        );
        if cfg!(feature = "obs") {
            prop_assert!(
                snap.counter("service.inject.drop") > 0,
                "a ≥10% drop rate must actually fire"
            );
        }
    }
}

proptest! {
    // Socket cases pay real connect/teardown costs per disconnect fault;
    // fewer cases, smaller traffic.
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// The same exactly-once contract over a real Unix socket with the
    /// byte-level stream faults dominant: ≥ 10% frame corruption and
    /// ≥ 10% mid-frame disconnects (plus background drop). Every
    /// disconnect truncates a live kernel stream, forcing the reader's
    /// typed connection teardown and the client's reconnect-and-retransmit
    /// path — and `(client, seq)` dedup must still collapse everything to
    /// one apply per acked op.
    #[test]
    fn socket_faults_still_apply_exactly_once(
        seed in any::<u64>(),
        clients in 1usize..3,
        per_client in 10usize..25,
        keys in 1u64..5,
        corrupt_pm in 100u64..201,
        disconnect_pm in 100u64..201,
    ) {
        let path = scratch_socket();
        let profile = FaultProfile {
            drop: 0.05,
            duplicate: 0.05,
            corrupt: corrupt_pm as f64 / 1000.0,
            delay: 0.0,
            disconnect: disconnect_pm as f64 / 1000.0,
            lie: 0.0,
        };
        let mut svc = Service::builder(4)
            .workers(2)
            .clients(clients)
            .transport(TransportConfig::Unix(path.clone()))
            .fault(profile)
            .retry(RetryPolicy::lossy().with_deadline(std::time::Duration::from_secs(60)))
            .seed(seed)
            .build(CounterSpec::new());
        std::thread::scope(|scope| {
            for client in 0..clients {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..per_client as u64 {
                        svc.client(client)
                            .call(i % keys, &CounterOp::Inc)
                            .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                    }
                });
            }
        });
        let total: u64 = (0..keys)
            .map(|key| svc.client(0).call(key, &CounterOp::Read).expect("read"))
            .sum();
        let snap = svc.obs_snapshot();
        svc.shutdown();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(
            total,
            (clients * per_client) as u64,
            "acked increments over a faulty socket must count exactly once (seed {})",
            seed
        );
        if cfg!(feature = "obs") {
            prop_assert!(
                snap.counter("service.inject.disconnect") > 0,
                "a ≥10% disconnect rate must actually fire"
            );
            prop_assert!(
                snap.counter("service.accept") > clients as u64,
                "disconnects must force reconnects (accepts beyond the initial dials)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Pipelined: N acked increments ⇒ counter reads exactly N with 2–8
    /// requests in flight per client, under drop and duplication at
    /// 10–20% and corruption and delay at 10%.
    #[test]
    fn pipelined_increments_apply_exactly_once(
        seed in any::<u64>(),
        clients in 1usize..4,
        per_client in 20usize..49,
        keys in 1u64..7,
        depth in 2usize..9,
        drop_pm in 100u64..201,
        duplicate_pm in 100u64..201,
    ) {
        let rates = (drop_pm, duplicate_pm);
        let total =
            pipelined_total(TransportConfig::InProcess, seed, clients, per_client, keys, depth, rates);
        prop_assert_eq!(
            total,
            (clients * per_client) as u64,
            "every acked increment must count exactly once (seed {})",
            seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// The pipelined contract over a real Unix socket, same fault rates.
    #[test]
    fn pipelined_socket_increments_apply_exactly_once(
        seed in any::<u64>(),
        clients in 1usize..3,
        per_client in 20usize..49,
        keys in 1u64..7,
        depth in 2usize..9,
        drop_pm in 100u64..201,
        duplicate_pm in 100u64..201,
    ) {
        let path = scratch_socket();
        let rates = (drop_pm, duplicate_pm);
        let unix = TransportConfig::Unix(path.clone());
        let total = pipelined_total(unix, seed, clients, per_client, keys, depth, rates);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(
            total,
            (clients * per_client) as u64,
            "acked increments over a faulty socket must count exactly once (seed {})",
            seed
        );
    }
}
