//! Shard-kill torture: 100 seeds of mid-run worker panics.
//!
//! The supervisor contract under test (kills run on durable shards only):
//! a killed worker respawns, rebuilds every key's `Universal` instance
//! from `DurableMem`, and requeues the in-flight frame — zero acked
//! operations lost, and the client never even notices.
//!
//! Plus the determinism clause: with one client and one worker, two runs
//! of the same seed produce byte-identical reports. The contract is also
//! checked over a Unix-domain socket, where the requeued frame goes back
//! into the socket transport's inbox.

use sbu_service::{KillPlan, Recovery, Service, ShardStats, TransportConfig};
use sbu_spec::specs::{CounterOp, CounterSpec};

const SEEDS: u64 = 100;
const OPS: u64 = 60;
const KEYS: u64 = 4;

/// Drive one seed over `transport`: `OPS` increments round-robin over
/// `KEYS` keys, every one of which must ack, then a keyed read sweep and
/// shutdown.
fn run_seed_over(
    seed: u64,
    transport: TransportConfig,
) -> (u64, sbu_obs::Snapshot, Vec<ShardStats>) {
    let mut svc = Service::builder(2)
        .transport(transport)
        .kill(KillPlan::every(6))
        .recovery(Recovery::Durable)
        .seed(seed)
        .build(CounterSpec::new());
    let client = svc.client(0);
    for i in 0..OPS {
        client
            .call(i % KEYS, &CounterOp::Inc)
            .unwrap_or_else(|e| panic!("seed {seed}: op {i} failed: {e}"));
    }
    let total = (0..KEYS)
        .map(|key| client.call(key, &CounterOp::Read).expect("read"))
        .sum();
    let snap = svc.obs_snapshot();
    let stats = svc.shutdown();
    (total, snap, stats)
}

/// [`run_seed_over`] the in-process transport.
fn run_seed(seed: u64) -> (u64, sbu_obs::Snapshot, Vec<ShardStats>) {
    run_seed_over(seed, TransportConfig::InProcess)
}

#[test]
fn durable_kill_torture_loses_no_acked_ops_across_100_seeds() {
    let mut respawns = 0u64;
    for seed in 0..SEEDS {
        let (total, snap, _) = run_seed(seed);
        assert_eq!(
            total, OPS,
            "seed {seed}: durable respawn lost acked increments"
        );
        if cfg!(feature = "obs") {
            // Durable respawns requeue the in-flight frame, so the client
            // never retransmits, let alone loses an op.
            assert_eq!(
                snap.counter("service.retry"),
                0,
                "seed {seed}: durable kills must be invisible to clients"
            );
            respawns += snap.counter("service.respawn");
        }
    }
    if cfg!(feature = "obs") {
        assert!(
            respawns >= SEEDS,
            "KillPlan::every(6) over {OPS} ops must kill at least once per \
             seed (saw {respawns} respawns across {SEEDS} seeds)"
        );
    }
}

#[test]
fn durable_kills_over_a_unix_socket_lose_no_acked_ops() {
    for seed in 0..10 {
        let path = std::env::temp_dir().join(format!(
            "sbu-supervision-{}-{seed}.sock",
            std::process::id()
        ));
        let (total, snap, _) = run_seed_over(seed, TransportConfig::Unix(path));
        assert_eq!(
            total, OPS,
            "seed {seed}: durable respawn over a socket lost acked increments"
        );
        if cfg!(feature = "obs") {
            assert!(
                snap.counter("service.respawn") > 0,
                "seed {seed}: kills must fire"
            );
            assert_eq!(
                snap.counter("service.retry"),
                0,
                "seed {seed}: durable kills must be invisible to clients"
            );
        }
    }
}

/// Render a run's observable outcome as a canonical report string: the
/// acked total, per-shard stats, and every service counter sorted by name
/// (sorting removes any registration-order sensitivity).
fn report(seed: u64) -> String {
    let (total, snap, stats) = run_seed(seed);
    let mut counters = snap.counters.clone();
    counters.sort();
    let mut out = format!("seed={seed} total={total}\n");
    for s in &stats {
        out.push_str(&format!(
            "shard={} ops={} keys={}\n",
            s.shard, s.ops, s.keys
        ));
    }
    for (name, value) in &counters {
        out.push_str(&format!("{name}={value}\n"));
    }
    out
}

#[test]
fn kill_torture_reports_are_byte_identical_at_one_worker() {
    // The single-worker analog of `--max-threads 1`: with one client and
    // one worker there is no scheduling freedom, so the whole run — kill
    // points, recovery, retries, counters — must replay exactly.
    for seed in [1u64, 17, 99] {
        assert_eq!(
            report(seed),
            report(seed),
            "seed {seed} must be deterministic"
        );
    }
}
