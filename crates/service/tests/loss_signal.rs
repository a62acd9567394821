//! The client's FIFO loss signal, pinned end to end.
//!
//! A client's requests to one worker are applied and answered in the order
//! they were sent, so a reply from that worker to a later request proves
//! that an older request sent once (or its reply) was lost. These tests set
//! the retransmission timer's floor to 5 s, far beyond their 1 s budget, so
//! only that signal can recover a loss in time:
//!
//! * one worker, 4 requests in flight, a seeded fault plane that drops one
//!   request with a later request behind it: every `wait` returns quickly,
//!   after exactly one retransmission;
//! * no fault plane, 16 requests in flight over 2 workers: replies arrive
//!   interleaved across workers, and none of that reads as a loss.
//!
//! Both run in-process and over a Unix-domain socket.

use sbu_service::{
    request_frame, response_frame, Admission, FaultProfile, FaultyChannel, InjectObs, RetryPolicy,
    Service, TransportConfig,
};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const IN_FLIGHT: usize = 4;
const BUDGET: Duration = Duration::from_secs(1);

/// A timer that cannot fire within [`BUDGET`]: a 5 s floor, which is
/// above the timer's backoff ceiling and so pins it there.
fn slow_timer() -> RetryPolicy {
    RetryPolicy::lossy().with_attempt_timeout(Duration::from_secs(5))
}

fn drop_only() -> FaultProfile {
    FaultProfile {
        drop: 0.25,
        ..FaultProfile::none()
    }
}

fn scratch_socket(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sbu-loss-signal-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Which of the first `n` requests (replies, with `response`) a fault lane
/// delivers, replayed offline through the same seeded channel the service
/// builds for `lane`.
fn delivered(seed: u64, lane: usize, n: usize, response: bool) -> Vec<bool> {
    let registry = sbu_obs::Registry::new(lane + 1);
    let inject = InjectObs::register(&registry);
    let mut chan = FaultyChannel::new(drop_only(), seed, lane);
    (0..n as u64)
        .map(|seq| {
            let req = request_frame::<CounterSpec>(0, seq, seq, &CounterOp::Inc);
            let frame = if response {
                response_frame::<CounterSpec>(&req, &1)
            } else {
                req
            };
            matches!(chan.admit(frame.to_bytes(), &inject), Admission::Delivered(f) if !f.is_empty())
        })
        .collect()
}

/// The first seed under which, with one worker (request lane 0) and one
/// client (reply lane 1), exactly one of the first three requests is
/// dropped and everything else — the fourth request, the retransmission,
/// and all four replies — gets through.
fn one_drop_with_a_successor() -> (u64, usize) {
    (0..10_000)
        .find_map(|seed| {
            let requests = delivered(seed, 0, IN_FLIGHT + 1, false);
            let lost: Vec<usize> = (0..IN_FLIGHT).filter(|&i| !requests[i]).collect();
            let clean =
                requests[IN_FLIGHT] && delivered(seed, 1, IN_FLIGHT, true).iter().all(|&d| d);
            (clean && lost.len() == 1 && lost[0] < IN_FLIGHT - 1).then(|| (seed, lost[0]))
        })
        .expect("some seed drops exactly one request with a successor")
}

/// Submit `n` increments on keys `0..n`, then wait on each in order; every
/// wait must beat [`BUDGET`]. Returns the replies.
fn pipeline(svc: &Service<CounterSpec>, n: u64) -> Vec<u64> {
    let client = svc.client(0);
    let pending: Vec<_> = (0..n)
        .map(|key| client.submit(key, &CounterOp::Inc))
        .collect();
    pending
        .into_iter()
        .map(|p| {
            let seq = p.seq();
            let start = Instant::now();
            let reply = p
                .wait(start + Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("seq {seq}: {e}"));
            let took = start.elapsed();
            assert!(took < BUDGET, "seq {seq} waited {took:?}");
            reply
        })
        .collect()
}

fn one_lost_request_costs_one_retransmission(transport: TransportConfig) {
    let (seed, lost) = one_drop_with_a_successor();
    let mut svc = Service::builder(1)
        .workers(1)
        .clients(1)
        .transport(transport)
        .fault(drop_only())
        .retry(slow_timer())
        .seed(seed)
        .build(CounterSpec::new());
    let replies = pipeline(&svc, IN_FLIGHT as u64);
    assert_eq!(replies, vec![1; IN_FLIGHT], "each key counted once");
    let snap = svc.obs_snapshot();
    svc.shutdown();
    if cfg!(feature = "obs") {
        assert_eq!(
            snap.counter("service.inject.drop"),
            1,
            "request {lost} only"
        );
        assert_eq!(snap.counter("service.retry"), 1);
    }
}

fn interleaved_workers_prove_no_loss(transport: TransportConfig) {
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(1)
        .transport(transport)
        .retry(slow_timer())
        .build(CounterSpec::new());
    let replies = pipeline(&svc, 16);
    assert_eq!(replies, vec![1; 16]);
    let snap = svc.obs_snapshot();
    svc.shutdown();
    if cfg!(feature = "obs") {
        assert_eq!(snap.counter("service.retry"), 0, "no loss, no retransmit");
    }
}

#[test]
fn in_process_loss_is_recovered_by_the_next_reply() {
    one_lost_request_costs_one_retransmission(TransportConfig::InProcess);
}

#[test]
fn unix_socket_loss_is_recovered_by_the_next_reply() {
    let path = scratch_socket("drop");
    one_lost_request_costs_one_retransmission(TransportConfig::Unix(path.clone()));
    let _ = std::fs::remove_file(path);
}

#[test]
fn in_process_cross_worker_order_is_not_a_loss() {
    interleaved_workers_prove_no_loss(TransportConfig::InProcess);
}

#[test]
fn unix_socket_cross_worker_order_is_not_a_loss() {
    let path = scratch_socket("clean");
    interleaved_workers_prove_no_loss(TransportConfig::Unix(path.clone()));
    let _ = std::fs::remove_file(path);
}
