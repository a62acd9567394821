//! The client's FIFO loss signal, pinned end to end.
//!
//! A client's requests to one worker are applied and answered in the order
//! they were sent, so a reply from that worker to a later request proves
//! that an older request sent once (or its reply) was lost. These tests
//! run under two policies whose timers cannot fire within their 500 ms
//! budget, so only that signal can recover a loss in time: a 5 s timer
//! floor, and the default policy (a 1 s floor, never jittered below
//! 750 ms), which every client that sets no policy runs:
//!
//! * one worker, 4 requests in flight, a seeded fault plane that drops one
//!   request with a later request behind it: every `wait` returns quickly,
//!   after exactly one retransmission;
//! * no fault plane, 16 requests in flight over 2 workers: replies arrive
//!   interleaved across workers, and none of that reads as a loss.
//!
//! Both run in-process and over a Unix-domain socket. A last test pins the
//! other half over a socket: in a closed loop, where no later request can
//! prove a loss, a 1 ms timer recovers it in about 1 ms, not at the
//! kernel's next tick.

use sbu_service::{
    request_frame, response_frame, Admission, FaultProfile, FaultyChannel, InjectObs, RetryPolicy,
    Service, TransportConfig,
};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const IN_FLIGHT: usize = 4;
const BUDGET: Duration = Duration::from_millis(500);

/// Policies whose timers cannot fire within [`BUDGET`]: a 5 s floor, and
/// the default's 1 s floor. Both are above the timer's backoff ceiling
/// and so pin it there.
fn slow_timers() -> [RetryPolicy; 2] {
    [
        RetryPolicy::lossy().with_attempt_timeout(Duration::from_secs(5)),
        RetryPolicy::default(),
    ]
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

/// The first seed under which, with one worker (request lane 0) and one
/// client (reply lane 1), the plane delivers the first request, drops the
/// second and delivers its retransmission, and delivers both replies.
fn second_request_dropped() -> u64 {
    (0..10_000)
        .find(|&seed| {
            delivered(seed, 0, 3, false) == [true, false, true]
                && delivered(seed, 1, 2, true) == [true, true]
        })
        .expect("some seed drops the second request only")
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

fn one_lost_request_costs_one_retransmission(transport: TransportConfig, retry: RetryPolicy) {
    let (seed, lost) = one_drop_with_a_successor();
    let mut svc = Service::builder(1)
        .workers(1)
        .clients(1)
        .transport(transport)
        .fault(drop_only())
        .retry(retry)
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

fn interleaved_workers_prove_no_loss(transport: TransportConfig, retry: RetryPolicy) {
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(1)
        .transport(transport)
        .retry(retry)
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
    for retry in slow_timers() {
        one_lost_request_costs_one_retransmission(TransportConfig::InProcess, retry);
    }
}

#[test]
fn unix_socket_loss_is_recovered_by_the_next_reply() {
    for retry in slow_timers() {
        let path = scratch_socket("drop");
        one_lost_request_costs_one_retransmission(TransportConfig::Unix(path.clone()), retry);
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn in_process_cross_worker_order_is_not_a_loss() {
    for retry in slow_timers() {
        interleaved_workers_prove_no_loss(TransportConfig::InProcess, retry);
    }
}

#[test]
fn unix_socket_cross_worker_order_is_not_a_loss() {
    for retry in slow_timers() {
        let path = scratch_socket("clean");
        interleaved_workers_prove_no_loss(TransportConfig::Unix(path.clone()), retry);
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn unix_socket_closed_loop_loss_costs_one_timer() {
    // Nothing is in flight behind the lost request, so only the timer can
    // recover it, and over a socket it must fire when it should, not at
    // the kernel's next tick (a median 8 ms at 250 Hz).
    let path = scratch_socket("timer");
    let mut svc = Service::builder(1)
        .workers(1)
        .clients(1)
        .transport(TransportConfig::Unix(path.clone()))
        .fault(drop_only())
        .retry(RetryPolicy::lossy().with_attempt_timeout(Duration::from_millis(1)))
        .seed(second_request_dropped())
        .build(CounterSpec::new());
    let client = svc.client(0);
    // Dial first and give the acceptor, which polls every 2 ms, time to
    // take the connection, so the timed call pays for its loss alone. The
    // call parks the warm-up's reply; it is claimed (and sampled) after.
    let warm = client.submit(1, &CounterOp::Read);
    std::thread::sleep(Duration::from_millis(20));
    let start = Instant::now();
    assert_eq!(client.call(0, &CounterOp::Inc).expect("inc"), 1);
    let took = start.elapsed();
    assert_eq!(warm.wait(Instant::now() + BUDGET).expect("warm-up"), 0);
    let snap = svc.obs_snapshot();
    svc.shutdown();
    let _ = std::fs::remove_file(path);
    assert!(took < Duration::from_millis(4), "one loss cost {took:?}");
    if cfg!(feature = "obs") {
        assert_eq!(snap.counter("service.inject.drop"), 1);
        assert_eq!(
            snap.counter("service.retry"),
            1,
            "one timer, one retransmission"
        );
    }
}
