//! The socket transport end to end: TCP and Unix-domain loopback through
//! the real kernel, the per-connection blast radius of a poisoned byte
//! stream, well-framed frames a worker cannot serve, determinism of
//! socket-backed load reports, the cross-client misrouting regressions (a
//! fault plane carrying one client's frames over another client's stream,
//! and two streams claiming one client id), and a held reply winning over
//! an expired deadline.

use sbu_service::loadgen::{self, LoadgenConfig};
use sbu_service::{
    request_frame, response_frame, ClientConn, ConnEvent, Delivery, FaultProfile, Frame,
    FrameDecoder, RetryPolicy, Service, SocketConn, TransportConfig, WireCodec, KIND_RESPONSE,
};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A scratch Unix-socket path unique across the test binary's threads.
fn scratch_socket(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sbu-socket-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A raw Unix-socket peer that speaks the wire protocol by hand.
struct Peer {
    stream: UnixStream,
    dec: FrameDecoder,
}

impl Peer {
    fn dial(path: &Path) -> Self {
        let stream = UnixStream::connect(path).expect("dial");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        Self {
            stream,
            dec: FrameDecoder::new(),
        }
    }

    fn send(&mut self, frame: &Frame) {
        self.stream
            .write_all(&frame.to_bytes())
            .expect("write frame");
    }

    /// The next frame on the stream, or `None` if none comes within 5 s.
    fn recv(&mut self) -> Option<Frame> {
        let mut buf = [0u8; 256];
        loop {
            if let Some(frame) = self.dec.next_frame().expect("a clean reply stream") {
                return Some(frame);
            }
            match self.stream.read(&mut buf) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.dec.push(&buf[..n]),
            }
        }
    }
}

#[test]
fn tcp_loopback_end_to_end() {
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(3)
        .transport(TransportConfig::Tcp("127.0.0.1:0".into()))
        .build(CounterSpec::new());
    let endpoint = svc.endpoint().expect("socket transport").to_string();
    assert!(endpoint.starts_with("tcp://127.0.0.1:"), "{endpoint}");
    std::thread::scope(|scope| {
        for client in 0..3 {
            let svc = &svc;
            scope.spawn(move || {
                for i in 0..50u64 {
                    svc.client(client)
                        .call(i % 8, &CounterOp::Inc)
                        .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                }
            });
        }
    });
    let total: u64 = (0..8)
        .map(|key| svc.client(0).call(key, &CounterOp::Read).expect("read"))
        .sum();
    assert_eq!(total, 150, "every increment over TCP applied exactly once");
    let snap = svc.obs_snapshot();
    svc.shutdown();
    if cfg!(feature = "obs") {
        assert_eq!(snap.counter("service.accept"), 3, "one accept per client");
        assert!(snap.counter("service.read_syscall") > 0);
        assert_eq!(snap.counter("service.conn_drop"), 0);
    }
}

#[test]
fn garbage_bytes_kill_only_their_connection() {
    let path = scratch_socket("garbage");
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(2)
        .transport(TransportConfig::Unix(path.clone()))
        .build(CounterSpec::new());
    // Warm a healthy connection first so its reader is live while the
    // hostile stream dies next to it.
    assert_eq!(svc.client(0).call(3, &CounterOp::Inc).expect("inc"), 1);

    // A hostile peer: an impossible length prefix (far beyond
    // MAX_FRAME_LEN) poisons the rest of the stream — the typed close must
    // take down this connection only, never a worker.
    let mut hostile = std::os::unix::net::UnixStream::connect(&path).expect("dial");
    hostile
        .write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0xAA, 0xBB, 0xCC])
        .expect("write garbage");
    // The server closes the connection; observe it as EOF on our end.
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    let got = std::io::Read::read(&mut hostile, &mut buf).expect("peer shutdown, not hang");
    assert_eq!(got, 0, "poisoned connection must be closed, not answered");

    // Both real clients still get service: the workers never saw the
    // garbage and the healthy connections keep their writer slots.
    assert_eq!(svc.client(0).call(3, &CounterOp::Inc).expect("inc"), 2);
    assert_eq!(svc.client(1).call(9, &CounterOp::Inc).expect("inc"), 1);
    let snap = svc.obs_snapshot();
    svc.shutdown();
    let _ = std::fs::remove_file(&path);
    if cfg!(feature = "obs") {
        assert_eq!(
            snap.counter("service.conn_drop"),
            1,
            "exactly the hostile connection dropped"
        );
    }
}

#[test]
fn frames_a_worker_cannot_serve_never_kill_it() {
    // Three well-framed frames from a raw peer, to each worker: a kind
    // other than a request, an op the spec cannot decode, and a request
    // from a client id the service never built, under a fault profile
    // (which keeps reply lanes only for the clients it built). The worker
    // drops the first two and serves the third, whose reply passes the
    // fault plane undamaged; the service's own clients keep being served.
    let path = scratch_socket("unservable");
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(2)
        .transport(TransportConfig::Unix(path.clone()))
        .fault(FaultProfile::lossy())
        .retry(RetryPolicy::lossy().with_deadline(Duration::from_secs(10)))
        .build(CounterSpec::new());
    let map = svc.shard_map();
    let keys: Vec<u64> = (0..2)
        .map(|w| (0..).find(|&k| map.shard_of(k) % 2 == w).expect("a key"))
        .collect();
    let mut peer = Peer::dial(&path);
    for (at, &key) in keys.iter().enumerate() {
        let seq = 3 * at as u64;
        let request = request_frame::<CounterSpec>(99, seq + 2, key, &CounterOp::Inc);
        peer.send(&Frame {
            kind: KIND_RESPONSE,
            seq,
            ..request.clone()
        });
        peer.send(&Frame {
            seq: seq + 1,
            payload: vec![0xFF],
            ..request.clone()
        });
        peer.send(&request);
        let reply = peer.recv().expect("worker alive, reply undamaged");
        assert_eq!(
            (reply.kind, reply.client, reply.seq),
            (KIND_RESPONSE, 99, seq + 2)
        );
        assert_eq!(CounterSpec::decode_resp(&reply.payload), Ok(1));
    }
    for &key in &keys {
        for client in 0..2 {
            svc.client(client)
                .call(key, &CounterOp::Inc)
                .unwrap_or_else(|e| panic!("client {client} key {key}: {e}"));
        }
    }
    svc.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_client_id_claimed_by_two_streams_is_answered_on_its_owners() {
    // Two streams claim client 7 in turn. The writer claim must be checked
    // against the shared map on every frame: a per-connection "already
    // registered" cache would answer the owner's next request on the
    // other stream.
    let path = scratch_socket("claim");
    let mut svc = Service::builder(1)
        .transport(TransportConfig::Unix(path.clone()))
        .build(CounterSpec::new());
    let request = |seq| request_frame::<CounterSpec>(7, seq, 1, &CounterOp::Inc);
    let (mut owner, mut other) = (Peer::dial(&path), Peer::dial(&path));
    owner.send(&request(0));
    assert_eq!(owner.recv().map(|f| f.seq), Some(0));
    other.send(&request(100));
    assert_eq!(other.recv().map(|f| f.seq), Some(100));
    owner.send(&request(1));
    assert_eq!(
        owner.recv().map(|f| f.seq),
        Some(1),
        "the owner's request is answered on its own stream"
    );
    svc.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn loopback_reports_are_deterministic() {
    // Two same-seed runs over real kernel sockets: wall-clock and syscall
    // counts differ run to run, but every data-derived report field is a
    // pure function of the seed.
    let run = |tag: &str| {
        let path = scratch_socket(tag);
        let config = LoadgenConfig {
            clients: 3,
            shards: 4,
            workers: 2,
            ops_per_client: 120,
            keys: 64,
            transport: TransportConfig::Unix(path.clone()),
            seed: 11,
            timing: false,
            ..Default::default()
        };
        let report = loadgen::run(&config, CounterSpec::new(), |rng| {
            use rand::Rng;
            if rng.gen_bool(0.25) {
                CounterOp::Read
            } else {
                CounterOp::Inc
            }
        });
        let _ = std::fs::remove_file(&path);
        report
    };
    let (a, b) = (run("det-a"), run("det-b"));
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.acked, b.acked);
    assert_eq!((a.failures, a.busy_failures), (b.failures, b.busy_failures));
    assert_eq!(a.shards, b.shards, "per-shard op/key splits must match");
    assert_eq!(a.imbalance, b.imbalance);
    assert_eq!(a.elapsed_secs, 0.0, "timing off reports no wall-clock");
}

#[test]
fn reordering_across_clients_keeps_replies_exact() {
    // Regression soak: the fault plane's shared per-worker request lanes
    // can release a frame delayed from client A into client B's stream.
    // The server must let A's retransmits reclaim A's writer slot (not
    // cache the claim per connection), and B must never ack its own op
    // with A's same-seq reply. Before those fixes this config wedged, then
    // miscounted. It depends on socket timing; the deterministic guards
    // are `a_client_id_claimed_by_two_streams_is_answered_on_its_owners`
    // here and the client's own foreign-reply test.
    let profile = FaultProfile {
        drop: 0.10,
        duplicate: 0.10,
        corrupt: 0.10,
        delay: 0.05,
        disconnect: 0.0,
        lie: 0.0,
    };
    let path = scratch_socket("reorder");
    let mut svc = Service::builder(4)
        .workers(2)
        .clients(3)
        .transport(TransportConfig::Unix(path.clone()))
        .fault(profile)
        .retry(RetryPolicy::lossy().with_deadline(std::time::Duration::from_secs(60)))
        .seed(3602)
        .build(CounterSpec::new());
    std::thread::scope(|scope| {
        for client in 0..3 {
            let svc = &svc;
            scope.spawn(move || {
                for i in 0..80u64 {
                    svc.client(client)
                        .call(i % 16, &CounterOp::Inc)
                        .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                }
            });
        }
    });
    let total: u64 = (0..16)
        .map(|key| svc.client(0).call(key, &CounterOp::Read).expect("read"))
        .sum();
    svc.shutdown();
    let _ = std::fs::remove_file(&path);
    assert_eq!(total, 240, "cross-client reordering must stay exactly-once");
}

#[test]
fn a_held_reply_beats_an_expired_deadline() {
    // The retry loop asks for the next frame with an already-expired
    // deadline when its timer has run out. A reply sitting in the socket
    // buffer must still come back, or the client would retransmit a
    // request that was answered.
    let path = scratch_socket("held");
    let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind");
    let mut conn = SocketConn::dial(format!("unix://{}", path.display()));
    let req = request_frame::<CounterSpec>(0, 7, 1, &CounterOp::Inc);
    conn.send(0, Delivery::Intact(req.to_bytes())); // dials
    let (mut server, _) = listener.accept().expect("accept");
    let reply = response_frame::<CounterSpec>(&req, &1).to_bytes();
    // A Unix stream write lands in the peer's receive queue before it
    // returns, so the reply is held by the time the client looks.
    server.write_all(&reply).expect("write reply");
    match conn.recv_until(Instant::now()) {
        ConnEvent::Frame(frame) => assert_eq!((frame.seq, frame.key), (7, 1)),
        other => panic!("a held reply lost to the deadline: {other:?}"),
    }
    let start = Instant::now();
    assert!(matches!(conn.recv_until(start), ConnEvent::Timeout));
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "nothing held: no wait"
    );
    let _ = std::fs::remove_file(&path);
}
