//! The transport seam: how encoded frames move between clients and
//! workers.
//!
//! Everything above this module — routing, dedup, retry, supervision —
//! deals in *frames*; everything below deals in *bytes in motion*. The
//! [`Transport`] trait is the cut between the two:
//!
//! ```text
//!   ServiceClient ──▶ ClientConn::send ──▶ (wire) ──▶ Inboxes ──▶ worker
//!        ▲                                                          │
//!        └── ClientConn::recv_until ◀── (wire) ◀── Transport::send_reply
//! ```
//!
//! The request inboxes are not part of any carrier: the service owns one
//! set of per-worker inboxes (queue, stop flag, high-watermark shed,
//! durable requeue) and every carrier pushes into it. Three carriers exist:
//!
//! * [`InProcess`] (here) — the original mailbox plane: its clients push
//!   straight into the inboxes, and replies travel through lock-and-
//!   condvar reply boxes standing exactly where a socket would stand.
//!   Zero syscalls, the baseline for experiment E15.
//! * `Socket` (in `socket.rs`) — a real blocking TCP or
//!   Unix-domain-socket listener: an acceptor thread plus per-connection
//!   readers that decode the stream with [`crate::FrameDecoder`] and push
//!   each frame into the inboxes.
//! * `Faulty` (in `fault.rs`) — the seeded fault injector, a *wrapper*
//!   over either carrier: it drops/duplicates/corrupts/delays/truncates
//!   frames on their way into the inner carrier, so the same fault battery
//!   runs over mailboxes and over real sockets.
//!
//! A transport is picked with [`TransportConfig`] on
//! [`crate::Service::builder`].
//!
//! Every blob an inbox or an in-process reply box holds is exactly one
//! encoded frame, and an inbox at its high watermark is answered with a
//! [`KIND_BUSY`] frame to the refused frame's client on every carrier.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::wire::{control_frame, Frame, KIND_BUSY};

/// Which transport a [`crate::Service`] is built on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// In-process mailboxes (the default): no sockets, no syscalls.
    #[default]
    InProcess,
    /// A TCP listener bound to `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral loopback port; read the bound address back with
    /// [`crate::Service::endpoint`]).
    Tcp(String),
    /// A Unix-domain-socket listener bound to the given path (a stale
    /// socket file at that path is removed first).
    Unix(PathBuf),
}

impl TransportConfig {
    /// Parse a `tcp://HOST:PORT` or `unix://PATH` endpoint string (the
    /// `--remote` syntax of `service_loadgen`).
    pub fn parse(endpoint: &str) -> Result<Self, String> {
        if let Some(addr) = endpoint.strip_prefix("tcp://") {
            if addr.is_empty() {
                return Err("tcp:// endpoint needs HOST:PORT".into());
            }
            Ok(TransportConfig::Tcp(addr.to_string()))
        } else if let Some(path) = endpoint.strip_prefix("unix://") {
            if path.is_empty() {
                return Err("unix:// endpoint needs a path".into());
            }
            Ok(TransportConfig::Unix(PathBuf::from(path)))
        } else {
            Err(format!(
                "unknown endpoint {endpoint:?}; use tcp://HOST:PORT or unix://PATH"
            ))
        }
    }
}

/// One encoded frame on its way through a transport.
///
/// `Truncated` is how a fault injector expresses a connection that died
/// mid-frame: a socket transport writes the prefix and tears the
/// connection down (the peer sees a partial frame and then EOF); the
/// in-process transport simply loses the bytes (there is no stream to
/// tear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The whole frame, intact.
    Intact(Vec<u8>),
    /// A prefix of a frame whose connection dropped mid-write.
    Truncated(Vec<u8>),
}

/// One event on a client's reply stream.
#[derive(Debug)]
pub enum ConnEvent {
    /// A complete, checksum-valid frame addressed to this client.
    Frame(Frame),
    /// A frame arrived but failed wire decoding (corrupted in flight);
    /// detected, skipped, and the stream continues.
    Garbled,
    /// Nothing arrived before the deadline.
    Timeout,
    /// The connection is gone (EOF, a poisoned stream, or a fault-injected
    /// drop). Call [`ClientConn::reconnect`] and retransmit — the server's
    /// `(client, seq)` dedup window makes the retransmission safe.
    Disconnected,
}

/// The server side of a transport: the reply path, client connections and
/// the carrier's lifetime. Requests reach the workers through the
/// service's per-worker inboxes, which every carrier pushes into.
/// Implementations must be safe to share across worker threads.
pub trait Transport: Send + Sync {
    /// Deliver an encoded reply frame toward `client`. Reply paths are
    /// never shed — clients drain what they asked for.
    fn send_reply(&self, client: u32, delivery: Delivery);

    /// Open a client connection. For socket transports the dial is lazy
    /// (established on first send), so building clients is cheap.
    fn connect(self: Arc<Self>, client: u32) -> Box<dyn ClientConn>;

    /// Stop the carrier: join any internal threads and release OS
    /// resources. Idempotent. The service stops its inboxes after this
    /// returns.
    fn shutdown(&self);

    /// The canonical endpoint string (`tcp://…` / `unix://…`) clients
    /// outside this process can dial, if the transport has one.
    fn endpoint(&self) -> Option<String> {
        None
    }
}

/// The client side of a transport: one connection's worth of send/receive.
/// A connection belongs to exactly one [`crate::ServiceClient`] and is
/// used from one thread at a time (the client serializes access).
pub trait ClientConn: Send {
    /// Send an encoded request toward the worker that owns its key. Socket
    /// transports ignore the `worker` hint — the server routes inbound
    /// frames itself. Nothing comes back here: a loss surfaces as a
    /// missing reply, a full inbox as a `Busy` reply.
    fn send(&mut self, worker: usize, delivery: Delivery);

    /// Wait for the next reply-stream event, at most until `until`. A
    /// frame the connection already holds is returned even when `until`
    /// has passed: the retry loop relies on this, so that an expired timer
    /// never retransmits a request whose reply has arrived.
    fn recv_until(&mut self, until: Instant) -> ConnEvent;

    /// Re-establish the connection after [`ConnEvent::Disconnected`].
    /// Returns whether a fresh connection is live; the caller retransmits
    /// either way (a dead server just means more `Disconnected`s).
    fn reconnect(&mut self) -> bool;
}

/// A queue of encoded frames, one per blob, with a wakeup signal and an
/// optional high watermark: one worker's inbox, or one in-process
/// client's reply box.
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Vec<u8>>>,
    ready: Condvar,
    /// Request-push high watermark; `0` = unbounded.
    capacity: usize,
}

impl Mailbox {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Push unconditionally (reply boxes).
    pub(crate) fn push(&self, bytes: Vec<u8>) {
        self.queue.lock().push_back(bytes);
        self.ready.notify_one();
    }

    /// Push a request, shedding at the high watermark: `Err` hands back a
    /// frame that was *not* queued, for the caller to answer `Busy`.
    pub(crate) fn try_push(&self, bytes: Vec<u8>) -> Result<(), Vec<u8>> {
        let mut q = self.queue.lock();
        if self.capacity > 0 && q.len() >= self.capacity {
            return Err(bytes);
        }
        q.push_back(bytes);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Requeue bytes at the front (the durable kill path).
    pub(crate) fn push_front(&self, bytes: Vec<u8>) {
        self.queue.lock().push_front(bytes);
        self.ready.notify_one();
    }

    /// Block until a blob is queued and pop it, with the number of blobs
    /// still queued behind it; `None` once `stop` is set and the queue is
    /// empty.
    pub(crate) fn recv(&self, stop: &AtomicBool) -> Option<(Vec<u8>, u64)> {
        let mut q = self.queue.lock();
        loop {
            if let Some(bytes) = q.pop_front() {
                return Some((bytes, q.len() as u64));
            }
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            self.ready.wait(&mut q);
        }
    }

    /// Pop one blob before `until`; `None` on timeout.
    pub(crate) fn pop_until(&self, until: Instant) -> Option<Vec<u8>> {
        let mut q = self.queue.lock();
        loop {
            if let Some(bytes) = q.pop_front() {
                return Some(bytes);
            }
            if self.ready.wait_until(&mut q, until).timed_out() {
                // Lost race between a notify and the timeout: recheck.
                return q.pop_front();
            }
        }
    }

    /// Wake every waiter (shutdown path).
    pub(crate) fn notify_all(&self) {
        self.ready.notify_all();
    }
}

/// The service's request plane: one inbox per worker, which every carrier
/// pushes into and only the owning worker pops.
pub(crate) struct Inboxes {
    boxes: Vec<Mailbox>,
    stop: AtomicBool,
}

impl Inboxes {
    /// One inbox per worker, each shedding past `capacity` queued frames
    /// (`0` = unbounded).
    pub(crate) fn new(workers: usize, capacity: usize) -> Self {
        Self {
            boxes: (0..workers).map(|_| Mailbox::new(capacity)).collect(),
            stop: AtomicBool::new(false),
        }
    }

    /// Number of inboxes (one per worker).
    pub(crate) fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Queue a request for `worker`, shedding at the high watermark: `Err`
    /// hands back a frame that was *not* queued, for the carrier to answer
    /// `Busy`.
    pub(crate) fn try_push(&self, worker: usize, bytes: Vec<u8>) -> Result<(), Vec<u8>> {
        self.boxes[worker].try_push(bytes)
    }

    /// Put a frame back at the *front* of `worker`'s inbox: the durable
    /// kill path restores its in-flight frame exactly where it was. No
    /// carrier sits on this path, so no fault is injected on it.
    pub(crate) fn requeue_front(&self, worker: usize, bytes: Vec<u8>) {
        self.boxes[worker].push_front(bytes);
    }

    /// Block until a frame is queued for `worker` and pop it, with the
    /// inbox depth left behind (feeds `service.queue_depth`); `None` once
    /// the inboxes are stopped and this one is empty.
    pub(crate) fn recv(&self, worker: usize) -> Option<(Vec<u8>, u64)> {
        self.boxes[worker].recv(&self.stop)
    }

    /// Stop the plane: every worker drains what is queued, then its
    /// [`recv`](Self::recv) returns `None`.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for inbox in &self.boxes {
            inbox.notify_all();
        }
    }
}

/// The in-process carrier: clients push straight into the service's
/// inboxes, and each client has a plain unbounded reply box.
pub struct InProcess {
    inboxes: Arc<Inboxes>,
    replies: Vec<Mailbox>,
}

impl InProcess {
    /// Build the reply boxes for `clients` over the service's `inboxes`.
    pub(crate) fn new(inboxes: Arc<Inboxes>, clients: usize) -> Self {
        Self {
            inboxes,
            replies: (0..clients).map(|_| Mailbox::new(0)).collect(),
        }
    }
}

impl Transport for InProcess {
    fn send_reply(&self, client: u32, delivery: Delivery) {
        match delivery {
            Delivery::Intact(bytes) => self.replies[client as usize].push(bytes),
            // No stream to truncate: the bytes are simply gone, exactly
            // like a drop (the retry layer recovers either way).
            Delivery::Truncated(_) => {}
        }
    }

    fn connect(self: Arc<Self>, client: u32) -> Box<dyn ClientConn> {
        Box::new(InProcessConn {
            transport: self,
            client,
        })
    }

    fn shutdown(&self) {
        // No threads and no OS resources: a reply wait ends at its own
        // deadline, and the inboxes belong to the service.
    }
}

/// One client's view of the in-process transport.
struct InProcessConn {
    transport: Arc<InProcess>,
    client: u32,
}

impl ClientConn for InProcessConn {
    fn send(&mut self, worker: usize, delivery: Delivery) {
        // A truncated request never reaches an inbox: a worker decodes
        // each blob as one whole frame, so a cut one is simply a loss.
        let Delivery::Intact(bytes) = delivery else {
            return;
        };
        let Err(bytes) = self.transport.inboxes.try_push(worker, bytes) else {
            return;
        };
        // Shed at the watermark: answer `Busy` to the frame's own client,
        // as the socket reader does. A refused frame that fails its
        // checksum gets no answer, as the worker would have dropped it.
        if let Ok(frame) = Frame::decode(&bytes) {
            if let Some(replies) = self.transport.replies.get(frame.client as usize) {
                replies.push(control_frame(&frame, KIND_BUSY).to_bytes());
            }
        }
    }

    fn recv_until(&mut self, until: Instant) -> ConnEvent {
        let Some(bytes) = self.transport.replies[self.client as usize].pop_until(until) else {
            return ConnEvent::Timeout;
        };
        match Frame::decode(&bytes) {
            Ok(frame) => ConnEvent::Frame(frame),
            // A corrupted blob: detected, counted upstream.
            Err(_) => ConnEvent::Garbled,
        }
    }

    fn reconnect(&mut self) -> bool {
        true // mailboxes cannot drop; nothing to re-establish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parse_understands_both_schemes_and_rejects_junk() {
        assert_eq!(
            TransportConfig::parse("tcp://127.0.0.1:9000").unwrap(),
            TransportConfig::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            TransportConfig::parse("unix:///tmp/x.sock").unwrap(),
            TransportConfig::Unix(PathBuf::from("/tmp/x.sock"))
        );
        for bad in ["tcp://", "unix://", "http://x", "127.0.0.1:9000"] {
            assert!(TransportConfig::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn bounded_mailbox_sheds_and_unbounded_does_not() {
        let bounded = Mailbox::new(2);
        assert_eq!(bounded.try_push(vec![1]), Ok(()));
        assert_eq!(bounded.try_push(vec![2]), Ok(()));
        assert_eq!(bounded.try_push(vec![3]), Err(vec![3]), "watermark at 2");
        let unbounded = Mailbox::new(0);
        for i in 0..100u8 {
            assert_eq!(unbounded.try_push(vec![i]), Ok(()));
        }
    }

    #[test]
    fn recv_takes_one_blob_and_reports_depth() {
        let mbox = Mailbox::new(0);
        for i in 0..5u8 {
            mbox.push(vec![i]);
        }
        let stop = AtomicBool::new(false);
        assert_eq!(mbox.recv(&stop), Some((vec![0], 4)));
    }

    #[test]
    fn stopped_inboxes_drain_then_return_none() {
        let inboxes = Inboxes::new(2, 0);
        inboxes.try_push(1, vec![7]).unwrap();
        inboxes.stop();
        assert_eq!(inboxes.recv(1), Some((vec![7], 0)), "queued frames drain");
        assert_eq!(inboxes.recv(1), None);
        assert_eq!(inboxes.recv(0), None);
    }

    #[test]
    fn pop_until_times_out_cleanly() {
        let mbox = Mailbox::new(0);
        let t0 = Instant::now();
        assert!(mbox
            .pop_until(Instant::now() + Duration::from_millis(20))
            .is_none());
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn requeue_front_goes_ahead_of_queued_frames() {
        // Past the watermark too: a requeued frame is never shed.
        let inboxes = Inboxes::new(1, 1);
        inboxes.try_push(0, vec![2]).unwrap();
        inboxes.requeue_front(0, vec![1]);
        assert_eq!(inboxes.recv(0), Some((vec![1], 1)));
        assert_eq!(inboxes.recv(0), Some((vec![2], 0)));
    }
}
