//! The byte plane: how requests and replies move between clients and
//! workers.
//!
//! Everything above this module — routing, dedup, retry, supervision —
//! deals in *frames*; everything below deals in *bytes in motion*:
//!
//! ```text
//!   ServiceClient ──▶ ClientConn::send ──▶ (wire) ──▶ decode ──▶ Inboxes ──▶ worker
//!        ▲                                                                  │
//!        └── ClientConn::recv_until ◀── (wire) ◀── send_reply the way the request came
//! ```
//!
//! The request inboxes are not part of any carrier: the service owns one
//! set of per-worker inboxes (queue, stop flag, high-watermark shed,
//! durable requeue) and every carrier pushes into it. Two carriers exist:
//!
//! * in process (here) — the original mailbox plane: each client's
//!   connection pushes straight into the inboxes, and replies travel
//!   through lock-and-condvar reply boxes standing exactly where a socket
//!   would stand. Zero syscalls, the baseline for experiment E15.
//! * a socket (in `socket.rs`) — a real blocking TCP or
//!   Unix-domain-socket listener: an acceptor thread plus per-connection
//!   readers that decode the stream with [`crate::FrameDecoder`] and push
//!   each frame into the inboxes; clients dial it with
//!   [`crate::SocketConn`].
//!
//! A transport is picked with [`TransportConfig`] on
//! [`crate::Service::builder`]. Under a [`crate::FaultProfile`] the seeded
//! fault injector (`fault.rs`) damages requests in a connection wrapped
//! around either carrier's, and replies in `send_reply` before the carrier
//! writes them, so the same fault battery runs over mailboxes and over
//! real sockets.
//!
//! Each carrier decodes a request once, where it arrives: the socket
//! reader as it reassembles the stream, the in-process send in the
//! worker's place, so a request that fails its checksum never reaches an
//! inbox. An inbox entry is the decoded frame plus its way back, and
//! `send_reply` is the one function that reads it. Over a socket that is
//! the stream the frame was read from, and the reply is written on it; in
//! process it is nothing, and the reply goes to the frame's client's reply
//! box. An inbox at its high watermark is answered with a
//! [`KIND_BUSY`](crate::KIND_BUSY) frame to the refused frame's client on
//! every carrier, past the fault plane. Every blob an in-process reply box
//! holds is exactly one encoded frame.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::fault::Faulty;
use crate::socket::Stream;
use crate::wire::{busy_frame, Frame};

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

/// One request in a worker's inbox: the frame, decoded once where it
/// arrived, and the way back for its reply.
pub(crate) struct Request {
    pub(crate) frame: Frame,
    /// The socket stream the frame was read from, which its reply goes
    /// back on. In process there is none: the reply goes to
    /// `frame.client`'s reply box.
    pub(crate) stream: Option<Arc<Stream>>,
}

/// Send the encoded `reply` to `request` back the way the request came:
/// on the socket stream it was read from, or, in process, into its frame's
/// client's reply box in `boxes`. Under a fault profile the reply first
/// passes that client's reply lane in `faults`, and what the lane lets
/// through goes out, in order. Reply paths are never shed — clients drain
/// what they asked for.
pub(crate) fn send_reply(
    request: &Request,
    reply: Vec<u8>,
    boxes: &[Mailbox<Vec<u8>>],
    faults: Option<&Faulty>,
) {
    let client = request.frame.client;
    let deliver = |delivery| match (&request.stream, delivery) {
        (Some(stream), delivery) => stream.send(delivery),
        (None, Delivery::Intact(bytes)) => {
            if let Some(reply_box) = boxes.get(client as usize) {
                reply_box.push(bytes);
            }
        }
        // No stream to truncate: the bytes are simply gone, exactly like a
        // drop (the retry layer recovers either way).
        (None, Delivery::Truncated(_)) => {}
    };
    match faults {
        Some(faults) => faults.admit_reply(client, reply, deliver),
        None => deliver(Delivery::Intact(reply)),
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

/// A queue with a wakeup signal and an optional high watermark: one
/// worker's inbox of requests, or one in-process client's reply box of
/// encoded frames.
pub(crate) struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    /// Request-push high watermark; `0` = unbounded.
    capacity: usize,
}

impl<T> Mailbox<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Push unconditionally (reply boxes).
    pub(crate) fn push(&self, item: T) {
        self.queue.lock().push_back(item);
        self.ready.notify_one();
    }

    /// Push a request, shedding at the high watermark: `Err` hands back an
    /// item that was *not* queued, for the caller to answer `Busy`.
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = self.queue.lock();
        if self.capacity > 0 && q.len() >= self.capacity {
            return Err(item);
        }
        q.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Requeue an item at the front (the durable kill path).
    pub(crate) fn push_front(&self, item: T) {
        self.queue.lock().push_front(item);
        self.ready.notify_one();
    }

    /// Block until an item is queued and pop it, with the number of items
    /// still queued behind it; `None` once `stop` is set and the queue is
    /// empty.
    pub(crate) fn recv(&self, stop: &AtomicBool) -> Option<(T, u64)> {
        let mut q = self.queue.lock();
        loop {
            if let Some(item) = q.pop_front() {
                return Some((item, q.len() as u64));
            }
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            self.ready.wait(&mut q);
        }
    }

    /// Pop one item before `until`; `None` on timeout.
    pub(crate) fn pop_until(&self, until: Instant) -> Option<T> {
        let mut q = self.queue.lock();
        loop {
            if let Some(item) = q.pop_front() {
                return Some(item);
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
    boxes: Vec<Mailbox<Request>>,
    stop: AtomicBool,
}

impl Inboxes {
    /// One inbox per worker, each shedding past `capacity` queued requests
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
    /// hands back a request that was *not* queued, for the carrier to
    /// answer `Busy`.
    pub(crate) fn try_push(&self, worker: usize, request: Request) -> Result<(), Request> {
        self.boxes[worker].try_push(request)
    }

    /// Put a request back at the *front* of `worker`'s inbox: the durable
    /// kill path restores its in-flight request exactly where it was. No
    /// carrier sits on this path, so no fault is injected on it.
    pub(crate) fn requeue_front(&self, worker: usize, request: Request) {
        self.boxes[worker].push_front(request);
    }

    /// Block until a request is queued for `worker` and pop it, with the
    /// inbox depth left behind (feeds `service.queue_depth`); `None` once
    /// the inboxes are stopped and this one is empty.
    pub(crate) fn recv(&self, worker: usize) -> Option<(Request, u64)> {
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

/// One client's in-process connection: its requests go straight into the
/// service's inboxes, and its replies come out of its own reply box.
pub(crate) struct InProcessConn {
    client: u32,
    inboxes: Arc<Inboxes>,
    /// Every in-process client's reply box, indexed by client id.
    boxes: Arc<[Mailbox<Vec<u8>>]>,
}

impl InProcessConn {
    /// Client `client`'s connection into `inboxes`, replied to in `boxes`.
    pub(crate) fn new(
        client: u32,
        inboxes: &Arc<Inboxes>,
        boxes: &Arc<[Mailbox<Vec<u8>>]>,
    ) -> Self {
        Self {
            client,
            inboxes: Arc::clone(inboxes),
            boxes: Arc::clone(boxes),
        }
    }
}

impl ClientConn for InProcessConn {
    fn send(&mut self, worker: usize, delivery: Delivery) {
        // The request is decoded here, in the worker's place. A truncated
        // or corrupt one never reaches an inbox: it is simply a loss.
        let Delivery::Intact(bytes) = delivery else {
            return;
        };
        let Ok(frame) = Frame::decode(&bytes) else {
            return;
        };
        let request = Request {
            frame,
            stream: None,
        };
        let Err(refused) = self.inboxes.try_push(worker, request) else {
            return;
        };
        // Shed at the watermark: answer `Busy` to the frame's own client,
        // past the fault plane, as the socket reader does.
        let busy = busy_frame(&refused.frame).to_bytes();
        send_reply(&refused, busy, &self.boxes, None);
    }

    fn recv_until(&mut self, until: Instant) -> ConnEvent {
        let Some(bytes) = self.boxes[self.client as usize].pop_until(until) else {
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
    use crate::wire::request_frame;
    use sbu_spec::specs::{CounterOp, CounterSpec};
    use std::time::Duration;

    /// An in-process request with sequence number `seq`.
    fn request(seq: u64) -> Request {
        Request {
            frame: request_frame::<CounterSpec>(0, seq, 0, &CounterOp::Inc),
            stream: None,
        }
    }

    /// The sequence number and depth [`Inboxes::recv`] reports.
    fn recv_seq(inboxes: &Inboxes, worker: usize) -> Option<(u64, u64)> {
        inboxes
            .recv(worker)
            .map(|(request, depth)| (request.frame.seq, depth))
    }

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
        assert!(inboxes.try_push(1, request(7)).is_ok());
        inboxes.stop();
        assert_eq!(recv_seq(&inboxes, 1), Some((7, 0)), "queued frames drain");
        assert_eq!(recv_seq(&inboxes, 1), None);
        assert_eq!(recv_seq(&inboxes, 0), None);
    }

    #[test]
    fn pop_until_times_out_cleanly() {
        let mbox = Mailbox::<Vec<u8>>::new(0);
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
        assert!(inboxes.try_push(0, request(2)).is_ok());
        inboxes.requeue_front(0, request(1));
        assert_eq!(recv_seq(&inboxes, 0), Some((1, 1)));
        assert_eq!(recv_seq(&inboxes, 0), Some((2, 0)));
    }
}
