//! The socket transport: a real blocking TCP or Unix-domain-socket
//! listener, and the client connection that dials it.
//!
//! Server shape: one acceptor thread polls a non-blocking listener; each
//! accepted connection gets a reader thread that feeds the stream through
//! a [`FrameDecoder`] and routes each complete frame, decoded once, into
//! the service's per-worker inboxes, the same ones in-process clients push
//! into — the worker/shard loop never learns whether its requests arrived
//! over a mailbox or a socket. Each inbox entry carries the stream it was
//! read from, and the service's reply path writes its reply back on that
//! stream, so no registry maps client ids to streams. The service holds
//! the `Socket` only for its endpoint and to shut it down. A reader blocks
//! in `read(2)` until bytes or EOF arrive; the acceptor keeps each live
//! reader's stream and shuts it down at stop, which ends that read. The
//! acceptor lets go of each reader thread once it has exited, so
//! reconnects do not pile up finished threads.
//!
//! Failure containment: a [`WireError::BadLength`] on a live stream kills
//! *only that connection* (typed close, counted as `service.conn_drop`);
//! the worker survives and keeps serving every other connection. Readers
//! forward only complete frames, so a worker never sees a partial one; a
//! well-framed frame it cannot serve (not a request, an undecodable op) it
//! drops unanswered.
//!
//! Instruments (lane `workers + clients`, single-writer via a mutex that
//! only an `obs` build takes): `service.accept`, `service.conn_drop`,
//! `service.read_syscall`, `service.partial_frame`.

use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sbu_obs::Counter;

use crate::route::ShardMap;
use crate::transport::{ClientConn, ConnEvent, Delivery, Inboxes, Request};
use crate::wire::{busy_frame, FrameDecoder};

/// How much later than asked a `read` under `SO_RCVTIMEO` may return. The
/// kernel wakes the read on a scheduler tick: at 250 Hz, 20 reads per
/// setting on an idle Unix socket blocked a median 8 ms for every timeout
/// up to 4 ms, 12 ms for 5–8 ms and 16 ms for 10 ms, up to two ticks past
/// the timeout. A client wait blocks only until a granule before its
/// deadline and polls the rest.
const RCVTIMEO_GRANULE: Duration = Duration::from_millis(10);
/// How long the acceptor sleeps between polls of the non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// One accepted or dialed stream, TCP or Unix — the handful of methods the
/// transport needs, matched over both. Reads and writes go through a shared
/// reference (`&TcpStream` and `&UnixStream` are `Read` and `Write`), so an
/// accepted stream is read by its reader and written by the workers without
/// a lock around the reads.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn read(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&mut &*s).read(buf),
            Conn::Unix(s) => (&mut &*s).read(buf),
        }
    }

    fn write(&self, bytes: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&mut &*s).write(bytes),
            Conn::Unix(s) => (&mut &*s).write(bytes),
        }
    }

    fn write_all(&self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => (&mut &*s).write_all(bytes),
            Conn::Unix(s) => (&mut &*s).write_all(bytes),
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(on),
            Conn::Unix(s) => s.set_nonblocking(on),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

/// One accepted stream, shared by the reader that reads requests off it,
/// the workers that write their replies back on it, and the acceptor that
/// shuts it down at stop.
pub(crate) struct Stream {
    conn: Conn,
    /// Held across each write, so replies from several workers go out as
    /// whole frames.
    writing: Mutex<()>,
}

impl Stream {
    /// Write one reply whole. A truncated one is a fault-injected
    /// mid-write crash: the peer sees the prefix, then EOF. A failed write
    /// means the peer is gone, and its reader ends at the same close; the
    /// client's retransmission goes out on a fresh connection.
    pub(crate) fn send(&self, delivery: Delivery) {
        let _whole = self.writing.lock();
        match delivery {
            Delivery::Intact(bytes) => {
                let _ = self.conn.write_all(&bytes);
            }
            Delivery::Truncated(prefix) => {
                let _ = self.conn.write_all(&prefix);
                self.conn.shutdown_both();
            }
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }
}

/// The socket-plane counters, recorded on a dedicated obs lane owned by
/// whichever acceptor/reader thread holds the guard mutex at that moment.
pub(crate) struct SocketObs {
    accept: Counter,
    conn_drop: Counter,
    read_syscall: Counter,
    partial_frame: Counter,
    /// The transport lane (`workers + clients`).
    lane: usize,
    /// Serializes lane writes across acceptor + reader threads (the lanes
    /// are single-writer by contract; the socket plane has many threads).
    /// Taken only when instruments record.
    guard: Mutex<()>,
}

impl SocketObs {
    pub(crate) fn new(
        accept: Counter,
        conn_drop: Counter,
        read_syscall: Counter,
        partial_frame: Counter,
        lane: usize,
    ) -> Self {
        Self {
            accept,
            conn_drop,
            read_syscall,
            partial_frame,
            lane,
            guard: Mutex::new(()),
        }
    }

    /// Add one to `counter` (one of this struct's own) on the transport
    /// lane. Without the `obs` feature the counter is a no-op, so the lock
    /// is skipped too.
    fn incr(&self, counter: &Counter) {
        if !sbu_obs::enabled() {
            return;
        }
        let _g = self.guard.lock();
        counter.incr(self.lane);
    }
}

/// The socket transport's server half. The service's own clients dial its
/// [`endpoint`](Self::endpoint) like any remote peer would — they share no
/// memory with the server beyond the obs registry.
pub(crate) struct Socket {
    /// Stops the acceptor, which then shuts down and joins the readers.
    stop: Arc<AtomicBool>,
    endpoint: String,
    acceptor: Option<thread::JoinHandle<()>>,
    unix_path: Option<PathBuf>,
}

impl Socket {
    /// Bind a TCP listener on `addr` and start feeding `inboxes`.
    pub(crate) fn tcp(
        addr: &str,
        map: ShardMap,
        inboxes: Arc<Inboxes>,
        obs: Arc<SocketObs>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local: SocketAddr = listener.local_addr()?;
        let endpoint = format!("tcp://{local}");
        Self::start(Listener::Tcp(listener), endpoint, None, map, inboxes, obs)
    }

    /// Bind a Unix-domain listener on `path` (unlinking any stale socket
    /// file first) and start feeding `inboxes`.
    pub(crate) fn unix(
        path: &Path,
        map: ShardMap,
        inboxes: Arc<Inboxes>,
        obs: Arc<SocketObs>,
    ) -> std::io::Result<Self> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let endpoint = format!("unix://{}", path.display());
        Self::start(
            Listener::Unix(listener),
            endpoint,
            Some(path.to_path_buf()),
            map,
            inboxes,
            obs,
        )
    }

    fn start(
        listener: Listener,
        endpoint: String,
        unix_path: Option<PathBuf>,
        map: ShardMap,
        inboxes: Arc<Inboxes>,
        obs: Arc<SocketObs>,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("sbu-service-accept".into())
                .spawn(move || {
                    // Each reader with its stream: shutting the stream
                    // down ends the reader's blocked read.
                    let mut readers: Vec<(thread::JoinHandle<()>, Arc<Stream>)> = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok(conn) => {
                                obs.incr(&obs.accept);
                                // Detach readers whose connection is over:
                                // a finished thread's stack stays mapped
                                // until its handle is joined or dropped.
                                readers.retain(|(h, _)| !h.is_finished());
                                let stream = Arc::new(Stream {
                                    conn,
                                    writing: Mutex::new(()),
                                });
                                let reader = spawn_reader(
                                    Arc::clone(&stream),
                                    Arc::clone(&inboxes),
                                    map,
                                    Arc::clone(&obs),
                                );
                                readers.push((reader, stream));
                            }
                            Err(_) => thread::sleep(ACCEPT_POLL),
                        }
                    }
                    // Join the live readers on the way out so `shutdown`
                    // only has to join the acceptor.
                    for (reader, stream) in readers {
                        stream.conn.shutdown_both();
                        let _ = reader.join();
                    }
                })
                .expect("spawn acceptor thread")
        };
        Ok(Self {
            stop,
            endpoint,
            acceptor: Some(acceptor),
            unix_path,
        })
    }

    /// The canonical endpoint string (`tcp://…` / `unix://…`) clients dial.
    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Stop accepting, shut down and join every reader, and remove the
    /// Unix socket file. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Socket {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_reader(
    stream: Arc<Stream>,
    inboxes: Arc<Inboxes>,
    map: ShardMap,
    obs: Arc<SocketObs>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("sbu-service-reader".into())
        .spawn(move || {
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 16 * 1024];
            loop {
                // Blocks until bytes arrive or the stream ends: the peer
                // closed it, or the acceptor shut it down at stop.
                let n = match stream.conn.read(&mut buf) {
                    Ok(0) => return,
                    Ok(n) => n,
                    Err(_) => {
                        obs.incr(&obs.conn_drop);
                        return;
                    }
                };
                obs.incr(&obs.read_syscall);
                dec.push(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            let worker = map.worker_of(frame.key, inboxes.len());
                            let request = Request {
                                frame,
                                stream: Some(Arc::clone(&stream)),
                            };
                            if let Err(refused) = inboxes.try_push(worker, request) {
                                // Inbox at its high watermark: answer Busy
                                // directly so the client's retry loop backs
                                // off — the socket itself never blocks on a
                                // full inbox.
                                let busy = busy_frame(&refused.frame).to_bytes();
                                stream.send(Delivery::Intact(busy));
                            }
                        }
                        Ok(None) => break,
                        Err(err) if err.is_recoverable() => continue,
                        Err(_) => {
                            // BadLength / Payload: a length field (or frame
                            // body) we can't trust poisons the rest of the
                            // stream — typed close of this connection only;
                            // the worker never sees it.
                            obs.incr(&obs.conn_drop);
                            stream.conn.shutdown_both();
                            return;
                        }
                    }
                }
                if dec.pending_len() > 0 {
                    obs.incr(&obs.partial_frame);
                }
            }
        })
        .expect("spawn reader thread")
}

/// The client half: one dialed connection plus its incremental decoder.
/// A service's own client handles each get one when the service is built
/// (`service_loadgen --remote` builds a service on the endpoint, so its
/// clients connect that way too); [`SocketConn::dial`] opens one to any
/// endpoint directly, for a peer outside the service.
///
/// A wait ([`ClientConn::recv_until`]) ends at its deadline, not at the
/// kernel's next tick. While more than a granule (10 ms) remains, it
/// blocks in `read(2)` under an `SO_RCVTIMEO` a granule shorter than what
/// remains, since the kernel may wake the read that much late. In the last
/// granule it switches the stream to non-blocking mode and alternates
/// `read` with [`thread::yield_now`] until a frame arrives or the deadline
/// passes. The stream stays non-blocking until a blocking phase or a full
/// send buffer needs it blocking, so back-to-back short waits switch the
/// mode only once.
pub struct SocketConn {
    endpoint: String,
    stream: Option<Conn>,
    /// Whether `stream` is in non-blocking mode; a fresh stream is not.
    nonblocking: bool,
    dec: FrameDecoder,
}

impl SocketConn {
    /// Create a lazily-dialed connection to `tcp://HOST:PORT` or
    /// `unix://PATH`. The dial happens on the first send, so constructing
    /// clients against a not-yet-listening server is fine.
    pub fn dial(endpoint: String) -> Self {
        Self {
            endpoint,
            stream: None,
            nonblocking: false,
            dec: FrameDecoder::new(),
        }
    }

    /// The stream, dialed if need be, in non-blocking mode or not (no
    /// syscall when it already is); `None` if it cannot be dialed or
    /// switched.
    fn stream(&mut self, nonblocking: bool) -> Option<&mut Conn> {
        if self.stream.is_none() {
            self.stream = if let Some(addr) = self.endpoint.strip_prefix("tcp://") {
                TcpStream::connect(addr).ok().map(Conn::Tcp)
            } else if let Some(path) = self.endpoint.strip_prefix("unix://") {
                UnixStream::connect(path).ok().map(Conn::Unix)
            } else {
                None
            };
        }
        if self.nonblocking != nonblocking {
            if self.stream.as_ref()?.set_nonblocking(nonblocking).is_err() {
                self.poison();
                return None;
            }
            self.nonblocking = nonblocking;
        }
        self.stream.as_mut()
    }

    /// Write all of `bytes`, in whatever mode the last wait left the
    /// stream. A non-blocking stream whose send buffer is full goes back
    /// to blocking mode rather than fail the write halfway.
    fn write_all(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        use std::io::ErrorKind;
        let mut nonblocking = self.nonblocking;
        while !bytes.is_empty() {
            let conn = self.stream(nonblocking).ok_or(ErrorKind::NotConnected)?;
            match conn.write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(err) if err.kind() == ErrorKind::WouldBlock => nonblocking = false,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        Ok(())
    }

    fn poison(&mut self) {
        if let Some(conn) = self.stream.take() {
            conn.shutdown_both();
        }
        self.nonblocking = false;
        self.dec.reset();
    }
}

impl ClientConn for SocketConn {
    fn send(&mut self, _worker: usize, delivery: Delivery) {
        // Overload comes back from the server as a Busy control frame.
        // Write failures are losses — the retry loop's retransmission
        // recovers them.
        match delivery {
            Delivery::Intact(bytes) => {
                if self.write_all(&bytes).is_err() {
                    self.poison();
                }
            }
            Delivery::Truncated(prefix) => {
                // Fault injection: a connection that died mid-request.
                let _ = self.write_all(&prefix);
                self.poison();
            }
        }
    }

    fn recv_until(&mut self, until: Instant) -> ConnEvent {
        let mut buf = [0u8; 16 * 1024];
        loop {
            // Drain anything already buffered before touching the socket.
            match self.dec.next_frame() {
                Ok(Some(frame)) => return ConnEvent::Frame(frame),
                Ok(None) => {}
                Err(err) if err.is_recoverable() => return ConnEvent::Garbled,
                Err(_) => {
                    // A broken length on the reply stream: this connection
                    // is unusable; reconnect and retransmit.
                    self.poison();
                    return ConnEvent::Disconnected;
                }
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() && self.stream.is_none() {
                // Past the deadline nothing can be held without a stream:
                // leave the dial to the retransmission.
                return ConnEvent::Timeout;
            }
            // SO_RCVTIMEO wakes a read on a kernel tick, up to a granule
            // late: block only while the read can end before `until`, then
            // poll.
            let polling = left <= RCVTIMEO_GRANULE;
            let Some(conn) = self.stream(polling) else {
                return ConnEvent::Disconnected;
            };
            if !polling {
                let _ = conn.set_read_timeout(Some(left - RCVTIMEO_GRANULE));
            }
            match conn.read(&mut buf) {
                Ok(0) => {
                    self.poison();
                    return ConnEvent::Disconnected;
                }
                Ok(n) => self.dec.push(&buf[..n]),
                Err(err)
                    if err.kind() == std::io::ErrorKind::WouldBlock
                        || err.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Nothing held. A read made once the deadline had
                    // passed was the last: a reply already held still
                    // beats an expired deadline, but nothing waits past it.
                    if polling {
                        if left.is_zero() {
                            return ConnEvent::Timeout;
                        }
                        thread::yield_now();
                    }
                }
                Err(_) => {
                    self.poison();
                    return ConnEvent::Disconnected;
                }
            }
        }
    }

    fn reconnect(&mut self) -> bool {
        self.poison();
        self.stream(false).is_some()
    }
}
