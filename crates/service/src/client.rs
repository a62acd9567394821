//! The client half of the split `Service` API: typed per-client handles.
//!
//! A [`ServiceClient`] owns one transport connection and one sequence
//! counter. [`ServiceClient::call`] is the closed-loop path: submit, then
//! block until the reply or the deadline, retransmitting through faults.
//! [`ServiceClient::submit`] is the open-loop path: it returns a typed
//! [`Pending`] handle whose [`wait`](Pending::wait) runs the same retry
//! loop later — several requests can be in flight on one client, with
//! out-of-order replies parked in a bounded stash until their `wait`
//! claims them.
//!
//! Reliability invariants (unchanged from the monolithic API):
//!
//! * every retransmission reuses the original `(client, seq)` pair, so the
//!   server's dedup window answers duplicates from cache — exactly-once
//!   end to end;
//! * a [`ConnEvent::Disconnected`] is handled by reconnect-and-retransmit,
//!   which the same dedup window makes safe over a real socket;
//! * `Busy`/`Unavailable` control frames back the client off and
//!   retransmit, and surface as their typed errors only at the deadline.
//!   Every shed, on every transport, is a `Busy` frame `wait` receives
//!   (`service.shed`).
//!
//! Under a policy with an attempt timeout, `wait` retransmits on two
//! signals. The first needs no clock: a client's requests to one worker
//! are applied and answered in the order they were sent, so a reply from
//! that worker to a *later* request proves an older request sent once, or
//! its reply, was lost. The second is the per-client RFC 6298 timer
//! ([`crate::retry`]) for the losses that signal cannot see. Neither is
//! needed for safety: a spurious retransmit is answered from the dedup
//! window.
//!
//! One client handle is one logical caller: methods serialize on an
//! internal lock, so concurrent callers should each use their own client
//! id (exactly as the old `Service::call(client, …)` contract required).

use crate::retry::{deadline_error, RetryPolicy, Rto, ServiceError};
use crate::route::ShardMap;
use crate::server::ServiceObs;
use crate::transport::{ClientConn, ConnEvent, Delivery};
use crate::wire::{request_frame, Frame, WireCodec, KIND_BUSY, KIND_RESPONSE, KIND_UNAVAILABLE};
use parking_lot::Mutex;
use sbu_mem::contention::Backoff;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many out-of-order reply frames a client parks before evicting the
/// oldest (each eviction counts as `service.stale_reply`). Bounds memory
/// against stale duplicates on long lossy runs; must comfortably exceed
/// the open-loop outstanding window (≤ 32 in the load generator).
const STASH_CAP: usize = 256;

/// The connection-side state a client serializes behind its lock.
struct ClientInner {
    conn: Box<dyn ClientConn>,
    /// Replies that arrived while waiting for a different sequence number,
    /// with their arrival instant when the client runs a timer (a round
    /// trip is timed to the arrival, not to the `wait` that claims it).
    stash: VecDeque<(Frame, Option<Instant>)>,
    /// The retransmission timer; `None` when attempts never time out.
    rto: Option<Rto>,
}

/// A typed per-client handle to a running [`Service`](crate::Service).
///
/// Obtained from [`Service::client`](crate::Service::client); see the
/// module docs for the call/submit split.
pub struct ServiceClient<S: WireCodec> {
    id: u32,
    map: ShardMap,
    workers: usize,
    retry: RetryPolicy,
    seed: u64,
    /// This client's obs lane (`workers + id`).
    lane: usize,
    seq: AtomicU64,
    obs: Arc<ServiceObs>,
    inner: Mutex<ClientInner>,
    _spec: std::marker::PhantomData<fn() -> S>,
}

impl<S: WireCodec> ServiceClient<S> {
    pub(crate) fn new(
        id: u32,
        map: ShardMap,
        workers: usize,
        retry: RetryPolicy,
        seed: u64,
        obs: Arc<ServiceObs>,
        conn: Box<dyn ClientConn>,
    ) -> Self {
        Self {
            id,
            map,
            workers,
            retry,
            seed,
            lane: workers + id as usize,
            seq: AtomicU64::new(0),
            obs,
            inner: Mutex::new(ClientInner {
                conn,
                stash: VecDeque::new(),
                rto: Rto::new(&retry),
            }),
            _spec: std::marker::PhantomData,
        }
    }

    /// The retry policy this client runs under.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Execute `op` against the object at `key` and block for the reply:
    /// [`submit`](Self::submit) + [`wait`](Pending::wait) with the retry
    /// policy's full deadline.
    pub fn call(&self, key: u64, op: &S::Op) -> Result<S::Resp, ServiceError> {
        let deadline = Instant::now() + self.retry.deadline;
        self.submit(key, op).wait(deadline)
    }

    /// Send `op` toward the object at `key` without waiting, returning a
    /// typed handle for the eventual reply. The request goes out once here;
    /// retransmission, backoff, and reconnect all live in
    /// [`Pending::wait`].
    pub fn submit(&self, key: u64, op: &S::Op) -> Pending<'_, S> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let bytes = request_frame::<S>(self.id, seq, key, op).to_bytes();
        let worker = self.worker_of(key);
        self.inner
            .lock()
            .conn
            .send(worker, Delivery::Intact(bytes.clone()));
        Pending {
            client: self,
            seq,
            worker,
            bytes,
            sent_at: self.retry.attempt_timeout.is_some().then(Instant::now),
        }
    }

    /// The worker that owns `key` (the inbox its requests queue in).
    fn worker_of(&self, key: u64) -> usize {
        self.map.shard_of(key) % self.workers
    }
}

/// A submitted request whose reply has not been claimed yet. Consume it
/// with [`wait`](Self::wait); dropping it abandons the reply (a later
/// frame for its sequence number ages out of the stash).
#[must_use = "a Pending does nothing until you wait() on it"]
pub struct Pending<'a, S: WireCodec> {
    client: &'a ServiceClient<S>,
    seq: u64,
    worker: usize,
    bytes: Vec<u8>,
    /// When `submit` transmitted it; recorded only when the client runs a
    /// timer.
    sent_at: Option<Instant>,
}

impl<'a, S: WireCodec> Pending<'a, S> {
    /// The sequence number the reply will echo.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Block until the reply arrives or `deadline` passes, retransmitting
    /// through `Busy`/`Unavailable` controls, garbled replies, and
    /// connection drops (reconnect, then retransmit — safe under the
    /// server's `(client, seq)` dedup window).
    ///
    /// Under a policy with an attempt timeout, a lost request or reply is
    /// retransmitted as soon as its loss is proven — while `submit`'s
    /// transmission is the only one, a reply from the same worker to a
    /// later request is that proof — and otherwise when the client's
    /// retransmission timer, started at the transmission's send instant,
    /// expires with no reply held.
    pub fn wait(self, deadline: Instant) -> Result<S::Resp, ServiceError> {
        let c = self.client;
        let mut inner = c.inner.lock();
        let ClientInner { conn, stash, rto } = &mut *inner;
        let mut attempts: u32 = 1;
        let mut sent_at = self.sent_at;
        let mut last_control: Option<u8> = None;
        let mut backoff = Backoff::new();
        let mut pending_send = false;

        'attempt: loop {
            if pending_send {
                if Instant::now() >= deadline {
                    return Err(deadline_error(c.id, self.seq, attempts, last_control));
                }
                conn.send(self.worker, Delivery::Intact(self.bytes.clone()));
                attempts += 1;
                c.obs.retry.incr(c.lane);
                if rto.is_some() {
                    sent_at = Some(Instant::now());
                }
            }
            // Any later re-entry of 'attempt means the current transmission
            // is spent (timeout, proven loss, control frame, drop):
            // retransmit.
            pending_send = true;

            // The loss rule holds only while `submit`'s transmission is the
            // only one: every transmission of a later request then left
            // after it, so the worker answered this request first.
            let fifo = rto.is_some() && attempts == 1;
            let wait_until = match (rto.as_ref(), sent_at) {
                (Some(timer), Some(at)) => {
                    (at + timer.timeout(c.seed, c.id, self.seq, attempts)).min(deadline)
                }
                _ => deadline,
            };
            // Drain reply events until ours, a proven loss, the timer, or a
            // control frame that asks for a retransmit.
            loop {
                let (frame, arrived) = if let Some(at) =
                    stash.iter().position(|(f, _)| f.seq == self.seq)
                {
                    stash.remove(at).expect("position is in range")
                } else if fifo && stash.iter().any(|(f, _)| self.overtaken_by(f)) {
                    continue 'attempt; // lost: retransmit at once
                } else {
                    match conn.recv_until(wait_until) {
                        ConnEvent::Frame(frame) => (frame, rto.is_some().then(Instant::now)),
                        ConnEvent::Garbled => {
                            // A corrupted reply: detected, dropped, counted.
                            // Keep waiting — a duplicate may follow.
                            c.obs.garbled.incr(c.lane);
                            continue;
                        }
                        ConnEvent::Timeout => {
                            if Instant::now() >= deadline {
                                return Err(deadline_error(c.id, self.seq, attempts, last_control));
                            }
                            // The timer expired with no reply held (the
                            // transport returns what it already holds
                            // before a timeout): back off, retransmit.
                            if let Some(timer) = rto.as_mut() {
                                timer.back_off();
                            }
                            continue 'attempt;
                        }
                        ConnEvent::Disconnected => {
                            if Instant::now() >= deadline {
                                return Err(deadline_error(c.id, self.seq, attempts, last_control));
                            }
                            conn.reconnect();
                            backoff.spin();
                            continue 'attempt; // retransmit on the new stream
                        }
                    }
                };
                if frame.client != c.id {
                    // Another client's reply, misdelivered onto this stream
                    // (a fault plane's delayed frame, or a peer claiming
                    // this client id). Its seq numbering is a
                    // different sequence space — matching on seq alone
                    // would ack an op with someone else's response. Drop
                    // it; the owner's retransmit will fetch its own copy.
                    c.obs.stale.incr(c.lane);
                    continue;
                }
                if frame.seq != self.seq {
                    // Another in-flight request's reply — or a stale
                    // duplicate of a completed one. Park it; its own wait
                    // will claim it, or it ages out.
                    stash.push_back((frame, arrived));
                    if stash.len() > STASH_CAP {
                        stash.pop_front();
                        c.obs.stale.incr(c.lane);
                    }
                    continue;
                }
                match frame.kind {
                    KIND_BUSY => {
                        c.obs.shed.incr(c.lane);
                        last_control = Some(KIND_BUSY);
                        backoff.spin();
                        continue 'attempt;
                    }
                    KIND_UNAVAILABLE => {
                        last_control = Some(KIND_UNAVAILABLE);
                        backoff.spin();
                        continue 'attempt;
                    }
                    _ => match S::decode_resp(&frame.payload) {
                        Ok(resp) => {
                            if let (Some(timer), Some(sent), Some(arrived)) =
                                (rto.as_mut(), sent_at, arrived)
                            {
                                timer.sample(arrived.saturating_duration_since(sent), attempts);
                            }
                            return Ok(resp);
                        }
                        Err(_) => {
                            // Wire-valid but semantically garbled (payload
                            // rewritten): retransmit for a clean copy.
                            c.obs.garbled.incr(c.lane);
                            continue 'attempt;
                        }
                    },
                }
            }
        }
    }

    /// Whether `frame` is a reply from this request's worker to a later
    /// request of this client. `Busy` frames never count: the transport
    /// writes them out of band, ahead of the worker's replies.
    fn overtaken_by(&self, frame: &Frame) -> bool {
        frame.kind == KIND_RESPONSE
            && frame.seq > self.seq
            && self.client.worker_of(frame.key) == self.worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Admission, FaultProfile, FaultyChannel, InjectObs};
    use crate::wire::response_frame;
    use crate::Service;
    use sbu_spec::specs::{CounterOp, CounterSpec};
    use std::time::Duration;

    const DROPS: FaultProfile = FaultProfile {
        drop: 0.25,
        ..FaultProfile::none()
    };

    /// Which of the first `n` frames a seeded fault lane delivers.
    fn delivered(seed: u64, lane: usize, n: u64, response: bool) -> Vec<bool> {
        let registry = sbu_obs::Registry::new(lane + 1);
        let inject = InjectObs::register(&registry);
        let mut chan = FaultyChannel::new(DROPS, seed, lane);
        (0..n)
            .map(|seq| {
                let req = request_frame::<CounterSpec>(0, seq, 0, &CounterOp::Inc);
                let frame = if response {
                    response_frame::<CounterSpec>(&req, &1)
                } else {
                    req
                };
                matches!(chan.admit(frame.to_bytes(), &inject), Admission::Delivered(f) if !f.is_empty())
            })
            .collect()
    }

    /// A connection that hands out scripted reply frames, then times out.
    struct Scripted(VecDeque<Frame>);

    impl ClientConn for Scripted {
        fn send(&mut self, _worker: usize, _delivery: Delivery) {}

        fn recv_until(&mut self, _until: Instant) -> ConnEvent {
            self.0
                .pop_front()
                .map_or(ConnEvent::Timeout, ConnEvent::Frame)
        }

        fn reconnect(&mut self) -> bool {
            true
        }
    }

    #[test]
    fn another_clients_reply_with_the_awaited_seq_is_not_ours() {
        // Client 1's reply to its own seq 0 reaches client 0's stream ahead
        // of client 0's reply to seq 0: matching on seq alone would ack
        // client 0's read with client 1's value.
        let key = 5;
        let ours = request_frame::<CounterSpec>(0, 0, key, &CounterOp::Read);
        let theirs = request_frame::<CounterSpec>(1, 0, key, &CounterOp::Read);
        let script = VecDeque::from([
            response_frame::<CounterSpec>(&theirs, &99),
            response_frame::<CounterSpec>(&ours, &7),
        ]);
        // One worker, one client: lanes 0 (worker), 1 (client), 2
        // (transport).
        let registry = sbu_obs::Registry::new(3);
        let client = ServiceClient::<CounterSpec>::new(
            0,
            ShardMap::new(1),
            1,
            RetryPolicy::patient(),
            0,
            Arc::new(ServiceObs::register(&registry)),
            Box::new(Scripted(script)),
        );
        let pending = client.submit(key, &CounterOp::Read);
        assert_eq!(pending.seq(), 0);
        assert_eq!(pending.wait(Instant::now() + Duration::from_secs(1)), Ok(7));
        if cfg!(feature = "obs") {
            assert_eq!(registry.snapshot().counter("service.stale_reply"), 1);
        }
    }

    #[test]
    fn only_a_request_sent_once_times_the_round_trip() {
        // One worker (request lane 0), one client (reply lane 1): a seed
        // that drops the first request only, so the first call is
        // answered after a timer expiry and one retransmission, and the
        // second call goes through at once.
        let seed = (0..10_000)
            .find(|&seed| {
                delivered(seed, 0, 3, false) == [false, true, true]
                    && delivered(seed, 1, 2, true) == [true, true]
            })
            .expect("a seed that drops exactly the first request");
        // A 50 ms floor: the retransmission's backed-off timer (75 ms at
        // least) cannot expire before an in-process reply.
        let policy = RetryPolicy::lossy().with_attempt_timeout(Duration::from_millis(50));
        let mut svc = Service::builder(1)
            .workers(1)
            .clients(1)
            .fault(DROPS)
            .retry(policy)
            .seed(seed)
            .build(CounterSpec::new());
        let client = svc.client(0);
        let fresh = Rto::new(&policy).expect("a floor means a timer");
        let mut backed_off = fresh;
        backed_off.back_off();

        assert_eq!(client.call(0, &CounterOp::Inc), Ok(1));
        // Karn: the reply to the retransmission fed no sample, and the
        // expiry's backoff stands.
        assert_eq!(client.inner.lock().rto, Some(backed_off));

        assert_eq!(client.call(0, &CounterOp::Inc), Ok(2));
        // A request sent once: its round trip is sampled, which ends the
        // backoff.
        let timer = client.inner.lock().rto.expect("timer state");
        assert_ne!(timer, fresh);
        assert_ne!(timer, backed_off);
        svc.shutdown();
    }
}
