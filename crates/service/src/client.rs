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
use crate::transport::{ClientConn, ConnEvent, Delivery, SendOutcome};
use crate::wire::{
    control_frame, request_frame, Frame, WireCodec, KIND_BUSY, KIND_RESPONSE, KIND_UNAVAILABLE,
};
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

    /// This client's id (its wire identity and dedup key).
    pub fn id(&self) -> u32 {
        self.id
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
    /// typed handle for the eventual reply. The request goes out once here
    /// (best-effort — a local shed is absorbed and resent by `wait`);
    /// retransmission, backoff, and reconnect all live in
    /// [`Pending::wait`].
    pub fn submit(&self, key: u64, op: &S::Op) -> Pending<'_, S> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let bytes = request_frame::<S>(self.id, seq, key, op).to_bytes();
        let worker = self.worker_of(key);
        let sent = {
            let mut inner = self.inner.lock();
            match inner.conn.send(worker, Delivery::Intact(bytes.clone())) {
                SendOutcome::Sent => true,
                SendOutcome::Shed => {
                    self.obs.shed.incr(self.lane);
                    false
                }
            }
        };
        Pending {
            client: self,
            seq,
            worker,
            bytes,
            sent,
            sent_at: (sent && self.retry.attempt_timeout.is_some()).then(Instant::now),
        }
    }

    /// The worker that owns `key` (the inbox its requests queue in).
    fn worker_of(&self, key: u64) -> usize {
        self.map.shard_of(key) % self.workers
    }

    /// Fire-and-account: post a request without a [`Pending`] handle; the
    /// reply is collected positionally with [`take_next`](Self::take_next)
    /// (a shed post stashes a synthetic `Busy` so accounting stays 1:1).
    /// No retransmission happens on this path — it backs the in-process
    /// load generator's open loop, which requires a trusted transport.
    pub(crate) fn post_once(&self, key: u64, op: &S::Op) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let req = request_frame::<S>(self.id, seq, key, op);
        let worker = self.worker_of(key);
        let mut inner = self.inner.lock();
        if inner.conn.send(worker, Delivery::Intact(req.to_bytes())) == SendOutcome::Shed {
            self.obs.shed.incr(self.lane);
            // Synthesized locally so every post still has exactly one
            // reply; it never crossed the transport.
            inner
                .stash
                .push_back((control_frame(&req, KIND_BUSY), None));
        }
        seq
    }

    /// Take the next reply in arrival order (pairs with
    /// [`post_once`](Self::post_once); no sequence matching). `Busy` and
    /// `Unavailable` controls surface as their typed errors; waits at most
    /// the retry policy's deadline.
    pub(crate) fn take_next(&self) -> Result<S::Resp, ServiceError> {
        let deadline = Instant::now() + self.retry.deadline;
        let mut inner = self.inner.lock();
        loop {
            let frame = match inner.stash.pop_front() {
                Some((frame, _)) => frame,
                None => match inner.conn.recv_until(deadline) {
                    ConnEvent::Frame(frame) => frame,
                    ConnEvent::Garbled => {
                        self.obs.garbled.incr(self.lane);
                        continue;
                    }
                    ConnEvent::Timeout => {
                        return Err(ServiceError::Deadline {
                            client: self.id,
                            seq: 0,
                            attempts: 1,
                        })
                    }
                    ConnEvent::Disconnected => {
                        if Instant::now() >= deadline {
                            return Err(ServiceError::Deadline {
                                client: self.id,
                                seq: 0,
                                attempts: 1,
                            });
                        }
                        inner.conn.reconnect();
                        continue;
                    }
                },
            };
            return match frame.kind {
                KIND_BUSY => Err(ServiceError::Busy {
                    client: self.id,
                    seq: frame.seq,
                    attempts: 1,
                }),
                KIND_UNAVAILABLE => Err(ServiceError::Unavailable {
                    client: self.id,
                    seq: frame.seq,
                    attempts: 1,
                }),
                _ => S::decode_resp(&frame.payload).map_err(Into::into),
            };
        }
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
    /// Whether `submit` transmitted the request (it was not shed).
    sent: bool,
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
    /// through shed rejections, `Busy`/`Unavailable` controls, garbled
    /// replies, and connection drops (reconnect, then retransmit — safe
    /// under the server's `(client, seq)` dedup window).
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
        let mut attempts: u32 = u32::from(self.sent);
        let mut sent_at = self.sent_at;
        let mut last_control: Option<u8> = None;
        let mut backoff = Backoff::with_limit(c.retry.backoff_limit);
        let mut pending_send = !self.sent;

        'attempt: loop {
            if pending_send {
                // Send, shedding-aware: a watermark rejection is a local
                // Busy — spin down and retry until the deadline intervenes.
                loop {
                    if Instant::now() >= deadline {
                        return Err(deadline_error(
                            c.id,
                            self.seq,
                            attempts.max(1),
                            last_control,
                        ));
                    }
                    match conn.send(self.worker, Delivery::Intact(self.bytes.clone())) {
                        SendOutcome::Sent => break,
                        SendOutcome::Shed => {
                            c.obs.shed.incr(c.lane);
                            last_control = Some(KIND_BUSY);
                            backoff.spin();
                        }
                    }
                }
                attempts += 1;
                if attempts > 1 {
                    c.obs.retry.incr(c.lane);
                }
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
            let fifo = rto.is_some() && self.sent && attempts == 1;
            let wait_until = match (rto.as_ref(), sent_at) {
                (Some(timer), Some(at)) => {
                    (at + timer.timeout(c.seed, c.id, self.seq, attempts)).min(deadline)
                }
                _ => deadline,
            };
            // Drain reply events until ours, a proven loss, the timer, or a
            // control frame that asks for a retransmit.
            loop {
                let (frame, arrived) =
                    if let Some(at) = stash.iter().position(|(f, _)| f.seq == self.seq) {
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
                                    return Err(deadline_error(
                                        c.id,
                                        self.seq,
                                        attempts.max(1),
                                        last_control,
                                    ));
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
                                    return Err(deadline_error(
                                        c.id,
                                        self.seq,
                                        attempts.max(1),
                                        last_control,
                                    ));
                                }
                                conn.reconnect();
                                backoff.spin();
                                continue 'attempt; // retransmit on the new stream
                            }
                        }
                    };
                if frame.client != c.id {
                    // Another client's reply, misdelivered onto this stream
                    // by a reordering fault plane. Its seq numbering is a
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
    /// request of this client. `Busy` frames never count: the socket
    /// reader writes them out of band, ahead of the worker's replies.
    fn overtaken_by(&self, frame: &Frame) -> bool {
        frame.kind == KIND_RESPONSE
            && frame.seq > self.seq
            && self.client.worker_of(frame.key) == self.worker
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::{FaultProfile, FaultyChannel, InjectObs};
    use crate::retry::{RetryPolicy, Rto};
    use crate::wire::{request_frame, response_frame};
    use crate::Service;
    use sbu_spec::specs::{CounterOp, CounterSpec};
    use std::collections::VecDeque;
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
                let mut queue = VecDeque::new();
                chan.admit(frame.to_bytes(), &mut queue, &inject);
                !queue.is_empty()
            })
            .collect()
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
