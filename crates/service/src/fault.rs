//! Seeded, deterministic transport-fault injection on both carriers.
//!
//! The fault plane damages frames on their way through the in-process
//! mailboxes or a real socket alike: a request in `FaultyConn`, the
//! client connection it wraps around the carrier's own, and a reply in the
//! service's one reply path (`transport::send_reply`), before the carrier
//! writes it. Frame by frame it decides whether the frame is delivered
//! intact, **dropped**, **duplicated**, **corrupted** (a byte flipped in
//! flight — caught downstream by the frame checksum), **delayed** (held
//! back until the next frame passes it, the one fault that reorders), or
//! **disconnected** (the stream dies mid-frame: a truncated prefix goes
//! out and the connection is torn down, forcing the client through
//! reconnect-and-retransmit). Decisions come from a per-channel seeded
//! [`SmallRng`], so a given `(seed, traffic)` pair replays the same fault
//! pattern — the injection battery in `crates/scenario` and the `exp e13`
//! sweep both lean on that.
//!
//! Honest corruption flips a byte *without* fixing the checksum: the
//! receiver detects it, counts it, and the retry layer resends — end to
//! end it behaves like a drop. The **lying** corruptor
//! ([`FaultProfile::lie`]) is the adversarial cell: it rewrites a response
//! payload *and recomputes the checksum*, so the wire layer cannot object
//! and only a semantic check (the linearizability monitor above the
//! service) can catch the damage. Scenario cells running the liar must
//! report CAUGHT. Where a frame's bytes sit is the wire module's business:
//! the injector edits frames only through its layout helpers.
//!
//! Every injected fault increments a `service.inject.*` counter on the
//! channel's own obs lane (writes are serialized by the channel's lock, so
//! the single-writer lane discipline holds).

use crate::transport::{ClientConn, ConnEvent, Delivery};
use crate::wire::{encoded_kind, encoded_payload_mut, seal, KIND_RESPONSE, PREFIX};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Per-frame fault probabilities for a lossy transport. All rates are
/// independent coin weights in `[0, 1]` evaluated in a fixed order (drop,
/// duplicate, corrupt, delay, disconnect, lie) with at most one fault
/// applied per frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a frame is silently discarded.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one byte of the frame is flipped in flight (checksum
    /// intact, so the receiver detects and discards it).
    pub corrupt: f64,
    /// Probability a frame is held back until the next frame overtakes it.
    pub delay: f64,
    /// Probability the connection dies mid-frame (the socket torture
    /// fault): a truncated prefix is delivered and the stream is torn
    /// down, so a socket client must reconnect and retransmit (safe under
    /// the `(client, seq)` dedup window). On the in-process transport the
    /// prefix is simply lost.
    pub disconnect: f64,
    /// Probability a *response* payload is rewritten with the checksum
    /// recomputed — undetectable on the wire, a true semantic lie. Keep at
    /// `0` except in adversarial monitor-validation cells.
    pub lie: f64,
}

impl FaultProfile {
    /// A perfect transport (all rates zero).
    pub const fn none() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            disconnect: 0.0,
            lie: 0.0,
        }
    }

    /// The honest-lossy preset used by tests and the `lossy-transport`
    /// scenario: 10% drop, 10% duplicate, 10% corrupt, 5% delay, no
    /// disconnects, no lying.
    pub const fn lossy() -> Self {
        Self {
            drop: 0.10,
            duplicate: 0.10,
            corrupt: 0.10,
            delay: 0.05,
            disconnect: 0.0,
            lie: 0.0,
        }
    }

    /// `lossy()` with the lying corruptor switched on at `rate` — the
    /// adversarial preset for monitor-validation cells.
    pub const fn lying(rate: f64) -> Self {
        let mut p = Self::lossy();
        p.lie = rate;
        p
    }

    /// Whether every rate is zero (no injector needed).
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.disconnect == 0.0
            && self.lie == 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

/// Injection counters (`service.inject.*`), one handle set shared by every
/// channel; each channel records on its own lane.
#[derive(Clone)]
pub struct InjectObs {
    /// `service.inject.drop` — frames discarded.
    pub drop: sbu_obs::Counter,
    /// `service.inject.dup` — frames delivered twice.
    pub dup: sbu_obs::Counter,
    /// `service.inject.corrupt` — frames with a byte flipped (detectable).
    pub corrupt: sbu_obs::Counter,
    /// `service.inject.delay` — frames held back.
    pub delay: sbu_obs::Counter,
    /// `service.inject.disconnect` — streams killed mid-frame.
    pub disconnect: sbu_obs::Counter,
    /// `service.inject.lie` — responses rewritten checksum-intact.
    pub lies: sbu_obs::Counter,
}

impl InjectObs {
    /// Register the `service.inject.*` instruments on `registry`.
    pub fn register(registry: &sbu_obs::Registry) -> Self {
        Self {
            drop: registry.counter("service.inject.drop"),
            dup: registry.counter("service.inject.dup"),
            corrupt: registry.counter("service.inject.corrupt"),
            delay: registry.counter("service.inject.delay"),
            disconnect: registry.counter("service.inject.disconnect"),
            lies: registry.counter("service.inject.lie"),
        }
    }
}

/// The fault decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Deliver,
    Drop,
    Duplicate,
    Corrupt,
    Delay,
    Disconnect,
    Lie,
}

/// What [`FaultyChannel::admit`] did with the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The stream survives, and these frames go through, in order: none
    /// for a drop or a newly delayed frame, two for a duplicate, plus any
    /// earlier delayed frame released behind the admitted one.
    Delivered(Vec<Vec<u8>>),
    /// The stream died mid-frame: the carried prefix is the partial write
    /// the peer observes before EOF. The fault plane hands it to the
    /// carrier as a [`Delivery::Truncated`].
    Disconnected(Vec<u8>),
}

/// One direction of one lane through the injector: owns the channel's RNG
/// and the frame a `delay` fault holds back. The service keeps each
/// channel behind its own mutex, so decisions replay in admission order.
#[derive(Debug)]
pub struct FaultyChannel {
    profile: FaultProfile,
    rng: SmallRng,
    /// The obs lane this channel records on.
    lane: usize,
    /// The frame held back by a `delay` fault, released behind the next
    /// frame.
    held: Option<Vec<u8>>,
}

impl FaultyChannel {
    /// A channel injecting per `profile`, seeded so distinct channels of the
    /// same service draw independent streams.
    pub fn new(profile: FaultProfile, seed: u64, lane: usize) -> Self {
        Self {
            profile,
            rng: SmallRng::seed_from_u64(
                seed ^ (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            lane,
            held: None,
        }
    }

    fn decide(&mut self, is_response: bool) -> Fault {
        let p = self.profile;
        if self.rng.gen_bool(p.drop) {
            return Fault::Drop;
        }
        if self.rng.gen_bool(p.duplicate) {
            return Fault::Duplicate;
        }
        if self.rng.gen_bool(p.corrupt) {
            return Fault::Corrupt;
        }
        if self.rng.gen_bool(p.delay) {
            return Fault::Delay;
        }
        if self.rng.gen_bool(p.disconnect) {
            return Fault::Disconnect;
        }
        if is_response && self.rng.gen_bool(p.lie) {
            return Fault::Lie;
        }
        Fault::Deliver
    }

    /// Pass `bytes` (one encoded frame) through the faulty channel,
    /// applying at most one fault and counting it on this channel's lane.
    /// A frame previously held by a `delay` fault is released *after* the
    /// new frame (that is what "delayed" means here).
    ///
    /// On [`Admission::Disconnected`] nothing goes through, any held frame
    /// is gone with the stream, and the carried prefix is what the peer saw
    /// before the cut.
    pub fn admit(&mut self, bytes: Vec<u8>, obs: &InjectObs) -> Admission {
        let is_response = encoded_kind(&bytes) == Some(KIND_RESPONSE);
        let fault = self.decide(is_response);
        let lane = self.lane;
        let mut through = match fault {
            Fault::Deliver => vec![bytes],
            Fault::Drop => {
                obs.drop.incr(lane);
                Vec::new()
            }
            Fault::Duplicate => {
                obs.dup.incr(lane);
                vec![bytes.clone(), bytes]
            }
            Fault::Corrupt => {
                obs.corrupt.incr(lane);
                vec![flip_byte(bytes, &mut self.rng)]
            }
            Fault::Delay => {
                obs.delay.incr(lane);
                // The newly held frame still flushes the one held before
                // it (so at most one frame is held and a pure-delay
                // profile cannot stall the channel forever).
                let prior = self.held.replace(bytes);
                return Admission::Delivered(prior.into_iter().collect());
            }
            Fault::Disconnect => {
                obs.disconnect.incr(lane);
                // The stream dies mid-write: a frame held back by a delay
                // dies with it, and the peer sees a prefix of this frame
                // followed by EOF.
                self.held = None;
                let cut = if bytes.len() > 1 {
                    self.rng.gen_range(1..bytes.len())
                } else {
                    0
                };
                return Admission::Disconnected(bytes[..cut].to_vec());
            }
            Fault::Lie => {
                obs.lies.incr(lane);
                vec![rewrite_response(bytes, &mut self.rng)]
            }
        };
        // A frame went past: release the one we were holding behind it.
        through.extend(self.held.take());
        Admission::Delivered(through)
    }
}

/// The fault injector's lanes: every request passes a per-worker lane on
/// its way into a carrier, every reply a per-client lane on its way out.
/// Lane seeding matches the historic mailbox injector exactly (requests on
/// lane `w`, replies on lane `workers + c`), so a fixed `(seed, traffic)`
/// pair replays the same fault pattern it always did. What a reply lane
/// lets through goes back the way of the request whose reply passed it,
/// so a reply a `delay` holds back goes out behind a later reply to its
/// client, on that reply's stream.
///
/// The durable-recovery requeue goes straight into the service's inboxes,
/// past every lane: those bytes never left the worker, so there is no
/// wire for them to be damaged on.
pub(crate) struct Faulty {
    /// Request lanes, one per worker (obs lane `w`).
    req: Vec<Mutex<FaultyChannel>>,
    /// Reply lanes, one per client (obs lane `workers + c`).
    resp: Vec<Mutex<FaultyChannel>>,
    inject: InjectObs,
}

impl Faulty {
    pub(crate) fn new(
        profile: FaultProfile,
        seed: u64,
        workers: usize,
        clients: usize,
        inject: InjectObs,
    ) -> Self {
        Self {
            req: (0..workers)
                .map(|w| Mutex::new(FaultyChannel::new(profile, seed, w)))
                .collect(),
            resp: (0..clients)
                .map(|c| Mutex::new(FaultyChannel::new(profile, seed, workers + c)))
                .collect(),
            inject,
        }
    }

    /// Pass a reply to `client` through that client's reply lane, and hand
    /// what the lane lets through to `deliver`, in order.
    pub(crate) fn admit_reply(
        &self,
        client: u32,
        reply: Vec<u8>,
        mut deliver: impl FnMut(Delivery),
    ) {
        match self.resp.get(client as usize) {
            Some(lane) => {
                let admission = lane.lock().admit(reply, &self.inject);
                forward(admission, deliver);
            }
            // A socket peer may claim a client id this service never
            // built: no lane exists to damage its replies on, so they pass
            // through.
            None => deliver(Delivery::Intact(reply)),
        }
    }
}

/// A client connection whose outbound requests pass the injector's
/// request lanes before reaching the carrier's connection inside it.
/// Replies were already damaged (or not) on the server side, so the
/// receive path is a clean pass-through.
pub(crate) struct FaultyConn {
    shared: Arc<Faulty>,
    inner: Box<dyn ClientConn>,
}

impl FaultyConn {
    /// Wrap the carrier's connection `inner` in the lanes of `shared`.
    pub(crate) fn new(shared: Arc<Faulty>, inner: Box<dyn ClientConn>) -> Self {
        Self { shared, inner }
    }
}

impl ClientConn for FaultyConn {
    fn send(&mut self, worker: usize, delivery: Delivery) {
        let Delivery::Intact(bytes) = delivery else {
            return self.inner.send(worker, delivery);
        };
        let admission = self.shared.req[worker]
            .lock()
            .admit(bytes, &self.shared.inject);
        forward(admission, |d| self.inner.send(worker, d));
    }

    fn recv_until(&mut self, until: Instant) -> ConnEvent {
        self.inner.recv_until(until)
    }

    fn reconnect(&mut self) -> bool {
        self.inner.reconnect()
    }
}

/// Hand what a channel let through to a carrier, in order: each frame
/// intact, or the prefix of a frame cut by a disconnect.
fn forward(admission: Admission, mut send: impl FnMut(Delivery)) {
    match admission {
        Admission::Delivered(frames) => frames.into_iter().for_each(|f| send(Delivery::Intact(f))),
        Admission::Disconnected(prefix) => send(Delivery::Truncated(prefix)),
    }
}

/// Honest corruption: flip one bit somewhere past the length prefix (so
/// framing survives and the checksum — not resynchronization — catches it).
fn flip_byte(mut bytes: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
    if bytes.len() > PREFIX {
        let at = rng.gen_range(PREFIX..bytes.len());
        let bit = rng.gen_range(0..8u8);
        bytes[at] ^= 1u8 << bit;
    }
    bytes
}

/// The lying corruptor: rewrite the last payload byte of a response and
/// *recompute the checksum*, producing a frame the wire layer must accept.
/// Header-only frames (controls, empty payloads) are left alone — there is
/// nothing semantic to lie about.
fn rewrite_response(mut bytes: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
    let Some(last) = encoded_payload_mut(&mut bytes).last_mut() else {
        return bytes;
    };
    // Flip a low bit of the trailing payload byte: for counter/jam-word
    // (LE u64 values) this perturbs the high-order value byte, yielding
    // answers no honest execution produces; for enum-tag payloads it lands
    // on a tag or value byte. Either way the response decodes differently
    // (or not at all) while the checksum vouches for it.
    *last ^= 1u8 << rng.gen_range(0..2u8);
    seal(&mut bytes);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{request_frame, response_frame, Frame, WireCodec, WireError};
    use sbu_spec::specs::{CounterOp, CounterSpec};

    fn obs() -> (sbu_obs::Registry, InjectObs) {
        let registry = sbu_obs::Registry::new(1);
        let inject = InjectObs::register(&registry);
        (registry, inject)
    }

    fn a_frame(seq: u64) -> Vec<u8> {
        request_frame::<CounterSpec>(0, seq, 7, &CounterOp::Inc).to_bytes()
    }

    /// The frames one admission lets through (panics on a disconnect).
    fn through(chan: &mut FaultyChannel, bytes: Vec<u8>, obs: &InjectObs) -> Vec<Vec<u8>> {
        match chan.admit(bytes, obs) {
            Admission::Delivered(frames) => frames,
            Admission::Disconnected(prefix) => panic!("unexpected disconnect: {prefix:?}"),
        }
    }

    #[test]
    fn perfect_profile_is_a_plain_queue() {
        let (_reg, obs) = obs();
        let mut chan = FaultyChannel::new(FaultProfile::none(), 1, 0);
        for seq in 0..100 {
            assert_eq!(through(&mut chan, a_frame(seq), &obs), vec![a_frame(seq)]);
        }
        assert!(FaultProfile::default().is_none());
    }

    #[test]
    fn lossy_profile_injects_every_fault_kind_deterministically() {
        let run = |seed: u64| {
            let (reg, obs) = obs();
            let mut chan = FaultyChannel::new(FaultProfile::lossy(), seed, 0);
            let delivered: Vec<Vec<u8>> = (0..400)
                .flat_map(|seq| through(&mut chan, a_frame(seq), &obs))
                .collect();
            (reg.snapshot(), delivered)
        };
        let (snap, delivered) = run(42);
        if cfg!(feature = "obs") {
            for name in [
                "service.inject.drop",
                "service.inject.dup",
                "service.inject.corrupt",
                "service.inject.delay",
            ] {
                assert!(snap.counter(name) > 0, "{name} never fired over 400 frames");
            }
            assert_eq!(snap.counter("service.inject.lie"), 0, "lying is off");
        }
        // Same seed, same traffic ⇒ byte-identical delivery.
        let (_, again) = run(42);
        assert_eq!(delivered, again);
        // A different seed draws a different pattern.
        let (_, other) = run(43);
        assert_ne!(delivered, other);
    }

    #[test]
    fn corrupted_frames_fail_the_checksum() {
        let (_reg, obs) = obs();
        let profile = FaultProfile {
            corrupt: 1.0,
            ..FaultProfile::none()
        };
        let mut chan = FaultyChannel::new(profile, 9, 0);
        let frames = through(&mut chan, a_frame(1), &obs);
        let [bytes] = &frames[..] else {
            panic!("one corrupted frame, got {frames:?}");
        };
        // The flip never lands in the length prefix, so the frame keeps
        // its framing and the checksum is what catches it.
        match Frame::decode(bytes) {
            Err(WireError::Corrupt { .. }) => {}
            other => panic!("corruption went undetected: {other:?}"),
        }
    }

    #[test]
    fn lying_rewrite_passes_the_checksum_with_a_changed_payload() {
        let (_reg, obs) = obs();
        let profile = FaultProfile {
            lie: 1.0,
            ..FaultProfile::none()
        };
        let mut chan = FaultyChannel::new(profile, 5, 0);
        let req = request_frame::<CounterSpec>(0, 3, 7, &CounterOp::Read);
        let honest = response_frame::<CounterSpec>(&req, &41);
        let lie = through(&mut chan, honest.to_bytes(), &obs);
        let frame = Frame::decode(&lie[0]).expect("the lie is wire-valid");
        assert_eq!(frame.seq, 3);
        let value = CounterSpec::decode_resp(&frame.payload).expect("decodes");
        assert_ne!(value, 41, "the payload was rewritten");
        // Requests are never lied about (only responses carry answers).
        assert_eq!(
            through(&mut chan, req.to_bytes(), &obs),
            vec![req.to_bytes()]
        );
    }

    #[test]
    fn delayed_frames_are_released_behind_the_next_frame() {
        let (reg, obs) = obs();
        let profile = FaultProfile {
            delay: 1.0,
            ..FaultProfile::none()
        };
        let mut chan = FaultyChannel::new(profile, 2, 0);
        let (first, second) = (a_frame(1), a_frame(2));
        assert!(
            through(&mut chan, first.clone(), &obs).is_empty(),
            "frame 1 is held"
        );
        // Frame 2 was *also* delayed (rate 1.0), but it flushes frame 1.
        assert_eq!(through(&mut chan, second, &obs), vec![first]);
        if cfg!(feature = "obs") {
            assert_eq!(reg.snapshot().counter("service.inject.delay"), 2);
        }
    }

    #[test]
    fn a_delayed_frame_goes_out_behind_the_frame_that_passes_it() {
        let (_reg, obs) = obs();
        let mut chan = FaultyChannel::new(FaultProfile::none(), 2, 0);
        let (first, second) = (a_frame(1), a_frame(2));
        chan.held = Some(first.clone());
        assert_eq!(
            through(&mut chan, second.clone(), &obs),
            vec![second, first]
        );
    }

    #[test]
    fn disconnect_truncates_the_frame_and_reports_the_cut() {
        let (reg, obs) = obs();
        let profile = FaultProfile {
            disconnect: 1.0,
            ..FaultProfile::none()
        };
        let mut chan = FaultyChannel::new(profile, 4, 0);
        let frame = a_frame(1);
        match chan.admit(frame.clone(), &obs) {
            Admission::Disconnected(prefix) => {
                assert!(prefix.len() < frame.len(), "a strict prefix");
                assert!(!prefix.is_empty(), "at least one byte went out");
                assert_eq!(&frame[..prefix.len()], &prefix[..]);
            }
            Admission::Delivered(frames) => {
                panic!("disconnect at rate 1.0 must fire, got {frames:?}")
            }
        }
        if cfg!(feature = "obs") {
            assert_eq!(reg.snapshot().counter("service.inject.disconnect"), 1);
        }
    }
}
