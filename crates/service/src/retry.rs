//! Client-side reliability: per-request deadlines, the retransmission
//! timer, and the typed error surface.
//!
//! The service keys retransmissions by the `(client, seq)` pair the wire
//! protocol already carries: a retried request reuses its original `seq`,
//! so the server's per-client dedup window (the last 64 responses) can
//! answer it from cache instead of re-applying — that pairing is what
//! makes the retry loop *exactly-once* end to end.
//!
//! When a retransmission fires is decided per client by `Rto`, the
//! RFC 6298 timer: a smoothed round trip and its variation, fed only by
//! replies to requests sent exactly once (Karn's rule), floored by
//! [`RetryPolicy::attempt_timeout`], doubled on every expiry and capped at
//! 160 ms (or at the floor, if that is higher). Each timeout carries
//! deterministic ±25% jitter derived by hashing `(seed, client, seq,
//! attempt)` — stateless, so no RNG handle has to thread through the
//! client path and identical runs jitter identically. The client's other
//! loss signal, a reply that overtook an older request to the same
//! worker, lives in [`Pending::wait`](crate::Pending::wait).

use std::time::Duration;

/// The retransmission timer's ceiling as it backs off; a floor above it
/// wins.
const MAX_ATTEMPT_TIMEOUT: Duration = Duration::from_millis(160);

/// Client-side retry policy: the bounds of the retransmission timer and
/// the hard per-request deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// The retransmission timer's floor and starting value. `None` means
    /// attempts never time out (only the [`deadline`](Self::deadline)
    /// bounds the wait) and the client keeps no timer state at all —
    /// right for a perfect transport, wrong for a lossy one.
    ///
    /// With `Some(floor)`, each client runs an RFC 6298 timer: before its
    /// first round-trip sample the timeout is `floor`; after it, `SRTT +
    /// 4·RTTVAR`, never below `floor`. Every expiry doubles the timeout
    /// (up to 160 ms, or `floor` if that is higher) until the next valid
    /// sample, and each transmission's timer runs from its own send
    /// instant.
    pub attempt_timeout: Option<Duration>,
    /// Hard per-request deadline: when it expires the call returns a typed
    /// error instead of blocking forever.
    pub deadline: Duration,
}

impl RetryPolicy {
    /// The default policy for a trusted in-process transport: no
    /// retransmission (attempts never time out), but a generous hard
    /// deadline so a lost reply surfaces as a typed error rather than a
    /// hung thread.
    pub const fn patient() -> Self {
        Self {
            attempt_timeout: None,
            deadline: Duration::from_secs(30),
        }
    }

    /// The lossy-transport policy: a measured-round-trip timer floored at
    /// 250 µs, backing off to a 160 ms ceiling, giving up after 10 s.
    /// Most losses never wait for the timer: a reply that overtakes an
    /// older request to the same worker retransmits it at once (see
    /// [`Pending::wait`](crate::Pending::wait)).
    pub const fn lossy() -> Self {
        Self {
            attempt_timeout: Some(Duration::from_micros(250)),
            deadline: Duration::from_secs(10),
        }
    }

    /// This policy with a different hard deadline.
    pub const fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// This policy with a different timer floor (which is also the
    /// timer's value before the first round-trip sample). A floor above
    /// the 160 ms backoff ceiling pins the timer at the floor.
    pub const fn with_attempt_timeout(mut self, timeout: Duration) -> Self {
        self.attempt_timeout = Some(timeout);
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::patient()
    }
}

/// One client's retransmission timer (RFC 6298 with Karn's rule).
///
/// `SRTT` and `RTTVAR` follow §2 with α = 1/8 and β = 1/4 in integer
/// nanoseconds; the timeout is `SRTT + 4·RTTVAR` clamped to
/// `[attempt_timeout, MAX_ATTEMPT_TIMEOUT]`. The caller reports every
/// reply to [`sample`](Self::sample), which keeps only those to requests
/// transmitted once, and calls [`back_off`](Self::back_off) on every
/// expiry; the doubled value stands until the next kept sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rto {
    /// Smoothed round trip (ns); `None` until the first sample.
    srtt: Option<u64>,
    /// Round-trip variation (ns).
    rttvar: u64,
    /// The current timeout before jitter (ns).
    rto: u64,
    floor: u64,
    ceiling: u64,
}

impl Rto {
    /// The timer `policy` asks for, or `None` when its attempts never time
    /// out.
    pub(crate) fn new(policy: &RetryPolicy) -> Option<Self> {
        Some(Self::clamped(policy.attempt_timeout?, MAX_ATTEMPT_TIMEOUT))
    }

    /// A fresh timer starting at `floor`, backing off to `ceiling` (or to
    /// `floor`, if that is higher).
    fn clamped(floor: Duration, ceiling: Duration) -> Self {
        let floor = nanos(floor);
        Self {
            srtt: None,
            rttvar: 0,
            rto: floor,
            floor,
            ceiling: nanos(ceiling).max(floor),
        }
    }

    /// Fold the round trip of a reply to a request sent `transmissions`
    /// times into the estimate and recompute the timeout, ending any
    /// backoff. Karn's rule: a reply to a retransmitted request cannot say
    /// which transmission it answers, so it is ignored.
    pub(crate) fn sample(&mut self, rtt: Duration, transmissions: u32) {
        if transmissions != 1 {
            return;
        }
        let r = nanos(rtt);
        let (srtt, rttvar) = match self.srtt {
            None => (r, r / 2),
            // RTTVAR uses the SRTT from before this sample (§2.3).
            Some(srtt) => (
                srtt - srtt / 8 + r / 8,
                self.rttvar - self.rttvar / 4 + srtt.abs_diff(r) / 4,
            ),
        };
        self.srtt = Some(srtt);
        self.rttvar = rttvar;
        self.rto = srtt
            .saturating_add(rttvar.saturating_mul(4))
            .clamp(self.floor, self.ceiling);
    }

    /// An expiry: double the timeout, up to the ceiling (§5.5).
    pub(crate) fn back_off(&mut self) {
        self.rto = self.rto.saturating_mul(2).min(self.ceiling);
    }

    /// The timeout for transmission `attempt` (1-based) of `(client, seq)`:
    /// the current value with ±25% jitter keyed on the retry coordinates,
    /// so a fleet of clients that timed out together does not retransmit
    /// in lockstep.
    pub(crate) fn timeout(&self, seed: u64, client: u32, seq: u64, attempt: u32) -> Duration {
        jittered(Duration::from_nanos(self.rto), seed, client, seq, attempt)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `duration` ± 25%, decided by hashing the retry coordinates (splitmix64).
fn jittered(duration: Duration, seed: u64, client: u32, seq: u64, attempt: u32) -> Duration {
    let mut x = seed
        ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ seq.rotate_left(17)
        ^ (attempt as u64) << 48;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let nanos = duration.as_nanos() as u64;
    // quarter-span jitter: [-25%, +25%] of the duration.
    let span = nanos / 2;
    let offset = if span == 0 { 0 } else { x % (span + 1) };
    Duration::from_nanos(nanos - nanos / 4 + offset)
}

/// Why a service request failed. All variants are *typed* outcomes the
/// harness layers can tell apart: capacity shedding ([`Busy`]), a crashed
/// volatile shard ([`Unavailable`]), or a deadline with no verdict at all
/// ([`Deadline`]). A reply that does not decode is never an outcome: the
/// client retransmits until a good reply or the deadline.
///
/// [`Busy`]: ServiceError::Busy
/// [`Unavailable`]: ServiceError::Unavailable
/// [`Deadline`]: ServiceError::Deadline
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The per-request deadline expired with no reply.
    Deadline {
        /// Requesting client.
        client: u32,
        /// The request's sequence number.
        seq: u64,
        /// Send attempts made (1 = never retransmitted).
        attempts: u32,
    },
    /// The last word before the deadline was a `Busy` control frame: the
    /// request was shed at a mailbox high watermark. Capacity, not
    /// correctness: back off and retry.
    Busy {
        /// Requesting client.
        client: u32,
        /// The request's sequence number.
        seq: u64,
        /// Send attempts made.
        attempts: u32,
    },
    /// The owning shard worker crashed with the request in flight and its
    /// volatile state was lost. Retryable; the retry lands on the
    /// respawned shard.
    Unavailable {
        /// Requesting client.
        client: u32,
        /// The request's sequence number.
        seq: u64,
        /// Send attempts made.
        attempts: u32,
    },
}

impl ServiceError {
    /// Whether this is the capacity-shedding outcome.
    pub fn is_busy(&self) -> bool {
        matches!(self, ServiceError::Busy { .. })
    }

    /// Whether this is the crashed-volatile-shard outcome.
    pub fn is_unavailable(&self) -> bool {
        matches!(self, ServiceError::Unavailable { .. })
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Deadline {
                client,
                seq,
                attempts,
            } => write!(
                f,
                "deadline expired: client {client} seq {seq} after {attempts} attempt(s)"
            ),
            ServiceError::Busy {
                client,
                seq,
                attempts,
            } => write!(
                f,
                "busy: client {client} seq {seq} shed at capacity after {attempts} attempt(s)"
            ),
            ServiceError::Unavailable {
                client,
                seq,
                attempts,
            } => write!(
                f,
                "unavailable: client {client} seq {seq} lost to a shard crash after {attempts} attempt(s)"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The typed error for an expired deadline: classified by the last control
/// frame heard (`Busy`/`Unavailable` beat a bare `Deadline`, because they
/// tell the caller *why* the deadline ran out).
pub(crate) fn deadline_error(
    client: u32,
    seq: u64,
    attempts: u32,
    last_control: Option<u8>,
) -> ServiceError {
    use crate::wire::{KIND_BUSY, KIND_UNAVAILABLE};
    match last_control {
        Some(KIND_BUSY) => ServiceError::Busy {
            client,
            seq,
            attempts,
        },
        Some(KIND_UNAVAILABLE) => ServiceError::Unavailable {
            client,
            seq,
            attempts,
        },
        _ => ServiceError::Deadline {
            client,
            seq,
            attempts,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Duration = Duration::from_micros(1);

    fn timer(floor_us: u32, ceiling_us: u32) -> Rto {
        Rto::clamped(US * floor_us, US * ceiling_us)
    }

    /// The un-jittered timeout, in µs.
    fn rto_us(t: &Rto) -> u64 {
        t.rto / 1_000
    }

    impl Rto {
        /// A round trip of `us` µs for a request sent once.
        fn sample_us(&mut self, us: u32) {
            self.sample(US * us, 1);
        }
    }

    #[test]
    fn patient_policy_never_retransmits_but_has_a_deadline() {
        let p = RetryPolicy::patient();
        assert_eq!(Rto::new(&p), None, "no floor, no timer state");
        assert_eq!(p.deadline, Duration::from_secs(30));
        assert_eq!(RetryPolicy::default(), p);
    }

    #[test]
    fn the_floor_is_the_starting_value() {
        let t = Rto::new(&RetryPolicy::lossy()).unwrap();
        assert_eq!(t.rto, 250_000, "lossy() starts at its 250 µs floor");
        assert_eq!(t.ceiling, 160_000_000, "and backs off to 160 ms");
        assert_eq!(t.srtt, None);
        assert_eq!(rto_us(&timer(10_000, 160_000)), 10_000);
    }

    #[test]
    fn samples_follow_rfc_6298_arithmetic() {
        // Floor 1 µs so the clamp stays out of the way.
        let mut t = timer(1, 1_000_000);
        // First sample R: SRTT = R, RTTVAR = R/2, RTO = SRTT + 4·RTTVAR.
        t.sample_us(800);
        assert_eq!((t.srtt, t.rttvar), (Some(800_000), 400_000));
        assert_eq!(rto_us(&t), 800 + 4 * 400);
        // Then RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R| (old SRTT), and
        // SRTT = 7/8·SRTT + 1/8·R.
        t.sample_us(1_600);
        assert_eq!((t.srtt, t.rttvar), (Some(900_000), 500_000));
        assert_eq!(rto_us(&t), 900 + 4 * 500);
        t.sample_us(100);
        assert_eq!((t.srtt, t.rttvar), (Some(800_000), 575_000));
        assert_eq!(rto_us(&t), 800 + 4 * 575);
        // A steady round trip shrinks the variation geometrically.
        for _ in 0..200 {
            t.sample_us(800);
        }
        assert_eq!(t.srtt, Some(800_000));
        assert!(t.rttvar < 1_000, "rttvar {} ns", t.rttvar);
    }

    #[test]
    fn the_timeout_is_clamped_to_floor_and_ceiling() {
        let mut t = timer(500, 4_000);
        t.sample_us(10);
        assert_eq!(rto_us(&t), 500, "a fast path never undercuts the floor");
        t.sample_us(50_000);
        assert_eq!(rto_us(&t), 4_000, "a slow sample is capped");
        // A floor above the ceiling wins.
        let mut pinned = timer(5_000_000, 160_000);
        assert_eq!(rto_us(&pinned), 5_000_000);
        pinned.back_off();
        assert_eq!(rto_us(&pinned), 5_000_000);
    }

    #[test]
    fn backoff_doubles_and_holds_until_the_next_sample() {
        let mut t = timer(500, 160_000);
        t.sample_us(400);
        assert_eq!(rto_us(&t), 400 + 4 * 200);
        for want in [
            2_400, 4_800, 9_600, 19_200, 38_400, 76_800, 153_600, 160_000, 160_000,
        ] {
            t.back_off();
            assert_eq!(rto_us(&t), want);
            // Nothing but a sample brings it back: asking for timeouts
            // (any attempt, any request) leaves the backed-off value.
            let _ = t.timeout(7, 1, 9, 2);
            assert_eq!(rto_us(&t), want);
        }
        // The next valid sample recomputes from SRTT/RTTVAR.
        t.sample_us(400);
        assert_eq!(rto_us(&t), 400 + 4 * 150);
    }

    #[test]
    fn karn_a_retransmitted_request_feeds_no_sample() {
        let mut t = timer(500, 160_000);
        t.sample_us(800);
        t.back_off();
        let held = t;
        // The reply to a request sent twice is ambiguous: no sample, and
        // the backoff stands.
        t.sample(US * 9_000, 2);
        assert_eq!(t, held);
        t.sample(US * 100, 3);
        assert_eq!(t, held);
        // The next request sent once is sampled and ends the backoff.
        t.sample_us(800);
        assert_eq!(t.srtt, Some(800_000));
        assert_eq!(rto_us(&t), 800 + 4 * 300);
    }

    #[test]
    fn jitter_stays_within_a_quarter_of_the_timeout() {
        let mut t = timer(500, 160_000);
        for round in 0..12u32 {
            let nominal = Duration::from_nanos(t.rto);
            for seq in 0..64 {
                let d = t.timeout(7, 3, seq, round + 1);
                assert!(d >= nominal - nominal / 4, "{d:?} vs {nominal:?}");
                assert!(d <= nominal + nominal / 4, "{d:?} vs {nominal:?}");
            }
            t.back_off();
        }
    }

    #[test]
    fn jitter_is_deterministic_and_keyed() {
        let t = Rto::new(&RetryPolicy::lossy()).unwrap();
        let a = t.timeout(42, 1, 9, 3);
        assert_eq!(t.timeout(42, 1, 9, 3), a);
        // Different coordinates draw different jitter (with overwhelming
        // probability; these particular points do differ).
        let b = t.timeout(42, 2, 9, 3);
        let c = t.timeout(42, 1, 9, 4);
        assert!(a != b || a != c, "jitter ignores its key");
    }

    #[test]
    fn errors_classify_and_print() {
        let busy = ServiceError::Busy {
            client: 1,
            seq: 2,
            attempts: 3,
        };
        assert!(busy.is_busy() && !busy.is_unavailable());
        let unavail = ServiceError::Unavailable {
            client: 0,
            seq: 9,
            attempts: 1,
        };
        assert!(unavail.is_unavailable() && !unavail.is_busy());
        let deadline = ServiceError::Deadline {
            client: 4,
            seq: 5,
            attempts: 6,
        };
        assert!(!deadline.is_busy() && !deadline.is_unavailable());
        for e in [&busy, &unavail, &deadline] {
            assert!(!e.to_string().is_empty());
        }
        assert!(busy.to_string().contains("client 1 seq 2"));
    }
}
