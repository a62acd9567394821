//! The cell axes (object × backend), expected-verdict rules, and the
//! per-cell result record.
//!
//! A *cell* is one (scenario, object, backend) combination. The matrix
//! crosses every registered scenario against every object and backend;
//! cells that are semantically meaningless (a lying backend under an
//! object whose internal invariants *panic* on lies rather than surfacing
//! a clean violation — see `sbu_stress::workloads`) are explicit
//! [`Verdict::Skipped`] entries, never silent holes, so a skip showing up
//! where a run used to be is visible to the coverage comparator.

/// Which object family a cell drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioObject {
    /// Raw sticky bits (one CAS word each) under `StickySpec`.
    Sticky,
    /// The Figure 2 sticky byte (`JamWord`, width 8) with helping; on the
    /// durable backend, its recoverable variant (`RecoverableJamWord`).
    JamWord,
    /// The bounded universal construction wrapping a counter; on the
    /// durable backend, its recoverable variant.
    Counter,
}

impl ScenarioObject {
    /// All objects, in canonical (report) order.
    pub fn all() -> [ScenarioObject; 3] {
        [
            ScenarioObject::Sticky,
            ScenarioObject::JamWord,
            ScenarioObject::Counter,
        ]
    }

    /// Stable report/JSON key.
    pub fn key(self) -> &'static str {
        match self {
            ScenarioObject::Sticky => "sticky",
            ScenarioObject::JamWord => "jam-word",
            ScenarioObject::Counter => "counter",
        }
    }
}

impl std::fmt::Display for ScenarioObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

impl std::str::FromStr for ScenarioObject {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sticky" => Ok(ScenarioObject::Sticky),
            "jam-word" => Ok(ScenarioObject::JamWord),
            "counter" => Ok(ScenarioObject::Counter),
            other => Err(format!(
                "unknown object {other:?} (sticky|jam-word|counter)"
            )),
        }
    }
}

/// Which memory backend a cell runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioBackend {
    /// Plain native atomics (`NativeMem`); crash pressure is
    /// crash-by-abandonment inside the harness.
    Native,
    /// `DurableMem` over native atomics with the honest persist policy;
    /// crash pressure is real crash–restart eras with recovery.
    Durable,
    /// The adversary preset: a lying memory. Raw sticky cells run over
    /// `TornMem` (torn-jam lies on a period); the durable jam cell runs
    /// crash–restart with `TornPersist::Lying` (acknowledged-then-rolled-
    /// back persists). Expected verdict: **caught**.
    TornLying,
    /// The sharded `sbu-service` runtime: every torture object becomes a
    /// distinct *key* routed through the wire protocol to a per-shard,
    /// per-key universal construction, and the online monitor checks each
    /// key's history exactly as it checks any other backend's objects —
    /// so the whole client → frame → router → shard → `Universal` stack is
    /// under the linearizability microscope. Honest; expected **pass**.
    Service,
    /// The service runtime behind a seeded lossy transport
    /// (`FaultProfile::lossy`): frames are dropped, duplicated, corrupted
    /// and delayed (a delayed frame goes out behind the next one, the
    /// wire's only reordering); clients retransmit with backoff and the
    /// workers' dedup windows keep every acked op exactly-once. Volatile
    /// shards, no kills (a volatile respawn loses acked state by design,
    /// which the monitor would rightly flag — that contract is pinned in
    /// the service crate's own tests). Honest faults; expected **pass**.
    ServiceFaulty,
    /// The same lossy transport over `DurableMem`-backed shards, plus —
    /// when the scenario sets a `kill_period` — seeded worker kills: a
    /// kill runs the real crash–restart protocol and per-key
    /// `Universal::recover`, so no acked op may be lost.
    /// Expected **pass**.
    ServiceDurable,
    /// The transport adversary: a lossy wire that additionally rewrites
    /// response payloads into *wire-valid semantic lies* (checksum
    /// recomputed). Retries absorb garbled frames, but the monitor must
    /// catch the lies. Expected verdict: **caught**.
    ServiceLying,
    /// The service runtime with its clients dialed over a **real
    /// Unix-domain socket**: every op crosses the kernel as length-framed
    /// bytes, through the acceptor's reader threads and the incremental
    /// `FrameDecoder`, before reaching the same router → shard → per-key
    /// `Universal` stack. No injected faults — this cell pins the socket
    /// seam itself (framing, writer registration, per-connection teardown)
    /// under every classic load shape. Honest; expected **pass**.
    ServiceSocket,
}

impl ScenarioBackend {
    /// All backends, in canonical (report) order.
    pub fn all() -> [ScenarioBackend; 8] {
        [
            ScenarioBackend::Native,
            ScenarioBackend::Durable,
            ScenarioBackend::TornLying,
            ScenarioBackend::Service,
            ScenarioBackend::ServiceFaulty,
            ScenarioBackend::ServiceDurable,
            ScenarioBackend::ServiceLying,
            ScenarioBackend::ServiceSocket,
        ]
    }

    /// Stable report/JSON key.
    pub fn key(self) -> &'static str {
        match self {
            ScenarioBackend::Native => "native",
            ScenarioBackend::Durable => "durable",
            ScenarioBackend::TornLying => "torn-lying",
            ScenarioBackend::Service => "service",
            ScenarioBackend::ServiceFaulty => "service-faulty",
            ScenarioBackend::ServiceDurable => "service-durable",
            ScenarioBackend::ServiceLying => "service-lying",
            ScenarioBackend::ServiceSocket => "service-socket",
        }
    }

    /// Whether this backend tells lies the monitor is expected to catch.
    pub fn is_adversarial(self) -> bool {
        matches!(
            self,
            ScenarioBackend::TornLying | ScenarioBackend::ServiceLying
        )
    }

    /// Whether this backend runs the service under the transport fault
    /// plane (lossy wire and/or worker kills). Fault-plane backends run
    /// only in `transport` scenarios; everything else runs only in
    /// classic scenarios.
    pub fn is_fault_plane(self) -> bool {
        matches!(
            self,
            ScenarioBackend::ServiceFaulty
                | ScenarioBackend::ServiceDurable
                | ScenarioBackend::ServiceLying
        )
    }
}

impl std::fmt::Display for ScenarioBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

impl std::str::FromStr for ScenarioBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "native" => Ok(ScenarioBackend::Native),
            "durable" => Ok(ScenarioBackend::Durable),
            "torn-lying" => Ok(ScenarioBackend::TornLying),
            "service" => Ok(ScenarioBackend::Service),
            "service-faulty" => Ok(ScenarioBackend::ServiceFaulty),
            "service-durable" => Ok(ScenarioBackend::ServiceDurable),
            "service-lying" => Ok(ScenarioBackend::ServiceLying),
            "service-socket" => Ok(ScenarioBackend::ServiceSocket),
            other => Err(format!(
                "unknown backend {other:?} (native|durable|torn-lying|service|\
                 service-faulty|service-durable|service-lying|service-socket)"
            )),
        }
    }
}

/// The outcome of one cell, as reported and fed to the coverage signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Honest cell: every window linearized (durable cells: every era cut
    /// durably linearized).
    Pass,
    /// Adversarial cell: the monitor reported the injected lies. The *good*
    /// outcome for [`ScenarioBackend::TornLying`].
    Caught,
    /// Honest cell reported a violation — a real bug in the objects or the
    /// backend.
    Violation,
    /// Adversarial cell linearized cleanly: the lies escaped the monitor.
    Escaped,
    /// Windows outgrew the checker's capacity; the cell ran but was not
    /// fully verified.
    Unverified,
    /// Cell is semantically meaningless and intentionally not run.
    Skipped,
}

impl Verdict {
    /// Stable report/JSON key.
    pub fn key(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Caught => "caught",
            Verdict::Violation => "violation",
            Verdict::Escaped => "escaped",
            Verdict::Unverified => "unverified",
            Verdict::Skipped => "skipped",
        }
    }

    /// Parse a report/JSON key back into a verdict.
    pub fn parse(s: &str) -> Option<Verdict> {
        Some(match s {
            "pass" => Verdict::Pass,
            "caught" => Verdict::Caught,
            "violation" => Verdict::Violation,
            "escaped" => Verdict::Escaped,
            "unverified" => Verdict::Unverified,
            "skipped" => Verdict::Skipped,
            _ => return None,
        })
    }

    /// Whether this verdict matches expectations (skips count as fine; the
    /// coverage comparator separately flags cells that *become* skips).
    pub fn is_ok(self) -> bool {
        matches!(self, Verdict::Pass | Verdict::Caught | Verdict::Skipped)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// The expected verdict for a cell (before running it): adversarial
/// backends must be caught, honest ones must pass. Skip rules live in
/// [`skip_reason`].
pub fn expected_verdict(backend: ScenarioBackend) -> Verdict {
    if backend.is_adversarial() {
        Verdict::Caught
    } else {
        Verdict::Pass
    }
}

/// Threads the jam-word cell on the `torn-lying` backend needs: a lying
/// torn persist makes recovery disagree only with at least this many
/// announcers, so with fewer the lie cannot surface and the monitor has
/// nothing to catch.
pub(crate) const LYING_PERSIST_ANNOUNCERS: usize = 3;

/// Why a cell is intentionally not run under a thread cap of `thread_cap`
/// (`RunConfig::max_threads`, `0` = none); `None` = it runs.
///
/// Three rule families:
///
/// * **Fault-plane gating.** Transport scenarios (lossy wire, worker
///   kills) run only the fault-plane service backends; classic scenarios
///   run only the classic backends. Both directions are explicit skips so
///   the coverage comparator sees every cell.
/// * **Lying sticky bits.** The `TornLying` backend targets the raw
///   sticky-bit layer; the universal construction *panics* on lying bits
///   (its helping invariants break) instead of producing a cleanly
///   checkable non-linearizable history, so that cell cannot distinguish
///   "caught" from "crashed".
/// * **Thread cap.** A cap below 3 leaves the jam-word `TornLying` cell
///   too few announcers for a lying torn persist to make recovery
///   disagree, so it is skipped rather than reported as an escape (or,
///   worse, a pass).
pub fn skip_reason(
    scenario: &crate::Scenario,
    object: ScenarioObject,
    backend: ScenarioBackend,
    thread_cap: usize,
) -> Option<&'static str> {
    if scenario.transport && !backend.is_fault_plane() {
        return Some("transport scenarios exercise only the fault-plane service backends");
    }
    if !scenario.transport && backend.is_fault_plane() {
        return Some("fault-plane backends run only in transport scenarios");
    }
    match (object, backend) {
        (ScenarioObject::Counter, ScenarioBackend::TornLying) => Some(
            "universal construction panics on lying sticky bits (helping invariant) \
             rather than surfacing a checkable violation",
        ),
        (ScenarioObject::JamWord, ScenarioBackend::TornLying)
            if (1..LYING_PERSIST_ANNOUNCERS).contains(&thread_cap) =>
        {
            Some(
                "the --max-threads cap leaves fewer than the 3 announcers a lying \
                 torn persist needs to make recovery disagree",
            )
        }
        _ => None,
    }
}

/// Aggregated result of one cell (all phases merged).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Object axis.
    pub object: ScenarioObject,
    /// Backend axis.
    pub backend: ScenarioBackend,
    /// What the matrix demanded of this cell.
    pub expected: Verdict,
    /// What actually happened.
    pub verdict: Verdict,
    /// Operations issued across all phases (completed + abandoned).
    pub total_ops: usize,
    /// Operations that returned.
    pub completed_ops: usize,
    /// Quiescent windows (or durable era cuts) the monitor consumed.
    pub windows_checked: usize,
    /// Violation descriptions (non-empty exactly for `Caught`/`Violation`).
    pub violations: Vec<String>,
    /// Why the cell was not run ([`skip_reason`]'s answer; `Some` exactly
    /// for `Skipped` cells).
    pub skip_reason: Option<&'static str>,
    /// Merged observability snapshot across the cell's phases (empty
    /// without the `obs` feature).
    pub metrics: sbu_obs::Snapshot,
    /// The seed this cell derived from the run seed (reports cite it so a
    /// single cell can be re-run in isolation).
    pub seed: u64,
}

impl CellResult {
    /// Whether the cell did what the matrix demanded.
    pub fn is_ok(&self) -> bool {
        self.verdict == self.expected || self.verdict == Verdict::Skipped
    }

    /// Stable `object/backend` key used in JSON and coverage signatures.
    pub fn key(&self) -> String {
        format!("{}/{}", self.object.key(), self.backend.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_have_stable_orders_and_keys() {
        let objects: Vec<_> = ScenarioObject::all().iter().map(|o| o.key()).collect();
        assert_eq!(objects, ["sticky", "jam-word", "counter"]);
        let backends: Vec<_> = ScenarioBackend::all().iter().map(|b| b.key()).collect();
        assert_eq!(
            backends,
            [
                "native",
                "durable",
                "torn-lying",
                "service",
                "service-faulty",
                "service-durable",
                "service-lying",
                "service-socket"
            ]
        );
        for o in ScenarioObject::all() {
            assert_eq!(o.key().parse::<ScenarioObject>(), Ok(o));
        }
        for b in ScenarioBackend::all() {
            assert_eq!(b.key().parse::<ScenarioBackend>(), Ok(b));
        }
    }

    #[test]
    fn verdict_keys_round_trip() {
        for v in [
            Verdict::Pass,
            Verdict::Caught,
            Verdict::Violation,
            Verdict::Escaped,
            Verdict::Unverified,
            Verdict::Skipped,
        ] {
            assert_eq!(Verdict::parse(v.key()), Some(v));
        }
        assert_eq!(Verdict::parse("ok"), None);
    }

    #[test]
    fn expectations_follow_the_adversary_rule() {
        for b in ScenarioBackend::all() {
            let expected = expected_verdict(b);
            if b.is_adversarial() {
                assert_eq!(expected, Verdict::Caught, "{b}");
            } else {
                assert_eq!(expected, Verdict::Pass, "{b}");
            }
        }
        assert!(ScenarioBackend::TornLying.is_adversarial());
        assert!(ScenarioBackend::ServiceLying.is_adversarial());
        assert!(!ScenarioBackend::Service.is_adversarial());
        assert!(!ScenarioBackend::ServiceFaulty.is_adversarial());
        assert!(!ScenarioBackend::ServiceSocket.is_adversarial());
        assert!(!ScenarioBackend::ServiceSocket.is_fault_plane());
    }

    #[test]
    fn skips_partition_backends_by_fault_plane() {
        let classic = crate::scenario::find("steady-state").unwrap();
        let transport = crate::scenario::find("lossy-transport").unwrap();
        for cap in [0, 1, 2, 3] {
            for o in ScenarioObject::all() {
                for b in ScenarioBackend::all() {
                    // Classic scenarios: fault-plane backends skip; among
                    // the rest the lying counter cell skips, and so does
                    // the lying jam-word cell under a cap below 3.
                    let classic_skip = skip_reason(&classic, o, b, cap);
                    let capped_jam = (o, b)
                        == (ScenarioObject::JamWord, ScenarioBackend::TornLying)
                        && (cap == 1 || cap == 2);
                    assert_eq!(
                        classic_skip.is_some(),
                        b.is_fault_plane()
                            || (o, b) == (ScenarioObject::Counter, ScenarioBackend::TornLying)
                            || capped_jam,
                        "classic {o}/{b} cap {cap}"
                    );
                    if capped_jam {
                        let reason = classic_skip.unwrap();
                        assert!(reason.contains("--max-threads"), "{reason}");
                    }
                    // Transport scenarios: exactly the fault-plane
                    // backends run.
                    let transport_skip = skip_reason(&transport, o, b, cap).is_some();
                    assert_eq!(
                        transport_skip,
                        !b.is_fault_plane(),
                        "transport {o}/{b} cap {cap}"
                    );
                }
            }
        }
    }
}
