//! Cell execution: run one (scenario, object, backend) cell phase by
//! phase, merge the per-phase reports, and derive the verdict.
//!
//! # Seeds
//!
//! Every cell derives its seed deterministically from the run seed and the
//! cell's coordinates (FNV-1a over `scenario/object/backend`, finalized
//! with a splitmix64 round), so cells are independent of each other and of
//! registry order: adding a scenario never changes another cell's stream.
//! Reports cite the derived seed so a single cell can be re-run alone.
//!
//! # Adversarial batteries
//!
//! Adversarial cells ([`ScenarioBackend::TornLying`],
//! [`ScenarioBackend::ServiceLying`]) run each phase as a
//! small battery of [`ADVERSARY_RUNS`] sub-runs with derived sub-seeds,
//! accumulating violations: whether one particular schedule's lies land
//! inside a checked window is seed-dependent, but the *monitor having
//! teeth* is not — across the battery the lies must be caught. The battery
//! is part of the cell's deterministic definition, not a retry loop.

use crate::matrix::{
    expected_verdict, skip_reason, CellResult, ScenarioBackend, ScenarioObject, Verdict,
    LYING_PERSIST_ANNOUNCERS,
};
use crate::scenario::{Phase, Scenario};
use rand::Rng;
use sbu_mem::{native::NativeMem, DurableMem, JamOutcome, Pid, TornPersist, WordMem};
use sbu_spec::specs::{StickyOp, StickyResp, StickySpec};
use sbu_stress::{
    run_crash_restart, run_workload, torture, CrashWorkload, Inject, StressConfig, StressObject,
    TornMem, Workload,
};

/// Sub-runs per phase for adversarial cells (see the module docs).
pub const ADVERSARY_RUNS: u64 = 3;

/// Knobs of one matrix run (everything else comes from the descriptors).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Clamp every phase's thread count (`0` = use the descriptor's).
    /// `--max-threads 1` makes whole runs bit-deterministic (single-worker
    /// histories do not depend on OS scheduling).
    pub max_threads: usize,
    /// Multiplier on every phase's per-thread op count (`1` = smoke).
    pub ops_factor: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 42,
            max_threads: 0,
            ops_factor: 1,
        }
    }
}

/// Result of one scenario: its descriptor plus every cell's outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// One result per (object, backend) cell, in canonical axis order.
    pub cells: Vec<CellResult>,
}

impl ScenarioResult {
    /// Whether every cell did what the matrix demanded.
    pub fn is_ok(&self) -> bool {
        self.cells.iter().all(|c| c.is_ok())
    }
}

/// 64-bit FNV-1a, the cell-coordinate hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One splitmix64 finalization round (decorrelates nearby seeds).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic seed of one cell.
pub fn cell_seed(run_seed: u64, scenario: &str, object: ScenarioObject, b: ScenarioBackend) -> u64 {
    let key = format!("{scenario}/{}/{}", object.key(), b.key());
    splitmix(run_seed ^ fnv1a(key.as_bytes()))
}

/// Merge `add` into `into` via [`sbu_obs::Snapshot::merge`], keeping the
/// result sorted by name so merged snapshots are order-independent.
fn merge_snapshot(into: &mut sbu_obs::Snapshot, add: &sbu_obs::Snapshot) {
    into.merge(add);
    into.counters.sort_by(|a, b| a.0.cmp(&b.0));
    into.histograms.sort_by(|a, b| a.0.cmp(&b.0));
}

/// Counts folded out of one phase run, backend-agnostic.
struct PhaseOutcome {
    total_ops: usize,
    completed_ops: usize,
    windows_checked: usize,
    violations: Vec<String>,
    unverified: usize,
    metrics: sbu_obs::Snapshot,
}

impl From<sbu_stress::TortureReport> for PhaseOutcome {
    fn from(r: sbu_stress::TortureReport) -> Self {
        PhaseOutcome {
            total_ops: r.total_ops,
            completed_ops: r.completed_ops,
            windows_checked: r.windows_checked,
            unverified: r.overflow_windows,
            violations: r.violations,
            metrics: r.metrics,
        }
    }
}

impl From<sbu_stress::CrashRestartReport> for PhaseOutcome {
    fn from(r: sbu_stress::CrashRestartReport) -> Self {
        PhaseOutcome {
            total_ops: r.total_ops,
            completed_ops: r.completed_ops,
            // Durable cells are checked per era cut; count eras as the
            // windows the offline checker consumed.
            windows_checked: r.eras,
            unverified: r.unverified_objects,
            violations: r.violations,
            metrics: r.metrics,
        }
    }
}

/// The stress-harness sizing of one phase under `rc`.
fn stress_config(phase: &Phase, rc: &RunConfig, seed: u64) -> StressConfig {
    let threads = if rc.max_threads > 0 {
        phase.threads.min(rc.max_threads)
    } else {
        phase.threads
    };
    let mut cfg = StressConfig::new(threads, phase.ops_per_thread * rc.ops_factor.max(1), seed);
    cfg.objects = phase.objects;
    cfg.profile = phase.profile;
    cfg.perturb = phase.perturb;
    cfg.crash_threads = phase.crash_threads.min(threads);
    cfg.epoch_ops = phase.epoch_ops;
    cfg
}

/// Drive raw sticky bits over an arbitrary word backend with the same op
/// mix as `Workload::Sticky` (the backend is the variable under test here:
/// `DurableMem` for the durable column, `TornMem` for the adversary).
fn torture_sticky_over<M: WordMem + Sync>(
    mem: &mut M,
    cfg: &StressConfig,
) -> sbu_stress::TortureReport {
    let bits: Vec<_> = (0..cfg.objects).map(|_| mem.alloc_sticky_bit()).collect();
    let mem = &*mem;
    let objects: Vec<StressObject<'_, StickySpec>> = bits
        .iter()
        .map(|&bit| StressObject {
            init: StickySpec::new(),
            exec: Box::new(move |pid: Pid, op: &StickyOp| match *op {
                StickyOp::Jam(v) => match mem.sticky_jam(pid, bit, v) {
                    JamOutcome::Success => StickyResp::Success,
                    JamOutcome::Fail => StickyResp::Fail,
                },
                StickyOp::Read => StickyResp::Value(mem.sticky_read(pid, bit)),
                StickyOp::Flush => {
                    mem.sticky_flush(pid, bit);
                    StickyResp::Flushed
                }
            }),
        })
        .collect();
    torture(
        cfg,
        |pid| mem.op_invoke(pid),
        objects,
        |rng, _, _| {
            if rng.gen_bool(0.5) {
                StickyOp::Jam(rng.gen_bool(0.5))
            } else {
                StickyOp::Read
            }
        },
    )
}

/// Era floor for crash–restart cells: each era is one offline-checked
/// window, and in the worst contention profile every op of the era can
/// land on a single object — so the era count must keep
/// `threads × era_ops` under the checker's `MAX_OPS` (128), with headroom
/// for pending and recovery-committed ops.
fn era_floor(cfg: &StressConfig) -> usize {
    (cfg.threads * cfg.ops_per_thread).div_ceil(96).max(1)
}

/// Run one phase of one cell. Honest cells run once; the adversarial
/// dispatch happens in [`run_cell`] (battery loop around this).
fn run_phase(
    object: ScenarioObject,
    backend: ScenarioBackend,
    scenario: &Scenario,
    phase: &Phase,
    cfg: &StressConfig,
) -> PhaseOutcome {
    let lie_period = scenario.lie_period;
    match (object, backend) {
        // — native: the plain workloads, crash pressure = abandonment —
        (ScenarioObject::Sticky, ScenarioBackend::Native) => {
            run_workload(Workload::Sticky, cfg, Inject::None).into()
        }
        (ScenarioObject::JamWord, ScenarioBackend::Native) => {
            run_workload(Workload::Jam, cfg, Inject::None).into()
        }
        (ScenarioObject::Counter, ScenarioBackend::Native) => {
            run_workload(Workload::UniversalCounter, cfg, Inject::None).into()
        }

        // — durable: recoverable objects under real crash–restart eras
        //   (honest persist policy); raw sticky bits run the online monitor
        //   over `DurableMem` as a transparent word backend —
        (ScenarioObject::Sticky, ScenarioBackend::Durable) => {
            let registry = sbu_obs::Registry::new(cfg.threads);
            let mut mem = DurableMem::new(NativeMem::<()>::new());
            mem.attach_obs(&registry);
            mem.inner_mut().attach_obs(&registry);
            let mut report = torture_sticky_over(&mut mem, cfg);
            report.violations.extend(
                mem.violations()
                    .into_iter()
                    .map(|v| format!("backend: {v}")),
            );
            report.metrics = registry.snapshot();
            report.into()
        }
        (ScenarioObject::JamWord, ScenarioBackend::Durable) => run_crash_restart(
            CrashWorkload::RecoverableJam,
            cfg,
            phase.eras.max(era_floor(cfg)),
            TornPersist::Persist,
        )
        .into(),
        (ScenarioObject::Counter, ScenarioBackend::Durable) => run_crash_restart(
            CrashWorkload::RecoverableCounter,
            cfg,
            phase.eras.max(era_floor(cfg)),
            TornPersist::Persist,
        )
        .into(),

        // — the adversary preset —
        (ScenarioObject::Sticky, ScenarioBackend::TornLying) => {
            let registry = sbu_obs::Registry::new(cfg.threads);
            let mut inner = NativeMem::<()>::new();
            inner.attach_obs(&registry);
            let mut mem =
                TornMem::with_period(inner, Inject::TornJam, lie_period).with_obs(&registry);
            let mut report = torture_sticky_over(&mut mem, cfg);
            report.metrics = registry.snapshot();
            report.into()
        }
        (ScenarioObject::JamWord, ScenarioBackend::TornLying) => run_crash_restart(
            CrashWorkload::RecoverableJam,
            cfg,
            phase.eras.max(6).max(era_floor(cfg)),
            TornPersist::Lying,
        )
        .into(),
        (ScenarioObject::Counter, ScenarioBackend::TornLying) => {
            unreachable!(
                "skipped cell dispatched: {:?}",
                skip_reason(scenario, object, backend, 0)
            )
        }

        // — the sharded service runtime: every object index becomes a
        //   service *key*, so ops travel client → wire frame → router →
        //   single-owner shard → per-key universal construction and back,
        //   and the monitor checks each key's history as usual (the keys
        //   spread across shards, so every shard is under checking). The
        //   fault-plane variants layer the lossy wire, worker kills, and
        //   the lying corruptor onto the same path —
        (
            _,
            ScenarioBackend::Service
            | ScenarioBackend::ServiceFaulty
            | ScenarioBackend::ServiceDurable
            | ScenarioBackend::ServiceLying
            | ScenarioBackend::ServiceSocket,
        ) => run_service(object, cfg, service_plane_config(cfg, backend, scenario)),
    }
}

/// The service sizing and fault plane of one cell, as plain knobs for
/// [`sbu_service::Service::builder`].
struct ServicePlane {
    shards: usize,
    workers: usize,
    clients: usize,
    seed: u64,
    transport: sbu_service::TransportConfig,
    fault: Option<sbu_service::FaultProfile>,
    kill: Option<sbu_service::KillPlan>,
    recovery: sbu_service::Recovery,
    retry: sbu_service::RetryPolicy,
}

/// The service sizing and fault plane of one cell. Shard/worker counts
/// scale with the phase's thread count; the fault-plane backends add the
/// lossy wire, the lying corruptor, and (durable only, as the service
/// requires) seeded worker kills; the socket backend dials its clients
/// over a real Unix-domain socket.
fn service_plane_config(
    cfg: &StressConfig,
    backend: ScenarioBackend,
    scenario: &Scenario,
) -> ServicePlane {
    use sbu_service::{FaultProfile, KillPlan, Recovery, RetryPolicy, TransportConfig};
    let shards = cfg.threads.max(2).next_power_of_two().min(8);
    let base = ServicePlane {
        shards,
        workers: shards.min(cfg.threads),
        clients: cfg.threads,
        seed: cfg.seed,
        transport: TransportConfig::InProcess,
        fault: None,
        kill: None,
        recovery: Recovery::Volatile,
        retry: RetryPolicy::patient(),
    };
    // The matrix is not latency-sensitive: give retransmission a long hard
    // deadline so a deeply unlucky loss streak fails loudly at the torture
    // level rather than spuriously at the wire level, and a 10 ms timer
    // floor, far above any round trip here, so a retransmit answers a loss
    // and never a slow reply: the cells' `service.retry` counts stay a
    // function of the seed.
    let retry = RetryPolicy::lossy()
        .with_attempt_timeout(std::time::Duration::from_millis(10))
        .with_deadline(std::time::Duration::from_secs(60));
    match backend {
        ScenarioBackend::Service => base,
        ScenarioBackend::ServiceSocket => ServicePlane {
            transport: TransportConfig::Unix(scratch_socket_path()),
            // Patient (a 1 s timer floor) on the honest kernel stream, far
            // above any round trip: a wall-clock-triggered retransmit would
            // put timing-dependent retry counts into the cell's instrument
            // signature, which the capped determinism runs compare
            // byte-for-byte.
            retry: RetryPolicy::patient().with_deadline(std::time::Duration::from_secs(60)),
            ..base
        },
        ScenarioBackend::ServiceFaulty => ServicePlane {
            fault: Some(FaultProfile::lossy()),
            retry,
            ..base
        },
        ScenarioBackend::ServiceDurable => ServicePlane {
            fault: Some(FaultProfile::lossy()),
            kill: (scenario.kill_period >= 2).then(|| KillPlan::every(scenario.kill_period)),
            recovery: Recovery::Durable,
            retry,
            ..base
        },
        ScenarioBackend::ServiceLying => ServicePlane {
            fault: Some(FaultProfile::lying(1.0 / scenario.lie_period.max(2) as f64)),
            retry,
            ..base
        },
        _ => unreachable!("{backend} is not a service backend"),
    }
}

/// A scratch Unix-socket path unique across cells and test processes.
fn scratch_socket_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sbu-scenario-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Dispatch one object family into the service torture driver with the
/// given fault-plane configuration.
fn run_service(object: ScenarioObject, cfg: &StressConfig, plane: ServicePlane) -> PhaseOutcome {
    match object {
        ScenarioObject::Sticky => torture_service(cfg, plane, StickySpec::new(), |rng, _, _| {
            if rng.gen_bool(0.5) {
                StickyOp::Jam(rng.gen_bool(0.5))
            } else {
                StickyOp::Read
            }
        }),
        ScenarioObject::JamWord => {
            use sbu_spec::specs::{JamWordOp, JamWordSpec};
            torture_service(cfg, plane, JamWordSpec::new(), |rng, pid, obj| {
                if rng.gen_bool(0.6) {
                    JamWordOp::Jam(sbu_stress::jam_value_for(pid, obj))
                } else {
                    JamWordOp::Read
                }
            })
        }
        ScenarioObject::Counter => {
            use sbu_spec::specs::{CounterOp, CounterSpec};
            torture_service(cfg, plane, CounterSpec::new(), |rng, _, _| {
                match rng.gen_range(0u32..5) {
                    0..=2 => CounterOp::Inc,
                    3 => CounterOp::Add(rng.gen_range(1u64..5)),
                    _ => CounterOp::Read,
                }
            })
        }
    }
}

/// Drive `cfg.objects` service keys (one torture object per key) through a
/// live [`sbu_service::Service`] and the online monitor. The monitor's
/// per-object histories line up one-to-one with service keys. Service
/// instruments are merged into the phase metrics after shutdown so
/// `service.route` / `service.retry` / `service.inject.*` /
/// `service.shard_imbalance` ride the cell report.
///
/// A typed wire-level failure (deadline despite retries) panics the
/// torture thread: under the matrix's generous deadlines it means the
/// fault plane is broken, which should fail the cell loudly rather than
/// fabricate a response the monitor would then judge.
fn torture_service<S, G>(
    cfg: &StressConfig,
    plane: ServicePlane,
    template: S,
    gen_op: G,
) -> PhaseOutcome
where
    S: sbu_service::WireCodec + std::hash::Hash + Eq + Send + Sync + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    G: Fn(&mut rand::rngs::SmallRng, Pid, usize) -> S::Op + Send + Sync,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    let socket_path = match &plane.transport {
        sbu_service::TransportConfig::Unix(path) => Some(path.clone()),
        _ => None,
    };
    let socket = !matches!(plane.transport, sbu_service::TransportConfig::InProcess);
    let mut builder = sbu_service::Service::builder(plane.shards)
        .workers(plane.workers)
        .clients(plane.clients)
        .transport(plane.transport)
        .recovery(plane.recovery)
        .retry(plane.retry)
        .seed(plane.seed);
    if let Some(fault) = plane.fault {
        builder = builder.fault(fault);
    }
    if let Some(kill) = plane.kill {
        builder = builder.kill(kill);
    }
    let mut svc = builder.build(template.clone());
    let report = {
        let svc = &svc;
        let objects: Vec<StressObject<'_, S>> = (0..cfg.objects)
            .map(|key| StressObject {
                init: template.clone(),
                exec: Box::new(move |pid: Pid, op: &S::Op| {
                    svc.client(pid.0)
                        .call(key as u64, op)
                        .unwrap_or_else(|e| panic!("service call on key {key}: {e}"))
                }),
            })
            .collect();
        // The service has no shared word memory to borrow a clock from;
        // a fetch-add ticket is exactly the strictly monotonic shared
        // clock `torture` requires.
        let clock = AtomicU64::new(1);
        torture(
            cfg,
            |_| clock.fetch_add(1, Ordering::SeqCst),
            objects,
            gen_op,
        )
    };
    svc.shutdown();
    let mut out: PhaseOutcome = report.into();
    merge_snapshot(&mut out.metrics, &svc.obs_snapshot());
    // Inbox depth is sampled when a worker drains its inbox, so it sees
    // thread interleaving even on one client thread, not the op stream.
    out.metrics
        .histograms
        .retain(|(name, _)| name != "service.queue_depth");
    if socket {
        // How many kernel reads a stream took, and where the frame
        // boundaries fell inside them, is scheduler timing — not part of
        // the op stream. Keep those two out of the cell signature so
        // capped same-seed runs stay byte-identical.
        out.metrics
            .counters
            .retain(|(name, _)| name != "service.read_syscall" && name != "service.partial_frame");
    }
    if let Some(path) = socket_path {
        let _ = std::fs::remove_file(path);
    }
    out
}

/// Run one cell of the matrix.
pub fn run_cell(
    scenario: &Scenario,
    object: ScenarioObject,
    backend: ScenarioBackend,
    rc: &RunConfig,
) -> CellResult {
    let expected = expected_verdict(backend);
    let seed = cell_seed(rc.seed, scenario.name, object, backend);
    if let Some(reason) = skip_reason(scenario, object, backend, rc.max_threads) {
        return CellResult {
            object,
            backend,
            // A structural skip is its own expectation: the report row
            // should read `skipped / skipped`, not `caught / skipped`.
            expected: Verdict::Skipped,
            verdict: Verdict::Skipped,
            total_ops: 0,
            completed_ops: 0,
            windows_checked: 0,
            violations: Vec::new(),
            skip_reason: Some(reason),
            metrics: sbu_obs::Snapshot::default(),
            seed,
        };
    }

    let mut total_ops = 0;
    let mut completed_ops = 0;
    let mut windows_checked = 0;
    let mut unverified = 0;
    let mut violations = Vec::new();
    let mut metrics = sbu_obs::Snapshot::default();
    let runs_per_phase = if backend.is_adversarial() {
        ADVERSARY_RUNS
    } else {
        1
    };
    for (i, phase) in scenario.phases.iter().enumerate() {
        for sub in 0..runs_per_phase {
            let phase_seed = splitmix(seed ^ ((i as u64) << 32) ^ sub);
            let mut cfg = stress_config(phase, rc, phase_seed);
            if (object, backend) == (ScenarioObject::JamWord, ScenarioBackend::TornLying) {
                // Lying torn-persists need real crashes to roll anything
                // back, and disagreement needs enough announcers: floor the
                // sizing. A thread cap below the floor skipped the cell
                // above, so the floor never exceeds the cap.
                cfg.threads = cfg.threads.max(LYING_PERSIST_ANNOUNCERS);
                cfg.crash_threads = cfg.crash_threads.clamp(1, cfg.threads);
            }
            let out = run_phase(object, backend, scenario, phase, &cfg);
            total_ops += out.total_ops;
            completed_ops += out.completed_ops;
            windows_checked += out.windows_checked;
            unverified += out.unverified;
            violations.extend(out.violations);
            merge_snapshot(&mut metrics, &out.metrics);
        }
    }

    let verdict = if backend.is_adversarial() {
        if violations.is_empty() {
            Verdict::Escaped
        } else {
            Verdict::Caught
        }
    } else if !violations.is_empty() {
        Verdict::Violation
    } else if unverified > 0 {
        Verdict::Unverified
    } else {
        Verdict::Pass
    };

    CellResult {
        object,
        backend,
        expected,
        verdict,
        total_ops,
        completed_ops,
        windows_checked,
        violations,
        skip_reason: None,
        metrics,
        seed,
    }
}

/// Run every cell of one scenario, in canonical axis order.
pub fn run_scenario(scenario: &Scenario, rc: &RunConfig) -> ScenarioResult {
    let mut cells = Vec::new();
    for object in ScenarioObject::all() {
        for backend in ScenarioBackend::all() {
            cells.push(run_cell(scenario, object, backend, rc));
        }
    }
    ScenarioResult {
        scenario: scenario.clone(),
        cells,
    }
}

/// Run the whole matrix over `scenarios`.
pub fn run_matrix(scenarios: &[Scenario], rc: &RunConfig) -> Vec<ScenarioResult> {
    scenarios.iter().map(|s| run_scenario(s, rc)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let a = cell_seed(
            42,
            "steady-state",
            ScenarioObject::Sticky,
            ScenarioBackend::Native,
        );
        let b = cell_seed(
            42,
            "steady-state",
            ScenarioObject::Sticky,
            ScenarioBackend::Native,
        );
        assert_eq!(a, b, "same coordinates, same seed");
        let c = cell_seed(
            42,
            "steady-state",
            ScenarioObject::Sticky,
            ScenarioBackend::Durable,
        );
        let d = cell_seed(
            43,
            "steady-state",
            ScenarioObject::Sticky,
            ScenarioBackend::Native,
        );
        assert_ne!(a, c, "backend changes the seed");
        assert_ne!(a, d, "run seed changes the seed");
    }

    #[test]
    fn skipped_cell_short_circuits() {
        let s = scenario::find("steady-state").unwrap();
        // The lying counter always skips; the lying jam-word cell skips
        // under a thread cap too small for its lie to surface.
        let capped = RunConfig {
            max_threads: 1,
            ..RunConfig::default()
        };
        for (object, rc) in [
            (ScenarioObject::Counter, RunConfig::default()),
            (ScenarioObject::JamWord, capped),
        ] {
            let cell = run_cell(&s, object, ScenarioBackend::TornLying, &rc);
            assert_eq!(
                (cell.expected, cell.verdict),
                (Verdict::Skipped, Verdict::Skipped),
                "{object}"
            );
            assert_eq!(cell.total_ops, 0);
            assert!(cell.skip_reason.is_some(), "{object}: no reason given");
            assert!(cell.is_ok());
        }
    }

    #[test]
    fn merge_snapshot_sums_and_sorts() {
        let mut a = sbu_obs::Snapshot {
            counters: vec![("z".into(), 2), ("a".into(), 1)],
            histograms: Vec::new(),
        };
        let b = sbu_obs::Snapshot {
            counters: vec![("z".into(), 3), ("m".into(), 5)],
            histograms: Vec::new(),
        };
        merge_snapshot(&mut a, &b);
        assert_eq!(
            a.counters,
            vec![("a".into(), 1), ("m".into(), 5), ("z".into(), 5)]
        );
    }
}
