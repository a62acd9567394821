//! The torture driver and its online linearizability monitor.
//!
//! # Protocol
//!
//! Worker threads execute their seeded op streams in fixed-size *epochs*
//! separated by a double [`Barrier`] wait. Between the two waits the barrier
//! leader samples the backend's logical clock and publishes it as the
//! **finality frontier**: every record with `invoke < frontier` has been
//! pushed into its recorder and will never change again (no op is in flight
//! at the barrier, and the clock is monotonic, so later ops get larger
//! timestamps). The epoch boundary is also a *quiescent cut* of the history
//! — every epoch-`k` op returns before any epoch-`k+1` op is invoked — so
//! window sizes stay bounded by `threads × epoch_ops` regardless of run
//! length.
//!
//! A free-running monitor thread repeatedly snapshots each object's
//! [`HistoryRecorder`], slices off the final prefix below the frontier,
//! cuts it into quiescent windows, and advances the set of feasible
//! specification states with [`linearization_states`] — the same
//! frontier-set threading as [`sbu_spec::linearize::check_windowed`], run
//! incrementally. An empty feasible set is a linearizability violation,
//! reported with the offending window.
//!
//! # Crash injection
//!
//! With [`StressConfig::crash_threads`] > 0, the lowest-numbered threads
//! abandon one operation in their **final** epoch (pending ops suppress
//! every later cut, so earlier crashes would grow windows without bound):
//! even threads abandon *before* executing (the op may only be dropped),
//! odd threads abandon *after* executing but before recording the response
//! (the op's effect is visible, so the checker must let it take effect) —
//! both balanced-extension outcomes of Definition 3.1 on real histories.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbu_sim::HistoryRecorder;
use sbu_spec::linearize::{linearization_states, CheckError};
use sbu_spec::{history::History, Pid, SequentialSpec};
use std::collections::HashSet;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How threads spread their operations over the objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionProfile {
    /// Half of all traffic hammers object 0; the rest is uniform.
    Hot,
    /// Uniform over all objects.
    Spread,
}

impl std::str::FromStr for ContentionProfile {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hot" => Ok(ContentionProfile::Hot),
            "spread" => Ok(ContentionProfile::Spread),
            other => Err(format!("unknown profile {other:?} (hot|spread)")),
        }
    }
}

impl std::fmt::Display for ContentionProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContentionProfile::Hot => write!(f, "hot"),
            ContentionProfile::Spread => write!(f, "spread"),
        }
    }
}

/// Configuration of one torture run.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Number of worker OS threads (= processors `Pid(0..threads)`).
    pub threads: usize,
    /// Operations issued per thread (including at most one abandoned op).
    pub ops_per_thread: usize,
    /// Master seed; every thread derives its own stream deterministically.
    pub seed: u64,
    /// Number of independent object instances.
    pub objects: usize,
    /// Contention profile over the objects.
    pub profile: ContentionProfile,
    /// Insert random `yield_now`/spin perturbation between operations.
    pub perturb: bool,
    /// How many threads abandon one op in their final epoch (≤ `threads`).
    pub crash_threads: usize,
    /// Ops per thread per epoch; `0` picks `max(1, 64 / threads)` so a
    /// window never exceeds the checker's
    /// [`MAX_OPS`](sbu_spec::linearize::MAX_OPS) bound.
    pub epoch_ops: usize,
}

impl StressConfig {
    /// A small, fast default: 4 threads × 1000 ops, seed 42, 4 objects.
    pub fn new(threads: usize, ops_per_thread: usize, seed: u64) -> Self {
        Self {
            threads,
            ops_per_thread,
            seed,
            objects: 4,
            profile: ContentionProfile::Hot,
            perturb: true,
            crash_threads: 0,
            epoch_ops: 0,
        }
    }

    /// Effective ops per epoch (resolves the `0 = auto` rule).
    pub fn effective_epoch_ops(&self) -> usize {
        if self.epoch_ops > 0 {
            self.epoch_ops
        } else {
            (64 / self.threads.max(1)).max(1)
        }
    }
}

/// One object instance under torture: its sequential specification's initial
/// state plus the closure executing an op against the real implementation.
pub struct StressObject<'a, S: SequentialSpec> {
    /// Initial specification state.
    pub init: S,
    /// Execute one operation on the real (native) object.
    #[allow(clippy::type_complexity)]
    pub exec: Box<dyn Fn(Pid, &S::Op) -> S::Resp + Send + Sync + 'a>,
}

/// Outcome of a torture run.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// Worker threads used.
    pub threads: usize,
    /// Operations issued (completed + abandoned).
    pub total_ops: usize,
    /// Operations that returned.
    pub completed_ops: usize,
    /// Operations abandoned mid-flight (recorded as pending).
    pub pending_ops: usize,
    /// Quiescent windows consumed by the online monitor.
    pub windows_checked: usize,
    /// Largest window (in ops) the monitor had to check.
    pub largest_window: usize,
    /// Windows skipped because they exceeded
    /// [`MAX_OPS`](sbu_spec::linearize::MAX_OPS) (0 in any sane
    /// configuration; a non-zero value means the run was *not* fully
    /// verified).
    pub overflow_windows: usize,
    /// Human-readable descriptions of linearizability violations.
    pub violations: Vec<String>,
    /// Wall-clock duration of the run (workers + monitor).
    pub elapsed: Duration,
    /// Aggregated observability counters from the run's registry (empty
    /// unless the workload attached instruments and the `obs` feature is
    /// on). [`torture`] itself leaves this empty; workload entry points
    /// ([`crate::workloads::run_workload`]) fill it in.
    pub metrics: sbu_obs::Snapshot,
}

impl TortureReport {
    /// Completed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.completed_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Whether every checked window linearized and none overflowed.
    pub fn all_linearizable(&self) -> bool {
        self.violations.is_empty() && self.overflow_windows == 0
    }

    /// Panic with the first violation if the run was not clean.
    pub fn assert_clean(&self) {
        assert_eq!(
            self.overflow_windows, 0,
            "{} windows exceeded MAX_OPS and were not verified",
            self.overflow_windows
        );
        assert!(
            self.violations.is_empty(),
            "linearizability violated: {}",
            self.violations[0]
        );
    }
}

impl std::fmt::Display for TortureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "threads={} ops={} (completed={} pending={})",
            self.threads, self.total_ops, self.completed_ops, self.pending_ops
        )?;
        writeln!(
            f,
            "windows={} largest={} overflowed={} throughput={:.0} ops/s",
            self.windows_checked,
            self.largest_window,
            self.overflow_windows,
            self.ops_per_sec()
        )?;
        if self.violations.is_empty() {
            write!(f, "every window linearizable")
        } else {
            write!(f, "VIOLATIONS ({}):", self.violations.len())?;
            for v in &self.violations {
                write!(f, "\n  {v}")?;
            }
            Ok(())
        }
    }
}

/// Best-effort rendering of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// SplitMix64 finalizer: decorrelates per-thread streams from one seed.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Per-object state of the online monitor.
struct ObjMonitor<S> {
    /// Records (in invoke order) already consumed into closed windows.
    consumed: usize,
    /// Feasible specification states after the last consumed window.
    states: Vec<S>,
    /// Checking stopped (violation reported or window overflow).
    poisoned: bool,
}

/// Run one torture: spawn `cfg.threads` workers driving `objects` through
/// `gen_op`-generated operations, with the online monitor checking closed
/// quiescent windows concurrently. `clock` must return strictly monotonic
/// timestamps shared by all threads (the native backend's
/// `op_invoke`/`op_return` hooks).
pub fn torture<'a, S, C, G>(
    cfg: &StressConfig,
    clock: C,
    objects: Vec<StressObject<'a, S>>,
    gen_op: G,
) -> TortureReport
where
    S: SequentialSpec + Hash + Eq + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    C: Fn(Pid) -> u64 + Send + Sync,
    G: Fn(&mut SmallRng, Pid, usize) -> S::Op + Send + Sync,
{
    assert!(cfg.threads >= 1, "at least one worker thread");
    assert!(!objects.is_empty(), "at least one object");
    assert!(
        cfg.crash_threads <= cfg.threads,
        "cannot crash more threads than exist"
    );
    let epoch_ops = cfg.effective_epoch_ops();
    let epochs = cfg.ops_per_thread.div_ceil(epoch_ops).max(1);

    let recorders: Vec<HistoryRecorder<S::Op, S::Resp>> =
        objects.iter().map(|_| HistoryRecorder::new()).collect();
    let inits: Vec<S> = objects.iter().map(|o| o.init.clone()).collect();
    #[allow(clippy::type_complexity)]
    let execs: Vec<&(dyn Fn(Pid, &S::Op) -> S::Resp + Send + Sync)> =
        objects.iter().map(|o| o.exec.as_ref()).collect();

    let barrier = Barrier::new(cfg.threads);
    let frontier = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // First panic caught inside a worker's op loop; re-raised after the run
    // drains (a panicking worker must keep hitting barriers, or the other
    // workers deadlock and the monitor spins forever).
    let failure: Mutex<Option<String>> = Mutex::new(None);

    let started = Instant::now();
    let monitor_out = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(cfg.threads);
        for tid in 0..cfg.threads {
            let recorders = &recorders;
            let execs = &execs;
            let barrier = &barrier;
            let frontier = &frontier;
            let clock = &clock;
            let gen_op = &gen_op;
            let failure = &failure;
            workers.push(scope.spawn(move || {
                let pid = Pid(tid);
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix(tid as u64 + 1));
                // Where (if at all) this thread abandons an op: an op index
                // inside the final epoch, so the pending record cannot
                // suppress quiescent cuts of any *earlier* epoch.
                let final_epoch_start = (epochs - 1) * epoch_ops;
                let crash_at: Option<usize> = (tid < cfg.crash_threads
                    && cfg.ops_per_thread > final_epoch_start)
                    .then(|| rng.gen_range(final_epoch_start..cfg.ops_per_thread));
                let drop_mode = tid % 2 == 0;
                let mut crashed = false;

                for epoch in 0..epochs {
                    let lo = epoch * epoch_ops;
                    let hi = ((epoch + 1) * epoch_ops).min(cfg.ops_per_thread);
                    // An op that panics (a broken object invariant) must not
                    // strand the other workers at the barrier: catch it, stop
                    // issuing ops, keep synchronizing, re-raise at the end.
                    let epoch_run = catch_unwind(AssertUnwindSafe(|| {
                        for k in lo..hi {
                            if crashed {
                                break;
                            }
                            let obj = match cfg.profile {
                                ContentionProfile::Hot => {
                                    if rng.gen_bool(0.5) {
                                        0
                                    } else {
                                        rng.gen_range(0..recorders.len())
                                    }
                                }
                                ContentionProfile::Spread => rng.gen_range(0..recorders.len()),
                            };
                            let op = gen_op(&mut rng, pid, obj);
                            let invoke = clock(pid);
                            let token = recorders[obj].begin(pid, op.clone(), invoke);
                            if crash_at == Some(k) && drop_mode {
                                // Abandoned before taking a single step: the op
                                // never executed, so it may only be dropped (or
                                // linearized as a no-effect suffix).
                                crashed = true;
                                continue;
                            }
                            let resp = (execs[obj])(pid, &op);
                            if crash_at == Some(k) {
                                // Executed but never acknowledged: the effect is
                                // visible, so the checker must be able to let
                                // the pending op take effect.
                                crashed = true;
                                continue;
                            }
                            let ret = clock(pid);
                            recorders[obj].finish(token, resp, ret);
                            if cfg.perturb {
                                match rng.gen_range(0u32..8) {
                                    0 => std::thread::yield_now(),
                                    1 => {
                                        for _ in 0..rng.gen_range(1u32..64) {
                                            std::hint::spin_loop();
                                        }
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }));
                    if let Err(payload) = epoch_run {
                        let mut slot = failure.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(format!(
                                "worker {tid} panicked mid-operation: {}",
                                panic_message(payload.as_ref())
                            ));
                        }
                        crashed = true;
                    }
                    // Double barrier: after the first wait no op is in
                    // flight (abandoned ones are permanently pending), so
                    // the leader's clock sample is a finality frontier AND a
                    // quiescent cut; the second wait keeps the next epoch's
                    // invocations behind the published sample.
                    if barrier.wait().is_leader() {
                        frontier.store(clock(pid), Ordering::Release);
                    }
                    barrier.wait();
                }
            }));
        }

        let monitor = scope.spawn(|| {
            let mut mons: Vec<ObjMonitor<S>> = inits
                .iter()
                .map(|init| ObjMonitor {
                    consumed: 0,
                    states: vec![init.clone()],
                    poisoned: false,
                })
                .collect();
            let mut windows_checked = 0usize;
            let mut largest_window = 0usize;
            let mut overflow_windows = 0usize;
            let mut violations: Vec<String> = Vec::new();
            loop {
                let final_pass = done.load(Ordering::Acquire);
                let horizon = if final_pass {
                    u64::MAX
                } else {
                    frontier.load(Ordering::Acquire)
                };
                for (obj, mon) in mons.iter_mut().enumerate() {
                    if mon.poisoned {
                        continue;
                    }
                    advance_monitor(
                        obj,
                        mon,
                        &recorders[obj],
                        horizon,
                        final_pass,
                        &mut windows_checked,
                        &mut largest_window,
                        &mut overflow_windows,
                        &mut violations,
                    );
                }
                if final_pass {
                    break;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            (
                windows_checked,
                largest_window,
                overflow_windows,
                violations,
            )
        });

        for w in workers {
            w.join().expect("worker thread panicked");
        }
        done.store(true, Ordering::Release);
        monitor.join().expect("monitor thread panicked")
    });
    let (windows_checked, largest_window, overflow_windows, violations) = monitor_out;
    if let Some(msg) = failure.into_inner().unwrap() {
        panic!("{msg}");
    }

    let total_ops: usize = recorders.iter().map(|r| r.len()).sum();
    let pending_ops: usize = recorders.iter().map(|r| r.history().pending_count()).sum();
    TortureReport {
        threads: cfg.threads,
        total_ops,
        completed_ops: total_ops - pending_ops,
        pending_ops,
        windows_checked,
        largest_window,
        overflow_windows,
        violations,
        elapsed: started.elapsed(),
        metrics: sbu_obs::Snapshot::default(),
    }
}

/// Consume newly final records of one object: cut them into quiescent
/// windows, advance the feasible-state set through each closed window.
#[allow(clippy::too_many_arguments)]
fn advance_monitor<S>(
    obj: usize,
    mon: &mut ObjMonitor<S>,
    recorder: &HistoryRecorder<S::Op, S::Resp>,
    horizon: u64,
    final_pass: bool,
    windows_checked: &mut usize,
    largest_window: &mut usize,
    overflow_windows: &mut usize,
    violations: &mut Vec<String>,
) where
    S: SequentialSpec + Hash + Eq,
{
    let h = recorder.history();
    let recs = h.ops();
    // `history()` sorts by invoke; timestamps are unique (shared fetch_add
    // clock), so the previously consumed prefix is unchanged.
    let final_end = recs.partition_point(|r| r.invoke < horizon);
    let mut start = mon.consumed;
    while start < final_end {
        // Grow the window until a quiescent cut (or the horizon) closes it.
        let mut end = start;
        let mut max_ret: Option<u64> = Some(0);
        let mut closed = false;
        while end < final_end {
            let r = &recs[end];
            if end > start {
                if let Some(m) = max_ret {
                    if m < r.invoke {
                        closed = true;
                        break;
                    }
                }
            }
            max_ret = match (max_ret, r.ret) {
                (Some(m), Some(ret)) => Some(m.max(ret)),
                _ => None,
            };
            end += 1;
        }
        if !closed {
            // Trailing group: closed if everything in it returned before
            // the horizon (nothing final or future can overlap it), or
            // unconditionally on the final pass (pending ops never return).
            closed = final_pass || matches!(max_ret, Some(m) if m < horizon);
            if !closed {
                return;
            }
        }
        let window: History<S::Op, S::Resp> = recs[start..end].iter().cloned().collect();
        *largest_window = (*largest_window).max(window.len());
        let mut next: Vec<S> = Vec::new();
        let mut seen: HashSet<S> = HashSet::new();
        for state in &mon.states {
            match linearization_states(&window, state.clone()) {
                Ok(outcomes) => {
                    for (s, _) in outcomes {
                        if seen.insert(s.clone()) {
                            next.push(s);
                        }
                    }
                }
                Err(CheckError::TooManyOps { ops: _ }) => {
                    // Not a linearizability verdict: the window outgrew the
                    // checker's capacity. Counted separately so the report
                    // can suggest a smaller epoch instead of crying "bug".
                    *overflow_windows += 1;
                    mon.poisoned = true;
                    return;
                }
                Err(e @ (CheckError::Invalid(_) | CheckError::SpansCrash { .. })) => {
                    violations.push(format!("object {obj}: malformed history: {e}"));
                    mon.poisoned = true;
                    return;
                }
            }
        }
        *windows_checked += 1;
        if next.is_empty() {
            violations.push(describe_violation::<S>(obj, &window));
            mon.poisoned = true;
            return;
        }
        mon.states = next;
        mon.consumed = end;
        start = end;
    }
}

/// Render a violated window compactly (first few ops) for the report.
fn describe_violation<S>(obj: usize, window: &History<S::Op, S::Resp>) -> String
where
    S: SequentialSpec,
{
    let lo = window.iter().map(|r| r.invoke).min().unwrap_or(0);
    let hi = window
        .iter()
        .filter_map(|r| r.ret)
        .max()
        .unwrap_or(u64::MAX);
    let mut ops = String::new();
    for (i, r) in window.iter().enumerate() {
        if i >= 8 {
            ops.push_str(&format!(" … (+{} more)", window.len() - 8));
            break;
        }
        ops.push_str(&format!(
            " {}:{:?}->{:?}[{},{:?}]",
            r.pid.0, r.op, r.resp, r.invoke, r.ret
        ));
    }
    format!(
        "object {obj}: window t=[{lo},{hi}] of {} ops NOT linearizable:{ops}",
        window.len()
    )
}
