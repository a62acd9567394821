//! One round of one workload, run in a child process of its own so its
//! peak memory and heap belong to this workload alone.
//!
//! A round builds the service and touches every key (together: `setup_s`),
//! warms up, measures, then reads every key back and checks three
//! properties: exactly-once (each value equals the acked `Inc`s on its
//! key), per-client order (a reply on a key is at least every value the
//! client had seen on that key when it sent the request, and above it for
//! an `Inc`), and shard totals (the ops the shards applied equal the ops
//! acked).

use crate::hist::Hist;
use crate::workload::{OpStream, Workload, CLIENTS, SHARDS, WORKERS};
use sbu_service::{FaultProfile, RetryPolicy, Service, ServiceClient, ServiceError};
use sbu_service::{Pending, TransportConfig};
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Number of correctness checks a round runs.
pub const CHECKS: f64 = 3.0;

/// Everything one client saw during the round. All of it is allocated
/// before the measured window.
struct ClientLog {
    attempted: u64,
    acked: u64,
    failed: u64,
    /// Per key: `Inc`s acked, and `Inc`s that ended in a typed error (which
    /// may or may not have been applied).
    inc_acked: Vec<u64>,
    inc_failed: Vec<u64>,
    /// Per key: the largest value this client has seen.
    last_seen: Vec<u64>,
    order_violations: u64,
    /// Requests sent inside the measured window, and their latencies (ns).
    window_ops: u64,
    latency: Hist,
    /// Trace spans: time inside `submit`, and inside `wait`.
    submit: Hist,
    wait: Hist,
}

impl ClientLog {
    fn new(keys: u64) -> Self {
        let per_key = vec![0u64; keys as usize];
        Self {
            attempted: 0,
            acked: 0,
            failed: 0,
            inc_acked: per_key.clone(),
            inc_failed: per_key.clone(),
            last_seen: per_key,
            order_violations: 0,
            window_ops: 0,
            latency: Hist::new(),
            submit: Hist::new(),
            wait: Hist::new(),
        }
    }

    /// Account a reply to `op` on `key`. `floor` is `last_seen[key]` when
    /// the request was sent: requests in flight together may be applied in
    /// either order (a retransmit can overtake), so only the replies the
    /// client already had bound this one.
    fn settle(
        &mut self,
        key: u64,
        op: CounterOp,
        floor: u64,
        result: Result<u64, ServiceError>,
    ) -> Option<u64> {
        let k = key as usize;
        self.attempted += 1;
        let inc = op == CounterOp::Inc;
        match result {
            Ok(value) => {
                self.acked += 1;
                if value < floor || (inc && value == floor) {
                    self.order_violations += 1;
                }
                self.last_seen[k] = self.last_seen[k].max(value);
                self.inc_acked[k] += u64::from(inc);
                Some(value)
            }
            Err(_) => {
                self.failed += 1;
                self.inc_failed[k] += u64::from(inc);
                None
            }
        }
    }

    /// Count a request sent at `sent` and answered at `done`, if it was
    /// sent inside the measured window.
    fn time(&mut self, window: &Window, sent: Instant, done: Instant) -> bool {
        if sent < window.start || sent >= window.end {
            return false;
        }
        self.window_ops += 1;
        self.latency.record((done - sent).as_nanos() as u64);
        true
    }
}

/// The measured window: requests sent in `[start, end)` count.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    end: Instant,
}

/// Drive one client until `window.end`, keeping `depth` requests in flight
/// and waiting on the oldest. At depth 1 this is a closed loop: `submit`
/// then `wait` is what `ServiceClient::call` does.
fn drive(
    w: &Workload,
    seed: u64,
    c: usize,
    client: &ServiceClient<CounterSpec>,
    log: &mut ClientLog,
    window: Window,
) {
    let mut stream = OpStream::new(w, seed, c);
    let deadline = client.retry().deadline;
    let traced = cfg!(feature = "trace");
    let mut inflight: VecDeque<(Pending<'_, CounterSpec>, Instant, u64, CounterOp, u64)> =
        VecDeque::with_capacity(w.depth);
    loop {
        let sent = Instant::now();
        if sent < window.end {
            let (key, op) = stream.next_op();
            let pending = client.submit(key, &op);
            if traced && sent >= window.start {
                log.submit.record(sent.elapsed().as_nanos() as u64);
            }
            let floor = log.last_seen[key as usize];
            inflight.push_back((pending, sent, key, op, floor));
            if inflight.len() < w.depth {
                continue;
            }
        } else if inflight.is_empty() {
            return;
        }
        let (pending, sent, key, op, floor) = inflight.pop_front().expect("a request is in flight");
        let waited = Instant::now();
        let result = pending.wait(sent + deadline);
        let done = Instant::now();
        log.settle(key, op, floor, result);
        if log.time(&window, sent, done) && traced {
            log.wait.record((done - waited).as_nanos() as u64);
        }
    }
}

/// Read every key once, split across the clients (closed loop). A `Read`
/// materializes a key's object, so the set-up sweep leaves every object
/// built. Returns each key's value (`None` where the read failed).
fn sweep(svc: &Service<CounterSpec>, logs: &mut [ClientLog], keys: u64) -> Vec<Option<u64>> {
    let per_client: Vec<Vec<(u64, Option<u64>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter_mut()
            .enumerate()
            .map(|(c, log)| {
                let client = svc.client(c);
                s.spawn(move || {
                    (c as u64..keys)
                        .step_by(CLIENTS)
                        .map(|key| {
                            let floor = log.last_seen[key as usize];
                            let result = client.call(key, &CounterOp::Read);
                            (key, log.settle(key, CounterOp::Read, floor, result))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    });
    let mut values = vec![None; keys as usize];
    for (key, value) in per_client.into_iter().flatten() {
        values[key as usize] = value;
    }
    values
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// Run one round; returns its flat result map (see `report::flat_line`).
pub fn run(w: &Workload, seed: u64, warmup: Duration, measure: Duration) -> BTreeMap<String, f64> {
    // Relative to the directory the benchmark runs from: the benchmark
    // writes nothing outside it, and the path stays under the 108-byte
    // socket path limit however deep that directory is.
    let socket = PathBuf::from(format!(".sbu-bench-{}.sock", std::process::id()));
    let setup = Instant::now();
    let mut builder = Service::builder(SHARDS)
        .workers(WORKERS)
        .clients(CLIENTS)
        .seed(seed);
    if w.unix {
        builder = builder.transport(TransportConfig::Unix(socket));
    }
    if w.drop > 0.0 {
        let profile = FaultProfile {
            drop: w.drop,
            ..FaultProfile::none()
        };
        builder = builder.fault(profile).retry(RetryPolicy::lossy());
    }
    let mut svc = builder.build(CounterSpec::new());
    let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::new(w.keys)).collect();
    sweep(&svc, &mut logs, w.keys);
    let setup_s = setup.elapsed().as_secs_f64();

    let start = Instant::now() + warmup;
    let window = Window {
        start,
        end: start + measure,
    };
    let (before, after) = std::thread::scope(|s| {
        let svc = &svc;
        for (c, log) in logs.iter_mut().enumerate() {
            s.spawn(move || drive(w, seed, c, svc.client(c), log, window));
        }
        std::thread::sleep(window.start.saturating_duration_since(Instant::now()));
        let before = svc.obs_snapshot();
        std::thread::sleep(window.end.saturating_duration_since(Instant::now()));
        (before, svc.obs_snapshot())
    });

    let values = sweep(&svc, &mut logs, w.keys);
    let stats = svc.shutdown();

    // Exactly-once: a key's value is its acked Incs, plus at most the Incs
    // that failed (each may or may not have been applied).
    let mut mismatched_keys = 0u64;
    for (k, value) in values.iter().enumerate() {
        let acked: u64 = logs.iter().map(|l| l.inc_acked[k]).sum();
        let unsure: u64 = logs.iter().map(|l| l.inc_failed[k]).sum();
        if value.is_some_and(|v| v < acked || v > acked + unsure) {
            mismatched_keys += 1;
        }
    }
    let order_violations: u64 = logs.iter().map(|l| l.order_violations).sum();
    let applied: u64 = stats.iter().map(|s| s.ops).sum();
    let acked: u64 = logs.iter().map(|l| l.acked).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let totals_off = u64::from(applied < acked || applied > acked + failed);
    if mismatched_keys + order_violations + totals_off > 0 {
        eprintln!(
            "{}: {mismatched_keys} keys off their acked Inc count, {order_violations} \
             per-client order violations, shards applied {applied} ops for {acked} acked",
            w.name
        );
    }

    let us = |h: &Hist, q: f64| h.quantile(q) / 1e3;
    let (mut latency, mut submit, mut wait) = (Hist::new(), Hist::new(), Hist::new());
    for log in &logs {
        latency.merge(&log.latency);
        submit.merge(&log.submit);
        wait.merge(&log.wait);
    }
    let window_ops = latency.count();
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    put("setup_s", setup_s);
    put("peak_rss_mb", proc_status_kb("VmHWM") as f64 / 1024.0);
    put(
        "throughput_ops_s",
        window_ops as f64 / measure.as_secs_f64(),
    );
    put("p50_us", us(&latency, 0.50));
    put("p90_us", us(&latency, 0.90));
    put("p99_us", us(&latency, 0.99));
    put("p999_us", us(&latency, 0.999));
    put("samples", latency.count() as f64);
    put(
        "attempted",
        logs.iter().map(|l| l.attempted).sum::<u64>() as f64,
    );
    put("failed", failed as f64);
    put("checks", CHECKS);
    put(
        "violations",
        (mismatched_keys + order_violations + totals_off) as f64,
    );

    if cfg!(feature = "trace") {
        let per_op = |name: &str| {
            (after.counter(name) - before.counter(name)) as f64 / window_ops.max(1) as f64
        };
        let hist_mean = |name: &str| {
            let (a, b) = (after.histogram(name), before.histogram(name));
            let count = a.map_or(0, |h| h.count) - b.map_or(0, |h| h.count);
            let sum = a.map_or(0, |h| h.sum) - b.map_or(0, |h| h.sum);
            (count > 0).then(|| sum as f64 / count as f64)
        };
        put("client.submit_us.p50", us(&submit, 0.50));
        put("client.wait_us.p50", us(&wait, 0.50));
        put("client.wait_us.p99", us(&wait, 0.99));
        put("client.retry_per_op", per_op("service.retry"));
        put("client.stale_per_op", per_op("service.stale_reply"));
        put("server.dedup_hit_per_op", per_op("service.dedup_hit"));
        put("transport.reads_per_op", per_op("service.read_syscall"));
        put("transport.partial_per_op", per_op("service.partial_frame"));
        put("fault.drop_per_op", per_op("service.inject.drop"));
        put(
            "server.queue_depth_mean",
            hist_mean("service.queue_depth").unwrap_or(0.0),
        );
        // The default per-frame drain never records a batch: it applies
        // batches of one.
        put(
            "server.batch_size_mean",
            hist_mean("service.batch_size").unwrap_or(1.0),
        );
    }
    out
}
