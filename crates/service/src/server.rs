//! The thread-per-core server loop.
//!
//! Topology: `workers` OS threads, each *owning* a disjoint set of shards
//! (worker `w` owns every shard `s` with `s % workers == w`, the rule
//! [`ShardMap`] holds — ownership never moves, so shards need no locks of
//! their own). Clients talk to workers through the wire protocol over one
//! of two carriers: in-process mailboxes by default, or a real TCP or
//! Unix-domain socket with [`ServiceBuilder::transport`], optionally under
//! the seeded fault injector ([`ServiceBuilder::fault`]). The service
//! holds the parts directly — the per-worker inboxes, the socket if there
//! is one — and [`build`](ServiceBuilder::build) makes each client's
//! connection itself. Whatever the carrier, requests land in the one set
//! of per-worker inboxes, each already decoded by the carrier it arrived
//! on and carrying its way back. The worker loop drops a request it
//! cannot serve — not a request, or an op the spec cannot decode —
//! without answering, and sends every reply through the one reply path,
//! which reads the request's route: back on the socket stream the request
//! came in on, or into its client's in-process reply box.
//!
//! The fault-tolerant plane layers four mechanisms over that skeleton:
//!
//! * **Lossy transport** — seeded fault lanes drop / duplicate / corrupt /
//!   delay / disconnect frames: requests in a connection wrapped around
//!   each client's own, replies on the reply path before the carrier
//!   writes them.
//! * **Client reliability** — [`ServiceClient::call`] carries a hard
//!   deadline and retransmits on a per-client timer (its floor set by the
//!   [`RetryPolicy`]) or when a later reply proves a loss, reusing the
//!   request's `(client, seq)` identity; a dropped connection is
//!   reconnected and the request retransmitted.
//! * **Server dedup** — each worker keeps a bounded per-client dedup
//!   window (64 entries) mapping `(client, seq)` to the cached encoded
//!   response; a retransmit of a request still in the window is answered
//!   from cache (`service.dedup_hit`), not re-applied. A retransmit that
//!   arrives after its entry has left the window is applied again
//!   (DESIGN.md §14); ROADMAP item 4 replaces the window with
//!   client-acknowledged completion records.
//! * **Supervision & shedding** — a seeded [`KillPlan`] panics workers of
//!   a [`Recovery::Durable`] service mid-run, and the supervisor loop
//!   recovers their shards and respawns them; bounded inboxes shed load at
//!   the high watermark with a typed `Busy` outcome instead of queueing
//!   without bound.
//!
//! Observability follows the repo's single-writer lane discipline with
//! `workers + clients + 1` lanes: worker `w` writes lane `w`
//! (`service.route`, `service.queue_depth`, `service.dedup_hit`,
//! `service.respawn`), client `c` writes lane
//! `workers + c` (`service.retry`, `service.shed`, `service.stale_reply`,
//! `service.garbled`), the `service.inject.*` counters are written on the
//! lane of the fault lane they damage (serialized by that lane's lock),
//! and the socket plane (`service.accept`, `service.conn_drop`,
//! `service.read_syscall`, `service.partial_frame`) writes the final lane
//! `workers + clients` under its own guard. `service.shard_imbalance` is
//! recorded once at shutdown, after every worker has joined.

use crate::client::ServiceClient;
use crate::fault::{FaultProfile, Faulty, FaultyConn, InjectObs};
use crate::retry::RetryPolicy;
use crate::route::ShardMap;
use crate::shard::{DurableShard, Shard};
use crate::socket::{Socket, SocketConn, SocketObs};
use crate::supervise::{KillPlan, KillState, Recovery};
use crate::transport::{
    send_reply, ClientConn, InProcessConn, Inboxes, Mailbox, Request, TransportConfig,
};
use crate::wire::{response_frame, WireCodec, KIND_REQUEST};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-shard totals reported after shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's index.
    pub shard: usize,
    /// Operations the shard applied.
    pub ops: u64,
    /// Distinct keys the shard materialized.
    pub keys: usize,
}

/// Instruments for the service layer (worker lanes `0..workers`, client
/// lanes `workers..workers+clients`, transport lane `workers+clients`).
pub(crate) struct ServiceObs {
    pub(crate) route: sbu_obs::Counter,
    pub(crate) queue_depth: sbu_obs::Histogram,
    pub(crate) shard_imbalance: sbu_obs::Histogram,
    pub(crate) retry: sbu_obs::Counter,
    pub(crate) shed: sbu_obs::Counter,
    pub(crate) stale: sbu_obs::Counter,
    pub(crate) garbled: sbu_obs::Counter,
    pub(crate) dedup_hit: sbu_obs::Counter,
    pub(crate) respawn: sbu_obs::Counter,
}

impl ServiceObs {
    /// Register the service instruments on `registry`.
    pub(crate) fn register(registry: &sbu_obs::Registry) -> Self {
        Self {
            route: registry.counter("service.route"),
            queue_depth: registry.histogram("service.queue_depth"),
            shard_imbalance: registry.histogram("service.shard_imbalance"),
            retry: registry.counter("service.retry"),
            shed: registry.counter("service.shed"),
            stale: registry.counter("service.stale_reply"),
            garbled: registry.counter("service.garbled"),
            dedup_hit: registry.counter("service.dedup_hit"),
            respawn: registry.counter("service.respawn"),
        }
    }
}

/// Per-client dedup window: how many `(client, seq)` → response entries
/// each worker caches for exactly-once retransmit answers. It must exceed
/// a client's outstanding requests (closed-loop callers have 1; the load
/// generator keeps at most 32 in flight).
const DEDUP_WINDOW: usize = 64;

/// Builder for a [`Service`]: topology, transport, and the fault-tolerance
/// knobs as typed setters. Mirrors the
/// `Universal::builder` convention — start from
/// [`Service::builder(shards)`](Service::builder), chain setters, finish
/// with [`build`](Self::build).
pub struct ServiceBuilder<S: WireCodec> {
    shards: usize,
    workers: usize,
    clients: usize,
    transport: TransportConfig,
    fault: Option<FaultProfile>,
    kill: Option<KillPlan>,
    recovery: Recovery,
    mailbox_capacity: usize,
    retry: RetryPolicy,
    seed: u64,
    _spec: std::marker::PhantomData<fn() -> S>,
}

impl<S> ServiceBuilder<S>
where
    S: WireCodec + Send + Sync + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    /// Number of worker threads (default 1). Shard `s` is owned by worker
    /// `s % workers`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Number of client handles to pre-build (default 1); see
    /// [`Service::client`].
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Which transport carries the frames (default
    /// [`TransportConfig::InProcess`]). `Tcp`/`Unix` bind a real listener;
    /// the service's client handles dial it like any remote peer would.
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Inject seeded transport faults per `profile` (wrapped around
    /// whichever transport is configured).
    pub fn fault(mut self, profile: FaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// Kill workers on a seeded schedule (supervision torture). Requires
    /// [`Recovery::Durable`]: every kill recovers.
    pub fn kill(mut self, plan: KillPlan) -> Self {
        self.kill = Some(plan);
        self
    }

    /// What the shards are made of (default [`Recovery::Volatile`]); a
    /// [`kill`](Self::kill) plan requires [`Recovery::Durable`].
    pub fn recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Inbox high watermark (default 0 = unbounded); pushes beyond it are
    /// shed with a typed `Busy`.
    pub fn mailbox_capacity(mut self, capacity: usize) -> Self {
        self.mailbox_capacity = capacity;
        self
    }

    /// Client-side deadline/retransmission policy (default
    /// [`RetryPolicy::patient`]).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Seed for every fault-plane RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Boot the server: build the (empty) shards, start the transport and
    /// the supervised worker loops, and pre-connect the client handles.
    /// Keys materialize lazily as clones of `template`.
    pub fn build(self, template: S) -> Service<S> {
        assert!(self.workers >= 1, "at least one worker");
        assert!(self.clients >= 1, "at least one client slot");
        // Checked here, on the caller's thread: inside a worker the panic
        // would only surface as calls timing out.
        if let Some(plan) = self.kill {
            assert!(plan.period >= 2, "kill period must be ≥ 2");
            assert!(
                self.recovery == Recovery::Durable,
                "a kill plan requires Recovery::Durable"
            );
        }
        let map = ShardMap::new(self.shards);
        let transport_lane = self.workers + self.clients;
        let registry = sbu_obs::Registry::new(transport_lane + 1);
        let obs = Arc::new(ServiceObs::register(&registry));
        // The socket-plane instruments register unconditionally so every
        // transport reports the same (deterministic) instrument set; they
        // stay zero off-socket.
        let socket_obs = Arc::new(SocketObs::new(
            registry.counter("service.accept"),
            registry.counter("service.conn_drop"),
            registry.counter("service.read_syscall"),
            registry.counter("service.partial_frame"),
            transport_lane,
        ));
        let inject = InjectObs::register(&registry);

        // One set of worker inboxes, whichever carrier pushes into it, and
        // one reply box per in-process client.
        let inboxes = Arc::new(Inboxes::new(self.workers, self.mailbox_capacity));
        let boxes: Arc<[Mailbox<Vec<u8>>]> = (0..self.clients).map(|_| Mailbox::new(0)).collect();
        let socket = match &self.transport {
            TransportConfig::InProcess => None,
            TransportConfig::Tcp(addr) => Some(
                Socket::tcp(addr, map, Arc::clone(&inboxes), socket_obs)
                    .unwrap_or_else(|e| panic!("bind tcp listener on {addr}: {e}")),
            ),
            TransportConfig::Unix(path) => Some(
                Socket::unix(path, map, Arc::clone(&inboxes), socket_obs)
                    .unwrap_or_else(|e| panic!("bind unix listener on {}: {e}", path.display())),
            ),
        };
        let faults = self.fault.filter(|f| !f.is_none()).map(|profile| {
            Arc::new(Faulty::new(
                profile,
                self.seed,
                self.workers,
                self.clients,
                inject,
            ))
        });

        let workers = (0..self.workers)
            .map(|w| {
                let ctx = WorkerCtx {
                    w,
                    workers: self.workers,
                    shard_ids: map.shards_of(w, self.workers).collect(),
                    template: template.clone(),
                    map,
                    inboxes: Arc::clone(&inboxes),
                    recovery: self.recovery,
                    kill: self.kill,
                    seed: self.seed,
                };
                let (boxes, faults) = (Arc::clone(&boxes), faults.clone());
                let reply = move |request: &Request, bytes: Vec<u8>| {
                    send_reply(request, bytes, &boxes, faults.as_deref())
                };
                let obs = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("sbu-service-worker-{w}"))
                    .spawn(move || supervised_worker::<S>(ctx, &reply, &obs))
                    .expect("spawn worker")
            })
            .collect();

        let clients = (0..self.clients)
            .map(|c| {
                let conn: Box<dyn ClientConn> = match &socket {
                    Some(socket) => Box::new(SocketConn::dial(socket.endpoint().to_string())),
                    None => Box::new(InProcessConn::new(c as u32, &inboxes, &boxes)),
                };
                let conn: Box<dyn ClientConn> = match &faults {
                    Some(faults) => Box::new(FaultyConn::new(Arc::clone(faults), conn)),
                    None => conn,
                };
                ServiceClient::new(
                    c as u32,
                    map,
                    self.workers,
                    self.retry,
                    self.seed,
                    Arc::clone(&obs),
                    conn,
                )
            })
            .collect();

        Service {
            map,
            inboxes,
            socket,
            clients,
            registry,
            obs,
            workers,
        }
    }
}

/// The sharded object-space runtime: shards of per-key [`sbu_core::Universal`]
/// instances behind a wire protocol, a pluggable transport, and a pool of
/// supervised worker threads.
///
/// ```
/// use sbu_service::{Service, ServiceClient};
/// use sbu_spec::specs::{CounterOp, CounterSpec};
///
/// let mut svc = Service::builder(4).workers(2).build(CounterSpec::new());
/// let client = svc.client(0);
/// assert_eq!(client.call(42, &CounterOp::Inc).unwrap(), 1);
/// assert_eq!(client.call(42, &CounterOp::Read).unwrap(), 1);
/// assert_eq!(client.call(7, &CounterOp::Read).unwrap(), 0); // different key, fresh object
/// let stats = svc.shutdown();
/// assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), 3);
/// ```
pub struct Service<S: WireCodec> {
    map: ShardMap,
    inboxes: Arc<Inboxes>,
    /// The listener, over a socket transport; `None` in process.
    socket: Option<Socket>,
    clients: Vec<ServiceClient<S>>,
    registry: sbu_obs::Registry,
    obs: Arc<ServiceObs>,
    workers: Vec<JoinHandle<Vec<ShardStats>>>,
}

/// Everything a worker thread needs, bundled for the spawn closure.
struct WorkerCtx<S: WireCodec> {
    w: usize,
    workers: usize,
    shard_ids: Vec<usize>,
    template: S,
    map: ShardMap,
    inboxes: Arc<Inboxes>,
    recovery: Recovery,
    kill: Option<KillPlan>,
    seed: u64,
}

impl<S> Service<S>
where
    S: WireCodec + Send + Sync + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    /// Start configuring a service over `shards` shards (power of two);
    /// finish with [`ServiceBuilder::build`].
    pub fn builder(shards: usize) -> ServiceBuilder<S> {
        ServiceBuilder {
            shards,
            workers: 1,
            clients: 1,
            transport: TransportConfig::InProcess,
            fault: None,
            kill: None,
            recovery: Recovery::Volatile,
            mailbox_capacity: 0,
            retry: RetryPolicy::patient(),
            seed: 0,
            _spec: std::marker::PhantomData,
        }
    }

    /// The router in force.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// The typed handle for client `id` (`0..clients`). Each concurrent
    /// caller should use its own handle — a handle serializes its own
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn client(&self, id: usize) -> &ServiceClient<S> {
        &self.clients[id]
    }

    /// The endpoint string (`tcp://…` / `unix://…`) remote peers can dial,
    /// when the transport has one ([`TransportConfig::Tcp`] reports the
    /// actually-bound address, so `tcp://127.0.0.1:0` works).
    pub fn endpoint(&self) -> Option<&str> {
        self.socket.as_ref().map(Socket::endpoint)
    }

    /// Snapshot the service instruments (`service.route`,
    /// `service.queue_depth`, the retry/shed/inject family, the socket
    /// plane; `service.shard_imbalance` appears once
    /// [`shutdown`](Self::shutdown) has run).
    pub fn obs_snapshot(&self) -> sbu_obs::Snapshot {
        self.registry.snapshot()
    }

    /// Stop the socket, if any, then the inboxes; join the workers once
    /// they have drained, record `service.shard_imbalance`, and return
    /// per-shard totals (sorted by shard index). Idempotent; a second call
    /// returns an empty vec.
    pub fn shutdown(&mut self) -> Vec<ShardStats> {
        self.socket.iter_mut().for_each(Socket::shutdown);
        self.inboxes.stop();
        let mut stats: Vec<ShardStats> = self
            .workers
            .drain(..)
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        stats.sort_by_key(|s| s.shard);
        // Workers are gone: recording on lane 0 is single-threaded now.
        for s in &stats {
            self.obs.shard_imbalance.record(0, s.ops);
        }
        stats
    }
}

impl<S: WireCodec> Drop for Service<S> {
    fn drop(&mut self) {
        // `shutdown` drains `workers`; this path only fires on an
        // abandoned service (e.g. a panicking test) — stop and detach.
        self.socket.iter_mut().for_each(Socket::shutdown);
        self.inboxes.stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The shard state a worker owns, by recovery mode.
enum WorkerShards<S: WireCodec> {
    Volatile(Vec<Shard<S>>),
    Durable(Vec<DurableShard<S>>),
}

impl<S> WorkerShards<S>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    fn build(recovery: Recovery, ids: &[usize], template: &S) -> Self {
        match recovery {
            Recovery::Volatile => WorkerShards::Volatile(
                ids.iter()
                    .map(|&s| Shard::new(s, template.clone()))
                    .collect(),
            ),
            Recovery::Durable => WorkerShards::Durable(
                ids.iter()
                    .map(|&s| Shard::durable(s, template.clone()))
                    .collect(),
            ),
        }
    }

    fn apply(&mut self, idx: usize, key: u64, op: &S::Op) -> S::Resp {
        match self {
            WorkerShards::Volatile(shards) => shards[idx].apply(key, op),
            WorkerShards::Durable(shards) => shards[idx].apply(key, op),
        }
    }

    fn stats(&self) -> Vec<ShardStats> {
        fn of<S: WireCodec, M>(shards: &[Shard<S, M>]) -> Vec<ShardStats> {
            let one = |s: &Shard<S, M>| ShardStats {
                shard: s.id(),
                ops: s.ops(),
                keys: s.keys(),
            };
            shards.iter().map(one).collect()
        }
        match self {
            WorkerShards::Volatile(shards) => of(shards),
            WorkerShards::Durable(shards) => of(shards),
        }
    }
}

/// The panic payload of a seeded kill — the supervisor recognizes it and
/// respawns; any *other* panic is a real bug and is propagated.
struct SeededKill;

/// Mutable worker state that must survive respawns (held outside the
/// `catch_unwind` boundary).
struct WorkerState<S: WireCodec> {
    shards: WorkerShards<S>,
    /// `(client → (seq → cached encoded response))`, bounded per client.
    dedup: HashMap<u32, BTreeMap<u64, Vec<u8>>>,
    kill: Option<KillState>,
}

/// The supervisor: run the worker loop, and when a seeded kill unwinds it,
/// recover the durable shards and run it again.
fn supervised_worker<S>(
    ctx: WorkerCtx<S>,
    reply: &dyn Fn(&Request, Vec<u8>),
    obs: &ServiceObs,
) -> Vec<ShardStats>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    let mut state = WorkerState {
        shards: WorkerShards::build(ctx.recovery, &ctx.shard_ids, &ctx.template),
        dedup: HashMap::new(),
        kill: ctx.kill.map(|plan| KillState::new(plan, ctx.seed, ctx.w)),
    };
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            worker_loop::<S>(&ctx, &mut state, reply, obs);
        }));
        match run {
            Ok(()) => break,
            Err(payload) => {
                if payload.downcast_ref::<SeededKill>().is_none() {
                    std::panic::resume_unwind(payload); // a real bug
                }
                obs.respawn.incr(ctx.w);
                let WorkerShards::Durable(shards) = &mut state.shards else {
                    unreachable!("build accepts a kill plan only with Recovery::Durable");
                };
                // Real crash–restart: resolve persists, wipe volatile
                // registers, replay per-key recovery. The dedup window
                // models a persisted response log and survives, keeping
                // exactly-once across the crash.
                for shard in shards.iter_mut() {
                    let violations = shard.crash_recover();
                    assert!(
                        violations.is_empty(),
                        "durability violations on respawn: {violations:?}"
                    );
                }
                if let Some(kill) = &mut state.kill {
                    kill.redraw();
                }
            }
        }
    }
    state.shards.stats()
}

/// One worker: take one request at a time off its inbox, apply it to the
/// owning shard (or answer it from the dedup window), and send the
/// response with `reply`, which reads the request's route. Returns when
/// the inboxes stop; unwinds on a seeded kill.
fn worker_loop<S>(
    ctx: &WorkerCtx<S>,
    state: &mut WorkerState<S>,
    reply: &dyn Fn(&Request, Vec<u8>),
    obs: &ServiceObs,
) where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    let w = ctx.w;
    loop {
        let Some((request, depth)) = ctx.inboxes.recv(w) else {
            return;
        };
        obs.queue_depth.record(w, depth);
        // A frame the worker cannot serve is dropped unanswered: from a
        // socket peer, a well-framed one that is not a request or whose op
        // does not decode. A client's retransmission is the recovery path.
        if request.frame.kind != KIND_REQUEST {
            continue;
        }
        let Ok(op) = S::decode_op(&request.frame.payload) else {
            continue;
        };
        handle_request::<S>(ctx, state, request, &op, reply, obs);
    }
}

fn handle_request<S>(
    ctx: &WorkerCtx<S>,
    state: &mut WorkerState<S>,
    request: Request,
    op: &S::Op,
    reply: &dyn Fn(&Request, Vec<u8>),
    obs: &ServiceObs,
) where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    let w = ctx.w;

    // The seeded kill hook: die *before* applying, with the interrupted
    // request requeued for the recovered shards. No ack was sent and no
    // state changed: never silently lost, never double-applied. The unwind
    // skips the panic hook: a seeded kill is not a bug, and a hook that
    // prints a backtrace (`RUST_BACKTRACE=1`) can outlast the client's
    // retransmission timer, which would put wall-clock timing into a
    // seeded run.
    if let Some(kill) = &mut state.kill {
        if kill.fires() {
            ctx.inboxes.requeue_front(w, request);
            std::panic::resume_unwind(Box::new(SeededKill));
        }
    }

    // A retransmission of a request still in the dedup window is answered
    // from it, not re-applied.
    let frame = &request.frame;
    let window = state.dedup.entry(frame.client).or_default();
    if let Some(cached) = window.get(&frame.seq) {
        obs.dedup_hit.incr(w);
        reply(&request, cached.clone());
        return;
    }

    debug_assert_eq!(
        ctx.map.worker_of(frame.key, ctx.workers),
        w,
        "request routed to wrong worker"
    );
    let idx = ctx.map.slot_of(frame.key, ctx.workers);
    let resp = state.shards.apply(idx, frame.key, op);
    obs.route.incr(w);

    let resp_bytes = response_frame::<S>(frame, &resp).to_bytes();
    let window = state.dedup.entry(frame.client).or_default();
    window.insert(frame.seq, resp_bytes.clone());
    while window.len() > DEDUP_WINDOW {
        window.pop_first();
    }
    reply(&request, resp_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::ServiceError;
    use sbu_spec::specs::{CounterOp, CounterSpec, JamWordOp, JamWordResp, JamWordSpec};

    #[test]
    fn counter_service_end_to_end() {
        let mut svc = Service::builder(8)
            .workers(3)
            .clients(4)
            .build(CounterSpec::new());
        // 4 client threads hammer 32 keys; per-key totals must be exact.
        std::thread::scope(|scope| {
            for client in 0..4usize {
                let svc = &svc;
                scope.spawn(move || {
                    for round in 0..25 {
                        for key in 0..32 {
                            let got = svc.client(client).call(key, &CounterOp::Inc).unwrap();
                            assert!(got >= 1, "round {round}: inc returned {got}");
                        }
                    }
                });
            }
        });
        for key in 0..32 {
            assert_eq!(
                svc.client(0).call(key, &CounterOp::Read).unwrap(),
                100,
                "key {key}"
            );
        }
        let stats = svc.shutdown();
        assert_eq!(stats.len(), 8);
        // 4 clients × 25 rounds × 32 keys + 32 reads.
        assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), 4 * 25 * 32 + 32);
        assert_eq!(stats.iter().map(|s| s.keys).sum::<usize>(), 32);
    }

    #[test]
    fn jam_word_sticks_across_clients() {
        let mut svc = Service::builder(2)
            .workers(2)
            .clients(8)
            .build(JamWordSpec::new());
        // 8 clients race to jam the same key; exactly one value must win
        // and every response must report that same value.
        let winners: Vec<u64> = std::thread::scope(|scope| {
            (0..8usize)
                .map(|client| {
                    let svc = &svc;
                    scope.spawn(move || {
                        match svc
                            .client(client)
                            .call(99, &JamWordOp::Jam(client as u64 + 1))
                            .unwrap()
                        {
                            JamWordResp::Jam { value, .. } => value,
                            other => panic!("unexpected response {other:?}"),
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let first = winners[0];
        assert!(winners.iter().all(|&v| v == first), "winners: {winners:?}");
        assert_eq!(
            svc.client(0).call(99, &JamWordOp::Read).unwrap(),
            JamWordResp::Value(Some(first))
        );
        svc.shutdown();
    }

    #[test]
    fn shutdown_reports_imbalance_histogram() {
        let mut svc = Service::builder(4).workers(2).build(CounterSpec::new());
        for key in 0..64 {
            svc.client(0).call(key, &CounterOp::Inc).unwrap();
        }
        let route = svc.obs_snapshot().counter("service.route");
        let stats = svc.shutdown();
        assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), 64);
        // With obs compiled in the route counter saw every request; the
        // disabled sinks legitimately read zero.
        if cfg!(feature = "obs") {
            assert_eq!(route, 64);
        }
    }

    #[test]
    fn lossy_transport_converges_with_exact_counts() {
        // The fault plane, in miniature: heavy drop/dup/corrupt/delay on
        // every lane, and the counter still ends exactly right because
        // retransmissions are deduped server-side.
        let mut svc = Service::builder(4)
            .workers(2)
            .clients(3)
            .fault(FaultProfile::lossy())
            .retry(RetryPolicy::lossy())
            .seed(7)
            .build(CounterSpec::new());
        let per_client = 40u64;
        std::thread::scope(|scope| {
            for client in 0..3usize {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..per_client {
                        svc.client(client)
                            .call(i % 8, &CounterOp::Inc)
                            .unwrap_or_else(|e| panic!("client {client} op {i}: {e}"));
                    }
                });
            }
        });
        let total: u64 = (0..8)
            .map(|key| svc.client(0).call(key, &CounterOp::Read).unwrap())
            .sum();
        assert_eq!(
            total,
            3 * per_client,
            "acked increments must all count once"
        );
        let snap = svc.obs_snapshot();
        svc.shutdown();
        if cfg!(feature = "obs") {
            assert!(
                snap.counter("service.inject.drop") > 0,
                "10% drop over ≥120 ops must fire"
            );
            assert!(
                snap.counter("service.retry") > 0,
                "drops must force retransmissions"
            );
        }
    }

    /// 256 requests in flight from one client into a one-slot inbox over
    /// `transport`: every shed comes back as a `Busy` reply, and every
    /// wait ends in a value or in `Busy`.
    fn one_slot_inbox_sheds_with_busy_replies(transport: TransportConfig) {
        let deadline = std::time::Duration::from_secs(1);
        let mut svc = Service::builder(1)
            .transport(transport)
            .mailbox_capacity(1)
            .retry(RetryPolicy::patient().with_deadline(deadline))
            .build(CounterSpec::new());
        let client = svc.client(0);
        let pending: Vec<_> = (0..256)
            .map(|_| client.submit(0, &CounterOp::Inc))
            .collect();
        let (mut ok, mut busy) = (0u64, 0u64);
        for p in pending {
            match p.wait(std::time::Instant::now() + deadline) {
                Ok(_) => ok += 1,
                Err(e) if e.is_busy() => busy += 1,
                Err(e) => panic!("a wait ended in neither a value nor Busy: {e}"),
            }
        }
        let snap = svc.obs_snapshot();
        let applied = svc.shutdown()[0].ops;
        // A retransmission sent after a Busy can still be applied after
        // its wait gave up.
        assert!(
            (ok..=ok + busy).contains(&applied),
            "applied {applied}, acked {ok}, busy {busy}"
        );
        if cfg!(feature = "obs") {
            assert!(
                snap.counter("service.shed") > 0,
                "a one-slot inbox must shed"
            );
        }
    }

    #[test]
    fn bounded_mailbox_sheds_with_busy_replies_in_process() {
        one_slot_inbox_sheds_with_busy_replies(TransportConfig::InProcess);
    }

    #[test]
    fn bounded_mailbox_sheds_with_busy_replies_over_unix() {
        let path = std::env::temp_dir().join(format!("sbu-shed-{}.sock", std::process::id()));
        one_slot_inbox_sheds_with_busy_replies(TransportConfig::Unix(path.clone()));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn call_surfaces_busy_when_saturated_past_deadline() {
        // Capacity 1 and a stopped-ish worker: fill the inbox, then a call
        // with a tiny deadline must come back Busy, not hang.
        let svc = Service::builder(1)
            .clients(2)
            .mailbox_capacity(1)
            .retry(RetryPolicy::patient().with_deadline(std::time::Duration::from_millis(50)))
            .build(CounterSpec::new());
        // Client 1 floods without draining so the single slot stays busy
        // often; client 0's call may still succeed if the worker drains in
        // time, so only assert the *type* of failure when one happens.
        for _ in 0..512 {
            let _ = svc.client(1).submit(0, &CounterOp::Inc);
        }
        match svc.client(0).call(0, &CounterOp::Inc) {
            Ok(_) => {}
            Err(e) => assert!(
                e.is_busy() || matches!(e, ServiceError::Deadline { .. }),
                "unexpected error class: {e}"
            ),
        }
    }

    #[test]
    fn durable_kills_lose_no_acked_operations() {
        let mut svc = Service::builder(2)
            .kill(KillPlan::every(8))
            .recovery(Recovery::Durable)
            .seed(5)
            .build(CounterSpec::new());
        let n = 100u64;
        for i in 0..n {
            svc.client(0)
                .call(i % 4, &CounterOp::Inc)
                .unwrap_or_else(|e| panic!("op {i}: {e}"));
        }
        let total: u64 = (0..4)
            .map(|key| svc.client(0).call(key, &CounterOp::Read).unwrap())
            .sum();
        assert_eq!(total, n, "durable recovery must preserve every acked op");
        let snap = svc.obs_snapshot();
        svc.shutdown();
        if cfg!(feature = "obs") {
            assert!(snap.counter("service.respawn") > 0, "kills must fire");
            // Durable kills requeue the in-flight frame: the client never
            // even notices, so it retransmits nothing.
            assert_eq!(snap.counter("service.retry"), 0);
        }
    }

    #[test]
    #[should_panic(expected = "kill period must be ≥ 2")]
    fn build_rejects_a_kill_period_below_two() {
        let _ = Service::builder(1)
            .kill(KillPlan::every(1))
            .build(CounterSpec::new());
    }

    #[test]
    #[should_panic(expected = "a kill plan requires Recovery::Durable")]
    fn build_rejects_a_volatile_kill() {
        let _ = Service::builder(1)
            .kill(KillPlan::every(8))
            .build(CounterSpec::new());
    }
}
