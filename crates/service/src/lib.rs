//! # sbu-service — a sharded keyed object space over the universal construction
//!
//! The paper's result is *per object*: any sequential spec becomes one
//! wait-free linearizable object. This crate scales that out the way a
//! real system would — a keyed **object space** where every `u64` key
//! names an independent object, partitioned into shards that each own
//! their universal-construction instances:
//!
//! ```text
//!   client ──encode──▶ transport (in-process │ unix │ tcp, ± faults)
//!     ──decode once──▶ per-worker inboxes (frame + its way back)
//!       ──▶ dedup window ──▶ Shard (single owner)
//!       ──▶ Universal::apply at the object for key
//!         ──encode──▶ back the way the request came ──▶ client handle
//! ```
//!
//! * [`ShardMap`] — the pure routing function (`key → shard`): the key
//!   hashed through splitmix64, masked to a power-of-two shard count.
//! * [`Frame`]/[`FrameDecoder`]/[`WireCodec`] — the length-prefixed wire
//!   protocol. The decoder is incremental for socket streams; a request is
//!   decoded once, where it arrives.
//! * [`TransportConfig`] — the pluggable byte plane: in-process mailboxes
//!   by default, or a real blocking TCP / Unix-domain-socket listener (one
//!   acceptor thread, one reader per connection) selected with
//!   `Service::builder(..).transport(..)`. Every carrier pushes decoded
//!   requests into the same per-worker inboxes, which the service owns;
//!   each request carries its way back, and one reply path reads it, so a
//!   socket request is answered on the stream it came in on. The seeded
//!   fault injector puts its lanes on either carrier.
//! * [`Shard`] — a single-owner slice of the key space, lazily
//!   materializing one tiny (`n = 1`) [`sbu_core::Universal`] per touched
//!   key. Cheap bulk instance construction is what makes "one universal
//!   object per key" viable.
//! * [`Service`] — the thread-per-core server loop (`workers` threads,
//!   static shard ownership) built with [`Service::builder`]; callers go
//!   through typed [`ServiceClient`] handles: blocking
//!   [`ServiceClient::call`] or [`ServiceClient::submit`] returning a
//!   [`Pending`] to `wait(deadline)` on.
//! * [`loadgen`] — the seeded offline load generator behind experiments
//!   E12/E15 (open/closed loop, uniform/Zipf keys, any transport, one
//!   `submit` + `wait` loop per client).
//!
//! The **fault-tolerant plane** hardens that loop end to end:
//!
//! * [`FaultProfile`] — seeded transport faults (drop, duplicate, corrupt,
//!   delay, the stream-killing *disconnect*, and the checksum-fixing
//!   *lie*) injected on either carrier, requests on their way in and
//!   replies on their way out, counted as `service.inject.*`.
//! * [`RetryPolicy`]/[`ServiceError`] — per-request deadlines and one
//!   retransmission path for every client: an RFC 6298 timer with seeded
//!   jitter (the policy sets its floor) plus the per-worker FIFO loss
//!   signal, retransmission keyed by the wire protocol's existing
//!   `(client, seq)` pair — including reconnect-and-retransmit when a
//!   socket drops; the server's per-worker dedup window answers
//!   retransmits from cache, making acked operations exactly-once under
//!   honest loss as long as each retransmit arrives before its entry has
//!   left the 64-entry window. A later one is applied again (DESIGN.md
//!   §14); ROADMAP item 4 replaces the window with client-acknowledged
//!   completion records.
//! * [`KillPlan`]/[`Recovery`]/[`DurableShard`] — seeded worker kills with
//!   supervisor respawn, on durable shards only: every kill runs the real
//!   `DurableMem` crash–restart protocol plus per-key
//!   [`sbu_core::Universal::recover`] and requeues the in-flight request,
//!   losing nothing acked.
//! * Bounded inboxes shed load past a high watermark: every transport
//!   answers a refused request with a `Busy` frame, which the client's
//!   `wait` counts (`service.shed`) and retries until its deadline; a
//!   malformed *stream* (oversized length prefix) kills only its
//!   connection (`service.conn_drop`), and a well-framed frame the worker
//!   cannot serve is dropped — neither ever kills a worker.
//!
//! Observability: `service.route` (requests routed), `service.queue_depth`
//! (inbox depth at drain), `service.shard_imbalance` (per-shard op totals
//! at shutdown), the fault-plane family — `service.inject.{drop,dup,
//! corrupt,delay,disconnect,lie}`, `service.retry`,
//! `service.stale_reply`, `service.garbled`, `service.shed`,
//! `service.dedup_hit`, `service.respawn` — and the
//! socket plane — `service.accept`, `service.conn_drop`,
//! `service.read_syscall`, `service.partial_frame` — all on
//! per-worker/per-client lanes under the repo's single-writer discipline
//! and merged via `sbu_obs::Snapshot::merge`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod fault;
pub mod loadgen;
pub mod retry;
mod route;
mod server;
mod shard;
mod socket;
mod supervise;
pub mod transport;
mod wire;

pub use client::{Pending, ServiceClient};
pub use fault::{Admission, FaultProfile, FaultyChannel, InjectObs};
pub use loadgen::{LoadgenConfig, LoadgenReport, LoopMode, Skew};
pub use retry::{RetryPolicy, ServiceError};
pub use route::ShardMap;
pub use server::{Service, ServiceBuilder, ShardStats};
pub use shard::{DurableShard, Shard};
pub use socket::SocketConn;
pub use supervise::{KillPlan, Recovery};
pub use transport::{ClientConn, ConnEvent, Delivery, TransportConfig};
pub use wire::{
    busy_frame, request_frame, response_frame, Frame, FrameDecoder, WireCodec, WireError,
    KIND_BUSY, KIND_REQUEST, KIND_RESPONSE, MAX_FRAME_LEN,
};

/// The one-stop import for service users: builder, client handles, typed
/// errors, transports, and the fault-plane knobs.
///
/// ```
/// use sbu_service::prelude::*;
/// use sbu_spec::specs::{CounterOp, CounterSpec};
///
/// let mut svc = Service::builder(2).build(CounterSpec::new());
/// assert_eq!(svc.client(0).call(7, &CounterOp::Inc).unwrap(), 1);
/// svc.shutdown();
/// ```
pub mod prelude {
    pub use crate::fault::FaultProfile;
    pub use crate::loadgen::{LoadgenConfig, LoadgenReport, LoopMode, Skew};
    pub use crate::retry::{RetryPolicy, ServiceError};
    pub use crate::route::ShardMap;
    pub use crate::server::{Service, ServiceBuilder, ShardStats};
    pub use crate::supervise::{KillPlan, Recovery};
    pub use crate::transport::TransportConfig;
    pub use crate::wire::WireCodec;
    pub use crate::{Pending, ServiceClient};
}
