//! # sbu-service — a sharded keyed object space over the universal construction
//!
//! The paper's result is *per object*: any sequential spec becomes one
//! wait-free linearizable object. This crate scales that out the way a
//! real system would — a keyed **object space** where every `u64` key
//! names an independent object, partitioned into shards that each own
//! their universal-construction instances:
//!
//! ```text
//!   client ──encode──▶ Transport (in-process │ unix │ tcp, ± faults)
//!     ──▶ per-worker inboxes (one frame per blob) ──▶ dedup window
//!       ──▶ Shard (single owner)
//!       ──▶ Universal::apply at the object for key
//!         ──encode──▶ Transport ──▶ client handle
//! ```
//!
//! * [`ShardMap`] — the pure routing function (`key → shard`): the key
//!   hashed through splitmix64, masked to a power-of-two shard count.
//! * [`Frame`]/[`FrameDecoder`]/[`WireCodec`] — the length-prefixed wire
//!   protocol. The decoder is incremental for socket streams; every queued
//!   blob is one whole frame, decoded once.
//! * [`Transport`] — the pluggable byte plane ([`TransportConfig`]):
//!   in-process mailboxes by default, or a real blocking TCP /
//!   Unix-domain-socket listener (one acceptor thread, one reader per
//!   connection, one re-encoded frame per blob) selected with
//!   `Service::builder(..).transport(..)`. Every carrier pushes requests
//!   into the same per-worker inboxes, which the service owns. The seeded
//!   fault injector is a wrapper over any of them.
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
//!   *lie*) injected at the transport seam, counted as `service.inject.*`.
//! * [`RetryPolicy`]/[`ServiceError`] — per-request deadlines, bounded
//!   exponential backoff with seeded jitter, retransmission keyed by the
//!   wire protocol's existing `(client, seq)` pair — including
//!   reconnect-and-retransmit when a socket drops; the server's per-worker
//!   dedup window answers retransmits from cache, making acked operations
//!   exactly-once under arbitrary honest loss.
//! * [`KillPlan`]/[`Recovery`]/[`DurableShard`] — seeded worker kills with
//!   supervisor respawn: volatile shards answer the in-flight request with
//!   a typed `Unavailable` the client retries; durable shards run the real
//!   `DurableMem` crash–restart protocol plus per-key
//!   [`sbu_core::Universal::recover`], losing nothing acked.
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
//! `service.dedup_hit`, `service.respawn`, `service.unavailable` — and the
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
pub use transport::{ClientConn, ConnEvent, Delivery, Transport, TransportConfig};
pub use wire::{
    control_frame, request_frame, response_frame, Frame, FrameDecoder, WireCodec, WireError,
    KIND_BUSY, KIND_REQUEST, KIND_RESPONSE, KIND_UNAVAILABLE, MAX_FRAME_LEN,
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
