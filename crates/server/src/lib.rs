// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
// The workspace is 100% safe Rust; `cardest-lint` (unsafe-block rule) and
// this forbid cross-check each other.
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # cardest-server
//!
//! A zero-dependency estimation service over the trained estimators: the
//! piece ROADMAP item 1 calls out as the gap between "a stack that could
//! serve" and "a service". Everything is hand-rolled on `std` in keeping
//! with the vendored-deps ethos — no async runtime, no HTTP framework:
//!
//! * [`http`] — a minimal HTTP/1.1 reader/writer over `TcpStream`
//!   (request line + headers + `Content-Length` body, keep-alive),
//! * [`model`] — artifact loading dispatched on the verified kind tag
//!   (`cardest.mlp` / `cardest.cardnet` / `cardest.gl`) and the owned
//!   query codec (JSON floats → dense or bit-packed binary),
//! * [`registry`] — the hot-reload [`registry::ModelRegistry`]: an
//!   `Arc`-swapped [`cardest_baselines::guarded::GuardedEstimator`];
//!   in-flight requests finish on the model generation they started
//!   with, a corrupt artifact is rejected with a typed error while the
//!   old model stays live, and guard counters stay exact across swaps,
//! * [`ingest`] — online mutation behind `POST /insert`: durable inserts
//!   through `cardest_store::DurableIngest` (WAL-ahead, crash-safe), a
//!   drift monitor on the request path, and a background worker that
//!   fine-tunes drifted segments and hot-swaps the result through the
//!   registry,
//! * [`replicate`] — the primary / warm-standby role switch behind
//!   `GET /ready` and `POST /admin/promote`: a standby replays the
//!   primary's WAL stream (`cardest_store::replicate`), serves read-only
//!   estimates, and flips to writable without a restart,
//! * [`coalesce`] — single-query requests are served as soon as the
//!   batcher is free, and those that queue up behind a busy batcher flush
//!   together as one `estimate_batch` call on the batched serving path,
//!   with a bounded queue for admission control,
//! * [`stats`] — lock-free per-route latency histograms and serving
//!   counters behind `GET /stats`,
//! * [`server`] — the `TcpListener` + fixed worker-thread pool tying it
//!   together, exposing `POST /estimate`, `POST /estimate_batch`,
//!   `GET /health`, `GET /stats`, and `POST /admin/reload`,
//! * [`client`] — a tiny blocking HTTP client used by the smoke battery
//!   and the load generator.
//!
//! Wire protocol, swap semantics, and overload behaviour are documented
//! in `DESIGN.md` §11.

pub mod client;
mod clock;
pub mod coalesce;
pub mod http;
pub mod ingest;
pub mod model;
pub mod registry;
pub mod replicate;
pub mod server;
pub mod stats;

pub use ingest::{IngestService, IngestSnapshot, StandbyBridge};
pub use registry::{ModelRegistry, RegistryConfig, ReloadError};
pub use replicate::ReplicationState;
pub use server::{Server, ServerConfig, ServerHandle};
