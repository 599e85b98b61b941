// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest-store
//!
//! Crash-safe durability for online ingestion (ROADMAP item 2: the §5.3
//! incremental-update experiment, made mutable *under serving*):
//!
//! * [`wal`] — an append-only write-ahead log with a fixed 21-byte record
//!   header (length, FNV-1a checksum over seq‖kind‖payload, sequence
//!   number, kind), torn-tail detection, and physical truncation on
//!   recovery,
//! * [`snapshot`] — periodic full-state checkpoints in the
//!   `cardest_nn::artifact` container (magic/version/kind/checksum,
//!   atomic temp-file rename), prefixed with the WAL sequence number they
//!   cover,
//! * [`segment`] — [`SegmentedWal`]: a store directory's WAL, one
//!   append-only `wal.log` that snapshots truncate, read back for
//!   replication catch-up,
//! * [`ingest`] — [`DurableIngest`]: validate → WAL append → pure apply →
//!   ack, with recovery = snapshot-load + WAL-replay through the same
//!   deterministic [`cardest_core::UpdatableGl::apply_insert`] path, so
//!   recovered state is bit-identical to the never-crashed run,
//! * [`replicate`] — warm-standby replication: a CRC-guarded TCP frame
//!   protocol streaming WAL records (and bootstrap snapshots) from a
//!   primary to standbys that replay them through the same apply path,
//!   with heartbeats, lag tracking, and backoff-driven reconnection,
//! * [`crash`] — deterministic byte-offset kill schedules for the crash
//!   matrix (`cardest_nn::faults` style: everything is seed-driven),
//! * [`chaos`] — a deterministic fault-injecting TCP proxy (drops,
//!   delays, disconnects, torn/duplicated frames, bit flips) that proves
//!   the replication path converges under network failure.

pub mod chaos;
pub mod clock;
pub mod crash;
pub mod ingest;
pub mod replicate;
pub mod segment;
pub mod snapshot;
pub mod wal;

pub use ingest::{
    DurableIngest, InsertReceipt, RecoveryReport, ReplicatedApply, ReplicationFetch, StoreConfig,
    StoreError,
};
pub use replicate::{
    decode_frame, encode_frame, Frame, FrameError, ListenerConfig, PrimaryReplStats, ReplicaClient,
    ReplicaClientConfig, ReplicaSource, ReplicaStatus, ReplicationListener, SharedStore,
    StandbyTarget,
};
pub use segment::SegmentedWal;
pub use snapshot::{read_snapshot, write_snapshot, SnapshotError, SNAPSHOT_KIND};
pub use wal::{scan, TailDefect, Wal, WalError, WalRecord, WalRecovery};
