//! Durable online ingestion: WAL-ahead writes over an [`UpdatableGl`].
//!
//! The write path is the classic ordering: validate → WAL append (+sync)
//! → apply in memory → acknowledge. Because [`UpdatableGl::apply_insert`]
//! and [`UpdatableGl::apply_delete`] are pure and deterministic, recovery
//! is exact: load the latest snapshot, replay every WAL record with a
//! higher sequence number through the same apply functions, and the
//! resulting state is bit-identical to the never-crashed run (pinned by
//! `state_fingerprint`). Fine-tuned model weights are soft state: they
//! are made durable by the next snapshot, and a crash before it merely
//! loses the fine-tune — dataset, labels, and segment membership are
//! still exact, so the recovered model answers from slightly staler
//! weights until the drift monitor fires again.

use crate::segment::SegmentedWal;
use crate::snapshot::{self, SnapshotError};
use crate::wal::{WalError, WalRecord, WalRecovery};
use cardest_core::update::UpdatableGl;
use cardest_data::vector::{VectorData, VectorView};
use std::fmt;
use std::path::{Path, PathBuf};

/// WAL file name inside a store directory: the whole log is this file.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "state.snapshot";

/// Record kinds this store writes.
pub const OP_INSERT_DENSE: u8 = 1;
pub const OP_INSERT_BINARY: u8 = 2;
pub const OP_DELETE: u8 = 3;

/// Store behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Appends between automatic snapshots; 0 disables auto-snapshots
    /// (callers snapshot explicitly, e.g. after a fine-tune).
    pub snapshot_every: usize,
    /// `sync_data` after every append — the durability the ack promises.
    /// Tests that manufacture crashes from buffers can turn it off.
    pub sync_writes: bool,
    /// Keep replayed records in the WAL across snapshots instead of
    /// truncating it. Recovery stays correct either way (covered records
    /// are skipped); the bench uses this to measure replay cost vs WAL
    /// length.
    pub retain_wal: bool,
    /// Ignored: the WAL is one file, `wal.log`. The field remains only for
    /// callers that record it with the rest of the config.
    pub rotate_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            snapshot_every: 256,
            sync_writes: true,
            retain_wal: false,
            rotate_bytes: 0,
        }
    }
}

/// Everything the durable-ingest layer can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    Io(String),
    Wal(WalError),
    Snapshot(SnapshotError),
    /// Snapshot state failed to (de)serialize.
    Serde(String),
    /// Inserted point has the wrong dimensionality.
    DimensionMismatch {
        expected: usize,
        got: usize,
    },
    /// Inserted point mixes representations with the dataset.
    ReprMismatch {
        expected: &'static str,
    },
    /// Inserted dense component is NaN or infinite.
    NonFinite {
        index: usize,
    },
    /// Delete index beyond the dataset.
    OutOfRange {
        index: usize,
        len: usize,
    },
    /// The WAL's first uncovered record does not follow the snapshot —
    /// records the snapshot depends on are missing.
    SeqGap {
        snapshot_seq: u64,
        found: u64,
    },
    /// A WAL record carried an undecodable payload for its kind.
    BadOp {
        seq: u64,
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store io error: {m}"),
            StoreError::Wal(e) => write!(f, "{e}"),
            StoreError::Snapshot(e) => write!(f, "{e}"),
            StoreError::Serde(m) => write!(f, "store state serde error: {m}"),
            StoreError::DimensionMismatch { expected, got } => {
                write!(f, "point has dimension {got}, dataset expects {expected}")
            }
            StoreError::ReprMismatch { expected } => {
                write!(f, "point representation mismatch: dataset is {expected}")
            }
            StoreError::NonFinite { index } => {
                write!(f, "point component {index} is not finite")
            }
            StoreError::OutOfRange { index, len } => {
                write!(f, "delete index {index} out of range for {len} rows")
            }
            StoreError::SeqGap {
                snapshot_seq,
                found,
            } => write!(
                f,
                "wal gap: snapshot covers seq {snapshot_seq} but the next record is {found}"
            ),
            StoreError::BadOp { seq, reason } => {
                write!(f, "undecodable wal record at seq {seq}: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        StoreError::Wal(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

/// What [`DurableIngest::replication_fetch`] hands a catching-up standby.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicationFetch {
    /// WAL records after the requested position, oldest first.
    Records(Vec<WalRecord>),
    /// A snapshot truncated the position out of the WAL: full state as
    /// of `seq`.
    Snapshot { seq: u64, state: Vec<u8> },
}

/// What [`DurableIngest::apply_replicated`] did with a streamed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicatedApply {
    /// The record extended the stream and was WAL-appended + applied.
    Applied,
    /// A duplicate delivery of an already-applied seq; dropped.
    Skipped,
}

/// The acknowledgement an insert returns once it is durable and applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReceipt {
    /// WAL sequence number that made the insert durable.
    pub seq: u64,
    /// Dataset row index the point landed at.
    pub index: usize,
    /// Segment the point was routed to.
    pub segment: usize,
}

/// What a recovery ([`DurableIngest::open`]) found and replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number the loaded snapshot covered.
    pub snapshot_seq: u64,
    /// WAL records replayed (seq beyond the snapshot).
    pub replayed: usize,
    /// WAL records skipped because the snapshot already covered them.
    pub skipped: usize,
    /// What the WAL scan found (torn tails land here, already truncated).
    pub wal: WalRecovery,
    /// Temp files from a crash mid-snapshot-rename that were swept.
    pub stale_tmp_swept: usize,
}

/// A durable, recoverable [`UpdatableGl`].
pub struct DurableIngest {
    upd: UpdatableGl,
    wal: SegmentedWal,
    dir: PathBuf,
    cfg: StoreConfig,
    appends_since_snapshot: usize,
}

impl DurableIngest {
    /// Initializes a store directory with a base snapshot of `upd` (at
    /// seq 0) and an empty WAL. Any pre-existing WAL content is dropped —
    /// the snapshot is the new ground truth.
    pub fn create(dir: &Path, upd: UpdatableGl, cfg: StoreConfig) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io(e.to_string()))?;
        let state = upd
            .snapshot_json()
            .map_err(|e| StoreError::Serde(e.to_string()))?;
        snapshot::write_snapshot(&dir.join(SNAPSHOT_FILE), 0, state.as_bytes())?;
        let (mut wal, _, _) = SegmentedWal::open(dir, cfg.sync_writes, 0)?;
        wal.truncate_all()?;
        wal.set_next_seq(1);
        Ok(DurableIngest {
            upd,
            wal,
            dir: dir.to_path_buf(),
            cfg,
            appends_since_snapshot: 0,
        })
    }

    /// Recovers a store: sweeps torn snapshot temp files, loads the
    /// snapshot, truncates any torn WAL tail, and replays every record
    /// beyond the snapshot through the pure apply path.
    pub fn open(dir: &Path, cfg: StoreConfig) -> Result<(Self, RecoveryReport), StoreError> {
        let stale_tmp_swept = snapshot::sweep_stale_tmp(dir, snapshot::SWEEP_GRACE);
        let (snapshot_seq, state) = snapshot::read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let state = std::str::from_utf8(&state)
            .map_err(|_| StoreError::Serde("snapshot state is not utf-8".into()))?;
        let mut upd =
            UpdatableGl::from_snapshot_json(state).map_err(|e| StoreError::Serde(e.to_string()))?;
        let (mut wal, records, wal_recovery) = SegmentedWal::open(dir, cfg.sync_writes, 0)?;
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        for r in &records {
            if r.seq <= snapshot_seq {
                skipped += 1;
                continue;
            }
            if r.seq != snapshot_seq + 1 + replayed as u64 {
                return Err(StoreError::SeqGap {
                    snapshot_seq,
                    found: r.seq,
                });
            }
            apply_record(&mut upd, r.seq, r.kind, &r.payload)?;
            replayed += 1;
        }
        let last_seq = records
            .last()
            .map_or(snapshot_seq, |r| r.seq.max(snapshot_seq));
        wal.set_next_seq(last_seq + 1);
        let report = RecoveryReport {
            snapshot_seq,
            replayed,
            skipped,
            wal: wal_recovery,
            stale_tmp_swept,
        };
        Ok((
            DurableIngest {
                upd,
                wal,
                dir: dir.to_path_buf(),
                cfg,
                appends_since_snapshot: replayed,
            },
            report,
        ))
    }

    /// Durably inserts one point (any representation the dataset uses):
    /// validate → WAL append → apply → maybe auto-snapshot → ack.
    pub fn insert(&mut self, point: VectorView<'_>) -> Result<InsertReceipt, StoreError> {
        let (kind, payload) = self.validate_and_encode(point)?;
        let seq = self.wal.append(kind, &payload)?;
        let index = self.upd.dataset_len();
        let segment = self.upd.apply_insert(point);
        self.note_append()?;
        Ok(InsertReceipt {
            seq,
            index,
            segment,
        })
    }

    /// Durably inserts a dense point given as raw components.
    pub fn insert_dense(&mut self, point: &[f32]) -> Result<InsertReceipt, StoreError> {
        self.insert(VectorView::Dense(point))
    }

    /// Durably tombstones a dataset row. Returns the WAL seq and the
    /// segment the point left (`None` if it was already deleted — still
    /// logged, so replay reproduces the no-op identically).
    pub fn delete(&mut self, index: usize) -> Result<(u64, Option<usize>), StoreError> {
        let len = self.upd.dataset_len();
        if index >= len {
            return Err(StoreError::OutOfRange { index, len });
        }
        let seq = self.wal.append(OP_DELETE, &(index as u64).to_le_bytes())?;
        let seg = self.upd.apply_delete(index);
        self.note_append()?;
        Ok((seq, seg))
    }

    /// Writes a snapshot covering everything applied so far, then (unless
    /// retaining) truncates the WAL records the snapshot made redundant.
    /// Also the call that makes a background fine-tune durable.
    pub fn snapshot_now(&mut self) -> Result<(), StoreError> {
        let state = self
            .upd
            .snapshot_json()
            .map_err(|e| StoreError::Serde(e.to_string()))?;
        let last_seq = self.wal.next_seq() - 1;
        snapshot::write_snapshot(&self.dir.join(SNAPSHOT_FILE), last_seq, state.as_bytes())?;
        if !self.cfg.retain_wal {
            self.wal.truncate_all()?;
        }
        self.appends_since_snapshot = 0;
        Ok(())
    }

    fn note_append(&mut self) -> Result<(), StoreError> {
        self.appends_since_snapshot += 1;
        if self.cfg.snapshot_every > 0 && self.appends_since_snapshot >= self.cfg.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(())
    }

    fn validate_and_encode(&self, point: VectorView<'_>) -> Result<(u8, Vec<u8>), StoreError> {
        let expected = self.upd.data().dim();
        match (self.upd.data(), point) {
            (VectorData::Dense(_), VectorView::Dense(v)) => {
                if v.len() != expected {
                    return Err(StoreError::DimensionMismatch {
                        expected,
                        got: v.len(),
                    });
                }
                if let Some(index) = v.iter().position(|x| !x.is_finite()) {
                    return Err(StoreError::NonFinite { index });
                }
                let mut payload = Vec::with_capacity(v.len() * 4);
                for x in v {
                    payload.extend_from_slice(&x.to_le_bytes());
                }
                Ok((OP_INSERT_DENSE, payload))
            }
            (VectorData::Binary(_), VectorView::Binary { words, dim }) => {
                if dim != expected {
                    return Err(StoreError::DimensionMismatch { expected, got: dim });
                }
                if words.len() != expected.div_ceil(64) {
                    return Err(StoreError::DimensionMismatch {
                        expected,
                        got: words.len() * 64,
                    });
                }
                let mut payload = Vec::with_capacity(words.len() * 8);
                for w in words {
                    payload.extend_from_slice(&w.to_le_bytes());
                }
                Ok((OP_INSERT_BINARY, payload))
            }
            (VectorData::Dense(_), _) => Err(StoreError::ReprMismatch { expected: "dense" }),
            (VectorData::Binary(_), _) => Err(StoreError::ReprMismatch { expected: "binary" }),
        }
    }

    /// The recovered/served estimator state.
    pub fn estimator(&self) -> &UpdatableGl {
        &self.upd
    }

    /// Mutable estimator access (fine-tunes; the dataset itself must only
    /// change through [`DurableIngest::insert`] / [`DurableIngest::delete`]
    /// or recovery loses exactness).
    pub fn estimator_mut(&mut self) -> &mut UpdatableGl {
        &mut self.upd
    }

    /// Sequence number of the last durable record (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.wal.next_seq() - 1
    }

    /// Current WAL size in bytes.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// What a catching-up standby at `after_seq` should receive next: the
    /// records still in `wal.log`, or, once a snapshot has truncated the
    /// requested position out of it, the full current state to bootstrap
    /// from (then the live stream from there).
    pub fn replication_fetch(
        &self,
        after_seq: u64,
        max: usize,
    ) -> Result<ReplicationFetch, StoreError> {
        if let Some(records) = self.wal.read_since(after_seq, max)? {
            return Ok(ReplicationFetch::Records(records));
        }
        let state = self
            .upd
            .snapshot_json()
            .map_err(|e| StoreError::Serde(e.to_string()))?;
        Ok(ReplicationFetch::Snapshot {
            seq: self.last_seq(),
            state: state.into_bytes(),
        })
    }

    /// Applies one record streamed from a primary: duplicates (seq at or
    /// below the last applied) are skipped so re-delivered frames are
    /// idempotent; the next expected seq is WAL-appended and applied
    /// through the same path as local inserts; anything further ahead is
    /// a gap the caller must resolve by re-syncing.
    pub fn apply_replicated(&mut self, rec: &WalRecord) -> Result<ReplicatedApply, StoreError> {
        let last = self.last_seq();
        if rec.seq <= last {
            return Ok(ReplicatedApply::Skipped);
        }
        if rec.seq != last + 1 {
            return Err(StoreError::SeqGap {
                snapshot_seq: last,
                found: rec.seq,
            });
        }
        self.wal.append(rec.kind, &rec.payload)?;
        apply_record(&mut self.upd, rec.seq, rec.kind, &rec.payload)?;
        self.note_append()?;
        Ok(ReplicatedApply::Applied)
    }

    /// Replaces local state with a primary's snapshot at `seq`: the state
    /// is made durable, the local WAL is reset (records it held are
    /// covered or obsolete), and subsequent appends continue at `seq + 1`.
    pub fn install_snapshot(&mut self, seq: u64, state: &[u8]) -> Result<(), StoreError> {
        let json = std::str::from_utf8(state)
            .map_err(|_| StoreError::Serde("replicated snapshot state is not utf-8".into()))?;
        let upd =
            UpdatableGl::from_snapshot_json(json).map_err(|e| StoreError::Serde(e.to_string()))?;
        snapshot::write_snapshot(&self.dir.join(SNAPSHOT_FILE), seq, state)?;
        self.wal.truncate_all()?;
        self.wal.set_next_seq(seq + 1);
        self.upd = upd;
        self.appends_since_snapshot = 0;
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// FNV-1a 64 digest of the full serialized state — the bit-identity
    /// the crash matrix compares.
    pub fn fingerprint(&self) -> Result<u64, StoreError> {
        self.upd
            .state_fingerprint()
            .map_err(|e| StoreError::Serde(e.to_string()))
    }
}

/// Applies one decoded WAL record to the estimator — the replay half of
/// the write path. Shared validation keeps replay and live appends on the
/// same apply functions.
pub fn apply_record(
    upd: &mut UpdatableGl,
    seq: u64,
    kind: u8,
    payload: &[u8],
) -> Result<(), StoreError> {
    match kind {
        OP_INSERT_DENSE => {
            if payload.len() % 4 != 0 {
                return Err(StoreError::BadOp {
                    seq,
                    reason: format!("dense payload of {} bytes", payload.len()),
                });
            }
            let v: Vec<f32> = payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            if v.len() != upd.data().dim() {
                return Err(StoreError::BadOp {
                    seq,
                    reason: format!(
                        "dense point of dim {}, dataset has {}",
                        v.len(),
                        upd.data().dim()
                    ),
                });
            }
            upd.apply_insert(VectorView::Dense(&v));
            Ok(())
        }
        OP_INSERT_BINARY => {
            if payload.len() % 8 != 0 {
                return Err(StoreError::BadOp {
                    seq,
                    reason: format!("binary payload of {} bytes", payload.len()),
                });
            }
            let words: Vec<u64> = payload
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect();
            let dim = upd.data().dim();
            if words.len() != dim.div_ceil(64) {
                return Err(StoreError::BadOp {
                    seq,
                    reason: format!("binary point of {} words, dataset dim {dim}", words.len()),
                });
            }
            upd.apply_insert(VectorView::Binary { words: &words, dim });
            Ok(())
        }
        OP_DELETE => {
            let bytes: [u8; 8] = payload.try_into().map_err(|_| StoreError::BadOp {
                seq,
                reason: format!("delete payload of {} bytes", payload.len()),
            })?;
            let index = u64::from_le_bytes(bytes) as usize;
            if index >= upd.dataset_len() {
                return Err(StoreError::BadOp {
                    seq,
                    reason: format!("delete index {index} beyond {} rows", upd.dataset_len()),
                });
            }
            upd.apply_delete(index);
            Ok(())
        }
        other => Err(StoreError::BadOp {
            seq,
            reason: format!("unknown record kind {other}"),
        }),
    }
}
