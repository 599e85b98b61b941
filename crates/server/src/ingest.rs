//! Serving-side online ingestion: the durable store plus the drift
//! monitor, with fine-tunes pushed off the request path.
//!
//! The request thread does only the durable part of an insert — validate,
//! WAL append, pure apply (see `cardest_store::DurableIngest`) — and a
//! drift *check* every `check_every` inserts (a re-sum of the probe set's
//! cached local outputs; the models run over the probes only after a
//! fine-tune).
//! When a check fires, the affected segment ids are queued and a single
//! background worker does the expensive half: fine-tune the fired locals
//! plus the global model, save the result as a GL artifact, snapshot the
//! store (making the new weights durable), rebaseline the monitor, and
//! hot-swap the serving model through [`ModelRegistry::reload`] — so
//! in-flight estimates never observe a half-tuned model; they keep the
//! generation they started with until the swap.
//!
//! Lock order: `inner` (store + monitor) is never held while calling into
//! the registry, and the `pending` queue lock never nests inside `inner`
//! on the worker side.

use crate::model::OwnedQuery;
use crate::registry::ModelRegistry;
use cardest_core::backoff::{Backoff, BackoffConfig};
use cardest_core::drift::{DriftConfig, DriftMonitor};
use cardest_store::replicate::{ReplicaSource, StandbyTarget};
use cardest_store::wal::WalRecord;
use cardest_store::{DurableIngest, InsertReceipt, ReplicatedApply, ReplicationFetch, StoreError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Store + monitor, mutated together under one lock: a drift check must
/// see exactly the state the inserts left behind.
struct Inner {
    store: DurableIngest,
    monitor: DriftMonitor,
}

/// Point-in-time ingestion counters for `GET /stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestSnapshot {
    /// Inserts acknowledged since startup.
    pub inserts: u64,
    /// Sequence number of the last durable WAL record.
    pub last_seq: u64,
    /// Current WAL size in bytes.
    pub wal_bytes: u64,
    /// Live (non-tombstoned) dataset rows.
    pub live_rows: u64,
    /// Drift checks run.
    pub drift_checks: u64,
    /// Drift checks that fired at least one segment.
    pub drift_triggers: u64,
    /// Background fine-tunes that completed and hot-swapped.
    pub finetunes_ok: u64,
    /// Background fine-tunes that failed (artifact, snapshot, or reload).
    pub finetunes_failed: u64,
    /// Fine-tune attempts retried with backoff before succeeding/failing.
    pub finetune_retries: u64,
}

/// The mutable half of the server: durable inserts with drift-triggered
/// background fine-tuning.
pub struct IngestService {
    inner: Mutex<Inner>,
    /// Notified (with `inner`) whenever the WAL head advances — the
    /// replication listener's `wait_growth` parks here.
    grew: Condvar,
    /// Segment ids awaiting a background fine-tune (deduplicated).
    pending: Mutex<Vec<usize>>,
    wake: Condvar,
    stop: AtomicBool,
    /// Where the worker saves fine-tuned GL artifacts for hot reload.
    artifact_path: PathBuf,
    inserts: AtomicU64,
    finetunes_ok: AtomicU64,
    finetunes_failed: AtomicU64,
    /// Fine-tune attempts that failed and were retried with backoff.
    finetune_retries: AtomicU64,
}

impl IngestService {
    /// Wraps an opened (or freshly created) durable store. The drift
    /// monitor baselines against the store's current state; `artifact_path`
    /// is where fine-tuned models land before each hot swap.
    pub fn new(store: DurableIngest, drift: DriftConfig, artifact_path: PathBuf) -> Arc<Self> {
        let monitor = DriftMonitor::new(store.estimator(), drift);
        Arc::new(IngestService {
            inner: Mutex::new(Inner { store, monitor }),
            grew: Condvar::new(),
            pending: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            artifact_path,
            inserts: AtomicU64::new(0),
            finetunes_ok: AtomicU64::new(0),
            finetunes_failed: AtomicU64::new(0),
            finetune_retries: AtomicU64::new(0),
        })
    }

    /// Durably inserts one point and runs a drift check when one is due.
    /// Returns the store's receipt plus whether this insert scheduled a
    /// background fine-tune.
    pub fn insert(&self, point: &OwnedQuery) -> Result<(InsertReceipt, bool), StoreError> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        let receipt = inner.store.insert(point.view())?;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.grew.notify_all();
        let mut scheduled = false;
        if inner.monitor.note_inserts(1) {
            let verdict = inner.monitor.check(inner.store.estimator());
            if verdict.triggered() {
                drop(guard);
                let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
                for s in verdict.fired {
                    if !pending.contains(&s) {
                        pending.push(s);
                    }
                }
                drop(pending);
                self.wake.notify_one();
                scheduled = true;
            }
        }
        Ok((receipt, scheduled))
    }

    /// Current counters.
    pub fn snapshot(&self) -> IngestSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        IngestSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            last_seq: inner.store.last_seq(),
            wal_bytes: inner.store.wal_len_bytes(),
            live_rows: inner.store.estimator().live_len() as u64,
            drift_checks: inner.monitor.checks(),
            drift_triggers: inner.monitor.triggers(),
            finetunes_ok: self.finetunes_ok.load(Ordering::Relaxed),
            finetunes_failed: self.finetunes_failed.load(Ordering::Relaxed),
            finetune_retries: self.finetune_retries.load(Ordering::Relaxed),
        }
    }

    /// Dataset rows including tombstones — the guard clamp the registry
    /// should carry into its next generation.
    pub fn dataset_len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .store
            .estimator()
            .dataset_len()
    }

    /// Writes a snapshot covering everything applied so far (exposed for
    /// orderly shutdown; inserts also auto-snapshot per `StoreConfig`).
    pub fn snapshot_store(&self) -> Result<(), StoreError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .store
            .snapshot_now()
    }

    /// Sequence number of the last durable WAL record.
    pub fn last_seq(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .store
            .last_seq()
    }

    /// FNV-1a fingerprint of the full serialized state — the value the
    /// failover runbook compares across primary and standby.
    pub fn fingerprint(&self) -> Result<u64, StoreError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .store
            .fingerprint()
    }

    /// Where fine-tuned artifacts land (shared with the standby bridge,
    /// which reuses the path when installing a bootstrap snapshot).
    pub fn artifact_path(&self) -> &Path {
        &self.artifact_path
    }

    /// Applies one record streamed from a primary (standby path). No
    /// drift checks run — a standby never fine-tunes; its monitor
    /// rebaselines at promote time instead.
    pub fn apply_replicated(&self, rec: &WalRecord) -> Result<ReplicatedApply, StoreError> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let applied = guard.store.apply_replicated(rec)?;
        if matches!(applied, ReplicatedApply::Applied) {
            self.grew.notify_all();
        }
        Ok(applied)
    }

    /// Installs a bootstrap snapshot from a primary (standby path).
    pub fn install_replicated_snapshot(&self, seq: u64, state: &[u8]) -> Result<(), StoreError> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        guard.store.install_snapshot(seq, state)?;
        self.grew.notify_all();
        Ok(())
    }

    /// Promotion: rebaseline the drift monitor against the replicated
    /// state so the new primary's first drift check measures drift since
    /// *now*, not since the standby was started.
    pub fn rebaseline_monitor(&self) {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        inner.monitor.rebaseline(inner.store.estimator());
    }

    /// Asks the background worker to exit at its next wakeup.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Spawns the background fine-tune worker. One worker per service:
    /// fine-tunes are serialized, each ending in a snapshot + hot swap.
    pub(crate) fn spawn_worker(
        self: &Arc<Self>,
        registry: Arc<ModelRegistry>,
    ) -> std::io::Result<JoinHandle<()>> {
        let svc = Arc::clone(self);
        std::thread::Builder::new()
            .name("cardest-finetune".to_string())
            .spawn(move || svc.worker_loop(&registry))
    }

    fn worker_loop(&self, registry: &Arc<ModelRegistry>) {
        // Persist failures (artifact or snapshot I/O) are usually
        // transient — a full disk being cleared, a slow NFS mount — so
        // the worker retries the same segment set through the shared
        // backoff policy before declaring the fine-tune failed.
        let mut backoff = Backoff::new(
            BackoffConfig {
                base: Duration::from_millis(200),
                max: Duration::from_secs(5),
                jitter: 0.5,
                max_attempts: 4,
            },
            0xF1E7_0B0F,
        );
        loop {
            let segments = {
                let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if !pending.is_empty() {
                        break std::mem::take(&mut *pending);
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let (next, _) = self
                        .wake
                        .wait_timeout(pending, Duration::from_millis(100))
                        .unwrap_or_else(PoisonError::into_inner);
                    pending = next;
                }
            };
            match self.finetune_and_persist(&segments) {
                Ok(n_data) => {
                    backoff.reset();
                    // Publish the grown dataset size, then swap. A reload
                    // failure leaves the old model serving — correct, just
                    // staler — so it only bumps the failure counter.
                    registry.set_n_data(n_data);
                    match registry.reload(&self.artifact_path) {
                        Ok(_) => self.finetunes_ok.fetch_add(1, Ordering::Relaxed),
                        Err(_) => self.finetunes_failed.fetch_add(1, Ordering::Relaxed),
                    };
                }
                Err(_) => match backoff.next_delay() {
                    Some(delay) => {
                        self.finetune_retries.fetch_add(1, Ordering::Relaxed);
                        self.requeue(&segments);
                        self.sleep_stop_aware(delay);
                    }
                    None => {
                        // Budget exhausted: count the failure, drop the
                        // batch, and start fresh for the next trigger.
                        backoff.reset();
                        self.finetunes_failed.fetch_add(1, Ordering::Relaxed);
                    }
                },
            }
        }
    }

    /// Puts a failed batch back at the head of the queue (deduplicated),
    /// so the retry runs before any newly-fired segments.
    fn requeue(&self, segments: &[usize]) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let mut merged: Vec<usize> = segments.to_vec();
        for s in pending.drain(..) {
            if !merged.contains(&s) {
                merged.push(s);
            }
        }
        *pending = merged;
    }

    /// Sleeps `delay` in slices, returning early if shutdown was asked.
    fn sleep_stop_aware(&self, delay: Duration) {
        let mut remaining = delay;
        while !remaining.is_zero() && !self.stop.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }

    /// The expensive half, under the store lock: fine-tune the fired
    /// locals + global, save the artifact, snapshot (weights become
    /// durable), rebaseline the monitor. Returns the dataset size for the
    /// registry's next guard clamp.
    fn finetune_and_persist(&self, segments: &[usize]) -> Result<usize, StoreError> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        inner
            .store
            .estimator_mut()
            .finetune(segments)
            .map_err(|e| StoreError::Io(format!("fine-tuned locals: {e}")))?;
        inner
            .store
            .estimator()
            .gl()
            .save_artifact(&self.artifact_path)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        inner.store.snapshot_now()?;
        inner.monitor.rebaseline(inner.store.estimator());
        Ok(inner.store.estimator().dataset_len())
    }
}

/// The primary side of replication: the listener streams this service's
/// WAL to connected standbys.
impl ReplicaSource for IngestService {
    fn head_seq(&self) -> u64 {
        self.last_seq()
    }

    fn fetch_since(&self, after_seq: u64, max: usize) -> Result<ReplicationFetch, StoreError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .store
            .replication_fetch(after_seq, max)
    }

    fn wait_growth(&self, after_seq: u64, timeout: Duration) -> u64 {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.store.last_seq() > after_seq {
            return guard.store.last_seq();
        }
        let (guard, _) = self
            .grew
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.store.last_seq()
    }
}

/// The standby side of replication: applies the primary's stream into the
/// local [`IngestService`] and keeps the serving registry in step — the
/// dataset-size clamp follows every applied insert, and a bootstrap
/// snapshot re-publishes the primary's weights through a hot reload.
pub struct StandbyBridge {
    svc: Arc<IngestService>,
    registry: Arc<ModelRegistry>,
}

impl StandbyBridge {
    pub fn new(svc: Arc<IngestService>, registry: Arc<ModelRegistry>) -> Arc<Self> {
        Arc::new(StandbyBridge { svc, registry })
    }
}

impl StandbyTarget for StandbyBridge {
    fn last_applied(&self) -> u64 {
        self.svc.last_seq()
    }

    fn apply(&self, rec: &WalRecord) -> Result<ReplicatedApply, StoreError> {
        let applied = self.svc.apply_replicated(rec)?;
        if matches!(applied, ReplicatedApply::Applied) {
            self.registry.set_n_data(self.svc.dataset_len());
        }
        Ok(applied)
    }

    fn install_snapshot(&self, seq: u64, state: &[u8]) -> Result<(), StoreError> {
        self.svc.install_replicated_snapshot(seq, state)?;
        self.registry.set_n_data(self.svc.dataset_len());
        // The snapshot carries the primary's (possibly fine-tuned)
        // weights: publish them. A reload failure keeps the old model
        // serving — the data is installed either way.
        let save = {
            let guard = self
                .svc
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            guard
                .store
                .estimator()
                .gl()
                .save_artifact(self.svc.artifact_path())
        };
        if save.is_ok() {
            let _ = self.registry.reload(self.svc.artifact_path());
        }
        Ok(())
    }
}
