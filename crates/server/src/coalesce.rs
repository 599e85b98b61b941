//! Request coalescing: single-query requests that queue up while the
//! batcher is busy flush together as one `estimate_batch` call.
//!
//! The coalescer is self-clocking. Whenever the batcher is free it serves
//! whatever is queued, up to `max_batch`, at once, so a lone query is
//! answered as soon as it arrives instead of waiting for batch-mates that
//! may never come. Batches form only from queries that arrive while the
//! previous batch is being served: batch size follows the offered load,
//! one under light load and growing as the batcher saturates, which is
//! when the batched serving path's amortized per-call overhead (one guard
//! pass, one batched forward) pays.
//!
//! Admission control lives here too: the queue is bounded at `cap`, and a
//! submit against a full queue fails fast with [`SubmitError::Overloaded`]
//! (the HTTP layer turns that into a 503) instead of letting latency grow
//! without bound.
//!
//! Shutdown never drops a request: the batcher drains whatever is queued
//! before exiting, so every submitted query gets a reply.

use cardest_data::validate::CardestError;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::model::OwnedQuery;
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;

/// Tuning knobs for the coalescing queue.
#[derive(Debug, Clone)]
pub struct CoalesceConfig {
    /// Ignored: no query is held for batch-mates. The field remains only
    /// for callers that record it with the rest of the config.
    pub window: Duration,
    /// Most queries one flush serves.
    pub max_batch: usize,
    /// Queue bound — submits beyond this are rejected (admission control).
    pub cap: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            window: Duration::ZERO,
            max_batch: 64,
            cap: 1024,
        }
    }
}

/// What a coalesced query gets back.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceReply {
    pub result: Result<f32, CardestError>,
    /// Generation that actually served the query (it may differ from the
    /// generation active at submit time if a reload raced the queue).
    pub model_version: u64,
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — shed load now rather than queue latency.
    Overloaded,
    /// The server is shutting down.
    ShuttingDown,
}

struct Pending {
    query: OwnedQuery,
    tau: f32,
    tx: SyncSender<CoalesceReply>,
}

struct State {
    queue: Vec<Pending>,
    shutdown: bool,
}

/// The shared coalescing queue plus the batcher that drains it.
pub struct Coalescer {
    cfg: CoalesceConfig,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    state: Mutex<State>,
    wake: Condvar,
}

impl Coalescer {
    pub fn new(
        cfg: CoalesceConfig,
        registry: Arc<ModelRegistry>,
        stats: Arc<ServerStats>,
    ) -> Arc<Self> {
        Arc::new(Coalescer {
            cfg,
            registry,
            stats,
            state: Mutex::new(State {
                queue: Vec::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        })
    }

    /// Enqueues one query and returns the channel its reply will arrive
    /// on. The caller blocks on `recv()`; the batcher always sends exactly
    /// one reply per accepted submit, including during shutdown drain.
    pub fn submit(
        &self,
        query: OwnedQuery,
        tau: f32,
    ) -> Result<Receiver<CoalesceReply>, SubmitError> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if st.queue.len() >= self.cfg.cap {
                return Err(SubmitError::Overloaded);
            }
            st.queue.push(Pending { query, tau, tx });
        }
        self.wake.notify_one();
        Ok(rx)
    }

    /// Spawns the batcher thread (fails only on OS thread exhaustion).
    /// Call [`Coalescer::shutdown`] to stop it; it drains the queue before
    /// exiting.
    pub fn spawn_batcher(self: &Arc<Self>) -> std::io::Result<JoinHandle<()>> {
        let this = Arc::clone(self);
        std::thread::Builder::new()
            .name("cardest-batcher".to_string())
            .spawn(move || this.run())
    }

    /// Signals the batcher to drain and exit.
    pub fn shutdown(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.wake.notify_all();
    }

    fn run(&self) {
        while let Some(batch) = self.next_batch() {
            self.flush(batch);
        }
    }

    /// Blocks until a query is queued, then takes up to `max_batch` of
    /// the queue. `None` once shutdown has drained the queue.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.queue.is_empty() && !st.shutdown {
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.queue.is_empty() {
            return None;
        }
        let take = st.queue.len().min(self.cfg.max_batch);
        Some(st.queue.drain(..take).collect())
    }

    fn flush(&self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let model = self.registry.active();
        let queries: Vec<_> = batch.iter().map(|p| (p.query.view(), p.tau)).collect();
        let results = model.guarded.serve_batch(&queries);
        self.stats.record_coalesce(batch.len());
        for (p, result) in batch.into_iter().zip(results) {
            // A closed receiver means the client hung up; nothing to do.
            let _ = p.tx.send(CoalesceReply {
                result,
                model_version: model.version,
            });
        }
    }

    /// Number of queries waiting right now (diagnostic).
    pub fn queued(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// Copy of the active tuning knobs.
    pub fn config(&self) -> &CoalesceConfig {
        &self.cfg
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        // Belt-and-braces: if the owner forgot to call shutdown, wake the
        // batcher so it can observe the flag and exit. (The batcher holds
        // its own Arc, so by the time Drop runs it has already exited.)
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryRepr;
    use crate::registry::{RegistryConfig, SharedFallback};
    use cardest_baselines::mlp::{MlpConfig, MlpEstimator};
    use cardest_baselines::sampling::SamplingEstimator;
    use cardest_baselines::traits::TrainingSet;
    use cardest_data::metric::Metric;
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;
    use std::sync::atomic::Ordering;
    use std::sync::OnceLock;

    const TAU: f32 = 0.3;
    /// Bound on a reply that must arrive; only a broken batcher reaches it.
    const PATIENCE: Duration = Duration::from_secs(60);

    /// One tiny MLP behind every test: the queueing policy is under test,
    /// not the model.
    fn registry() -> Arc<ModelRegistry> {
        static REGISTRY: OnceLock<Arc<ModelRegistry>> = OnceLock::new();
        Arc::clone(REGISTRY.get_or_init(|| {
            let spec = DatasetSpec {
                dataset: PaperDataset::GloVe300,
                dim: 8,
                n_data: 200,
                n_train_queries: 16,
                n_test_queries: 4,
                metric: Metric::Angular,
                tau_max: 0.6,
            };
            let data = spec.generate(3);
            let workload = SearchWorkload::build(&data, &spec, 3);
            let mut cfg = MlpConfig::default();
            cfg.train.epochs = 1;
            let (model, _) = MlpEstimator::train(
                &data,
                spec.metric,
                &TrainingSet::new(&workload.queries, &workload.train),
                &cfg,
                3,
            );
            let path = std::env::temp_dir().join(format!(
                "cardest-coalesce-test-{}.cardest",
                std::process::id()
            ));
            model.save_artifact(&path).unwrap();
            let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
                &data,
                spec.metric,
                0.1,
                3,
                "Sampling 10%",
            ));
            let registry = ModelRegistry::new(
                RegistryConfig {
                    n_data: data.len(),
                    dim: spec.dim,
                    repr: QueryRepr::Dense,
                    monotone: true,
                },
                fallback,
                &path,
            )
            .unwrap();
            std::fs::remove_file(&path).ok();
            Arc::new(registry)
        }))
    }

    fn coalescer(cfg: CoalesceConfig) -> (Arc<Coalescer>, Arc<ServerStats>) {
        let stats = Arc::new(ServerStats::default());
        (Coalescer::new(cfg, registry(), Arc::clone(&stats)), stats)
    }

    fn query(i: usize) -> OwnedQuery {
        OwnedQuery::Dense((0..8).map(|j| ((i * 8 + j) as f32).sin()).collect())
    }

    fn submit_n(c: &Coalescer, n: usize) -> Vec<Receiver<CoalesceReply>> {
        (0..n).map(|i| c.submit(query(i), TAU).unwrap()).collect()
    }

    /// (batches flushed, queries served, largest batch).
    fn flushes(stats: &ServerStats) -> (u64, u64, u64) {
        (
            stats.coalesced_batches.load(Ordering::Relaxed),
            stats.coalesced_queries.load(Ordering::Relaxed),
            stats.coalesced_max_batch.load(Ordering::Relaxed),
        )
    }

    /// The reply to one submit; a batcher that never answers fails the
    /// test instead of hanging it.
    fn reply(rx: &Receiver<CoalesceReply>) -> CoalesceReply {
        rx.recv_timeout(PATIENCE).unwrap()
    }

    fn stop(c: &Coalescer, batcher: JoinHandle<()>) {
        c.shutdown();
        batcher.join().unwrap();
    }

    #[test]
    fn a_queue_flushes_in_batches_of_at_most_max_batch() {
        // (queued, flushes, largest flush): up to `max_batch` (64) is one
        // flush; 100 is 64 + 36.
        for (n, batches, largest) in [(1, 1, 1), (10, 1, 10), (64, 1, 64), (100, 2, 64)] {
            let (c, stats) = coalescer(CoalesceConfig::default());
            assert_eq!(c.config().max_batch, 64);
            let replies = submit_n(&c, n as usize);
            let batcher = c.spawn_batcher().unwrap();
            for rx in &replies {
                assert!(reply(rx).result.is_ok());
            }
            stop(&c, batcher);
            assert_eq!(flushes(&stats), (batches, n, largest));
        }
    }

    #[test]
    fn every_accepted_submit_gets_exactly_one_reply_through_the_shutdown_drain() {
        let (c, stats) = coalescer(CoalesceConfig {
            max_batch: 4,
            ..CoalesceConfig::default()
        });
        let replies = submit_n(&c, 10);
        c.shutdown();
        let batcher = c.spawn_batcher().unwrap();
        for rx in &replies {
            let r = reply(rx);
            assert!(r.result.is_ok());
            assert_eq!(r.model_version, 1);
        }
        batcher.join().unwrap();
        for rx in &replies {
            assert!(rx.recv().is_err(), "a second reply");
        }
        assert_eq!(flushes(&stats), (3, 10, 4));
    }

    #[test]
    fn submits_past_cap_or_after_shutdown_are_refused() {
        let (c, stats) = coalescer(CoalesceConfig {
            cap: 3,
            ..CoalesceConfig::default()
        });
        let replies = submit_n(&c, 3);
        assert_eq!(c.submit(query(3), TAU).err(), Some(SubmitError::Overloaded));
        assert_eq!(c.queued(), 3);
        c.shutdown();
        assert_eq!(
            c.submit(query(4), TAU).err(),
            Some(SubmitError::ShuttingDown)
        );
        let batcher = c.spawn_batcher().unwrap();
        for rx in &replies {
            reply(rx);
        }
        batcher.join().unwrap();
        assert_eq!(flushes(&stats).1, 3);
    }

    #[test]
    fn a_lone_query_is_served_without_waiting_for_a_batch_mate() {
        let (c, stats) = coalescer(CoalesceConfig::default());
        let batcher = c.spawn_batcher().unwrap();
        for i in 0..3 {
            // No batch-mate arrives and shutdown has not begun.
            let rx = c.submit(query(i), TAU).unwrap();
            assert!(reply(&rx).result.is_ok());
        }
        assert_eq!(flushes(&stats), (3, 3, 1));
        stop(&c, batcher);
    }
}
