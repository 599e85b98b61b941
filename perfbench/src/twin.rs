//! The traced pass's in-process twins. After each real request returns,
//! the client thread calls the same public functions the server's route
//! calls, on the same input, each inside a span. Calls the server makes
//! from inside another function (the batcher's flush, the store's WAL
//! append and auto-snapshot) are timed on twin instances and their spans
//! are marked `twin`.

use cardest_baselines::sampling::SamplingEstimator;
use cardest_core::drift::{DriftConfig, DriftMonitor};
use cardest_core::update::UpdatableGl;
use cardest_data::vector::VectorView;
use cardest_nn::Matrix;
use cardest_server::coalesce::{CoalesceConfig, Coalescer};
use cardest_server::model::{repr_of, LoadedModel, OwnedQuery, QueryRepr};
use cardest_server::registry::SharedFallback;
use cardest_server::stats::ServerStats;
use cardest_server::{ModelRegistry, RegistryConfig};
use cardest_store::ingest::OP_INSERT_DENSE;
use cardest_store::{DurableIngest, SegmentedWal, StoreConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::setup::Setup;
use crate::trace::SpanLog;
use crate::workload::{Op, Probe};

/// Counts the twins gather besides spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tallies {
    pub queries: u64,
    pub locals: u64,
    /// Segments the router selected, and those among them holding a match.
    pub selected: u64,
    pub selected_hit: u64,
    /// Segments holding a match, and those among them the router skipped.
    pub matched: u64,
    pub missed: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub drift_triggers: u64,
}

struct IngestTwin {
    /// A second store on the same state, entered through its public API.
    store: DurableIngest,
    monitor: DriftMonitor,
    /// A bare WAL timing the append `DurableIngest::insert` makes.
    wal: SegmentedWal,
    /// The replay: timing `UpdatableGl::apply_insert` and the snapshot,
    /// and the reference state for the fingerprint check.
    replay: UpdatableGl,
    snapshot_path: PathBuf,
    snapshot_every: usize,
    inserts: usize,
}

pub struct Twins {
    repr: QueryRepr,
    registry: Arc<ModelRegistry>,
    coalescer: Arc<Coalescer>,
    batcher: Option<JoinHandle<()>>,
    ingest: Option<Mutex<IngestTwin>>,
    pub tallies: Mutex<Tallies>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Twins {
    /// Builds the twins from the set-up's artifact. `replay` (ingest
    /// only) is the replay state, already caught up with the server.
    pub fn new(setup: &Setup, dir: &Path, replay: Option<UpdatableGl>) -> Twins {
        let ctx = &setup.ctx;
        let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
            &ctx.data,
            ctx.spec.metric,
            0.01,
            ctx.seed,
            "Sampling 1%",
        ));
        let registry = Arc::new(
            ModelRegistry::new(
                RegistryConfig {
                    n_data: ctx.data.len(),
                    dim: ctx.data.dim(),
                    repr: repr_of(&ctx.data),
                    monotone: true,
                },
                fallback,
                &setup.artifact,
            )
            .expect("load the twin registry"),
        );
        let coalescer = Coalescer::new(
            CoalesceConfig::default(),
            Arc::clone(&registry),
            Arc::new(ServerStats::default()),
        );
        let batcher = coalescer.spawn_batcher().expect("spawn the twin batcher");
        let ingest = replay.map(|replay| {
            let cfg = StoreConfig::default();
            let mut store = DurableIngest::create(
                &dir.join("twin-store"),
                crate::setup::updatable(ctx, &setup.gl),
                cfg,
            )
            .expect("create the twin store");
            // Baselined on the base state, as the server's monitor is;
            // then caught up with the points the server already holds.
            let monitor = DriftMonitor::new(store.estimator(), DriftConfig::default());
            let mut v = Vec::new();
            for i in ctx.data.len()..replay.dataset_len() {
                replay.data().view(i).write_dense(&mut v);
                store.estimator_mut().apply_insert(VectorView::Dense(&v));
            }
            std::fs::create_dir_all(dir.join("twin-snapshot"))
                .expect("create the twin snapshot directory");
            let (wal, _, _) =
                SegmentedWal::open(&dir.join("twin-wal"), cfg.sync_writes, cfg.rotate_bytes)
                    .expect("open the twin WAL");
            Mutex::new(IngestTwin {
                store,
                monitor,
                wal,
                replay,
                snapshot_path: dir.join("twin-snapshot").join("state.snapshot"),
                snapshot_every: cfg.snapshot_every,
                inserts: 0,
            })
        });
        Twins {
            repr: repr_of(&ctx.data),
            registry,
            coalescer,
            batcher: Some(batcher),
            ingest,
            tallies: Mutex::new(Tallies::default()),
        }
    }

    /// Stops the twin batcher and hands back the replay state.
    pub fn finish(mut self) -> Option<UpdatableGl> {
        self.coalescer.shutdown();
        if let Some(b) = self.batcher.take() {
            b.join().expect("twin batcher panicked");
        }
        self.ingest.take().map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .replay
        })
    }

    /// Runs the twins of the server's route for one operation whose real
    /// request is span `parent`.
    pub fn run(&self, op: &Op, parent: u64, req: u64, log: &mut SpanLog<'_>) {
        match op {
            Op::Estimate { body, probe } => {
                let id = log.id();
                let t = Instant::now();
                let parsed = parse_query(body.as_bytes(), self.repr);
                log.record("server.http.parse", id, parent, req, t, false, 1);
                let (q, tau) = parsed.expect("a planned body parses");

                let cid = log.id();
                let t = Instant::now();
                let reply = self
                    .coalescer
                    .submit(q.clone(), tau)
                    .ok()
                    .and_then(|rx| rx.recv().ok());
                log.record("server.coalesce", cid, parent, req, t, true, 1);
                let est = self.serve(&[(q, tau)], std::slice::from_ref(probe), cid, req, log);
                let value = reply.and_then(|r| r.result.ok()).unwrap_or(est[0]);

                let id = log.id();
                let t = Instant::now();
                encode(&Value::Map(vec![
                    ("estimate".to_string(), Value::Float(f64::from(value))),
                    ("model_version".to_string(), Value::UInt(1)),
                ]));
                log.record("server.http.encode", id, parent, req, t, false, 1);
            }
            Op::Batch { body, probes } => {
                let id = log.id();
                let t = Instant::now();
                let parsed = parse_batch(body.as_bytes(), self.repr);
                log.record("server.http.parse", id, parent, req, t, false, probes.len());
                let queries = parsed.expect("a planned body parses");
                let est = self.serve(&queries, probes, parent, req, log);

                let id = log.id();
                let t = Instant::now();
                let rendered = est
                    .iter()
                    .map(|&e| {
                        Value::Map(vec![("estimate".to_string(), Value::Float(f64::from(e)))])
                    })
                    .collect();
                encode(&Value::Map(vec![
                    ("model_version".to_string(), Value::UInt(1)),
                    ("results".to_string(), Value::Seq(rendered)),
                ]));
                log.record(
                    "server.http.encode",
                    id,
                    parent,
                    req,
                    t,
                    false,
                    probes.len(),
                );
            }
            Op::Insert { body, point, .. } => self.insert(body, point, parent, req, log),
        }
    }

    /// Guard → GL estimate → centroid distances and routing, as the
    /// serving path calls them; returns the guarded estimates.
    fn serve(
        &self,
        queries: &[(OwnedQuery, f32)],
        probes: &[Probe],
        parent: u64,
        req: u64,
        log: &mut SpanLog<'_>,
    ) -> Vec<f32> {
        let b = queries.len();
        let views: Vec<_> = queries.iter().map(|(q, tau)| (q.view(), *tau)).collect();
        let model = self.registry.active();
        let LoadedModel::Gl(gl) = model.guarded.inner() else {
            panic!("the served artifact is a GL estimator");
        };
        let gid = log.id();
        let t = Instant::now();
        let served = model.guarded.serve_batch(&views);
        log.record("baselines.guard.serve_batch", gid, parent, req, t, true, b);

        let eid = log.id();
        let t = Instant::now();
        let stats = gl.estimate_batch_with_stats(&views);
        log.record(
            "core.gl.estimate_batch_with_stats",
            eid,
            gid,
            req,
            t,
            true,
            b,
        );

        let seg = gl.segmentation();
        let n_seg = seg.n_segments();
        let dim = queries.first().map_or(0, |(q, _)| q.view().dim());
        let mut xq = Matrix::zeros(b, dim);
        let mut buf = Vec::with_capacity(dim);
        for (r, (q, _)) in queries.iter().enumerate() {
            q.view().write_dense(&mut buf);
            xq.row_mut(r).copy_from_slice(&buf);
        }
        let taus: Vec<f32> = queries.iter().map(|(_, tau)| *tau).collect();

        let id = log.id();
        let t = Instant::now();
        let mut xcd = Matrix::zeros(b, n_seg);
        for (r, (q, _)) in queries.iter().enumerate() {
            seg.centroid_distances_into(q.view(), xcd.row_mut(r));
        }
        log.record(
            "data.kernels.centroid_distances_into",
            id,
            eid,
            req,
            t,
            true,
            b,
        );

        let mut tallies = Tallies {
            queries: b as u64,
            locals: stats.iter().map(|&(_, n)| n as u64).sum(),
            ..Tallies::default()
        };
        if let Some(global) = gl.global() {
            let id = log.id();
            let t = Instant::now();
            let probs = global.probabilities_batch(&xq, &taus, &xcd);
            log.record("core.global.probabilities_batch", id, eid, req, t, true, b);
            for (r, probe) in probes.iter().enumerate() {
                let sel = selection(probs.row(r), xcd.row(r), global.sigma());
                tallies.selected += u64::from(sel.count_ones());
                tallies.selected_hit += u64::from((sel & probe.segs).count_ones());
                tallies.matched += u64::from(probe.segs.count_ones());
                tallies.missed += u64::from((probe.segs & !sel).count_ones());
            }
        }
        let mut all = lock(&self.tallies);
        all.queries += tallies.queries;
        all.locals += tallies.locals;
        all.selected += tallies.selected;
        all.selected_hit += tallies.selected_hit;
        all.matched += tallies.matched;
        all.missed += tallies.missed;
        served
            .into_iter()
            .zip(&stats)
            .map(|(r, (e, _))| r.unwrap_or(*e))
            .collect()
    }

    fn insert(&self, body: &str, point: &[f32], parent: u64, req: u64, log: &mut SpanLog<'_>) {
        let id = log.id();
        let t = Instant::now();
        let parsed = parse_point(body.as_bytes(), self.repr);
        log.record("server.http.parse_insert", id, parent, req, t, false, 1);
        let p = parsed.expect("a planned body parses");
        let mut guard = lock(
            self.ingest
                .as_ref()
                .expect("ingest twins exist on ingest runs"),
        );
        let tw = &mut *guard;

        // `IngestService::insert`: the store insert, then a drift check
        // when one is due.
        let iid = log.id();
        let t_ingest = Instant::now();
        let sid = log.id();
        let t = Instant::now();
        let receipt = tw.store.insert(p.view()).expect("twin store insert");
        log.record("store.insert", sid, iid, req, t, false, 1);
        if tw.monitor.note_inserts(1) {
            let id = log.id();
            let t = Instant::now();
            let verdict = tw.monitor.check(tw.store.estimator());
            log.record("core.drift.check", id, iid, req, t, false, 1);
            if verdict.triggered() {
                lock(&self.tallies).drift_triggers += 1;
            }
        }
        log.record("server.ingest.insert", iid, parent, req, t_ingest, true, 1);

        // The calls `DurableIngest::insert` makes inside, on twins.
        let payload: Vec<u8> = point.iter().flat_map(|x| x.to_le_bytes()).collect();
        let before = tw.wal.len_bytes();
        let id = log.id();
        let t = Instant::now();
        tw.wal
            .append(OP_INSERT_DENSE, &payload)
            .expect("twin WAL append");
        log.record("store.wal.append", id, sid, req, t, true, 1);
        let wal_bytes = tw.wal.len_bytes() - before;

        let id = log.id();
        let t = Instant::now();
        tw.replay.apply_insert(p.view());
        log.record("core.update.apply_insert", id, sid, req, t, true, 1);

        tw.inserts += 1;
        let mut snapshot_bytes = None;
        if tw.snapshot_every > 0 && tw.inserts.is_multiple_of(tw.snapshot_every) {
            let id = log.id();
            let t = Instant::now();
            let state = tw.replay.snapshot_json().expect("serialize the replay");
            cardest_store::write_snapshot(&tw.snapshot_path, receipt.seq, state.as_bytes())
                .expect("write the twin snapshot");
            log.record("store.snapshot", id, sid, req, t, true, 1);
            snapshot_bytes = Some(state.len() as u64);
            tw.wal.truncate_all().expect("truncate the twin WAL");
        }
        drop(guard);
        {
            let mut all = lock(&self.tallies);
            all.wal_appends += 1;
            all.wal_bytes += wal_bytes;
            if let Some(b) = snapshot_bytes {
                all.snapshots += 1;
                all.snapshot_bytes += b;
            }
        }

        let id = log.id();
        let t = Instant::now();
        encode(&Value::Map(vec![
            ("seq".to_string(), Value::UInt(receipt.seq)),
            ("index".to_string(), Value::UInt(receipt.index as u64)),
            ("segment".to_string(), Value::UInt(receipt.segment as u64)),
            ("finetune_scheduled".to_string(), Value::Bool(false)),
        ]));
        log.record("server.http.encode_insert", id, parent, req, t, false, 1);
    }
}

/// The segments GL evaluates for one query: those the router scores above
/// σ, plus the router's argmax and the query's nearest centroid.
fn selection(probs: &[f32], dists: &[f32], sigma: f32) -> u64 {
    let mut sel = 0u64;
    for (i, &p) in probs.iter().enumerate() {
        if p > sigma {
            sel |= 1 << i;
        }
    }
    let argmax = probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    let nearest = dists
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    sel | 1 << argmax | 1 << nearest
}

/// The server's response encoding: render the JSON and write the HTTP
/// response into a buffer.
fn encode(v: &Value) -> Vec<u8> {
    let body = serde_json::to_string(v).expect("render a response");
    let mut out = Vec::with_capacity(body.len() + 128);
    cardest_server::http::write_response_to(&mut out, 200, body.as_bytes(), true)
        .expect("write into a buffer");
    std::hint::black_box(out)
}

fn map(body: &[u8]) -> Result<Value, String> {
    serde_json::from_slice::<Value>(body).map_err(|e| e.to_string())
}

fn entry(v: &Value, repr: QueryRepr) -> Result<(OwnedQuery, f32), String> {
    let m = v.expect_map("entry").map_err(|e| e.to_string())?;
    let comps: Vec<f32> = serde::get_field(m, "query", "entry").map_err(|e| e.to_string())?;
    let tau: f32 = serde::get_field(m, "tau", "entry").map_err(|e| e.to_string())?;
    Ok((OwnedQuery::from_components(&comps, repr)?, tau))
}

/// Parses an estimate body as the server does.
pub fn parse_query(body: &[u8], repr: QueryRepr) -> Result<(OwnedQuery, f32), String> {
    entry(&map(body)?, repr)
}

fn parse_batch(body: &[u8], repr: QueryRepr) -> Result<Vec<(OwnedQuery, f32)>, String> {
    let v = map(body)?;
    let m = v.expect_map("batch").map_err(|e| e.to_string())?;
    let entries = m
        .iter()
        .find(|(k, _)| k == "queries")
        .ok_or("missing queries")?
        .1
        .expect_seq("queries")
        .map_err(|e| e.to_string())?;
    entries.iter().map(|e| entry(e, repr)).collect()
}

fn parse_point(body: &[u8], repr: QueryRepr) -> Result<OwnedQuery, String> {
    let v = map(body)?;
    let m = v.expect_map("insert").map_err(|e| e.to_string())?;
    let comps: Vec<f32> = serde::get_field(m, "point", "insert").map_err(|e| e.to_string())?;
    OwnedQuery::from_components(&comps, repr)
}
