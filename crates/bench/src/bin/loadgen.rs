//! `loadgen` — drive the estimation server over real sockets and write
//! `BENCH_serving.json`.
//!
//! Starts a `cardest-server` in-process (ephemeral port), then measures:
//!
//! 1. **single** — closed-loop single-query `POST /estimate` latency
//!    (client-observed p50/p99) and throughput,
//! 2. **batch** — the same query volume shipped as `POST /estimate_batch`
//!    (the coalesced/batched serving path the paper's batched kernels
//!    feed), per-query amortized latency and throughput,
//! 3. **saturation** — a client ramp; the peak QPS across the ramp is
//!    reported as `qps_at_saturation`,
//! 4. **hot_reload** — sustained load while the model registry swaps
//!    generations (healthy and corrupt artifacts alternating); the
//!    acceptance bar is zero failed requests and every corrupt reload
//!    rejected.
//!
//! A fifth mode, `--ingest`, benchmarks the mutable serving path instead
//! and writes `BENCH_ingest.json`: a mixed insert/estimate workload
//! (client-observed insert p50/p99 while estimates run concurrently) and
//! a recovery-time-vs-WAL-length sweep at the store layer.
//!
//! A sixth mode, `--replicate`, benchmarks the warm-standby pair and
//! writes `BENCH_replication.json`: primary insert latency solo vs with
//! a live streaming standby vs with a dead (stalled) standby session,
//! steady-state catch-up time, and failover time (promote + first
//! accepted insert on the promoted node).
//!
//! Usage: `cargo run --release -p cardest-bench --bin loadgen [--quick]
//! [--ingest] [--replicate] [--out PATH]`.

use cardest_baselines::mlp::{MlpConfig, MlpEstimator};
use cardest_baselines::sampling::SamplingEstimator;
use cardest_baselines::traits::TrainingSet;
use cardest_core::drift::DriftConfig;
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::tuning::TuningConfig;
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::metric::Metric;
use cardest_data::paper::{DatasetSpec, PaperDataset};
use cardest_data::vector::VectorView;
use cardest_data::workload::SearchWorkload;
use cardest_nn::trainer::TrainConfig;
use cardest_server::client::HttpClient;
use cardest_server::coalesce::CoalesceConfig;
use cardest_server::model::repr_of;
use cardest_server::registry::SharedFallback;
use cardest_server::{
    IngestService, ModelRegistry, RegistryConfig, Server, ServerConfig, ServerHandle,
};
use cardest_store::{DurableIngest, StoreConfig};
use serde::Value;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    out: PathBuf,
    quick: bool,
    ingest: bool,
    replicate: bool,
}

fn parse_args() -> Args {
    let mut out: Option<PathBuf> = None;
    let mut quick = false;
    let mut ingest = false;
    let mut replicate = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(it.next().expect("--out needs a value"))),
            "--quick" => quick = true,
            "--ingest" => ingest = true,
            "--replicate" => replicate = true,
            other => {
                panic!(
                    "unknown flag {other:?} (usage: loadgen [--quick] [--ingest] [--replicate] [--out PATH])"
                )
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        PathBuf::from(if replicate {
            "BENCH_replication.json"
        } else if ingest {
            "BENCH_ingest.json"
        } else {
            "BENCH_serving.json"
        })
    });
    Args {
        out,
        quick,
        ingest,
        replicate,
    }
}

struct Bench {
    handle: ServerHandle,
    addr: SocketAddr,
    dir: PathBuf,
    artifact_a: PathBuf,
    artifact_b: PathBuf,
    bodies: Vec<String>,
}

/// The coalescing config every loadgen server runs: the shipped policy
/// with a 4096-query queue bound.
fn coalesce_config() -> CoalesceConfig {
    CoalesceConfig {
        cap: 4096,
        ..CoalesceConfig::default()
    }
}

fn setup(quick: bool) -> Bench {
    let spec = DatasetSpec {
        dataset: PaperDataset::GloVe300,
        dim: 64,
        n_data: if quick { 1_000 } else { 4_000 },
        n_train_queries: if quick { 24 } else { 64 },
        n_test_queries: 8,
        metric: Metric::Angular,
        tau_max: 0.6,
    };
    eprintln!(
        "loadgen: generating {}d x {} dataset and training the serving model",
        spec.dim, spec.n_data
    );
    let data = spec.generate(13);
    let workload = SearchWorkload::build(&data, &spec, 13);
    let training = TrainingSet::new(&workload.queries, &workload.train);
    let mut cfg = MlpConfig::default();
    cfg.train.epochs = if quick { 3 } else { 6 };

    let dir = std::env::temp_dir().join(format!("cardest-loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact_a = dir.join("model_a.cardest");
    let artifact_b = dir.join("model_b.cardest");
    for (path, seed) in [(&artifact_a, 1u64), (&artifact_b, 2u64)] {
        let (model, _) = MlpEstimator::train(&data, spec.metric, &training, &cfg, seed);
        model.save_artifact(path).unwrap();
    }

    let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
        &data,
        spec.metric,
        0.01,
        13,
        "Sampling 1%",
    ));
    let registry = ModelRegistry::new(
        RegistryConfig {
            n_data: data.len(),
            dim: data.dim(),
            repr: repr_of(&data),
            monotone: true,
        },
        fallback,
        &artifact_a,
    )
    .unwrap();
    let handle = Server::start(
        ServerConfig {
            workers: 6,
            coalesce: coalesce_config(),
            ..ServerConfig::default()
        },
        Arc::new(registry),
    )
    .unwrap();
    let addr = handle.addr();

    // Pre-render request bodies from real dataset rows.
    let bodies: Vec<String> = (0..256)
        .map(|i| {
            let row = match data.view(i % data.len()) {
                cardest_data::vector::VectorView::Dense(r) => r,
                other => panic!("dense expected, got {other:?}"),
            };
            let comps: Vec<String> = row.iter().map(|v| format!("{v:.5}")).collect();
            let tau = 0.1 + 0.05 * (i % 9) as f32;
            format!("{{\"query\":[{}],\"tau\":{tau:.2}}}", comps.join(","))
        })
        .collect();

    Bench {
        handle,
        addr,
        dir,
        artifact_a,
        artifact_b,
        bodies,
    }
}

fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Closed-loop run: `clients` threads each fire `per_client` requests at
/// `path` with rotating bodies. Returns (sorted latencies µs, elapsed).
fn closed_loop(
    addr: SocketAddr,
    bodies: Arc<Vec<String>>,
    clients: usize,
    per_client: usize,
    path: &'static str,
) -> (Vec<u64>, Duration) {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).unwrap();
                let mut lat = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let body = &bodies[(t * 97 + i) % bodies.len()];
                    let t0 = Instant::now();
                    let r = c.post_json(path, body).unwrap();
                    let us = t0.elapsed().as_micros() as u64;
                    assert_eq!(r.status, 200, "{}", r.text());
                    lat.push(us);
                }
                lat
            })
        })
        .collect();
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let elapsed = start.elapsed();
    all.sort_unstable();
    (all, elapsed)
}

fn lat_summary(sorted: &[u64], queries: usize, elapsed: Duration) -> Value {
    Value::Map(vec![
        ("requests".to_string(), Value::UInt(sorted.len() as u64)),
        ("queries".to_string(), Value::UInt(queries as u64)),
        (
            "p50_us".to_string(),
            Value::UInt(percentile_us(sorted, 0.50)),
        ),
        (
            "p99_us".to_string(),
            Value::UInt(percentile_us(sorted, 0.99)),
        ),
        (
            "mean_us".to_string(),
            Value::Float(sorted.iter().sum::<u64>() as f64 / sorted.len().max(1) as f64),
        ),
        (
            "qps".to_string(),
            Value::Float(queries as f64 / elapsed.as_secs_f64()),
        ),
    ])
}

/// Trains the tiny GL stack the ingest bench serves and mutates.
fn build_updatable(spec: &DatasetSpec, seed: u64) -> UpdatableGl {
    let data = spec.generate(seed);
    let w = SearchWorkload::build(&data, spec, seed);
    let cfg = GlConfig {
        variant: GlVariant::GlCnn,
        n_segments: 4,
        local_train: TrainConfig {
            epochs: 3,
            batch_size: 64,
            ..Default::default()
        },
        global_train: TrainConfig {
            epochs: 4,
            batch_size: 64,
            ..Default::default()
        },
        tuning: TuningConfig::fast(),
        tuning_segments: 1,
        ..Default::default()
    };
    let training = TrainingSet::new(&w.queries, &w.train);
    let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg);
    UpdatableGl::new(
        data,
        spec.metric,
        gl,
        w.queries,
        w.train,
        w.test,
        &w.table,
        UpdateConfig::default(),
    )
}

fn dense_row(upd: &UpdatableGl, row: usize) -> Vec<f32> {
    match upd.data().view(row) {
        VectorView::Dense(r) => r.to_vec(),
        other => panic!("dense expected, got {other:?}"),
    }
}

/// `--ingest`: mixed insert/estimate workload over the mutable server,
/// then a store-layer recovery-cost sweep; writes `BENCH_ingest.json`.
fn run_ingest(args: &Args) {
    let n_data = if args.quick { 800 } else { 2_000 };
    let spec = DatasetSpec {
        dataset: PaperDataset::GloVe300,
        dim: 16,
        n_data,
        n_train_queries: 30,
        n_test_queries: 10,
        metric: Metric::Angular,
        tau_max: 0.6,
    };
    eprintln!("loadgen --ingest: training the {n_data}-row GL serving model");
    let upd = build_updatable(&spec, 17);
    let base_state = upd.snapshot_json().unwrap();

    let dir = std::env::temp_dir().join(format!("cardest-loadgen-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.cardest");
    upd.gl().save_artifact(&model_path).unwrap();

    // Stationary insert bodies (scattered duplicates of existing rows) so
    // the drift monitor — running at its default cadence on the request
    // path — stays quiet and the numbers measure the durable write path.
    let insert_bodies: Vec<String> = (0..256)
        .map(|i| {
            let row = dense_row(&upd, (i * 37 + 11) % n_data);
            let comps: Vec<String> = row.iter().map(|v| format!("{v:.5}")).collect();
            format!("{{\"point\":[{}]}}", comps.join(","))
        })
        .collect();
    let estimate_bodies: Vec<String> = (0..256)
        .map(|i| {
            let row = dense_row(&upd, (i * 53 + 5) % n_data);
            let comps: Vec<String> = row.iter().map(|v| format!("{v:.5}")).collect();
            let tau = 0.1 + 0.05 * (i % 9) as f32;
            format!("{{\"query\":[{}],\"tau\":{tau:.2}}}", comps.join(","))
        })
        .collect();

    let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
        upd.data(),
        spec.metric,
        0.01,
        17,
        "Sampling 1%",
    ));
    let registry = Arc::new(
        ModelRegistry::new(
            RegistryConfig {
                n_data,
                dim: spec.dim,
                repr: repr_of(upd.data()),
                monotone: true,
            },
            fallback,
            &model_path,
        )
        .unwrap(),
    );
    // The durability the ack promises: sync_writes on, like production.
    let store = DurableIngest::create(
        &dir.join("store"),
        upd,
        StoreConfig {
            snapshot_every: 1024,
            sync_writes: true,
            retain_wal: false,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let svc = IngestService::new(
        store,
        DriftConfig::default(),
        dir.join("model_tuned.cardest"),
    );
    let handle = Server::start_with_ingest(
        ServerConfig {
            workers: 6,
            coalesce: coalesce_config(),
            ..ServerConfig::default()
        },
        registry,
        svc,
    )
    .unwrap();
    let addr = handle.addr();

    // --- mixed workload: inserts and estimates racing on one server ---
    let insert_clients = 2usize;
    let estimate_clients = 2usize;
    let inserts_per_client = if args.quick { 150 } else { 400 };
    let estimates_per_client = if args.quick { 300 } else { 800 };
    eprintln!(
        "loadgen --ingest: mixed phase ({insert_clients}x{inserts_per_client} inserts vs {estimate_clients}x{estimates_per_client} estimates)"
    );
    let ins_bodies = Arc::new(insert_bodies);
    let est_bodies = Arc::new(estimate_bodies);
    let t_ins = {
        let b = Arc::clone(&ins_bodies);
        std::thread::spawn(move || {
            closed_loop(addr, b, insert_clients, inserts_per_client, "/insert")
        })
    };
    let t_est = {
        let b = Arc::clone(&est_bodies);
        std::thread::spawn(move || {
            closed_loop(addr, b, estimate_clients, estimates_per_client, "/estimate")
        })
    };
    let (ins_lat, ins_elapsed) = t_ins.join().unwrap();
    let (est_lat, est_elapsed) = t_est.join().unwrap();
    let mixed_insert = lat_summary(&ins_lat, insert_clients * inserts_per_client, ins_elapsed);
    let mixed_estimate = lat_summary(
        &est_lat,
        estimate_clients * estimates_per_client,
        est_elapsed,
    );

    let ingest_snap = handle.ingest().unwrap().snapshot();
    let total_inserts = (insert_clients * inserts_per_client) as u64;
    assert_eq!(ingest_snap.inserts, total_inserts, "an insert was dropped");
    let server_stats_text = HttpClient::connect(addr)
        .unwrap()
        .get("/stats")
        .unwrap()
        .text();
    let server_stats: Value = serde_json::from_str(&server_stats_text).unwrap();
    handle.shutdown();

    // --- recovery time vs WAL length (store layer, no HTTP) ---
    // Same base state each round, increasingly long un-snapshotted WALs:
    // recovery = snapshot load + replay, so cost should grow linearly in
    // the record count.
    let wal_lens: &[usize] = if args.quick {
        &[100, 400]
    } else {
        &[100, 400, 1600]
    };
    let mut recovery = Vec::new();
    for &k in wal_lens {
        let updk = UpdatableGl::from_snapshot_json(&base_state).unwrap();
        let point = dense_row(&updk, 3);
        let dirk = dir.join(format!("recover-{k}"));
        let mut store = DurableIngest::create(
            &dirk,
            updk,
            StoreConfig {
                snapshot_every: 0,
                sync_writes: false,
                retain_wal: true,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        for _ in 0..k {
            store.insert(VectorView::Dense(&point)).unwrap();
        }
        let wal_bytes = store.wal_len_bytes();
        drop(store);
        let t0 = Instant::now();
        let (_store, report) = DurableIngest::open(
            &dirk,
            StoreConfig {
                snapshot_every: 0,
                sync_writes: false,
                retain_wal: true,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.replayed, k, "recovery lost records");
        eprintln!("loadgen --ingest: recovery of {k:>5} records ({wal_bytes} B) in {ms:.1} ms");
        recovery.push(Value::Map(vec![
            ("wal_records".to_string(), Value::UInt(k as u64)),
            ("wal_bytes".to_string(), Value::UInt(wal_bytes)),
            ("recover_ms".to_string(), Value::Float(ms)),
        ]));
    }

    let report = Value::Map(vec![
        (
            "config".to_string(),
            Value::Map(vec![
                (
                    "dataset".to_string(),
                    Value::Str("GloVe300 (synthetic)".to_string()),
                ),
                ("dim".to_string(), Value::UInt(spec.dim as u64)),
                ("n_data".to_string(), Value::UInt(n_data as u64)),
                ("workers".to_string(), Value::UInt(6)),
                ("sync_writes".to_string(), Value::Bool(true)),
                ("quick".to_string(), Value::Bool(args.quick)),
            ]),
        ),
        ("mixed_insert".to_string(), mixed_insert),
        ("mixed_estimate".to_string(), mixed_estimate),
        ("recovery".to_string(), Value::Seq(recovery)),
        ("server_stats".to_string(), server_stats),
    ]);
    std::fs::write(&args.out, serde_json::to_string(&report).unwrap()).unwrap();
    eprintln!("loadgen --ingest: wrote {}", args.out.display());
    std::fs::remove_dir_all(&dir).ok();
}

/// One node of a replication pair, hydrated from a shared snapshot so
/// the bench trains exactly once.
struct ReplNode {
    svc: Arc<IngestService>,
    handle: Option<ServerHandle>,
}

/// The pieces every bench node shares: one trained state, one artifact,
/// one fallback.
struct ReplFixture {
    dir: PathBuf,
    base_state: String,
    model_path: PathBuf,
    fallback: SharedFallback,
    dim: usize,
    n_data: usize,
}

impl ReplFixture {
    fn node(&self, tag: &str, repl: Arc<cardest_server::ReplicationState>) -> ReplNode {
        let upd = UpdatableGl::from_snapshot_json(&self.base_state).unwrap();
        let store = DurableIngest::create(
            &self.dir.join(format!("store-{tag}")),
            upd,
            StoreConfig {
                snapshot_every: 0,
                sync_writes: false,
                retain_wal: true,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let svc = IngestService::new(
            store,
            DriftConfig::default(),
            self.dir.join(format!("model_tuned-{tag}.cardest")),
        );
        let registry = Arc::new(
            ModelRegistry::new(
                RegistryConfig {
                    n_data: self.n_data,
                    dim: self.dim,
                    repr: cardest_server::model::QueryRepr::Dense,
                    monotone: true,
                },
                Arc::clone(&self.fallback),
                &self.model_path,
            )
            .unwrap(),
        );
        let handle = Server::start_replicated(
            ServerConfig {
                workers: 4,
                coalesce: coalesce_config(),
                ..ServerConfig::default()
            },
            registry,
            Arc::clone(&svc),
            repl,
        )
        .unwrap();
        ReplNode {
            svc,
            handle: Some(handle),
        }
    }
}

/// `--replicate`: warm-standby pair benchmark; writes
/// `BENCH_replication.json`.
fn run_replicate(args: &Args) {
    use cardest_server::{ReplicationState, StandbyBridge};
    use cardest_store::replicate::{
        ListenerConfig, ReplicaClient, ReplicaClientConfig, ReplicaSource, ReplicationListener,
        StandbyTarget,
    };

    let n_data = if args.quick { 800 } else { 2_000 };
    let spec = DatasetSpec {
        dataset: PaperDataset::GloVe300,
        dim: 16,
        n_data,
        n_train_queries: 30,
        n_test_queries: 10,
        metric: Metric::Angular,
        tau_max: 0.6,
    };
    eprintln!("loadgen --replicate: training the {n_data}-row GL serving model");
    let upd = build_updatable(&spec, 17);
    let base_state = upd.snapshot_json().unwrap();

    let dir = std::env::temp_dir().join(format!("cardest-loadgen-repl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.cardest");
    upd.gl().save_artifact(&model_path).unwrap();
    let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
        upd.data(),
        spec.metric,
        0.01,
        17,
        "Sampling 1%",
    ));
    let insert_bodies: Vec<String> = (0..256)
        .map(|i| {
            let row = dense_row(&upd, (i * 37 + 11) % n_data);
            let comps: Vec<String> = row.iter().map(|v| format!("{v:.5}")).collect();
            format!("{{\"point\":[{}]}}", comps.join(","))
        })
        .collect();
    drop(upd);
    let bodies = Arc::new(insert_bodies);
    let insert_clients = 2usize;
    let per_client = if args.quick { 150 } else { 400 };
    let total = (insert_clients * per_client) as u64;
    let fx = ReplFixture {
        dir: dir.clone(),
        base_state,
        model_path,
        fallback,
        dim: spec.dim,
        n_data,
    };
    let node = |tag: &str, repl| fx.node(tag, repl);

    // --- 1. solo baseline: no listener, no standby ---
    eprintln!("loadgen --replicate: solo baseline ({insert_clients}x{per_client} inserts)");
    let solo = node("solo", ReplicationState::primary());
    let (lat, elapsed) = closed_loop(
        solo.handle.as_ref().unwrap().addr(),
        Arc::clone(&bodies),
        insert_clients,
        per_client,
        "/insert",
    );
    let baseline_insert = lat_summary(&lat, total as usize, elapsed);
    if let Some(h) = solo.handle {
        h.shutdown();
    }

    // --- 2. live standby streaming while the primary takes writes ---
    eprintln!("loadgen --replicate: live-standby phase");
    let primary_repl = ReplicationState::primary();
    let primary = node("primary", Arc::clone(&primary_repl));
    let source: Arc<dyn ReplicaSource> = Arc::clone(&primary.svc) as Arc<dyn ReplicaSource>;
    let listener =
        ReplicationListener::start("127.0.0.1:0", source, ListenerConfig::default()).unwrap();
    primary_repl.attach_listener_stats(listener.stats());

    let standby_repl = ReplicationState::standby(Some(format!(
        "http://{}",
        primary.handle.as_ref().unwrap().addr()
    )));
    let standby = node("standby", Arc::clone(&standby_repl));
    // The standby's server holds svc + registry; the bridge needs them
    // too, so reach through the handle's accessors.
    let bridge: Arc<dyn StandbyTarget> = StandbyBridge::new(
        Arc::clone(&standby.svc),
        Arc::clone(standby.handle.as_ref().unwrap().registry()),
    );
    let client = ReplicaClient::start(
        listener.addr().to_string(),
        bridge,
        ReplicaClientConfig::default(),
    );
    standby_repl.attach_client(client);

    let (lat, elapsed) = closed_loop(
        primary.handle.as_ref().unwrap().addr(),
        Arc::clone(&bodies),
        insert_clients,
        per_client,
        "/insert",
    );
    let replicated_insert = lat_summary(&lat, total as usize, elapsed);

    // Steady state: how long from last ack'd write to a fully drained
    // standby.
    let t0 = Instant::now();
    let catchup_deadline = Duration::from_secs(60);
    while standby.svc.last_seq() < total {
        assert!(
            t0.elapsed() < catchup_deadline,
            "standby stuck at seq {} of {total}",
            standby.svc.last_seq()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let catch_up_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "loadgen --replicate: standby drained {total} records {catch_up_ms:.1} ms after last ack"
    );
    let stats = listener.stats();
    let steady_state = Value::Map(vec![
        ("records".to_string(), Value::UInt(total)),
        ("catch_up_ms".to_string(), Value::Float(catch_up_ms)),
        (
            "records_sent".to_string(),
            Value::UInt(
                stats
                    .records_sent
                    .load(std::sync::atomic::Ordering::Relaxed),
            ),
        ),
        (
            "snapshots_sent".to_string(),
            Value::UInt(
                stats
                    .snapshots_sent
                    .load(std::sync::atomic::Ordering::Relaxed),
            ),
        ),
    ]);

    // --- 3. failover: kill the primary, promote the standby ---
    eprintln!("loadgen --replicate: failover phase");
    drop(listener);
    if let Some(h) = primary.handle {
        h.shutdown();
    }
    let standby_addr = standby.handle.as_ref().unwrap().addr();
    let mut admin = HttpClient::connect(standby_addr).unwrap();
    let t0 = Instant::now();
    let r = admin.post_json("/admin/promote", "").unwrap();
    let promote_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(r.status, 200, "promote failed: {}", r.text());
    let r = admin.post_json("/insert", &bodies[0]).unwrap();
    let failover_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(r.status, 200, "post-promote insert failed: {}", r.text());
    let promoted_seq = standby.svc.last_seq();
    assert_eq!(promoted_seq, total + 1, "failover broke the seq chain");
    eprintln!(
        "loadgen --replicate: promoted in {promote_ms:.1} ms, first insert accepted at {failover_ms:.1} ms"
    );
    let failover = Value::Map(vec![
        ("promote_ms".to_string(), Value::Float(promote_ms)),
        (
            "first_insert_accepted_ms".to_string(),
            Value::Float(failover_ms),
        ),
        (
            "acked_records_before_failover".to_string(),
            Value::UInt(total),
        ),
        (
            "seq_after_first_insert".to_string(),
            Value::UInt(promoted_seq),
        ),
    ]);
    if let Some(h) = standby.handle {
        h.shutdown();
    }

    // --- 4. dead standby: a stalled session must not slow inserts ---
    eprintln!("loadgen --replicate: dead-standby phase");
    let dead_repl = ReplicationState::primary();
    let dead = node("dead", Arc::clone(&dead_repl));
    let source: Arc<dyn ReplicaSource> = Arc::clone(&dead.svc) as Arc<dyn ReplicaSource>;
    let listener =
        ReplicationListener::start("127.0.0.1:0", source, ListenerConfig::default()).unwrap();
    // A connected socket that never sends HELLO and never reads: the
    // worst kind of peer.
    let stalled = std::net::TcpStream::connect(listener.addr()).unwrap();
    let (lat, elapsed) = closed_loop(
        dead.handle.as_ref().unwrap().addr(),
        Arc::clone(&bodies),
        insert_clients,
        per_client,
        "/insert",
    );
    let dead_standby_insert = lat_summary(&lat, total as usize, elapsed);
    drop(stalled);
    drop(listener);
    if let Some(h) = dead.handle {
        h.shutdown();
    }

    let report = Value::Map(vec![
        (
            "config".to_string(),
            Value::Map(vec![
                (
                    "dataset".to_string(),
                    Value::Str("GloVe300 (synthetic)".to_string()),
                ),
                ("dim".to_string(), Value::UInt(spec.dim as u64)),
                ("n_data".to_string(), Value::UInt(n_data as u64)),
                (
                    "insert_clients".to_string(),
                    Value::UInt(insert_clients as u64),
                ),
                ("inserts_per_phase".to_string(), Value::UInt(total)),
                ("sync_writes".to_string(), Value::Bool(false)),
                ("quick".to_string(), Value::Bool(args.quick)),
            ]),
        ),
        ("baseline_insert".to_string(), baseline_insert),
        ("replicated_insert".to_string(), replicated_insert),
        ("dead_standby_insert".to_string(), dead_standby_insert),
        ("steady_state".to_string(), steady_state),
        ("failover".to_string(), failover),
    ]);
    std::fs::write(&args.out, serde_json::to_string(&report).unwrap()).unwrap();
    eprintln!("loadgen --replicate: wrote {}", args.out.display());
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    let args = parse_args();
    if args.replicate {
        run_replicate(&args);
        return;
    }
    if args.ingest {
        run_ingest(&args);
        return;
    }
    let bench = setup(args.quick);
    let addr = bench.addr;
    let bodies = Arc::new(bench.bodies.clone());
    let scale = if args.quick { 1usize } else { 4 };

    // Warm-up: populate thread-local scratch pools and the coalescer path.
    let _ = closed_loop(addr, Arc::clone(&bodies), 2, 50, "/estimate");

    // --- 1. single-query latency ---
    let clients = 4;
    let per_client = 500 * scale;
    eprintln!("loadgen: single-query phase ({clients} clients x {per_client})");
    let (single_lat, single_elapsed) =
        closed_loop(addr, Arc::clone(&bodies), clients, per_client, "/estimate");
    let single = lat_summary(&single_lat, clients * per_client, single_elapsed);

    // --- 2. the same volume as explicit batches of 32 ---
    let batch_size = 32usize;
    let batches_per_client = (per_client / batch_size).max(1);
    eprintln!(
        "loadgen: batch phase ({clients} clients x {batches_per_client} batches of {batch_size})"
    );
    let batch_bodies: Vec<String> = (0..64)
        .map(|i| {
            let entries: Vec<String> = (0..batch_size)
                .map(|j| bodies[(i * 31 + j * 7) % bodies.len()].clone())
                .collect();
            format!("{{\"queries\":[{}]}}", entries.join(","))
        })
        .collect();
    let (batch_lat, batch_elapsed) = closed_loop(
        addr,
        Arc::new(batch_bodies),
        clients,
        batches_per_client,
        "/estimate_batch",
    );
    let batch_queries = clients * batches_per_client * batch_size;
    let mut batch = match lat_summary(&batch_lat, batch_queries, batch_elapsed) {
        Value::Map(m) => m,
        _ => unreachable!(),
    };
    batch.push(("batch_size".to_string(), Value::UInt(batch_size as u64)));
    batch.push((
        "amortized_us_per_query".to_string(),
        Value::Float(batch_lat.iter().sum::<u64>() as f64 / batch_queries.max(1) as f64),
    ));

    // --- 3. saturation ramp ---
    let mut ramp = Vec::new();
    let mut qps_at_saturation = 0.0f64;
    for clients in [1usize, 2, 4, 8, 16] {
        let per = (250 * scale).max(100);
        let (_, elapsed) = closed_loop(addr, Arc::clone(&bodies), clients, per, "/estimate");
        let qps = (clients * per) as f64 / elapsed.as_secs_f64();
        eprintln!("loadgen: saturation {clients:>2} clients -> {qps:.0} qps");
        qps_at_saturation = qps_at_saturation.max(qps);
        ramp.push(Value::Map(vec![
            ("clients".to_string(), Value::UInt(clients as u64)),
            ("qps".to_string(), Value::Float(qps)),
        ]));
    }

    // --- 4. hot reload under load ---
    eprintln!("loadgen: hot-reload phase");
    let mut corrupt_bytes = std::fs::read(&bench.artifact_b).unwrap();
    let mid = corrupt_bytes.len() / 2;
    corrupt_bytes[mid] ^= 0x08;
    let corrupt = bench.dir.join("corrupt.cardest");
    std::fs::write(&corrupt, &corrupt_bytes).unwrap();

    let reload_reqs = 400 * scale;
    let load: Vec<_> = (0..clients)
        .map(|t| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).unwrap();
                let mut failed = 0usize;
                for i in 0..reload_reqs {
                    let r = c
                        .post_json("/estimate", &bodies[(t * 13 + i) % bodies.len()])
                        .unwrap();
                    if r.status != 200 {
                        failed += 1;
                    }
                }
                failed
            })
        })
        .collect();
    let mut admin = HttpClient::connect(addr).unwrap();
    let mut reloads_ok = 0u64;
    let mut reloads_rejected = 0u64;
    for i in 0..45 {
        let (path, want) = match i % 3 {
            0 => (&bench.artifact_b, 200),
            1 => (&bench.artifact_a, 200),
            _ => (&corrupt, 409),
        };
        let body = format!("{{\"path\":\"{}\"}}", path.display());
        let r = admin.post_json("/admin/reload", &body).unwrap();
        assert_eq!(r.status, want, "unexpected reload outcome: {}", r.text());
        if want == 200 {
            reloads_ok += 1;
        } else {
            reloads_rejected += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let failed: usize = load.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(failed, 0, "hot reload dropped {failed} requests");
    let hot_reload = Value::Map(vec![
        (
            "requests".to_string(),
            Value::UInt((clients * reload_reqs) as u64),
        ),
        ("failed".to_string(), Value::UInt(failed as u64)),
        ("reloads_ok".to_string(), Value::UInt(reloads_ok)),
        (
            "corrupt_reloads_rejected".to_string(),
            Value::UInt(reloads_rejected),
        ),
    ]);

    // Server-side view for cross-checking.
    let stats_text = admin.get("/stats").unwrap().text();
    let server_stats: Value = serde_json::from_str(&stats_text).unwrap();

    let coalesce = coalesce_config();
    let report = Value::Map(vec![
        (
            "config".to_string(),
            Value::Map(vec![
                (
                    "dataset".to_string(),
                    Value::Str("GloVe300 (synthetic)".to_string()),
                ),
                ("dim".to_string(), Value::UInt(64)),
                (
                    "n_data".to_string(),
                    Value::UInt(if args.quick { 1_000 } else { 4_000 }),
                ),
                ("workers".to_string(), Value::UInt(6)),
                (
                    "coalesce_max_batch".to_string(),
                    Value::UInt(coalesce.max_batch as u64),
                ),
                ("coalesce_cap".to_string(), Value::UInt(coalesce.cap as u64)),
                ("clients".to_string(), Value::UInt(clients as u64)),
                ("quick".to_string(), Value::Bool(args.quick)),
            ]),
        ),
        ("single".to_string(), single),
        ("batch".to_string(), Value::Map(batch)),
        ("saturation_ramp".to_string(), Value::Seq(ramp)),
        (
            "qps_at_saturation".to_string(),
            Value::Float(qps_at_saturation),
        ),
        ("hot_reload".to_string(), hot_reload),
        ("server_stats".to_string(), server_stats),
    ]);
    std::fs::write(&args.out, serde_json::to_string(&report).unwrap()).unwrap();
    eprintln!("loadgen: wrote {}", args.out.display());

    bench.handle.shutdown();
    std::fs::remove_dir_all(&bench.dir).ok();
}
