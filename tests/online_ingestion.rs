//! End-to-end online ingestion (ISSUE 7 tentpole): inserts over HTTP
//! under concurrent estimate load, a crash manufactured by tearing the
//! WAL tail, recovery that must be bit-identical to snapshot + replay of
//! the surviving prefix, and a restarted server whose estimates answer
//! without a single guard fallback.

use cardest_baselines::sampling::SamplingEstimator;
use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_core::drift::DriftConfig;
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::tuning::TuningConfig;
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::metric::Metric;
use cardest_data::paper::{DatasetSpec, PaperDataset};
use cardest_data::vector::VectorView;
use cardest_data::workload::SearchWorkload;
use cardest_nn::metrics::q_error;
use cardest_nn::trainer::TrainConfig;
use cardest_server::client::HttpClient;
use cardest_server::model::QueryRepr;
use cardest_server::registry::SharedFallback;
use cardest_server::{IngestService, ModelRegistry, RegistryConfig, Server, ServerConfig};
use cardest_store::ingest::{apply_record, SNAPSHOT_FILE, WAL_FILE};
use cardest_store::{read_snapshot, scan, DurableIngest, StoreConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N_DATA: usize = 400;
const DIM: usize = 16;
const INSERT_THREADS: usize = 3;
const INSERTS_PER_THREAD: usize = 20;
const TOTAL_INSERTS: usize = INSERT_THREADS * INSERTS_PER_THREAD;

fn spec() -> DatasetSpec {
    DatasetSpec {
        dataset: PaperDataset::GloVe300,
        dim: DIM,
        n_data: N_DATA,
        n_train_queries: 30,
        n_test_queries: 10,
        metric: Metric::Angular,
        tau_max: 0.6,
    }
}

/// Trains the tiny GL stack and wraps it for updates. Deterministic in
/// the seed, so two calls build bit-identical estimators.
fn build_updatable(seed: u64) -> UpdatableGl {
    let spec = spec();
    let data = spec.generate(seed);
    let w = SearchWorkload::build(&data, &spec, seed);
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

fn dense_row(upd: &UpdatableGl, data_row: usize) -> Vec<f32> {
    match upd.data().view(data_row) {
        VectorView::Dense(row) => row.to_vec(),
        other => panic!("spec is dense, got {other:?}"),
    }
}

fn registry_for(model_path: &Path, upd: &UpdatableGl, n_data: usize) -> Arc<ModelRegistry> {
    let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
        upd.data(),
        Metric::Angular,
        0.05,
        9,
        "Sampling 5%",
    ));
    Arc::new(
        ModelRegistry::new(
            RegistryConfig {
                n_data,
                dim: DIM,
                repr: QueryRepr::Dense,
                monotone: true,
            },
            fallback,
            model_path,
        )
        .unwrap(),
    )
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(m) => {
            &m.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing field {key:?} in {v:?}"))
                .1
        }
        other => panic!("expected map, got {other:?}"),
    }
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::UInt(u) => *u,
        Value::Int(i) if *i >= 0 => *i as u64,
        other => panic!("expected unsigned integer, got {other:?}"),
    }
}

fn json_point(point: &[f32]) -> String {
    let comps: Vec<String> = point.iter().map(|v| format!("{v}")).collect();
    format!("{{\"point\":[{}]}}", comps.join(","))
}

#[test]
fn insert_under_load_crash_recover_and_serve() {
    let dir = std::env::temp_dir().join(format!("cardest-e2e-ingest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store_dir: PathBuf = dir.join("store");
    let model_path = dir.join("model.cardest");

    // --- phase 1: serve + ingest under concurrent load ---
    let upd = build_updatable(9);
    upd.gl().save_artifact(&model_path).unwrap();
    // Vectors each insert thread will push (duplicates of existing rows —
    // valid points with known distances), and estimate queries.
    let insert_vecs: Vec<Vec<f32>> = (0..TOTAL_INSERTS)
        .map(|i| dense_row(&upd, (i * 7) % N_DATA))
        .collect();
    let probe = upd.test_samples()[0];
    let probe_query = match upd.queries().view(probe.query) {
        VectorView::Dense(row) => row.to_vec(),
        other => panic!("spec is dense, got {other:?}"),
    };
    let registry = registry_for(&model_path, &upd, N_DATA);

    // retain_wal + no auto-snapshot: every insert stays in the WAL, so
    // the manufactured crash has the longest possible tail to tear.
    let store = DurableIngest::create(
        &store_dir,
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
        DriftConfig {
            check_every: 10_000, // drift out of the picture: exact state
            ..Default::default()
        },
        dir.join("model_tuned.cardest"),
    );
    let handle = Server::start_with_ingest(
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
        registry,
        svc,
    )
    .unwrap();
    let addr = handle.addr();

    let inserters: Vec<_> = (0..INSERT_THREADS)
        .map(|t| {
            let vecs: Vec<Vec<f32>> =
                insert_vecs[t * INSERTS_PER_THREAD..(t + 1) * INSERTS_PER_THREAD].to_vec();
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).unwrap();
                for v in &vecs {
                    let r = c.post_json("/insert", &json_point(v)).unwrap();
                    assert_eq!(r.status, 200, "insert failed under load: {}", r.text());
                }
            })
        })
        .collect();
    let estimators: Vec<_> = (0..2)
        .map(|_| {
            let q = probe_query.clone();
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).unwrap();
                let comps: Vec<String> = q.iter().map(|v| format!("{v}")).collect();
                let body = format!("{{\"query\":[{}],\"tau\":0.3}}", comps.join(","));
                for _ in 0..30 {
                    let r = c.post_json("/estimate", &body).unwrap();
                    assert_eq!(r.status, 200, "estimate failed under load: {}", r.text());
                }
            })
        })
        .collect();
    for t in inserters.into_iter().chain(estimators) {
        t.join().unwrap();
    }

    let snap = handle.ingest().unwrap().snapshot();
    assert_eq!(snap.inserts, TOTAL_INSERTS as u64);
    assert_eq!(snap.last_seq, TOTAL_INSERTS as u64);
    assert_eq!(snap.live_rows, (N_DATA + TOTAL_INSERTS) as u64);
    handle.shutdown();

    // --- phase 2: crash — tear the WAL tail mid-record ---
    let wal_path = store_dir.join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    let surviving_before_cut = scan(&full).records.len();
    assert_eq!(surviving_before_cut, TOTAL_INSERTS, "WAL lost appends");
    // Keep ~60% of the bytes, nudged off any record boundary.
    let keep = (full.len() * 6 / 10) + 3;
    let torn = cardest_nn::faults::truncate(&full, keep);
    std::fs::write(&wal_path, &torn).unwrap();
    let survivors = scan(&torn).records.len();
    assert!(
        survivors < TOTAL_INSERTS,
        "cut at {keep} of {} left every record intact",
        full.len()
    );

    // --- phase 3: recover, and pin bit-identity vs snapshot + replay ---
    let (store, report) = DurableIngest::open(
        &store_dir,
        StoreConfig {
            snapshot_every: 0,
            sync_writes: false,
            retain_wal: true,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.snapshot_seq, 0);
    assert_eq!(report.replayed, survivors);
    assert!(report.wal.defect.is_some(), "mid-record cut must classify");
    assert_eq!(store.estimator().dataset_len(), N_DATA + survivors);

    // Independent reference: load the on-disk snapshot and replay the
    // torn WAL by hand through the same pure apply path.
    let (snap_seq, state) = read_snapshot(&store_dir.join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(snap_seq, 0);
    let mut reference =
        UpdatableGl::from_snapshot_json(std::str::from_utf8(&state).unwrap()).unwrap();
    for r in &scan(&torn).records {
        apply_record(&mut reference, r.seq, r.kind, &r.payload).unwrap();
    }
    assert_eq!(
        store.fingerprint().unwrap(),
        reference.state_fingerprint().unwrap(),
        "recovered state differs from snapshot + straight replay"
    );

    // Estimate quality survived recovery: the label-patched probes still
    // agree with the model to a sane Q-error.
    let mean_q: f32 = {
        let upd = store.estimator();
        let probes = upd.test_samples();
        let total: f32 = probes
            .iter()
            .map(|s| {
                q_error(
                    upd.gl().estimate(upd.queries().view(s.query), s.tau),
                    s.card,
                )
            })
            .sum();
        total / probes.len() as f32
    };
    assert!(
        mean_q.is_finite() && mean_q < 100.0,
        "post-recovery probe Q-error degenerate: {mean_q}"
    );

    // --- phase 4: restart serving on the recovered store ---
    // Control for the fallback assertion below: how many of the probe
    // taus would the *never-crashed* model (the bit-identical reference)
    // hand to the guard's fallback anyway — τ beyond the trained bound,
    // or a non-finite/negative output from the lightly-trained model.
    let taus = [0.1f32, 0.3, 0.5];
    let expected_fallbacks = taus
        .iter()
        .filter(|&&tau| {
            if reference.gl().tau_bound().is_some_and(|b| tau > b) {
                return true;
            }
            let est = reference
                .gl()
                .estimate(VectorView::Dense(&probe_query), tau);
            !est.is_finite() || est < 0.0
        })
        .count() as u64;

    store.estimator().gl().save_artifact(&model_path).unwrap();
    let registry = registry_for(&model_path, store.estimator(), N_DATA + survivors);
    let svc = IngestService::new(
        store,
        DriftConfig::default(),
        dir.join("model_tuned.cardest"),
    );
    let handle = Server::start_with_ingest(ServerConfig::default(), registry, svc).unwrap();
    let mut c = HttpClient::connect(handle.addr()).unwrap();
    let comps: Vec<String> = probe_query.iter().map(|v| format!("{v}")).collect();
    for tau in taus {
        let body = format!("{{\"query\":[{}],\"tau\":{tau}}}", comps.join(","));
        let r = c.post_json("/estimate", &body).unwrap();
        assert_eq!(r.status, 200, "post-recovery estimate: {}", r.text());
    }
    // Zero guard fallbacks attributable to corruption: the recovered
    // model falls back exactly as often as the never-crashed control —
    // one extra fallback would mean recovery damaged the weights.
    let r = c.get("/stats").unwrap();
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(
        as_u64(field(field(&v, "guard"), "fallbacks")),
        expected_fallbacks,
        "recovery corrupted the served model: {}",
        r.text()
    );
    assert!(as_u64(field(field(&v, "guard"), "served")) >= 3);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
