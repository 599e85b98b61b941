//! End-to-end `POST /insert` battery (ISSUE 7 tentpole, serving side):
//! durable inserts over real sockets, validation rejected before the WAL,
//! read-only servers answering 404, and a manufactured drift burst that
//! must end in a background fine-tune hot-swapping the served model.

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
use cardest_server::model::QueryRepr;
use cardest_server::registry::SharedFallback;
use cardest_server::{
    IngestService, ModelRegistry, RegistryConfig, Server, ServerConfig, ServerHandle,
};
use cardest_store::{DurableIngest, StoreConfig};
use serde::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_DATA: usize = 400;
const DIM: usize = 16;

fn tiny_spec() -> DatasetSpec {
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

struct IngestFixture {
    dir: PathBuf,
    handle: Option<ServerHandle>,
    /// Query components of the quietest held-out probe — the sharpest
    /// drift burst one can manufacture for the fixed probe set.
    burst: Vec<f32>,
}

impl IngestFixture {
    fn start(tag: &str, check_every: usize) -> Self {
        let dir = std::env::temp_dir().join(format!("cardest-ingest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec();
        let data = spec.generate(77);
        let w = SearchWorkload::build(&data, &spec, 77);
        let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
            &data,
            spec.metric,
            0.05,
            77,
            "Sampling 5%",
        ));
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
        let upd = UpdatableGl::new(
            data,
            spec.metric,
            gl,
            w.queries,
            w.train,
            w.test,
            &w.table,
            UpdateConfig::default(),
        );
        let quietest = upd
            .test_samples()
            .iter()
            .min_by(|a, b| a.card.total_cmp(&b.card))
            .unwrap();
        let burst = match upd.queries().view(quietest.query) {
            VectorView::Dense(row) => row.to_vec(),
            other => panic!("tiny spec is dense, got {other:?}"),
        };

        let model_path = dir.join("model.cardest");
        upd.gl().save_artifact(&model_path).unwrap();
        let store = DurableIngest::create(
            &dir.join("store"),
            upd,
            StoreConfig {
                snapshot_every: 64,
                sync_writes: false,
                retain_wal: false,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let svc = IngestService::new(
            store,
            DriftConfig {
                check_every,
                ..Default::default()
            },
            dir.join("model_tuned.cardest"),
        );
        let registry = ModelRegistry::new(
            RegistryConfig {
                n_data: N_DATA,
                dim: DIM,
                repr: QueryRepr::Dense,
                monotone: true,
            },
            fallback,
            &model_path,
        )
        .unwrap();
        let handle = Server::start_with_ingest(
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
            Arc::new(registry),
            svc,
        )
        .unwrap();
        IngestFixture {
            dir,
            handle: Some(handle),
            burst,
        }
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(self.handle.as_ref().unwrap().addr()).unwrap()
    }

    fn insert_body(&self, point: &[f32]) -> String {
        let comps: Vec<String> = point.iter().map(|v| format!("{v}")).collect();
        format!("{{\"point\":[{}]}}", comps.join(","))
    }

    fn estimate_body(&self, tau: f32) -> String {
        let comps: Vec<String> = self.burst.iter().map(|v| format!("{v}")).collect();
        format!("{{\"query\":[{}],\"tau\":{tau}}}", comps.join(","))
    }
}

impl Drop for IngestFixture {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
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

#[test]
fn insert_round_trip_validation_and_stats() {
    // check_every larger than the insert count: this test exercises the
    // durable write path, not the drift trigger.
    let fx = IngestFixture::start("roundtrip", 1024);
    let mut c = fx.client();

    // First insert lands at the end of the dataset with WAL seq 1.
    let r = c.post_json("/insert", &fx.insert_body(&fx.burst)).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(as_u64(field(&v, "seq")), 1);
    assert_eq!(as_u64(field(&v, "index")), N_DATA as u64);
    assert!(as_u64(field(&v, "segment")) < 4);
    assert_eq!(field(&v, "finetune_scheduled"), &Value::Bool(false));

    // Sequence numbers and row indices advance together.
    for k in 1..4u64 {
        let r = c.post_json("/insert", &fx.insert_body(&fx.burst)).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let v: Value = serde_json::from_str(&r.text()).unwrap();
        assert_eq!(as_u64(field(&v, "seq")), 1 + k);
        assert_eq!(as_u64(field(&v, "index")), N_DATA as u64 + k);
    }

    // Validation rejects before the WAL: a bad point must not consume a
    // sequence number.
    let wrong_dim: Vec<f32> = vec![0.1; DIM + 1];
    let r = c.post_json("/insert", &fx.insert_body(&wrong_dim)).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    // `1e999` overflows f32 to infinity in the JSON layer; the store's
    // validator must reject it before anything reaches the WAL.
    let comps: Vec<String> = fx.burst.iter().map(|v| format!("{v}")).collect();
    let mut comps_inf = comps;
    comps_inf[3] = "1e999".to_string();
    let body_inf = format!("{{\"point\":[{}]}}", comps_inf.join(","));
    let r = c.post_json("/insert", &body_inf).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("finite"), "{}", r.text());
    for bad in ["", "not json", "{\"query\":[0.1]}"] {
        let mut c_bad = fx.client();
        let r = c_bad.post_json("/insert", bad).unwrap();
        assert_eq!(r.status, 400, "body {bad:?} → {}", r.text());
    }
    let r = c.get("/insert").unwrap();
    assert_eq!(r.status, 405);

    // The rejected points really never reached the WAL.
    let r = c.post_json("/insert", &fx.insert_body(&fx.burst)).unwrap();
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(as_u64(field(&v, "seq")), 5, "rejects consumed a seq");

    // Estimates keep working against the grown dataset.
    let r = c.post_json("/estimate", &fx.estimate_body(0.3)).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());

    // Stats reflect the ingestion state.
    let r = c.get("/stats").unwrap();
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    let ing = field(&v, "ingest");
    assert_eq!(field(ing, "enabled"), &Value::Bool(true));
    assert_eq!(as_u64(field(ing, "inserts")), 5);
    assert_eq!(as_u64(field(ing, "last_seq")), 5);
    assert!(as_u64(field(ing, "wal_bytes")) > 0);
    assert_eq!(as_u64(field(ing, "live_rows")), N_DATA as u64 + 5);
    let insert_route = field(field(&v, "routes"), "insert");
    assert!(as_u64(field(insert_route, "count")) >= 5);

    // The registry's next-generation clamp tracked the growth.
    assert_eq!(fx.handle.as_ref().unwrap().registry().n_data(), N_DATA + 5);
}

#[test]
fn read_only_server_answers_insert_with_404() {
    // A registry-only server (no store behind it) must refuse mutation
    // without disturbing the rest of the API.
    let fx = IngestFixture::start("readonly-donor", 1024);
    let registry = Arc::clone(fx.handle.as_ref().unwrap().registry());
    drop(fx);
    let handle = Server::start(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let mut c = HttpClient::connect(handle.addr()).unwrap();
    let r = c.post_json("/insert", "{\"point\":[0.0]}").unwrap();
    assert_eq!(r.status, 404, "{}", r.text());
    let r = c.get("/stats").unwrap();
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(
        field(field(&v, "ingest"), "enabled"),
        &Value::Bool(false),
        "{}",
        r.text()
    );
    let r = c.get("/health").unwrap();
    assert_eq!(r.status, 200);
    handle.shutdown();
}

#[test]
fn drift_burst_finetunes_in_background_and_hot_swaps() {
    let fx = IngestFixture::start("drift", 8);
    let mut c = fx.client();

    // A burst of points exactly on the quietest probe query: its true
    // cardinality jumps while the served model answers from stale labels,
    // so the drift monitor must fire and schedule a fine-tune.
    let mut scheduled = false;
    for _ in 0..48 {
        let r = c.post_json("/insert", &fx.insert_body(&fx.burst)).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let v: Value = serde_json::from_str(&r.text()).unwrap();
        if field(&v, "finetune_scheduled") == &Value::Bool(true) {
            scheduled = true;
            break;
        }
    }
    assert!(scheduled, "48-point burst never scheduled a fine-tune");

    // The background worker fine-tunes, snapshots, and hot-swaps; watch
    // the model version move without blocking any request.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut version = 1;
    while Instant::now() < deadline {
        let r = c.get("/health").unwrap();
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(&r.text()).unwrap();
        version = as_u64(field(&v, "model_version"));
        if version >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(version >= 2, "background fine-tune never swapped the model");

    // Serving never stopped: estimates still answer on the new model.
    let r = c.post_json("/estimate", &fx.estimate_body(0.3)).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());

    let r = c.get("/stats").unwrap();
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    let ing = field(&v, "ingest");
    assert!(as_u64(field(ing, "drift_triggers")) >= 1, "{}", r.text());
    assert!(as_u64(field(ing, "finetunes_ok")) >= 1, "{}", r.text());
    assert_eq!(as_u64(field(ing, "finetunes_failed")), 0, "{}", r.text());
}
