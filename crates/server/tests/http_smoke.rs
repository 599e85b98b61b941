//! End-to-end smoke battery over real TCP sockets (ISSUE 6 satellite 5).
//!
//! One in-process server instance serves the whole battery: estimate,
//! batch, malformed-body 400, admin reload (healthy swap and corrupt
//! rejection), and stats. Two separate tests exercise the `cardest-serve`
//! binary itself: it must announce `LISTENING <addr>` on stdout and
//! answer health checks, also when its cached model does not load. Every blocking read carries a deadline (the
//! client's 30 s socket timeout), so a wedged server fails instead of
//! hanging CI.

use cardest_baselines::mlp::{MlpConfig, MlpEstimator, MLP_ARTIFACT_KIND};
use cardest_baselines::sampling::SamplingEstimator;
use cardest_baselines::traits::TrainingSet;
use cardest_data::metric::Metric;
use cardest_data::paper::{DatasetSpec, PaperDataset};
use cardest_data::workload::SearchWorkload;
use cardest_nn::ArtifactError;
use cardest_server::client::HttpClient;
use cardest_server::model::repr_of;
use cardest_server::registry::SharedFallback;
use cardest_server::{ModelRegistry, RegistryConfig, Server, ServerConfig, ServerHandle};
use serde::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

fn tiny_spec() -> DatasetSpec {
    DatasetSpec {
        dataset: PaperDataset::GloVe300,
        dim: 16,
        n_data: 300,
        n_train_queries: 24,
        n_test_queries: 6,
        metric: Metric::Angular,
        tau_max: 0.6,
    }
}

struct ServerFixture {
    dir: PathBuf,
    handle: Option<ServerHandle>,
    artifact_a: PathBuf,
    artifact_b: PathBuf,
    query: Vec<f32>,
}

impl ServerFixture {
    fn start(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cardest-smoke-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec();
        let data = spec.generate(11);
        let workload = SearchWorkload::build(&data, &spec, 11);
        let training = TrainingSet::new(&workload.queries, &workload.train);
        let mut cfg = MlpConfig::default();
        cfg.train.epochs = 3;
        let artifact_a = dir.join("model_a.cardest");
        let artifact_b = dir.join("model_b.cardest");
        for (path, seed) in [(&artifact_a, 1u64), (&artifact_b, 2u64)] {
            let (model, _) = MlpEstimator::train(&data, spec.metric, &training, &cfg, seed);
            model.save_artifact(path).unwrap();
        }
        let query = match data.view(0) {
            cardest_data::vector::VectorView::Dense(row) => row.to_vec(),
            other => panic!("tiny spec is dense, got {other:?}"),
        };
        let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
            &data,
            spec.metric,
            0.05,
            11,
            "Sampling 5%",
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
                workers: 3,
                ..ServerConfig::default()
            },
            Arc::new(registry),
        )
        .unwrap();
        ServerFixture {
            dir,
            handle: Some(handle),
            artifact_a,
            artifact_b,
            query,
        }
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(self.handle.as_ref().unwrap().addr()).unwrap()
    }

    fn estimate_body(&self, tau: f32) -> String {
        let comps: Vec<String> = self.query.iter().map(|v| format!("{v}")).collect();
        format!("{{\"query\":[{}],\"tau\":{tau}}}", comps.join(","))
    }
}

impl Drop for ServerFixture {
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

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn smoke_battery_estimate_batch_errors_reload_stats() {
    let fx = ServerFixture::start("battery");
    let mut c = fx.client();

    // --- health ---
    let r = c.get("/health").unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(field(&v, "status"), &Value::Str("ok".to_string()));
    assert_eq!(as_u64(field(&v, "model_version")), 1);
    assert_eq!(field(&v, "kind"), &Value::Str("cardest.mlp".to_string()));

    // --- single estimate (coalesced path) ---
    let r = c.post_json("/estimate", &fx.estimate_body(0.3)).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    let est = as_f64(field(&v, "estimate"));
    assert!(est.is_finite() && (0.0..=300.0).contains(&est), "{est}");
    assert_eq!(as_u64(field(&v, "model_version")), 1);

    // --- batch estimate ---
    let entry = fx.estimate_body(0.3);
    let body = format!(
        "{{\"queries\":[{entry},{},{}]}}",
        fx.estimate_body(0.1),
        fx.estimate_body(0.5)
    );
    let r = c.post_json("/estimate_batch", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    let results = match field(&v, "results") {
        Value::Seq(s) => s.clone(),
        other => panic!("expected seq, got {other:?}"),
    };
    assert_eq!(results.len(), 3);
    let mut estimates: Vec<f64> = results
        .iter()
        .map(|e| as_f64(field(e, "estimate")))
        .collect();
    // τ 0.1 ≤ τ 0.3 ≤ τ 0.5 after the guard's monotone repair.
    estimates.swap(0, 1);
    assert!(
        estimates.windows(2).all(|w| w[0] <= w[1]),
        "monotone repair violated: {estimates:?}"
    );

    // --- malformed bodies → 400, never a dropped connection ---
    for bad in [
        "not json at all",
        "{\"tau\":0.3}",                    // missing query
        "{\"query\":[0.1]}",                // missing tau
        "{\"query\":\"nope\",\"tau\":0.3}", // wrong type
        "",                                 // empty body
    ] {
        let mut c_bad = fx.client();
        let r = c_bad.post_json("/estimate", bad).unwrap();
        assert_eq!(r.status, 400, "body {bad:?} → {}", r.text());
        assert!(r.text().contains("error"), "{}", r.text());
    }

    // 10,000 `[` is a parse error past the nesting limit, not a worker
    // stack overflow that aborts the whole server.
    let r = fx
        .client()
        .post_json("/estimate", &"[".repeat(10_000))
        .unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("nesting"), "{}", r.text());
    // A wrong-typed body of ~589 KB is named by kind and size in the
    // error, never echoed back.
    let items: Vec<String> = (0..100_000).map(|i| i.to_string()).collect();
    let huge = format!("[{}]", items.join(","));
    let r = fx.client().post_json("/estimate", &huge).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.body.len() < 1024, "{} byte error body", r.body.len());
    assert!(
        r.text().contains("a sequence of 100000 items"),
        "{}",
        r.text()
    );
    // `null` reads as NaN, which the guard rejects.
    let rest: Vec<String> = fx.query[1..].iter().map(|v| format!("{v}")).collect();
    let null_component = format!("{{\"query\":[null,{}],\"tau\":0.3}}", rest.join(","));
    let null_tau = fx.estimate_body(0.3).replace("\"tau\":0.3", "\"tau\":null");
    for (body, msg) in [
        (null_component, "non-finite component 0 (NaN)"),
        (null_tau, "non-finite threshold (NaN)"),
    ] {
        let r = fx.client().post_json("/estimate", &body).unwrap();
        assert_eq!(r.status, 400, "{}", r.text());
        assert!(r.text().contains(msg), "{}", r.text());
    }
    let r = c.get("/health").unwrap();
    assert_eq!(r.status, 200, "{}", r.text());

    // Invalid query semantics (negative τ) → 400 with the typed message.
    let mut c2 = fx.client();
    let r = c2.post_json("/estimate", &fx.estimate_body(-1.0)).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());

    // --- routing errors ---
    let r = c.get("/no/such/route").unwrap();
    assert_eq!(r.status, 404);
    let r = c.get("/estimate").unwrap();
    assert_eq!(r.status, 405, "GET on a POST route");

    // --- reload: healthy swap ---
    let body = format!("{{\"path\":\"{}\"}}", fx.artifact_b.display());
    let r = c.post_json("/admin/reload", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(as_u64(field(&v, "model_version")), 2);
    let r = c.get("/health").unwrap();
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(as_u64(field(&v, "model_version")), 2);

    // --- reload: corrupt artifact → 409, old model stays live ---
    let mut bytes = std::fs::read(&fx.artifact_a).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let corrupt = fx.dir.join("corrupt.cardest");
    std::fs::write(&corrupt, &bytes).unwrap();
    let body = format!("{{\"path\":\"{}\"}}", corrupt.display());
    let r = c.post_json("/admin/reload", &body).unwrap();
    assert_eq!(r.status, 409, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(field(&v, "reloaded"), &Value::Bool(false));
    assert!(as_f64(field(&v, "model_version")) == 2.0, "{}", r.text());
    let r = c.post_json("/estimate", &fx.estimate_body(0.3)).unwrap();
    assert_eq!(r.status, 200, "old model must keep serving: {}", r.text());

    // --- stats reflect everything above ---
    let r = c.get("/stats").unwrap();
    assert_eq!(r.status, 200);
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(as_u64(field(field(&v, "reloads"), "ok")), 1);
    assert_eq!(as_u64(field(field(&v, "reloads"), "rejected")), 1);
    assert!(as_u64(field(field(&v, "guard"), "served")) >= 5);
    assert!(as_u64(field(field(&v, "http"), "400")) >= 6);
    let est_route = field(field(&v, "routes"), "estimate");
    assert!(as_u64(field(est_route, "count")) >= 2);
    assert!(as_u64(field(est_route, "p99_us")) > 0);
}

#[test]
fn hot_reload_under_concurrent_http_load_fails_zero_requests() {
    let fx = ServerFixture::start("reload-load");
    let addr = fx.handle.as_ref().unwrap().addr();
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 60;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let body = fx.estimate_body(0.3);
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).unwrap();
                let mut ok = 0usize;
                for _ in 0..PER_CLIENT {
                    let r = c.post_json("/estimate", &body).unwrap();
                    assert_eq!(r.status, 200, "request failed mid-reload: {}", r.text());
                    ok += 1;
                }
                ok
            })
        })
        .collect();

    // Meanwhile: hammer reloads, alternating healthy artifacts with a
    // corrupt one that must be rejected without disturbing traffic.
    let mut bytes = std::fs::read(&fx.artifact_b).unwrap();
    let len = bytes.len();
    bytes[len - 3] ^= 0x02;
    let corrupt = fx.dir.join("corrupt.cardest");
    std::fs::write(&corrupt, &bytes).unwrap();
    let mut admin = fx.client();
    let mut swaps = 0u64;
    for i in 0..30 {
        let (path, want) = match i % 3 {
            0 => (&fx.artifact_b, 200),
            1 => (&fx.artifact_a, 200),
            _ => (&corrupt, 409),
        };
        let body = format!("{{\"path\":\"{}\"}}", path.display());
        let r = admin.post_json("/admin/reload", &body).unwrap();
        assert_eq!(r.status, want, "{}", r.text());
        if want == 200 {
            swaps += 1;
        }
    }

    let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, CLIENTS * PER_CLIENT, "a request was dropped");

    // The exactness guarantee, observed end-to-end over HTTP.
    let r = admin.get("/stats").unwrap();
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(
        as_u64(field(field(&v, "guard"), "served")),
        (CLIENTS * PER_CLIENT) as u64,
        "guard counters lost increments across {swaps} swaps"
    );
    assert_eq!(as_u64(field(field(&v, "reloads"), "ok")), swaps);
    assert_eq!(as_u64(field(field(&v, "reloads"), "rejected")), 10);
}

struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Starts `cardest-serve` on a tiny GloVe300 set (seed 42) with its model
/// and dataset caches under `dir`, and waits for its `LISTENING` line.
fn spawn_serve(dir: &Path) -> (KillOnDrop, std::net::SocketAddr) {
    let child = Command::new(env!("CARGO_BIN_EXE_cardest-serve"))
        .args([
            "--dataset",
            "GloVe300",
            "--port",
            "0",
            "--n-data",
            "400",
            "--train-queries",
            "12",
            "--train-epochs",
            "2",
            "--workers",
            "2",
            "--seed",
            "42",
        ])
        .args(["--model-dir".as_ref(), dir.join("models").as_os_str()])
        .args(["--cache-dir".as_ref(), dir.join("cache").as_os_str()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut child = KillOnDrop(child);

    // Startup trains a tiny model; give it a bounded wait via a watchdog
    // thread that reads stdout for the announcement line.
    let stdout = child.0.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for line in reader.lines().map_while(Result::ok) {
            if let Some(addr) = line.strip_prefix("LISTENING ") {
                let _ = tx.send(addr.to_string());
                return;
            }
        }
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("server never announced LISTENING")
        .parse()
        .unwrap();
    (child, addr)
}

/// A health check and one real estimate over the wire.
fn assert_serves(addr: std::net::SocketAddr) {
    let mut c = HttpClient::connect(addr).unwrap();
    let r = c.get("/health").unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"ok\""), "{}", r.text());

    let comps: Vec<String> = (0..64)
        .map(|i| format!("{}", (i % 7) as f32 * 0.1))
        .collect();
    let body = format!("{{\"query\":[{}],\"tau\":0.3}}", comps.join(","));
    let r = c.post_json("/estimate", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("estimate"), "{}", r.text());
}

#[test]
fn serve_binary_announces_listening_and_answers() {
    let dir = std::env::temp_dir().join(format!("cardest-serve-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (_child, addr) = spawn_serve(&dir);
    assert_serves(addr);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_binary_retrains_a_cached_model_it_cannot_load() {
    // A model directory written by an older container format: the cached
    // model is a version-1 file. The server must retrain and overwrite it,
    // not refuse to start.
    let dir = std::env::temp_dir().join(format!("cardest-serve-stale-{}", std::process::id()));
    let cached = dir.join("models").join("mlp_glove300_64d_400n_42.cardest");
    std::fs::create_dir_all(cached.parent().unwrap()).unwrap();
    let mut stale = cardest_nn::artifact::encode(MLP_ARTIFACT_KIND, b"{}");
    cardest_nn::faults::skew_version(&mut stale, 1);
    std::fs::write(&cached, &stale).unwrap();
    assert!(matches!(
        MlpEstimator::load_artifact(&cached),
        Err(ArtifactError::UnsupportedVersion { found: 1, .. })
    ));

    let (_child, addr) = spawn_serve(&dir);
    assert_serves(addr);
    // The retrained model replaced the stale file at the cached path.
    assert!(MlpEstimator::load_artifact(&cached).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
