//! End-to-end warm-standby battery over real sockets (ISSUE 8
//! tentpole, serving side): a primary HTTP server streaming its WAL to
//! a standby HTTP server, the standby rejecting writes with `503` +
//! `Retry-After` while serving reads, `/ready` flipping as it catches
//! up, fingerprints matching across nodes, and `POST /admin/promote`
//! turning the standby into a writable primary that continues the
//! sequence chain — no acknowledged-and-replicated insert lost.

use cardest_baselines::sampling::SamplingEstimator;
use cardest_baselines::traits::TrainingSet;
use cardest_core::backoff::BackoffConfig;
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
    IngestService, ModelRegistry, RegistryConfig, ReplicationState, Server, ServerConfig,
    ServerHandle, StandbyBridge,
};
use cardest_store::replicate::{
    ListenerConfig, ReplicaClient, ReplicaClientConfig, ReplicaSource, ReplicationListener,
    StandbyTarget,
};
use cardest_store::{DurableIngest, StoreConfig};
use serde::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_DATA: usize = 400;
const DIM: usize = 16;
const SEED: u64 = 77;

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

fn fast_client_cfg() -> ReplicaClientConfig {
    ReplicaClientConfig {
        connect_timeout: Duration::from_secs(1),
        read_timeout: Duration::from_millis(30),
        write_timeout: Duration::from_secs(1),
        backoff: BackoffConfig {
            base: Duration::from_millis(10),
            max: Duration::from_millis(150),
            jitter: 0.5,
            max_attempts: 0,
        },
        seed: 0x11F0,
        ack_every: 8,
    }
}

fn fast_listener_cfg() -> ListenerConfig {
    ListenerConfig {
        heartbeat_every: Duration::from_millis(100),
        batch_max: 32,
        ack_poll: Duration::from_millis(10),
        hello_deadline: Duration::from_secs(10),
    }
}

/// One HTTP node (primary or standby): trained estimator + durable
/// store + registry + server, all seed-deterministic so both nodes of a
/// pair start from bit-identical state.
struct Node {
    dir: PathBuf,
    handle: Option<ServerHandle>,
    svc: Arc<IngestService>,
    registry: Arc<ModelRegistry>,
    probe: Vec<f32>,
}

impl Node {
    fn build(tag: &str) -> (Self, Arc<ReplicationState>) {
        let dir =
            std::env::temp_dir().join(format!("cardest-httprepl-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec();
        let data = spec.generate(SEED);
        let w = SearchWorkload::build(&data, &spec, SEED);
        let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
            &data,
            spec.metric,
            0.05,
            SEED,
            "Sampling 5%",
        ));
        let cfg = GlConfig {
            variant: GlVariant::GlCnn,
            n_segments: 4,
            local_train: TrainConfig {
                epochs: 2,
                batch_size: 64,
                ..Default::default()
            },
            global_train: TrainConfig {
                epochs: 2,
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
        let probe = match upd.queries().view(0) {
            VectorView::Dense(row) => row.to_vec(),
            other => panic!("tiny spec is dense, got {other:?}"),
        };
        let artifact = dir.join("model.cardest");
        upd.gl().save_artifact(&artifact).unwrap();
        let store = DurableIngest::create(
            &dir.join("store"),
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
                check_every: 1 << 20, // this battery never wants a fine-tune
                ..Default::default()
            },
            artifact.clone(),
        );
        let registry = Arc::new(
            ModelRegistry::new(
                RegistryConfig {
                    n_data: N_DATA,
                    dim: DIM,
                    repr: QueryRepr::Dense,
                    monotone: true,
                },
                fallback,
                &artifact,
            )
            .unwrap(),
        );
        (
            Node {
                dir,
                handle: None,
                svc,
                registry,
                probe,
            },
            ReplicationState::primary(),
        )
    }

    fn serve(&mut self, repl: Arc<ReplicationState>) {
        let handle = Server::start_replicated(
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            Arc::clone(&self.registry),
            Arc::clone(&self.svc),
            repl,
        )
        .unwrap();
        self.handle = Some(handle);
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(self.handle.as_ref().unwrap().addr()).unwrap()
    }

    fn insert_body(&self) -> String {
        let comps: Vec<String> = self.probe.iter().map(|v| format!("{v}")).collect();
        format!("{{\"point\":[{}]}}", comps.join(","))
    }

    fn estimate_body(&self) -> String {
        let comps: Vec<String> = self.probe.iter().map(|v| format!("{v}")).collect();
        format!("{{\"query\":[{}],\"tau\":0.3}}", comps.join(","))
    }
}

impl Drop for Node {
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

/// Builds a connected primary/standby pair: the primary runs a
/// replication listener, the standby's client replays into its
/// `StandbyBridge`. Returns (primary, standby, standby_repl).
fn start_pair(tag: &str) -> (Node, ReplicationListener, Node, Arc<ReplicationState>) {
    let (mut primary, primary_repl) = Node::build(&format!("{tag}-p"));
    let source: Arc<dyn ReplicaSource> = Arc::clone(&primary.svc) as Arc<dyn ReplicaSource>;
    let listener = ReplicationListener::start("127.0.0.1:0", source, fast_listener_cfg()).unwrap();
    primary_repl.attach_listener_stats(listener.stats());
    primary.serve(Arc::clone(&primary_repl));

    let (mut standby, _) = Node::build(&format!("{tag}-s"));
    let standby_repl = ReplicationState::standby(Some(format!(
        "http://{}",
        primary.handle.as_ref().unwrap().addr()
    )));
    let bridge: Arc<dyn StandbyTarget> =
        StandbyBridge::new(Arc::clone(&standby.svc), Arc::clone(&standby.registry));
    let client = ReplicaClient::start(listener.addr().to_string(), bridge, fast_client_cfg());
    standby_repl.attach_client(client);
    standby.serve(Arc::clone(&standby_repl));
    (primary, listener, standby, standby_repl)
}

/// Polls `GET /ready` until it answers 200 or the deadline passes;
/// returns the last body.
fn await_ready(node: &Node, deadline: Duration) -> Value {
    let start = Instant::now();
    loop {
        let mut c = node.client();
        let r = c.get("/ready").unwrap();
        if r.status == 200 {
            return serde_json::from_str(&r.text()).unwrap();
        }
        assert!(
            start.elapsed() < deadline,
            "node not ready after {deadline:?}: {}",
            r.text()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Polls until the node's durable position reaches `target` — `/ready`
/// can legitimately answer 200 before the first streamed batch lands
/// (head unknown ⇒ lag 0), so catch-up is judged on the store itself.
fn await_seq(node: &Node, target: u64, deadline: Duration) {
    let start = Instant::now();
    loop {
        let (_, seq) = fingerprint_of(node);
        if seq >= target {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "node stuck at seq {seq} of {target} after {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Polls the primary's `/ready` until its standby has acknowledged
/// `target` — acks trail application by up to one ack window.
fn await_acked(primary: &Node, target: u64, deadline: Duration) -> Value {
    let start = Instant::now();
    loop {
        let ready = await_ready(primary, deadline);
        if as_u64(field(&ready, "standby_acked")) >= target {
            return ready;
        }
        assert!(
            start.elapsed() < deadline,
            "standby ack stuck below {target} after {deadline:?}: {ready:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn fingerprint_of(node: &Node) -> (u64, u64) {
    let mut c = node.client();
    let r = c.get("/admin/fingerprint").unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    (
        as_u64(field(&v, "fingerprint")),
        as_u64(field(&v, "last_seq")),
    )
}

#[test]
fn standby_rejects_writes_serves_reads_and_mirrors_the_primary() {
    let (primary, _listener, standby, _repl) = start_pair("mirror");

    // Liveness never depends on replication state: both nodes are
    // immediately healthy even while the standby is still syncing.
    for node in [&primary, &standby] {
        let mut c = node.client();
        let r = c.get("/health").unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
    }

    // Writes bounce off the standby with a redirect hint, before
    // touching the WAL.
    let mut sc = standby.client();
    let r = sc.post_json("/insert", &standby.insert_body()).unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    assert_eq!(r.header("retry-after"), Some("1"), "{:?}", r.headers);
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(field(&v, "role"), &Value::Str("standby".to_string()));
    match field(&v, "primary") {
        Value::Str(url) => assert!(url.starts_with("http://"), "{url}"),
        other => panic!("expected primary url, got {other:?}"),
    }

    // Feed the primary; the stream must carry every insert across.
    let mut pc = primary.client();
    const N: u64 = 40;
    for k in 1..=N {
        let r = pc.post_json("/insert", &primary.insert_body()).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let v: Value = serde_json::from_str(&r.text()).unwrap();
        assert_eq!(as_u64(field(&v, "seq")), k);
    }

    // The standby's readiness flips once it has drained the stream.
    await_seq(&standby, N, Duration::from_secs(30));
    let ready = await_ready(&standby, Duration::from_secs(10));
    assert_eq!(field(&ready, "role"), &Value::Str("standby".to_string()));
    assert_eq!(field(&ready, "ready"), &Value::Bool(true));
    assert_eq!(as_u64(field(&ready, "lag")), 0);
    assert_eq!(as_u64(field(&ready, "last_applied")), N);

    // Bit-identical state across the pair, via the runbook's endpoint.
    let (fp_p, seq_p) = fingerprint_of(&primary);
    let (fp_s, seq_s) = fingerprint_of(&standby);
    assert_eq!(seq_p, N);
    assert_eq!(seq_s, N);
    assert_eq!(fp_p, fp_s, "standby state diverged from primary");

    // Reads keep working on the standby against the replicated rows.
    let r = sc.post_json("/estimate", &standby.estimate_body()).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());

    // The primary's readiness reports its streaming position too (acks
    // trail application, so give them a moment to drain).
    let ready = await_acked(&primary, N, Duration::from_secs(10));
    assert_eq!(field(&ready, "role"), &Value::Str("primary".to_string()));

    // /stats exposes both sides of the stream.
    let v: Value = serde_json::from_str(&sc.get("/stats").unwrap().text()).unwrap();
    let repl = field(&v, "replication");
    assert_eq!(field(repl, "role"), &Value::Str("standby".to_string()));
    assert_eq!(field(repl, "connected"), &Value::Bool(true));
    assert!(as_u64(field(repl, "records_applied")) >= N);
    let v: Value = serde_json::from_str(&pc.get("/stats").unwrap().text()).unwrap();
    let repl = field(&v, "replication");
    assert_eq!(field(repl, "role"), &Value::Str("primary".to_string()));
    assert!(as_u64(field(repl, "records_sent")) >= N);
    assert_eq!(as_u64(field(repl, "standby_acked")), N);
}

#[test]
fn promote_turns_the_standby_writable_without_losing_acked_inserts() {
    let (primary, listener, standby, _repl) = start_pair("promote");

    // Promoting an actual primary is refused.
    let mut pc = primary.client();
    let r = pc.post_json("/admin/promote", "").unwrap();
    assert_eq!(r.status, 409, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(field(&v, "promoted"), &Value::Bool(false));

    // Acknowledge a batch of writes and let the standby replicate them.
    const N: u64 = 25;
    for _ in 0..N {
        let r = pc.post_json("/insert", &primary.insert_body()).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
    }
    await_seq(&standby, N, Duration::from_secs(30));
    let (fp_p, _) = fingerprint_of(&primary);
    let (fp_s, seq_s) = fingerprint_of(&standby);
    assert_eq!(fp_p, fp_s);
    assert_eq!(seq_s, N);

    // Kill the primary (server + replication listener): the standby
    // keeps serving reads while disconnected.
    drop(listener);
    let mut primary = primary;
    if let Some(h) = primary.handle.take() {
        h.shutdown();
    }
    let mut sc = standby.client();
    let r = sc.post_json("/estimate", &standby.estimate_body()).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());

    // Failover: promote flips the role in-process.
    let r = sc.post_json("/admin/promote", "").unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(field(&v, "promoted"), &Value::Bool(true));
    assert_eq!(field(&v, "role"), &Value::Str("primary".to_string()));
    assert_eq!(
        as_u64(field(&v, "last_seq")),
        N,
        "acked-and-replicated inserts lost across failover"
    );

    // Promote is one-shot.
    let r = sc.post_json("/admin/promote", "").unwrap();
    assert_eq!(r.status, 409, "{}", r.text());

    // The promoted node accepts writes, continuing the sequence chain
    // exactly where the old primary stopped.
    let r = sc.post_json("/insert", &standby.insert_body()).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let v: Value = serde_json::from_str(&r.text()).unwrap();
    assert_eq!(as_u64(field(&v, "seq")), N + 1);
    assert_eq!(as_u64(field(&v, "index")), N_DATA as u64 + N);

    // And reports ready as a primary.
    let ready = await_ready(&standby, Duration::from_secs(5));
    assert_eq!(field(&ready, "role"), &Value::Str("primary".to_string()));
    assert_eq!(as_u64(field(&ready, "last_seq")), N + 1);
}
