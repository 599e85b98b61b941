// Mirror the library's no-panic discipline in the binary crate root.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

//! `cardest-serve` — stand up the estimation service on a synthetic
//! paper dataset.
//!
//! Startup: generate (or load from cache) the dataset, train a small MLP
//! estimator if no artifact exists yet (subsequent runs reuse it), build
//! the sampling fallback, and serve. `--port 0` binds an ephemeral port;
//! the chosen address is announced on stdout as `LISTENING <addr>` so
//! scripts (the smoke battery, the load generator) can find it.
//!
//! ```text
//! cardest-serve --dataset GloVe300 --port 8080
//! curl -s localhost:8080/health
//! ```

use cardest_baselines::mlp::{MlpConfig, MlpEstimator};
use cardest_baselines::sampling::SamplingEstimator;
use cardest_baselines::traits::TrainingSet;
use cardest_core::drift::DriftConfig;
use cardest_core::gl::{GlConfig, GlEstimator};
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::cache;
use cardest_data::paper::PaperDataset;
use cardest_data::workload::SearchWorkload;
use cardest_server::model::repr_of;
use cardest_server::{
    IngestService, ModelRegistry, RegistryConfig, ReplicationState, Server, ServerConfig,
    StandbyBridge,
};
use cardest_store::replicate::{
    ListenerConfig, ReplicaClient, ReplicaClientConfig, ReplicaSource, ReplicationListener,
    StandbyTarget,
};
use cardest_store::{DurableIngest, StoreConfig};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    dataset: PaperDataset,
    port: u16,
    workers: usize,
    seed: u64,
    n_data: Option<usize>,
    train_queries: Option<usize>,
    train_epochs: Option<usize>,
    model_dir: PathBuf,
    cache_dir: PathBuf,
    mutable: bool,
    store_dir: PathBuf,
    replication_listen: Option<String>,
    replicate_from: Option<String>,
    primary_url: Option<String>,
}

const USAGE: &str = "usage: cardest-serve [--dataset NAME] [--port P] [--workers N] \
[--seed S] [--n-data N] [--train-queries N] [--train-epochs N] \
[--model-dir DIR] [--cache-dir DIR] \
[--mutable] [--store-dir DIR] \
[--replication-listen ADDR] [--replicate-from ADDR] [--primary-url URL]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dataset: PaperDataset::GloVe300,
        port: 0,
        workers: 4,
        seed: 42,
        n_data: None,
        train_queries: None,
        train_epochs: None,
        model_dir: PathBuf::from(".cardest-serve/models"),
        cache_dir: PathBuf::from(".cardest-serve/cache"),
        mutable: false,
        store_dir: PathBuf::from(".cardest-serve/store"),
        replication_listen: None,
        replicate_from: None,
        primary_url: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--dataset" => {
                let v = value("--dataset")?;
                args.dataset =
                    PaperDataset::parse(&v).ok_or_else(|| format!("unknown dataset {v:?}"))?;
            }
            "--port" => args.port = parse_num(&value("--port")?, "--port")?,
            "--workers" => args.workers = parse_num(&value("--workers")?, "--workers")?,
            "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
            "--n-data" => args.n_data = Some(parse_num(&value("--n-data")?, "--n-data")?),
            "--train-queries" => {
                args.train_queries = Some(parse_num(&value("--train-queries")?, "--train-queries")?)
            }
            "--train-epochs" => {
                args.train_epochs = Some(parse_num(&value("--train-epochs")?, "--train-epochs")?)
            }
            "--model-dir" => args.model_dir = PathBuf::from(value("--model-dir")?),
            "--cache-dir" => args.cache_dir = PathBuf::from(value("--cache-dir")?),
            "--mutable" => args.mutable = true,
            "--store-dir" => args.store_dir = PathBuf::from(value("--store-dir")?),
            "--replication-listen" => {
                args.replication_listen = Some(value("--replication-listen")?);
                args.mutable = true; // streaming a WAL requires having one
            }
            "--replicate-from" => {
                args.replicate_from = Some(value("--replicate-from")?);
                args.mutable = true;
            }
            "--primary-url" => args.primary_url = Some(value("--primary-url")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: cannot parse {s:?} as a number"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut spec = args.dataset.spec();
    if let Some(n) = args.n_data {
        spec.n_data = n;
    }
    if let Some(q) = args.train_queries {
        spec.n_train_queries = q;
        spec.n_test_queries = (q / 4).max(1);
    }

    eprintln!(
        "cardest-serve: dataset {} ({}d, {} points, {:?}, tau_max {})",
        spec.dataset.name(),
        spec.dim,
        spec.n_data,
        spec.metric,
        spec.tau_max
    );
    let data = cache::load_or_generate(&args.cache_dir, &spec, args.seed);

    if args.mutable {
        return run_mutable(&args, spec, data);
    }

    // Train-once-then-reuse: the artifact is keyed like the dataset cache,
    // so restarts (and the reload smoke test) skip training.
    std::fs::create_dir_all(&args.model_dir)
        .map_err(|e| format!("create {}: {e}", args.model_dir.display()))?;
    let artifact = args.model_dir.join(format!(
        "mlp_{}_{}d_{}n_{}.cardest",
        spec.dataset.name().to_ascii_lowercase(),
        spec.dim,
        spec.n_data,
        args.seed
    ));
    if !artifact.exists() {
        eprintln!(
            "cardest-serve: no artifact at {}; training",
            artifact.display()
        );
        let workload = SearchWorkload::build(&data, &spec, args.seed);
        let training = TrainingSet::new(&workload.queries, &workload.train);
        let mut cfg = MlpConfig::default();
        if let Some(e) = args.train_epochs {
            cfg.train.epochs = e;
        }
        let (model, report) = MlpEstimator::train(&data, spec.metric, &training, &cfg, args.seed);
        eprintln!(
            "cardest-serve: trained {} epochs, final loss {:.4}",
            report.epochs_run, report.final_loss
        );
        model
            .save_artifact(&artifact)
            .map_err(|e| format!("save artifact: {e}"))?;
    }

    let fallback = Arc::new(SamplingEstimator::with_ratio(
        &data,
        spec.metric,
        0.01,
        args.seed,
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
        &artifact,
    )
    .map_err(|e| format!("load model: {e}"))?;

    let handle = Server::start(
        ServerConfig {
            addr: format!("127.0.0.1:{}", args.port),
            workers: args.workers,
            ..ServerConfig::default()
        },
        Arc::new(registry),
    )
    .map_err(|e| format!("bind server: {e}"))?;

    // The exact line the smoke battery and the load generator wait for.
    println!("LISTENING {}", handle.addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "cardest-serve: serving on {} with {} workers (ctrl-c to stop)",
        handle.addr(),
        args.workers
    );
    loop {
        std::thread::park();
    }
}

/// `--mutable`: serve a GL estimator behind the durable ingest layer —
/// `POST /insert` accepted, WAL + snapshots under `--store-dir`,
/// drift-triggered fine-tunes hot-swapped in the background. A restart
/// with the same `--store-dir` recovers (snapshot + WAL replay) instead
/// of retraining.
fn run_mutable(
    args: &Args,
    spec: cardest_data::paper::DatasetSpec,
    data: cardest_data::vector::VectorData,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.model_dir)
        .map_err(|e| format!("create {}: {e}", args.model_dir.display()))?;
    let artifact = args.model_dir.join(format!(
        "gl_{}_{}d_{}n_{}.cardest",
        spec.dataset.name().to_ascii_lowercase(),
        spec.dim,
        spec.n_data,
        args.seed
    ));

    let store_cfg = StoreConfig::default();
    let has_snapshot = args
        .store_dir
        .join(cardest_store::ingest::SNAPSHOT_FILE)
        .exists();
    let store = if has_snapshot {
        let (store, report) = DurableIngest::open(&args.store_dir, store_cfg)
            .map_err(|e| format!("recover store {}: {e}", args.store_dir.display()))?;
        eprintln!(
            "cardest-serve: recovered store (snapshot seq {}, {} replayed, {} skipped{})",
            report.snapshot_seq,
            report.replayed,
            report.skipped,
            match &report.wal.defect {
                Some(d) => format!(", torn tail truncated: {d}"),
                None => String::new(),
            }
        );
        store
    } else {
        eprintln!(
            "cardest-serve: no store at {}; training GL",
            args.store_dir.display()
        );
        let workload = SearchWorkload::build(&data, &spec, args.seed);
        let training = TrainingSet::new(&workload.queries, &workload.train);
        let mut cfg = GlConfig::default();
        if let Some(e) = args.train_epochs {
            cfg.local_train.epochs = e;
            cfg.global_train.epochs = e;
        }
        let gl = GlEstimator::train(&data, spec.metric, &training, &workload.table, &cfg);
        let upd = UpdatableGl::new(
            data,
            spec.metric,
            gl,
            workload.queries,
            workload.train,
            workload.test,
            &workload.table,
            UpdateConfig::default(),
        );
        DurableIngest::create(&args.store_dir, upd, store_cfg)
            .map_err(|e| format!("create store {}: {e}", args.store_dir.display()))?
    };

    // The registry must serve exactly the recovered weights, so the
    // artifact is (re)written from store state — fine-tunes overwrite the
    // same path, making tuned weights survive restarts too.
    store
        .estimator()
        .gl()
        .save_artifact(&artifact)
        .map_err(|e| format!("save artifact: {e}"))?;

    let n_data = store.estimator().data().len();
    let fallback = Arc::new(SamplingEstimator::with_ratio(
        store.estimator().data(),
        spec.metric,
        0.01,
        args.seed,
        "Sampling 1%",
    ));
    let registry = ModelRegistry::new(
        RegistryConfig {
            n_data,
            dim: spec.dim,
            repr: repr_of(store.estimator().data()),
            monotone: true,
        },
        fallback,
        &artifact,
    )
    .map_err(|e| format!("load model: {e}"))?;

    let registry = Arc::new(registry);
    let svc = IngestService::new(store, DriftConfig::default(), artifact);

    let repl = if args.replicate_from.is_some() {
        ReplicationState::standby(args.primary_url.clone())
    } else {
        ReplicationState::primary()
    };

    // Primary side: stream the WAL to any standby that connects.
    let _repl_listener = match &args.replication_listen {
        Some(listen) => {
            let source: Arc<dyn ReplicaSource> = Arc::clone(&svc) as Arc<dyn ReplicaSource>;
            let l = ReplicationListener::start(listen, source, ListenerConfig::default())
                .map_err(|e| format!("bind replication listener {listen}: {e}"))?;
            println!("REPLICATION {}", l.addr());
            let _ = std::io::stdout().flush();
            repl.attach_listener_stats(l.stats());
            Some(l)
        }
        None => None,
    };

    // Standby side: replay the primary's stream into this process.
    if let Some(from) = &args.replicate_from {
        let bridge: Arc<dyn StandbyTarget> =
            StandbyBridge::new(Arc::clone(&svc), Arc::clone(&registry));
        let client = ReplicaClient::start(from.clone(), bridge, ReplicaClientConfig::default());
        repl.attach_client(client);
        eprintln!("cardest-serve: standby replicating from {from}");
    }

    let handle = Server::start_replicated(
        ServerConfig {
            addr: format!("127.0.0.1:{}", args.port),
            workers: args.workers,
            ..ServerConfig::default()
        },
        registry,
        svc,
        repl,
    )
    .map_err(|e| format!("bind server: {e}"))?;

    println!("LISTENING {}", handle.addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "cardest-serve: mutable serving on {} ({} rows, store {})",
        handle.addr(),
        n_data,
        args.store_dir.display()
    );
    loop {
        std::thread::park();
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
