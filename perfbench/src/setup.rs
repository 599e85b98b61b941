//! Set-up: the Table 4 harness's dataset and GL-CNN, saved as an
//! artifact, loaded back checksum-verified and served in-process at the
//! defaults `cardest-serve` ships.

use cardest_baselines::sampling::SamplingEstimator;
use cardest_baselines::traits::TrainingSet;
use cardest_bench::context::{DatasetContext, Scale};
use cardest_bench::methods::MethodConfigs;
use cardest_cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
use cardest_core::drift::DriftConfig;
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::labels::SegmentLabels;
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::paper::PaperDataset;
use cardest_server::model::repr_of;
use cardest_server::registry::SharedFallback;
use cardest_server::{
    IngestService, ModelRegistry, RegistryConfig, Server, ServerConfig, ServerHandle,
};
use cardest_store::{DurableIngest, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const DATASET: PaperDataset = PaperDataset::GloVe300;

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub generate_s: f64,
    pub label_s: f64,
    pub segment_s: f64,
    pub labels_s: f64,
    pub nn_train_s: f64,
    pub gl_train_s: f64,
    pub store_s: f64,
    pub artifact_s: f64,
    pub server_s: f64,
    /// Start of set-up until the first request can be sent.
    pub total_s: f64,
}

/// A trained model served by a running server.
pub struct Setup {
    pub ctx: DatasetContext,
    pub cfg: GlConfig,
    pub gl: GlEstimator,
    pub artifact: PathBuf,
    /// FNV-1a digest of the artifact file: equal across set-ups of one
    /// seed, because training is deterministic.
    pub artifact_digest: u64,
    pub handle: ServerHandle,
    pub stages: Stages,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The GL-CNN configuration of the Table 4 harness.
pub fn gl_config(scale: Scale, seed: u64) -> GlConfig {
    GlConfig {
        variant: GlVariant::GlCnn,
        ..MethodConfigs::for_scale(scale, seed).gl
    }
}

/// Runs one full set-up in `dir`. With `split`, training runs as the
/// three calls `GlEstimator::train` makes, each timed on its own; with
/// `store`, the server gets a durable store and accepts inserts.
pub fn run(scale: Scale, seed: u64, dir: &Path, split: bool, store: bool) -> Setup {
    std::fs::create_dir_all(dir).expect("create the set-up directory");
    let mut st = Stages::default();
    let start = Instant::now();

    let ctx = DatasetContext::build(DATASET, scale, seed);
    st.label_s = ctx.workload_time.as_secs_f64();
    st.generate_s = secs(start) - st.label_s;

    let cfg = gl_config(scale, seed);
    let metric = ctx.spec.metric;
    let training = TrainingSet::new(&ctx.search.queries, &ctx.search.train);
    let t = Instant::now();
    let gl = if split {
        // The same three steps, with the same segmentation settings, as
        // `GlEstimator::train`.
        let seg_cfg = SegmentationConfig {
            n_segments: cfg.n_segments,
            pca_rank: 8,
            pca_iters: 10,
            method: SegmentationMethod::PcaKMeans,
            seed: cfg.seed,
        };
        let segmentation = Segmentation::fit(&ctx.data, metric, &seg_cfg);
        st.segment_s = secs(t);
        let t = Instant::now();
        let labels = SegmentLabels::compute(&ctx.search.table, training.samples, &segmentation);
        st.labels_s = secs(t);
        let t = Instant::now();
        let gl = GlEstimator::train_with_segmentation(
            &ctx.data,
            metric,
            &training,
            segmentation,
            &labels,
            &cfg,
        );
        st.nn_train_s = secs(t);
        gl
    } else {
        GlEstimator::train(&ctx.data, metric, &training, &ctx.search.table, &cfg)
    };
    st.gl_train_s = secs(t);

    let durable = store.then(|| {
        let t = Instant::now();
        let upd = updatable(&ctx, &gl);
        let ingest = DurableIngest::create(&dir.join("store"), upd, StoreConfig::default())
            .expect("create the durable store");
        st.store_s = secs(t);
        ingest
    });

    let t = Instant::now();
    let artifact = dir.join("model.cardest");
    gl.save_artifact(&artifact).expect("save the GL artifact");
    let fallback: SharedFallback = Arc::new(SamplingEstimator::with_ratio(
        &ctx.data,
        metric,
        0.01,
        seed,
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
            &artifact,
        )
        .expect("load the GL artifact"),
    );
    st.artifact_s = secs(t);

    let t = Instant::now();
    let handle = match durable {
        Some(ingest) => {
            let svc = IngestService::new(ingest, DriftConfig::default(), artifact.clone());
            Server::start_with_ingest(ServerConfig::default(), registry, svc)
        }
        None => Server::start(ServerConfig::default(), registry),
    }
    .expect("start the server");
    st.server_s = secs(t);
    st.total_s = secs(start);

    let bytes = std::fs::read(&artifact).expect("read the artifact back");
    Setup {
        ctx,
        cfg,
        gl,
        artifact,
        artifact_digest: cardest_nn::artifact::fnv1a64(&bytes),
        handle,
        stages: st,
    }
}

/// The updatable estimator the store serves, over the set-up's data.
pub fn updatable(ctx: &DatasetContext, gl: &GlEstimator) -> UpdatableGl {
    UpdatableGl::new(
        ctx.data.clone(),
        ctx.spec.metric,
        gl.clone(),
        ctx.search.queries.clone(),
        ctx.search.train.clone(),
        ctx.search.test.clone(),
        &ctx.search.table,
        UpdateConfig::default(),
    )
}
