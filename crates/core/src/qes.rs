//! **QES** — the query-segmentation estimator of §3.2 (Table 2 row 1).
//!
//! The basic model of Fig. 2 with the query branch replaced by the
//! shared-weight segmentation CNN of Fig. 3/7: the first conv layer (one
//! filter bank applied per query segment) learns the per-segment
//! distance-density function `f()`, deeper layers learn the merge function
//! `g()`, and a final dense layer emits the query embedding `z_q`. The
//! auxiliary feature is `x_D`, the distances from the query to `k`
//! retained data samples, and the head regresses `ln card` under the
//! hybrid loss of Algorithm 1. Only the net is QES's own: the samples,
//! training and batched inference are the sample-distance estimator it
//! shares with the MLP baseline ([`SampleDistanceEstimator`]).
//!
//! QES is trained on the whole dataset (no data segmentation); the
//! global-local variants in [`crate::gl`] reuse the same architecture per
//! data segment.

use crate::arch::{
    build_aux_branch, build_monotonic_head, build_query_branch, build_regressor,
    build_threshold_branch, ModelDims, QueryEmbed,
};
use cardest_baselines::sample_distance::{SampleDistanceConfig, SampleDistanceEstimator};
use cardest_nn::net::BranchNet;
use cardest_nn::trainer::TrainConfig;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// QES hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QesConfig {
    /// Number of query segments fed to the first CNN layer.
    pub n_query_segments: usize,
    /// Explicit CNN layout; `None` uses [`QueryEmbed::default_cnn`].
    pub cnn: Option<QueryEmbed>,
    /// Number of retained data samples backing `x_D`.
    pub k_samples: usize,
    pub dims: ModelDims,
    /// Constrain the full τ-path to positive weights, making the
    /// estimator provably monotone in τ (the paper constrains only `E2`;
    /// this extends the constraint through `F`, trading a little capacity
    /// for the guarantee — checked by property tests).
    pub strict_monotonic: bool,
    pub train: TrainConfig,
}

impl Default for QesConfig {
    fn default() -> Self {
        QesConfig {
            n_query_segments: 8,
            cnn: None,
            k_samples: 64,
            dims: ModelDims::default(),
            strict_monotonic: false,
            train: TrainConfig::default(),
        }
    }
}

impl SampleDistanceConfig for QesConfig {
    const NAME: &'static str = "QES";
    const SEED_SALT: u64 = 0x9E5;

    fn k_samples(&self) -> usize {
        self.k_samples
    }

    fn train_config(&self) -> &TrainConfig {
        &self.train
    }

    /// The segmentation-CNN regressor, or with `strict_monotonic` the same
    /// branches under the monotone head.
    fn build_net(&self, dim: usize, k: usize, rng: &mut StdRng) -> BranchNet {
        let embed = self
            .cnn
            .clone()
            .unwrap_or_else(|| QueryEmbed::default_cnn(dim, self.n_query_segments));
        let dims = &self.dims;
        if !self.strict_monotonic {
            return build_regressor(rng, dim, 1, k, &embed, dims);
        }
        let bq = build_query_branch(rng, dim, &embed, dims.embed_q);
        let bt = build_threshold_branch(rng, 1, dims.embed_t);
        let ba = build_aux_branch(rng, k, dims.embed_aux);
        let concat = dims.embed_q + dims.embed_t + dims.embed_aux;
        let head = build_monotonic_head(rng, concat, dims.hidden, (dims.embed_q, dims.embed_t));
        BranchNet::new(vec![bq, bt, ba], vec![dim, 1, k], head)
    }
}

/// The trained QES estimator: the shared sample-distance estimator over
/// the segmentation-CNN net.
pub type QesEstimator = SampleDistanceEstimator<QesConfig>;

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::vector::VectorData;
    use cardest_data::workload::SearchWorkload;
    use cardest_nn::metrics::ErrorSummary;

    fn tiny(dataset: PaperDataset, seed: u64) -> (VectorData, SearchWorkload, DatasetSpec) {
        let spec = DatasetSpec {
            n_data: 800,
            n_train_queries: 60,
            n_test_queries: 20,
            ..dataset.spec()
        };
        let data = spec.generate(seed);
        let w = SearchWorkload::build(&data, &spec, seed);
        (data, w, spec)
    }

    fn test_error(est: &QesEstimator, w: &SearchWorkload) -> f32 {
        let pairs: Vec<(f32, f32)> = w
            .test
            .iter()
            .map(|s| (est.estimate(w.queries.view(s.query), s.tau), s.card))
            .collect();
        ErrorSummary::from_q_errors(&pairs).mean
    }

    #[test]
    fn trains_on_binary_hamming_data() {
        let (data, w, spec) = tiny(PaperDataset::ImageNet, 81);
        let cfg = QesConfig {
            k_samples: 32,
            train: TrainConfig {
                epochs: 25,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (est, report) = QesEstimator::train(&data, spec.metric, &training, &cfg, 81);
        assert!(report.final_loss.is_finite());
        let err = test_error(&est, &w);
        assert!(err < 100.0, "QES mean Q-error {err} unreasonably large");
    }

    #[test]
    fn qes_model_is_small() {
        // The paper's Table 5 shows QES is by far the smallest learned
        // model (well under a megabyte at paper scale); at our scale it
        // must be a few tens of kilobytes.
        let (data, w, spec) = tiny(PaperDataset::ImageNet, 82);
        let cfg = QesConfig {
            k_samples: 16,
            train: TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (est, _) = QesEstimator::train(&data, spec.metric, &training, &cfg, 82);
        assert!(
            est.model_bytes() < 256 * 1024,
            "model is {} bytes",
            est.model_bytes()
        );
    }

    #[test]
    fn strict_monotonic_qes_is_monotone_in_tau() {
        let (data, w, spec) = tiny(PaperDataset::ImageNet, 84);
        let cfg = QesConfig {
            k_samples: 16,
            strict_monotonic: true,
            train: TrainConfig {
                epochs: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (est, _) = QesEstimator::train(&data, spec.metric, &training, &cfg, 84);
        for q in 0..5 {
            let mut prev = f32::NEG_INFINITY;
            for i in 0..=10 {
                let tau = spec.tau_max * i as f32 / 10.0;
                let e = est.estimate(w.queries.view(q), tau);
                assert!(
                    e >= prev - prev.abs() * 1e-5 - 1e-5,
                    "QES strict mode not monotone at q={q} τ={tau}: {e} < {prev}"
                );
                prev = e;
            }
        }
    }

    #[test]
    fn custom_cnn_layout_is_honored() {
        use cardest_nn::layers::{ConvSpec, PoolOp};
        let (data, w, spec) = tiny(PaperDataset::ImageNet, 83);
        let cfg = QesConfig {
            cnn: Some(QueryEmbed::Cnn {
                layers: vec![ConvSpec {
                    out_channels: 2,
                    kernel: 16,
                    stride: 16,
                    padding: 0,
                    pool_size: 1,
                    pool: PoolOp::Sum,
                }],
            }),
            k_samples: 8,
            train: TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (est, _) = QesEstimator::train(&data, spec.metric, &training, &cfg, 83);
        // Just exercise the forward path.
        let e = est.estimate(w.queries.view(0), 0.1);
        assert!(e.is_finite() && e >= 0.0);
    }
}
