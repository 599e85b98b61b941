// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest — learned cardinality estimation for similarity queries
//!
//! A from-scratch Rust reproduction of *Learned Cardinality Estimation for
//! Similarity Queries* (Ji Sun, Guoliang Li, Nan Tang — SIGMOD 2021).
//!
//! Given a dataset `D` of vectors under a similarity metric, the library
//! estimates `card(q, τ, D)` — how many points lie within distance `τ` of
//! a query `q` — and `card(Q, τ, D)` for join query sets, using the
//! paper's query-segmentation CNNs and global-local model framework.
//!
//! ## Quickstart
//!
//! ```
//! use cardest::prelude::*;
//!
//! // A small synthetic dataset (64-bit hash codes under Hamming).
//! let spec = DatasetSpec {
//!     n_data: 600,
//!     n_train_queries: 40,
//!     n_test_queries: 10,
//!     ..PaperDataset::ImageNet.spec()
//! };
//! let data = spec.generate(7);
//! let workload = SearchWorkload::build(&data, &spec, 7);
//!
//! // Train a GL-CNN estimator (global-local framework, CNN embeddings).
//! let mut cfg = GlConfig::for_variant(GlVariant::GlCnn);
//! cfg.n_segments = 6;
//! cfg.local_train.epochs = 5;
//! cfg.global_train.epochs = 5;
//! let training = TrainingSet::new(&workload.queries, &workload.train);
//! let model =
//!     GlEstimator::train(&data, spec.metric, &training, &workload.table, &cfg);
//!
//! // Estimate the cardinality of a similarity search. Trained models are
//! // immutable at serving time (`&self`) and `Sync`.
//! let sample = &workload.test[0];
//! let estimate = model.estimate(workload.queries.view(sample.query), sample.tau);
//! assert!(estimate.is_finite() && estimate >= 0.0);
//!
//! // Batched estimation: one routing pass for the whole batch, then one
//! // vectorized pass per query that runs all its selected local models.
//! let batch: Vec<(VectorView<'_>, f32)> = workload
//!     .test
//!     .iter()
//!     .map(|s| (workload.queries.view(s.query), s.tau))
//!     .collect();
//! let estimates = model.estimate_batch(&batch);
//! assert_eq!(estimates.len(), workload.test.len());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`nn`] | minimal NN library: layers, losses, Adam, training loops |
//! | [`data`] | vectors, metrics, synthetic datasets, workloads, ground truth |
//! | [`cluster`] | PCA, k-means, DBSCAN, LSH, the segmentation pipeline |
//! | [`index`] | exact pivot-based metric index (SimSelect stand-in) |
//! | [`baselines`] | Sampling, Kernel-based, MLP, CardNet substitute, guarded serving |
//! | [`core`] | QES, the global-local family, joins, tuning, updates |

pub use cardest_baselines as baselines;
pub use cardest_cluster as cluster;
pub use cardest_core as core;
pub use cardest_data as data;
pub use cardest_index as index;
pub use cardest_nn as nn;

/// The most common imports in one place.
pub mod prelude {
    pub use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
    pub use cardest_baselines::{
        CardNet, CardNetConfig, GuardStats, GuardedEstimator, HistogramEstimator, KernelEstimator,
        MlpConfig, MlpEstimator, SamplingEstimator,
    };
    pub use cardest_cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
    pub use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
    pub use cardest_core::join::{JoinConfig, JoinEstimator, JoinVariant};
    pub use cardest_core::qes::{QesConfig, QesEstimator};
    pub use cardest_core::update::{UpdatableGl, UpdateConfig};
    pub use cardest_data::metric::Metric;
    pub use cardest_data::paper::{paper_datasets, DatasetSpec, PaperDataset};
    pub use cardest_data::validate::{CardestError, QueryGuard};
    pub use cardest_data::vector::{BinaryData, DenseData, VectorData, VectorView};
    pub use cardest_data::workload::{JoinSet, JoinWorkload, SearchSample, SearchWorkload};
    pub use cardest_index::PivotIndex;
    pub use cardest_nn::artifact::ArtifactError;
    pub use cardest_nn::metrics::{decode_log_card, mape, q_error, ErrorSummary};
    pub use cardest_nn::trainer::TrainConfig;
}
