// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest-data
//!
//! Data substrate for the `cardest` reproduction of *Learned Cardinality
//! Estimation for Similarity Queries* (SIGMOD 2021):
//!
//! * [`vector`] — dense (`f32`) and bit-packed binary vector storage,
//! * [`metric`] — the paper's distance functions (L1, L2, cosine, angular,
//!   Hamming, Jaccard) over dense, binary and mixed operands, with batched
//!   one-query-vs-many-rows entry points,
//! * [`kernels`] — the monomorphic slice/popcount reductions behind the
//!   metrics, shared with k-means, PCA and the NN feature builders,
//! * [`synth`] — synthetic generators standing in for the paper's six real
//!   datasets (the substitution table lives in `DESIGN.md`),
//! * [`paper`] — the six dataset specifications of Table 3, scaled for a
//!   single-core box,
//! * [`workload`] — query selection and threshold generation by selectivity
//!   (uniform for training, geometric for testing, §6 "Query Selection"),
//!   plus join-set construction,
//! * [`ground_truth`] — exact cardinality labelling, including the
//!   per-segment labels the global model trains on,
//! * [`validate`] — the serving-side input contract: the [`CardestError`]
//!   taxonomy and the [`QueryGuard`] checks behind `try_estimate`.

pub mod cache;
pub mod ground_truth;
pub mod kernels;
pub mod metric;
pub mod paper;
pub mod stats;
pub mod synth;
pub mod validate;
pub mod vector;
pub mod workload;

pub use ground_truth::{DistanceTable, GroundTruth};
pub use metric::Metric;
pub use paper::{paper_datasets, DatasetSpec, PaperDataset};
pub use stats::{Histogram, SelectivityStats, WorkloadReport};
pub use synth::Labeled;
pub use validate::{CardestError, QueryGuard};
pub use vector::{BinaryData, DenseData, VectorData, VectorView};
pub use workload::{JoinSet, JoinWorkload, SearchSample, SearchWorkload};
