// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest-core
//!
//! The primary contribution of *Learned Cardinality Estimation for
//! Similarity Queries* (Sun, Li, Tang — SIGMOD 2021), reimplemented in
//! Rust on top of the workspace substrates:
//!
//! * [`arch`] — the shared model architecture (query/threshold/distance
//!   embedding branches and output heads of Figs. 2/3/5/7),
//! * [`qes`] — **QES**: the query-segmentation estimator of §3.2, a
//!   shared-weight CNN that learns per-segment distance distributions
//!   `f()` and their merge `g()`,
//! * [`global`] — the global discriminative model `G` of §3.3 with the
//!   cardinality-weighted loss ("penalty") and the learnable pre-sigmoid
//!   threshold of §5.1,
//! * [`gl`] — the global-local framework: **Local+**, **GL-MLP**,
//!   **GL-CNN** and **GL+** (per-segment local models, global selection,
//!   summed local estimates),
//! * [`tuning`] — Algorithm 3: greedy layer-wise hyperparameter search
//!   for the query-embedding CNN,
//! * [`join`] — similarity-join estimation (§4): **CNNJoin**, **GLJoin**,
//!   **GLJoin+**, with mask-based routing and sum-pooled query-set
//!   embeddings, transferred from search models and fine-tuned,
//! * [`update`] — incremental training for data updates (§5.3),
//! * [`drift`] — estimate-quality drift detection that decides when the
//!   online ingestion path should fine-tune (per-segment probe Q-error
//!   against a median-normalized baseline),
//! * [`backoff`] — the shared jittered-exponential-backoff policy every
//!   retry/reconnect loop (replication client, fine-tune worker) uses.
//!
//! Every estimator implements
//! [`cardest_baselines::traits::CardinalityEstimator`], so the bench
//! harness treats our models and the baselines uniformly.

pub mod arch;
pub mod backoff;
pub mod drift;
pub mod gl;
pub mod global;
pub mod join;
pub mod labels;
pub mod qes;
pub mod tuning;
pub mod update;

pub use arch::{ModelDims, QueryEmbed};
pub use backoff::{Backoff, BackoffConfig};
pub use drift::{DriftConfig, DriftMonitor, DriftVerdict};
pub use gl::{GlConfig, GlEstimator, GlVariant};
pub use global::{GlobalConfig, GlobalModel};
pub use join::{JoinConfig, JoinEstimator, JoinVariant};
pub use labels::SegmentLabels;
pub use qes::{QesConfig, QesEstimator};
pub use tuning::{tune_query_embedding, TuningConfig};
pub use update::UpdatableGl;
