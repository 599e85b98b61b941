// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest-baselines
//!
//! The competitor estimators of Table 2 (rows 6–9), plus the estimator
//! trait every method in the workspace implements:
//!
//! * [`traits::CardinalityEstimator`] — the common interface: point
//!   estimates, join estimates (default: sum of point estimates), and the
//!   model-size accounting behind Table 5,
//! * [`sampling`] — Sampling(1%), Sampling(10%) and Sampling(equal), which
//!   counts matches on a random sample and scales by the sampling ratio,
//! * [`kernel`] — the kernel-based method of Mattig et al. (EDBT 2018) as
//!   described in §6: a Gaussian kernel per sample, cardinality as the sum
//!   of cumulative densities at τ,
//! * [`sample_distance`] — the basic DL model of §3.1 over `k` retained
//!   data samples, one estimator for every net built on it (the MLP here,
//!   QES in `cardest-core`),
//! * [`mlp`] — its MLP embeddings for `x_q`/`x_τ`/`x_D` (Table 2's "MLP"),
//! * [`cardnet`] — a substitute for CardNet (SIGMOD 2020 [53]): VAE-style
//!   query embedding plus a monotone per-threshold-bucket decomposition,
//! * [`guarded`] — the serving wrapper: input validation, `[0, |D|]`
//!   clamping, optional monotone-in-τ repair, and graceful degradation to
//!   a cheap fallback with counters.

pub mod cardnet;
pub mod guarded;
pub mod histogram;
pub mod kernel;
pub mod mlp;
pub mod sample_distance;
pub mod sampling;
pub mod traits;

pub use cardnet::{CardNet, CardNetConfig};
pub use guarded::{FallbackReasons, GuardStats, GuardedEstimator};
pub use histogram::HistogramEstimator;
pub use kernel::KernelEstimator;
pub use mlp::{MlpConfig, MlpEstimator};
pub use sampling::SamplingEstimator;
pub use traits::{CardinalityEstimator, TrainingSet};
