// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest-nn
//!
//! A minimal, deterministic, CPU-only neural-network library built for the
//! `cardest` reproduction of *Learned Cardinality Estimation for Similarity
//! Queries* (SIGMOD 2021).
//!
//! The paper trains small multi-branch networks (MLP embeddings, a
//! shared-weight 1-D CNN for query segmentation, and a sigmoid classifier
//! head for the global model). This crate provides exactly those pieces and
//! nothing more:
//!
//! * [`tensor::Matrix`] — flat row-major `f32` matrices with the handful of
//!   BLAS-free kernels the models need, backed by the register-blocked,
//!   cache-tiled matmuls in [`gemm`],
//! * [`layers`] — `Dense` (optionally positivity-constrained for the
//!   monotone threshold path), `Conv1d` with built-in pooling (the query
//!   segmentation module of §3.2/Fig. 7), and `ShiftSigmoid` (the global
//!   model's learnable threshold before the sigmoid, §5.1),
//! * [`net`] — [`net::Sequential`] stacks and the multi-branch
//!   [`net::BranchNet`] (the E1/E2/E3 → F composition of Fig. 2),
//! * [`loss`] — the paper's hybrid MAPE + λ·Q-error regression loss
//!   (§3.1) and the cardinality-weighted BCE loss of the global model
//!   (§3.3),
//! * [`optim`] — Adam,
//! * [`metrics`] — Q-error / MAPE summaries used throughout the evaluation.
//!
//! Determinism: every random choice flows through a caller-provided seeded
//! RNG, and the data-parallel trainer reduces per-shard gradients in a
//! fixed order (see [`parallel`]), so training runs are bit-reproducible
//! for any thread count.
//!
//! ```
//! use cardest_nn::layers::{Dense, Layer};
//! use cardest_nn::net::{BranchNet, Sequential};
//! use cardest_nn::trainer::{train_branch_regression, TrainConfig};
//! use cardest_nn::{Activation, Matrix};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A two-branch regressor: F(E1(x) ⊕ E2(τ)) ≈ ln card.
//! let mut rng = StdRng::seed_from_u64(0);
//! let e1 = Sequential::new(vec![Layer::Dense(Dense::new(&mut rng, 2, 8, Activation::Relu))]);
//! let e2 = Sequential::new(vec![Layer::Dense(Dense::new_nonneg(&mut rng, 1, 4, Activation::Relu))]);
//! let f = Sequential::new(vec![
//!     Layer::Dense(Dense::new(&mut rng, 12, 8, Activation::Relu)),
//!     Layer::Dense(Dense::new(&mut rng, 8, 1, Activation::Identity)),
//! ]);
//! let mut net = BranchNet::new(vec![e1, e2], vec![2, 1], f);
//!
//! // Fit card = exp(x0 + τ) from 64 synthetic samples.
//! let xs: Vec<[f32; 2]> = (0..64).map(|i| [i as f32 / 64.0, 0.5]).collect();
//! let taus: Vec<f32> = (0..64).map(|i| (i % 8) as f32 / 8.0).collect();
//! let cards: Vec<f32> = xs.iter().zip(&taus).map(|(x, t)| (x[0] + t).exp()).collect();
//! let mut build = |idx: &[usize]| {
//!     let xq = Matrix::from_rows(&idx.iter().map(|&i| &xs[i][..]).collect::<Vec<_>>());
//!     let xt = Matrix::from_vec(idx.len(), 1, idx.iter().map(|&i| taus[i]).collect());
//!     (vec![xq, xt], idx.iter().map(|&i| cards[i]).collect())
//! };
//! let cfg = TrainConfig { epochs: 5, ..Default::default() };
//! let report = train_branch_regression(&mut net, 64, &mut build, &cfg);
//! assert!(report.final_loss.is_finite());
//! ```

pub mod activation;
pub mod artifact;
pub mod faults;
pub mod gemm;
pub mod init;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod net;
pub mod optim;
pub mod parallel;
pub mod scratch;
pub mod tensor;
pub mod trainer;

pub use activation::Activation;
pub use artifact::ArtifactError;
pub use layers::{Conv1d, Dense, Layer, PoolOp, WeightConstraint};
pub use loss::{hybrid_loss, weighted_bce_loss, HybridLoss};
pub use metrics::{decode_log_card, mape, q_error, ErrorSummary};
pub use net::{BranchNet, Sequential};
pub use optim::Adam;
pub use parallel::{
    fan_exclusive, parallel_largest_first, resolve_threads, set_train_threads, train_threads,
};
pub use scratch::Scratch;
pub use tensor::Matrix;
pub use trainer::{train_branch_regression, train_global_classifier, TrainConfig, TrainReport};
