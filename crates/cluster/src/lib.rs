// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest-cluster
//!
//! Data segmentation for the `cardest` reproduction (§3.3 of the paper):
//! *"We use a simple and efficient segmentation method which uses Principal
//! Component Analysis (PCA) to reduce the dimensionality first and then
//! divide data by using batch K-means."*
//!
//! * [`pca`] — PCA via subspace iteration with implicit covariance
//!   products (never materializes the `d × d` covariance),
//! * [`kmeans`] — k-means++ seeding, Lloyd iterations and the mini-batch
//!   variant the paper calls "batch K-means",
//! * [`dbscan`] / [`lsh`] — the alternatives the paper compared against
//!   ("We have compared LSH, DBSCAN, and K-means; K-means with PCA shows
//!   the best on both accuracy and efficiency") — kept for the ablation
//!   bench,
//! * [`segmentation`] — the end-to-end pipeline producing the
//!   [`segmentation::Segmentation`] every global-local model is built on:
//!   per-segment membership, fractional full-space centroids, radii, and
//!   nearest-centroid routing for incremental updates (§5.3).

pub mod dbscan;
pub mod kmeans;
pub mod lsh;
pub mod pca;
pub mod segmentation;

pub use kmeans::KMeans;
pub use pca::Pca;
pub use segmentation::Segmentation;
