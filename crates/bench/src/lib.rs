//! # cardest-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section (§6). Each experiment lives in
//! [`experiments`] and is callable both from the `exp` binary
//! (`cargo run -p cardest-bench --release --bin exp -- <id>`) and from the
//! Criterion benches.
//!
//! The per-experiment index (experiment id → workload → modules → bench
//! target) is maintained in `DESIGN.md`; measured-vs-paper numbers are
//! recorded in `EXPERIMENTS.md`.

pub mod context;
pub mod experiments;
pub mod methods;
pub mod report;

pub use context::{DatasetContext, Scale};
pub use report::Table;
