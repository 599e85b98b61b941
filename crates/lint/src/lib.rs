// The linter keeps the workspace rules it checks: no panics in library
// paths, no nondeterminism (BTree containers only, no clocks).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest-lint
//!
//! A zero-dependency invariant checker for the `cardest` workspace. It
//! checks only what rustc and clippy cannot; the workspace `[lints]`
//! table (`unsafe_code = "forbid"`), the crate roots' panic lints
//! (`clippy::unwrap_used` and friends), `clippy::as_conversions` in the
//! kernel files and `clippy.toml`'s disallowed methods cover the rest.
//! What remains here:
//!
//! 1. **Determinism** — training is bit-identical for any
//!    `--train-threads` value; no `Instant::now` or hash-ordered
//!    iteration in library crates.
//! 2. **Numerics** — every log-cardinality decode is clamped through
//!    `decode_log_card`; float equality against a literal is justified.
//! 3. **Cross-function contracts** — nothing reachable from a serving
//!    entry point panics, lock order is consistent, the store syncs
//!    before it acks, and serving paths return typed errors.
//!
//! It is deliberately dependency-free (the workspace builds offline;
//! `syn` is unavailable): a hand-rolled [`lexer`] separates code tokens
//! from comments, strings, and char literals, the [`rules`] registry
//! walks the token stream, and [`engine`] applies
//! `// cardest-lint: allow(<rule>): <reason>` pragmas (see [`pragma`])
//! before reporting `file:line` diagnostics, in text or `--format=json`.
//!
//! The cross-function rules are *semantic*: an item-level [`parser`]
//! recovers functions, impl blocks, and `use` trees; [`callgraph`] links
//! them into a workspace call graph with heuristic name resolution; and
//! [`semrules`] checks panic reachability from serving entry points,
//! lock discipline, the store's durability protocol, and error taxonomy
//! on top. Semantic findings are gated through a checked-in [`baseline`]
//! so the CI gate only fails on *new* diagnostics.
//!
//! See `DESIGN.md` §10 for which checker enforces each invariant and §14
//! for the semantic analysis.

pub mod baseline;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod rules;
pub mod semrules;

pub use engine::{
    collect_rs_files, lint_paths, lint_paths_semantic, lint_source, lint_sources_semantic, to_json,
    Report,
};
pub use rules::{registry, Diagnostic};
