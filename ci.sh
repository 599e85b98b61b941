#!/usr/bin/env sh
# Repository CI gate: formatting, invariant lints, clippy, and the full
# test suite. Usage: ./ci.sh  (add CARGO_FLAGS=--offline for air-gapped
# machines)
#
# Lanes, in order:
#   fmt          rustfmt as a pure check;
#   cardest-lint the workspace invariant checker (crates/lint) for what
#                rustc and clippy cannot check: the lexical rules
#                (Instant / hash-order determinism, decode clamping, float
#                equality against literals) plus the semantic call-graph
#                pass (panic reachability from serving entry points, lock
#                discipline, durability protocol, error taxonomy).
#                Machine-readable JSON on stdout and in LINT_REPORT.json;
#                diagnostics accepted in crates/lint/baseline.txt are
#                subtracted, so the lane is non-zero only on *new*
#                non-allowed findings. Runs before everything heavy because
#                it needs only the zero-dependency lint crate;
#   clippy       -D warnings over every target. It owns the invariants with
#                full name resolution: the workspace `[lints]` table forbids
#                unsafe code, crate roots warn on unwrap/expect/panic-family
#                macros, the kernel files warn on `as` casts, and
#                clippy.toml disallows partial_cmp, SystemTime::now and
#                std::thread::available_parallelism;
#   bench-build  benches must keep compiling (perf regression harness),
#                but running them is not a CI concern;
#   perfbench    `cargo check` of the serving benchmark. perfbench/ is a
#                cargo package of its own, outside the workspace, so no
#                other lane compiles it, yet it compiles against workspace
#                names that a simplification would otherwise delete:
#                - its in-process twins call `DriftMonitor::new`,
#                  `estimator_mut().apply_insert`, `snapshot_json`,
#                  `write_snapshot`, `SegmentedWal::open(dir, sync,
#                  rotate_bytes)` and `GlobalModel::probabilities_batch`;
#                - its set-up and run record read `StoreConfig`'s four
#                  fields (`snapshot_every`, `sync_writes`, `retain_wal`,
#                  `rotate_bytes`), `CoalesceConfig::window`,
#                  `RegistryConfig`'s fields, `Segmentation::assignment`,
#                  `cardest_bench::methods::MethodConfigs::for_scale(..).gl`
#                  (the served GL-CNN's config; `methods.rs` also holds the
#                  QES and MLP configs), and pass `IngestService::new` its
#                  artifact path;
#                - its set-up saves the served model with
#                  `GlEstimator::save_artifact` and records the file's
#                  `artifact_digest` with `cardest_nn::artifact::fnv1a64`;
#                - its set-up trains through `Segmentation::fit`,
#                  `SegmentLabels::compute` and
#                  `GlEstimator::train_with_segmentation(data, metric,
#                  training, segmentation, labels, cfg)`, whose `Metric`
#                  argument is unused but stays;
#                - its twins and workload read
#                  `GlEstimator::{estimate_batch_with_stats, segmentation,
#                  global, tau_scale, n_segments}`,
#                  `Segmentation::centroid_distances_into` and
#                  `GlobalModel::sigma`.
#                perfbench changes only together with the benchmark
#                contract, so a change to any of these waits for such a
#                change instead of failing here. `--locked` holds it to
#                perfbench's own Cargo.lock; it builds into the git-ignored
#                perfbench/target;
#   test         `cargo test --workspace`: every suite, including the
#                fault-injection, server smoke, ingestion, crash-matrix and
#                replication batteries (each wait in them is
#                deadline-bounded, so a wedged server or stream fails rather
#                than hangs), cardest-lint's fixture self-tests and the
#                workspace meta-gate (so the lint gate also fires for
#                contributors who only run `cargo test`);
#   heavy        the `--ignored` lane — heavyweight configurations
#                (multi-variant / multi-dataset trainings) that pin broader
#                behavior but cost minutes.
#
# A per-lane wall-clock summary is printed at the end (also on failure, so
# slow lanes stay visible even when a later lane breaks).
set -eu

SUMMARY=""
CURRENT_LANE="(startup)"

print_summary() {
    status=$?
    printf '\n== ci.sh lane timing ==\n'
    printf '%b' "$SUMMARY"
    if [ "$status" -ne 0 ]; then
        printf '%-14s FAILED (exit %s)\n' "$CURRENT_LANE" "$status"
    fi
    exit "$status"
}
trap print_summary EXIT

lane() {
    CURRENT_LANE="$1"
    shift
    printf '== lane: %s ==\n' "$CURRENT_LANE"
    lane_start=$(date +%s)
    "$@"
    lane_end=$(date +%s)
    SUMMARY="${SUMMARY}$(printf '%-14s %4ss' "$CURRENT_LANE" "$((lane_end - lane_start))")\n"
    CURRENT_LANE="(done)"
}

lane fmt          cargo fmt --all --check
lane cardest-lint cargo run -p cardest-lint ${CARGO_FLAGS:-} -- --format=json \
                      --baseline=crates/lint/baseline.txt --report=LINT_REPORT.json crates
lane clippy       cargo clippy --workspace --all-targets ${CARGO_FLAGS:-} -- -D warnings
lane bench-build  cargo bench --workspace ${CARGO_FLAGS:-} --no-run
lane perfbench    cargo check --manifest-path perfbench/Cargo.toml --locked ${CARGO_FLAGS:-}
lane test         cargo test --workspace ${CARGO_FLAGS:-} -q
lane heavy        cargo test --workspace ${CARGO_FLAGS:-} -q -- --ignored
