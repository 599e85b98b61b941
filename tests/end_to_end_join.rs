//! End-to-end integration tests for similarity-join estimation: workload
//! construction, model transfer, mask-based routing and sum pooling.

use cardest::prelude::*;
use cardest_nn::trainer::TrainConfig;

fn setup(seed: u64) -> (DatasetSpec, VectorData, SearchWorkload, JoinWorkload) {
    let spec = DatasetSpec {
        n_data: 650,
        n_train_queries: 55,
        n_test_queries: 20,
        ..PaperDataset::ImageNet.spec()
    };
    let data = spec.generate(seed);
    let w = SearchWorkload::build(&data, &spec, seed);
    let j = JoinWorkload::build(&w, 30, 6, seed);
    (spec, data, w, j)
}

fn fast_join(variant: JoinVariant) -> JoinConfig {
    let mut cfg = JoinConfig::for_variant(variant);
    cfg.base.n_segments = 6;
    cfg.base.local_train = TrainConfig {
        epochs: 8,
        batch_size: 64,
        ..Default::default()
    };
    cfg.base.global_train = TrainConfig {
        epochs: 10,
        batch_size: 64,
        ..Default::default()
    };
    cfg.base.tuning = cardest::core::tuning::TuningConfig::fast();
    cfg.base.tuning_segments = 1;
    cfg.qes.train = TrainConfig {
        epochs: 8,
        ..Default::default()
    };
    cfg
}

/// Batched (sum-pooled) join estimation beats always answering zero, for
/// every variant.
#[test]
#[ignore = "heavyweight: trains two full join estimators; run with `cargo test -- --ignored`"]
fn join_variants_beat_zero_baseline() {
    let (spec, data, w, j) = setup(301);
    let training = TrainingSet::new(&w.queries, &w.train);
    let zero_err = {
        let errs: Vec<f32> = j.test_buckets[0]
            .iter()
            .map(|s| q_error(0.0, s.card))
            .collect();
        ErrorSummary::from_errors(&errs).mean
    };
    for variant in [JoinVariant::GlJoin, JoinVariant::CnnJoin] {
        let est = JoinEstimator::train(
            &data,
            spec.metric,
            &training,
            &w.table,
            &j.train,
            &fast_join(variant),
        )
        .unwrap();
        let errs: Vec<f32> = j.test_buckets[0]
            .iter()
            .map(|s| {
                q_error(
                    est.estimate_join_batched(&w.queries, &s.query_ids, s.tau),
                    s.card,
                )
            })
            .collect();
        let err = ErrorSummary::from_errors(&errs).mean;
        assert!(
            err < zero_err,
            "{variant:?}: mean Q-error {err} vs zero baseline {zero_err}"
        );
    }
}

/// Transferring a trained search model into the join setting preserves
/// the model (no panic, finite outputs) and the estimator reports its
/// join-variant name.
#[test]
fn search_model_transfers_to_join_setting() {
    let (spec, data, w, j) = setup(302);
    let training = TrainingSet::new(&w.queries, &w.train);
    let mut gl_cfg = GlConfig::for_variant(GlVariant::GlCnn);
    gl_cfg.n_segments = 6;
    gl_cfg.local_train.epochs = 8;
    gl_cfg.global_train.epochs = 10;
    let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, &gl_cfg);
    let join = JoinEstimator::from_search_model(
        gl,
        &w.queries,
        &j.train,
        &fast_join(JoinVariant::GlJoinPlus),
    )
    .unwrap();
    assert_eq!(join.name(), "GLJoin+");
    for set in j.test_buckets.iter().flatten().take(6) {
        let e = join.estimate_join_batched(&w.queries, &set.query_ids, set.tau);
        assert!(e.is_finite() && e >= 0.0);
    }
    // An empty join set estimates zero pairs.
    assert_eq!(join.estimate_join_batched(&w.queries, &[], 0.2), 0.0);
}

/// The per-query fallback (`estimate_join` default on a search estimator)
/// equals the sum of its single-query estimates — the baseline semantics
/// the paper compares batch evaluation against.
#[test]
fn per_query_join_baseline_is_a_sum() {
    let (spec, data, w, _) = setup(304);
    let training = TrainingSet::new(&w.queries, &w.train);
    let (qes, _) = QesEstimator::train(
        &data,
        spec.metric,
        &training,
        &QesConfig {
            train: TrainConfig {
                epochs: 3,
                ..Default::default()
            },
            ..Default::default()
        },
        304,
    );
    let ids = [0usize, 3, 5];
    let tau = 0.2;
    let joint = qes.estimate_join(&w.queries, &ids, tau);
    let manual: f32 = ids
        .iter()
        .map(|&i| qes.estimate(w.queries.view(i), tau))
        .sum();
    assert!((joint - manual).abs() <= 1e-3 * manual.abs().max(1.0));
}
