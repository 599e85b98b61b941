//! Determinism tests for the parallel training pipeline: the segment fan
//! over local models and the sharded minibatch gradients must produce
//! bit-identical models for every thread count, and the join fine-tune
//! fan must leave the transferred model equally thread-count independent.

use cardest::prelude::*;
use cardest_nn::trainer::TrainConfig;

fn tiny(seed: u64) -> (DatasetSpec, VectorData, SearchWorkload) {
    let spec = DatasetSpec {
        n_data: 500,
        n_train_queries: 45,
        n_test_queries: 10,
        ..PaperDataset::ImageNet.spec()
    };
    let data = spec.generate(seed);
    let w = SearchWorkload::build(&data, &spec, seed);
    (spec, data, w)
}

fn gl_cfg(threads: usize) -> GlConfig {
    let mut cfg = GlConfig::for_variant(GlVariant::GlMlp);
    cfg.n_segments = 6;
    cfg.local_train = TrainConfig {
        epochs: 3,
        batch_size: 64,
        threads,
        ..Default::default()
    };
    cfg.global_train = TrainConfig {
        epochs: 3,
        batch_size: 64,
        threads,
        ..Default::default()
    };
    cfg
}

/// The GL training pipeline (segment-parallel locals + data-parallel
/// minibatch shards) yields bit-identical serialized models at 1, 2 and
/// 8 threads.
#[test]
fn gl_training_is_thread_count_independent() {
    let (spec, data, w) = tiny(901);
    let training = TrainingSet::new(&w.queries, &w.train);
    let reference = GlEstimator::train(&data, spec.metric, &training, &w.table, &gl_cfg(1))
        .to_json()
        .expect("serialize");
    for threads in [2usize, 8] {
        let got = GlEstimator::train(&data, spec.metric, &training, &w.table, &gl_cfg(threads))
            .to_json()
            .expect("serialize");
        assert!(
            got == reference,
            "GL training diverged at {threads} threads"
        );
    }
}

/// The join fine-tune fan (per-segment forward/backward jobs) leaves the
/// transferred model's estimates bit-identical for every thread count.
#[test]
fn join_finetune_is_thread_count_independent() {
    let (spec, data, w) = tiny(902);
    let j = JoinWorkload::build(&w, 20, 5, 902);
    let training = TrainingSet::new(&w.queries, &w.train);
    let base = GlEstimator::train(&data, spec.metric, &training, &w.table, &gl_cfg(1));

    let estimates = |threads: usize| -> Vec<f32> {
        let mut cfg = JoinConfig::for_variant(JoinVariant::GlJoin);
        cfg.base = gl_cfg(threads);
        let est =
            JoinEstimator::from_search_model(base.clone(), &w.queries, &j.train, &cfg).unwrap();
        j.test_buckets[0]
            .iter()
            .map(|s| est.estimate_join_batched(&w.queries, &s.query_ids, s.tau))
            .collect()
    };
    let reference = estimates(1);
    assert!(reference.iter().all(|e| e.is_finite()));
    for threads in [2usize, 8] {
        assert_eq!(
            estimates(threads),
            reference,
            "join fine-tune diverged at {threads} threads"
        );
    }
}
