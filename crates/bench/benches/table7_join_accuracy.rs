//! Criterion bench for Table 7: join-set evaluation of the global-local
//! join model at smoke scale, printing the miniature Q-error rows once.

use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_bench::context::{DatasetContext, Scale};
use cardest_bench::methods::MethodConfigs;
use cardest_core::gl::{GlConfig, GlVariant};
use cardest_core::join::{JoinConfig, JoinEstimator, JoinVariant};
use cardest_data::paper::PaperDataset;
use cardest_nn::metrics::ErrorSummary;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let ctx = DatasetContext::build(PaperDataset::ImageNet, Scale::Smoke, 42);
    let jw = ctx.join_workload(Scale::Smoke);
    let cfgs = MethodConfigs::for_scale(Scale::Smoke, 42);
    let training = TrainingSet::new(&ctx.search.queries, &ctx.search.train);

    let mut jcfg = JoinConfig::for_variant(JoinVariant::GlJoin);
    jcfg.base = GlConfig {
        variant: GlVariant::GlMlp,
        ..cfgs.gl
    };
    let est = JoinEstimator::train(
        &ctx.data,
        ctx.spec.metric,
        &training,
        &ctx.search.table,
        &jw.train,
        &jcfg,
    )
    .expect("join fine-tuning moves weights, never shapes");

    // Print the miniature Table 7 row once.
    let pairs: Vec<(f32, f32)> = jw.test_buckets[0]
        .iter()
        .map(|s| {
            (
                est.estimate_join(&ctx.search.queries, &s.query_ids, s.tau),
                s.card,
            )
        })
        .collect();
    let q = ErrorSummary::from_q_errors(&pairs);
    eprintln!(
        "[table7/smoke/ImageNET] GLJoin mean={:.2} median={:.2} max={:.1}",
        q.mean, q.median, q.max
    );

    let set = &jw.test_buckets[0][0];
    let mut group = c.benchmark_group("table7_join_accuracy");
    group.sample_size(20);
    group.bench_function("GLJoin estimate_join", |b| {
        b.iter(|| {
            black_box(est.estimate_join(
                &ctx.search.queries,
                black_box(&set.query_ids),
                black_box(set.tau),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
