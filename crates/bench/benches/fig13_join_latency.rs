//! Criterion bench for Fig. 13: batch (sum-pooled) vs single-query join
//! estimation latency for a 200-member join set.

use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_bench::context::{DatasetContext, Scale};
use cardest_bench::methods::MethodConfigs;
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::join::{JoinConfig, JoinEstimator, JoinVariant};
use cardest_data::paper::PaperDataset;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let ctx = DatasetContext::build(PaperDataset::ImageNet, Scale::Smoke, 42);
    let jw = ctx.join_workload(Scale::Smoke);
    let cfgs = MethodConfigs::for_scale(Scale::Smoke, 42);
    let training = TrainingSet::new(&ctx.search.queries, &ctx.search.train);
    let tau = ctx.spec.tau_max * 0.3;

    // Train the GL base once; transfer a copy to the join model.
    let gl = GlEstimator::train(
        &ctx.data,
        ctx.spec.metric,
        &training,
        &ctx.search.table,
        &GlConfig {
            variant: GlVariant::GlMlp,
            ..cfgs.gl
        },
    );
    let jcfg = JoinConfig::for_variant(JoinVariant::GlJoin);
    let join_model =
        JoinEstimator::from_search_model(gl.clone(), &ctx.search.queries, &jw.train, &jcfg)
            .expect("join fine-tuning moves weights, never shapes");

    // A 200-member set from the test pool (with replacement).
    let n_train = ctx.search.n_train_queries;
    let pool = ctx.search.queries.len() - n_train;
    let ids: Vec<usize> = (0..200).map(|i| n_train + i % pool).collect();

    let mut group = c.benchmark_group("fig13_join_latency_200");
    group.sample_size(10);
    group.bench_function("GLJoin batch (sum-pooled)", |b| {
        b.iter(|| black_box(join_model.estimate_join(&ctx.search.queries, black_box(&ids), tau)))
    });
    group.bench_function("GL+ single (per-query)", |b| {
        b.iter(|| {
            // The search model's default join path: one estimate per member.
            black_box(gl.estimate_join(&ctx.search.queries, black_box(&ids), tau))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
