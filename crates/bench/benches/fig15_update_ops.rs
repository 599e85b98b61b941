//! Criterion bench for Fig. 15's underlying operation: one incremental
//! update step (insert 10 records, patch labels, fine-tune the affected
//! locals and the global model) — the cost the paper compares against a
//! multi-hour full retrain in Exp-11.

use cardest_baselines::traits::TrainingSet;
use cardest_bench::context::{DatasetContext, Scale};
use cardest_bench::methods::MethodConfigs;
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::paper::PaperDataset;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let ctx = DatasetContext::build(PaperDataset::GloVe300, Scale::Smoke, 42);
    let cfgs = MethodConfigs::for_scale(Scale::Smoke, 42);
    let cfg = GlConfig {
        variant: GlVariant::GlCnn,
        ..cfgs.gl
    };
    let training = TrainingSet::new(&ctx.search.queries, &ctx.search.train);
    let gl = GlEstimator::train(
        &ctx.data,
        ctx.spec.metric,
        &training,
        &ctx.search.table,
        &cfg,
    );
    let all: Vec<usize> = (0..ctx.search.queries.len()).collect();
    let mut live = UpdatableGl::new(
        ctx.data.clone(),
        ctx.spec.metric,
        gl,
        ctx.search.queries.gather(&all),
        ctx.search.train.clone(),
        ctx.search.test.clone(),
        &ctx.search.table,
        UpdateConfig::default(),
    );

    let mut group = c.benchmark_group("fig15_update_ops");
    group.sample_size(10);
    let mut cursor = 0usize;
    group.bench_function("insert 10 records + incremental finetune", |b| {
        b.iter(|| {
            let ids: Vec<usize> = (0..10)
                .map(|k| (cursor + k * 13) % ctx.data.len())
                .collect();
            cursor += 7;
            let pts = live.data().gather(&ids);
            black_box(
                live.insert(&pts, true)
                    .expect("fine-tuning moves weights, never shapes"),
            )
        })
    });
    group.bench_function("insert 10 records, labels only", |b| {
        b.iter(|| {
            let ids: Vec<usize> = (0..10)
                .map(|k| (cursor + k * 13) % ctx.data.len())
                .collect();
            cursor += 7;
            let pts = live.data().gather(&ids);
            black_box(
                live.insert(&pts, false)
                    .expect("fine-tuning moves weights, never shapes"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
