//! Criterion bench for the batched inference path: `estimate_batch` vs
//! calling `estimate` once per query, on the batch-capable estimators
//! (GL-CNN, MLP, CardNet). A GL batch routes every query with one global
//! forward and builds the model inputs once, and each local it selected
//! runs once per 16 of the queries that selected it, as query lanes of
//! `cardest_nn::lanes`. One at a time, each query runs its locals in
//! 1-wide passes or one 16-local pass. The GL-CNN's gain from batching
//! comes from routing, input assembly and the locals' shared weight
//! loads.
//!
//! Uses the smoke scale so `cargo bench` stays quick.

use cardest_bench::context::{DatasetContext, Scale};
use cardest_bench::methods::{train_method, Method};
use cardest_data::paper::PaperDataset;
use cardest_data::vector::VectorView;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const BATCH: usize = 256;

fn bench(c: &mut Criterion) {
    let ctx = DatasetContext::build(PaperDataset::ImageNet, Scale::Smoke, 43);
    let n_queries = ctx.search.queries.len();
    let queries: Vec<(VectorView<'_>, f32)> = (0..BATCH)
        .map(|i| {
            (
                ctx.search.queries.view(i % n_queries),
                ctx.spec.tau_max * (0.1 + 0.8 * (i as f32 / BATCH as f32)),
            )
        })
        .collect();

    let mut group = c.benchmark_group("batch_inference");
    group.sample_size(20);
    group.throughput(Throughput::Elements(BATCH as u64));

    for method in [Method::GlCnn, Method::Mlp, Method::CardNet] {
        let trained = train_method(&ctx, method, Scale::Smoke);
        let est = trained.estimator.as_ref();
        group.bench_function(format!("{}/batched", method.name()), |b| {
            b.iter(|| black_box(est.estimate_batch(black_box(&queries))))
        });
        group.bench_function(format!("{}/one-at-a-time", method.name()), |b| {
            b.iter(|| {
                let out: Vec<f32> = queries
                    .iter()
                    .map(|&(q, tau)| est.estimate(black_box(q), black_box(tau)))
                    .collect();
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
