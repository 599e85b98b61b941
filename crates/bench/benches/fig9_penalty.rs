//! Criterion bench for Fig. 9: global-model training with vs without the
//! cardinality penalty (the ablated code path of Exp-6), plus a one-shot
//! print of the resulting missing rates at smoke scale.

use cardest_baselines::traits::TrainingSet;
use cardest_bench::context::{DatasetContext, Scale};
use cardest_cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
use cardest_core::arch::QueryEmbed;
use cardest_core::gl::{build_feature_caches, SampleInputs};
use cardest_core::global::{missing_rate, GlobalConfig, GlobalModel};
use cardest_core::labels::SegmentLabels;
use cardest_data::paper::PaperDataset;
use cardest_nn::trainer::TrainConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let ctx = DatasetContext::build(PaperDataset::ImageNet, Scale::Smoke, 42);
    let seg = Segmentation::fit(
        &ctx.data,
        ctx.spec.metric,
        &SegmentationConfig {
            n_segments: 8,
            method: SegmentationMethod::PcaKMeans,
            seed: 42,
            ..Default::default()
        },
    );
    let labels = SegmentLabels::compute(&ctx.search.table, &ctx.search.train, &seg);
    let (xq, xc) = build_feature_caches(&ctx.search.queries, &seg);
    let inputs = SampleInputs::new(&ctx.search.train, &xq, &xc, &seg);
    let training = TrainingSet::new(&ctx.search.queries, &ctx.search.train);

    // One-shot missing rates.
    for penalty in [true, false] {
        let cfg = GlobalConfig {
            penalty,
            train: TrainConfig {
                epochs: 6,
                ..Default::default()
            },
            ..GlobalConfig::new(QueryEmbed::default_cnn(ctx.spec.dim, 8))
        };
        let (g, _) = GlobalModel::train(&inputs, &labels, &cfg, 42);
        let rate = missing_rate(&g, &training, &labels, &xq, &xc);
        eprintln!("[fig9/smoke/ImageNET] penalty={penalty}: missing rate {rate:.3}");
    }

    let mut group = c.benchmark_group("fig9_penalty");
    group.sample_size(10);
    for penalty in [true, false] {
        let name = if penalty {
            "train with penalty"
        } else {
            "train without penalty"
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = GlobalConfig {
                    penalty,
                    train: TrainConfig {
                        epochs: 2,
                        ..Default::default()
                    },
                    ..GlobalConfig::new(QueryEmbed::Mlp { hidden: 16 })
                };
                black_box(GlobalModel::train(&inputs, &labels, &cfg, 42))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
