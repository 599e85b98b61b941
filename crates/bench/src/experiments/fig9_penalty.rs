//! Fig. 9 / Exp-6: the missing rate of the global model, trained with vs
//! without the cardinality penalty in the loss.

use crate::context::{DatasetContext, Scale};
use crate::report::{fmt3, Table};
use cardest_baselines::traits::TrainingSet;
use cardest_cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
use cardest_core::arch::QueryEmbed;
use cardest_core::gl::{build_feature_caches, SampleInputs};
use cardest_core::global::{missing_rate, GlobalConfig, GlobalModel};
use cardest_core::labels::SegmentLabels;
use cardest_data::paper::PaperDataset;
use cardest_nn::trainer::TrainConfig;

/// Missing rate with and without the penalty on one dataset.
pub struct PenaltyResult {
    pub dataset: PaperDataset,
    pub with_penalty: f32,
    pub without_penalty: f32,
}

pub fn run_dataset(ctx: &DatasetContext, scale: Scale) -> PenaltyResult {
    let seg = Segmentation::fit(
        &ctx.data,
        ctx.spec.metric,
        &SegmentationConfig {
            n_segments: 16,
            pca_rank: 8,
            pca_iters: 10,
            method: SegmentationMethod::PcaKMeans,
            seed: ctx.seed,
        },
    );
    let train_labels = SegmentLabels::compute(&ctx.search.table, &ctx.search.train, &seg);
    let test_labels = SegmentLabels::compute(&ctx.search.table, &ctx.search.test, &seg);
    let (xq, xc) = build_feature_caches(&ctx.search.queries, &seg);
    let inputs = SampleInputs::new(&ctx.search.train, &xq, &xc, &seg);
    let testing = TrainingSet::new(&ctx.search.queries, &ctx.search.test);

    let epochs = match scale {
        Scale::Full => 25,
        Scale::Smoke => 8,
    };
    let rate_for = |penalty: bool| {
        let cfg = GlobalConfig {
            penalty,
            train: TrainConfig {
                epochs,
                batch_size: 128,
                seed: ctx.seed,
                ..Default::default()
            },
            ..GlobalConfig::new(QueryEmbed::default_cnn(ctx.spec.dim, 8))
        };
        let (g, _) = GlobalModel::train(&inputs, &train_labels, &cfg, ctx.seed);
        missing_rate(&g, &testing, &test_labels, &xq, &xc)
    };
    PenaltyResult {
        dataset: ctx.dataset,
        with_penalty: rate_for(true),
        without_penalty: rate_for(false),
    }
}

pub fn run(datasets: &[PaperDataset], scale: Scale, seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 9: Missing Rate of Global Model (test queries)",
        &["Dataset", "With Penalty", "No Penalty"],
    );
    for &d in datasets {
        eprintln!("[fig9] {} ...", d.name());
        let ctx = DatasetContext::build(d, scale, seed);
        let r = run_dataset(&ctx, scale);
        t.push_row(vec![
            r.dataset.name().to_string(),
            fmt3(r.with_penalty),
            fmt3(r.without_penalty),
        ]);
    }
    t
}
