//! Fig. 15 / Exp-11: incremental training under data updates on GloVe300.
//!
//! The paper inserts 2K records in 200 operations of 10 records each and
//! shows that incremental fine-tuning keeps the Q-error flat. At our
//! scale the run inserts proportionally fewer records but follows the same
//! protocol: route to nearest cluster, patch labels, fine-tune the
//! affected local models and the global model.

use crate::context::{DatasetContext, Scale};
use crate::methods::MethodConfigs;
use crate::report::{fmt3, Table};
use cardest_baselines::traits::TrainingSet;
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::update::{UpdatableGl, UpdateConfig};
use cardest_data::paper::PaperDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub struct UpdateRun {
    /// Mean test Q-error before any update and after each checkpoint.
    pub checkpoints: Vec<(usize, f32)>,
}

pub fn run_updates(scale: Scale, seed: u64) -> UpdateRun {
    let ctx = DatasetContext::build(PaperDataset::GloVe300, scale, seed);
    let cfgs = MethodConfigs::for_scale(scale, seed);
    // GL-CNN keeps the run time reasonable; GL+ behaves identically under
    // updates (the update path never re-tunes hyperparameters).
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
    let mut upd = UpdatableGl::new(
        ctx.data.clone(),
        ctx.spec.metric,
        gl,
        ctx.search
            .queries
            .gather(&(0..ctx.search.queries.len()).collect::<Vec<_>>()),
        ctx.search.train.clone(),
        ctx.search.test.clone(),
        &ctx.search.table,
        UpdateConfig::default(),
    );

    let (ops, records_per_op, checkpoint_every) = match scale {
        Scale::Full => (30usize, 10usize, 5usize),
        Scale::Smoke => (6, 5, 2),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF15);
    let mut checkpoints = vec![(0usize, upd.mean_test_q_error())];
    let base_len = ctx.data.len();
    for op in 1..=ops {
        // New records resemble existing points with a small perturbation
        // (re-sampled dataset points; GloVe-like data is dense so copies
        // with new noise would need the generator — sampled points
        // exercise the same code path).
        let ids: Vec<usize> = (0..records_per_op)
            .map(|_| rng.gen_range(0..base_len))
            .collect();
        let points = upd_points(&upd, &ids);
        upd.insert(&points, true)
            .expect("fine-tuning moves weights, never shapes");
        if op % checkpoint_every == 0 {
            checkpoints.push((op, upd.mean_test_q_error()));
        }
    }
    UpdateRun { checkpoints }
}

fn upd_points(upd: &UpdatableGl, ids: &[usize]) -> cardest_data::vector::VectorData {
    // Access the evolving dataset through the updatable wrapper.
    updatable_data(upd).gather(ids)
}

fn updatable_data(upd: &UpdatableGl) -> &cardest_data::vector::VectorData {
    upd.data()
}

pub fn run(scale: Scale, seed: u64) -> Table {
    let run = run_updates(scale, seed);
    let mut t = Table::new(
        "Figure 15: Incremental Training under Updates (GloVe300)",
        &["Update op", "Mean test Q-error"],
    );
    for (op, err) in run.checkpoints {
        t.push_row(vec![op.to_string(), fmt3(err)]);
    }
    t
}
