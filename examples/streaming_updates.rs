//! Keeping a deployed estimator fresh under a stream of inserts (§5.3).
//!
//! Scenario: a word-embedding catalogue (GloVe stand-in) grows over time.
//! Retraining the estimator from scratch takes minutes-to-hours at paper
//! scale, while the paper's incremental path — route the new points to
//! their nearest data segment, patch the cached labels, fine-tune only the
//! affected local models plus the global model — takes seconds and keeps
//! the Q-error flat (Exp-11 / Fig. 15).
//!
//! ```sh
//! cargo run --release -p cardest --example streaming_updates
//! ```

use cardest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let spec = DatasetSpec {
        n_data: 4000,
        n_train_queries: 160,
        n_test_queries: 40,
        ..PaperDataset::GloVe300.spec()
    };
    let data = spec.generate(23);
    let workload = SearchWorkload::build(&data, &spec, 23);

    let mut cfg = GlConfig::for_variant(GlVariant::GlCnn);
    cfg.n_segments = 8;
    cfg.local_train.epochs = 30;
    cfg.local_train.learning_rate = 2e-3;
    cfg.global_train.epochs = 25;
    cfg.global_train.learning_rate = 2e-3;
    let training = TrainingSet::new(&workload.queries, &workload.train);
    let model = GlEstimator::train(&data, spec.metric, &training, &workload.table, &cfg);

    // Wrap the model for updates: it owns the evolving dataset, the
    // labelled workload, and the fine-tuning schedule.
    let all_queries: Vec<usize> = (0..workload.queries.len()).collect();
    let mut live = UpdatableGl::new(
        data.clone(),
        spec.metric,
        model,
        workload.queries.gather(&all_queries),
        workload.train.clone(),
        workload.test.clone(),
        &workload.table,
        UpdateConfig::default(),
    );

    println!(
        "before updates: mean test Q-error {:.2}",
        live.mean_test_q_error()
    );

    // Stream 10 insert operations of 10 records each (new points resemble
    // catalogue entries, as in Exp-11's GloVe insertions).
    let mut rng = StdRng::seed_from_u64(23);
    for op in 1..=10 {
        let ids: Vec<usize> = (0..10).map(|_| rng.gen_range(0..data.len())).collect();
        let points = live.data().gather(&ids);
        let affected = live
            .insert(&points, true)
            .expect("fine-tuning moves weights, never shapes");
        println!(
            "op {op:>2}: inserted 10 records into segments {:?}; mean test Q-error {:.2}",
            affected,
            live.mean_test_q_error()
        );
    }
    println!(
        "dataset grew to {} records; the estimator stayed fresh without a full retrain",
        live.dataset_len()
    );
}
