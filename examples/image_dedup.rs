//! Near-duplicate image triage with join cardinality estimates.
//!
//! Scenario: a photo service receives upload batches and wants to know —
//! *before* running an expensive exact dedup pass — roughly how many
//! near-duplicate pairs a batch has against the catalogue (images are
//! 64-bit perceptual hash codes; near-duplicate ⇔ small Hamming
//! distance). That is exactly a similarity-join cardinality
//! `card(Q, τ, D)` (§4 of the paper); batches whose estimate is high get
//! routed to the dedup pipeline.
//!
//! ```sh
//! cargo run --release -p cardest --example image_dedup
//! ```

use cardest::prelude::*;

fn main() {
    // Catalogue of hash codes (ImageNET stand-in generator).
    let spec = DatasetSpec {
        n_data: 4000,
        n_train_queries: 160,
        n_test_queries: 60,
        ..PaperDataset::ImageNet.spec()
    };
    let data = spec.generate(11);
    let workload = SearchWorkload::build(&data, &spec, 11);
    let joins = JoinWorkload::build(&workload, 150, 8, 11);

    // Train GLJoin: a global-local model transferred to the join setting
    // with sum-pooled batch embeddings.
    let mut cfg = JoinConfig::for_variant(JoinVariant::GlJoin);
    cfg.finetune_epochs = 5;
    cfg.base.n_segments = 8;
    cfg.base.local_train.epochs = 30;
    cfg.base.local_train.learning_rate = 2e-3;
    cfg.base.global_train.epochs = 25;
    cfg.base.global_train.learning_rate = 2e-3;
    let training = TrainingSet::new(&workload.queries, &workload.train);
    let model = JoinEstimator::train(
        &data,
        spec.metric,
        &training,
        &workload.table,
        &joins.train,
        &cfg,
    )
    .expect("join fine-tuning moves weights, never shapes");

    // Triage incoming upload batches: estimate the duplicate-pair count
    // per batch, send suspicious batches to exact dedup.
    let dedup_threshold = 50.0;
    let mut routed = 0usize;
    let mut correctly_routed = 0usize;
    for batch in joins.test_buckets.iter().flatten() {
        let est = model.estimate_join_batched(&workload.queries, &batch.query_ids, batch.tau);
        let flagged = est > dedup_threshold;
        let truly_heavy = batch.card > dedup_threshold;
        routed += usize::from(flagged);
        correctly_routed += usize::from(flagged == truly_heavy);
        println!(
            "batch of {:>3} uploads (tau {:.2}): estimated {est:>8.0} duplicate pairs (true {:>6.0}) → {}",
            batch.query_ids.len(),
            batch.tau,
            batch.card,
            if flagged { "DEDUP" } else { "pass" }
        );
    }
    let total: usize = joins.test_buckets.iter().map(Vec::len).sum();
    println!(
        "\nrouted {routed}/{total} batches to dedup; routing agreed with ground truth on {correctly_routed}/{total}"
    );
}
