//! Integration tests for the incremental-update path (§5.3) and the
//! interplay between the exact index and the learned estimators.

use cardest::prelude::*;
use cardest_nn::trainer::TrainConfig;

fn trained_updatable(seed: u64) -> (UpdatableGl, DatasetSpec) {
    let spec = DatasetSpec {
        n_data: 450,
        n_train_queries: 35,
        n_test_queries: 15,
        ..PaperDataset::GloVe300.spec()
    };
    let data = spec.generate(seed);
    let w = SearchWorkload::build(&data, &spec, seed);
    let mut cfg = GlConfig::for_variant(GlVariant::GlCnn);
    cfg.n_segments = 5;
    cfg.local_train = TrainConfig {
        epochs: 5,
        batch_size: 64,
        ..Default::default()
    };
    cfg.global_train = TrainConfig {
        epochs: 6,
        batch_size: 64,
        ..Default::default()
    };
    let training = TrainingSet::new(&w.queries, &w.train);
    let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg);
    let all: Vec<usize> = (0..w.queries.len()).collect();
    let upd = UpdatableGl::new(
        data,
        spec.metric,
        gl,
        w.queries.gather(&all),
        w.train,
        w.test,
        &w.table,
        UpdateConfig::default(),
    );
    (upd, spec)
}

/// After inserts, the patched labels must equal a from-scratch recount
/// over the grown dataset.
#[test]
fn patched_labels_match_full_recount() {
    let (mut upd, spec) = trained_updatable(401);
    let inserts = upd.data().gather(&[1, 2, 3, 5, 8, 13]);
    upd.insert(&inserts, false).unwrap();
    // Recount: distances from each test query to the grown dataset.
    let grown = upd.data().clone();
    for s in upd.test_samples().iter().take(30) {
        // The workload's query collection was cloned into the wrapper, so
        // re-derive the query vector from it.
        let recount = (0..grown.len())
            .filter(|&p| {
                spec.metric
                    .distance(upd_query(&upd, s.query), grown.view(p))
                    <= s.tau
            })
            .count() as f32;
        assert_eq!(s.card, recount, "label drifted for tau={}", s.tau);
    }
}

fn upd_query<'a>(upd: &'a UpdatableGl, q: usize) -> VectorView<'a> {
    upd.queries().view(q)
}

/// Inserting points into the dataset keeps the exact index rebuildable
/// and consistent with brute force on the grown data.
#[test]
fn index_rebuild_after_growth_is_exact() {
    let (mut upd, spec) = trained_updatable(402);
    let inserts = upd.data().gather(&[0, 10, 20, 30]);
    upd.insert(&inserts, false).unwrap();
    let grown = upd.data().clone();
    let index = PivotIndex::build(&grown, spec.metric, 8, 402);
    for q in [0usize, 50, 100] {
        for tau in [0.1f32, 0.3] {
            let brute = (0..grown.len())
                .filter(|&p| spec.metric.distance(grown.view(q), grown.view(p)) <= tau)
                .count() as u32;
            assert_eq!(index.range_count(&grown, grown.view(q), tau), brute);
        }
    }
}

/// Deletions patch labels downward exactly: after deleting points, each
/// sample's cardinality equals a recount over the live rows.
#[test]
fn deletions_patch_labels_exactly() {
    let (mut upd, spec) = trained_updatable(404);
    let victims = [3usize, 7, 42, 100, 250];
    let before_total = upd.dataset_len();
    let affected = upd.delete(&victims, false).unwrap();
    assert!(!affected.is_empty());
    assert_eq!(
        upd.dataset_len(),
        before_total,
        "storage keeps tombstoned rows"
    );
    assert_eq!(upd.live_len(), before_total - victims.len());
    for &v in &victims {
        assert!(upd.is_deleted(v));
    }
    // Deleting again is a no-op.
    let again = upd.delete(&victims, false).unwrap();
    assert!(again.is_empty());
    // Labels match a recount over live rows.
    let grown = upd.data().clone();
    for s in upd.test_samples().iter().take(25) {
        let recount = (0..grown.len())
            .filter(|&p| !upd.is_deleted(p))
            .filter(|&p| {
                spec.metric
                    .distance(upd.queries().view(s.query), grown.view(p))
                    <= s.tau
            })
            .count() as f32;
        assert_eq!(
            s.card, recount,
            "label drifted after delete at tau={}",
            s.tau
        );
    }
}

/// Mixed insert/delete cycles with fine-tuning stay consistent and finite.
#[test]
fn mixed_insert_delete_cycles() {
    let (mut upd, _) = trained_updatable(405);
    let pts = upd.data().gather(&[0, 1, 2]);
    upd.insert(&pts, true).unwrap();
    upd.delete(&[0, 1], true).unwrap();
    let err = upd.mean_test_q_error();
    assert!(err.is_finite(), "q-error became {err}");
    assert_eq!(upd.live_len(), upd.dataset_len() - 2);
}

/// Repeated update+finetune cycles never produce NaN estimates and keep
/// the model usable.
#[test]
fn repeated_update_cycles_stay_finite() {
    let (mut upd, _) = trained_updatable(403);
    for i in 0..4 {
        let ids: Vec<usize> = (0..5).map(|k| (i * 31 + k * 7) % 450).collect();
        let pts = upd.data().gather(&ids);
        upd.insert(&pts, true).unwrap();
        let err = upd.mean_test_q_error();
        assert!(err.is_finite(), "mean Q-error became {err} after cycle {i}");
    }
}
