//! Incremental learning for data updates (§5.3, evaluated in Exp-11).
//!
//! "GL+ supports incremental learning for updates because GL+ is highly
//! modular": inserted points are routed to the nearest cluster by centroid
//! distance, the cached query labels are patched (a new point inside a
//! query's threshold bumps that query's cardinality and the owning
//! segment's share), and only the affected local models plus the global
//! model are fine-tuned for a couple of epochs — instead of retraining
//! from scratch.

use crate::arch::{tau_features, TAU_DIM};
use crate::gl::{build_feature_caches, GlEstimator};
use cardest_baselines::traits::CardinalityEstimator;
use cardest_data::ground_truth::DistanceTable;
use cardest_data::metric::Metric;
use cardest_data::vector::{VectorData, VectorView};
use cardest_data::workload::SearchSample;
use cardest_nn::metrics::{q_error, ErrorSummary};
use cardest_nn::parallel::{fan_exclusive, train_threads};
use cardest_nn::trainer::{train_branch_regression, train_global_classifier, TrainConfig};
use cardest_nn::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Fine-tuning schedule after an update batch.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UpdateConfig {
    /// Epochs of local-model fine-tuning per affected segment.
    pub local_epochs: usize,
    /// Epochs of global-model fine-tuning.
    pub global_epochs: usize,
    pub learning_rate: f32,
    pub batch_size: usize,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        UpdateConfig {
            local_epochs: 2,
            global_epochs: 2,
            learning_rate: 3e-4,
            batch_size: 128,
        }
    }
}

/// Probes per `estimate_batch` call in [`UpdatableGl::probe_q_errors`]:
/// the coalescer's `max_batch`. A local's row group then holds at most 64
/// rows, under the blocked GEMM's 128-row threading threshold, so the
/// batch's segment fan-out is the sweep's only threading.
pub(crate) const PROBE_CHUNK: usize = 64;

/// The serialized form of [`UpdatableGl`] — everything a recovery needs,
/// minus the rebuildable feature caches.
#[derive(Serialize, Deserialize)]
struct SnapshotState {
    data: VectorData,
    metric: Metric,
    gl: GlEstimator,
    queries: VectorData,
    train: Vec<SearchSample>,
    test: Vec<SearchSample>,
    seg_cards: Vec<Vec<f32>>,
    deleted: Vec<bool>,
    cfg: UpdateConfig,
}

/// A GL estimator that supports incremental inserts with label patching
/// and partial fine-tuning.
pub struct UpdatableGl {
    data: VectorData,
    metric: Metric,
    gl: GlEstimator,
    queries: VectorData,
    train: Vec<SearchSample>,
    test: Vec<SearchSample>,
    /// Per-training-sample per-segment cardinalities (mutable labels).
    seg_cards: Vec<Vec<f32>>,
    /// Cached query features (queries do not change on data updates).
    xq_cache: Vec<Vec<f32>>,
    xc_cache: Vec<Vec<f32>>,
    /// Tombstone flags for deleted rows (storage keeps the row).
    deleted: Vec<bool>,
    cfg: UpdateConfig,
}

impl UpdatableGl {
    /// Wraps a trained estimator together with the labelled workload it
    /// was trained on.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        data: VectorData,
        metric: Metric,
        gl: GlEstimator,
        queries: VectorData,
        train: Vec<SearchSample>,
        test: Vec<SearchSample>,
        table: &DistanceTable,
        cfg: UpdateConfig,
    ) -> Self {
        let n_segments = gl.segmentation().n_segments();
        let seg_cards: Vec<Vec<f32>> = train
            .iter()
            .map(|s| {
                table
                    .segment_cardinalities(
                        s.query,
                        s.tau,
                        gl.segmentation().assignment(),
                        n_segments,
                    )
                    .into_iter()
                    .map(|c| c as f32)
                    .collect()
            })
            .collect();
        let (xq_cache, xc_cache) = build_feature_caches(&queries, gl.segmentation());
        let deleted = vec![false; data.len()];
        UpdatableGl {
            data,
            metric,
            gl,
            queries,
            train,
            test,
            seg_cards,
            xq_cache,
            xc_cache,
            deleted,
            cfg,
        }
    }

    pub fn dataset_len(&self) -> usize {
        self.data.len()
    }

    /// The evolving dataset (original rows plus inserted points).
    pub fn data(&self) -> &VectorData {
        &self.data
    }

    /// The workload's materialized query vectors (fixed across updates).
    pub fn queries(&self) -> &VectorData {
        &self.queries
    }

    /// The wrapped estimator (shared by serving and the drift monitor).
    pub fn gl(&self) -> &GlEstimator {
        &self.gl
    }

    pub fn gl_mut(&mut self) -> &mut GlEstimator {
        &mut self.gl
    }

    pub fn train_samples(&self) -> &[SearchSample] {
        &self.train
    }

    pub fn test_samples(&self) -> &[SearchSample] {
        &self.test
    }

    /// The pure insert step shared by the offline experiment and the WAL
    /// replay path (§5.3 routing + label patching, *no* fine-tuning, no
    /// I/O, no randomness): appends the point to the dataset, routes it to
    /// its nearest segment, and patches every cached label. Returns the
    /// owning segment. Replaying the same point sequence through this
    /// method always reproduces bit-identical state, which is what makes
    /// snapshot-load + WAL-replay recovery exact.
    pub fn apply_insert(&mut self, p: VectorView<'_>) -> usize {
        assert_eq!(
            p.dim(),
            self.data.dim(),
            "inserted point has wrong dimension"
        );
        let idx = self.data.len();
        let seg = self.gl.segmentation_mut().insert_point(idx, p);
        self.data.push_view(p);
        self.deleted.push(false);
        self.patch_labels(p, seg, 1.0);
        seg
    }

    /// The pure delete step (tombstone + membership removal + label
    /// patching, no fine-tuning). Returns the segment the point left, or
    /// `None` if the row was already tombstoned. Deterministic, like
    /// [`UpdatableGl::apply_insert`].
    pub fn apply_delete(&mut self, idx: usize) -> Option<usize> {
        assert!(idx < self.data.len(), "delete index {idx} out of range");
        if std::mem::replace(&mut self.deleted[idx], true) {
            return None;
        }
        let seg = self.gl.segmentation_mut().remove_point(idx);
        // Borrow-friendly dense copy of the row for label patching.
        let mut buf = Vec::with_capacity(self.data.dim());
        self.data.view(idx).write_dense(&mut buf);
        let owned = cardest_data::vector::DenseData::from_flat(self.data.dim(), buf);
        self.patch_labels(VectorView::Dense(owned.row(0)), seg, -1.0);
        Some(seg)
    }

    /// Inserts a batch of points: routes each to its nearest segment,
    /// patches the training/testing labels, and (optionally) fine-tunes
    /// the affected local models and the global model. Returns the set of
    /// affected segments.
    pub fn insert(&mut self, points: &VectorData, finetune: bool) -> Vec<usize> {
        assert_eq!(
            points.dim(),
            self.data.dim(),
            "inserted points have wrong dimension"
        );
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        for i in 0..points.len() {
            affected.insert(self.apply_insert(points.view(i)));
        }
        let affected: Vec<usize> = affected.into_iter().collect();
        if finetune {
            self.finetune_locals(&affected);
            self.finetune_global();
        }
        affected
    }

    /// Deletes points by dataset index (§5.3 handles deletions the same
    /// way as inserts: patch cluster membership and labels, then
    /// incrementally retrain the affected models). Rows become tombstones —
    /// the storage keeps them, but they leave their segment and every
    /// cached cardinality they used to contribute to. Returns the affected
    /// segments; already-deleted indices are ignored.
    pub fn delete(&mut self, ids: &[usize], finetune: bool) -> Vec<usize> {
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        for &idx in ids {
            if let Some(seg) = self.apply_delete(idx) {
                affected.insert(seg);
            }
        }
        let affected: Vec<usize> = affected.into_iter().collect();
        if finetune {
            self.finetune_locals(&affected);
            self.finetune_global();
        }
        affected
    }

    /// Fine-tunes the local models owning `affected` plus the global model
    /// — the §5.3 schedule, exposed so the drift monitor's background
    /// worker can trigger it outside an insert/delete call. The segment
    /// list is de-duplicated here, so callers may pass raw trigger lists.
    pub fn finetune(&mut self, affected: &[usize]) {
        let mut segs = affected.to_vec();
        segs.sort_unstable();
        segs.dedup();
        segs.retain(|&s| s < self.gl.segmentation().n_segments());
        self.finetune_locals(&segs);
        self.finetune_global();
    }

    /// Number of live (non-tombstoned) points.
    pub fn live_len(&self) -> usize {
        self.deleted.iter().filter(|&&d| !d).count()
    }

    /// Whether a dataset row has been tombstoned.
    pub fn is_deleted(&self, idx: usize) -> bool {
        self.deleted[idx]
    }

    /// Updates every cached label with one inserted (+1) or deleted (−1)
    /// point: a query whose threshold covers the point gains or loses one
    /// match, attributed to `seg`.
    fn patch_labels(&mut self, p: VectorView<'_>, seg: usize, delta: f32) {
        // One distance per query, shared by its (up to 10) samples.
        let mut qdist: Vec<f32> = Vec::with_capacity(self.queries.len());
        for q in 0..self.queries.len() {
            qdist.push(self.metric.distance(self.queries.view(q), p));
        }
        for (j, s) in self.train.iter_mut().enumerate() {
            if qdist[s.query] <= s.tau {
                s.card = (s.card + delta).max(0.0);
                self.seg_cards[j][seg] = (self.seg_cards[j][seg] + delta).max(0.0);
            }
        }
        for s in self.test.iter_mut() {
            if qdist[s.query] <= s.tau {
                s.card = (s.card + delta).max(0.0);
            }
        }
    }

    /// Short fine-tuning of the local models owning the affected segments,
    /// fanned across scoped threads (each affected segment's model and
    /// sample subset are independent given the patched labels).
    // The slot-take `expect` encodes the de-duplicated `affected` list
    // invariant; a violation must abort rather than alias a local model.
    #[allow(clippy::expect_used)]
    fn finetune_locals(&mut self, affected: &[usize]) {
        let dim = self.queries.dim();
        let tau_scale = self.gl.tau_scale();
        let n_segments = self.gl.segmentation().n_segments();
        let radii: Vec<f32> = (0..n_segments)
            .map(|i| self.gl.segmentation().radius(i))
            .collect();
        // Sample selection happens before the fan so job weights (sample
        // counts) are known and empty segments drop out.
        let mut seg_chosen: Vec<(usize, Vec<usize>)> = Vec::new();
        for &seg in affected {
            // Samples with mass in this segment plus a slice of zeros.
            let mut chosen: Vec<usize> = (0..self.train.len())
                .filter(|&j| self.seg_cards[j][seg] > 0.0)
                .collect();
            let zeros: Vec<usize> = (0..self.train.len())
                // cardest-lint: allow(float-total-order): exact zero sentinel — labels are set to the 0.0 literal, never computed
                .filter(|&j| self.seg_cards[j][seg] == 0.0)
                .take(chosen.len().max(16))
                .collect();
            chosen.extend(zeros);
            if !chosen.is_empty() {
                seg_chosen.push((seg, chosen));
            }
        }
        let train = &self.train;
        let seg_cards = &self.seg_cards;
        let xq_cache = &self.xq_cache;
        let xc_cache = &self.xc_cache;
        let radii = &radii;
        let (local_epochs, batch_size, learning_rate) = (
            self.cfg.local_epochs,
            self.cfg.batch_size,
            self.cfg.learning_rate,
        );
        // `affected` is a de-duplicated segment list (BTreeSet upstream),
        // so slot-take hands each job a distinct local model.
        let mut slots: Vec<Option<&mut cardest_nn::net::BranchNet>> =
            self.gl.locals_mut().iter_mut().map(Some).collect();
        let jobs: Vec<_> = seg_chosen
            .into_iter()
            .map(|(seg, chosen)| {
                // cardest-lint: allow(serving-panic-reachability): the `affected` list is de-duplicated; a second take would alias a local model
                let local = slots[seg].take().expect("affected segments are unique");
                let weight = chosen.len();
                (seg, (local, chosen), weight)
            })
            .collect();
        fan_exclusive(
            jobs,
            train_threads(),
            |seg, (local, chosen): (_, Vec<usize>)| {
                let mut build = |idx: &[usize]| {
                    let b = idx.len();
                    let mut xq = Matrix::zeros(b, dim);
                    let mut xt = Matrix::zeros(b, TAU_DIM);
                    let mut xc = Matrix::zeros(b, 2 * n_segments);
                    let mut cards = Vec::with_capacity(b);
                    for (r, &ci) in idx.iter().enumerate() {
                        let j = chosen[ci];
                        let s = &train[j];
                        xq.row_mut(r).copy_from_slice(&xq_cache[s.query]);
                        xt.row_mut(r)
                            .copy_from_slice(&tau_features(s.tau, tau_scale));
                        xc.row_mut(r).copy_from_slice(&crate::gl::aux_features(
                            &xc_cache[s.query],
                            radii,
                            s.tau,
                        ));
                        cards.push(seg_cards[j][seg]);
                    }
                    (vec![xq, xt, xc], cards)
                };
                let tcfg = TrainConfig {
                    epochs: local_epochs,
                    batch_size,
                    learning_rate,
                    seed: seg as u64,
                    // The outer fan already owns the cores; sharded
                    // training is thread-count independent, so forcing the
                    // inner level sequential changes nothing but contention.
                    threads: 1,
                    ..Default::default()
                };
                let n = chosen.len();
                train_branch_regression(local, n, &mut build, &tcfg);
            },
        );
    }

    /// Short fine-tuning of the global model on the patched labels.
    fn finetune_global(&mut self) {
        let dim = self.queries.dim();
        let tau_scale = self.gl.tau_scale();
        let n_segments = self.gl.segmentation().n_segments();
        let radii: Vec<f32> = (0..n_segments)
            .map(|i| self.gl.segmentation().radius(i))
            .collect();
        let train = &self.train;
        let seg_cards = &self.seg_cards;
        let xq_cache = &self.xq_cache;
        let xc_cache = &self.xc_cache;
        let mut build = |idx: &[usize]| {
            let b = idx.len();
            let mut xq = Matrix::zeros(b, dim);
            let mut xt = Matrix::zeros(b, TAU_DIM);
            let mut xc = Matrix::zeros(b, 2 * n_segments);
            let mut lab = Matrix::zeros(b, n_segments);
            let mut wts = Matrix::zeros(b, n_segments);
            for (r, &j) in idx.iter().enumerate() {
                let s = &train[j];
                xq.row_mut(r).copy_from_slice(&xq_cache[s.query]);
                xt.row_mut(r)
                    .copy_from_slice(&tau_features(s.tau, tau_scale));
                xc.row_mut(r).copy_from_slice(&crate::gl::aux_features(
                    &xc_cache[s.query],
                    &radii,
                    s.tau,
                ));
                let weights = cardest_nn::loss::minmax_weights(&seg_cards[j]);
                for i in 0..n_segments {
                    lab.set(r, i, if seg_cards[j][i] > 0.0 { 1.0 } else { 0.0 });
                    wts.set(r, i, weights[i]);
                }
            }
            (vec![xq, xt, xc], lab, wts)
        };
        let tcfg = TrainConfig {
            epochs: self.cfg.global_epochs,
            batch_size: self.cfg.batch_size,
            learning_rate: self.cfg.learning_rate,
            ..Default::default()
        };
        let n = self.train.len();
        if let Some(g) = self.gl.global_mut() {
            train_global_classifier(g.net_mut(), n, &mut build, &tcfg);
        }
    }

    /// Serializes the full durable state — dataset, metric, model,
    /// queries, patched labels, segment shares, tombstones, and the
    /// fine-tune schedule — as the JSON payload a `cardest-store` snapshot
    /// persists. The query-feature caches are *not* included: they are a
    /// deterministic function of the (fixed) queries and the segmentation
    /// centroids, so [`UpdatableGl::from_snapshot_json`] rebuilds them
    /// bit-identically.
    pub fn snapshot_json(&self) -> serde_json::Result<String> {
        let state = SnapshotState {
            data: self.data.clone(),
            metric: self.metric,
            gl: self.gl.clone(),
            queries: self.queries.clone(),
            train: self.train.clone(),
            test: self.test.clone(),
            seg_cards: self.seg_cards.clone(),
            deleted: self.deleted.clone(),
            cfg: self.cfg,
        };
        serde_json::to_string(&state)
    }

    /// Rebuilds an [`UpdatableGl`] from a snapshot payload written by
    /// [`UpdatableGl::snapshot_json`], recomputing the feature caches.
    pub fn from_snapshot_json(json: &str) -> serde_json::Result<Self> {
        let state: SnapshotState = serde_json::from_str(json)?;
        let (xq_cache, xc_cache) = build_feature_caches(&state.queries, state.gl.segmentation());
        Ok(UpdatableGl {
            data: state.data,
            metric: state.metric,
            gl: state.gl,
            queries: state.queries,
            train: state.train,
            test: state.test,
            seg_cards: state.seg_cards,
            xq_cache,
            xc_cache,
            deleted: state.deleted,
            cfg: state.cfg,
        })
    }

    /// FNV-1a 64 digest of the serialized state — the equality the crash
    /// matrix pins: recovery (snapshot-load + WAL-replay) must reproduce
    /// the never-crashed run's fingerprint exactly.
    pub fn state_fingerprint(&self) -> serde_json::Result<u64> {
        Ok(cardest_nn::artifact::fnv1a64(
            self.snapshot_json()?.as_bytes(),
        ))
    }

    /// Q-error of each (label-patched) test sample, in
    /// [`UpdatableGl::test_samples`] order: the probe sweep behind the
    /// drift monitor and Fig. 15. Probes are scored through
    /// `estimate_batch` in chunks of [`PROBE_CHUNK`], so a sweep pays the
    /// per-call costs once per chunk, not once per probe; the estimates
    /// match per-probe ones within the trait's 1e-5 batch ≍ sequential
    /// contract.
    pub(crate) fn probe_q_errors(&self) -> Vec<f32> {
        let mut errs = Vec::with_capacity(self.test.len());
        for chunk in self.test.chunks(PROBE_CHUNK) {
            let batch: Vec<(VectorView<'_>, f32)> = chunk
                .iter()
                .map(|s| (self.queries.view(s.query), s.tau))
                .collect();
            let ests = self.gl.estimate_batch(&batch);
            errs.extend(chunk.iter().zip(ests).map(|(s, est)| q_error(est, s.card)));
        }
        errs
    }

    /// Mean Q-error over the (label-patched) test samples — the metric
    /// Fig. 15 tracks across update operations.
    pub fn mean_test_q_error(&self) -> f32 {
        ErrorSummary::from_errors(&self.probe_q_errors()).mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gl::{GlConfig, GlVariant};
    use crate::tuning::TuningConfig;
    use cardest_baselines::traits::TrainingSet;
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;

    fn setup(seed: u64) -> (UpdatableGl, DatasetSpec) {
        let spec = DatasetSpec {
            n_data: 500,
            n_train_queries: 40,
            n_test_queries: 15,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(seed);
        let w = SearchWorkload::build(&data, &spec, seed);
        let cfg = GlConfig {
            variant: GlVariant::GlCnn,
            n_segments: 6,
            local_train: TrainConfig {
                epochs: 5,
                batch_size: 64,
                ..Default::default()
            },
            global_train: TrainConfig {
                epochs: 6,
                batch_size: 64,
                ..Default::default()
            },
            tuning: TuningConfig::fast(),
            tuning_segments: 1,
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg);
        let upd = UpdatableGl::new(
            data,
            spec.metric,
            gl,
            w.queries,
            w.train,
            w.test,
            &w.table,
            UpdateConfig::default(),
        );
        (upd, spec)
    }

    #[test]
    fn insert_patches_labels_exactly() {
        let (mut upd, spec) = setup(131);
        // Insert copies of existing points so coverage is predictable.
        let new_points = upd.data.gather(&[0, 1, 2]);
        let before: Vec<f32> = upd.train_samples().iter().map(|s| s.card).collect();
        let n_before = upd.dataset_len();
        upd.insert(&new_points, false);
        assert_eq!(upd.dataset_len(), n_before + 3);
        // Each sample's card grows by exactly the number of inserted
        // points within its threshold.
        for (j, s) in upd.train_samples().iter().enumerate() {
            let expected_gain = (0..3)
                .filter(|&i| {
                    spec.metric
                        .distance(upd.queries.view(s.query), new_points.view(i))
                        <= s.tau
                })
                .count() as f32;
            assert_eq!(s.card - before[j], expected_gain, "sample {j}");
            // Segment shares still partition the total.
            let seg_total: f32 = upd.seg_cards[j].iter().sum();
            assert_eq!(seg_total, s.card, "sample {j} segment shares drifted");
        }
    }

    #[test]
    fn finetuned_updates_keep_accuracy() {
        // Fig. 15's claim at miniature scale: after a series of insert
        // batches with fine-tuning, accuracy does not collapse.
        let (mut upd, _) = setup(132);
        let before = upd.mean_test_q_error();
        let mut rng_idx = 0usize;
        for _ in 0..3 {
            let ids: Vec<usize> = (0..5).map(|k| (rng_idx + k * 37) % 500).collect();
            rng_idx += 11;
            let pts = upd.data.gather(&ids);
            upd.insert(&pts, true);
        }
        let after = upd.mean_test_q_error();
        assert!(
            after < before * 3.0 + 5.0,
            "accuracy collapsed after updates: {before} → {after}"
        );
    }

    #[test]
    fn insert_reports_affected_segments() {
        let (mut upd, _) = setup(133);
        let pts = upd.data.gather(&[10]);
        let expected = upd.gl.segmentation().nearest_segment(pts.view(0));
        let affected = upd.insert(&pts, false);
        assert_eq!(affected, vec![expected]);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (mut upd, _) = setup(134);
        let pts = upd.data.gather(&[3, 7, 11]);
        upd.insert(&pts, false);
        upd.delete(&[5], false);
        let json = upd.snapshot_json().unwrap();
        let fp = upd.state_fingerprint().unwrap();
        let restored = UpdatableGl::from_snapshot_json(&json).unwrap();
        assert_eq!(restored.state_fingerprint().unwrap(), fp);
        // The rebuilt feature caches match the originals exactly.
        assert_eq!(restored.xq_cache, upd.xq_cache);
        assert_eq!(restored.xc_cache, upd.xc_cache);
        assert_eq!(restored.dataset_len(), upd.dataset_len());
        assert!(restored.is_deleted(5));
    }

    #[test]
    fn apply_insert_matches_batched_insert_bit_for_bit() {
        // The WAL replay path (apply_insert, one point at a time) and the
        // offline experiment (insert with a batch) must be the same code
        // path producing the same state.
        let (upd_a, _) = setup(135);
        let json0 = upd_a.snapshot_json().unwrap();
        let mut upd_b = UpdatableGl::from_snapshot_json(&json0).unwrap();
        let mut upd_a = upd_a;
        let pts = upd_a.data.gather(&[1, 4, 9, 16]);
        upd_a.insert(&pts, false);
        for i in 0..pts.len() {
            upd_b.apply_insert(pts.view(i));
        }
        assert_eq!(
            upd_a.state_fingerprint().unwrap(),
            upd_b.state_fingerprint().unwrap()
        );
    }
}
