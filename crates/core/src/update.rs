//! Incremental learning for data updates (§5.3, evaluated in Exp-11).
//!
//! "GL+ supports incremental learning for updates because GL+ is highly
//! modular": inserted points are routed to the nearest cluster by centroid
//! distance, the cached query labels are patched (a new point inside a
//! query's threshold bumps that query's cardinality and the owning
//! segment's share), and only the affected local models plus the global
//! model are fine-tuned for a couple of epochs — instead of retraining
//! from scratch. Fine-tuning is the training path itself (sample
//! selection, batch builders, the model's own radii and sample budget)
//! run warm on [`UpdateConfig`]'s schedule.

use crate::gl::{build_feature_caches, GlEstimator, LocalOutputs};
use crate::labels::SegmentLabels;
use cardest_data::ground_truth::DistanceTable;
use cardest_data::metric::Metric;
use cardest_data::vector::{VectorData, VectorView};
use cardest_data::workload::SearchSample;
use cardest_nn::lanes::LaneError;
use cardest_nn::metrics::{q_error, ErrorSummary};
use cardest_nn::trainer::TrainConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::OnceLock;

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

impl UpdateConfig {
    /// Trainer settings for `epochs` epochs of fine-tuning.
    fn schedule(&self, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: self.batch_size,
            learning_rate: self.learning_rate,
            ..Default::default()
        }
    }
}

/// Probes per batch in [`UpdatableGl::probe_q_errors`]: the coalescer's
/// `max_batch`. The global model's forward then covers at most 64 rows,
/// under the blocked GEMM's 128-row threading threshold, and the locals
/// run as one lane pass per probe, so a sweep runs on the calling thread.
pub(crate) const PROBE_CHUNK: usize = 64;

/// Per-query features `(xq, xc)`: the dense query and its centroid
/// distances ([`build_feature_caches`]).
type FeatureCaches = (Vec<Vec<f32>>, Vec<Vec<f32>>);

/// A GL estimator that supports incremental inserts with label patching
/// and partial fine-tuning. It serializes as the snapshot payload: every
/// field but the two caches, which a decoded value rebuilds on first use.
#[derive(Serialize, Deserialize)]
pub struct UpdatableGl {
    data: VectorData,
    metric: Metric,
    gl: GlEstimator,
    queries: VectorData,
    train: Vec<SearchSample>,
    test: Vec<SearchSample>,
    /// Per-training-sample per-segment cardinalities, patched on updates.
    labels: SegmentLabels,
    /// Query features for fine-tuning, built on first use. They depend
    /// only on the fixed queries and the centroids, which never move after
    /// `fit`, so building them late gives the same values.
    #[serde(skip)]
    feature_caches: OnceLock<FeatureCaches>,
    /// Tombstone flags for deleted rows (storage keeps the row).
    deleted: Vec<bool>,
    cfg: UpdateConfig,
    /// The weight-dependent half of the probe sweep, one entry per
    /// [`PROBE_CHUNK`] of test samples: filled by the first sweep, dropped
    /// by [`UpdatableGl::finetune`], the only call that changes weights.
    #[serde(skip)]
    probe_outputs: OnceLock<Vec<LocalOutputs>>,
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
        let labels = SegmentLabels::compute(table, &train, gl.segmentation());
        let deleted = vec![false; data.len()];
        UpdatableGl {
            data,
            metric,
            gl,
            queries,
            train,
            test,
            labels,
            feature_caches: OnceLock::new(),
            deleted,
            cfg,
            probe_outputs: OnceLock::new(),
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
    /// affected segments, or a fine-tune's error
    /// ([`UpdatableGl::finetune`]).
    pub fn insert(&mut self, points: &VectorData, finetune: bool) -> Result<Vec<usize>, LaneError> {
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
            self.finetune(&affected)?;
        }
        Ok(affected)
    }

    /// Deletes points by dataset index (§5.3 handles deletions the same
    /// way as inserts: patch cluster membership and labels, then
    /// incrementally retrain the affected models). Rows become tombstones —
    /// the storage keeps them, but they leave their segment and every
    /// cached cardinality they used to contribute to. Returns the affected
    /// segments, or a fine-tune's error; already-deleted indices are
    /// ignored.
    pub fn delete(&mut self, ids: &[usize], finetune: bool) -> Result<Vec<usize>, LaneError> {
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        for &idx in ids {
            if let Some(seg) = self.apply_delete(idx) {
                affected.insert(seg);
            }
        }
        let affected: Vec<usize> = affected.into_iter().collect();
        if finetune {
            self.finetune(&affected)?;
        }
        Ok(affected)
    }

    /// Fine-tunes the local models owning `affected` plus the global model
    /// on the patched labels — the §5.3 schedule, exposed so the drift
    /// monitor's background worker can trigger it outside an insert/delete
    /// call. Duplicate and unknown segment ids are ignored, so callers may
    /// pass raw trigger lists. Fails only if the fine-tuned locals no
    /// longer pack as lanes ([`GlEstimator::retrain_locals`]); the global
    /// model is then left as it was.
    pub fn finetune(&mut self, affected: &[usize]) -> Result<(), LaneError> {
        self.probe_outputs = OnceLock::new();
        let (xq, xc) = self
            .feature_caches
            .get_or_init(|| build_feature_caches(&self.queries, self.gl.segmentation()));
        let inputs = self.gl.sample_inputs(&self.train, xq, xc);
        let cfg = self.cfg;
        let local = cfg.schedule(cfg.local_epochs);
        self.gl
            .finetune_locals(&inputs, &self.labels, affected, &local)?;
        let global = cfg.schedule(cfg.global_epochs);
        self.gl.finetune_global(&inputs, &self.labels, &global);
        Ok(())
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
                self.labels.patch(j, seg, delta);
            }
        }
        for s in self.test.iter_mut() {
            if qdist[s.query] <= s.tau {
                s.card = (s.card + delta).max(0.0);
            }
        }
    }

    /// Serializes the full durable state — dataset, metric, model,
    /// queries, patched labels, segment shares, tombstones, and the
    /// fine-tune schedule — as the JSON payload a `cardest-store` snapshot
    /// persists. The caches are *not* included.
    pub fn snapshot_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Rebuilds an [`UpdatableGl`] from a snapshot payload written by
    /// [`UpdatableGl::snapshot_json`].
    pub fn from_snapshot_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
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
    /// drift monitor and Fig. 15. It equals scoring the probes through
    /// `estimate_batch` in chunks of [`PROBE_CHUNK`] bit for bit; the
    /// estimates match per-probe ones within the trait's 1e-5
    /// batch ≍ sequential contract. Only the first sweep after a load or
    /// a fine-tune runs the models: later ones re-sum the cached raw
    /// outputs under the current member-count caps.
    pub(crate) fn probe_q_errors(&self) -> Vec<f32> {
        let outputs = self.probe_outputs.get_or_init(|| {
            self.test
                .chunks(PROBE_CHUNK)
                .map(|chunk| {
                    let batch: Vec<(VectorView<'_>, f32)> = chunk
                        .iter()
                        .map(|s| (self.queries.view(s.query), s.tau))
                        .collect();
                    self.gl.local_outputs(&batch)
                })
                .collect()
        });
        let mut errs = Vec::with_capacity(self.test.len());
        for (chunk, out) in self.test.chunks(PROBE_CHUNK).zip(outputs) {
            let ests = self.gl.sum_local_outputs(out);
            errs.extend(
                chunk
                    .iter()
                    .zip(ests)
                    .map(|(s, (est, _))| q_error(est, s.card)),
            );
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
    use crate::join::{JoinConfig, JoinEstimator, JoinVariant};
    use crate::tuning::TuningConfig;
    use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::vector::DenseData;
    use cardest_data::workload::SearchWorkload;
    use cardest_nn::metrics::decode_log_card;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(spec: &DatasetSpec, cfg: &GlConfig, seed: u64) -> UpdatableGl {
        let data = spec.generate(seed);
        let w = SearchWorkload::build(&data, spec, seed);
        let training = TrainingSet::new(&w.queries, &w.train);
        let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, cfg);
        UpdatableGl::new(
            data,
            spec.metric,
            gl,
            w.queries,
            w.train,
            w.test,
            &w.table,
            UpdateConfig::default(),
        )
    }

    fn setup(seed: u64) -> (UpdatableGl, DatasetSpec) {
        setup_on(PaperDataset::ImageNet, seed)
    }

    fn setup_on(dataset: PaperDataset, seed: u64) -> (UpdatableGl, DatasetSpec) {
        let spec = DatasetSpec {
            n_data: 500,
            n_train_queries: 40,
            n_test_queries: 15,
            ..dataset.spec()
        };
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
        (build(&spec, &cfg, seed), spec)
    }

    #[test]
    fn insert_patches_labels_exactly() {
        let (mut upd, spec) = setup(131);
        // Insert copies of existing points so coverage is predictable.
        let new_points = upd.data.gather(&[0, 1, 2]);
        let before: Vec<f32> = upd.train_samples().iter().map(|s| s.card).collect();
        let n_before = upd.dataset_len();
        upd.insert(&new_points, false).unwrap();
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
            let seg_total: f32 = upd.labels.row(j).iter().sum();
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
            upd.insert(&pts, true).unwrap();
        }
        let after = upd.mean_test_q_error();
        assert!(
            after < before * 3.0 + 5.0,
            "accuracy collapsed after updates: {before} → {after}"
        );
    }

    #[test]
    #[ignore = "heavyweight: trains an Exp-11-quality GL-CNN and fine-tunes it ten times; run with `cargo test -- --ignored`"]
    fn finetuning_keeps_a_well_trained_model_flat() {
        // Fig. 15's protocol (GloVe300, GL-CNN, ten copied rows per op,
        // default schedule) on the smallest model trained to the full
        // run's op-0 quality (mean test q-error ≈ 1.7). A budget of 180
        // of the 600 samples keeps full scale's 30% (2,400 of 8,000). A
        // fine-tune that selects samples differently from training takes
        // this model from 1.68 to ~8.
        let seed = 42;
        let spec = DatasetSpec {
            n_data: 1000,
            n_train_queries: 60,
            n_test_queries: 20,
            ..PaperDataset::GloVe300.spec()
        };
        let schedule = |epochs| TrainConfig {
            epochs,
            batch_size: 128,
            learning_rate: 2e-3,
            seed,
            ..Default::default()
        };
        let cfg = GlConfig {
            variant: GlVariant::GlCnn,
            n_segments: 8,
            local_train: schedule(30),
            global_train: schedule(25),
            max_local_samples: 180,
            seed,
            ..Default::default()
        };
        let mut upd = build(&spec, &cfg, seed);
        let before = upd.mean_test_q_error();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF15);
        for _ in 0..10 {
            let ids: Vec<usize> = (0..10).map(|_| rng.gen_range(0..spec.n_data)).collect();
            let pts = upd.data.gather(&ids);
            upd.insert(&pts, true).unwrap();
        }
        let after = upd.mean_test_q_error();
        assert!(
            after <= before * 1.1,
            "fine-tuning degraded the model: mean test q-error {before} → {after}"
        );
    }

    #[test]
    fn finetuning_joins_and_serving_share_the_trained_radii() {
        let (mut upd, _) = setup_on(PaperDataset::YouTube, 136);
        // A row shifted far off the data lies outside every segment's ball.
        let mut row = Vec::new();
        upd.data.view(0).write_dense(&mut row);
        row.iter_mut().for_each(|v| *v += 10.0);
        let far = DenseData::from_flat(row.len(), row);
        let p = VectorView::Dense(far.row(0));
        let seg = upd.gl.segmentation();
        let dists = seg.centroid_distances(p);
        assert!((0..seg.n_segments()).all(|s| dists[s] > seg.radius(s)));
        let owner = seg.nearest_segment(p);
        let trained = seg.radius(owner);
        upd.apply_insert(p);
        let grown = upd.gl.segmentation().radius(owner);
        assert!(grown > trained + 1.0, "radius {trained} → {grown}");

        let n = upd.gl.n_segments();
        let (xq, xc) = build_feature_caches(&upd.queries, upd.gl.segmentation());
        let inputs = upd.gl.sample_inputs(&upd.train, &xq, &xc);
        let join = JoinEstimator::from_search_model(
            upd.gl.clone(),
            &upd.queries,
            &[],
            &JoinConfig::for_variant(JoinVariant::GlJoin),
        )
        .unwrap();
        for j in (0..upd.train.len()).step_by(7) {
            let s = upd.train[j];
            let served = upd.gl.batch_inputs(&[(upd.queries.view(s.query), s.tau)]);
            let tuned = inputs.inputs(&[j]);
            let joined = join.set_inputs(&upd.queries, &[s.query], s.tau).unwrap();
            assert_eq!(tuned[0].row(0), served.xq.row(0));
            assert_eq!(joined.xq.row(0), served.xq.row(0));
            assert_eq!(tuned[1].row(0), served.xt.row(0));
            assert_eq!(joined.xt.row(0), served.xt.row(0));
            assert_eq!(joined.aux.row(0), served.aux.row(0));
            assert_eq!(tuned[2].row(0), served.aux.row(0), "sample {j}");
            let stale = s.tau - (served.xcd.get(0, owner) - grown);
            assert!((served.aux.get(0, n + owner) - stale).abs() > 1.0);
        }
    }

    /// The probe sweep the cache stands in for: every chunk scored fresh
    /// through `estimate_batch`.
    fn fresh_probe_q_errors(upd: &UpdatableGl) -> Vec<u32> {
        let mut errs = Vec::new();
        for chunk in upd.test.chunks(PROBE_CHUNK) {
            let batch: Vec<(VectorView<'_>, f32)> = chunk
                .iter()
                .map(|s| (upd.queries.view(s.query), s.tau))
                .collect();
            let ests = upd.gl.estimate_batch(&batch);
            errs.extend(
                chunk
                    .iter()
                    .zip(ests)
                    .map(|(s, e)| q_error(e, s.card).to_bits()),
            );
        }
        errs
    }

    fn assert_sweep_is_fresh(upd: &UpdatableGl, step: &str) {
        let cached: Vec<u32> = upd.probe_q_errors().iter().map(|e| e.to_bits()).collect();
        assert_eq!(cached, fresh_probe_q_errors(upd), "after {step}");
    }

    #[test]
    fn cached_probe_sweep_matches_a_fresh_sweep() {
        let (mut upd, _) = setup(137);
        assert!(upd.test.len() > PROBE_CHUNK);
        assert_sweep_is_fresh(&upd, "training");
        let pts = upd.data.gather(&[2, 30, 77, 140, 260, 411]);
        upd.insert(&pts, false).unwrap();
        assert_sweep_is_fresh(&upd, "inserts");

        // Shrink the segment with the largest cached raw output to one
        // member, so its cap binds on the probe that produced it.
        let outputs = upd
            .probe_outputs
            .get()
            .expect("the sweeps filled the cache");
        let n_seg = upd.gl.n_segments();
        let (seg, o) = outputs
            .iter()
            .flat_map(|out| out.selected.iter().zip(&out.raw).enumerate())
            .filter(|&(_, (&selected, _))| selected)
            .map(|(k, (_, &o))| (k % n_seg, o))
            .filter(|&(seg, _)| upd.gl.segmentation().members(seg).len() > 1)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("some segment with two members was selected");
        let members = upd.gl.segmentation().members(seg).to_vec();
        let old_cap = members.len() as f32;
        assert!(decode_log_card(o, 1.0) < decode_log_card(o, old_cap));
        upd.delete(&members[1..], false).unwrap();
        assert_eq!(upd.gl.segmentation().members(seg).len(), 1);
        assert_sweep_is_fresh(&upd, "deletes");

        let all: Vec<usize> = (0..upd.gl.n_segments()).collect();
        upd.finetune(&all).unwrap();
        assert_sweep_is_fresh(&upd, "a fine-tune");
    }

    /// Estimates of every test probe, as bit patterns.
    fn probe_bits(gl: &GlEstimator, upd: &UpdatableGl) -> Vec<u32> {
        let batch: Vec<(VectorView<'_>, f32)> = upd
            .test
            .iter()
            .map(|s| (upd.queries.view(s.query), s.tau))
            .collect();
        gl.estimate_batch(&batch)
            .iter()
            .map(|e| e.to_bits())
            .collect()
    }

    #[test]
    fn a_finetune_repacks_what_serving_runs() {
        let (mut upd, _) = setup(138);
        let before = probe_bits(&upd.gl, &upd);
        let all: Vec<usize> = (0..upd.gl.n_segments()).collect();
        upd.finetune(&all).unwrap();
        let after = probe_bits(&upd.gl, &upd);
        assert_ne!(before, after, "the fine-tune moved no estimate");
        // A reload packs the fine-tuned locals afresh.
        let reloaded = GlEstimator::from_json(&upd.gl.to_json().unwrap()).unwrap();
        assert_eq!(probe_bits(&reloaded, &upd), after);
    }

    #[test]
    fn locals_of_another_shape_are_a_typed_decode_error() {
        let (mut upd, _) = setup(139);
        let mut rng = StdRng::seed_from_u64(139);
        let n = upd.gl.n_segments();
        let dims = crate::arch::ModelDims {
            hidden: 7,
            ..Default::default()
        };
        let embed = crate::arch::QueryEmbed::Mlp { hidden: 8 };
        let odd =
            crate::arch::build_regressor(&mut rng, 64, crate::arch::TAU_DIM, 2 * n, &embed, &dims);
        let err = upd.gl.retrain_locals(|locals| locals[1] = odd).unwrap_err();
        assert_eq!(err, LaneError::Mismatch { net: 1 });
        // Unpacked, every local output reads NaN, and so does every
        // estimate: the serving guard answers each from its fallback.
        let estimates = probe_bits(&upd.gl, &upd);
        assert!(estimates.iter().all(|&b| f32::from_bits(b).is_nan()));
        let json = upd.gl.to_json().unwrap();
        let err = GlEstimator::from_json(&json)
            .err()
            .expect("mixed locals decoded");
        assert!(err.to_string().contains("net 1 differs"), "{err}");
        let dir = std::env::temp_dir().join(format!("cardest-mixed-locals-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gl.cardest");
        upd.gl.save_artifact(&path).unwrap();
        assert!(matches!(
            GlEstimator::load_artifact(&path),
            Err(cardest_nn::ArtifactError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
        let snapshot = upd.snapshot_json().unwrap();
        assert!(UpdatableGl::from_snapshot_json(&snapshot).is_err());
    }

    #[test]
    fn a_saved_and_loaded_model_finetunes_bit_identically() {
        let (mut trained, _) = setup(140);
        let dir =
            std::env::temp_dir().join(format!("cardest-finetune-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gl.cardest");
        trained.gl.save_artifact(&path).unwrap();
        let mut loaded =
            UpdatableGl::from_snapshot_json(&trained.snapshot_json().unwrap()).unwrap();
        loaded.gl = GlEstimator::load_artifact(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let all: Vec<usize> = (0..trained.gl.n_segments()).collect();
        trained.finetune(&all).unwrap();
        loaded.finetune(&all).unwrap();
        assert_eq!(loaded.gl.to_json().unwrap(), trained.gl.to_json().unwrap());
    }

    #[test]
    fn insert_reports_affected_segments() {
        let (mut upd, _) = setup(133);
        let pts = upd.data.gather(&[10]);
        let expected = upd.gl.segmentation().nearest_segment(pts.view(0));
        let affected = upd.insert(&pts, false).unwrap();
        assert_eq!(affected, vec![expected]);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (mut upd, _) = setup(134);
        let trained = build_feature_caches(&upd.queries, upd.gl.segmentation());
        let pts = upd.data.gather(&[3, 7, 11]);
        upd.insert(&pts, false).unwrap();
        upd.delete(&[5], false).unwrap();
        let json = upd.snapshot_json().unwrap();
        let fp = upd.state_fingerprint().unwrap();
        let restored = UpdatableGl::from_snapshot_json(&json).unwrap();
        assert_eq!(restored.state_fingerprint().unwrap(), fp);
        // Caches built late, on either side, match ones built at training:
        // updates move no centroid.
        let built = |u: &UpdatableGl| {
            u.feature_caches
                .get_or_init(|| build_feature_caches(&u.queries, u.gl.segmentation()))
                .clone()
        };
        assert_eq!(built(&upd), trained);
        assert_eq!(built(&restored), trained);
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
        upd_a.insert(&pts, false).unwrap();
        for i in 0..pts.len() {
            upd_b.apply_insert(pts.view(i));
        }
        assert_eq!(
            upd_a.state_fingerprint().unwrap(),
            upd_b.state_fingerprint().unwrap()
        );
    }
}
