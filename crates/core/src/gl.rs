//! The global-local framework of §3.3 — the paper's headline estimators.
//!
//! The dataset is segmented (PCA + batch k-means); **phase 1** trains one
//! small local regressor per segment on the per-segment cardinalities
//! `card^{j}[i]`, and **phase 2** trains the global model `G` to select
//! which local models a query needs (Algorithm 2). The final estimate is
//! the sum of the selected local estimates:
//! `card̂(q, τ) = Σ_{i : G selects i} exp(F[i](z_q ⊕ z_τ ⊕ z_C))`.
//!
//! Local models take the centroid-distance feature `x_C` instead of sample
//! distances `x_D` — the simplification Fig. 5 introduces ("the distance
//! distribution in each data segment can be easily learned by the other
//! layers faster, under the global-local framework").
//!
//! Four variants share this code (Table 2):
//! * **Local+** — per-segment local models with tuned CNN embeddings, *no*
//!   global model: every local model is evaluated (slower, Exp-9),
//! * **GL-MLP** — global + locals with MLP query embeddings,
//! * **GL-CNN** — global + locals with the default segmentation CNN,
//! * **GL+** — GL-CNN plus the greedy hyperparameter tuning of §5.2.

use crate::arch::{build_regressor, tau_features, ModelDims, QueryEmbed, TAU_DIM};
use crate::global::{GlobalConfig, GlobalModel};
use crate::labels::SegmentLabels;
use crate::tuning::{tune_query_embedding, TuningConfig};
use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
use cardest_data::metric::Metric;
use cardest_data::vector::{VectorData, VectorView};
use cardest_data::workload::SearchSample;
use cardest_nn::artifact::ArtifactError;
use cardest_nn::lanes::{LaneError, LaneNet, LaneScratch, LANES};
use cardest_nn::metrics::decode_log_card;
use cardest_nn::net::BranchNet;
use cardest_nn::parallel::{fan_exclusive, train_threads};
use cardest_nn::trainer::{train_branch_regression, TrainConfig};
use cardest_nn::{Matrix, Scratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Artifact kind tag identifying a serialized [`GlEstimator`] (any
/// variant — the variant travels inside the payload).
pub const GL_ARTIFACT_KIND: &str = "cardest.gl";

/// Which member of the global-local family to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GlVariant {
    /// Data segmentation + tuned CNN locals, no global model.
    LocalPlus,
    /// Global-local with MLP query embeddings.
    GlMlp,
    /// Global-local with the default segmentation CNN.
    GlCnn,
    /// GL-CNN + automatic hyperparameter tuning (Algorithm 3).
    GlPlus,
}

impl GlVariant {
    pub fn name(self) -> &'static str {
        match self {
            GlVariant::LocalPlus => "Local+",
            GlVariant::GlMlp => "GL-MLP",
            GlVariant::GlCnn => "GL-CNN",
            GlVariant::GlPlus => "GL+",
        }
    }

    fn uses_global(self) -> bool {
        !matches!(self, GlVariant::LocalPlus)
    }
}

/// Configuration for the global-local estimators.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlConfig {
    pub variant: GlVariant,
    /// Number of data segments (the paper's default is 100 at full scale;
    /// 16 matches our scaled datasets — Fig. 11 sweeps this).
    pub n_segments: usize,
    /// Number of query segments for CNN embeddings.
    pub n_query_segments: usize,
    pub dims: ModelDims,
    /// Selection cut-off σ of the global model.
    pub sigma: f32,
    /// Cardinality penalty in the global loss (Exp-6 ablation).
    pub penalty: bool,
    pub local_train: TrainConfig,
    pub global_train: TrainConfig,
    /// Cap on per-local-model training samples (positives are always kept;
    /// zero-cardinality samples are subsampled to at most twice the
    /// positives within this budget).
    pub max_local_samples: usize,
    /// Algorithm 3 settings (used by GL+ / Local+). Tuning runs on
    /// `tuning_segments` representative (largest) segments and the best
    /// configuration is shared by all local models — a scaled-down stand-in
    /// for the paper's per-segment tuning, documented in DESIGN.md.
    pub tuning: TuningConfig,
    pub tuning_segments: usize,
    pub seed: u64,
}

impl Default for GlConfig {
    fn default() -> Self {
        GlConfig {
            variant: GlVariant::GlPlus,
            n_segments: 16,
            n_query_segments: 8,
            dims: ModelDims::default(),
            sigma: 0.5,
            penalty: true,
            local_train: TrainConfig {
                epochs: 25,
                batch_size: 128,
                ..Default::default()
            },
            global_train: TrainConfig {
                epochs: 30,
                batch_size: 128,
                ..Default::default()
            },
            max_local_samples: 4000,
            tuning: TuningConfig::default(),
            tuning_segments: 2,
            seed: 0,
        }
    }
}

impl GlConfig {
    pub fn for_variant(variant: GlVariant) -> Self {
        GlConfig {
            variant,
            ..Default::default()
        }
    }
}

/// A trained global-local estimator.
///
/// Serializable: a trained model can be exported with serde (the paper
/// trains in PyTorch and copies parameters into a C++ engine for serving;
/// here save/load round-trips the whole estimator).
#[derive(Clone, Serialize)]
pub struct GlEstimator {
    variant: GlVariant,
    segmentation: Segmentation,
    locals: Vec<BranchNet>,
    global: Option<GlobalModel>,
    /// Threshold normalizer for the expanded τ features (the largest τ
    /// seen in training).
    tau_scale: f32,
    /// Per-segment radii at training time: training, fine-tuning, serving
    /// and joins build the overlap features from these, whatever inserts
    /// later do to [`Segmentation::radius`].
    radii: Vec<f32>,
    /// [`GlConfig::max_local_samples`] at training time; fine-tuning
    /// selects each local's samples under the same budget.
    max_local_samples: usize,
    /// The locals packed for the lane kernel, which serves every local
    /// forward ([`run_locals`]). Derived from `locals` wherever a model is
    /// trained or decoded, and rebuilt whenever they change
    /// ([`GlEstimator::retrain_locals`]); never serialized. Empty only if
    /// the locals do not share one shape, which decoding rejects and
    /// training never produces; every local output then reads NaN, which
    /// the serving guard answers from its fallback. Boxed to keep the
    /// estimator small where it sits in enums beside other families.
    #[serde(skip)]
    lanes: Box<LaneNet>,
}

impl Deserialize for GlEstimator {
    /// Decodes the serialized fields and packs the locals, so a model
    /// whose locals differ in shape, or do not fit its segment count, is a
    /// typed decode error instead of a panic when it first serves.
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v.expect_map("GlEstimator")?;
        let mut gl = GlEstimator {
            variant: serde::get_field(m, "variant", "GlEstimator")?,
            segmentation: serde::get_field(m, "segmentation", "GlEstimator")?,
            locals: serde::get_field(m, "locals", "GlEstimator")?,
            global: serde::get_field(m, "global", "GlEstimator")?,
            tau_scale: serde::get_field(m, "tau_scale", "GlEstimator")?,
            radii: serde::get_field(m, "radii", "GlEstimator")?,
            max_local_samples: serde::get_field(m, "max_local_samples", "GlEstimator")?,
            lanes: Box::default(),
        };
        gl.repack()
            .map_err(|e| serde::Error::msg(format!("GlEstimator locals: {e}")))?;
        let n = gl.locals.len();
        let fits = gl.lanes.in_dims().get(1..) == Some(&[TAU_DIM, 2 * n][..])
            && gl.segmentation.n_segments() == n
            && gl.radii.len() == n
            && gl.global.as_ref().is_none_or(|g| g.n_segments() == n);
        if !fits {
            return Err(serde::Error::msg(format!(
                "GlEstimator: {n} locals do not fit its segments, radii, global model or feature widths"
            )));
        }
        Ok(gl)
    }
}

impl GlEstimator {
    /// Trains the selected variant: segmentation, per-segment labels,
    /// phase-1 local models, phase-2 global model.
    pub fn train(
        data: &VectorData,
        metric: Metric,
        training: &TrainingSet<'_>,
        table: &cardest_data::ground_truth::DistanceTable,
        cfg: &GlConfig,
    ) -> Self {
        assert!(!training.is_empty(), "training set is empty");
        let seg_cfg = SegmentationConfig {
            n_segments: cfg.n_segments,
            pca_rank: 8,
            pca_iters: 10,
            method: SegmentationMethod::PcaKMeans,
            seed: cfg.seed,
        };
        let segmentation = Segmentation::fit(data, metric, &seg_cfg);
        let labels = SegmentLabels::compute(table, training.samples, &segmentation);
        Self::train_with_segmentation(data, metric, training, segmentation, &labels, cfg)
    }

    /// Trains on a pre-fitted segmentation and labels (used by Fig. 11's
    /// segment-count sweep and by set-ups that time training's steps
    /// separately).
    pub fn train_with_segmentation(
        data: &VectorData,
        _metric: Metric,
        training: &TrainingSet<'_>,
        segmentation: Segmentation,
        labels: &SegmentLabels,
        cfg: &GlConfig,
    ) -> Self {
        let dim = data.dim();
        // Every phase reads the samples through one input builder.
        let (xq_cache, xc_cache) = build_feature_caches(training.queries, &segmentation);
        let inputs = SampleInputs::new(training.samples, &xq_cache, &xc_cache, &segmentation);

        // Query embedding: MLP, default CNN, or tuned CNN (Algorithm 3).
        let query_embed = match cfg.variant {
            GlVariant::GlMlp => QueryEmbed::Mlp {
                hidden: cfg.dims.embed_q * 2,
            },
            GlVariant::GlCnn => QueryEmbed::default_cnn(dim, cfg.n_query_segments),
            GlVariant::GlPlus | GlVariant::LocalPlus => tune_shared_embedding(&inputs, labels, cfg),
        };

        // Phase 1: one local regressor per segment.
        let locals = train_locals(&inputs, labels, &query_embed, cfg);

        // Phase 2: the global discriminative model.
        let global = cfg.variant.uses_global().then(|| {
            let gcfg = GlobalConfig {
                query_embed: query_embed.clone(),
                dims: cfg.dims,
                sigma: cfg.sigma,
                penalty: cfg.penalty,
                train: cfg.global_train,
            };
            GlobalModel::train(&inputs, labels, &gcfg, cfg.seed).0
        });

        let mut gl = GlEstimator {
            variant: cfg.variant,
            segmentation,
            locals,
            global,
            tau_scale: inputs.tau_scale,
            radii: inputs.radii,
            max_local_samples: cfg.max_local_samples,
            lanes: Box::default(),
        };
        // Locals from one `build_regressor` call share one shape, so this
        // packs; were it ever not to, every local output would read NaN.
        gl.repack().ok();
        gl
    }

    pub fn variant(&self) -> GlVariant {
        self.variant
    }

    pub fn segmentation(&self) -> &Segmentation {
        &self.segmentation
    }

    pub(crate) fn segmentation_mut(&mut self) -> &mut Segmentation {
        &mut self.segmentation
    }

    pub fn n_segments(&self) -> usize {
        self.locals.len()
    }

    pub fn global(&self) -> Option<&GlobalModel> {
        self.global.as_ref()
    }

    pub(crate) fn locals(&self) -> &[BranchNet] {
        &self.locals
    }

    /// Runs `train` on the locals in place, then repacks them, so serving
    /// never runs stale weights. Training moves weights, never shapes, so
    /// the pack fails only if `train` put in a local of another shape: the
    /// error is returned, and until the locals pack again every local
    /// output reads NaN.
    pub(crate) fn retrain_locals<R>(
        &mut self,
        train: impl FnOnce(&mut [BranchNet]) -> R,
    ) -> Result<R, LaneError> {
        let out = train(&mut self.locals);
        self.repack()?;
        Ok(out)
    }

    /// Rebuilds the lane pack from the locals; on an error, empties it.
    fn repack(&mut self) -> Result<(), LaneError> {
        *self.lanes = LaneNet::default();
        *self.lanes = LaneNet::pack(&self.locals)?;
        Ok(())
    }

    /// Threshold normalizer used by the expanded τ features.
    pub fn tau_scale(&self) -> f32 {
        self.tau_scale
    }

    /// Labelled samples as this model sees them: the per-query caches
    /// ([`build_feature_caches`]) with the trained radii and τ scale,
    /// whatever updates did to the segmentation since.
    pub(crate) fn sample_inputs<'a>(
        &self,
        samples: &'a [SearchSample],
        xq_cache: &'a [Vec<f32>],
        xc_cache: &'a [Vec<f32>],
    ) -> SampleInputs<'a> {
        SampleInputs {
            samples,
            xq_cache,
            xc_cache,
            radii: self.radii.clone(),
            tau_scale: self.tau_scale,
        }
    }

    /// Warm-start fine-tuning (§5.3) of the local models of `segments`
    /// (duplicates and unknown ids are ignored) on patched `labels`: each
    /// runs training's sample selection under the recorded budget and
    /// training's batch builder over `inputs`
    /// ([`GlEstimator::sample_inputs`]) for `tcfg`'s schedule. The
    /// segments fan out across scoped threads; the lane pack is rebuilt
    /// afterwards ([`GlEstimator::retrain_locals`]).
    pub(crate) fn finetune_locals(
        &mut self,
        inputs: &SampleInputs<'_>,
        labels: &SegmentLabels,
        segments: &[usize],
        tcfg: &TrainConfig,
    ) -> Result<(), LaneError> {
        let budget = self.max_local_samples;
        self.retrain_locals(|locals| {
            let jobs: Vec<_> = locals
                .iter_mut()
                .enumerate()
                .filter(|(seg, _)| segments.contains(seg))
                .map(|(seg, local)| {
                    // Seeded by segment alone: the estimator does not
                    // record its training seed.
                    let mut rng = StdRng::seed_from_u64(seg as u64);
                    let chosen = local_sample_rows(labels, seg, budget, &mut rng);
                    let weight = chosen.len();
                    (seg, (local, chosen), weight)
                })
                .collect();
            fan_exclusive(
                jobs,
                train_threads(),
                |seg, (local, chosen): (&mut BranchNet, Vec<usize>)| {
                    // As in `train_locals`, the segment fan owns the cores.
                    let tcfg = TrainConfig {
                        seed: seg as u64,
                        threads: 1,
                        ..*tcfg
                    };
                    fit_local(local, inputs, labels, seg, &chosen, &tcfg);
                },
            );
        })
    }

    /// Warm-start fine-tuning of the global model on patched `labels`
    /// through [`GlobalModel::fit`], penalty on (the §3.3 default; the
    /// Exp-6 no-penalty ablation is never fine-tuned).
    pub(crate) fn finetune_global(
        &mut self,
        inputs: &SampleInputs<'_>,
        labels: &SegmentLabels,
        tcfg: &TrainConfig,
    ) {
        if let Some(g) = &mut self.global {
            g.fit(inputs, labels, true, tcfg);
        }
    }

    /// Serializes the trained estimator to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restores an estimator serialized by [`GlEstimator::to_json`].
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }

    /// Saves the trained estimator as a versioned, checksummed artifact
    /// (see `cardest_nn::artifact` for the container layout). The write is
    /// atomic: a crash mid-save leaves any previous artifact intact.
    pub fn save_artifact(&self, path: &std::path::Path) -> Result<(), ArtifactError> {
        let json = self
            .to_json()
            .map_err(|e| ArtifactError::Malformed(e.to_string()))?;
        cardest_nn::artifact::write_atomic(path, GL_ARTIFACT_KIND, &[json.as_bytes()])
    }

    /// Loads an artifact written by [`GlEstimator::save_artifact`],
    /// verifying magic, format version, kind, and checksum first — a
    /// truncated, bit-flipped, or version-skewed file is a typed `Err`,
    /// never silently-wrong weights.
    pub fn load_artifact(path: &std::path::Path) -> Result<Self, ArtifactError> {
        Self::decode_artifact(&cardest_nn::artifact::read(path, GL_ARTIFACT_KIND)?)
    }

    /// Decodes a verified artifact payload (see
    /// `cardest_nn::artifact::read_any`), packing the locals.
    pub fn decode_artifact(payload: &[u8]) -> Result<Self, ArtifactError> {
        serde_json::from_slice(payload).map_err(|e| ArtifactError::Malformed(e.to_string()))
    }

    /// Estimate with the number of local models selected (Exp-9 explains
    /// GL+'s speed by this count). Single-query wrapper around
    /// [`GlEstimator::estimate_batch_with_stats`].
    pub fn estimate_with_stats(&self, q: VectorView<'_>, tau: f32) -> (f32, usize) {
        self.estimate_batch_with_stats(&[(q, tau)])[0]
    }

    /// Batched estimation: per-query estimates and selected-local counts,
    /// in input order.
    ///
    /// One batched global pass selects segments for the whole batch. The
    /// selected locals then run on the calling thread through one lane
    /// kernel ([`run_locals`]), whose every pass gives a (query, local)
    /// pair the same bits, so a query's raw local outputs do not depend on
    /// the rest of the batch. Per-query contributions are accumulated in
    /// ascending segment order, so batched and sequential results agree
    /// within the trait's 1e-5 relative-error contract. (They are not
    /// guaranteed bitwise identical: the global model's blocked GEMM picks
    /// its kernel by operand shape, so routing a batch may reassociate
    /// differently from routing one query, and select another set of
    /// locals.)
    ///
    /// Two pieces of domain knowledge bound each local estimate:
    /// * a segment cannot contribute more than its member count, so
    ///   `exp(o_i)` is capped at `|D[i]|` (the model regresses in log
    ///   space, where a small extrapolation error exponentiates into a
    ///   huge overestimate),
    /// * an estimate below one half rounds to an empty segment — the
    ///   Q-error floor used during training makes zero-cardinality
    ///   segments regress to ≈0.1, and summing that residue across all
    ///   segments would otherwise inflate low-cardinality queries.
    ///
    /// If the global model selects nothing, the segment with the nearest
    /// centroid is evaluated as a fallback (a selectivity-0 answer is
    /// almost always wrong for a query drawn from the data).
    ///
    /// The work splits in two halves: [`GlEstimator::local_outputs`]
    /// depends only on the weights, centroids, trained radii and τ scale,
    /// none of which an insert or delete moves;
    /// [`GlEstimator::sum_local_outputs`] applies the member-count caps,
    /// which they do move. The drift monitor keeps the first half of its
    /// probe sweep across inserts.
    pub fn estimate_batch_with_stats(
        &self,
        queries: &[(VectorView<'_>, f32)],
    ) -> Vec<(f32, usize)> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.sum_local_outputs(&self.local_outputs(queries))
    }

    /// The weight-dependent half of [`GlEstimator::estimate_batch_with_stats`]:
    /// batch inputs, global routing and recall guards, and every selected
    /// local's raw `ln card` output.
    pub(crate) fn local_outputs(&self, queries: &[(VectorView<'_>, f32)]) -> LocalOutputs {
        let b = queries.len();
        let n_seg = self.locals.len();
        let taus: Vec<f32> = queries.iter().map(|&(_, tau)| tau).collect();
        let BatchInputs {
            xq,
            xcd,
            xt,
            aux: xca,
        } = self.batch_inputs(queries);

        // Segment selection: one batched global forward for all queries.
        let mut selected = vec![false; b * n_seg];
        match &self.global {
            Some(g) => {
                let probs = g.probabilities_batch(&xq, &taus, &xcd);
                let sigma = g.sigma();
                for r in 0..b {
                    let row = probs.row(r);
                    for (sel, &p) in selected[r * n_seg..(r + 1) * n_seg].iter_mut().zip(row) {
                        *sel = p > sigma;
                    }
                    // Recall guards: the router's own argmax and the
                    // query's home segment (nearest centroid) are always
                    // evaluated — a query drawn from the data almost always
                    // has matches in its own cluster, and evaluating two
                    // extra locals costs microseconds while a missed heavy
                    // segment costs the whole answer (the failure mode
                    // Fig. 9 measures).
                    if let Some((am, _)) = row
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| a.total_cmp(b))
                    {
                        selected[r * n_seg + am] = true;
                    }
                }
            }
            None => selected.fill(true),
        }
        for r in 0..b {
            let nearest = xcd
                .row(r)
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map_or(0, |(i, _)| i);
            selected[r * n_seg + nearest] = true;
        }

        let raw = run_locals(&self.lanes, [&xq, &xt, &xca], &selected);
        LocalOutputs { selected, raw }
    }

    /// The cap-dependent half of [`GlEstimator::estimate_batch_with_stats`]:
    /// decodes each raw output under its segment's current member count,
    /// drops contributions below the 0.5 cut and falls back to the largest
    /// single one. Returns per-query estimates and local counts.
    pub(crate) fn sum_local_outputs(&self, outputs: &LocalOutputs) -> Vec<(f32, usize)> {
        let n_seg = self.locals.len().max(1);
        let rows = outputs
            .selected
            .chunks(n_seg)
            .zip(outputs.raw.chunks(n_seg));
        rows.map(|(sel, raw)| {
            // Ascending segment order, as a sequential evaluation sums.
            let (mut total, mut max_single, mut evaluated) = (0.0f32, 0.0f32, 0);
            let mut lost = false;
            for (seg, (_, &o)) in sel.iter().zip(raw).enumerate().filter(|(_, (&s, _))| s) {
                evaluated += 1;
                lost |= o.is_nan();
                let est = decode_log_card(o, self.segmentation.members(seg).len() as f32);
                max_single = max_single.max(est);
                if est >= 0.5 {
                    total += est;
                }
            }
            // If every contribution fell below the rounding cut, fall back
            // to the largest single one rather than answering a hard zero.
            // cardest-lint: allow(float-total-order): exact zero sentinel for "no segment answered"; totals are sums of exact zeros
            let est = if total == 0.0 { max_single } else { total };
            // A selected local that could not run (the lane kernel's NaN)
            // leaves no estimate, which the serving guard answers from its
            // fallback.
            (if lost { f32::NAN } else { est }, evaluated)
        })
        .collect()
    }

    /// A query batch's model inputs, assembled once for the whole batch.
    /// Each row is built as training builds a sample's: the centroid
    /// distances run the metric kernel of [`build_feature_caches`] on the
    /// dense `x_q` row, so served and trained features are the same bits.
    pub(crate) fn batch_inputs(&self, queries: &[(VectorView<'_>, f32)]) -> BatchInputs {
        let b = queries.len();
        let n_seg = self.locals.len();
        let dim = self.locals[0].in_dims()[0];
        let mut xq = Matrix::zeros(b, dim);
        let mut xcd = Matrix::zeros(b, n_seg);
        let mut xt = Matrix::zeros(b, TAU_DIM);
        let mut aux = Matrix::zeros(b, 2 * n_seg);
        let mut qbuf: Vec<f32> = Vec::with_capacity(dim);
        for (r, &(q, tau)) in queries.iter().enumerate() {
            q.write_dense(&mut qbuf);
            xq.row_mut(r).copy_from_slice(&qbuf);
            self.segmentation
                .centroid_distances_into(VectorView::Dense(&qbuf), xcd.row_mut(r));
            xt.row_mut(r)
                .copy_from_slice(&tau_features(tau, self.tau_scale));
            aux_features_into(xcd.row(r), &self.radii, tau, aux.row_mut(r));
        }
        BatchInputs { xq, xcd, xt, aux }
    }

    /// Bytes of all local models plus the global model (Table 5).
    fn all_param_bytes(&self) -> usize {
        let locals: usize = self.locals.iter().map(BranchNet::param_bytes).sum();
        locals + self.global.as_ref().map_or(0, GlobalModel::param_bytes)
    }
}

impl CardinalityEstimator for GlEstimator {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn estimate(&self, q: VectorView<'_>, tau: f32) -> f32 {
        self.estimate_with_stats(q, tau).0
    }

    fn estimate_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<f32> {
        self.estimate_batch_with_stats(queries)
            .into_iter()
            .map(|(e, _)| e)
            .collect()
    }

    fn model_bytes(&self) -> usize {
        self.all_param_bytes()
    }

    fn expected_dim(&self) -> Option<usize> {
        self.locals.first().map(|l| l.in_dims()[0])
    }

    fn tau_bound(&self) -> Option<f32> {
        Some(self.tau_scale)
    }
}

/// Below [`QUERY_LANES_MIN`] queries, a query's lane group with more than
/// this many selected locals runs them in one 16-local pass, and a sparser
/// one queues each pair for query lanes (`cargo bench --bench kernels`,
/// `gl_locals`: the `1_query_k_of_16_group` cases).
pub const PER_LOCAL_MAX: usize = 4;

/// From this many queries on, a batch queues every selected pair for query
/// lanes, dense groups too (`cargo bench --bench kernels`, `gl_locals`: the
/// `batch_b_*` cases).
pub(crate) const QUERY_LANES_MIN: usize = 16;

/// Which pass runs each selected (query, local) pair of a batch.
#[derive(Debug, Default)]
pub(crate) struct LocalPlan {
    /// `(query, lane group)` pairs that run one 16-local pass.
    pub(crate) groups: Vec<(usize, usize)>,
    /// Per local, the queries it runs as query lanes, in ascending order.
    pub(crate) queued: Vec<Vec<usize>>,
}

impl LocalPlan {
    /// The plan for `selected`, a batch's queries × `n` locals flags,
    /// row-major: below [`QUERY_LANES_MIN`] queries, a lane group with
    /// more than [`PER_LOCAL_MAX`] selected locals takes a 16-local pass;
    /// every other selected pair is queued on its local.
    pub(crate) fn new(selected: &[bool], n: usize) -> Self {
        let b = selected.len().checked_div(n).unwrap_or(0);
        let mut plan = LocalPlan {
            groups: Vec::new(),
            queued: vec![Vec::new(); n],
        };
        for (r, sel) in selected.chunks(n.max(1)).enumerate() {
            for (g, sel) in sel.chunks(LANES).enumerate() {
                if b < QUERY_LANES_MIN && sel.iter().filter(|&&s| s).count() > PER_LOCAL_MAX {
                    plan.groups.push((r, g));
                    continue;
                }
                let picked = plan.queued[g * LANES..].iter_mut().zip(sel);
                for (rows, _) in picked.filter(|(_, &s)| s) {
                    rows.push(r);
                }
            }
        }
        plan
    }
}

/// A query batch's selected locals through the lane kernel ([`LaneNet`]),
/// on the plan of [`LocalPlan::new`]: `inputs` are the batch's `[x_q,
/// x_τ, aux]` rows and `selected` its queries × locals flags, row-major.
/// Returns each selected local's raw `ln card` output in the same layout,
/// NaN where a local was not selected. Each local runs its queued queries
/// as query lanes, [`LANES`] a pass; a lone one is a 1-wide pass. Every
/// pass sums each lane in one order, so a query's raw outputs are the same
/// bits alone or anywhere in a batch of any size.
pub fn run_locals(lanes: &LaneNet, inputs: [&Matrix; 3], selected: &[bool]) -> Vec<f32> {
    let n = selected.len().checked_div(inputs[0].rows()).unwrap_or(0);
    let mut raw = vec![f32::NAN; selected.len()];
    let plan = LocalPlan::new(selected, n);
    let mut scratch = LaneScratch::default();
    let mut group = [0.0; LANES];
    for &(r, g) in &plan.groups {
        lanes.infer_group(g, &inputs.map(|m| m.row(r)), &mut group, &mut scratch);
        let segs = (g * LANES..n).zip(group);
        for (seg, y) in segs.filter(|&(seg, _)| selected[r * n + seg]) {
            raw[r * n + seg] = y;
        }
    }
    let mut out = Vec::new();
    for (seg, rows) in plan.queued.iter().enumerate() {
        out.resize(rows.len(), 0.0);
        lanes.infer_rows(seg, &inputs, rows, &mut out, &mut scratch);
        for (&r, &y) in rows.iter().zip(&out) {
            raw[r * n + seg] = y;
        }
    }
    raw
}

/// Per-segment auxiliary features for one (query, τ) pair, written into a
/// caller-owned slice of width `2·n`: the centroid distances `x_C` of
/// Fig. 5 plus, per segment, the triangle-inequality overlap
/// `τ − (d(q, c_i) − r_i)` — how deep the query ball penetrates the
/// segment ball (§5.1 motivates exactly this bound: "we could compute the
/// distance upper bound between a query and a data object in a data
/// segment ... by using triangle inequality on the distance of the query
/// to the centroid, and this segment's radius"). Feeding the bound as a
/// feature is what lets a local model generalize to unseen queries
/// instead of keying on training-query identity.
pub fn aux_features_into(xc: &[f32], radii: &[f32], tau: f32, out: &mut [f32]) {
    let n = xc.len();
    debug_assert_eq!(out.len(), 2 * n, "aux feature slice width mismatch");
    out[..n].copy_from_slice(xc);
    for i in 0..n {
        out[n + i] = tau - (xc[i] - radii[i]);
    }
}

/// Dense query vectors and centroid-distance features for every query in
/// the workload (train + test).
pub fn build_feature_caches(
    queries: &VectorData,
    segmentation: &Segmentation,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut xq = Vec::with_capacity(queries.len());
    let mut xc = Vec::with_capacity(queries.len());
    for q in 0..queries.len() {
        let view = queries.view(q);
        let mut buf = Vec::with_capacity(queries.dim());
        view.write_dense(&mut buf);
        xq.push(buf);
        xc.push(segmentation.centroid_distances(view));
    }
    (xq, xc)
}

/// Runs Algorithm 3 on the largest segments and returns the best shared
/// query-embedding configuration.
fn tune_shared_embedding(
    inputs: &SampleInputs<'_>,
    labels: &SegmentLabels,
    cfg: &GlConfig,
) -> QueryEmbed {
    // Largest segments are the most informative tuning targets.
    let mut seg_sizes: Vec<(usize, f32)> = (0..labels.n_segments())
        .map(|i| {
            let mass: f32 = (0..labels.n_samples()).map(|j| labels.card(j, i)).sum();
            (i, mass)
        })
        .collect();
    seg_sizes.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut best: Option<(f32, QueryEmbed)> = None;
    for &(seg, _) in seg_sizes.iter().take(cfg.tuning_segments.max(1)) {
        let (embed, err) = tune_query_embedding(
            inputs,
            labels,
            seg,
            &cfg.dims,
            &cfg.tuning,
            cfg.seed.wrapping_add(seg as u64),
        );
        if best.as_ref().is_none_or(|(b, _)| err < *b) {
            best = Some((err, embed));
        }
    }
    best.map(|(_, e)| e)
        .unwrap_or_else(|| QueryEmbed::default_cnn(inputs.dim(), cfg.n_query_segments))
}

/// The weight-dependent half of a batch estimate
/// ([`GlEstimator::local_outputs`]), row-major over queries × segments.
pub(crate) struct LocalOutputs {
    /// Whether each query selected each local.
    pub(crate) selected: Vec<bool>,
    /// Each selected local's raw `ln card` output for the query; NaN
    /// where it was not selected.
    pub(crate) raw: Vec<f32>,
}

/// A query batch's model inputs as serving builds them: `x_q`, the raw
/// centroid distances (the global model's input), `x_τ`, and the overlap
/// features from the trained radii.
pub(crate) struct BatchInputs {
    pub(crate) xq: Matrix,
    pub(crate) xcd: Matrix,
    pub(crate) xt: Matrix,
    pub(crate) aux: Matrix,
}

/// Labelled training samples as model inputs: the one batch assembly that
/// local and global training, Algorithm 3's trials, and fine-tuning after
/// data updates share. `x_q` and the centroid distances come from the
/// per-query caches ([`build_feature_caches`]), the overlap features from
/// the radii, and `x_τ` from the τ scale.
pub struct SampleInputs<'a> {
    pub(crate) samples: &'a [SearchSample],
    xq_cache: &'a [Vec<f32>],
    xc_cache: &'a [Vec<f32>],
    pub(crate) radii: Vec<f32>,
    pub(crate) tau_scale: f32,
}

impl<'a> SampleInputs<'a> {
    /// Inputs for training on `samples`: the radii of `segmentation` and
    /// the largest τ among the samples as the τ scale, which the trained
    /// model then keeps.
    pub fn new(
        samples: &'a [SearchSample],
        xq_cache: &'a [Vec<f32>],
        xc_cache: &'a [Vec<f32>],
        segmentation: &Segmentation,
    ) -> Self {
        let radii = (0..segmentation.n_segments())
            .map(|i| segmentation.radius(i))
            .collect();
        let tau_scale = samples.iter().map(|s| s.tau).fold(0.0f32, f32::max);
        SampleInputs {
            samples,
            xq_cache,
            xc_cache,
            radii,
            tau_scale: tau_scale.max(1e-6),
        }
    }

    /// Width of `x_q`.
    pub(crate) fn dim(&self) -> usize {
        self.xq_cache.first().map_or(0, Vec::len)
    }

    /// A fresh local regressor over these inputs: `x_q`, the τ basis and
    /// the `2·n_seg` aux row, seeded by `seed`.
    pub(crate) fn new_local(&self, embed: &QueryEmbed, dims: &ModelDims, seed: u64) -> BranchNet {
        let mut rng = StdRng::seed_from_u64(seed);
        let aux = 2 * self.radii.len();
        build_regressor(&mut rng, self.dim(), TAU_DIM, aux, embed, dims)
    }

    /// `[x_q, x_τ, aux]` with one row per sample index in `rows`.
    pub(crate) fn inputs(&self, rows: &[usize]) -> Vec<Matrix> {
        let b = rows.len();
        let n_seg = self.radii.len();
        let mut xq = Matrix::zeros(b, self.dim());
        let mut xt = Matrix::zeros(b, TAU_DIM);
        let mut aux = Matrix::zeros(b, 2 * n_seg);
        for (r, &j) in rows.iter().enumerate() {
            let s = &self.samples[j];
            xq.row_mut(r).copy_from_slice(&self.xq_cache[s.query]);
            xt.row_mut(r)
                .copy_from_slice(&tau_features(s.tau, self.tau_scale));
            aux_features_into(&self.xc_cache[s.query], &self.radii, s.tau, aux.row_mut(r));
        }
        vec![xq, xt, aux]
    }
}

/// The samples one local model trains on: all positives, then at most 2×
/// as many zeros (at least a handful, so empty segments still see "no
/// match" examples), within the overall `budget`; both shuffled by `rng`.
fn local_sample_rows(
    labels: &SegmentLabels,
    segment: usize,
    budget: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let (mut positives, mut zeros): (Vec<usize>, Vec<usize>) =
        (0..labels.n_samples()).partition(|&j| labels.card(j, segment) > 0.0);
    zeros.shuffle(rng);
    positives.shuffle(rng);
    positives.truncate(budget);
    let remaining = budget.saturating_sub(positives.len());
    let zero_budget = (positives.len() * 2).max(8).min(remaining.max(8));
    zeros.truncate(zero_budget);
    positives.extend(zeros);
    positives
}

/// Trains `net` (fresh, or warm when fine-tuning) for `tcfg`'s schedule on
/// the `chosen` samples' `card^{j}[segment]` targets.
pub(crate) fn fit_local(
    net: &mut BranchNet,
    inputs: &SampleInputs<'_>,
    labels: &SegmentLabels,
    segment: usize,
    chosen: &[usize],
    tcfg: &TrainConfig,
) {
    let mut build = |idx: &[usize]| {
        let rows: Vec<usize> = idx.iter().map(|&i| chosen[i]).collect();
        let cards: Vec<f32> = rows.iter().map(|&j| labels.card(j, segment)).collect();
        (inputs.inputs(&rows), cards)
    };
    train_branch_regression(net, chosen.len(), &mut build, tcfg);
}

/// Phase 1: trains the per-segment local regressors. Independent models —
/// fanned across scoped threads by a work queue keyed on per-segment sample
/// count (largest segments dispatch first, so a straggler never serializes
/// the tail). Each worker owns one `Scratch`; results are bit-identical to
/// sequential training because every segment is trained from its own seed.
fn train_locals(
    inputs: &SampleInputs<'_>,
    labels: &SegmentLabels,
    query_embed: &QueryEmbed,
    cfg: &GlConfig,
) -> Vec<BranchNet> {
    // Positives dominate a segment's training cost (zeros are capped at 2×
    // the positives), so the positive count is the queue weight.
    let weights: Vec<usize> = (0..labels.n_segments())
        .map(|seg| {
            (0..labels.n_samples())
                .filter(|&j| labels.card(j, seg) > 0.0)
                .count()
                .min(cfg.max_local_samples)
        })
        .collect();
    let threads = cardest_nn::parallel::resolve_threads(cfg.local_train.threads);
    cardest_nn::parallel::parallel_largest_first(&weights, threads, |seg, scratch| {
        train_one_local(seg, inputs, labels, query_embed, cfg, scratch)
    })
}

/// Trains one local regressor on `card^{j}[segment]` targets, balancing
/// zero-cardinality samples against positives.
fn train_one_local(
    segment: usize,
    inputs: &SampleInputs<'_>,
    labels: &SegmentLabels,
    query_embed: &QueryEmbed,
    cfg: &GlConfig,
    scratch: &mut Scratch,
) -> BranchNet {
    let seed = cfg.seed ^ (segment as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(seed);
    let chosen = local_sample_rows(labels, segment, cfg.max_local_samples, &mut rng);

    let train_once = |init_seed: u64, scratch: &mut Scratch| {
        let mut net = inputs.new_local(query_embed, &cfg.dims, init_seed);
        let mut tcfg = cfg.local_train;
        tcfg.seed = init_seed;
        // The segment fan-out already owns the cores; nested gradient-shard
        // threads would only fight it (the sharded result is T-independent,
        // so this changes nothing but scheduling).
        tcfg.threads = 1;
        fit_local(&mut net, inputs, labels, segment, &chosen, &tcfg);
        // Fit quality on the positive targets: a local that cannot even
        // reproduce its own training positives would silently destroy the
        // summed estimate, so measure it.
        let mut err = 0.0f64;
        let mut count = 0usize;
        for &j in chosen.iter().take(256) {
            let card = labels.card(j, segment);
            if card <= 0.0 {
                continue;
            }
            let x = inputs.inputs(&[j]);
            let out = net.infer(&[&x[0], &x[1], &x[2]], scratch);
            let pred = decode_log_card(out.get(0, 0), f32::INFINITY);
            scratch.recycle(out);
            err += cardest_nn::metrics::q_error(pred, card) as f64;
            count += 1;
        }
        let fit = if count == 0 {
            1.0
        } else {
            (err / count as f64) as f32
        };
        (net, fit)
    };
    // Occasionally a local converges to a degenerate solution (predicting
    // ~0 everywhere); restart from a fresh initialization and keep the
    // better fit.
    let (net, fit) = train_once(seed, scratch);
    if fit > 6.0 {
        let (net2, fit2) = train_once(seed ^ 0xDEAD_BEEF, scratch);
        if fit2 < fit {
            return net2;
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ModelDims;
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;
    use cardest_nn::metrics::ErrorSummary;

    fn tiny(seed: u64) -> (VectorData, SearchWorkload, DatasetSpec) {
        let spec = DatasetSpec {
            n_data: 600,
            n_train_queries: 50,
            n_test_queries: 20,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(seed);
        let w = SearchWorkload::build(&data, &spec, seed);
        (data, w, spec)
    }

    fn fast_cfg(variant: GlVariant) -> GlConfig {
        GlConfig {
            variant,
            n_segments: 6,
            local_train: TrainConfig {
                epochs: 8,
                batch_size: 64,
                ..Default::default()
            },
            global_train: TrainConfig {
                epochs: 10,
                batch_size: 64,
                ..Default::default()
            },
            tuning: TuningConfig::fast(),
            tuning_segments: 1,
            ..Default::default()
        }
    }

    fn mean_qerr(est: &GlEstimator, w: &SearchWorkload) -> f32 {
        let pairs: Vec<(f32, f32)> = w
            .test
            .iter()
            .map(|s| (est.estimate(w.queries.view(s.query), s.tau), s.card))
            .collect();
        ErrorSummary::from_q_errors(&pairs).mean
    }

    #[test]
    fn gl_cnn_trains_estimates_finitely_and_prunes_locals() {
        let (data, w, spec) = tiny(102);
        let training = TrainingSet::new(&w.queries, &w.train);
        let est = GlEstimator::train(
            &data,
            spec.metric,
            &training,
            &w.table,
            &fast_cfg(GlVariant::GlCnn),
        );
        let err = mean_qerr(&est, &w);
        assert!(err.is_finite());
        // Sanity: beats the trivial always-zero estimator.
        let zero: Vec<(f32, f32)> = w.test.iter().map(|s| (0.0, s.card)).collect();
        assert!(err < ErrorSummary::from_q_errors(&zero).mean);
        // And the global model actually routes: across the test set, fewer
        // local evaluations than segments × queries.
        let mut evaluated = 0usize;
        let mut total = 0usize;
        for s in &w.test {
            let (_, n) = est.estimate_with_stats(w.queries.view(s.query), s.tau);
            evaluated += n;
            total += est.n_segments();
        }
        assert!(
            evaluated < total,
            "global model never pruned: {evaluated}/{total} local evaluations"
        );
    }

    #[test]
    fn local_plus_evaluates_every_segment() {
        let (data, w, spec) = tiny(103);
        let training = TrainingSet::new(&w.queries, &w.train);
        let est = GlEstimator::train(
            &data,
            spec.metric,
            &training,
            &w.table,
            &fast_cfg(GlVariant::LocalPlus),
        );
        let (_, n) = est.estimate_with_stats(w.queries.view(0), 0.1);
        assert_eq!(n, est.n_segments());
        assert_eq!(est.name(), "Local+");
    }

    /// Packs `n` locals built for `embed` and checks each lane against the
    /// local's own `infer` within 1e-5 relative, on 64-d queries with the
    /// τ basis and the `2·n` aux row.
    fn assert_lanes_match_locals(embed: &QueryEmbed, n: usize, seed: u64) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = ModelDims::default();
        let locals: Vec<BranchNet> = (0..n)
            .map(|_| build_regressor(&mut rng, 64, TAU_DIM, 2 * n, embed, &dims))
            .collect();
        let lanes = LaneNet::pack(&locals).unwrap();
        let mut scratch = Scratch::new();
        let mut lane_scratch = LaneScratch::default();
        let mut row = |w: usize| -> Vec<f32> { (0..w).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        for _ in 0..3 {
            let (xq, xt, xa) = (row(64), row(TAU_DIM), row(2 * n));
            let mut out = vec![f32::NAN; n];
            for (g, out) in out.chunks_mut(LANES).enumerate() {
                lanes.infer_group(g, &[&xq, &xt, &xa], out, &mut lane_scratch);
            }
            let m = |x: &[f32]| Matrix::from_row(x);
            for (s, local) in locals.iter().enumerate() {
                let want = local
                    .infer(&[&m(&xq), &m(&xt), &m(&xa)], &mut scratch)
                    .get(0, 0);
                assert!(
                    (out[s] - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "{embed:?}, local {s} of {n}: lanes {}, infer {want}",
                    out[s]
                );
            }
        }
    }

    #[test]
    fn lanes_match_every_local_for_each_gl_embedding() {
        // A tuned GL+ embedding, from Algorithm 3 on a tiny workload.
        let (data, w, spec) = tiny(104);
        let seg_cfg = SegmentationConfig {
            n_segments: 5,
            pca_rank: 8,
            pca_iters: 10,
            method: SegmentationMethod::PcaKMeans,
            seed: 104,
        };
        let segmentation = Segmentation::fit(&data, spec.metric, &seg_cfg);
        let labels = SegmentLabels::compute(&w.table, &w.train, &segmentation);
        let (xq_cache, xc_cache) = build_feature_caches(&w.queries, &segmentation);
        let inputs = SampleInputs::new(&w.train, &xq_cache, &xc_cache, &segmentation);
        let (tuned, _) = tune_query_embedding(
            &inputs,
            &labels,
            0,
            &ModelDims::default(),
            &TuningConfig::fast(),
            104,
        );
        let embeds = [
            QueryEmbed::Mlp { hidden: 32 },
            QueryEmbed::default_cnn(64, 8),
            tuned,
        ];
        for (k, embed) in embeds.iter().enumerate() {
            for n in [5, 16, 17] {
                assert_lanes_match_locals(embed, n, (k * 100 + n) as u64);
            }
        }
    }

    #[test]
    fn a_query_runs_the_same_alone_or_anywhere_in_a_batch() {
        let (data, w, spec) = tiny(105);
        let training = TrainingSet::new(&w.queries, &w.train);
        // A router threshold at which some queries select at most
        // `PER_LOCAL_MAX` of the 6 locals and the rest select more.
        let cfg = GlConfig {
            sigma: 0.3,
            ..fast_cfg(GlVariant::GlCnn)
        };
        let est = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg);
        let queries: Vec<(VectorView<'_>, f32)> = (0..64)
            .map(|i| {
                let s = &w.test[i % w.test.len()];
                (w.queries.view(s.query), s.tau * (1.0 + i as f32 / 64.0))
            })
            .collect();
        // Row `r`'s raw output from `seg`, if `r` selected it.
        let n_seg = est.n_segments();
        let raw = |out: &LocalOutputs, r: usize, seg: usize| {
            let k = r * n_seg + seg;
            out.selected[k].then(|| out.raw[k].to_bits())
        };
        // Each batch: which queries it holds, in order, and its outputs.
        // Windows of sizes on both sides of `QUERY_LANES_MIN` tile the
        // queries; the whole set runs once more rotated.
        let mut batches: Vec<(Vec<usize>, LocalOutputs)> = Vec::new();
        let mut run = |idx: Vec<usize>| {
            let batch: Vec<_> = idx.iter().map(|&i| queries[i]).collect();
            let out = est.local_outputs(&batch);
            batches.push((idx, out));
        };
        for size in [2, QUERY_LANES_MIN - 1, QUERY_LANES_MIN, 64] {
            for start in (0..64).step_by(size) {
                run((start..start + size).map(|i| i % 64).collect());
            }
        }
        run((0..64).map(|i| (i + 17) % 64).collect());
        // Passes the plans run: 16-local, query lanes of two or more
        // queries, and 1-wide.
        let mut paths = [0; 3];
        let mut count = |out: &LocalOutputs| {
            let plan = LocalPlan::new(&out.selected, n_seg);
            paths[0] += plan.groups.len();
            for chunk in plan.queued.iter().flat_map(|rows| rows.chunks(LANES)) {
                paths[if chunk.len() == 1 { 2 } else { 1 }] += 1;
            }
        };
        for (_, out) in &batches {
            count(out);
        }
        let mut compared = 0;
        let mut compared_64 = 0;
        for (r, q) in queries.iter().enumerate() {
            let alone = est.local_outputs(std::slice::from_ref(q));
            count(&alone);
            for seg in 0..n_seg {
                let Some(one) = raw(&alone, 0, seg) else {
                    continue;
                };
                for (idx, out) in &batches {
                    for (pos, _) in idx.iter().enumerate().filter(|&(_, &i)| i == r) {
                        if let Some(got) = raw(out, pos, seg) {
                            assert_eq!(
                                got,
                                one,
                                "query {r} at {pos} of {}, segment {seg}",
                                idx.len()
                            );
                            compared += 1;
                            compared_64 += usize::from(idx.len() == 64);
                        }
                    }
                }
            }
        }
        assert!(
            compared_64 >= 2 * 64,
            "only {compared_64} outputs compared in full batches"
        );
        assert!(compared >= 6 * 64, "only {compared} outputs compared");
        assert!(
            paths.iter().all(|&n| n > 0),
            "16-local, query lanes, 1-wide: {paths:?}"
        );
    }

    #[test]
    fn served_features_equal_the_training_features() {
        let datasets = [
            PaperDataset::ImageNet,
            PaperDataset::YouTube,
            PaperDataset::GloVe300,
            PaperDataset::Bms,
        ];
        for dataset in datasets {
            let spec = DatasetSpec {
                n_data: 600,
                n_train_queries: 60,
                n_test_queries: 20,
                ..dataset.spec()
            };
            let data = spec.generate(106);
            let w = SearchWorkload::build(&data, &spec, 106);
            let seg_cfg = SegmentationConfig {
                n_segments: 16,
                seed: 106,
                ..Default::default()
            };
            let segmentation = Segmentation::fit(&data, spec.metric, &seg_cfg);
            let (xq, xc) = build_feature_caches(&w.queries, &segmentation);
            let inputs = SampleInputs::new(&w.train, &xq, &xc, &segmentation);
            // Serving's inputs read only the segmentation, the radii, the
            // τ scale and the locals' widths, so untrained locals do.
            let embed = QueryEmbed::Mlp { hidden: 8 };
            let locals = (0..16)
                .map(|s| inputs.new_local(&embed, &ModelDims::default(), s))
                .collect();
            let est = GlEstimator {
                variant: GlVariant::GlCnn,
                locals,
                global: None,
                tau_scale: inputs.tau_scale,
                radii: inputs.radii.clone(),
                max_local_samples: 0,
                lanes: Box::default(),
                segmentation,
            };
            let batch: Vec<(VectorView<'_>, f32)> = (0..w.queries.len())
                .map(|q| (w.queries.view(q), 0.1))
                .collect();
            let served = est.batch_inputs(&batch);
            let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (q, want) in xc.iter().enumerate() {
                assert_eq!(
                    bits(served.xcd.row(q)),
                    bits(want),
                    "{dataset:?}, query {q}"
                );
                assert_eq!(served.xq.row(q), &xq[q][..], "{dataset:?}, query {q}");
            }
        }
    }

    #[test]
    fn variants_report_their_paper_names() {
        assert_eq!(GlVariant::GlPlus.name(), "GL+");
        assert_eq!(GlVariant::GlMlp.name(), "GL-MLP");
        assert_eq!(GlVariant::GlCnn.name(), "GL-CNN");
        assert_eq!(GlVariant::LocalPlus.name(), "Local+");
    }
}
