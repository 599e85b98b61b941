//! Similarity-join cardinality estimation (§4, Fig. 6).
//!
//! The global-local framework is reused with two join-specific pieces:
//!
//! * **Mask-based routing** — the global model predicts the indicating
//!   matrix `M` (one row per member query, one column per data segment);
//!   its transpose tells each local model which member queries it must
//!   evaluate, dropping zero-cardinality (query, segment) pairs.
//! * **Query-set embedding** — a *sum-pooling* layer between the query
//!   embedding module and the output module combines the routed queries'
//!   embeddings into one set embedding, so the output module runs once per
//!   segment instead of once per (query, segment) pair. Sum pooling adds
//!   no parameters, generalizes across set sizes, and lets the model be
//!   transferred from the search model "by training on a few samples and
//!   by only 2-3 iterations" (§4).
//!
//! Three variants (Table 2 rows 11–13):
//! * **CNNJoin** — sum-pooled query-segmentation embeddings, *no* data
//!   segmentation (one model over the whole dataset),
//! * **GLJoin** — global-local with MLP query embeddings,
//! * **GLJoin+** — global-local with the tuned CNN embeddings of GL+.

use crate::arch::tau_features;
use crate::gl::{GlConfig, GlEstimator, GlVariant};
use crate::qes::{QesConfig, QesEstimator};
use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_data::metric::Metric;
use cardest_data::vector::VectorData;
use cardest_data::workload::JoinSet;
use cardest_nn::loss::HybridLoss;
use cardest_nn::metrics::decode_log_card;
use cardest_nn::net::BranchNet;
use cardest_nn::optim::{Adam, Optimizer};
use cardest_nn::parallel::{fan_exclusive, resolve_threads};
use cardest_nn::trainer::BatchIter;
use cardest_nn::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Join estimator variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinVariant {
    /// Sum-pooled CNN query embedding, no data segmentation.
    CnnJoin,
    /// Global-local with MLP embeddings.
    GlJoin,
    /// Global-local with tuned CNN embeddings (shares GL+'s tuning).
    GlJoinPlus,
}

impl JoinVariant {
    pub fn name(self) -> &'static str {
        match self {
            JoinVariant::CnnJoin => "CNNJoin",
            JoinVariant::GlJoin => "GLJoin",
            JoinVariant::GlJoinPlus => "GLJoin+",
        }
    }

    /// The search variant a join model is transferred from.
    fn base_variant(self) -> Option<GlVariant> {
        match self {
            JoinVariant::CnnJoin => None,
            JoinVariant::GlJoin => Some(GlVariant::GlMlp),
            JoinVariant::GlJoinPlus => Some(GlVariant::GlPlus),
        }
    }
}

/// Configuration for training a join estimator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinConfig {
    pub variant: JoinVariant,
    /// Configuration of the underlying search model the join model is
    /// transferred from.
    pub base: GlConfig,
    /// QES configuration for the CNNJoin variant.
    pub qes: QesConfig,
    /// Fine-tuning passes over the join training sets ("2-3 iterations").
    pub finetune_epochs: usize,
    pub finetune_lr: f32,
    pub seed: u64,
}

impl JoinConfig {
    pub fn for_variant(variant: JoinVariant) -> Self {
        let base = match variant.base_variant() {
            Some(v) => GlConfig::for_variant(v),
            None => GlConfig::default(),
        };
        JoinConfig {
            variant,
            base,
            qes: QesConfig::default(),
            finetune_epochs: 3,
            finetune_lr: 2e-4,
            seed: 0,
        }
    }
}

/// Backing model of a join estimator.
enum JoinBackend {
    /// CNNJoin: one QES-style model over the whole dataset.
    Single(QesEstimator, VectorData, Metric),
    /// GLJoin / GLJoin+: a transferred global-local model.
    GlobalLocal(GlEstimator),
}

/// A trained join estimator.
pub struct JoinEstimator {
    variant: JoinVariant,
    backend: JoinBackend,
}

impl JoinEstimator {
    /// Trains a search model, transfers it to the join setting and
    /// fine-tunes the output modules on labelled join sets.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        data: &VectorData,
        metric: Metric,
        training: &TrainingSet<'_>,
        table: &cardest_data::ground_truth::DistanceTable,
        join_train: &[JoinSet],
        cfg: &JoinConfig,
    ) -> Self {
        let mut est = match cfg.variant.base_variant() {
            Some(_) => {
                let gl = GlEstimator::train(data, metric, training, table, &cfg.base);
                JoinEstimator {
                    variant: cfg.variant,
                    backend: JoinBackend::GlobalLocal(gl),
                }
            }
            None => {
                let (qes, _) = QesEstimator::train(data, metric, training, &cfg.qes, cfg.seed);
                JoinEstimator {
                    variant: cfg.variant,
                    backend: JoinBackend::Single(qes, data.clone(), metric),
                }
            }
        };
        est.finetune(training.queries, join_train, cfg);
        est
    }

    /// Builds a join estimator directly from an already-trained search
    /// model (the transfer path of §4), fine-tuning on join sets.
    pub fn from_search_model(
        gl: GlEstimator,
        queries: &VectorData,
        join_train: &[JoinSet],
        cfg: &JoinConfig,
    ) -> Self {
        let mut est = JoinEstimator {
            variant: cfg.variant,
            backend: JoinBackend::GlobalLocal(gl),
        };
        est.finetune(queries, join_train, cfg);
        est
    }

    pub fn variant(&self) -> JoinVariant {
        self.variant
    }

    /// Fine-tunes on labelled join sets for the configured 2–3 epochs.
    fn finetune(&mut self, queries: &VectorData, join_train: &[JoinSet], cfg: &JoinConfig) {
        if join_train.is_empty() || cfg.finetune_epochs == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x70_17);
        let loss_fn = HybridLoss::default();
        let threads = resolve_threads(cfg.base.local_train.threads);
        match &mut self.backend {
            JoinBackend::GlobalLocal(gl) => {
                // One optimizer per local model keeps Adam state aligned
                // even though each join set touches a different segment
                // subset.
                let mut opts: Vec<Adam> = (0..gl.n_segments())
                    .map(|_| Adam::new(cfg.finetune_lr))
                    .collect();
                for _ in 0..cfg.finetune_epochs {
                    for idx in BatchIter::new(&mut rng, join_train.len(), 1) {
                        let set = &join_train[idx[0]];
                        finetune_gl_step(gl, queries, set, &loss_fn, &mut opts, threads);
                    }
                }
            }
            JoinBackend::Single(_, _, _) => {
                // CNNJoin's fine-tuning re-trains the head on pooled
                // embeddings below.
                let mut opt = Adam::new(cfg.finetune_lr);
                for _ in 0..cfg.finetune_epochs {
                    for idx in BatchIter::new(&mut rng, join_train.len(), 1) {
                        let set = &join_train[idx[0]];
                        if let JoinBackend::Single(qes, data, metric) = &mut self.backend {
                            finetune_single_step(
                                qes, *metric, data, queries, set, &loss_fn, &mut opt,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Batched join estimate: one sum-pooled head evaluation per (selected)
    /// segment, as in Fig. 6. Immutable — runs on the pooled inference path
    /// so a trained join model can be shared across serving threads.
    pub fn estimate_join_batched(
        &self,
        queries: &VectorData,
        member_ids: &[usize],
        tau: f32,
    ) -> f32 {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl_join_infer(gl, queries, member_ids, tau),
            JoinBackend::Single(qes, data, metric) => {
                single_join_infer(qes, *metric, data, queries, member_ids, tau)
            }
        }
    }

    /// The underlying global-local model (None for CNNJoin).
    pub fn gl(&self) -> Option<&GlEstimator> {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => Some(gl),
            JoinBackend::Single(..) => None,
        }
    }
}

impl CardinalityEstimator for JoinEstimator {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    /// Point estimates fall back to a singleton join set.
    fn estimate(&self, q: cardest_data::vector::VectorView<'_>, tau: f32) -> f32 {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.estimate(q, tau),
            JoinBackend::Single(qes, _, _) => qes.estimate(q, tau),
        }
    }

    fn estimate_batch(&self, queries: &[(cardest_data::vector::VectorView<'_>, f32)]) -> Vec<f32> {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.estimate_batch(queries),
            JoinBackend::Single(qes, _, _) => qes.estimate_batch(queries),
        }
    }

    fn estimate_join(&self, queries: &VectorData, member_ids: &[usize], tau: f32) -> f32 {
        self.estimate_join_batched(queries, member_ids, tau)
    }

    fn model_bytes(&self) -> usize {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.model_bytes(),
            JoinBackend::Single(qes, _, _) => qes.model_bytes(),
        }
    }

    fn expected_dim(&self) -> Option<usize> {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.expected_dim(),
            JoinBackend::Single(qes, _, _) => qes.expected_dim(),
        }
    }

    fn tau_bound(&self) -> Option<f32> {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.tau_bound(),
            JoinBackend::Single(qes, _, _) => qes.tau_bound(),
        }
    }
}

/// Member feature matrices `x_q` / aux and the indicating matrix `M`
/// (mask-based routing) for one join set — shared by the inference and
/// fine-tuning passes. The overlap features use the model's trained radii,
/// as serving does. Without a global model every query routes to every
/// segment.
pub(crate) fn join_features(
    gl: &GlEstimator,
    queries: &VectorData,
    member_ids: &[usize],
    tau: f32,
) -> (Matrix, Matrix, Vec<Vec<bool>>) {
    let segmentation = gl.segmentation();
    let n_segments = segmentation.n_segments();
    let dim = queries.dim();
    let mut xq = Matrix::zeros(member_ids.len(), dim);
    let mut xc = Matrix::zeros(member_ids.len(), n_segments);
    let mut aux = Matrix::zeros(member_ids.len(), 2 * n_segments);
    let mut buf = Vec::with_capacity(dim);
    for (r, &qid) in member_ids.iter().enumerate() {
        let view = queries.view(qid);
        view.write_dense(&mut buf);
        xq.row_mut(r).copy_from_slice(&buf);
        let dists = segmentation.centroid_distances(view);
        aux.row_mut(r)
            .copy_from_slice(&crate::gl::aux_features(&dists, gl.radii(), tau));
        xc.row_mut(r).copy_from_slice(&dists);
    }
    let taus = vec![tau; member_ids.len()];
    let mask: Vec<Vec<bool>> = match gl.global() {
        Some(g) => g.select_batch(&xq, &taus, &xc),
        None => vec![vec![true; n_segments]; member_ids.len()],
    };
    (xq, aux, mask)
}

/// Immutable forward pass of the global-local join model (Fig. 6) on the
/// pooled inference path. Mirrors [`gl_join_forward`] without touching the
/// training caches.
fn gl_join_infer(gl: &GlEstimator, queries: &VectorData, member_ids: &[usize], tau: f32) -> f32 {
    let tau_scale = gl.tau_scale();
    let segmentation = gl.segmentation();
    let (xq, aux, mask) = join_features(gl, queries, member_ids, tau);
    cardest_nn::scratch::with_thread_scratch(|scratch| {
        let mut total = 0.0f32;
        for (seg, local) in gl.locals().iter().enumerate() {
            let routed: Vec<usize> = (0..member_ids.len()).filter(|&r| mask[r][seg]).collect();
            if routed.is_empty() {
                continue;
            }
            let o = pooled_head_infer(local, &xq, &aux, &routed, tau, tau_scale, scratch);
            let cap = (segmentation.members(seg).len() * routed.len()) as f32;
            total += decode_log_card(o, cap);
        }
        total
    })
}

/// Immutable counterpart of [`pooled_head_forward`]: sum-pooled embeddings
/// for the routed rows, one head evaluation, no cache writes.
#[allow(clippy::too_many_arguments)]
fn pooled_head_infer(
    local: &BranchNet,
    xq: &Matrix,
    aux: &Matrix,
    routed: &[usize],
    tau: f32,
    tau_scale: f32,
    scratch: &mut cardest_nn::Scratch,
) -> f32 {
    let xq_routed = xq.gather_rows(routed);
    let xc_routed = aux.gather_rows(routed);
    let eq = local.infer_branch(0, &xq_routed, scratch);
    let zq = eq.sum_rows();
    scratch.recycle(eq);
    let xt = Matrix::from_row(&tau_features(tau, tau_scale));
    let zt = local.infer_branch(1, &xt, scratch);
    let ec = local.infer_branch(2, &xc_routed, scratch);
    let zc = ec.sum_rows();
    scratch.recycle(ec);
    let concat = Matrix::hconcat(&[&zq, &zt, &zc]);
    let out = local.infer_head(&concat, scratch);
    let o = out.get(0, 0);
    scratch.recycle(zt);
    scratch.recycle(out);
    o
}

/// Immutable forward pass of the CNNJoin model: sum-pool query and
/// sample-distance embeddings over all members, one head evaluation.
fn single_join_infer(
    qes: &QesEstimator,
    metric: Metric,
    data: &VectorData,
    queries: &VectorData,
    member_ids: &[usize],
    tau: f32,
) -> f32 {
    let (xq, xd) = single_join_features(qes, metric, queries, member_ids);
    let net = qes.net();
    cardest_nn::scratch::with_thread_scratch(|scratch| {
        let eq = net.infer_branch(0, &xq, scratch);
        let zq = eq.sum_rows();
        scratch.recycle(eq);
        let zt = net.infer_branch(1, &Matrix::from_row(&[tau]), scratch);
        let ed = net.infer_branch(2, &xd, scratch);
        let zd = ed.sum_rows();
        scratch.recycle(ed);
        let concat = Matrix::hconcat(&[&zq, &zt, &zd]);
        let out = net.infer_head(&concat, scratch);
        let o = out.get(0, 0);
        scratch.recycle(zt);
        scratch.recycle(out);
        // Cap at the trivial bound |Q|·|D|.
        let cap = (member_ids.len() * data.len()) as f32;
        decode_log_card(o, cap)
    })
}

/// Member query matrix `x_q` and sample-distance matrix `x_D` for CNNJoin.
fn single_join_features(
    qes: &QesEstimator,
    metric: Metric,
    queries: &VectorData,
    member_ids: &[usize],
) -> (Matrix, Matrix) {
    let dim = queries.dim();
    let mut xq = Matrix::zeros(member_ids.len(), dim);
    let mut buf = Vec::with_capacity(dim);
    let k = qes.samples().len();
    let mut xd = Matrix::zeros(member_ids.len(), k);
    for (r, &qid) in member_ids.iter().enumerate() {
        let view = queries.view(qid);
        view.write_dense(&mut buf);
        xq.row_mut(r).copy_from_slice(&buf);
        for i in 0..k {
            xd.set(r, i, metric.distance(view, qes.samples().view(i)));
        }
    }
    (xq, xd)
}

/// Forward pass of the global-local join model. Returns the total
/// estimate plus, per segment, the routed member rows and the head output
/// (`ln card`), so the fine-tuning step can backprop through the same
/// pass.
/// Per-segment record of a training-time join forward pass:
/// `(segment, routed member rows, raw prediction, capped contribution)`.
type SegmentForward = (usize, Vec<usize>, f32, f32);

fn gl_join_forward(
    gl: &mut GlEstimator,
    queries: &VectorData,
    member_ids: &[usize],
    tau: f32,
    threads: usize,
) -> (f32, Vec<SegmentForward>) {
    let tau_scale = gl.tau_scale();
    let (xq, aux, mask) = join_features(gl, queries, member_ids, tau);
    let (locals, _, segmentation) = gl.parts_mut();

    // Mᵀ rows per segment; segments with no routed members drop out before
    // the fan so workers never see empty jobs. The routed count doubles as
    // the scheduling weight (forward cost is linear in it).
    let mut jobs = Vec::new();
    for (seg, local) in locals.iter_mut().enumerate() {
        let routed: Vec<usize> = (0..member_ids.len()).filter(|&r| mask[r][seg]).collect();
        if !routed.is_empty() {
            let weight = routed.len();
            jobs.push((seg, (local, routed), weight));
        }
    }
    let results = fan_exclusive(jobs, threads, |_seg, (local, routed): (_, Vec<usize>)| {
        let o = pooled_head_forward(local, &xq, &aux, &routed, tau, tau_scale);
        (o, routed)
    });

    // Reduce in ascending segment order so the f32 total is bit-identical
    // for every thread count (and to the original sequential loop).
    let mut total = 0.0f32;
    let mut per_segment = Vec::new();
    for (seg, (o, routed)) in results {
        // A segment cannot contribute more than |D[seg]| pairs per routed
        // member; the cap guards against log-space extrapolation blowups
        // (same rationale as the search path).
        let cap = (segmentation.members(seg).len() * routed.len()) as f32;
        let contribution = decode_log_card(o, cap);
        total += contribution;
        per_segment.push((seg, routed, o, contribution));
    }
    (total, per_segment)
}

/// Runs one local model with sum-pooled query/centroid embeddings over the
/// routed member rows; returns the head output (`ln card` of the segment).
fn pooled_head_forward(
    local: &mut BranchNet,
    xq: &Matrix,
    aux: &Matrix,
    routed: &[usize],
    tau: f32,
    tau_scale: f32,
) -> f32 {
    let xq_routed = xq.gather_rows(routed);
    let xc_routed = aux.gather_rows(routed);
    let zq = local.forward_branch(0, &xq_routed).sum_rows();
    let zt = {
        let xt = Matrix::from_row(&tau_features(tau, tau_scale));
        local.forward_branch(1, &xt)
    };
    let zc = local.forward_branch(2, &xc_routed).sum_rows();
    let concat = Matrix::hconcat(&[&zq, &zt, &zc]);
    local.forward_head(&concat).get(0, 0)
}

/// Backprop for one segment of the join model, mirroring
/// [`pooled_head_forward`] (which must have been the model's most recent
/// forward pass).
fn pooled_head_backward(local: &mut BranchNet, routed_len: usize, grad_out: f32) {
    let g = Matrix::from_row(&[grad_out]);
    let gconcat = local.backward_head(&g);
    let widths = local.branch_out_dims().to_vec();
    let parts = gconcat.hsplit(&widths);
    // Sum pooling distributes the gradient identically to every member row.
    let expand = |m: &Matrix, rows: usize| {
        let mut out = Matrix::zeros(rows, m.cols());
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(m.row(0));
        }
        out
    };
    local.backward_branch(0, &expand(&parts[0], routed_len));
    local.backward_branch(1, &parts[1]);
    local.backward_branch(2, &expand(&parts[2], routed_len));
}

/// One fine-tuning step of the global-local join model on one join set.
// The slot-take `expect`s encode a real invariant — each segment is
// routed at most once per step — and a violation must abort training
// rather than silently corrupt two jobs' exclusive borrows.
#[allow(clippy::expect_used)]
fn finetune_gl_step(
    gl: &mut GlEstimator,
    queries: &VectorData,
    set: &JoinSet,
    loss_fn: &HybridLoss,
    opts: &mut [Adam],
    threads: usize,
) {
    let (total, per_segment) = gl_join_forward(gl, queries, &set.query_ids, set.tau, threads);
    if per_segment.is_empty() {
        return;
    }
    let pred_log = (total.max(1e-3)).ln();
    let (_, grad) = loss_fn.eval(&[pred_log], &[set.card]);
    let g_total = grad[0] / total.max(1e-3);
    // d total / d o_i = exp(o_i) while the cap is inactive (the capped
    // branch has zero derivative); each local's forward caches are still
    // those of gl_join_forward, so its backward sees matching activations.
    //
    // Each touched segment owns its net and optimizer, so backward + Adam
    // step fan out with no cross-segment state; slot-take turns the two
    // slices into per-job exclusive borrows.
    let locals = gl.locals_mut();
    let mut slots: Vec<Option<&mut BranchNet>> = locals.iter_mut().map(Some).collect();
    let mut opt_slots: Vec<Option<&mut Adam>> = opts.iter_mut().map(Some).collect();
    let mut jobs = Vec::new();
    for &(seg, ref routed, o, contribution) in &per_segment {
        let uncapped = decode_log_card(o, f32::INFINITY);
        if contribution < uncapped {
            continue; // cap active: no gradient flows
        }
        let g_o = g_total * uncapped;
        // cardest-lint: allow(serving-panic-reachability): the routing pass de-duplicates segments; a second take would alias a local model
        let local = slots[seg].take().expect("segment routed at most once");
        // cardest-lint: allow(serving-panic-reachability): the routing pass de-duplicates segments; a second take would alias a local model
        let opt = opt_slots[seg].take().expect("segment routed at most once");
        jobs.push((seg, (local, opt, routed.len(), g_o), routed.len()));
    }
    fan_exclusive(
        jobs,
        threads,
        |_seg, (local, opt, routed_len, g_o): (_, _, _, f32)| {
            pooled_head_backward(local, routed_len, g_o);
            opt.step(&mut local.params_mut());
            local.apply_constraints();
        },
    );
}

/// Forward pass of the CNNJoin model: sum-pool query and sample-distance
/// embeddings over all members, one head evaluation.
fn single_join_forward(
    qes: &mut QesEstimator,
    metric: Metric,
    _data: &VectorData,
    queries: &VectorData,
    member_ids: &[usize],
    tau: f32,
) -> (f32, usize) {
    let (xq, xd) = single_join_features(qes, metric, queries, member_ids);
    let net = qes.net_mut();
    let zq = net.forward_branch(0, &xq).sum_rows();
    let zt = net.forward_branch(1, &Matrix::from_row(&[tau]));
    let zd = net.forward_branch(2, &xd).sum_rows();
    let concat = Matrix::hconcat(&[&zq, &zt, &zd]);
    let o = net.forward_head(&concat).get(0, 0);
    // Cap at the trivial bound |Q|·|D|.
    let cap = (member_ids.len() * _data.len()) as f32;
    (decode_log_card(o, cap), member_ids.len())
}

/// One fine-tuning step of CNNJoin on one join set.
fn finetune_single_step(
    qes: &mut QesEstimator,
    metric: Metric,
    data: &VectorData,
    queries: &VectorData,
    set: &JoinSet,
    loss_fn: &HybridLoss,
    opt: &mut Adam,
) {
    let (total, n_members) =
        single_join_forward(qes, metric, data, queries, &set.query_ids, set.tau);
    let pred_log = total.max(1e-3).ln();
    let (_, grad) = loss_fn.eval(&[pred_log], &[set.card]);
    // total = exp(o) → d pred_log/d o = 1.
    let g_o = grad[0];
    let net = qes.net_mut();
    let g = Matrix::from_row(&[g_o]);
    let gconcat = net.backward_head(&g);
    let widths = net.branch_out_dims().to_vec();
    let parts = gconcat.hsplit(&widths);
    let expand = |m: &Matrix, rows: usize| {
        let mut out = Matrix::zeros(rows, m.cols());
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(m.row(0));
        }
        out
    };
    net.backward_branch(0, &expand(&parts[0], n_members));
    net.backward_branch(1, &parts[1]);
    net.backward_branch(2, &expand(&parts[2], n_members));
    opt.step(&mut net.params_mut());
    net.apply_constraints();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::{JoinWorkload, SearchWorkload};
    use cardest_nn::metrics::ErrorSummary;
    use cardest_nn::trainer::TrainConfig;

    fn tiny(seed: u64) -> (VectorData, SearchWorkload, JoinWorkload, DatasetSpec) {
        let spec = DatasetSpec {
            n_data: 700,
            n_train_queries: 60,
            n_test_queries: 20,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(seed);
        let w = SearchWorkload::build(&data, &spec, seed);
        let j = JoinWorkload::build(&w, 24, 6, seed);
        (data, w, j, spec)
    }

    fn fast_join_cfg(variant: JoinVariant) -> JoinConfig {
        let mut cfg = JoinConfig::for_variant(variant);
        cfg.base.n_segments = 6;
        cfg.base.local_train = TrainConfig {
            epochs: 6,
            batch_size: 64,
            ..Default::default()
        };
        cfg.base.global_train = TrainConfig {
            epochs: 8,
            batch_size: 64,
            ..Default::default()
        };
        cfg.base.tuning = crate::tuning::TuningConfig::fast();
        cfg.base.tuning_segments = 1;
        cfg.qes.train = TrainConfig {
            epochs: 8,
            ..Default::default()
        };
        cfg
    }

    fn join_mean_qerr(est: &JoinEstimator, w: &SearchWorkload, j: &JoinWorkload) -> f32 {
        let pairs: Vec<(f32, f32)> = j.test_buckets[0]
            .iter()
            .map(|s| {
                (
                    est.estimate_join_batched(&w.queries, &s.query_ids, s.tau),
                    s.card,
                )
            })
            .collect();
        ErrorSummary::from_q_errors(&pairs).mean
    }

    #[test]
    fn gljoin_trains_and_estimates_finite_totals() {
        let (data, w, j, spec) = tiny(121);
        let training = TrainingSet::new(&w.queries, &w.train);
        let est = JoinEstimator::train(
            &data,
            spec.metric,
            &training,
            &w.table,
            &j.train,
            &fast_join_cfg(JoinVariant::GlJoin),
        );
        let err = join_mean_qerr(&est, &w, &j);
        assert!(err.is_finite() && err >= 1.0);
        // Join estimates should beat trivially answering 0.
        let zero: Vec<(f32, f32)> = j.test_buckets[0].iter().map(|s| (0.0, s.card)).collect();
        assert!(err < ErrorSummary::from_q_errors(&zero).mean);

        // Sum pooling folds the set size into the aggregated embedding
        // (§4: "it can easily generalize both the size and distribution of
        // the join query set"), so repeating the members must change the
        // pooled estimate — unlike mean pooling, which would be invariant.
        let ids: Vec<usize> = (60..70).collect(); // test-pool queries
        let tau = j.test_buckets[0][0].tau;
        let single = est.estimate_join_batched(&w.queries, &ids, tau);
        let doubled: Vec<usize> = ids.iter().chain(&ids).copied().collect();
        let double = est.estimate_join_batched(&w.queries, &doubled, tau);
        assert!(
            (double - single).abs() > 1e-6,
            "sum-pooled estimate ignored set size: {single} == {double}"
        );
        // And the estimate is deterministic for a fixed set.
        let again = est.estimate_join_batched(&w.queries, &ids, tau);
        assert_eq!(single, again);
    }

    #[test]
    fn cnnjoin_pools_and_estimates() {
        let (data, w, j, spec) = tiny(122);
        let training = TrainingSet::new(&w.queries, &w.train);
        let est = JoinEstimator::train(
            &data,
            spec.metric,
            &training,
            &w.table,
            &j.train,
            &fast_join_cfg(JoinVariant::CnnJoin),
        );
        let set = &j.test_buckets[0][0];
        let e = est.estimate_join_batched(&w.queries, &set.query_ids, set.tau);
        assert!(e.is_finite() && e >= 0.0);
        assert_eq!(est.name(), "CNNJoin");
    }
}
