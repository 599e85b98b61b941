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
//! Three variants (Table 2 rows 11–13) share one pooled pass — one input
//! assembly, one forward, one backward and one fine-tune step:
//! * **CNNJoin** — sum-pooled query-segmentation embeddings, *no* data
//!   segmentation: the pass over one model (QES's net), every member
//!   routed to it,
//! * **GLJoin** — global-local with MLP query embeddings,
//! * **GLJoin+** — global-local with the tuned CNN embeddings of GL+.
//!
//! The global-local variants take their member rows from the search
//! model's serving inputs (`GlEstimator::batch_inputs`).

use crate::gl::{BatchInputs, GlConfig, GlEstimator, GlVariant};
use crate::qes::{QesConfig, QesEstimator};
use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_data::metric::Metric;
use cardest_data::vector::{VectorData, VectorView};
use cardest_data::workload::JoinSet;
use cardest_nn::lanes::LaneError;
use cardest_nn::loss::HybridLoss;
use cardest_nn::metrics::decode_log_card;
use cardest_nn::net::BranchNet;
use cardest_nn::optim::Adam;
use cardest_nn::parallel::{fan_exclusive, resolve_threads};
use cardest_nn::trainer::BatchIter;
use cardest_nn::{Matrix, Scratch};
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
    /// CNNJoin: one QES model over the whole dataset.
    Single(QesEstimator),
    /// GLJoin / GLJoin+: a transferred global-local model.
    GlobalLocal(GlEstimator),
}

impl JoinBackend {
    /// The models the pooled pass runs: the local models, or CNNJoin's
    /// one QES net.
    fn nets(&self) -> &[BranchNet] {
        match self {
            JoinBackend::GlobalLocal(gl) => gl.locals(),
            JoinBackend::Single(qes) => std::slice::from_ref(qes.net()),
        }
    }

    /// Puts fine-tuned copies of [`JoinBackend::nets`] in their place; a
    /// global-local model repacks its locals for search serving
    /// ([`GlEstimator::retrain_locals`]).
    fn set_nets(&mut self, nets: Vec<BranchNet>) -> Result<(), LaneError> {
        match self {
            JoinBackend::GlobalLocal(gl) => gl.retrain_locals(|locals| {
                for (local, net) in locals.iter_mut().zip(nets) {
                    *local = net;
                }
            }),
            JoinBackend::Single(qes) => {
                for net in nets {
                    *qes.net_mut() = net;
                }
                Ok(())
            }
        }
    }
}

/// A trained join estimator.
pub struct JoinEstimator {
    variant: JoinVariant,
    backend: JoinBackend,
}

impl JoinEstimator {
    /// Trains a search model, transfers it to the join setting and
    /// fine-tunes the output modules on labelled join sets. Fails only if
    /// the fine-tuned locals no longer pack as lanes
    /// ([`GlEstimator::retrain_locals`]).
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        data: &VectorData,
        metric: Metric,
        training: &TrainingSet<'_>,
        table: &cardest_data::ground_truth::DistanceTable,
        join_train: &[JoinSet],
        cfg: &JoinConfig,
    ) -> Result<Self, LaneError> {
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
                    backend: JoinBackend::Single(qes),
                }
            }
        };
        est.finetune(training.queries, join_train, cfg)?;
        Ok(est)
    }

    /// Builds a join estimator directly from an already-trained search
    /// model (the transfer path of §4), fine-tuning on join sets. Fails as
    /// [`JoinEstimator::train`] does.
    pub fn from_search_model(
        gl: GlEstimator,
        queries: &VectorData,
        join_train: &[JoinSet],
        cfg: &JoinConfig,
    ) -> Result<Self, LaneError> {
        let mut est = JoinEstimator {
            variant: cfg.variant,
            backend: JoinBackend::GlobalLocal(gl),
        };
        est.finetune(queries, join_train, cfg)?;
        Ok(est)
    }

    pub fn variant(&self) -> JoinVariant {
        self.variant
    }

    /// Fine-tunes on labelled join sets for the configured 2–3 epochs.
    /// Building a set's inputs reads the model, so the steps train copies
    /// of its nets, which then take the models' place.
    fn finetune(
        &mut self,
        queries: &VectorData,
        join_train: &[JoinSet],
        cfg: &JoinConfig,
    ) -> Result<(), LaneError> {
        if join_train.is_empty() || cfg.finetune_epochs == 0 {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x70_17);
        let loss_fn = HybridLoss::default();
        let threads = resolve_threads(cfg.base.local_train.threads);
        // CNNJoin's one pooled output over 50–100 members often starts
        // above its `|Q|·|D|` cap, where no gradient would leave it stuck.
        let through_cap = matches!(self.backend, JoinBackend::Single(_));
        // One optimizer per model keeps Adam state aligned even though each
        // join set touches a different subset of the local models.
        let mut nets = self.backend.nets().to_vec();
        let mut opts: Vec<Adam> = nets.iter().map(|_| Adam::new(cfg.finetune_lr)).collect();
        for _ in 0..cfg.finetune_epochs {
            for idx in BatchIter::new(&mut rng, join_train.len(), 1) {
                for set in idx.iter().filter_map(|&i| join_train.get(i)) {
                    if let Some(x) = self.set_inputs(queries, &set.query_ids, set.tau) {
                        finetune_step(
                            &mut nets,
                            &mut opts,
                            &x,
                            set.card,
                            &loss_fn,
                            threads,
                            through_cap,
                        );
                    }
                }
            }
        }
        self.backend.set_nets(nets)
    }

    /// Batched join estimate (Fig. 6): one sum-pooled output-module run per
    /// model that any member routes to. Immutable — runs on the inference
    /// path, so a trained join model can be shared across serving threads.
    pub fn estimate_join_batched(
        &self,
        queries: &VectorData,
        member_ids: &[usize],
        tau: f32,
    ) -> f32 {
        let Some(x) = self.set_inputs(queries, member_ids, tau) else {
            return 0.0;
        };
        cardest_nn::scratch::with_thread_scratch(|scratch| {
            let mut total = 0.0f32;
            for (net, group) in self.backend.nets().iter().zip(&x.groups) {
                if !group.routed.is_empty() {
                    let o = pooled_infer(net, &x, &group.routed, scratch);
                    total += decode_log_card(o, group.cap());
                }
            }
            total
        })
    }

    /// Assembles the pooled pass's inputs for one join set: the member rows
    /// and, per model, the members routed to it. `None` for an empty set,
    /// which has no pairs.
    ///
    /// GLJoin and GLJoin+ route each member with the global model (the
    /// indicating matrix `M` of mask-based routing; without a global model
    /// every member reaches every segment), and a segment holds at most
    /// `|D_seg|` pairs per routed member. CNNJoin routes every member to
    /// its one model over `x_D`, at most `|D|` pairs each.
    pub(crate) fn set_inputs(
        &self,
        queries: &VectorData,
        member_ids: &[usize],
        tau: f32,
    ) -> Option<SetInputs> {
        if member_ids.is_empty() {
            return None;
        }
        let m = member_ids.len();
        let inputs = match &self.backend {
            JoinBackend::GlobalLocal(gl) => {
                let batch: Vec<(VectorView<'_>, f32)> =
                    member_ids.iter().map(|&q| (queries.view(q), tau)).collect();
                let BatchInputs { xq, xcd, xt, aux } = gl.batch_inputs(&batch);
                let segmentation = gl.segmentation();
                let mut groups: Vec<Group> = (0..gl.n_segments())
                    .map(|seg| Group {
                        routed: Vec::new(),
                        per_member: segmentation.members(seg).len(),
                    })
                    .collect();
                let mask = match gl.global() {
                    Some(g) => g.select_batch(&xq, &vec![tau; m], &xcd),
                    None => vec![vec![true; groups.len()]; m],
                };
                for (r, row) in mask.iter().enumerate() {
                    for (group, _) in groups.iter_mut().zip(row).filter(|(_, &sel)| sel) {
                        group.routed.push(r);
                    }
                }
                SetInputs {
                    xq,
                    xt: Matrix::from_row(xt.row(0)),
                    aux,
                    groups,
                }
            }
            JoinBackend::Single(qes) => {
                let dim = queries.dim();
                let mut xq = Matrix::zeros(m, dim);
                let mut xd = Matrix::zeros(m, qes.samples().len());
                let mut buf = Vec::with_capacity(dim);
                for (r, &qid) in member_ids.iter().enumerate() {
                    let view = queries.view(qid);
                    view.write_dense(&mut buf);
                    xq.row_mut(r).copy_from_slice(&buf);
                    qes.sample_distances_into(view, xd.row_mut(r));
                }
                SetInputs {
                    xq,
                    xt: Matrix::from_row(&[tau]),
                    aux: xd,
                    groups: vec![Group {
                        routed: (0..m).collect(),
                        per_member: qes.n_data(),
                    }],
                }
            }
        };
        Some(inputs)
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
    fn estimate(&self, q: VectorView<'_>, tau: f32) -> f32 {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.estimate(q, tau),
            JoinBackend::Single(qes) => qes.estimate(q, tau),
        }
    }

    fn estimate_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<f32> {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.estimate_batch(queries),
            JoinBackend::Single(qes) => qes.estimate_batch(queries),
        }
    }

    fn estimate_join(&self, queries: &VectorData, member_ids: &[usize], tau: f32) -> f32 {
        self.estimate_join_batched(queries, member_ids, tau)
    }

    fn model_bytes(&self) -> usize {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.model_bytes(),
            JoinBackend::Single(qes) => qes.model_bytes(),
        }
    }

    fn expected_dim(&self) -> Option<usize> {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.expected_dim(),
            JoinBackend::Single(qes) => qes.expected_dim(),
        }
    }

    fn tau_bound(&self) -> Option<f32> {
        match &self.backend {
            JoinBackend::GlobalLocal(gl) => gl.tau_bound(),
            JoinBackend::Single(qes) => qes.tau_bound(),
        }
    }
}

/// One join set as inputs of the three branches: each member's query row
/// `x_q` and third-branch row (the overlap features of a local model, or
/// CNNJoin's sample distances `x_D`), the one τ row, and one [`Group`] per
/// model.
pub(crate) struct SetInputs {
    pub(crate) xq: Matrix,
    pub(crate) xt: Matrix,
    pub(crate) aux: Matrix,
    groups: Vec<Group>,
}

/// The members routed to one model (a column of `Mᵀ`, ascending) and the
/// most pairs one member can add there.
struct Group {
    routed: Vec<usize>,
    per_member: usize,
}

impl Group {
    /// The trivial bound on the group's pairs. It guards against log-space
    /// extrapolation blowups, as on the search path.
    fn cap(&self) -> f32 {
        (self.per_member * self.routed.len()) as f32
    }
}

/// The sum-pooled pass of one model over its routed members (Fig. 6):
/// embed their query and third-branch rows, sum-pool each, and run the
/// output module once on `z_q ⊕ z_τ ⊕ z_aux`. Returns the raw `ln card`
/// output. Immutable, with temporaries from `scratch`.
fn pooled_infer(net: &BranchNet, x: &SetInputs, routed: &[usize], scratch: &mut Scratch) -> f32 {
    let eq = net.infer_branch(0, &x.xq.gather_rows(routed), scratch);
    let zq = eq.sum_rows();
    scratch.recycle(eq);
    let zt = net.infer_branch(1, &x.xt, scratch);
    let ea = net.infer_branch(2, &x.aux.gather_rows(routed), scratch);
    let za = ea.sum_rows();
    scratch.recycle(ea);
    let out = net.infer_head(&Matrix::hconcat(&[&zq, &zt, &za]), scratch);
    let o = out.get(0, 0);
    scratch.recycle(zt);
    scratch.recycle(out);
    o
}

/// [`pooled_infer`] on the training path: the same math, caching what
/// [`pooled_backward`] needs.
fn pooled_forward(net: &mut BranchNet, x: &SetInputs, routed: &[usize]) -> f32 {
    let zq = net.forward_branch(0, &x.xq.gather_rows(routed)).sum_rows();
    let zt = net.forward_branch(1, &x.xt);
    let za = net.forward_branch(2, &x.aux.gather_rows(routed)).sum_rows();
    net.forward_head(&Matrix::hconcat(&[&zq, &zt, &za]))
        .get(0, 0)
}

/// Back-propagates `grad_out` (d loss / d output) through the most recent
/// [`pooled_forward`] of `net` over `members` routed rows.
fn pooled_backward(net: &mut BranchNet, members: usize, grad_out: f32) {
    let gconcat = net.backward_head(&Matrix::from_row(&[grad_out]));
    let [gq, gt, ga] = &gconcat.hsplit(net.branch_out_dims())[..] else {
        return;
    };
    // Sum pooling hands every member row the pooled gradient.
    let expand = |g: &Matrix| Matrix::from_rows(&vec![g.row(0); members]);
    net.backward_branch(0, &expand(gq));
    net.backward_branch(1, gt);
    net.backward_branch(2, &expand(ga));
}

/// One fine-tuning step on one join set: every routed model's pooled
/// forward, the hybrid loss on the summed estimate, then a pooled backward
/// and an Adam step for each model the gradient reaches. Models fan out
/// across `threads`, and the estimate is summed in ascending model order,
/// so the step is bit-identical for every thread count.
///
/// With `through_cap` (CNNJoin: one model whose output is the whole
/// estimate, so d ln total / d o = 1) the loss gradient reaches the output
/// even through an active cap. Otherwise (the GL locals) d total / d o =
/// exp(o) while a model's cap is inactive, and an active cap passes no
/// gradient.
fn finetune_step(
    nets: &mut [BranchNet],
    opts: &mut [Adam],
    x: &SetInputs,
    card: f32,
    loss_fn: &HybridLoss,
    threads: usize,
    through_cap: bool,
) {
    // The routed count is the scheduling weight: a pass is linear in it.
    let jobs: Vec<_> = nets
        .iter_mut()
        .zip(opts.iter_mut())
        .zip(&x.groups)
        .enumerate()
        .filter(|(_, (_, group))| !group.routed.is_empty())
        .map(|(i, ((net, opt), group))| (i, (net, opt, group), group.routed.len()))
        .collect();
    // Each forward hands its model and optimizer back for the backward fan.
    let passes = fan_exclusive(
        jobs,
        threads,
        |_, (net, opt, group): (&mut BranchNet, &mut Adam, &Group)| {
            let o = pooled_forward(net, x, &group.routed);
            let contribution = decode_log_card(o, group.cap());
            (net, opt, group.routed.len(), o, contribution)
        },
    );
    let total = passes.iter().fold(0.0f32, |t, (_, (.., c))| t + c);
    let pred_log = total.max(1e-3).ln();
    let (_, grad) = loss_fn.eval(&[pred_log], &[card]);
    let [g] = grad[..] else {
        return;
    };
    let g_total = g / total.max(1e-3);
    let jobs: Vec<_> = passes
        .into_iter()
        .filter_map(|(i, (net, opt, members, o, contribution))| {
            let g_o = if through_cap {
                g
            } else {
                let uncapped = decode_log_card(o, f32::INFINITY);
                (contribution >= uncapped).then_some(g_total * uncapped)?
            };
            Some((i, (net, opt, members, g_o), members))
        })
        .collect();
    fan_exclusive(
        jobs,
        threads,
        |_, (net, opt, members, g_o): (&mut BranchNet, &mut Adam, usize, f32)| {
            pooled_backward(net, members, g_o);
            opt.step(&mut net.params_mut());
            net.apply_constraints();
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::{JoinWorkload, SearchWorkload};
    use cardest_nn::metrics::ErrorSummary;
    use cardest_nn::trainer::TrainConfig;
    use rand::Rng;

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
        )
        .unwrap();
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
    fn join_finetuning_repacks_the_search_path() {
        let (data, w, j, spec) = tiny(123);
        let training = TrainingSet::new(&w.queries, &w.train);
        let cfg = fast_join_cfg(JoinVariant::GlJoin);
        let base = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg.base);
        let join =
            JoinEstimator::from_search_model(base.clone(), &w.queries, &j.train, &cfg).unwrap();
        let gl = join.gl().unwrap();
        let probes: Vec<(VectorView<'_>, f32)> = w
            .test
            .iter()
            .map(|s| (w.queries.view(s.query), s.tau))
            .collect();
        let bits = |est: &GlEstimator| -> Vec<u32> {
            est.estimate_batch(&probes)
                .iter()
                .map(|e| e.to_bits())
                .collect()
        };
        let served = bits(gl);
        assert_ne!(served, bits(&base), "join fine-tuning moved no estimate");
        // A reload packs the fine-tuned locals afresh.
        let reloaded = GlEstimator::from_json(&gl.to_json().unwrap()).unwrap();
        assert_eq!(served, bits(&reloaded));
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
        )
        .unwrap();
        let set = &j.test_buckets[0][0];
        let e = est.estimate_join_batched(&w.queries, &set.query_ids, set.tau);
        assert!(e.is_finite() && e >= 0.0);
        assert_eq!(est.name(), "CNNJoin");
        // Over one member the pooled pass is QES's own forward.
        let q = set.query_ids[0];
        let one = est.estimate_join_batched(&w.queries, &[q], set.tau);
        let point = est.estimate(w.queries.view(q), set.tau);
        assert!(
            (one - point).abs() <= 1e-6 * point.abs(),
            "one-member join {one} vs point estimate {point}"
        );
        // An empty set has no pairs.
        assert_eq!(est.estimate_join_batched(&w.queries, &[], set.tau), 0.0);
    }

    /// A random 3-member set for `net`, every member routed to one model
    /// that holds `per_member` pairs per member.
    fn random_set(net: &BranchNet, tau_row: &[f32], per_member: usize) -> SetInputs {
        let mut rng = StdRng::seed_from_u64(5);
        let mut random = |cols: usize| {
            let v = (0..3 * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            Matrix::from_vec(3, cols, v)
        };
        SetInputs {
            xq: random(net.in_dims()[0]),
            xt: Matrix::from_row(tau_row),
            aux: random(net.in_dims()[2]),
            groups: vec![Group {
                routed: vec![0, 1, 2],
                per_member,
            }],
        }
    }

    /// Checks [`pooled_backward`]'s parameter gradients against central
    /// differences of [`pooled_forward`] over a 3-member set.
    fn assert_pooled_gradients_match(mut net: BranchNet, tau_row: &[f32]) {
        let x = random_set(&net, tau_row, 1);
        let routed = [0, 1, 2];
        net.zero_grads();
        pooled_forward(&mut net, &x, &routed);
        pooled_backward(&mut net, routed.len(), 1.0);
        let analytic: Vec<Vec<f32>> = net.params_mut().iter().map(|p| p.grads.to_vec()).collect();
        let params = net.snapshot_params();
        let h = 3e-4;
        let mut checked = 0;
        for (t, grads) in analytic.iter().enumerate() {
            for i in (0..grads.len()).step_by(7) {
                let mut at = |delta: f32| {
                    let mut p = params.clone();
                    p[t][i] += delta;
                    net.restore_params(&p);
                    pooled_forward(&mut net, &x, &routed)
                };
                let fd = (at(h) - at(-h)) / (2.0 * h);
                let an = grads[i];
                assert!(
                    (fd - an).abs() / fd.abs().max(an.abs()).max(1.0) < 2e-2,
                    "tensor {t}[{i}]: finite difference {fd}, backward {an}"
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} parameters checked");
    }

    #[test]
    fn pooled_backward_matches_finite_differences_on_a_local_model() {
        let (dim, n_seg) = (24, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let net = crate::arch::build_regressor(
            &mut rng,
            dim,
            crate::arch::TAU_DIM,
            2 * n_seg,
            &crate::arch::QueryEmbed::default_cnn(dim, 4),
            &crate::arch::ModelDims::default(),
        );
        assert_pooled_gradients_match(net, &crate::arch::tau_features(0.3, 0.5));
    }

    #[test]
    fn pooled_backward_matches_finite_differences_on_a_qes_net() {
        use cardest_baselines::sample_distance::SampleDistanceConfig;
        let (dim, k) = (24, 8);
        let mut rng = StdRng::seed_from_u64(4);
        let net = QesConfig::default().build_net(dim, k, &mut rng);
        assert_pooled_gradients_match(net, &[0.3]);
    }

    /// CNNJoin's pooled output over 50–100 members often starts above its
    /// `|Q|·|D|` cap; fine-tuning must still pull it down to the label. A
    /// GL local's active cap passes no gradient.
    #[test]
    fn finetuning_moves_a_capped_pooled_output_toward_the_label() {
        use cardest_baselines::sample_distance::SampleDistanceConfig;
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = QesConfig::default().build_net(24, 8, &mut rng);
        // Three members, one pair each: the cap is 3 pairs. Shift the output
        // bias so the pooled output starts 3 nats above it.
        let x = random_set(&net, &[0.3], 1);
        let routed = [0, 1, 2];
        let cap = 3.0f32;
        let o = pooled_forward(&mut net, &x, &routed);
        let mut params = net.snapshot_params();
        if let Some(bias) = params.last_mut() {
            bias[0] += cap.ln() + 3.0 - o;
        }
        net.restore_params(&params);
        let start = pooled_forward(&mut net, &x, &routed);
        assert_eq!(
            decode_log_card(start, cap),
            cap,
            "output {start} is not capped"
        );
        let (label, loss) = (1.0, HybridLoss::default());

        let mut local = [net.clone()];
        finetune_step(
            &mut local,
            &mut [Adam::new(1e-2)],
            &x,
            label,
            &loss,
            1,
            false,
        );
        assert_eq!(local[0].snapshot_params(), params);

        let mut nets = [net];
        let mut opts = [Adam::new(1e-2)];
        let mut last = start;
        for step in 1..=100 {
            finetune_step(&mut nets, &mut opts, &x, label, &loss, 1, true);
            let [net] = &mut nets;
            let o = pooled_forward(net, &x, &routed);
            assert!(o < last, "step {step}: output {o} did not fall from {last}");
            last = o;
            if decode_log_card(o, cap) < cap {
                return;
            }
        }
        panic!("the estimate never left its cap: output {start} -> {last}");
    }
}
