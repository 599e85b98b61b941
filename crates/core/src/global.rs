//! The global discriminative model `G` of §3.3 and Fig. 5.
//!
//! Given a query `x_q`, a threshold `x_τ` and the centroid-distance
//! feature `x_C`, the global model outputs one probability per data
//! segment: the likelihood the segment contains objects within `τ` of the
//! query. It is trained with the cardinality-weighted BCE of §3.3
//! (Algorithm 2): positive labels are up-weighted by `1 + ε^{j}[i]`, where
//! `ε` is the min-max-normalized per-segment cardinality — the "penalty"
//! that keeps the model from missing segments holding most of the answer
//! (ablated in Exp-6/Fig. 9).
//!
//! At estimation time a segment is *selected* when its probability
//! exceeds `sigma` (default 0.5; the discretization lives outside the
//! differentiable model, §5.1 "Global Discriminative Module").

use crate::arch::{
    build_aux_branch, build_global_head, build_query_branch, build_threshold_branch, tau_features,
    ModelDims, QueryEmbed, TAU_DIM,
};
use crate::gl::SampleInputs;
use crate::labels::SegmentLabels;
use cardest_baselines::traits::TrainingSet;
use cardest_data::workload::SearchSample;
use cardest_nn::net::BranchNet;
use cardest_nn::trainer::{train_global_classifier, TrainConfig, TrainReport};
use cardest_nn::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Global model hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalConfig {
    pub query_embed: QueryEmbed,
    pub dims: ModelDims,
    /// Selection cut-off σ on the output probability.
    pub sigma: f32,
    /// Apply the cardinality penalty (`1 + ε`) to positive labels. `false`
    /// is the "No Penalty" ablation of Exp-6.
    pub penalty: bool,
    pub train: TrainConfig,
}

impl GlobalConfig {
    pub fn new(query_embed: QueryEmbed) -> Self {
        GlobalConfig {
            query_embed,
            dims: ModelDims::default(),
            sigma: 0.5,
            penalty: true,
            train: TrainConfig::default(),
        }
    }
}

/// The trained global model.
#[derive(Clone, Serialize, Deserialize)]
pub struct GlobalModel {
    net: BranchNet,
    sigma: f32,
    n_segments: usize,
    tau_scale: f32,
    radii: Vec<f32>,
}

impl GlobalModel {
    /// Trains the global model on per-segment selection labels
    /// (Algorithm 2) over `inputs`, whose radii and τ scale it keeps for
    /// serving.
    pub fn train(
        inputs: &SampleInputs<'_>,
        labels: &SegmentLabels,
        cfg: &GlobalConfig,
        seed: u64,
    ) -> (Self, TrainReport) {
        let dim = inputs.dim();
        let n_segments = labels.n_segments();
        let aux_dim = 2 * n_segments;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6_10B);
        let bq = build_query_branch(&mut rng, dim, &cfg.query_embed, cfg.dims.embed_q);
        let bt = build_threshold_branch(&mut rng, TAU_DIM, cfg.dims.embed_t);
        let bc = build_aux_branch(&mut rng, aux_dim, cfg.dims.embed_aux);
        let concat = cfg.dims.embed_q + cfg.dims.embed_t + cfg.dims.embed_aux;
        let head = build_global_head(&mut rng, concat, cfg.dims.hidden, n_segments);
        let mut model = GlobalModel {
            net: BranchNet::new(vec![bq, bt, bc], vec![dim, TAU_DIM, aux_dim], head),
            sigma: cfg.sigma,
            n_segments,
            tau_scale: inputs.tau_scale,
            radii: inputs.radii.clone(),
        };
        let report = model.fit(inputs, labels, cfg.penalty, &cfg.train);
        (model, report)
    }

    /// Trains the network (fresh, or warm when fine-tuning) for `tcfg`'s
    /// schedule on the selection labels `R^{j}` of the samples in
    /// `inputs`, positives weighted by `1 + ε^{j}` when `penalty` is on.
    pub(crate) fn fit(
        &mut self,
        inputs: &SampleInputs<'_>,
        labels: &SegmentLabels,
        penalty: bool,
        tcfg: &TrainConfig,
    ) -> TrainReport {
        let n_segments = self.n_segments;
        let mut build = |idx: &[usize]| {
            let mut lab = Matrix::zeros(idx.len(), n_segments);
            let mut wts = Matrix::zeros(idx.len(), n_segments);
            for (r, &j) in idx.iter().enumerate() {
                let weights = if penalty {
                    labels.minmax_weights(j)
                } else {
                    vec![0.0; n_segments]
                };
                for (i, &w) in weights.iter().enumerate().take(n_segments) {
                    lab.set(r, i, if labels.selected(j, i) { 1.0 } else { 0.0 });
                    wts.set(r, i, w);
                }
            }
            (inputs.inputs(idx), lab, wts)
        };
        train_global_classifier(&mut self.net, inputs.samples.len(), &mut build, tcfg)
    }

    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    /// The selection cut-off σ.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// Per-segment selection probabilities for a query batch in one forward
    /// pass through the shared-model inference path: row `r` of the result
    /// holds query `r`'s probabilities.
    /// `xq` is `[B, dim]`, `xc` is `[B, n_segments]` centroid distances.
    pub fn probabilities_batch(&self, xq: &Matrix, taus: &[f32], xc: &Matrix) -> Matrix {
        assert_eq!(xq.rows(), taus.len(), "one τ per query required");
        let mut t = Matrix::zeros(taus.len(), TAU_DIM);
        let mut aux = Matrix::zeros(taus.len(), 2 * self.n_segments);
        for (r, &tau) in taus.iter().enumerate() {
            t.row_mut(r)
                .copy_from_slice(&tau_features(tau, self.tau_scale));
            crate::gl::aux_features_into(xc.row(r), &self.radii, tau, aux.row_mut(r));
        }
        cardest_nn::scratch::with_thread_scratch(|scratch| {
            let p = self.net.infer(&[xq, &t, &aux], scratch);
            // Detach from the pool: callers keep the matrix.
            let out = p.clone();
            scratch.recycle(p);
            out
        })
    }

    /// The discretized selection (the "Global Discriminative Module") for
    /// a query batch: row `r` flags the segments whose probability for
    /// query `r` exceeds σ — for a join query set, the indicating matrix
    /// `M` of §4.
    pub fn select_batch(&self, xq: &Matrix, taus: &[f32], xc: &Matrix) -> Vec<Vec<bool>> {
        let probs = self.probabilities_batch(xq, taus, xc);
        (0..probs.rows())
            .map(|r| probs.row(r).iter().map(|&p| p > self.sigma).collect())
            .collect()
    }

    pub fn param_bytes(&self) -> usize {
        self.net.param_bytes()
    }
}

/// The *missing rate* of Fig. 9/Exp-6: the fraction of true cardinality
/// that falls in segments the global model did **not** select, averaged
/// over samples with non-zero cardinality.
pub fn missing_rate(
    global: &GlobalModel,
    training: &TrainingSet<'_>,
    labels: &SegmentLabels,
    xq_cache: &[Vec<f32>],
    xc_cache: &[Vec<f32>],
) -> f32 {
    // Samples with a match, with their per-segment cardinalities.
    let counted: Vec<(&SearchSample, &[f32], f32)> = training
        .samples
        .iter()
        .enumerate()
        .map(|(j, s)| (s, labels.row(j), labels.row(j).iter().sum()))
        .filter(|&(_, _, card)| card > 0.0)
        .collect();
    if counted.is_empty() {
        return 0.0;
    }
    let xq: Vec<&[f32]> = counted
        .iter()
        .map(|(s, ..)| &xq_cache[s.query][..])
        .collect();
    let xc: Vec<&[f32]> = counted
        .iter()
        .map(|(s, ..)| &xc_cache[s.query][..])
        .collect();
    let taus: Vec<f32> = counted.iter().map(|(s, ..)| s.tau).collect();
    let selected = global.select_batch(&Matrix::from_rows(&xq), &taus, &Matrix::from_rows(&xc));
    let total: f64 = counted
        .iter()
        .zip(&selected)
        .map(|(&(_, row, card), sel)| {
            let missed: f32 = row
                .iter()
                .zip(sel)
                .filter(|(_, &sel)| !sel)
                .map(|(&c, _)| c)
                .sum();
            (missed / card) as f64
        })
        .sum();
    (total / counted.len() as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gl::build_feature_caches;
    use cardest_cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;

    struct Fixture {
        w: SearchWorkload,
        seg: Segmentation,
        labels: SegmentLabels,
        xq: Vec<Vec<f32>>,
        xc: Vec<Vec<f32>>,
    }

    fn fixture(seed: u64) -> Fixture {
        let spec = DatasetSpec {
            n_data: 600,
            n_train_queries: 60,
            n_test_queries: 20,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(seed);
        let w = SearchWorkload::build(&data, &spec, seed);
        let seg = Segmentation::fit(
            &data,
            spec.metric,
            &SegmentationConfig {
                n_segments: 6,
                pca_rank: 4,
                pca_iters: 6,
                method: SegmentationMethod::PcaKMeans,
                seed,
            },
        );
        let labels = SegmentLabels::compute(&w.table, &w.train, &seg);
        let (xq, xc) = build_feature_caches(&w.queries, &seg);
        Fixture {
            w,
            seg,
            labels,
            xq,
            xc,
        }
    }

    fn train_with(f: &Fixture, penalty: bool, seed: u64) -> GlobalModel {
        let inputs = SampleInputs::new(&f.w.train, &f.xq, &f.xc, &f.seg);
        let cfg = GlobalConfig {
            penalty,
            train: TrainConfig {
                epochs: 18,
                ..Default::default()
            },
            ..GlobalConfig::new(QueryEmbed::Mlp { hidden: 24 })
        };
        GlobalModel::train(&inputs, &f.labels, &cfg, seed).0
    }

    #[test]
    fn trained_global_model_beats_select_all_precision_with_low_missing() {
        let f = fixture(91);
        let g = train_with(&f, true, 91);
        let training = TrainingSet::new(&f.w.queries, &f.w.train);
        let miss = missing_rate(&g, &training, &f.labels, &f.xq, &f.xc);
        assert!(miss < 0.5, "missing rate {miss} too high");
        // The selection must actually prune something on average.
        let samples = &f.w.train[..f.w.train.len().min(100)];
        let xq: Vec<&[f32]> = samples.iter().map(|s| &f.xq[s.query][..]).collect();
        let xc: Vec<&[f32]> = samples.iter().map(|s| &f.xc[s.query][..]).collect();
        let taus: Vec<f32> = samples.iter().map(|s| s.tau).collect();
        let sel = g.select_batch(&Matrix::from_rows(&xq), &taus, &Matrix::from_rows(&xc));
        let selected = sel.iter().flatten().filter(|&&b| b).count();
        let total = sel.iter().map(Vec::len).sum::<usize>();
        assert!(
            selected < total,
            "global model selects every segment for every query"
        );
    }

    #[test]
    fn probabilities_are_valid_and_batch_matches_single() {
        let f = fixture(92);
        let g = train_with(&f, true, 92);
        let s = &f.w.train[3];
        let xq = Matrix::from_row(&f.xq[s.query]);
        let xc = Matrix::from_row(&f.xc[s.query]);
        let probs = g.probabilities_batch(&xq, &[s.tau], &xc);
        assert_eq!(probs.cols(), g.n_segments());
        assert!(probs.as_slice().iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn penalty_reduces_missing_rate() {
        // Exp-6: adding the penalty reduces cardinality missing. Averaged
        // over the training queries this should hold at our scale too;
        // allow equality for robustness on a tiny fixture.
        let f = fixture(93);
        let with = train_with(&f, true, 93);
        let without = train_with(&f, false, 93);
        let training = TrainingSet::new(&f.w.queries, &f.w.train);
        let m_with = missing_rate(&with, &training, &f.labels, &f.xq, &f.xc);
        let m_without = missing_rate(&without, &training, &f.labels, &f.xq, &f.xc);
        assert!(
            m_with <= m_without * 1.2 + 0.02,
            "penalty should not hurt missing rate: with={m_with} without={m_without}"
        );
    }
}
