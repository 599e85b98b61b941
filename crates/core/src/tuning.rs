//! Algorithm 3 (§5.2): greedy hyperparameter tuning for the query
//! embedding CNN of a local model.
//!
//! The tunable tuple per conv layer is
//! `Θ = {θ_ch, θ_ker, θ_stri, θ_pad, θ_pker, θ_op}` with
//! `θ_op ∈ {MAX, AVG, SUM}`. The search is greedy twice over:
//!
//! 1. *cold start* — 3 random single-layer configurations; the best (by
//!    validation error after a short trial training) seeds the model,
//! 2. *coordinate descent* — each of the 6 hyperparameters is updated in
//!    turn until the inner relative improvement drops below 2%,
//! 3. *layer growth* — a new layer is appended and tuned the same way;
//!    the outer loop stops when appending stops improving by ≥ 2%.
//!
//! Trials train on a random subsample (the paper uses 1000 train / 200
//! validation queries) so a tuning run costs a bounded number of short
//! trainings. Each trial builds, trains and scores a local as phase 1
//! does (its net shape, [`SampleInputs`] and [`fit_local`]), so the
//! embedding is chosen on the model that is deployed.

use crate::arch::{ModelDims, QueryEmbed};
use crate::gl::{fit_local, SampleInputs};
use crate::labels::SegmentLabels;
use cardest_nn::layers::{Conv1d, ConvSpec, PoolOp};
use cardest_nn::metrics::{decode_log_card, q_error};
use cardest_nn::scratch::with_thread_scratch;
use cardest_nn::trainer::TrainConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Tuning budget and trial-training settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningConfig {
    /// Trial training subset size (Algorithm 3 line 1).
    pub train_samples: usize,
    /// Validation subset size (line 2).
    pub val_samples: usize,
    /// Cold-start candidates (line 4; the paper uses 3).
    pub init_configs: usize,
    /// Maximum conv layers to grow.
    pub max_layers: usize,
    /// Relative-improvement stopping criterion (2% in the paper).
    pub rel_improvement: f32,
    /// Hard cap on trial trainings per tuning run (the greedy loops of
    /// Algorithm 3 are otherwise unbounded); the best-so-far wins when the
    /// budget runs out.
    pub max_evals: usize,
    /// Short training used for each trial.
    pub trial_train: TrainConfig,
}

impl Default for TuningConfig {
    fn default() -> Self {
        TuningConfig {
            train_samples: 1000,
            val_samples: 200,
            init_configs: 3,
            max_layers: 3,
            rel_improvement: 0.02,
            max_evals: 30,
            trial_train: TrainConfig {
                epochs: 8,
                batch_size: 64,
                ..Default::default()
            },
        }
    }
}

impl TuningConfig {
    /// A heavily reduced budget for tests.
    pub fn fast() -> Self {
        TuningConfig {
            train_samples: 150,
            val_samples: 50,
            init_configs: 2,
            max_layers: 2,
            max_evals: 8,
            trial_train: TrainConfig {
                epochs: 3,
                batch_size: 64,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Output shape (channels, length) of a conv stack applied to a
/// `1 × dim` query vector.
fn stack_shape(dim: usize, layers: &[ConvSpec]) -> (usize, usize) {
    let (mut ch, mut len) = (1usize, dim);
    for spec in layers {
        debug_assert!(Conv1d::spec_fits(len, spec));
        let conv_len = (len + 2 * spec.padding - spec.kernel) / spec.stride.max(1) + 1;
        len = conv_len.div_ceil(spec.pool_size.max(1));
        ch = spec.out_channels;
    }
    (ch, len)
}

/// Candidate values for each hyperparameter, filtered to fit `in_len`.
// `choose` on non-empty literal arrays cannot fail.
#[allow(clippy::expect_used)]
fn candidate_specs(rng: &mut StdRng, in_len: usize) -> Option<ConvSpec> {
    if in_len == 0 {
        return None;
    }
    let kernels: Vec<usize> = [in_len.div_ceil(8), in_len.div_ceil(4), 3, 5, 2]
        .into_iter()
        .filter(|&k| k >= 1 && k <= in_len)
        .collect();
    let kernel = *kernels.choose(rng)?;
    let stride = *[kernel, (kernel / 2).max(1), 1]
        .choose(rng)
        .expect("non-empty stride candidates");
    let spec = ConvSpec {
        out_channels: *[2usize, 4, 8].choose(rng).expect("non-empty"),
        kernel,
        stride,
        padding: *[0usize, kernel / 2].choose(rng).expect("non-empty"),
        pool_size: *[1usize, 2, 4].choose(rng).expect("non-empty"),
        pool: *[PoolOp::Max, PoolOp::Avg, PoolOp::Sum]
            .choose(rng)
            .expect("non-empty"),
    };
    Conv1d::spec_fits(in_len, &spec).then_some(spec)
}

/// Neighbouring values to try while coordinate-descending one field.
fn field_candidates(field: usize, current: &ConvSpec, in_len: usize) -> Vec<ConvSpec> {
    let mut out = Vec::new();
    let mut push = |s: ConvSpec| {
        if Conv1d::spec_fits(in_len, &s) && s.stride >= 1 && s.out_channels >= 1 {
            out.push(s);
        }
    };
    match field {
        0 => {
            for ch in [2usize, 4, 8, 16] {
                push(ConvSpec {
                    out_channels: ch,
                    ..*current
                });
            }
        }
        1 => {
            for k in [
                current.kernel.saturating_sub(2).max(1),
                current.kernel + 2,
                current.kernel * 2,
                (current.kernel / 2).max(1),
            ] {
                push(ConvSpec {
                    kernel: k,
                    stride: current.stride.min(k),
                    ..*current
                });
            }
        }
        2 => {
            for s in [1usize, (current.kernel / 2).max(1), current.kernel] {
                push(ConvSpec {
                    stride: s,
                    ..*current
                });
            }
        }
        3 => {
            for p in [0usize, current.kernel / 2, current.kernel.saturating_sub(1)] {
                push(ConvSpec {
                    padding: p,
                    ..*current
                });
            }
        }
        4 => {
            for ps in [1usize, 2, 4] {
                push(ConvSpec {
                    pool_size: ps,
                    ..*current
                });
            }
        }
        _ => {
            for op in [PoolOp::Max, PoolOp::Avg, PoolOp::Sum] {
                push(ConvSpec {
                    pool: op,
                    ..*current
                });
            }
        }
    }
    out
}

/// Trains a trial local on `train_idx` as phase 1 trains a deployed one
/// (the same net shape and inputs, [`fit_local`]) with the given conv
/// stack, and returns its mean validation Q-error on `segment`'s targets.
#[allow(clippy::too_many_arguments)]
fn evaluate_stack(
    layers: &[ConvSpec],
    inputs: &SampleInputs<'_>,
    labels: &SegmentLabels,
    segment: usize,
    train_idx: &[usize],
    val_idx: &[usize],
    dims: &ModelDims,
    cfg: &TuningConfig,
    seed: u64,
) -> f32 {
    let embed = QueryEmbed::Cnn {
        layers: layers.to_vec(),
    };
    let mut net = inputs.new_local(&embed, dims, seed);
    let mut tcfg = cfg.trial_train;
    tcfg.seed = seed;
    fit_local(&mut net, inputs, labels, segment, train_idx, &tcfg);

    // Validation mean Q-error, from one batched forward.
    let x = inputs.inputs(val_idx);
    let total: f64 = with_thread_scratch(|scratch| {
        let out = net.infer(&[&x[0], &x[1], &x[2]], scratch);
        let total = val_idx
            .iter()
            .enumerate()
            .map(|(r, &j)| {
                let pred = decode_log_card(out.get(r, 0), f32::INFINITY);
                q_error(pred, labels.card(j, segment)) as f64
            })
            .sum();
        scratch.recycle(out);
        total
    });
    (total / val_idx.len().max(1) as f64) as f32
}

/// Runs Algorithm 3 for `segment`'s local model, returning the tuned query
/// embedding and its validation error. Trials train on a subset of
/// `inputs`' samples against their `card^{j}[segment]` targets, with the
/// deployed locals' `dims`.
pub fn tune_query_embedding(
    inputs: &SampleInputs<'_>,
    labels: &SegmentLabels,
    segment: usize,
    dims: &ModelDims,
    cfg: &TuningConfig,
    seed: u64,
) -> (QueryEmbed, f32) {
    let dim = inputs.dim();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x704E);
    // Lines 1–2: random trial subsets.
    let mut all: Vec<usize> = (0..inputs.samples.len()).collect();
    all.shuffle(&mut rng);
    let n_train = cfg.train_samples.min(all.len().saturating_sub(1)).max(1);
    let n_val = cfg.val_samples.min(all.len() - n_train).max(1);
    let (train_idx, rest) = all.split_at(n_train);
    let val_idx = &rest[..n_val];

    let eval_counter = std::cell::Cell::new(0u64);
    let eval = |layers: &[ConvSpec]| {
        eval_counter.set(eval_counter.get() + 1);
        evaluate_stack(
            layers,
            inputs,
            labels,
            segment,
            train_idx,
            val_idx,
            dims,
            cfg,
            seed.wrapping_add(eval_counter.get()),
        )
    };

    let mut model: Vec<ConvSpec> = Vec::new();
    let mut error = f32::INFINITY;
    let budget = cfg.max_evals.max(cfg.init_configs);
    for _layer in 0..cfg.max_layers {
        if eval_counter.get() >= budget as u64 {
            break;
        }
        let (_, in_len) = stack_shape(dim, &model);
        if in_len < 2 {
            break;
        }
        // Lines 3–6: cold-start candidates for this layer.
        let mut best: Option<(ConvSpec, f32)> = None;
        for _ in 0..cfg.init_configs.max(1) {
            let Some(spec) = candidate_specs(&mut rng, in_len) else {
                continue;
            };
            let mut trial = model.clone();
            trial.push(spec);
            let e = eval(&trial);
            if best.as_ref().is_none_or(|(_, b)| e < *b) {
                best = Some((spec, e));
            }
        }
        let Some((mut theta, mut theta_err)) = best else {
            break;
        };
        // Lines 9–11: coordinate descent over the 6 hyperparameters.
        loop {
            let before = theta_err;
            for field in 0..6 {
                if eval_counter.get() >= budget as u64 {
                    break;
                }
                for cand in field_candidates(field, &theta, in_len) {
                    if cand == theta {
                        continue;
                    }
                    let mut trial = model.clone();
                    trial.push(cand);
                    let e = eval(&trial);
                    if e < theta_err {
                        theta_err = e;
                        theta = cand;
                    }
                }
            }
            if eval_counter.get() >= budget as u64
                || (before - theta_err) / before.max(1e-9) < cfg.rel_improvement
            {
                break;
            }
        }
        // Line 7: outer stopping criterion.
        if (error - theta_err) / error.max(1e-9) < cfg.rel_improvement && !model.is_empty() {
            break;
        }
        if theta_err < error {
            model.push(theta);
            error = theta_err;
        } else {
            break;
        }
    }
    if model.is_empty() {
        // Fall back to the default segmentation CNN.
        let embed = QueryEmbed::default_cnn(dim, 8);
        let e = if let QueryEmbed::Cnn { layers } = &embed {
            eval(layers)
        } else {
            error
        };
        return (embed, e);
    }
    (QueryEmbed::Cnn { layers: model }, error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gl::build_feature_caches;
    use cardest_cluster::segmentation::{Segmentation, SegmentationConfig};
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;

    #[test]
    fn stack_shape_tracks_layers() {
        let l1 = ConvSpec {
            out_channels: 4,
            kernel: 8,
            stride: 8,
            padding: 0,
            pool_size: 1,
            pool: PoolOp::Avg,
        };
        let l2 = ConvSpec {
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
            pool_size: 2,
            pool: PoolOp::Max,
        };
        assert_eq!(stack_shape(64, &[l1]), (4, 8));
        assert_eq!(stack_shape(64, &[l1, l2]), (2, 4));
    }

    #[test]
    fn candidates_always_fit() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [4usize, 7, 16, 64, 300] {
            for _ in 0..50 {
                if let Some(spec) = candidate_specs(&mut rng, len) {
                    assert!(Conv1d::spec_fits(len, &spec), "{spec:?} at len {len}");
                }
            }
        }
    }

    #[test]
    fn field_candidates_preserve_fit() {
        let base = ConvSpec {
            out_channels: 4,
            kernel: 8,
            stride: 8,
            padding: 0,
            pool_size: 1,
            pool: PoolOp::Avg,
        };
        for field in 0..6 {
            for cand in field_candidates(field, &base, 64) {
                assert!(Conv1d::spec_fits(64, &cand), "field {field}: {cand:?}");
            }
        }
    }

    #[test]
    fn tuning_returns_a_usable_embedding() {
        let spec = DatasetSpec {
            n_data: 600,
            n_train_queries: 40,
            n_test_queries: 10,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(111);
        let w = SearchWorkload::build(&data, &spec, 111);
        let seg = Segmentation::fit(
            &data,
            spec.metric,
            &SegmentationConfig {
                n_segments: 4,
                seed: 111,
                ..Default::default()
            },
        );
        let labels = SegmentLabels::compute(&w.table, &w.train, &seg);
        let (xq, xc) = build_feature_caches(&w.queries, &seg);
        let inputs = SampleInputs::new(&w.train, &xq, &xc, &seg);
        let (embed, err) = tune_query_embedding(
            &inputs,
            &labels,
            0,
            &ModelDims::default(),
            &TuningConfig::fast(),
            111,
        );
        assert!(err.is_finite() && err >= 1.0);
        match embed {
            QueryEmbed::Cnn { layers } => {
                assert!(!layers.is_empty());
                assert!(Conv1d::spec_fits(spec.dim, &layers[0]));
            }
            QueryEmbed::Mlp { .. } => panic!("tuning must return a CNN embedding"),
        }
    }
}
