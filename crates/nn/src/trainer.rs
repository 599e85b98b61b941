//! Mini-batch scheduling utilities shared by every training loop in the
//! workspace (Algorithms 1 and 2 of the paper both iterate epochs over
//! shuffled mini-batches).
//!
//! # Parallelism and determinism
//!
//! Both training loops are data-parallel: every mini-batch is split into
//! fixed-size row shards ([`GRAD_SHARD_ROWS`]) whose gradients are computed
//! independently (on per-shard model replicas when more than one thread is
//! available) and reduced into the master network in ascending shard order.
//! Because layer backward passes *accumulate* into zeroed gradient buffers
//! and the shard partition depends only on the batch size — never on the
//! thread count — the summed gradient, and therefore the trained weights,
//! are bit-identical for any `threads` setting given the same seed.
//!
//! # Failure recovery
//!
//! The loops snapshot a lightweight [`Checkpoint`] (weights + optimizer
//! state + epoch) every [`TrainConfig::checkpoint_every`] epochs. When a
//! batch produces a non-finite loss or an exploding gradient norm, the
//! epoch is abandoned *before* the optimizer step: weights and optimizer
//! roll back to the last checkpoint, the learning rate is halved, and
//! training resumes from the checkpointed epoch. Recoveries are surfaced in
//! [`TrainReport::recoveries`]; if more than
//! [`TrainConfig::max_recoveries`] rollbacks happen, training stops at the
//! checkpoint and sets [`TrainReport::diverged`] instead of silently
//! returning a garbage model.

use crate::loss::{weighted_bce_partial, HybridLoss};
use crate::net::BranchNet;
use crate::optim::Adam;
use crate::parallel::resolve_threads;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Rows per gradient shard. The shard partition of a mini-batch is derived
/// from this constant and the batch size alone, so the reduction order (and
/// the resulting weights) never depend on how many threads execute the
/// shards.
pub const GRAD_SHARD_ROWS: usize = 16;

/// Yields shuffled index mini-batches for one epoch.
///
/// The caller owns the sample storage; batches are index lists so that
/// training loops can gather whatever per-sample features they need (query
/// vectors, thresholds, distance vectors, per-segment labels) without
/// copying the dataset.
pub struct BatchIter {
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIter {
    /// Creates a shuffled epoch over `n` samples.
    pub fn new<R: Rng>(rng: &mut R, n: usize, batch_size: usize) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        BatchIter {
            order,
            batch_size: batch_size.max(1),
            cursor: 0,
        }
    }

    /// Number of batches in the epoch.
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }
}

impl Iterator for BatchIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let batch = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }
}

/// Early-stopping tracker used by every training loop (Algorithm 3 stops on
/// a 2% relative-improvement criterion).
///
/// # Patience semantics
///
/// `patience` is the number of *consecutive* non-improving checks that are
/// tolerated: the stopper returns `true` on the `patience + 1`-th stale
/// check in a row (so `patience = 0` stops on the first plateau). A check
/// counts as an improvement only when the error drops by at least
/// `min_rel_improvement` relative to the best error seen so far; improving
/// checks reset the stale counter.
///
/// A non-finite error (NaN/Inf) stops immediately: it can never improve the
/// best error, and a model emitting NaN will not heal by training further —
/// recoverable divergence is the trainer's checkpoint guard's job, which
/// runs before the stopper ever sees a loss.
#[derive(Debug, Clone)]
pub struct EarlyStopper {
    best: f32,
    stale: usize,
    patience: usize,
    min_rel_improvement: f32,
}

impl EarlyStopper {
    pub fn new(patience: usize, min_rel_improvement: f32) -> Self {
        EarlyStopper {
            best: f32::INFINITY,
            stale: 0,
            patience,
            min_rel_improvement,
        }
    }

    /// Records a validation error; returns `true` when training should stop.
    pub fn should_stop(&mut self, error: f32) -> bool {
        if !error.is_finite() {
            // Exhaust the patience on first sight — see the struct docs.
            self.stale = self.patience + 1;
            return true;
        }
        let improved = if self.best.is_finite() {
            (self.best - error) / self.best.max(1e-12) >= self.min_rel_improvement
        } else {
            true
        };
        if improved {
            self.best = error;
            self.stale = 0;
        } else {
            self.stale += 1;
        }
        self.stale > self.patience
    }

    pub fn best(&self) -> f32 {
        self.best
    }
}

/// Shared configuration for the two training loops below (Algorithms 1
/// and 2 of the paper both run epoch/mini-batch gradient descent).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    /// λ in the hybrid loss (regression only).
    pub lambda: f32,
    /// Multiplied into the learning rate after each epoch.
    pub lr_decay: f32,
    /// Stop when the epoch loss plateaus for this many epochs (relative
    /// improvement below 2%, matching Algorithm 3's criterion).
    pub patience: usize,
    pub seed: u64,
    /// Worker threads for data-parallel gradient shards; `0` defers to the
    /// process-wide knob ([`crate::parallel::set_train_threads`]). The
    /// trained weights are identical for every value — see the module docs.
    pub threads: usize,
    /// Take a recovery [`Checkpoint`] every this many completed epochs.
    pub checkpoint_every: usize,
    /// A gradient norm above this (or any non-finite loss/gradient) counts
    /// as divergence and triggers a rollback to the last checkpoint.
    pub max_grad_norm: f32,
    /// Give up (and report [`TrainReport::diverged`]) after this many
    /// rollbacks.
    pub max_recoveries: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 40,
            batch_size: 64,
            learning_rate: 1e-3,
            lambda: 0.5,
            lr_decay: 0.98,
            patience: 5,
            seed: 0,
            threads: 0,
            checkpoint_every: 5,
            max_grad_norm: 1e6,
            max_recoveries: 3,
        }
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs attempted, including any that were rolled back.
    pub epochs_run: usize,
    pub final_loss: f32,
    /// Checkpoint rollbacks taken after a non-finite loss or an exploding
    /// gradient (each halves the learning rate before resuming).
    pub recoveries: usize,
    /// Training hit [`TrainConfig::max_recoveries`] and stopped at the last
    /// checkpoint instead of finishing the schedule.
    pub diverged: bool,
}

/// A lightweight training checkpoint: a weight snapshot, the optimizer
/// state, and the epoch it was taken at. Taken every
/// [`TrainConfig::checkpoint_every`] epochs and restored by the divergence
/// guard.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    params: Vec<Vec<f32>>,
    opt: Adam,
    epoch: usize,
}

impl Checkpoint {
    pub fn take(net: &BranchNet, opt: &Adam, epoch: usize) -> Self {
        Checkpoint {
            params: net.snapshot_params(),
            opt: opt.clone(),
            epoch,
        }
    }

    /// Restores the snapshot into `net` and `opt`.
    pub fn restore(&self, net: &mut BranchNet, opt: &mut Adam) {
        net.restore_params(&self.params);
        *opt = self.opt.clone();
    }

    pub fn epoch(&self) -> usize {
        self.epoch
    }
}

/// Trains a [`BranchNet`] regressor with the hybrid MAPE + λ·Q-error loss
/// of §3.1 (Algorithm 1). The network's single output is interpreted as
/// `ln card`.
///
/// One regression mini-batch: per-branch input matrices plus the true
/// cardinalities.
pub type RegressionBatch = (Vec<Matrix>, Vec<f32>);

/// One classifier mini-batch: per-branch inputs plus the `B × n_segments`
/// 0/1 label matrix `R` and min-max weight matrix `ε`.
pub type ClassifierBatch = (Vec<Matrix>, Matrix, Matrix);

/// The fixed shard partition of a `rows`-sample batch: contiguous
/// [`GRAD_SHARD_ROWS`]-row ranges, independent of the thread count.
fn shard_ranges(rows: usize) -> Vec<(usize, usize)> {
    (0..rows)
        .step_by(GRAD_SHARD_ROWS)
        .map(|r0| (r0, (r0 + GRAD_SHARD_ROWS).min(rows)))
        .collect()
}

/// Copies rows `r0..r1` of `m` into an owned matrix.
fn rows_of(m: &Matrix, r0: usize, r1: usize) -> Matrix {
    let c = m.cols();
    Matrix::from_vec(r1 - r0, c, m.as_slice()[r0 * c..r1 * c].to_vec())
}

/// Squared L2 norm of the accumulated gradient, summed in deterministic
/// parameter order.
fn grad_norm_sq(net: &mut BranchNet) -> f64 {
    net.params_mut()
        .iter()
        .flat_map(|p| p.grads.iter())
        .map(|&g| g as f64 * g as f64)
        .sum()
}

/// Adds `rep`'s accumulated gradients into `net`'s (one f32 add per scalar)
/// and zeroes `rep`'s accumulators for the next shard/batch.
/// Per-shard loss evaluation: `(pred, r0, r1)` → the unnormalized f64 loss
/// sum over rows `r0..r1` plus per-sample gradients already averaged over
/// the full batch.
type ShardLoss<'a> = dyn Fn(&Matrix, usize, usize) -> (f64, Vec<f32>) + Sync + 'a;

/// One mini-batch step: `(net, replicas, threads, idx)` → mean batch loss.
type ForwardBackward<'a> =
    dyn FnMut(&mut BranchNet, &mut Vec<BranchNet>, usize, &[usize]) -> f64 + 'a;

fn reduce_grads(net: &mut BranchNet, rep: &mut BranchNet) {
    let mut master = net.params_mut();
    let mut rp = rep.params_mut();
    for (mp, r) in master.iter_mut().zip(rp.iter_mut()) {
        for (g, rg) in mp.grads.iter_mut().zip(r.grads.iter_mut()) {
            *g += *rg;
            *rg = 0.0;
        }
    }
}

/// One data-parallel forward/backward over a mini-batch.
///
/// The batch is cut into the fixed shard partition of [`shard_ranges`];
/// `shard_loss(pred, r0, r1)` must return the unnormalized f64 loss sum
/// over the shard plus per-sample gradients already averaged over the
/// *full* batch (see [`HybridLoss::eval_partial`]). Every shard's gradient
/// is accumulated into a zeroed replica buffer and then reduced into `net`
/// with exactly one add per scalar, in ascending shard order — so the
/// floating-point association of the summed gradient is fixed and the
/// result is bit-identical for any `threads`. Returns the f64 loss sum
/// over the whole batch.
// `expect` propagates shard-worker panics (`join()` idiom); the replica
// pool is sized to `threads` before either branch runs.
#[allow(clippy::expect_used)]
fn sharded_forward_backward(
    net: &mut BranchNet,
    replicas: &mut Vec<BranchNet>,
    threads: usize,
    inputs: &[Matrix],
    rows: usize,
    shard_loss: &ShardLoss<'_>,
) -> f64 {
    let shards = shard_ranges(rows);
    let run_shard = |model: &mut BranchNet, r0: usize, r1: usize| -> f64 {
        let shard_inputs: Vec<Matrix> = inputs.iter().map(|m| rows_of(m, r0, r1)).collect();
        let refs: Vec<&Matrix> = shard_inputs.iter().collect();
        let pred = model.forward(&refs);
        let (loss_sum, grad) = shard_loss(&pred, r0, r1);
        let gmat = Matrix::from_vec(pred.rows(), pred.cols(), grad);
        model.backward(&gmat);
        loss_sum
    };
    if shards.len() <= 1 {
        // A single shard accumulates straight into `net` — the same
        // association for every thread count.
        let mut total = 0.0f64;
        for &(r0, r1) in &shards {
            total += run_shard(net, r0, r1);
        }
        return total;
    }
    let n_replicas = if threads <= 1 { 1 } else { shards.len() };
    while replicas.len() < n_replicas {
        let mut r = net.clone();
        r.zero_grads();
        replicas.push(r);
    }
    for r in replicas[..n_replicas].iter_mut() {
        r.copy_params_from(net);
    }
    if threads <= 1 {
        // One replica walks the shards in order; reducing after each shard
        // gives the same per-scalar association ((0 + c₀) + c₁) + … as the
        // parallel reduction below.
        // cardest-lint: allow(serving-panic-reachability): replicas has exactly `threads >= 1` entries by construction a few lines up
        let (rep, _) = replicas.split_first_mut().expect("replica exists");
        let mut total = 0.0f64;
        for &(r0, r1) in &shards {
            total += run_shard(rep, r0, r1);
            reduce_grads(net, rep);
        }
        return total;
    }
    let workers = threads.min(shards.len());
    let per = shards.len().div_ceil(workers);
    let mut shard_losses = vec![0.0f64; shards.len()];
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (w, (reps, ranges)) in replicas[..shards.len()]
            .chunks_mut(per)
            .zip(shards.chunks(per))
            .enumerate()
        {
            let run_shard = &run_shard;
            handles.push((
                w,
                s.spawn(move || {
                    reps.iter_mut()
                        .zip(ranges)
                        .map(|(rep, &(r0, r1))| run_shard(rep, r0, r1))
                        .collect::<Vec<f64>>()
                }),
            ));
        }
        for (w, h) in handles {
            // cardest-lint: allow(serving-panic-reachability): standard join() idiom — re-raise a worker panic on the caller thread
            let losses = h.join().expect("gradient shard worker panicked");
            for (k, ls) in losses.into_iter().enumerate() {
                shard_losses[w * per + k] = ls;
            }
        }
    });
    // Fixed-order reduction: shard 0, then 1, then 2, … regardless of which
    // worker computed what. Replica gradients are zeroed for the next batch.
    for rep in replicas[..shards.len()].iter_mut() {
        reduce_grads(net, rep);
    }
    // Same summation order as the single-thread path above.
    shard_losses.iter().sum()
}

/// Per-epoch shuffle seed. Rollback re-runs an epoch with the exact RNG it
/// had the first time, so recovery stays deterministic.
fn epoch_rng_seed(base: u64, epoch: usize) -> u64 {
    base ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The shared epoch/checkpoint/divergence loop behind both trainers.
///
/// `forward_backward(net, replicas, threads, idx)` computes the sharded
/// forward/backward for one mini-batch and returns the mean batch loss;
/// this loop owns the optimizer, the divergence guard, and early stopping.
fn train_loop(
    net: &mut BranchNet,
    n_samples: usize,
    cfg: &TrainConfig,
    seed_salt: u64,
    forward_backward: &mut ForwardBackward<'_>,
) -> TrainReport {
    let threads = resolve_threads(cfg.threads);
    let mut replicas: Vec<BranchNet> = Vec::new();
    let mut opt = Adam::new(cfg.learning_rate);
    let mut stopper = EarlyStopper::new(cfg.patience, 0.02);
    let mut epoch_loss = f32::INFINITY;
    let mut epochs_run = 0usize;
    let mut recoveries = 0usize;
    let mut diverged = false;
    // Cumulative LR cut applied on top of the checkpointed LR; compounds
    // across repeated rollbacks to the same checkpoint and resets when a
    // fresh checkpoint is taken.
    let mut lr_cut = 1.0f32;
    let ckpt_every = cfg.checkpoint_every.max(1);
    let max_grad_norm_sq = (cfg.max_grad_norm as f64) * (cfg.max_grad_norm as f64);
    let mut ckpt = Checkpoint::take(net, &opt, 0);
    let mut epoch = 0usize;
    while epoch < cfg.epochs {
        epochs_run += 1;
        let mut rng = StdRng::seed_from_u64(epoch_rng_seed(cfg.seed ^ seed_salt, epoch));
        let mut total = 0.0f64;
        let mut batches = 0usize;
        let mut bad = false;
        for idx in BatchIter::new(&mut rng, n_samples, cfg.batch_size) {
            let batch_loss = forward_backward(net, &mut replicas, threads, &idx);
            let gn2 = grad_norm_sq(net);
            if !batch_loss.is_finite() || !gn2.is_finite() || gn2 > max_grad_norm_sq {
                bad = true;
                break;
            }
            opt.step(&mut net.params_mut());
            net.apply_constraints();
            total += batch_loss;
            batches += 1;
        }
        if bad {
            recoveries += 1;
            net.zero_grads();
            ckpt.restore(net, &mut opt);
            if recoveries > cfg.max_recoveries {
                diverged = true;
                break;
            }
            lr_cut *= 0.5;
            opt.set_learning_rate(opt.learning_rate() * lr_cut);
            epoch = ckpt.epoch();
            continue;
        }
        epoch_loss = (total / batches.max(1) as f64) as f32;
        opt.set_learning_rate(opt.learning_rate() * cfg.lr_decay);
        epoch += 1;
        if stopper.should_stop(epoch_loss) {
            break;
        }
        if epoch < cfg.epochs && epoch % ckpt_every == 0 {
            ckpt = Checkpoint::take(net, &opt, epoch);
            lr_cut = 1.0;
        }
    }
    TrainReport {
        epochs_run,
        final_loss: epoch_loss,
        recoveries,
        diverged,
    }
}

/// `build_batch` maps a shuffled index mini-batch to the per-branch input
/// matrices and the true cardinalities; the caller owns all feature
/// construction (distance vectors, thresholds, …).
pub fn train_branch_regression(
    net: &mut BranchNet,
    n_samples: usize,
    build_batch: &mut dyn FnMut(&[usize]) -> RegressionBatch,
    cfg: &TrainConfig,
) -> TrainReport {
    let loss_fn = HybridLoss {
        lambda: cfg.lambda,
        ..HybridLoss::default()
    };
    train_loop(
        net,
        n_samples,
        cfg,
        0x7EA1_0001,
        &mut |net, replicas, threads, idx| {
            let (inputs, cards) = build_batch(idx);
            let rows = idx.len();
            let shard_loss = |pred: &Matrix, r0: usize, r1: usize| {
                debug_assert_eq!(pred.cols(), 1, "regressor must have one output");
                loss_fn.eval_partial(pred.as_slice(), &cards[r0..r1], rows)
            };
            let sum = sharded_forward_backward(net, replicas, threads, &inputs, rows, &shard_loss);
            sum / rows.max(1) as f64
        },
    )
}

/// Trains the global discriminative model (Algorithm 2): the network's
/// outputs are per-segment selection probabilities, trained with the
/// cardinality-weighted BCE of §3.3.
///
/// `build_batch` returns the per-branch inputs plus two `B × n_segments`
/// matrices: the 0/1 labels `R` and the min-max weights `ε`.
pub fn train_global_classifier(
    net: &mut BranchNet,
    n_samples: usize,
    build_batch: &mut dyn FnMut(&[usize]) -> ClassifierBatch,
    cfg: &TrainConfig,
) -> TrainReport {
    train_loop(
        net,
        n_samples,
        cfg,
        0x7EA1_0002,
        &mut |net, replicas, threads, idx| {
            let (inputs, labels, weights) = build_batch(idx);
            let rows = idx.len();
            let segs = labels.cols();
            let norm = rows * segs;
            let shard_loss = |probs: &Matrix, r0: usize, r1: usize| {
                debug_assert_eq!(probs.cols(), segs, "one probability per segment");
                weighted_bce_partial(
                    probs.as_slice(),
                    &labels.as_slice()[r0 * segs..r1 * segs],
                    &weights.as_slice()[r0 * segs..r1 * segs],
                    norm,
                )
            };
            let sum = sharded_forward_backward(net, replicas, threads, &inputs, rows, &shard_loss);
            sum / norm.max(1) as f64
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batches_cover_every_index_exactly_once() {
        let mut rng = StdRng::seed_from_u64(1);
        let it = BatchIter::new(&mut rng, 10, 3);
        assert_eq!(it.num_batches(), 4);
        let mut seen: Vec<usize> = it.flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batch_iter_is_deterministic_per_seed() {
        let a: Vec<Vec<usize>> = BatchIter::new(&mut StdRng::seed_from_u64(7), 8, 4).collect();
        let b: Vec<Vec<usize>> = BatchIter::new(&mut StdRng::seed_from_u64(7), 8, 4).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn early_stopper_stops_on_plateau() {
        let mut es = EarlyStopper::new(2, 0.02);
        assert!(!es.should_stop(1.0));
        assert!(!es.should_stop(0.5)); // big improvement
        assert!(!es.should_stop(0.499)); // < 2% improvement → stale 1
        assert!(!es.should_stop(0.498)); // stale 2
        assert!(es.should_stop(0.498)); // stale 3 > patience
        assert_eq!(es.best(), 0.5);
    }

    #[test]
    fn early_stopper_stops_immediately_on_non_finite_loss() {
        // Even with patience to spare, the first NaN must stop training:
        // NaN can never improve the best error, and recoverable divergence
        // is handled by the checkpoint guard before the stopper runs.
        let mut es = EarlyStopper::new(3, 0.02);
        assert!(!es.should_stop(1.0));
        assert!(es.should_stop(f32::NAN));
        let mut es = EarlyStopper::new(1, 0.02);
        assert!(es.should_stop(f32::INFINITY));
    }

    use crate::activation::Activation;
    use crate::layers::{Dense, Layer, ShiftSigmoid};
    use crate::net::{BranchNet, Sequential};

    fn synth_regression(n: usize) -> (Vec<[f32; 2]>, Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(42);
        use rand::Rng;
        let xs: Vec<[f32; 2]> = (0..n)
            .map(|_| [rng.gen_range(0.0..1.5f32), rng.gen_range(0.0..1.5f32)])
            .collect();
        let taus: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0f32)).collect();
        let cards: Vec<f32> = xs
            .iter()
            .zip(&taus)
            .map(|(x, t)| {
                crate::metrics::decode_log_card(2.0 * x[0] + t, f32::MAX)
                    .round()
                    .max(1.0)
            })
            .collect();
        (xs, taus, cards)
    }

    fn small_regressor(seed: u64) -> BranchNet {
        let mut init = StdRng::seed_from_u64(seed);
        let bq = Sequential::new(vec![Layer::Dense(Dense::new(
            &mut init,
            2,
            8,
            Activation::Relu,
        ))]);
        let bt = Sequential::new(vec![Layer::Dense(Dense::new_nonneg(
            &mut init,
            1,
            4,
            Activation::Relu,
        ))]);
        let head = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut init, 12, 8, Activation::Relu)),
            Layer::Dense(Dense::new(&mut init, 8, 1, Activation::Identity)),
        ]);
        BranchNet::new(vec![bq, bt], vec![2, 1], head)
    }

    /// A tiny synthetic regression: card = round(exp(2·x₀ + τ)), learnable
    /// from (x, τ) pairs. Checks the Algorithm-1 loop converges.
    #[test]
    fn branch_regression_learns_a_simple_cardinality_function() {
        let n = 256;
        let (xs, taus, cards) = synth_regression(n);
        let mut net = small_regressor(1);

        let mut build = |idx: &[usize]| {
            let xq = Matrix::from_rows(&idx.iter().map(|&i| &xs[i][..]).collect::<Vec<_>>());
            let xt = Matrix::from_vec(idx.len(), 1, idx.iter().map(|&i| taus[i]).collect());
            let c: Vec<f32> = idx.iter().map(|&i| cards[i]).collect();
            (vec![xq, xt], c)
        };
        let cfg = TrainConfig {
            epochs: 80,
            batch_size: 32,
            learning_rate: 5e-3,
            ..Default::default()
        };
        let report = train_branch_regression(&mut net, n, &mut build, &cfg);
        assert!(report.final_loss.is_finite());
        assert_eq!(report.recoveries, 0);
        assert!(!report.diverged);

        // Mean Q-error on the training points should be small.
        let (inputs, cards_all) = build(&(0..n).collect::<Vec<_>>());
        let refs: Vec<&Matrix> = inputs.iter().collect();
        let pred = net.forward(&refs);
        let mean_q: f32 = pred
            .as_slice()
            .iter()
            .zip(&cards_all)
            .map(|(&p, &c)| {
                crate::metrics::q_error(crate::metrics::decode_log_card(p, f32::MAX), c)
            })
            .sum::<f32>()
            / n as f32;
        assert!(mean_q < 2.0, "mean Q-error {mean_q} after training");
    }

    /// Same seed + same data must train to bit-identical weights whether
    /// the gradient shards run on 1, 2, or 8 threads.
    #[test]
    fn branch_regression_weights_are_thread_count_independent() {
        let n = 96;
        let (xs, taus, cards) = synth_regression(n);
        let mut flats: Vec<Vec<f32>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut net = small_regressor(9);
            let mut build = |idx: &[usize]| {
                let xq = Matrix::from_rows(&idx.iter().map(|&i| &xs[i][..]).collect::<Vec<_>>());
                let xt = Matrix::from_vec(idx.len(), 1, idx.iter().map(|&i| taus[i]).collect());
                let c: Vec<f32> = idx.iter().map(|&i| cards[i]).collect();
                (vec![xq, xt], c)
            };
            let cfg = TrainConfig {
                epochs: 4,
                batch_size: 64, // 4 shards of GRAD_SHARD_ROWS rows
                threads,
                ..Default::default()
            };
            train_branch_regression(&mut net, n, &mut build, &cfg);
            flats.push(net.flat_params());
        }
        assert_eq!(flats[0], flats[1], "T=1 vs T=2 weights differ");
        assert_eq!(flats[0], flats[2], "T=1 vs T=8 weights differ");
    }

    /// A poisoned (NaN-producing) mini-batch mid-training must trigger a
    /// rollback to the last checkpoint, after which training finishes and
    /// reports the recovery.
    #[test]
    fn trainer_recovers_from_poisoned_minibatch_via_checkpoint() {
        let n = 64;
        let (xs, taus, cards) = synth_regression(n);
        let mut net = small_regressor(5);
        let mut calls = 0usize;
        let mut poisoned = false;
        let mut build = |idx: &[usize]| {
            calls += 1;
            let xq = Matrix::from_rows(&idx.iter().map(|&i| &xs[i][..]).collect::<Vec<_>>());
            let xt = Matrix::from_vec(idx.len(), 1, idx.iter().map(|&i| taus[i]).collect());
            let mut c: Vec<f32> = idx.iter().map(|&i| cards[i]).collect();
            // One batch of epoch 2 (batches 1–2 are epoch 0, …) produces
            // NaN targets exactly once.
            if calls == 5 && !poisoned {
                poisoned = true;
                c[0] = f32::NAN;
            }
            (vec![xq, xt], c)
        };
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 32,
            checkpoint_every: 2,
            patience: 50, // don't stop early; exercise the full schedule
            ..Default::default()
        };
        let report = train_branch_regression(&mut net, n, &mut build, &cfg);
        assert!(poisoned, "the poison batch never ran");
        assert_eq!(report.recoveries, 1);
        assert!(!report.diverged);
        assert!(report.final_loss.is_finite());
        assert!(
            report.epochs_run > cfg.epochs,
            "rolled-back epochs must be re-attempted (ran {})",
            report.epochs_run
        );
        assert!(
            net.flat_params().iter().all(|w| w.is_finite()),
            "weights must be finite after recovery"
        );
    }

    /// Data that poisons every epoch exhausts `max_recoveries`: training
    /// stops at the checkpoint and reports divergence instead of looping
    /// forever or returning NaN weights.
    #[test]
    fn trainer_reports_divergence_when_recovery_keeps_failing() {
        let n = 64;
        let (xs, taus, cards) = synth_regression(n);
        let mut net = small_regressor(6);
        let mut build = |idx: &[usize]| {
            let xq = Matrix::from_rows(&idx.iter().map(|&i| &xs[i][..]).collect::<Vec<_>>());
            let xt = Matrix::from_vec(idx.len(), 1, idx.iter().map(|&i| taus[i]).collect());
            let mut c: Vec<f32> = idx.iter().map(|&i| cards[i]).collect();
            c[0] = f32::NAN; // every single batch is poisoned
            (vec![xq, xt], c)
        };
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 64,
            max_recoveries: 2,
            ..Default::default()
        };
        let report = train_branch_regression(&mut net, n, &mut build, &cfg);
        assert!(report.diverged);
        assert_eq!(report.recoveries, 3);
        assert!(
            net.flat_params().iter().all(|w| w.is_finite()),
            "divergence must leave the checkpointed weights in place"
        );
    }

    /// The Algorithm-2 loop must learn a linearly separable segment
    /// selection task.
    #[test]
    fn global_classifier_learns_separable_selection() {
        let mut rng = StdRng::seed_from_u64(43);
        use rand::Rng;
        let n = 200;
        let n_segs = 4;
        // Feature: x ∈ R⁴; label for segment i is 1 iff x[i] > 0.
        let xs: Vec<[f32; 4]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..1.0f32)))
            .collect();
        let mut init = StdRng::seed_from_u64(2);
        let b = Sequential::new(vec![Layer::Dense(Dense::new(
            &mut init,
            4,
            8,
            Activation::Tanh,
        ))]);
        let head = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut init, 8, n_segs, Activation::Identity)),
            Layer::ShiftSigmoid(ShiftSigmoid::new(n_segs)),
        ]);
        let mut net = BranchNet::new(vec![b], vec![4], head);

        let mut build = |idx: &[usize]| {
            let x = Matrix::from_rows(&idx.iter().map(|&i| &xs[i][..]).collect::<Vec<_>>());
            let mut labels = Matrix::zeros(idx.len(), n_segs);
            for (r, &i) in idx.iter().enumerate() {
                for (s, &v) in xs[i][..n_segs].iter().enumerate() {
                    labels.set(r, s, if v > 0.0 { 1.0 } else { 0.0 });
                }
            }
            let weights = Matrix::zeros(idx.len(), n_segs);
            (vec![x], labels, weights)
        };
        let cfg = TrainConfig {
            epochs: 120,
            batch_size: 32,
            learning_rate: 1e-2,
            ..Default::default()
        };
        train_global_classifier(&mut net, n, &mut build, &cfg);

        // Accuracy at the 0.5 cut must be high.
        let (inputs, labels, _) = build(&(0..n).collect::<Vec<_>>());
        let refs: Vec<&Matrix> = inputs.iter().collect();
        let probs = net.forward(&refs);
        let mut correct = 0usize;
        for i in 0..probs.as_slice().len() {
            let pred = probs.as_slice()[i] > 0.5;
            if pred == (labels.as_slice()[i] > 0.5) {
                correct += 1;
            }
        }
        let acc = correct as f32 / probs.as_slice().len() as f32;
        assert!(acc > 0.9, "selection accuracy {acc}");
    }

    /// The classifier loop shares the sharded path; pin its T-independence
    /// too (labels/weights shard along rows).
    #[test]
    fn global_classifier_weights_are_thread_count_independent() {
        let mut rng = StdRng::seed_from_u64(44);
        use rand::Rng;
        let n = 80;
        let n_segs = 3;
        let xs: Vec<[f32; 4]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..1.0f32)))
            .collect();
        let mut flats: Vec<Vec<f32>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut init = StdRng::seed_from_u64(3);
            let b = Sequential::new(vec![Layer::Dense(Dense::new(
                &mut init,
                4,
                6,
                Activation::Tanh,
            ))]);
            let head = Sequential::new(vec![
                Layer::Dense(Dense::new(&mut init, 6, n_segs, Activation::Identity)),
                Layer::ShiftSigmoid(ShiftSigmoid::new(n_segs)),
            ]);
            let mut net = BranchNet::new(vec![b], vec![4], head);
            let mut build = |idx: &[usize]| {
                let x = Matrix::from_rows(&idx.iter().map(|&i| &xs[i][..]).collect::<Vec<_>>());
                let mut labels = Matrix::zeros(idx.len(), n_segs);
                for (r, &i) in idx.iter().enumerate() {
                    for (s, &v) in xs[i][..n_segs].iter().enumerate() {
                        labels.set(r, s, if v > 0.0 { 1.0 } else { 0.0 });
                    }
                }
                let weights = Matrix::zeros(idx.len(), n_segs);
                (vec![x], labels, weights)
            };
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: 64,
                threads,
                ..Default::default()
            };
            train_global_classifier(&mut net, n, &mut build, &cfg);
            flats.push(net.flat_params());
        }
        assert_eq!(flats[0], flats[1], "T=1 vs T=2 weights differ");
        assert_eq!(flats[0], flats[2], "T=1 vs T=8 weights differ");
    }
}
