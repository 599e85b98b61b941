//! A substitute for **CardNet** — the SIGMOD 2020 deep-learning estimator
//! [53] the paper compares against (Table 2 row 6). The authors' code is
//! unavailable here, so this reimplements the two properties the paper
//! attributes to it:
//!
//! 1. *VAE query embedding* — an encoder maps `x_q` to a Gaussian latent
//!    `(μ, log σ²)` with a KL regularizer; training samples
//!    `z = μ + σ·ε`, inference uses `z = μ`.
//! 2. *Per-threshold monotone decomposition* — the decoder emits one
//!    non-negative increment per threshold bucket; the estimate at τ is
//!    the (fractionally interpolated) prefix sum of increments, so
//!    estimates are monotone in τ by construction ("learn embeddings for
//!    different thresholds separately … guaranteeing monotonicity", §1).
//!
//! Training uses the same hybrid loss as our models, plus `β·KL`.

use crate::traits::{CardinalityEstimator, TrainingSet};
use cardest_data::vector::VectorView;
use cardest_nn::artifact::ArtifactError;
use cardest_nn::layers::{Dense, Layer};
use cardest_nn::loss::HybridLoss;
use cardest_nn::metrics::decode_log_card;
use cardest_nn::net::Sequential;
use cardest_nn::optim::Adam;
use cardest_nn::trainer::{BatchIter, EarlyStopper, TrainConfig, TrainReport};
use cardest_nn::{Activation, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// CardNet architecture hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CardNetConfig {
    /// Latent dimensionality of the VAE embedding.
    pub latent: usize,
    /// Encoder hidden width.
    pub hidden: usize,
    /// Number of threshold buckets over `[0, τ_max]`.
    pub buckets: usize,
    /// Weight of the KL regularizer.
    pub beta_kl: f32,
    pub train: TrainConfig,
}

impl Default for CardNetConfig {
    fn default() -> Self {
        CardNetConfig {
            latent: 16,
            hidden: 64,
            buckets: 32,
            beta_kl: 1e-3,
            train: TrainConfig::default(),
        }
    }
}

/// Artifact kind tag identifying a serialized [`CardNet`].
pub const CARDNET_ARTIFACT_KIND: &str = "cardest.cardnet";

/// The trained CardNet-substitute estimator.
///
/// Serializable so the artifact machinery (`cardest_nn::artifact`) can
/// persist the trained model as one checksummed payload.
#[derive(Clone, Serialize, Deserialize)]
pub struct CardNet {
    encoder: Sequential,
    decoder: Sequential,
    latent: usize,
    buckets: usize,
    tau_max: f32,
    /// Cap on emitted estimates: twice the largest training cardinality
    /// (the decoder's softplus increments are otherwise unbounded).
    card_cap: f32,
}

impl CardNet {
    /// Builds and trains on a labelled training set; `tau_max` fixes the
    /// bucket grid.
    pub fn train(
        training: &TrainingSet<'_>,
        tau_max: f32,
        cfg: &CardNetConfig,
        seed: u64,
    ) -> (Self, TrainReport) {
        assert!(!training.is_empty(), "training set is empty");
        assert!(tau_max > 0.0, "tau_max must be positive");
        let dim = training.queries.dim();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCA2D);
        let encoder = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, dim, cfg.hidden, Activation::Relu)),
            Layer::Dense(Dense::new(
                &mut rng,
                cfg.hidden,
                2 * cfg.latent,
                Activation::Identity,
            )),
        ]);
        let decoder = Sequential::new(vec![
            Layer::Dense(Dense::new(
                &mut rng,
                cfg.latent,
                cfg.hidden,
                Activation::Relu,
            )),
            Layer::Dense(Dense::new(
                &mut rng,
                cfg.hidden,
                cfg.buckets,
                Activation::Identity,
            )),
        ]);
        let card_cap = training
            .samples
            .iter()
            .map(|s| s.card)
            .fold(1.0f32, f32::max)
            * 2.0;
        let mut net = CardNet {
            encoder,
            decoder,
            latent: cfg.latent,
            buckets: cfg.buckets,
            tau_max,
            card_cap,
        };
        let report = net.fit(training, cfg, seed);
        (net, report)
    }

    fn fit(&mut self, training: &TrainingSet<'_>, cfg: &CardNetConfig, seed: u64) -> TrainReport {
        let dim = training.queries.dim();
        let n = training.samples.len();
        let loss_fn = HybridLoss {
            lambda: cfg.train.lambda,
            ..HybridLoss::default()
        };
        let mut opt = Adam::new(cfg.train.learning_rate);
        let mut stopper = EarlyStopper::new(cfg.train.patience, 0.02);
        let mut qbuf: Vec<f32> = Vec::with_capacity(dim);
        let mut epoch_loss = f32::INFINITY;
        let mut epochs_run = 0;
        // Epoch-level divergence guard: the VAE's exponentials make it the
        // most explosion-prone model here, so snapshot weights + optimizer
        // every `checkpoint_every` epochs and roll back (with the LR
        // halved) when an epoch's loss goes non-finite.
        let mut recoveries = 0usize;
        let mut diverged = false;
        let mut lr_cut = 1.0f32;
        let ckpt_every = cfg.train.checkpoint_every.max(1);
        let mut ckpt = (
            self.encoder.snapshot_params(),
            self.decoder.snapshot_params(),
            opt.clone(),
            0usize,
        );
        let mut epoch = 0usize;
        while epoch < cfg.train.epochs {
            epochs_run += 1;
            // Per-epoch seeding keeps rollback replays deterministic.
            let mut rng = StdRng::seed_from_u64(
                (seed ^ 0xCA2E) ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut total = 0.0f64;
            let mut batches = 0usize;
            for idx in BatchIter::new(&mut rng, n, cfg.train.batch_size) {
                let b = idx.len();
                let mut xq = Matrix::zeros(b, dim);
                let mut taus = Vec::with_capacity(b);
                let mut cards = Vec::with_capacity(b);
                for (r, &i) in idx.iter().enumerate() {
                    let s = &training.samples[i];
                    training.queries.view(s.query).write_dense(&mut qbuf);
                    xq.row_mut(r).copy_from_slice(&qbuf);
                    taus.push(s.tau);
                    cards.push(s.card);
                }
                // ----- forward -----
                let enc = self.encoder.forward(&xq); // [b, 2L]
                let l = self.latent;
                let mut z = Matrix::zeros(b, l);
                let mut eps = Matrix::zeros(b, l);
                for r in 0..b {
                    for j in 0..l {
                        let e = cardest_data::synth::gauss(&mut rng);
                        eps.set(r, j, e);
                        let mu = enc.get(r, j);
                        let lv = enc.get(r, l + j).clamp(-8.0, 8.0);
                        // cardest-lint: allow(raw-exp-decode): VAE reparameterization / KL math on clamped log-variance, not a cardinality decode
                        z.set(r, j, mu + (0.5 * lv).exp() * e);
                    }
                }
                let dec = self.decoder.forward(&z); // [b, buckets]
                                                    // Increments and prefix estimate at each sample's τ.
                let (pred_log, cum_info) = self.prefix_estimates(&dec, &taus);
                let (loss, grad_log) = loss_fn.eval(&pred_log, &cards);
                // KL term.
                let mut kl = 0.0f64;
                for r in 0..b {
                    for j in 0..l {
                        let mu = enc.get(r, j);
                        let lv = enc.get(r, l + j).clamp(-8.0, 8.0);
                        // cardest-lint: allow(raw-exp-decode): VAE reparameterization / KL math on clamped log-variance, not a cardinality decode
                        kl += 0.5 * (lv.exp() + mu * mu - 1.0 - lv) as f64;
                    }
                }
                let kl = (kl / b as f64) as f32;
                total += (loss + cfg.beta_kl * kl) as f64;
                batches += 1;
                // ----- backward -----
                // dL/ddec via the prefix-sum/softplus path.
                let mut gdec = Matrix::zeros(b, self.buckets);
                for r in 0..b {
                    let (bucket, frac, chat) = cum_info[r];
                    let gcum = grad_log[r] / (chat + 1e-3);
                    for j in 0..=bucket.min(self.buckets - 1) {
                        let w = if j == bucket { frac } else { 1.0 };
                        // cardest-lint: allow(float-total-order): w is either the 1.0 literal or frac; 0.0 is an exact sentinel
                        if w == 0.0 {
                            continue;
                        }
                        // dinc/ddec = σ(dec) (softplus derivative).
                        let sp = sigmoid(dec.get(r, j));
                        gdec.set(r, j, gcum * w * sp);
                    }
                }
                let gz = self.decoder.backward(&gdec);
                // Assemble encoder output gradient: z-path + KL-path.
                let mut genc = Matrix::zeros(b, 2 * l);
                let kl_scale = cfg.beta_kl / b as f32;
                for r in 0..b {
                    for j in 0..l {
                        let mu = enc.get(r, j);
                        let lv = enc.get(r, l + j).clamp(-8.0, 8.0);
                        let gzj = gz.get(r, j);
                        genc.set(r, j, gzj + kl_scale * mu);
                        // cardest-lint: allow(raw-exp-decode): VAE reparameterization / KL math on clamped log-variance, not a cardinality decode
                        let dz_dlv = 0.5 * (0.5 * lv).exp() * eps.get(r, j);
                        // cardest-lint: allow(raw-exp-decode): VAE reparameterization / KL math on clamped log-variance, not a cardinality decode
                        genc.set(r, l + j, gzj * dz_dlv + kl_scale * 0.5 * (lv.exp() - 1.0));
                    }
                }
                self.encoder.backward(&genc);
                let mut params = self.encoder.params_mut();
                params.extend(self.decoder.params_mut());
                opt.step(&mut params);
            }
            epoch_loss = (total / batches.max(1) as f64) as f32;
            if !epoch_loss.is_finite() {
                recoveries += 1;
                self.encoder.restore_params(&ckpt.0);
                self.decoder.restore_params(&ckpt.1);
                self.encoder.zero_grads();
                self.decoder.zero_grads();
                opt = ckpt.2.clone();
                if recoveries > cfg.train.max_recoveries {
                    diverged = true;
                    break;
                }
                lr_cut *= 0.5;
                opt.set_learning_rate(opt.learning_rate() * lr_cut);
                epoch = ckpt.3;
                continue;
            }
            opt.set_learning_rate(opt.learning_rate() * cfg.train.lr_decay);
            epoch += 1;
            if stopper.should_stop(epoch_loss) {
                break;
            }
            if epoch < cfg.train.epochs && epoch % ckpt_every == 0 {
                ckpt = (
                    self.encoder.snapshot_params(),
                    self.decoder.snapshot_params(),
                    opt.clone(),
                    epoch,
                );
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

    /// Saves the trained estimator as a versioned, checksummed artifact
    /// (atomic write; see `cardest_nn::artifact` for the layout).
    pub fn save_artifact(&self, path: &std::path::Path) -> Result<(), ArtifactError> {
        let json =
            serde_json::to_string(self).map_err(|e| ArtifactError::Malformed(e.to_string()))?;
        cardest_nn::artifact::write_atomic(path, CARDNET_ARTIFACT_KIND, json.as_bytes())
    }

    /// Loads an artifact written by [`CardNet::save_artifact`], verifying
    /// magic, format version, kind, and checksum first.
    pub fn load_artifact(path: &std::path::Path) -> Result<Self, ArtifactError> {
        let json = cardest_nn::artifact::read_json_payload(path, CARDNET_ARTIFACT_KIND)?;
        serde_json::from_str(&json).map_err(|e| ArtifactError::Malformed(e.to_string()))
    }

    /// Converts decoder outputs into per-sample `ln card` estimates via the
    /// softplus-increment prefix sum, interpolating inside the bucket that
    /// contains τ. Returns `(pred_log, per-sample (bucket, frac, ĉ))`.
    fn prefix_estimates(&self, dec: &Matrix, taus: &[f32]) -> (Vec<f32>, Vec<(usize, f32, f32)>) {
        let b = dec.rows();
        let mut pred_log = Vec::with_capacity(b);
        let mut info = Vec::with_capacity(b);
        for (r, &tau) in taus.iter().enumerate().take(b) {
            let pos = (tau / self.tau_max).clamp(0.0, 1.0) * self.buckets as f32;
            let bucket = (pos.floor() as usize).min(self.buckets - 1);
            let frac = (pos - bucket as f32).clamp(0.0, 1.0);
            let mut cum = 0.0f32;
            for j in 0..=bucket {
                let inc = softplus(dec.get(r, j));
                cum += if j == bucket { frac * inc } else { inc };
            }
            pred_log.push((cum + 1e-3).ln());
            info.push((bucket, frac, cum));
        }
        (pred_log, info)
    }

    /// Batched estimate at inference time (z = μ, no sampling): one
    /// encoder/decoder pass for the whole batch, immutably.
    fn infer_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<f32> {
        if queries.is_empty() {
            return Vec::new();
        }
        let b = queries.len();
        let dim = self.encoder.layers()[0].in_dim();
        cardest_nn::scratch::with_thread_scratch(|scratch| {
            let mut xq = scratch.take(b, dim);
            let mut qbuf: Vec<f32> = Vec::with_capacity(dim);
            for (r, &(q, _)) in queries.iter().enumerate() {
                q.write_dense(&mut qbuf);
                xq.row_mut(r).copy_from_slice(&qbuf);
            }
            let enc = self.encoder.infer(&xq, scratch);
            let mut z = scratch.take(b, self.latent);
            for r in 0..b {
                z.row_mut(r).copy_from_slice(&enc.row(r)[..self.latent]);
            }
            let dec = self.decoder.infer(&z, scratch);
            let taus: Vec<f32> = queries.iter().map(|&(_, tau)| tau).collect();
            let (pred_log, _) = self.prefix_estimates(&dec, &taus);
            for m in [xq, enc, z, dec] {
                scratch.recycle(m);
            }
            pred_log
                .iter()
                .map(|&p| decode_log_card(p, self.card_cap))
                .collect()
        })
    }
}

impl CardinalityEstimator for CardNet {
    fn name(&self) -> &'static str {
        "CardNet"
    }

    fn estimate(&self, q: VectorView<'_>, tau: f32) -> f32 {
        self.infer_batch(&[(q, tau)])[0]
    }

    fn estimate_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<f32> {
        self.infer_batch(queries)
    }

    fn model_bytes(&self) -> usize {
        (self.encoder.param_count() + self.decoder.param_count()) * std::mem::size_of::<f32>()
    }

    fn expected_dim(&self) -> Option<usize> {
        Some(self.encoder.layers()[0].in_dim())
    }

    // The bucket grid covers [0, τ_max]; beyond it the prefix sum saturates
    // at the last bucket, so the trained range ends there.
    fn tau_bound(&self) -> Option<f32> {
        Some(self.tau_max)
    }
}

#[inline]
fn softplus(x: f32) -> f32 {
    // Numerically stable log(1 + e^x).
    if x > 15.0 {
        x
    } else {
        // cardest-lint: allow(raw-exp-decode): stable softplus log(1+e^x) internal, input already range-guarded
        x.exp().ln_1p()
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    cardest_nn::activation::sigmoid(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;
    use cardest_nn::metrics::ErrorSummary;

    fn tiny() -> (SearchWorkload, DatasetSpec) {
        let spec = DatasetSpec {
            n_data: 800,
            n_train_queries: 60,
            n_test_queries: 20,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(61);
        let w = SearchWorkload::build(&data, &spec, 61);
        (w, spec)
    }

    #[test]
    fn estimates_are_monotone_in_tau_by_construction() {
        let (w, spec) = tiny();
        let training = TrainingSet::new(&w.queries, &w.train);
        let cfg = CardNetConfig {
            train: TrainConfig {
                epochs: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let (net, _) = CardNet::train(&training, spec.tau_max, &cfg, 61);
        for q in 0..6 {
            let mut prev = -1.0f32;
            for i in 0..=20 {
                let tau = spec.tau_max * i as f32 / 20.0;
                let e = net.estimate(w.queries.view(q), tau);
                assert!(e >= prev - 1e-5, "not monotone at q={q}, τ={tau}");
                prev = e;
            }
        }
    }

    #[test]
    fn training_improves_over_initialization() {
        let (w, spec) = tiny();
        let training = TrainingSet::new(&w.queries, &w.train);
        let eval = |net: &CardNet| {
            let pairs: Vec<(f32, f32)> = w
                .test
                .iter()
                .map(|s| (net.estimate(w.queries.view(s.query), s.tau), s.card))
                .collect();
            ErrorSummary::from_q_errors(&pairs).mean
        };
        let cfg0 = CardNetConfig {
            train: TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (untrained, _) = CardNet::train(&training, spec.tau_max, &cfg0, 62);
        let cfg = CardNetConfig {
            train: TrainConfig {
                epochs: 40,
                ..Default::default()
            },
            ..Default::default()
        };
        let (trained, report) = CardNet::train(&training, spec.tau_max, &cfg, 62);
        assert!(report.final_loss.is_finite());
        assert!(
            eval(&trained) < eval(&untrained) * 1.05,
            "training did not help: {} vs {}",
            eval(&trained),
            eval(&untrained)
        );
    }

    #[test]
    fn inference_is_deterministic() {
        let (w, spec) = tiny();
        let training = TrainingSet::new(&w.queries, &w.train);
        let cfg = CardNetConfig {
            train: TrainConfig {
                epochs: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let (net, _) = CardNet::train(&training, spec.tau_max, &cfg, 63);
        let a = net.estimate(w.queries.view(0), 0.1);
        let b = net.estimate(w.queries.view(0), 0.1);
        assert_eq!(a, b, "inference must not sample the latent");
    }

    #[test]
    fn model_bytes_are_positive_and_param_based() {
        let (w, spec) = tiny();
        let training = TrainingSet::new(&w.queries, &w.train);
        let cfg = CardNetConfig {
            train: TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (net, _) = CardNet::train(&training, spec.tau_max, &cfg, 64);
        assert!(net.model_bytes() > 0);
    }
}
