//! The basic DL model of §3.1 with MLP embeddings (Table 2 row 9).
//!
//! Three MLP branches learn the embeddings `z_q = E1(x_q)`,
//! `z_τ = E2(x_τ)` and `z_D = E3(x_D)` (Fig. 2); a dense + linear output
//! module `F` regresses `ln card` on their concatenation. Everything but
//! the net — the `k` retained samples behind `x_D`, training, batched
//! inference and the JSON form — is the shared
//! [`SampleDistanceEstimator`]; this module supplies Fig. 2's net and the
//! artifact kind.
//!
//! The threshold branch uses positivity-constrained weights so the τ-path
//! is monotone (§5.1); `strict_monotonic` additionally constrains the
//! output module's τ-columns and downstream weights, which makes the whole
//! estimator provably monotone in τ (checked by property tests).

use crate::sample_distance::{SampleDistanceConfig, SampleDistanceEstimator};
use cardest_nn::artifact::ArtifactError;
use cardest_nn::layers::{Dense, Layer};
use cardest_nn::net::{BranchNet, Sequential};
use cardest_nn::trainer::TrainConfig;
use cardest_nn::Activation;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Architecture hyperparameters of the basic MLP model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Number of retained data samples backing `x_D`.
    pub k_samples: usize,
    /// Query embedding width (output of `E1`).
    pub embed_q: usize,
    /// Threshold embedding width (output of `E2`).
    pub embed_t: usize,
    /// Distance embedding width (output of `E3`).
    pub embed_d: usize,
    /// Hidden width of the output module `F`.
    pub hidden: usize,
    /// Constrain the full τ-path (not just `E2`) to positive weights.
    pub strict_monotonic: bool,
    pub train: TrainConfig,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            k_samples: 64,
            embed_q: 32,
            embed_t: 8,
            embed_d: 16,
            hidden: 32,
            strict_monotonic: false,
            train: TrainConfig::default(),
        }
    }
}

impl SampleDistanceConfig for MlpConfig {
    const NAME: &'static str = "MLP";
    const SEED_SALT: u64 = 0x317;

    fn k_samples(&self) -> usize {
        self.k_samples
    }

    fn train_config(&self) -> &TrainConfig {
        &self.train
    }

    /// Assembles the Fig. 2 architecture.
    fn build_net(&self, dim: usize, k: usize, rng: &mut StdRng) -> BranchNet {
        let e1 = Sequential::new(vec![
            Layer::Dense(Dense::new(rng, dim, self.embed_q * 2, Activation::Relu)),
            Layer::Dense(Dense::new(
                rng,
                self.embed_q * 2,
                self.embed_q,
                Activation::Relu,
            )),
        ]);
        // One hidden layer, positive weights (§5.1).
        let e2 = Sequential::new(vec![
            Layer::Dense(Dense::new_nonneg(rng, 1, self.embed_t, Activation::Relu)),
            Layer::Dense(Dense::new_nonneg(
                rng,
                self.embed_t,
                self.embed_t,
                Activation::Relu,
            )),
        ]);
        // Two hidden layers (§5.1).
        let e3 = Sequential::new(vec![
            Layer::Dense(Dense::new(rng, k, self.embed_d * 2, Activation::Relu)),
            Layer::Dense(Dense::new(
                rng,
                self.embed_d * 2,
                self.embed_d,
                Activation::Relu,
            )),
            Layer::Dense(Dense::new(
                rng,
                self.embed_d,
                self.embed_d,
                Activation::Relu,
            )),
        ]);
        let concat = self.embed_q + self.embed_t + self.embed_d;
        let head = if self.strict_monotonic {
            // τ-block columns of the first head layer non-negative, and
            // every later weight non-negative: the τ → output path stays
            // monotone.
            let mut mask = vec![false; concat];
            for flag in mask.iter_mut().skip(self.embed_q).take(self.embed_t) {
                *flag = true;
            }
            Sequential::new(vec![
                Layer::Dense(
                    Dense::new(rng, concat, self.hidden, Activation::Relu).with_nonneg_cols(mask),
                ),
                Layer::Dense(Dense::new_nonneg(rng, self.hidden, 1, Activation::Identity)),
            ])
        } else {
            Sequential::new(vec![
                Layer::Dense(Dense::new(rng, concat, self.hidden, Activation::Relu)),
                Layer::Dense(Dense::new(rng, self.hidden, 1, Activation::Identity)),
            ])
        };
        BranchNet::new(vec![e1, e2, e3], vec![dim, 1, k], head)
    }
}

/// Artifact kind tag identifying a serialized [`MlpEstimator`].
pub const MLP_ARTIFACT_KIND: &str = "cardest.mlp";

/// The trained basic-MLP estimator: the shared sample-distance estimator
/// over Fig. 2's net.
///
/// Serializable: the artifact machinery (`cardest_nn::artifact`) persists
/// the whole estimator — weights, retained samples, metric — as one
/// checksummed payload.
pub type MlpEstimator = SampleDistanceEstimator<MlpConfig>;

impl MlpEstimator {
    /// Saves the trained estimator as a versioned, checksummed artifact
    /// (atomic write; see `cardest_nn::artifact` for the layout).
    pub fn save_artifact(&self, path: &std::path::Path) -> Result<(), ArtifactError> {
        let json =
            serde_json::to_string(self).map_err(|e| ArtifactError::Malformed(e.to_string()))?;
        cardest_nn::artifact::write_atomic(path, MLP_ARTIFACT_KIND, &[json.as_bytes()])
    }

    /// Loads an artifact written by [`MlpEstimator::save_artifact`],
    /// verifying magic, format version, kind, and checksum first.
    pub fn load_artifact(path: &std::path::Path) -> Result<Self, ArtifactError> {
        Self::decode_artifact(&cardest_nn::artifact::read(path, MLP_ARTIFACT_KIND)?)
    }

    /// Decodes a verified artifact payload (see
    /// `cardest_nn::artifact::read_any`).
    pub fn decode_artifact(payload: &[u8]) -> Result<Self, ArtifactError> {
        serde_json::from_slice(payload).map_err(|e| ArtifactError::Malformed(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{CardinalityEstimator, TrainingSet};
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::vector::VectorData;
    use cardest_data::workload::SearchWorkload;
    use cardest_nn::metrics::ErrorSummary;

    fn tiny_workload() -> (VectorData, SearchWorkload, DatasetSpec) {
        let spec = DatasetSpec {
            n_data: 600,
            n_train_queries: 50,
            n_test_queries: 20,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(51);
        let w = SearchWorkload::build(&data, &spec, 51);
        (data, w, spec)
    }

    #[test]
    fn trains_and_beats_the_zero_estimator() {
        let (data, w, spec) = tiny_workload();
        let cfg = MlpConfig {
            k_samples: 32,
            train: TrainConfig {
                epochs: 18,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (est, report) = MlpEstimator::train(&data, spec.metric, &training, &cfg, 51);
        assert!(report.final_loss.is_finite());

        let pairs: Vec<(f32, f32)> = w
            .test
            .iter()
            .map(|s| (est.estimate(w.queries.view(s.query), s.tau), s.card))
            .collect();
        let model = ErrorSummary::from_q_errors(&pairs);
        let zero: Vec<(f32, f32)> = w.test.iter().map(|s| (0.0, s.card)).collect();
        let zero_err = ErrorSummary::from_q_errors(&zero);
        assert!(
            model.mean < zero_err.mean,
            "MLP mean Q-error {} should beat always-zero {}",
            model.mean,
            zero_err.mean
        );
    }

    /// Two epochs of training on fixed random inputs, warm from `est`'s
    /// weights; returns them afterwards.
    fn finetuned_params(est: &mut MlpEstimator) -> Vec<f32> {
        use cardest_nn::trainer::train_branch_regression;
        use cardest_nn::Matrix;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(54);
        let widths = est.net().in_dims().to_vec();
        let mut columns =
            |w: usize| -> Vec<f32> { (0..32 * w).map(|_| rng.gen_range(0.0..1.0)).collect() };
        let inputs: Vec<Matrix> = widths
            .iter()
            .map(|&w| Matrix::from_vec(32, w, columns(w)))
            .collect();
        let cards: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let mut build = |idx: &[usize]| {
            let rows: Vec<Matrix> = inputs.iter().map(|m| m.gather_rows(idx)).collect();
            (rows, idx.iter().map(|&i| cards[i]).collect())
        };
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            ..Default::default()
        };
        train_branch_regression(est.net_mut(), 32, &mut build, &cfg);
        est.net().flat_params()
    }

    #[test]
    fn a_saved_and_loaded_mlp_finetunes_bit_identically() {
        let (data, w, spec) = tiny_workload();
        let cfg = MlpConfig {
            k_samples: 16,
            train: TrainConfig {
                epochs: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (mut trained, _) = MlpEstimator::train(&data, spec.metric, &training, &cfg, 55);
        let dir = std::env::temp_dir().join(format!("cardest-mlp-finetune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mlp.cardest");
        trained.save_artifact(&path).unwrap();
        let mut loaded = MlpEstimator::load_artifact(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let json = serde_json::to_string(&trained).unwrap();
        assert!(!json.contains("\"gw\""), "gradient accumulators were saved");
        let want: Vec<u32> = finetuned_params(&mut trained)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let got: Vec<u32> = finetuned_params(&mut loaded)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn model_bytes_include_samples() {
        let (data, w, spec) = tiny_workload();
        let cfg = MlpConfig {
            k_samples: 16,
            train: TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (est, _) = MlpEstimator::train(&data, spec.metric, &training, &cfg, 52);
        assert!(est.model_bytes() > est.net().param_bytes());
    }

    #[test]
    fn strict_monotonic_mode_is_monotone_in_tau() {
        let (data, w, spec) = tiny_workload();
        let cfg = MlpConfig {
            k_samples: 16,
            strict_monotonic: true,
            train: TrainConfig {
                epochs: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (est, _) = MlpEstimator::train(&data, spec.metric, &training, &cfg, 53);
        for q in 0..5 {
            let mut prev = f32::NEG_INFINITY;
            for i in 0..=10 {
                let tau = spec.tau_max * i as f32 / 10.0;
                let e = est.estimate(w.queries.view(q), tau);
                assert!(
                    e >= prev - prev.abs() * 1e-5 - 1e-5,
                    "estimate not monotone at q={q} τ={tau}: {e} < {prev}"
                );
                prev = e;
            }
        }
    }

    #[test]
    fn artifact_payload_holds_exactly_the_five_fields_in_order() {
        // Pins the JSON object inside `cardest.mlp` artifacts, which
        // `cardest-serve` caches across versions: a field added, renamed
        // or reordered fails here.
        let (data, w, spec) = tiny_workload();
        let cfg = MlpConfig {
            k_samples: 8,
            train: TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let training = TrainingSet::new(&w.queries, &w.train);
        let (est, _) = MlpEstimator::train(&data, spec.metric, &training, &cfg, 54);
        let json = serde_json::to_string(&est).unwrap();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Map(fields) = value else {
            panic!("MLP payload is not a JSON object: {json:.80}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["net", "samples", "metric", "n_data", "tau_seen"]);
    }
}
