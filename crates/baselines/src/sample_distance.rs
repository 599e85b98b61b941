//! The basic DL model of §3.1 (Fig. 2) as one estimator for every model
//! built on it: three branches embed `x_q`, `x_τ` and `x_D`, and an
//! output module `F` regresses `ln card` on their concatenation under the
//! hybrid loss of Algorithm 1. `x_D` holds the distances from the query to
//! `k` data samples kept at training time (§3.1 "we use k data samples
//! instead of the entire dataset").
//!
//! Two models share it and differ only in their nets: the MLP baseline
//! ([`crate::mlp`], Table 2 row 9) and QES (`cardest_core::qes`, Table 2
//! row 1), whose query branch is the segmentation CNN of §3.2. Each
//! config type implements [`SampleDistanceConfig`] to build its net; this
//! module keeps the samples, caches each training query's features, trains
//! the net, runs batched inference and carries the serving guard's
//! metadata. CNNJoin builds its `x_D` through
//! [`SampleDistanceEstimator::sample_distances_into`] too.

use crate::traits::{CardinalityEstimator, TrainingSet};
use cardest_data::metric::Metric;
use cardest_data::vector::{VectorData, VectorView};
use cardest_nn::metrics::decode_log_card;
use cardest_nn::net::BranchNet;
use cardest_nn::trainer::{train_branch_regression, TrainConfig, TrainReport};
use cardest_nn::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Error, Serialize, Value};
use std::marker::PhantomData;

/// What a model built on [`SampleDistanceEstimator`] supplies: its name,
/// its seed salt, its sample and training budgets, and its net.
pub trait SampleDistanceConfig {
    /// The trained model's [`CardinalityEstimator::name`].
    const NAME: &'static str;
    /// XORed into the training seed; the samples are drawn from the
    /// resulting RNG first, then the net's initial weights.
    const SEED_SALT: u64;
    /// Number of retained data samples backing `x_D`.
    fn k_samples(&self) -> usize;
    fn train_config(&self) -> &TrainConfig;
    /// The untrained net over the inputs `[x_q, τ, x_D]`: `dim`-wide
    /// queries, one threshold column and `k` sample distances.
    fn build_net(&self, dim: usize, k: usize, rng: &mut StdRng) -> BranchNet;
}

/// A trained sample-distance model. Inference is immutable (`&self`): the
/// forward pass runs on true `B×d` batches with temporaries drawn from a
/// thread-local scratch pool, so one trained model can be shared across
/// serving threads.
///
/// Serializable: the JSON object holds `net`, `samples`, `metric`,
/// `n_data` and `tau_seen`, in that order (the MLP's artifact payload).
#[derive(Clone)]
pub struct SampleDistanceEstimator<C> {
    net: BranchNet,
    samples: VectorData,
    metric: Metric,
    /// Dataset size at training time; estimates are capped here (a search
    /// cardinality cannot exceed the dataset).
    n_data: usize,
    /// Largest threshold seen in training — the serving guard's τ bound.
    tau_seen: f32,
    config: PhantomData<fn() -> C>,
}

impl<C: SampleDistanceConfig> SampleDistanceEstimator<C> {
    /// Keeps `k` random data samples, builds the config's net and trains
    /// it on a labelled training set.
    pub fn train(
        data: &VectorData,
        metric: Metric,
        training: &TrainingSet<'_>,
        cfg: &C,
        seed: u64,
    ) -> (Self, TrainReport) {
        assert!(!training.is_empty(), "training set is empty");
        let dim = data.dim();
        let mut rng = StdRng::seed_from_u64(seed ^ C::SEED_SALT);
        let mut ids: Vec<usize> = (0..data.len()).collect();
        ids.shuffle(&mut rng);
        ids.truncate(cfg.k_samples().clamp(1, data.len()));
        let samples = data.gather(&ids);
        let net = cfg.build_net(dim, samples.len(), &mut rng);
        let tau_seen = training
            .samples
            .iter()
            .map(|s| s.tau)
            .fold(0.0f32, f32::max)
            .max(1e-6);
        let mut est = SampleDistanceEstimator {
            net,
            samples,
            metric,
            n_data: data.len(),
            tau_seen,
            config: PhantomData,
        };

        // Each training query's x_q and x_D, computed once.
        let n_queries = training.queries.len();
        let mut xq_cache = Matrix::zeros(n_queries, dim);
        let mut xd_cache = Matrix::zeros(n_queries, est.samples.len());
        let mut buf: Vec<f32> = Vec::with_capacity(dim);
        for q in 0..n_queries {
            let view = training.queries.view(q);
            view.write_dense(&mut buf);
            xq_cache.row_mut(q).copy_from_slice(&buf);
            est.sample_distances_into(view, xd_cache.row_mut(q));
        }
        let labelled = training.samples;
        let mut build = |idx: &[usize]| {
            let rows: Vec<usize> = idx.iter().map(|&i| labelled[i].query).collect();
            let taus = idx.iter().map(|&i| labelled[i].tau).collect();
            let cards = idx.iter().map(|&i| labelled[i].card).collect();
            let xt = Matrix::from_vec(idx.len(), 1, taus);
            let inputs = vec![xq_cache.gather_rows(&rows), xt, xd_cache.gather_rows(&rows)];
            (inputs, cards)
        };
        let report =
            train_branch_regression(&mut est.net, labelled.len(), &mut build, cfg.train_config());
        (est, report)
    }

    /// Writes `x_D` for `q` — its distances to the retained samples — into
    /// `out`, which must be [`samples`](Self::samples)`.len()` wide.
    pub fn sample_distances_into(&self, q: VectorView<'_>, out: &mut [f32]) {
        self.metric.distance_many_into(q, &self.samples, out);
    }

    /// Access to the underlying network (tests, size accounting).
    pub fn net(&self) -> &BranchNet {
        &self.net
    }

    /// Mutable network access (CNNJoin drives the branches and head
    /// separately around its sum-pooling layer).
    pub fn net_mut(&mut self) -> &mut BranchNet {
        &mut self.net
    }

    /// The retained data samples backing `x_D`.
    pub fn samples(&self) -> &VectorData {
        &self.samples
    }

    /// Dataset size at training time.
    pub fn n_data(&self) -> usize {
        self.n_data
    }
}

impl<C: SampleDistanceConfig> CardinalityEstimator for SampleDistanceEstimator<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn estimate(&self, q: VectorView<'_>, tau: f32) -> f32 {
        self.estimate_batch(&[(q, tau)])[0]
    }

    fn estimate_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<f32> {
        if queries.is_empty() {
            return Vec::new();
        }
        let b = queries.len();
        let dim = self.samples.dim();
        let k = self.samples.len();
        cardest_nn::scratch::with_thread_scratch(|scratch| {
            let mut xq = scratch.take(b, dim);
            let mut xt = scratch.take(b, 1);
            let mut xd = scratch.take(b, k);
            let mut qbuf: Vec<f32> = Vec::with_capacity(dim);
            for (r, &(q, tau)) in queries.iter().enumerate() {
                q.write_dense(&mut qbuf);
                xq.row_mut(r).copy_from_slice(&qbuf);
                xt.set(r, 0, tau);
                self.sample_distances_into(q, xd.row_mut(r));
            }
            let pred = self.net.infer(&[&xq, &xt, &xd], scratch);
            let out = (0..b)
                .map(|r| decode_log_card(pred.get(r, 0), self.n_data as f32))
                .collect();
            for m in [xq, xt, xd, pred] {
                scratch.recycle(m);
            }
            out
        })
    }

    fn model_bytes(&self) -> usize {
        // Deployed model = parameters + the retained samples x_D needs.
        self.net.param_bytes() + self.samples.heap_bytes()
    }

    fn expected_dim(&self) -> Option<usize> {
        Some(self.samples.dim())
    }

    fn tau_bound(&self) -> Option<f32> {
        Some(self.tau_seen)
    }
}

// The vendored derive takes no generics, so the five fields are written
// out by hand; the config type is not serialized.
impl<C> Serialize for SampleDistanceEstimator<C> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("net".to_string(), self.net.serialize()),
            ("samples".to_string(), self.samples.serialize()),
            ("metric".to_string(), self.metric.serialize()),
            ("n_data".to_string(), self.n_data.serialize()),
            ("tau_seen".to_string(), self.tau_seen.serialize()),
        ])
    }
}

impl<C> Deserialize for SampleDistanceEstimator<C> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        const TY: &str = "SampleDistanceEstimator";
        let m = v.expect_map(TY)?;
        Ok(SampleDistanceEstimator {
            net: serde::get_field(m, "net", TY)?,
            samples: serde::get_field(m, "samples", TY)?,
            metric: serde::get_field(m, "metric", TY)?,
            n_data: serde::get_field(m, "n_data", TY)?,
            tau_seen: serde::get_field(m, "tau_seen", TY)?,
            config: PhantomData,
        })
    }
}
