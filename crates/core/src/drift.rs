//! Drift detection for online ingestion.
//!
//! "Are We Ready For Learned Cardinality Estimation?" singles out
//! update/drift behaviour as the weak point of learned estimators: a
//! model trained on yesterday's data keeps answering confidently while
//! the dataset moves underneath it. This module watches estimate quality
//! instead of raw data statistics: it tracks per-segment Q-error on the
//! held-out probe set (the label-patched test samples, whose true
//! cardinalities [`UpdatableGl`] keeps exact across inserts) and fires a
//! fine-tune only for segments whose degradation is *localized* —
//! i.e. large relative to the median degradation across segments.
//!
//! The median normalization is what bounds false positives on stationary
//! streams: uniform staleness (every probe's cardinality creeping up as
//! in-distribution points arrive) raises every segment's error ratio
//! together, so no segment stands out against the median and nothing
//! fires. A genuine distribution shift lands its new points — and
//! therefore its label changes — in a few segments, whose ratios then
//! clear both the absolute floor and the median multiple.

use crate::update::UpdatableGl;
use serde::{Deserialize, Serialize};

/// Drift-monitor thresholds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Inserts between quality checks. A check re-sums the probe set's
    /// cached local outputs under the current member counts; the models
    /// run over the probes only for the first sweep after a load or a
    /// fine-tune.
    pub check_every: usize,
    /// Segments with fewer probes than this never fire (their mean is
    /// too noisy to act on).
    pub min_probes: usize,
    /// A segment fires only if its error ratio exceeds this multiple of
    /// the median ratio across segments (localization requirement).
    pub median_multiple: f32,
    /// ...and only if its error ratio also exceeds this absolute floor
    /// (a segment can be above the median by noise alone when nothing
    /// actually degraded).
    pub abs_ratio: f32,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            check_every: 64,
            min_probes: 1,
            median_multiple: 1.5,
            abs_ratio: 1.5,
        }
    }
}

/// The outcome of one drift check.
#[derive(Debug, Clone, Default)]
pub struct DriftVerdict {
    /// Segments whose probe error degraded enough to warrant a local
    /// fine-tune (the global model rides along on any trigger).
    pub fired: Vec<usize>,
    /// Per-segment degradation ratios (current mean Q-error over the
    /// baseline mean, smoothed); `1.0` for unprobed segments.
    pub ratios: Vec<f32>,
    /// Median of the ratios over probed segments.
    pub median_ratio: f32,
}

impl DriftVerdict {
    /// Whether this check asks for a fine-tune.
    pub fn triggered(&self) -> bool {
        !self.fired.is_empty()
    }
}

/// Tracks per-segment estimate quality on the held-out probe set and
/// decides when (and where) to fine-tune.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    cfg: DriftConfig,
    /// Segment owning each probe query (nearest-centroid attribution;
    /// centroids are fixed after fit, so this is computed once).
    probe_seg: Vec<usize>,
    /// Per-segment probe counts.
    counts: Vec<usize>,
    /// Per-segment mean Q-error at the last (re)baseline.
    baseline: Vec<f32>,
    inserts_since_check: usize,
    checks: u64,
    triggers: u64,
}

/// Smoothing so near-zero baselines do not explode ratios.
const EPS: f32 = 1e-3;

impl DriftMonitor {
    /// Attributes every probe to its owning segment and records the
    /// current per-segment error as the baseline.
    pub fn new(upd: &UpdatableGl, cfg: DriftConfig) -> Self {
        let n_segments = upd.gl().segmentation().n_segments();
        let probe_seg: Vec<usize> = upd
            .test_samples()
            .iter()
            .map(|s| {
                upd.gl()
                    .segmentation()
                    .nearest_segment(upd.queries().view(s.query))
            })
            .collect();
        let mut counts = vec![0usize; n_segments];
        for &s in &probe_seg {
            counts[s] += 1;
        }
        let mut m = DriftMonitor {
            cfg,
            probe_seg,
            counts,
            baseline: vec![0.0; n_segments],
            inserts_since_check: 0,
            checks: 0,
            triggers: 0,
        };
        m.baseline = m.per_segment_error(upd);
        m
    }

    /// Mean probe Q-error per segment (0 for unprobed segments), from one
    /// batched probe sweep ([`UpdatableGl::probe_q_errors`]).
    fn per_segment_error(&self, upd: &UpdatableGl) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.counts.len()];
        for (&seg, err) in self.probe_seg.iter().zip(upd.probe_q_errors()) {
            sums[seg] += err;
        }
        sums.iter()
            .zip(&self.counts)
            .map(|(sum, &c)| if c == 0 { 0.0 } else { sum / c as f32 })
            .collect()
    }

    /// Records `n` applied inserts; returns `true` when a quality check
    /// is due (the caller then runs [`DriftMonitor::check`]).
    pub fn note_inserts(&mut self, n: usize) -> bool {
        self.inserts_since_check += n;
        self.inserts_since_check >= self.cfg.check_every
    }

    /// Evaluates the probe set and returns which segments (if any) have
    /// drifted enough to fine-tune. Resets the insert counter.
    pub fn check(&mut self, upd: &UpdatableGl) -> DriftVerdict {
        self.inserts_since_check = 0;
        self.checks += 1;
        let current = self.per_segment_error(upd);
        let ratios: Vec<f32> = current
            .iter()
            .zip(&self.baseline)
            .zip(&self.counts)
            .map(|((cur, base), &c)| {
                if c == 0 {
                    1.0
                } else {
                    (cur + EPS) / (base + EPS)
                }
            })
            .collect();
        let mut probed: Vec<f32> = ratios
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(r, _)| *r)
            .collect();
        probed.sort_by(f32::total_cmp);
        let median_ratio = if probed.is_empty() {
            1.0
        } else {
            probed[probed.len() / 2]
        };
        let fired: Vec<usize> = ratios
            .iter()
            .enumerate()
            .filter(|(s, &r)| {
                self.counts[*s] >= self.cfg.min_probes
                    && r > self.cfg.abs_ratio
                    && r > self.cfg.median_multiple * median_ratio
            })
            .map(|(s, _)| s)
            .collect();
        if !fired.is_empty() {
            self.triggers += 1;
        }
        DriftVerdict {
            fired,
            ratios,
            median_ratio,
        }
    }

    /// Re-records the current per-segment error as the baseline — called
    /// after a fine-tune so the monitor measures degradation since the
    /// model last adapted, not since it was first trained.
    pub fn rebaseline(&mut self, upd: &UpdatableGl) {
        self.baseline = self.per_segment_error(upd);
    }

    /// Checks run so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Checks that fired at least one segment.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// The configured thresholds.
    pub fn config(&self) -> &DriftConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gl::{GlConfig, GlEstimator, GlVariant};
    use crate::tuning::TuningConfig;
    use crate::update::{UpdateConfig, PROBE_CHUNK};
    use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;
    use cardest_nn::metrics::{q_error, ErrorSummary};
    use cardest_nn::trainer::TrainConfig;

    fn setup(seed: u64) -> UpdatableGl {
        let spec = DatasetSpec {
            n_data: 500,
            n_train_queries: 40,
            n_test_queries: 15,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(seed);
        let w = SearchWorkload::build(&data, &spec, seed);
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
        let training = TrainingSet::new(&w.queries, &w.train);
        let gl = GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg);
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

    fn test_cfg() -> DriftConfig {
        DriftConfig {
            check_every: 8,
            ..Default::default()
        }
    }

    /// The probe whose true cardinality is smallest — drifting "into" it
    /// (a burst of points inside its threshold) is the sharpest relative
    /// label shift we can manufacture for a fixed probe set.
    fn quietest_probe(upd: &UpdatableGl) -> usize {
        upd.test_samples()
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.card.total_cmp(&b.card))
            .map(|(i, _)| i)
            .unwrap()
    }

    /// Reference sweep: one `estimate` call per probe.
    fn per_probe_q_errors(upd: &UpdatableGl) -> Vec<f32> {
        upd.test_samples()
            .iter()
            .map(|s| {
                q_error(
                    upd.gl().estimate(upd.queries().view(s.query), s.tau),
                    s.card,
                )
            })
            .collect()
    }

    fn assert_close(batched: f32, per_probe: f32, what: &str) {
        let rel = (batched - per_probe).abs() / per_probe.abs().max(f32::MIN_POSITIVE);
        assert!(
            rel <= 1e-5,
            "{what}: batched {batched} vs per-probe {per_probe} (relative {rel:e})"
        );
    }

    #[test]
    fn batched_sweep_matches_per_probe_segment_errors() {
        let upd = setup(223);
        // 15 test queries × 10 thresholds: the sweep crosses a chunk boundary.
        assert!(upd.test_samples().len() > PROBE_CHUNK);
        let monitor = DriftMonitor::new(&upd, test_cfg());
        let mut sums = vec![0.0f32; monitor.counts.len()];
        for (&seg, err) in monitor.probe_seg.iter().zip(per_probe_q_errors(&upd)) {
            sums[seg] += err;
        }
        let batched = monitor.per_segment_error(&upd);
        for (seg, ((&got, &sum), &c)) in batched.iter().zip(&sums).zip(&monitor.counts).enumerate()
        {
            let want = if c == 0 { 0.0 } else { sum / c as f32 };
            assert_close(got, want, &format!("segment {seg}"));
        }
    }

    #[test]
    fn mean_test_q_error_matches_per_probe_mean() {
        let upd = setup(224);
        assert!(upd.test_samples().len() > PROBE_CHUNK);
        let want = ErrorSummary::from_errors(&per_probe_q_errors(&upd)).mean;
        assert_close(upd.mean_test_q_error(), want, "mean_test_q_error");
    }

    #[test]
    fn stationary_stream_does_not_fire() {
        let mut upd = setup(220);
        let mut monitor = DriftMonitor::new(&upd, test_cfg());
        // Stationary stream: duplicates of existing rows spread across the
        // whole dataset (~3% growth), checked after every batch.
        let mut fired_checks = 0u64;
        for b in 0..4usize {
            let ids: Vec<usize> = (0..4).map(|k| (b * 131 + k * 37) % 500).collect();
            let pts = upd.data().gather(&ids);
            for i in 0..pts.len() {
                upd.apply_insert(pts.view(i));
            }
            if monitor.note_inserts(pts.len()) {
                let verdict = monitor.check(&upd);
                if verdict.triggered() {
                    fired_checks += 1;
                }
            }
        }
        // False-positive bound: an in-distribution stream of this size
        // must never trigger a fine-tune.
        assert!(monitor.checks() >= 2, "checks must actually have run");
        assert_eq!(
            fired_checks, 0,
            "stationary stream fired a drift trigger (false positive)"
        );
    }

    #[test]
    fn shift_stream_fires_the_affected_segment() {
        let mut upd = setup(221);
        let mut monitor = DriftMonitor::new(&upd, test_cfg());
        // Distribution shift: a burst of points all landing exactly on one
        // probe query (distance 0 ≤ every tau), so that probe's true
        // cardinality jumps while the model still answers from stale
        // labels. The burst routes to the query's own nearest segment.
        let probe = quietest_probe(&upd);
        let s = upd.test_samples()[probe];
        let target_seg = upd
            .gl()
            .segmentation()
            .nearest_segment(upd.queries().view(s.query));
        let burst = upd.queries().gather(&[s.query]);
        let mut verdicts = Vec::new();
        for _ in 0..3 {
            for _ in 0..8 {
                upd.apply_insert(burst.view(0));
            }
            if monitor.note_inserts(8) {
                verdicts.push(monitor.check(&upd));
            }
        }
        let fired: Vec<usize> = verdicts.iter().flat_map(|v| v.fired.clone()).collect();
        assert!(
            !fired.is_empty(),
            "shift stream never fired (last ratios: {:?})",
            verdicts.last().map(|v| v.ratios.clone())
        );
        assert!(
            fired.contains(&target_seg),
            "drift fired {fired:?} but the shifted probe lives in segment {target_seg}"
        );
        assert!(monitor.triggers() >= 1);
    }

    #[test]
    fn rebaseline_resets_the_trigger() {
        let mut upd = setup(222);
        let mut monitor = DriftMonitor::new(
            &upd,
            DriftConfig {
                check_every: 1,
                ..Default::default()
            },
        );
        let probe = quietest_probe(&upd);
        let s = upd.test_samples()[probe];
        let q = upd.queries().gather(&[s.query]);
        for _ in 0..24 {
            upd.apply_insert(q.view(0));
        }
        let before = monitor.check(&upd);
        assert!(before.triggered(), "burst must trigger before rebaseline");
        // After a fine-tune the worker rebaselines; the same state must no
        // longer read as drifted (here the rebaseline alone is exercised).
        monitor.rebaseline(&upd);
        let after = monitor.check(&upd);
        assert!(
            !after.triggered(),
            "rebaselined monitor re-fired on unchanged state: {:?}",
            after.fired
        );
    }
}
