//! The guarded serving wrapper.
//!
//! [`GuardedEstimator`] stands between a trained model and its callers and
//! enforces the invariants no learned estimator guarantees by itself
//! (cf. the monotonic-estimation line of work — a serving layer can check
//! `card ∈ [0, |D|]` and monotonicity in τ independently of the model):
//!
//! * **Input validation** — malformed queries (wrong dimensionality,
//!   NaN/Inf components, NaN/negative τ) are rejected with a typed
//!   [`CardestError`] before any forward pass.
//! * **Graceful degradation** — recoverable conditions (τ beyond the
//!   trained range, a non-finite or negative model output) are answered by
//!   a configured cheap fallback (sampling or histogram baseline) instead
//!   of an error, with counters recording every fallback taken and why.
//! * **Output clamping** — estimates are clamped to `[0, |D|]`; a search
//!   cardinality cannot exceed the dataset.
//! * **Monotonicity repair** (optional) — within a batch, consecutive
//!   entries that repeat the same query with non-decreasing τ get
//!   non-decreasing estimates (a running max), the cheap serving-side
//!   version of the monotone-by-construction models.
//!
//! Counters are atomic: one wrapper is shared across serving threads like
//! the estimators themselves.

use crate::traits::CardinalityEstimator;
use cardest_data::validate::CardestError;
use cardest_data::vector::{VectorData, VectorView};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Snapshot of a [`GuardedEstimator`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Queries that reached a (model or fallback) estimate.
    pub served: usize,
    /// Queries rejected before any estimate (unrecoverable input errors).
    pub rejected: usize,
    /// Queries answered by the fallback estimator: the sum of
    /// `fallback_reasons`.
    pub fallbacks: usize,
    /// Why each fallback was taken.
    pub fallback_reasons: FallbackReasons,
    /// Estimates clamped into `[0, |D|]`.
    pub clamped: usize,
    /// Estimates raised by the monotonicity repair.
    pub monotone_fixes: usize,
}

/// Queries answered by the fallback, by why the primary's answer was not
/// served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FallbackReasons {
    /// τ beyond the primary's trained range: the primary never ran.
    pub tau_out_of_range: usize,
    /// The primary's estimate was NaN or infinite.
    pub non_finite: usize,
    /// The primary's estimate was negative.
    pub negative: usize,
}

/// Why one query goes to the fallback.
#[derive(Debug, Clone, Copy)]
enum Reason {
    TauOutOfRange,
    NonFinite,
    Negative,
}

/// A serving wrapper around a primary estimator and a cheap fallback.
///
/// The fallback must accept the same queries as the primary (same
/// dimensionality) and should be model-free — a `SamplingEstimator` or
/// `HistogramEstimator` — so it cannot share the primary's failure modes.
pub struct GuardedEstimator<E, F> {
    inner: E,
    fallback: F,
    /// Dataset size — the output clamp's upper bound.
    n_data: usize,
    monotone: bool,
    served: AtomicUsize,
    rejected: AtomicUsize,
    fallbacks: AtomicUsize,
    tau_out_of_range: AtomicUsize,
    non_finite: AtomicUsize,
    negative: AtomicUsize,
    clamped: AtomicUsize,
    monotone_fixes: AtomicUsize,
}

impl<E: CardinalityEstimator, F: CardinalityEstimator> GuardedEstimator<E, F> {
    /// Wraps `inner`, degrading to `fallback`; estimates are clamped to
    /// `[0, n_data]`.
    pub fn new(inner: E, fallback: F, n_data: usize) -> Self {
        GuardedEstimator {
            inner,
            fallback,
            n_data,
            monotone: false,
            served: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            fallbacks: AtomicUsize::new(0),
            tau_out_of_range: AtomicUsize::new(0),
            non_finite: AtomicUsize::new(0),
            negative: AtomicUsize::new(0),
            clamped: AtomicUsize::new(0),
            monotone_fixes: AtomicUsize::new(0),
        }
    }

    /// Enables the in-batch monotone-in-τ repair.
    pub fn with_monotone(mut self, on: bool) -> Self {
        self.monotone = on;
        self
    }

    /// The wrapped primary estimator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The configured fallback estimator.
    pub fn fallback(&self) -> &F {
        &self.fallback
    }

    /// Counter snapshot (monotonically increasing over the wrapper's life).
    pub fn stats(&self) -> GuardStats {
        GuardStats {
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            fallback_reasons: FallbackReasons {
                tau_out_of_range: self.tau_out_of_range.load(Ordering::Relaxed),
                non_finite: self.non_finite.load(Ordering::Relaxed),
                negative: self.negative.load(Ordering::Relaxed),
            },
            clamped: self.clamped.load(Ordering::Relaxed),
            monotone_fixes: self.monotone_fixes.load(Ordering::Relaxed),
        }
    }

    /// Serves one query; see [`GuardedEstimator::serve_batch`].
    pub fn serve(&self, q: VectorView<'_>, tau: f32) -> Result<f32, CardestError> {
        self.serve_batch(&[(q, tau)]).pop().unwrap_or(Ok(0.0))
    }

    /// Serves a batch, returning one result per entry in input order.
    ///
    /// Well-formed entries run through the primary in one batched forward
    /// pass; recoverable conditions (τ beyond the trained range, non-finite
    /// or negative model output) are re-answered by the fallback; malformed
    /// inputs come back as `Err` without touching either estimator.
    pub fn serve_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<Result<f32, CardestError>> {
        let guard = self.inner.guard();
        let mut out: Vec<Result<f32, CardestError>> = Vec::with_capacity(queries.len());
        let mut primary_rows: Vec<usize> = Vec::new();
        let mut fallback_rows: Vec<(usize, Reason)> = Vec::new();
        for (i, &(q, tau)) in queries.iter().enumerate() {
            match guard.validate(i, q, tau) {
                Ok(()) => {
                    primary_rows.push(i);
                    out.push(Ok(f32::NAN)); // placeholder, overwritten below
                }
                Err(e) if e.is_recoverable() => {
                    let reason = match e {
                        CardestError::TauOutOfRange { .. } => Reason::TauOutOfRange,
                        _ => Reason::NonFinite,
                    };
                    fallback_rows.push((i, reason));
                    out.push(Ok(f32::NAN));
                }
                Err(e) => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    out.push(Err(e));
                }
            }
        }

        if !primary_rows.is_empty() {
            let batch: Vec<(VectorView<'_>, f32)> =
                primary_rows.iter().map(|&i| queries[i]).collect();
            let preds = self.inner.estimate_batch(&batch);
            for (&i, pred) in primary_rows.iter().zip(preds) {
                // The model misbehaved on a well-formed input: degrade.
                if !pred.is_finite() {
                    fallback_rows.push((i, Reason::NonFinite));
                } else if pred < 0.0 {
                    fallback_rows.push((i, Reason::Negative));
                } else {
                    out[i] = Ok(self.clamp(pred));
                }
            }
        }

        if !fallback_rows.is_empty() {
            fallback_rows.sort_unstable_by_key(|&(i, _)| i);
            let batch: Vec<(VectorView<'_>, f32)> =
                fallback_rows.iter().map(|&(i, _)| queries[i]).collect();
            let preds = self.fallback.estimate_batch(&batch);
            for (&(i, reason), pred) in fallback_rows.iter().zip(preds) {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                let by_reason = match reason {
                    Reason::TauOutOfRange => &self.tau_out_of_range,
                    Reason::NonFinite => &self.non_finite,
                    Reason::Negative => &self.negative,
                };
                by_reason.fetch_add(1, Ordering::Relaxed);
                if pred.is_finite() {
                    out[i] = Ok(self.clamp(pred.max(0.0)));
                } else {
                    // Even the fallback failed — surface it, don't invent.
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    out[i] = Err(CardestError::NonFiniteEstimate {
                        index: i,
                        value: pred,
                    });
                }
            }
        }

        if self.monotone {
            self.repair_monotone(queries, &mut out);
        }
        let served = out.iter().filter(|r| r.is_ok()).count();
        self.served.fetch_add(served, Ordering::Relaxed);
        out
    }

    fn clamp(&self, v: f32) -> f32 {
        let cap = self.n_data as f32;
        let c = v.clamp(0.0, cap);
        if c != v {
            self.clamped.fetch_add(1, Ordering::Relaxed);
        }
        c
    }

    /// Raises estimates to a running max across consecutive entries that
    /// repeat the same query with non-decreasing τ. A τ decrease or a new
    /// query starts a fresh run.
    fn repair_monotone(
        &self,
        queries: &[(VectorView<'_>, f32)],
        out: &mut [Result<f32, CardestError>],
    ) {
        let mut run_start: Option<usize> = None;
        let mut floor = 0.0f32;
        let mut prev_tau = f32::NEG_INFINITY;
        for i in 0..queries.len() {
            let (q, tau) = queries[i];
            let continues = run_start
                .map(|s| views_equal(queries[s].0, q) && tau >= prev_tau)
                .unwrap_or(false);
            if !continues {
                run_start = Some(i);
                floor = 0.0;
            }
            prev_tau = tau;
            if let Ok(v) = out[i] {
                if v < floor {
                    out[i] = Ok(v.max(floor));
                    self.monotone_fixes.fetch_add(1, Ordering::Relaxed);
                }
                floor = floor.max(v);
            }
        }
    }
}

/// Content equality of two query views (same representation required).
fn views_equal(a: VectorView<'_>, b: VectorView<'_>) -> bool {
    match (a, b) {
        (VectorView::Dense(x), VectorView::Dense(y)) => x == y,
        (VectorView::Binary { words: wx, dim: dx }, VectorView::Binary { words: wy, dim: dy }) => {
            dx == dy && wx == wy
        }
        _ => false,
    }
}

/// The wrapper is itself an estimator, so the bench harness and join paths
/// can use it anywhere an unguarded model goes. The infallible methods
/// answer rejected queries with 0 — the caller that wants the error uses
/// [`GuardedEstimator::serve_batch`].
impl<E: CardinalityEstimator, F: CardinalityEstimator> CardinalityEstimator
    for GuardedEstimator<E, F>
{
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&self, q: VectorView<'_>, tau: f32) -> f32 {
        self.serve(q, tau).unwrap_or(0.0)
    }

    fn estimate_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<f32> {
        self.serve_batch(queries)
            .into_iter()
            .map(|r| r.unwrap_or(0.0))
            .collect()
    }

    fn estimate_join(&self, queries: &VectorData, member_ids: &[usize], tau: f32) -> f32 {
        let batch: Vec<(VectorView<'_>, f32)> =
            member_ids.iter().map(|&i| (queries.view(i), tau)).collect();
        self.estimate_batch(&batch).iter().sum()
    }

    fn model_bytes(&self) -> usize {
        self.inner.model_bytes() + self.fallback.model_bytes()
    }

    fn expected_dim(&self) -> Option<usize> {
        self.inner.expected_dim()
    }

    // τ beyond the primary's trained range is served by the fallback, so
    // the wrapper's own admissible range is the fallback's.
    fn tau_bound(&self) -> Option<f32> {
        self.fallback.tau_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Primary with a trained range and scripted failures.
    struct Flaky {
        dim: usize,
        tau_max: f32,
        /// Return NaN when τ is in this half-open interval.
        nan_from: f32,
    }

    impl CardinalityEstimator for Flaky {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn estimate(&self, _q: VectorView<'_>, tau: f32) -> f32 {
            if tau >= self.nan_from {
                f32::NAN
            } else {
                tau * 1000.0
            }
        }
        fn model_bytes(&self) -> usize {
            0
        }
        fn expected_dim(&self) -> Option<usize> {
            Some(self.dim)
        }
        fn tau_bound(&self) -> Option<f32> {
            Some(self.tau_max)
        }
    }

    /// Fallback: τ·10, unconditionally.
    struct Cheap;
    impl CardinalityEstimator for Cheap {
        fn name(&self) -> &'static str {
            "cheap"
        }
        fn estimate(&self, _q: VectorView<'_>, tau: f32) -> f32 {
            tau * 10.0
        }
        fn model_bytes(&self) -> usize {
            0
        }
    }

    fn guarded(nan_from: f32) -> GuardedEstimator<Flaky, Cheap> {
        GuardedEstimator::new(
            Flaky {
                dim: 2,
                tau_max: 1.0,
                nan_from,
            },
            Cheap,
            100,
        )
    }

    #[test]
    fn clean_queries_pass_through_clamped() {
        let g = guarded(f32::INFINITY);
        let q = [0.0f32, 0.0];
        assert_eq!(g.serve(VectorView::Dense(&q), 0.05), Ok(50.0));
        // τ = 0.5 → raw 500, clamped to |D| = 100.
        assert_eq!(g.serve(VectorView::Dense(&q), 0.5), Ok(100.0));
        let s = g.stats();
        assert_eq!((s.served, s.rejected, s.fallbacks, s.clamped), (2, 0, 0, 1));
    }

    #[test]
    fn malformed_inputs_are_rejected_not_served() {
        let g = guarded(f32::INFINITY);
        let q = [0.0f32, 0.0];
        assert!(g.serve(VectorView::Dense(&[0.0; 3]), 0.1).is_err());
        assert!(g.serve(VectorView::Dense(&[f32::NAN, 0.0]), 0.1).is_err());
        assert!(g.serve(VectorView::Dense(&q), -0.5).is_err());
        assert!(g.serve(VectorView::Dense(&q), f32::NAN).is_err());
        let s = g.stats();
        assert_eq!((s.served, s.rejected, s.fallbacks), (0, 4, 0));
        // The infallible surface answers 0 instead.
        assert_eq!(g.estimate(VectorView::Dense(&[0.0; 3]), 0.1), 0.0);
    }

    #[test]
    fn tau_beyond_trained_range_degrades_to_fallback() {
        let g = guarded(f32::INFINITY);
        let q = [0.0f32, 0.0];
        // τ = 2.0 > tau_max = 1.0 → fallback answers 20.
        assert_eq!(g.serve(VectorView::Dense(&q), 2.0), Ok(20.0));
        assert_eq!(g.stats().fallbacks, 1);
        let tau_out_of_range = FallbackReasons {
            tau_out_of_range: 1,
            ..FallbackReasons::default()
        };
        assert_eq!(g.stats().fallback_reasons, tau_out_of_range);
    }

    /// Primary that answers τ ≥ 0.5 with NaN and τ in [0.3, 0.5) with a
    /// negative estimate; its trained range ends at 1.
    struct Bad;
    impl CardinalityEstimator for Bad {
        fn name(&self) -> &'static str {
            "bad"
        }
        fn estimate(&self, _q: VectorView<'_>, tau: f32) -> f32 {
            match tau {
                t if t >= 0.5 => f32::NAN,
                t if t >= 0.3 => -1.0,
                t => t * 100.0,
            }
        }
        fn model_bytes(&self) -> usize {
            0
        }
        fn tau_bound(&self) -> Option<f32> {
            Some(1.0)
        }
    }

    #[test]
    fn negative_model_output_degrades_to_fallback() {
        let g = GuardedEstimator::new(Bad, Cheap, 100);
        let q = [0.0f32, 0.0];
        assert_eq!(g.serve(VectorView::Dense(&q), 0.4), Ok(4.0));
        let s = g.stats();
        let negative = FallbackReasons {
            negative: 1,
            ..FallbackReasons::default()
        };
        assert_eq!((s.fallbacks, s.fallback_reasons), (1, negative));
    }

    #[test]
    fn fallback_reasons_sum_to_the_fallbacks_of_a_mixed_batch() {
        let g = GuardedEstimator::new(Bad, Cheap, 100);
        let q = [0.0f32, 0.0];
        let batch: Vec<_> = [0.1, 0.4, 2.0, 0.7, 0.45, 3.0, 0.9]
            .map(|tau| (VectorView::Dense(&q), tau))
            .to_vec();
        assert!(g.serve_batch(&batch).iter().all(Result::is_ok));
        let s = g.stats();
        let want = FallbackReasons {
            tau_out_of_range: 2,
            non_finite: 2,
            negative: 2,
        };
        assert_eq!((s.fallbacks, s.fallback_reasons), (6, want));
    }

    #[test]
    fn non_finite_model_output_degrades_to_fallback() {
        let g = guarded(0.5); // model NaNs for τ ≥ 0.5
        let q = [0.0f32, 0.0];
        let batch = [
            (VectorView::Dense(&q), 0.1),
            (VectorView::Dense(&q), 0.7),
            (VectorView::Dense(&q), 0.2),
        ];
        let got = g.serve_batch(&batch);
        assert_eq!(got, vec![Ok(100.0), Ok(7.0), Ok(100.0)]);
        let s = g.stats();
        assert_eq!((s.served, s.fallbacks), (3, 1));
        let non_finite = FallbackReasons {
            non_finite: 1,
            ..FallbackReasons::default()
        };
        assert_eq!(s.fallback_reasons, non_finite);
    }

    #[test]
    fn monotone_repair_raises_only_within_a_run() {
        /// Deliberately non-monotone primary: estimate dips at τ = 0.3.
        struct Dip;
        impl CardinalityEstimator for Dip {
            fn name(&self) -> &'static str {
                "dip"
            }
            fn estimate(&self, _q: VectorView<'_>, tau: f32) -> f32 {
                if (tau - 0.3).abs() < 1e-6 {
                    1.0
                } else {
                    tau * 100.0
                }
            }
            fn model_bytes(&self) -> usize {
                0
            }
        }
        let g = GuardedEstimator::new(Dip, Cheap, 1000).with_monotone(true);
        let a = [0.0f32, 0.0];
        let b = [1.0f32, 1.0];
        let batch = [
            (VectorView::Dense(&a), 0.1), // 10
            (VectorView::Dense(&a), 0.2), // 20
            (VectorView::Dense(&a), 0.3), // dips to 1 → repaired to 20
            (VectorView::Dense(&a), 0.4), // 40
            (VectorView::Dense(&b), 0.3), // new query: dip NOT repaired
        ];
        let got: Vec<f32> = g
            .serve_batch(&batch)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, vec![10.0, 20.0, 20.0, 40.0, 1.0]);
        assert_eq!(g.stats().monotone_fixes, 1);
    }

    #[test]
    fn wrapper_is_shareable_across_threads() {
        let g = std::sync::Arc::new(guarded(f32::INFINITY));
        let q = [0.0f32, 0.0];
        std::thread::scope(|s| {
            for _ in 0..4 {
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        let _ = g.serve(VectorView::Dense(&q), 0.05);
                    }
                });
            }
        });
        assert_eq!(g.stats().served, 100);
    }
}
