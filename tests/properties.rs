//! Property-based tests (proptest) on the core invariants of the
//! workspace: metric axioms, loss behaviour, error metrics, label
//! partitioning and model monotonicity.

use cardest::prelude::*;
use cardest_nn::loss::{hybrid_loss, minmax_weights};
use proptest::prelude::*;
use std::sync::OnceLock;

// ---------- metric axioms ----------

fn dense_vec(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, dim)
}

proptest! {
    /// §3.2's identity: on unit vectors the cosine distance equals half
    /// the squared Euclidean distance, for arbitrary directions.
    #[test]
    fn cosine_l2_identity_on_unit_vectors(a in dense_vec(8), b in dense_vec(8)) {
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assume!(norm(&a) > 1e-3 && norm(&b) > 1e-3);
        let ua: Vec<f32> = a.iter().map(|x| x / norm(&a)).collect();
        let ub: Vec<f32> = b.iter().map(|x| x / norm(&b)).collect();
        let cos = Metric::Cosine.distance(VectorView::Dense(&ua), VectorView::Dense(&ub));
        let l2 = Metric::L2.distance(VectorView::Dense(&ua), VectorView::Dense(&ub));
        prop_assert!((cos - l2 * l2 / 2.0).abs() < 2e-3, "cos={cos} l2²/2={}", l2 * l2 / 2.0);
    }

    /// Symmetry and self-distance ≈ 0 for the dense metrics.
    #[test]
    fn dense_metrics_are_symmetric(a in dense_vec(12), b in dense_vec(12)) {
        for m in [Metric::L1, Metric::L2, Metric::Angular] {
            let ab = m.distance(VectorView::Dense(&a), VectorView::Dense(&b));
            let ba = m.distance(VectorView::Dense(&b), VectorView::Dense(&a));
            prop_assert!((ab - ba).abs() <= 1e-5 * ab.abs().max(1.0));
            let aa = m.distance(VectorView::Dense(&a), VectorView::Dense(&a));
            prop_assert!(aa.abs() < 1e-2, "{m:?} self-distance {aa}");
        }
    }

    /// Triangle inequality for L1/L2/Hamming on random binary vectors.
    #[test]
    fn binary_metrics_satisfy_triangle_inequality(
        xs in prop::collection::vec(prop::collection::vec(any::<bool>(), 40), 3)
    ) {
        let mut data = BinaryData::new(40);
        for x in &xs {
            data.push_bools(x);
        }
        let v = |i: usize| VectorView::Binary { words: data.row(i), dim: 40 };
        for m in [Metric::Hamming, Metric::Jaccard] {
            let ab = m.distance(v(0), v(1));
            let bc = m.distance(v(1), v(2));
            let ac = m.distance(v(0), v(2));
            prop_assert!(
                ac <= ab + bc + 1e-5,
                "{m:?}: d(a,c)={ac} > d(a,b)+d(b,c)={}",
                ab + bc
            );
        }
    }

    /// Binary distances are invariant under the dense expansion: the
    /// popcount fast path equals the elementwise generic path.
    #[test]
    fn binary_fast_path_matches_dense_expansion(
        a in prop::collection::vec(any::<bool>(), 70),
        b in prop::collection::vec(any::<bool>(), 70),
    ) {
        let mut data = BinaryData::new(70);
        data.push_bools(&a);
        data.push_bools(&b);
        let af: Vec<f32> = a.iter().map(|&x| x as u8 as f32).collect();
        let bf: Vec<f32> = b.iter().map(|&x| x as u8 as f32).collect();
        for m in [Metric::Hamming, Metric::Jaccard] {
            let fast = m.distance(
                VectorView::Binary { words: data.row(0), dim: 70 },
                VectorView::Binary { words: data.row(1), dim: 70 },
            );
            let slow = m.distance(VectorView::Dense(&af), VectorView::Dense(&bf));
            prop_assert!((fast - slow).abs() < 1e-5, "{m:?}: {fast} vs {slow}");
        }
    }
}

// ---------- error metrics and losses ----------

proptest! {
    /// Q-error is symmetric, ≥ 1, and exactly 1 on perfect estimates.
    #[test]
    fn q_error_axioms(est in 0.0f32..1e6, truth in 0.0f32..1e6) {
        let q = q_error(est, truth);
        prop_assert!(q >= 1.0);
        prop_assert!((q - q_error(truth, est)).abs() < 1e-3 * q);
        prop_assert!((q_error(truth, truth) - 1.0).abs() < 1e-6);
    }

    /// The hybrid loss pushes the estimate toward the truth: gradient is
    /// positive when overestimating, negative when underestimating.
    #[test]
    fn hybrid_loss_gradient_points_at_truth(card in 1.0f32..10_000.0, off in 0.3f32..3.0) {
        let log_truth = card.ln();
        let (_, g_over) = hybrid_loss(&[log_truth + off], &[card], 0.5);
        let (_, g_under) = hybrid_loss(&[log_truth - off], &[card], 0.5);
        prop_assert!(g_over[0] > 0.0, "overestimate must push down, got {}", g_over[0]);
        prop_assert!(g_under[0] < 0.0, "underestimate must push up, got {}", g_under[0]);
    }

    /// Min-max weights are within [0,1] and hit both bounds when the
    /// input has spread.
    #[test]
    fn minmax_weights_bounds(cards in prop::collection::vec(0.0f32..1e5, 2..20)) {
        let w = minmax_weights(&cards);
        prop_assert!(w.iter().all(|x| (0.0..=1.0).contains(x)));
        let spread = cards.iter().cloned().fold(f32::MIN, f32::max)
            - cards.iter().cloned().fold(f32::MAX, f32::min);
        if spread > 0.0 {
            prop_assert!(w.contains(&0.0) && w.contains(&1.0));
        }
    }

    /// ErrorSummary percentiles are ordered: median ≤ p90 ≤ p95 ≤ p99 ≤ max.
    #[test]
    fn summary_percentiles_are_ordered(errs in prop::collection::vec(1.0f32..1e4, 1..200)) {
        let s = ErrorSummary::from_errors(&errs);
        prop_assert!(s.median <= s.p90 + 1e-6);
        prop_assert!(s.p90 <= s.p95 + 1e-6);
        prop_assert!(s.p95 <= s.p99 + 1e-6);
        prop_assert!(s.p99 <= s.max + 1e-6);
        prop_assert!(s.mean <= s.max + 1e-6);
    }
}

// ---------- ground truth ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact cardinality is monotone in τ and segment labels always
    /// partition the total, for arbitrary thresholds.
    #[test]
    fn cardinality_is_monotone_and_partitioned(taus in prop::collection::vec(0.0f32..1.0, 1..8)) {
        static CTX: OnceLock<(VectorData, DatasetSpec)> = OnceLock::new();
        let (data, spec) = CTX.get_or_init(|| {
            let spec = DatasetSpec { n_data: 300, ..PaperDataset::ImageNet.spec() };
            (spec.generate(5), spec)
        });
        let queries = data.gather(&[0, 17]);
        let table = cardest::data::ground_truth::DistanceTable::compute(
            &queries, data, spec.metric,
        );
        let seg_of: Vec<usize> = (0..data.len()).map(|i| i % 5).collect();
        let mut sorted = taus.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in 0..2 {
            let mut prev = 0u32;
            for &tau in &sorted {
                let c = table.cardinality(q, tau);
                prop_assert!(c >= prev, "cardinality decreased with tau");
                let segs = table.segment_cardinalities(q, tau, &seg_of, 5);
                prop_assert_eq!(segs.iter().sum::<u32>(), c);
                prev = c;
            }
        }
    }
}

// ---------- batched inference parity ----------

/// A tiny workload plus one trained estimator of every batch-capable kind,
/// shared (immutably — inference is `&self`) by the parity properties.
struct BatchedModels {
    w: SearchWorkload,
    tau_max: f32,
    mlp: MlpEstimator,
    qes: QesEstimator,
    cardnet: CardNet,
    gl_cnn: GlEstimator,
    gl_plus: GlEstimator,
    sampling: SamplingEstimator,
    kernel: KernelEstimator,
    histogram: HistogramEstimator,
}

fn batched_models() -> &'static BatchedModels {
    static MODELS: OnceLock<BatchedModels> = OnceLock::new();
    MODELS.get_or_init(|| {
        let spec = DatasetSpec {
            n_data: 500,
            n_train_queries: 40,
            n_test_queries: 10,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(31);
        let w = SearchWorkload::build(&data, &spec, 31);
        let training = TrainingSet::new(&w.queries, &w.train);
        let mut mlp_cfg = MlpConfig {
            k_samples: 16,
            ..Default::default()
        };
        mlp_cfg.train.epochs = 3;
        let (mlp, _) = MlpEstimator::train(&data, spec.metric, &training, &mlp_cfg, 31);
        let mut qes_cfg = QesConfig {
            k_samples: 16,
            ..Default::default()
        };
        qes_cfg.train.epochs = 3;
        let (qes, _) = QesEstimator::train(&data, spec.metric, &training, &qes_cfg, 31);
        let mut cn_cfg = CardNetConfig::default();
        cn_cfg.train.epochs = 3;
        let (cardnet, _) = CardNet::train(&training, spec.tau_max, &cn_cfg, 31);
        let gl = |variant| {
            let mut cfg = GlConfig::for_variant(variant);
            cfg.n_segments = 5;
            cfg.local_train.epochs = 4;
            cfg.global_train.epochs = 4;
            cfg.tuning = cardest::core::tuning::TuningConfig::fast();
            cfg.tuning_segments = 1;
            GlEstimator::train(&data, spec.metric, &training, &w.table, &cfg)
        };
        let gl_cnn = gl(GlVariant::GlCnn);
        let gl_plus = gl(GlVariant::GlPlus);
        let sampling = SamplingEstimator::with_ratio(&data, spec.metric, 0.1, 31, "Sampling (10%)");
        let kernel = KernelEstimator::new(&data, spec.metric, 0.1, 31);
        let histogram = HistogramEstimator::build(&data, spec.metric, 2000, 31);
        BatchedModels {
            w,
            tau_max: spec.tau_max,
            mlp,
            qes,
            cardnet,
            gl_cnn,
            gl_plus,
            sampling,
            kernel,
            histogram,
        }
    })
}

/// The `estimate_batch` contract: batched and one-at-a-time estimates
/// agree within 1e-5 relative error for any batch composition.
fn assert_batch_parity(
    est: &dyn CardinalityEstimator,
    w: &SearchWorkload,
    picks: &[(usize, f32)],
) -> Result<(), TestCaseError> {
    let queries: Vec<(VectorView<'_>, f32)> = picks
        .iter()
        .map(|&(q, tau)| (w.queries.view(q), tau))
        .collect();
    let batched = est.estimate_batch(&queries);
    prop_assert_eq!(batched.len(), picks.len());
    for (b, &(q, tau)) in batched.iter().zip(picks) {
        let seq = est.estimate(w.queries.view(q), tau);
        let tol = 1e-5 * seq.abs().max(1.0);
        prop_assert!(
            (b - seq).abs() <= tol,
            "{}: batch={} sequential={} at q={} tau={}",
            est.name(),
            b,
            seq,
            q,
            tau
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched == sequential for every batch-capable estimator, on random
    /// batches mixing duplicate queries and arbitrary thresholds.
    #[test]
    fn estimate_batch_matches_sequential(
        picks in prop::collection::vec((0usize..50, 0.02f32..1.0), 1..24)
    ) {
        let m = batched_models();
        let picks: Vec<(usize, f32)> =
            picks.iter().map(|&(q, t)| (q, t * m.tau_max)).collect();
        assert_batch_parity(&m.mlp, &m.w, &picks)?;
        assert_batch_parity(&m.qes, &m.w, &picks)?;
        assert_batch_parity(&m.cardnet, &m.w, &picks)?;
        assert_batch_parity(&m.gl_cnn, &m.w, &picks)?;
        assert_batch_parity(&m.gl_plus, &m.w, &picks)?;
    }
}

/// Inference is `&self`, so a trained estimator is `Sync`: two scoped
/// threads sharing one model must return identical results (each thread
/// draws from its own thread-local scratch pool).
#[test]
fn shared_estimator_across_threads_returns_identical_results() {
    fn assert_sync<T: Sync>(_: &T) {}
    let m = batched_models();
    assert_sync(&m.gl_plus);
    assert_sync(&m.mlp);
    let queries: Vec<(VectorView<'_>, f32)> =
        m.w.test
            .iter()
            .map(|s| (m.w.queries.view(s.query), s.tau))
            .collect();
    let est = &m.gl_plus;
    let (a, b) = std::thread::scope(|s| {
        let h1 = s.spawn(|| est.estimate_batch(&queries));
        let h2 = s.spawn(|| est.estimate_batch(&queries));
        (h1.join().expect("thread 1"), h2.join().expect("thread 2"))
    });
    assert_eq!(a, b, "two threads sharing one model disagreed");
    // And both agree with the main thread's sequential path.
    for (r, &(q, tau)) in a.iter().zip(&queries) {
        let seq = est.estimate(q, tau);
        assert!(
            (r - seq).abs() <= 1e-5 * seq.abs().max(1.0),
            "threaded batch {r} vs sequential {seq}"
        );
    }
}

// ---------- serving guarantees ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every estimator in the workspace returns a finite, non-negative
    /// estimate for any in-domain query — including thresholds beyond the
    /// trained range, where the learned regressors extrapolate and the
    /// shared `decode_log_card` clamp is the only thing standing between
    /// the caller and ±∞.
    #[test]
    fn every_estimator_is_finite_and_non_negative(q in 0usize..50, t in 0.0f32..2.0) {
        let m = batched_models();
        let tau = t * m.tau_max;
        let ests: [&dyn CardinalityEstimator; 8] = [
            &m.mlp, &m.qes, &m.cardnet, &m.gl_cnn, &m.gl_plus,
            &m.sampling, &m.kernel, &m.histogram,
        ];
        for est in ests {
            let e = est.estimate(m.w.queries.view(q), tau);
            prop_assert!(
                e.is_finite() && e >= 0.0,
                "{}: estimate {e} at q={q} tau={tau}",
                est.name()
            );
        }
    }
}

/// A cheap dense-metric MLP for exercising the `try_estimate` rejection
/// classes (binary views have no per-component scan, so the non-finite
/// component classes need a dense dataset).
fn dense_mlp() -> &'static (MlpEstimator, usize) {
    static MODEL: OnceLock<(MlpEstimator, usize)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let spec = DatasetSpec {
            n_data: 300,
            n_train_queries: 24,
            n_test_queries: 6,
            ..PaperDataset::GloVe300.spec()
        };
        let data = spec.generate(17);
        let w = SearchWorkload::build(&data, &spec, 17);
        let training = TrainingSet::new(&w.queries, &w.train);
        let mut cfg = MlpConfig {
            k_samples: 8,
            ..Default::default()
        };
        cfg.train.epochs = 2;
        let (mlp, _) = MlpEstimator::train(&data, spec.metric, &training, &cfg, 17);
        (mlp, spec.dim)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On clean input `try_estimate` is the identity wrapper: `Ok` with
    /// exactly the infallible path's value.
    #[test]
    fn try_estimate_matches_estimate_on_valid_input(q in dense_vec(64), t in 0.01f32..1.0) {
        let (mlp, _) = dense_mlp();
        let tau = t * mlp.tau_bound().expect("MLP advertises a tau bound");
        prop_assert_eq!(
            mlp.try_estimate(VectorView::Dense(&q), tau),
            Ok(mlp.estimate(VectorView::Dense(&q), tau))
        );
    }

    /// Every malformed-input class is rejected with its matching
    /// `CardestError` variant, for arbitrary otherwise-valid queries:
    /// wrong dimensionality, NaN/±∞ components, non-finite τ, negative τ,
    /// and τ beyond the trained bound.
    #[test]
    fn try_estimate_rejects_every_malformed_class(
        q in dense_vec(64),
        bad_idx in 0usize..64,
        wrong_dim in 1usize..200,
        t in 0.01f32..1.0,
    ) {
        let (mlp, dim) = dense_mlp();
        let bound = mlp.tau_bound().expect("MLP advertises a tau bound");
        let tau = t * bound;

        // Wrong dimensionality (exact-dim inputs are valid, skip those).
        if wrong_dim != *dim {
            let resized = vec![0.0f32; wrong_dim];
            prop_assert_eq!(
                mlp.try_estimate(VectorView::Dense(&resized), tau),
                Err(CardestError::DimensionMismatch {
                    index: 0,
                    expected: *dim,
                    got: wrong_dim
                })
            );
        }

        // A NaN/±∞ component anywhere in the vector.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = q.clone();
            poisoned[bad_idx] = bad;
            match mlp.try_estimate(VectorView::Dense(&poisoned), tau) {
                Err(CardestError::NonFiniteQuery { index: 0, component, value }) => {
                    prop_assert_eq!(component, bad_idx);
                    prop_assert_eq!(value.is_nan(), bad.is_nan());
                }
                other => prop_assert!(false, "expected NonFiniteQuery, got {other:?}"),
            }
        }

        // Non-finite τ (NaN equality is always false, so match the shape).
        prop_assert!(matches!(
            mlp.try_estimate(VectorView::Dense(&q), f32::NAN),
            Err(CardestError::NonFiniteTau { index: 0, .. })
        ));
        prop_assert!(matches!(
            mlp.try_estimate(VectorView::Dense(&q), f32::INFINITY),
            Err(CardestError::NonFiniteTau { index: 0, .. })
        ));

        // Negative τ.
        prop_assert_eq!(
            mlp.try_estimate(VectorView::Dense(&q), -tau.max(1e-3)),
            Err(CardestError::NegativeTau { index: 0, tau: -tau.max(1e-3) })
        );

        // τ beyond the trained bound.
        let over = bound * (1.0 + t);
        prop_assert_eq!(
            mlp.try_estimate(VectorView::Dense(&q), over),
            Err(CardestError::TauOutOfRange { index: 0, tau: over, bound })
        );
    }

    /// `try_estimate_batch` pinpoints the offending entry: one malformed
    /// entry at an arbitrary position fails the batch with that position
    /// in the error.
    #[test]
    fn try_estimate_batch_reports_offending_index(
        k in 1usize..8,
        pick in 0usize..8,
        t in 0.01f32..1.0,
    ) {
        let (mlp, dim) = dense_mlp();
        let tau = t * mlp.tau_bound().expect("MLP advertises a tau bound");
        let at = pick % k;
        let rows: Vec<Vec<f32>> = (0..k)
            .map(|j| vec![0.1f32; if j == at { *dim + 1 } else { *dim }])
            .collect();
        let entries: Vec<(VectorView<'_>, f32)> =
            rows.iter().map(|r| (VectorView::Dense(r), tau)).collect();
        match mlp.try_estimate_batch(&entries) {
            Err(e) => {
                prop_assert_eq!(e.batch_index(), at);
                prop_assert!(matches!(e, CardestError::DimensionMismatch { .. }));
            }
            Ok(_) => prop_assert!(false, "malformed batch entry must fail the batch"),
        }
    }
}

// ---------- compute kernels ----------

/// Deterministic matrix fill with negatives and exact zeros (zeros
/// exercise the reference path's historical zero-coefficient skip).
fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> cardest_nn::tensor::Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) as i32 % 1000) as f32 / 250.0 - 2.0;
            if v.abs() < 0.05 {
                0.0
            } else {
                v
            }
        })
        .collect();
    cardest_nn::tensor::Matrix::from_vec(rows, cols, data)
}

fn assert_matrix_close(
    got: &cardest_nn::tensor::Matrix,
    want: &cardest_nn::tensor::Matrix,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for r in 0..got.rows() {
        for c in 0..got.cols() {
            let (g, w) = (got.get(r, c), want.get(r, c));
            prop_assert!(
                (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                "{what} ({r},{c}): blocked {g} vs reference {w}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The register-blocked GEMM agrees with the scalar reference within
    /// 1e-5 on arbitrary shapes — including the 1×1 degenerate case and
    /// every micro-tile tail combination the range sweeps through.
    #[test]
    fn blocked_gemm_matches_scalar_reference(
        rows in 1usize..34,
        k in 1usize..40,
        n in 1usize..34,
        seed in any::<usize>(),
    ) {
        use cardest_nn::gemm;
        let seed = seed as u64;
        let a = seeded_matrix(rows, k, seed);
        let bt = seeded_matrix(n, k, seed ^ 0xA5A5);
        let mut nt = cardest_nn::tensor::Matrix::zeros(rows, n);
        a.matmul_nt_into(&bt, &mut nt);
        assert_matrix_close(&nt, &gemm::reference::matmul_nt(&a, &bt), "nt")?;

        let b2 = seeded_matrix(rows, n, seed ^ 0x5A5A);
        assert_matrix_close(&a.matmul_tn(&b2), &gemm::reference::matmul_tn(&a, &b2), "tn")?;

        let b3 = seeded_matrix(k, n, seed ^ 0x0F0F);
        assert_matrix_close(&a.matmul_nn(&b3), &gemm::reference::matmul_nn(&a, &b3), "nn")?;
    }

    /// Zero-extent operands are handled without panicking and produce
    /// empty (or zero-filled) outputs identical to the reference.
    #[test]
    fn blocked_gemm_handles_zero_extents(rows in 0usize..3, k in 0usize..3, n in 0usize..3) {
        use cardest_nn::gemm;
        let a = seeded_matrix(rows, k, 7);
        let bt = seeded_matrix(n, k, 8);
        let mut nt = cardest_nn::tensor::Matrix::zeros(rows, n);
        a.matmul_nt_into(&bt, &mut nt);
        assert_matrix_close(&nt, &gemm::reference::matmul_nt(&a, &bt), "nt")?;
    }

    /// `distance_many_into` equals per-pair `distance` for every metric on
    /// dense data — exactly, since both run the same monomorphized kernel
    /// per row.
    #[test]
    fn distance_many_matches_singles_dense(
        dim in 1usize..40,
        flat in prop::collection::vec(-4.0f32..4.0, 1..600),
        qseed in any::<usize>(),
    ) {
        let n = (flat.len() / dim).max(1);
        let mut flat = flat;
        flat.resize(n * dim, 0.5);
        let data = VectorData::Dense(DenseData::from_flat(dim, flat));
        let q = seeded_matrix(1, dim, qseed as u64);
        let qv = VectorView::Dense(q.row(0));
        for m in cardest::data::metric::ALL_METRICS {
            let mut batch = vec![f32::NAN; n];
            m.distance_many_into(qv, &data, &mut batch);
            for (i, &d) in batch.iter().enumerate() {
                prop_assert_eq!(d, m.distance(qv, data.view(i)), "{:?} row {}", m, i);
            }
        }
    }

    /// Same parity on binary data, through the popcount kernels.
    #[test]
    fn distance_many_matches_singles_binary(
        dim in 1usize..130,
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 0..130), 1..12),
        q in prop::collection::vec(any::<bool>(), 130),
    ) {
        let mut bits = BinaryData::new(dim);
        for r in &rows {
            let mut r = r.clone();
            r.resize(dim, false);
            bits.push_bools(&r);
        }
        let n = rows.len();
        let mut qrow = BinaryData::new(dim);
        qrow.push_bools(&q[..dim]);
        let data = VectorData::Binary(bits);
        let qv = VectorView::Binary { words: qrow.row(0), dim };
        for m in cardest::data::metric::ALL_METRICS {
            let mut batch = vec![f32::NAN; n];
            m.distance_many_into(qv, &data, &mut batch);
            for (i, &d) in batch.iter().enumerate() {
                prop_assert_eq!(d, m.distance(qv, data.view(i)), "{:?} row {}", m, i);
            }
        }
    }
}

// ---------- learned-model monotonicity ----------

/// CardNet's prefix-sum construction is monotone in τ for *any* query and
/// *any* τ pair — checked against a model trained once.
#[test]
fn cardnet_monotonicity_property() {
    static MODEL: OnceLock<(std::sync::Mutex<CardNet>, SearchWorkload, f32)> = OnceLock::new();
    let (model, w, tau_max) = MODEL.get_or_init(|| {
        let spec = DatasetSpec {
            n_data: 500,
            n_train_queries: 40,
            n_test_queries: 10,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(9);
        let w = SearchWorkload::build(&data, &spec, 9);
        let training = TrainingSet::new(&w.queries, &w.train);
        let mut cfg = CardNetConfig::default();
        cfg.train.epochs = 4;
        let (net, _) = CardNet::train(&training, spec.tau_max, &cfg, 9);
        (std::sync::Mutex::new(net), w, spec.tau_max)
    });
    let mut runner = proptest::test_runner::TestRunner::default();
    runner
        .run(&(0usize..40, 0.0f32..1.0, 0.0f32..1.0), |(q, t1, t2)| {
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let net = model.lock().expect("no poisoning");
            let e_lo = net.estimate(w.queries.view(q), lo * tau_max);
            let e_hi = net.estimate(w.queries.view(q), hi * tau_max);
            prop_assert!(
                e_hi >= e_lo - 1e-4,
                "CardNet not monotone: q={q} {e_lo} @ {lo} vs {e_hi} @ {hi}"
            );
            Ok(())
        })
        .expect("monotonicity property holds");
}
