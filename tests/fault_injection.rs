//! Fault-injection suite: every failure mode a serving system actually
//! meets must surface as a typed error or a recorded fallback — never as
//! a panic, a NaN, or a silently wrong artifact load.
//!
//! Faults are manufactured deterministically by `cardest_nn::faults`
//! (seeded), so a failing run replays exactly. A panic anywhere here is
//! unambiguously a robustness regression.

use cardest::prelude::*;
use cardest_nn::faults;
use std::path::PathBuf;
use std::sync::OnceLock;

/// One small dense-metric workload plus a trained model of every
/// artifact-capable kind, shared (inference is `&self`) by all tests.
struct Fixture {
    w: SearchWorkload,
    n_data: usize,
    tau_max: f32,
    mlp: MlpEstimator,
    cardnet: CardNet,
    gl_cnn: GlEstimator,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let spec = DatasetSpec {
            n_data: 400,
            n_train_queries: 24,
            n_test_queries: 8,
            ..PaperDataset::GloVe300.spec()
        };
        let data = spec.generate(23);
        let w = SearchWorkload::build(&data, &spec, 23);
        let training = TrainingSet::new(&w.queries, &w.train);
        let mut mlp_cfg = MlpConfig {
            k_samples: 8,
            ..Default::default()
        };
        mlp_cfg.train.epochs = 2;
        let (mlp, _) = MlpEstimator::train(&data, spec.metric, &training, &mlp_cfg, 23);
        let mut cn_cfg = CardNetConfig::default();
        cn_cfg.train.epochs = 2;
        let (cardnet, _) = CardNet::train(&training, spec.tau_max, &cn_cfg, 23);
        let mut gl_cfg = GlConfig::for_variant(GlVariant::GlCnn);
        gl_cfg.n_segments = 4;
        gl_cfg.local_train.epochs = 3;
        gl_cfg.global_train.epochs = 3;
        gl_cfg.tuning = cardest::core::tuning::TuningConfig::fast();
        gl_cfg.tuning_segments = 1;
        let gl_cnn = GlEstimator::train(&data, spec.metric, &training, &w.table, &gl_cfg);
        Fixture {
            w,
            n_data: spec.n_data,
            tau_max: spec.tau_max,
            mlp,
            cardnet,
            gl_cnn,
        }
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cardest-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The fixture's test batch.
fn test_batch(w: &SearchWorkload) -> Vec<(VectorView<'_>, f32)> {
    w.test
        .iter()
        .map(|s| (w.queries.view(s.query), s.tau))
        .collect()
}

// ---------- artifact round-trips ----------

/// Save → load → `estimate_batch` is bit-identical for every
/// artifact-capable estimator (finite f32s survive the JSON payload
/// losslessly, and the container adds no transformation of its own).
#[test]
fn artifact_roundtrip_is_bit_identical() {
    let f = fixture();
    let dir = tmpdir("roundtrip");
    let batch = test_batch(&f.w);

    let p = dir.join("mlp.cardest");
    f.mlp.save_artifact(&p).expect("save mlp");
    let mlp2 = MlpEstimator::load_artifact(&p).expect("load mlp");
    assert_eq!(f.mlp.estimate_batch(&batch), mlp2.estimate_batch(&batch));

    let p = dir.join("cardnet.cardest");
    f.cardnet.save_artifact(&p).expect("save cardnet");
    let cn2 = CardNet::load_artifact(&p).expect("load cardnet");
    assert_eq!(f.cardnet.estimate_batch(&batch), cn2.estimate_batch(&batch));

    let p = dir.join("gl.cardest");
    f.gl_cnn.save_artifact(&p).expect("save gl");
    let gl2 = GlEstimator::load_artifact(&p).expect("load gl");
    assert_eq!(f.gl_cnn.estimate_batch(&batch), gl2.estimate_batch(&batch));

    // Guard metadata survives the round-trip too.
    assert_eq!(f.mlp.expected_dim(), mlp2.expected_dim());
    assert_eq!(f.mlp.tau_bound(), mlp2.tau_bound());
    assert_eq!(f.gl_cnn.tau_bound(), gl2.tau_bound());

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------- corrupted artifacts ----------

/// Truncation at any point — empty file, mid-header, mid-payload, one
/// byte short — loads as a typed error, never a panic or a partial model.
#[test]
fn truncated_artifact_is_rejected() {
    let f = fixture();
    let dir = tmpdir("truncate");
    let p = dir.join("mlp.cardest");
    f.mlp.save_artifact(&p).expect("save");
    let bytes = std::fs::read(&p).expect("read");
    for keep in [0, 4, 8, 12, 20, bytes.len() / 2, bytes.len() - 1] {
        let cut = dir.join(format!("cut-{keep}.cardest"));
        std::fs::write(&cut, faults::truncate(&bytes, keep)).expect("write");
        let Err(err) = MlpEstimator::load_artifact(&cut) else {
            panic!("keep={keep}: truncated file must not load");
        };
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. }
                    | ArtifactError::BadMagic
                    | ArtifactError::ChecksumMismatch { .. }
                    | ArtifactError::Malformed(_)
            ),
            "keep={keep}: unexpected error {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Payload bit-flips are caught by the FNV checksum before the payload is
/// ever parsed.
#[test]
fn bit_flipped_artifact_is_rejected() {
    let f = fixture();
    let dir = tmpdir("bitflip");
    let p = dir.join("cardnet.cardest");
    f.cardnet.save_artifact(&p).expect("save");
    let clean = std::fs::read(&p).expect("read");
    // The container header is magic(8) + version(4) + kind-len(4) + kind +
    // payload-len(8) + checksum(8); flipping strictly inside the payload
    // region isolates the checksum check.
    let kind_len = u32::from_le_bytes([clean[12], clean[13], clean[14], clean[15]]) as usize;
    let payload_start = 16 + kind_len + 8 + 8;
    for seed in 0..5u64 {
        let mut bytes = clean.clone();
        faults::flip_bits(&mut bytes[payload_start..], seed, 3);
        let flipped = dir.join(format!("flip-{seed}.cardest"));
        std::fs::write(&flipped, &bytes).expect("write");
        let Err(err) = CardNet::load_artifact(&flipped) else {
            panic!("seed={seed}: bit-flipped file must not load");
        };
        assert!(
            matches!(err, ArtifactError::ChecksumMismatch { .. }),
            "seed={seed}: expected ChecksumMismatch, got {err}"
        );
    }
    // Flips anywhere in the file (header included) still yield typed
    // errors, whatever layer breaks first.
    for seed in 5..10u64 {
        let mut bytes = clean.clone();
        faults::flip_bits(&mut bytes, seed, 3);
        let flipped = dir.join(format!("flip-any-{seed}.cardest"));
        std::fs::write(&flipped, &bytes).expect("write");
        assert!(CardNet::load_artifact(&flipped).is_err());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A future format version is refused up front with both versions named,
/// not parsed on a guess.
#[test]
fn version_skewed_artifact_is_rejected() {
    let f = fixture();
    let dir = tmpdir("version");
    let p = dir.join("gl.cardest");
    f.gl_cnn.save_artifact(&p).expect("save");
    let mut bytes = std::fs::read(&p).expect("read");
    faults::skew_version(&mut bytes, 99);
    std::fs::write(&p, &bytes).expect("write");
    match GlEstimator::load_artifact(&p) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, cardest_nn::artifact::FORMAT_VERSION);
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other}"),
        Ok(_) => panic!("version-skewed file must not load"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Loading an artifact of the wrong model kind is a `KindMismatch`, not a
/// JSON parse error deep inside the wrong deserializer.
#[test]
fn wrong_kind_artifact_is_rejected() {
    let f = fixture();
    let dir = tmpdir("kind");
    let p = dir.join("model.cardest");
    f.mlp.save_artifact(&p).expect("save");
    let Err(err) = CardNet::load_artifact(&p) else {
        panic!("kind mismatch must not load");
    };
    assert!(
        matches!(err, ArtifactError::KindMismatch { .. }),
        "expected KindMismatch, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------- poisoned weights ----------

/// NaN-poisoned weights must never panic or leak a non-finite estimate:
/// the shared `decode_log_card` clamp absorbs NaN network outputs, and
/// the guarded wrapper keeps every served value in `[0, |D|]`.
#[test]
fn nan_poisoned_weights_never_panic_and_stay_finite() {
    let f = fixture();
    let spec = DatasetSpec {
        n_data: 400,
        n_train_queries: 24,
        n_test_queries: 8,
        ..PaperDataset::GloVe300.spec()
    };
    let data = spec.generate(23);
    let training = TrainingSet::new(&f.w.queries, &f.w.train);
    let mut cfg = QesConfig::default();
    cfg.train.epochs = 2;
    cfg.k_samples = 8;
    let (mut qes, _) = QesEstimator::train(&data, spec.metric, &training, &cfg, 23);
    let poisoned = faults::poison_params_nan(&mut qes.net_mut().params_mut(), 77, 25);
    assert!(poisoned > 0, "fixture must actually be poisoned");

    for s in &f.w.test {
        let e = qes.estimate(f.w.queries.view(s.query), s.tau);
        assert!(
            e.is_finite() && e >= 0.0,
            "poisoned weights leaked estimate {e}"
        );
    }

    // Behind the wrapper, serving stays inside [0, |D|] and every query
    // is answered (poison degrades accuracy, not availability).
    let fallback = SamplingEstimator::with_ratio(&data, spec.metric, 0.05, 23, "Sampling (5%)");
    let guarded = GuardedEstimator::new(qes, fallback, f.n_data);
    for s in &f.w.test {
        let e = guarded
            .serve(f.w.queries.view(s.query), s.tau)
            .expect("valid query must be served");
        assert!((0.0..=f.n_data as f32).contains(&e));
    }
    assert_eq!(guarded.stats().served, f.w.test.len());
    assert_eq!(guarded.stats().rejected, 0);
}

// ---------- malformed queries ----------

/// Seeded query corruption (NaN/±∞ components) is rejected with the
/// matching typed error by `try_estimate`, and recorded — not panicked
/// on — by the guarded wrapper.
#[test]
fn malformed_queries_surface_typed_errors_not_panics() {
    let f = fixture();
    let dim = f.mlp.expected_dim().expect("MLP knows its dim");
    let tau = f.mlp.tau_bound().expect("MLP advertises a tau bound") * 0.5;
    let mut rejected = 0usize;
    for seed in 0..16u64 {
        let mut q = vec![0.25f32; dim];
        let at = faults::corrupt_query(&mut q, seed);
        match f.mlp.try_estimate(VectorView::Dense(&q), tau) {
            Err(CardestError::NonFiniteQuery {
                index: 0,
                component,
                ..
            }) => {
                assert_eq!(component, at);
                rejected += 1;
            }
            other => panic!("seed={seed}: expected NonFiniteQuery, got {other:?}"),
        }
    }
    assert_eq!(rejected, 16);

    // The full malformed battery against every fixture model: typed
    // errors on the fallible surface, 0.0 (and a rejection counter) on
    // the infallible one — and no panics anywhere.
    let models: [&dyn CardinalityEstimator; 3] = [&f.mlp, &f.cardnet, &f.gl_cnn];
    for est in models {
        let d = est.expected_dim().expect("fixture models know their dim");
        let good = vec![0.25f32; d];
        let wrong_dim = vec![0.25f32; d + 3];
        assert!(matches!(
            est.try_estimate(VectorView::Dense(&wrong_dim), tau),
            Err(CardestError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            est.try_estimate(VectorView::Dense(&good), f32::NAN),
            Err(CardestError::NonFiniteTau { .. })
        ));
        assert!(matches!(
            est.try_estimate(VectorView::Dense(&good), -0.5),
            Err(CardestError::NegativeTau { .. })
        ));
        assert!(matches!(
            est.try_estimate(VectorView::Dense(&good), f.tau_max * 50.0),
            Err(CardestError::TauOutOfRange { .. })
        ));
    }
}

/// The guarded wrapper turns the same malformed battery into counters:
/// unrecoverable inputs are rejected, out-of-range thresholds fall back,
/// and clean traffic is untouched — all through one shared wrapper.
#[test]
fn guarded_wrapper_records_rejections_and_fallbacks() {
    let f = fixture();
    let spec = DatasetSpec {
        n_data: 400,
        n_train_queries: 24,
        n_test_queries: 8,
        ..PaperDataset::GloVe300.spec()
    };
    let data = spec.generate(23);
    let fallback = SamplingEstimator::with_ratio(&data, spec.metric, 0.05, 23, "Sampling (5%)");
    let guarded = GuardedEstimator::new(f.mlp.clone(), fallback, f.n_data);
    let dim = f.mlp.expected_dim().expect("MLP knows its dim");
    let bound = f.mlp.tau_bound().expect("MLP advertises a tau bound");
    let tau = bound * 0.5;
    let good = vec![0.25f32; dim];
    let mut bad = good.clone();
    bad[3] = f32::NAN;

    // Clean traffic serves.
    assert!(guarded.serve(VectorView::Dense(&good), tau).is_ok());
    // Unrecoverable: NaN component → typed error + rejected counter.
    assert!(matches!(
        guarded.serve(VectorView::Dense(&bad), tau),
        Err(CardestError::NonFiniteQuery { .. })
    ));
    // Recoverable: τ beyond the primary's trained range → fallback answer.
    let e = guarded
        .serve(VectorView::Dense(&good), bound * 2.0)
        .expect("out-of-range tau must fall back, not fail");
    assert!((0.0..=f.n_data as f32).contains(&e));

    let stats = guarded.stats();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.fallbacks, 1);

    // The infallible trait surface maps the rejection to 0.0 instead of
    // panicking (legacy callers keep working).
    assert_eq!(guarded.estimate(VectorView::Dense(&bad), tau), 0.0);
}
