//! Criterion benches for the compute kernels introduced by the
//! register-blocked GEMM / monomorphized-metric work: each case times the
//! old scalar path (kept verbatim in the `reference` modules) against the
//! new kernel on the same operands. The `gl_locals` group times the GL
//! locals' lane pass (`cardest_nn::lanes`) against one `BranchNet::infer`
//! per local, the forward serving ran before it.
//!
//! Besides the Criterion output, the bench performs its own median
//! measurement (the vendored criterion shim does not expose timings) and
//! writes the machine-readable old-vs-new table to `BENCH_kernels.json`
//! at the repository root.

use cardest_core::arch::{build_regressor, ModelDims, QueryEmbed, TAU_DIM};
use cardest_data::metric::{reference as metric_reference, Metric};
use cardest_data::vector::{BinaryData, DenseData, VectorData, VectorView};
use cardest_nn::gemm;
use cardest_nn::lanes::{LaneNet, LaneScratch};
use cardest_nn::net::BranchNet;
use cardest_nn::tensor::Matrix;
use cardest_nn::Scratch;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Where the machine-readable results land: the repository root, two
/// levels above this crate's manifest.
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");

const SAMPLES: usize = 15;

/// Median ns per call for two contestants measured sample-interleaved
/// (ref, new, ref, new, …) so OS contention on a shared single-core box
/// hits both distributions alike. Iteration counts are calibrated per
/// contestant so each sample runs a few milliseconds.
fn median_ns_pair<F: FnMut(), G: FnMut()>(mut old: F, mut new: G) -> (f64, f64) {
    fn calibrate<F: FnMut()>(f: &mut F) -> u64 {
        f(); // warm-up
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < Duration::from_millis(4) {
            f();
            iters += 1;
        }
        iters.max(1)
    }
    fn sample<F: FnMut()>(f: &mut F, iters: u64) -> f64 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() * 1e9 / iters as f64
    }
    let old_iters = calibrate(&mut old);
    let new_iters = calibrate(&mut new);
    let mut olds = Vec::with_capacity(SAMPLES);
    let mut news = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        olds.push(sample(&mut old, old_iters));
        news.push(sample(&mut new, new_iters));
    }
    olds.sort_by(f64::total_cmp);
    news.sort_by(f64::total_cmp);
    (olds[SAMPLES / 2], news[SAMPLES / 2])
}

struct CaseResult {
    group: &'static str,
    case: &'static str,
    reference_ns: f64,
    kernel_ns: f64,
}

impl CaseResult {
    fn speedup(&self) -> f64 {
        self.reference_ns / self.kernel_ns
    }
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// The acceptance shape: 256×64 · (64×64)ᵀ, the forward pass of a
/// 64-wide hidden layer over a 256-row batch.
fn gemm_cases(c: &mut Criterion, results: &mut Vec<CaseResult>) {
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let a = random_matrix(&mut rng, 256, 64);
    let bt = random_matrix(&mut rng, 64, 64); // stored transposed for nt
    let b_nn = random_matrix(&mut rng, 64, 64);
    let dy = random_matrix(&mut rng, 256, 64);
    let mut out = Matrix::zeros(256, 64);

    let mut group = c.benchmark_group("gemm_kernels");
    group.sample_size(10);
    group.bench_function("matmul_nt_256x64_64x64/reference", |bch| {
        bch.iter(|| black_box(gemm::reference::matmul_nt(black_box(&a), black_box(&bt))))
    });
    group.bench_function("matmul_nt_256x64_64x64/blocked", |bch| {
        bch.iter(|| a.matmul_nt_into(black_box(&bt), &mut out))
    });
    group.bench_function("matmul_tn_256x64_256x64/reference", |bch| {
        bch.iter(|| black_box(gemm::reference::matmul_tn(black_box(&dy), black_box(&a))))
    });
    group.bench_function("matmul_tn_256x64_256x64/fused", |bch| {
        bch.iter(|| black_box(dy.matmul_tn(black_box(&a))))
    });
    group.bench_function("matmul_nn_256x64_64x64/reference", |bch| {
        bch.iter(|| black_box(gemm::reference::matmul_nn(black_box(&a), black_box(&b_nn))))
    });
    group.bench_function("matmul_nn_256x64_64x64/fused", |bch| {
        bch.iter(|| black_box(a.matmul_nn(black_box(&b_nn))))
    });
    group.finish();

    let (reference_ns, kernel_ns) = median_ns_pair(
        || {
            black_box(gemm::reference::matmul_nt(black_box(&a), black_box(&bt)));
        },
        || a.matmul_nt_into(black_box(&bt), &mut out),
    );
    results.push(CaseResult {
        group: "gemm_kernels",
        case: "matmul_nt_256x64_64x64",
        reference_ns,
        kernel_ns,
    });
    let (reference_ns, kernel_ns) = median_ns_pair(
        || {
            black_box(gemm::reference::matmul_tn(black_box(&dy), black_box(&a)));
        },
        || {
            black_box(dy.matmul_tn(black_box(&a)));
        },
    );
    results.push(CaseResult {
        group: "gemm_kernels",
        case: "matmul_tn_256x64_256x64",
        reference_ns,
        kernel_ns,
    });
    let (reference_ns, kernel_ns) = median_ns_pair(
        || {
            black_box(gemm::reference::matmul_nn(black_box(&a), black_box(&b_nn)));
        },
        || {
            black_box(a.matmul_nn(black_box(&b_nn)));
        },
    );
    results.push(CaseResult {
        group: "gemm_kernels",
        case: "matmul_nn_256x64_64x64",
        reference_ns,
        kernel_ns,
    });
}

const DIST_N: usize = 10_000;
const DIST_DIM: usize = 128;

fn distance_cases(c: &mut Criterion, results: &mut Vec<CaseResult>) {
    let mut rng = StdRng::seed_from_u64(0xD157);
    let flat: Vec<f32> = (0..DIST_N * DIST_DIM)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let dense = VectorData::Dense(DenseData::from_flat(DIST_DIM, flat));
    let q: Vec<f32> = (0..DIST_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let qv = VectorView::Dense(&q);

    let mut bits = BinaryData::new(DIST_DIM);
    for _ in 0..DIST_N {
        let row: Vec<bool> = (0..DIST_DIM).map(|_| rng.gen_range(0..2) == 1).collect();
        bits.push_bools(&row);
    }
    let qbits: Vec<bool> = (0..DIST_DIM).map(|_| rng.gen_range(0..2) == 1).collect();
    let mut qrow = BinaryData::new(DIST_DIM);
    qrow.push_bools(&qbits);
    let binary = VectorData::Binary(bits);

    let mut out = vec![0.0f32; DIST_N];
    let reference_scan = |m: Metric, data: &VectorData, q: VectorView<'_>, out: &mut [f32]| {
        for (i, o) in out.iter_mut().enumerate() {
            *o = metric_reference::distance(m, q, data.view(i));
        }
    };

    let mut group = c.benchmark_group("distance_kernels");
    group.sample_size(10);
    group.bench_function("dense_l2_d128_n10k/reference", |bch| {
        bch.iter(|| reference_scan(Metric::L2, &dense, qv, &mut out))
    });
    group.bench_function("dense_l2_d128_n10k/kernel", |bch| {
        bch.iter(|| Metric::L2.distance_many_into(black_box(qv), &dense, &mut out))
    });
    group.bench_function("dense_cosine_d128_n10k/reference", |bch| {
        bch.iter(|| reference_scan(Metric::Cosine, &dense, qv, &mut out))
    });
    group.bench_function("dense_cosine_d128_n10k/kernel", |bch| {
        bch.iter(|| Metric::Cosine.distance_many_into(black_box(qv), &dense, &mut out))
    });
    let qbv = VectorView::Binary {
        words: qrow.row(0),
        dim: DIST_DIM,
    };
    group.bench_function("binary_hamming_d128_n10k/reference", |bch| {
        bch.iter(|| reference_scan(Metric::Hamming, &binary, qbv, &mut out))
    });
    group.bench_function("binary_hamming_d128_n10k/kernel", |bch| {
        bch.iter(|| Metric::Hamming.distance_many_into(black_box(qbv), &binary, &mut out))
    });
    group.finish();

    for (case, m, data, q) in [
        ("dense_l2_d128_n10k", Metric::L2, &dense, qv),
        ("dense_cosine_d128_n10k", Metric::Cosine, &dense, qv),
        ("binary_hamming_d128_n10k", Metric::Hamming, &binary, qbv),
    ] {
        let mut ref_out = vec![0.0f32; DIST_N];
        let (reference_ns, kernel_ns) = median_ns_pair(
            || reference_scan(m, data, q, &mut ref_out),
            || m.distance_many_into(black_box(q), data, &mut out),
        );
        results.push(CaseResult {
            group: "distance_kernels",
            case,
            reference_ns,
            kernel_ns,
        });
    }
}

/// The served GL-CNN's locals at full scale: 64-d queries (GloVe300),
/// 16 segments, the default segmentation CNN and default widths.
const GL_DIM: usize = 64;
const GL_LOCALS: usize = 16;

/// The lane pass once per query against one `BranchNet::infer` per
/// selected local over the batch's rows: one query or a 64-query batch
/// with every local selected (the grouped forward serving ran before the
/// lane pass), and one query with 1 to 4 locals selected, where the pass
/// still runs all 16 lanes. Serving runs a lane group's selected locals
/// one by one up to the count where the pass wins (`PER_LOCAL_MAX` in
/// `cardest_core::gl`).
fn gl_locals_cases(c: &mut Criterion, results: &mut Vec<CaseResult>) {
    let mut rng = StdRng::seed_from_u64(0x61_0CA1);
    let embed = QueryEmbed::default_cnn(GL_DIM, 8);
    let aux = 2 * GL_LOCALS;
    let locals: Vec<BranchNet> = (0..GL_LOCALS)
        .map(|_| {
            build_regressor(
                &mut rng,
                GL_DIM,
                TAU_DIM,
                aux,
                &embed,
                &ModelDims::default(),
            )
        })
        .collect();
    let lanes = LaneNet::pack(&locals).expect("the locals share one shape");

    let mut group = c.benchmark_group("gl_locals");
    group.sample_size(10);
    for (case, q, selected) in [
        ("cnn_d64_16_locals_1_query", 1, 16),
        ("cnn_d64_16_locals_64_queries", 64, 16),
        ("cnn_d64_1_query_1_of_16_selected", 1, 1),
        ("cnn_d64_1_query_2_of_16_selected", 1, 2),
        ("cnn_d64_1_query_3_of_16_selected", 1, 3),
        ("cnn_d64_1_query_4_of_16_selected", 1, 4),
    ] {
        let xq = random_matrix(&mut rng, q, GL_DIM);
        let xt = random_matrix(&mut rng, q, TAU_DIM);
        let xa = random_matrix(&mut rng, q, aux);
        let mut scratch = Scratch::new();
        let mut per_local = || {
            for local in &locals[..selected] {
                let y = local.infer(&[&xq, &xt, &xa], &mut scratch);
                black_box(y.get(0, 0));
                scratch.recycle(y);
            }
        };
        let mut lane_scratch = LaneScratch::default();
        let mut out = [0.0f32; GL_LOCALS];
        let mut lane_pass = || {
            for r in 0..q {
                let inputs = [xq.row(r), xt.row(r), xa.row(r)];
                lanes.infer_group(0, &inputs, &mut out, &mut lane_scratch);
                black_box(&out);
            }
        };
        group.bench_function(format!("{case}/per_local_infer"), |bch| {
            bch.iter(&mut per_local)
        });
        group.bench_function(format!("{case}/lane_pass"), |bch| bch.iter(&mut lane_pass));
        let (reference_ns, kernel_ns) = median_ns_pair(per_local, lane_pass);
        results.push(CaseResult {
            group: "gl_locals",
            case,
            reference_ns,
            kernel_ns,
        });
    }
    group.finish();
}

fn write_json(results: &[CaseResult]) {
    let mut body = String::from("{\n  \"unit\": \"median_ns_per_op\",\n");
    body.push_str("  \"generated_by\": \"cargo bench --bench kernels\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"group\": \"{}\", \"case\": \"{}\", \"reference_ns\": {:.0}, \
             \"kernel_ns\": {:.0}, \"speedup\": {:.2}}}{}\n",
            r.group,
            r.case,
            r.reference_ns,
            r.kernel_ns,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(JSON_PATH, body).expect("write BENCH_kernels.json");
    println!("wrote {JSON_PATH}");
}

fn bench(c: &mut Criterion) {
    let mut results = Vec::new();
    gemm_cases(c, &mut results);
    distance_cases(c, &mut results);
    gl_locals_cases(c, &mut results);
    for r in &results {
        println!(
            "{}/{}: reference {:.0} ns, kernel {:.0} ns, speedup {:.2}x",
            r.group,
            r.case,
            r.reference_ns,
            r.kernel_ns,
            r.speedup()
        );
    }
    write_json(&results);
}

criterion_group!(benches, bench);
criterion_main!(benches);
