//! Criterion benches for the compute kernels introduced by the
//! register-blocked GEMM / monomorphized-metric work: each case times the
//! old scalar path (kept verbatim in the `reference` modules) against the
//! new kernel on the same operands. The `gl_locals` group times the GL
//! locals' lane kernel (`cardest_nn::lanes`) against `BranchNet::infer`,
//! and its passes and serving's batch schedule against each other (see
//! `gl_locals_cases`).
//!
//! Besides the Criterion output, the bench performs its own median
//! measurement (the vendored criterion shim does not expose timings) and
//! writes the machine-readable old-vs-new table to `BENCH_kernels.json`
//! at the repository root.

use cardest_core::arch::{build_regressor, ModelDims, QueryEmbed, TAU_DIM};
use cardest_core::gl::{run_locals, PER_LOCAL_MAX};
use cardest_data::metric::{reference as metric_reference, Metric};
use cardest_data::vector::{BinaryData, DenseData, VectorData, VectorView};
use cardest_nn::gemm;
use cardest_nn::lanes::{LaneNet, LaneScratch};
use cardest_nn::net::BranchNet;
use cardest_nn::tensor::Matrix;
use cardest_nn::Scratch;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
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
    case: String,
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
        case: "matmul_nt_256x64_64x64".into(),
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
        case: "matmul_tn_256x64_256x64".into(),
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
        case: "matmul_nn_256x64_64x64".into(),
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
            case: case.into(),
            reference_ns,
            kernel_ns,
        });
    }
}

/// The served GL-CNN's locals at full scale: 64-d queries (GloVe300),
/// 16 segments, the default segmentation CNN and default widths.
const GL_DIM: usize = 64;
const GL_LOCALS: usize = 16;

/// Queries × locals selection flags for `b` queries, each selecting a
/// random set of `count(rng)` distinct locals.
fn selection(rng: &mut StdRng, b: usize, count: impl Fn(&mut StdRng) -> usize) -> Vec<bool> {
    let mut selected = vec![false; b * GL_LOCALS];
    for row in selected.chunks_mut(GL_LOCALS) {
        let k = count(rng);
        let mut order: Vec<usize> = (0..GL_LOCALS).collect();
        order.shuffle(rng);
        for &seg in &order[..k] {
            row[seg] = true;
        }
    }
    selected
}

/// The served GloVe300 router's shape: 7.8 of 16 locals a query on
/// average, 36% of queries selecting at most three.
fn glove_like(rng: &mut StdRng) -> usize {
    if rng.gen_range(0.0..1.0) < 0.36 {
        rng.gen_range(1..=3)
    } else {
        rng.gen_range(6..=16)
    }
}

/// The smoke ImageNET router's shape: 1.9 of 16 locals a query.
fn imagenet_like(rng: &mut StdRng) -> usize {
    match rng.gen_range(0.0..1.0) {
        p if p < 0.35 => 1,
        p if p < 0.80 => 2,
        p if p < 0.95 => 3,
        _ => 4,
    }
}

/// The schedule serving ran before query lanes: per query and lane group,
/// the 16-local pass above three selected locals, else the query queued on
/// each selected local; then each local's queued rows through
/// `BranchNet::infer`, three rows a call.
fn old_schedule(
    locals: &[BranchNet],
    lanes: &LaneNet,
    inputs: [&Matrix; 3],
    selected: &[bool],
    scratch: &mut Scratch,
    lane_scratch: &mut LaneScratch,
) {
    let mut queued: Vec<Vec<usize>> = vec![Vec::new(); GL_LOCALS];
    let mut out = [0.0f32; GL_LOCALS];
    for (r, sel) in selected.chunks(GL_LOCALS).enumerate() {
        if sel.iter().filter(|&&s| s).count() > 3 {
            lanes.infer_group(0, &inputs.map(|m| m.row(r)), &mut out, lane_scratch);
            black_box(&out);
        } else {
            for (rows, _) in queued.iter_mut().zip(sel).filter(|(_, &s)| s) {
                rows.push(r);
            }
        }
    }
    for (local, rows) in locals.iter().zip(&queued) {
        for chunk in rows.chunks(3) {
            let x = inputs.map(|m| {
                let mut g = scratch.take(chunk.len(), m.cols());
                for (i, &r) in chunk.iter().enumerate() {
                    g.row_mut(i).copy_from_slice(m.row(r));
                }
                g
            });
            let y = local.infer(&[&x[0], &x[1], &x[2]], scratch);
            black_box(y.get(0, 0));
            scratch.recycle(y);
            for m in x {
                scratch.recycle(m);
            }
        }
    }
}

/// Each local over `queued[local]` as query lanes.
fn run_queued(lanes: &LaneNet, inputs: [&Matrix; 3], queued: &[Vec<usize>], s: &mut LaneScratch) {
    let mut out = Vec::new();
    for (seg, rows) in queued.iter().enumerate() {
        out.resize(rows.len(), 0.0);
        lanes.infer_rows(seg, &inputs, rows, &mut out, s);
        black_box(&out);
    }
}

/// Serving's plan below `QUERY_LANES_MIN` queries: the 16-local pass for a
/// query with more than `PER_LOCAL_MAX` selected locals, query lanes for
/// the other queries' pairs.
fn small_batch(lanes: &LaneNet, inputs: [&Matrix; 3], selected: &[bool], s: &mut LaneScratch) {
    let mut queued: Vec<Vec<usize>> = vec![Vec::new(); GL_LOCALS];
    let mut out = [0.0f32; GL_LOCALS];
    for (r, sel) in selected.chunks(GL_LOCALS).enumerate() {
        if sel.iter().filter(|&&s| s).count() > PER_LOCAL_MAX {
            lanes.infer_group(0, &inputs.map(|m| m.row(r)), &mut out, s);
            black_box(&out);
        } else {
            for (rows, _) in queued.iter_mut().zip(sel).filter(|(_, &s)| s) {
                rows.push(r);
            }
        }
    }
    run_queued(lanes, inputs, &queued, s);
}

/// Serving's plan from `QUERY_LANES_MIN` queries: every pair as query
/// lanes.
fn all_query_lanes(lanes: &LaneNet, inputs: [&Matrix; 3], selected: &[bool], s: &mut LaneScratch) {
    let b = inputs[0].rows();
    let queued: Vec<Vec<usize>> = (0..GL_LOCALS)
        .map(|seg| (0..b).filter(|&r| selected[r * GL_LOCALS + seg]).collect())
        .collect();
    run_queued(lanes, inputs, &queued, s);
}

/// Times `reference` and `kernel` as one case of `gl_locals`, into
/// `results`.
fn record(
    group: &mut BenchmarkGroup<'_>,
    results: &mut Vec<CaseResult>,
    case: String,
    mut reference: impl FnMut(),
    mut kernel: impl FnMut(),
) {
    group.bench_function(format!("{case}/reference"), |bch| bch.iter(&mut reference));
    group.bench_function(format!("{case}/kernel"), |bch| bch.iter(&mut kernel));
    let (reference_ns, kernel_ns) = median_ns_pair(reference, kernel);
    results.push(CaseResult {
        group: "gl_locals",
        case,
        reference_ns,
        kernel_ns,
    });
}

/// The GL locals' forward paths, each case a pair (reference, kernel):
/// - `16_locals_*`: one `BranchNet::infer` per local against the 16-local
///   pass per query, with every local selected;
/// - `1_query_k_of_16_one_wide`: `k` selected locals of one query, each
///   through `BranchNet::infer` (serving's per-local path before one
///   kernel) against the 1-wide pass;
/// - `1_query_k_of_16_group`: `k` 1-wide passes against one 16-local pass,
///   which sets `PER_LOCAL_MAX` in `cardest_core::gl`;
/// - `1_local_q_queries`: `q` 1-wide passes of one local against one
///   query-lane pass over the `q` queries;
/// - `batch_b_*`: a `b`-query batch at a GloVe300-like selection (7.8 of 16
///   locals a query, 36% selecting at most three) or a smoke-ImageNET-like
///   one (1.9 of 16), under serving's plan below `QUERY_LANES_MIN` against
///   its plan from there on, which sets `QUERY_LANES_MIN`;
/// - `64_queries_*_schedule`: a 64-query batch under the schedule serving
///   ran before one kernel (per query, the 16-local pass above three
///   selected locals, else `BranchNet::infer` three rows a call) against
///   serving's `cardest_core::gl::run_locals`.
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
    let batch =
        |rng: &mut StdRng, b: usize| [GL_DIM, TAU_DIM, aux].map(|w| random_matrix(rng, b, w));
    let mut group = c.benchmark_group("gl_locals");
    group.sample_size(10);
    let group = &mut group;
    for (q, case) in [(1, "1_query"), (64, "64_queries")] {
        let x = batch(&mut rng, q);
        let mut scratch = Scratch::new();
        let mut lane_scratch = LaneScratch::default();
        let mut out = [0.0f32; GL_LOCALS];
        record(
            group,
            results,
            format!("cnn_d64_16_locals_{case}"),
            || {
                for local in &locals {
                    let y = local.infer(&[&x[0], &x[1], &x[2]], &mut scratch);
                    black_box(y.get(0, 0));
                    scratch.recycle(y);
                }
            },
            || {
                for r in 0..q {
                    let inputs = [x[0].row(r), x[1].row(r), x[2].row(r)];
                    lanes.infer_group(0, &inputs, &mut out, &mut lane_scratch);
                    black_box(&out);
                }
            },
        );
    }
    // One query's `k` locals, one at a time: `BranchNet::infer` or the
    // 1-wide pass.
    let x = batch(&mut rng, 1);
    let inputs = [&x[0], &x[1], &x[2]];
    let mut scratch = Scratch::new();
    let mut lane_scratch = LaneScratch::default();
    let one_wide = |k: usize, s: &mut LaneScratch| {
        let mut out = [0.0f32];
        for seg in 0..k {
            lanes.infer_rows(seg, &inputs, &[0], &mut out, s);
            black_box(&out);
        }
    };
    for k in 1..=3 {
        let mut reference = || {
            for local in &locals[..k] {
                let y = local.infer(&inputs, &mut scratch);
                black_box(y.get(0, 0));
                scratch.recycle(y);
            }
        };
        let mut s = LaneScratch::default();
        let case = format!("cnn_d64_1_query_{k}_of_16_one_wide");
        record(group, results, case, &mut reference, || one_wide(k, &mut s));
    }
    for k in 2..=7 {
        let mut s = LaneScratch::default();
        let mut out = [0.0f32; GL_LOCALS];
        record(
            group,
            results,
            format!("cnn_d64_1_query_{k}_of_16_group"),
            || one_wide(k, &mut s),
            || {
                let inputs = [x[0].row(0), x[1].row(0), x[2].row(0)];
                lanes.infer_group(0, &inputs, &mut out, &mut lane_scratch);
                black_box(&out);
            },
        );
    }
    for q in [1, 4, 8, 16] {
        let x = batch(&mut rng, q);
        let inputs = [&x[0], &x[1], &x[2]];
        let rows: Vec<usize> = (0..q).collect();
        let mut one_scratch = LaneScratch::default();
        let mut lane_scratch = LaneScratch::default();
        let (mut one, mut out) = ([0.0f32], vec![0.0f32; q]);
        record(
            group,
            results,
            format!("cnn_d64_1_local_{q}_queries"),
            || {
                for r in 0..q {
                    lanes.infer_rows(0, &inputs, &[r], &mut one, &mut one_scratch);
                    black_box(&one);
                }
            },
            || {
                lanes.infer_rows(0, &inputs, &rows, &mut out, &mut lane_scratch);
                black_box(&out);
            },
        );
    }
    for (name, count) in [
        ("glove", glove_like as fn(&mut StdRng) -> usize),
        ("imagenet", imagenet_like),
    ] {
        for b in [4, 8, 12, 16, 24] {
            let x = batch(&mut rng, b);
            let selected = selection(&mut rng, b, count);
            let inputs = [&x[0], &x[1], &x[2]];
            let mut small_scratch = LaneScratch::default();
            let mut lane_scratch = LaneScratch::default();
            record(
                group,
                results,
                format!("cnn_d64_batch_{b}_{name}"),
                || small_batch(&lanes, inputs, &selected, &mut small_scratch),
                || all_query_lanes(&lanes, inputs, &selected, &mut lane_scratch),
            );
        }
        let x = batch(&mut rng, 64);
        let selected = selection(&mut rng, 64, count);
        let inputs = [&x[0], &x[1], &x[2]];
        let mut scratch = Scratch::new();
        let mut lane_scratch = LaneScratch::default();
        record(
            group,
            results,
            format!("cnn_d64_64_queries_{name}_schedule"),
            || {
                old_schedule(
                    &locals,
                    &lanes,
                    inputs,
                    &selected,
                    &mut scratch,
                    &mut lane_scratch,
                )
            },
            || {
                black_box(run_locals(&lanes, inputs, &selected));
            },
        );
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
