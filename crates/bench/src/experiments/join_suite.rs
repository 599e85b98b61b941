//! The similarity-join evaluation suite: Table 7 (join Q-errors for set
//! sizes in [50,100)), Fig. 12 (errors vs set size), Fig. 13 (batch vs
//! single-embedding latency at set size 200) — Exp-12 and Exp-13.

use crate::context::{DatasetContext, Scale};
use crate::methods::MethodConfigs;
use crate::report::{fmt3, Table};
use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
use cardest_baselines::{CardNet, SamplingEstimator};
use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
use cardest_core::join::{JoinConfig, JoinEstimator, JoinVariant};
use cardest_data::paper::PaperDataset;
use cardest_data::workload::{JoinSet, JoinWorkload};
use cardest_nn::metrics::{mape, q_error, ErrorSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Per-method join results on one dataset.
pub struct JoinMethodResult {
    pub name: &'static str,
    /// One summary per size bucket ([50,100), [100,150), [150,200)).
    pub buckets: Vec<ErrorSummary>,
    pub mape_buckets: Vec<f32>,
    /// Average latency for a 200-member join set.
    pub latency_200: Duration,
}

pub struct JoinDatasetResults {
    pub dataset: PaperDataset,
    pub results: Vec<JoinMethodResult>,
}

fn eval_join_buckets(
    est: &dyn CardinalityEstimator,
    ctx: &DatasetContext,
    jw: &JoinWorkload,
) -> (Vec<ErrorSummary>, Vec<f32>) {
    let mut summaries = Vec::new();
    let mut mapes = Vec::new();
    for bucket in &jw.test_buckets {
        let mut q = Vec::new();
        let mut m = Vec::new();
        for set in bucket {
            let e = est.estimate_join(&ctx.search.queries, &set.query_ids, set.tau);
            q.push(q_error(e, set.card));
            m.push(mape(e, set.card));
        }
        summaries.push(ErrorSummary::from_errors(&q));
        mapes.push(m.iter().sum::<f32>() / m.len().max(1) as f32);
    }
    (summaries, mapes)
}

/// Average latency of estimating a 200-member join set (Fig. 13's
/// setting), drawing members from the test pool.
fn join_latency_200(
    est: &dyn CardinalityEstimator,
    ctx: &DatasetContext,
    tau: f32,
    trials: usize,
) -> Duration {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x200);
    let n_train = ctx.search.n_train_queries;
    let n_total = ctx.search.queries.len();
    let start = Instant::now();
    for _ in 0..trials {
        let ids: Vec<usize> = (0..200)
            .map(|_| n_train + rng.gen_range(0..n_total - n_train))
            .collect();
        let _ = est.estimate_join(&ctx.search.queries, &ids, tau);
    }
    start.elapsed() / trials.max(1) as u32
}

/// Runs the join suite on one dataset: our three join variants, the
/// search-model GL+ baseline, CardNet and the sampling variants.
pub fn run_dataset(ctx: &DatasetContext, scale: Scale) -> JoinDatasetResults {
    let jw = ctx.join_workload(scale);
    let cfgs = MethodConfigs::for_scale(scale, ctx.seed);
    let training = TrainingSet::new(&ctx.search.queries, &ctx.search.train);
    let tau_latency = jw.test_buckets[0]
        .first()
        .map_or(ctx.spec.tau_max * 0.2, |s| s.tau);
    let latency_trials = match scale {
        Scale::Full => 10,
        Scale::Smoke => 2,
    };

    let mut results: Vec<JoinMethodResult> = Vec::new();
    let measure = |name: &'static str, est: &dyn CardinalityEstimator| {
        let (buckets, mape_buckets) = eval_join_buckets(est, ctx, &jw);
        let latency_200 = join_latency_200(est, ctx, tau_latency, latency_trials);
        JoinMethodResult {
            name,
            buckets,
            mape_buckets,
            latency_200,
        }
    };

    // Train the GL+ search model once; share it between the "GL+" join
    // baseline (per-query evaluation) and GLJoin+ (transferred + tuned).
    eprintln!("[join-suite] {}: GL+ base ...", ctx.dataset.name());
    let gl_plus = GlEstimator::train(
        &ctx.data,
        ctx.spec.metric,
        &training,
        &ctx.search.table,
        &GlConfig {
            variant: GlVariant::GlPlus,
            ..cfgs.gl.clone()
        },
    );

    // GLJoin+ (transfer + fine-tune).
    let mut jcfg_plus = JoinConfig::for_variant(JoinVariant::GlJoinPlus);
    jcfg_plus.seed = ctx.seed;
    let gljoin_plus = JoinEstimator::from_search_model(
        gl_plus.clone(),
        &ctx.search.queries,
        &jw.train,
        &jcfg_plus,
    )
    .expect("join fine-tuning moves weights, never shapes");
    results.push(measure("GLJoin+", &gljoin_plus));

    // GL+ evaluated per member query (search model as join baseline).
    results.push(measure("GL+", &gl_plus));

    // Sampling (10%).
    let s10 =
        SamplingEstimator::with_ratio(&ctx.data, ctx.spec.metric, 0.10, ctx.seed, "Sampling (10%)");
    results.push(measure("Sampling (10%)", &s10));

    // GLJoin (GL-MLP base).
    eprintln!("[join-suite] {}: GLJoin ...", ctx.dataset.name());
    let mut jcfg = JoinConfig::for_variant(JoinVariant::GlJoin);
    jcfg.base = GlConfig {
        variant: GlVariant::GlMlp,
        ..cfgs.gl.clone()
    };
    jcfg.seed = ctx.seed;
    let gljoin = JoinEstimator::train(
        &ctx.data,
        ctx.spec.metric,
        &training,
        &ctx.search.table,
        &jw.train,
        &jcfg,
    )
    .expect("join fine-tuning moves weights, never shapes");
    results.push(measure("GLJoin", &gljoin));

    // CNNJoin (QES base, sum pooling, no data segmentation).
    eprintln!("[join-suite] {}: CNNJoin ...", ctx.dataset.name());
    let mut jcfg_cnn = JoinConfig::for_variant(JoinVariant::CnnJoin);
    jcfg_cnn.qes = cfgs.qes.clone();
    jcfg_cnn.seed = ctx.seed;
    let cnnjoin = JoinEstimator::train(
        &ctx.data,
        ctx.spec.metric,
        &training,
        &ctx.search.table,
        &jw.train,
        &jcfg_cnn,
    )
    .expect("join fine-tuning moves weights, never shapes");
    results.push(measure("CNNJoin", &cnnjoin));

    // CardNet per-query baseline.
    let cardnet = CardNet::train(&training, ctx.spec.tau_max, &cfgs.cardnet, ctx.seed).0;
    results.push(measure("CardNet", &cardnet));

    // Sampling (equal) and Sampling (1%).
    let seq = SamplingEstimator::with_equal_bytes(
        &ctx.data,
        ctx.spec.metric,
        gl_plus.model_bytes(),
        ctx.seed,
    );
    results.push(measure("Sampling (equal)", &seq));
    let s1 =
        SamplingEstimator::with_ratio(&ctx.data, ctx.spec.metric, 0.01, ctx.seed, "Sampling (1%)");
    results.push(measure("Sampling (1%)", &s1));

    JoinDatasetResults {
        dataset: ctx.dataset,
        results,
    }
}

pub fn run_join_suite(
    datasets: &[PaperDataset],
    scale: Scale,
    seed: u64,
) -> Vec<JoinDatasetResults> {
    datasets
        .iter()
        .map(|&d| {
            let ctx = DatasetContext::build(d, scale, seed);
            run_dataset(&ctx, scale)
        })
        .collect()
}

/// Table 7: join Q-errors for set size ∈ [50, 100).
pub fn table7(all: &[JoinDatasetResults]) -> Vec<Table> {
    all.iter()
        .map(|d| {
            let mut t = Table::new(
                format!(
                    "Table 7 ({}): Test Errors for Similarity Join (size in [50,100))",
                    d.dataset.name()
                ),
                &["Method", "Mean", "Median", "90th", "95th", "99th", "Max"],
            );
            for r in &d.results {
                let q = r.buckets[0];
                t.push_row(vec![
                    r.name.to_string(),
                    fmt3(q.mean),
                    fmt3(q.median),
                    fmt3(q.p90),
                    fmt3(q.p95),
                    fmt3(q.p99),
                    fmt3(q.max),
                ]);
            }
            t
        })
        .collect()
}

/// Fig. 12: GLJoin+ error vs join set size bucket.
pub fn fig12(all: &[JoinDatasetResults]) -> Table {
    let mut t = Table::new(
        "Figure 12: Join Errors with Query Set Size (GLJoin+)",
        &[
            "Dataset",
            "Q-err [50,100)",
            "Q-err [100,150)",
            "Q-err [150,200)",
            "MAPE [50,100)",
            "MAPE [100,150)",
            "MAPE [150,200)",
        ],
    );
    for d in all {
        if let Some(r) = d.results.iter().find(|r| r.name == "GLJoin+") {
            t.push_row(vec![
                d.dataset.name().to_string(),
                fmt3(r.buckets[0].mean),
                fmt3(r.buckets[1].mean),
                fmt3(r.buckets[2].mean),
                fmt3(r.mape_buckets[0]),
                fmt3(r.mape_buckets[1]),
                fmt3(r.mape_buckets[2]),
            ]);
        }
    }
    t
}

/// Fig. 13: average latency for a 200-query join set, batch (GLJoin+) vs
/// single-query (GL+) embedding plus baselines.
pub fn fig13(all: &[JoinDatasetResults]) -> Table {
    let methods = [
        "GLJoin+",
        "GL+",
        "CNNJoin",
        "GLJoin",
        "Sampling (10%)",
        "Sampling (1%)",
    ];
    let mut header = vec!["Method"];
    let names: Vec<String> = all.iter().map(|d| d.dataset.name().to_string()).collect();
    header.extend(names.iter().map(String::as_str));
    let mut t = Table::new(
        "Figure 13: Avg. Latency for Similarity Join, query size = 200 (ms)",
        &header,
    );
    for m in methods {
        let mut row = vec![m.to_string()];
        for d in all {
            let v = d
                .results
                .iter()
                .find(|r| r.name == m)
                .map_or(f64::NAN, |r| r.latency_200.as_secs_f64() * 1e3);
            row.push(format!("{v:.2}"));
        }
        t.push_row(row);
    }
    t
}

/// Convenience for benches: exact summed cardinality of a join set.
pub fn exact_join_card(ctx: &DatasetContext, set: &JoinSet) -> f32 {
    set.query_ids
        .iter()
        .map(|&q| ctx.search.table.cardinality(q, set.tau) as f32)
        .sum()
}
