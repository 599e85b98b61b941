//! Experiment harness CLI.
//!
//! ```text
//! cargo run -p cardest-bench --release --bin exp -- <experiment> [options]
//!
//! experiments:
//!   table3                     dataset statistics
//!   table4 | fig8 | table5 | table6 | fig14
//!                              the search suite (one training pass feeds
//!                              all five artifacts; each id prints its own)
//!   search-suite               all five search artifacts at once
//!   fig9                       global-model missing rate, penalty ablation
//!   fig10                      Q-error vs training size (BMS, ImageNET)
//!   fig11                      Q-error vs #data segments (GL+)
//!   fig15                      incremental updates (GloVe300)
//!   table7 | fig12 | fig13     the join suite (one pass feeds all three)
//!   join-suite                 all three join artifacts at once
//!   ablations                  lambda sweep, segmentation methods, monotonicity
//!   all                        everything above
//!
//! options:
//!   --dataset <name>           restrict to one dataset (default: all six)
//!   --scale full|smoke         workload scale (default: full)
//!   --seed <n>                 RNG seed (default: 42)
//!   --out <dir>                also write markdown tables into <dir>
//!   --train-threads <n>        training thread count (default: one per
//!                              core; trained models are identical for
//!                              any value)
//!   --guarded                  serve the search suite through the
//!                              GuardedEstimator wrapper (1%-sampling
//!                              fallback) and report validation-rejection
//!                              and fallback rates alongside Q-error
//! ```

use cardest_bench::context::Scale;
use cardest_bench::experiments::{
    ablations, fig10_training_size, fig11_segments, fig15_updates, fig9_penalty, join_suite,
    search_suite, table3_datasets,
};
use cardest_bench::report::Table;
use cardest_data::paper::PaperDataset;
use std::path::PathBuf;

struct Options {
    datasets: Vec<PaperDataset>,
    scale: Scale,
    seed: u64,
    out: Option<PathBuf>,
    guarded: bool,
}

fn parse_args() -> (String, Options) {
    let mut args = std::env::args().skip(1);
    let exp = args
        .next()
        .unwrap_or_else(|| usage("missing experiment id"));
    let mut opts = Options {
        datasets: PaperDataset::ALL.to_vec(),
        scale: Scale::Full,
        seed: 42,
        out: None,
        guarded: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--dataset" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| usage("--dataset needs a value"));
                let d = PaperDataset::parse(&name)
                    .unwrap_or_else(|| usage(&format!("unknown dataset {name}")));
                opts.datasets = vec![d];
            }
            "--scale" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--scale needs a value"));
                opts.scale =
                    Scale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale {v}")));
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("seed must be an integer"));
            }
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage("--out needs a value"));
                opts.out = Some(PathBuf::from(v));
            }
            "--train-threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--train-threads needs a value"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| usage("train-threads must be an integer"));
                cardest_nn::parallel::set_train_threads(n);
            }
            "--guarded" => {
                opts.guarded = true;
            }
            other => usage(&format!("unknown option {other}")),
        }
    }
    (exp, opts)
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprintln!(
        "usage: exp <table3|table4|fig8|table5|table6|fig14|search-suite|fig9|fig10|fig11|fig15|table7|fig12|fig13|join-suite|ablations|all> [--dataset <name>] [--scale full|smoke] [--seed <n>] [--out <dir>] [--train-threads <n>] [--guarded]"
    );
    std::process::exit(2);
}

fn emit(tables: &[Table], opts: &Options) {
    for t in tables {
        println!("{}", t.render());
    }
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).expect("create output directory");
        for t in tables {
            let slug: String = t
                .title()
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
                .split('_')
                .filter(|s| !s.is_empty())
                .take(6)
                .collect::<Vec<_>>()
                .join("_");
            let path = dir.join(format!("{slug}.md"));
            std::fs::write(&path, t.render_markdown()).expect("write markdown table");
        }
    }
}

fn run_search(which: &str, opts: &Options) -> Vec<Table> {
    let all = search_suite::run_search_suite(&opts.datasets, opts.scale, opts.seed, opts.guarded);
    let mut out = match which {
        "table4" => search_suite::table4(&all),
        "fig8" => vec![search_suite::fig8(&all)],
        "table5" => vec![search_suite::table5(&all)],
        "table6" => vec![search_suite::table6(&all)],
        "fig14" => vec![search_suite::fig14(&all)],
        _ => {
            let mut out = search_suite::table4(&all);
            out.push(search_suite::fig8(&all));
            out.push(search_suite::table5(&all));
            out.push(search_suite::table6(&all));
            out.push(search_suite::fig14(&all));
            out
        }
    };
    // Rejection/fallback rates travel with whichever artifact was asked
    // for — they only exist under --guarded.
    out.extend(search_suite::guard_table(&all));
    out
}

fn run_join(which: &str, opts: &Options) -> Vec<Table> {
    let all = join_suite::run_join_suite(&opts.datasets, opts.scale, opts.seed);
    match which {
        "table7" => join_suite::table7(&all),
        "fig12" => vec![join_suite::fig12(&all)],
        "fig13" => vec![join_suite::fig13(&all)],
        _ => {
            let mut out = join_suite::table7(&all);
            out.push(join_suite::fig12(&all));
            out.push(join_suite::fig13(&all));
            out
        }
    }
}

fn debug_gl(opts: &Options) {
    use cardest_baselines::traits::{CardinalityEstimator, TrainingSet};
    use cardest_bench::context::DatasetContext;
    use cardest_bench::methods::MethodConfigs;
    use cardest_core::gl::{GlConfig, GlEstimator, GlVariant};
    use cardest_core::labels::SegmentLabels;

    let d = opts.datasets[0];
    let ctx = DatasetContext::build(d, opts.scale, opts.seed);
    let cfgs = MethodConfigs::for_scale(opts.scale, opts.seed);
    let cfg = GlConfig {
        variant: GlVariant::GlCnn,
        ..cfgs.gl
    };
    let training = TrainingSet::new(&ctx.search.queries, &ctx.search.train);
    let gl = GlEstimator::train(
        &ctx.data,
        ctx.spec.metric,
        &training,
        &ctx.search.table,
        &cfg,
    );
    let labels = SegmentLabels::compute(&ctx.search.table, &ctx.search.test, gl.segmentation());

    // Rank test samples by Q-error.
    let mut rows: Vec<(f32, usize)> = ctx
        .search
        .test
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let est = gl.estimate(ctx.search.queries.view(s.query), s.tau);
            (cardest_nn::metrics::q_error(est, s.card), j)
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("worst 12 GL-CNN test samples on {}:", d.name());
    for &(qe, j) in rows.iter().take(12) {
        let s = &ctx.search.test[j];
        let (est, nsel) = gl.estimate_with_stats(ctx.search.queries.view(s.query), s.tau);
        let seg_true = labels.row(j);
        let top: Vec<String> = seg_true
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(i, &c)| format!("s{i}={c}"))
            .collect();
        println!(
            "  qerr={qe:<8.1} est={est:<9.1} card={:<7.0} tau={:<6.3} selected={nsel} true_segs=[{}]",
            s.card,
            s.tau,
            top.join(" ")
        );
    }
    // Distribution of selected counts.
    let mut sel_hist = vec![0usize; gl.n_segments() + 1];
    for s in &ctx.search.test {
        let (_, n) = gl.estimate_with_stats(ctx.search.queries.view(s.query), s.tau);
        sel_hist[n] += 1;
    }
    println!("selection histogram (index = #locals evaluated): {sel_hist:?}");
}

fn main() {
    let (exp, opts) = parse_args();
    let start = std::time::Instant::now();
    let tables: Vec<Table> = match exp.as_str() {
        "table3" => vec![table3_datasets::run(opts.scale)],
        "table4" | "fig8" | "table5" | "table6" | "fig14" | "search-suite" => {
            run_search(&exp, &opts)
        }
        "fig9" => vec![fig9_penalty::run(&opts.datasets, opts.scale, opts.seed)],
        "fig10" => fig10_training_size::run(opts.scale, opts.seed),
        "fig11" => vec![fig11_segments::run(&opts.datasets, opts.scale, opts.seed)],
        "fig15" => vec![fig15_updates::run(opts.scale, opts.seed)],
        "table7" | "fig12" | "fig13" | "join-suite" => run_join(&exp, &opts),
        "ablations" => ablations::run_all(opts.scale, opts.seed),
        // Hidden diagnostic: per-sample GL breakdown on the worst test cases.
        "debug-gl" => {
            debug_gl(&opts);
            Vec::new()
        }
        "all" => {
            // Emit each phase as soon as it completes so partial runs
            // still leave usable output behind.
            emit(&[table3_datasets::run(opts.scale)], &opts);
            emit(&run_search("search-suite", &opts), &opts);
            emit(
                &[fig9_penalty::run(&opts.datasets, opts.scale, opts.seed)],
                &opts,
            );
            emit(&fig10_training_size::run(opts.scale, opts.seed), &opts);
            // Fig. 11 sweeps re-train GL+ per point; three representative
            // datasets (binary sparse, binary hash, dense L2) keep the
            // full run tractable on one core.
            let fig11_sets = [
                cardest_data::paper::PaperDataset::Bms,
                cardest_data::paper::PaperDataset::ImageNet,
                cardest_data::paper::PaperDataset::YouTube,
            ];
            let fig11_sets: Vec<_> = fig11_sets
                .into_iter()
                .filter(|d| opts.datasets.contains(d))
                .collect();
            if !fig11_sets.is_empty() {
                emit(
                    &[fig11_segments::run(&fig11_sets, opts.scale, opts.seed)],
                    &opts,
                );
            }
            emit(&[fig15_updates::run(opts.scale, opts.seed)], &opts);
            emit(&run_join("join-suite", &opts), &opts);
            emit(&ablations::run_all(opts.scale, opts.seed), &opts);
            Vec::new()
        }
        other => usage(&format!("unknown experiment {other}")),
    };
    emit(&tables, &opts);
    eprintln!(
        "[exp] {exp} finished in {:.1} s",
        start.elapsed().as_secs_f64()
    );
}
