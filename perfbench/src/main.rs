//! `cardest-perfbench`: trains the paper's GL-CNN at the Table 3 GloVe300
//! scale, serves it in-process through `cardest-server` at the defaults
//! `cardest-serve` ships, drives one closed-loop workload over real
//! sockets and checks every reply.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` sets up once
//! with training split into its stages, runs the workload untraced, then
//! again with a span around every call into a layer's public function,
//! and reports the per-layer metrics. Human-readable lines come first;
//! the last line of standard output is the JSON result. Run it through
//! `perfbench/run.py`, which builds it first.

mod drive;
mod procfs;
mod setup;
mod trace;
mod twin;
mod workload;

use cardest_bench::context::Scale;
use cardest_core::drift::DriftConfig;
use cardest_core::update::UpdatableGl;
use cardest_data::vector::VectorView;
use cardest_server::client::HttpClient;
use cardest_server::ServerConfig;
use cardest_store::StoreConfig;
use serde::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;

use drive::{Outcome, Scope};
use workload::{Inject, Kind, Op, Plan};

/// End-to-end metrics printed but left out of the result line: the
/// insert path exists on `ingest_mixed` only, and a clean run has no
/// errors. The p90 and the closed-loop rate (one or two connections, so
/// the reciprocal of the mean latency) move by a third between runs
/// whenever other guests steal CPU from the host; `cpu_us_per_op` is the
/// capacity figure.
const REPORTED_ONLY: [&str; 6] = [
    "p90_us",
    "qps",
    "insert_p50_us",
    "insert_p90_us",
    "inserts_per_s",
    "error_ratio",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Nominal wall time of one `ingest_mixed` snapshot cycle (256 inserts
/// and 768 estimates), which sizes the run from `--seconds`.
const INGEST_CYCLE_S: f64 = 1.25;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    inject: Option<Inject>,
    work_dir: PathBuf,
    trace_dir: PathBuf,
    git_rev: String,
    source_digest: String,
}

const USAGE: &str =
    "usage: cardest-perfbench --workload point_estimate|batch_estimate|ingest_mixed \
--seed N --seconds S --trace 0|1 --work-dir DIR [--trace-dir DIR] [--scale full|tiny] \
[--inject tau-above-bound|skip-insert] [--git-rev REV] [--source-digest HEX]";

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).cloned();
    let need = |k: &str| get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str, v: String| {
        v.parse::<f64>()
            .map_err(|_| format!("--{k}: bad number {v:?}"))
    };
    let kind = Kind::parse(&need("workload")?).ok_or("unknown --workload")?;
    let scale = match get("scale").as_deref() {
        None | Some("full") => Scale::Full,
        Some("tiny") => Scale::Smoke,
        Some(other) => return Err(format!("unknown --scale {other:?}")),
    };
    let inject = match get("inject").as_deref() {
        None => None,
        Some("tau-above-bound") => Some(Inject::TauAboveBound),
        Some("skip-insert") => Some(Inject::SkipInsert),
        Some(other) => return Err(format!("unknown --inject {other:?}")),
    };
    let work_dir = PathBuf::from(need("work-dir")?);
    Ok(Args {
        kind,
        seed: num("seed", need("seed")?)? as u64,
        seconds: num("seconds", need("seconds")?)?,
        trace: need("trace")? == "1",
        scale,
        inject,
        trace_dir: get("trace-dir").map_or_else(|| work_dir.join("traces"), PathBuf::from),
        work_dir,
        git_rev: get("git-rev").unwrap_or_else(|| "unknown".into()),
        source_digest: get("source-digest").unwrap_or_else(|| "unknown".into()),
    })
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A named metric with its unit and the samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// One pass-level check of the outputs.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

fn get<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

fn count(v: &Value, path: &[&str]) -> u64 {
    match get(v, path) {
        Some(Value::UInt(u)) => *u,
        _ => u64::MAX,
    }
}

fn http_get(addr: SocketAddr, path: &str) -> Value {
    HttpClient::connect(addr)
        .and_then(|mut c| c.get(path))
        .ok()
        .and_then(|r| serde_json::from_slice(&r.body).ok())
        .unwrap_or(Value::Null)
}

type Threads = BTreeMap<u64, (String, u64, u64)>;

/// CPU and run-queue time of the server's named threads over a pass.
struct Usage {
    client_cpu_us_per_op: f64,
    worker: (f64, f64),
    batcher: (f64, f64),
    finetune_cpu_ms: f64,
}

fn usage(before: &Threads, after: &Threads, out: &Outcome) -> Usage {
    let ops = (out.queries + out.acked.len() as u64).max(1) as f64;
    let per_op = |prefix: &str| {
        let (cpu, runq) = procfs::thread_delta(before, after, prefix);
        (cpu as f64 / 1e3 / ops, runq as f64 / 1e3 / ops)
    };
    Usage {
        client_cpu_us_per_op: out.client_cpu_us / ops,
        worker: per_op("cardest-worker"),
        batcher: per_op("cardest-batcher"),
        finetune_cpu_ms: procfs::thread_delta(before, after, "cardest-finetun").0 as f64 / 1e6,
    }
}

/// The `/stats` cross-check and the zero-fallback, stationarity and
/// insert-count checks, against what the client saw.
fn stats_checks(kind: Kind, stats: &Value, out: &Outcome) -> Vec<Check> {
    let routes = [
        ("estimate", out.single_requests),
        ("estimate_batch", out.batch_requests),
        ("insert", out.insert_requests),
    ];
    let routes_ok = routes
        .iter()
        .all(|(r, n)| count(stats, &["routes", r, "count"]) == *n);
    let served = count(stats, &["guard", "served"]);
    let coalesced = count(stats, &["coalesce", "queries"]);
    let fallbacks = count(stats, &["guard", "fallbacks"]);
    let rejected = count(stats, &["guard", "rejected"]);
    let mut checks = vec![
        check(
            "stats_routes",
            routes_ok,
            format!(
                "server route counts {:?}, client {:?}",
                routes.map(|(r, _)| count(stats, &["routes", r, "count"])),
                routes.map(|(_, n)| n)
            ),
        ),
        check(
            "stats_guard_served",
            served == out.queries,
            format!("server served {served}, client received {}", out.queries),
        ),
        check(
            "stats_coalesced",
            coalesced == out.single_requests,
            format!(
                "server coalesced {coalesced}, client sent {}",
                out.single_requests
            ),
        ),
        check(
            "zero_fallbacks",
            fallbacks == 0 && rejected == 0,
            format!("guard fallbacks {fallbacks}, rejected {rejected}"),
        ),
    ];
    if kind == Kind::Ingest {
        let inserts = count(stats, &["ingest", "inserts"]);
        let triggers = count(stats, &["ingest", "drift_triggers"]);
        let finetunes = count(stats, &["ingest", "finetunes_ok"])
            .saturating_add(count(stats, &["ingest", "finetunes_failed"]));
        checks.push(check(
            "stats_inserts",
            inserts == out.acked.len() as u64,
            format!("server inserts {inserts}, client acked {}", out.acked.len()),
        ));
        checks.push(check(
            "stationary",
            triggers == 0 && finetunes == 0,
            format!("drift triggers {triggers}, fine-tunes {finetunes}"),
        ));
    }
    checks
}

/// Applies the acknowledged inserts to the replay in order.
fn replay_acked(replay: &mut UpdatableGl, plan: &Plan, acked: &[usize], skip_first: bool) {
    for (i, &t) in acked.iter().enumerate() {
        if skip_first && i == 0 {
            continue;
        }
        if let Op::Insert { point, .. } = &plan.ops[t] {
            replay.apply_insert(VectorView::Dense(point));
        }
    }
}

fn fingerprint_check(addr: SocketAddr, replay: &UpdatableGl) -> Check {
    let served = count(&http_get(addr, "/admin/fingerprint"), &["fingerprint"]);
    let expected = replay.state_fingerprint().expect("fingerprint the replay");
    check(
        "fingerprint",
        served == expected,
        format!("server {served:#018x}, independent replay {expected:#018x}"),
    )
}

/// `steal` is the host's steal share over all windows and their count,
/// then over the windows kept.
fn run_record(
    args: &Args,
    setup: &setup::Setup,
    plan: &Plan,
    steal: (f64, usize, f64, usize),
) -> String {
    let server = ServerConfig::default();
    let store = StoreConfig::default();
    let record = Value::Map(vec![
        ("workload".into(), Value::Str(args.kind.name().into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "scale".into(),
            Value::Str(
                if args.scale == Scale::Full {
                    "full"
                } else {
                    "tiny"
                }
                .into(),
            ),
        ),
        ("git_rev".into(), Value::Str(args.git_rev.clone())),
        (
            "source_digest".into(),
            Value::Str(args.source_digest.clone()),
        ),
        (
            "dataset".into(),
            serde::Serialize::serialize(&setup.ctx.spec),
        ),
        ("model".into(), serde::Serialize::serialize(&setup.cfg)),
        (
            "server".into(),
            Value::Map(vec![
                ("workers".into(), Value::UInt(server.workers as u64)),
                (
                    "coalesce_window_us".into(),
                    Value::UInt(server.coalesce.window.as_micros() as u64),
                ),
                (
                    "coalesce_max_batch".into(),
                    Value::UInt(server.coalesce.max_batch as u64),
                ),
                (
                    "coalesce_cap".into(),
                    Value::UInt(server.coalesce.cap as u64),
                ),
                (
                    "max_body_bytes".into(),
                    Value::UInt(server.max_body_bytes as u64),
                ),
                (
                    "pending_connections".into(),
                    Value::UInt(server.pending_connections as u64),
                ),
            ]),
        ),
        (
            "store".into(),
            if args.kind == Kind::Ingest {
                Value::Map(vec![
                    (
                        "snapshot_every".into(),
                        Value::UInt(store.snapshot_every as u64),
                    ),
                    ("sync_writes".into(), Value::Bool(store.sync_writes)),
                    ("retain_wal".into(), Value::Bool(store.retain_wal)),
                    ("rotate_bytes".into(), Value::UInt(store.rotate_bytes)),
                ])
            } else {
                Value::Null
            },
        ),
        (
            "drift".into(),
            if args.kind == Kind::Ingest {
                serde::Serialize::serialize(&DriftConfig::default())
            } else {
                Value::Null
            },
        ),
        (
            "connections".into(),
            Value::UInt(args.kind.connections() as u64),
        ),
        (
            "setups".into(),
            Value::UInt(if args.trace { 1 } else { SETUPS as u64 }),
        ),
        (
            "artifact_digest".into(),
            Value::Str(format!("{:016x}", setup.artifact_digest)),
        ),
        (
            "excluded_samples_tau_above_bound".into(),
            Value::UInt(plan.excluded as u64),
        ),
        (
            "available_parallelism".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |p| p.get()) as u64),
        ),
        ("cpu_steal_share".into(), Value::Float(steal.0)),
        ("windows".into(), Value::UInt(steal.1 as u64)),
        ("cpu_steal_share_kept".into(), Value::Float(steal.2)),
        ("windows_kept".into(), Value::UInt(steal.3 as u64)),
    ]);
    serde_json::to_string(&record).expect("render the run record")
}

/// Snapshot cycles of `ingest_mixed` per run.
fn ingest_cycles(seconds: f64, scale: Scale) -> usize {
    match scale {
        Scale::Full => (seconds / INGEST_CYCLE_S).round().max(1.0) as usize,
        Scale::Smoke => 1,
    }
}

/// Operations in one `ingest_mixed` snapshot cycle.
fn ops_per_cycle() -> usize {
    StoreConfig::default().snapshot_every * (workload::ESTIMATES_PER_INSERT + 1)
}

/// Requests a window must hold, so its p90 has ten samples beyond it.
const MIN_WINDOW_REQUESTS: usize = 100;

/// Plan positions per window: whole cycles of the plan (snapshot cycles
/// on `ingest_mixed`), enough of them to fill a window.
fn window_unit(kind: Kind, plan: &Plan) -> usize {
    match kind {
        Kind::Ingest => ops_per_cycle(),
        _ => plan.ops.len() * MIN_WINDOW_REQUESTS.div_ceil(plan.ops.len()),
    }
}

/// Host steal share up to which a window counts as quiet: about two
/// clock ticks of the two CPUs in a one-second window.
const QUIET_STEAL: f64 = 0.01;

/// The windows during which other guests stole the least CPU from this
/// host: every quiet one, and at least the quietest quarter. Contention
/// from other guests comes in episodes of seconds; ranking windows by
/// the host's steal share, which the program does not control, leaves
/// them out without looking at the measured values.
fn quiet(mut windows: Vec<drive::Window>) -> Vec<drive::Window> {
    windows.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let calm = windows
        .iter()
        .filter(|w| w.steal_share <= QUIET_STEAL)
        .count();
    windows.truncate(calm.max(windows.len().div_ceil(4)));
    windows
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.retain(|x| x.is_finite());
    quantile(&xs, 0.5)
}

/// A pass's outcome with its `/proc` usage and the server's `/stats`.
struct Measured {
    out: Outcome,
    usage: Usage,
    stats: Value,
}

/// Runs one untraced pass and its checks.
fn measure(
    args: &Args,
    addr: SocketAddr,
    plan: &Plan,
    scope: Scope,
    checks: &mut Vec<Check>,
) -> Measured {
    let before = procfs::threads();
    let out = drive::pass(addr, plan, args.kind.connections(), scope, None);
    let after = procfs::threads();
    let usage = usage(&before, &after, &out);
    let stats = http_get(addr, "/stats");
    checks.push(check(
        "replies",
        out.failed == 0,
        format!(
            "{} of {} operations failed: {:?}",
            out.failed, out.attempted, out.errors
        ),
    ));
    checks.extend(stats_checks(args.kind, &stats, &out));
    Measured { out, usage, stats }
}

type RunResult = (Vec<Metric>, Vec<Metric>, Vec<Check>, (u64, u64), String);

fn run(args: &Args) -> RunResult {
    let ingest = args.kind == Kind::Ingest;
    let repeats = if args.trace { 1 } else { SETUPS };
    // Untraced runs split `--seconds` over one pass per set-up; a traced
    // run splits it between its untraced and traced passes.
    let passes = if args.trace { 2 } else { repeats };
    let pass_seconds = args.seconds / passes as f64;
    let cycles = (ingest_cycles(args.seconds, args.scale) / passes).max(1);
    let pass_ops = cycles * ops_per_cycle();
    // Each untraced pass of `ingest_mixed` replays the same operations on
    // a fresh server; the traced pass continues the sequence.
    let inserts = cycles * StoreConfig::default().snapshot_every * if args.trace { 2 } else { 1 };
    let first = |kind: Kind, plan: &Plan| match kind {
        Kind::Ingest => Scope::Range {
            from: 0,
            to: pass_ops,
            unit: ops_per_cycle(),
        },
        _ => Scope::Timed {
            seconds: pass_seconds,
            unit: window_unit(kind, plan),
        },
    };

    let mut checks = Vec::new();
    let mut plan: Option<Plan> = None;
    let mut setup_totals = Vec::new();
    let mut digests = Vec::new();
    let mut measured = Vec::new();
    let mut kept = None;
    let mut peak_rss = None;
    for i in 0..repeats {
        let dir = args.work_dir.join(format!("setup-{i}"));
        let s = setup::run(args.scale, args.seed, &dir, args.trace, ingest);
        eprintln!(
            "perfbench: set-up {} of {repeats}: {:.3} s",
            i + 1,
            s.stages.total_s
        );
        setup_totals.push(s.stages.total_s);
        digests.push(s.artifact_digest);
        let plan = plan
            .get_or_insert_with(|| workload::plan(args.kind, &s, args.seed, inserts, args.inject));
        let addr = s.handle.addr();
        let mut replay = ingest.then(|| setup::updatable(&s.ctx, &s.gl));
        let m = measure(args, addr, plan, first(args.kind, plan), &mut checks);
        // The high-water mark of one set-up and its pass, read before a
        // repeat set-up can pile onto memory the allocator kept.
        peak_rss.get_or_insert_with(procfs::peak_rss_mb);
        if let Some(r) = replay.as_mut() {
            replay_acked(
                r,
                plan,
                &m.out.acked,
                args.inject == Some(Inject::SkipInsert),
            );
        }
        if args.trace {
            kept = Some((s, replay));
        } else {
            if let Some(r) = &replay {
                checks.push(fingerprint_check(addr, r));
            }
            if i + 1 == repeats {
                kept = Some((s, None));
            } else {
                s.handle.shutdown();
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        measured.push(m);
    }
    let plan = plan.expect("a plan");
    let (setup, mut replay) = kept.expect("a set-up");
    let addr = setup.handle.addr();
    checks.push(check(
        "bodies_round_trip",
        plan.lossy_bodies == 0,
        format!("{} bodies lose float bits", plan.lossy_bodies),
    ));
    checks.push(check(
        "deterministic_training",
        digests.iter().all(|d| *d == digests[0]),
        format!("artifact digests {digests:x?}"),
    ));

    // End-to-end metrics: medians over whole cycles of the plan.
    let unit = window_unit(args.kind, &plan);
    let all: Vec<drive::Window> = measured.iter().flat_map(|m| m.out.windows(unit)).collect();
    let steal = |ws: &[drive::Window]| mean(&ws.iter().map(|w| w.steal_share).collect::<Vec<_>>());
    let steal_all = steal(&all);
    let n_windows = all.len();
    let windows = quiet(all);
    let record = run_record(
        args,
        &setup,
        &plan,
        (steal_all, n_windows, steal(&windows), windows.len()),
    );
    let over = |f: &dyn Fn(&drive::Window) -> f64| median(windows.iter().map(f).collect());
    let requests: usize = windows.iter().map(|w| w.est_lat_us.len()).sum();
    let inserts_acked: usize = windows.iter().map(|w| w.ins_lat_us.len()).sum();
    let queries: u64 = windows.iter().map(|w| w.queries).sum();
    let qerr: Vec<f64> = measured
        .iter()
        .flat_map(|m| m.out.qerrors.iter().map(|&q| f64::from(q)))
        .collect();
    let (attempted, failed) = measured
        .iter()
        .fold((0, 0), |(a, f), m| (a + m.out.attempted, f + m.out.failed));
    let ops = queries as usize + inserts_acked;
    let e2e = vec![
        m("setup_s", median(setup_totals.clone()), "s", repeats),
        m(
            "p50_us",
            over(&|w| quantile(&w.est_lat_us, 0.5)),
            "us",
            requests,
        ),
        m(
            "p90_us",
            over(&|w| quantile(&w.est_lat_us, 0.9)),
            "us",
            requests,
        ),
        m(
            "qps",
            over(&|w| ratio(w.queries as f64, w.secs)),
            "1/s",
            queries as usize,
        ),
        m("qerror_p50", quantile(&qerr, 0.5), "ratio", qerr.len()),
        m("qerror_p90", quantile(&qerr, 0.9), "ratio", qerr.len()),
        m("cpu_us_per_op", over(&|w| w.cpu_us_per_op), "us", ops),
        m("peak_rss_mb", peak_rss.unwrap_or(0.0), "MiB", 1),
        m(
            "insert_p50_us",
            over(&|w| quantile(&w.ins_lat_us, 0.5)),
            "us",
            inserts_acked,
        ),
        m(
            "insert_p90_us",
            over(&|w| quantile(&w.ins_lat_us, 0.9)),
            "us",
            inserts_acked,
        ),
        m(
            "inserts_per_s",
            over(&|w| ratio(w.inserts as f64, w.secs)),
            "1/s",
            inserts_acked,
        ),
        m(
            "error_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
            attempted as usize,
        ),
    ];
    let mut counts = (attempted, failed);
    let layers = if args.trace {
        let first = &measured[0];
        let traced = traced_layers(args, &setup, &plan, first, &mut replay, &mut checks);
        counts.0 += traced.1;
        counts.1 += traced.2;
        traced.0
    } else {
        Vec::new()
    };
    if args.trace {
        if let Some(r) = replay.as_ref() {
            checks.push(fingerprint_check(addr, r));
        }
    }
    setup.handle.shutdown();
    (e2e, layers, checks, counts, record)
}

/// The traced pass and the per-layer metrics.
fn traced_layers(
    args: &Args,
    setup: &setup::Setup,
    plan: &Plan,
    first: &Measured,
    replay: &mut Option<UpdatableGl>,
    checks: &mut Vec<Check>,
) -> (Vec<Metric>, u64, u64) {
    let ingest = args.kind == Kind::Ingest;
    let addr = setup.handle.addr();
    let out1 = &first.out;
    let use1 = &first.usage;
    let stats1 = &first.stats;
    let st = setup.stages;
    let untraced_mean = mean(&out1.latencies(false));
    let twins = twin::Twins::new(setup, &args.work_dir, replay.take());
    let scope = if ingest {
        let ops = plan.ops.len();
        Scope::Range {
            from: ops / 2,
            to: ops,
            unit: ops_per_cycle(),
        }
    } else {
        Scope::Timed {
            seconds: args.seconds / 2.0,
            unit: window_unit(args.kind, plan),
        }
    };
    let traced = drive::pass(addr, plan, args.kind.connections(), scope, Some(&twins));
    let tallies = *twins.tallies.lock().unwrap_or_else(|e| e.into_inner());
    *replay = twins.finish();
    checks.push(check(
        "traced_replies",
        traced.failed == 0,
        format!(
            "{} of {} operations failed: {:?}",
            traced.failed, traced.attempted, traced.errors
        ),
    ));
    let stats2 = http_get(addr, "/stats");
    let t = trace::totals(&traced.spans);
    let span = |name: &str| t.get(name).copied().unwrap_or_default();
    let calls = |name: &str| span(name).calls as usize;
    let serve = if args.kind == Kind::Batch {
        span("baselines.guard.serve_batch")
    } else {
        span("server.coalesce")
    };
    let stage_sum = span("server.http.parse").mean_us()
        + serve.mean_us()
        + span("server.http.encode").mean_us();
    let est = span("core.gl.estimate_batch_with_stats");
    let snap = span("store.snapshot");
    let ops = (out1.queries + out1.acked.len() as u64) as usize;
    let coalesce_batches = count(stats1, &["coalesce", "batches"]);
    let fallbacks = count(&stats2, &["guard", "fallbacks"]);
    let ingest_count = |key: &str| {
        if ingest {
            count(&stats2, &["ingest", key]) as f64
        } else {
            0.0
        }
    };
    let traced_lat = traced.latencies(false);
    let layers = vec![
        m("data.generate_s", st.generate_s, "s", 1),
        m("data.label_s", st.label_s, "s", 1),
        m("core.gl.train_s", st.gl_train_s, "s", 1),
        m("cluster.segment_s", st.segment_s, "s", 1),
        m("core.labels_s", st.labels_s, "s", 1),
        m("nn.train_s", st.nn_train_s, "s", 1),
        m("nn.artifact_s", st.artifact_s, "s", 1),
        m("store.create_s", st.store_s, "s", usize::from(ingest)),
        m("server.worker.cpu_us_per_op", use1.worker.0, "us", ops),
        m("server.worker.runq_us_per_op", use1.worker.1, "us", ops),
        m("server.batcher.cpu_us_per_op", use1.batcher.0, "us", ops),
        m("server.batcher.runq_us_per_op", use1.batcher.1, "us", ops),
        m("server.finetune.cpu_ms", use1.finetune_cpu_ms, "ms", 1),
        m(
            "bench.client.cpu_us_per_op",
            use1.client_cpu_us_per_op,
            "us",
            ops,
        ),
        m(
            "server.http.parse_us",
            span("server.http.parse").mean_us(),
            "us",
            calls("server.http.parse"),
        ),
        m(
            "server.http.encode_us",
            span("server.http.encode").mean_us(),
            "us",
            calls("server.http.encode"),
        ),
        m(
            "server.coalesce.wait_us",
            span("server.coalesce").mean_self_us(),
            "us",
            calls("server.coalesce"),
        ),
        m(
            "server.coalesce.batch_size",
            if coalesce_batches == 0 || coalesce_batches == u64::MAX {
                0.0
            } else {
                count(stats1, &["coalesce", "queries"]) as f64 / coalesce_batches as f64
            },
            "queries",
            coalesce_batches as usize,
        ),
        m(
            "baselines.guard.self_us",
            span("baselines.guard.serve_batch").mean_self_us(),
            "us",
            calls("baselines.guard.serve_batch"),
        ),
        m("baselines.guard.fallbacks", fallbacks as f64, "count", 1),
        m(
            "core.gl.estimate_us_per_query",
            ratio(est.dur_us, est.n as f64),
            "us",
            est.n as usize,
        ),
        m(
            "data.kernels.centroid_us",
            span("data.kernels.centroid_distances_into").mean_us(),
            "us",
            calls("data.kernels.centroid_distances_into"),
        ),
        m(
            "core.global.route_us",
            span("core.global.probabilities_batch").mean_us(),
            "us",
            calls("core.global.probabilities_batch"),
        ),
        m(
            "core.gl.local_us",
            est.mean_self_us(),
            "us",
            est.calls as usize,
        ),
        m(
            "core.gl.locals_per_query",
            ratio(tallies.locals as f64, tallies.queries as f64),
            "count",
            tallies.queries as usize,
        ),
        m(
            "core.global.precision",
            ratio(tallies.selected_hit as f64, tallies.selected as f64),
            "ratio",
            tallies.selected as usize,
        ),
        m(
            "core.global.miss_rate",
            ratio(tallies.missed as f64, tallies.matched as f64),
            "ratio",
            tallies.matched as usize,
        ),
        m(
            "server.net_us",
            untraced_mean - stage_sum,
            "us",
            out1.latencies(false).len(),
        ),
        m(
            "bench.trace.overhead_us",
            mean(&traced_lat) - untraced_mean,
            "us",
            traced_lat.len(),
        ),
        m(
            "server.http.parse_insert_us",
            span("server.http.parse_insert").mean_us(),
            "us",
            calls("server.http.parse_insert"),
        ),
        m(
            "server.ingest.insert_us",
            span("server.ingest.insert").mean_us(),
            "us",
            calls("server.ingest.insert"),
        ),
        m(
            "store.insert_us",
            span("store.insert").mean_us(),
            "us",
            calls("store.insert"),
        ),
        m(
            "store.wal.append_us",
            span("store.wal.append").mean_us(),
            "us",
            calls("store.wal.append"),
        ),
        m(
            "store.wal.bytes_per_insert",
            ratio(tallies.wal_bytes as f64, tallies.wal_appends as f64),
            "bytes",
            tallies.wal_appends as usize,
        ),
        m(
            "core.update.apply_us",
            span("core.update.apply_insert").mean_us(),
            "us",
            calls("core.update.apply_insert"),
        ),
        m(
            "store.snapshot_ms",
            snap.mean_us() / 1e3,
            "ms",
            snap.calls as usize,
        ),
        m("store.snapshots", tallies.snapshots as f64, "count", 1),
        m(
            "store.snapshot_mb",
            ratio(tallies.snapshot_bytes as f64, tallies.snapshots as f64) / 1e6,
            "MB",
            tallies.snapshots as usize,
        ),
        m(
            "core.drift.check_ms",
            span("core.drift.check").mean_us() / 1e3,
            "ms",
            calls("core.drift.check"),
        ),
        m(
            "core.drift.checks",
            ingest_count("drift_checks"),
            "count",
            1,
        ),
        m(
            "core.drift.triggers",
            ingest_count("drift_triggers"),
            "count",
            1,
        ),
    ];
    if ingest {
        checks.push(check(
            "stationary_traced",
            ingest_count("drift_triggers") == 0.0 && tallies.drift_triggers == 0,
            format!(
                "server drift triggers {}, twin {}",
                ingest_count("drift_triggers"),
                tallies.drift_triggers
            ),
        ));
    }
    checks.push(check(
        "zero_fallbacks_traced",
        fallbacks == 0,
        format!("guard fallbacks {fallbacks}"),
    ));
    let mut spans = traced.spans;
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
    match trace::write(&path, &mut spans) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    (layers, traced.attempted, traced.failed)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.work_dir).expect("create the work directory");
    let (e2e, layers, checks, (attempted, failed), record) = run(&args);
    println!("run {record}");
    for c in &checks {
        println!(
            "check {} {} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let shown: &[Metric] = if args.trace { &layers } else { &e2e };
    for x in shown {
        println!("metric {} {} {} n={}", x.name, x.value, x.unit, x.samples);
    }
    let gated: Vec<&Metric> = if args.trace {
        layers.iter().collect()
    } else {
        e2e.iter()
            .filter(|x| !REPORTED_ONLY.contains(&x.name))
            .collect()
    };
    let metrics = Value::Map(
        gated
            .iter()
            .map(|x| {
                (
                    x.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::Float(x.value)),
                        ("unit".into(), Value::Str(x.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(checks.iter().all(|c| c.ok))),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("render the result")
    );
}
