//! The three workloads: request sequences fixed by the seed, rendered to
//! bodies and labelled with their exact counts before any timing starts.

use cardest_data::metric::Metric;
use cardest_data::vector::VectorView;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::BTreeMap;

use crate::setup::Setup;

/// Queries per `POST /estimate_batch` request.
pub const BATCH: usize = 64;
/// Estimates sent before each insert on `ingest_mixed`.
pub const ESTIMATES_PER_INSERT: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Batch,
    Ingest,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "point_estimate" => Some(Kind::Point),
            "batch_estimate" => Some(Kind::Batch),
            "ingest_mixed" => Some(Kind::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point_estimate",
            Kind::Batch => "batch_estimate",
            Kind::Ingest => "ingest_mixed",
        }
    }

    /// Client connections: two only where concurrency is what the
    /// workload measures (the coalescer pairing two callers).
    pub fn connections(self) -> usize {
        match self {
            Kind::Point => 2,
            Kind::Batch | Kind::Ingest => 1,
        }
    }
}

/// One estimated (query, τ) with its exact count at send time.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub query: usize,
    pub tau: f32,
    pub truth: f32,
    /// Bit `i` set when segment `i` holds at least one exact match.
    pub segs: u64,
}

pub enum Op {
    Estimate {
        body: String,
        probe: Probe,
    },
    Batch {
        body: String,
        probes: Vec<Probe>,
    },
    Insert {
        body: String,
        point: Vec<f32>,
        /// Dataset row the server must report for this insert.
        index: usize,
        /// Segment the point must be routed to.
        segment: usize,
    },
}

/// A workload's operations. Read-only workloads cycle over `ops`, and a
/// run ends only after a whole number of cycles, so every run serves the
/// same multiset of estimates. `ingest_mixed` runs its list once.
pub struct Plan {
    pub ops: Vec<Op>,
    /// Test samples excluded because τ exceeds the model's bound.
    pub excluded: usize,
    /// Bodies whose floats did not parse back to the same bits.
    pub lossy_bodies: usize,
}

/// What a planner may deliberately break, to show a check trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// One estimate carries a τ above the served model's bound.
    TauAboveBound,
    /// The replay skips the first insert.
    SkipInsert,
}

fn dense(v: VectorView<'_>) -> Vec<f32> {
    let mut out = Vec::new();
    v.write_dense(&mut out);
    out
}

fn floats(xs: &[f32]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", parts.join(","))
}

fn entry(q: &[f32], tau: f32) -> String {
    format!("{{\"query\":{},\"tau\":{tau}}}", floats(q))
}

/// Parses a body back the way the server does and reports whether every
/// float survives bit for bit.
fn round_trips(body: &str, field: &str, want: &[f32], tau: Option<f32>) -> bool {
    let Ok(v) = serde_json::from_str::<Value>(body) else {
        return false;
    };
    let Ok(map) = v.expect_map("body") else {
        return false;
    };
    let got: Vec<f32> = match serde::get_field(map, field, "body") {
        Ok(g) => g,
        Err(_) => return false,
    };
    let tau_ok = tau.is_none_or(|t| {
        serde::get_field::<f32>(map, "tau", "body").is_ok_and(|g| g.to_bits() == t.to_bits())
    });
    tau_ok
        && got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Builds the plan. `ingest_inserts` is the number of inserts on
/// `ingest_mixed` (ignored elsewhere).
pub fn plan(
    kind: Kind,
    setup: &Setup,
    seed: u64,
    ingest_inserts: usize,
    inject: Option<Inject>,
) -> Plan {
    let ctx = &setup.ctx;
    let search = &ctx.search;
    let bound = setup.gl.tau_scale();
    let assignment = setup.gl.segmentation().assignment();
    assert!(
        setup.gl.n_segments() <= 64,
        "segment masks hold 64 segments"
    );

    // Held-out samples inside the model's τ bound, with their exact
    // counts and the segments holding their matches.
    let mut probes: Vec<Probe> = Vec::new();
    let mut excluded = 0;
    for s in &search.test {
        if s.tau > bound {
            excluded += 1;
            continue;
        }
        let row = search.table.row(s.query);
        let mut segs = 0u64;
        for (j, &d) in row.iter().enumerate() {
            if d <= s.tau {
                segs |= 1 << assignment[j];
            }
        }
        probes.push(Probe {
            query: s.query,
            tau: s.tau,
            truth: s.card,
            segs,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_BE4C);
    probes.shuffle(&mut rng);
    if inject == Some(Inject::TauAboveBound) {
        probes[0].tau = bound * 1.25;
    }
    let qvec: BTreeMap<usize, Vec<f32>> = probes
        .iter()
        .map(|p| (p.query, dense(search.queries.view(p.query))))
        .collect();

    let mut lossy = 0;
    let mut estimate_op = |p: Probe| {
        let q = &qvec[&p.query];
        let body = entry(q, p.tau);
        if !round_trips(&body, "query", q, Some(p.tau)) {
            lossy += 1;
        }
        Op::Estimate { body, probe: p }
    };

    let ops: Vec<Op> = match kind {
        Kind::Point => probes.iter().map(|&p| estimate_op(p)).collect(),
        Kind::Batch => {
            // Whole batches only, so one cycle of the plan serves each
            // kept sample once.
            probes
                .chunks_exact(BATCH)
                .map(|chunk| {
                    let members = chunk.to_vec();
                    let entries: Vec<String> = members
                        .iter()
                        .map(|p| entry(&qvec[&p.query], p.tau))
                        .collect();
                    for (p, e) in members.iter().zip(&entries) {
                        if !round_trips(e, "query", &qvec[&p.query], Some(p.tau)) {
                            lossy += 1;
                        }
                    }
                    let body = format!("{{\"queries\":[{}]}}", entries.join(","));
                    Op::Batch {
                        body,
                        probes: members,
                    }
                })
                .collect()
        }
        Kind::Ingest => {
            let (ops, bad) = ingest_ops(setup, &probes, &qvec, &mut rng, ingest_inserts);
            lossy += bad;
            ops
        }
    };
    Plan {
        ops,
        excluded,
        lossy_bodies: lossy,
    }
}

/// `ingest_mixed`: three estimates, then one insert of a row resampled
/// from the dataset. Each estimate's truth is its initial label plus the
/// points inserted before it that fall within τ.
fn ingest_ops(
    setup: &Setup,
    probes: &[Probe],
    qvec: &BTreeMap<usize, Vec<f32>>,
    rng: &mut StdRng,
    inserts: usize,
) -> (Vec<Op>, usize) {
    let data = &setup.ctx.data;
    let metric: Metric = setup.ctx.spec.metric;
    let seg = setup.gl.segmentation();
    // Probe slots grouped by query, so each inserted point costs one
    // distance per distinct query.
    let mut by_query: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, p) in probes.iter().enumerate() {
        by_query.entry(p.query).or_default().push(i);
    }
    let mut live: Vec<Probe> = probes.to_vec();
    let mut ops = Vec::with_capacity(inserts * (ESTIMATES_PER_INSERT + 1));
    let mut lossy = 0;
    let mut next = 0usize;
    for k in 0..inserts {
        for _ in 0..ESTIMATES_PER_INSERT {
            let p = live[next % live.len()];
            next += 1;
            let q = &qvec[&p.query];
            let body = entry(q, p.tau);
            if !round_trips(&body, "query", q, Some(p.tau)) {
                lossy += 1;
            }
            ops.push(Op::Estimate { body, probe: p });
        }
        let row = rng.gen_range(0..data.len());
        let view = data.view(row);
        let point = dense(view);
        let segment = seg.nearest_segment(view);
        for (&q, slots) in &by_query {
            let d = metric.distance(VectorView::Dense(&qvec[&q]), view);
            for &i in slots {
                if d <= live[i].tau {
                    live[i].truth += 1.0;
                    live[i].segs |= 1 << segment;
                }
            }
        }
        let body = format!("{{\"point\":{}}}", floats(&point));
        if !round_trips(&body, "point", &point, None) {
            lossy += 1;
        }
        ops.push(Op::Insert {
            body,
            point,
            index: data.len() + k,
            segment,
        });
    }
    (ops, lossy)
}
