//! The closed-loop load generator: each connection sends its next request
//! only after the previous reply, over real sockets.

use cardest_nn::q_error;
use cardest_server::client::{HttpClient, Response};
use serde::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::procfs;
use crate::trace::{Span, SpanLog};
use crate::twin::Twins;
use crate::workload::{Op, Plan};

/// Which operations a pass sends.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Cycle over the plan until `seconds` have passed, then finish the
    /// window of `unit` plan positions under way.
    Timed { seconds: f64, unit: usize },
    /// Send operations `from..to` of the plan once, in windows of `unit`.
    Range { from: usize, to: usize, unit: usize },
}

/// Counters sampled where a window starts or ends.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    ticket: usize,
    steal: (u64, u64),
    process_cpu_us: f64,
    client_cpu_us: f64,
}

fn mark(ticket: usize) -> Mark {
    let client_ns: u64 = procfs::threads()
        .values()
        .filter(|(name, _, _)| name.starts_with(CLIENT_THREAD))
        .map(|(_, cpu, _)| cpu)
        .sum();
    Mark {
        ticket,
        steal: procfs::host_steal(),
        process_cpu_us: procfs::process_cpu_us(),
        client_cpu_us: client_ns as f64 / 1e3,
    }
}

const CLIENT_THREAD: &str = "bench-client";

/// One successful operation.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub ticket: usize,
    /// Reply time, in seconds since the pass started.
    pub end_s: f64,
    /// Client-observed latency in µs.
    pub lat_us: f64,
    /// Estimates answered; 0 for an insert.
    pub queries: u32,
}

/// The operations of whole cycles of the plan.
#[derive(Debug, Default)]
pub struct Window {
    pub est_lat_us: Vec<f64>,
    pub ins_lat_us: Vec<f64>,
    pub queries: u64,
    pub inserts: u64,
    pub secs: f64,
    /// Share of the host's CPU time stolen by other guests meanwhile.
    pub steal_share: f64,
    /// Process CPU minus the load generator's, per estimate or insert.
    pub cpu_us_per_op: f64,
}

/// Everything one pass observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub recs: Vec<Rec>,
    pub qerrors: Vec<f32>,
    pub single_requests: u64,
    pub batch_requests: u64,
    pub insert_requests: u64,
    /// Estimates answered (queries, not requests).
    pub queries: u64,
    /// Plan indices of acknowledged inserts, in order.
    pub acked: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub client_cpu_us: f64,
    /// The client threads' total CPU clocks when they finished, in µs.
    client_cpu_end_us: f64,
    /// Counters at each window boundary, and at the end of the pass.
    pub marks: Vec<Mark>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Latencies of estimate requests, or of inserts.
    pub fn latencies(&self, inserts: bool) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| (r.queries == 0) == inserts)
            .map(|r| r.lat_us)
            .collect()
    }

    /// Splits the pass into its windows of `unit` consecutive plan
    /// positions.
    pub fn windows(&self, unit: usize) -> Vec<Window> {
        let mut by: BTreeMap<usize, (Window, f64, f64)> = BTreeMap::new();
        for r in &self.recs {
            let (w, start, end) =
                by.entry(r.ticket / unit)
                    .or_insert((Window::default(), f64::INFINITY, 0.0));
            *start = start.min(r.end_s - r.lat_us / 1e6);
            *end = end.max(r.end_s);
            if r.queries == 0 {
                w.ins_lat_us.push(r.lat_us);
                w.inserts += 1;
            } else {
                w.est_lat_us.push(r.lat_us);
                w.queries += u64::from(r.queries);
            }
        }
        let at = |ticket: usize| self.marks.iter().find(|m| m.ticket >= ticket);
        by.into_iter()
            .map(|(k, (mut w, start, end))| {
                w.secs = end - start;
                if let (Some(a), Some(b)) = (at(k * unit), at((k + 1) * unit)) {
                    let total = b.steal.1.saturating_sub(a.steal.1).max(1);
                    w.steal_share = b.steal.0.saturating_sub(a.steal.0) as f64 / total as f64;
                    let cpu =
                        (b.process_cpu_us - a.process_cpu_us) - (b.client_cpu_us - a.client_cpu_us);
                    w.cpu_us_per_op = cpu / (w.queries + w.inserts).max(1) as f64;
                }
                w
            })
            .collect()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn merge(&mut self, o: Outcome) {
        self.recs.extend(o.recs);
        self.qerrors.extend(o.qerrors);
        self.single_requests += o.single_requests;
        self.batch_requests += o.batch_requests;
        self.insert_requests += o.insert_requests;
        self.queries += o.queries;
        self.acked.extend(o.acked);
        self.attempted += o.attempted;
        self.failed += o.failed;
        for e in o.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.client_cpu_us += o.client_cpu_us;
        self.client_cpu_end_us += o.client_cpu_end_us;
        self.spans.extend(o.spans);
    }
}

/// Hands out plan positions to the connections in order.
struct Tickets {
    next: usize,
    stop: usize,
    unit: usize,
    deadline: Option<Instant>,
    marks: Vec<Mark>,
}

impl Tickets {
    fn take(&mut self) -> Option<usize> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                // Finish the window under way, so every run serves whole
                // cycles of the plan.
                self.stop = self
                    .stop
                    .min(self.next.div_ceil(self.unit).max(1) * self.unit);
                self.deadline = None;
            }
        }
        if self.next >= self.stop {
            return None;
        }
        if self.next.is_multiple_of(self.unit) {
            self.marks.push(mark(self.next));
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn finite(v: Option<&Value>) -> Option<f32> {
    number(v).filter(|x| x.is_finite()).map(|x| x as f32)
}

/// Checks one reply and records what it answered.
fn check(op: &Op, t: usize, r: &Response, lat_us: f64, end_s: f64, out: &mut Outcome) {
    let rec = |queries: usize, out: &mut Outcome| {
        out.recs.push(Rec {
            ticket: t,
            end_s,
            lat_us,
            queries: queries as u32,
        })
    };
    if r.status != 200 {
        return out.fail(format!("op {t}: HTTP {}: {}", r.status, r.text()));
    }
    let Ok(v) = serde_json::from_slice::<Value>(&r.body) else {
        return out.fail(format!("op {t}: unparseable reply"));
    };
    match op {
        Op::Estimate { probe, .. } => match finite(field(&v, "estimate")) {
            Some(e) => {
                rec(1, out);
                out.queries += 1;
                out.qerrors.push(q_error(e, probe.truth));
            }
            None => out.fail(format!("op {t}: no finite estimate")),
        },
        Op::Batch { probes, .. } => {
            let results = match field(&v, "results") {
                Some(Value::Seq(s)) => s.as_slice(),
                _ => &[],
            };
            let est: Vec<Option<f32>> = results
                .iter()
                .map(|r| finite(field(r, "estimate")))
                .collect();
            if est.len() != probes.len() || est.iter().any(Option::is_none) {
                return out.fail(format!(
                    "op {t}: {} finite results of {}",
                    est.iter().flatten().count(),
                    probes.len()
                ));
            }
            rec(probes.len(), out);
            out.queries += probes.len() as u64;
            for (e, p) in est.into_iter().flatten().zip(probes) {
                out.qerrors.push(q_error(e, p.truth));
            }
        }
        Op::Insert { index, segment, .. } => {
            let got = (number(field(&v, "index")), number(field(&v, "segment")));
            if got != (Some(*index as f64), Some(*segment as f64)) {
                return out.fail(format!(
                    "op {t}: insert acked as (index, segment) {got:?}, expected ({index}, {segment})"
                ));
            }
            rec(0, out);
            out.acked.push(t);
        }
    }
}

fn path(op: &Op) -> &'static str {
    match op {
        Op::Estimate { .. } => "/estimate",
        Op::Batch { .. } => "/estimate_batch",
        Op::Insert { .. } => "/insert",
    }
}

/// One connection's loop.
fn connection(
    addr: SocketAddr,
    plan: &Plan,
    tickets: &Mutex<Tickets>,
    twins: Option<&Twins>,
    epoch: Instant,
    ids: &AtomicU64,
) -> Outcome {
    let mut out = Outcome::default();
    let mut log = SpanLog::new(epoch, ids);
    let mut client = HttpClient::connect(addr).ok();
    let cpu0 = procfs::thread_self_cpu_ns();
    loop {
        let Some(t) = tickets
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        else {
            break;
        };
        let op = &plan.ops[t % plan.ops.len()];
        out.attempted += 1;
        match op {
            Op::Estimate { .. } => out.single_requests += 1,
            Op::Batch { .. } => out.batch_requests += 1,
            Op::Insert { .. } => out.insert_requests += 1,
        }
        let body = match op {
            Op::Estimate { body, .. } | Op::Batch { body, .. } | Op::Insert { body, .. } => body,
        };
        let Some(c) = client.as_mut() else {
            out.fail(format!("op {t}: not connected"));
            client = HttpClient::connect(addr).ok();
            continue;
        };
        let id = log.id();
        let start = Instant::now();
        let reply = c.post_json(path(op), body);
        let lat_us = start.elapsed().as_secs_f64() * 1e6;
        let end_s = epoch.elapsed().as_secs_f64();
        if twins.is_some() {
            log.record("client.request", id, 0, t as u64, start, false, 1);
        }
        match reply {
            Ok(r) => check(op, t, &r, lat_us, end_s, &mut out),
            Err(e) => {
                out.fail(format!("op {t}: transport error: {e}"));
                client = HttpClient::connect(addr).ok();
            }
        }
        if let Some(tw) = twins {
            tw.run(op, id, t as u64, &mut log);
        }
    }
    let cpu1 = procfs::thread_self_cpu_ns();
    out.client_cpu_us = cpu1.saturating_sub(cpu0) as f64 / 1e3;
    out.client_cpu_end_us = cpu1 as f64 / 1e3;
    out.spans = log.spans;
    out
}

/// Runs one closed-loop pass over `connections` sockets. With `twins`,
/// every request is followed by its traced twins.
pub fn pass(
    addr: SocketAddr,
    plan: &Plan,
    connections: usize,
    scope: Scope,
    twins: Option<&Twins>,
) -> Outcome {
    let epoch = Instant::now();
    let (next, stop, unit, deadline) = match scope {
        Scope::Timed { seconds, unit } => (
            0,
            usize::MAX,
            unit,
            Some(Instant::now() + Duration::from_secs_f64(seconds)),
        ),
        Scope::Range { from, to, unit } => (from, to, unit, None),
    };
    let tickets = Mutex::new(Tickets {
        next,
        stop,
        unit,
        deadline,
        marks: Vec::new(),
    });
    let ids = AtomicU64::new(0);
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|i| {
                let (tickets, ids) = (&tickets, &ids);
                std::thread::Builder::new()
                    .name(format!("{CLIENT_THREAD}-{i}"))
                    .spawn_scoped(s, move || {
                        connection(addr, plan, tickets, twins, epoch, ids)
                    })
                    .expect("spawn a client thread")
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    let tickets = tickets.into_inner().unwrap_or_else(PoisonError::into_inner);
    total.marks = tickets.marks;
    total.marks.push(Mark {
        client_cpu_us: total.client_cpu_end_us,
        ..mark(tickets.next)
    });
    total
}
