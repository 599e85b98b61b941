//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed call. `parent` is the span whose call this one belongs to
/// (0 for a request). A `twin` span times the same public function on
/// the same input as a call the server makes internally, which cannot
/// be entered from outside.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub twin: bool,
    /// Queries (or points) the call handled.
    pub n: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A client thread's span buffer.
pub struct SpanLog<'a> {
    epoch: Instant,
    ids: &'a AtomicU64,
    pub spans: Vec<Span>,
}

impl<'a> SpanLog<'a> {
    pub fn new(epoch: Instant, ids: &'a AtomicU64) -> Self {
        SpanLog {
            epoch,
            ids,
            spans: Vec::new(),
        }
    }

    pub fn id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        req: u64,
        start: Instant,
        twin: bool,
        n: usize,
    ) {
        let end = Instant::now();
        let span = Span {
            name,
            id,
            parent,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            twin,
            n: n as u32,
        };
        self.spans.push(span);
    }
}

/// Per-name totals: calls, summed duration, summed self time (duration
/// minus the durations of the spans naming it as parent) and summed `n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub dur_us: f64,
    pub self_us: f64,
    pub n: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.dur_us / self.calls as f64
        }
    }

    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_us / self.calls as f64
        }
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_default() += s.dur_us();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.dur_us += s.dur_us();
        t.self_us += s.dur_us() - children.get(&s.id).copied().unwrap_or(0.0);
        t.n += u64::from(s.n);
    }
    out
}

/// Writes the spans as JSON lines, ordered by start time.
pub fn write(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"twin\":{},\"n\":{}}}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns, s.twin, s.n
        )?;
    }
    out.flush()
}
