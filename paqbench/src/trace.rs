//! The benchmark's own span recorder. Spans wrap the public calls the
//! benchmark makes (encode, write, wait, decode, check); the server's
//! share of a request is attached as derived child spans read from the
//! `WireTimings` and `WireReport` every response already carries. Spans
//! stay in memory and are written out as JSON lines at exit.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// The request the span belongs to.
    pub request: u64,
}

/// One thread's span buffer. Ids carry the buffer's index in their high
/// bits, so buffers merge without renumbering.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, buffer: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: (buffer << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start, end]` and return the span's id.
    pub fn span(
        &mut self,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
    ) -> u64 {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(parent, name, start, end.max(start), request)
    }

    /// Record a span known only by its duration, placed at `start`
    /// (the server-side timings the wire reports).
    pub fn derived(
        &mut self,
        parent: u64,
        name: &'static str,
        start: u64,
        len: Duration,
        request: u64,
    ) -> u64 {
        self.push(parent, name, start, start + len.as_nanos() as u64, request)
    }

    pub fn start_of(&self, id: u64) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.id == id)
            .map_or(0, |s| s.start)
    }

    fn push(&mut self, parent: u64, name: &'static str, start: u64, end: u64, request: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
            request,
        });
        id
    }
}

/// Per-name totals over a trace: wall time, self time (span minus its
/// children) and how many spans carried the name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: i64,
}

/// Self time per span name, over every span whose root is named `root`.
pub fn self_times(spans: &[Span], root: &str) -> HashMap<&'static str, Layer> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    fn root_of<'a>(by_id: &HashMap<u64, &'a Span>, mut s: &'a Span) -> &'static str {
        while let Some(p) = by_id.get(&s.parent) {
            s = p;
        }
        s.name
    }
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_default() += s.end - s.start;
        }
    }
    let mut out: HashMap<&'static str, Layer> = HashMap::new();
    for s in spans.iter().filter(|s| root_of(&by_id, s) == root) {
        let len = s.end - s.start;
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += len;
        layer.self_ns += len as i64 - children.get(&s.id).copied().unwrap_or(0) as i64;
    }
    out
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            s.id, s.parent, s.name, s.start, s.end, s.request
        );
    }
    out
}
