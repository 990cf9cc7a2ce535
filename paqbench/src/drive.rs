//! Load generators: the closed loops of `bulk` and of the `ingest`
//! reader, and the durable appends of the `ingest` writer and of the
//! post-run appends. Every response is checked as it arrives.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use paq_relational::Value;
use paq_server::wire7::{decode_response_v7, encode_request_v7};
use paq_server::{RemoteExecution, Request, Response, ShedClass};

use crate::net::Conn;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::work::Query;

/// One answered query.
pub struct Sample {
    pub query: usize,
    /// Seconds from the start of the measured phase to the send.
    pub at_s: f64,
    /// From the moment the request was due (just before its encode) to
    /// the last response byte.
    pub latency_ms: f64,
    /// From the send to the last response byte.
    pub round_trip_ms: f64,
    /// Whether the benchmark's tracing was on for this request.
    pub traced: bool,
    pub exec: Box<RemoteExecution>,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// What one generator thread saw.
#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Generator lateness, ms: the send minus the previous response's
    /// arrival.
    pub gen_lag_ms: Vec<f64>,
    pub spans: Vec<crate::trace::Span>,
    /// Frames kept for the encode/decode timing of the traced run.
    pub request_frames: Vec<Vec<u8>>,
    pub response_frames: Vec<Vec<u8>>,
    pub first_error: Option<String>,
}

/// Settings of one closed-loop generator.
pub struct Gen<'a> {
    pub addr: SocketAddr,
    pub queries: &'a [Query],
    /// Query indices the generator draws from.
    pub mix: usize,
    /// The in-process answer each response must equal bit for bit;
    /// `None` where only `satisfies` applies (checked after the run).
    pub expected: Option<&'a [Vec<(u64, u64)>]>,
    pub seed: u64,
    pub stream: u64,
    pub start: Instant,
    pub seconds: f64,
    /// `Some(block)` in the traced run: tracing alternates on and off in
    /// blocks of this length, so the run also measures its own overhead.
    pub trace_block: Option<Duration>,
    pub epoch: Instant,
    pub class: ShedClass,
}

const KEEP_FRAMES: usize = 256;

struct InFlight {
    tag: u32,
    query: usize,
    intended: Instant,
    encode: (Instant, Instant),
    send_end: Instant,
    request_bytes: usize,
    traced: bool,
}

impl Gen<'_> {
    fn traced_at(&self, t: Instant) -> bool {
        match self.trace_block {
            Some(block) => {
                let k = t.saturating_duration_since(self.start).as_nanos() / block.as_nanos();
                k % 2 == 1
            }
            None => false,
        }
    }

    /// Encode and send one request.
    fn submit(
        &self,
        conn: &mut Conn,
        query: usize,
        intended: Instant,
        out: &mut Outcome,
    ) -> Option<InFlight> {
        out.attempted += 1;
        let tag = conn.next_tag();
        let request = self.queries[query].request();
        let e0 = Instant::now();
        let payload = encode_request_v7(tag, &request);
        let e1 = Instant::now();
        let traced = self.traced_at(intended);
        if traced && out.request_frames.len() < KEEP_FRAMES {
            out.request_frames.push(payload.clone());
        }
        if let Err(e) = conn.send(&payload) {
            out.failed += 1;
            out.first_error.get_or_insert(format!("send: {e}"));
            return None;
        }
        Some(InFlight {
            tag,
            query,
            intended,
            encode: (e0, e1),
            send_end: Instant::now(),
            request_bytes: payload.len() + 4,
            traced,
        })
    }

    /// Decode, check and record one response.
    fn complete(
        &self,
        f: InFlight,
        got: Received,
        out: &mut Outcome,
        tracer: &mut Tracer,
        request_id: u64,
    ) {
        let Received {
            frame,
            arrival,
            decoded,
            decode: (d0, d1),
        } = got;
        let response_bytes = frame.len() + 4;
        let exec = match decoded {
            Ok(Response::Executed(exec)) => Some(exec),
            Ok(other) => {
                out.first_error
                    .get_or_insert(format!("{}: {other:?}", self.queries[f.query].name));
                None
            }
            Err(e) => {
                out.first_error.get_or_insert(format!("decode: {e}"));
                None
            }
        };
        let Some(exec) = exec else {
            out.failed += 1;
            return;
        };
        let matches = self
            .expected
            .is_none_or(|expected| exec.pairs == expected[f.query]);
        let c1 = Instant::now();
        if !matches {
            out.failed += 1;
            out.first_error.get_or_insert(format!(
                "{} differs from the in-process answer",
                self.queries[f.query].name
            ));
            return;
        }
        if f.traced {
            trace_query(tracer, &f, arrival, (d0, d1), c1, &exec, request_id);
            if out.response_frames.len() < KEEP_FRAMES {
                out.response_frames.push(frame);
            }
        }
        out.samples.push(Sample {
            query: f.query,
            at_s: f
                .intended
                .saturating_duration_since(self.start)
                .as_secs_f64(),
            latency_ms: ms(arrival - f.intended),
            round_trip_ms: ms(arrival - f.send_end.min(arrival)),
            traced: f.traced,
            exec,
            request_bytes: f.request_bytes,
            response_bytes,
        });
    }

    /// Closed loop: one request at a time in rounds over the mix, each
    /// round in an order drawn from the seed, each request timed from its
    /// send, until `seconds` have passed.
    pub fn closed_loop(&self) -> Outcome {
        self.closed_loop_between(|| {})
    }

    /// [`Gen::closed_loop`], calling `between` before every round.
    pub fn closed_loop_between(&self, mut between: impl FnMut()) -> Outcome {
        let mut out = Outcome::default();
        let mut tracer = Tracer::new(self.epoch, self.stream);
        let mut rng = Rng::new(self.seed, self.stream);
        let mut conn = match Conn::open(self.addr, self.class, self.stream) {
            Ok(c) => c,
            Err(e) => {
                out.attempted = 1;
                out.failed = 1;
                out.first_error = Some(format!("connect: {e}"));
                return out;
            }
        };
        let end = self.start + Duration::from_secs_f64(self.seconds);
        let mut order = Vec::new();
        let mut last_arrival = None;
        let mut request_id = self.stream << 32;
        while Instant::now() < end {
            if order.is_empty() {
                between();
                order = rng.permutation(self.mix);
                last_arrival = None;
            }
            let query = order.pop().expect("non-empty round");
            let now = Instant::now();
            if let Some(prev) = last_arrival {
                out.gen_lag_ms.push(ms(now - prev));
            }
            let Some(f) = self.submit(&mut conn, query, now, &mut out) else {
                break;
            };
            match conn.recv() {
                Ok((frame, arrival)) => {
                    last_arrival = Some(arrival);
                    let (got_tag, got) = Received::decode(frame, arrival);
                    if got_tag != f.tag {
                        out.failed += 1;
                        out.first_error
                            .get_or_insert("response for an unknown tag".into());
                        break;
                    }
                    request_id += 1;
                    self.complete(f, got, &mut out, &mut tracer, request_id);
                }
                Err(e) => {
                    out.failed += 1;
                    out.first_error.get_or_insert(format!("recv: {e}"));
                    break;
                }
            }
        }
        out.spans = tracer.spans;
        out
    }
}

/// The request's span tree: `query` from the moment it was due to the end
/// of the answer check, with the generator's lateness, the encode, the
/// write, the wait for the response (holding the server's execute time
/// and its plan / partition / evaluate split, and SKETCH / REFINE under
/// evaluate), the decode and the check as children.
fn trace_query(
    tracer: &mut Tracer,
    f: &InFlight,
    arrival: Instant,
    decode: (Instant, Instant),
    check_end: Instant,
    exec: &RemoteExecution,
    request: u64,
) {
    let root = tracer.span(0, "query", f.intended, check_end, request);
    tracer.span(root, "lag", f.intended, f.encode.0, request);
    tracer.span(root, "encode", f.encode.0, f.encode.1, request);
    tracer.span(root, "send", f.encode.1, f.send_end, request);
    let wait = tracer.span(root, "await", f.send_end, arrival, request);
    tracer.span(root, "decode", decode.0, decode.1, request);
    tracer.span(root, "check", decode.1, check_end, request);
    let t = &exec.timings;
    let at = tracer.start_of(wait);
    let execute = tracer.derived(wait, "execute", at, t.total, request);
    tracer.derived(execute, "plan", at, t.plan, request);
    let at = at + t.plan.as_nanos() as u64;
    tracer.derived(execute, "partition", at, t.partitioning, request);
    let at = at + t.partitioning.as_nanos() as u64;
    let evaluate = tracer.derived(execute, "evaluate", at, t.evaluate, request);
    if let Some(r) = &exec.report {
        tracer.derived(evaluate, "sketch", at, r.sketch_time, request);
        let at = at + r.sketch_time.as_nanos() as u64;
        tracer.derived(evaluate, "refine", at, r.refine_time, request);
    }
}

/// Durable appends over one connection, each acknowledged (its WAL
/// record fsynced) before the next is sent.
#[derive(Default)]
pub struct Writer {
    pub latencies_ms: Vec<f64>,
    /// The catalog version each acknowledged append produced, in order:
    /// version `versions[k]` holds the first `k + 1` rows of the source.
    pub versions: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Writer {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

pub struct Appender<'a> {
    conn: Conn,
    table: &'a str,
    rows: &'a [Vec<Value>],
    pub out: Writer,
}

impl<'a> Appender<'a> {
    pub fn open(
        addr: SocketAddr,
        table: &'a str,
        rows: &'a [Vec<Value>],
    ) -> Result<Appender<'a>, String> {
        let conn =
            Conn::open(addr, ShedClass::Normal, 1 << 20).map_err(|e| format!("connect: {e}"))?;
        Ok(Appender {
            conn,
            table,
            rows,
            out: Writer::default(),
        })
    }

    /// Append the next row; `false` once the rows run out or the
    /// connection failed.
    pub fn append_one(&mut self) -> bool {
        let Some(row) = self.rows.get(self.out.versions.len()) else {
            return false;
        };
        self.out.attempted += 1;
        let sent = Instant::now();
        let result = self.conn.call(&Request::AppendRow {
            name: self.table.to_owned(),
            row: row.clone(),
            token: None,
        });
        let done = Instant::now();
        match result {
            Ok(Response::Appended { version }) => {
                self.out.latencies_ms.push(ms(done - sent));
                self.out.versions.push(version);
                true
            }
            Ok(other) => {
                self.out.fail(format!("append answered {other:?}"));
                false
            }
            Err(e) => {
                self.out.fail(format!("append: {e}"));
                false
            }
        }
    }
}

/// Append every row, one at a time, pausing for `pause` after every
/// `burst` rows.
pub fn append_in_bursts(
    addr: SocketAddr,
    table: &str,
    rows: &[Vec<Value>],
    burst: usize,
    pause: Duration,
) -> Writer {
    match Appender::open(addr, table, rows) {
        Ok(mut a) => {
            let mut n = 0;
            while a.append_one() {
                n += 1;
                if n % burst == 0 {
                    std::thread::sleep(pause);
                }
            }
            a.out
        }
        Err(e) => Writer {
            attempted: 1,
            failed: 1,
            first_error: Some(e),
            ..Writer::default()
        },
    }
}

/// A response frame as read and decoded, with the decode's own timing.
struct Received {
    frame: Vec<u8>,
    arrival: Instant,
    decoded: Result<Response, paq_server::WireError>,
    decode: (Instant, Instant),
}

impl Received {
    fn decode(frame: Vec<u8>, arrival: Instant) -> (u32, Received) {
        let d0 = Instant::now();
        let decoded = decode_response_v7(&frame);
        let d1 = Instant::now();
        let (tag, decoded) = match decoded {
            Ok((tag, response)) => (tag, Ok(response)),
            Err(e) => (u32::MAX, Err(e)),
        };
        let got = Received {
            frame,
            arrival,
            decoded,
            decode: (d0, d1),
        };
        (tag, got)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
