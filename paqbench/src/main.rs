//! `paqbench`: the repository's end-to-end benchmark. It starts a
//! `paq-server` on loopback TCP, drives one workload against it over
//! protocol v7, checks every answer, and prints one JSON line of metrics.
//!
//! ```text
//! cargo run --release --manifest-path paqbench/Cargo.toml -- \
//!     --workload bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the benchmark's own span recorder on (alternating with
//! off, to measure its overhead) and prints the per-layer metrics. See
//! `WORKLOADS.md` for what each workload loads and why.

mod drive;
mod net;
mod stats;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paq_db::{CacheStats, DbConfig, Durability, DurabilityStats, PackageDb, SyncPolicy, Telemetry};
use paq_partition::{PartitionConfig, Partitioner};
use paq_server::wire7::{decode_request_v7, decode_response_v7, encode_response_v7};
use paq_server::{spawn_tcp, Request, Response, Server, ServerConfig, ShedClass, TcpServerHandle};

use drive::{ms, Gen, Outcome, Writer};
use net::Conn;
use stats::{beyond, mean, median, percentile};
use work::{Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Re-opens of the store after the run; `recover_s` is their median.
const RECOVER_REPS: usize = 15;
/// Rows generated per second of an `ingest` run; more than the
/// interleaved writer can append.
const INGEST_MAX_APPEND_RATE: f64 = 1000.0;
/// Appends after the run on `bulk`.
const PROBE_APPENDS: usize = 1000;
/// Appends after the post-run checkpoint on every workload: every
/// re-open replays these WAL records over the snapshot. Fewer than
/// `SNAPSHOT_EVERY`, so no automatic snapshot truncates them.
const WAL_TAIL: usize = 200;
/// Gap between append bursts and between re-opens, so one transient
/// stall does not hit every repetition.
const PAUSE: Duration = Duration::from_millis(150);
/// The store snapshots (and truncates its WAL) every this many records.
const SNAPSHOT_EVERY: u64 = 250;
/// Length of the traced / untraced blocks of a `--trace 1` run.
const TRACE_BLOCK: Duration = Duration::from_millis(500);

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?.clone();
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind,
        name,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paqbench: {e}\nusage: paqbench --workload bulk|ingest --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".paqbench");
    let run_dir = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).expect("create the run directory");
    let result = run(&args, &run_dir, &root);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok((report, ok)) => {
            println!("{report}");
            if !ok {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("paqbench: {e}");
            std::process::exit(1);
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Server workers: one per CPU, and at least one per connection the
/// workload holds open, since a worker serves one connection at a time.
fn workers(kind: Kind) -> usize {
    nproc().max(kind.connections())
}

fn durability(dir: &Path) -> Durability {
    let mut d = Durability::new(dir);
    d.snapshot_every = Some(SNAPSHOT_EVERY);
    d
}

/// A running server over a durable store.
struct Live {
    db: PackageDb,
    handle: TcpServerHandle,
    dir: PathBuf,
}

impl Live {
    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn stop(self) -> PathBuf {
        self.handle.shutdown();
        drop(self.db);
        self.dir
    }
}

fn executed(response: Response, what: &str) -> Result<paq_server::RemoteExecution, String> {
    match response {
        Response::Executed(e) => Ok(*e),
        other => Err(format!("{what}: {other:?}")),
    }
}

/// Time to a ready server: generate the tables, open a durable store,
/// start the server, register the tables over the wire, run every
/// query once (building the partitionings) and compute the DIRECT
/// reference answers.
fn setup_once(
    kind: Kind,
    dir: &Path,
) -> Result<(Workload, Live, Vec<paq_server::RemoteExecution>), String> {
    let w = work::build(kind);
    let _ = std::fs::remove_dir_all(dir);
    let db = PackageDb::open(DbConfig::default(), durability(dir))
        .map_err(|e| format!("open store: {e}"))?;
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: workers(kind),
            flush_on_mutation: true,
            ..ServerConfig::default()
        },
    );
    let handle = spawn_tcp(server, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut admin =
        Conn::open(handle.addr(), ShedClass::Normal, 0).map_err(|e| format!("connect: {e}"))?;
    for (name, table) in &w.tables {
        let request = Request::RegisterTable {
            name: name.clone(),
            table: table.clone(),
            token: None,
        };
        match admin.call(&request).map_err(|e| e.to_string())? {
            Response::Registered { .. } => {}
            other => return Err(format!("register {name}: {other:?}")),
        }
    }
    let mut answers = Vec::new();
    for q in &w.queries {
        let response = admin.call(&q.request()).map_err(|e| e.to_string())?;
        answers.push(executed(response, &q.name)?);
    }
    // The server serves at most `workers` connections at once: the
    // set-up connection closes before the workload opens its own.
    drop(admin);
    let live = Live {
        db,
        handle,
        dir: dir.to_owned(),
    };
    Ok((w, live, answers))
}

/// The in-process reference: the same tables and the same query
/// sequence on a private `PackageDb`, with the attributes of every
/// partitioning the sequence built.
struct Oracle {
    answers: Vec<Vec<(u64, u64)>>,
    builds: Vec<(String, Vec<String>)>,
}

fn oracle(w: &Workload) -> Result<Oracle, String> {
    let mut db = PackageDb::new();
    for (name, table) in &w.tables {
        db.register_table(name.clone(), table.clone());
    }
    let mut answers = Vec::new();
    let mut builds = Vec::new();
    for q in &w.queries {
        db.config_mut().sketchrefine.threads = q.threads.unwrap_or(1) as usize;
        let exec = db
            .execute_with(&q.query, q.route())
            .map_err(|e| format!("in-process {}: {e}", q.name))?;
        if let paq_db::CacheOutcome::Miss { attributes, .. } = &exec.cache {
            builds.push((q.relation.clone(), attributes.clone()));
        }
        let pairs: Vec<(u64, u64)> = exec
            .package
            .members()
            .iter()
            .map(|&(r, m)| (r as u64, m))
            .collect();
        if !work::satisfies(&pairs, &q.query, w.table(&q.relation)) {
            return Err(format!(
                "in-process {} answer does not satisfy its query",
                q.name
            ));
        }
        answers.push(pairs);
    }
    Ok(Oracle { answers, builds })
}

/// Everything measured in one run.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    queries: Outcome,
    elapsed_s: f64,
    appends: Option<Writer>,
    recover_s: Vec<f64>,
    open_ms: Vec<f64>,
    store_bytes: u64,
    user_bytes: u64,
    approx_ratio: f64,
    /// Evaluate time of the set-up's DIRECT reference executions, ms.
    setup_direct_ms: Vec<f64>,
    failed: u64,
    attempted: u64,
    errors: Vec<String>,
    // Read from the server's own structs around the measured phase.
    cache_before: Option<CacheStats>,
    cache_after: Option<CacheStats>,
    durability_before: Option<DurabilityStats>,
    durability_after: Option<DurabilityStats>,
    telemetry: Option<Arc<Telemetry>>,
    metrics: Option<paq_obs::RegistrySnapshot>,
    final_tables: Vec<(String, paq_relational::Table)>,
}

/// The run's JSON line and whether every answer checked out.
fn run(args: &Args, run_dir: &Path, root: &Path) -> Result<(String, bool), String> {
    let (w, oracle, r) = measure(args, run_dir)?;
    let mut user = user_figures(args, &r);
    let metrics = if args.trace {
        let mut m = layer_metrics(args, &w, &oracle, &r, run_dir, root);
        for (name, layer_name) in UNBOUNDED {
            m.insert(layer_name, user[name]);
        }
        m
    } else {
        for (name, _) in UNBOUNDED {
            user.remove(name);
        }
        user
    };
    let correct = r.failed == 0 && r.errors.is_empty();
    for e in &r.errors {
        eprintln!("paqbench: {e}");
    }
    Ok((report(correct, r.attempted, r.failed, &metrics), correct))
}

fn measure(args: &Args, run_dir: &Path) -> Result<(Workload, Oracle, Run), String> {
    let mut r = Run::default();
    let mut live = None;
    for i in 0..SETUP_REPS {
        if let Some(old) = live.take() {
            let (_, l, _): (Workload, Live, _) = old;
            let _ = std::fs::remove_dir_all(l.stop());
        }
        let t0 = Instant::now();
        let got = setup_once(args.kind, &run_dir.join(format!("store-{i}")))?;
        r.setup_s.push(t0.elapsed().as_secs_f64());
        live = Some(got);
    }
    let (w, live, warm) = live.expect("at least one set-up");
    let oracle = oracle(&w)?;

    // Every set-up answer must be the in-process answer, bit for bit.
    for (i, exec) in warm.iter().enumerate() {
        r.attempted += 1;
        if exec.pairs != oracle.answers[i] {
            r.failed += 1;
            r.errors.push(format!(
                "set-up {} differs from the in-process answer",
                w.queries[i].name
            ));
        }
    }
    r.setup_direct_ms = warm
        .iter()
        .filter(|e| e.direct)
        .map(|e| ms(e.timings.evaluate))
        .collect();
    r.approx_ratio = w
        .approx
        .iter()
        .map(|&(sr, direct)| {
            let q = &w.queries[sr];
            work::approx_ratio(
                &q.query,
                w.table(&q.relation),
                &warm[sr].pairs,
                &warm[direct].pairs,
            )
        })
        .fold(f64::MIN, f64::max);

    if args.trace {
        let telemetry = Arc::new(Telemetry::new());
        live.db.set_telemetry(Arc::clone(&telemetry));
        r.telemetry = Some(telemetry);
    }
    r.cache_before = Some(live.db.cache_stats());
    r.durability_before = live.db.durability_stats();

    let epoch = Instant::now();
    let start = epoch + Duration::from_millis(50);
    let answers = &oracle.answers[..];
    let gen = |stream: u64, class: ShedClass, checked: bool| Gen {
        addr: live.addr(),
        queries: &w.queries,
        mix: w.mix,
        expected: checked.then_some(answers),
        seed: args.seed,
        stream,
        start,
        seconds: args.seconds,
        trace_block: args.trace.then_some(TRACE_BLOCK),
        epoch,
        class,
    };
    let append_rows = work::append_rows(
        w.table(&w.append_table),
        WAL_TAIL
            + match args.kind {
                Kind::Ingest => (INGEST_MAX_APPEND_RATE * args.seconds) as usize,
                Kind::Bulk => PROBE_APPENDS,
            },
    );
    match args.kind {
        Kind::Bulk => {
            r.queries = gen(1, ShedClass::Bulk, true).closed_loop();
        }
        Kind::Ingest => {
            // Each round of the reader's mix follows one acknowledged
            // append on the writer's connection, so the table only grows.
            let mut writer = drive::Appender::open(live.addr(), &w.append_table, &append_rows)?;
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            r.queries = gen(1, ShedClass::Interactive, false).closed_loop_between(|| {
                writer.append_one();
            });
            r.appends = Some(writer.out);
        }
    }
    r.elapsed_s = start.elapsed().as_secs_f64();
    r.cache_after = Some(live.db.cache_stats());

    if args.kind == Kind::Bulk {
        let burst = PROBE_APPENDS / APPEND_WINDOWS;
        r.appends = Some(drive::append_in_bursts(
            live.addr(),
            &w.append_table,
            &append_rows[..PROBE_APPENDS],
            burst,
            PAUSE,
        ));
    }
    let writer = r.appends.as_ref().expect("appends ran");
    let appended = writer.versions.len();
    // A checkpoint, then WAL_TAIL more appends: the store size and the
    // recovery below start from the same snapshot cycle on every run and
    // include replaying a WAL of the same length.
    live.db
        .snapshot_now()
        .map_err(|e| format!("snapshot after the run: {e}"))?;
    let tail = drive::append_in_bursts(
        live.addr(),
        &w.append_table,
        &append_rows[appended..appended + WAL_TAIL],
        WAL_TAIL,
        Duration::ZERO,
    );
    r.durability_after = live.db.durability_stats();
    if args.trace {
        let metrics = Conn::open(live.addr(), ShedClass::Normal, 0)
            .and_then(|mut c| c.call(&Request::Metrics));
        match metrics {
            Ok(Response::Metrics(m)) => r.metrics = Some(m),
            other => r.errors.push(format!("metrics request: {other:?}")),
        }
    }
    r.attempted += r.queries.attempted + writer.attempted + tail.attempted;
    r.failed += r.queries.failed + writer.failed + tail.failed;
    r.errors.extend(r.queries.first_error.clone());
    r.errors.extend(writer.first_error.clone());
    r.errors.extend(tail.first_error);

    // The tables as the run left them: base rows plus every append.
    r.final_tables = w.tables.clone();
    for (name, table) in r.final_tables.iter_mut() {
        if *name == w.append_table {
            for row in &append_rows[..appended + tail.versions.len()] {
                table.push_row(row.clone()).expect("append row");
            }
        }
    }
    r.user_bytes = r
        .final_tables
        .iter()
        .map(|(_, t)| work::table_bytes(t))
        .sum();

    if args.kind == Kind::Ingest {
        check_ingest(&w, &mut r, &append_rows);
    }

    let dir = live.stop();
    r.store_bytes = dir_bytes(&dir);
    let first = &w.queries[0];
    for _ in 0..RECOVER_REPS {
        std::thread::sleep(PAUSE);
        let t0 = Instant::now();
        let db = PackageDb::open(DbConfig::default(), durability(&dir))
            .map_err(|e| format!("re-open: {e}"))?;
        let opened = t0.elapsed();
        let exec = db
            .execute_with(&first.query, first.route())
            .map_err(|e| format!("first query after re-open: {e}"))?;
        r.recover_s.push(t0.elapsed().as_secs_f64());
        r.open_ms.push(ms(opened));
        let pairs: Vec<(u64, u64)> = exec
            .package
            .members()
            .iter()
            .map(|&(r, m)| (r as u64, m))
            .collect();
        let table = &r
            .final_tables
            .iter()
            .find(|(n, _)| *n == first.relation)
            .expect("table")
            .1;
        r.attempted += 1;
        if !work::satisfies(&pairs, &first.query, table) {
            r.failed += 1;
            r.errors
                .push("first answer after re-open does not satisfy its query".into());
        }
    }
    Ok((w, oracle, r))
}

/// `ingest` answers name the catalog version they read: rebuild the
/// table at exactly that version from the writer's acknowledged appends
/// and check the package against it.
fn check_ingest(w: &Workload, r: &mut Run, rows: &[Vec<paq_relational::Value>]) {
    let versions = &r.appends.as_ref().expect("writer ran").versions;
    let mut order: Vec<usize> = (0..r.queries.samples.len()).collect();
    order.sort_by_key(|&i| r.queries.samples[i].exec.table_version);
    let mut table = w.table(&w.append_table).clone();
    let mut held = 0;
    let mut bad = 0;
    for i in order {
        let s = &r.queries.samples[i];
        let upto = versions.partition_point(|&v| v <= s.exec.table_version);
        for row in &rows[held..upto] {
            table.push_row(row.clone()).expect("append row");
        }
        held = upto;
        let q = &w.queries[s.query];
        if s.exec.rows as usize != table.num_rows()
            || !work::satisfies(&s.exec.pairs, &q.query, &table)
        {
            bad += 1;
        }
    }
    if bad > 0 {
        r.failed += bad;
        r.errors
            .push(format!("{bad} ingest answers fail their check"));
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The tail percentile each workload reports as `*_tail_ms`: the
/// highest with at least ten samples beyond it at the run's size.
fn query_tail(kind: Kind) -> f64 {
    match kind {
        Kind::Ingest => 0.99,
        Kind::Bulk => 0.95,
    }
}

fn append_tail(kind: Kind) -> f64 {
    match kind {
        Kind::Ingest => 0.99,
        Kind::Bulk => 0.95,
    }
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Figures a user feels whose runs disagreed by more than any bound the
/// benchmark may set (quartile spread over median 0.3–1.1 across ten
/// seeds; see WORKLOADS.md). They are reported with the per-layer
/// metrics, under these names, instead of as bounded end-to-end metrics.
const UNBOUNDED: [(&str, &str); 3] = [
    ("query_tail_ms", "e2e.query_tail_ms"),
    ("query_qps", "e2e.query_qps"),
    ("append_p50_ms", "e2e.append_p50_ms"),
];

/// Every figure a user of the system sees, measured with tracing off
/// (or, in a traced run, over both halves).
fn user_figures(args: &Args, r: &Run) -> Metrics {
    let latencies: Vec<f64> = r.queries.samples.iter().map(|s| s.latency_ms).collect();
    let appends = &r.appends.as_ref().expect("appends ran").latencies_ms;
    let (qt, at) = (query_tail(args.kind), append_tail(args.kind));
    note_tail("query", &latencies, qt);
    note_tail("append", appends, at);
    let per_window = latencies.len() / TAIL_WINDOWS;
    eprintln!(
        "paqbench: query_tail_ms is the median of the p{} of {TAIL_WINDOWS} windows of about {per_window} samples, {} beyond it",
        qt * 100.0,
        beyond(per_window, qt)
    );
    let mut m = Metrics::new();
    m.insert("setup_s", (median(&r.setup_s), "s"));
    let samples = &r.queries.samples;
    m.insert(
        "query_p50_ms",
        (windowed(samples, args.seconds, P50_WINDOWS, median), "ms"),
    );
    let tail = |w: &[f64]| percentile(w, qt);
    m.insert(
        "query_tail_ms",
        (windowed(samples, args.seconds, TAIL_WINDOWS, tail), "ms"),
    );
    m.insert("query_qps", (latencies.len() as f64 / r.elapsed_s, "1/s"));
    m.insert(
        "append_p50_ms",
        (grouped_median(appends, APPEND_WINDOWS), "ms"),
    );
    m.insert("recover_s", (median(&r.recover_s), "s"));
    m.insert(
        "bytes_per_user_byte",
        (r.store_bytes as f64 / r.user_bytes as f64, "ratio"),
    );
    m.insert("approx_ratio", (r.approx_ratio, "ratio"));
    m
}

/// Transient interference from outside the benchmark (other tenants of
/// the host, disk flushes) lasts well under a second but can move a
/// whole run's percentile. Timings are therefore taken per window of the
/// measured phase and the run reports the median over its windows.
const P50_WINDOWS: usize = 16;
/// Fewer, longer windows for the tail, so each holds at least ten
/// samples beyond its tail percentile.
const TAIL_WINDOWS: usize = 8;
/// Consecutive groups the append latencies are cut into.
const APPEND_WINDOWS: usize = 10;

/// The median over `windows` equal windows of the measured phase of
/// `stat` over each window's query latencies.
fn windowed(
    samples: &[drive::Sample],
    seconds: f64,
    windows: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut by_window = vec![Vec::new(); windows];
    for s in samples {
        let k = ((s.at_s / seconds * windows as f64) as usize).min(windows - 1);
        by_window[k].push(s.latency_ms);
    }
    median(&by_window.iter().map(|w| stat(w)).collect::<Vec<_>>())
}

/// The median over `groups` consecutive groups of `values` of each
/// group's median.
fn grouped_median(values: &[f64], groups: usize) -> f64 {
    let size = values.len().div_ceil(groups).max(1);
    median(&values.chunks(size).map(median).collect::<Vec<_>>())
}

fn note_tail(what: &str, samples: &[f64], q: f64) {
    let n = samples.len();
    eprintln!(
        "paqbench: {what} tail is p{} over {n} samples, {} beyond it",
        q * 100.0,
        beyond(n, q)
    );
    if beyond(n, q) < 10 {
        eprintln!("paqbench: warning: fewer than ten {what} samples beyond the tail percentile");
    }
}

/// Per-layer metrics of the traced run.
fn layer_metrics(
    args: &Args,
    w: &Workload,
    oracle: &Oracle,
    r: &Run,
    run_dir: &Path,
    root: &Path,
) -> Metrics {
    let mut m = Metrics::new();
    let all = &r.queries.samples;
    let traced: Vec<&drive::Sample> = all.iter().filter(|s| s.traced).collect();
    let p50 = |on: bool| {
        median(
            &all.iter()
                .filter(|s| s.traced == on)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    m.insert(
        "bench.trace_overhead_pct",
        ((p50(true) / p50(false) - 1.0) * 100.0, "%"),
    );
    m.insert("bench.gen_lag_ms", (mean(&r.queries.gen_lag_ms), "ms"));
    m.insert("bench.nproc", (nproc() as f64, "count"));
    // One generator thread; on `ingest` it alternates between the
    // writer's and the reader's connection.
    m.insert("bench.gen_threads", (1.0, "count"));
    m.insert(
        "bench.connections",
        (args.kind.connections() as f64, "count"),
    );
    m.insert("bench.server_workers", (workers(args.kind) as f64, "count"));
    m.insert("bench.query_samples", (all.len() as f64, "count"));
    m.insert("bench.query_tail_pct", (query_tail(args.kind) * 100.0, "%"));
    let appends = r.appends.as_ref().expect("appends ran");
    m.insert(
        "bench.append_samples",
        (appends.latencies_ms.len() as f64, "count"),
    );
    m.insert(
        "bench.append_tail_pct",
        (append_tail(args.kind) * 100.0, "%"),
    );
    m.insert(
        "store.append_tail_ms",
        (
            percentile(&appends.latencies_ms, append_tail(args.kind)),
            "ms",
        ),
    );

    // paql: parse every traced request's text; translate the DIRECT ones.
    let t0 = Instant::now();
    for s in &traced {
        let _ = paq_lang::parse_paql(&w.queries[s.query].text);
    }
    m.insert(
        "paql.parse_us",
        (
            t0.elapsed().as_secs_f64() * 1e6 / traced.len().max(1) as f64,
            "us",
        ),
    );
    let direct: Vec<&work::Query> = w.queries.iter().filter(|q| q.is_direct()).collect();
    let mut translate = Vec::new();
    for q in &direct {
        let table = w.table(&q.relation);
        for _ in 0..3 {
            let t0 = Instant::now();
            let _ = paq_lang::translate(&q.query, table);
            translate.push(ms(t0.elapsed()));
        }
    }
    m.insert("paql.translate_ms", (mean(&translate), "ms"));

    // db: the server's Timings and cache counters.
    let f = |get: &dyn Fn(&drive::Sample) -> Option<f64>| {
        mean(&traced.iter().filter_map(|s| get(s)).collect::<Vec<_>>())
    };
    m.insert("db.plan_ms", (f(&|s| Some(ms(s.exec.timings.plan))), "ms"));
    let (before, after) = (
        r.cache_before.unwrap_or_default(),
        r.cache_after.unwrap_or_default(),
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.insert("db.cache_hit_ratio", (ratio(hits, hits + misses), "ratio"));
    let (covering, hit_total) =
        traced.iter().fold((0u64, 0u64), |(c, n), s| {
            match hit_attributes(&s.exec.explain) {
                Some(attrs) => {
                    let wanted = w.queries[s.query].query.query_attributes();
                    (c + wanted.iter().all(|a| attrs.contains(a)) as u64, n + 1)
                }
                None => (c, n),
            }
        });
    m.insert(
        "db.cache_covering_ratio",
        (ratio(covering, hit_total), "ratio"),
    );

    // partition: misses during the run, and the build itself re-timed on
    // the same tables and attributes.
    m.insert("partition.builds", (misses as f64, "count"));
    let mut builds = Vec::new();
    for (relation, attrs) in &oracle.builds {
        let table = &r
            .final_tables
            .iter()
            .find(|(n, _)| n == relation)
            .expect("table")
            .1;
        let tau = (table.num_rows() / DbConfig::default().default_groups.max(1)).max(2);
        for _ in 0..3 {
            let t0 = Instant::now();
            let _ = Partitioner::new(PartitionConfig::by_size(attrs.clone(), tau)).partition(table);
            builds.push(ms(t0.elapsed()));
        }
    }
    m.insert("partition.build_ms", (mean(&builds), "ms"));

    // core: SKETCHREFINE reports and DIRECT evaluate times.
    let rep =
        |get: &dyn Fn(&paq_server::WireReport) -> f64| f(&|s| s.exec.report.as_ref().map(get));
    m.insert("core.sketch_ms", (rep(&|r| ms(r.sketch_time)), "ms"));
    m.insert("core.refine_ms", (rep(&|r| ms(r.refine_time)), "ms"));
    m.insert(
        "core.solver_calls",
        (rep(&|r| r.solver_calls as f64), "count"),
    );
    m.insert("core.backtracks", (rep(&|r| r.backtracks as f64), "count"));
    m.insert(
        "core.groups_refined",
        (rep(&|r| r.groups_refined as f64), "count"),
    );
    let (solves, requeues) = traced
        .iter()
        .filter_map(|s| s.exec.report.as_ref())
        .fold((0, 0), |(a, b), r| {
            (a + r.parallel_solves, b + r.conflict_requeues)
        });
    // With no parallel waves nothing was solved in vain.
    let useful = if solves == 0 {
        1.0
    } else {
        ratio(solves - requeues.min(solves), solves)
    };
    m.insert("core.wave_useful_ratio", (useful, "ratio"));
    let mut direct_ms: Vec<f64> = traced
        .iter()
        .filter(|s| s.exec.direct)
        .map(|s| ms(s.exec.timings.evaluate))
        .collect();
    direct_ms.extend(&r.setup_direct_ms);
    m.insert("core.direct_ms", (mean(&direct_ms), "ms"));

    // solver: the Telemetry attached to the server for the run.
    let t = r.telemetry.as_ref().expect("telemetry attached");
    let n = all.len().max(1) as f64;
    m.insert("solver.calls", (t.calls() as f64 / n, "count"));
    m.insert("solver.failures", (t.failures() as f64, "count"));
    m.insert("solver.bb_nodes", (t.total_nodes() as f64 / n, "count"));
    m.insert(
        "solver.simplex_iterations",
        (t.total_simplex_iterations() as f64 / n, "count"),
    );
    m.insert("solver.solve_ms", (ms(t.total_wall_time()) / n, "ms"));
    m.insert(
        "solver.iterations_per_solve",
        (
            t.total_simplex_iterations() as f64 / t.calls().max(1) as f64,
            "count",
        ),
    );

    // store: counters over the run, the open alone, and in-process probes.
    let (d0, d1) = (
        r.durability_before.unwrap_or_default(),
        r.durability_after.unwrap_or_default(),
    );
    m.insert(
        "store.wal_syncs",
        ((d1.wal_syncs - d0.wal_syncs) as f64, "count"),
    );
    m.insert(
        "store.bytes_written",
        ((d1.wal_bytes - d0.wal_bytes) as f64, "bytes"),
    );
    m.insert("store.recover_ms", (median(&r.open_ms), "ms"));
    let (append_us, sync_us) = store_probe(run_dir);
    m.insert("store.append_us", (append_us, "us"));
    m.insert("store.sync_us", (sync_us, "us"));

    // server: wire share, codec cost on the workload's own frames, and
    // the server's registry.
    m.insert(
        "server.wire_ms",
        (
            f(&|s| Some(s.round_trip_ms - ms(s.exec.timings.total))),
            "ms",
        ),
    );
    let (encode_us, decode_us) = codec_probe(&r.queries);
    m.insert("server.encode_us", (encode_us, "us"));
    m.insert("server.decode_us", (decode_us, "us"));
    m.insert(
        "server.frame_bytes",
        (
            f(&|s| Some((s.request_bytes + s.response_bytes) as f64)),
            "bytes",
        ),
    );
    let hist = |name: &str| r.metrics.as_ref().and_then(|m| m.histogram(name).cloned());
    let (qw, handle) = (
        hist("server.queue_wait").unwrap_or_default(),
        hist("server.handle").unwrap_or_default(),
    );
    m.insert(
        "server.queue_wait_ms",
        (qw.p50().map_or(0.0, |n| n as f64 / 1e6), "ms"),
    );
    m.insert("server.queue_wait_samples", (qw.total() as f64, "count"));
    m.insert(
        "server.handle_ms",
        (handle.p50().map_or(0.0, |n| n as f64 / 1e6), "ms"),
    );
    m.insert("server.handle_samples", (handle.total() as f64, "count"));

    // Self time per span name, and the residual of the request span.
    let layers = trace::self_times(&r.queries.spans, "query");
    let per = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / l.count as f64)
    };
    for (metric, span) in [
        ("self.lag_ms", "lag"),
        ("self.encode_ms", "encode"),
        ("self.send_ms", "send"),
        ("self.await_ms", "await"),
        ("self.decode_ms", "decode"),
        ("self.check_ms", "check"),
        ("self.execute_ms", "execute"),
        ("self.plan_ms", "plan"),
        ("self.partition_ms", "partition"),
        ("self.evaluate_ms", "evaluate"),
        ("self.sketch_ms", "sketch"),
        ("self.refine_ms", "refine"),
    ] {
        m.insert(metric, (per(span), "ms"));
    }
    let request = layers.get("query").copied().unwrap_or_default();
    let request_ms = request.total_ns as f64 / 1e6 / request.count.max(1) as f64;
    m.insert("trace.request_ms", (request_ms, "ms"));
    m.insert("trace.residual_ms", (per("query"), "ms"));
    m.insert(
        "trace.residual_pct",
        (per("query") / request_ms * 100.0, "%"),
    );
    m.insert("trace.spans", (r.queries.spans.len() as f64, "count"));
    let path = root.join(format!("trace-{}-{}.jsonl", args.name, args.seed));
    if let Err(e) = std::fs::write(&path, trace::to_jsonl(&r.queries.spans)) {
        eprintln!("paqbench: writing {}: {e}", path.display());
    }
    m
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The partitioning attributes of a cache hit, from the `partitioning:`
/// line of the server's plan explanation.
fn hit_attributes(explain: &str) -> Option<Vec<String>> {
    let line = explain
        .lines()
        .find_map(|l| l.strip_prefix("partitioning: hit"))?;
    let inner = line.split_once('[')?.1.split_once(']')?.0;
    Some(inner.split(", ").map(str::to_owned).collect())
}

/// Median in-process durable `append_row` (every record fsynced) and
/// median `sync_wal` after one unsynced append, in microseconds.
fn store_probe(run_dir: &Path) -> (f64, f64) {
    let base = paq_datagen::galaxy_table(1_000, work::DATA_SEED);
    let rows = work::append_rows(&base, 300);
    let mut append = Vec::new();
    let mut sync = Vec::new();
    for manual in [false, true] {
        let dir = run_dir.join(if manual {
            "probe-manual"
        } else {
            "probe-always"
        });
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = Durability::new(&dir);
        if manual {
            d.sync = SyncPolicy::Manual;
        }
        let db = PackageDb::open(DbConfig::default(), d).expect("open probe store");
        db.register_table("Probe", base.clone());
        for row in &rows {
            let t0 = Instant::now();
            db.append_row("Probe", row.clone()).expect("probe append");
            let appended = t0.elapsed();
            if manual {
                let t1 = Instant::now();
                db.sync_wal().expect("probe sync");
                sync.push(t1.elapsed().as_secs_f64() * 1e6);
            } else {
                append.push(appended.as_secs_f64() * 1e6);
            }
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    (median(&append), median(&sync))
}

/// Mean server-side `decode_request_v7` and `encode_response_v7` time
/// over the frames of the traced requests, in microseconds.
fn codec_probe(o: &Outcome) -> (f64, f64) {
    let responses: Vec<(u32, Response)> = o
        .response_frames
        .iter()
        .filter_map(|f| decode_response_v7(f).ok())
        .collect();
    let t0 = Instant::now();
    for (tag, response) in &responses {
        std::hint::black_box(encode_response_v7(*tag, response));
    }
    let encode = t0.elapsed().as_secs_f64() * 1e6 / responses.len().max(1) as f64;
    let t0 = Instant::now();
    for frame in &o.request_frames {
        let _ = std::hint::black_box(decode_request_v7(frame));
    }
    let decode = t0.elapsed().as_secs_f64() * 1e6 / o.request_frames.len().max(1) as f64;
    (encode, decode)
}

fn report(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
