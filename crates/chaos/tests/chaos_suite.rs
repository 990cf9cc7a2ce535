//! The chaos integration suite: a real server (worker pool, shared
//! catalog, durable store) driven under seeded fault plans, asserting
//! the robustness contract end to end:
//!
//! * **no panics** — every injected fault surfaces as a typed error,
//!   never a crashed handler (`handler_panics() == 0` throughout);
//! * **durability** — every *acknowledged* mutation survives poisoning
//!   the WAL and reopening the directory; a torn WAL tail is truncated,
//!   not replayed; a failed snapshot leaves the WAL authoritative;
//! * **convergence** — retrying clients with idempotency tokens reach
//!   the correct final state through flaky transports, with no
//!   duplicated mutations;
//! * **determinism** — a fixed plan seed produces the identical outcome
//!   with a 1-worker and a 4-worker server.
//!
//! The server worker-pool size for the traffic tests follows
//! `PAQ_THREADS` (the CI matrix runs 1 and 4); the determinism test
//! pins both counts itself.

use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use std::{env, fs};

use paq_chaos::{sites, ChaosStream, FaultPlan, Trigger};
use paq_db::{DbConfig, Durability, PackageDb};
use paq_relational::{DataType, Schema, Table, Value};
use paq_server::wire::{read_frame, Request, Response};
use paq_server::wire7::{decode_response_v7, encode_request_v7};
use paq_server::{
    pipe_listener, Acceptor, Client, ClientError, FaultKind, RequestBuilder, RetryPolicy,
    RetryingClient, Server, ServerConfig, CONTROL_TAG,
};

/// Server pool size under test (`PAQ_THREADS`, default 4).
fn worker_count() -> usize {
    env::var("PAQ_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Run `body` against a live server, then shut the server down — even
/// when `body` panics, so a failed assertion fails the test instead of
/// deadlocking the serve thread's join.
fn with_server<A, R>(server: &Server, acceptor: A, body: impl FnOnce() -> R) -> R
where
    A: Acceptor + Send,
{
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(acceptor));
        let result = std::panic::catch_unwind(AssertUnwindSafe(body));
        server.trigger_shutdown();
        match result {
            Ok(value) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

fn schema() -> Schema {
    Schema::from_pairs(&[("value", DataType::Float), ("weight", DataType::Float)])
}

/// Deterministic rows, same generator family as the other suites.
fn items_table(n: usize, salt: u64) -> Table {
    let mut t = Table::new(schema());
    let mut state = salt | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n {
        let v = (next() % 100) as f64 / 10.0 + 1.0;
        let w = (next() % 50) as f64 / 10.0 + 0.5;
        t.push_row(vec![Value::Float(v), Value::Float(w)]).unwrap();
    }
    t
}

fn row() -> Vec<Value> {
    vec![Value::Float(3.25), Value::Float(1.5)]
}

fn query(table: &str) -> String {
    format!(
        "SELECT PACKAGE(R) AS P FROM {table} R REPEAT 0 \
         SUCH THAT COUNT(P.*) = 2 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)"
    )
}

/// The suite's standard query against `table`, pinned to a
/// single-threaded solve so packages are bit-identical across runs.
fn pinned_query(table: &str) -> RequestBuilder {
    RequestBuilder::query(query(table))
        .relation(table)
        .threads(1)
}

/// Wait (bounded) for a server-side condition that trails a client-side
/// observation, e.g. a mutation applied whose ack was lost in flight.
fn settle(mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !condition() {
        assert!(Instant::now() < deadline, "condition never settled");
        std::thread::sleep(Duration::from_millis(2));
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = env::temp_dir().join(format!("paq-chaos-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn storage_fault(result: Result<u64, ClientError>) -> paq_server::Fault {
    match result {
        Err(ClientError::Server(fault)) => {
            assert_eq!(fault.kind, FaultKind::Storage, "{fault:?}");
            fault
        }
        other => panic!("expected a typed Storage fault, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Plan 1: a torn WAL write mid-traffic. The store must fail-stop with
// typed Storage faults, reads must keep working, and reopening the
// directory must recover exactly the acknowledged appends — the torn
// tail is truncated, never replayed, never re-acked.
// ---------------------------------------------------------------------
#[test]
fn wal_torn_write_poisons_store_and_acked_appends_survive_reopen() {
    let dir = TempDir::new("wal-torn");
    let plan = FaultPlan::new(0xC4A0_0001);
    // WAL writes: #1 = RegisterTable, #2.. = appends. Tear append #3.
    plan.on(sites::WAL_WRITE, Trigger::ShortWriteNth(4));

    let db = PackageDb::open(
        DbConfig::default(),
        Durability {
            injector: Some(Arc::new(plan.clone())),
            ..Durability::new(&dir.0)
        },
    )
    .expect("open durable db");

    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: worker_count(),
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    let acked = with_server(&server, listener, || {
        let mut client = Client::handshake(connector.connect().unwrap()).unwrap();
        client
            .register_table("Items", &items_table(60, 0xA11CE))
            .unwrap();

        // Append until the injected tear: exactly 2 acks, then faults.
        let mut acked = 0u64;
        let mut torn = None;
        for _ in 0..5 {
            match client.append_row("Items", row()) {
                Ok(_) => acked += 1,
                Err(e) => {
                    torn = Some(storage_fault(Err(e)));
                    break;
                }
            }
        }
        let torn = torn.expect("the torn write must surface");
        assert_eq!(acked, 2, "appends before the tear are acked");
        assert!(
            torn.message.contains("chaos"),
            "fault names the injected cause: {}",
            torn.message
        );

        // Fail-stop: the poisoned store refuses further mutations with
        // a typed fault (no gap in the log, no silent un-durable acks).
        storage_fault(client.append_row("Items", row()));

        // The read path is unaffected: queries still answer.
        let exec = pinned_query("Items").send(&mut client).unwrap();
        assert!(!exec.package().is_empty());
        let stats = client.stats().unwrap();
        let durable = stats.durability.expect("durable server reports counters");
        assert!(durable.wal_errors >= 2, "{durable:?}");
        acked
    });
    assert_eq!(server.handler_panics(), 0, "faults, not panics");
    drop(server);
    drop(db);

    // Reopen without injection: recovery sees the torn tail, drops it,
    // and republishes exactly the acknowledged state.
    let db = PackageDb::open(DbConfig::default(), Durability::new(&dir.0)).expect("reopen");
    assert_eq!(
        db.table("Items").unwrap().num_rows() as u64,
        60 + acked,
        "exactly the acknowledged appends survive"
    );
    assert!(
        db.durability_stats().unwrap().wal_tail_dropped_bytes > 0,
        "the torn tail was truncated, not replayed"
    );
}

// ---------------------------------------------------------------------
// Plans 2 and 3: snapshot fsync / rename failures. The tmp+rename
// discipline must leave the WAL authoritative: the failed snapshot is
// invisible, the store keeps accepting appends, a later snapshot
// succeeds, and reopening recovers everything.
// ---------------------------------------------------------------------
#[test]
fn snapshot_failures_leave_wal_authoritative() {
    for (tag, site) in [
        ("sync", sites::SNAPSHOT_SYNC),
        ("rename", sites::SNAPSHOT_RENAME),
    ] {
        let dir = TempDir::new(&format!("snap-{tag}"));
        let plan = FaultPlan::new(0xC4A0_0002);
        plan.on(site, Trigger::FailNth(1));

        let db = PackageDb::open(
            DbConfig::default(),
            Durability {
                injector: Some(Arc::new(plan.clone())),
                ..Durability::new(&dir.0)
            },
        )
        .expect("open durable db");
        db.register_table("Items", items_table(30, 0xBEEF));
        for _ in 0..3 {
            db.append_row("Items", row()).unwrap();
        }

        let err = db.snapshot_now().expect_err("injected snapshot failure");
        assert!(err.to_string().contains("chaos"), "{err} ({site})");

        // Snapshot failure is not fail-stop: the WAL is untouched and
        // the store keeps accepting appends.
        db.append_row("Items", row())
            .expect("store is not poisoned");

        // The trigger fired once; the retried snapshot goes through.
        db.snapshot_now().expect("snapshot retry succeeds");
        db.append_row("Items", row()).unwrap();
        drop(db);

        // Reopen clean: snapshot + WAL tail replay to the full state.
        let db = PackageDb::open(DbConfig::default(), Durability::new(&dir.0)).expect("reopen");
        assert_eq!(db.table("Items").unwrap().num_rows(), 35, "({site})");
        let stats = db.durability_stats().unwrap();
        assert!(stats.last_snapshot_lsn > 0, "{stats:?} ({site})");
        assert_eq!(plan.injected(), 1, "({site})");
    }
}

// ---------------------------------------------------------------------
// Plan 4: a flaky client transport (periodic read & write failures).
// A RetryingClient must converge to the exact intended state — every
// mutation applied exactly once (tokens + server dedupe), queries
// answered — while the server survives the mid-frame disconnects its
// reconnects leave behind.
// ---------------------------------------------------------------------
#[test]
fn retrying_client_converges_through_flaky_transport() {
    let db = PackageDb::with_config(DbConfig::default());
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: worker_count(),
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    let plan = FaultPlan::new(0xC4A0_0004);
    plan.on("client.write", Trigger::FailEveryK(6));
    plan.on("client.read", Trigger::FailEveryK(9));
    // Observability ride-along: plan and retrying client both mirror
    // into the database's registry, so the chaos run's injections and
    // the retries they caused surface in the same metrics snapshot as
    // the engine figures.
    plan.attach_registry(db.obs_registry());

    with_server(&server, listener, || {
        let mut client = RetryingClient::new(
            || {
                connector
                    .connect()
                    .map(|conn| ChaosStream::new(conn, &plan, "client"))
            },
            RetryPolicy {
                max_retries: 12,
                base_backoff: Duration::from_millis(1),
                jitter: 0.0,
                seed: 7,
                ..RetryPolicy::default()
            },
        );
        client.attach_registry(db.obs_registry());

        client
            .register_table("Items", &items_table(30, 0xF00D))
            .unwrap();
        for _ in 0..8 {
            client.append_row("Items", row()).unwrap();
        }
        let exec = pinned_query("Items").send_retrying(&mut client).unwrap();
        assert_eq!(exec.rows, 38, "all 8 appends applied");
        assert!(!exec.package().is_empty());

        let stats = client.retry_stats();
        assert!(stats.retries >= 1, "the plan must have bitten: {stats:?}");
        assert!(stats.reconnects > 1, "retries reconnect: {stats:?}");
    });
    assert!(plan.injected() >= 1, "{:?}", plan.report());
    assert_eq!(server.handler_panics(), 0, "faults, not panics");
    // Exactly once despite retries: tokens + dedupe, not luck.
    assert_eq!(db.table("Items").unwrap().num_rows(), 38);
    // The injections and the retries they caused are visible in the
    // shared metrics snapshot, consistent with the suite's own view.
    let snapshot = db.obs_registry().snapshot();
    assert_eq!(snapshot.counter("chaos.faults_injected"), plan.injected());
    assert!(snapshot.counter("chaos.calls") >= plan.injected());
    assert!(
        snapshot.counter("client.retries_total") >= 1,
        "injected faults must have caused counted retries"
    );
    assert!(snapshot.counter("client.reconnects") > 1);
}

// ---------------------------------------------------------------------
// Plan 5: a lost acknowledgement. The mutation applied but the ack
// never arrived; the retry carries the same token and must be answered
// from the server's ack memory — same version, no duplicate row.
// ---------------------------------------------------------------------
#[test]
fn lost_ack_retry_with_token_is_deduplicated() {
    let db = PackageDb::with_config(DbConfig::default());
    db.register_table("Items", items_table(30, 0x10CA));
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    let plan = FaultPlan::new(0xC4A0_0005);

    with_server(&server, listener, || {
        const TOKEN: u64 = 0x7EA_0001;

        let mut lossy = Client::handshake(ChaosStream::new(
            connector.connect().unwrap(),
            &plan,
            "lossy",
        ))
        .unwrap();
        // Armed after the handshake: the request writes go through; the
        // very first read (the ack) dies. From the client's view the
        // append may or may not have happened.
        plan.on("lossy.read", Trigger::FailNth(1));
        let lost = lossy
            .append_row_with_token("Items", row(), Some(TOKEN))
            .expect_err("the ack must be lost");
        assert!(lost.is_transient(), "lost ack is retryable: {lost:?}");
        drop(lossy); // the reconnect a retrying client would do

        // The server did apply the row (the ack was lost, not the
        // mutation); wait out the in-flight race before asserting.
        settle(|| db.table("Items").unwrap().num_rows() == 31);
        let applied_version = db.table_version("Items").unwrap();

        // Retry with the same token: answered from ack memory.
        let mut probe = Client::handshake(connector.connect().unwrap()).unwrap();
        let version = probe
            .append_row_with_token("Items", row(), Some(TOKEN))
            .expect("deduped retry succeeds");
        assert_eq!(version, applied_version, "the recorded ack is replayed");
        assert_eq!(db.table("Items").unwrap().num_rows(), 31, "no duplicate");
        assert_eq!(server.deduped_mutations(), 1);

        // A *different* token is a genuinely new mutation.
        let version = probe
            .append_row_with_token("Items", row(), Some(TOKEN + 1))
            .unwrap();
        assert!(version > applied_version);
        assert_eq!(db.table("Items").unwrap().num_rows(), 32);
    });
    assert_eq!(server.handler_panics(), 0);
}

// ---------------------------------------------------------------------
// Plan 6: slowloris. A client delivers a frame header and stalls
// mid-frame; the started-frame deadline must free the handler with a
// typed Timeout fault, and the server must keep serving others.
// ---------------------------------------------------------------------
#[test]
fn stalled_mid_frame_client_gets_typed_timeout_and_server_survives() {
    let db = PackageDb::with_config(DbConfig::default());
    db.register_table("Items", items_table(30, 0x510));
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            frame_deadline: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    let plan = FaultPlan::new(0xC4A0_0006);

    with_server(&server, listener, || {
        let slow = ChaosStream::new(connector.connect().unwrap(), &plan, "slow");
        let mut slow = Client::handshake(slow).unwrap().into_inner();
        // Armed after the handshake: the first write (the header) lands;
        // the second (the body) stalls far past the server's 150 ms
        // started-frame deadline.
        plan.on(
            "slow.write",
            Trigger::Delay {
                every: 2,
                delay: Duration::from_millis(500),
            },
        );
        let payload = encode_request_v7(0, &Request::Stats);
        let frame = {
            let mut f = (payload.len() as u32).to_be_bytes().to_vec();
            f.extend_from_slice(&payload);
            f
        };
        // Header now, body after the injected 500 ms stall.
        slow.write_all(&frame[..4]).unwrap();
        let _ = slow.write_all(&frame[4..]); // may race the server closing
        let _ = slow.flush();

        // The server answered with a typed Timeout, then closed.
        let answer = read_frame(&mut slow).map(|payload| payload.map(|p| decode_response_v7(&p)));
        match answer {
            Ok(Some(Ok((CONTROL_TAG, Response::Error(fault))))) => {
                assert_eq!(fault.kind, FaultKind::Timeout);
                assert!(fault.message.contains("incomplete"), "{}", fault.message);
            }
            other => panic!("expected a typed Timeout fault, got {other:?}"),
        }
        assert!(matches!(read_frame(&mut slow), Ok(None)), "closed");

        // The handler is free again: a healthy client is served.
        let mut healthy = Client::handshake(connector.connect().unwrap()).unwrap();
        let exec = pinned_query("Items").send(&mut healthy).unwrap();
        assert!(!exec.package().is_empty());
    });
    assert_eq!(server.frame_timeouts(), 1);
    assert_eq!(server.handler_panics(), 0);
}

// ---------------------------------------------------------------------
// Overload: a single-slot server rejects with Busy + retry_after; a
// retrying client paces itself on the hint and converges once the slot
// frees up.
// ---------------------------------------------------------------------
#[test]
fn busy_overload_retry_honors_hint_and_converges() {
    let db = PackageDb::with_config(DbConfig::default());
    db.register_table("Items", items_table(30, 0xB054));
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1,
            max_in_flight: 1,
            busy_retry_after: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    with_server(&server, listener, || {
        // Occupy the single slot (a served round trip proves it).
        let mut holder = Client::handshake(connector.connect().unwrap()).unwrap();
        holder.stats().unwrap();

        std::thread::scope(|inner| {
            let contender = inner.spawn(|| {
                let mut client = RetryingClient::new(
                    || connector.connect(),
                    RetryPolicy {
                        max_retries: 50,
                        base_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(20),
                        seed: 11,
                        ..RetryPolicy::default()
                    },
                );
                let exec = pinned_query("Items")
                    .send_retrying(&mut client)
                    .expect("retrying client must converge");
                (exec, client.retry_stats())
            });
            // Let the contender eat Busy rejections, then free the slot.
            std::thread::sleep(Duration::from_millis(50));
            drop(holder);

            let (exec, stats) = contender.join().unwrap();
            assert!(!exec.package().is_empty());
            assert!(stats.busy_hints_honored >= 1, "{stats:?}");
            assert!(stats.retries >= 1, "{stats:?}");
        });
        assert!(server.busy_rejections() >= 1);
    });
    assert_eq!(server.handler_panics(), 0);
}

// ---------------------------------------------------------------------
// Deadlines: a zero deadline is answered immediately with a typed
// Timeout; a generous one changes nothing.
// ---------------------------------------------------------------------
#[test]
fn request_deadlines_surface_typed_timeouts() {
    let db = PackageDb::with_config(DbConfig::default());
    db.register_table("Items", items_table(30, 0xDEAD));
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    with_server(&server, listener, || {
        let mut client = Client::handshake(connector.connect().unwrap()).unwrap();

        match pinned_query("Items").deadline_ms(0).send(&mut client) {
            Err(ClientError::Server(fault)) => assert_eq!(fault.kind, FaultKind::Timeout),
            other => panic!("expected Timeout, got {other:?}"),
        }

        let exec = pinned_query("Items")
            .deadline_ms(60_000)
            .send(&mut client)
            .unwrap();
        assert!(!exec.package().is_empty());
    });
    assert_eq!(server.handler_panics(), 0);
}

// ---------------------------------------------------------------------
// Determinism: the same seeded plans, the same client sequences, a
// 1-worker and a 4-worker server — identical final state and packages.
// ---------------------------------------------------------------------
#[test]
fn fixed_seed_chaos_outcome_is_identical_across_worker_counts() {
    #[derive(Debug, PartialEq)]
    struct Outcome {
        rows: u64,
        pairs: Vec<(u64, u64)>,
    }

    let run = |workers: usize| -> Vec<Outcome> {
        let db = PackageDb::with_config(DbConfig::default());
        let server = Server::with_config(
            db.session(),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        );
        let (connector, listener) = pipe_listener();
        let outcomes = with_server(&server, listener, || {
            std::thread::scope(|clients| {
                let handles: Vec<_> = (0..2u64)
                    .map(|c| {
                        let connector = &connector;
                        clients.spawn(move || {
                            // Each client gets its own table, plan, and
                            // seeds, so cross-client interleaving cannot
                            // leak into any per-client decision stream.
                            let plan = FaultPlan::new(0xD00D_0000 + c);
                            let label = format!("c{c}");
                            plan.on(format!("{label}.write"), Trigger::FailEveryK(6));
                            plan.on(format!("{label}.read"), Trigger::FailEveryK(9));
                            let mut client = RetryingClient::new(
                                || {
                                    connector
                                        .connect()
                                        .map(|conn| ChaosStream::new(conn, &plan, &label))
                                },
                                RetryPolicy {
                                    max_retries: 12,
                                    base_backoff: Duration::from_millis(1),
                                    jitter: 0.0,
                                    seed: 100 + c,
                                    ..RetryPolicy::default()
                                },
                            );
                            let table = format!("T{c}");
                            client
                                .register_table(&table, &items_table(20, 0xACE + c))
                                .unwrap();
                            for _ in 0..4 {
                                client.append_row(&table, row()).unwrap();
                            }
                            let exec = pinned_query(&table).send_retrying(&mut client).unwrap();
                            Outcome {
                                rows: exec.rows,
                                pairs: exec.pairs.clone(),
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        });
        assert_eq!(server.handler_panics(), 0);
        for c in 0..2 {
            assert_eq!(db.table(&format!("T{c}")).unwrap().num_rows(), 24);
        }
        outcomes
    };

    let single = run(1);
    let quad = run(4);
    assert_eq!(
        single, quad,
        "fixed seed ⇒ identical outcome at 1 and 4 workers"
    );
    assert_eq!(single[0].rows, 24);
}

// ---------------------------------------------------------------------
// Plan 9: a lost acknowledgement straddling a restart. The mutation
// applied and its token rode the WAL record; the server process then
// goes away before the retry arrives. Recovery restores the acked
// token, a fresh server seeds its dedupe window from it, and the retry
// is re-acknowledged with its original version — not re-applied.
// ---------------------------------------------------------------------
#[test]
fn lost_ack_retry_across_restart_is_deduplicated() {
    let dir = TempDir::new("ack-restart");
    const TOKEN: u64 = 0x7EA_0002;
    let applied_version = {
        let db = PackageDb::open(DbConfig::default(), Durability::new(&dir.0)).unwrap();
        db.register_table("Items", items_table(30, 0xACED));
        let server = Server::new(db.session());
        let (connector, listener) = pipe_listener();
        let plan = FaultPlan::new(0xC4A0_0009);
        with_server(&server, listener, || {
            let mut lossy = Client::handshake(ChaosStream::new(
                connector.connect().unwrap(),
                &plan,
                "lossy",
            ))
            .unwrap();
            // Armed after the handshake: the request write goes
            // through; the ack read dies.
            plan.on("lossy.read", Trigger::FailNth(1));
            let lost = lossy
                .append_row_with_token("Items", row(), Some(TOKEN))
                .expect_err("the ack must be lost");
            assert!(lost.is_transient(), "lost ack is retryable: {lost:?}");
            drop(lossy);
            settle(|| db.table("Items").unwrap().num_rows() == 31);
        });
        assert_eq!(server.handler_panics(), 0);
        db.table_version("Items").unwrap()
        // db and server drop here: the process-restart boundary. The
        // append (and its token) is already on disk — SyncPolicy::Always.
    };

    // Reopen the directory: recovery restores the acked token from the
    // WAL, and a fresh server seeds its dedupe window from it.
    let db = PackageDb::open(DbConfig::default(), Durability::new(&dir.0)).unwrap();
    let stats = db.durability_stats().unwrap();
    assert_eq!(stats.recovered_acks, 1, "{stats:?}");
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    with_server(&server, listener, || {
        let mut probe = Client::handshake(connector.connect().unwrap()).unwrap();
        let version = probe
            .append_row_with_token("Items", row(), Some(TOKEN))
            .expect("retry across restart is deduplicated");
        assert_eq!(version, applied_version, "the persisted ack is replayed");
        assert_eq!(
            db.table("Items").unwrap().num_rows(),
            31,
            "no duplicate row across the restart"
        );
        assert_eq!(server.deduped_mutations(), 1);

        // A *different* token is a genuinely new mutation.
        let version = probe
            .append_row_with_token("Items", row(), Some(TOKEN + 1))
            .unwrap();
        assert!(version > applied_version);
        assert_eq!(db.table("Items").unwrap().num_rows(), 32);
    });
    assert_eq!(server.handler_panics(), 0);
}

// The acked-token window must also survive WAL truncation: a snapshot
// subsumes the log, so the acks ride the snapshot image too.
#[test]
fn acked_tokens_survive_snapshot_truncation_and_restart() {
    let dir = TempDir::new("ack-snapshot");
    const TOKEN: u64 = 0x7EA_0003;
    let applied_version = {
        let db = PackageDb::open(DbConfig::default(), Durability::new(&dir.0)).unwrap();
        db.register_table("Items", items_table(30, 0x5A17));
        let v = db
            .append_row_with_token("Items", row(), Some(TOKEN))
            .unwrap();
        // Snapshot *after* the acked append: the WAL is truncated, so
        // the only copy of the ack is the snapshot's.
        db.snapshot_now().unwrap();
        v
    };

    let db = PackageDb::open(DbConfig::default(), Durability::new(&dir.0)).unwrap();
    let stats = db.durability_stats().unwrap();
    assert_eq!(stats.recovered_acks, 1, "{stats:?}");
    assert_eq!(stats.wal_replayed_records, 0, "snapshot subsumed the WAL");
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    with_server(&server, listener, || {
        let mut probe = Client::handshake(connector.connect().unwrap()).unwrap();
        let version = probe
            .append_row_with_token("Items", row(), Some(TOKEN))
            .expect("retry across snapshot+restart is deduplicated");
        assert_eq!(version, applied_version);
        assert_eq!(db.table("Items").unwrap().num_rows(), 31, "no duplicate");
        assert_eq!(server.deduped_mutations(), 1);
    });
    assert_eq!(server.handler_panics(), 0);
}
