//! Protocol-v7 serving end to end: the handshake, request pipelining
//! with out-of-order completion checked bit-identical to sequential
//! execution (at 1 and 4 workers), columnar catalog mutations over one
//! pipelined connection, fairness-aware shedding surfaced as typed
//! `Busy` answers, the idle-connection reaper, and the refusals: a
//! recorded v6 frame, a `Hello` below v7, and the accept-time `Busy`
//! all arrive as typed faults on the control tag before the connection
//! closes.

use paq_db::{DbConfig, PackageDb, Route};
use paq_lang::parse_paql;
use paq_relational::{DataType, Schema, Table, Value};
use paq_server::wire7::decode_response_v7;
use paq_server::{
    pipe_listener, wire, AdmissionConfig, Client, ClientError, FaultKind, Hello, HelloOptions,
    PipeConnector, PipeEnd, RequestBuilder, Response, Server, ServerConfig, ShedClass, CONTROL_TAG,
};
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// Worker counts to sweep: pinned by `PAQ_THREADS` (the CI matrix),
/// both 1 and 4 otherwise.
fn worker_counts() -> Vec<usize> {
    match std::env::var("PAQ_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => vec![1, 4],
    }
}

fn items_table(n: usize, salt: u64) -> Table {
    let mut t = Table::new(Schema::from_pairs(&[
        ("value", DataType::Float),
        ("weight", DataType::Float),
    ]));
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

const QUERIES: [&str; 3] = [
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 2 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)",
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 3 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)",
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 4 AND SUM(P.value) >= 0 MINIMIZE SUM(P.weight)",
];

fn test_db() -> PackageDb {
    let db = PackageDb::with_config(DbConfig {
        direct_threshold: 10,
        default_groups: 5,
        ..DbConfig::default()
    });
    db.register_table("Items", items_table(60, 0xA11CE));
    db
}

/// The suite's standard query, pinned to one solver thread so packages
/// are bit-identical across connections, orderings, and worker counts.
fn pinned(paql: &str) -> RequestBuilder {
    RequestBuilder::query(paql).relation("Items").threads(1)
}

#[test]
fn handshake_negotiates_v7_and_advertises_the_window() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 2,
            pipeline_window: 9,
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::handshake(connector.connect().unwrap()).unwrap();
        assert_eq!(client.window(), 9, "HelloAck must carry the server window");

        // The pipelined connection serves typed requests like any other.
        let ticket = client.submit_stats().unwrap();
        let stats = client.wait(ticket).unwrap();
        assert_eq!(stats.tables[0].name, "Items");

        let done = client.submit_shutdown().unwrap();
        client.wait(done).unwrap();
    });
    assert!(server.is_shutting_down());
}

#[test]
fn out_of_order_pipelined_results_match_sequential_bit_identically() {
    for workers in worker_counts() {
        let db = test_db();
        let server = Server::with_config(
            db.session(),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        );
        let (connector, listener) = pipe_listener();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve(listener));

            // Sequential baseline: one connection, one request at a
            // time, in submission order.
            let submissions: Vec<&str> = (0..6).map(|i| QUERIES[i % QUERIES.len()]).collect();
            let mut sequential = Client::handshake(connector.connect().unwrap()).unwrap();
            let baseline: Vec<Vec<(u64, u64)>> = submissions
                .iter()
                .map(|paql| pinned(paql).send(&mut sequential).unwrap().pairs)
                .collect();
            // Free the handler worker (a connection pins one for its
            // lifetime — at workers=1 the pipelined connection below
            // would otherwise wait for the idle reaper).
            drop(sequential);

            // Pipelined: submit everything up front, then collect the
            // tickets in REVERSE order — the out-of-order case the tag
            // routing exists for. Every answer must be bit-identical to
            // the sequential one for the same submission.
            let mut pipelined = Client::handshake(connector.connect().unwrap()).unwrap();
            let tickets: Vec<_> = submissions
                .iter()
                .map(|paql| pinned(paql).submit(&mut pipelined).unwrap())
                .collect();
            let mut results = vec![Vec::new(); tickets.len()];
            for (i, ticket) in tickets.iter().enumerate().rev() {
                results[i] = pipelined.wait(*ticket).unwrap().pairs;
            }
            assert_eq!(
                results, baseline,
                "workers={workers}: pipelined answers diverged from sequential"
            );
            assert_eq!(
                pipelined.completed_order().len(),
                tickets.len(),
                "every submission must have completed exactly once"
            );

            // In-process ground truth on the same shared state.
            let local = db.session();
            for (paql, pairs) in submissions.iter().zip(&baseline) {
                let exec = local
                    .execute_with(&parse_paql(paql).unwrap(), Route::Auto)
                    .unwrap();
                let members: Vec<(u64, u64)> = exec
                    .package
                    .members()
                    .iter()
                    .map(|&(row, mult)| (row as u64, mult))
                    .collect();
                assert_eq!(&members, pairs);
            }

            let done = pipelined.submit_shutdown().unwrap();
            pipelined.wait(done).unwrap();
        });
    }
}

#[test]
fn pipelined_catalog_mutations_travel_columnar_and_apply_in_order() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1, // one executor → same-class submissions apply in order
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::handshake(connector.connect().unwrap()).unwrap();

        // All submitted before the first wait: registration (the v7
        // columnar body), an append, and the stats read-back ride the
        // same pipelined connection.
        let table = items_table(30, 0xBEEF);
        let reg = client
            .submit_register_table("Fresh", &table, Some(0xF00D))
            .unwrap();
        let row = vec![Value::Float(5.0), Value::Float(1.0)];
        let app = client.submit_append_row("Fresh", row, None).unwrap();
        let stats = client.submit_stats().unwrap();

        let v1 = client.wait(reg).unwrap();
        let v2 = client.wait(app).unwrap();
        assert!(v2 > v1);
        assert_eq!(db.table_version("Fresh").unwrap(), v2);
        assert_eq!(db.table("Fresh").unwrap().num_rows(), 31);
        let stats = client.wait(stats).unwrap();
        assert!(stats
            .tables
            .iter()
            .any(|t| t.name == "Fresh" && t.rows == 31));

        // The registered rows are byte-identical to what was sent: the
        // columnar codec is an encoding, not a transformation.
        let round_tripped = db.table("Fresh").unwrap();
        for i in 0..table.num_rows() {
            assert_eq!(round_tripped.row(i), table.row(i), "row {i} diverged");
        }

        // The handshake and every pipelined request are counted.
        let metrics = client.submit_metrics().unwrap();
        let snapshot = client.wait(metrics).unwrap();
        assert!(snapshot.counter(paq_obs::names::SERVER_HANDSHAKES) >= 1);
        assert!(snapshot.counter(paq_obs::names::SERVER_PIPELINED) >= 4);

        let done = client.submit_shutdown().unwrap();
        client.wait(done).unwrap();
    });
}

#[test]
fn quota_shed_is_a_typed_busy_on_the_request_tag() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1,
            admission: AdmissionConfig {
                per_client_quota: 0, // shed every pipelined arrival
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::handshake_as(
            connector.connect().unwrap(),
            HelloOptions {
                class: ShedClass::Bulk,
                client_id: 42,
            },
        )
        .unwrap();

        let ticket = pinned(QUERIES[0]).submit(&mut client).unwrap();
        match client.wait(ticket) {
            Err(ClientError::Busy {
                retry_after_ms,
                shed_class,
                ..
            }) => {
                assert!(retry_after_ms > 0, "Busy carries a pacing hint");
                assert_eq!(
                    shed_class,
                    Some(ShedClass::Bulk),
                    "admission shed must name the class it dropped"
                );
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        assert!(server.shed_requests() >= 1);
        assert!(db.obs_registry().counter(paq_obs::names::SERVER_SHED) >= 1);
        // A quota of 0 sheds a Shutdown request too: stop the server
        // directly.
        drop(client);
        server.trigger_shutdown();
    });
}

#[test]
fn idle_connections_are_reaped_without_touching_active_ones() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1, // the idle peer pins the only handler until reaped
            idle_timeout: Some(Duration::from_millis(50)),
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));

        // Connect and say nothing: the idle reaper must free the worker.
        let silent = connector.connect().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.idle_closed() == 0 {
            assert!(Instant::now() < deadline, "idle connection never reaped");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(silent);

        // The freed worker serves a real client normally.
        let mut client = Client::handshake(connector.connect().unwrap()).unwrap();
        assert!(!pinned(QUERIES[0])
            .send(&mut client)
            .unwrap()
            .pairs
            .is_empty());
        client.shutdown().unwrap();
    });
    assert_eq!(server.idle_closed(), 1);
}

// ---------------------------------------------------------------------
// Refusals: one protocol, no downgrade
// ---------------------------------------------------------------------

/// A recorded v6 `Request::Stats` frame (length prefix + payload), as
/// emitted by the request/response protocol that v7 replaced.
const RECORDED_V6_STATS_FRAME: [u8; 6] = [0, 0, 0, 2, 6, 4];

/// Read the server's next frame on `conn` and decode it as a v7
/// response.
fn next_response(conn: &mut PipeEnd) -> (u32, Response) {
    let payload = wire::read_frame(conn).unwrap().expect("an answer");
    decode_response_v7(&payload).unwrap()
}

/// Assert the server refused the connection with a typed `BadRequest`
/// on the control tag, then closed it.
fn assert_refused(conn: &mut PipeEnd, wanted: &str) {
    match next_response(conn) {
        (CONTROL_TAG, Response::Error(fault)) => {
            assert_eq!(fault.kind, FaultKind::BadRequest, "{}", fault.message);
            assert!(fault.message.contains(wanted), "{}", fault.message);
        }
        other => panic!("expected a BadRequest refusal, got {other:?}"),
    }
    assert!(wire::read_frame(conn).unwrap().is_none(), "closed");
}

/// Serve over a fresh pipe listener while `body` runs, then shut the
/// server down — even when `body` panics, so a failed assertion fails
/// the test instead of hanging the serve thread's join.
fn serving<R>(server: &Server, body: impl FnOnce(&PipeConnector) -> R) -> R {
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(&connector)));
        server.trigger_shutdown();
        result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

#[test]
fn recorded_v6_frame_is_refused_with_a_typed_fault() {
    let server = Server::new(test_db().session());
    serving(&server, |connector| {
        let mut conn = connector.connect().unwrap();
        conn.write_all(&RECORDED_V6_STATS_FRAME).unwrap();
        assert_refused(&mut conn, "protocol version 6");
    });
    assert_eq!(server.served(), 0, "nothing was served");
}

#[test]
fn hello_below_v7_is_refused_without_downgrade() {
    let db = test_db();
    let server = Server::new(db.session());
    serving(&server, |connector| {
        let mut conn = connector.connect().unwrap();
        Hello {
            max_version: 6,
            client_id: 0,
            class: ShedClass::Normal,
        }
        .write_to(&mut conn)
        .unwrap();
        assert_refused(&mut conn, "v6 at most");
    });
    assert_eq!(
        db.obs_registry().counter(paq_obs::names::SERVER_HANDSHAKES),
        0,
        "a refused Hello is not a handshake"
    );
}

#[test]
fn accept_time_busy_is_a_typed_control_frame() {
    let server = Server::with_config(
        test_db().session(),
        ServerConfig {
            workers: 1,
            max_in_flight: 1,
            ..ServerConfig::default()
        },
    );
    serving(&server, |connector| {
        let mut holder = Client::handshake(connector.connect().unwrap()).unwrap();
        holder.stats().unwrap();

        // Raw bytes: the rejection is a v7 Busy on the control tag,
        // written before the peer says anything, then the close.
        let mut conn = connector.connect().unwrap();
        match next_response(&mut conn) {
            (
                CONTROL_TAG,
                Response::Busy {
                    in_flight,
                    max_in_flight,
                    retry_after_ms,
                    shed_class,
                },
            ) => {
                assert_eq!((in_flight, max_in_flight), (1, 1));
                assert!(retry_after_ms > 0, "Busy carries a pacing hint");
                assert_eq!(shed_class, None, "no admission class at accept time");
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        assert!(wire::read_frame(&mut conn).unwrap().is_none(), "closed");

        // The handshake race: the server has already written Busy and
        // closed, so the client's Hello write fails — the handshake
        // still reports the buffered Busy, not the broken pipe.
        let conn = connector.connect().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.busy_rejections() < 2 {
            assert!(Instant::now() < deadline, "second rejection never happened");
            std::thread::sleep(Duration::from_millis(2));
        }
        // The count leads the write and the close by a few instructions.
        std::thread::sleep(Duration::from_millis(50));
        match Client::handshake(conn) {
            Err(ClientError::Busy {
                retry_after_ms,
                shed_class,
                ..
            }) => {
                assert!(retry_after_ms > 0);
                assert_eq!(shed_class, None);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
    });
}
