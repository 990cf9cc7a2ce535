//! Wire-level observability: a `Request::Metrics` round trip must hand
//! back the *whole stack's* registry — server-side queue-wait/handle
//! latencies next to the engine's route counters and the solver's
//! figures — with percentiles readable straight off the histogram
//! snapshots, and the snapshot must survive a Prometheus
//! render → parse → render round trip losslessly. Also pins the
//! obs-disabled contract: the same request answers with an *empty*
//! snapshot instead of an error.

use paq_db::{DbConfig, ObsConfig, PackageDb};
use paq_relational::{DataType, Schema, Table, Value};
use paq_server::{pipe_listener, Client, Server, ServerConfig};

fn items_table(n: usize, salt: u64) -> Table {
    let schema = Schema::from_pairs(&[("value", DataType::Float), ("weight", DataType::Float)]);
    let mut t = Table::new(schema);
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

const QUERY: &str = "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 2 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)";

fn serve_and<F: FnOnce(&mut Client<paq_server::PipeEnd>)>(db: PackageDb, body: F) {
    let server = Server::with_config(
        db,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client =
            Client::handshake(connector.connect().expect("listener alive")).expect("handshake");
        // Shut the server down even when `body` panics: otherwise the
        // scope would join the serve thread forever and a failed
        // assertion would present as a hang instead of a failure.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut client)));
        client.shutdown().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn metrics_round_trip_carries_server_and_engine_figures() {
    let db = PackageDb::with_config(DbConfig {
        direct_threshold: 10, // route to SKETCHREFINE
        default_groups: 5,
        ..DbConfig::default()
    });
    db.register_table("Items", items_table(60, 0xA11CE));
    // Satellite contract: an attached solver telemetry sink reports
    // into the same registry, so solver figures ride the same wire
    // snapshot.
    db.set_telemetry(std::sync::Arc::new(paq_db::Telemetry::default()));
    serve_and(db, |client| {
        for _ in 0..4 {
            client.execute(QUERY).expect("remote execution");
        }
        let snapshot = client.metrics().expect("metrics round trip");

        // Server-side histograms with readable percentiles.
        for name in ["server.queue_wait", "server.handle", "server.frame.read"] {
            let (_, h) = snapshot
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} histogram missing from wire snapshot"));
            assert!(h.count > 0, "{name} never recorded");
            let (p50, p90, p99) = (
                h.p50().expect("non-empty"),
                h.p90().expect("non-empty"),
                h.p99().expect("non-empty"),
            );
            assert!(
                h.min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= h.max,
                "{name}: percentile order violated"
            );
        }

        // Engine counters arrived in the same snapshot.
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} counter missing from wire snapshot"))
        };
        assert_eq!(counter("db.execute.sketchrefine"), 4);
        assert!(counter("server.requests") >= 4);
        assert!(counter("solver.calls") > 0, "solver figures ride along");

        // The wire snapshot renders to Prometheus text and parses back
        // losslessly (render ∘ parse is the identity on rendered text).
        let text = paq_obs::prometheus::render(&snapshot);
        assert!(text.contains("paq_server_handle"), "{text}");
        let reparsed = paq_obs::prometheus::parse(&text).expect("own exposition parses");
        assert_eq!(paq_obs::prometheus::render(&reparsed), text);
    });
}

#[test]
fn metrics_with_observability_disabled_is_empty_not_an_error() {
    let db = PackageDb::with_config(DbConfig {
        direct_threshold: 10,
        obs: ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        },
        ..DbConfig::default()
    });
    db.register_table("Items", items_table(30, 0xBEEF));
    serve_and(db, |client| {
        client.execute(QUERY).expect("remote execution");
        let snapshot = client.metrics().expect("metrics round trip");
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.histograms.is_empty());
    });
}
