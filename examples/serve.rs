//! Serving PaQL over loopback TCP: start a `paq-server` on an
//! ephemeral port, register the paper's recipes table through the wire
//! protocol, then let several concurrent clients submit queries — the
//! interactive, multi-tenant shape the paper assumes for package
//! queries — and finally pipeline every query on one connection.
//!
//! Run with: `cargo run --release --example serve`

use package_queries::prelude::*;
use package_queries::server::{spawn_tcp, RequestBuilder};
use std::time::Instant;

fn main() {
    // The shared database every connection gets a session onto. A low
    // direct-threshold routes the demo queries to SKETCHREFINE so the
    // partition cache shows up in the stats below.
    let db = PackageDb::with_config(DbConfig {
        direct_threshold: 100,
        default_groups: 8,
        ..DbConfig::default()
    });

    // One server, one worker pool, bounded in-flight queue.
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 4,
            max_in_flight: 32,
            ..ServerConfig::default()
        },
    );
    let handle = spawn_tcp(server, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr();
    println!("paq-server listening on {addr}");

    // A client registers the input relation over the wire.
    let table = package_queries::datagen::recipes_table(400, 42);
    let mut admin = Client::connect(addr).expect("connect");
    let version = admin.register_table("Recipes", &table).expect("register");
    println!(
        "registered Recipes ({} rows) at catalog version {version}",
        table.num_rows()
    );

    // Four analysts, each on their own connection, all hitting the
    // shared catalog concurrently.
    let queries = [
        (
            "lean",
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
                     WHERE R.gluten = 'free' \
                     SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5 \
                     MINIMIZE SUM(P.saturated_fat)",
        ),
        (
            "bulk",
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
                     SUCH THAT COUNT(P.*) = 6 AND SUM(P.kcal) <= 6.0 \
                     MAXIMIZE SUM(P.protein)",
        ),
        (
            "lowcarb",
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
                     SUCH THAT COUNT(P.*) = 4 AND SUM(P.protein) >= 8 \
                     MINIMIZE SUM(P.carbs)",
        ),
        (
            "windowed",
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
                     SUCH THAT COUNT(P.*) = 5 AND SUM(P.kcal) BETWEEN 3.0 AND 4.0 \
                     MINIMIZE SUM(P.saturated_fat)",
        ),
    ];
    std::thread::scope(|scope| {
        for (name, paql) in queries {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let start = Instant::now();
                match RequestBuilder::query(paql)
                    .relation("Recipes")
                    .send(&mut client)
                {
                    Ok(answer) => {
                        let latency = start.elapsed();
                        println!(
                            "[{name:<8}] {} tuples in {:.2} ms round-trip ({}, server evaluate {:.2} ms)",
                            answer.package().cardinality(),
                            latency.as_secs_f64() * 1e3,
                            if answer.direct { "DIRECT" } else { "SKETCHREFINE" },
                            answer.timings.evaluate.as_secs_f64() * 1e3,
                        );
                    }
                    Err(e) if e.is_infeasible() => {
                        println!("[{name:<8}] infeasible: {e}");
                    }
                    Err(e) => println!("[{name:<8}] error: {e}"),
                }
            });
        }
    });

    // One connection, many requests in flight: submit every query up
    // front, then collect the answers; the server may finish them in
    // any order, and each ticket finds its own.
    let start = Instant::now();
    let tickets: Vec<_> = queries
        .iter()
        .map(|&(name, paql)| {
            let request = RequestBuilder::query(paql).relation("Recipes");
            (name, request.submit(&mut admin).expect("submit"))
        })
        .collect();
    for (name, ticket) in tickets {
        match admin.wait(ticket) {
            Ok(answer) => println!(
                "[{name:<8}] pipelined: {} tuples",
                answer.package().cardinality()
            ),
            Err(e) if e.is_infeasible() => println!("[{name:<8}] pipelined: infeasible"),
            Err(e) => println!("[{name:<8}] pipelined error: {e}"),
        }
    }
    println!(
        "{} pipelined queries answered in {:.2} ms on one connection",
        queries.len(),
        start.elapsed().as_secs_f64() * 1e3
    );

    // The self-describing part: tables, versions, and cache counters
    // over the same wire.
    let stats = admin.stats().expect("stats");
    for t in &stats.tables {
        println!("table {} — {} rows, version {}", t.name, t.rows, t.version);
    }
    println!(
        "partition cache: {} hits, {} misses, {} entries; {} requests served",
        stats.cache.hits, stats.cache.misses, stats.cache.entries, stats.served
    );

    // Graceful shutdown: drains in-flight work, then the acceptor
    // thread exits and the handle joins it.
    admin.shutdown().expect("shutdown ack");
    handle.shutdown();
    println!("server drained and stopped");
}
