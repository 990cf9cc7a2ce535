#![warn(missing_docs)]

//! # paq-server — PaQL over a socket
//!
//! The paper frames package queries as an *interactive* workload:
//! analysts submit PaQL and expect answers at query-engine latencies.
//! This crate turns the in-process [`PackageDb`](paq_db::PackageDb)
//! into a multi-tenant service that speaks one protocol, v7:
//!
//! * [`wire`] — the **vocabulary and framing**: length-prefixed frames
//!   over generic [`std::io::Read`] + [`std::io::Write`] streams, and
//!   the typed requests ([`Request::Execute`], `RegisterTable`,
//!   `AppendRow`, `Explain`, `Stats`, `Metrics`, `Shutdown`) and
//!   responses (packages with full
//!   [`explain`](paq_db::Execution::explain) text and SKETCHREFINE
//!   counters, typed faults, typed [`Busy`](wire::Response::Busy)
//!   backpressure). The identical code runs over loopback TCP and the
//!   deterministic in-memory pipe.
//! * [`wire7`] — the **protocol**: the `Hello`/`HelloAck` handshake,
//!   tagged request and response frames that may complete out of
//!   order, and the columnar table codec.
//! * [`server`] — the **core**: a [`TcpListener`](std::net::TcpListener)
//!   (or in-memory) acceptor feeding a pool of connection readers, a
//!   fairness-aware admission scheduler feeding a pool of executors,
//!   one `PackageDb` session per connection, per-request
//!   [`ExecOptions`] config overrides, a bounded connection count that
//!   rejects with `Busy` instead of buffering without bound, and
//!   graceful shutdown that drains in-flight executions.
//! * [`pipeline`] — the **client**: [`Client`] makes blocking calls
//!   (submit, then wait) and pipelined ones (many tickets in flight) on
//!   one connection; [`RetryingClient`] reconnects and retries it.
//! * [`transport`] — the in-memory duplex pipe + listener that lets the
//!   whole stack run deterministically in tests, sockets not included.
//!
//! Both ends of every connection are built from this workspace, so the
//! server serves no older protocol revision.
//!
//! ## A complete round trip
//!
//! ```
//! use paq_db::PackageDb;
//! use paq_server::{pipe_listener, Client, Server};
//! use paq_relational::{DataType, Schema, Table, Value};
//!
//! let server = Server::new(PackageDb::new());
//! let (connector, listener) = pipe_listener();
//! std::thread::scope(|scope| {
//!     scope.spawn(|| server.serve(listener));
//!
//!     let mut client = Client::handshake(connector.connect().unwrap()).unwrap();
//!     let mut table = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
//!     for v in [1.0, 2.0, 3.0, 4.0] {
//!         table.push_row(vec![Value::Float(v)]).unwrap();
//!     }
//!     client.register_table("Points", &table).unwrap();
//!     let answer = client
//!         .execute(
//!             "SELECT PACKAGE(R) AS P FROM Points R REPEAT 0 \
//!              SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.x)",
//!         )
//!         .unwrap();
//!     assert_eq!(answer.package().cardinality(), 2);
//!     client.shutdown().unwrap(); // server drains and serve() returns
//! });
//! ```

pub(crate) mod admission;
pub mod api;
pub mod error;
pub mod pipeline;
pub mod retry;
pub mod server;
pub mod transport;
pub mod wire;
pub mod wire7;

pub use api::RequestBuilder;
pub use error::{ClientError, ClientResult, WireError, WireResult};
pub use pipeline::{Client, Completion, HelloOptions, Ticket};
pub use retry::{RetryPolicy, RetryStats, RetryingClient};
pub use server::{
    spawn_tcp, Accepted, Acceptor, AdmissionConfig, Connection, Server, ServerConfig, TcpAcceptor,
    TcpServerHandle,
};
pub use transport::{duplex, pipe_listener, PipeConnector, PipeEnd, PipeListener};
pub use wire::{
    ExecOptions, Fault, FaultKind, RemoteExecution, Request, Response, RouteChoice, ShedClass,
    StatsReply, WireReport, WireRouterVerdict, WireTimings, MAX_FRAME,
};
pub use wire7::{Hello, HelloAck, CONTROL_TAG, WIRE_V7};
