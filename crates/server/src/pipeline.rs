//! The client: typed PaQL calls over any [`Connection`], blocking or
//! pipelined on the same connection.
//!
//! [`Client`] opens with a v7 [`Hello`] handshake
//! ([`Client::handshake`], [`Client::handshake_as`], or
//! [`Client::connect`] for TCP). Its blocking calls (`execute`,
//! `explain`, `stats`, …) submit one request and wait for its answer.
//! For pipelining, each `submit_*` call writes one tagged request frame
//! and returns a [`Ticket`] — a future-like completion handle typed by
//! what the request will produce. [`Client::wait`] blocks until *that*
//! ticket's response arrives, buffering any other completions it reads
//! along the way; [`Client::poll_ready`] drains whatever has already
//! arrived without blocking and returns the tags it filed. Because
//! responses carry the request's tag, the client never confuses
//! out-of-order completions. It keeps no log of answered tags: what it
//! holds is bounded by the answers not yet collected with `wait`.
//!
//! Backpressure ([`Response::Busy`]) and server-reported faults surface
//! as typed [`ClientError`]s; everything else returns the decoded
//! payload.
//!
//! ```no_run
//! use paq_server::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! // Blocking: one request, one answer.
//! let answer = client.execute(
//!     "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
//!      SUCH THAT COUNT(P.*) = 3 MINIMIZE SUM(P.saturated_fat)",
//! )?;
//! println!("package: {:?}", answer.package().members());
//!
//! // Pipelined: several requests in flight, answers in any order.
//! let a = client.submit_execute("", "SELECT PACKAGE(R) AS P FROM Recipes R \
//!     REPEAT 0 SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.kcal)", Default::default())?;
//! let b = client.submit_stats()?;
//! let stats = client.wait(b)?;       // may complete before `a`
//! let answer = client.wait(a)?;
//! # let _ = (stats, answer);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use paq_obs::RegistrySnapshot;
use paq_relational::{Table, Value};

use crate::error::{ClientError, ClientResult, WireError};
use crate::server::Connection;
use crate::wire::{
    read_frame, read_frame_with, write_frame, ExecOptions, RemoteExecution, Request, Response,
    ShedClass, StatsReply,
};
use crate::wire7::{decode_response_v7, encode_request_v7, Hello, HelloAck, CONTROL_TAG, WIRE_V7};

/// Options for the v7 [`Hello`] handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloOptions {
    /// Admission class this connection's requests queue under.
    pub class: ShedClass,
    /// Client identity for per-client admission quotas; `0` (default)
    /// asks the server to assign a fresh anonymous identity. Give all
    /// of one tenant's connections the same non-zero id to share one
    /// quota.
    pub client_id: u64,
}

impl Default for HelloOptions {
    fn default() -> Self {
        HelloOptions {
            class: ShedClass::Normal,
            client_id: 0,
        }
    }
}

/// A completion handle for one submitted request, typed by the payload
/// [`Client::wait`] will return for it.
#[derive(Debug)]
pub struct Ticket<T> {
    tag: u32,
    _type: PhantomData<fn() -> T>,
}

// Manual impls: a ticket is a tag, copyable whatever `T` is (derive
// would demand `T: Copy`).
impl<T> Clone for Ticket<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Ticket<T> {}

impl<T> Ticket<T> {
    /// The wire tag identifying this request on its connection.
    pub fn tag(&self) -> u32 {
        self.tag
    }
}

/// Decodes a response into the typed payload a [`Ticket`] promises.
pub trait Completion: Sized {
    /// Convert the server's response; `Busy` and `Error` have already
    /// been turned into typed [`ClientError`]s by the caller.
    fn from_response(response: Response) -> ClientResult<Self>;
}

impl Completion for RemoteExecution {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Executed(execution) => Ok(*execution),
            other => Err(unexpected("Executed", &other)),
        }
    }
}

impl Completion for String {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Explained { text } => Ok(text),
            other => Err(unexpected("Explained", &other)),
        }
    }
}

/// A catalog version, from `Registered` or `Appended`.
impl Completion for u64 {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Registered { version } | Response::Appended { version } => Ok(version),
            other => Err(unexpected("Registered/Appended", &other)),
        }
    }
}

impl Completion for StatsReply {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }
}

impl Completion for RegistrySnapshot {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected("Metrics", &other)),
        }
    }
}

impl Completion for () {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    let variant = match got {
        Response::Executed(_) => "Executed",
        Response::Registered { .. } => "Registered",
        Response::Appended { .. } => "Appended",
        Response::Explained { .. } => "Explained",
        Response::Stats(_) => "Stats",
        Response::Metrics(_) => "Metrics",
        Response::ShuttingDown => "ShuttingDown",
        Response::Busy { .. } => "Busy",
        Response::Error(_) => "Error",
    };
    ClientError::UnexpectedResponse(format!("wanted {wanted}, got {variant}"))
}

/// A connected PaQL client. See the [module docs](self). Not `Clone`:
/// open one client per concurrent caller, the server gives each
/// connection its own session.
#[derive(Debug)]
pub struct Client<C: Connection> {
    conn: C,
    next_tag: u32,
    window: u64,
    /// Completions read but not yet collected by [`Client::wait`]: one
    /// per answered request whose ticket has not been waited on.
    ready: HashMap<u32, Response>,
}

impl Client<TcpStream> {
    /// Connect over TCP and open the v7 conversation. Disables Nagle's
    /// algorithm: frames are small, exactly the shape delayed-ACK
    /// coupling penalizes.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Self::handshake(conn)
    }
}

impl<C: Connection> Client<C> {
    /// Open a v7 conversation on `conn` with default [`HelloOptions`].
    pub fn handshake(conn: C) -> ClientResult<Self> {
        Self::handshake_as(conn, HelloOptions::default())
    }

    /// Open a v7 conversation declaring an admission class and client
    /// identity. A server-side refusal (the accept-time `Busy`, or a
    /// connection that cannot be served) surfaces as the server's typed
    /// error.
    pub fn handshake_as(mut conn: C, options: HelloOptions) -> ClientResult<Self> {
        conn.set_read_poll(None).map_err(ClientError::from)?;
        // A connection rejected at accept time (typed Busy) may already
        // have closed under us, making the *write* fail — but the Busy
        // frame is still buffered for reading. Hold the write error and
        // prefer whatever the server managed to say.
        let wrote = Hello {
            max_version: WIRE_V7,
            client_id: options.client_id,
            class: options.class,
        }
        .write_to(&mut conn);
        let payload = match read_frame(&mut conn) {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                wrote?;
                return Err(ClientError::ConnectionClosed);
            }
            Err(e) => {
                wrote?;
                return Err(e.into());
            }
        };
        let ack = match HelloAck::decode(&payload) {
            Ok(ack) => ack,
            // Not an ack: the server refused the connection with a
            // tagged fault — surface that instead of "malformed".
            Err(e) => match decode_response_v7(&payload) {
                Ok((_, response)) => return Err(Self::fault_of(response)),
                Err(_) => return Err(e.into()),
            },
        };
        wrote?;
        if ack.version != WIRE_V7 {
            return Err(ClientError::Wire(WireError::Version {
                got: ack.version,
                want: WIRE_V7,
            }));
        }
        Ok(Client {
            conn,
            next_tag: 0,
            window: ack.window,
            ready: HashMap::new(),
        })
    }

    /// The per-connection pipeline window the server advertised: its
    /// bound on this connection's in-flight requests. Submitting past
    /// it is safe but blocks the *server's* reader, not this client.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Unwrap the underlying stream.
    pub fn into_inner(self) -> C {
        self.conn
    }

    fn alloc_tag(&mut self) -> u32 {
        let tag = self.next_tag;
        // Wrap below the reserved control tag.
        self.next_tag = if tag >= CONTROL_TAG - 1 { 0 } else { tag + 1 };
        tag
    }

    /// Write one tagged request frame and hand back its ticket; the
    /// caller's choice of `T` names the payload the request produces.
    fn submit<T>(&mut self, request: &Request) -> ClientResult<Ticket<T>> {
        let tag = self.alloc_tag();
        write_frame(&mut self.conn, &encode_request_v7(tag, request))?;
        Ok(Ticket {
            tag,
            _type: PhantomData,
        })
    }

    /// Submit `request` and block for its answer.
    pub(crate) fn call<T: Completion>(&mut self, request: &Request) -> ClientResult<T> {
        let ticket = self.submit(request)?;
        self.wait(ticket)
    }

    /// Execute a PaQL query with default options.
    pub fn execute(&mut self, paql: &str) -> ClientResult<RemoteExecution> {
        self.call(&Request::Execute {
            relation: String::new(),
            paql: paql.to_owned(),
            options: ExecOptions::default(),
        })
    }

    /// Execute a PaQL query but fetch only the server-side plan
    /// explanation.
    pub fn explain(&mut self, paql: &str) -> ClientResult<String> {
        self.call(&Request::Explain {
            relation: String::new(),
            paql: paql.to_owned(),
            options: ExecOptions::default(),
        })
    }

    /// Register (or replace) a table; returns the catalog version.
    pub fn register_table(&mut self, name: &str, table: &Table) -> ClientResult<u64> {
        self.register_table_with_token(name, table, None)
    }

    /// [`Client::register_table`] carrying an idempotency `token`: the
    /// server remembers acked tokens and answers a repeat with the
    /// recorded ack instead of re-applying, so this call is safe to
    /// retry after a lost acknowledgement (see
    /// [`RetryingClient`](crate::retry::RetryingClient)).
    pub fn register_table_with_token(
        &mut self,
        name: &str,
        table: &Table,
        token: Option<u64>,
    ) -> ClientResult<u64> {
        let ticket = self.submit_register_table(name, table, token)?;
        self.wait(ticket)
    }

    /// Append one row; returns the new catalog version.
    pub fn append_row(&mut self, name: &str, row: Vec<Value>) -> ClientResult<u64> {
        self.append_row_with_token(name, row, None)
    }

    /// [`Client::append_row`] carrying an idempotency `token` (same
    /// retry-safety contract as [`Client::register_table_with_token`]).
    pub fn append_row_with_token(
        &mut self,
        name: &str,
        row: Vec<Value>,
        token: Option<u64>,
    ) -> ClientResult<u64> {
        let ticket = self.submit_append_row(name, row, token)?;
        self.wait(ticket)
    }

    /// Fetch the server's database snapshot (tables + cache counters).
    pub fn stats(&mut self) -> ClientResult<StatsReply> {
        self.call(&Request::Stats)
    }

    /// Fetch the server's full metrics-registry snapshot: counters,
    /// gauges, and latency histograms (engine, store, and server-side
    /// figures together). Empty when the server runs with observability
    /// disabled. Render it locally with
    /// [`paq_obs::prometheus::render`] for text exposition, or read
    /// percentiles straight off the
    /// [`HistogramSnapshot`](paq_obs::HistogramSnapshot)s.
    pub fn metrics(&mut self) -> ClientResult<RegistrySnapshot> {
        self.call(&Request::Metrics)
    }

    /// Ask the server to shut down gracefully (drain in-flight work,
    /// stop accepting). The server acknowledges before closing.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.call(&Request::Shutdown)
    }

    /// Submit a PaQL execution. `relation`, when non-empty, must match
    /// the query's `FROM` relation; `options` override the server
    /// session's configuration for this request only.
    pub fn submit_execute(
        &mut self,
        relation: &str,
        paql: &str,
        options: ExecOptions,
    ) -> ClientResult<Ticket<RemoteExecution>> {
        self.submit(&Request::Execute {
            relation: relation.to_owned(),
            paql: paql.to_owned(),
            options,
        })
    }

    /// Submit a plan-explanation request.
    pub fn submit_explain(&mut self, paql: &str) -> ClientResult<Ticket<String>> {
        self.submit(&Request::Explain {
            relation: String::new(),
            paql: paql.to_owned(),
            options: ExecOptions::default(),
        })
    }

    /// Submit a table registration; the table travels in the columnar
    /// encoding. The ticket completes with the catalog version.
    pub fn submit_register_table(
        &mut self,
        name: &str,
        table: &Table,
        token: Option<u64>,
    ) -> ClientResult<Ticket<u64>> {
        self.submit(&Request::RegisterTable {
            name: name.to_owned(),
            table: table.clone(),
            token,
        })
    }

    /// Submit a row append; the ticket completes with the catalog
    /// version.
    pub fn submit_append_row(
        &mut self,
        name: &str,
        row: Vec<Value>,
        token: Option<u64>,
    ) -> ClientResult<Ticket<u64>> {
        self.submit(&Request::AppendRow {
            name: name.to_owned(),
            row,
            token,
        })
    }

    /// Submit a database-stats request.
    pub fn submit_stats(&mut self) -> ClientResult<Ticket<StatsReply>> {
        self.submit(&Request::Stats)
    }

    /// Submit a metrics-snapshot request.
    pub fn submit_metrics(&mut self) -> ClientResult<Ticket<RegistrySnapshot>> {
        self.submit(&Request::Metrics)
    }

    /// Submit a graceful-shutdown request.
    pub fn submit_shutdown(&mut self) -> ClientResult<Ticket<()>> {
        self.submit(&Request::Shutdown)
    }

    /// Block until `ticket`'s response arrives (buffering any other
    /// completions read along the way), then decode it. `Busy` — the
    /// request was shed by admission control — and server faults become
    /// typed errors carrying the shed class / fault.
    pub fn wait<T: Completion>(&mut self, ticket: Ticket<T>) -> ClientResult<T> {
        loop {
            if let Some(response) = self.ready.remove(&ticket.tag) {
                return match response {
                    Response::Busy { .. } | Response::Error(_) => Err(Self::fault_of(response)),
                    other => T::from_response(other),
                };
            }
            self.read_one()?;
        }
    }

    /// Read one response frame and file it under its tag. A response on
    /// the reserved control tag is a connection-level fault and is
    /// returned as the error itself.
    fn read_one(&mut self) -> ClientResult<()> {
        let payload = match read_frame(&mut self.conn)? {
            Some(payload) => payload,
            None => return Err(ClientError::ConnectionClosed),
        };
        self.file(&payload).map(drop)
    }

    /// File one response under its tag; returns the tag.
    fn file(&mut self, payload: &[u8]) -> ClientResult<u32> {
        let (tag, response) = decode_response_v7(payload)?;
        if tag == CONTROL_TAG {
            return Err(Self::fault_of(response));
        }
        self.ready.insert(tag, response);
        Ok(tag)
    }

    fn fault_of(response: Response) -> ClientError {
        match response {
            Response::Busy {
                in_flight,
                max_in_flight,
                retry_after_ms,
                shed_class,
            } => ClientError::Busy {
                in_flight,
                max_in_flight,
                retry_after_ms,
                shed_class,
            },
            Response::Error(fault) => ClientError::Server(fault),
            other => unexpected("Busy/Error", &other),
        }
    }

    /// Drain responses that have already arrived, without blocking for
    /// more. Returns the tags filed by this call, in arrival order (the
    /// server's completion order, which pipelining allows to differ
    /// from submission order); each tag is returned by exactly one
    /// call. Read their payloads with [`Client::wait`] (which no longer
    /// blocks for them).
    pub fn poll_ready(&mut self) -> ClientResult<Vec<u32>> {
        self.conn
            .set_read_poll(Some(Duration::from_millis(1)))
            .map_err(ClientError::from)?;
        let mut filed = Vec::new();
        let result = loop {
            // `on_idle` abandons the wait at the first empty poll tick,
            // so this reads exactly what is buffered and stops.
            match read_frame_with(&mut self.conn, || true) {
                Ok(Some(payload)) => match self.file(&payload) {
                    Ok(tag) => filed.push(tag),
                    Err(e) => break Err(e),
                },
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.into()),
            }
        };
        self.conn.set_read_poll(None).map_err(ClientError::from)?;
        result?;
        Ok(filed)
    }
}
