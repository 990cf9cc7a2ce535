//! Well-known metric names shared across crates.
//!
//! The registry keys on `&'static str`, so any crate *could* invent
//! names ad hoc — and the engine-internal ones are established by their
//! call sites. The serving-layer names below are shared between the
//! server (which records them) and the bench/CI tooling (which asserts
//! on them), so they live here once instead of as string literals that
//! can drift apart.

/// Counter: connections accepted past the in-flight bound and handed
/// to a connection reader.
pub const SERVER_CONNECTIONS: &str = "server.connections";

/// Counter: protocol-v7 handshakes completed (HelloAck sent). A refused
/// handshake is not counted.
pub const SERVER_HANDSHAKES: &str = "server.handshakes";

/// Counter: requests executed and answered (shed requests excluded).
pub const SERVER_REQUESTS: &str = "server.requests";

/// Histogram: time from a connection's accept until a connection reader
/// picks it up, recorded once per connection.
pub const SERVER_QUEUE_WAIT: &str = "server.queue_wait";

/// Histogram: time an executor spent answering one request.
pub const SERVER_HANDLE: &str = "server.handle";

/// Histogram: time waiting for and reading one request frame,
/// including client think-time before the frame starts.
pub const SERVER_FRAME_READ: &str = "server.frame.read";

/// Histogram: time decoding one request frame.
pub const SERVER_REQUEST_DECODE: &str = "server.request.decode";

/// Histogram: time encoding and writing one response frame.
pub const SERVER_RESPONSE_WRITE: &str = "server.response.write";

/// Counter: request frames handed to the fair scheduler
/// (shed arrivals included; see [`SERVER_SHED`] for those).
pub const SERVER_PIPELINED: &str = "server.pipelined_requests";

/// Counter: requests shed by admission control (quota
/// exceeded, queue saturated, or evicted for higher-priority work);
/// each was answered with a typed `Busy` carrying its shed class.
pub const SERVER_SHED: &str = "server.admission.shed";

/// Counter: shed requests whose admission class was interactive.
pub const SERVER_SHED_INTERACTIVE: &str = "server.admission.shed.interactive";

/// Counter: shed requests whose admission class was normal.
pub const SERVER_SHED_NORMAL: &str = "server.admission.shed.normal";

/// Counter: shed requests whose admission class was bulk.
pub const SERVER_SHED_BULK: &str = "server.admission.shed.bulk";

/// Histogram: time an admitted request waited in the fair
/// scheduler between admission and the start of execution.
pub const SERVER_FAIR_QUEUE_WAIT: &str = "server.fair.queue_wait";

/// Counter: connections closed for never starting a frame within the
/// server's idle timeout.
pub const SERVER_IDLE_CLOSED: &str = "server.idle_closed";
