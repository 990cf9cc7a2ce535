//! Wire- and client-level error types.

use std::fmt;
use std::io;

/// Errors raised while encoding or decoding protocol frames.
#[derive(Debug)]
pub enum WireError {
    /// Underlying stream error.
    Io(io::Error),
    /// The stream ended mid-frame (a frame header promised more bytes
    /// than arrived). Distinct from a clean close *between* frames,
    /// which readers report as "no frame".
    Truncated,
    /// A frame header announced a payload larger than the protocol
    /// allows; the peer is broken or hostile and the connection must be
    /// dropped (reading the payload would buffer without bound).
    Oversized {
        /// Announced payload length.
        len: u64,
        /// The protocol's frame cap ([`crate::wire::MAX_FRAME`]).
        max: u64,
    },
    /// The payload did not decode as the frame type expected at this
    /// point of the conversation.
    Malformed(String),
    /// The peer speaks a different protocol revision.
    Version {
        /// Version byte received.
        got: u8,
        /// Version this build speaks ([`crate::wire7::WIRE_V7`]).
        want: u8,
    },
    /// A frame started but did not complete within the reader's
    /// started-frame deadline (see
    /// [`crate::wire::read_frame_deadline`]) — the slowloris guard.
    DeadlineExpired {
        /// Time the frame had been in progress when the reader gave up.
        elapsed: std::time::Duration,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            WireError::Version { got, want } => {
                write!(
                    f,
                    "peer speaks protocol version {got}, this build speaks {want}"
                )
            }
            WireError::DeadlineExpired { elapsed } => {
                write!(f, "frame stalled: still incomplete after {elapsed:?}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// Result alias for frame encode/decode.
pub type WireResult<T> = Result<T, WireError>;

/// Errors surfaced by [`crate::Client`] calls.
#[derive(Debug)]
pub enum ClientError {
    /// Transport/framing failure.
    Wire(WireError),
    /// The server rejected the connection at its in-flight bound, or
    /// admission control shed the request; retry later (typed
    /// backpressure, not a failure).
    Busy {
        /// Connections the server was serving when it rejected this one.
        in_flight: u64,
        /// The server's configured bound.
        max_in_flight: u64,
        /// The server's pacing hint: wait this long before retrying.
        retry_after_ms: u64,
        /// Which admission class was shed (fairness admission only;
        /// `None` for accept-time connection rejections).
        shed_class: Option<crate::wire::ShedClass>,
    },
    /// The server reported an application-level error.
    Server(crate::wire::Fault),
    /// The server answered with a frame that does not match the request
    /// (a protocol bug, not an application error).
    UnexpectedResponse(String),
    /// The server closed the connection without answering.
    ConnectionClosed,
}

impl ClientError {
    /// `true` when the server's answer was an (possibly false)
    /// infeasibility verdict — an *answer*, not a failure.
    pub fn is_infeasible(&self) -> bool {
        matches!(
            self,
            ClientError::Server(fault) if matches!(
                fault.kind,
                crate::wire::FaultKind::Infeasible | crate::wire::FaultKind::PossiblyFalseInfeasible
            )
        )
    }

    /// `true` when this is the typed backpressure rejection.
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Busy { .. })
    }

    /// `true` when a retry has a real chance of succeeding: typed
    /// backpressure, a lost/closed/truncated connection, or a stream
    /// i/o error. Application-level faults, protocol violations
    /// (malformed/oversized/version), and unexpected responses are
    /// deterministic — retrying them would repeat the failure.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Busy { .. } | ClientError::ConnectionClosed => true,
            ClientError::Wire(WireError::Io(_))
            | ClientError::Wire(WireError::Truncated)
            | ClientError::Wire(WireError::DeadlineExpired { .. }) => true,
            ClientError::Wire(_) | ClientError::Server(_) | ClientError::UnexpectedResponse(_) => {
                false
            }
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Busy {
                in_flight,
                max_in_flight,
                retry_after_ms,
                shed_class,
            } => {
                write!(
                    f,
                    "server busy ({in_flight}/{max_in_flight} in flight); \
                     retry in {retry_after_ms} ms"
                )?;
                if let Some(class) = shed_class {
                    write!(f, " (shed class: {})", class.label())?;
                }
                Ok(())
            }
            ClientError::Server(fault) => write!(f, "server error: {fault}"),
            ClientError::UnexpectedResponse(detail) => {
                write!(f, "unexpected response: {detail}")
            }
            ClientError::ConnectionClosed => {
                write!(f, "server closed the connection without answering")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Wire(e.into())
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;
