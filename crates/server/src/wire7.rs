//! Wire protocol **v7**: the one protocol this server speaks — tagged
//! pipelined frames, the version handshake, and the columnar table
//! codec.
//!
//! Both ends of every connection are built from this workspace (the
//! [`Client`](crate::Client), the server, and the benchmark driver all
//! link this module), so there is no older peer to stay compatible
//! with: a connection that does not open with a v7 [`Hello`] is refused
//! with a typed fault and closed.
//!
//! # Frames
//!
//! Every payload inside the [length-prefixed frame](crate::wire) opens
//! with the version byte and a frame kind:
//!
//! ```text
//! payload := [ 7u8 | frame_kind u8 | frame-specific bytes ]
//!
//! frame_kind 0  Hello       [ max_version u8 | client_id u64 | class u8 ]
//! frame_kind 1  HelloAck    [ version u8 | window u64 ]
//! frame_kind 2  Request     [ tag u32 LE | request kind u8 | body ]
//! frame_kind 3  Response    [ tag u32 LE | response kind u8 | body ]
//! ```
//!
//! A conversation *must* open with `Hello`/`HelloAck`; after the
//! handshake every request carries a client-chosen `tag` and its
//! response echoes that tag, so responses may complete out of order.
//!
//! # Bodies
//!
//! Bodies are built from the [`crate::wire`] primitives, with three
//! encodings engineered for bulk transfer:
//!
//! * `RegisterTable` ships its table columnar: per-column typed chunks
//!   of at most [`CHUNK_ROWS`] rows, each with a null bitmap, a crc32
//!   of the chunk body, width-packed delta-encoded integers, and only
//!   the non-null `Float` and `Str` values.
//! * `Executed` ships its member pairs as two width-packed u64 columns.
//! * `Busy` carries the shed admission class.
//!
//! # Tags
//!
//! Tags are opaque to the server: it never interprets them beyond
//! echoing. [`CONTROL_TAG`] (`u32::MAX`) is reserved for
//! connection-level responses that cannot be matched to a request (the
//! accept-time `Busy`, a refused handshake, or a frame that could not be
//! read or whose body failed to decode past the tag); clients must not
//! issue it.

use std::io::{Read, Write};

use paq_relational::{Column, ColumnChunk, Table};
use paq_store::codec::crc32;

use crate::error::{WireError, WireResult};
use crate::wire::{self, Cursor, Request, Response, ShedClass};

/// The protocol revision this build speaks: pipelined tagged frames,
/// columnar table transfer, fairness-aware admission.
pub const WIRE_V7: u8 = 7;

/// Rows per columnar chunk. Chunks bound the unit of crc verification
/// and keep decode allocations proportional to verified input.
pub const CHUNK_ROWS: usize = 4096;

/// Reserved response tag for connection-level faults that cannot be
/// matched to a request. Clients never submit it.
pub const CONTROL_TAG: u32 = u32::MAX;

/// v7 frame kind: client handshake opener.
pub const KIND_HELLO: u8 = 0;
/// v7 frame kind: server handshake answer.
pub const KIND_HELLO_ACK: u8 = 1;
/// v7 frame kind: tagged request.
pub const KIND_REQUEST: u8 = 2;
/// v7 frame kind: tagged response.
pub const KIND_RESPONSE: u8 = 3;

// ---------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------

/// The first frame of a v7 conversation, client → server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Highest protocol version the client speaks. The server refuses a
    /// value below [`WIRE_V7`] with a typed `BadRequest` fault.
    pub max_version: u8,
    /// Client-chosen identity for per-client admission quotas. `0`
    /// asks the server to assign one (each anonymous connection is its
    /// own client); any other value groups connections under one quota.
    pub client_id: u64,
    /// The admission class this connection's requests are queued under.
    pub class: ShedClass,
}

impl Hello {
    /// Encode into a standalone v7 payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_V7, KIND_HELLO, self.max_version];
        wire::put_u64(&mut out, self.client_id);
        out.push(self.class.wire_byte());
        out
    }

    /// Decode a payload produced by [`Hello::encode`].
    pub fn decode(payload: &[u8]) -> WireResult<Hello> {
        let mut c = Cursor::new(payload);
        check_v7(&mut c, KIND_HELLO)?;
        let hello = Hello {
            max_version: c.u8()?,
            client_id: c.u64()?,
            class: ShedClass::from_wire(c.u8()?)?,
        };
        c.finish()?;
        Ok(hello)
    }

    /// Write this handshake as one frame.
    pub fn write_to<W: Write>(&self, w: &mut W) -> WireResult<()> {
        wire::write_frame(w, &self.encode())
    }
}

/// The server's answer to [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// The agreed protocol version: always [`WIRE_V7`].
    pub version: u8,
    /// The server's per-connection pipeline window: at most this many
    /// requests may be in flight on the connection at once. A hint for
    /// client pacing — the server enforces it regardless.
    pub window: u64,
}

impl HelloAck {
    /// Encode into a standalone v7 payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_V7, KIND_HELLO_ACK, self.version];
        wire::put_u64(&mut out, self.window);
        out
    }

    /// Decode a payload produced by [`HelloAck::encode`].
    pub fn decode(payload: &[u8]) -> WireResult<HelloAck> {
        let mut c = Cursor::new(payload);
        check_v7(&mut c, KIND_HELLO_ACK)?;
        let ack = HelloAck {
            version: c.u8()?,
            window: c.u64()?,
        };
        c.finish()?;
        Ok(ack)
    }

    /// Write this answer as one frame.
    pub fn write_to<W: Write>(&self, w: &mut W) -> WireResult<()> {
        wire::write_frame(w, &self.encode())
    }

    /// Read one HelloAck frame; `Ok(None)` when the peer closed.
    pub fn read_from<R: Read>(r: &mut R) -> WireResult<Option<HelloAck>> {
        match wire::read_frame(r)? {
            Some(payload) => Ok(Some(HelloAck::decode(&payload)?)),
            None => Ok(None),
        }
    }
}

fn check_v7(c: &mut Cursor<'_>, want_kind: u8) -> WireResult<()> {
    let got = c.u8()?;
    if got != WIRE_V7 {
        return Err(WireError::Version { got, want: WIRE_V7 });
    }
    let kind = c.u8()?;
    if kind != want_kind {
        return Err(WireError::Malformed(format!(
            "v7 frame kind {kind}, expected {want_kind}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Tagged requests and responses
// ---------------------------------------------------------------------

/// Encode a tagged v7 request.
pub fn encode_request_v7(tag: u32, request: &Request) -> Vec<u8> {
    let mut out = vec![WIRE_V7, KIND_REQUEST];
    out.extend_from_slice(&tag.to_le_bytes());
    match request {
        Request::Execute {
            relation,
            paql,
            options,
        } => {
            out.push(0);
            wire::put_string(&mut out, relation);
            wire::put_string(&mut out, paql);
            wire::put_options(&mut out, options);
        }
        Request::RegisterTable { name, table, token } => {
            out.push(1);
            wire::put_string(&mut out, name);
            put_table_columnar(&mut out, table);
            wire::put_opt_u64(&mut out, *token);
        }
        Request::AppendRow { name, row, token } => {
            out.push(2);
            wire::put_string(&mut out, name);
            wire::put_values(&mut out, row);
            wire::put_opt_u64(&mut out, *token);
        }
        Request::Explain {
            relation,
            paql,
            options,
        } => {
            out.push(3);
            wire::put_string(&mut out, relation);
            wire::put_string(&mut out, paql);
            wire::put_options(&mut out, options);
        }
        Request::Stats => out.push(4),
        Request::Shutdown => out.push(5),
        Request::Metrics => out.push(6),
    }
    out
}

/// Decode a payload produced by [`encode_request_v7`], returning the
/// tag alongside the request.
pub fn decode_request_v7(payload: &[u8]) -> WireResult<(u32, Request)> {
    let mut c = Cursor::new(payload);
    check_v7(&mut c, KIND_REQUEST)?;
    let tag = get_u32(&mut c)?;
    let request = match c.u8()? {
        0 => Request::Execute {
            relation: c.string()?,
            paql: c.string()?,
            options: wire::get_options(&mut c)?,
        },
        1 => Request::RegisterTable {
            name: c.string()?,
            table: get_table_columnar(&mut c)?,
            token: wire::get_opt_u64(&mut c)?,
        },
        2 => Request::AppendRow {
            name: c.string()?,
            row: wire::get_values(&mut c)?,
            token: wire::get_opt_u64(&mut c)?,
        },
        3 => Request::Explain {
            relation: c.string()?,
            paql: c.string()?,
            options: wire::get_options(&mut c)?,
        },
        4 => Request::Stats,
        5 => Request::Shutdown,
        6 => Request::Metrics,
        kind => return Err(WireError::Malformed(format!("request tag {kind}"))),
    };
    c.finish()?;
    Ok((tag, request))
}

/// Recover just the tag from a v7 request payload — used to answer a
/// request whose *body* failed to decode with an error carrying the
/// right tag (so the pipelined client does not hang on a lost tag).
/// Falls back to [`CONTROL_TAG`] semantics at the caller when this
/// fails too.
pub(crate) fn request_frame_tag(payload: &[u8]) -> WireResult<u32> {
    let mut c = Cursor::new(payload);
    check_v7(&mut c, KIND_REQUEST)?;
    get_u32(&mut c)
}

/// Encode a tagged v7 response. `Executed` member pairs travel as two
/// width-packed u64 columns.
pub fn encode_response_v7(tag: u32, response: &Response) -> Vec<u8> {
    let mut out = vec![WIRE_V7, KIND_RESPONSE];
    out.extend_from_slice(&tag.to_le_bytes());
    match response {
        Response::Executed(exec) => {
            out.push(0);
            let rows: Vec<u64> = exec.pairs.iter().map(|&(r, _)| r).collect();
            let mults: Vec<u64> = exec.pairs.iter().map(|&(_, m)| m).collect();
            put_u64_column(&mut out, &rows);
            put_u64_column(&mut out, &mults);
            wire::put_execution_after_pairs(&mut out, exec);
        }
        Response::Registered { version } => {
            out.push(1);
            wire::put_u64(&mut out, *version);
        }
        Response::Appended { version } => {
            out.push(2);
            wire::put_u64(&mut out, *version);
        }
        Response::Explained { text } => {
            out.push(3);
            wire::put_string(&mut out, text);
        }
        Response::Stats(stats) => {
            out.push(4);
            wire::put_stats_body(&mut out, stats);
        }
        Response::ShuttingDown => out.push(5),
        Response::Busy {
            in_flight,
            max_in_flight,
            retry_after_ms,
            shed_class,
        } => {
            out.push(6);
            wire::put_u64(&mut out, *in_flight);
            wire::put_u64(&mut out, *max_in_flight);
            wire::put_u64(&mut out, *retry_after_ms);
            match shed_class {
                Some(class) => {
                    wire::put_bool(&mut out, true);
                    out.push(class.wire_byte());
                }
                None => wire::put_bool(&mut out, false),
            }
        }
        Response::Error(fault) => {
            out.push(7);
            wire::put_fault(&mut out, fault);
        }
        Response::Metrics(snapshot) => {
            out.push(8);
            wire::put_registry_snapshot(&mut out, snapshot);
        }
    }
    out
}

/// Decode a payload produced by [`encode_response_v7`], returning the
/// tag alongside the response.
pub fn decode_response_v7(payload: &[u8]) -> WireResult<(u32, Response)> {
    let mut c = Cursor::new(payload);
    check_v7(&mut c, KIND_RESPONSE)?;
    let tag = get_u32(&mut c)?;
    let response = match c.u8()? {
        0 => {
            let rows = get_u64_column(&mut c)?;
            let mults = get_u64_column(&mut c)?;
            if rows.len() != mults.len() {
                return Err(WireError::Malformed(format!(
                    "pair columns disagree: {} rows vs {} multiplicities",
                    rows.len(),
                    mults.len()
                )));
            }
            let pairs = rows.into_iter().zip(mults).collect();
            Response::Executed(Box::new(wire::get_execution_after_pairs(&mut c, pairs)?))
        }
        1 => Response::Registered { version: c.u64()? },
        2 => Response::Appended { version: c.u64()? },
        3 => Response::Explained { text: c.string()? },
        4 => Response::Stats(wire::get_stats_body(&mut c)?),
        5 => Response::ShuttingDown,
        6 => Response::Busy {
            in_flight: c.u64()?,
            max_in_flight: c.u64()?,
            retry_after_ms: c.u64()?,
            shed_class: if c.bool()? {
                Some(ShedClass::from_wire(c.u8()?)?)
            } else {
                None
            },
        },
        7 => Response::Error(wire::get_fault(&mut c)?),
        8 => Response::Metrics(wire::get_registry_snapshot(&mut c)?),
        kind => return Err(WireError::Malformed(format!("response tag {kind}"))),
    };
    c.finish()?;
    Ok((tag, response))
}

/// A little-endian `u32`: a frame tag or a chunk crc32.
fn get_u32(c: &mut Cursor<'_>) -> WireResult<u32> {
    let bytes = c.take(4)?;
    Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

// ---------------------------------------------------------------------
// Width-packed u64 columns (Executed pairs)
// ---------------------------------------------------------------------

/// Byte width needed to hold every delta.
fn delta_width(max_delta: u64) -> u8 {
    match max_delta {
        0 => 0,
        d if d <= u64::from(u8::MAX) => 1,
        d if d <= u64::from(u16::MAX) => 2,
        d if d <= u64::from(u32::MAX) => 4,
        _ => 8,
    }
}

fn put_width_packed(out: &mut Vec<u8>, width: u8, deltas: impl Iterator<Item = u64>) {
    for d in deltas {
        out.extend_from_slice(&d.to_le_bytes()[..width as usize]);
    }
}

fn get_width_packed(body: &mut Cursor<'_>, width: u8, rows: usize) -> WireResult<Vec<u64>> {
    if width == 0 {
        return Ok(vec![0; rows]);
    }
    let len = rows.checked_mul(width as usize).ok_or_else(|| {
        WireError::Malformed(format!("packed block of {rows} x {width} bytes overflows"))
    })?;
    let bytes = body.take(len)?;
    Ok(bytes
        .chunks_exact(width as usize)
        .map(|chunk| {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(buf)
        })
        .collect())
}

/// Encode one u64 column: count, then a crc-guarded width-packed block
/// (`width u8 | base u64 | count × width delta bytes`).
pub(crate) fn put_u64_column(out: &mut Vec<u8>, values: &[u64]) {
    wire::put_u64(out, values.len() as u64);
    let base = values.iter().copied().min().unwrap_or(0);
    let width = delta_width(values.iter().map(|&v| v - base).max().unwrap_or(0));
    let mut body = Vec::with_capacity(9 + values.len() * width as usize);
    body.push(width);
    wire::put_u64(&mut body, base);
    put_width_packed(&mut body, width, values.iter().map(|&v| v - base));
    wire::put_u64(out, body.len() as u64);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Decode one u64 column (counterpart of [`put_u64_column`]).
pub(crate) fn get_u64_column(c: &mut Cursor<'_>) -> WireResult<Vec<u64>> {
    // Not `c.count(1)`: a width-0 column (every value identical, e.g.
    // all-1 multiplicities) occupies zero delta bytes, so the element
    // count is legitimately unbounded by the bytes remaining. The
    // allocation guard a count() would provide is re-established below,
    // once the width is known.
    let rows = c.usize()?;
    let body_len = c.usize()?;
    let stated = get_u32(c)?;
    let body_bytes = c.take(body_len)?;
    if crc32(body_bytes) != stated {
        return Err(WireError::Malformed("u64 column crc mismatch".into()));
    }
    let mut body = Cursor::new(body_bytes);
    let width = check_width(body.u8()?)?;
    let base = body.u64()?;
    // Corrupt-count allocation guard: treat width 0 as one byte per
    // element, so no column ever claims more elements than a maximal
    // frame could carry (and `rows * width` below cannot overflow).
    if rows.saturating_mul((width as usize).max(1)) > wire::MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "u64 column count {rows} exceeds the frame bound"
        )));
    }
    let deltas = get_width_packed(&mut body, width, rows)?;
    body.finish()?;
    Ok(deltas.into_iter().map(|d| base.wrapping_add(d)).collect())
}

fn check_width(width: u8) -> WireResult<u8> {
    match width {
        0 | 1 | 2 | 4 | 8 => Ok(width),
        w => Err(WireError::Malformed(format!("packed width {w}"))),
    }
}

// ---------------------------------------------------------------------
// Columnar table codec
// ---------------------------------------------------------------------

/// Encode a table columnar: schema, row count, then per column a chunk
/// count and [`CHUNK_ROWS`]-row chunks. Each chunk is
/// `rows u64 | body_len u64 | crc32 u32 | body`, where the body opens
/// with a null bitmap (bit set = null) followed by the typed payload:
///
/// * `Int` — `width u8 | base i64 | rows × width` delta bytes (base is
///   the minimum non-null value; null slots carry delta 0),
/// * `Float` — per **non-null** value only: its 8-byte IEEE-754 bit
///   pattern,
/// * `Bool` — bit-packed, `ceil(rows / 8)` bytes,
/// * `Str` — per **non-null** value only: `u64` length + UTF-8 bytes.
pub(crate) fn put_table_columnar(out: &mut Vec<u8>, table: &Table) {
    wire::put_schema(out, table.schema());
    let rows = table.num_rows();
    wire::put_u64(out, rows as u64);
    for idx in 0..table.schema().arity() {
        let column = table.column_at(idx);
        wire::put_u64(out, rows.div_ceil(CHUNK_ROWS) as u64);
        for chunk in column.chunks(CHUNK_ROWS) {
            let body = encode_chunk_body(&chunk);
            wire::put_u64(out, chunk.len() as u64);
            wire::put_u64(out, body.len() as u64);
            out.extend_from_slice(&crc32(&body).to_le_bytes());
            out.extend_from_slice(&body);
        }
    }
}

fn put_bitmap(out: &mut Vec<u8>, bits: &[bool]) {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (i, &set) in bits.iter().enumerate() {
        if set {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bytes);
}

fn get_bitmap(c: &mut Cursor<'_>, rows: usize) -> WireResult<Vec<bool>> {
    let bytes = c.take(rows.div_ceil(8))?;
    Ok((0..rows)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

fn encode_chunk_body(chunk: &ColumnChunk<'_>) -> Vec<u8> {
    let mut body = Vec::new();
    put_bitmap(&mut body, chunk.nulls());
    match chunk {
        ColumnChunk::Int { values, nulls } => {
            let live = values
                .iter()
                .zip(nulls.iter())
                .filter(|&(_, &null)| !null)
                .map(|(&v, _)| v);
            let base = live.clone().min().unwrap_or(0);
            // Deltas span at most the full i64 range, which fits u64.
            let delta = |v: i64| (v as i128 - base as i128) as u64;
            let width = delta_width(live.clone().map(delta).max().unwrap_or(0));
            body.push(width);
            wire::put_u64(&mut body, base as u64);
            put_width_packed(
                &mut body,
                width,
                values
                    .iter()
                    .zip(nulls.iter())
                    .map(|(&v, &null)| if null { 0 } else { delta(v) }),
            );
        }
        ColumnChunk::Float { values, nulls } => {
            for (v, &null) in values.iter().zip(nulls.iter()) {
                if !null {
                    wire::put_f64(&mut body, *v);
                }
            }
        }
        ColumnChunk::Bool { values, .. } => put_bitmap(&mut body, values),
        ColumnChunk::Str { values, nulls } => {
            for (v, &null) in values.iter().zip(nulls.iter()) {
                if !null {
                    wire::put_string(&mut body, v);
                }
            }
        }
    }
    body
}

fn decode_chunk_body(
    body_bytes: &[u8],
    rows: usize,
    ty: paq_relational::DataType,
) -> WireResult<Column> {
    let mut body = Cursor::new(body_bytes);
    let nulls = get_bitmap(&mut body, rows)?;
    let column = match ty {
        paq_relational::DataType::Int => {
            let width = check_width(body.u8()?)?;
            let base = body.u64()? as i64;
            let deltas = get_width_packed(&mut body, width, rows)?;
            let data = deltas
                .iter()
                .zip(nulls.iter())
                .map(
                    |(&d, &null)| {
                        if null {
                            0
                        } else {
                            base.wrapping_add(d as i64)
                        }
                    },
                )
                .collect();
            Column::Int { data, nulls }
        }
        paq_relational::DataType::Float => {
            let mut data = Vec::with_capacity(rows.min(CHUNK_ROWS));
            for &null in &nulls {
                data.push(if null { 0.0 } else { body.f64()? });
            }
            Column::Float { data, nulls }
        }
        paq_relational::DataType::Bool => {
            let bits = get_bitmap(&mut body, rows)?;
            let data = bits
                .iter()
                .zip(nulls.iter())
                .map(|(&b, &null)| b && !null)
                .collect();
            Column::Bool { data, nulls }
        }
        paq_relational::DataType::Str => {
            let mut data = Vec::with_capacity(rows.min(CHUNK_ROWS));
            for &null in &nulls {
                data.push(if null { String::new() } else { body.string()? });
            }
            Column::Str { data, nulls }
        }
    };
    body.finish()?;
    Ok(column)
}

/// Decode a columnar table (counterpart of [`put_table_columnar`]).
pub(crate) fn get_table_columnar(c: &mut Cursor<'_>) -> WireResult<Table> {
    let schema = wire::get_schema(c)?;
    // The row count alone allocates nothing (chunks carry their own
    // byte-bounded sizes), so a plain read is safe against a hostile
    // count.
    let total_rows = c.usize()?;
    let mut columns = Vec::with_capacity(schema.arity());
    for def in schema.columns() {
        let n_chunks = c.count(20)?; // min chunk: rows + body_len + crc
        let mut built: Option<Column> = None;
        let mut seen_rows = 0usize;
        for _ in 0..n_chunks {
            let rows = c.usize()?;
            let body_len = c.usize()?;
            let stated = get_u32(c)?;
            let body_bytes = c.take(body_len)?;
            if crc32(body_bytes) != stated {
                return Err(WireError::Malformed(format!(
                    "column '{}' chunk crc mismatch",
                    def.name
                )));
            }
            seen_rows = seen_rows
                .checked_add(rows)
                .filter(|&total| total <= total_rows)
                .ok_or_else(|| {
                    WireError::Malformed(format!(
                        "column '{}' chunks exceed {total_rows} rows",
                        def.name
                    ))
                })?;
            let chunk = decode_chunk_body(body_bytes, rows, def.ty)?;
            built = Some(match built {
                None => chunk,
                Some(mut acc) => {
                    append_column(&mut acc, chunk);
                    acc
                }
            });
        }
        if seen_rows != total_rows {
            return Err(WireError::Malformed(format!(
                "column '{}' has {seen_rows} rows, table declares {total_rows}",
                def.name
            )));
        }
        columns.push(built.unwrap_or_else(|| Column::new(def.ty)));
    }
    Table::from_columns(schema, columns)
        .map_err(|e| WireError::Malformed(format!("columnar table rejected: {e}")))
}

fn append_column(acc: &mut Column, chunk: Column) {
    match (acc, chunk) {
        (Column::Int { data, nulls }, Column::Int { data: d, nulls: n }) => {
            data.extend(d);
            nulls.extend(n);
        }
        (Column::Float { data, nulls }, Column::Float { data: d, nulls: n }) => {
            data.extend(d);
            nulls.extend(n);
        }
        (Column::Bool { data, nulls }, Column::Bool { data: d, nulls: n }) => {
            data.extend(d);
            nulls.extend(n);
        }
        (Column::Str { data, nulls }, Column::Str { data: d, nulls: n }) => {
            data.extend(d);
            nulls.extend(n);
        }
        _ => unreachable!("decode_chunk_body builds one type per column"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_relational::{DataType, Schema, Value};

    fn table_with_nulls() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("score", DataType::Float),
            ("flag", DataType::Bool),
            ("name", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for i in 0..10_000i64 {
            let row = if i % 7 == 0 {
                vec![Value::Null, Value::Null, Value::Null, Value::Null]
            } else {
                vec![
                    Value::Int(1_000_000 + i),
                    Value::Float(i as f64 * 0.5),
                    Value::Bool(i % 3 == 0),
                    Value::Str(format!("row-{i}")),
                ]
            };
            t.push_row(row).unwrap();
        }
        t
    }

    #[test]
    fn columnar_table_roundtrips_with_nulls() {
        let table = table_with_nulls();
        let mut out = Vec::new();
        put_table_columnar(&mut out, &table);
        let mut c = Cursor::new(&out);
        let back = get_table_columnar(&mut c).unwrap();
        c.finish().unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn corrupt_chunk_crc_is_rejected() {
        let table = table_with_nulls();
        let mut out = Vec::new();
        put_table_columnar(&mut out, &table);
        // Flip a byte deep in the first chunk body.
        let mid = out.len() / 2;
        out[mid] ^= 0xFF;
        let mut c = Cursor::new(&out);
        let err = get_table_columnar(&mut c).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("crc") || msg.contains("malformed"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn empty_table_roundtrips_columnar() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let table = Table::new(schema);
        let mut out = Vec::new();
        put_table_columnar(&mut out, &table);
        let mut c = Cursor::new(&out);
        let back = get_table_columnar(&mut c).unwrap();
        c.finish().unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn u64_column_roundtrips_and_packs() {
        let values: Vec<u64> = (500..600).collect();
        let mut out = Vec::new();
        put_u64_column(&mut out, &values);
        // 100 deltas ≤ 99 fit one byte each: count + len + crc + header.
        assert!(out.len() < 8 + 8 + 4 + 9 + 200);
        let mut c = Cursor::new(&out);
        assert_eq!(get_u64_column(&mut c).unwrap(), values);
        c.finish().unwrap();
    }

    #[test]
    fn hello_roundtrip_and_version_typed() {
        let hello = Hello {
            max_version: 7,
            client_id: 42,
            class: ShedClass::Bulk,
        };
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
        let ack = HelloAck {
            version: 7,
            window: 32,
        };
        assert_eq!(HelloAck::decode(&ack.encode()).unwrap(), ack);
        // A payload from another protocol revision is a typed error.
        let mut other = hello.encode();
        other[0] = 6;
        assert!(matches!(
            Hello::decode(&other),
            Err(WireError::Version { got: 6, want: 7 })
        ));
    }

    #[test]
    fn tagged_request_roundtrips() {
        let req = Request::RegisterTable {
            name: "t".into(),
            table: table_with_nulls(),
            token: Some(9),
        };
        let payload = encode_request_v7(0xDEAD_BEEF, &req);
        let (tag, back) = decode_request_v7(&payload).unwrap();
        assert_eq!(tag, 0xDEAD_BEEF);
        assert_eq!(back, req);
        assert_eq!(request_frame_tag(&payload).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn tagged_busy_carries_shed_class() {
        let busy = Response::Busy {
            in_flight: 3,
            max_in_flight: 4,
            retry_after_ms: 50,
            shed_class: Some(ShedClass::Normal),
        };
        let payload = encode_response_v7(7, &busy);
        let (tag, back) = decode_response_v7(&payload).unwrap();
        assert_eq!(tag, 7);
        match back {
            Response::Busy { shed_class, .. } => {
                assert_eq!(shed_class, Some(ShedClass::Normal));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
    }
}
