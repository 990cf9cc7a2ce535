//! A protocol-v7 connection driven by the benchmark itself: requests are
//! encoded with `wire7::encode_request_v7`, responses decoded with
//! `wire7::decode_response_v7`, and frames read through a buffer, so
//! every response is stamped the moment its last byte arrives.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use paq_server::wire::write_frame;
use paq_server::wire7::{decode_response_v7, encode_request_v7};
use paq_server::{Hello, HelloAck, Request, Response, ShedClass, WIRE_V7};

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    next_tag: u32,
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

impl Conn {
    pub fn open(addr: SocketAddr, class: ShedClass, client_id: u64) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Hello {
            max_version: WIRE_V7,
            client_id,
            class,
        }
        .write_to(&mut stream)
        .map_err(io_err)?;
        let ack = HelloAck::read_from(&mut stream)
            .map_err(io_err)?
            .ok_or_else(|| io_err("server closed during handshake"))?;
        if ack.version != WIRE_V7 {
            return Err(io_err(format!("server negotiated v{}", ack.version)));
        }
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            next_tag: 0,
        })
    }

    pub fn next_tag(&mut self) -> u32 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Write one already-encoded request frame.
    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload).map_err(io_err)
    }

    /// The next complete response frame and the instant its last byte
    /// was read.
    pub fn recv(&mut self) -> io::Result<(Vec<u8>, Instant)> {
        loop {
            if let Some(frame) = self.take_frame() {
                return Ok((frame, Instant::now()));
            }
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io_err("server closed the connection")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn take_frame(&mut self) -> Option<Vec<u8>> {
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if self.buf.len() < 4 + len {
            return None;
        }
        let frame = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Some(frame)
    }

    /// One blocking request/response exchange.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let tag = self.next_tag();
        self.send(&encode_request_v7(tag, request))?;
        let (frame, _) = self.recv()?;
        let (got, response) = decode_response_v7(&frame).map_err(io_err)?;
        if got != tag {
            return Err(io_err(format!("response tag {got}, expected {tag}")));
        }
        Ok(response)
    }
}
