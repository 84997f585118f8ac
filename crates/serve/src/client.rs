//! A minimal blocking client for the wire protocol — enough for tests,
//! benches, examples, and operator scripts; not a connection pool.
//!
//! `request` keeps one request in flight: it writes a frame, then
//! blocks until the matching response frame arrives. To pipeline, write
//! several frames with `send_line` and then call `read_response` once
//! per frame — the server answers each connection in request order.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use nlidb_json::{decode_frame, encode_frame, ToJson};

use crate::protocol::{Request, Response};
use nlidb_json::FromJson;

/// A synchronous protocol client over one TCP connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server (e.g. the address from `ServerHandle::addr`).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { writer: stream, reader })
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.send_line(&encode_frame(&req.to_json()))?;
        self.read_response()
    }

    /// Sends raw bytes verbatim (no framing applied). Lets fault tests
    /// send malformed, oversized, or partial frames.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Reads and decodes the next response frame.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let json = decode_frame(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Response::from_json(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.message().to_string()))
    }
}
