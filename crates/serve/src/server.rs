//! The TCP front end: accept loop, per-connection threads, bounded
//! frame reading, and graceful shutdown.
//!
//! ## Thread model
//!
//! One polling acceptor thread, one engine thread (`crate::engine`),
//! and one thread per live connection. A connection thread decodes,
//! admits and submits *every complete frame already buffered* before it
//! waits for any reply, so requests a client pipelines reach the engine
//! queue together and can share a batch. The replies it owes sit in one
//! per-connection FIFO — a response made on the spot (bad frame, shed,
//! too long) or the engine's reply channel — and once no complete frame
//! is left in the buffer, the thread writes them in request order,
//! waiting on each in turn. Only then does it block on the socket again:
//! it never waits on a read while replies are owed, so a client that
//! pipelines and then waits cannot deadlock it. Replies stay in request
//! order on every connection with no reordering machinery, and no
//! thread beyond the one per connection is needed. In-flight work per
//! connection stays bounded: admission caps it at `per_tenant`
//! questions, and the reader holds at most one partial frame plus the
//! complete frames delivered by its last read. The cap also applies
//! within one connection: a client that pipelines more than its
//! tenant's cap may get `overloaded` replies for the excess, and how
//! many depends on how far the engine has got.
//!
//! ## Timeouts never touch response bytes
//!
//! Sockets carry read/write timeouts so blocked threads can observe
//! shutdown, and the acceptor polls. Every timeout affects *when*
//! something happens (latency, shutdown promptness, how long a stalled
//! client is tolerated) — never *what* is answered. Response bytes are
//! produced by the engine from (request, catalog, model) alone; the
//! replay test in `tests/server_determinism.rs` pins this by replaying
//! a fixed request log under different timings and thread counts.
//!
//! ## Failure containment
//!
//! A malformed frame, oversized line, mid-request disconnect, or shed
//! request is handled entirely on the connection thread — the engine
//! never sees it, so catalog, cache, and model state are byte-identical
//! to a history in which the bad request never arrived
//! (`tests/fault_injection.rs`).

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::mem;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nlidb_core::Nlidb;
use nlidb_json::{decode_frame, FrameError, Json, ToJson, MAX_FRAME_BYTES};

use crate::admission::{Admission, AdmissionConfig};
use crate::engine::{Engine, EngineConfig, Job, ServeJob};
use crate::protocol::{ErrorCode, Op, Reply, Request, Response, WireError};

/// How often the acceptor polls for shutdown between `accept` attempts.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Server configuration. [`Default`] gives a loopback server on an
/// OS-assigned port.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 = OS-assigned; read
    /// the actual port from [`ServerHandle::addr`]).
    pub addr: String,
    /// Micro-batch size cap: the engine drains at most this many
    /// already-queued questions into one batch. It never waits for a
    /// batch to fill — an idle engine dispatches a lone question at
    /// once. Affects latency and throughput only, never bytes.
    pub max_batch_questions: usize,
    /// Prediction-cache capacity (`0` disables caching).
    pub cache_capacity: usize,
    /// Admission-control bounds.
    pub admission: AdmissionConfig,
    /// How often blocked connection reads wake to check for shutdown.
    pub read_poll: Duration,
    /// How long a response write may stall before the connection is
    /// dropped (a reader slower than this on a full pipe is shed at the
    /// transport; it never affects what bytes were produced).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch_questions: 32,
            cache_capacity: 1024,
            admission: AdmissionConfig::default(),
            read_poll: Duration::from_millis(25),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// The server entry point (a namespace; state lives in the threads and
/// the returned [`ServerHandle`]).
pub struct Server;

/// State shared by all connection threads.
struct Shared {
    admission: Arc<Admission>,
    /// Responses written across all connections (errors included).
    requests: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    read_poll: Duration,
    write_timeout: Duration,
}

impl Server {
    /// Binds, spawns the engine and acceptor threads, and returns a
    /// handle. The model is *moved in*: the engine thread is its sole
    /// owner for the life of the server (hot-swaps replace it wholesale).
    pub fn start(nlidb: Nlidb, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        // The acceptor polls so shutdown can never hang on a blocked
        // `accept` (accepted sockets are switched back to blocking).
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let admission = Arc::new(Admission::new(cfg.admission));
        let requests = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();

        let engine = Engine::new(
            nlidb,
            Arc::clone(&admission),
            Arc::clone(&requests),
            EngineConfig {
                max_batch_questions: cfg.max_batch_questions.max(1),
                cache_capacity: cfg.cache_capacity,
            },
        );
        let engine_flag = Arc::clone(&shutdown);
        let engine_thread = std::thread::Builder::new()
            .name("nlidb-serve-engine".into())
            .spawn(move || engine.run(jobs_rx, move || engine_flag.store(true, Ordering::SeqCst)))?;

        let shared = Arc::new(Shared {
            admission,
            requests,
            shutdown: Arc::clone(&shutdown),
            read_poll: cfg.read_poll,
            write_timeout: cfg.write_timeout,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();

        let accept_conns = Arc::clone(&conns);
        let accept_shared = Arc::clone(&shared);
        let accept_jobs = jobs_tx.clone();
        let accept_thread = std::thread::Builder::new()
            .name("nlidb-serve-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_jobs, accept_shared, accept_conns);
            })?;

        Ok(ServerHandle {
            addr,
            jobs: jobs_tx,
            shutdown,
            engine: Some(engine_thread),
            accept: Some(accept_thread),
            conns,
        })
    }
}

/// A running server. Dropping the handle shuts the server down and
/// joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    jobs: Sender<Job>,
    shutdown: Arc<AtomicBool>,
    engine: Option<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when the config
    /// asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts down gracefully: in-flight requests are answered, then the
    /// engine, acceptor, and connection threads exit and are joined.
    /// Also safe (and useful) after a protocol-level `shutdown` — it
    /// then just joins the already-stopping threads.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        let (tx, rx) = mpsc::channel();
        if self.jobs.send(Job::Shutdown { reply: tx }).is_ok() {
            // Wait for the engine to drain up to the shutdown job; a
            // bounded wait so a wedged engine cannot hang the caller
            // forever before the joins below.
            let _ = rx.recv_timeout(Duration::from_secs(30));
        }
        // Belt and braces: the engine's shutdown path sets this too.
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles = {
            let mut guard = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            mem::take(&mut *guard)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Polling accept loop: hands each connection its own thread and a
/// cloned job sender.
fn accept_loop(
    listener: TcpListener,
    jobs: Sender<Job>,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_jobs = jobs.clone();
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("nlidb-serve-conn".into())
                    .spawn(move || handle_conn(stream, conn_jobs, conn_shared));
                if let Ok(handle) = spawned {
                    let mut guard = conns.lock().unwrap_or_else(|p| p.into_inner());
                    guard.push(handle);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): back
                // off instead of spinning.
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Bytes requested from the socket per read.
const READ_CHUNK: usize = 4096;

/// One frame taken from a [`LineReader`]'s buffer.
#[derive(Debug, PartialEq)]
enum Frame {
    /// A complete line (terminator included).
    Line(String),
    /// The line exceeded [`MAX_FRAME_BYTES`]; the reader discarded it
    /// through its terminating newline, so framing is intact.
    TooLong,
    /// The line held invalid UTF-8 (consumed through its newline).
    BadUtf8,
}

/// A bounded, shutdown-aware line reader over a blocking socket with a
/// read timeout. Unlike `BufReader::read_line`, it survives timeouts
/// mid-line, holds at most one partial frame plus one read's worth of
/// bytes, resynchronizes after an oversized line instead of ballooning
/// memory, and searches every byte for a terminator exactly once — so
/// a frame near the bound costs linear, not quadratic, time.
struct LineReader<R> {
    stream: R,
    buf: Vec<u8>,
    /// Start of the bytes not yet taken as frames.
    head: usize,
    /// `buf[head..scanned]` is known to hold no newline.
    scanned: usize,
    /// Dropping an oversized line up to its newline.
    discarding: bool,
}

impl<R: Read> LineReader<R> {
    fn new(stream: R) -> LineReader<R> {
        LineReader { stream, buf: Vec::new(), head: 0, scanned: 0, discarding: false }
    }

    /// Takes the next complete frame already buffered, without touching
    /// the socket; `None` when only a partial frame (or nothing) is left.
    fn next_frame(&mut self) -> Option<Frame> {
        let unscanned = self.buf.get(self.scanned..).unwrap_or_default();
        let Some(end) = unscanned.iter().position(|&b| b == b'\n').map(|k| self.scanned + k + 1)
        else {
            // Drop the frames already taken, so the next read appends to
            // the partial line alone.
            self.buf.drain(..self.head);
            self.head = 0;
            self.scanned = self.buf.len();
            // Too much buffered without a terminator: switch to discard
            // mode (drop bytes until the newline) so a runaway line costs
            // one read of memory, not unbounded growth.
            if self.buf.len() >= MAX_FRAME_BYTES {
                self.discarding = true;
            }
            if self.discarding {
                self.buf.clear();
                self.scanned = 0;
            }
            return None;
        };
        let start = mem::replace(&mut self.head, end);
        self.scanned = end;
        if mem::take(&mut self.discarding) {
            return Some(Frame::TooLong);
        }
        let line = self.buf.get(start..end).unwrap_or_default();
        Some(match std::str::from_utf8(line) {
            Ok(s) => Frame::Line(s.to_owned()),
            Err(_) => Frame::BadUtf8,
        })
    }

    /// Blocks until more bytes arrive. Returns `false` when the peer
    /// closed the connection (a partial frame is discarded unprocessed)
    /// or the server is shutting down.
    fn fill(&mut self, shutdown: &AtomicBool) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                    return true;
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        return false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

/// A reply owed to the client, kept in request order.
enum Pending {
    /// Made on the connection thread (bad frame, shed, …).
    Ready(Response),
    /// Submitted to the engine; the result arrives on the channel.
    Queued(Json, Receiver<Result<Reply, WireError>>),
}

/// The per-connection loop: submit every buffered frame, write the
/// replies owed in order, then read more.
fn handle_conn(stream: TcpStream, jobs: Sender<Job>, shared: Arc<Shared>) {
    nlidb_trace::count("server.connections", 1);
    let _ = stream.set_nodelay(true);
    // Accepted sockets must be blocking-with-timeout regardless of what
    // the polling listener's mode was inherited as.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(shared.read_poll));
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream);
    let mut owed: VecDeque<Pending> = VecDeque::new();
    loop {
        while let Some(frame) = reader.next_frame() {
            if let Some(pending) = handle_frame(frame, &jobs, &shared) {
                owed.push_back(pending);
            }
        }
        if !write_owed(&mut writer, &shared, &mut owed) {
            break;
        }
        if !reader.fill(&shared.shutdown) {
            break;
        }
    }
}

/// Decodes one frame and submits it; `None` for a blank line, which is
/// tolerated between frames (interactive use) and gets no reply.
fn handle_frame(frame: Frame, jobs: &Sender<Job>, shared: &Shared) -> Option<Pending> {
    let too_long = || {
        Response::err(
            Json::Null,
            WireError::new(
                ErrorCode::FrameTooLong,
                format!("frame exceeds the {MAX_FRAME_BYTES}-byte limit"),
            ),
        )
    };
    let line = match frame {
        Frame::TooLong => return Some(Pending::Ready(too_long())),
        Frame::BadUtf8 => {
            return Some(Pending::Ready(Response::err(
                Json::Null,
                WireError::new(ErrorCode::BadFrame, "frame is not valid UTF-8"),
            )))
        }
        Frame::Line(line) => line,
    };
    if line.trim().is_empty() {
        return None;
    }
    let _sp = nlidb_trace::span("server.request");
    Some(match decode_frame(&line) {
        Err(FrameError::TooLong(_)) => Pending::Ready(too_long()),
        Err(FrameError::BadJson(m)) => Pending::Ready(Response::err(
            Json::Null,
            WireError::new(ErrorCode::BadFrame, format!("frame is not valid JSON: {m}")),
        )),
        Ok(json) => {
            // Echo the id even when the request is otherwise invalid.
            let id = json.get("id").cloned().unwrap_or(Json::Null);
            match Request::decode(&json) {
                Err(e) => Pending::Ready(Response::err(id, e)),
                Ok(req) => handle_request(req, jobs, shared),
            }
        }
    })
}

/// Admits (if applicable) and submits one decoded request, without
/// waiting for its result.
fn handle_request(req: Request, jobs: &Sender<Job>, shared: &Shared) -> Pending {
    let Request { id, tenant, op } = req;
    let (tx, rx) = mpsc::channel();
    let job = match op {
        Op::Ask(item) => match shared.admission.try_admit(&tenant, 1) {
            Some(permit) => {
                Job::Serve(ServeJob { tenant, items: vec![item], wrap_batch: false, reply: tx, permit })
            }
            None => return Pending::Ready(shed(id, &tenant)),
        },
        Op::Batch { items } => match shared.admission.try_admit(&tenant, items.len()) {
            Some(permit) => {
                Job::Serve(ServeJob { tenant, items, wrap_batch: true, reply: tx, permit })
            }
            None => return Pending::Ready(shed(id, &tenant)),
        },
        Op::RegisterTable { table } => Job::Register { tenant, table, reply: tx },
        Op::SwapCheckpoint { path } => Job::Swap { path, reply: tx },
        Op::Stats => Job::Stats { reply: tx },
        Op::Shutdown => Job::Shutdown { reply: tx },
    };
    if jobs.send(job).is_err() {
        return Pending::Ready(shutting_down(id));
    }
    Pending::Queued(id, rx)
}

/// Writes every owed reply in request order, waiting on the engine for
/// each queued one; returns `false` when the connection should close.
fn write_owed(writer: &mut TcpStream, shared: &Shared, owed: &mut VecDeque<Pending>) -> bool {
    while let Some(pending) = owed.pop_front() {
        let resp = match pending {
            Pending::Ready(resp) => resp,
            Pending::Queued(id, rx) => match rx.recv() {
                Ok(result) => Response { id, result },
                // The engine dropped the queue (shutdown) before answering.
                Err(_) => shutting_down(id),
            },
        };
        if !write_response(writer, shared, resp) {
            return false;
        }
    }
    true
}

/// The response for a request the engine will never answer.
fn shutting_down(id: Json) -> Response {
    Response::err(id, WireError::new(ErrorCode::ShuttingDown, "server is shutting down"))
}

/// The deterministic shed response: its bytes depend only on the
/// request's id and tenant, never on current load.
fn shed(id: Json, tenant: &str) -> Response {
    nlidb_trace::count("server.shed", 1);
    Response::err(
        id,
        WireError::new(
            ErrorCode::Overloaded,
            format!("admission queue full for tenant '{tenant}'; retry later"),
        ),
    )
}

/// Serializes and writes one response frame; returns `false` when the
/// connection should close. Mirrors `nlidb_json::encode_frame` but
/// substitutes a structured error instead of panicking if a response
/// ever exceeds the frame bound.
fn write_response(writer: &mut TcpStream, shared: &Shared, resp: Response) -> bool {
    let mut body = resp.to_json().to_string();
    if body.len() + 1 > MAX_FRAME_BYTES {
        let fallback = Response::err(
            resp.id.clone(),
            WireError::new(
                ErrorCode::ResponseTooLarge,
                "response exceeds the frame limit; narrow the request",
            ),
        );
        body = fallback.to_json().to_string();
    }
    body.push('\n');
    // lint:allow(atomic-ordering): monotonic stats counter bump; nothing synchronizes on it, readers tolerate staleness.
    shared.requests.fetch_add(1, Ordering::Relaxed);
    nlidb_trace::count("server.requests", 1);
    if resp.result.is_err() {
        nlidb_trace::count("server.errors", 1);
    }
    writer.write_all(body.as_bytes()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that hands out scripted chunks, one per `read`, then EOF.
    struct Script(VecDeque<Vec<u8>>);

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let Some(mut chunk) = self.0.pop_front() else { return Ok(0) };
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.0.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    /// Reads the script to EOF, collecting every frame in order.
    fn frames(chunks: Vec<Vec<u8>>) -> Vec<Frame> {
        let mut reader = LineReader::new(Script(chunks.into()));
        let shutdown = AtomicBool::new(false);
        let mut out = Vec::new();
        loop {
            while let Some(frame) = reader.next_frame() {
                out.push(frame);
            }
            if !reader.fill(&shutdown) {
                return out;
            }
        }
    }

    fn line(s: &str) -> Frame {
        Frame::Line(s.to_string())
    }

    #[test]
    fn frame_delivered_one_byte_per_read_is_reassembled() {
        let bytes = b"{\"op\":\"stats\"}\n{}\n";
        let got = frames(bytes.iter().map(|&b| vec![b]).collect());
        assert_eq!(got, vec![line("{\"op\":\"stats\"}\n"), line("{}\n")]);
    }

    #[test]
    fn one_read_yields_every_complete_frame_and_keeps_the_partial_one() {
        let mut reader = LineReader::new(Script(
            vec![b"a\nbb\n\xff\nccc".to_vec(), b"c\n".to_vec()].into(),
        ));
        let shutdown = AtomicBool::new(false);
        assert!(reader.fill(&shutdown));
        assert_eq!(reader.next_frame(), Some(line("a\n")));
        assert_eq!(reader.next_frame(), Some(line("bb\n")));
        assert_eq!(reader.next_frame(), Some(Frame::BadUtf8));
        assert_eq!(reader.next_frame(), None, "the partial frame waits for its newline");
        assert_eq!(reader.buf, b"ccc", "taken frames are dropped from the buffer");
        assert_eq!(reader.scanned, 3, "the partial frame is not searched again");
        assert!(reader.fill(&shutdown));
        assert_eq!(reader.next_frame(), Some(line("cccc\n")));
        assert_eq!(reader.next_frame(), None);
        assert!(!reader.fill(&shutdown), "EOF");
    }

    #[test]
    fn oversized_line_is_dropped_and_the_frame_sharing_its_last_chunk_survives() {
        let mut chunks: Vec<Vec<u8>> =
            (0..(MAX_FRAME_BYTES / READ_CHUNK + 2)).map(|_| vec![b'x'; READ_CHUNK]).collect();
        chunks.push(b"xx\n{\"op\":\"stats\"}\n".to_vec());
        let mut reader = LineReader::new(Script(chunks.into()));
        let shutdown = AtomicBool::new(false);
        let mut got = Vec::new();
        loop {
            while let Some(frame) = reader.next_frame() {
                got.push(frame);
            }
            assert!(reader.buf.len() <= MAX_FRAME_BYTES + READ_CHUNK, "buffer stays bounded");
            if !reader.fill(&shutdown) {
                break;
            }
        }
        assert_eq!(got, vec![Frame::TooLong, line("{\"op\":\"stats\"}\n")]);
    }
}
