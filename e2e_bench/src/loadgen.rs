//! The load generator: drives pre-encoded frames over the benchmark's
//! connections in a closed loop. Each connection is one client that sends
//! a frame, waits for its reply, pauses for a think time and sends the
//! next, so a host stall delays only the frames in flight.
//!
//! Each connection has one sender thread, which sleeps until a frame is
//! due and writes it, and one reader thread, which blocks on the socket
//! and stamps each reply line the moment it arrives. Replies come back in
//! request order on a connection, so the n-th line answers the n-th frame.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a connection may stay silent while replies are outstanding
/// before they are given up as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// How often a blocked reader wakes to see whether its sender gave up.
const READ_POLL: Duration = Duration::from_millis(50);

/// What happened to one frame.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When the frame was due: the phase start for the first frame on a
    /// connection, else the previous reply plus the frame's think time
    /// (None: never sent).
    pub due: Option<Instant>,
    /// When the frame was written (None: never sent).
    pub sent: Option<Instant>,
    /// When its reply line arrived (None: no reply).
    pub recv: Option<Instant>,
    /// The reply line, without its terminator.
    pub line: Option<String>,
}

/// One frame to send.
pub struct Outgoing<'a> {
    /// Connection index.
    pub conn: usize,
    /// Pause between the previous reply on the connection and this frame.
    pub think: Duration,
    /// The encoded frame, newline included.
    pub bytes: &'a str,
}

/// Drives one phase over `conns` and returns the phase start and one
/// outcome per frame, in input order. No frame is sent once `limit` has
/// passed since the phase start.
pub fn run_phase(
    conns: &[TcpStream],
    frames: &[Outgoing<'_>],
    limit: Option<Duration>,
) -> std::io::Result<(Instant, Vec<Outcome>)> {
    let mut outcomes = vec![Outcome::default(); frames.len()];
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, f) in frames.iter().enumerate() {
        per_conn[f.conn].push(i);
    }
    let mut streams = Vec::new();
    for c in conns {
        streams.push((c.try_clone()?, c.try_clone()?));
    }
    // Lead time so every thread is parked before the first frame is due.
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&per_conn)
            .map(|((writer, reader), idx)| {
                let frames: Vec<&Outgoing<'_>> = idx.iter().map(|&i| &frames[i]).collect();
                s.spawn(move || drive(writer, reader, &frames, start, limit))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    for (idx, res) in per_conn.iter().zip(results) {
        for (&i, o) in idx.iter().zip(res) {
            outcomes[i] = o;
        }
    }
    Ok((start, outcomes))
}

/// One connection: a sender and a reader thread.
fn drive(
    mut writer: TcpStream,
    reader: TcpStream,
    frames: &[&Outgoing<'_>],
    start: Instant,
    limit: Option<Duration>,
) -> Vec<Outcome> {
    let n = frames.len();
    let sent_count = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let (reply_tx, reply_rx) = mpsc::channel::<Instant>();
    std::thread::scope(|s| {
        let reader_thread =
            s.spawn(|| read_replies(reader, n, &sent_count, &sender_done, reply_tx));
        let mut sent = vec![None; n];
        for (i, f) in frames.iter().enumerate() {
            let due = if i == 0 {
                start
            } else {
                match reply_rx.recv_timeout(REPLY_TIMEOUT) {
                    Ok(replied) => replied + f.think,
                    Err(_) => break,
                }
            };
            if limit.is_some_and(|l| due >= start + l) {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if writer.write_all(f.bytes.as_bytes()).is_err() {
                break;
            }
            sent[i] = Some((due, Instant::now()));
            sent_count.store(i + 1, Ordering::SeqCst);
        }
        sender_done.store(true, Ordering::SeqCst);
        let replies = reader_thread.join().expect("reply reader panicked");
        sent.into_iter()
            .zip(replies)
            .map(|(sent, reply)| Outcome {
                due: sent.map(|s| s.0),
                sent: sent.map(|s| s.1),
                recv: reply.as_ref().map(|r| r.0),
                line: reply.map(|r| r.1),
            })
            .collect()
    })
}

/// Reads reply lines until `n` arrived, or the sender stopped and every
/// sent frame was answered, or the connection went silent for
/// [`REPLY_TIMEOUT`] with replies outstanding.
fn read_replies(
    mut reader: TcpStream,
    n: usize,
    sent_count: &AtomicUsize,
    sender_done: &AtomicBool,
    reply_tx: mpsc::Sender<Instant>,
) -> Vec<Option<(Instant, String)>> {
    let mut replies = Vec::with_capacity(n);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_activity = Instant::now();
    let _ = reader.set_read_timeout(Some(READ_POLL));
    while replies.len() < n {
        let outstanding = sent_count.load(Ordering::SeqCst) > replies.len();
        if sender_done.load(Ordering::SeqCst) && !outstanding {
            break;
        }
        if outstanding && last_activity.elapsed() > REPLY_TIMEOUT {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                let now = Instant::now();
                last_activity = now;
                buf.extend_from_slice(&chunk[..k]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    replies.push(Some((now, text)));
                    let _ = reply_tx.send(now);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !outstanding {
                    last_activity = Instant::now();
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    replies.resize(n, None);
    replies
}
