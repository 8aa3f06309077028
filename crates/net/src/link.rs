//! Shard links: one bidirectional, line-framed channel per shard.
//!
//! The coordinator owns a `Box<dyn ShardLink>` per shard slot and a
//! single mpsc receiver; every link forwards inbound lines as
//! [`LinkEvent`]s tagged with the shard index and the link's
//! *generation*. A TCP link bumps its generation on every (re)connect,
//! so events from a connection that was already torn down — a late
//! `Eof` from a reader thread that lost a race with `reconnect` — can
//! be recognized and ignored instead of killing a healthy replacement
//! connection.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use prism_pipeline::{FaultPlan, LinkFault};

use crate::handshake::client_handshake;

/// An inbound event from one shard link, tagged with the link
/// generation that produced it (always 0 for non-TCP links).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// One protocol line (without the trailing newline).
    Line(u64, String),
    /// The link's read side ended — worker exit, connection cut, or
    /// local teardown. Sent exactly once per connection.
    Eof(u64),
}

/// A bidirectional, line-framed transport to one shard worker. The
/// trait ships opaque lines: framing is "one message per `\n`-terminated
/// line" and nothing here inspects message contents.
pub trait ShardLink: Send {
    /// Writes one protocol line (newline appended) and flushes.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the link is closed or the write fails.
    fn send_line(&mut self, line: &str) -> io::Result<()>;

    /// Tears the link down immediately (kill the subprocess / cut the
    /// socket). Idempotent; the reader thread will follow with its
    /// [`LinkEvent::Eof`].
    fn kill(&mut self);

    /// Closes only the coordinator→worker direction, letting the worker
    /// observe EOF and drain while its own sends still flow.
    fn shutdown_input(&mut self);

    /// Waits for the link's resources — subprocess, reader thread — to
    /// wind down. Call it once the link delivered its [`LinkEvent::Eof`]
    /// or after [`kill`](Self::kill); before either it may block.
    fn reap(&mut self);

    /// Re-establishes a torn-down link, returning the new generation.
    ///
    /// # Errors
    ///
    /// Returns the last dial error, or `Unsupported` for transports
    /// that cannot reconnect (a subprocess's pipes die with it).
    fn reconnect(&mut self) -> io::Result<u64>;

    /// Current link generation (see [`LinkEvent`]).
    fn generation(&self) -> u64;

    /// Whether the peer is on another host (and thus does not share the
    /// coordinator's artifact store).
    fn is_remote(&self) -> bool;

    /// Human-readable peer description for logs and stats.
    fn describe(&self) -> String;
}

// ---------------------------------------------------------------------
// Stdio subprocess link (the original grid transport).
// ---------------------------------------------------------------------

/// A local worker subprocess: protocol lines flow over its stdin/stdout
/// pipes. The caller configures the `Command` (argv, env); the link owns
/// the pipes and the stdout reader thread.
pub struct StdioLink {
    child: Child,
    stdin: Option<ChildStdin>,
    reader: Option<JoinHandle<()>>,
    desc: String,
}

impl StdioLink {
    /// Spawns `command` with piped stdin/stdout (stderr untouched) and
    /// starts a reader thread forwarding stdout lines to `tx` as events
    /// for `shard`.
    ///
    /// # Errors
    ///
    /// Returns the spawn error.
    pub fn spawn(
        mut command: Command,
        shard: usize,
        tx: &mpsc::Sender<(usize, LinkEvent)>,
    ) -> io::Result<StdioLink> {
        let desc = format!("{:?}", command.get_program());
        command.stdin(Stdio::piped()).stdout(Stdio::piped());
        let mut child = command.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("child stdout not captured"))?;
        let tx = tx.clone();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((shard, LinkEvent::Line(0, line))).is_err() {
                    break;
                }
            }
            let _ = tx.send((shard, LinkEvent::Eof(0)));
        });
        Ok(StdioLink {
            child,
            stdin,
            reader: Some(reader),
            desc,
        })
    }
}

impl ShardLink for StdioLink {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "stdin closed"));
        };
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
    }

    fn shutdown_input(&mut self) {
        self.stdin = None;
    }

    fn reap(&mut self) {
        self.stdin = None;
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }

    fn reconnect(&mut self) -> io::Result<u64> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "a subprocess link cannot reconnect",
        ))
    }

    fn generation(&self) -> u64 {
        0
    }

    fn is_remote(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        format!("local subprocess {}", self.desc)
    }
}

// ---------------------------------------------------------------------
// TCP link to a remote worker daemon.
// ---------------------------------------------------------------------

/// How many dial attempts one [`ShardLink::reconnect`] call makes, with
/// doubling backoff starting at [`RECONNECT_BACKOFF_START`].
pub const RECONNECT_ATTEMPTS: u32 = 4;

/// First backoff step of a reconnect (doubles per attempt: 50/100/200/400 ms).
pub const RECONNECT_BACKOFF_START: Duration = Duration::from_millis(50);

/// How long a `delay` link fault holds a frame before delivering it —
/// long enough to trip any realistic heartbeat timeout in tests.
const DELAY_FAULT: Duration = Duration::from_millis(750);

/// A remote worker daemon reached over TCP. Each (re)connect performs
/// the shared-secret handshake before any protocol frame flows, bumps
/// the link generation, and starts a fresh reader thread. The inbound
/// frame counter that drives the plan's link faults ([`LinkFault`])
/// persists across reconnects, so an injected fault fires exactly once
/// per plan entry.
pub struct TcpLink {
    addr: String,
    shard: usize,
    token: String,
    faults: Option<Arc<FaultPlan>>,
    tx: mpsc::Sender<(usize, LinkEvent)>,
    stream: Option<TcpStream>,
    reader: Option<JoinHandle<()>>,
    gen: u64,
    frames: Arc<AtomicU64>,
}

impl TcpLink {
    /// Dials `addr`, runs the handshake as `shard` with `token`, and
    /// starts forwarding inbound lines to `tx`.
    ///
    /// # Errors
    ///
    /// Returns the connect or handshake error (no retries on the first
    /// dial — the caller decides whether a cold host is fatal).
    pub fn connect(
        addr: &str,
        shard: usize,
        token: &str,
        faults: Option<Arc<FaultPlan>>,
        tx: mpsc::Sender<(usize, LinkEvent)>,
    ) -> io::Result<TcpLink> {
        let mut link = TcpLink {
            addr: addr.to_string(),
            shard,
            token: token.to_string(),
            faults,
            tx,
            stream: None,
            reader: None,
            gen: 0,
            frames: Arc::new(AtomicU64::new(0)),
        };
        link.dial()?;
        Ok(link)
    }

    fn dial(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        let _ = stream.set_nodelay(true);
        client_handshake(&stream, self.shard, &self.token)?;
        self.gen += 1;
        let gen = self.gen;
        let shard = self.shard;
        let faults = self.faults.clone();
        let frames = Arc::clone(&self.frames);
        let tx = self.tx.clone();
        let reader_stream = stream.try_clone()?;
        self.reader = Some(std::thread::spawn(move || {
            read_loop(&reader_stream, shard, gen, faults.as_deref(), &frames, &tx);
        }));
        self.stream = Some(stream);
        Ok(())
    }
}

fn read_loop(
    stream: &TcpStream,
    shard: usize,
    gen: u64,
    faults: Option<&FaultPlan>,
    frames: &AtomicU64,
    tx: &mpsc::Sender<(usize, LinkEvent)>,
) {
    let Ok(clone) = stream.try_clone() else {
        let _ = tx.send((shard, LinkEvent::Eof(gen)));
        return;
    };
    for line in BufReader::new(clone).lines() {
        let Ok(line) = line else { break };
        let frame = frames.fetch_add(1, Ordering::SeqCst);
        match faults.and_then(|f| f.link_fault(shard, frame)) {
            Some(LinkFault::Drop) => {
                eprintln!(
                    "[prism-net] fault: dropping frame {frame} of shard {shard}, cutting link"
                );
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
            Some(LinkFault::Delay) => {
                eprintln!("[prism-net] fault: delaying frame {frame} of shard {shard}");
                std::thread::sleep(DELAY_FAULT);
                if tx.send((shard, LinkEvent::Line(gen, line))).is_err() {
                    break;
                }
            }
            Some(LinkFault::Disconnect) => {
                let _ = tx.send((shard, LinkEvent::Line(gen, line)));
                eprintln!("[prism-net] fault: disconnecting shard {shard} after frame {frame}");
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
            None => {
                if tx.send((shard, LinkEvent::Line(gen, line))).is_err() {
                    break;
                }
            }
        }
    }
    let _ = tx.send((shard, LinkEvent::Eof(gen)));
}

impl ShardLink for TcpLink {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "link closed"));
        };
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()
    }

    fn kill(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn shutdown_input(&mut self) {
        if let Some(stream) = self.stream.as_ref() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }

    fn reap(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }

    fn reconnect(&mut self) -> io::Result<u64> {
        self.kill();
        // The old reader sends its Eof and exits once the socket is cut;
        // join it so at most one reader is ever live per link.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let mut backoff = RECONNECT_BACKOFF_START;
        let mut last = io::Error::other("no reconnect attempt made");
        for _ in 0..RECONNECT_ATTEMPTS {
            std::thread::sleep(backoff);
            match self.dial() {
                Ok(()) => return Ok(self.gen),
                Err(e) => {
                    last = e;
                    backoff *= 2;
                }
            }
        }
        Err(last)
    }

    fn generation(&self) -> u64 {
        self.gen
    }

    fn is_remote(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!("remote host {}", self.addr)
    }
}

// ---------------------------------------------------------------------
// Dead placeholder link.
// ---------------------------------------------------------------------

/// A permanently dead link: fills a shard slot when a spawn or connect
/// fails, keeping the shard == slot-index invariant without a live peer.
pub struct DeadLink {
    desc: String,
}

impl DeadLink {
    /// A dead link described as `desc` in logs.
    #[must_use]
    pub fn new(desc: &str) -> DeadLink {
        DeadLink {
            desc: desc.to_string(),
        }
    }
}

impl ShardLink for DeadLink {
    fn send_line(&mut self, _line: &str) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::BrokenPipe, "dead link"))
    }

    fn kill(&mut self) {}

    fn shutdown_input(&mut self) {}

    fn reap(&mut self) {}

    fn reconnect(&mut self) -> io::Result<u64> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "dead link"))
    }

    fn generation(&self) -> u64 {
        0
    }

    fn is_remote(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        format!("dead slot ({})", self.desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::accept_handshake;
    use std::net::TcpListener;

    /// A one-connection echo daemon: handshake, greet, then echo lines.
    fn echo_daemon(token: &'static str) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let Ok(_shard) = accept_handshake(&stream, token) else {
                    continue;
                };
                let mut w = stream.try_clone().unwrap();
                if writeln!(w, "{{\"type\":\"greeting\"}}").is_err() {
                    continue;
                }
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    if line == "quit" {
                        return;
                    }
                    // The peer may cut the link at any point (fault
                    // injection) — a failed echo just ends the session.
                    if writeln!(w, "{line}").is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn plan(spec: &str) -> Option<Arc<FaultPlan>> {
        Some(Arc::new(FaultPlan::parse(spec).unwrap()))
    }

    fn next_line(rx: &mpsc::Receiver<(usize, LinkEvent)>) -> (usize, LinkEvent) {
        rx.recv_timeout(Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn tcp_link_round_trips_lines() {
        let (addr, daemon) = echo_daemon("tok");
        let (tx, rx) = mpsc::channel();
        let mut link = TcpLink::connect(&addr, 3, "tok", None, tx).unwrap();
        assert!(link.is_remote());
        assert_eq!(link.generation(), 1);
        assert_eq!(
            next_line(&rx),
            (3, LinkEvent::Line(1, "{\"type\":\"greeting\"}".into()))
        );
        link.send_line("hello").unwrap();
        assert_eq!(next_line(&rx), (3, LinkEvent::Line(1, "hello".into())));
        link.send_line("quit").unwrap();
        assert_eq!(next_line(&rx), (3, LinkEvent::Eof(1)));
        link.reap();
        daemon.join().unwrap();
    }

    #[test]
    fn tcp_link_reconnect_bumps_generation() {
        let (addr, daemon) = echo_daemon("");
        let (tx, rx) = mpsc::channel();
        let mut link = TcpLink::connect(&addr, 0, "", None, tx).unwrap();
        assert_eq!(
            next_line(&rx).1,
            LinkEvent::Line(1, "{\"type\":\"greeting\"}".into())
        );
        link.kill();
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(1));
        let gen = link.reconnect().unwrap();
        assert_eq!(gen, 2);
        assert_eq!(
            next_line(&rx).1,
            LinkEvent::Line(2, "{\"type\":\"greeting\"}".into())
        );
        link.send_line("quit").unwrap();
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(2));
        link.reap();
        daemon.join().unwrap();
    }

    #[test]
    fn disconnect_fault_cuts_after_the_nth_frame() {
        let (addr, _daemon) = echo_daemon("");
        let (tx, rx) = mpsc::channel();
        let mut link = TcpLink::connect(&addr, 0, "", plan("disconnect:0@1"), tx).unwrap();
        // Frame 0: greeting. Frame 1: first echo — delivered, then cut.
        assert_eq!(
            next_line(&rx).1,
            LinkEvent::Line(1, "{\"type\":\"greeting\"}".into())
        );
        link.send_line("a").unwrap();
        // The cut fires once "a" echoes back, racing this send — either
        // outcome is fine, the frames below are what the fault contracts.
        let _ = link.send_line("b");
        assert_eq!(next_line(&rx).1, LinkEvent::Line(1, "a".into()));
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(1));
        link.kill();
    }

    #[test]
    fn drop_fault_discards_the_frame() {
        let (addr, _daemon) = echo_daemon("");
        let (tx, rx) = mpsc::channel();
        let mut link = TcpLink::connect(&addr, 0, "", plan("drop:0@0"), tx).unwrap();
        // Frame 0 (the greeting) is dropped and the link cut: the only
        // event ever seen is Eof.
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(1));
        link.kill();
    }

    #[test]
    fn wrong_token_fails_the_connect() {
        let (addr, _daemon) = echo_daemon("right");
        let (tx, _rx) = mpsc::channel();
        let err = match TcpLink::connect(&addr, 0, "wrong", None, tx) {
            Err(e) => e,
            Ok(_) => panic!("connect with a wrong token must fail"),
        };
        assert!(err.to_string().contains("rejected"), "{err}");
    }

    #[test]
    fn dead_link_rejects_everything() {
        let mut link = DeadLink::new("connect refused");
        assert!(link.send_line("x").is_err());
        assert!(link.reconnect().is_err());
        assert!(!link.is_remote());
        assert_eq!(link.generation(), 0);
        assert!(link.describe().contains("connect refused"));
        link.kill();
        link.reap();
    }
}
