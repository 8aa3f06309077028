//! Multi-host sweep fabric: TCP transport for the grid protocol.
//!
//! The grid layer (`prism-grid`) speaks a line-framed NDJSON protocol
//! between a coordinator and its shard workers. This crate lifts that
//! protocol onto the network without knowing anything about its frame
//! *contents*: every abstraction here ships opaque lines.
//!
//! - [`ShardLink`] — the transport trait: one bidirectional, line-framed
//!   channel to a shard worker. Implementations:
//!   [`StdioLink`] (local subprocess over stdin/stdout, the original
//!   grid transport), [`TcpLink`] (remote daemon over TCP with
//!   bounded-backoff [`ShardLink::reconnect`]), and [`DeadLink`] (a
//!   permanently dead placeholder that keeps shard == slot-index
//!   invariants intact when a spawn or connect fails). A link neither
//!   says whether its peer is remote nor describes it: every shard speaks
//!   the same protocol and opens its own configured store, and the
//!   coordinator records which slot dialed which host.
//! - [`serve`] — the daemon side: accept loop + handshake that hands
//!   authenticated connections to a caller-supplied session handler
//!   (`prism worker --listen` plugs the grid worker loop in here).
//! - A shared-secret handshake ([`NET_TOKEN_ENV`]) that runs *before*
//!   any grid-protocol frame crosses the wire.
//! - [`HostSpec`] / [`parse_hosts`] — typed `host:port` list parsing for
//!   `prism grid --hosts`.
//! - Deterministic link chaos: [`TcpLink`] applies the `drop`, `delay`
//!   and `disconnect` entries of a `PRISM_FAULTS` plan
//!   ([`prism_pipeline::FaultPlan`]) to its inbound frames.
//!
//! Byte-framing contract: the grid protocol escapes all control
//! characters inside JSON strings, so a frame never spans lines and a
//! line reader on either end recovers frame boundaries exactly.

#![warn(missing_docs)]

mod handshake;
mod host;
mod link;

pub use handshake::{client_handshake, NET_HANDSHAKE_VERSION, NET_TOKEN_ENV};
pub use host::{parse_hosts, HostSpec, HostSpecError};
pub use link::{DeadLink, LinkEvent, ShardLink, StdioLink, TcpLink};

use std::net::TcpListener;
use std::sync::Arc;

/// Runs a worker daemon accept loop forever: each inbound connection is
/// authenticated with the shared-secret handshake (see [`NET_TOKEN_ENV`])
/// and then handed to `handler` on its own thread, so a coordinator
/// reconnect can race a still-draining previous session without blocking
/// the accept loop. Rejected or failed connections are logged to stderr
/// and dropped; the loop itself never returns.
pub fn serve<F>(listener: TcpListener, token: String, handler: F) -> !
where
    F: Fn(std::net::TcpStream, usize) + Send + Sync + 'static,
{
    let handler = Arc::new(handler);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                eprintln!("[prism-net] accept failed: {e}");
                continue;
            }
        };
        let token = token.clone();
        let handler = Arc::clone(&handler);
        std::thread::spawn(move || match handshake::accept_handshake(&stream, &token) {
            Ok(shard) => handler(stream, shard),
            Err(e) => eprintln!("[prism-net] rejected connection: {e}"),
        });
    }
}
