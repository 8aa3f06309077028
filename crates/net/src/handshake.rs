//! Shared-secret connection handshake, run before any grid-protocol
//! frame crosses the wire.
//!
//! One NDJSON line each way:
//!
//! ```text
//! coordinator → daemon   {"type":"net-hello","net":1,"shard":3,"token":"..."}
//! daemon → coordinator   {"type":"net-ack","net":1}
//!                     or {"type":"net-reject","reason":"..."}
//! ```
//!
//! The token comes from [`NET_TOKEN_ENV`] on both sides, resolved into
//! [`prism_pipeline::Config::net_token`]; both sides leaving it unset
//! (empty token) is accepted — the token is a mis-wiring/mis-deploy
//! guard for trusted lab networks, not a cryptographic channel. A reject closes the connection without ever
//! reaching the grid protocol, so an old or foreign peer cannot make a
//! v2 worker mis-parse frames.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use prism_pipeline::Json;

/// Environment variable holding the shared handshake secret. Must match
/// between `prism grid --hosts` and every `prism worker --listen` daemon
/// it dials; unset on both sides is accepted.
pub const NET_TOKEN_ENV: &str = "PRISM_NET_TOKEN";

/// Version of the net handshake itself (independent of the grid wire
/// protocol version, which is negotiated afterwards by `Hello`).
pub const NET_HANDSHAKE_VERSION: u64 = 1;

/// How long either side waits for the peer's single handshake line
/// before giving up — keeps a daemon from wedging an accept-handler
/// thread on a silent port scanner.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Constant-time-ish token comparison: always scans both strings fully
/// so the comparison time does not leak the first mismatching byte.
fn tokens_match(a: &str, b: &str) -> bool {
    let a = a.as_bytes();
    let b = b.as_bytes();
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Reads exactly one `\n`-terminated line, byte by byte. Deliberately
/// unbuffered: a `BufReader` here could swallow protocol frames that
/// arrive right behind the handshake line, and those bytes would be
/// lost when the buffer is dropped.
fn read_handshake_line(stream: &TcpStream) -> std::io::Result<String> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut reader = stream.try_clone()?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    let got = loop {
        match reader.read(&mut byte) {
            Ok(0) => break Err(io_err("connection closed during handshake".into())),
            Ok(_) if byte[0] == b'\n' => break Ok(()),
            Ok(_) => {
                line.push(byte[0]);
                if line.len() > 64 * 1024 {
                    break Err(io_err("handshake line too long".into()));
                }
            }
            Err(e) => break Err(e),
        }
    };
    // Clear the timeout before propagating: the grid protocol relies on
    // blocking reads plus heartbeat supervision, not socket timeouts.
    stream.set_read_timeout(None)?;
    got?;
    Ok(String::from_utf8_lossy(&line).into_owned())
}

/// Client (coordinator) side: sends `net-hello` for `shard` and waits
/// for the daemon's ack.
///
/// # Errors
///
/// Returns an error on I/O failure, timeout, a malformed reply, or an
/// explicit `net-reject` (whose reason is included in the message).
pub fn client_handshake(stream: &TcpStream, shard: usize, token: &str) -> std::io::Result<()> {
    let hello = Json::Obj(vec![
        ("type".into(), Json::Str("net-hello".into())),
        ("net".into(), Json::U64(NET_HANDSHAKE_VERSION)),
        ("shard".into(), Json::U64(shard as u64)),
        ("token".into(), Json::Str(token.into())),
    ]);
    let mut w = stream.try_clone()?;
    writeln!(w, "{hello}")?;
    w.flush()?;
    let line = read_handshake_line(stream)?;
    let reply = Json::parse(&line).map_err(|e| io_err(format!("bad handshake reply: {e}")))?;
    match reply.get("type").and_then(Json::as_str) {
        Some("net-ack") => Ok(()),
        Some("net-reject") => {
            let reason = reply
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("unspecified");
            Err(io_err(format!("handshake rejected: {reason}")))
        }
        _ => Err(io_err(format!(
            "unexpected handshake reply: {}",
            line.trim()
        ))),
    }
}

/// Daemon side: reads the client's `net-hello`, checks version and
/// token, and replies with `net-ack` (returning the client's shard id)
/// or `net-reject` (returning an error after telling the peer why).
///
/// # Errors
///
/// Returns an error on I/O failure, timeout, malformed hello, version
/// mismatch, or token mismatch.
pub fn accept_handshake(stream: &TcpStream, token: &str) -> std::io::Result<usize> {
    let line = read_handshake_line(stream)?;
    let reject = |stream: &TcpStream, reason: &str| -> std::io::Result<usize> {
        let frame = Json::Obj(vec![
            ("type".into(), Json::Str("net-reject".into())),
            ("reason".into(), Json::Str(reason.into())),
        ]);
        if let Ok(mut w) = stream.try_clone() {
            let _ = writeln!(w, "{frame}");
            let _ = w.flush();
        }
        Err(io_err(format!("handshake rejected: {reason}")))
    };
    let Ok(hello) = Json::parse(&line) else {
        return reject(stream, "malformed net-hello");
    };
    if hello.get("type").and_then(Json::as_str) != Some("net-hello") {
        return reject(stream, "expected net-hello");
    }
    let version = hello.get("net").and_then(Json::as_u64);
    if version != Some(NET_HANDSHAKE_VERSION) {
        return reject(
            stream,
            &format!(
                "net handshake version mismatch (want {NET_HANDSHAKE_VERSION}, got {})",
                version.map_or_else(|| "none".into(), |v| v.to_string())
            ),
        );
    }
    let offered = hello.get("token").and_then(Json::as_str).unwrap_or("");
    if !tokens_match(offered, token) {
        // Deliberately vague: don't tell an unauthenticated peer whether
        // a token is required or merely wrong.
        return reject(stream, "bad token");
    }
    let Some(shard) = hello.get("shard").and_then(Json::as_u64) else {
        return reject(stream, "missing shard");
    };
    let ack = Json::Obj(vec![
        ("type".into(), Json::Str("net-ack".into())),
        ("net".into(), Json::U64(NET_HANDSHAKE_VERSION)),
    ]);
    let mut w = stream.try_clone()?;
    writeln!(w, "{ack}")?;
    w.flush()?;
    Ok(shard as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn matching_tokens_complete_the_handshake() {
        let (client, server) = pair();
        let t = std::thread::spawn(move || accept_handshake(&server, "s3cret"));
        client_handshake(&client, 7, "s3cret").unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 7);
    }

    #[test]
    fn empty_tokens_on_both_sides_are_accepted() {
        let (client, server) = pair();
        let t = std::thread::spawn(move || accept_handshake(&server, ""));
        client_handshake(&client, 0, "").unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 0);
    }

    #[test]
    fn token_mismatch_is_rejected_on_both_sides() {
        let (client, server) = pair();
        let t = std::thread::spawn(move || accept_handshake(&server, "right"));
        let err = client_handshake(&client, 0, "wrong").unwrap_err();
        assert!(err.to_string().contains("bad token"), "{err}");
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn non_protocol_peer_is_rejected() {
        let (client, server) = pair();
        let t = std::thread::spawn(move || accept_handshake(&server, ""));
        let mut w = client.try_clone().unwrap();
        writeln!(w, "GET / HTTP/1.1").unwrap();
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn deeply_nested_hello_is_rejected_not_fatal() {
        let (client, server) = pair();
        let t = std::thread::spawn(move || accept_handshake(&server, "s3cret"));
        let mut w = client.try_clone().unwrap();
        writeln!(w, "{}", "[".repeat(60_000)).unwrap();
        let reply = read_handshake_line(&client).unwrap();
        assert_eq!(
            Json::parse(&reply)
                .unwrap()
                .get("type")
                .and_then(Json::as_str),
            Some("net-reject"),
            "{reply}"
        );
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn tokens_match_is_exact() {
        assert!(tokens_match("", ""));
        assert!(tokens_match("abc", "abc"));
        assert!(!tokens_match("abc", "abd"));
        assert!(!tokens_match("abc", "abcd"));
        assert!(!tokens_match("abcd", "abc"));
    }
}
