//! Tiny blocking HTTP/1.0 GET client for scraping admin endpoints.
//!
//! Stdlib-only: one `TcpStream` per request, connect/read timeouts so a
//! wedged node cannot hang `zabctl`, read-to-EOF body framing (the admin
//! server closes after each response, HTTP/1.0 style).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on a response we are willing to buffer (traces from a
/// large ring can run to a few MB; beyond this something is wrong).
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// A parsed response: status code plus the full body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// Response body (headers stripped).
    pub body: String,
}

/// Issues `GET path` against `addr` ("host:port") and returns the parsed
/// response. `timeout` bounds the connect and each read individually.
/// Errors do not repeat `addr`: the caller names it.
pub fn get(addr: &str, path: &str, timeout: Duration) -> Result<Response, String> {
    let sock: SocketAddr = addr.parse().map_err(|e| format!("bad address: {e}"))?;
    let mut stream =
        TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| format!("set timeout: {e}"))?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| format!("set timeout: {e}"))?;
    let req = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;

    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if raw.len() > MAX_RESPONSE_BYTES {
                    return Err("response too large".to_string());
                }
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "non-utf8 response".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "truncated response (no header terminator)".to_string())?;
    let status_line = head.lines().next().unwrap_or("");
    let mut parts = status_line.split_whitespace();
    let proto = parts.next().unwrap_or("");
    if !proto.starts_with("HTTP/") {
        return Err(format!("not an HTTP response: {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    Ok(Response { status, body: body.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn gets_body_and_status_from_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let n = conn.read(&mut buf).expect("read");
            let req = String::from_utf8_lossy(&buf[..n]).to_string();
            conn.write_all(b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{\"ok\":1}")
                .expect("write");
            req
        });
        let resp = get(&addr, "/health", Duration::from_secs(2)).expect("get");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"ok\":1}");
        let req = server.join().expect("join");
        assert!(req.starts_with("GET /health HTTP/1.0\r\n"), "request was {req:?}");
    }

    #[test]
    fn reports_connect_failure_without_the_address() {
        // Port 1 on loopback: nothing listens there.
        let err = get("127.0.0.1:1", "/health", Duration::from_millis(300)).unwrap_err();
        assert!(err.starts_with("connect: "), "err was {err:?}");
        assert!(!err.contains("127.0.0.1"), "err was {err:?}");
    }

    #[test]
    fn rejects_non_http_garbage() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let _ = conn.read(&mut buf);
            let _ = conn.write_all(b"SMTP ready\r\n\r\n");
        });
        let err = get(&addr, "/", Duration::from_secs(2)).unwrap_err();
        assert!(err.contains("not an HTTP response"), "err was {err:?}");
    }
}
