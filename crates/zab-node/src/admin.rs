//! Admin HTTP endpoint: live telemetry over plain HTTP/1.0.
//!
//! One background thread serves three read-only routes from a
//! stdlib [`TcpListener`] (no framework, no new dependencies):
//!
//! - `GET /metrics` — the replica's full [`zab_metrics::Snapshot`] in
//!   Prometheus text exposition format,
//! - `GET /health` — the [`Health`] document (role, epoch, last-committed
//!   zxid, per-peer reachability, catch-up syncs, per-follower
//!   replication lag, the rolling delivery hash, a commit-latency
//!   summary), built by the event loop on request; 503 when the loop
//!   does not answer within [`HEALTH_DEADLINE`],
//! - `GET /trace?last=N&zxid=Z&format=raw` — the flight recorder's
//!   current contents as Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`), optionally limited to the newest `N` events,
//!   filtered to one zxid (`Z` as packed decimal or `epoch:counter`), or
//!   rendered as a raw field-preserving array (`format=raw`) for
//!   re-ingestion by `zabctl`.
//!
//! Malformed input gets an HTTP error, not a hang: unknown paths 404,
//! non-GET 405, bad request lines / oversized headers / malformed query
//! parameters 400, and a request that dribbles in slower than
//! [`REQUEST_DEADLINE`] is cut off with 408 (slow-loris bound). A response
//! the client does not read within [`RESPONSE_DEADLINE`] is abandoned.
//!
//! The endpoint is unauthenticated and read-only; [`crate::NodeConfig`]
//! documents that it should bind loopback unless the network is trusted.

use crossbeam::channel::{unbounded, Sender};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zab_metrics::Registry;
use zab_trace::health::Health;
use zab_trace::{chrome_trace_json, parse_zxid, raw_trace_json, Recorder};

/// Accept-loop poll cadence (the listener is non-blocking so the thread
/// can notice the stop flag). Kept coarse deliberately: on small hosts
/// every wake preempts a replica thread, and scrapers poll at 100 ms+, so
/// accept latency of up to one tick is invisible while the idle cost
/// (wakeups/sec × context switch) scales down 1:1 with the cadence.
const POLL_DELAY: Duration = Duration::from_millis(20);
/// Request-header cap; anything longer is answered with 400.
const MAX_REQUEST_BYTES: usize = 4096;
/// Total time a client gets to deliver its request head. A peer that
/// dribbles bytes slower than this (slow loris) is answered 408 and cut
/// off, so one stalled socket can never wedge the single admin thread for
/// longer than the deadline.
const REQUEST_DEADLINE: Duration = Duration::from_millis(1500);
/// Per-read timeout inside the deadline window.
const READ_TIMEOUT: Duration = Duration::from_millis(500);
/// Total time a response gets to drain into the client's socket. A client
/// that asks for a large body (`/trace`) and never reads it fills the
/// kernel send buffer and would block the write forever; past this
/// deadline the response is abandoned, so the single admin thread — and
/// `Replica` drop, which joins it — is never wedged for longer.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(3);
/// How long a `/health` request waits for the event loop's answer. A
/// loop that is wedged or gone costs the admin thread at most this, and
/// the client gets 503.
const HEALTH_DEADLINE: Duration = Duration::from_secs(1);

/// Hands `reply` to the event loop, which answers it with a fresh
/// `/health` document; false once the loop has gone.
pub(crate) type AskHealth = Box<dyn Fn(Sender<Health>) -> bool + Send>;

/// The background HTTP responder. Dropping it stops the thread.
pub(crate) struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (port 0 picks a free port) and starts serving.
    pub fn start(
        addr: SocketAddr,
        metrics: Arc<Registry>,
        recorder: Arc<Recorder>,
        ask_health: AskHealth,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            serve_loop(listener, thread_stop, metrics, recorder, ask_health);
        });
        Ok(AdminServer { addr: local, stop, thread: Some(thread) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    metrics: Arc<Registry>,
    recorder: Arc<Recorder>,
    ask_health: AskHealth,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                handle_conn(stream, &metrics, &recorder, &ask_health);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_DELAY);
            }
            Err(_) => break,
        }
    }
}

fn handle_conn(
    mut stream: TcpStream,
    metrics: &Registry,
    recorder: &Recorder,
    ask_health: &AskHealth,
) {
    let _ = stream.set_nonblocking(false);
    let start = Instant::now();
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    // Read until the header terminator, bounded in both size and time: an
    // oversized head is a 400, a head that has not fully arrived by
    // REQUEST_DEADLINE is a 408 (slow loris), and each individual read
    // waits at most READ_TIMEOUT so the deadline is actually observed.
    loop {
        if buf.len() >= MAX_REQUEST_BYTES {
            respond(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "head too large\n",
            );
            return;
        }
        let remaining = match REQUEST_DEADLINE.checked_sub(start.elapsed()) {
            Some(r) if !r.is_zero() => r,
            _ => {
                respond(
                    &mut stream,
                    "408 Request Timeout",
                    "text/plain; charset=utf-8",
                    "request head too slow\n",
                );
                return;
            }
        };
        let _ = stream.set_read_timeout(Some(remaining.min(READ_TIMEOUT)));
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            // A read timeout is not the deadline: keep looping, the
            // deadline check above decides when to give up.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let Some(line) = request.lines().next() else {
        respond(&mut stream, "400 Bad Request", "text/plain; charset=utf-8", "empty request\n");
        return;
    };
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) if !m.is_empty() => (m, t),
        _ => {
            respond(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "malformed request line\n",
            );
            return;
        }
    };
    if method != "GET" {
        respond(&mut stream, "405 Method Not Allowed", "text/plain; charset=utf-8", "GET only\n");
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => {
            let body = metrics.snapshot().to_prometheus();
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4; charset=utf-8", &body);
        }
        "/health" => {
            let (reply, answer) = unbounded();
            let health =
                if ask_health(reply) { answer.recv_timeout(HEALTH_DEADLINE).ok() } else { None };
            match health {
                Some(health) => {
                    let body = health.to_json().to_string();
                    respond(&mut stream, "200 OK", "application/json", &body);
                }
                None => respond(
                    &mut stream,
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "the event loop did not answer\n",
                ),
            }
        }
        "/trace" => match parse_trace_query(query) {
            Ok(q) => {
                let body = trace_json(recorder, &q);
                respond(&mut stream, "200 OK", "application/json", &body);
            }
            Err(e) => {
                respond(
                    &mut stream,
                    "400 Bad Request",
                    "text/plain; charset=utf-8",
                    &format!("{e}\n"),
                );
            }
        },
        _ => {
            respond(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics, /health, /trace?last=N\n",
            );
        }
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let deadline = Instant::now() + RESPONSE_DEADLINE;
    let _ = write_by(stream, head.as_bytes(), deadline)
        .and_then(|()| write_by(stream, body.as_bytes(), deadline));
    let _ = stream.shutdown(Shutdown::Write);
}

/// Writes all of `buf` unless `deadline` passes first: each write waits at
/// most the time left, so a client that stops reading costs a bounded wait.
fn write_by(stream: &mut TcpStream, mut buf: &[u8], deadline: Instant) -> std::io::Result<()> {
    while !buf.is_empty() {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .filter(|r| !r.is_zero())
            .ok_or(std::io::ErrorKind::TimedOut)?;
        stream.set_write_timeout(Some(remaining))?;
        match stream.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Parsed `/trace` query parameters.
#[derive(Debug, Default, PartialEq, Eq)]
struct TraceQuery {
    /// Keep only the newest N events.
    last: Option<usize>,
    /// Keep only events for this packed zxid (point events and the
    /// storage spans covering it).
    zxid: Option<u64>,
    /// Serve raw field-preserving JSON instead of Chrome trace format.
    raw: bool,
}

/// Parses a `/trace` query string. Unknown parameters are ignored (future
/// compatibility); malformed values for known parameters are a 400.
fn parse_trace_query(query: Option<&str>) -> Result<TraceQuery, &'static str> {
    let mut out = TraceQuery::default();
    let Some(query) = query else { return Ok(out) };
    for kv in query.split('&').filter(|kv| !kv.is_empty()) {
        if let Some(v) = kv.strip_prefix("last=") {
            out.last = Some(v.parse().map_err(|_| "malformed last= parameter")?);
        } else if let Some(v) = kv.strip_prefix("zxid=") {
            out.zxid = Some(parse_zxid(v).ok_or("malformed zxid= parameter")?);
        } else if let Some(v) = kv.strip_prefix("format=") {
            out.raw = match v {
                "raw" => true,
                "chrome" => false,
                _ => return Err("malformed format= parameter (raw|chrome)"),
            };
        }
    }
    Ok(out)
}

fn trace_json(recorder: &Recorder, query: &TraceQuery) -> String {
    let mut events = recorder.snapshot();
    if let Some(z) = query.zxid {
        events.retain(|e| e.covers(z));
    }
    if let Some(last) = query.last {
        if events.len() > last {
            events.drain(..events.len() - last);
        }
    }
    let doc = if query.raw { raw_trace_json(&events) } else { chrome_trace_json(&events) };
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zab_metrics::ManualClock;

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
        (head.to_string(), body.to_string())
    }

    /// The document the fixture's stand-in event loop answers with.
    fn sample_health() -> Health {
        Health { node: 1, role: "looking".to_string(), ..Health::default() }
    }

    fn server() -> AdminServer {
        server_asking(Box::new(|reply| reply.send(sample_health()).is_ok()))
    }

    fn server_asking(ask_health: AskHealth) -> AdminServer {
        let metrics = Arc::new(Registry::new());
        metrics.counter("core.proposals_proposed").add(7);
        metrics.histogram("node.commit_latency_ms").record(3);
        let clock = Arc::new(ManualClock::new());
        clock.set_micros(10);
        let recorder = Recorder::new(1, 16, clock);
        recorder.record(zab_trace::Stage::Submit, (4 << 32) | 1, 0);
        recorder.record(zab_trace::Stage::Deliver, (4 << 32) | 1, 0);
        AdminServer::start("127.0.0.1:0".parse().expect("addr"), metrics, recorder, ask_health)
            .expect("bind")
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let server = server();
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"), "head: {head}");
        assert!(body.contains("core_proposals_proposed 7"), "body: {body}");
        assert!(body.contains("node_commit_latency_ms_count 1"), "body: {body}");
    }

    #[test]
    fn health_route_serves_the_loops_answer() {
        let server = server();
        let (head, body) = get(server.addr(), "/health");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(head.contains("application/json"), "head: {head}");
        assert_eq!(body, sample_health().to_json().to_string());
    }

    #[test]
    fn health_the_loop_never_answers_is_503_within_its_bound() {
        // A stand-in loop that takes every request and never replies.
        let held = Arc::new(std::sync::Mutex::new(Vec::new()));
        let taken = Arc::clone(&held);
        let server = server_asking(Box::new(move |reply| {
            taken.lock().expect("lock").push(reply);
            true
        }));
        let started = Instant::now();
        let (head, _) = get(server.addr(), "/health");
        let waited = started.elapsed();
        assert!(head.starts_with("HTTP/1.0 503"), "head: {head}");
        assert!(
            waited >= HEALTH_DEADLINE && waited < HEALTH_DEADLINE + Duration::from_secs(2),
            "deadline not enforced: waited {waited:?}"
        );
        assert_eq!(held.lock().expect("lock").len(), 1);
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(body.contains("core_proposals_proposed 7"), "body: {body}");
    }

    #[test]
    fn health_after_the_loop_has_gone_is_503_at_once() {
        let server = server_asking(Box::new(|_| false));
        let started = Instant::now();
        let (head, _) = get(server.addr(), "/health");
        assert!(head.starts_with("HTTP/1.0 503"), "head: {head}");
        assert!(started.elapsed() < HEALTH_DEADLINE, "waited {:?}", started.elapsed());
    }

    #[test]
    fn trace_route_serves_chrome_json_and_honors_last() {
        let server = server();
        let (head, body) = get(server.addr(), "/trace");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(body.starts_with("{\"traceEvents\":["), "body: {body}");
        assert!(body.contains("\"submit\""), "body: {body}");
        let (_, limited) = get(server.addr(), "/trace?last=1");
        assert!(!limited.contains("\"submit\""), "limited: {limited}");
        assert!(limited.contains("\"deliver\""), "limited: {limited}");
    }

    #[test]
    fn unknown_route_is_404_and_post_is_405() {
        let server = server();
        let (head, _) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "head: {head}");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.0 405"), "response: {response}");
    }

    #[test]
    fn parse_trace_query_handles_parameters() {
        assert_eq!(parse_trace_query(None), Ok(TraceQuery::default()));
        assert_eq!(parse_trace_query(Some("last=5")).unwrap().last, Some(5));
        assert_eq!(parse_trace_query(Some("foo=1&last=12")).unwrap().last, Some(12));
        assert_eq!(parse_trace_query(Some("foo=1")).unwrap().last, None);
        assert!(parse_trace_query(Some("last=nope")).is_err());
        assert_eq!(parse_trace_query(Some("zxid=4:1")).unwrap().zxid, Some((4 << 32) | 1));
        assert_eq!(parse_trace_query(Some("zxid=17179869185")).unwrap().zxid, Some((4 << 32) | 1));
        assert!(parse_trace_query(Some("zxid=4:")).is_err());
        assert!(parse_trace_query(Some("zxid=wat")).is_err());
        assert!(parse_trace_query(Some("format=raw")).unwrap().raw);
        assert!(!parse_trace_query(Some("format=chrome")).unwrap().raw);
        assert!(parse_trace_query(Some("format=xml")).is_err());
    }

    #[test]
    fn trace_zxid_filter_hits_misses_and_rejects_malformed() {
        let server = server();
        // Exact hit: the recorder holds submit+deliver for zxid 4:1.
        let (head, body) = get(server.addr(), "/trace?zxid=4:1");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(body.contains("\"submit\"") && body.contains("\"deliver\""), "body: {body}");
        // Miss: a zxid nobody recorded yields a valid, empty trace.
        let (head, body) = get(server.addr(), "/trace?zxid=9:9");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(!body.contains("\"submit\""), "body: {body}");
        assert_eq!(body, "{\"traceEvents\":[]}");
        // Malformed: 400, not a silent full dump.
        let (head, _) = get(server.addr(), "/trace?zxid=nope");
        assert!(head.starts_with("HTTP/1.0 400"), "head: {head}");
    }

    #[test]
    fn trace_raw_format_round_trips_fields() {
        let server = server();
        let (head, body) = get(server.addr(), "/trace?format=raw&zxid=4:1");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(body.starts_with('['), "body: {body}");
        assert!(body.contains("\"stage\":\"submit\""), "body: {body}");
        assert!(body.contains(&format!("\"zxid\":{}", (4u64 << 32) | 1)), "body: {body}");
        assert!(body.contains("\"node\":1"), "body: {body}");
    }

    #[test]
    fn malformed_request_line_is_400() {
        let server = server();
        for bad in ["GARBAGE\r\n\r\n", "\r\n\r\n", "GET\r\n\r\n"] {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(bad.as_bytes()).expect("write");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            assert!(response.starts_with("HTTP/1.0 400"), "req {bad:?} → {response}");
        }
    }

    #[test]
    fn oversized_head_is_400() {
        let server = server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let huge = format!("GET /metrics HTTP/1.0\r\nX-Pad: {}\r\n\r\n", "a".repeat(8192));
        stream.write_all(huge.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.0 400"), "response: {response}");
    }

    #[test]
    fn slow_loris_is_cut_off_with_408() {
        let server = server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Send a partial request line and stall past the deadline without
        // ever closing our write side.
        stream.write_all(b"GET /hea").expect("write");
        let started = Instant::now();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.0 408"), "response: {response}");
        let waited = started.elapsed();
        assert!(
            waited >= REQUEST_DEADLINE && waited < REQUEST_DEADLINE + Duration::from_secs(2),
            "deadline not enforced: waited {waited:?}"
        );
    }

    #[test]
    fn client_that_never_reads_cannot_wedge_the_endpoint() {
        // A /trace body well past the kernel's loopback socket buffers:
        // 100 000 events render to ~10 MiB of Chrome JSON.
        let recorder = Recorder::new(1, 100_000, Arc::new(ManualClock::new()));
        for i in 0..100_000u64 {
            recorder.record(zab_trace::Stage::Deliver, (4 << 32) | i, 0);
        }
        assert!(trace_json(&recorder, &TraceQuery::default()).len() > 8 << 20);
        let server = AdminServer::start(
            "127.0.0.1:0".parse().expect("addr"),
            Arc::new(Registry::new()),
            recorder,
            Box::new(|reply| reply.send(sample_health()).is_ok()),
        )
        .expect("bind");
        let addr = server.addr();
        // Declared after `server`, so a failing assertion drops this
        // socket first and unblocks the server before its join.
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled.write_all(b"GET /trace HTTP/1.0\r\n\r\n").expect("write");

        let mut health = TcpStream::connect(addr).expect("connect");
        health.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        health.write_all(b"GET /health HTTP/1.0\r\n\r\n").expect("write");
        let mut response = String::new();
        health.read_to_string(&mut response).expect("/health behind a stalled /trace");
        assert!(response.starts_with("HTTP/1.0 200"), "response: {response}");

        let (tx, rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(server);
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "server drop hung behind a client that never reads"
        );
        dropper.join().expect("dropper thread");
        drop(stalled);
    }
}
