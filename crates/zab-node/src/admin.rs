//! Admin HTTP endpoint: live telemetry over plain HTTP/1.0.
//!
//! One background thread serves three read-only routes from a
//! stdlib [`TcpListener`] (no framework, no new dependencies):
//!
//! - `GET /metrics` — the replica's full [`zab_metrics::Snapshot`] in
//!   Prometheus text exposition format,
//! - `GET /health` — role, epoch, last-committed zxid, per-peer
//!   reachability, per-follower replication lag (leaders), the rolling
//!   delivery hash with its stride checkpoints, a commit-latency
//!   p50/p99 summary, and in-flight catch-up syncs as one JSON object,
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

use crate::replica::Role;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zab_metrics::Registry;
use zab_trace::{chrome_trace_json, raw_trace_json, zxid_display, Recorder};

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

/// Health facts only the event loop knows, shared with the admin thread.
/// The loop updates it as events arrive; `GET /health` reads it.
#[derive(Debug, Default)]
pub(crate) struct HealthState {
    /// Highest zxid this replica has committed (packed form).
    pub last_committed: u64,
    /// Per-peer reachability, keyed by server id.
    pub peers: BTreeMap<u64, PeerHealth>,
    /// Peers this replica is catch-up syncing right now (leaders only;
    /// empty elsewhere). Mirrors [`zab_core::Leader::syncing_peers`].
    pub syncing: Vec<SyncingPeer>,
    /// Per-follower replication lag against the committed frontier
    /// (leaders only; empty elsewhere). Mirrors
    /// [`zab_core::Leader::follower_lags`].
    pub lag: Vec<LagEntry>,
    /// Rolling delivered-prefix hash, the watchdog's agreement witness.
    pub delivery: DeliveryState,
}

/// One follower's replication lag, as served by `/health`.
#[derive(Debug, Clone)]
pub(crate) struct LagEntry {
    /// The follower's server id.
    pub peer: u64,
    /// Its cumulative ack watermark (packed), if it is active.
    pub acked_zxid: Option<u64>,
    /// Committed txns it has not acked, when O(1)-computable.
    pub lag_txns: Option<u64>,
    /// True while a catch-up sync stream is open to it.
    pub syncing: bool,
}

/// Snapshot of the node's [`zab_core::DeliveryHash`], as served by
/// `/health`.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryState {
    /// First zxid of the current hash chain (packed; 0 before any
    /// delivery).
    pub anchor: u64,
    /// Last delivered zxid folded into the chain (packed).
    pub last: u64,
    /// Chain hash over `anchor..=last`.
    pub hash: u64,
    /// Stride checkpoints `(zxid, hash)`, oldest first.
    pub checkpoints: Vec<(u64, u64)>,
}

/// Live progress of one peer's catch-up sync, as served by `/health`.
#[derive(Debug, Clone)]
pub(crate) struct SyncingPeer {
    /// The syncing peer's server id.
    pub peer: u64,
    /// Sync chunks not yet shipped to it.
    pub chunks_remaining: u64,
    /// Budgeted payload bytes in those chunks.
    pub bytes_remaining: u64,
}

/// What this replica currently knows about one peer's channel.
#[derive(Debug, Default, Clone)]
pub(crate) struct PeerHealth {
    /// True once traffic has arrived from the peer and its channel has
    /// not broken since.
    pub reachable: bool,
    /// Consecutive failed outgoing dials (0 while connected).
    pub failed_attempts: u32,
}

impl HealthState {
    /// Fresh state tracking `peers` (self excluded by the caller).
    pub fn new(peers: impl IntoIterator<Item = u64>) -> HealthState {
        HealthState {
            last_committed: 0,
            peers: peers.into_iter().map(|p| (p, PeerHealth::default())).collect(),
            syncing: Vec::new(),
            lag: Vec::new(),
            delivery: DeliveryState::default(),
        }
    }

    /// Traffic arrived from `peer`: it is reachable.
    pub fn peer_ok(&mut self, peer: u64) {
        let entry = self.peers.entry(peer).or_default();
        entry.reachable = true;
        entry.failed_attempts = 0;
    }

    /// The channel to/from `peer` broke.
    pub fn peer_down(&mut self, peer: u64) {
        self.peers.entry(peer).or_default().reachable = false;
    }

    /// An outgoing dial to `peer` failed (`attempt` consecutive so far).
    pub fn peer_failed(&mut self, peer: u64, attempt: u32) {
        let entry = self.peers.entry(peer).or_default();
        entry.reachable = false;
        entry.failed_attempts = attempt.saturating_add(1);
    }
}

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
        node: u64,
        metrics: Arc<Registry>,
        recorder: Arc<Recorder>,
        role: Arc<Mutex<Role>>,
        health: Arc<Mutex<HealthState>>,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            serve_loop(listener, thread_stop, node, metrics, recorder, role, health);
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

#[allow(clippy::too_many_arguments)]
fn serve_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    node: u64,
    metrics: Arc<Registry>,
    recorder: Arc<Recorder>,
    role: Arc<Mutex<Role>>,
    health: Arc<Mutex<HealthState>>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                handle_conn(stream, node, &metrics, &recorder, &role, &health);
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
    node: u64,
    metrics: &Registry,
    recorder: &Recorder,
    role: &Mutex<Role>,
    health: &Mutex<HealthState>,
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
            let body = health_json(node, metrics, role, health);
            respond(&mut stream, "200 OK", "application/json", &body);
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

fn health_json(
    node: u64,
    metrics: &Registry,
    role: &Mutex<Role>,
    health: &Mutex<HealthState>,
) -> String {
    let role = *role.lock();
    let (last_committed, peers, syncing, lag, delivery) = {
        let h = health.lock();
        (h.last_committed, h.peers.clone(), h.syncing.clone(), h.lag.clone(), h.delivery.clone())
    };
    // `active` means "serving its role": an established leader or a
    // synced follower. `leader` is null while looking or faulted.
    let (role_str, active, leader) = match role {
        Role::Looking => ("looking", false, None),
        Role::Leading { established, .. } => ("leading", established, Some(node)),
        Role::Following { leader, active } => ("following", active, Some(leader.0)),
        Role::Faulted => ("faulted", false, None),
    };
    let epoch = match role {
        Role::Leading { epoch, .. } => u64::from(epoch.0),
        _ => last_committed >> 32,
    };
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"node\":{node},\"role\":\"{role_str}\",\"active\":{active},\"epoch\":{epoch},\"leader\":"
    );
    match leader {
        Some(l) => {
            let _ = write!(out, "{l}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"last_committed\":\"{}\",\"last_committed_zxid\":{last_committed},\"peers\":{{",
        zxid_display(last_committed)
    );
    for (i, (peer, ph)) in peers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{peer}\":{{\"reachable\":{},\"failed_attempts\":{}}}",
            ph.reachable, ph.failed_attempts
        );
    }
    out.push_str("},\"syncing\":[");
    for (i, s) in syncing.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"peer\":{},\"chunks_remaining\":{},\"bytes_remaining\":{}}}",
            s.peer, s.chunks_remaining, s.bytes_remaining
        );
    }
    out.push_str("],\"lag\":[");
    for (i, l) in lag.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"peer\":{},\"acked_zxid\":", l.peer);
        match l.acked_zxid {
            Some(z) => {
                let _ = write!(out, "{z},\"acked\":\"{}\"", zxid_display(z));
            }
            None => out.push_str("null,\"acked\":null"),
        }
        out.push_str(",\"lag_txns\":");
        match l.lag_txns {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"syncing\":{}}}", l.syncing);
    }
    // Hashes render as fixed-width hex strings: u64 does not survive a
    // round-trip through JSON doubles.
    let _ = write!(
        out,
        "],\"delivery\":{{\"anchor_zxid\":{},\"last_zxid\":{},\"hash\":\"{:016x}\",\
         \"checkpoints\":[",
        delivery.anchor, delivery.last, delivery.hash
    );
    for (i, (z, h)) in delivery.checkpoints.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{z},\"{h:016x}\"]");
    }
    // Commit-latency summary straight from the node's histogram, using the
    // interpolated estimator — operators get p50/p99 from /health without
    // running a bench.
    let lat = metrics.histogram("node.commit_latency_ms").snapshot();
    let _ = write!(
        out,
        "]}},\"commit_latency_ms\":{{\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}}}}",
        lat.count,
        lat.quantile(0.5),
        lat.quantile(0.99),
        lat.max
    );
    out
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

/// Parses a zxid as packed decimal (`4294967297`) or `epoch:counter`
/// (`1:1`).
fn parse_zxid(s: &str) -> Option<u64> {
    if let Some((e, c)) = s.split_once(':') {
        let epoch: u32 = e.parse().ok()?;
        let counter: u32 = c.parse().ok()?;
        Some(((epoch as u64) << 32) | counter as u64)
    } else {
        s.parse().ok()
    }
}

fn trace_json(recorder: &Recorder, query: &TraceQuery) -> String {
    let mut events = recorder.snapshot();
    if let Some(z) = query.zxid {
        // A point event matches exactly; a storage span matches when the
        // zxid falls inside its range — the append/fsync the txn rode in.
        events.retain(|e| if e.is_span() { e.zxid <= z && z <= e.zxid_end } else { e.zxid == z });
    }
    if let Some(last) = query.last {
        if events.len() > last {
            events.drain(..events.len() - last);
        }
    }
    if query.raw {
        raw_trace_json(&events)
    } else {
        chrome_trace_json(&events)
    }
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

    fn server() -> (AdminServer, Arc<Recorder>, Arc<Mutex<HealthState>>) {
        let metrics = Arc::new(Registry::new());
        metrics.counter("core.proposals_proposed").add(7);
        metrics.histogram("node.commit_latency_ms").record(3);
        let clock = Arc::new(ManualClock::new());
        clock.set_micros(10);
        let recorder = Recorder::new(1, 16, clock);
        recorder.record(zab_trace::Stage::Submit, (4 << 32) | 1, 0);
        recorder.record(zab_trace::Stage::Deliver, (4 << 32) | 1, 0);
        let role = Arc::new(Mutex::new(Role::Looking));
        let health = Arc::new(Mutex::new(HealthState::new([2, 3])));
        let server = AdminServer::start(
            "127.0.0.1:0".parse().expect("addr"),
            1,
            metrics,
            Arc::clone(&recorder),
            role,
            Arc::clone(&health),
        )
        .expect("bind");
        (server, recorder, health)
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let (server, _, _) = server();
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"), "head: {head}");
        assert!(body.contains("core_proposals_proposed 7"), "body: {body}");
        assert!(body.contains("node_commit_latency_ms_count 1"), "body: {body}");
    }

    #[test]
    fn health_route_serves_json_with_peers() {
        let (server, _, health) = server();
        health.lock().peer_ok(2);
        health.lock().peer_failed(3, 4);
        health.lock().last_committed = (4 << 32) | 9;
        health.lock().syncing =
            vec![SyncingPeer { peer: 3, chunks_remaining: 2, bytes_remaining: 4096 }];
        let (head, body) = get(server.addr(), "/health");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(body.contains("\"role\":\"looking\""), "body: {body}");
        assert!(body.contains("\"last_committed\":\"4:9\""), "body: {body}");
        assert!(body.contains("\"2\":{\"reachable\":true,\"failed_attempts\":0}"), "body: {body}");
        assert!(body.contains("\"3\":{\"reachable\":false,\"failed_attempts\":5}"), "body: {body}");
        assert!(
            body.contains(
                "\"syncing\":[{\"peer\":3,\"chunks_remaining\":2,\"bytes_remaining\":4096}]"
            ),
            "body: {body}"
        );
    }

    #[test]
    fn trace_route_serves_chrome_json_and_honors_last() {
        let (server, _, _) = server();
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
        let (server, _, _) = server();
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
        let (server, _, _) = server();
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
        let (server, _, _) = server();
        let (head, body) = get(server.addr(), "/trace?format=raw&zxid=4:1");
        assert!(head.starts_with("HTTP/1.0 200"), "head: {head}");
        assert!(body.starts_with('['), "body: {body}");
        assert!(body.contains("\"stage\":\"submit\""), "body: {body}");
        assert!(body.contains(&format!("\"zxid\":{}", (4u64 << 32) | 1)), "body: {body}");
        assert!(body.contains("\"node\":1"), "body: {body}");
    }

    #[test]
    fn health_reports_lag_delivery_and_latency_quantiles() {
        let (server, _, health) = server();
        {
            let mut h = health.lock();
            h.lag = vec![
                LagEntry {
                    peer: 2,
                    acked_zxid: Some((4 << 32) | 7),
                    lag_txns: Some(2),
                    syncing: false,
                },
                LagEntry { peer: 3, acked_zxid: None, lag_txns: None, syncing: true },
            ];
            h.delivery = DeliveryState {
                anchor: (4 << 32) | 1,
                last: (4 << 32) | 9,
                hash: 0xdead_beef,
                checkpoints: vec![((4 << 32) | 64, 0xabc)],
            };
        }
        let (_, body) = get(server.addr(), "/health");
        assert!(
            body.contains(
                "{\"peer\":2,\"acked_zxid\":17179869191,\"acked\":\"4:7\",\"lag_txns\":2,\
                 \"syncing\":false}"
            ),
            "body: {body}"
        );
        assert!(
            body.contains(
                "{\"peer\":3,\"acked_zxid\":null,\"acked\":null,\"lag_txns\":null,\
                 \"syncing\":true}"
            ),
            "body: {body}"
        );
        assert!(body.contains("\"hash\":\"00000000deadbeef\""), "body: {body}");
        assert!(
            body.contains("\"checkpoints\":[[17179869248,\"0000000000000abc\"]]"),
            "body: {body}"
        );
        // The server() fixture recorded one 3ms commit latency.
        assert!(
            body.contains("\"commit_latency_ms\":{\"count\":1,\"p50\":3,\"p99\":3,\"max\":3}"),
            "body: {body}"
        );
    }

    #[test]
    fn malformed_request_line_is_400() {
        let (server, _, _) = server();
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
        let (server, _, _) = server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let huge = format!("GET /metrics HTTP/1.0\r\nX-Pad: {}\r\n\r\n", "a".repeat(8192));
        stream.write_all(huge.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.0 400"), "response: {response}");
    }

    #[test]
    fn slow_loris_is_cut_off_with_408() {
        let (server, _, _) = server();
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
            1,
            Arc::new(Registry::new()),
            recorder,
            Arc::new(Mutex::new(Role::Looking)),
            Arc::new(Mutex::new(HealthState::new([2, 3]))),
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
