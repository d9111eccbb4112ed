//! Ensemble scraping: pull `/health` and `/trace` from every node.
//!
//! A partial ensemble is still useful — a scrape returns whatever nodes
//! answered plus the per-node errors, and callers decide how much they
//! need (status renders what it got; the auditor flags unreachable nodes
//! but still checks the reachable ones). An error names what failed,
//! not the address: it travels beside its address, and whoever prints
//! the pair names the address once.

use crate::http;
use std::time::Duration;
use zab_trace::health::{parse_health, Health};
use zab_trace::{parse_raw_trace, TraceEvent};

/// Default per-request timeout.
pub const SCRAPE_TIMEOUT: Duration = Duration::from_secs(3);

/// One scrape round over the whole ensemble.
#[derive(Debug)]
pub struct EnsembleSnapshot {
    /// Nodes that answered `/health`, as `(addr, document)`, in the
    /// order scraped.
    pub nodes: Vec<(String, Health)>,
    /// Nodes that did not, as `(addr, error)`; the error does not repeat
    /// the address.
    pub errors: Vec<(String, String)>,
}

impl EnsembleSnapshot {
    /// The leader's health, if an established leader answered.
    pub fn leader(&self) -> Option<&Health> {
        self.nodes.iter().map(|(_, h)| h).find(|h| h.leads())
    }
}

/// Scrapes `/health` from one node.
pub fn health(addr: &str, timeout: Duration) -> Result<Health, String> {
    let resp = http::get(addr, "/health", timeout)?;
    if resp.status != 200 {
        return Err(format!("/health returned {}", resp.status));
    }
    parse_health(&resp.body).map_err(|e| format!("/health: {e}"))
}

/// Scrapes `/health` from every address. For leader-relative invariants
/// (follower committed ≤ leader committed) the leader is re-scraped
/// *after* all followers, so its watermark is at least as fresh as any
/// follower reading — a follower can then never legitimately appear
/// ahead of it.
pub fn ensemble(addrs: &[String], timeout: Duration) -> EnsembleSnapshot {
    let mut nodes = Vec::new();
    let mut errors = Vec::new();
    for addr in addrs {
        match health(addr, timeout) {
            Ok(h) => nodes.push((addr.clone(), h)),
            Err(e) => errors.push((addr.clone(), e)),
        }
    }
    // Second pass: refresh the leader last so cross-node watermark
    // comparisons are sound under monotone reads.
    if let Some((addr, leader)) = nodes.iter_mut().find(|(_, h)| h.leads()) {
        if let Ok(fresh) = health(addr, timeout) {
            *leader = fresh;
        }
    }
    EnsembleSnapshot { nodes, errors }
}

/// Scrapes raw trace events from every address that answers, tagging
/// nothing — events already carry their recording node id. Unreachable
/// nodes are reported in the error list.
pub fn traces(addrs: &[String], timeout: Duration) -> (Vec<TraceEvent>, Vec<(String, String)>) {
    let mut events = Vec::new();
    let mut errors = Vec::new();
    for addr in addrs {
        let result = http::get(addr, "/trace?format=raw", timeout).and_then(|resp| {
            if resp.status != 200 {
                return Err(format!("/trace returned {}", resp.status));
            }
            parse_raw_trace(&resp.body).map_err(|e| format!("/trace: {e}"))
        });
        match result {
            Ok(mut ev) => events.append(&mut ev),
            Err(e) => errors.push((addr.clone(), e)),
        }
    }
    (events, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditState;
    use crate::status::{render_status_json, render_status_text};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn each_report_names_a_failed_address_once() {
        let mut servers = Vec::new();
        // An address whose one connection is answered with `response`.
        let mut serve_once = |response: &'static str| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr").to_string();
            servers.push(std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().expect("accept");
                let _ = conn.read(&mut [0u8; 1024]);
                conn.write_all(response.as_bytes()).expect("respond");
            }));
            addr
        };
        let refused = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let addrs = [
            "127.0.0.1:99999".to_string(),
            refused,
            serve_once("HTTP/1.0 500 Internal Server Error\r\n\r\n"),
            serve_once("HTTP/1.0 200 OK\r\n\r\n{\"node\":"),
        ];
        for addr in addrs {
            let snap = ensemble(std::slice::from_ref(&addr), Duration::from_secs(2));
            assert_eq!(snap.errors.len(), 1, "{addr}: {snap:?}");
            let detail = AuditState::new().check_round(&snap, true).remove(0).detail;
            for report in [render_status_text(&snap), render_status_json(&snap), detail] {
                assert_eq!(report.matches(addr.as_str()).count(), 1, "{report}");
            }
        }
        for server in servers {
            server.join().expect("server thread");
        }
    }
}
