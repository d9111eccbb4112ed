//! Ensemble scraping: pull `/health` and `/trace` from every node.
//!
//! A partial ensemble is still useful — a scrape returns whatever nodes
//! answered plus the per-node errors, and callers decide how much they
//! need (status renders what it got; the auditor flags unreachable nodes
//! but still checks the reachable ones).

use crate::http;
use crate::model::{parse_health, parse_raw_trace};
use std::time::Duration;
use zab_trace::health::Health;
use zab_trace::TraceEvent;

/// Default per-request timeout.
pub const SCRAPE_TIMEOUT: Duration = Duration::from_secs(3);

/// One scrape round over the whole ensemble.
#[derive(Debug)]
pub struct EnsembleSnapshot {
    /// Nodes that answered `/health`, as `(addr, document)`, in the
    /// order scraped.
    pub nodes: Vec<(String, Health)>,
    /// Nodes that did not, as `(addr, error)`.
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
    let resp = http::get(addr, "/health", timeout).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("{addr}: /health returned {}", resp.status));
    }
    parse_health(addr, &resp.body)
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
        let result = http::get(addr, "/trace?format=raw", timeout)
            .map_err(|e| e.to_string())
            .and_then(|resp| {
                if resp.status != 200 {
                    return Err(format!("{addr}: /trace returned {}", resp.status));
                }
                parse_raw_trace(addr, &resp.body)
            });
        match result {
            Ok(mut ev) => events.append(&mut ev),
            Err(e) => errors.push((addr.clone(), e)),
        }
    }
    (events, errors)
}
