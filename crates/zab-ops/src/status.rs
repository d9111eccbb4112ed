//! `zabctl status` / `zabctl trace` output assembly and rendering.
//!
//! Both commands render twice: a human table for terminals and a JSON
//! document for scripts (`--json`), with the same facts in each.

use crate::scrape::EnsembleSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use zab_trace::{json_escape, zxid_display, TraceEvent};

/// Renders the ensemble summary as a human-readable table.
pub fn render_status_text(snap: &EnsembleSnapshot) -> String {
    let mut out = String::new();
    match snap.leader() {
        Some(l) => {
            let _ = writeln!(
                out,
                "ensemble: leader={} epoch={} committed={}",
                l.node,
                l.epoch,
                zxid_display(l.last_committed_zxid)
            );
        }
        None => {
            let _ = writeln!(out, "ensemble: no active leader");
        }
    }
    let _ = writeln!(
        out,
        "{:<4} {:<21} {:<10} {:<7} {:<6} {:<12} {:>7} {:>7}",
        "id", "addr", "role", "active", "epoch", "committed", "p50ms", "p99ms"
    );
    for (addr, n) in &snap.nodes {
        let _ = writeln!(
            out,
            "{:<4} {:<21} {:<10} {:<7} {:<6} {:<12} {:>7} {:>7}",
            n.node,
            addr,
            n.role,
            n.active,
            n.epoch,
            zxid_display(n.last_committed_zxid),
            n.commit_latency_ms.p50,
            n.commit_latency_ms.p99
        );
    }
    if let Some(l) = snap.leader() {
        if !l.lag.is_empty() {
            let _ = writeln!(out, "replication lag (leader's view):");
            let _ =
                writeln!(out, "  {:<6} {:<12} {:>9} {:<8}", "peer", "acked", "lag_txns", "state");
            for r in &l.lag {
                let acked = r.acked_zxid.map_or_else(|| "-".to_string(), zxid_display);
                let lag = r.lag_txns.map_or_else(|| "?".to_string(), |n| n.to_string());
                let state = if r.syncing { "syncing" } else { "active" };
                let _ = writeln!(out, "  {:<6} {:<12} {:>9} {:<8}", r.peer, acked, lag, state);
            }
        }
    }
    for (addr, err) in &snap.errors {
        let _ = writeln!(out, "unreachable: {addr}: {err}");
    }
    out
}

/// Renders the ensemble summary as one JSON object: each node is its
/// `/health` document plus the `addr` it was scraped from. Top-level
/// `last_committed_zxid` is the leader's watermark (0 with no leader) so
/// scripts can grab a commit to trace without digging into the node list.
pub fn render_status_json(snap: &EnsembleSnapshot) -> String {
    let mut out = String::new();
    match snap.leader() {
        Some(l) => {
            let _ = write!(
                out,
                "{{\"leader\":{},\"epoch\":{},\"last_committed_zxid\":{},\
                 \"last_committed\":\"{}\"",
                l.node,
                l.epoch,
                l.last_committed_zxid,
                zxid_display(l.last_committed_zxid)
            );
        }
        None => out.push_str("{\"leader\":null,\"epoch\":null,\"last_committed_zxid\":0"),
    }
    out.push_str(",\"nodes\":[");
    for (i, (addr, n)) in snap.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // The document is one object: open it with `addr`, then its own
        // members after the leading `{`.
        let doc = n.to_json();
        let _ = write!(out, "{{\"addr\":\"{}\",{}", json_escape(addr), &doc[1..]);
    }
    out.push_str("],\"errors\":[");
    for (i, (addr, err)) in snap.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"addr\":\"{}\",\"error\":\"{}\"}}",
            json_escape(addr),
            json_escape(err)
        );
    }
    out.push_str("]}");
    out
}

/// Renders a stitched cross-node timeline for one zxid. `events` must
/// already be aligned (see [`zab_trace::align::stitch`]); `offsets` is
/// the per-node clock-offset estimate used, for the header.
pub fn render_timeline_text(
    zxid: u64,
    events: &[TraceEvent],
    offsets: &BTreeMap<u64, i64>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "timeline for zxid {} ({})", zxid_display(zxid), zxid);
    let mut offs: Vec<String> = offsets.iter().map(|(n, o)| format!("{n}:{o:+}us")).collect();
    if offs.is_empty() {
        offs.push("none".to_string());
    }
    let _ = writeln!(out, "clock offsets vs reference: {}", offs.join(" "));
    if events.is_empty() {
        let _ = writeln!(out, "no events (ring may have wrapped past this zxid)");
        return out;
    }
    let t0 = events.iter().map(|e| e.ts_us).min().unwrap_or(0);
    let _ = writeln!(
        out,
        "{:>10} {:<5} {:<14} {:<6} {:>8}",
        "t(+us)", "node", "stage", "peer", "dur_us"
    );
    for e in events {
        let peer = if e.peer == 0 { "-".to_string() } else { e.peer.to_string() };
        let _ = writeln!(
            out,
            "{:>10} {:<5} {:<14} {:<6} {:>8}",
            e.ts_us - t0,
            e.node,
            e.stage.as_str(),
            peer,
            e.dur_us
        );
    }
    out
}

/// Renders the stitched timeline as JSON: the offsets used plus the
/// aligned events in raw-trace shape.
pub fn render_timeline_json(
    zxid: u64,
    events: &[TraceEvent],
    offsets: &BTreeMap<u64, i64>,
) -> String {
    let mut out = String::new();
    let _ =
        write!(out, "{{\"zxid\":{zxid},\"zxid_display\":\"{}\",\"offsets\":{{", zxid_display(zxid));
    for (i, (n, o)) in offsets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{n}\":{o}");
    }
    let _ = write!(out, "}},\"events\":{}}}", zab_trace::raw_trace_json(events));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zab_trace::health::{Health, LagRow, LatencySummary, PeerHealth};
    use zab_trace::Stage;

    fn leader_with_lag() -> EnsembleSnapshot {
        let leader = Health {
            node: 1,
            role: "leading".to_string(),
            active: true,
            epoch: 1,
            leader: Some(1),
            last_committed_zxid: (1 << 32) | 9,
            peers: [(2, PeerHealth { reachable: true, failed_attempts: 0 })].into(),
            lag: vec![
                LagRow {
                    peer: 2,
                    acked_zxid: Some((1 << 32) | 9),
                    lag_txns: Some(0),
                    syncing: false,
                },
                LagRow { peer: 3, acked_zxid: None, lag_txns: Some(4), syncing: true },
            ],
            commit_latency_ms: LatencySummary { count: 5, p50: 2, p99: 8, max: 9 },
            ..Health::default()
        };
        EnsembleSnapshot {
            nodes: vec![("127.0.0.1:7461".to_string(), leader)],
            errors: vec![("127.0.0.1:7463".to_string(), "connect: refused".to_string())],
        }
    }

    #[test]
    fn status_json_exposes_leader_watermark_and_lag() {
        let snap = leader_with_lag();
        let json = render_status_json(&snap);
        let parsed = crate::json::Json::parse(&json).expect("valid json");
        assert_eq!(parsed.get("leader").and_then(crate::json::Json::as_u64), Some(1));
        assert_eq!(
            parsed.get("last_committed_zxid").and_then(crate::json::Json::as_u64),
            Some((1 << 32) | 9)
        );
        let lag = parsed.get("nodes").and_then(|n| n.idx(0)).and_then(|n| n.get("lag"));
        assert_eq!(
            lag.and_then(|l| l.idx(1))
                .and_then(|r| r.get("lag_txns"))
                .and_then(crate::json::Json::as_u64),
            Some(4)
        );
        assert_eq!(parsed.get("errors").map(|e| e.items().len()), Some(1));
        // Each node is its whole /health document plus where it came from.
        let node = parsed.get("nodes").and_then(|n| n.idx(0)).expect("node");
        assert_eq!(node.get("addr").and_then(crate::json::Json::as_str), Some("127.0.0.1:7461"));
        assert_eq!(node.get("last_committed").and_then(crate::json::Json::as_str), Some("1:9"));
        assert!(node.get("peers").and_then(|p| p.get("2")).is_some(), "{json}");
        assert!(node.get("syncing").is_some_and(|s| s.items().is_empty()), "{json}");
    }

    #[test]
    fn status_text_shows_lag_table_and_errors() {
        let text = render_status_text(&leader_with_lag());
        assert!(text.contains("leader=1"), "text:\n{text}");
        assert!(text.contains("syncing"), "text:\n{text}");
        assert!(text.contains("unreachable: 127.0.0.1:7463"), "text:\n{text}");
    }

    #[test]
    fn timeline_renders_relative_times_and_offsets() {
        let z = (1u64 << 32) | 5;
        let events = [
            TraceEvent {
                ts_us: 100,
                dur_us: 0,
                node: 1,
                zxid: z,
                zxid_end: z,
                stage: Stage::WireOut,
                peer: 2,
            },
            TraceEvent {
                ts_us: 150,
                dur_us: 0,
                node: 2,
                zxid: z,
                zxid_end: z,
                stage: Stage::Deliver,
                peer: 0,
            },
        ];
        let offsets: BTreeMap<u64, i64> = [(1, 0i64), (2, -1000i64)].into_iter().collect();
        let text = render_timeline_text(z, &events, &offsets);
        assert!(text.contains("2:-1000us"), "text:\n{text}");
        assert!(text.contains("wire-out"), "text:\n{text}");
        let json = render_timeline_json(z, &events, &offsets);
        let parsed = crate::json::Json::parse(&json).expect("valid json");
        assert_eq!(
            parsed.get("offsets").and_then(|o| o.get("2")).and_then(crate::json::Json::as_f64),
            Some(-1000.0)
        );
        assert_eq!(parsed.get("events").map(|e| e.items().len()), Some(2));
    }
}
