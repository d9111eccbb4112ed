//! Typed views of the admin-endpoint documents.
//!
//! `NodeHealth` is the parsed `/health` body; `parse_raw_trace` turns a
//! `/trace?format=raw` body back into [`zab_trace::TraceEvent`]s so the
//! stitcher can run on scraped data. Parsing is strict about the fields
//! the auditor reasons over (roles, watermarks, hashes) and lenient about
//! everything else.

use crate::json::Json;
use zab_trace::{Stage, TraceEvent};

/// One follower's replication lag, from the leader's `/health` `lag` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LagRow {
    /// The follower's server id.
    pub peer: u64,
    /// Its cumulative ack watermark (packed zxid), if active.
    pub acked_zxid: Option<u64>,
    /// Committed txns it has not acked, when the leader could compute it.
    pub lag_txns: Option<u64>,
    /// True while the leader is still catch-up syncing this peer.
    pub syncing: bool,
}

/// The delivered-prefix hash witness from `/health` `delivery`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryWitness {
    /// First zxid folded into the current chain (0 = nothing delivered).
    pub anchor_zxid: u64,
    /// Last zxid folded in.
    pub last_zxid: u64,
    /// Chain hash over the delivered prefix since the anchor.
    pub hash: u64,
    /// Stride checkpoints `(zxid, chain hash)`, oldest first.
    pub checkpoints: Vec<(u64, u64)>,
}

/// Commit-latency summary from the node's histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Interpolated median, ms.
    pub p50: u64,
    /// Interpolated 99th percentile, ms.
    pub p99: u64,
    /// Maximum, ms.
    pub max: u64,
}

/// One node's `/health` document, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHealth {
    /// Admin address this was scraped from.
    pub addr: String,
    /// The node's server id.
    pub node: u64,
    /// `"leading"`, `"following"`, `"looking"`, or `"faulted"`.
    pub role: String,
    /// Serving its role (established leader / synced follower).
    pub active: bool,
    /// Current epoch (leader's own, or from last committed elsewhere).
    pub epoch: u64,
    /// Who this node thinks leads, if anyone.
    pub leader: Option<u64>,
    /// Highest committed zxid, packed.
    pub last_committed_zxid: u64,
    /// Highest committed zxid, display form (`"epoch:counter"`).
    pub last_committed: String,
    /// Reachable peer ids (from the `peers` map).
    pub peers_reachable: Vec<u64>,
    /// Per-follower lag (leaders only; empty elsewhere).
    pub lag: Vec<LagRow>,
    /// Delivered-prefix hash witness.
    pub delivery: DeliveryWitness,
    /// Commit-latency summary.
    pub commit_latency_ms: LatencySummary,
}

fn need<'a>(j: &'a Json, key: &'static str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("/health missing {key:?}"))
}

fn need_u64(j: &Json, key: &'static str) -> Result<u64, String> {
    need(j, key)?.as_u64().ok_or_else(|| format!("/health {key:?} is not a u64"))
}

fn parse_hex_hash(j: &Json, what: &str) -> Result<u64, String> {
    let s = j.as_str().ok_or_else(|| format!("{what} is not a hex string"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("{what} {s:?}: {e}"))
}

impl NodeHealth {
    /// Parses a `/health` body scraped from `addr`.
    pub fn parse(addr: &str, body: &str) -> Result<NodeHealth, String> {
        let j = Json::parse(body).map_err(|e| format!("/health from {addr}: {e}"))?;
        let delivery = need(&j, "delivery")?;
        let mut checkpoints = Vec::new();
        for cp in need(delivery, "checkpoints")?.items() {
            let z = cp.idx(0).and_then(Json::as_u64).ok_or("checkpoint zxid")?;
            let h = parse_hex_hash(cp.idx(1).unwrap_or(&Json::Null), "checkpoint hash")?;
            checkpoints.push((z, h));
        }
        let mut lag = Vec::new();
        for l in need(&j, "lag")?.items() {
            lag.push(LagRow {
                peer: need_u64(l, "peer")?,
                acked_zxid: l.get("acked_zxid").and_then(Json::as_u64),
                lag_txns: l.get("lag_txns").and_then(Json::as_u64),
                syncing: l.get("syncing").and_then(Json::as_bool).unwrap_or(false),
            });
        }
        let mut peers_reachable = Vec::new();
        if let Some(peers) = need(&j, "peers")?.members() {
            for (id, ph) in peers {
                if ph.get("reachable").and_then(Json::as_bool) == Some(true) {
                    if let Ok(id) = id.parse() {
                        peers_reachable.push(id);
                    }
                }
            }
        }
        let lat = need(&j, "commit_latency_ms")?;
        Ok(NodeHealth {
            addr: addr.to_string(),
            node: need_u64(&j, "node")?,
            role: need(&j, "role")?.as_str().ok_or("role")?.to_string(),
            active: need(&j, "active")?.as_bool().ok_or("active")?,
            epoch: need_u64(&j, "epoch")?,
            leader: j.get("leader").and_then(Json::as_u64),
            last_committed_zxid: need_u64(&j, "last_committed_zxid")?,
            last_committed: need(&j, "last_committed")?
                .as_str()
                .ok_or("last_committed")?
                .to_string(),
            peers_reachable,
            lag,
            delivery: DeliveryWitness {
                anchor_zxid: need_u64(delivery, "anchor_zxid")?,
                last_zxid: need_u64(delivery, "last_zxid")?,
                hash: parse_hex_hash(need(delivery, "hash")?, "delivery hash")?,
                checkpoints,
            },
            commit_latency_ms: LatencySummary {
                count: need_u64(lat, "count")?,
                p50: need_u64(lat, "p50")?,
                p99: need_u64(lat, "p99")?,
                max: need_u64(lat, "max")?,
            },
        })
    }
}

/// Parses a `/trace?format=raw` body back into trace events.
pub fn parse_raw_trace(addr: &str, body: &str) -> Result<Vec<TraceEvent>, String> {
    let j = Json::parse(body).map_err(|e| format!("/trace from {addr}: {e}"))?;
    let mut events = Vec::with_capacity(j.items().len());
    for e in j.items() {
        let stage_name = e.get("stage").and_then(Json::as_str).ok_or("event stage")?;
        let stage =
            Stage::parse(stage_name).ok_or_else(|| format!("unknown stage {stage_name:?}"))?;
        events.push(TraceEvent {
            ts_us: need_u64(e, "ts_us")?,
            dur_us: e.get("dur_us").and_then(Json::as_u64).unwrap_or(0),
            node: need_u64(e, "node")?,
            zxid: need_u64(e, "zxid")?,
            zxid_end: e.get("zxid_end").and_then(Json::as_u64).unwrap_or(0),
            stage,
            peer: e.get("peer").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    // A representative /health body, shaped exactly like admin.rs emits.
    const HEALTH: &str = concat!(
        r#"{"node":1,"role":"leading","active":true,"epoch":1,"leader":1,"#,
        r#""last_committed":"1:3","last_committed_zxid":4294967299,"#,
        r#""peers":{"2":{"reachable":true,"failed_attempts":0},"3":{"reachable":false,"failed_attempts":4}},"#,
        r#""syncing":[],"#,
        r#""lag":[{"peer":2,"acked_zxid":4294967299,"acked":"1:3","lag_txns":0,"syncing":false},"#,
        r#"{"peer":3,"acked_zxid":null,"acked":null,"lag_txns":null,"syncing":true}],"#,
        r#""delivery":{"anchor_zxid":4294967297,"last_zxid":4294967299,"hash":"00000000deadbeef","#,
        r#""checkpoints":[[4294967360,"0000000000000abc"]]},"#,
        r#""commit_latency_ms":{"count":7,"p50":2,"p99":9,"max":11}}"#
    );

    #[test]
    fn parses_full_health_document() {
        let h = NodeHealth::parse("127.0.0.1:7461", HEALTH).expect("parse");
        assert_eq!(h.node, 1);
        assert_eq!(h.role, "leading");
        assert!(h.active);
        assert_eq!(h.leader, Some(1));
        assert_eq!(h.last_committed_zxid, (1 << 32) | 3);
        assert_eq!(h.peers_reachable, vec![2]);
        assert_eq!(h.lag.len(), 2);
        assert_eq!(h.lag[0].lag_txns, Some(0));
        assert_eq!(h.lag[1].acked_zxid, None);
        assert!(h.lag[1].syncing);
        assert_eq!(h.delivery.hash, 0xdead_beef);
        assert_eq!(h.delivery.checkpoints, vec![((1 << 32) | 64, 0xabc)]);
        assert_eq!(h.commit_latency_ms.p99, 9);
    }

    #[test]
    fn rejects_health_missing_required_fields() {
        let err = NodeHealth::parse("a", r#"{"node":1}"#).unwrap_err();
        assert!(err.contains("delivery"), "err was {err:?}");
        assert!(NodeHealth::parse("a", "not json").is_err());
    }

    #[test]
    fn raw_trace_round_trips_through_exporter() {
        let events = vec![
            TraceEvent {
                ts_us: 10,
                dur_us: 2,
                node: 1,
                zxid: (1 << 32) | 1,
                zxid_end: 0,
                stage: Stage::WireOut,
                peer: 2,
            },
            TraceEvent {
                ts_us: 15,
                dur_us: 0,
                node: 2,
                zxid: (1 << 32) | 1,
                zxid_end: 0,
                stage: Stage::Deliver,
                peer: 0,
            },
        ];
        let body = zab_trace::raw_trace_json(&events);
        let back = parse_raw_trace("x", &body).expect("parse");
        assert_eq!(back, events);
    }

    #[test]
    fn raw_trace_rejects_unknown_stage() {
        let err = parse_raw_trace(
            "x",
            r#"[{"ts_us":1,"dur_us":0,"node":1,"zxid":2,"zxid_end":0,"stage":"warp","peer":0}]"#,
        )
        .unwrap_err();
        assert!(err.contains("warp"), "err was {err:?}");
    }
}
