//! Parsers for the admin-endpoint documents.
//!
//! [`parse_health`] reads a `/health` body back into the
//! [`zab_trace::health::Health`] the node rendered it from;
//! [`parse_raw_trace`] turns a `/trace?format=raw` body back into
//! [`zab_trace::TraceEvent`]s so the stitcher can run on scraped data.
//! Every field is required except the `Option`s, which read `null` (or
//! absence) as `None`.

use crate::json::Json;
use zab_trace::health::{DeliveryWitness, Health, LagRow, LatencySummary, PeerHealth, SyncingPeer};
use zab_trace::{Stage, TraceEvent};

fn need<'a>(j: &'a Json, key: &'static str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn need_u64(j: &Json, key: &'static str) -> Result<u64, String> {
    need(j, key)?.as_u64().ok_or_else(|| format!("{key:?} is not a u64"))
}

fn need_bool(j: &Json, key: &'static str) -> Result<bool, String> {
    need(j, key)?.as_bool().ok_or_else(|| format!("{key:?} is not a bool"))
}

fn opt_u64(j: &Json, key: &'static str) -> Option<u64> {
    j.get(key).and_then(Json::as_u64)
}

fn parse_hex_hash(j: &Json, what: &str) -> Result<u64, String> {
    let s = j.as_str().ok_or_else(|| format!("{what} is not a hex string"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("{what} {s:?}: {e}"))
}

/// Parses a `/health` body scraped from `addr` (see
/// [`Health::to_json`]).
pub fn parse_health(addr: &str, body: &str) -> Result<Health, String> {
    let j = Json::parse(body).map_err(|e| e.to_string())?;
    health(&j).map_err(|e| format!("/health from {addr}: {e}"))
}

fn health(j: &Json) -> Result<Health, String> {
    let mut peers = std::collections::BTreeMap::new();
    for (id, p) in need(j, "peers")?.members().ok_or("\"peers\" is not an object")? {
        let id = id.parse().map_err(|_| format!("peer id {id:?}"))?;
        let failed_attempts = need_u64(p, "failed_attempts")?;
        peers.insert(
            id,
            PeerHealth {
                reachable: need_bool(p, "reachable")?,
                failed_attempts: u32::try_from(failed_attempts)
                    .map_err(|_| format!("failed_attempts {failed_attempts}"))?,
            },
        );
    }
    let syncing = need(j, "syncing")?
        .items()
        .iter()
        .map(|s| {
            Ok(SyncingPeer {
                peer: need_u64(s, "peer")?,
                chunks_remaining: need_u64(s, "chunks_remaining")?,
                bytes_remaining: need_u64(s, "bytes_remaining")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let lag = need(j, "lag")?
        .items()
        .iter()
        .map(|l| {
            Ok(LagRow {
                peer: need_u64(l, "peer")?,
                acked_zxid: opt_u64(l, "acked_zxid"),
                lag_txns: opt_u64(l, "lag_txns"),
                syncing: need_bool(l, "syncing")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let delivery = need(j, "delivery")?;
    let checkpoints = need(delivery, "checkpoints")?
        .items()
        .iter()
        .map(|cp| {
            let z = cp.idx(0).and_then(Json::as_u64).ok_or("checkpoint zxid")?;
            Ok((z, parse_hex_hash(cp.idx(1).unwrap_or(&Json::Null), "checkpoint hash")?))
        })
        .collect::<Result<_, String>>()?;
    let lat = need(j, "commit_latency_ms")?;
    Ok(Health {
        node: need_u64(j, "node")?,
        role: need(j, "role")?.as_str().ok_or("\"role\" is not a string")?.to_string(),
        active: need_bool(j, "active")?,
        epoch: need_u64(j, "epoch")?,
        leader: opt_u64(j, "leader"),
        last_committed_zxid: need_u64(j, "last_committed_zxid")?,
        peers,
        syncing,
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

    use std::collections::BTreeMap;

    // A /health body as a node serves it.
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
        let h = parse_health("127.0.0.1:7461", HEALTH).expect("parse");
        assert_eq!(h.node, 1);
        assert!(h.leads());
        assert_eq!(h.leader, Some(1));
        assert_eq!(h.last_committed_zxid, (1 << 32) | 3);
        assert_eq!(h.peers[&2], PeerHealth { reachable: true, failed_attempts: 0 });
        assert_eq!(h.peers[&3], PeerHealth { reachable: false, failed_attempts: 4 });
        assert_eq!(h.lag.len(), 2);
        assert_eq!(h.lag[0].lag_txns, Some(0));
        assert_eq!(h.lag[1].acked_zxid, None);
        assert!(h.lag[1].syncing);
        assert_eq!(h.delivery.hash, 0xdead_beef);
        assert_eq!(h.delivery.checkpoints, vec![((1 << 32) | 64, 0xabc)]);
        assert_eq!(h.commit_latency_ms.p99, 9);
        // Rendering the parsed document reproduces the served body.
        assert_eq!(h.to_json(), HEALTH);
    }

    #[test]
    fn a_fully_populated_document_round_trips() {
        let h = Health {
            node: 2,
            role: "following".to_string(),
            active: true,
            epoch: 7,
            leader: Some(3),
            last_committed_zxid: (7 << 32) | 1200,
            peers: BTreeMap::from([
                (1, PeerHealth { reachable: false, failed_attempts: 9 }),
                (3, PeerHealth { reachable: true, failed_attempts: 0 }),
            ]),
            syncing: vec![SyncingPeer { peer: 1, chunks_remaining: 3, bytes_remaining: 1 << 20 }],
            lag: vec![
                LagRow {
                    peer: 1,
                    acked_zxid: Some((7 << 32) | 1000),
                    lag_txns: Some(200),
                    syncing: true,
                },
                LagRow { peer: 3, acked_zxid: None, lag_txns: None, syncing: false },
            ],
            delivery: DeliveryWitness {
                anchor_zxid: (7 << 32) | 1,
                last_zxid: (7 << 32) | 1200,
                hash: u64::MAX - 1,
                checkpoints: vec![((7 << 32) | 1024, 0x0123_4567_89ab_cdef)],
            },
            commit_latency_ms: LatencySummary { count: 100, p50: 2, p99: 12, max: 40 },
        };
        assert_eq!(parse_health("a", &h.to_json()), Ok(h));
    }

    #[test]
    fn rejects_health_missing_required_fields() {
        let err = parse_health("a", r#"{"node":1}"#).unwrap_err();
        assert!(err.contains("missing"), "err was {err:?}");
        let mut body = HEALTH.replace(r#","failed_attempts":4"#, "");
        let err = parse_health("a", &body).unwrap_err();
        assert!(err.contains("failed_attempts"), "err was {err:?}");
        body = HEALTH.replace(r#""syncing":[],"#, "");
        assert!(parse_health("a", &body).unwrap_err().contains("syncing"));
        assert!(parse_health("a", "not json").is_err());
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
