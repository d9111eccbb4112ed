//! The `/health` document (DESIGN.md §9.2), defined once: the node's
//! admin endpoint renders it with [`Health::to_json`], and `zab-ops`
//! parses a scraped body back into the same [`Health`] with
//! [`parse_health`].
//!
//! Zxids travel as packed JSON integers; hashes as fixed-width hex
//! strings, so readers that hold numbers as doubles can still compare
//! them.

use crate::json::Json;
use crate::zxid_display;
use std::collections::BTreeMap;

/// One replica's `/health` document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Health {
    /// The node's server id.
    pub node: u64,
    /// `"leading"`, `"following"`, `"looking"`, or `"faulted"`.
    pub role: String,
    /// Serving its role: an established leader or a synced follower.
    pub active: bool,
    /// The leader's own epoch; elsewhere the epoch of the last commit.
    pub epoch: u64,
    /// Who this node thinks leads; `None` while looking or faulted.
    pub leader: Option<u64>,
    /// Highest committed zxid (packed); also served as `last_committed`
    /// in `epoch:counter` form.
    pub last_committed_zxid: u64,
    /// What this replica knows about each peer's channel, by server id.
    pub peers: BTreeMap<u64, PeerHealth>,
    /// Catch-up syncs in flight (leaders only; empty elsewhere).
    pub syncing: Vec<SyncingPeer>,
    /// Per-follower replication lag (leaders only; empty elsewhere).
    pub lag: Vec<LagRow>,
    /// The rolling delivered-prefix hash, the agreement witness `zabctl
    /// audit` compares across the ensemble.
    pub delivery: DeliveryWitness,
    /// Commit-latency summary of the node's histogram.
    pub commit_latency_ms: LatencySummary,
}

/// One peer's channel, as this replica sees it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerHealth {
    /// Traffic has arrived from the peer and its channel has not broken
    /// since.
    pub reachable: bool,
    /// Consecutive failed outgoing dials (0 while connected).
    pub failed_attempts: u32,
}

/// Live progress of one peer's catch-up sync.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncingPeer {
    /// The syncing peer's server id.
    pub peer: u64,
    /// Sync chunks not yet shipped to it.
    pub chunks_remaining: u64,
    /// Budgeted payload bytes in those chunks.
    pub bytes_remaining: u64,
}

/// One follower's replication lag against the leader's committed
/// frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LagRow {
    /// The follower's server id.
    pub peer: u64,
    /// Its cumulative ack watermark (packed), if it is active.
    pub acked_zxid: Option<u64>,
    /// Committed txns it has not acked, when the leader can tell.
    pub lag_txns: Option<u64>,
    /// A catch-up sync stream is open to it.
    pub syncing: bool,
}

/// The delivered-prefix hash chain: `hash` covers `anchor_zxid..=last_zxid`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryWitness {
    /// First zxid of the chain (0 before any delivery).
    pub anchor_zxid: u64,
    /// Last delivered zxid folded into the chain.
    pub last_zxid: u64,
    /// Chain hash over the delivered prefix since the anchor.
    pub hash: u64,
    /// Stride checkpoints `(zxid, chain hash)`, oldest first.
    pub checkpoints: Vec<(u64, u64)>,
}

/// Commit-latency summary (interpolated quantiles), in ms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl Health {
    /// True for an established leader.
    pub fn leads(&self) -> bool {
        self.role == "leading" && self.active
    }

    /// The document as one JSON object, keys in a fixed order.
    pub fn to_json(&self) -> Json {
        let peers = self.peers.iter().map(|(id, p)| {
            let row =
                [("reachable", p.reachable.into()), ("failed_attempts", p.failed_attempts.into())];
            (id.to_string(), Json::obj(row))
        });
        let syncing = self.syncing.iter().map(|s| {
            Json::obj([
                ("peer", s.peer.into()),
                ("chunks_remaining", s.chunks_remaining.into()),
                ("bytes_remaining", s.bytes_remaining.into()),
            ])
        });
        let lag = self.lag.iter().map(|l| {
            Json::obj([
                ("peer", l.peer.into()),
                ("acked_zxid", l.acked_zxid.into()),
                ("acked", l.acked_zxid.map(zxid_display).into()),
                ("lag_txns", l.lag_txns.into()),
                ("syncing", l.syncing.into()),
            ])
        });
        let d = &self.delivery;
        let checkpoints = d.checkpoints.iter().map(|&(z, h)| Json::Arr(vec![z.into(), hex(h)]));
        let lat = &self.commit_latency_ms;
        Json::obj([
            ("node", self.node.into()),
            ("role", self.role.clone().into()),
            ("active", self.active.into()),
            ("epoch", self.epoch.into()),
            ("leader", self.leader.into()),
            ("last_committed", zxid_display(self.last_committed_zxid).into()),
            ("last_committed_zxid", self.last_committed_zxid.into()),
            ("peers", Json::obj(peers)),
            ("syncing", syncing.collect()),
            ("lag", lag.collect()),
            (
                "delivery",
                Json::obj([
                    ("anchor_zxid", d.anchor_zxid.into()),
                    ("last_zxid", d.last_zxid.into()),
                    ("hash", hex(d.hash)),
                    ("checkpoints", checkpoints.collect()),
                ]),
            ),
            (
                "commit_latency_ms",
                Json::obj([
                    ("count", lat.count.into()),
                    ("p50", lat.p50.into()),
                    ("p99", lat.p99.into()),
                    ("max", lat.max.into()),
                ]),
            ),
        ])
    }
}

/// A hash as its fixed-width hex string.
fn hex(h: u64) -> Json {
    format!("{h:016x}").into()
}

fn parse_hex(j: &Json) -> Option<u64> {
    u64::from_str_radix(j.as_str()?, 16).ok()
}

/// Parses a `/health` body (see [`Health::to_json`]). Every field is
/// required except the `Option`s, which read `null` (or absence) as
/// `None`.
pub fn parse_health(body: &str) -> Result<Health, String> {
    let j = Json::parse(body).map_err(|e| e.to_string())?;
    let opt_u64 = |j: &Json, key| j.get(key).and_then(Json::as_u64);
    let mut peers = BTreeMap::new();
    for (id, p) in j.field("peers", Json::members)? {
        let id = id.parse().map_err(|_| format!("peer id {id:?}"))?;
        let failed_attempts = p.field("failed_attempts", Json::as_u64)?;
        peers.insert(
            id,
            PeerHealth {
                reachable: p.field("reachable", Json::as_bool)?,
                failed_attempts: u32::try_from(failed_attempts)
                    .map_err(|_| format!("failed_attempts {failed_attempts}"))?,
            },
        );
    }
    let syncing = j
        .field("syncing", Some)?
        .items()
        .iter()
        .map(|s| {
            Ok(SyncingPeer {
                peer: s.field("peer", Json::as_u64)?,
                chunks_remaining: s.field("chunks_remaining", Json::as_u64)?,
                bytes_remaining: s.field("bytes_remaining", Json::as_u64)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let lag = j
        .field("lag", Some)?
        .items()
        .iter()
        .map(|l| {
            Ok(LagRow {
                peer: l.field("peer", Json::as_u64)?,
                acked_zxid: opt_u64(l, "acked_zxid"),
                lag_txns: opt_u64(l, "lag_txns"),
                syncing: l.field("syncing", Json::as_bool)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let delivery = j.field("delivery", Some)?;
    let checkpoints = delivery
        .field("checkpoints", Some)?
        .items()
        .iter()
        .map(|cp| {
            let z = cp.idx(0).and_then(Json::as_u64);
            z.zip(cp.idx(1).and_then(parse_hex)).ok_or_else(|| format!("checkpoint {cp}"))
        })
        .collect::<Result<_, String>>()?;
    let lat = j.field("commit_latency_ms", Some)?;
    Ok(Health {
        node: j.field("node", Json::as_u64)?,
        role: j.field("role", Json::as_str)?.to_string(),
        active: j.field("active", Json::as_bool)?,
        epoch: j.field("epoch", Json::as_u64)?,
        leader: opt_u64(&j, "leader"),
        last_committed_zxid: j.field("last_committed_zxid", Json::as_u64)?,
        peers,
        syncing,
        lag,
        delivery: DeliveryWitness {
            anchor_zxid: delivery.field("anchor_zxid", Json::as_u64)?,
            last_zxid: delivery.field("last_zxid", Json::as_u64)?,
            hash: delivery.field("hash", parse_hex)?,
            checkpoints,
        },
        commit_latency_ms: LatencySummary {
            count: lat.field("count", Json::as_u64)?,
            p50: lat.field("p50", Json::as_u64)?,
            p99: lat.field("p99", Json::as_u64)?,
            max: lat.field("max", Json::as_u64)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let h = parse_health(HEALTH).expect("parse");
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
        assert_eq!(h.to_json().to_string(), HEALTH);
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
        assert_eq!(parse_health(&h.to_json().to_string()), Ok(h));
    }

    #[test]
    fn a_zxid_above_2_pow_53_round_trips_exactly() {
        // An f64 reader would round this down to 2^53.
        let h = Health { last_committed_zxid: (1 << 53) + 1, ..Health::default() };
        let back = parse_health(&h.to_json().to_string()).expect("parse");
        assert_eq!(back.last_committed_zxid, (1 << 53) + 1);
    }

    #[test]
    fn rejects_health_missing_required_fields() {
        let err = parse_health(r#"{"node":1}"#).unwrap_err();
        assert!(err.contains("missing"), "err was {err:?}");
        let mut body = HEALTH.replace(r#","failed_attempts":4"#, "");
        let err = parse_health(&body).unwrap_err();
        assert!(err.contains("failed_attempts"), "err was {err:?}");
        body = HEALTH.replace(r#""syncing":[],"#, "");
        assert!(parse_health(&body).unwrap_err().contains("syncing"));
        assert!(parse_health("not json").is_err());
    }

    #[test]
    fn renders_every_row_in_the_served_key_order() {
        let h = Health {
            node: 1,
            role: "leading".to_string(),
            active: true,
            epoch: 4,
            leader: Some(1),
            last_committed_zxid: (4 << 32) | 9,
            peers: [
                (2, PeerHealth { reachable: true, failed_attempts: 0 }),
                (3, PeerHealth { reachable: false, failed_attempts: 5 }),
            ]
            .into_iter()
            .collect(),
            syncing: vec![SyncingPeer { peer: 3, chunks_remaining: 2, bytes_remaining: 4096 }],
            lag: vec![
                LagRow {
                    peer: 2,
                    acked_zxid: Some((4 << 32) | 7),
                    lag_txns: Some(2),
                    syncing: false,
                },
                LagRow { peer: 3, acked_zxid: None, lag_txns: None, syncing: true },
            ],
            delivery: DeliveryWitness {
                anchor_zxid: (4 << 32) | 1,
                last_zxid: (4 << 32) | 9,
                hash: 0xdead_beef,
                checkpoints: vec![((4 << 32) | 64, 0xabc)],
            },
            commit_latency_ms: LatencySummary { count: 1, p50: 3, p99: 3, max: 3 },
        };
        assert_eq!(
            h.to_json().to_string(),
            concat!(
                r#"{"node":1,"role":"leading","active":true,"epoch":4,"leader":1,"#,
                r#""last_committed":"4:9","last_committed_zxid":17179869193,"#,
                r#""peers":{"2":{"reachable":true,"failed_attempts":0},"#,
                r#""3":{"reachable":false,"failed_attempts":5}},"#,
                r#""syncing":[{"peer":3,"chunks_remaining":2,"bytes_remaining":4096}],"#,
                r#""lag":[{"peer":2,"acked_zxid":17179869191,"acked":"4:7","lag_txns":2,"#,
                r#""syncing":false},"#,
                r#"{"peer":3,"acked_zxid":null,"acked":null,"lag_txns":null,"syncing":true}],"#,
                r#""delivery":{"anchor_zxid":17179869185,"last_zxid":17179869193,"#,
                r#""hash":"00000000deadbeef","checkpoints":[[17179869248,"0000000000000abc"]]},"#,
                r#""commit_latency_ms":{"count":1,"p50":3,"p99":3,"max":3}}"#
            )
        );
    }

    #[test]
    fn an_empty_document_renders_nulls_and_empty_rows() {
        let json =
            Health { role: "looking".to_string(), ..Health::default() }.to_json().to_string();
        assert!(json.contains(r#""leader":null,"last_committed":"0:0""#), "{json}");
        assert!(json.contains(r#""peers":{},"syncing":[],"lag":[]"#), "{json}");
        assert!(json.contains(r#""hash":"0000000000000000","checkpoints":[]"#), "{json}");
    }
}
