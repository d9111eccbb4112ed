//! The `/health` document (DESIGN.md §9.2), defined once: the node's
//! admin endpoint renders it with [`Health::to_json`], and `zab-ops`
//! parses a scraped body back into the same [`Health`].
//!
//! Zxids travel as packed JSON integers; hashes as fixed-width hex
//! strings, because a u64 does not survive a round-trip through JSON
//! doubles.

use crate::{json_escape, zxid_display};
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

    /// Renders the document as one JSON object, keys in a fixed order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"node\":{},\"role\":\"{}\",\"active\":{},\"epoch\":{},\"leader\":{},\
             \"last_committed\":\"{}\",\"last_committed_zxid\":{},\"peers\":{{",
            self.node,
            json_escape(&self.role),
            self.active,
            self.epoch,
            or_null(self.leader),
            zxid_display(self.last_committed_zxid),
            self.last_committed_zxid
        );
        comma_separated(&mut out, &self.peers, |out, (id, p)| {
            let _ = write!(
                out,
                "\"{id}\":{{\"reachable\":{},\"failed_attempts\":{}}}",
                p.reachable, p.failed_attempts
            );
        });
        out.push_str("},\"syncing\":[");
        comma_separated(&mut out, &self.syncing, |out, s| {
            let _ = write!(
                out,
                "{{\"peer\":{},\"chunks_remaining\":{},\"bytes_remaining\":{}}}",
                s.peer, s.chunks_remaining, s.bytes_remaining
            );
        });
        out.push_str("],\"lag\":[");
        comma_separated(&mut out, &self.lag, |out, l| {
            let acked = l.acked_zxid.map(|z| format!("\"{}\"", zxid_display(z)));
            let _ = write!(
                out,
                "{{\"peer\":{},\"acked_zxid\":{},\"acked\":{},\"lag_txns\":{},\"syncing\":{}}}",
                l.peer,
                or_null(l.acked_zxid),
                or_null(acked),
                or_null(l.lag_txns),
                l.syncing
            );
        });
        let d = &self.delivery;
        let _ = write!(
            out,
            "],\"delivery\":{{\"anchor_zxid\":{},\"last_zxid\":{},\"hash\":\"{:016x}\",\
             \"checkpoints\":[",
            d.anchor_zxid, d.last_zxid, d.hash
        );
        comma_separated(&mut out, &d.checkpoints, |out, (z, h)| {
            let _ = write!(out, "[{z},\"{h:016x}\"]");
        });
        let lat = &self.commit_latency_ms;
        let _ = write!(
            out,
            "]}},\"commit_latency_ms\":{{\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}}}}",
            lat.count, lat.p50, lat.p99, lat.max
        );
        out
    }
}

/// `v` as JSON, `null` when absent.
fn or_null(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

fn comma_separated<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            h.to_json(),
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
        let json = Health { role: "looking".to_string(), ..Health::default() }.to_json();
        assert!(json.contains(r#""leader":null,"last_committed":"0:0""#), "{json}");
        assert!(json.contains(r#""peers":{},"syncing":[],"lag":[]"#), "{json}");
        assert!(json.contains(r#""hash":"0000000000000000","checkpoints":[]"#), "{json}");
    }
}
