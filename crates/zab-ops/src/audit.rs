//! Live invariant watchdog over scraped ensemble state.
//!
//! Each audit round takes one [`EnsembleSnapshot`] and checks:
//!
//! - **epoch monotonicity** — a node's epoch never decreases between
//!   rounds (state carried in [`AuditState`]; first sighting just seeds).
//! - **single leader** — at most one active leader per epoch.
//! - **committed bound** — no follower's committed watermark exceeds the
//!   leader's. Sound because the scraper refreshes the leader *after*
//!   the followers, so its watermark is at least as fresh as any
//!   follower reading (both watermarks are monotone).
//! - **delivered-prefix agreement** — any two nodes whose delivery-hash
//!   chains share an anchor must agree on the chain hash at every common
//!   comparison point (stride checkpoints plus equal `last_zxid`
//!   frontiers). Chains with different anchors (a replica that booted
//!   late and re-anchored mid-epoch) are incomparable, not in violation.
//!
//! These are witnesses of the paper's Zab guarantees as seen from the
//! outside: a primary order violation that corrupts or reorders the
//! delivered prefix shows up as a hash divergence; a botched election
//! shows up as an epoch regression or a double leader.

use crate::scrape::EnsembleSnapshot;
use std::collections::BTreeMap;
use zab_trace::health::Health;
use zab_trace::{json_escape, zxid_display};

/// One invariant violation found during an audit round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed: `"epoch-regression"`, `"double-leader"`,
    /// `"committed-ahead-of-leader"`, `"delivery-hash-divergence"`,
    /// or `"unreachable"`.
    pub kind: &'static str,
    /// Server id of the offending node (the first of the pair, for
    /// pairwise checks), or 0 when unknown (unreachable address).
    pub node: u64,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] node {}: {}", self.kind, self.node, self.detail)
    }
}

/// Renders one audit round as a single-line JSON object: `{"round",
/// "nodes", "violations": [{"kind", "node", "detail"}]}`.
pub fn render_round_json(round: u64, nodes: usize, violations: &[Violation]) -> String {
    let rows: Vec<String> = violations
        .iter()
        .map(|v| {
            format!(
                "{{\"kind\":\"{}\",\"node\":{},\"detail\":\"{}\"}}",
                v.kind,
                v.node,
                json_escape(&v.detail)
            )
        })
        .collect();
    format!("{{\"round\":{round},\"nodes\":{nodes},\"violations\":[{}]}}", rows.join(","))
}

/// Cross-round watchdog state (per-node epoch high-water marks).
#[derive(Debug, Default)]
pub struct AuditState {
    max_epoch: BTreeMap<u64, u64>,
    /// Audit rounds completed.
    pub rounds: u64,
}

impl AuditState {
    /// Fresh state: the first round only seeds epoch watermarks.
    pub fn new() -> AuditState {
        AuditState::default()
    }

    /// Runs every invariant over one snapshot; returns the violations.
    /// `flag_unreachable` adds a violation per address that failed to
    /// scrape (watch mode wants this; one-shot `status` does not).
    pub fn check_round(
        &mut self,
        snap: &EnsembleSnapshot,
        flag_unreachable: bool,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        if flag_unreachable {
            for (addr, err) in &snap.errors {
                out.push(Violation {
                    kind: "unreachable",
                    node: 0,
                    detail: format!("{addr}: {err}"),
                });
            }
        }
        let nodes: Vec<&Health> = snap.nodes.iter().map(|(_, h)| h).collect();
        self.check_epoch_monotonicity(&nodes, &mut out);
        check_single_leader(&nodes, &mut out);
        check_committed_bound(&nodes, &mut out);
        check_delivery_agreement(&nodes, &mut out);
        self.rounds += 1;
        out
    }

    fn check_epoch_monotonicity(&mut self, nodes: &[&Health], out: &mut Vec<Violation>) {
        for n in nodes {
            let prev = self.max_epoch.entry(n.node).or_insert(n.epoch);
            if n.epoch < *prev {
                out.push(Violation {
                    kind: "epoch-regression",
                    node: n.node,
                    detail: format!("epoch went backwards: {} -> {}", prev, n.epoch),
                });
            } else {
                *prev = n.epoch;
            }
        }
    }
}

fn check_single_leader(nodes: &[&Health], out: &mut Vec<Violation>) {
    let mut leaders_by_epoch: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for n in nodes {
        if n.leads() {
            leaders_by_epoch.entry(n.epoch).or_default().push(n.node);
        }
    }
    for (epoch, leaders) in leaders_by_epoch {
        if leaders.len() > 1 {
            out.push(Violation {
                kind: "double-leader",
                node: leaders[0],
                detail: format!("epoch {epoch} has {} active leaders: {leaders:?}", leaders.len()),
            });
        }
    }
}

fn check_committed_bound(nodes: &[&Health], out: &mut Vec<Violation>) {
    let Some(leader) = nodes.iter().find(|n| n.leads()) else {
        return;
    };
    for n in nodes {
        if n.node == leader.node {
            continue;
        }
        // Only comparable within the leader's epoch: a follower still
        // replaying an older epoch is behind, never "ahead".
        if n.last_committed_zxid > leader.last_committed_zxid {
            out.push(Violation {
                kind: "committed-ahead-of-leader",
                node: n.node,
                detail: format!(
                    "committed {} > leader {} ({})",
                    zxid_display(n.last_committed_zxid),
                    zxid_display(leader.last_committed_zxid),
                    leader.node
                ),
            });
        }
    }
}

/// Comparison points of one node's chain: every checkpoint plus the
/// current frontier `(last_zxid, hash)`.
fn chain_points(n: &Health) -> BTreeMap<u64, u64> {
    let mut pts: BTreeMap<u64, u64> = n.delivery.checkpoints.iter().copied().collect();
    if n.delivery.last_zxid != 0 {
        pts.insert(n.delivery.last_zxid, n.delivery.hash);
    }
    pts
}

fn check_delivery_agreement(nodes: &[&Health], out: &mut Vec<Violation>) {
    for (i, a) in nodes.iter().enumerate() {
        for b in &nodes[i + 1..] {
            // Incomparable unless both chains start at the same zxid.
            if a.delivery.anchor_zxid == 0 || a.delivery.anchor_zxid != b.delivery.anchor_zxid {
                continue;
            }
            let pa = chain_points(a);
            let pb = chain_points(b);
            for (zxid, ha) in &pa {
                if let Some(hb) = pb.get(zxid) {
                    if ha != hb {
                        out.push(Violation {
                            kind: "delivery-hash-divergence",
                            node: a.node,
                            detail: format!(
                                "nodes {} and {} disagree at zxid {} ({ha:016x} vs {hb:016x})",
                                a.node,
                                b.node,
                                zxid_display(*zxid)
                            ),
                        });
                        // One divergence per pair is enough signal; the
                        // earliest common point localizes it.
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zab_trace::health::DeliveryWitness;

    fn node(id: u64, role: &str, epoch: u64, committed: u64) -> Health {
        Health {
            node: id,
            role: role.to_string(),
            active: true,
            epoch,
            leader: Some(1),
            last_committed_zxid: committed,
            ..Health::default()
        }
    }

    fn snap(nodes: Vec<Health>) -> EnsembleSnapshot {
        let nodes = nodes.into_iter().map(|h| (format!("127.0.0.1:{}", 7460 + h.node), h));
        EnsembleSnapshot { nodes: nodes.collect(), errors: Vec::new() }
    }

    const Z: fn(u64, u64) -> u64 = |e, c| (e << 32) | c;

    #[test]
    fn clean_round_has_no_violations() {
        let mut st = AuditState::new();
        let v = st.check_round(
            &snap(vec![
                node(1, "leading", 1, Z(1, 5)),
                node(2, "following", 1, Z(1, 5)),
                node(3, "following", 1, Z(1, 4)),
            ]),
            true,
        );
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn epoch_regression_is_flagged_across_rounds() {
        let mut st = AuditState::new();
        assert!(st.check_round(&snap(vec![node(2, "following", 3, Z(3, 1))]), false).is_empty());
        let v = st.check_round(&snap(vec![node(2, "following", 2, Z(2, 9))]), false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "epoch-regression");
        assert_eq!(v[0].node, 2);
    }

    #[test]
    fn double_leader_and_committed_bound_are_flagged() {
        let mut st = AuditState::new();
        let v = st.check_round(
            &snap(vec![
                node(1, "leading", 2, Z(2, 3)),
                node(2, "leading", 2, Z(2, 3)),
                node(3, "following", 2, Z(2, 7)),
            ]),
            false,
        );
        assert!(v.iter().any(|x| x.kind == "double-leader"), "violations: {v:?}");
        assert!(
            v.iter().any(|x| x.kind == "committed-ahead-of-leader" && x.node == 3),
            "violations: {v:?}"
        );
    }

    #[test]
    fn delivery_divergence_detected_at_common_checkpoint() {
        let mut a = node(1, "leading", 1, Z(1, 200));
        let mut b = node(2, "following", 1, Z(1, 200));
        a.delivery = DeliveryWitness {
            anchor_zxid: Z(1, 1),
            last_zxid: Z(1, 200),
            hash: 0x1111,
            checkpoints: vec![(Z(1, 64), 0xAA), (Z(1, 128), 0xBB)],
        };
        // Same anchor, same stride, corrupted hash at 128.
        b.delivery = DeliveryWitness {
            anchor_zxid: Z(1, 1),
            last_zxid: Z(1, 192),
            hash: 0x2222,
            checkpoints: vec![(Z(1, 64), 0xAA), (Z(1, 128), 0xFF)],
        };
        let v = AuditState::new().check_round(&snap(vec![a, b]), false);
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert_eq!(v[0].kind, "delivery-hash-divergence");
        assert!(v[0].detail.contains("1:128"), "detail: {}", v[0].detail);
    }

    #[test]
    fn different_anchors_are_incomparable_not_violations() {
        let mut a = node(1, "leading", 1, Z(1, 200));
        let mut b = node(3, "following", 1, Z(1, 200));
        a.delivery = DeliveryWitness {
            anchor_zxid: Z(1, 1),
            last_zxid: Z(1, 128),
            hash: 0x1,
            checkpoints: vec![(Z(1, 64), 0x2)],
        };
        // Node 3 booted late: chain re-anchored at 1:100 — hashes at the
        // same zxids legitimately differ.
        b.delivery = DeliveryWitness {
            anchor_zxid: Z(1, 100),
            last_zxid: Z(1, 128),
            hash: 0x9,
            checkpoints: vec![(Z(1, 128), 0x8)],
        };
        let v = AuditState::new().check_round(&snap(vec![a, b]), false);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn unreachable_nodes_flagged_only_in_watch_mode() {
        let mut s = snap(vec![node(1, "leading", 1, Z(1, 1))]);
        s.errors.push(("127.0.0.1:9".to_string(), "connect refused".to_string()));
        assert!(AuditState::new().check_round(&s, false).is_empty());
        let v = AuditState::new().check_round(&s, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "unreachable");
    }

    #[test]
    fn round_json_escapes_control_characters_in_details() {
        let mut s = snap(vec![node(1, "leading", 1, Z(1, 1))]);
        s.errors.push(("127.0.0.1:\x01".to_string(), "bad\taddress \"x\"\n".to_string()));
        let v = AuditState::new().check_round(&s, true);
        let line = render_round_json(4, s.nodes.len(), &v);
        let parsed = crate::json::Json::parse(&line).expect("audit line is valid JSON");
        let detail = parsed.get("violations").and_then(|v| v.idx(0)).and_then(|v| v.get("detail"));
        assert_eq!(
            detail.and_then(crate::json::Json::as_str),
            Some("127.0.0.1:\x01: bad\taddress \"x\"\n")
        );
        assert_eq!(parsed.get("round").and_then(crate::json::Json::as_u64), Some(4));
        assert!(!line.contains('\n') && !line.contains('\t'), "{line:?}");
    }
}
