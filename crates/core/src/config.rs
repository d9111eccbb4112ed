//! Ensemble configuration and quorum systems.
//!
//! Zab is parameterized by a quorum system `Q` such that any two quorums
//! intersect (the paper assumes majorities). The default is
//! [`MajorityQuorum`]; [`WeightedQuorum`] generalizes it to ZooKeeper-style
//! weighted ensembles (e.g. observers get weight 0).

use crate::types::ServerId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::Arc;

/// A quorum system over a fixed ensemble.
///
/// Implementations must guarantee the *intersection property*: any two sets
/// for which [`QuorumSystem::is_quorum`] returns `true` share at least one
/// server. All of Zab's safety arguments rest on it.
pub trait QuorumSystem: Debug + Send + Sync {
    /// True if `acked` forms a quorum.
    fn is_quorum(&self, acked: &BTreeSet<ServerId>) -> bool;

    /// The full ensemble membership.
    fn members(&self) -> &BTreeSet<ServerId>;
}

/// Simple majority quorums: `|acked| > n/2`.
#[derive(Debug, Clone)]
pub struct MajorityQuorum {
    members: BTreeSet<ServerId>,
}

impl MajorityQuorum {
    /// Creates a majority quorum system over `members`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: impl IntoIterator<Item = ServerId>) -> Self {
        let members: BTreeSet<ServerId> = members.into_iter().collect();
        assert!(!members.is_empty(), "ensemble must not be empty");
        MajorityQuorum { members }
    }
}

impl QuorumSystem for MajorityQuorum {
    fn is_quorum(&self, acked: &BTreeSet<ServerId>) -> bool {
        let voters = acked.intersection(&self.members).count();
        voters * 2 > self.members.len()
    }

    fn members(&self) -> &BTreeSet<ServerId> {
        &self.members
    }
}

/// Weighted quorums: a set is a quorum when its total weight strictly
/// exceeds half of the ensemble weight. Zero-weight members model
/// ZooKeeper observers: they receive the stream but never vote.
#[derive(Debug, Clone)]
pub struct WeightedQuorum {
    members: BTreeSet<ServerId>,
    weights: BTreeMap<ServerId, u64>,
    total: u64,
}

impl WeightedQuorum {
    /// Creates a weighted quorum system.
    ///
    /// # Panics
    ///
    /// Panics if no member has positive weight.
    pub fn new(weights: impl IntoIterator<Item = (ServerId, u64)>) -> Self {
        let weights: BTreeMap<ServerId, u64> = weights.into_iter().collect();
        let total: u64 = weights.values().sum();
        assert!(total > 0, "at least one member must have positive weight");
        let members = weights.keys().copied().collect();
        WeightedQuorum { members, weights, total }
    }
}

impl QuorumSystem for WeightedQuorum {
    fn is_quorum(&self, acked: &BTreeSet<ServerId>) -> bool {
        let acked_weight: u64 = acked.iter().filter_map(|id| self.weights.get(id)).sum();
        acked_weight * 2 > self.total
    }

    fn members(&self) -> &BTreeSet<ServerId> {
        &self.members
    }
}

/// Static configuration shared by every server of an ensemble.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The quorum system (shared, immutable).
    pub quorum: Arc<dyn QuorumSystem>,
    /// Maximum number of proposals the leader keeps in flight
    /// (the paper's "multiple outstanding transactions"; requirement 1).
    pub max_outstanding: usize,
    /// Leader→follower ping period, in milliseconds of driver time.
    pub ping_interval_ms: u64,
    /// A follower abandons its leader after this long without traffic.
    pub follower_timeout_ms: u64,
    /// A leader abdicates if it cannot reach a quorum for this long.
    pub leader_timeout_ms: u64,
    /// A prospective leader abandons establishment (phases 1–2) after this
    /// long without completing it.
    pub establish_timeout_ms: u64,
    /// Follower lag (in transactions) above which synchronization uses a
    /// full snapshot (SNAP) instead of a log diff (DIFF).
    pub snap_threshold: u64,
    /// Client requests queued at the leader beyond the outstanding window;
    /// requests past this limit are rejected with back-pressure
    /// (`RejectReason::Overloaded`). Shed-don't-queue: the default is a
    /// small multiple of `max_outstanding`, not "effectively unbounded" —
    /// a deep standing queue only adds latency (every queued request waits
    /// behind the whole queue) without adding throughput, and the paper's
    /// offered-load curve plateaus precisely because excess load is
    /// refused at admission instead of accumulating.
    pub request_queue_limit: usize,
    /// Token-bucket budget (bytes of sync payload per second of driver
    /// time) shared by every in-flight catch-up sync the leader is
    /// shipping. Chunks past the budget wait for refills on `Tick`, so
    /// concurrent rejoining followers cannot starve PROPOSE fan-out.
    /// The bucket holds one second of budget and never less than two
    /// maximal chunks (2 MiB). Pacing cannot be switched off: `0` refills
    /// at that 2 MiB/s floor, because a bucket that never refills would
    /// wedge every multi-chunk sync.
    pub sync_rate_bytes_per_sec: u64,
}

impl ClusterConfig {
    /// Majority-quorum configuration with default timing parameters.
    ///
    /// # Example
    ///
    /// ```
    /// use zab_core::{ClusterConfig, ServerId};
    /// let cfg = ClusterConfig::majority((1..=3).map(ServerId));
    /// assert_eq!(cfg.ensemble_size(), 3);
    /// ```
    pub fn majority(members: impl IntoIterator<Item = ServerId>) -> Self {
        ClusterConfig {
            quorum: Arc::new(MajorityQuorum::new(members)),
            max_outstanding: 1000,
            ping_interval_ms: 50,
            follower_timeout_ms: 400,
            leader_timeout_ms: 400,
            establish_timeout_ms: 2000,
            snap_threshold: 10_000,
            request_queue_limit: 2_000,
            sync_rate_bytes_per_sec: 64 << 20,
        }
    }

    /// Number of servers in the ensemble.
    pub fn ensemble_size(&self) -> usize {
        self.quorum.members().len()
    }

    /// Iterates over ensemble members.
    pub fn members(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.quorum.members().iter().copied()
    }

    /// True if `acked` is a quorum under the configured system.
    pub fn is_quorum(&self, acked: &BTreeSet<ServerId>) -> bool {
        self.quorum.is_quorum(acked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> BTreeSet<ServerId> {
        v.iter().copied().map(ServerId).collect()
    }

    #[test]
    fn majority_of_three_is_two() {
        let q = MajorityQuorum::new(ids(&[1, 2, 3]));
        assert!(!q.is_quorum(&ids(&[1])));
        assert!(q.is_quorum(&ids(&[1, 2])));
        assert!(q.is_quorum(&ids(&[1, 2, 3])));
    }

    #[test]
    fn majority_of_five_is_three() {
        let q = MajorityQuorum::new(ids(&[1, 2, 3, 4, 5]));
        assert!(!q.is_quorum(&ids(&[1, 2])));
        assert!(q.is_quorum(&ids(&[1, 3, 5])));
    }

    #[test]
    fn non_members_do_not_count_toward_majority() {
        let q = MajorityQuorum::new(ids(&[1, 2, 3]));
        assert!(!q.is_quorum(&ids(&[1, 99, 100])));
    }

    #[test]
    fn majority_quorums_intersect() {
        // Exhaustively check the intersection property for n = 5.
        let members: Vec<u64> = (1..=5).collect();
        let q = MajorityQuorum::new(ids(&members));
        let subsets: Vec<BTreeSet<ServerId>> = (0u32..32)
            .map(|mask| {
                members
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &m)| ServerId(m))
                    .collect()
            })
            .filter(|s: &BTreeSet<ServerId>| q.is_quorum(s))
            .collect();
        for a in &subsets {
            for b in &subsets {
                assert!(a.intersection(b).next().is_some(), "{a:?} and {b:?} are disjoint quorums");
            }
        }
    }

    #[test]
    fn weighted_quorum_ignores_zero_weight_observers() {
        let q = WeightedQuorum::new([
            (ServerId(1), 1),
            (ServerId(2), 1),
            (ServerId(3), 1),
            (ServerId(4), 0), // observer
        ]);
        assert!(q.is_quorum(&ids(&[1, 2])));
        assert!(!q.is_quorum(&ids(&[1, 4])));
    }

    #[test]
    #[should_panic(expected = "ensemble must not be empty")]
    fn empty_ensemble_rejected() {
        let _ = MajorityQuorum::new(ids(&[]));
    }

    #[test]
    fn config_quorum_delegation() {
        let cfg = ClusterConfig::majority((1..=3).map(ServerId));
        assert!(cfg.is_quorum(&ids(&[2, 3])));
        assert!(!cfg.is_quorum(&ids(&[3])));
    }
}
