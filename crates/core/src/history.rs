//! The accepted-transaction history (`h` in the paper) and synchronization
//! planning (DIFF / TRUNC / SNAP).
//!
//! Every process maintains a history of *accepted* transactions in zxid
//! order, together with the prefix that is known *committed*. During
//! Phase 2 (synchronization) the new leader compares a follower's last zxid
//! against its own history and picks one of ZooKeeper's three strategies:
//!
//! - **DIFF** — the follower's history is a prefix of the leader's: send the
//!   missing suffix.
//! - **TRUNC** — the follower accepted transactions that did not survive the
//!   leader change: tell it to truncate back to the last common point, then
//!   send the suffix.
//! - **SNAP** — the follower is so far behind that the leader no longer
//!   retains the needed log suffix (it was compacted into a snapshot), or
//!   the diff would exceed the configured threshold: ship a full snapshot.

use crate::types::{Txn, Zxid};

/// How a leader brings one follower up to date (Phase 2 decision).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncPlan {
    /// Send the given suffix of transactions; the follower's history is a
    /// prefix of the leader's.
    Diff {
        /// Transactions the follower is missing, in zxid order.
        txns: Vec<Txn>,
    },
    /// The follower must first discard transactions after `truncate_to`,
    /// then apply `txns`.
    Trunc {
        /// Last zxid the follower keeps.
        truncate_to: Zxid,
        /// Transactions to apply after truncating.
        txns: Vec<Txn>,
    },
    /// Ship a full application snapshot; the follower replaces its state.
    /// The snapshot bytes are produced by the application at send time.
    Snap,
}

/// In-memory accepted history with a committed watermark.
///
/// Invariants:
/// - transactions are strictly increasing by zxid,
/// - every transaction's zxid is greater than [`History::base`] (the point
///   up to which the log has been compacted into a snapshot),
/// - `last_committed` never exceeds the last accepted zxid and never
///   retreats.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Zxid of the last transaction folded into the base snapshot; `ZERO`
    /// if the history is complete from the beginning of time.
    base: Zxid,
    /// Accepted transactions, ascending by zxid, all `> base`.
    txns: Vec<Txn>,
    /// Highest zxid known committed (delivered or deliverable).
    last_committed: Zxid,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Reconstructs a history from recovered storage.
    ///
    /// # Panics
    ///
    /// Panics if `txns` is not strictly ascending or contains zxids at or
    /// below `base` — recovered storage violating this is corrupt.
    pub fn from_recovered(base: Zxid, txns: Vec<Txn>, last_committed: Zxid) -> History {
        let mut prev = base;
        for t in &txns {
            assert!(t.zxid > prev, "recovered history out of order at {}", t.zxid);
            prev = t.zxid;
        }
        let mut h = History { base, txns, last_committed: Zxid::ZERO };
        let cap = h.last_zxid();
        h.last_committed = last_committed.min(cap).max(base);
        h
    }

    /// This history as the process's next incarnation receives it: committed
    /// watermark back at the base, as [`History::from_recovered`] yields for
    /// a log read back from storage (which records no watermark).
    pub(crate) fn without_commits(mut self) -> History {
        self.last_committed = self.base;
        self
    }

    /// The compaction point: transactions at or below this zxid live only
    /// in the snapshot.
    pub fn base(&self) -> Zxid {
        self.base
    }

    /// Zxid of the most recently accepted transaction (or the base if the
    /// suffix is empty).
    pub fn last_zxid(&self) -> Zxid {
        self.txns.last().map_or(self.base, |t| t.zxid)
    }

    /// Highest committed zxid.
    pub fn last_committed(&self) -> Zxid {
        self.last_committed
    }

    /// Number of accepted-but-retained transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True if no transactions are retained.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// All retained transactions in order.
    pub fn txns(&self) -> &[Txn] {
        &self.txns
    }

    /// Accepts a transaction at the tail of the history.
    ///
    /// # Panics
    ///
    /// Panics if `txn.zxid` is not greater than the current last zxid;
    /// callers (the automata) must reject out-of-order proposals first.
    pub fn append(&mut self, txn: Txn) {
        assert!(
            txn.zxid > self.last_zxid(),
            "append out of order: {} after {}",
            txn.zxid,
            self.last_zxid()
        );
        self.txns.push(txn);
    }

    /// True if `zxid` denotes a point on this history: the base, or a
    /// retained transaction.
    pub fn contains_point(&self, zxid: Zxid) -> bool {
        zxid == self.base || self.index_of(zxid).is_some()
    }

    /// Returns the transaction with exactly this zxid, if retained.
    pub fn get(&self, zxid: Zxid) -> Option<&Txn> {
        self.index_of(zxid).map(|i| &self.txns[i])
    }

    fn index_of(&self, zxid: Zxid) -> Option<usize> {
        self.txns.binary_search_by_key(&zxid, |t| t.zxid).ok()
    }

    /// The greatest point of this history at or below `z`: the base, or a
    /// retained transaction's zxid. Used by a follower to fall back when a
    /// leader's TRUNC references a point it does not have.
    pub fn last_point_at_or_below(&self, z: Zxid) -> Zxid {
        let idx = self.txns.partition_point(|t| t.zxid <= z);
        if idx == 0 {
            self.base
        } else {
            self.txns[idx - 1].zxid
        }
    }

    /// The retained transactions with zxid strictly greater than `after`.
    pub fn txns_after(&self, after: Zxid) -> &[Txn] {
        let start = self.txns.partition_point(|t| t.zxid <= after);
        &self.txns[start..]
    }

    /// Discards all transactions with zxid strictly greater than `to`.
    /// Returns the number of discarded transactions.
    ///
    /// # Panics
    ///
    /// Panics if `to < base`: those transactions are already immutable
    /// snapshot state and cannot be truncated away.
    pub fn truncate_to(&mut self, to: Zxid) -> usize {
        assert!(to >= self.base, "cannot truncate into the snapshot base");
        let keep = self.txns.partition_point(|t| t.zxid <= to);
        let dropped = self.txns.len() - keep;
        self.txns.truncate(keep);
        if self.last_committed > self.last_zxid() {
            self.last_committed = self.last_zxid();
        }
        dropped
    }

    /// Advances the committed watermark to `zxid` (no-op if already past).
    ///
    /// # Panics
    ///
    /// Panics if `zxid` is beyond the accepted history: commit of an
    /// unknown transaction indicates a protocol bug upstream.
    pub fn mark_committed(&mut self, zxid: Zxid) {
        assert!(
            zxid <= self.last_zxid(),
            "commit {} beyond accepted history {}",
            zxid,
            self.last_zxid()
        );
        if zxid > self.last_committed {
            self.last_committed = zxid;
        }
    }

    /// Compacts the history: transactions at or below `through` are folded
    /// into the snapshot and dropped from memory. Only committed
    /// transactions may be compacted.
    ///
    /// # Panics
    ///
    /// Panics if `through` exceeds the committed watermark.
    pub fn purge_through(&mut self, through: Zxid) {
        assert!(through <= self.last_committed, "cannot purge uncommitted transactions");
        if through <= self.base {
            return;
        }
        let drop = self.txns.partition_point(|t| t.zxid <= through);
        self.txns.drain(..drop);
        self.base = through;
    }

    /// Replaces the entire history after installing a snapshot whose state
    /// covers everything up to `snapshot_zxid`.
    pub fn reset_to_snapshot(&mut self, snapshot_zxid: Zxid) {
        self.base = snapshot_zxid;
        self.txns.clear();
        self.last_committed = snapshot_zxid;
    }

    /// Phase-2 planning: how to bring a follower whose last zxid is
    /// `follower_last` up to this (the leader's) history.
    ///
    /// `snap_threshold` bounds the size of a DIFF/TRUNC suffix; larger gaps
    /// fall back to SNAP, mirroring ZooKeeper's snapCount heuristic.
    pub fn plan_sync(&self, follower_last: Zxid, snap_threshold: u64) -> SyncPlan {
        // The follower predates our compaction point: only a snapshot can
        // restore the missing prefix.
        if follower_last < self.base {
            return SyncPlan::Snap;
        }
        if self.contains_point(follower_last) {
            let txns = self.txns_after(follower_last);
            if txns.len() as u64 > snap_threshold {
                return SyncPlan::Snap;
            }
            return SyncPlan::Diff { txns: txns.to_vec() };
        }
        // Divergent follower: truncate to the last point of ours at or
        // below its last zxid, then send our suffix from there.
        let idx = self.txns.partition_point(|t| t.zxid <= follower_last);
        let truncate_to = if idx == 0 { self.base } else { self.txns[idx - 1].zxid };
        let txns = self.txns_after(truncate_to);
        if txns.len() as u64 > snap_threshold {
            return SyncPlan::Snap;
        }
        SyncPlan::Trunc { truncate_to, txns: txns.to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Epoch;

    fn txn(e: u32, c: u32) -> Txn {
        Txn::new(Zxid::new(Epoch(e), c), vec![e as u8, c as u8])
    }

    fn history(items: &[(u32, u32)]) -> History {
        let mut h = History::new();
        for &(e, c) in items {
            h.append(txn(e, c));
        }
        h
    }

    #[test]
    fn append_and_query() {
        let h = history(&[(1, 1), (1, 2), (2, 1)]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.last_zxid(), Zxid::new(Epoch(2), 1));
        assert!(h.contains_point(Zxid::new(Epoch(1), 2)));
        assert!(!h.contains_point(Zxid::new(Epoch(1), 3)));
        assert!(h.contains_point(Zxid::ZERO)); // the empty prefix
    }

    #[test]
    #[should_panic(expected = "append out of order")]
    fn out_of_order_append_panics() {
        let mut h = history(&[(1, 2)]);
        h.append(txn(1, 1));
    }

    #[test]
    fn txns_after_returns_suffix() {
        let h = history(&[(1, 1), (1, 2), (1, 3)]);
        let suffix = h.txns_after(Zxid::new(Epoch(1), 1));
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].zxid, Zxid::new(Epoch(1), 2));
        assert!(h.txns_after(Zxid::new(Epoch(1), 3)).is_empty());
        assert_eq!(h.txns_after(Zxid::ZERO).len(), 3);
    }

    #[test]
    fn truncate_drops_suffix_and_caps_commit() {
        let mut h = history(&[(1, 1), (1, 2), (1, 3)]);
        h.mark_committed(Zxid::new(Epoch(1), 3));
        assert_eq!(h.truncate_to(Zxid::new(Epoch(1), 1)), 2);
        assert_eq!(h.last_zxid(), Zxid::new(Epoch(1), 1));
        assert_eq!(h.last_committed(), Zxid::new(Epoch(1), 1));
    }

    #[test]
    fn commit_watermark_is_monotone() {
        let mut h = history(&[(1, 1), (1, 2)]);
        h.mark_committed(Zxid::new(Epoch(1), 2));
        h.mark_committed(Zxid::new(Epoch(1), 1)); // stale commit: no-op
        assert_eq!(h.last_committed(), Zxid::new(Epoch(1), 2));
    }

    #[test]
    #[should_panic(expected = "beyond accepted history")]
    fn commit_of_unknown_txn_panics() {
        let mut h = history(&[(1, 1)]);
        h.mark_committed(Zxid::new(Epoch(1), 5));
    }

    #[test]
    fn purge_moves_base() {
        let mut h = history(&[(1, 1), (1, 2), (1, 3)]);
        h.mark_committed(Zxid::new(Epoch(1), 2));
        h.purge_through(Zxid::new(Epoch(1), 2));
        assert_eq!(h.base(), Zxid::new(Epoch(1), 2));
        assert_eq!(h.len(), 1);
        assert_eq!(h.last_zxid(), Zxid::new(Epoch(1), 3));
    }

    #[test]
    fn plan_sync_equal_histories_is_empty_diff() {
        let h = history(&[(1, 1), (1, 2)]);
        assert_eq!(h.plan_sync(Zxid::new(Epoch(1), 2), 100), SyncPlan::Diff { txns: vec![] });
    }

    #[test]
    fn plan_sync_prefix_follower_gets_diff() {
        let h = history(&[(1, 1), (1, 2), (1, 3)]);
        match h.plan_sync(Zxid::new(Epoch(1), 1), 100) {
            SyncPlan::Diff { txns } => {
                assert_eq!(txns.len(), 2);
                assert_eq!(txns[0].zxid, Zxid::new(Epoch(1), 2));
            }
            other => panic!("expected diff, got {other:?}"),
        }
    }

    #[test]
    fn plan_sync_empty_follower_gets_full_diff() {
        let h = history(&[(1, 1), (1, 2)]);
        match h.plan_sync(Zxid::ZERO, 100) {
            SyncPlan::Diff { txns } => assert_eq!(txns.len(), 2),
            other => panic!("expected diff, got {other:?}"),
        }
    }

    #[test]
    fn plan_sync_divergent_follower_gets_trunc() {
        // Leader: (1,1) (2,1). Follower accepted (1,1) (1,2) where (1,2)
        // died with epoch 1 — the paper's leader-change discard case.
        let h = history(&[(1, 1), (2, 1)]);
        match h.plan_sync(Zxid::new(Epoch(1), 2), 100) {
            SyncPlan::Trunc { truncate_to, txns } => {
                assert_eq!(truncate_to, Zxid::new(Epoch(1), 1));
                assert_eq!(txns.len(), 1);
                assert_eq!(txns[0].zxid, Zxid::new(Epoch(2), 1));
            }
            other => panic!("expected trunc, got {other:?}"),
        }
    }

    #[test]
    fn plan_sync_follower_ahead_of_leader_truncates_to_leader_tail() {
        let h = history(&[(1, 1)]);
        match h.plan_sync(Zxid::new(Epoch(1), 5), 100) {
            SyncPlan::Trunc { truncate_to, txns } => {
                assert_eq!(truncate_to, Zxid::new(Epoch(1), 1));
                assert!(txns.is_empty());
            }
            other => panic!("expected trunc, got {other:?}"),
        }
    }

    #[test]
    fn plan_sync_behind_compaction_point_gets_snap() {
        let mut h = history(&[(1, 1), (1, 2), (1, 3)]);
        h.mark_committed(Zxid::new(Epoch(1), 3));
        h.purge_through(Zxid::new(Epoch(1), 2));
        assert_eq!(h.plan_sync(Zxid::new(Epoch(1), 1), 100), SyncPlan::Snap);
        assert_eq!(h.plan_sync(Zxid::ZERO, 100), SyncPlan::Snap);
    }

    #[test]
    fn plan_sync_large_gap_gets_snap() {
        let mut h = History::new();
        for c in 1..=50 {
            h.append(txn(1, c));
        }
        assert_eq!(h.plan_sync(Zxid::ZERO, 10), SyncPlan::Snap);
        assert!(matches!(h.plan_sync(Zxid::new(Epoch(1), 45), 10), SyncPlan::Diff { .. }));
    }

    #[test]
    fn recovered_history_caps_commit_watermark() {
        let txns = vec![txn(1, 1), txn(1, 2)];
        let h = History::from_recovered(Zxid::ZERO, txns, Zxid::new(Epoch(9), 9));
        assert_eq!(h.last_committed(), Zxid::new(Epoch(1), 2));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn recovered_history_rejects_disorder() {
        let txns = vec![txn(1, 2), txn(1, 1)];
        let _ = History::from_recovered(Zxid::ZERO, txns, Zxid::ZERO);
    }

    #[test]
    fn reset_to_snapshot_clears_everything() {
        let mut h = history(&[(1, 1), (1, 2)]);
        h.reset_to_snapshot(Zxid::new(Epoch(3), 100));
        assert_eq!(h.base(), Zxid::new(Epoch(3), 100));
        assert_eq!(h.last_zxid(), Zxid::new(Epoch(3), 100));
        assert_eq!(h.last_committed(), Zxid::new(Epoch(3), 100));
        assert!(h.is_empty());
    }
}
