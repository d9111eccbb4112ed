//! The simulated application: a replicated log whose state is its history.
//!
//! Choosing "the full applied sequence" as the application state makes the
//! correctness checker exact: a snapshot transfer carries the entire
//! sequence, so after any combination of DIFF/TRUNC/SNAP syncs every
//! node's application state is directly comparable entry-by-entry.

use std::fmt;
use zab_core::{Txn, Zxid};
use zab_wire::codec::{WireRead, WireWrite};

/// A snapshot that could not be decoded. Snapshot bytes arrive over a
/// (simulated) wire or from (simulated) disk, so decoding failures are
/// node-level faults to degrade on, never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the promised entries did.
    Truncated {
        /// Entries the header promised.
        expected: usize,
        /// Entries decoded before the bytes ran out.
        decoded: usize,
    },
    /// Bytes remain after the last promised entry.
    TrailingBytes {
        /// How many.
        excess: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { expected, decoded } => {
                write!(f, "snapshot truncated: {decoded} of {expected} entries decoded")
            }
            SnapshotError::TrailingBytes { excess } => {
                write!(f, "snapshot has {excess} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Applied entries store payload hashes, not payloads, to keep big
/// simulations cheap; the hash is the delivery hash's payload fold.
pub use zab_core::delivery::payload_hash;

/// One applied entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// The transaction id.
    pub zxid: Zxid,
    /// [`payload_hash`] of the payload.
    pub hash: u64,
}

/// The replicated application state machine used by the simulator.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedLog {
    entries: Vec<Applied>,
}

impl ReplicatedLog {
    /// Empty state.
    pub fn new() -> ReplicatedLog {
        ReplicatedLog::default()
    }

    /// Applies one delivered transaction.
    ///
    /// # Panics
    ///
    /// Panics if delivery regresses (zxid not greater than the last
    /// applied) — the simulator treats that as a checker-level fatal.
    pub fn apply(&mut self, txn: &Txn) {
        if let Some(last) = self.entries.last() {
            assert!(
                txn.zxid > last.zxid,
                "delivery out of order: {} after {}",
                txn.zxid,
                last.zxid
            );
        }
        self.entries.push(Applied { zxid: txn.zxid, hash: payload_hash(&txn.data) });
    }

    /// The applied sequence.
    pub fn entries(&self) -> &[Applied] {
        &self.entries
    }

    /// Number of applied transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been applied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Zxid of the last applied transaction.
    pub fn last_zxid(&self) -> Zxid {
        self.entries.last().map_or(Zxid::ZERO, |e| e.zxid)
    }

    /// Serializes the full state (for SNAP synchronization).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + self.entries.len() * 16);
        buf.put_u32_le_wire(self.entries.len() as u32);
        for e in &self.entries {
            buf.put_u64_le_wire(e.zxid.0);
            buf.put_u64_le_wire(e.hash);
        }
        buf
    }

    /// Replaces the state with a received snapshot. On `Err` the current
    /// state is unchanged; the caller surfaces the error as a node fault.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the bytes are truncated or have trailing
    /// garbage.
    pub fn install(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        let mut cur = snapshot;
        let n = cur
            .get_u32_le_wire()
            .map_err(|_| SnapshotError::Truncated { expected: 0, decoded: 0 })?
            as usize;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for decoded in 0..n {
            let truncated = SnapshotError::Truncated { expected: n, decoded };
            let zxid = Zxid(cur.get_u64_le_wire().map_err(|_| truncated.clone())?);
            let hash = cur.get_u64_le_wire().map_err(|_| truncated)?;
            entries.push(Applied { zxid, hash });
        }
        if !cur.is_empty() {
            return Err(SnapshotError::TrailingBytes { excess: cur.len() });
        }
        self.entries = entries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zab_core::Epoch;

    fn txn(c: u32, data: &[u8]) -> Txn {
        Txn::new(Zxid::new(Epoch(1), c), data.to_vec())
    }

    #[test]
    fn apply_accumulates_in_order() {
        let mut log = ReplicatedLog::new();
        log.apply(&txn(1, b"a"));
        log.apply(&txn(2, b"b"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.last_zxid(), Zxid::new(Epoch(1), 2));
    }

    #[test]
    #[should_panic(expected = "delivery out of order")]
    fn out_of_order_apply_panics() {
        let mut log = ReplicatedLog::new();
        log.apply(&txn(2, b"b"));
        log.apply(&txn(1, b"a"));
    }

    #[test]
    fn snapshot_install_round_trips() {
        let mut log = ReplicatedLog::new();
        for c in 1..=10 {
            log.apply(&txn(c, &c.to_le_bytes()));
        }
        let snap = log.snapshot();
        let mut other = ReplicatedLog::new();
        other.install(&snap).expect("well-formed snapshot");
        assert_eq!(other.entries(), log.entries());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let log = ReplicatedLog::new();
        let mut other = ReplicatedLog::new();
        other.install(&log.snapshot()).expect("well-formed snapshot");
        assert!(other.is_empty());
    }

    #[test]
    fn malformed_snapshots_error_and_leave_state_intact() {
        let mut log = ReplicatedLog::new();
        log.apply(&txn(1, b"a"));
        log.apply(&txn(2, b"b"));
        let good = log.snapshot();

        let mut victim = ReplicatedLog::new();
        victim.apply(&txn(9, b"prior"));
        let prior = victim.entries().to_vec();

        // Truncated header.
        assert_eq!(
            victim.install(&good[..3]),
            Err(SnapshotError::Truncated { expected: 0, decoded: 0 })
        );
        // Truncated mid-entry: the second entry's bytes are cut short.
        assert_eq!(
            victim.install(&good[..good.len() - 1]),
            Err(SnapshotError::Truncated { expected: 2, decoded: 1 })
        );
        // Trailing garbage after the promised entries.
        let mut trailing = good.clone();
        trailing.extend_from_slice(b"xx");
        assert_eq!(victim.install(&trailing), Err(SnapshotError::TrailingBytes { excess: 2 }));
        // A header promising far more entries than the bytes hold.
        let mut hungry = good.clone();
        hungry[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(victim.install(&hungry), Err(SnapshotError::Truncated { .. })));

        assert_eq!(victim.entries(), prior, "failed install mutated state");
        victim.install(&good).expect("good snapshot still installs");
        assert_eq!(victim.entries(), log.entries());
    }

    #[test]
    fn hash_distinguishes_payloads() {
        assert_ne!(payload_hash(b"a"), payload_hash(b"b"));
        assert_ne!(payload_hash(b""), payload_hash(b"\0"));
    }
}
