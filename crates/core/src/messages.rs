//! Protocol messages exchanged between Zab processes.
//!
//! Naming follows the paper with ZooKeeper's synchronization mechanics:
//!
//! | Paper (DSN'11)   | Here                 | Direction | Phase |
//! |------------------|----------------------|-----------|-------|
//! | `CEPOCH(f.p)`    | [`Message::FollowerInfo`]  | f → l | 1 |
//! | `NEWEPOCH(e')`   | [`Message::NewEpoch`]      | l → f | 1 |
//! | `ACK-E(f.a, hf)` | [`Message::AckEpoch`]      | f → l | 1 |
//! | `NEWLEADER(e',I)`| sync stream + [`Message::NewLeader`] | l → f | 2 |
//! | `ACK-LD`         | [`Message::AckNewLeader`]  | f → l | 2 |
//! | `COMMIT-LD`      | [`Message::UpToDate`]      | l → f | 2 |
//! | `PROPOSE(e',t)`  | [`Message::Propose`]       | l → f | 3 |
//! | `ACK(e',t)`      | [`Message::Ack`]           | f → l | 3 |
//! | `COMMIT(e',t)`   | [`Message::Commit`]        | l → f | 3 |
//!
//! Instead of carrying the full initial history inside `NEWLEADER` (as the
//! idealized algorithm does), the leader precedes it with one of
//! [`Message::SyncDiff`] / [`Message::SyncTrunc`] / [`Message::SyncSnap`] —
//! exactly ZooKeeper's DIFF/TRUNC/SNAP optimization. `Ping`/`Pong` carry the
//! failure-detector heartbeats that phase 3 relies on.
//!
//! All messages encode to a stable binary format via [`Message::encode`] /
//! [`Message::decode`]; the transport wraps them in checksummed frames.

use crate::types::{Epoch, Txn, Zxid};
use bytes::Bytes;
use zab_wire::codec::{WireError, WireRead, WireWrite};

/// A Zab protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Phase 1 (f → l): announce the follower and its accepted epoch
    /// (the paper's `CEPOCH`). `last_zxid` lets the established-leader
    /// fast path plan synchronization without another round trip.
    FollowerInfo {
        /// Follower's durable `acceptedEpoch` (`f.p`).
        accepted_epoch: Epoch,
        /// Tail of the follower's accepted history.
        last_zxid: Zxid,
    },
    /// Phase 1 (l → f): the prospective leader proposes a new epoch
    /// (`NEWEPOCH(e')`).
    NewEpoch {
        /// The proposed epoch, strictly greater than any accepted epoch in
        /// the leader's info quorum.
        epoch: Epoch,
    },
    /// Phase 1 (f → l): the follower accepted the new epoch (`ACK-E`),
    /// reporting its `currentEpoch` (`f.a`) and history tail so the leader
    /// can pick the freshest history.
    AckEpoch {
        /// Follower's durable `currentEpoch`.
        current_epoch: Epoch,
        /// Tail of the follower's accepted history.
        last_zxid: Zxid,
    },
    /// Phase 2 (l → f): the follower's history is a prefix of the
    /// leader's — append these transactions.
    SyncDiff {
        /// Missing suffix in zxid order.
        txns: Vec<Txn>,
    },
    /// Phase 2 (l → f): the follower accepted transactions that did not
    /// survive the leader change — truncate, then append.
    SyncTrunc {
        /// Last zxid the follower keeps.
        truncate_to: Zxid,
        /// Leader's suffix after the truncation point.
        txns: Vec<Txn>,
    },
    /// Phase 2 (l → f): full state transfer; replaces the follower's
    /// application state and history.
    SyncSnap {
        /// Opaque application snapshot.
        snapshot: Bytes,
        /// The zxid the snapshot covers up to (inclusive).
        snapshot_zxid: Zxid,
        /// Leader's log suffix after the snapshot point.
        txns: Vec<Txn>,
    },
    /// Phase 2 (l → f): end of the sync stream (`NEWLEADER(e')`). The
    /// follower must durably adopt the epoch and synced history, then ack.
    NewLeader {
        /// The new epoch.
        epoch: Epoch,
    },
    /// Phase 2 (f → l): durable adoption complete (`ACK-LD`).
    AckNewLeader {
        /// Echo of the adopted epoch.
        epoch: Epoch,
        /// Tail of the follower's history after sync.
        last_zxid: Zxid,
    },
    /// Phase 2 (l → f): the leader has a quorum (`COMMIT-LD`): commit the
    /// synced prefix and start serving.
    UpToDate {
        /// Commit (and deliver) everything up to this zxid.
        commit_to: Zxid,
    },
    /// Phase 3 (l → f): a new proposal, carrying the leader's commit
    /// watermark so a saturated pipeline needs no separate `COMMIT`
    /// frame per quorum crossing.
    Propose {
        /// The proposed transaction.
        txn: Txn,
        /// The leader's highest committed zxid at proposal time — a
        /// cumulative commit-up-to watermark (see [`Message::Commit`]).
        /// Always strictly below `txn.zxid`.
        commit_up_to: Zxid,
    },
    /// Phase 3 (f → l): the proposal is durable at this follower. Acks are
    /// cumulative per the FIFO-channel assumption.
    Ack {
        /// Zxid of the acked proposal.
        zxid: Zxid,
    },
    /// Phase 3 (l → f): a quorum acked — deliver. Cumulative: everything
    /// up to and including `zxid` commits (the FIFO channel guarantees
    /// the follower has accepted that prefix).
    Commit {
        /// Commit watermark: the highest quorum-acked zxid.
        zxid: Zxid,
    },
    /// Heartbeat (l → f), also carrying the commit watermark so idle
    /// followers converge.
    Ping {
        /// Leader's highest committed zxid.
        last_committed: Zxid,
    },
    /// Heartbeat response (f → l).
    Pong {
        /// Follower's last accepted zxid (for observability).
        last_zxid: Zxid,
    },
    /// Phase 2 (f → l): flow-control ack for one sync-stream chunk. The
    /// leader releases the next `SyncDiff` chunk of a paced sync session
    /// only after the previous chunk is acknowledged, so a slow follower
    /// never accumulates its whole missing history in socket buffers.
    SyncAck {
        /// Tail of the follower's history after applying the chunk.
        last_zxid: Zxid,
    },
}

/// The largest transaction payload (`Txn::data`) that every carrier of a
/// single transaction can hold. A leader rejects a larger request
/// ([`crate::RejectReason::TooLarge`]) instead of proposing what no
/// follower channel or log record could carry.
///
/// The payload is a length-prefixed byte string, which the codec caps at
/// [`zab_wire::codec::MAX_BYTES_LEN`] (16 MiB) on decode. The carrier must
/// also fit one frame of [`zab_wire::frame::MAX_FRAME_LEN`] (64 MiB); the
/// largest fixed overhead is a framed one-transaction `SyncTrunc`: channel
/// tag 1 + message tag 1 + `truncate_to` 8 + txn count 4 + zxid 8 + data
/// length 4 = 26 bytes (a `PROPOSE` costs 22, a one-transaction `SyncDiff`
/// 18, a log record 12). A `SyncSnap` also carries the snapshot, which no
/// per-transaction limit bounds.
pub const MAX_TXN_DATA_LEN: usize = zab_wire::codec::MAX_BYTES_LEN;
const _: () = assert!(MAX_TXN_DATA_LEN + 26 <= zab_wire::frame::MAX_FRAME_LEN);

// Wire tags. Stable: appended-to only.
const TAG_FOLLOWER_INFO: u8 = 1;
const TAG_NEW_EPOCH: u8 = 2;
const TAG_ACK_EPOCH: u8 = 3;
const TAG_SYNC_DIFF: u8 = 4;
const TAG_SYNC_TRUNC: u8 = 5;
const TAG_SYNC_SNAP: u8 = 6;
const TAG_NEW_LEADER: u8 = 7;
const TAG_ACK_NEW_LEADER: u8 = 8;
const TAG_UP_TO_DATE: u8 = 9;
const TAG_ACK: u8 = 11;
const TAG_COMMIT: u8 = 12;
const TAG_PING: u8 = 13;
const TAG_PONG: u8 = 14;
/// `PROPOSE` with its piggybacked commit watermark. Tag 10 (the
/// watermark-less PROPOSE this replaced) is unassigned: no build emits it
/// and it is rejected like any unknown tag.
const TAG_PROPOSE_COMMIT: u8 = 15;
/// Sync-stream chunk acknowledgement (paced catch-up flow control).
/// Tags 17 and 18 (the retired relay-tree frames) are unassigned.
const TAG_SYNC_ACK: u8 = 16;

fn put_txns(buf: &mut Vec<u8>, txns: &[Txn]) {
    buf.put_u32_le_wire(txns.len() as u32);
    for t in txns {
        t.encode(buf);
    }
}

fn get_txns<R: WireRead>(cur: &mut R) -> Result<Vec<Txn>, WireError> {
    let n = cur.get_u32_le_wire()? as usize;
    // Bound preallocation by the remaining input; a lying count fails later.
    let mut txns = Vec::with_capacity(n.min(cur.remaining() / 9 + 1));
    for _ in 0..n {
        txns.push(Txn::decode(cur)?);
    }
    Ok(txns)
}

impl Message {
    /// Human-readable message kind, for traces and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::FollowerInfo { .. } => "FOLLOWERINFO",
            Message::NewEpoch { .. } => "NEWEPOCH",
            Message::AckEpoch { .. } => "ACKEPOCH",
            Message::SyncDiff { .. } => "DIFF",
            Message::SyncTrunc { .. } => "TRUNC",
            Message::SyncSnap { .. } => "SNAP",
            Message::NewLeader { .. } => "NEWLEADER",
            Message::AckNewLeader { .. } => "ACKNEWLEADER",
            Message::UpToDate { .. } => "UPTODATE",
            Message::Propose { .. } => "PROPOSE",
            Message::Ack { .. } => "ACK",
            Message::Commit { .. } => "COMMIT",
            Message::Ping { .. } => "PING",
            Message::Pong { .. } => "PONG",
            Message::SyncAck { .. } => "SYNCACK",
        }
    }

    /// Encodes the message to its wire representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes the message by appending to `buf`, so callers composing a
    /// larger wire unit (e.g. a channel-tagged transport frame) need no
    /// intermediate allocation.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::FollowerInfo { accepted_epoch, last_zxid } => {
                buf.put_u8_wire(TAG_FOLLOWER_INFO);
                buf.put_u32_le_wire(accepted_epoch.0);
                buf.put_u64_le_wire(last_zxid.0);
            }
            Message::NewEpoch { epoch } => {
                buf.put_u8_wire(TAG_NEW_EPOCH);
                buf.put_u32_le_wire(epoch.0);
            }
            Message::AckEpoch { current_epoch, last_zxid } => {
                buf.put_u8_wire(TAG_ACK_EPOCH);
                buf.put_u32_le_wire(current_epoch.0);
                buf.put_u64_le_wire(last_zxid.0);
            }
            Message::SyncDiff { txns } => {
                buf.put_u8_wire(TAG_SYNC_DIFF);
                put_txns(buf, txns);
            }
            Message::SyncTrunc { truncate_to, txns } => {
                buf.put_u8_wire(TAG_SYNC_TRUNC);
                buf.put_u64_le_wire(truncate_to.0);
                put_txns(buf, txns);
            }
            Message::SyncSnap { snapshot, snapshot_zxid, txns } => {
                buf.put_u8_wire(TAG_SYNC_SNAP);
                buf.put_bytes_wire(snapshot);
                buf.put_u64_le_wire(snapshot_zxid.0);
                put_txns(buf, txns);
            }
            Message::NewLeader { epoch } => {
                buf.put_u8_wire(TAG_NEW_LEADER);
                buf.put_u32_le_wire(epoch.0);
            }
            Message::AckNewLeader { epoch, last_zxid } => {
                buf.put_u8_wire(TAG_ACK_NEW_LEADER);
                buf.put_u32_le_wire(epoch.0);
                buf.put_u64_le_wire(last_zxid.0);
            }
            Message::UpToDate { commit_to } => {
                buf.put_u8_wire(TAG_UP_TO_DATE);
                buf.put_u64_le_wire(commit_to.0);
            }
            Message::Propose { txn, commit_up_to } => {
                buf.put_u8_wire(TAG_PROPOSE_COMMIT);
                buf.put_u64_le_wire(commit_up_to.0);
                txn.encode(buf);
            }
            Message::Ack { zxid } => {
                buf.put_u8_wire(TAG_ACK);
                buf.put_u64_le_wire(zxid.0);
            }
            Message::Commit { zxid } => {
                buf.put_u8_wire(TAG_COMMIT);
                buf.put_u64_le_wire(zxid.0);
            }
            Message::Ping { last_committed } => {
                buf.put_u8_wire(TAG_PING);
                buf.put_u64_le_wire(last_committed.0);
            }
            Message::Pong { last_zxid } => {
                buf.put_u8_wire(TAG_PONG);
                buf.put_u64_le_wire(last_zxid.0);
            }
            Message::SyncAck { last_zxid } => {
                buf.put_u8_wire(TAG_SYNC_ACK);
                buf.put_u64_le_wire(last_zxid.0);
            }
        }
    }

    /// Decodes a message from a borrowed wire buffer.
    ///
    /// Payload-carrying fields are copied into owned [`Bytes`]; use
    /// [`Message::decode_bytes`] on a refcounted frame payload to avoid
    /// that copy.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, bad length prefixes, or an
    /// unknown tag.
    pub fn decode(mut cur: &[u8]) -> Result<Message, WireError> {
        Message::decode_from(&mut cur)
    }

    /// Decodes a message from an owned, refcounted frame payload.
    ///
    /// Transaction data and snapshot fields come back as zero-copy views
    /// of `buf` — the single receive-buffer allocation is shared by every
    /// downstream holder of the payload (log append, fan-out, delivery).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, bad length prefixes, or an
    /// unknown tag.
    pub fn decode_bytes(buf: Bytes) -> Result<Message, WireError> {
        Message::decode_from(&mut zab_wire::codec::BytesCursor::new(buf))
    }

    /// Decodes a message from any wire cursor.
    fn decode_from<R: WireRead>(cur: &mut R) -> Result<Message, WireError> {
        let tag = cur.get_u8_wire()?;
        let msg = match tag {
            TAG_FOLLOWER_INFO => Message::FollowerInfo {
                accepted_epoch: Epoch(cur.get_u32_le_wire()?),
                last_zxid: Zxid(cur.get_u64_le_wire()?),
            },
            TAG_NEW_EPOCH => Message::NewEpoch { epoch: Epoch(cur.get_u32_le_wire()?) },
            TAG_ACK_EPOCH => Message::AckEpoch {
                current_epoch: Epoch(cur.get_u32_le_wire()?),
                last_zxid: Zxid(cur.get_u64_le_wire()?),
            },
            TAG_SYNC_DIFF => Message::SyncDiff { txns: get_txns(cur)? },
            TAG_SYNC_TRUNC => Message::SyncTrunc {
                truncate_to: Zxid(cur.get_u64_le_wire()?),
                txns: get_txns(cur)?,
            },
            TAG_SYNC_SNAP => Message::SyncSnap {
                snapshot: cur.get_bytes_wire()?,
                snapshot_zxid: Zxid(cur.get_u64_le_wire()?),
                txns: get_txns(cur)?,
            },
            TAG_NEW_LEADER => Message::NewLeader { epoch: Epoch(cur.get_u32_le_wire()?) },
            TAG_ACK_NEW_LEADER => Message::AckNewLeader {
                epoch: Epoch(cur.get_u32_le_wire()?),
                last_zxid: Zxid(cur.get_u64_le_wire()?),
            },
            TAG_UP_TO_DATE => Message::UpToDate { commit_to: Zxid(cur.get_u64_le_wire()?) },
            TAG_PROPOSE_COMMIT => {
                let commit_up_to = Zxid(cur.get_u64_le_wire()?);
                Message::Propose { txn: Txn::decode(cur)?, commit_up_to }
            }
            TAG_ACK => Message::Ack { zxid: Zxid(cur.get_u64_le_wire()?) },
            TAG_COMMIT => Message::Commit { zxid: Zxid(cur.get_u64_le_wire()?) },
            TAG_PING => Message::Ping { last_committed: Zxid(cur.get_u64_le_wire()?) },
            TAG_PONG => Message::Pong { last_zxid: Zxid(cur.get_u64_le_wire()?) },
            TAG_SYNC_ACK => Message::SyncAck { last_zxid: Zxid(cur.get_u64_le_wire()?) },
            tag => return Err(WireError::InvalidTag { tag, context: "Message" }),
        };
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Epoch;

    fn txn(e: u32, c: u32) -> Txn {
        Txn::new(Zxid::new(Epoch(e), c), vec![0xAA; 3])
    }

    fn all_variants() -> Vec<Message> {
        vec![
            Message::FollowerInfo { accepted_epoch: Epoch(3), last_zxid: Zxid::new(Epoch(2), 9) },
            Message::NewEpoch { epoch: Epoch(4) },
            Message::AckEpoch { current_epoch: Epoch(3), last_zxid: Zxid::new(Epoch(3), 1) },
            Message::SyncDiff { txns: vec![txn(1, 1), txn(1, 2)] },
            Message::SyncDiff { txns: vec![] },
            Message::SyncTrunc { truncate_to: Zxid::new(Epoch(1), 1), txns: vec![txn(2, 1)] },
            Message::SyncSnap {
                snapshot: Bytes::from_static(b"snapshot-bytes"),
                snapshot_zxid: Zxid::new(Epoch(2), 50),
                txns: vec![txn(2, 51)],
            },
            Message::NewLeader { epoch: Epoch(4) },
            Message::AckNewLeader { epoch: Epoch(4), last_zxid: Zxid::new(Epoch(3), 7) },
            Message::UpToDate { commit_to: Zxid::new(Epoch(3), 7) },
            Message::Propose { txn: txn(4, 1), commit_up_to: Zxid::ZERO },
            Message::Propose { txn: txn(4, 2), commit_up_to: Zxid::new(Epoch(4), 1) },
            Message::Ack { zxid: Zxid::new(Epoch(4), 1) },
            Message::Commit { zxid: Zxid::new(Epoch(4), 1) },
            Message::Ping { last_committed: Zxid::new(Epoch(4), 1) },
            Message::Pong { last_zxid: Zxid::new(Epoch(4), 1) },
            Message::SyncAck { last_zxid: Zxid::new(Epoch(4), 1) },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in all_variants() {
            let wire = msg.encode();
            let back = Message::decode(&wire)
                .unwrap_or_else(|e| panic!("decode failed for {}: {e}", msg.kind()));
            assert_eq!(back, msg, "round trip mismatch for {}", msg.kind());
        }
    }

    #[test]
    fn every_single_txn_carrier_round_trips_at_the_limit() {
        use zab_wire::frame::MAX_FRAME_LEN;
        let txn = Txn::new(Zxid::new(Epoch(2), 1), vec![0u8; MAX_TXN_DATA_LEN]);
        let mut record = Vec::new();
        txn.encode(&mut record);
        assert!(record.len() <= MAX_FRAME_LEN, "log record");
        assert_eq!(Txn::decode(&mut &record[..]), Ok(txn.clone()));
        let carriers = [
            Message::Propose { txn: txn.clone(), commit_up_to: Zxid::ZERO },
            Message::SyncDiff { txns: vec![txn.clone()] },
            Message::SyncTrunc { truncate_to: Zxid::ZERO, txns: vec![txn] },
        ];
        for msg in carriers {
            let wire = msg.encode();
            // The transport prefixes one channel-tag byte: 1 + len ≤ limit.
            assert!(wire.len() < MAX_FRAME_LEN, "{} over the frame limit", msg.kind());
            assert_eq!(Message::decode(&wire).as_ref(), Ok(&msg), "{}", msg.kind());
        }
        // One byte more no longer decodes: the limit is exact.
        let mut over = Vec::new();
        over.put_u64_le_wire(Zxid::new(Epoch(2), 2).0);
        over.put_u32_le_wire((MAX_TXN_DATA_LEN + 1) as u32);
        assert_eq!(
            Txn::decode(&mut &over[..]),
            Err(WireError::LengthOverflow { claimed: MAX_TXN_DATA_LEN + 1 })
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        // 10 is the retired watermark-less PROPOSE tag, 17 and 18 the
        // retired relay-tree frames: unassigned now.
        for tag in [10, 17, 18, 0xFF] {
            assert_eq!(
                Message::decode(&[tag]),
                Err(WireError::InvalidTag { tag, context: "Message" })
            );
        }
    }

    #[test]
    fn truncated_message_rejected() {
        let wire =
            Message::Propose { txn: txn(1, 1), commit_up_to: Zxid::new(Epoch(1), 0) }.encode();
        for cut in 0..wire.len() {
            assert!(
                Message::decode(&wire[..cut]).is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }

    #[test]
    fn kind_names_are_distinct_per_tag() {
        let mut kinds: Vec<&str> = all_variants().iter().map(|m| m.kind()).collect();
        kinds.dedup();
        // all_variants has duplicate kinds (two SyncDiff and two Propose
        // cases).
        let unique: std::collections::BTreeSet<&str> = kinds.iter().copied().collect();
        assert_eq!(unique.len(), 15);
    }

    #[test]
    fn lying_txn_count_fails_without_huge_allocation() {
        let mut wire = vec![TAG_SYNC_DIFF];
        wire.put_u32_le_wire(u32::MAX); // claims 4 billion txns
        assert!(Message::decode(&wire).is_err());
    }
}
