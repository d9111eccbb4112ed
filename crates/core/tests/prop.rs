//! Property tests for the protocol core: message codec totality, zxid
//! algebra, and — most importantly — that DIFF/TRUNC/SNAP synchronization
//! plans always reconstruct the leader's history on any follower.

use bytes::Bytes;
use proptest::prelude::*;
use zab_core::{Epoch, History, Message, SyncPlan, Txn, Zxid};

fn arb_zxid() -> impl Strategy<Value = Zxid> {
    (0u32..50, 0u32..100).prop_map(|(e, c)| Zxid::new(Epoch(e), c))
}

fn arb_txn() -> impl Strategy<Value = Txn> {
    (arb_zxid(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(z, d)| Txn::new(z, d))
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (0u32..100, arb_zxid())
            .prop_map(|(e, z)| Message::FollowerInfo { accepted_epoch: Epoch(e), last_zxid: z }),
        (0u32..100).prop_map(|e| Message::NewEpoch { epoch: Epoch(e) }),
        (0u32..100, arb_zxid())
            .prop_map(|(e, z)| Message::AckEpoch { current_epoch: Epoch(e), last_zxid: z }),
        prop::collection::vec(arb_txn(), 0..8).prop_map(|txns| Message::SyncDiff { txns }),
        (arb_zxid(), prop::collection::vec(arb_txn(), 0..8))
            .prop_map(|(z, txns)| Message::SyncTrunc { truncate_to: z, txns }),
        (
            prop::collection::vec(any::<u8>(), 0..128),
            arb_zxid(),
            prop::collection::vec(arb_txn(), 0..4)
        )
            .prop_map(|(s, z, txns)| Message::SyncSnap {
                snapshot: Bytes::from(s),
                snapshot_zxid: z,
                txns
            }),
        (0u32..100).prop_map(|e| Message::NewLeader { epoch: Epoch(e) }),
        (0u32..100, arb_zxid())
            .prop_map(|(e, z)| Message::AckNewLeader { epoch: Epoch(e), last_zxid: z }),
        arb_zxid().prop_map(|z| Message::UpToDate { commit_to: z }),
        (arb_txn(), arb_zxid())
            .prop_map(|(txn, commit_up_to)| Message::Propose { txn, commit_up_to }),
        arb_zxid().prop_map(|zxid| Message::Ack { zxid }),
        arb_zxid().prop_map(|zxid| Message::Commit { zxid }),
        arb_zxid().prop_map(|last_committed| Message::Ping { last_committed }),
        arb_zxid().prop_map(|last_zxid| Message::Pong { last_zxid }),
    ]
}

/// Builds a legal history from a sorted, deduplicated set of zxids.
fn history_from_zxids(mut zxids: Vec<Zxid>) -> History {
    zxids.sort_unstable();
    zxids.dedup();
    let mut h = History::new();
    for z in zxids {
        if z > h.last_zxid() {
            h.append(Txn::new(z, z.0.to_le_bytes().to_vec()));
        }
    }
    h
}

proptest! {
    #[test]
    fn messages_round_trip(msg in arb_message()) {
        let wire = msg.encode();
        prop_assert_eq!(Message::decode(&wire).unwrap(), msg);
    }

    /// Decoding arbitrary bytes never panics, only errors or succeeds.
    #[test]
    fn message_decode_total(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&data);
    }

    /// Zxid packing is a bijection and order-preserving.
    #[test]
    fn zxid_pack_unpack_bijective(e in any::<u32>(), c in any::<u32>()) {
        let z = Zxid::new(Epoch(e), c);
        prop_assert_eq!(z.epoch(), Epoch(e));
        prop_assert_eq!(z.counter(), c);
    }

    #[test]
    fn zxid_order_matches_tuple_order(
        e1 in 0u32..10, c1 in any::<u32>(),
        e2 in 0u32..10, c2 in any::<u32>(),
    ) {
        let a = Zxid::new(Epoch(e1), c1);
        let b = Zxid::new(Epoch(e2), c2);
        prop_assert_eq!(a.cmp(&b), (e1, c1).cmp(&(e2, c2)));
    }

    /// THE synchronization property: for any legal leader history and any
    /// legal follower history, applying the leader's sync plan to the
    /// follower leaves the follower's history identical to the leader's.
    #[test]
    fn sync_plan_reconstructs_leader_history(
        leader_zxids in prop::collection::vec(arb_zxid(), 0..40),
        // The follower shares a prefix with the leader plus divergent junk.
        shared_prefix_len in any::<prop::sample::Index>(),
        divergent in prop::collection::vec(arb_zxid(), 0..10),
        threshold in prop_oneof![Just(0u64), Just(5u64), Just(1_000u64)],
    ) {
        let leader = history_from_zxids(leader_zxids);
        // Follower: some prefix of the leader's txns, then divergent ones.
        let keep = shared_prefix_len.index(leader.len() + 1);
        let mut follower = History::new();
        for t in &leader.txns()[..keep] {
            follower.append(t.clone());
        }
        let mut divergent_count = 0usize;
        for z in divergent {
            // Legal divergence models proposals of dead epochs: zxids the
            // leader never saw. Two *different* txns with one zxid cannot
            // exist (an epoch belongs to a unique leader), so skip zxids
            // present in the leader's history.
            if z > follower.last_zxid() && !leader.contains_point(z) {
                follower.append(Txn::new(z, b"divergent".to_vec()));
                divergent_count += 1;
            }
        }

        // The follower applies plans exactly as `Follower::on_sync_*` does,
        // including the self-healing retry when a TRUNC references a point
        // it does not have (it truncates to its greatest point below and
        // re-runs discovery). Every retry strictly shrinks the follower's
        // divergent tail, so convergence takes at most one round per
        // divergent segment plus the final DIFF.
        let max_rounds = divergent_count + 2;
        let mut rounds = 0;
        loop {
            rounds += 1;
            prop_assert!(rounds <= max_rounds, "sync did not converge in {} rounds", max_rounds);
            match leader.plan_sync(follower.last_zxid(), threshold) {
                SyncPlan::Diff { txns } => {
                    for t in txns {
                        prop_assert!(t.zxid > follower.last_zxid());
                        follower.append(t);
                    }
                    break;
                }
                SyncPlan::Trunc { truncate_to, txns } => {
                    if !follower.contains_point(truncate_to) {
                        // Follower::on_sync_trunc's fallback + rejoin.
                        let fallback = follower.last_point_at_or_below(truncate_to);
                        follower.truncate_to(fallback);
                        continue;
                    }
                    follower.truncate_to(truncate_to);
                    for t in txns {
                        prop_assert!(t.zxid > follower.last_zxid());
                        follower.append(t);
                    }
                    break;
                }
                SyncPlan::Snap => {
                    // Snapshot covers the leader's delivered state; model
                    // it as resetting to the leader's base and appending
                    // the suffix.
                    follower.reset_to_snapshot(leader.base());
                    for t in leader.txns_after(leader.base()) {
                        follower.append(t.clone());
                    }
                    break;
                }
            }
        }
        // The follower's zxid sequence now equals the leader's... except
        // for payloads of shared-prefix txns, which were identical by
        // construction; compare zxids AND payloads.
        prop_assert_eq!(follower.txns(), leader.txns());
        prop_assert_eq!(follower.last_zxid(), leader.last_zxid());
    }

    /// After purging (compaction), sync plans still reconstruct histories
    /// for followers at or past the base, and demand SNAP for the rest.
    #[test]
    fn sync_plan_respects_compaction(
        count in 2u32..40,
        purge_at in any::<prop::sample::Index>(),
        follower_at in any::<prop::sample::Index>(),
    ) {
        let mut leader = History::new();
        for c in 1..=count {
            leader.append(Txn::new(Zxid::new(Epoch(1), c), vec![]));
        }
        let purge_idx = purge_at.index(count as usize) as u32 + 1;
        leader.mark_committed(Zxid::new(Epoch(1), count));
        leader.purge_through(Zxid::new(Epoch(1), purge_idx));

        let follower_last = follower_at.index(count as usize + 1) as u32;
        let fz = if follower_last == 0 { Zxid::ZERO } else { Zxid::new(Epoch(1), follower_last) };
        let plan = leader.plan_sync(fz, 10_000);
        if fz < leader.base() {
            prop_assert_eq!(plan, SyncPlan::Snap);
        } else {
            match plan {
                SyncPlan::Diff { txns } => {
                    prop_assert_eq!(txns.len() as u32, count - follower_last);
                }
                other => prop_assert!(false, "expected diff, got {:?}", other),
            }
        }
    }

    /// Truncation and commit watermarks interact safely under random
    /// operation sequences (no panics, invariants hold).
    #[test]
    fn history_operations_maintain_invariants(
        ops in prop::collection::vec((0u8..4, arb_zxid()), 0..60),
    ) {
        let mut h = History::new();
        for (kind, z) in ops {
            match kind {
                0 => {
                    if z > h.last_zxid() {
                        h.append(Txn::new(z, vec![]));
                    }
                }
                1 => {
                    if z <= h.last_zxid() {
                        h.mark_committed(z);
                    }
                }
                2 => {
                    if z >= h.base() {
                        h.truncate_to(z);
                    }
                }
                _ => {
                    if z <= h.last_committed() && z >= h.base() {
                        h.purge_through(z);
                    }
                }
            }
            // Invariants after every step.
            prop_assert!(h.last_committed() <= h.last_zxid());
            prop_assert!(h.base() <= h.last_zxid());
            let mut prev = h.base();
            for t in h.txns() {
                prop_assert!(t.zxid > prev);
                prev = t.zxid;
            }
        }
    }
}

proptest! {
    /// The zero-copy codec path round-trips payloads of every interesting
    /// size: a proposed txn encoded, framed, reassembled by the frame
    /// decoder, and decoded through the refcounted-`Bytes` cursor comes
    /// back byte-identical. Sizes pin the empty payload and a full 64 KiB
    /// payload alongside random small ones.
    #[test]
    fn bytes_codec_path_round_trips(
        size in prop_oneof![Just(0usize), Just(64 * 1024), 1usize..2048],
        seed in any::<u8>(),
        zxid in arb_zxid(),
    ) {
        let payload: Vec<u8> = (0..size).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
        let msg = Message::Propose { txn: Txn::new(zxid, payload.clone()), commit_up_to: Zxid::ZERO };

        // Encode and frame as the transport does, then feed the frame
        // through the segment-based decoder.
        let frame = zab_wire::frame::encode_frame(&msg.encode());
        let mut dec = zab_wire::frame::FrameDecoder::new();
        dec.extend_bytes(Bytes::from(frame));
        let wire = dec.next_frame().unwrap().expect("one whole frame");
        prop_assert!(dec.next_frame().unwrap().is_none());

        match Message::decode_bytes(wire).unwrap() {
            Message::Propose { txn, .. } => {
                prop_assert_eq!(txn.zxid, zxid);
                prop_assert_eq!(txn.data.as_ref(), &payload[..]);
            }
            other => prop_assert!(false, "wrong decode: {:?}", other),
        }
    }
}

/// Replays one recorded failure of `sync_plan_reconstructs_leader_history`
/// (see `prop.proptest-regressions`) as a deterministic test: the follower
/// applies the leader's sync plans until its history matches.
fn check_sync_reconstructs(
    leader_zxids: Vec<Zxid>,
    keep: usize,
    divergent: Vec<Zxid>,
    threshold: u64,
) {
    let leader = history_from_zxids(leader_zxids);
    let keep = keep.min(leader.len());
    let mut follower = History::new();
    for t in &leader.txns()[..keep] {
        follower.append(t.clone());
    }
    let mut divergent_count = 0usize;
    for z in divergent {
        if z > follower.last_zxid() && !leader.contains_point(z) {
            follower.append(Txn::new(z, b"divergent".to_vec()));
            divergent_count += 1;
        }
    }
    let max_rounds = divergent_count + 2;
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(rounds <= max_rounds, "sync did not converge in {max_rounds} rounds");
        match leader.plan_sync(follower.last_zxid(), threshold) {
            SyncPlan::Diff { txns } => {
                for t in txns {
                    assert!(t.zxid > follower.last_zxid());
                    follower.append(t);
                }
                break;
            }
            SyncPlan::Trunc { truncate_to, txns } => {
                if !follower.contains_point(truncate_to) {
                    let fallback = follower.last_point_at_or_below(truncate_to);
                    follower.truncate_to(fallback);
                    continue;
                }
                follower.truncate_to(truncate_to);
                for t in txns {
                    assert!(t.zxid > follower.last_zxid());
                    follower.append(t);
                }
                break;
            }
            SyncPlan::Snap => {
                follower.reset_to_snapshot(leader.base());
                for t in leader.txns_after(leader.base()) {
                    follower.append(t.clone());
                }
                break;
            }
        }
    }
    assert_eq!(follower.txns(), leader.txns());
    assert_eq!(follower.last_zxid(), leader.last_zxid());
}

#[test]
fn sync_regression_same_zxid_divergence_threshold_zero() {
    // prop.proptest-regressions seed 8ddda835…: shrinks to
    // leader_zxids = [Zxid(1)], shared_prefix_len = 0,
    // divergent = [Zxid(1)], threshold = 0.
    check_sync_reconstructs(vec![Zxid(1)], 0, vec![Zxid(1)], 0);
}

#[test]
fn sync_regression_multi_epoch_divergence_threshold_five() {
    // prop.proptest-regressions seed a628207a…: shrinks to three leader
    // epochs with an interleaved divergent tail at threshold 5.
    check_sync_reconstructs(
        vec![Zxid(167_503_724_554), Zxid(141_733_920_768), Zxid(1)],
        0,
        vec![Zxid(2), Zxid(141_733_920_769), Zxid(167_503_724_555)],
        5,
    );
}
