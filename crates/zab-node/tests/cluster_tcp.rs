//! End-to-end tests: real replicas over real TCP sockets on localhost.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_node::{apps::BytesApp, KvApp, NodeConfig, NodeEvent, Replica, Role};

fn address_book(n: u64) -> BTreeMap<ServerId, SocketAddr> {
    (1..=n)
        .map(|i| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = l.local_addr().expect("addr");
            drop(l);
            (ServerId(i), addr)
        })
        .collect()
}

fn wait_for_leader<A: zab_node::Application>(
    replicas: &BTreeMap<ServerId, Replica<A>>,
    timeout: Duration,
) -> Option<ServerId> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        for (&id, r) in replicas {
            if matches!(r.role(), Role::Leading { established: true, .. }) {
                return Some(id);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

fn drain_deliveries<A: zab_node::Application>(
    r: &Replica<A>,
    want: usize,
    timeout: Duration,
) -> Vec<zab_core::Txn> {
    let deadline = Instant::now() + timeout;
    let mut got = Vec::new();
    while got.len() < want && Instant::now() < deadline {
        match r.events().recv_timeout(Duration::from_millis(100)) {
            Ok(NodeEvent::Delivered(txn)) => got.push(txn),
            Ok(_) => {}
            Err(_) => {}
        }
    }
    got
}

#[test]
fn three_replicas_elect_broadcast_deliver() {
    let book = address_book(3);
    let mut replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let cfg = NodeConfig::new(id, book.clone());
            (id, Replica::start(cfg, BytesApp::new()).expect("start"))
        })
        .collect();

    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    for i in 0..20u32 {
        replicas[&leader].submit(i.to_le_bytes().to_vec());
    }
    // Every replica delivers all 20, in the same order.
    let mut sequences = Vec::new();
    for (&id, r) in &replicas {
        let txns = drain_deliveries(r, 20, Duration::from_secs(10));
        assert_eq!(txns.len(), 20, "replica {id} missed deliveries");
        sequences.push(txns.iter().map(|t| t.zxid).collect::<Vec<_>>());
    }
    assert!(sequences.windows(2).all(|w| w[0] == w[1]), "orders diverge");

    for (_, r) in replicas.iter_mut() {
        let _ = r; // shutdown via drop below
    }
}

#[test]
fn metrics_agree_across_replicas_and_time_the_commit_path() {
    let book = address_book(3);
    let replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let cfg = NodeConfig::new(id, book.clone());
            (id, Replica::start(cfg, BytesApp::new()).expect("start"))
        })
        .collect();

    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    const N: u64 = 10;
    for i in 0..N as u32 {
        replicas[&leader].submit(i.to_le_bytes().to_vec());
    }
    for (&id, r) in &replicas {
        assert_eq!(
            drain_deliveries(r, N as usize, Duration::from_secs(10)).len(),
            N as usize,
            "replica {id}"
        );
    }

    // Every replica counted the same committed stream, and each layer
    // of the leader observed the commit path.
    let snaps: BTreeMap<ServerId, zab_metrics::Snapshot> =
        replicas.iter().map(|(&id, r)| (id, r.metrics_snapshot())).collect();
    for (id, s) in &snaps {
        assert_eq!(s.counter("core.proposals_committed"), N, "replica {id} count diverges");
    }
    let ls = &snaps[&leader];
    assert_eq!(ls.counter("core.proposals_proposed"), N);
    // Acks are cumulative (one covers a persisted batch), so the count
    // is at least 1 but may be well under N.
    assert!(ls.counter("core.acks_received") >= 1, "leader saw no acks");
    let quorum = ls.histogram("core.quorum_ack_latency_ms").expect("quorum histogram");
    assert_eq!(quorum.count, N, "every proposal should have a quorum-latency sample");
    let commit = ls.histogram("node.commit_latency_ms").expect("commit histogram");
    assert_eq!(commit.count, N, "every submit should have an end-to-end sample");
    assert_eq!(ls.gauge("node.commit_inflight"), 0, "inflight not drained");
    assert!(ls.counter("log.appends") >= N, "leader appended each proposal");
    assert!(ls.counter("log.fsyncs") >= 1, "group commit flushed at least once");
    assert!(ls.counter_sum("transport.frames_out.") >= N, "leader broadcast frames");
    assert!(ls.counter("node.role_transitions") >= 1);
    assert!(ls.histogram("node.election_duration_ms").is_some_and(|h| h.count >= 1));
    // Quorum = leader self-ack + at least one follower, so across the
    // followers some acks must have been sent. (A follower that joined
    // late may have received the txns via SyncDiff and never acked a
    // Propose, so no per-follower assertion.)
    let follower_acks: u64 = snaps
        .iter()
        .filter(|(&id, _)| id != leader)
        .map(|(_, s)| s.counter("core.acks_sent"))
        .sum();
    assert!(follower_acks >= 1, "no follower ever acked a proposal");
}

#[test]
fn submit_to_follower_is_rejected() {
    let book = address_book(3);
    let replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let cfg = NodeConfig::new(id, book.clone());
            (id, Replica::start(cfg, BytesApp::new()).expect("start"))
        })
        .collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    let follower = book.keys().copied().find(|&id| id != leader).expect("a follower");
    replicas[&follower].submit(b"nope".to_vec());
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut rejected = false;
    while Instant::now() < deadline && !rejected {
        if let Ok(NodeEvent::Rejected { .. }) =
            replicas[&follower].events().recv_timeout(Duration::from_millis(100))
        {
            rejected = true;
        }
    }
    assert!(rejected, "follower accepted a write");
}

#[test]
fn leader_shutdown_fails_over() {
    let book = address_book(3);
    let mut replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let cfg = NodeConfig::new(id, book.clone());
            (id, Replica::start(cfg, BytesApp::new()).expect("start"))
        })
        .collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    for i in 0..5u32 {
        replicas[&leader].submit(i.to_le_bytes().to_vec());
    }
    // Ensure the writes committed before killing the leader.
    let survivor = book.keys().copied().find(|&id| id != leader).expect("a survivor");
    assert_eq!(drain_deliveries(&replicas[&survivor], 5, Duration::from_secs(10)).len(), 5);
    replicas.remove(&leader).expect("leader exists").shutdown();

    let new_leader = wait_for_leader(&replicas, Duration::from_secs(15)).expect("failover");
    assert_ne!(new_leader, leader);
    replicas[&new_leader].submit(b"after-failover".to_vec());
    // The new write reaches the other survivor too.
    let other = replicas.keys().copied().find(|&id| id != new_leader).expect("other");
    let got = drain_deliveries(&replicas[&other], 6, Duration::from_secs(10));
    assert!(
        got.iter().any(|t| t.data.as_ref() == b"after-failover"),
        "post-failover write missing (got {} txns)",
        got.len()
    );
}

#[test]
fn kv_app_sequential_creates_over_tcp() {
    let book = address_book(3);
    let replicas: BTreeMap<ServerId, Replica<KvApp>> = book
        .keys()
        .map(|&id| {
            let cfg = NodeConfig::new(id, book.clone());
            (id, Replica::start(cfg, KvApp::new()).expect("start"))
        })
        .collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    for _ in 0..3 {
        replicas[&leader]
            .submit(zab_kv::Op::create_sequential("/job-", b"payload".to_vec()).encode());
    }
    // Wait for all three deliveries at a follower and verify the tree.
    let follower = book.keys().copied().find(|&id| id != leader).expect("a follower");
    let got = drain_deliveries(&replicas[&follower], 3, Duration::from_secs(10));
    assert_eq!(got.len(), 3);
    replicas[&follower].with_app(|app| {
        let children = app.tree().children("/").expect("root");
        assert_eq!(children, vec!["job-0000000000", "job-0000000001", "job-0000000002"]);
    });
}

#[test]
fn file_backed_replica_recovers_after_restart() {
    let dir = std::env::temp_dir().join(format!("zab-node-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let book = address_book(3);

    let make = |id: ServerId, book: &BTreeMap<ServerId, SocketAddr>, dir: &std::path::Path| {
        let cfg = NodeConfig::new(id, book.clone()).with_data_dir(dir.join(format!("n{}", id.0)));
        Replica::start(cfg, BytesApp::new()).expect("start")
    };

    let mut replicas: BTreeMap<ServerId, Replica<BytesApp>> =
        book.keys().map(|&id| (id, make(id, &book, &dir))).collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    for i in 0..10u32 {
        replicas[&leader].submit(i.to_le_bytes().to_vec());
    }
    let follower = book.keys().copied().find(|&id| id != leader).expect("a follower");
    assert_eq!(drain_deliveries(&replicas[&follower], 10, Duration::from_secs(10)).len(), 10);

    // Restart the follower from its files; it must catch up (its app is
    // fresh, so all ten transactions are re-delivered after sync).
    replicas.remove(&follower).expect("present").shutdown();
    std::thread::sleep(Duration::from_millis(300));
    let restarted = make(follower, &book, &dir);
    let got = drain_deliveries(&restarted, 10, Duration::from_secs(20));
    assert_eq!(got.len(), 10, "restarted replica failed to recover history");
    replicas.insert(follower, restarted);

    // Stop every replica before deleting their storage directories.
    drop(replicas);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_op_is_rejected_and_every_replica_keeps_committing() {
    // Proposed, an op past the transaction limit would trip the disk
    // thread's frame-length assert and break every follower channel: the
    // leader must bounce it at the door instead.
    let dir = std::env::temp_dir().join(format!("zab-node-oversized-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let book = address_book(3);
    let replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let cfg =
                NodeConfig::new(id, book.clone()).with_data_dir(dir.join(format!("n{}", id.0)));
            (id, Replica::start(cfg, BytesApp::new()).expect("start"))
        })
        .collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    replicas[&leader].submit(vec![0u8; zab_core::MAX_TXN_DATA_LEN + 1]);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(NodeEvent::Rejected { reason, .. }) =
            replicas[&leader].events().recv_timeout(Duration::from_millis(100))
        {
            assert_eq!(reason, "TooLarge");
            break;
        }
        assert!(Instant::now() < deadline, "the oversized op was not rejected");
    }
    replicas[&leader].submit(b"small".to_vec());
    for (&id, r) in &replicas {
        let got = drain_deliveries(r, 1, Duration::from_secs(10));
        assert!(
            got.iter().any(|t| t.data.as_ref() == b"small"),
            "replica {id} did not deliver the op after the rejected one"
        );
    }
    drop(replicas);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_kv_op_leaves_no_speculative_trace() {
    // The data fits the codec's byte-string cap, but path, tag and version
    // push the delta over the transaction limit. The primary must refuse
    // it before its speculative tree holds `/big`: otherwise a create
    // under `/big` would pass validation, commit, and fail to apply on
    // every replica.
    let book = address_book(3);
    let replicas: BTreeMap<ServerId, Replica<KvApp>> = book
        .keys()
        .map(|&id| {
            let cfg = NodeConfig::new(id, book.clone());
            (id, Replica::start(cfg, KvApp::new()).expect("start"))
        })
        .collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    let next_rejection = || {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(NodeEvent::Rejected { reason, .. }) =
                replicas[&leader].events().recv_timeout(Duration::from_millis(100))
            {
                return reason;
            }
            assert!(Instant::now() < deadline, "no rejection arrived");
        }
    };
    let big = vec![0u8; zab_core::MAX_TXN_DATA_LEN];
    replicas[&leader].submit(zab_kv::Op::create("/big", big).encode());
    let reason = next_rejection();
    assert!(reason.contains("transaction limit"), "unexpected rejection: {reason}");
    replicas[&leader].submit(zab_kv::Op::create("/big/x", vec![]).encode());
    assert_eq!(next_rejection(), "no node at /big");
    replicas[&leader].submit(zab_kv::Op::create("/after", b"v".to_vec()).encode());
    for (&id, r) in &replicas {
        let got = drain_deliveries(r, 1, Duration::from_secs(10));
        assert_eq!(got.len(), 1, "replica {id} did not deliver the op after the rejected ones");
        r.with_app(|app| {
            assert!(app.tree().exists("/after"), "replica {id} lacks /after");
            assert!(!app.tree().exists("/big"), "replica {id} holds /big");
        });
    }
}

/// Waits until the replica's applied log reaches `want` entries.
fn wait_applied(r: &Replica<BytesApp>, want: usize, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let len = r.with_app(|a| a.log().len());
        if len >= want {
            return;
        }
        assert!(Instant::now() < deadline, "applied log stuck at {len}/{want}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn compacting_replica_recovers_from_snapshot_plus_log() {
    // With snapshot_every = 5, the log is repeatedly compacted; a restart
    // must recover from snapshot + suffix and the restarted replica's app
    // state must converge with the cluster.
    let dir = std::env::temp_dir().join(format!("zab-node-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let book = address_book(3);

    let make = |id: ServerId| {
        let cfg = NodeConfig::new(id, book.clone())
            .with_data_dir(dir.join(format!("n{}", id.0)))
            .with_snapshot_every(5);
        Replica::start(cfg, BytesApp::new()).expect("start")
    };
    let mut replicas: BTreeMap<ServerId, Replica<BytesApp>> =
        book.keys().map(|&id| (id, make(id))).collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    for i in 0..25u32 {
        replicas[&leader].submit(i.to_le_bytes().to_vec());
    }
    let follower = book.keys().copied().find(|&id| id != leader).expect("a follower");
    // A compacting cluster may sync this follower via SNAP, which installs
    // state without per-txn Delivered events — so wait on applied state,
    // not on the event count.
    wait_applied(&replicas[&follower], 25, Duration::from_secs(15));
    // Restart the follower: it recovers from its compacted storage.
    replicas.remove(&follower).expect("present").shutdown();
    std::thread::sleep(Duration::from_millis(300));
    let restarted = make(follower);
    // Its app was restored from the durable snapshot (or SNAP-synced);
    // wait until its applied log covers all 25 entries, in order.
    wait_applied(&restarted, 25, Duration::from_secs(20));
    let full = restarted.with_app(|a| {
        a.log()
            .iter()
            .map(|(_, d)| u32::from_le_bytes(d[..4].try_into().expect("payload")))
            .collect::<Vec<_>>()
    });
    assert_eq!(full, (0..25u32).collect::<Vec<_>>());
    drop(restarted);
    drop(replicas);
    let _ = std::fs::remove_dir_all(&dir);
}
