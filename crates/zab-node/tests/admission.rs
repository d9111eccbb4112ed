//! End-to-end tests for the submit admission gate over real TCP:
//! slots must be released on every exit path (deliver, reject, demote),
//! overload must shed visibly instead of queueing, and no path may leak
//! a slot — a leak shows up here as a timed-out admission, never a hang.
//!
//! The gate's own semantics (notify-one handoff, `close()` waking every
//! waiter, the adaptive controller) are unit-tested next to the
//! implementation in `src/admission.rs`; these tests cover the wiring
//! between the gate and the event loop.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_node::{apps::BytesApp, NodeConfig, NodeEvent, Replica, Role, SubmitError};

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

fn start_cluster(
    book: &BTreeMap<ServerId, SocketAddr>,
    window: usize,
) -> BTreeMap<ServerId, Replica<BytesApp>> {
    book.keys()
        .map(|&id| {
            let cfg = NodeConfig::new(id, book.clone()).with_submit_window(window);
            (id, Replica::start(cfg, BytesApp::new()).expect("start"))
        })
        .collect()
}

fn wait_for_leader(
    replicas: &BTreeMap<ServerId, Replica<BytesApp>>,
    timeout: Duration,
) -> ServerId {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        for (&id, r) in replicas {
            if matches!(r.role(), Role::Leading { established: true, .. }) {
                return id;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("no leader elected");
}

/// Every follower-side rejection must release its admission slot. With a
/// window of 2, a single leaked slot halves the gate and two leaks wedge
/// it — so 64 deadline-bounded submissions through a 2-slot gate only
/// all admit if reject-release is airtight. `submit_deadline` (not the
/// unbounded `submit`) keeps a regression from hanging the test: a leak
/// surfaces as `Overloaded` after the timeout, which the assert reports.
#[test]
fn follower_rejections_release_admission_slots() {
    let book = address_book(3);
    let replicas = start_cluster(&book, 2);
    let leader = wait_for_leader(&replicas, Duration::from_secs(10));
    let follower = book.keys().copied().find(|&id| id != leader).expect("a follower");
    let f = &replicas[&follower];

    const OPS: usize = 64;
    for i in 0..OPS {
        match f.submit_deadline(vec![i as u8], Duration::from_secs(10)) {
            Ok(()) => {}
            Err(e) => panic!("submission {i} failed to admit (leaked slot?): {e:?}"),
        }
    }
    // Every admitted op comes back as a NotPrimary rejection.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut rejected = 0;
    while rejected < OPS && Instant::now() < deadline {
        if let Ok(NodeEvent::Rejected { .. }) = f.events().recv_timeout(Duration::from_millis(200))
        {
            rejected += 1;
        }
    }
    assert_eq!(rejected, OPS, "follower rejected fewer ops than were admitted");
}

/// Overload at the leader sheds visibly: a tight `try_submit` loop far
/// faster than the commit pipeline must observe `Overloaded` (and the
/// `node.submits_shed` counter must agree exactly), while every op that
/// *was* admitted still delivers — shedding loses the excess, never the
/// accepted work. Afterwards a full window's worth of ops must admit
/// again: delivery released every slot.
#[test]
fn leader_sheds_overload_visibly_and_delivers_all_admitted_ops() {
    const WINDOW: usize = 64;
    let book = address_book(3);
    let replicas = start_cluster(&book, WINDOW);
    let leader_id = wait_for_leader(&replicas, Duration::from_secs(10));
    let leader = &replicas[&leader_id];

    let mut admitted = 0u64;
    let mut shed = 0u64;
    for i in 0..10_000u32 {
        match leader.try_submit(i.to_le_bytes().to_vec()) {
            Ok(()) => admitted += 1,
            Err(SubmitError::Overloaded(_)) => shed += 1,
            Err(SubmitError::Closed(_)) => panic!("replica closed mid-test"),
        }
    }
    assert!(shed > 0, "10k instant submissions through a {WINDOW}-slot gate never shed");
    assert!(admitted > 0, "gate admitted nothing");
    assert_eq!(
        leader.metrics_snapshot().counter("node.submits_shed"),
        shed,
        "shed counter disagrees with observed Overloaded errors"
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut delivered = 0u64;
    while delivered < admitted && Instant::now() < deadline {
        match leader.events().recv_timeout(Duration::from_millis(500)) {
            Ok(NodeEvent::Delivered(_)) => delivered += 1,
            Ok(NodeEvent::Rejected { reason, .. }) => {
                panic!("admitted op rejected ({reason}) — no churn expected here")
            }
            _ => {}
        }
    }
    assert_eq!(delivered, admitted, "some admitted ops never delivered");

    // Deliveries released the slots: a whole window admits immediately.
    for i in 0..WINDOW {
        leader
            .submit_deadline((i as u32).to_le_bytes().to_vec(), Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("post-drain submission {i} failed: {e:?}"));
    }
}

/// Losing the primary role must release the slots of every in-flight
/// submission. Fill the gate on an established leader, kill its quorum
/// so the proposals can never commit, and wait for it to abdicate: a
/// subsequent deadline-bounded submission only admits if the demotion
/// handed those slots back.
#[test]
fn demotion_releases_in_flight_admission_slots() {
    const WINDOW: usize = 4;
    let book = address_book(3);
    let mut replicas = start_cluster(&book, WINDOW);
    let leader_id = wait_for_leader(&replicas, Duration::from_secs(10));

    // Kill the quorum, then fill the leader's admission window with ops
    // that can never commit. (If the leader notices the disconnects
    // first, these are rejected NotPrimary instead — which also releases
    // the slots, so the final assert is meaningful either way.)
    let followers: Vec<ServerId> = book.keys().copied().filter(|&id| id != leader_id).collect();
    for id in followers {
        replicas.remove(&id).expect("follower").shutdown();
    }
    let leader = &replicas[&leader_id];
    for i in 0..WINDOW {
        let _ = leader.submit_deadline(vec![i as u8], Duration::from_secs(5));
    }

    // The leader abdicates once it times out its lost quorum.
    let deadline = Instant::now() + Duration::from_secs(30);
    while matches!(leader.role(), Role::Leading { .. }) {
        assert!(Instant::now() < deadline, "leader never abdicated after quorum loss");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Demotion released the in-flight slots: the gate has room again.
    match leader.submit_deadline(b"after-demotion".to_vec(), Duration::from_secs(10)) {
        Ok(()) => {}
        Err(e) => panic!("post-demotion submission blocked — demotion leaked slots: {e:?}"),
    }
}
