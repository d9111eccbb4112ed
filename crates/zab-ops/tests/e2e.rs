//! End-to-end `zabctl` plumbing against live real-TCP ensembles: the
//! scrape → stitch → render path must show a cross-node causal timeline
//! for a committed zxid, the leader's lag table must expose a catch-up
//! straggler and then clear, and the invariant watchdog must stay silent
//! on a healthy run.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_node::{apps::BytesApp, NodeConfig, Replica, Role};
use zab_ops::{audit::AuditState, scrape, status};
use zab_trace::json::Json;
use zab_trace::Stage;

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
    panic!("no leader within {timeout:?}");
}

fn wait_for_all_active(replicas: &BTreeMap<ServerId, Replica<BytesApp>>, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        let all = replicas.values().all(|r| {
            matches!(
                r.role(),
                Role::Leading { established: true, .. } | Role::Following { active: true, .. }
            )
        });
        if all {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("ensemble never became fully active");
}

fn admin_addr(r: &Replica<BytesApp>) -> String {
    r.admin_addr().expect("admin bound").to_string()
}

fn admin_addrs(replicas: &BTreeMap<ServerId, Replica<BytesApp>>) -> Vec<String> {
    replicas.values().map(admin_addr).collect()
}

/// Polls the leader's scraped committed watermark until it reaches `want`.
fn wait_for_committed(addrs: &[String], want: u64, timeout: Duration) -> u64 {
    let deadline = Instant::now() + timeout;
    loop {
        let snap = scrape::ensemble(addrs, scrape::SCRAPE_TIMEOUT);
        if let Some(l) = snap.leader() {
            if (l.last_committed_zxid & 0xffff_ffff) >= want {
                return l.last_committed_zxid;
            }
        }
        assert!(Instant::now() < deadline, "committed never reached counter {want}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn stitched_timeline_and_clean_audit_on_a_live_ensemble() {
    const N: u32 = 20;
    let book = address_book(3);
    let replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let cfg =
                NodeConfig::new(id, book.clone()).with_admin("127.0.0.1:0".parse().expect("addr"));
            (id, Replica::start(cfg, BytesApp::new()).expect("start"))
        })
        .collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10));
    wait_for_all_active(&replicas, Duration::from_secs(10));
    for i in 0..N {
        replicas[&leader].submit(i.to_le_bytes().to_vec());
    }
    let addrs = admin_addrs(&replicas);
    wait_for_committed(&addrs, N as u64, Duration::from_secs(10));
    // Give followers a beat to apply.
    std::thread::sleep(Duration::from_millis(300));

    // ---- status: leader identified, every node answers, lag table clean.
    let snap = scrape::ensemble(&addrs, scrape::SCRAPE_TIMEOUT);
    assert!(snap.errors.is_empty(), "scrape errors: {:?}", snap.errors);
    assert_eq!(snap.nodes.len(), 3);
    let l = snap.leader().expect("leader in snapshot");
    assert_eq!(l.node, leader.0);
    // The leader's commit-latency summary is its own histogram's: every
    // submit above was timed once. Samples recorded into the same
    // histogram then spread p50, p99 and max apart, so a summary that
    // mixes them up, or reads another histogram, shows.
    let leader_addr = admin_addr(&replicas[&leader]);
    let lat =
        scrape::health(&leader_addr, scrape::SCRAPE_TIMEOUT).expect("health").commit_latency_ms;
    assert_eq!(lat.count, u64::from(N), "{lat:?}");
    let histogram = replicas[&leader].metrics().histogram("node.commit_latency_ms");
    for (ms, times) in [(1_000, 40), (10_000, 40), (60_000, 1)] {
        (0..times).for_each(|_| histogram.record(ms));
    }
    let lat =
        scrape::health(&leader_addr, scrape::SCRAPE_TIMEOUT).expect("health").commit_latency_ms;
    let hist = histogram.snapshot();
    assert_eq!(lat.count, hist.count, "{lat:?} vs {hist:?}");
    assert_eq!((lat.p50, lat.p99, lat.max), (hist.quantile(0.5), hist.quantile(0.99), hist.max));
    assert!(lat.p50 < lat.p99 && lat.p99 < lat.max, "{lat:?}");
    let status_json = status::render_status_json(&snap);
    let parsed = Json::parse(&status_json).expect("status json parses");
    assert_eq!(parsed.get("leader").and_then(Json::as_u64), Some(leader.0));
    assert!(parsed.get("last_committed_zxid").and_then(Json::as_u64).unwrap_or(0) > 0);

    // ---- trace: a committed zxid's stitched timeline spans the cluster.
    let zxid = l.last_committed_zxid;
    let (events, errors) = scrape::traces(&addrs, scrape::SCRAPE_TIMEOUT);
    assert!(errors.is_empty(), "trace errors: {errors:?}");
    let (aligned, offsets) = zab_trace::align::stitch(&events, leader.0);
    // Every node participated in the alignment graph.
    for id in book.keys() {
        assert!(offsets.contains_key(&id.0), "node {id:?} missing from offsets: {offsets:?}");
    }
    let timeline: Vec<_> = aligned.iter().filter(|e| e.covers(zxid)).copied().collect();
    let has = |node: u64, stage: Stage| timeline.iter().any(|e| e.node == node && e.stage == stage);
    assert!(has(leader.0, Stage::Submit), "leader submit missing: {timeline:?}");
    assert!(has(leader.0, Stage::WireOut), "leader wire-out missing");
    let followers: Vec<u64> = book.keys().map(|i| i.0).filter(|&i| i != leader.0).collect();
    for &f in &followers {
        assert!(has(f, Stage::WireIn), "follower {f} wire-in missing");
        assert!(has(f, Stage::Deliver), "follower {f} deliver missing");
    }
    // On the stitched clock the leader's submit precedes every follower
    // delivery (alignment error is bounded by one-way loopback delay,
    // orders of magnitude under the submit→deliver pipeline latency).
    let submit_ts = timeline
        .iter()
        .filter(|e| e.node == leader.0 && e.stage == Stage::Submit)
        .map(|e| e.ts_us)
        .min()
        .expect("submit ts");
    for &f in &followers {
        let deliver_ts = timeline
            .iter()
            .filter(|e| e.node == f && e.stage == Stage::Deliver)
            .map(|e| e.ts_us)
            .max()
            .expect("deliver ts");
        assert!(
            submit_ts <= deliver_ts,
            "follower {f} delivered at {deliver_ts} before stitched submit {submit_ts}"
        );
    }
    let timeline_json = status::render_timeline_json(zxid, &timeline, &offsets);
    let parsed = Json::parse(&timeline_json).expect("timeline json parses");
    assert!(parsed.get("events").map(|e| e.items().len()).unwrap_or(0) >= 4);

    // ---- audit: a healthy run produces zero violations, twice.
    let mut auditor = AuditState::new();
    for round in 0..2 {
        let snap = scrape::ensemble(&addrs, scrape::SCRAPE_TIMEOUT);
        let violations = auditor.check_round(&snap, true);
        assert!(violations.is_empty(), "round {round} violations: {violations:?}");
    }
}

#[test]
fn lag_table_shows_a_catching_up_follower_then_clears() {
    // Nodes 1 and 2 form a quorum and commit a multi-MB backlog; node 3
    // starts late and catch-up syncs through the leader's paced shipper
    // at 2 MiB/s, leaving a multi-second window where the leader's
    // /health lag table must show it syncing with positive lag.
    const BACKLOG: u32 = 600;
    const PAYLOAD: usize = 8 * 1024;
    let book = address_book(3);
    let make_cfg = |id: ServerId, book: &BTreeMap<ServerId, SocketAddr>| {
        let mut cfg =
            NodeConfig::new(id, book.clone()).with_admin("127.0.0.1:0".parse().expect("addr"));
        cfg.cluster.sync_rate_bytes_per_sec = 2 << 20; // ~2.4 s to ship the backlog
        cfg
    };
    let mut replicas: BTreeMap<ServerId, Replica<BytesApp>> = [ServerId(1), ServerId(2)]
        .into_iter()
        .map(|id| (id, Replica::start(make_cfg(id, &book), BytesApp::new()).expect("start")))
        .collect();
    let leader = wait_for_leader(&replicas, Duration::from_secs(10));
    for _ in 0..BACKLOG {
        replicas[&leader].submit(vec![7u8; PAYLOAD]);
    }
    let addrs = admin_addrs(&replicas);
    wait_for_committed(&addrs, BACKLOG as u64, Duration::from_secs(30));

    // Late joiner: must sync the whole backlog through the paced stream.
    replicas.insert(
        ServerId(3),
        Replica::start(make_cfg(ServerId(3), &book), BytesApp::new()).expect("start"),
    );
    let leader_addr = admin_addr(&replicas[&leader]);

    // (b) during catch-up: peer 3 appears in the lag table as syncing
    // with positive lag (queued sync txns it has not applied).
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut saw_stall = false;
    while Instant::now() < deadline && !saw_stall {
        if let Ok(h) = scrape::health(&leader_addr, scrape::SCRAPE_TIMEOUT) {
            if let Some(row) = h.lag.iter().find(|r| r.peer == 3) {
                if row.syncing && row.lag_txns.unwrap_or(0) > 0 {
                    saw_stall = true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(saw_stall, "never observed peer 3 syncing with positive lag");

    // ...and after catch-up the same row drains to zero, active.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(h) = scrape::health(&leader_addr, scrape::SCRAPE_TIMEOUT) {
            if let Some(row) = h.lag.iter().find(|r| r.peer == 3) {
                if !row.syncing && row.lag_txns == Some(0) {
                    break;
                }
            }
        }
        assert!(Instant::now() < deadline, "peer 3 never caught up to zero lag");
        std::thread::sleep(Duration::from_millis(50));
    }

    // A full-ensemble audit after convergence is clean: same-anchor
    // delivery chains agree at their common checkpoints.
    let addrs = admin_addrs(&replicas);
    std::thread::sleep(Duration::from_millis(300));
    let snap = scrape::ensemble(&addrs, scrape::SCRAPE_TIMEOUT);
    assert_eq!(snap.nodes.len(), 3, "errors: {:?}", snap.errors);
    let violations = AuditState::new().check_round(&snap, true);
    assert!(violations.is_empty(), "violations: {violations:?}");
}

#[test]
fn health_reports_failed_dials_to_a_dead_peer() {
    // Node 3 is in everyone's address book but never starts: nodes 1 and
    // 2 keep dialing it, and each /health must say so through the parser
    // zabctl uses. Node 2 starts only after node 1 has failed to dial it,
    // so node 1's view of node 2 must also reset once traffic arrives.
    let book = address_book(3);
    let start = |id: u64| {
        let cfg = NodeConfig::new(ServerId(id), book.clone())
            .with_admin("127.0.0.1:0".parse().expect("addr"));
        (ServerId(id), Replica::start(cfg, BytesApp::new()).expect("start"))
    };
    let dials = |r: &Replica<BytesApp>, peer: u64| {
        r.metrics_snapshot().counter(&format!("transport.connect_failures.{peer}"))
    };
    let mut replicas: BTreeMap<ServerId, Replica<BytesApp>> = [start(1)].into();
    let deadline = Instant::now() + Duration::from_secs(10);
    while dials(&replicas[&ServerId(1)], 2) == 0 {
        assert!(Instant::now() < deadline, "node 1 never failed to dial node 2");
        std::thread::sleep(Duration::from_millis(10));
    }
    replicas.extend([start(2)]);
    wait_for_leader(&replicas, Duration::from_secs(10));
    let deadline = Instant::now() + Duration::from_secs(10);
    for r in replicas.values() {
        let addr = admin_addr(r);
        loop {
            // The dead peer's count is the transport's failed dials to it,
            // read when no dial raced the scrape.
            let before = dials(r, 3);
            let h = scrape::health(&addr, scrape::SCRAPE_TIMEOUT).expect("scrape /health");
            let after = dials(r, 3);
            let (live, dead) = (h.peers[&(3 - h.node)], h.peers[&3]);
            if live.reachable {
                assert_eq!(live.failed_attempts, 0, "{addr}: live peer not reset: {h:?}");
            }
            assert!(!dead.reachable, "{addr}: dead peer reachable: {h:?}");
            let settled = before == after && u64::from(dead.failed_attempts) == before;
            if live.reachable && dead.failed_attempts > 0 && settled {
                break;
            }
            assert!(Instant::now() < deadline, "{addr}: failed dials not reported: {h:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
