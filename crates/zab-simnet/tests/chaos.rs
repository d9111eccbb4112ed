//! Chaos-engine acceptance tests: a seeded sweep holds every safety
//! invariant, failures (and passes) replay byte-identically from the
//! seed, and a node fail-stopped by an injected disk fault leaves the
//! remaining majority committing.

use zab_log::FaultOp;
use zab_simnet::chaos::{self, ChaosConfig};
use zab_simnet::SimBuilder;

/// The acceptance sweep: ≥ 64 seeds with crashes, restarts, partitions,
/// message drops, clock skew, and disk faults all enabled, the full
/// PO-atomic-broadcast checker after every step, and heal-and-converge at
/// the end of every run.
#[test]
fn sweep_64_seeds_holds_all_invariants() {
    let cfg = ChaosConfig::default();
    let reports = chaos::sweep(0, 64, &cfg).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(reports.len(), 64);
    // The sweep must actually exercise the fault space, not dodge it.
    let ops: u64 = reports.iter().map(|r| r.ops_completed).sum();
    let faults: u64 = reports.iter().map(|r| r.storage_faults).sum();
    let dropped: u64 = reports.iter().map(|r| r.messages_dropped).sum();
    assert!(ops > 10_000, "sweep barely committed anything: {ops} ops");
    assert!(faults > 0, "no injected storage fault ever fired");
    assert!(dropped > 0, "no message was ever dropped");
}

/// A run replays byte-identically from its seed: same schedule, same
/// message counts, same fault firings, same end time.
#[test]
fn runs_replay_byte_identically() {
    let cfg = ChaosConfig::default();
    for seed in [7, 28, 61] {
        assert_eq!(chaos::generate(seed, &cfg), chaos::generate(seed, &cfg));
        let a = chaos::run(seed, &cfg).unwrap_or_else(|f| panic!("{f}"));
        let b = chaos::run(seed, &cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a, b, "seed {seed} did not replay identically");
    }
}

/// Different seeds explore different schedules (the generator is not
/// collapsing the space).
#[test]
fn seeds_diversify_schedules() {
    let cfg = ChaosConfig::default();
    let schedules: Vec<_> = (0..16).map(|s| chaos::generate(s, &cfg)).collect();
    for (i, a) in schedules.iter().enumerate() {
        for b in &schedules[i + 1..] {
            assert_ne!(a, b);
        }
    }
}

/// An injected disk fault fail-stops exactly the victim: it counts as a
/// storage fault, stops participating, but the remaining majority keeps
/// electing and committing.
#[test]
fn majority_keeps_committing_past_storage_fault() {
    let mut sim = SimBuilder::new(3).seed(11).timeouts_ms(200, 200, 25).build();
    let leader = sim.run_until_leader(5_000_000).expect("initial leader");
    sim.submit(leader, b"before".to_vec());
    sim.run_for(500_000);

    // Fail the *leader's* next flush: the strongest degradation case —
    // it must step down (fail-stop) and the two survivors re-elect.
    sim.arm_disk_fault(leader, FaultOp::Flush);
    sim.submit(leader, b"trigger".to_vec());
    sim.run_for(2_000_000);

    assert!(sim.is_faulted(leader), "injected flush error did not fail-stop the leader");
    assert_eq!(sim.stats().storage_faults, 1);
    let new_leader = sim.leader().expect("survivors re-elect");
    assert_ne!(new_leader, leader);

    // The remaining majority keeps committing.
    let before = sim.applied_log(new_leader).len();
    sim.submit(new_leader, b"after-fault".to_vec());
    sim.run_for(1_000_000);
    assert!(sim.applied_log(new_leader).len() > before, "majority stopped committing");
    sim.check_invariants().unwrap();

    // The faulted node still serves (stale) reads from its applied state.
    assert!(!sim.applied_log(leader).is_empty());

    // Operator intervention: crash + restart clears the fault and the
    // node rejoins and catches up.
    sim.clear_disk_faults(leader);
    sim.crash(leader);
    sim.restart(leader);
    sim.run_for(3_000_000);
    assert!(!sim.is_faulted(leader));
    sim.check_invariants().unwrap();
    sim.check_converged().unwrap();
}

/// A follower hitting an append fault halts acking without disturbing
/// the leader's majority.
#[test]
fn follower_append_fault_is_invisible_to_the_majority() {
    let mut sim = SimBuilder::new(3).seed(5).timeouts_ms(200, 200, 25).build();
    let leader = sim.run_until_leader(5_000_000).expect("initial leader");
    let follower = sim.members().into_iter().find(|&id| id != leader).expect("a follower");

    sim.arm_disk_fault(follower, FaultOp::Append);
    for i in 0..10u8 {
        sim.submit(leader, vec![i; 8]);
    }
    sim.run_for(2_000_000);

    assert!(sim.is_faulted(follower));
    assert_eq!(sim.leader(), Some(leader), "leader should be undisturbed");
    assert_eq!(sim.applied_log(leader).len(), 10, "majority must commit everything");
    sim.check_invariants().unwrap();
}

/// Message loss is a connection reset, not a silent gap: even under
/// sustained loss the cluster recovers once loss stops, with no follower
/// stranded behind a missing proposal.
#[test]
fn message_loss_never_strands_a_follower() {
    let mut sim = SimBuilder::new(3).seed(9).timeouts_ms(200, 200, 25).build();
    let leader = sim.run_until_leader(5_000_000).expect("initial leader");
    sim.set_message_loss(0.10);
    for i in 0..50u8 {
        sim.submit(leader, vec![i; 8]);
        sim.run_for(50_000);
    }
    sim.set_message_loss(0.0);
    sim.run_for(3_000_000);
    sim.check_invariants().unwrap();
    sim.check_converged().unwrap();
}

/// Clock skew alone (no other faults) cannot break safety or liveness:
/// skewed clocks may force elections, but the cluster keeps committing.
#[test]
fn clock_skew_preserves_safety() {
    let mut sim = SimBuilder::new(3).seed(13).timeouts_ms(200, 200, 25).build();
    let leader = sim.run_until_leader(5_000_000).expect("initial leader");
    let members = sim.members();
    sim.set_clock_skew_ms(members[0], 400);
    sim.set_clock_skew_ms(members[1], -150);
    sim.submit(leader, b"skewed".to_vec());
    sim.run_for(3_000_000);
    sim.clear_clock_skews();
    sim.run_for(2_000_000);
    let l = sim.leader().expect("a leader under cleared skew");
    let before = sim.applied_log(l).len();
    sim.submit(l, b"post-skew".to_vec());
    sim.run_for(1_000_000);
    assert!(sim.applied_log(l).len() > before);
    sim.check_invariants().unwrap();
}

/// Deep pipelining through the piggybacked commit watermark: with
/// hundreds of proposals outstanding, most commits ride on later PROPOSE
/// frames instead of standalone COMMITs. A mid-burst leader crash then
/// forces an epoch change with uncommitted suffixes in flight — the
/// epoch-e watermark must never commit an epoch-(e+1) proposal, and the
/// full PO-atomic-broadcast checker must stay silent throughout.
#[test]
fn deep_pipeline_watermark_commits_survive_failover() {
    let mut sim =
        SimBuilder::new(5).seed(23).max_outstanding(256).timeouts_ms(200, 200, 25).build();
    let leader = sim.run_until_leader(5_000_000).expect("initial leader");
    for i in 0..200u32 {
        sim.submit(leader, i.to_le_bytes().to_vec());
    }
    // Crash mid-burst so a deep uncommitted pipeline crosses the failover.
    sim.run_for(100_000);
    sim.check_invariants().unwrap();
    sim.crash(leader);
    let deadline = sim.now_us() + 5_000_000;
    let next = sim.run_until_leader(deadline).expect("failover leader");
    assert_ne!(next, leader);
    for i in 200..400u32 {
        sim.submit(next, i.to_le_bytes().to_vec());
    }
    sim.run_for(1_000_000);
    sim.check_invariants().unwrap();
    sim.restart(leader);
    sim.run_for(5_000_000);
    sim.check_invariants().unwrap();
    sim.check_converged().unwrap();
    // The run must actually have committed a deep pipeline's worth of ops.
    let l = sim.leader().expect("stable leader");
    assert!(
        sim.applied_log(l).len() >= 200,
        "expected a deep committed pipeline, got {} ops",
        sim.applied_log(l).len()
    );
}

/// The per-node metrics registries agree with the simulator's ground
/// truth on a healthy cluster, and — because the simulator pins storage
/// clocks at virtual zero — replay to identical snapshots.
#[test]
fn node_metrics_track_ground_truth_deterministically() {
    let run = || {
        let mut sim = SimBuilder::new(3).seed(17).timeouts_ms(200, 200, 25).build();
        let leader = sim.run_until_leader(5_000_000).expect("initial leader");
        for i in 0..20u8 {
            sim.submit(leader, vec![i; 8]);
        }
        sim.run_for(3_000_000);
        sim.check_converged().unwrap();
        (sim.members().iter().map(|&id| sim.node_metrics(id)).collect::<Vec<_>>(), sim)
    };

    let (snaps_a, sim) = run();
    let leader = sim.leader().expect("leader still up");
    for id in sim.members() {
        let snap = sim.node_metrics(id);
        // The convergence gauge equals the checker's view of applied state.
        assert_eq!(
            snap.gauge("node.commits_delivered"),
            sim.applied_log(id).len() as i64,
            "commits_delivered drifted on {id}"
        );
        assert_eq!(snap.counter("core.proposals_committed"), 20, "wrong commit count on {id}");
        assert!(snap.counter("log.appends") >= 20, "too few appends on {id}");
        if id == leader {
            assert_eq!(snap.counter("core.proposals_proposed"), 20);
            let h = snap.histogram("core.quorum_ack_latency_ms").expect("latency recorded");
            assert_eq!(h.count, 20);
        } else {
            assert!(snap.counter("core.acks_sent") >= 1, "follower {id} never acked");
        }
        // Storage latency histograms run on a clock pinned at virtual
        // zero, so every sample is exactly 0 — deterministic by design.
        let append = snap.histogram("log.append_latency_us").expect("appends timed");
        assert_eq!(append.sum, 0, "storage clock leaked wall time on {id}");
    }

    // A replay of the same seed yields identical metric snapshots.
    let (snaps_b, _) = run();
    assert_eq!(snaps_a, snaps_b, "metrics did not replay deterministically");
}
