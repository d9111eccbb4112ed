//! The paper's motivating experiment (its Figure-1 narrative), live.
//!
//! Runs the same shape of history twice:
//!
//! 1. **Naive Multi-Paxos** with multiple outstanding proposals: primary 1
//!    pipelines deltas, some `Accept`s are lost, the primary crashes, and
//!    primary 2 takes over. The prepare quorum hands primary 2 a *suffix
//!    with holes* of primary 1's stream; it fills the gap with its own
//!    value, and slot-order delivery violates primary order. We then apply
//!    the delivered sequence as KV deltas to show the actual corruption.
//!
//! 2. **Zab** under a comparable fault schedule in the deterministic
//!    simulator: leader crash mid-pipeline with unflushed writes; the
//!    safety checker verifies primary order holds, by construction.
//!
//! Run with: `cargo run --example primary_order`

use zab_baselines::harness::{run_scenario, Scenario};
use zab_baselines::po::check_primary_order;
use zab_kv::{DataTree, Delta};
use zab_simnet::{ClosedLoopSpec, SimBuilder};

fn main() {
    multipaxos_side();
    zab_side();
    println!("\nprimary_order OK");
}

fn multipaxos_side() {
    println!("=== Naive Multi-Paxos (window = 8) ===");
    // Search seeds for a violating run — with 40% accept loss and a crash
    // they are common.
    let mut found = None;
    for seed in 0..500 {
        let outcome = run_scenario(&Scenario {
            acceptors: 3,
            window: 8,
            ops_before_crash: 6,
            crash_primary: true,
            ops_after_takeover: 3,
            accept_drop_percent: 40,
            seed,
        });
        if let Err(violation) = check_primary_order(&outcome.delivered) {
            found = Some((seed, outcome, violation));
            break;
        }
    }
    let (seed, outcome, violation) = found.expect("a violating seed exists");
    println!("seed {seed} delivered (origin.seq per slot):");
    for (i, v) in outcome.delivered.iter().enumerate() {
        println!("  slot {:>2}: primary {} seq {}", i + 1, v.origin, v.seq);
    }
    println!("violation: {violation}");

    // Now show what a *local* gap does to real incremental state. Model
    // each primary's stream as a dependency chain of nested znodes: its
    // k-th delta creates a child of the node its (k-1)-th delta created.
    // Search for a seed whose delivered sequence has a local gap and
    // replay it on a backup tree.
    // A delivered sequence where some origin's seq k appears while seq
    // k-1 never does (its slot was filled by the new primary).
    let has_local_gap = |delivered: &[zab_baselines::multipaxos::TaggedValue]| {
        let mut per_origin: std::collections::BTreeMap<u32, Vec<u32>> =
            std::collections::BTreeMap::new();
        for v in delivered {
            per_origin.entry(v.origin).or_default().push(v.seq);
        }
        per_origin.values().any(|seqs| {
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            sorted.first() != Some(&1) || sorted.windows(2).any(|w| w[1] != w[0] + 1)
        })
    };
    let mut demo = None;
    'outer: for seed in 0..2_000 {
        let outcome = run_scenario(&Scenario {
            acceptors: 3,
            window: 8,
            ops_before_crash: 6,
            crash_primary: true,
            ops_after_takeover: 3,
            accept_drop_percent: 40,
            seed,
        });
        if has_local_gap(&outcome.delivered) {
            demo = Some((seed, outcome));
            break 'outer;
        }
    }
    let (gap_seed, gap_outcome) = demo.expect("a local-gap seed exists among 2000");
    println!("\nseed {gap_seed} has a local gap; replaying its deltas on a backup:");
    let mut tree = DataTree::new();
    let mut corrupted = false;
    for (i, v) in gap_outcome.delivered.iter().enumerate() {
        // Primary `o`'s delta k was computed assuming deltas 1..k-1 of `o`
        // applied: it creates a child nested under the (k-1)-chain.
        let path = format!("/p{}{}", v.origin, "/n".repeat(v.seq as usize - 1));
        let delta = Delta::CreateNode { path, data: vec![], parent_cversion: 1 };
        if let Err(e) = tree.apply(&delta) {
            println!(
                "  delta {} (primary {} seq {}): BACKUP CORRUPTED: {e}",
                i + 1,
                v.origin,
                v.seq
            );
            corrupted = true;
            break;
        }
        println!("  delta {} (primary {} seq {}): ok", i + 1, v.origin, v.seq);
    }
    assert!(corrupted, "a local primary-order gap must break the delta chain");

    // The contrast the paper draws: a single outstanding proposal avoids
    // the phenomenon entirely (at a large throughput cost — see
    // `f3_pipelining_multiplies_throughput` in tests/paper_shapes.rs).
    let mut violations_w1 = 0;
    for seed in 0..500 {
        let outcome = run_scenario(&Scenario {
            acceptors: 3,
            window: 1,
            ops_before_crash: 6,
            crash_primary: true,
            ops_after_takeover: 3,
            accept_drop_percent: 40,
            seed,
        });
        if check_primary_order(&outcome.delivered).is_err() {
            violations_w1 += 1;
        }
    }
    println!(
        "window = 1: {violations_w1} violations in 500 seeds (stop-and-wait is safe but slow)"
    );
    assert_eq!(violations_w1, 0);
}

fn zab_side() {
    println!("\n=== Zab (window = 1000, leader crashes, unflushed writes lost) ===");
    let mut checked = 0;
    for seed in 0..10 {
        let mut sim = SimBuilder::new(3)
            .seed(seed)
            .timeouts_ms(200, 200, 25)
            .flush_latency_us(10_000) // slow disk: plenty of unflushed state
            .build();
        let leader = sim.run_until_leader(10_000_000).expect("leader");
        sim.install_closed_loop(ClosedLoopSpec {
            clients: 8,
            payload_size: 64,
            total_ops: 300,
            retry_delay_us: 5_000,
            op_timeout_us: Some(2_000_000),
        });
        sim.run_until_completed(100, 30_000_000);
        sim.crash(leader);
        sim.run_for(3_000_000);
        sim.restart(leader);
        sim.run_until_completed(300, 120_000_000);
        sim.check_invariants().unwrap_or_else(|e| panic!("Zab violated PO at seed {seed}: {e}"));
        checked += 1;
    }
    println!("{checked} crash-recovery schedules checked: primary order intact in all");
}
