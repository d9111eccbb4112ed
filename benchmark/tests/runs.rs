//! Whole runs of the client against real loopback ensembles, short enough
//! for `cargo test`: what they assert is correctness and accounting, not
//! speed.

use std::path::PathBuf;
use std::time::Duration;
use zab_benchmark::report;
use zab_benchmark::workload::{self, Attempt, Params};

fn data_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("test-{test}"))
}

fn params<'a>(workload: &str, window_s: u64, data_dir: &'a std::path::Path) -> Params<'a> {
    Params {
        spec: workload::spec(workload).expect("known workload"),
        seed: 42,
        warmup: Duration::from_millis(300),
        window: Duration::from_secs(window_s),
        setups: 1,
        data_dir,
    }
}

fn assert_all_settled(attempt: &Attempt) {
    assert_eq!(attempt.violations, Vec::<String>::new());
    assert!(!attempt.lat_us.is_empty());
    assert!(attempt.lat_us.iter().all(|&l| l != zab_benchmark::stats::UNACKED), "an op failed");
}

#[test]
fn closed_loop_kv_run_passes_its_epilogue() {
    let dir = data_dir("kv");
    let p = params("sat-kv-128-mem", 1, &dir);
    let attempt = workload::run_end_to_end(p).expect("runs");
    assert_all_settled(&attempt);
    assert_eq!(attempt.role_changes, 0);
    assert!(attempt.kills.is_empty());
    let summary = report::summarise(p.spec, &attempt).expect("acknowledged ops");
    assert_eq!(summary.invalid, None);
    assert_eq!(summary.failed, 0);
    let names: Vec<&str> = summary.end_to_end.iter().map(|m| m.name).collect();
    let declared: Vec<&str> = report::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, declared);
    assert!(summary.end_to_end.iter().all(|m| m.value.is_finite() && m.value > 0.0));
}

#[test]
fn every_op_survives_leader_kills() {
    let dir = data_dir("failover");
    let p = params("failover-1k", 4, &dir);
    let attempt = workload::run_end_to_end(p).expect("runs");
    assert_all_settled(&attempt);
    assert_eq!(attempt.lat_us.len(), 4 * 5_000, "5 000 ops/s came due for 4 s");
    assert!(!attempt.kills.is_empty(), "the leader was killed");
    let first = attempt.kills[0];
    assert!(first.established_at.is_some() && first.first_commit_at.is_some());
    // Ops that came due during the outage waited for it: latency is timed
    // from the due instant.
    let outage_us = (first.first_commit_at.unwrap() - first.at).as_micros() as u32;
    assert!(attempt.lat_us.iter().any(|&l| l >= outage_us / 2));
}
