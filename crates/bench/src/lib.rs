//! # zab-bench — harness helpers for regenerating the paper's evaluation
//!
//! Each simulator figure/table of the DSN'11 evaluation has a dedicated
//! binary in `src/bin/` (see `DESIGN.md` §3 for the index and `EXPERIMENTS.md` for
//! captured results). This library holds the shared measurement plumbing:
//! saturated-throughput runs on the deterministic simulator and table
//! formatting.
//!
//! All simulator numbers are in *virtual* time under the resource model
//! documented in `zab-simnet` (1 Gb/s node egress, 100–200 µs one-way
//! latency, 1 ms disk flush unless a binary overrides them); they
//! reproduce the paper's *shapes*, not its absolute values.

use zab_simnet::{ClosedLoopSpec, LatencyStats, Sim, SimBuilder};

/// Microseconds per virtual second.
pub const SEC: u64 = 1_000_000;

/// Result of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Committed operations per virtual second.
    pub throughput_ops_per_sec: f64,
    /// Commit-latency stats.
    pub latency: LatencyStats,
    /// Protocol messages delivered during the run.
    pub messages: u64,
    /// Protocol bytes delivered during the run.
    pub bytes: u64,
}

/// Parameters for a saturated (closed-loop) throughput run.
#[derive(Debug, Clone, Copy)]
pub struct SaturatedRun {
    /// Ensemble size.
    pub n: u64,
    /// Operation payload bytes.
    pub payload: usize,
    /// Leader pipelining window.
    pub max_outstanding: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Operations to complete.
    pub total_ops: u64,
    /// Seed.
    pub seed: u64,
    /// Disk flush latency (µs).
    pub flush_latency_us: u64,
}

impl SaturatedRun {
    /// The defaults used by the figure binaries: 1 KiB ops, deep window,
    /// enough clients to saturate.
    pub fn new(n: u64) -> SaturatedRun {
        SaturatedRun {
            n,
            payload: 1024,
            max_outstanding: 1000,
            clients: 200,
            total_ops: 5_000,
            seed: 42,
            flush_latency_us: 1_000,
        }
    }
}

/// Runs a saturated closed-loop workload to completion and returns the
/// measured result.
///
/// # Panics
///
/// Panics if the cluster fails to elect, the workload stalls, or the
/// safety checker finds a violation (it always runs).
pub fn run_saturated(params: SaturatedRun) -> RunResult {
    let mut sim = SimBuilder::new(params.n)
        .seed(params.seed)
        .max_outstanding(params.max_outstanding)
        .flush_latency_us(params.flush_latency_us)
        .build();
    sim.run_until_leader(30 * SEC).expect("leader");
    let msg0 = sim.stats().messages_delivered;
    let bytes0 = sim.stats().bytes_delivered;
    sim.install_closed_loop(ClosedLoopSpec::saturating(
        params.clients,
        params.payload,
        params.total_ops,
    ));
    assert!(
        sim.run_until_completed(params.total_ops, 3_600 * SEC),
        "workload stalled (n={}, payload={})",
        params.n,
        params.payload
    );
    sim.check_invariants().expect("safety");
    finish(sim, msg0, bytes0)
}

/// Extracts a [`RunResult`] from a completed simulation.
pub fn finish(sim: Sim, msg0: u64, bytes0: u64) -> RunResult {
    let stats = sim.stats();
    RunResult {
        throughput_ops_per_sec: stats.throughput_ops_per_sec().expect("enough ops"),
        latency: stats.latency().expect("latency samples"),
        messages: stats.messages_delivered - msg0,
        bytes: stats.bytes_delivered - bytes0,
    }
}

/// Prints a table header row followed by a separator, markdown-style.
pub fn print_header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!("|{}|", cols.iter().map(|c| "-".repeat(c.len() + 2)).collect::<Vec<_>>().join("|"));
}

/// Formats a float tersely (3 significant-ish digits).
pub fn fmt_f(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_run_smoke() {
        let mut p = SaturatedRun::new(3);
        p.total_ops = 100;
        p.clients = 16;
        let r = run_saturated(p);
        assert!(r.throughput_ops_per_sec > 0.0);
        assert!(r.latency.p50_us > 0);
        assert!(r.messages > 0);
    }

    #[test]
    fn fmt_f_ranges() {
        assert_eq!(fmt_f(12345.6), "12346");
        assert_eq!(fmt_f(99.94), "99.9");
        assert_eq!(fmt_f(1.234), "1.23");
    }
}
