//! The deterministic chaos engine: seeded, replayable fault exploration.
//!
//! The paper's claim is that primary order survives *arbitrary* crash,
//! recovery, and message-loss interleavings — a property no fixed list of
//! hand-scripted scenarios can certify. This module turns the simulator
//! into a randomized explorer of that space:
//!
//! 1. [`generate`] expands a `u64` seed into a [`ChaosSchedule`] — a
//!    sequence of crash / restart / partition / heal / message-loss /
//!    clock-skew / disk-fault events.
//! 2. [`run`] executes the schedule against a cluster under closed-loop
//!    client load, running the full PO-atomic-broadcast checker
//!    ([`crate::checker`]) after **every** step, then heals everything and
//!    requires the survivors to re-elect and converge.
//! 3. [`sweep`] does this for a contiguous range of seeds; the first
//!    failure is returned as a [`ChaosFailure`] whose `Display` prints the
//!    exact `(seed, schedule)` pair — re-running [`run`] with that seed
//!    replays the failure byte-for-byte (the simulator is fully
//!    deterministic, including fault timing and RNG tie-breaks).
//!
//! Everything is pure virtual time: a 64-seed sweep covering minutes of
//! cluster time runs in seconds of real time.

use crate::sim::{Sim, SimBuilder};
use crate::workload::ClosedLoopSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt;
use zab_core::ServerId;
use zab_log::FaultOp;
use zab_trace::TraceEvent;

/// Distinct RNG stream for schedule generation, so the schedule and the
/// simulator (seeded with the raw seed) draw independent randomness.
const SCHEDULE_STREAM: u64 = 0xC4A0_5C4A_05C4_A05C;

/// One step of a chaos schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosOp {
    /// Crash a node (no-op if already down).
    Crash {
        /// Target server id.
        node: u64,
    },
    /// Restart a node (no-op if already up and healthy; a faulted node is
    /// crash-restarted, losing unflushed writes).
    Restart {
        /// Target server id.
        node: u64,
    },
    /// Split the ensemble into two groups by membership bitmap: bit `i-1`
    /// set puts server `i` in group A, clear in group B.
    Partition {
        /// Group-A membership bitmap.
        mask: u64,
    },
    /// Heal all partitions.
    Heal,
    /// Set the random in-flight message-loss rate, in permille.
    SetLoss {
        /// Loss probability × 1000 (0 disables).
        permille: u32,
    },
    /// Skew one node's clock.
    ClockSkew {
        /// Target server id.
        node: u64,
        /// Offset in milliseconds (positive = clock ahead).
        skew_ms: i64,
    },
    /// Arm a one-shot injected storage fault on a node's log.
    DiskFault {
        /// Target server id.
        node: u64,
        /// The storage operation that will fail next.
        op: FaultOp,
    },
}

impl fmt::Display for ChaosOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosOp::Crash { node } => write!(f, "crash({node})"),
            ChaosOp::Restart { node } => write!(f, "restart({node})"),
            ChaosOp::Partition { mask } => write!(f, "partition(mask={mask:#b})"),
            ChaosOp::Heal => write!(f, "heal"),
            ChaosOp::SetLoss { permille } => write!(f, "loss({permille}‰)"),
            ChaosOp::ClockSkew { node, skew_ms } => write!(f, "skew({node}, {skew_ms}ms)"),
            ChaosOp::DiskFault { node, op } => write!(f, "disk-fault({node}, {op:?})"),
        }
    }
}

/// A generated sequence of chaos steps. `Display` prints one step per
/// line, exactly what [`ChaosFailure`] embeds for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The steps, applied in order with [`ChaosConfig::step_us`] of run
    /// time after each.
    pub ops: Vec<ChaosOp>,
}

impl fmt::Display for ChaosSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  step {i:>3}: {op}")?;
        }
        Ok(())
    }
}

/// Tunables for schedule generation and execution.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Ensemble size.
    pub nodes: u64,
    /// Number of chaos steps per run.
    pub steps: usize,
    /// Virtual time between steps (µs).
    pub step_us: u64,
    /// Virtual time for the final heal-and-converge phase (µs).
    pub settle_us: u64,
    /// Include injected disk faults in generated schedules.
    pub disk_faults: bool,
    /// Include clock-skew events in generated schedules.
    pub clock_skew: bool,
    /// Maximum random message-loss rate a schedule may set (permille).
    pub max_loss_permille: u32,
    /// Closed-loop clients driving load during the run.
    pub clients: usize,
    /// Payload bytes per client operation.
    pub payload_size: usize,
    /// After convergence, cross-check each survivor's metrics registry
    /// against the checker's ground truth (see [`run_schedule`]).
    pub check_metrics: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            nodes: 5,
            steps: 24,
            step_us: 50_000,
            settle_us: 4_000_000,
            disk_faults: true,
            clock_skew: true,
            max_loss_permille: 150,
            clients: 4,
            payload_size: 16,
            check_metrics: true,
        }
    }
}

/// Expands `seed` into a schedule. Pure function of `(seed, cfg)`: the
/// same pair always yields the same schedule, and the simulator's own
/// randomness comes from a different stream, so printing the seed is
/// enough to replay a failing run exactly.
pub fn generate(seed: u64, cfg: &ChaosConfig) -> ChaosSchedule {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SCHEDULE_STREAM);
    let pick_node = |rng: &mut ChaCha8Rng| rng.gen_range(1..=cfg.nodes);
    let mut ops = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let roll: u32 = rng.gen_range(0..100);
        let op = if roll < 20 {
            ChaosOp::Crash { node: pick_node(&mut rng) }
        } else if roll < 40 {
            ChaosOp::Restart { node: pick_node(&mut rng) }
        } else if roll < 52 {
            // Random two-way split; all-zero / all-ones masks degenerate
            // to "no split", which is fine (partition is a no-op then).
            ChaosOp::Partition { mask: rng.gen_range(0..(1u64 << cfg.nodes)) }
        } else if roll < 64 {
            ChaosOp::Heal
        } else if roll < 76 {
            ChaosOp::SetLoss { permille: rng.gen_range(0..=cfg.max_loss_permille) }
        } else if roll < 88 && cfg.clock_skew {
            // -200ms..+500ms: enough to cross the failure-detection
            // timeouts in both directions.
            let skew_ms = rng.gen_range(0..=700u64) as i64 - 200;
            ChaosOp::ClockSkew { node: pick_node(&mut rng), skew_ms }
        } else if cfg.disk_faults {
            let idx = rng.gen_range(0..FaultOp::ALL.len());
            ChaosOp::DiskFault { node: pick_node(&mut rng), op: FaultOp::ALL[idx] }
        } else {
            ChaosOp::Heal
        };
        ops.push(op);
    }
    ChaosSchedule { ops }
}

/// What a passing run observed — compared across replays in tests to
/// demonstrate determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The seed that produced the run.
    pub seed: u64,
    /// Client operations completed during the run.
    pub ops_completed: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped by loss, partitions, and crashes.
    pub messages_dropped: u64,
    /// Nodes fail-stopped by injected storage errors.
    pub storage_faults: u64,
    /// Elections started.
    pub elections_started: u64,
    /// Virtual time at the end of the run (µs).
    pub end_us: u64,
}

/// A failed chaos run: everything needed to replay it.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The seed to replay with.
    pub seed: u64,
    /// Index of the failing step, or `None` if the final
    /// heal-and-converge phase failed.
    pub step: Option<usize>,
    /// The checker/convergence error.
    pub error: String,
    /// The full schedule (regenerable from `seed`, embedded for
    /// human-readable reports).
    pub schedule: ChaosSchedule,
    /// Per-node flight-recorder dumps (node id → events, virtual-time
    /// stamped) captured at the moment of failure: what every node was
    /// doing when the invariant broke, across all its incarnations.
    pub traces: BTreeMap<u64, Vec<TraceEvent>>,
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos run failed: seed={}", self.seed)?;
        match self.step {
            Some(i) => writeln!(f, "  failing step: {} ({})", i, self.schedule.ops[i])?,
            None => writeln!(f, "  failing step: final heal-and-converge phase")?,
        }
        writeln!(f, "  error: {}", self.error)?;
        writeln!(f, "  schedule (replays via chaos::run(seed, cfg)):")?;
        write!(f, "{}", self.schedule)
    }
}

impl std::error::Error for ChaosFailure {}

fn apply(sim: &mut Sim, cfg: &ChaosConfig, op: &ChaosOp) {
    match op {
        ChaosOp::Crash { node } => sim.crash(ServerId(*node)),
        ChaosOp::Restart { node } => {
            let id = ServerId(*node);
            if sim.is_faulted(id) {
                // A faulted node needs a full process restart to rejoin.
                sim.clear_disk_faults(id);
                sim.crash(id);
            }
            sim.restart(id);
        }
        ChaosOp::Partition { mask } => {
            let a: Vec<u64> = (1..=cfg.nodes).filter(|i| mask & (1 << (i - 1)) != 0).collect();
            let b: Vec<u64> = (1..=cfg.nodes).filter(|i| mask & (1 << (i - 1)) == 0).collect();
            sim.partition(&[&a, &b]);
        }
        ChaosOp::Heal => sim.heal(),
        ChaosOp::SetLoss { permille } => sim.set_message_loss(f64::from(*permille) / 1000.0),
        ChaosOp::ClockSkew { node, skew_ms } => sim.set_clock_skew_ms(ServerId(*node), *skew_ms),
        ChaosOp::DiskFault { node, op } => sim.arm_disk_fault(ServerId(*node), *op),
    }
}

/// Generates the schedule for `seed` and executes it. See the module docs
/// for the phases.
///
/// # Errors
///
/// Returns a [`ChaosFailure`] carrying the replayable `(seed, schedule)`
/// if any invariant check fails mid-run, or if the healed cluster fails
/// to re-elect and converge.
pub fn run(seed: u64, cfg: &ChaosConfig) -> Result<ChaosReport, ChaosFailure> {
    let schedule = generate(seed, cfg);
    run_schedule(seed, cfg, &schedule)
}

/// Executes an explicit schedule (normally obtained from [`generate`];
/// hand-written schedules are fine too — they are just not regenerable
/// from the seed).
///
/// # Errors
///
/// As for [`run`].
pub fn run_schedule(
    seed: u64,
    cfg: &ChaosConfig,
    schedule: &ChaosSchedule,
) -> Result<ChaosReport, ChaosFailure> {
    // Failure construction dumps every node's flight recorder: the trace
    // rides along with the replayable `(seed, schedule)` so the causal
    // history leading into the violation is inspectable without a replay.
    let fail = |sim: &Sim, step: Option<usize>, error: String| ChaosFailure {
        seed,
        step,
        error,
        schedule: schedule.clone(),
        traces: sim.members().iter().map(|&id| (id.0, sim.trace_events(id))).collect(),
    };

    let mut sim = SimBuilder::new(cfg.nodes)
        .seed(seed)
        .timeouts_ms(200, 200, 25)
        .compact_every(Some(64))
        .build();
    sim.run_until_leader(5_000_000);
    sim.install_closed_loop(ClosedLoopSpec {
        clients: cfg.clients,
        payload_size: cfg.payload_size.max(8),
        total_ops: u64::MAX / 2,
        retry_delay_us: 5_000,
        op_timeout_us: Some(1_000_000),
    });

    for (i, op) in schedule.ops.iter().enumerate() {
        apply(&mut sim, cfg, op);
        sim.run_for(cfg.step_us);
        if let Err(e) = sim.check_invariants() {
            return Err(fail(&sim, Some(i), e.to_string()));
        }
    }

    // Heal-and-converge phase: lift every fault, restart every casualty,
    // and require the cluster to come back.
    sim.heal();
    sim.set_message_loss(0.0);
    sim.clear_clock_skews();
    for id in sim.members() {
        sim.clear_disk_faults(id);
        if sim.is_faulted(id) {
            sim.crash(id);
        }
        sim.restart(id);
    }
    sim.run_for(cfg.settle_us / 2);
    sim.stop_workload();
    sim.run_for(cfg.settle_us / 2);

    if let Err(e) = sim.check_invariants() {
        return Err(fail(&sim, None, e.to_string()));
    }
    if sim.leader().is_none() {
        let deadline = sim.now_us() + cfg.settle_us;
        if sim.run_until_leader(deadline).is_none() {
            return Err(fail(&sim, None, "no leader re-established after healing".into()));
        }
        sim.run_for(500_000);
    }
    if let Err(e) = sim.check_converged() {
        return Err(fail(&sim, None, format!("healed cluster did not converge: {e}")));
    }

    // The observability layer must agree with the checker's ground truth:
    // each survivor's `node.commits_delivered` gauge equals its applied
    // log length (and therefore converges across survivors), and the
    // core's in-incarnation commit counter never exceeds total applied
    // state (restarted nodes re-deliver only a suffix; snapshot installs
    // bypass Deliver entirely).
    if cfg.check_metrics {
        let mut delivered: Vec<(ServerId, i64)> = Vec::new();
        for id in sim.members() {
            if !sim.is_up(id) || sim.is_faulted(id) {
                continue;
            }
            let snap = sim.node_metrics(id);
            let gauge = snap.gauge("node.commits_delivered");
            let applied = sim.applied_log(id).len() as i64;
            if gauge != applied {
                return Err(fail(
                    &sim,
                    None,
                    format!(
                        "metrics drift on {id}: node.commits_delivered={gauge} \
                         but the applied log holds {applied} entries"
                    ),
                ));
            }
            let committed = snap.counter("core.proposals_committed") as i64;
            if committed > gauge {
                return Err(fail(
                    &sim,
                    None,
                    format!(
                        "metrics drift on {id}: core.proposals_committed={committed} \
                         exceeds node.commits_delivered={gauge}"
                    ),
                ));
            }
            delivered.push((id, gauge));
        }
        let mut values: Vec<i64> = delivered.iter().map(|&(_, v)| v).collect();
        values.dedup();
        if values.len() > 1 {
            return Err(fail(
                &sim,
                None,
                format!("survivor commit metrics diverge: {delivered:?}"),
            ));
        }
    }

    let stats = sim.stats();
    Ok(ChaosReport {
        seed,
        ops_completed: stats.ops.len() as u64,
        messages_delivered: stats.messages_delivered,
        messages_dropped: stats.messages_dropped,
        storage_faults: stats.storage_faults,
        elections_started: stats.elections_started,
        end_us: sim.now_us(),
    })
}

/// Runs `count` seeds starting at `start_seed`, stopping at the first
/// failure. On success returns every run's report.
///
/// # Errors
///
/// The first [`ChaosFailure`] found; its `Display` carries the replayable
/// `(seed, schedule)`.
pub fn sweep(
    start_seed: u64,
    count: u64,
    cfg: &ChaosConfig,
) -> Result<Vec<ChaosReport>, ChaosFailure> {
    let mut reports = Vec::with_capacity(count as usize);
    for seed in start_seed..start_seed + count {
        reports.push(run(seed, cfg)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ChaosConfig::default();
        assert_eq!(generate(3, &cfg), generate(3, &cfg));
        assert_ne!(generate(3, &cfg), generate(4, &cfg));
    }

    #[test]
    fn generation_respects_feature_gates() {
        let cfg = ChaosConfig { disk_faults: false, clock_skew: false, ..ChaosConfig::default() };
        for seed in 0..32 {
            for op in &generate(seed, &cfg).ops {
                assert!(
                    !matches!(op, ChaosOp::DiskFault { .. } | ChaosOp::ClockSkew { .. }),
                    "gated op generated: {op}"
                );
            }
        }
    }

    #[test]
    fn failure_display_carries_seed_and_schedule() {
        let cfg = ChaosConfig { steps: 2, ..ChaosConfig::default() };
        let f = ChaosFailure {
            seed: 99,
            step: Some(1),
            error: "boom".into(),
            schedule: generate(99, &cfg),
            traces: BTreeMap::new(),
        };
        let text = f.to_string();
        assert!(text.contains("seed=99"));
        assert!(text.contains("step   0"));
        assert!(text.contains("boom"));
    }
}
