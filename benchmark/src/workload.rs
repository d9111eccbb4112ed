//! The four workloads and the client that drives them.
//!
//! One generator thread submits to the established leader and reads its event
//! stream, where acknowledgements (`NodeEvent::Delivered` of an op on the
//! replica it was submitted to) arrive. One helper thread reads every other
//! replica's events and performs the slow parts of fault injection (dropping
//! a killed replica, rebooting it), so the generator never blocks on them.
//!
//! The client keeps every op until it is acknowledged. An open-loop op the
//! leader's admission gate sheds, or one that comes due while no leader is
//! known, waits in the client's queue and is submitted as soon as possible;
//! its latency is timed from the instant it was *due*, so the wait is charged
//! to it and to every op queued behind it. After a failover the client asks
//! the new leader which of its unacknowledged ops survived (ids are issued in
//! order and Zab delivers a primary's changes in order, so the survivors are a
//! prefix) and resubmits the rest. No op is given up, so an op that is never
//! acknowledged is a failure of the system, not of the schedule.

use crate::apps::{Bench, DigestApp, Ops};
use crate::ensemble::{Ensemble, Spawn, StreamCheck};
use crate::gen::{mix, stream, Schedule};
use crate::procfs;
use crate::stats::UNACKED;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_node::{KvApp, Replica, Role, SubmitError};

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Closed loop: this many ops in flight, each replaced when acknowledged,
    /// through blocking `Replica::submit`. Latency is timed from the submit.
    Closed {
        /// Ops in flight.
        in_flight: u64,
    },
    /// Open loop: ops come due at a fixed rate whatever the system does,
    /// through `Replica::try_submit`. Latency is timed from the due instant.
    Open {
        /// Ops per second.
        rate: u64,
    },
}

/// Which application the replicas host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// `zab_node::KvApp`, `Op::set` on one of 1 024 znodes.
    Kv,
    /// [`crate::apps::DigestApp`], opaque payloads.
    Digest,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as later issues refer to it.
    pub name: &'static str,
    /// Why it is in the benchmark (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Ensemble size.
    pub n: u64,
    /// Application.
    pub app: AppKind,
    /// Value (kv) or payload (digest) bytes per op.
    pub payload: usize,
    /// `FileStorage` under the data directory, else `MemStorage`.
    pub file: bool,
    /// Load shape.
    pub load: Load,
    /// Kill and restart the leader over and over.
    pub kills: bool,
}

/// The workloads, in the order a full run executes them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sat-kv-128-mem",
        why: "ZooKeeper-shaped small writes: per-op fixed cost (kv execute/apply, core automaton, \
              codec, acks, node loop) does the work; log and byte movement do almost none",
        n: 3,
        app: AppKind::Kv,
        payload: 128,
        file: false,
        load: Load::Closed { in_flight: 256 },
        kills: false,
    },
    Spec {
        name: "sat-1k-file",
        why: "the paper's 1 KiB op at saturation on the durable path: log append/sync/compaction, \
              CRC, framing and transport bytes dominate; the application does nothing",
        n: 3,
        app: AppKind::Digest,
        payload: 1024,
        file: true,
        load: Load::Closed { in_flight: 256 },
        kills: false,
    },
    Spec {
        name: "steady-1k-n5",
        why: "same pipeline in the latency regime: 12k ops/s open loop on 5 replicas, small \
              batches, 4-way fan-out; a stall or a batching delay shows as latency, not throughput",
        n: 5,
        app: AppKind::Digest,
        payload: 1024,
        file: true,
        load: Load::Open { rate: 12_000 },
        kills: false,
    },
    Spec {
        name: "failover-1k",
        why: "the leader is killed and restarted over and over under 5k ops/s open loop: only \
              here do election, discovery/sync and transport reconnect decide the result",
        n: 3,
        app: AppKind::Digest,
        payload: 1024,
        file: true,
        load: Load::Open { rate: 5_000 },
        kills: true,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A killed replica is rebooted this long after service resumed.
const RESTART_AFTER: Duration = Duration::from_millis(250);
/// The next kill follows a completed rejoin by this long, give or take
/// [`DWELL_JITTER_MS`] (seeded).
const DWELL: Duration = Duration::from_millis(1_000);
const DWELL_JITTER_MS: u64 = 125;
/// The first kill follows the start of the window by this long.
const FIRST_KILL_AFTER: Duration = Duration::from_millis(100);
/// A rebooted replica has rejoined once it actively follows the leader and
/// is at most this many ops behind the last acknowledged one.
const REJOIN_LAG_OPS: u64 = 100;
/// Roles are polled at most this often: the in-process stand-in for a
/// client's leader discovery.
const ROLE_POLL: Duration = Duration::from_millis(1);
/// After the window, ops still unacknowledged get this long.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Non-failover runs report the longest acknowledgement gap per slice of this
/// length (failover runs: per kill cycle).
pub const GAP_SLICE: Duration = Duration::from_secs(2);

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Fixes payload bytes, key choice and kill-schedule jitter.
    pub seed: u64,
    /// Load runs this long before the window opens.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Ensembles are set up this many times; the last one is measured.
    pub setups: usize,
    /// `FileStorage` directories are created (and removed) under this.
    pub data_dir: &'a Path,
}

/// One leader kill and what followed, as the generator saw it by polling
/// `Replica::role()` and reading acknowledgements.
#[derive(Debug, Clone, Copy)]
pub struct Kill {
    /// The replica was taken out of the ensemble.
    pub at: Instant,
    /// A survivor had decided on a leader that is not the victim.
    pub decided_at: Option<Instant>,
    /// A survivor was `Leading { established: true }`.
    pub established_at: Option<Instant>,
    /// An op due after the kill was acknowledged.
    pub first_commit_at: Option<Instant>,
    /// The victim was an active follower within [`REJOIN_LAG_OPS`] again.
    pub rejoined_at: Option<Instant>,
}

/// Acknowledgements read from the leader's event stream in one go.
#[derive(Debug, Clone, Copy)]
pub struct AckBatch {
    /// When they were read.
    pub at: Instant,
    /// How many ops.
    pub ops: u64,
    /// How long the oldest of them had been waiting with nothing
    /// acknowledged: since its latency clock started or since the previous
    /// batch, whichever is later.
    pub gap: Duration,
}

/// Hooks for the traced run, which reads replica metrics at the edges of the
/// window. The end-to-end run passes [`NoProbe`].
pub trait Probe<A: Bench> {
    /// The window opens.
    fn window_start(&mut self, _ensemble: &Ensemble<'_, A>) {}
    /// `replica` is about to be killed.
    fn before_kill(&mut self, _replica: &Replica<A>) {}
    /// The window closes.
    fn window_end(&mut self, _ensemble: &Ensemble<'_, A>) {}
}

/// No hooks.
#[derive(Debug, Clone, Copy)]
pub struct NoProbe;
impl<A: Bench> Probe<A> for NoProbe {}

/// Everything one attempt measured, before it is turned into metrics.
#[derive(Debug)]
pub struct Attempt {
    /// Seconds each set-up took: boot → leader established, every follower
    /// active, set-up requests committed everywhere.
    pub setup_s: Vec<f64>,
    /// Seconds of load before the window opened.
    pub warmup_s: f64,
    /// The window.
    pub window: (Instant, Instant),
    /// Latency (µs, [`UNACKED`] if never acknowledged) of every op of the
    /// window, in op order: ops submitted (closed loop) or due (open loop)
    /// inside it.
    pub lat_us: Vec<u32>,
    /// Open loop: the schedule and the id of the window's first op (op `id`
    /// was due at `schedule.due(id - 1)`). `None` for closed loops.
    pub due: Option<(Schedule, u64)>,
    /// Closed loop: `(t, k)` says `k` ops of the window had been submitted
    /// by `t`, noted once per [`GAP_SLICE`]. Empty for open loops.
    pub marks: Vec<(Instant, usize)>,
    /// Closed loop: how long (ns) each `Replica::submit` of the window took,
    /// which is mostly the wait at the admission gate. Empty for open loops.
    pub submit_wait_ns: Vec<u32>,
    /// Acknowledgements that arrived inside the window.
    pub acks_in_window: u64,
    /// One entry per batch of acknowledgements inside the window.
    pub acks: Vec<AckBatch>,
    /// Open loop: how late (µs) the generator noticed each op of the window
    /// coming due.
    pub gen_late_us: Vec<u32>,
    /// `try_submit` calls the admission gate refused during the window.
    pub shed: u64,
    /// `Rejected` events on all replicas between ready and the end.
    pub rejected: u64,
    /// Kills inside the window.
    pub kills: Vec<Kill>,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    /// Generator thread CPU seconds over the window.
    pub gen_cpu_s: f64,
    /// Host steal share over the window.
    pub steal_share: f64,
    /// `VmHWM` and `VmRSS` at the end of the run, MB.
    pub peak_rss_mb: f64,
    /// See `peak_rss_mb`.
    pub rss_end_mb: f64,
    /// `RoleChanged` events on all replicas between ready and the end.
    pub role_changes: u64,
    /// What the correctness epilogue found wrong; empty if nothing.
    pub violations: Vec<String>,
}

/// Resource counters read at an edge of the window.
#[derive(Debug, Clone, Copy)]
struct Readings {
    cpu_s: f64,
    gen_cpu_s: f64,
    host: procfs::HostCpu,
}

impl Readings {
    /// Reads the counters; the calling thread is the generator.
    fn now() -> Readings {
        Readings {
            cpu_s: procfs::process_cpu_s(),
            gen_cpu_s: procfs::thread_cpu_s(),
            host: procfs::host_cpu(),
        }
    }
}

enum HelperCmd<A: Bench> {
    Drop(Box<Replica<A>>),
    Restart(ServerId),
}

/// Reads the events nobody else reads, drops and reboots replicas.
fn helper<A: Bench>(
    ensemble: &Ensemble<'_, A>,
    commands: &mpsc::Receiver<HelperCmd<A>>,
    stop: &AtomicBool,
) -> Result<(), String> {
    while !stop.load(Ordering::SeqCst) {
        match commands.try_recv() {
            Ok(HelperCmd::Drop(replica)) => drop(replica),
            Ok(HelperCmd::Restart(id)) => ensemble.restart(id)?,
            Err(_) => {}
        }
        if ensemble.pump_others() == 0 {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    Ok(())
}

enum Phase {
    /// All replicas up; kill the leader at `kill_at`, if any.
    Up { kill_at: Option<Instant> },
    /// The leader was killed and no successor is established yet.
    Down,
    /// A new leader serves; the victim is rebooted at `restart_at`.
    Serving { restart_at: Instant },
    /// The victim is booting and catching up.
    Rejoining,
}

struct Client<'e, 'a, 'p, A: Bench> {
    ensemble: &'e Ensemble<'a, A>,
    helper: mpsc::Sender<HelperCmd<A>>,
    probe: &'p mut dyn Probe<A>,
    params: Params<'p>,
    ops: Ops,
    leader: Option<ServerId>,
    /// Ops `1..=acked` are acknowledged.
    acked: u64,
    /// Next op id to submit.
    next: u64,
    /// Closed loop: when each of ops `acked+1..next` was submitted.
    submitted_at: VecDeque<Instant>,
    /// Open loop: op `id` is due at `schedule.due(id - 1)`.
    schedule: Option<Schedule>,
    /// Open loop: ops `1..=noticed_due` have been seen to be due.
    noticed_due: u64,
    window: (Instant, Instant),
    /// The window's ops are `first..end` (`end` is 0 until known).
    first: u64,
    end: u64,
    lat_us: Vec<u32>,
    acks_in_window: u64,
    last_ack: Instant,
    acks: Vec<AckBatch>,
    marks: Vec<(Instant, usize)>,
    submit_wait_ns: Vec<u32>,
    gen_late_us: Vec<u32>,
    shed: u64,
    phase: Phase,
    victim: Option<ServerId>,
    kills: Vec<Kill>,
    last_poll: Instant,
    /// Readings at the window's two edges, once each has passed.
    edges: (Option<Readings>, Option<Readings>),
}

impl<A: Bench> Client<'_, '_, '_, A> {
    fn in_window(&self, t: Instant) -> bool {
        self.window.0 <= t && t < self.window.1
    }

    /// When op `id`'s latency clock started. Closed loop: only valid for the
    /// oldest unacknowledged op.
    fn origin(&self, id: u64) -> Instant {
        match self.schedule {
            Some(s) => s.due(id - 1),
            None => *self.submitted_at.front().expect("an unacknowledged op has a submit time"),
        }
    }

    /// Acknowledges ops `acked+1..=upto` at `now`. `served` is false when the
    /// client only learns the outcome of ops a dead leader had in flight.
    fn ack_through(&mut self, upto: u64, now: Instant, served: bool) {
        if upto <= self.acked {
            return;
        }
        if served {
            let waiting_since = self.origin(self.acked + 1).max(self.last_ack);
            if self.in_window(now) {
                let gap = now.saturating_duration_since(waiting_since);
                self.acks.push(AckBatch { at: now, ops: upto - self.acked, gap });
            }
            self.last_ack = now;
            if let (Some(kill), Some(s)) = (self.kills.last_mut(), self.schedule) {
                if kill.first_commit_at.is_none() && s.due(upto - 1) >= kill.at {
                    kill.first_commit_at = Some(now);
                }
            }
        }
        for id in self.acked + 1..=upto {
            let origin = self.origin(id);
            self.submitted_at.pop_front();
            if id >= self.first && (self.end == 0 || id < self.end) && self.first != 0 {
                let us = now.saturating_duration_since(origin).as_micros();
                self.lat_us[(id - self.first) as usize] = us.min(u128::from(UNACKED - 1)) as u32;
            }
        }
        if self.in_window(now) {
            self.acks_in_window += upto - self.acked;
        }
        self.acked = upto;
    }

    /// Reads the leader's events for up to `wait`.
    fn pump(&mut self, wait: Duration) {
        let Some(leader) = self.leader else {
            std::thread::sleep(wait);
            return;
        };
        let mut newest = 0;
        self.ensemble.pump(leader, wait, |op| newest = newest.max(op));
        // Only ops submitted to this leader are acknowledged by its stream.
        if newest != 0 && newest < self.next {
            self.ack_through(newest, Instant::now(), true);
        }
    }

    fn step_closed(&mut self, now: Instant, in_flight: u64) {
        let submitting = now < self.window.1;
        let (Some(leader), true) =
            (self.leader, submitting && self.next - 1 - self.acked < in_flight)
        else {
            return self.pump(ROLE_POLL);
        };
        let request = self.ops.request(self.next);
        self.submitted_at.push_back(now);
        self.next += 1;
        self.ensemble.with(leader, |r| r.submit(request));
        if now >= self.window.0 {
            if self.first == 0 {
                self.first = self.next - 1;
            }
            if self.marks.last().is_none_or(|&(t, _)| now >= t + GAP_SLICE) {
                self.marks.push((now, self.lat_us.len()));
            }
            self.lat_us.push(UNACKED);
            let blocked = now.elapsed().as_nanos().min(u128::from(u32::MAX));
            self.submit_wait_ns.push(blocked as u32);
        }
        self.pump(Duration::ZERO);
    }

    fn step_open(&mut self, now: Instant, schedule: Schedule) {
        let due = schedule.due_count(now).min(self.end - 1);
        for id in self.noticed_due + 1..=due {
            if id >= self.first {
                let late = now.saturating_duration_since(schedule.due(id - 1)).as_micros();
                self.gen_late_us.push(late.min(u128::from(u32::MAX)) as u32);
            }
        }
        self.noticed_due = self.noticed_due.max(due);
        if let Some(leader) = self.leader {
            while self.next <= due {
                let request = self.ops.request(self.next);
                match self.ensemble.with(leader, |r| r.try_submit(request)) {
                    Some(Ok(())) => self.next += 1,
                    Some(Err(SubmitError::Overloaded(_))) => {
                        self.shed += u64::from(self.in_window(now));
                        break;
                    }
                    // The leader is gone; the role poll will notice.
                    Some(Err(SubmitError::Closed(_))) | None => break,
                }
            }
        }
        // Sleep until the next op is due; with a backlog, until an
        // acknowledgement frees a slot (or briefly, to try again).
        let wait = if self.next <= due {
            Duration::from_micros(200)
        } else {
            schedule.due(due).saturating_duration_since(Instant::now()).min(ROLE_POLL)
        };
        self.pump(wait.max(Duration::from_micros(1)));
    }

    fn kill_leader(&mut self, now: Instant) {
        let Some(leader) = self.leader.take() else { return };
        self.ensemble.claim_events(None);
        if let Some(replica) = self.ensemble.take(leader) {
            self.probe.before_kill(&replica);
            let _ = self.helper.send(HelperCmd::Drop(Box::new(replica)));
        }
        self.victim = Some(leader);
        self.kills.push(Kill {
            at: now,
            decided_at: None,
            established_at: None,
            first_commit_at: None,
            rejoined_at: None,
        });
        self.phase = Phase::Down;
    }

    /// Submits to `leader` from now on. Ops a dead leader had in flight are
    /// settled first: those the new leader's state holds are acknowledged (a
    /// prefix, see the module comment), the rest are submitted again.
    fn adopt(&mut self, leader: ServerId, now: Instant) {
        self.ensemble.claim_events(Some(leader));
        self.leader = Some(leader);
        let held = self.ensemble.with(leader, |r| r.with_app(Bench::last_applied_id)).unwrap_or(0);
        self.ack_through(held.min(self.next - 1), now, false);
        self.next = self.acked + 1;
    }

    /// Fault injection and leader discovery, at most once per [`ROLE_POLL`].
    fn control(&mut self, now: Instant) -> Result<(), String> {
        if now.saturating_duration_since(self.last_poll) < ROLE_POLL {
            return Ok(());
        }
        self.last_poll = now;
        if self.leader.is_some() && self.ensemble.leader() != self.leader {
            if !self.params.spec.kills {
                return Err("the leader lost leadership and no fault was injected".to_string());
            }
            // Election churn without a kill; the kill cycle carries on.
            self.leader = None;
            self.ensemble.claim_events(None);
        }
        let found = if self.leader.is_none() { self.ensemble.leader() } else { None };
        if let Some(leader) = found {
            self.adopt(leader, now);
        }
        match self.phase {
            Phase::Up { kill_at: Some(at) } if now >= at && now < self.window.1 => {
                self.kill_leader(now);
            }
            Phase::Up { .. } => {}
            Phase::Down => {
                let victim = self.victim.expect("down because of a kill");
                let kill = self.kills.last_mut().expect("down because of a kill");
                let decided = found.is_some()
                    || self.ensemble.ids().any(|id| match self.ensemble.role(id) {
                        Some(Role::Leading { .. }) => true,
                        Some(Role::Following { leader, .. }) => leader != victim,
                        _ => false,
                    });
                if decided {
                    kill.decided_at.get_or_insert(now);
                }
                if found.is_some() {
                    kill.established_at = Some(now);
                    self.phase = Phase::Serving { restart_at: now + RESTART_AFTER };
                }
            }
            Phase::Serving { restart_at } if now >= restart_at => {
                let victim = self.victim.expect("a victim is being served around");
                let _ = self.helper.send(HelperCmd::Restart(victim));
                self.phase = Phase::Rejoining;
            }
            Phase::Serving { .. } => {}
            Phase::Rejoining => {
                let (victim, leader) = (self.victim.expect("rejoining victim"), self.leader);
                let caught_up = leader.is_some_and(|l| self.ensemble.follows(victim, l))
                    && self
                        .ensemble
                        .with(victim, |r| r.with_app(Bench::last_applied_id))
                        .is_some_and(|held| held + REJOIN_LAG_OPS >= self.acked);
                if caught_up {
                    if let Some(kill) = self.kills.last_mut() {
                        kill.rejoined_at = Some(now);
                    }
                    self.victim = None;
                    self.phase = Phase::Up { kill_at: self.next_kill(now) };
                }
            }
        }
        Ok(())
    }

    fn next_kill(&self, now: Instant) -> Option<Instant> {
        let jitter = mix(self.params.seed, stream::KILL, self.kills.len() as u64)
            % (2 * DWELL_JITTER_MS + 1);
        let at =
            now + DWELL - Duration::from_millis(DWELL_JITTER_MS) + Duration::from_millis(jitter);
        (self.params.spec.kills && at < self.window.1).then_some(at)
    }

    /// True once the window is over, every op is settled, and the ensemble
    /// is whole again.
    fn finished(&self, now: Instant) -> bool {
        now >= self.window.1
            && self.end != 0
            && self.acked + 1 >= self.end
            && matches!(self.phase, Phase::Up { .. })
    }

    fn run(&mut self) -> Result<(), String> {
        let deadline = self.window.1 + DRAIN_TIMEOUT;
        loop {
            let now = Instant::now();
            if self.edges.0.is_none() && now >= self.window.0 {
                self.edges.0 = Some(Readings::now());
                self.probe.window_start(self.ensemble);
            }
            if self.edges.1.is_none() && now >= self.window.1 {
                self.edges.1 = Some(Readings::now());
                self.probe.window_end(self.ensemble);
                if self.end == 0 {
                    // Closed loop: the window's ops are those submitted
                    // inside it.
                    self.end = self.next;
                    self.first = if self.first == 0 { self.next } else { self.first };
                }
            }
            if self.finished(now) || now >= deadline {
                return Ok(());
            }
            match self.params.spec.load {
                Load::Closed { in_flight } => self.step_closed(now, in_flight),
                Load::Open { .. } => self.step_open(now, self.schedule.expect("open loop")),
            }
            self.control(now)?;
        }
    }
}

/// Boots an ensemble and commits the workload's set-up requests everywhere.
fn set_up<'a, A: Bench>(
    spec: &Spec,
    ops: &Ops,
    data_dir: Option<&Path>,
    spawn: Spawn<'a, A>,
) -> Result<(Ensemble<'a, A>, ServerId), String> {
    let ensemble = Ensemble::start(spec.n, data_dir, spawn)?;
    let leader = ensemble.wait_ready(Duration::from_secs(30))?;
    let requests = ops.setup_requests();
    let wanted = requests.len() as u64;
    for request in requests {
        ensemble.with(leader, |r| r.submit(request));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while ensemble.ids().any(|id| ensemble.stream_check(id).setup_delivered < wanted) {
        if Instant::now() >= deadline {
            return Err(format!("set-up requests not committed everywhere ({wanted} wanted)"));
        }
        for id in ensemble.ids() {
            ensemble.pump(id, Duration::from_millis(1), |_| {});
        }
    }
    Ok((ensemble, leader))
}

/// Waits until every live replica has applied what the leader has.
fn quiesce<A: Bench>(ensemble: &Ensemble<'_, A>, leader: ServerId) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let applied: Vec<_> = ensemble
            .ids()
            .filter_map(|id| ensemble.with(id, |r| r.with_app(|a| a.applied_to())))
            .collect();
        if applied.windows(2).all(|w| w[0] == w[1]) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("replicas did not converge: applied_to {applied:?}"));
        }
        ensemble.pump(leader, Duration::from_millis(1), |_| {});
    }
}

/// The correctness epilogue. Returns what is wrong.
fn epilogue<A: Bench>(
    ensemble: &Ensemble<'_, A>,
    spec: &Spec,
    ops: &Ops,
    acked: u64,
    role_changes: u64,
) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut states = Vec::new();
    for id in ensemble.ids() {
        let StreamCheck { last_id, out_of_order, rejected, storage_faults, .. } =
            ensemble.stream_check(id);
        if out_of_order != 0 {
            wrong.push(format!("{id} delivered {out_of_order} ops out of id order"));
        }
        if storage_faults != 0 {
            wrong.push(format!("{id} reported {storage_faults} storage faults"));
        }
        if rejected != 0 && !spec.kills {
            wrong.push(format!("{id} rejected {rejected} requests"));
        }
        let Some((applied_to, snapshot, holds)) = ensemble
            .with(id, |r| r.with_app(|a| (a.applied_to(), a.snapshot(), a.holds(ops, acked))))
        else {
            wrong.push(format!("{id} is down at the end of the run"));
            continue;
        };
        if let Err(e) = holds {
            wrong.push(format!("{id} lost an acknowledged op: {e}"));
        }
        if last_id != acked {
            wrong.push(format!("{id} streamed ops up to {last_id}, {acked} were acknowledged"));
        }
        states.push((id, applied_to, snapshot));
    }
    if let Some((first, rest)) = states.split_first() {
        for (id, applied_to, snapshot) in rest {
            if (applied_to, snapshot) != (&first.1, &first.2) {
                wrong.push(format!("{id} disagrees with {} on applied_to or state", first.0));
            }
        }
    }
    if role_changes != 0 && !spec.kills {
        wrong.push(format!("{role_changes} role changes and no fault was injected"));
    }
    wrong
}

/// Runs one attempt: sets up (`params.setups` times), warms up, measures the
/// window, drains, and checks correctness.
///
/// # Errors
///
/// The ensemble could not be brought up or kept running; correctness
/// violations are reported in [`Attempt::violations`] instead.
pub fn run<A: Bench>(
    params: Params<'_>,
    spawn: Spawn<'_, A>,
    probe: &mut dyn Probe<A>,
) -> Result<Attempt, String> {
    let spec = params.spec;
    let ops = match spec.app {
        AppKind::Kv => Ops::kv(params.seed, spec.payload),
        AppKind::Digest => Ops::digest(params.seed, spec.payload),
    };
    let mut setup_s = Vec::new();
    let mut ready = None;
    for round in 0..params.setups.max(1) {
        drop(ready.take());
        let dir = params.data_dir.join(format!("setup{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        ready = Some(set_up(spec, &ops, spec.file.then_some(dir.as_path()), spawn)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let (ensemble, leader) = ready.expect("at least one set-up");
    // Role changes of the election that just ended are not the run's.
    while ensemble.pump_others() != 0 {}
    ensemble.claim_events(Some(leader));
    let upsets_before = ensemble.upsets();

    let start = Instant::now() + Duration::from_millis(1);
    let (schedule, w0, first, end) = match spec.load {
        Load::Closed { .. } => (None, start + params.warmup, 0, 0),
        Load::Open { rate } => {
            let s = Schedule::new(start, rate);
            let ops_in = |d: Duration| (d.as_secs_f64() * rate as f64).round() as u64;
            let (k0, k1) = (ops_in(params.warmup), ops_in(params.warmup + params.window));
            (Some(s), s.due(k0), k0 + 1, k1 + 1)
        }
    };
    let w1 = match schedule {
        Some(s) => s.due(end - 1),
        None => w0 + params.window,
    };
    let (commands, helper_commands) = mpsc::channel();
    let stop = AtomicBool::new(false);
    let mut client = Client {
        ensemble: &ensemble,
        helper: commands,
        probe,
        params,
        ops,
        leader: Some(leader),
        acked: 0,
        next: 1,
        submitted_at: VecDeque::new(),
        schedule,
        noticed_due: 0,
        window: (w0, w1),
        first,
        end,
        lat_us: vec![UNACKED; end.saturating_sub(first) as usize],
        acks_in_window: 0,
        last_ack: start,
        acks: Vec::new(),
        marks: Vec::new(),
        submit_wait_ns: Vec::new(),
        gen_late_us: Vec::new(),
        shed: 0,
        phase: Phase::Up { kill_at: spec.kills.then_some(w0 + FIRST_KILL_AFTER) },
        victim: None,
        kills: Vec::new(),
        last_poll: start,
        edges: (None, None),
    };
    let ran = std::thread::scope(|scope| {
        let (ensemble, stop) = (&ensemble, &stop);
        let helper_thread = scope.spawn(move || helper(ensemble, &helper_commands, stop));
        let ran = client.run().and_then(|()| {
            let leader = client.leader.ok_or("no leader at the end of the run")?;
            quiesce(ensemble, leader)?;
            Ok(leader)
        });
        stop.store(true, Ordering::SeqCst);
        let helped = helper_thread.join().map_err(|_| "helper thread panicked".to_string())?;
        helped.and(ran)
    });
    ran?;
    // Single-threaded from here: read what is left of every stream.
    ensemble.claim_events(None);
    while ensemble.pump_others() != 0 {}
    let (Some(opened), Some(closed)) = client.edges else {
        return Err("the run ended before its window did".to_string());
    };
    let upsets = ensemble.upsets();
    let (role_changes, rejected) = (upsets.0 - upsets_before.0, upsets.1 - upsets_before.1);
    let violations = epilogue(&ensemble, spec, &client.ops, client.acked, role_changes);
    let attempt = Attempt {
        setup_s,
        warmup_s: (w0 - start).as_secs_f64(),
        window: client.window,
        lat_us: std::mem::take(&mut client.lat_us),
        due: schedule.map(|s| (s, first)),
        marks: std::mem::take(&mut client.marks),
        submit_wait_ns: std::mem::take(&mut client.submit_wait_ns),
        acks_in_window: client.acks_in_window,
        acks: std::mem::take(&mut client.acks),
        gen_late_us: std::mem::take(&mut client.gen_late_us),
        shed: client.shed,
        rejected,
        kills: std::mem::take(&mut client.kills),
        cpu_s: closed.cpu_s - opened.cpu_s,
        gen_cpu_s: closed.gen_cpu_s - opened.gen_cpu_s,
        steal_share: procfs::steal_share(opened.host, closed.host),
        peak_rss_mb: procfs::peak_rss_mb(),
        rss_end_mb: procfs::rss_mb(),
        role_changes,
        violations,
    };
    drop(client);
    drop(ensemble);
    let _ = std::fs::remove_dir_all(params.data_dir);
    Ok(attempt)
}

/// [`run`] on replicas booted with `Replica::start` and the workload's own
/// application, nothing of the benchmark in between: an end-to-end attempt.
///
/// # Errors
///
/// As [`run`].
pub fn run_end_to_end(params: Params<'_>) -> Result<Attempt, String> {
    match params.spec.app {
        AppKind::Kv => run(
            params,
            &|cfg| Replica::start(cfg, KvApp::new()).map_err(|e| e.to_string()),
            &mut NoProbe,
        ),
        AppKind::Digest => run(
            params,
            &|cfg| Replica::start(cfg, DigestApp::new()).map_err(|e| e.to_string()),
            &mut NoProbe,
        ),
    }
}
