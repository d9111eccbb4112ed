//! The discrete-event simulation engine.
//!
//! See the crate docs for what is modeled. The engine is strictly
//! deterministic: a seed fully determines a run, including fault timing,
//! link latencies, and event tie-breaking (events are ordered by
//! `(time, sequence-number)`).

use crate::app::{payload_hash, ReplicatedLog};
use crate::checker::{check_all, CheckerError};
use crate::stats::{OpRecord, SimStats};
use crate::workload::{op_id_of, op_payload, ClosedLoopSpec, OpenLoopSpec};
use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;
use zab_core::{Action, ClusterConfig, CoreMetrics, Input, Message, PersistToken, ServerId, Zab};
use zab_election::{ElectionConfig, Notification, Process, ProcessOutput};
use zab_log::{FaultOp, FaultPlan, LogMetrics, MemStorage, Storage};
use zab_metrics::{Clock, Gauge, ManualClock, Registry};
use zab_trace::{Recorder, Stage, TraceEvent, Tracer};

/// What travels on a simulated link.
#[derive(Debug, Clone)]
pub enum Wire {
    /// A Zab protocol message.
    Zab(Message),
    /// A Fast Leader Election notification.
    Election(Notification),
}

/// Event kinds, exposed for trace inspection in tests.
#[derive(Debug, Clone)]
pub enum SimEventKind {
    /// Periodic clock tick for one node.
    Tick { node: ServerId, incarnation: u64 },
    /// Message arrival.
    Deliver { from: ServerId, to: ServerId, wire: Wire, link_epoch: u64, size: usize },
    /// A disk flush completed.
    FlushDone { node: ServerId, incarnation: u64 },
    /// A TCP-level disconnect notice.
    Disconnect { node: ServerId, peer: ServerId },
    /// The workload issues (or re-issues) an operation.
    Issue { op_id: u64 },
    /// The workload checks an operation for timeout.
    OpTimeout { op_id: u64 },
}

struct EventEntry {
    time_us: u64,
    seq: u64,
    kind: SimEventKind,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time_us == other.time_us && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        (other.time_us, other.seq).cmp(&(self.time_us, self.seq))
    }
}

/// A simulated process: storage + process automaton + app.
struct Node {
    up: bool,
    /// Fail-stopped on a storage error: protocol participation halted
    /// (no acking, no leading) but the applied state keeps serving reads.
    faulted: bool,
    incarnation: u64,
    storage: MemStorage,
    /// Election and protocol automaton; `None` while crashed or faulted.
    process: Option<Process>,
    app: ReplicatedLog,
    /// Disk: latest token applied but not yet covered by a started flush
    /// (a process's tokens only grow, so the latest covers the rest).
    pending_token: Option<PersistToken>,
    /// Max token covered by the in-flight flush, if one is running.
    flushing_token: Option<PersistToken>,
    /// Deliveries since the last log compaction.
    delivered_since_compact: u64,
    /// Per-incarnation metrics registry (replaced on every boot, so
    /// counters describe the current incarnation only). Latency
    /// histograms use a [`ManualClock`] pinned at zero — metric values
    /// stay fully deterministic.
    metrics: Arc<Registry>,
    /// Cached `node.commits_delivered` gauge: total applied entries,
    /// whether delivered by the protocol or installed via snapshot.
    commits_delivered: Arc<Gauge>,
    /// Flight recorder, timed by the shared virtual-time clock. Unlike
    /// the metrics registry it is *not* reset on reboot: a chaos dump
    /// should show what the node was doing before it crashed.
    recorder: Arc<Recorder>,
}

/// Closed- or open-loop workload state.
enum Workload {
    Closed(ClosedLoopSpec),
    Open(OpenLoopSpec),
}

/// Only injected I/O errors are tolerable storage failures; a `Corrupt`
/// error from the simulated store means the protocol wrote out of order —
/// an implementation bug that must fail the run loudly, not degrade.
fn assert_io_fault(e: &zab_log::StorageError) {
    assert!(
        matches!(e, zab_log::StorageError::Io(_)),
        "simulated storage rejected a protocol write (implementation bug): {e}"
    );
}

/// Configures and builds a [`Sim`].
#[derive(Debug, Clone)]
pub struct SimBuilder {
    n: u64,
    seed: u64,
    latency_us: (u64, u64),
    egress_bytes_per_us: Option<f64>,
    flush_latency_us: u64,
    tick_interval_us: u64,
    disconnect_detect_us: u64,
    max_outstanding: usize,
    snap_threshold: u64,
    ping_interval_ms: u64,
    follower_timeout_ms: u64,
    leader_timeout_ms: u64,
    compact_every: Option<u64>,
    sync_rate_bytes_per_sec: Option<u64>,
    trace_capacity: usize,
}

impl SimBuilder {
    /// A cluster of `n` servers with LAN-like defaults: 100–200 µs one-way
    /// latency, 1 Gb/s (125 B/µs) node egress, 1 ms disk flush.
    pub fn new(n: u64) -> SimBuilder {
        SimBuilder {
            n,
            seed: 42,
            latency_us: (100, 200),
            egress_bytes_per_us: Some(125.0),
            flush_latency_us: 1_000,
            tick_interval_us: 1_000,
            disconnect_detect_us: 10_000,
            max_outstanding: 1000,
            snap_threshold: 100_000,
            ping_interval_ms: 50,
            follower_timeout_ms: 400,
            leader_timeout_ms: 400,
            compact_every: None,
            sync_rate_bytes_per_sec: None,
            trace_capacity: 4096,
        }
    }

    /// RNG seed; a seed fully determines the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// One-way link latency range in microseconds (uniform).
    pub fn latency_us(mut self, min: u64, max: u64) -> Self {
        assert!(min <= max);
        self.latency_us = (min, max);
        self
    }

    /// Node egress bandwidth in bytes/µs (`None` = infinite).
    pub fn egress_bandwidth(mut self, bytes_per_us: Option<f64>) -> Self {
        self.egress_bytes_per_us = bytes_per_us;
        self
    }

    /// Disk flush latency in microseconds.
    pub fn flush_latency_us(mut self, us: u64) -> Self {
        self.flush_latency_us = us;
        self
    }

    /// Leader pipelining window (the paper's outstanding-transactions knob).
    pub fn max_outstanding(mut self, n: usize) -> Self {
        self.max_outstanding = n;
        self
    }

    /// DIFF-vs-SNAP threshold (transactions).
    pub fn snap_threshold(mut self, n: u64) -> Self {
        self.snap_threshold = n;
        self
    }

    /// Compact the log into a snapshot every `k` deliveries per node
    /// (ZooKeeper's periodic snapshotting); `None` disables.
    pub fn compact_every(mut self, k: Option<u64>) -> Self {
        self.compact_every = k;
        self
    }

    /// Catch-up sync shipping budget in bytes/second shared by all
    /// concurrent syncs (0 disables pacing); `None` keeps the
    /// [`ClusterConfig`] default.
    pub fn sync_rate(mut self, bytes_per_sec: u64) -> Self {
        self.sync_rate_bytes_per_sec = Some(bytes_per_sec);
        self
    }

    /// Flight-recorder capacity per node, in events (bounded memory; the
    /// ring overwrites the oldest events once full).
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events.max(1);
        self
    }

    /// Failure-detection timeouts, in milliseconds.
    pub fn timeouts_ms(mut self, follower: u64, leader: u64, ping: u64) -> Self {
        self.follower_timeout_ms = follower;
        self.leader_timeout_ms = leader;
        self.ping_interval_ms = ping;
        self
    }

    /// Builds the simulator and boots every node (storage empty, elections
    /// begin at t=0).
    pub fn build(self) -> Sim {
        let ids: Vec<ServerId> = (1..=self.n).map(ServerId).collect();
        let mut cluster = ClusterConfig::majority(ids.clone());
        cluster.max_outstanding = self.max_outstanding;
        cluster.snap_threshold = self.snap_threshold;
        cluster.ping_interval_ms = self.ping_interval_ms;
        cluster.follower_timeout_ms = self.follower_timeout_ms;
        cluster.leader_timeout_ms = self.leader_timeout_ms;
        if let Some(rate) = self.sync_rate_bytes_per_sec {
            cluster.sync_rate_bytes_per_sec = rate;
        }
        let election_cfg = ElectionConfig::new(ids.clone());
        let trace_clock = Arc::new(ManualClock::new());
        let mut sim = Sim {
            cfg: self.clone(),
            cluster,
            election_cfg,
            now_us: 0,
            seq: 0,
            events: BinaryHeap::new(),
            nodes: BTreeMap::new(),
            groups: ids.iter().map(|&id| (id, 0)).collect(),
            link_epochs: BTreeMap::new(),
            link_last_arrival: BTreeMap::new(),
            egress_free: ids.iter().map(|&id| (id, 0)).collect(),
            rng: ChaCha8Rng::seed_from_u64(self.seed),
            stats: SimStats::default(),
            broadcast_hashes: BTreeSet::new(),
            workload: None,
            wl_next_op: 0,
            wl_issued: 0,
            wl_in_flight: BTreeMap::new(),
            message_loss: 0.0,
            clock_skew_ms: BTreeMap::new(),
            trace_clock: Arc::clone(&trace_clock),
        };
        for &id in &ids {
            let registry = Arc::new(Registry::new());
            let commits_delivered = registry.gauge("node.commits_delivered");
            let recorder = Recorder::new(
                id.0,
                self.trace_capacity,
                Arc::clone(&trace_clock) as Arc<dyn Clock>,
            );
            sim.nodes.insert(
                id,
                Node {
                    up: true,
                    faulted: false,
                    incarnation: 0,
                    storage: MemStorage::new(),
                    process: None,
                    app: ReplicatedLog::new(),
                    pending_token: None,
                    flushing_token: None,
                    delivered_since_compact: 0,
                    metrics: registry,
                    commits_delivered,
                    recorder,
                },
            );
        }
        for &id in &ids {
            sim.boot_node(id);
        }
        sim
    }
}

/// The deterministic cluster simulator. Construct via [`SimBuilder`].
pub struct Sim {
    cfg: SimBuilder,
    cluster: ClusterConfig,
    election_cfg: ElectionConfig,
    now_us: u64,
    seq: u64,
    events: BinaryHeap<EventEntry>,
    nodes: BTreeMap<ServerId, Node>,
    /// Partition group per node; connected iff equal groups.
    groups: BTreeMap<ServerId, u32>,
    /// Per ordered pair: connection incarnation (bumped on any cut).
    link_epochs: BTreeMap<(ServerId, ServerId), u64>,
    /// Per ordered pair: last scheduled arrival (FIFO enforcement).
    link_last_arrival: BTreeMap<(ServerId, ServerId), u64>,
    /// Per node: when its NIC egress becomes free.
    egress_free: BTreeMap<ServerId, u64>,
    rng: ChaCha8Rng,
    stats: SimStats,
    /// Payload hashes of everything clients submitted (for the checker).
    broadcast_hashes: BTreeSet<u64>,
    workload: Option<Workload>,
    wl_next_op: u64,
    wl_issued: u64,
    /// op id → issue time.
    wl_in_flight: BTreeMap<u64, u64>,
    /// Probability each sent message is silently dropped in flight.
    message_loss: f64,
    /// Per-node clock offset applied to every `now_ms` it observes.
    clock_skew_ms: BTreeMap<ServerId, i64>,
    /// Virtual-time clock every flight recorder reads: advanced in
    /// lockstep with `now_us`, so trace timestamps are deterministic.
    trace_clock: Arc<ManualClock>,
}

impl Sim {
    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Ensemble member ids.
    pub fn members(&self) -> Vec<ServerId> {
        self.nodes.keys().copied().collect()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The established leader with the highest epoch, if any.
    pub fn leader(&self) -> Option<ServerId> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.up)
            .filter_map(|(&id, n)| match n.process.as_ref()?.zab()? {
                Zab::Leader(l) if l.is_established() => Some((l.epoch(), id)),
                _ => None,
            })
            .max()
            .map(|(_, id)| id)
    }

    /// The applied log of a node.
    pub fn applied_log(&self, id: ServerId) -> &[crate::app::Applied] {
        self.nodes[&id].app.entries()
    }

    /// A point-in-time snapshot of a node's metrics registry. The
    /// registry is rebuilt on every (re)boot, so the figures describe
    /// the node's current incarnation only.
    pub fn node_metrics(&self, id: ServerId) -> zab_metrics::Snapshot {
        self.nodes[&id].metrics.snapshot()
    }

    /// A snapshot of a node's flight recorder. Unlike the metrics
    /// registry the recorder survives crashes and reboots, so the trace
    /// covers every incarnation (timed by deterministic virtual time).
    pub fn trace_events(&self, id: ServerId) -> Vec<TraceEvent> {
        self.nodes[&id].recorder.snapshot()
    }

    /// A node's flight recorder (for capacity/drop introspection).
    pub fn trace_recorder(&self, id: ServerId) -> Arc<Recorder> {
        Arc::clone(&self.nodes[&id].recorder)
    }

    /// Runs until `deadline_us`, or the event queue empties.
    pub fn run_until(&mut self, deadline_us: u64) {
        while let Some(e) = self.events.peek() {
            if e.time_us > deadline_us {
                break;
            }
            let e = self.events.pop().expect("peeked");
            self.now_us = e.time_us;
            self.trace_clock.set_micros(self.now_us);
            self.process_event(e.kind);
        }
        self.now_us = self.now_us.max(deadline_us);
        self.trace_clock.set_micros(self.now_us);
    }

    /// Runs for `dur_us` of virtual time.
    pub fn run_for(&mut self, dur_us: u64) {
        let deadline = self.now_us + dur_us;
        self.run_until(deadline);
    }

    /// Runs until an established leader exists (checking at 1 ms
    /// granularity); returns it, or `None` if `deadline_us` passes first.
    pub fn run_until_leader(&mut self, deadline_us: u64) -> Option<ServerId> {
        loop {
            if let Some(l) = self.leader() {
                return Some(l);
            }
            if self.now_us >= deadline_us || self.events.is_empty() {
                return None;
            }
            let step = (self.now_us + 1_000).min(deadline_us);
            self.run_until(step);
        }
    }

    /// Runs until the workload completed `target` operations (checking at
    /// 1 ms granularity); returns false if `deadline_us` passes first.
    pub fn run_until_completed(&mut self, target: u64, deadline_us: u64) -> bool {
        loop {
            if self.stats.ops.len() as u64 >= target {
                return true;
            }
            if self.now_us >= deadline_us || self.events.is_empty() {
                return false;
            }
            let step = (self.now_us + 1_000).min(deadline_us);
            self.run_until(step);
        }
    }

    /// Submits one client operation to `node` (tests and fault scenarios;
    /// benches use workloads).
    pub fn submit(&mut self, node: ServerId, data: Vec<u8>) {
        self.broadcast_hashes.insert(payload_hash(&data));
        self.feed(node, Input::ClientRequest { data: Bytes::from(data) });
    }

    /// Installs a closed-loop workload and schedules its first issues.
    pub fn install_closed_loop(&mut self, spec: ClosedLoopSpec) {
        self.workload = Some(Workload::Closed(spec));
        self.wl_next_op = 0;
        self.wl_issued = 0;
        for _ in 0..spec.clients.min(spec.total_ops as usize) {
            let op = self.wl_next_op;
            self.wl_next_op += 1;
            self.schedule(0, SimEventKind::Issue { op_id: op });
        }
    }

    /// Stops the installed workload: nothing further is issued, pending
    /// issue/timeout events become no-ops, and already-committed operations
    /// drain normally. Used by the chaos engine so the cluster can quiesce
    /// before the final convergence check.
    pub fn stop_workload(&mut self) {
        self.workload = None;
        self.wl_in_flight.clear();
    }

    /// Installs an open-loop workload and schedules every issue up front.
    pub fn install_open_loop(&mut self, spec: OpenLoopSpec) {
        self.workload = Some(Workload::Open(spec));
        self.wl_next_op = spec.total_ops;
        for op in 0..spec.total_ops {
            self.schedule(op * spec.interval_us, SimEventKind::Issue { op_id: op });
        }
    }

    /// Crashes a node: unflushed writes are lost; peers notice after the
    /// detection delay.
    pub fn crash(&mut self, id: ServerId) {
        let node = self.nodes.get_mut(&id).expect("known node");
        if !node.up {
            return;
        }
        node.up = false;
        node.faulted = false;
        node.incarnation += 1;
        node.storage.crash();
        node.process = None;
        node.pending_token = None;
        node.flushing_token = None;
        let peers: Vec<ServerId> = self.nodes.keys().copied().filter(|&p| p != id).collect();
        for p in peers {
            self.cut_link(id, p);
        }
    }

    /// Restarts a crashed node: recover storage, rejoin via election.
    pub fn restart(&mut self, id: ServerId) {
        let node = self.nodes.get_mut(&id).expect("known node");
        if node.up {
            return;
        }
        node.up = true;
        node.app = ReplicatedLog::new();
        self.boot_node(id);
    }

    /// Partitions the ensemble: `groups[i]` lists the members of group `i`;
    /// unlisted nodes form their own singleton groups.
    pub fn partition(&mut self, groups: &[&[u64]]) {
        let mut assignment: BTreeMap<ServerId, u32> = BTreeMap::new();
        for (gi, members) in groups.iter().enumerate() {
            for &m in *members {
                assignment.insert(ServerId(m), gi as u32);
            }
        }
        let mut next = groups.len() as u32;
        let ids: Vec<ServerId> = self.nodes.keys().copied().collect();
        for id in &ids {
            assignment.entry(*id).or_insert_with(|| {
                let g = next;
                next += 1;
                g
            });
        }
        // Cut every pair that the new assignment separates.
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let was = self.groups[&a] == self.groups[&b];
                let is = assignment[&a] == assignment[&b];
                if was && !is {
                    self.cut_link(a, b);
                    self.cut_link(b, a);
                }
            }
        }
        self.groups = assignment;
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        let ids: Vec<ServerId> = self.nodes.keys().copied().collect();
        self.groups = ids.into_iter().map(|id| (id, 0)).collect();
    }

    /// Sets the probability that any sent message is silently dropped in
    /// flight (on top of partitions/crashes). `0.0` disables loss and
    /// consumes no randomness, so loss-free runs keep their event streams.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_message_loss(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range: {p}");
        self.message_loss = p;
    }

    /// Skews one node's clock by `skew_ms` (positive = ahead). Applied to
    /// every `now_ms` the node's automata observe; safety must hold under
    /// arbitrary skew (all timeout arithmetic saturates).
    pub fn set_clock_skew_ms(&mut self, id: ServerId, skew_ms: i64) {
        assert!(self.nodes.contains_key(&id), "unknown node {id:?}");
        self.clock_skew_ms.insert(id, skew_ms);
    }

    /// Clears all clock skews (clocks return to simulated real time).
    pub fn clear_clock_skews(&mut self) {
        self.clock_skew_ms.clear();
    }

    /// Arms a one-shot storage fault on `id`: the next operation of kind
    /// `op` against its log fails with an injected I/O error, fail-stopping
    /// the node (see [`Sim::is_faulted`]).
    pub fn arm_disk_fault(&mut self, id: ServerId, op: FaultOp) {
        let node = self.nodes.get_mut(&id).expect("known node");
        match node.storage.faults_mut() {
            Some(plan) => plan.arm(op),
            None => {
                let mut plan = FaultPlan::new();
                plan.arm(op);
                node.storage.set_faults(Some(plan));
            }
        }
    }

    /// Removes any injected-fault schedule from `id`'s storage.
    pub fn clear_disk_faults(&mut self, id: ServerId) {
        self.nodes.get_mut(&id).expect("known node").storage.set_faults(None);
    }

    /// True if `id` fail-stopped on a storage error (up, serving reads,
    /// but out of the protocol until crashed + restarted).
    pub fn is_faulted(&self, id: ServerId) -> bool {
        self.nodes[&id].faulted
    }

    /// True if `id` is running (not crashed).
    pub fn is_up(&self, id: ServerId) -> bool {
        self.nodes[&id].up
    }

    /// Runs the full PO-atomic-broadcast safety checker.
    ///
    /// # Errors
    ///
    /// Returns the first [`CheckerError`] found; any error is an
    /// implementation bug.
    pub fn check_invariants(&self) -> Result<(), CheckerError> {
        let logs: Vec<(ServerId, &[crate::app::Applied])> =
            self.nodes.iter().map(|(&id, n)| (id, n.app.entries())).collect();
        check_all(&logs, Some(&self.broadcast_hashes))
    }

    /// Asserts that all *up* nodes converged to identical applied logs
    /// (run after healing + settling).
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence in lengths.
    pub fn check_converged(&self) -> Result<(), String> {
        let lens: BTreeMap<ServerId, usize> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.up && !n.faulted)
            .map(|(&id, n)| (id, n.app.len()))
            .collect();
        let mut values: Vec<usize> = lens.values().copied().collect();
        values.dedup();
        if values.len() > 1 {
            return Err(format!("applied-log lengths diverge: {lens:?}"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Engine internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, delay_us: u64, kind: SimEventKind) {
        self.seq += 1;
        self.events.push(EventEntry { time_us: self.now_us + delay_us, seq: self.seq, kind });
    }

    /// The wall clock as observed by `id`: simulated time plus the node's
    /// injected skew (clamped at zero).
    fn node_now_ms(&self, id: ServerId) -> u64 {
        let base = (self.now_us / 1_000) as i64;
        let skew = self.clock_skew_ms.get(&id).copied().unwrap_or(0);
        base.saturating_add(skew).max(0) as u64
    }

    /// Fail-stops `id` after a storage error: counts the fault and halts
    /// protocol participation. The applied state stays readable; recovery
    /// requires a crash + restart (operator intervention in real life).
    fn storage_fault(&mut self, id: ServerId) {
        self.stats.storage_faults += 1;
        let node = self.nodes.get_mut(&id).expect("known node");
        node.faulted = true;
        node.process = None;
        node.pending_token = None;
        node.flushing_token = None;
    }

    fn boot_node(&mut self, id: ServerId) {
        let now_ms = self.node_now_ms(id);
        let node = self.nodes.get_mut(&id).expect("known node");
        // Fresh registry per incarnation: counters describe this boot
        // only, so survivors' figures are comparable after a chaos run.
        node.metrics = Arc::new(Registry::new());
        node.commits_delivered = node.metrics.gauge("node.commits_delivered");
        // Latency histograms share the virtual-time clock; storage calls
        // are synchronous (virtual time never advances inside them), so
        // recorded latencies stay a deterministic zero.
        node.storage.set_metrics(
            LogMetrics::registered(&node.metrics)
                .with_clock(Arc::clone(&self.trace_clock) as Arc<dyn Clock>)
                .with_tracer(Tracer::new(Arc::clone(&node.recorder))),
        );
        // The one read of the log in this process's life: every later role
        // change hands state over in memory (see [`Process`]).
        let rec = node.storage.recover().expect("mem storage recovers");
        // After a crash the application restarts from the durable
        // snapshot; without one it keeps its live state and delivery
        // resumes after it. A snapshot that fails to decode fail-stops
        // the node, like any storage rot.
        if node.app.last_zxid() < rec.history.base() {
            let snap = rec.snapshot.clone().expect("base > 0 implies snapshot");
            if node.app.install(&snap).is_err() {
                node.metrics.counter("node.snapshot_install_failures").inc();
                self.stats.snapshot_install_failures += 1;
                self.storage_fault(id);
                return;
            }
            node.commits_delivered.set(node.app.len() as i64);
        }
        let (mut process, outs) = Process::new(
            id,
            self.election_cfg.clone(),
            self.cluster.clone(),
            rec.into_persistent_state(),
            node.app.last_zxid(),
            now_ms,
        );
        process.set_instruments(
            CoreMetrics::registered(&node.metrics),
            Tracer::new(Arc::clone(&node.recorder)),
        );
        node.process = Some(process);
        let incarnation = node.incarnation;
        self.run_outputs(id, outs);
        self.schedule(self.cfg.tick_interval_us, SimEventKind::Tick { node: id, incarnation });
    }

    fn connected(&self, a: ServerId, b: ServerId) -> bool {
        self.nodes[&a].up && self.nodes[&b].up && self.groups[&a] == self.groups[&b]
    }

    fn cut_link(&mut self, a: ServerId, b: ServerId) {
        *self.link_epochs.entry((a, b)).or_insert(0) += 1;
        *self.link_epochs.entry((b, a)).or_insert(0) += 1;
        // The surviving endpoints learn of the broken connection after the
        // detection delay (TCP reset / keepalive).
        self.schedule(self.cfg.disconnect_detect_us, SimEventKind::Disconnect { node: b, peer: a });
        self.schedule(self.cfg.disconnect_detect_us, SimEventKind::Disconnect { node: a, peer: b });
    }

    /// The zxid a wire message is traced under: only the per-transaction
    /// broadcast path (Propose / Ack / Commit), mirroring the real
    /// transport — heartbeats, election, and sync streams would drown
    /// the per-transaction timelines.
    fn traced_zxid(wire: &Wire) -> Option<u64> {
        match wire {
            Wire::Zab(Message::Propose { txn, .. }) => Some(txn.zxid.0),
            Wire::Zab(Message::Ack { zxid }) | Wire::Zab(Message::Commit { zxid }) => Some(zxid.0),
            _ => None,
        }
    }

    fn wire_size(wire: &Wire) -> usize {
        const FRAME: usize = 8;
        let body = match wire {
            Wire::Election(_) => 29,
            Wire::Zab(msg) => match msg {
                Message::FollowerInfo { .. } | Message::AckEpoch { .. } => 13,
                Message::NewEpoch { .. } | Message::NewLeader { .. } => 5,
                Message::AckNewLeader { .. } => 13,
                Message::UpToDate { .. }
                | Message::Ack { .. }
                | Message::Commit { .. }
                | Message::Ping { .. }
                | Message::Pong { .. }
                | Message::SyncAck { .. } => 9,
                // tag + watermark + zxid + len prefix + payload.
                Message::Propose { txn, .. } => 21 + txn.data.len(),
                Message::SyncDiff { txns } => {
                    5 + txns.iter().map(|t| 12 + t.data.len()).sum::<usize>()
                }
                Message::SyncTrunc { txns, .. } => {
                    13 + txns.iter().map(|t| 12 + t.data.len()).sum::<usize>()
                }
                Message::SyncSnap { snapshot, txns, .. } => {
                    13 + snapshot.len() + txns.iter().map(|t| 12 + t.data.len()).sum::<usize>()
                }
            },
        };
        FRAME + body
    }

    fn send(&mut self, from: ServerId, to: ServerId, wire: Wire) {
        if !self.connected(from, to) {
            self.stats.messages_dropped += 1;
            return;
        }
        // Random in-flight loss. The draw only
        // happens with loss enabled so loss-free seeds are unperturbed.
        // Zab assumes reliable FIFO channels (TCP): a segment loss that
        // exhausts retransmission kills the connection, so a dropped
        // message here is modeled as a connection reset — otherwise a
        // follower could silently miss a proposal yet keep the session,
        // stalling behind a gap forever.
        if self.message_loss > 0.0 && self.rng.gen_bool(self.message_loss) {
            self.stats.messages_dropped += 1;
            self.cut_link(from, to);
            return;
        }
        if let Some(zxid) = Self::traced_zxid(&wire) {
            self.nodes[&from].recorder.record(Stage::WireOut, zxid, to.0);
        }
        let size = Self::wire_size(&wire);
        let start = self.now_us.max(self.egress_free[&from]);
        let ser_us = match self.cfg.egress_bytes_per_us {
            Some(bw) => (size as f64 / bw).ceil() as u64,
            None => 0,
        };
        let egress_done = start + ser_us;
        self.egress_free.insert(from, egress_done);
        let (lo, hi) = self.cfg.latency_us;
        let latency = if hi > lo { self.rng.gen_range(lo..=hi) } else { lo };
        let mut arrival = egress_done + latency;
        // FIFO per link: arrivals never reorder.
        let last = self.link_last_arrival.entry((from, to)).or_insert(0);
        if arrival <= *last {
            arrival = *last + 1;
        }
        *last = arrival;
        let link_epoch = *self.link_epochs.entry((from, to)).or_insert(0);
        self.seq += 1;
        self.events.push(EventEntry {
            time_us: arrival,
            seq: self.seq,
            kind: SimEventKind::Deliver { from, to, wire, link_epoch, size },
        });
    }

    fn process_event(&mut self, kind: SimEventKind) {
        match kind {
            SimEventKind::Tick { node, incarnation } => {
                let Some(n) = self.nodes.get(&node) else { return };
                if !n.up || n.faulted || n.incarnation != incarnation {
                    // A faulted node's ticks stop too: a restart boots a
                    // fresh incarnation with its own tick stream.
                    return;
                }
                let now_ms = self.node_now_ms(node);
                self.feed(node, Input::Tick { now_ms });
                self.schedule(self.cfg.tick_interval_us, SimEventKind::Tick { node, incarnation });
            }
            SimEventKind::Deliver { from, to, wire, link_epoch, size } => {
                let current = *self.link_epochs.get(&(from, to)).unwrap_or(&0);
                if current != link_epoch || !self.connected(from, to) {
                    self.stats.messages_dropped += 1;
                    return;
                }
                self.stats.messages_delivered += 1;
                self.stats.bytes_delivered += size as u64;
                if let Some(zxid) = Self::traced_zxid(&wire) {
                    self.nodes[&to].recorder.record(Stage::WireIn, zxid, from.0);
                }
                match wire {
                    Wire::Zab(msg) => self.feed(to, Input::Message { from, msg }),
                    Wire::Election(notification) => {
                        let now_ms = self.node_now_ms(to);
                        let Some(p) = self.nodes.get_mut(&to).and_then(|n| n.process.as_mut())
                        else {
                            return;
                        };
                        let outs = p.handle_notification(from, notification, now_ms);
                        self.run_outputs(to, outs);
                    }
                }
            }
            SimEventKind::FlushDone { node, incarnation } => {
                let Some(n) = self.nodes.get_mut(&node) else { return };
                if !n.up || n.faulted || n.incarnation != incarnation {
                    return;
                }
                if let Err(e) = n.storage.flush() {
                    // fsync returned EIO: the write-back cache state is
                    // unknowable, so the node fail-stops (no ack is sent
                    // for the covered token).
                    assert_io_fault(&e);
                    self.storage_fault(node);
                    return;
                }
                self.stats.flushes += 1;
                let token = n.flushing_token.take().expect("flush was in flight");
                // Start the next group flush if writes accumulated.
                if let Some(next) = n.pending_token.take() {
                    n.flushing_token = Some(next);
                    self.schedule(
                        self.cfg.flush_latency_us,
                        SimEventKind::FlushDone { node, incarnation },
                    );
                }
                self.feed(node, Input::Persisted { token });
            }
            SimEventKind::Disconnect { node, peer } => {
                let Some(n) = self.nodes.get(&node) else { return };
                if !n.up {
                    return;
                }
                self.feed(node, Input::PeerDisconnected { peer });
            }
            SimEventKind::Issue { op_id } => self.workload_issue(op_id),
            SimEventKind::OpTimeout { op_id } => {
                if self.wl_in_flight.contains_key(&op_id) {
                    // Not completed in time (leader died mid-flight):
                    // re-issue.
                    self.workload_issue(op_id);
                }
            }
        }
    }

    /// Feeds an input to a node's process, routing resulting outputs (and
    /// their cascading local inputs) to completion.
    fn feed(&mut self, id: ServerId, input: Input) {
        self.drain(VecDeque::from([(id, input)]));
    }

    /// Routes one batch of a node's outputs, then whatever local inputs
    /// they cascade into.
    fn run_outputs(&mut self, id: ServerId, outs: Vec<ProcessOutput>) {
        let mut inbox = VecDeque::new();
        self.route(id, outs, &mut inbox);
        self.drain(inbox);
    }

    fn drain(&mut self, mut inbox: VecDeque<(ServerId, Input)>) {
        while let Some((nid, input)) = inbox.pop_front() {
            let now_ms = self.node_now_ms(nid);
            // No process while crashed or faulted: the input is dropped.
            let Some(p) = self.nodes.get_mut(&nid).and_then(|n| n.process.as_mut()) else {
                continue;
            };
            let outs = p.handle(input, now_ms);
            self.route(nid, outs, &mut inbox);
        }
    }

    fn route(
        &mut self,
        id: ServerId,
        outs: Vec<ProcessOutput>,
        inbox: &mut VecDeque<(ServerId, Input)>,
    ) {
        for o in outs {
            let a = match o {
                ProcessOutput::Notify { to, notification } => {
                    self.send(id, to, Wire::Election(notification));
                    continue;
                }
                ProcessOutput::Looking => {
                    self.stats.elections_started += 1;
                    continue;
                }
                ProcessOutput::Decided { .. } => continue,
                ProcessOutput::Zab(a) => a,
            };
            match a {
                Action::Send { to, msg } => self.send(id, to, Wire::Zab(msg)),
                Action::Broadcast { to, msg } => {
                    // Expand in the action's (sorted) target order so the
                    // simulation stays deterministic and matches the
                    // per-peer Send semantics exactly.
                    for &t in &to {
                        self.send(id, t, Wire::Zab(msg.clone()));
                    }
                }
                Action::Persist { token, req } => {
                    let node = self.nodes.get_mut(&id).expect("known node");
                    if let Err(e) = node.storage.apply(&req) {
                        // The write failed before anything mutated: the
                        // node fail-stops, dropping its remaining actions
                        // (they were predicated on the persist).
                        assert_io_fault(&e);
                        self.storage_fault(id);
                        return;
                    }
                    let node = self.nodes.get_mut(&id).expect("known node");
                    if node.flushing_token.is_none() {
                        node.flushing_token = Some(token);
                        let incarnation = node.incarnation;
                        self.schedule(
                            self.cfg.flush_latency_us,
                            SimEventKind::FlushDone { node: id, incarnation },
                        );
                    } else {
                        node.pending_token = Some(token);
                    }
                }
                Action::Deliver { txn } => {
                    let node = self.nodes.get_mut(&id).expect("known node");
                    node.app.apply(&txn);
                    node.commits_delivered.set(node.app.len() as i64);
                    node.delivered_since_compact += 1;
                    if let Some(every) = self.cfg.compact_every {
                        if node.delivered_since_compact >= every {
                            node.delivered_since_compact = 0;
                            let snapshot = Bytes::from(node.app.snapshot());
                            let through = node.app.last_zxid();
                            if let Err(e) = node.storage.compact(snapshot.clone(), through) {
                                assert_io_fault(&e);
                                self.storage_fault(id);
                                return;
                            }
                            inbox.push_back((
                                id,
                                Input::Compact { through, snapshot: Some(snapshot) },
                            ));
                        }
                    }
                    self.workload_on_delivered(id, &txn);
                }
                Action::InstallSnapshot { snapshot, .. } => {
                    // A malformed snapshot off the (simulated) wire is a
                    // node fault, not a simulator panic: count it and
                    // fail-stop, leaving the applied state readable.
                    let node = self.nodes.get_mut(&id).expect("known node");
                    if node.app.install(&snapshot).is_err() {
                        node.metrics.counter("node.snapshot_install_failures").inc();
                        self.stats.snapshot_install_failures += 1;
                        self.storage_fault(id);
                        return;
                    }
                    node.commits_delivered.set(node.app.len() as i64);
                }
                Action::TakeSnapshot => {
                    let node = self.nodes.get_mut(&id).expect("known node");
                    let snapshot = Bytes::from(node.app.snapshot());
                    let zxid = node.app.last_zxid();
                    inbox.push_back((id, Input::SnapshotReady { snapshot, zxid }));
                }
                Action::Activated { .. } => {
                    let process = self.nodes[&id].process.as_ref();
                    if matches!(process.and_then(Process::zab), Some(Zab::Leader(_))) {
                        self.stats.establishments += 1;
                    }
                }
                // `GoToElection` never leaves the process.
                Action::Committed { .. } | Action::GoToElection { .. } => {}
                Action::ClientRequestRejected { data, .. } => {
                    self.stats.rejections += 1;
                    self.workload_on_rejected(&data);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Workload plumbing
    // ------------------------------------------------------------------

    fn workload_issue(&mut self, op_id: u64) {
        let Some(wl) = &self.workload else { return };
        let (payload_size, retry, timeout) = match wl {
            Workload::Closed(s) => (s.payload_size, s.retry_delay_us, s.op_timeout_us),
            Workload::Open(s) => (s.payload_size, s.retry_delay_us, None),
        };
        let Some(leader) = self.leader() else {
            self.schedule(retry, SimEventKind::Issue { op_id });
            return;
        };
        let data = op_payload(op_id, payload_size);
        self.broadcast_hashes.insert(payload_hash(&data));
        self.wl_in_flight.entry(op_id).or_insert(self.now_us);
        self.wl_issued += 1;
        if let Some(t) = timeout {
            self.schedule(t, SimEventKind::OpTimeout { op_id });
        }
        self.feed(leader, Input::ClientRequest { data: Bytes::from(data) });
    }

    /// Called on every delivery; completes workload ops on their first
    /// delivery anywhere (the leader delivers at commit time).
    fn workload_on_delivered(&mut self, _node: ServerId, txn: &zab_core::Txn) {
        if self.workload.is_none() {
            return;
        }
        let Some(op_id) = op_id_of(&txn.data) else { return };
        let Some(issued_us) = self.wl_in_flight.remove(&op_id) else { return };
        self.stats.ops.push(OpRecord { op_id, issued_us, completed_us: self.now_us });
        // Closed loop: this client issues its next operation.
        if let Some(Workload::Closed(spec)) = &self.workload {
            if self.wl_next_op < spec.total_ops {
                let op = self.wl_next_op;
                self.wl_next_op += 1;
                self.schedule(0, SimEventKind::Issue { op_id: op });
            }
        }
    }

    fn workload_on_rejected(&mut self, data: &[u8]) {
        let Some(wl) = &self.workload else { return };
        let retry = match wl {
            Workload::Closed(s) => s.retry_delay_us,
            Workload::Open(s) => s.retry_delay_us,
        };
        let Some(op_id) = op_id_of(data) else { return };
        if self.wl_in_flight.remove(&op_id).is_some() {
            self.schedule(retry, SimEventKind::Issue { op_id });
        }
    }
}
