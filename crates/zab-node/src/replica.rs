//! The replica event loop.

use crate::admin::AdminServer;
use crate::admission::SubmitGate;
use crate::apps::Application;
use crate::config::NodeConfig;
use crate::metrics::NodeMetrics;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use zab_core::{
    Action, CoreMetrics, DeliveryHash, Epoch, Input, PersistRequest, PersistToken, ServerId, Txn,
    Zab, Zxid,
};
use zab_election::{Process, ProcessOutput};
use zab_log::{FileStorage, LogMetrics, MemStorage, Recovered, Storage, StorageError};
use zab_metrics::{Clock, Registry, Snapshot, WallClock};
use zab_trace::health::{DeliveryWitness, Health, LagRow, LatencySummary, PeerHealth, SyncingPeer};
use zab_trace::{Recorder, Stage, TraceEvent, Tracer};
use zab_transport::{Transport, TransportEvent, TransportMsg};

/// Event-loop tick period: drives pings, timeout checks and sync pacing.
const TICK_MS: u64 = 5;

/// Flight-recorder ring capacity, in events per recording thread: each
/// thread that records keeps its newest `TRACE_CAPACITY` events,
/// overwriting the oldest, so recorder memory stays bounded at
/// `threads × TRACE_CAPACITY × size_of::<TraceEvent>()`.
const TRACE_CAPACITY: usize = 4096;

/// The replica's current protocol role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Electing.
    Looking,
    /// Nominated leader; `established` once phase 3 begins.
    Leading {
        /// True once broadcasting.
        established: bool,
        /// The epoch (valid once known).
        epoch: Epoch,
    },
    /// Following `leader`; `active` once synchronized.
    Following {
        /// The leader.
        leader: ServerId,
        /// True once synced and serving.
        active: bool,
    },
    /// Fail-stopped after a storage error: out of the protocol (a leader
    /// has stepped down, a follower no longer acks) but still serving
    /// stale reads from the applied state. Requires a restart to rejoin.
    Faulted,
}

/// Events surfaced to the embedding program.
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// A transaction committed and was applied locally.
    Delivered(Txn),
    /// The protocol role changed.
    RoleChanged(Role),
    /// A submitted request was not broadcast.
    Rejected {
        /// The original request bytes.
        request: Bytes,
        /// Why.
        reason: String,
    },
    /// A storage operation failed; the replica fail-stopped (see
    /// [`Role::Faulted`]). The embedding program decides whether to page
    /// an operator, restart, or decommission.
    StorageFault {
        /// Which operation failed (e.g. `"append/flush"`, `"recover"`).
        context: String,
        /// The underlying error.
        error: String,
    },
    /// An outgoing dial to a peer failed (the transport is backing off).
    PeerUnreachable {
        /// The peer.
        peer: ServerId,
        /// Consecutive failures so far (0 = first).
        attempt: u32,
        /// The dial error.
        error: String,
    },
}

enum Command {
    Submit {
        request: Vec<u8>,
        /// When the caller arrived at the admission gate (recorder µs):
        /// the [`zab_trace::Stage::Admit`] instant, recorded retroactively
        /// at delivery once the zxid is known.
        admit_us: u64,
    },
    /// Answer with a fresh `/health` document (the admin endpoint asks).
    Health(Sender<Health>),
    Shutdown,
}

/// A submission the admission gate refused. The request comes back to the
/// caller untouched — shed, never queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission window is full ([`zab_core::RejectReason::Overloaded`]
    /// at the gate): accepting the request would only have queued it
    /// behind more work than the pipeline drains. Counted in
    /// `node.submits_shed`.
    Overloaded(Vec<u8>),
    /// The replica has shut down; nothing will ever process the request.
    Closed(Vec<u8>),
}

/// One accepted-but-undelivered client submission (primary only; FIFO
/// because commit order is submission order). `submitted_ms` feeds the
/// commit-latency histogram; `admit_us`/`submit_us` are the
/// flight-recorder instants replayed retroactively at delivery, when the
/// zxid is finally known.
struct PendingSubmit {
    submitted_ms: u64,
    submit_us: u64,
    admit_us: u64,
}

/// Disk-thread completions. Errors are *reported*, never swallowed: the
/// event loop turns a `Faulted` into a fail-stop.
enum DiskDone {
    Flushed(PersistToken),
    Faulted { context: String, error: String },
}

enum DiskCmd {
    Persist(PersistToken, PersistRequest),
    /// Compact the log through `through` with the given app snapshot.
    /// Routed through the disk thread so it serializes after every append
    /// already queued (a delivered txn's own append may still be in the
    /// queue when the event loop decides to compact).
    Compact {
        snapshot: Bytes,
        through: Zxid,
    },
}

/// A running replica. Dropping it (or calling [`Replica::shutdown`]) stops
/// all its threads.
pub struct Replica<A: Application> {
    id: ServerId,
    commands: Sender<Command>,
    events_rx: Receiver<NodeEvent>,
    role: Arc<Mutex<Role>>,
    app: Arc<Mutex<A>>,
    metrics: Arc<Registry>,
    recorder: Arc<Recorder>,
    admin: Option<AdminServer>,
    submit_gate: Arc<SubmitGate>,
    /// Shared with the event loop's bundle: the submit path increments
    /// `node.submits_shed` without a round trip through the loop.
    node_metrics: NodeMetrics,
    /// The replica-wide clock, shared with the recorder so gate-side
    /// `Admit` instants land on the same timeline as loop-side stages.
    clock: Arc<dyn Clock>,
    threads: Vec<JoinHandle<()>>,
}

impl<A: Application> Replica<A> {
    /// Boots a replica: recovers storage (the only time it reads the log
    /// back), joins the TCP mesh, starts leader election.
    ///
    /// # Errors
    ///
    /// Fails on socket bind or storage errors.
    pub fn start(cfg: NodeConfig, app: A) -> Result<Replica<A>, Box<dyn std::error::Error>> {
        let storage: Box<dyn Storage + Send> = match &cfg.data_dir {
            Some(dir) => Box::new(FileStorage::open(dir)?),
            None => Box::new(MemStorage::new()),
        };
        Self::start_with_storage(cfg, app, storage)
    }

    /// Like [`Replica::start`] but with caller-provided storage — e.g. a
    /// [`MemStorage`] armed with a [`zab_log::FaultPlan`] to test the
    /// fail-stop path, or a custom [`Storage`] backend.
    ///
    /// # Errors
    ///
    /// Fails on socket bind errors. A storage that cannot be recovered is
    /// not an error here: the replica comes up [`Role::Faulted`] and says
    /// why in a [`NodeEvent::StorageFault`].
    pub fn start_with_storage(
        cfg: NodeConfig,
        app: A,
        mut storage: Box<dyn Storage + Send>,
    ) -> Result<Replica<A>, Box<dyn std::error::Error>> {
        let id = cfg.id;
        let listen = cfg.peers[&id];
        // One registry per replica: every layer (core automata, storage,
        // transport, the event loop itself) reports into it, and
        // [`Replica::metrics_snapshot`] reads it back out.
        let metrics = Arc::new(Registry::new());
        // One monotonic clock for everything timestamped in this replica
        // — latency histograms and the flight recorder share an origin,
        // so trace events and metric samples line up on one timeline.
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let recorder = Recorder::new(id.0, TRACE_CAPACITY, Arc::clone(&clock));
        let tracer = Tracer::new(Arc::clone(&recorder));
        storage.set_metrics(
            LogMetrics::registered(&metrics)
                .with_clock(Arc::clone(&clock))
                .with_tracer(tracer.clone()),
        );
        // The one read of the log in this process's life, before any
        // thread exists: from here on the disk thread owns the storage
        // outright and the event loop never looks at it again.
        let recovered = storage.recover();
        let transport = Transport::start_traced(
            id,
            listen,
            cfg.peers.clone(),
            Arc::clone(&metrics),
            tracer.clone(),
        )?;

        let (commands_tx, commands_rx) = unbounded();
        let (events_tx, events_rx) = unbounded();
        let (disk_tx, disk_rx) = unbounded::<DiskCmd>();
        let (done_tx, done_rx) = unbounded::<DiskDone>();
        let role = Arc::new(Mutex::new(Role::Looking));
        let app = Arc::new(Mutex::new(app));
        let node_metrics = NodeMetrics::registered(&metrics);
        let window = cfg.submit_window.max(1);
        let submit_gate = Arc::new(SubmitGate::new(window));
        node_metrics.submit_window.set(window as i64);
        let admin = match cfg.admin_addr {
            Some(addr) => {
                let commands = commands_tx.clone();
                Some(AdminServer::start(
                    addr,
                    Arc::clone(&metrics),
                    Arc::clone(&recorder),
                    Box::new(move |reply| commands.send(Command::Health(reply)).is_ok()),
                )?)
            }
            None => None,
        };
        let peers = cfg.peers.keys().filter(|p| **p != id).map(|p| (p.0, PeerHealth::default()));
        let peers = peers.collect();

        // Disk thread: group commit — drain everything queued, apply,
        // flush once, complete the batch's last token.
        let disk_thread = std::thread::spawn(move || {
            while let Ok(first) = disk_rx.recv() {
                let mut batch = Vec::new();
                let mut compact = None;
                match first {
                    DiskCmd::Persist(t, r) => batch.push((t, r)),
                    DiskCmd::Compact { snapshot, through } => compact = Some((snapshot, through)),
                }
                // Group commit: drain consecutive persists; a compaction
                // command ends the batch (it must run after the flush).
                if compact.is_none() {
                    while let Ok(cmd) = disk_rx.try_recv() {
                        match cmd {
                            DiskCmd::Persist(t, r) => batch.push((t, r)),
                            DiskCmd::Compact { snapshot, through } => {
                                compact = Some((snapshot, through));
                                break;
                            }
                        }
                    }
                }
                if !batch.is_empty() {
                    let last = batch.last().expect("nonempty").0;
                    let failed = batch
                        .iter()
                        .find_map(|(_, req)| storage.apply(req).err())
                        .or_else(|| storage.flush().err());
                    if let Some(e) = failed {
                        // Report, then fail-stop: the event loop steps the
                        // replica out of the protocol.
                        let _ = done_tx.send(DiskDone::Faulted {
                            context: "append/flush".to_string(),
                            error: e.to_string(),
                        });
                        return;
                    }
                    if done_tx.send(DiskDone::Flushed(last)).is_err() {
                        return;
                    }
                }
                if let Some((snapshot, through)) = compact {
                    if let Err(e) = storage.compact(snapshot, through) {
                        let _ = done_tx.send(DiskDone::Faulted {
                            context: "compact".to_string(),
                            error: e.to_string(),
                        });
                        return;
                    }
                }
            }
        });

        let loop_state = EventLoop {
            id,
            cfg,
            transport,
            process: None,
            app: Arc::clone(&app),
            disk_tx,
            done_rx,
            commands_rx,
            events_tx,
            role: Arc::clone(&role),
            was_primary: false,
            faulted: false,
            clock,
            applied_since_compact: 0,
            core_metrics: CoreMetrics::registered(&metrics),
            node_metrics: node_metrics.clone(),
            election_started_ms: None,
            pending_submits: VecDeque::new(),
            tracer,
            peers,
            submit_gate: Arc::clone(&submit_gate),
            delivery_hash: DeliveryHash::new(),
        };
        let clock_for_replica = Arc::clone(&loop_state.clock);
        let loop_thread = std::thread::spawn(move || loop_state.run(recovered));

        Ok(Replica {
            id,
            commands: commands_tx,
            events_rx,
            role,
            app,
            metrics,
            recorder,
            admin,
            submit_gate,
            node_metrics,
            clock: clock_for_replica,
            threads: vec![disk_thread, loop_thread],
        })
    }

    /// This replica's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Submits a client request. If this replica is the established
    /// primary, the application executes it and the resulting delta is
    /// broadcast; otherwise a [`NodeEvent::Rejected`] is emitted.
    ///
    /// Applies backpressure: blocks while the admission window's worth of
    /// own requests are already in flight (submitted but not yet
    /// delivered or rejected), so a closed-loop caller settles at the
    /// pipeline's capacity. Open-loop callers should prefer
    /// [`Replica::try_submit`], which **sheds** overload instead of
    /// queueing it — blocking admission converts over-offered load into
    /// unbounded latency.
    pub fn submit(&self, request: Vec<u8>) {
        let admit_us = self.clock.now_micros();
        self.submit_gate.acquire();
        let _ = self.send_admitted(request, admit_us);
    }

    /// Non-blocking submission: takes an admission slot if the window has
    /// room, otherwise sheds the request and returns it untouched as
    /// [`SubmitError::Overloaded`] (counted in `node.submits_shed`).
    /// Never queues, never blocks — the honest open-loop primitive.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the admission window is full;
    /// [`SubmitError::Closed`] when the replica has shut down.
    pub fn try_submit(&self, request: Vec<u8>) -> Result<(), SubmitError> {
        let admit_us = self.clock.now_micros();
        if !self.submit_gate.try_acquire() {
            self.node_metrics.submits_shed.inc();
            return Err(SubmitError::Overloaded(request));
        }
        self.send_admitted(request, admit_us)
    }

    /// Hands an admitted request to the event loop; on a shutdown race
    /// the slot is returned (nothing will ever release it otherwise).
    fn send_admitted(&self, request: Vec<u8>, admit_us: u64) -> Result<(), SubmitError> {
        match self.commands.send(Command::Submit { request, admit_us }) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.submit_gate.release(1);
                match e.0 {
                    Command::Submit { request, .. } => Err(SubmitError::Closed(request)),
                    _ => Err(SubmitError::Closed(Vec::new())),
                }
            }
        }
    }

    /// The event stream (deliveries, role changes, rejections).
    pub fn events(&self) -> &Receiver<NodeEvent> {
        &self.events_rx
    }

    /// Current role snapshot.
    pub fn role(&self) -> Role {
        *self.role.lock()
    }

    /// Runs `f` with shared access to the application (e.g. to serve
    /// reads from a KV tree).
    pub fn with_app<R>(&self, f: impl FnOnce(&A) -> R) -> R {
        f(&self.app.lock())
    }

    /// The metrics registry every layer of this replica reports into.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// A point-in-time snapshot of all of this replica's metrics
    /// (`core.*`, `log.*`, `transport.*`, `node.*`).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// The flight recorder every layer of this replica traces into.
    pub fn trace_recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// A point-in-time snapshot of the flight recorder, sorted by
    /// timestamp (see [`zab_trace::chrome_trace_json`] to export it).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.recorder.snapshot()
    }

    /// The admin endpoint's bound address, if one was configured (see
    /// [`NodeConfig::with_admin`]; useful with port 0).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(AdminServer::addr)
    }

    /// Stops all threads.
    pub fn shutdown(self) {}
}

impl<A: Application> Drop for Replica<A> {
    fn drop(&mut self) {
        // Unblock any submitter stuck on the window before tearing down
        // the loop that would have freed its slot.
        self.submit_gate.close();
        let _ = self.commands.send(Command::Shutdown);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

struct EventLoop<A: Application> {
    id: ServerId,
    cfg: NodeConfig,
    transport: Transport,
    /// Election and protocol automaton; `None` once fail-stopped.
    process: Option<Process>,
    app: Arc<Mutex<A>>,
    disk_tx: Sender<DiskCmd>,
    done_rx: Receiver<DiskDone>,
    commands_rx: Receiver<Command>,
    events_tx: Sender<NodeEvent>,
    role: Arc<Mutex<Role>>,
    was_primary: bool,
    /// Fail-stopped after a storage error (see [`Role::Faulted`]).
    faulted: bool,
    /// The one monotonic clock every timestamp in this loop comes from.
    /// Its origin predates the first election, so values compare
    /// correctly across election restarts and role changes.
    clock: Arc<dyn Clock>,
    applied_since_compact: u64,
    core_metrics: CoreMetrics,
    node_metrics: NodeMetrics,
    /// When the current election round started (None while decided).
    election_started_ms: Option<u64>,
    /// Broadcast-but-undelivered client submissions (primary only; FIFO
    /// because commit order is submission order). Each entry carries the
    /// latency origin plus the admit/submit instants the flight recorder
    /// replays retroactively at delivery, when the zxid is known.
    pending_submits: VecDeque<PendingSubmit>,
    /// Flight-recorder handle shared with storage, transport, and each
    /// automaton incarnation.
    tracer: Tracer,
    /// What this replica knows about each peer's channel, seeded with
    /// every peer; served in `/health`.
    peers: BTreeMap<u64, PeerHealth>,
    /// Shared with [`Replica::submit`]: every acquired slot is released
    /// exactly once — on delivery, rejection, or demotion.
    submit_gate: Arc<SubmitGate>,
    /// Rolling hash of the delivered transaction stream, the
    /// delivered-prefix-agreement witness `/health` exposes and `zabctl
    /// audit` compares across the ensemble. Lives here (not in the
    /// automaton) so it survives election churn within an epoch chain.
    delivery_hash: DeliveryHash,
}

impl<A: Application> EventLoop<A> {
    fn now_ms(&self) -> u64 {
        self.clock.now_millis()
    }

    /// The current automaton incarnation: `None` while looking or faulted.
    fn zab(&self) -> Option<&Zab> {
        self.process.as_ref().and_then(Process::zab)
    }

    /// Cap on events absorbed between two transport flushes (and two
    /// ticker checks). Big enough that a saturated leader amortizes its
    /// writes well, small enough that a tick is never more than a few
    /// hundred cheap events late.
    const DRAIN_BATCH: usize = 256;

    fn run(mut self, recovered: Result<Recovered, StorageError>) {
        self.boot(recovered);
        // Election notifications queued during startup must hit the wire
        // before the first blocking select, or every node sits corked
        // waiting for everyone else's first move.
        self.transport.flush();
        let ticker = crossbeam::channel::tick(Duration::from_millis(TICK_MS));
        loop {
            // The ticker goes first: the select is biased toward earlier
            // arms, and ticks drive pings and timeout checks — under a
            // saturating workload the other channels are *always* ready,
            // and a last-place ticker starves until followers give up on
            // a perfectly healthy leader. First place cannot starve the
            // others: a tick is ready at most once per period.
            crossbeam::channel::select! {
                recv(ticker) -> _ => {
                    // Collapse any backlog: one tick at the current clock
                    // covers every missed period.
                    while ticker.try_recv().is_ok() {}
                    let now_ms = self.now_ms();
                    self.feed(Input::Tick { now_ms });
                }
                recv(self.commands_rx) -> cmd => match cmd {
                    Ok(cmd) => {
                        if !self.on_command(cmd) {
                            return;
                        }
                    }
                    Err(_) => return,
                },
                recv(self.done_rx) -> done => if let Ok(done) = done {
                    self.on_disk_done(done);
                },
                recv(self.transport.events()) -> ev => match ev {
                    Ok(ev) => self.on_transport_event(ev),
                    Err(_) => return,
                },
            }
            // Opportunistic batch: handle whatever is already queued on
            // the high-rate channels before flushing the transport, so a
            // backlog of submits leaves as one vectored PROPOSE burst
            // per peer (and a burst of proposals as one ACK batch)
            // instead of a write syscall per message. An empty backlog
            // skips straight to the flush — no added latency.
            if !self.drain_backlog() {
                return;
            }
            self.transport.flush();
            self.publish_role();
        }
    }

    /// Non-blocking sweep of the submit / disk / transport channels, in
    /// that priority order, bounded so ticks stay timely under overload.
    /// Returns `false` when a shutdown command surfaced.
    fn drain_backlog(&mut self) -> bool {
        for _ in 0..Self::DRAIN_BATCH {
            let cmd = self.commands_rx.try_recv();
            if let Ok(cmd) = cmd {
                if !self.on_command(cmd) {
                    return false;
                }
                continue;
            }
            let done = self.done_rx.try_recv();
            if let Ok(done) = done {
                self.on_disk_done(done);
                continue;
            }
            let ev = self.transport.events().try_recv();
            if let Ok(ev) = ev {
                self.on_transport_event(ev);
                continue;
            }
            break;
        }
        true
    }

    /// Returns `false` on shutdown.
    fn on_command(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::Submit { request, admit_us } => {
                self.on_submit(request, admit_us);
                true
            }
            Command::Health(reply) => {
                let _ = reply.send(self.health());
                true
            }
            Command::Shutdown => false,
        }
    }

    fn on_disk_done(&mut self, done: DiskDone) {
        match done {
            DiskDone::Flushed(token) => self.feed(Input::Persisted { token }),
            DiskDone::Faulted { context, error } => self.enter_faulted(context, error),
        }
    }

    fn on_transport_event(&mut self, ev: TransportEvent) {
        match ev {
            TransportEvent::Message { from, msg } => {
                let channel = self.peers.entry(from.0).or_default();
                channel.reachable = true;
                channel.failed_attempts = 0;
                match msg {
                    TransportMsg::Zab(m) => self.feed(Input::Message { from, msg: m }),
                    TransportMsg::Election(n) => {
                        let now_ms = self.now_ms();
                        let Some(p) = self.process.as_mut() else { return };
                        let outs = p.handle_notification(from, n, now_ms);
                        self.route(outs);
                    }
                }
            }
            TransportEvent::PeerDisconnected { peer } => {
                self.peers.entry(peer.0).or_default().reachable = false;
                self.feed(Input::PeerDisconnected { peer });
            }
            TransportEvent::ConnectFailed { peer, attempt, error } => {
                let channel = self.peers.entry(peer.0).or_default();
                channel.reachable = false;
                channel.failed_attempts = attempt.saturating_add(1);
                self.node_metrics.peer_unreachable.inc();
                let _ = self.events_tx.send(NodeEvent::PeerUnreachable { peer, attempt, error });
            }
        }
    }

    /// Fail-stop on a storage error: step out of the protocol entirely
    /// (a leader stops pinging, so followers elect a successor; a
    /// follower stops acking, so it never falsely confirms durability)
    /// while the applied state stays readable via [`Replica::with_app`].
    fn enter_faulted(&mut self, context: String, error: String) {
        if self.faulted {
            return;
        }
        self.faulted = true;
        self.process = None;
        self.node_metrics.storage_faults.inc();
        let _ = self.events_tx.send(NodeEvent::StorageFault { context, error });
    }

    /// Builds the process from what storage recovered at start-up. A
    /// failed recovery, or a snapshot that will not install, fail-stops
    /// the replica instead, and the rest of the ensemble carries on.
    fn boot(&mut self, recovered: Result<Recovered, StorageError>) {
        let rec = match recovered {
            Ok(rec) => rec,
            Err(e) => {
                self.enter_faulted("recover".to_string(), e.to_string());
                self.publish_role();
                return;
            }
        };
        // Restore the application from the durable snapshot if it is
        // behind the log's compaction point. A missing or malformed
        // snapshot is a storage fault, not a panic.
        let (install_error, applied_to) = {
            let mut app = self.app.lock();
            let base = rec.history.base();
            let error = if app.applied_to() < base {
                match &rec.snapshot {
                    None => Some(format!("log starts at {base:?} but no snapshot is stored")),
                    Some(snap) => app.install(snap, base).err(),
                }
            } else {
                None
            };
            (error, app.applied_to())
        };
        if let Some(e) = install_error {
            self.node_metrics.snapshot_install_failures.inc();
            self.enter_faulted("install snapshot".to_string(), e);
            self.publish_role();
            return;
        }
        let (mut process, outs) = Process::new(
            self.id,
            self.cfg.election.clone(),
            self.cfg.cluster.clone(),
            rec.into_persistent_state(),
            applied_to,
            self.now_ms(),
        );
        process.set_instruments(self.core_metrics.clone(), self.tracer.clone());
        self.process = Some(process);
        self.route(outs);
    }

    /// Feeds one input to the process (dropped once fail-stopped).
    fn feed(&mut self, input: Input) {
        let now_ms = self.now_ms();
        let Some(p) = self.process.as_mut() else { return };
        let outs = p.handle(input, now_ms);
        self.route(outs);
    }

    fn route(&mut self, outs: Vec<ProcessOutput>) {
        for o in outs {
            match o {
                ProcessOutput::Notify { to, notification } => {
                    self.transport.queue(to, TransportMsg::Election(notification));
                }
                ProcessOutput::Looking => self.election_started_ms = Some(self.now_ms()),
                ProcessOutput::Decided { .. } => {
                    if let Some(started) = self.election_started_ms.take() {
                        self.node_metrics
                            .election_duration_ms
                            .record(self.now_ms().saturating_sub(started));
                    }
                }
                ProcessOutput::Zab(a) => {
                    self.on_action(a);
                    if self.faulted {
                        // Fail-stopped mid-batch: the rest was predicated
                        // on a state that no longer exists.
                        return;
                    }
                }
            }
        }
    }

    /// Carries out one action of the automaton.
    fn on_action(&mut self, a: Action) {
        match a {
            Action::Send { to, msg } => self.transport.queue(to, TransportMsg::Zab(msg)),
            Action::Broadcast { to, msg } => {
                // One encode, one frame, shared across every target's
                // write buffer.
                self.transport.queue_broadcast(&to, TransportMsg::Zab(msg));
            }
            Action::Persist { token, req } => {
                let _ = self.disk_tx.send(DiskCmd::Persist(token, req));
            }
            Action::Deliver { txn } => {
                self.app.lock().apply(&txn);
                // O(payload) fold into the delivered-prefix hash, in
                // the apply path so the chain witnesses exactly what
                // the application saw, in the order it saw it.
                self.delivery_hash.observe(txn.zxid, &txn.data);
                // On the primary the delivery order is the submission
                // order, so the oldest pending submit timestamp is
                // this transaction's start-of-life.
                if self.was_primary {
                    if let Some(pending) = self.pending_submits.pop_front() {
                        let latency_ms = self.now_ms().saturating_sub(pending.submitted_ms);
                        self.node_metrics.commit_latency_ms.record(latency_ms);
                        self.node_metrics.commit_inflight.set(self.pending_submits.len() as i64);
                        self.submit_gate.release(1);
                        // The zxid was unknown at admission time; now
                        // that it is, record the admit and submit
                        // instants retroactively at their original
                        // timestamps (exporters sort by time, so late
                        // recording does not reorder the chain). The
                        // admit→submit delta is the admission cost:
                        // gate wait plus command-queue time.
                        let z = txn.zxid.0;
                        self.tracer.span(Stage::Admit, z, z, pending.admit_us, pending.admit_us);
                        self.tracer.span(Stage::Submit, z, z, pending.submit_us, pending.submit_us);
                    }
                }
                let _ = self.events_tx.send(NodeEvent::Delivered(txn));
                self.applied_since_compact += 1;
                if self.cfg.snapshot_every.is_some_and(|k| self.applied_since_compact >= k) {
                    self.compact();
                }
            }
            Action::InstallSnapshot { snapshot, zxid } => {
                let installed = self.app.lock().install(&snapshot, zxid);
                if let Err(e) = installed {
                    self.node_metrics.snapshot_install_failures.inc();
                    self.enter_faulted("install snapshot".to_string(), e);
                }
            }
            Action::TakeSnapshot => {
                let (snapshot, zxid) = {
                    let app = self.app.lock();
                    (Bytes::from(app.snapshot()), app.applied_to())
                };
                self.feed(Input::SnapshotReady { snapshot, zxid });
            }
            // `GoToElection` never leaves the process.
            Action::Activated { .. } | Action::Committed { .. } | Action::GoToElection { .. } => {}
            Action::ClientRequestRejected { data, reason } => {
                // The request was accepted by on_submit (it holds a
                // gate slot and the newest latency entry) but the core
                // bounced it: undo both.
                if self.was_primary && self.pending_submits.pop_back().is_some() {
                    self.node_metrics.commit_inflight.set(self.pending_submits.len() as i64);
                    self.submit_gate.release(1);
                }
                let _ = self
                    .events_tx
                    .send(NodeEvent::Rejected { request: data, reason: format!("{reason:?}") });
            }
        }
    }

    /// Periodic snapshotting (ZooKeeper's snapCount): queue the durable
    /// compaction behind all pending log appends, and drop the matching
    /// in-memory history prefix.
    fn compact(&mut self) {
        self.applied_since_compact = 0;
        let (snapshot, through) = {
            let app = self.app.lock();
            (Bytes::from(app.snapshot()), app.applied_to())
        };
        let _ = self.disk_tx.send(DiskCmd::Compact { snapshot: snapshot.clone(), through });
        self.feed(Input::Compact { through, snapshot: Some(snapshot) });
    }

    fn on_submit(&mut self, request: Vec<u8>, admit_us: u64) {
        let is_primary = matches!(self.zab(), Some(Zab::Leader(l)) if l.is_established());
        if !is_primary {
            let reason =
                if self.faulted { "StorageFaulted".to_string() } else { "NotPrimary".to_string() };
            self.submit_gate.release(1);
            let _ =
                self.events_tx.send(NodeEvent::Rejected { request: Bytes::from(request), reason });
            return;
        }
        let executed = self.app.lock().execute(&request);
        match executed {
            Ok(delta) => {
                self.pending_submits.push_back(PendingSubmit {
                    submitted_ms: self.now_ms(),
                    submit_us: self.clock.now_micros(),
                    admit_us,
                });
                self.node_metrics.commit_inflight.set(self.pending_submits.len() as i64);
                self.feed(Input::ClientRequest { data: Bytes::from(delta) });
            }
            Err(reason) => {
                self.submit_gate.release(1);
                let _ = self
                    .events_tx
                    .send(NodeEvent::Rejected { request: Bytes::from(request), reason });
            }
        }
    }

    fn current_role(&self) -> Role {
        if self.faulted {
            return Role::Faulted;
        }
        match self.zab() {
            None => Role::Looking,
            Some(Zab::Leader(l)) => {
                Role::Leading { established: l.is_established(), epoch: l.epoch() }
            }
            Some(Zab::Follower(f)) => Role::Following {
                leader: f.leader(),
                active: f.status() == zab_core::FollowerStatus::Active,
            },
        }
    }

    /// The `/health` document, assembled from live loop state.
    fn health(&self) -> Health {
        let zab = self.zab();
        let last_committed =
            zab.map_or_else(|| self.app.lock().applied_to(), Zab::last_committed).0;
        // The leader serves its own epoch; elsewhere the last commit's.
        let committed_epoch = last_committed >> 32;
        let (role, active, leader, epoch) = match self.current_role() {
            Role::Looking => ("looking", false, None, committed_epoch),
            Role::Leading { established, epoch } => {
                ("leading", established, Some(self.id.0), u64::from(epoch.0))
            }
            Role::Following { leader, active } => {
                ("following", active, Some(leader.0), committed_epoch)
            }
            Role::Faulted => ("faulted", false, None, committed_epoch),
        };
        let lat = self.node_metrics.commit_latency_ms.snapshot();
        Health {
            node: self.id.0,
            role: role.to_string(),
            active,
            epoch,
            leader,
            last_committed_zxid: last_committed,
            peers: self.peers.clone(),
            syncing: zab
                .map(Zab::syncing_peers)
                .unwrap_or_default()
                .into_iter()
                .map(|p| SyncingPeer {
                    peer: p.peer.0,
                    chunks_remaining: p.chunks_remaining,
                    bytes_remaining: p.bytes_remaining,
                })
                .collect(),
            lag: zab
                .map(Zab::follower_lags)
                .unwrap_or_default()
                .into_iter()
                .map(|l| LagRow {
                    peer: l.peer.0,
                    acked_zxid: l.acked.map(|z| z.0),
                    lag_txns: l.lag_txns,
                    syncing: l.syncing,
                })
                .collect(),
            delivery: DeliveryWitness {
                anchor_zxid: self.delivery_hash.anchor().0,
                last_zxid: self.delivery_hash.last().0,
                hash: self.delivery_hash.hash(),
                checkpoints: self.delivery_hash.checkpoints().map(|c| (c.zxid.0, c.hash)).collect(),
            },
            commit_latency_ms: LatencySummary {
                count: lat.count,
                p50: lat.quantile(0.5),
                p99: lat.quantile(0.99),
                max: lat.max,
            },
        }
    }

    fn publish_role(&mut self) {
        let role = self.current_role();
        let is_primary = matches!(role, Role::Leading { established: true, .. });
        if is_primary != self.was_primary {
            self.was_primary = is_primary;
            // Losing the primary role abandons in-flight submissions:
            // their latency samples would straddle two incarnations, and
            // their gate slots would otherwise leak (no delivery or
            // rejection will ever account for them here).
            if !is_primary {
                self.submit_gate.release(self.pending_submits.len());
                self.pending_submits.clear();
                self.node_metrics.commit_inflight.set(0);
            }
            self.app.lock().on_role_change(is_primary);
        }
        let mut cur = self.role.lock();
        if *cur != role {
            *cur = role;
            self.node_metrics.role_transitions.inc();
            let _ = self.events_tx.send(NodeEvent::RoleChanged(role));
        }
    }
}

/// Convenience: true once the role is an established leader.
pub fn is_established(role: Role) -> bool {
    matches!(role, Role::Leading { established: true, .. })
}

/// Convenience: the zxid type re-exported for embedding programs.
pub type AppliedZxid = Zxid;
