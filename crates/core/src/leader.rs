//! The leader automaton (the paper's leader protocol, phases 1–3).
//!
//! A [`Leader`] incarnation is created when leader election (Phase 0)
//! nominates this process. It then:
//!
//! 1. **Discovery** — collects `FOLLOWERINFO` from a quorum, proposes
//!    `NEWEPOCH(e')` with `e'` greater than every accepted epoch it saw
//!    (durably adopting `e'` itself first), and collects a quorum of
//!    `ACKEPOCH`. If any follower reports a fresher history than the
//!    leader's own, the leader abdicates — ZooKeeper's Fast Leader Election
//!    elects the process with the freshest history precisely so that this
//!    never happens in the common case.
//! 2. **Synchronization** — for each follower, plans DIFF/TRUNC/SNAP
//!    against its last zxid, streams the plan followed by `NEWLEADER(e')`,
//!    and on a quorum of `ACKNEWLEADER` (counting its own durable epoch
//!    adoption) becomes **established**: it commits and delivers the
//!    initial history and activates synced followers with `UPTODATE`.
//! 3. **Broadcast** — assigns zxids `(e', counter)` to client requests,
//!    pipelines up to `max_outstanding` proposals, counts its own durable
//!    log append as an ack, and commits when a quorum acked. Commit
//!    messages carry a cumulative watermark.
//!
//! Followers that arrive late (or reconnect) at any point are taken through
//! their own discovery/synchronization and then activated; proposals and
//! commits generated while a follower is syncing are queued per peer and
//! flushed after `UPTODATE`, preserving the FIFO order the protocol needs.

use crate::config::ClusterConfig;
use crate::delivery::deliver_committed;
use crate::events::{Action, Input, PersistRequest, PersistToken, PersistentState, RejectReason};
use crate::history::{History, SyncPlan};
use crate::messages::{Message, MAX_TXN_DATA_LEN};
use crate::metrics::CoreMetrics;
use crate::types::{Epoch, ServerId, Txn, Zxid};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use zab_trace::{Stage, Tracer};

/// Approximate payload-byte budget for a single sync-stream message.
///
/// A follower that has fallen far behind would otherwise receive its
/// entire missing history as one `SyncDiff`/`SyncTrunc`/`SyncSnap`,
/// whose encoded size grows without bound and can exceed any transport
/// frame limit. The leader instead splits the transaction tail into
/// chunks of at most this many payload bytes and streams them as
/// consecutive sync messages; the follower's sync path appends each
/// chunk in arrival order until `NEWLEADER` closes the stream, so the
/// split is invisible to the protocol.
const SYNC_CHUNK_BYTES: usize = 1 << 20;

/// Per-transaction overhead allowance (zxid + framing) when budgeting
/// sync chunks, so streams of tiny transactions still chunk sanely.
const SYNC_TXN_OVERHEAD: usize = 64;

/// Splits a sync transaction tail into bounded chunks. Always returns at
/// least one (possibly empty) chunk, because the first chunk rides inside
/// the plan's opening message (`SyncDiff`/`SyncTrunc`/`SyncSnap`).
fn sync_chunks(txns: Vec<Txn>) -> Vec<Vec<Txn>> {
    let mut chunks: Vec<Vec<Txn>> = vec![Vec::new()];
    let mut budget = 0usize;
    for txn in txns {
        let cost = txn.data.len() + SYNC_TXN_OVERHEAD;
        let current = chunks.last_mut().expect("chunks is never empty");
        if budget + cost > SYNC_CHUNK_BYTES && !current.is_empty() {
            chunks.push(vec![txn]);
            budget = cost;
        } else {
            current.push(txn);
            budget += cost;
        }
    }
    chunks
}

/// Budgeted payload bytes of one sync chunk (what the token bucket and
/// the `core.sync_bytes_sent` counter account).
fn chunk_cost(chunk: &[Txn]) -> u64 {
    chunk.iter().map(|t| (t.data.len() + SYNC_TXN_OVERHEAD) as u64).sum()
}

/// Token-bucket capacity for paced sync shipping: at least one second of
/// budget, and never smaller than a couple of maximal chunks so a single
/// oversized transaction can always ship once the bucket fills.
fn config_sync_burst(config: &ClusterConfig) -> u64 {
    config.sync_rate_bytes_per_sec.max((2 * SYNC_CHUNK_BYTES) as u64)
}

/// Token-bucket refill per second. Every multi-chunk sync is a paced
/// session and a bucket that never refills would wedge it, so a
/// configured rate of zero refills the (floor-sized) bucket once a second.
fn config_sync_rate(config: &ClusterConfig) -> u64 {
    match config.sync_rate_bytes_per_sec {
        0 => config_sync_burst(config),
        rate => rate,
    }
}

/// Live progress of a peer's catch-up sync, for observability
/// (`/health` on a node driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncProgress {
    /// The syncing peer.
    pub peer: ServerId,
    /// Sync chunks not yet shipped to it.
    pub chunks_remaining: u64,
    /// Budgeted payload bytes in those chunks.
    pub bytes_remaining: u64,
}

/// Leader-side replication lag for one follower: the distance between the
/// leader's committed frontier and what the follower has durably acked
/// (active peers) or been shipped (syncing peers). See
/// [`Leader::follower_lags`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowerLag {
    /// The follower.
    pub peer: ServerId,
    /// Its cumulative ack watermark (active peers only — a syncing peer
    /// has no broadcast-phase watermark yet).
    pub acked: Option<Zxid>,
    /// Committed transactions the follower has not acked, when computable
    /// in O(1): a same-epoch counter difference for active peers; queued
    /// sync-stream transactions plus the same-epoch live gap past the plan
    /// end for syncing peers. `None` when the watermarks span epochs (the
    /// gap is real but counting it would walk the history).
    pub lag_txns: Option<u64>,
    /// True while a catch-up sync stream is open to this peer.
    pub syncing: bool,
}

/// Committed-transaction count between two watermarks when it is an O(1)
/// same-epoch counter difference; `None` across epochs.
fn counter_gap(from: Zxid, to: Zxid) -> Option<u64> {
    if to <= from {
        Some(0)
    } else if from.epoch() == to.epoch() {
        Some((to.counter() - from.counter()) as u64)
    } else {
        None
    }
}

/// Cursor over the unshipped tail of a paced sync stream.
///
/// The plan's opening message (`SyncDiff`/`SyncTrunc`/`SyncSnap` with the
/// first chunk) always goes out immediately; each later chunk is released
/// only after the previous one is `SyncAck`ed *and* the shared token
/// bucket has budget for it, so a herd of rejoining followers trickles
/// instead of bursting its entire missing history into socket buffers.
/// `NEWLEADER` ships together with the final chunk. An empty `remaining`
/// means the stream is fully shipped and the peer is awaiting activation.
#[derive(Debug)]
struct SyncSession {
    /// Chunks not yet shipped, in zxid order.
    remaining: VecDeque<Vec<Txn>>,
    /// The last transmission, not yet `SyncAck`ed: the exact messages to
    /// retransmit if the link swallowed them, and the history point whose
    /// ack proves receipt. `None` once acked (or for a fully shipped
    /// stream awaiting `ACKNEWLEADER`).
    outstanding: Option<(Vec<Message>, Zxid)>,
    /// A release was deferred for lack of tokens; retried on `Tick`.
    throttled: bool,
    /// When the stream last moved (opened, chunk shipped, or acked);
    /// a stalled stream is retransmitted after `follower_timeout_ms`.
    last_progress_ms: u64,
    /// `NEWLEADER` has shipped: the stream no longer extends toward the
    /// live commit frontier, and broadcast traffic queues for the
    /// activation flush.
    newleader_sent: bool,
    /// Gap to the commit frontier when the stream last extended past its
    /// plan, and how many consecutive extensions failed to shrink it.
    last_gap: Option<u64>,
    gap_growth: u8,
    /// Convergence escape hatch: the gap grew across consecutive
    /// extensions (the configured sync rate sits below the live append
    /// byte rate), so the throttle can never let the stream finish.
    /// Express releases stay ack-gated and charge the bucket, but fill
    /// transmissions to the burst budget and are never deferred.
    express: bool,
}

impl SyncSession {
    /// A fully shipped stream (nothing left to pace; `NEWLEADER` is out
    /// and `ACKNEWLEADER` is awaited).
    fn shipped(now_ms: u64) -> SyncSession {
        SyncSession {
            remaining: VecDeque::new(),
            outstanding: None,
            throttled: false,
            last_progress_ms: now_ms,
            newleader_sent: true,
            last_gap: None,
            gap_growth: 0,
            express: false,
        }
    }
}

/// Budgeted payload bytes of a (re)transmitted sync message: its chunk,
/// plus the snapshot body for a SNAP opening.
fn sync_wire_cost(msg: &Message) -> u64 {
    match msg {
        Message::SyncDiff { txns } | Message::SyncTrunc { txns, .. } => chunk_cost(txns),
        Message::SyncSnap { snapshot, txns, .. } => snapshot.len() as u64 + chunk_cost(txns),
        _ => 0,
    }
}

/// The highest zxid a sync message carries (the point whose `SyncAck`
/// confirms its receipt).
fn sync_msg_end(msg: &Message) -> Option<Zxid> {
    match msg {
        Message::SyncDiff { txns }
        | Message::SyncTrunc { txns, .. }
        | Message::SyncSnap { txns, .. } => txns.last().map(|t| t.zxid),
        _ => None,
    }
}

/// Externally visible leader phase, for tests and observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaderStatus {
    /// Phase 1a: waiting for a quorum of `FOLLOWERINFO`.
    CollectingInfo,
    /// Phase 1b: `NEWEPOCH` proposed, waiting for a quorum of `ACKEPOCH`.
    CollectingAckEpoch,
    /// Phase 2: syncing followers, waiting for a quorum of `ACKNEWLEADER`.
    Establishing,
    /// Phase 3: established primary, broadcasting.
    Broadcasting,
    /// The incarnation ended; a new election is required.
    Defunct,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    CollectingInfo,
    /// `acceptedEpoch = e'` persist in flight; `NEWEPOCH` goes out after.
    PersistingEpoch,
    CollectingAckEpoch,
    Establishing,
    Broadcasting,
    Defunct,
}

/// Per-connected-follower state on the leader.
#[derive(Debug)]
enum PeerState {
    /// `FOLLOWERINFO` received; `NEWEPOCH` sent (or queued behind the
    /// epoch persist).
    InfoReceived { new_epoch_sent: bool },
    /// `ACKEPOCH` received during Phase 1b; sync is planned when a quorum
    /// completes Phase 1.
    EpochAcked { last_zxid: Zxid },
    /// Needs a SNAP sync; waiting for the application snapshot.
    AwaitingSnapshot,
    /// Sync stream opened; traffic generated meanwhile is queued.
    /// `plan_end` is the history tail covered by the sync stream;
    /// `session` paces the unshipped chunk tail (`NEWLEADER` rides with
    /// the final chunk).
    Syncing { queue: Vec<Message>, plan_end: Zxid, session: SyncSession },
    /// Fully synced and activated; `acked` is its cumulative ack watermark.
    Active { acked: Zxid },
}

#[derive(Debug)]
struct Peer {
    state: PeerState,
    last_contact_ms: u64,
}

/// What a pending durability token completes.
#[derive(Debug)]
enum Pending {
    /// `acceptedEpoch = e'` persisted → send `NEWEPOCH` to peers.
    SendNewEpoch,
    /// `currentEpoch = e'` persisted → the leader's own `NEWLEADER` ack.
    EstablishSelf,
    /// A proposal appended durably → the leader's own proposal ack.
    SelfAck(Zxid),
}

/// The leader protocol automaton. Drive it with [`Leader::handle`].
#[derive(Debug)]
pub struct Leader {
    id: ServerId,
    config: ClusterConfig,
    accepted_epoch: Epoch,
    current_epoch: Epoch,
    history: History,
    delivered_to: Zxid,
    /// The leader's election-time vote `(currentEpoch, lastZxid)`; any
    /// follower reporting fresher forces abdication.
    self_vote: (Epoch, Zxid),
    /// The epoch being established / established (`e'`). Valid from
    /// `PersistingEpoch` onward.
    epoch: Epoch,
    phase: Phase,
    peers: BTreeMap<ServerId, Peer>,
    /// Phase-1a votes (`FOLLOWERINFO` senders, incl. self).
    info_votes: BTreeMap<ServerId, Epoch>,
    /// Phase-1b acks (`ACKEPOCH` senders, incl. self).
    ack_epoch: BTreeSet<ServerId>,
    /// Phase-2 acks (`ACKNEWLEADER` senders; self tracked separately).
    ack_ld: BTreeSet<ServerId>,
    /// True once our own `currentEpoch = e'` write is durable.
    self_established: bool,
    /// Zxid counter for the established epoch.
    counter: u32,
    /// Own durable log watermark (our implicit ack).
    self_acked: Zxid,
    /// Client requests not yet proposed (back-pressure beyond the window).
    pending_requests: VecDeque<Bytes>,
    /// Proposals in flight: proposed but not yet committed.
    outstanding: usize,
    /// True while a `TakeSnapshot` request is with the application.
    snapshot_pending: bool,
    /// Latest application snapshot this incarnation knows about (from a
    /// driver compaction or a completed `TakeSnapshot`), with the zxid it
    /// covers. Serves SNAP syncs for lag behind the compaction horizon
    /// without a fresh application round trip.
    retained_snapshot: Option<(Bytes, Zxid)>,
    /// Token-bucket balance for paced sync shipping, in payload bytes.
    sync_tokens: u64,
    /// Driver time of the last token refill.
    last_sync_refill_ms: u64,
    now_ms: u64,
    started_ms: u64,
    last_ping_ms: u64,
    next_token: u64,
    pending: BTreeMap<PersistToken, Pending>,
    /// Instrument bundle (standalone by default; see [`Leader::set_metrics`]).
    metrics: CoreMetrics,
    /// Flight recorder handle (disabled by default; see
    /// [`Leader::set_tracer`]).
    tracer: Tracer,
    /// Propose time (driver ms) per in-flight own-epoch proposal, for the
    /// quorum-ack latency histogram. Bounded by the outstanding window and
    /// discarded with the incarnation.
    propose_times: BTreeMap<Zxid, u64>,
}

impl Leader {
    /// Creates a leader incarnation from recovered durable state and
    /// returns it with its initial actions. `applied_to` is the zxid the
    /// driver's application has already applied up to; delivery resumes
    /// after it.
    ///
    /// In a single-server ensemble the returned actions already complete
    /// Phase 1a (the leader's own info forms a quorum).
    pub fn new(
        id: ServerId,
        config: ClusterConfig,
        state: PersistentState,
        applied_to: Zxid,
        now_ms: u64,
    ) -> (Leader, Vec<Action>) {
        let delivered_to = applied_to.max(state.history.base());
        let self_vote = (state.current_epoch, state.history.last_zxid());
        let self_acked = state.history.last_zxid();
        let sync_burst = config_sync_burst(&config);
        let mut l = Leader {
            id,
            config,
            accepted_epoch: state.accepted_epoch,
            current_epoch: state.current_epoch,
            history: state.history,
            delivered_to,
            self_vote,
            epoch: Epoch::ZERO,
            phase: Phase::CollectingInfo,
            peers: BTreeMap::new(),
            info_votes: BTreeMap::new(),
            ack_epoch: BTreeSet::new(),
            ack_ld: BTreeSet::new(),
            self_established: false,
            counter: 0,
            self_acked,
            pending_requests: VecDeque::new(),
            outstanding: 0,
            snapshot_pending: false,
            retained_snapshot: None,
            sync_tokens: sync_burst,
            last_sync_refill_ms: now_ms,
            now_ms,
            started_ms: now_ms,
            last_ping_ms: now_ms,
            next_token: 0,
            pending: BTreeMap::new(),
            metrics: CoreMetrics::standalone(),
            tracer: Tracer::disabled(),
            propose_times: BTreeMap::new(),
        };
        let mut out = Vec::new();
        l.info_votes.insert(id, l.accepted_epoch);
        l.maybe_finish_info_collection(&mut out);
        (l, out)
    }

    /// Injects the instrument bundle this automaton records into,
    /// replacing the default standalone instruments. Call right after
    /// construction, before driving inputs.
    pub fn set_metrics(&mut self, metrics: CoreMetrics) {
        self.metrics = metrics;
    }

    /// Injects the flight-recorder handle this automaton records lifecycle
    /// events into (propose-enqueue, ack-rx, quorum, commit-out, deliver).
    /// Call right after construction, before driving inputs.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The epoch this leader is establishing or has established.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Current phase, for observability.
    pub fn status(&self) -> LeaderStatus {
        match self.phase {
            Phase::CollectingInfo | Phase::PersistingEpoch => LeaderStatus::CollectingInfo,
            Phase::CollectingAckEpoch => LeaderStatus::CollectingAckEpoch,
            Phase::Establishing => LeaderStatus::Establishing,
            Phase::Broadcasting => LeaderStatus::Broadcasting,
            Phase::Defunct => LeaderStatus::Defunct,
        }
    }

    /// True once established (phase 3).
    pub fn is_established(&self) -> bool {
        self.phase == Phase::Broadcasting
    }

    /// Tail of the accepted history.
    pub fn last_zxid(&self) -> Zxid {
        self.history.last_zxid()
    }

    /// Highest committed zxid.
    pub fn last_committed(&self) -> Zxid {
        self.history.last_committed()
    }

    /// Number of proposals in flight (proposed, not committed).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Number of client requests queued behind the outstanding window.
    pub fn queued_requests(&self) -> usize {
        self.pending_requests.len()
    }

    /// Followers currently active (synced and serving).
    pub fn active_followers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.peers.iter().filter_map(|(&id, p)| match p.state {
            PeerState::Active { .. } => Some(id),
            _ => None,
        })
    }

    /// Snapshot of the durable protocol state (what a driver would write).
    pub fn persistent_state(&self) -> PersistentState {
        PersistentState {
            accepted_epoch: self.accepted_epoch,
            current_epoch: self.current_epoch,
            history: self.history.clone(),
        }
    }

    /// See [`crate::Zab::into_persistent_state`].
    pub(crate) fn into_persistent_state(self) -> PersistentState {
        PersistentState {
            accepted_epoch: self.accepted_epoch,
            current_epoch: self.current_epoch,
            history: self.history.without_commits(),
        }
    }

    fn token(&mut self, purpose: Pending) -> PersistToken {
        self.next_token += 1;
        let t = PersistToken(self.next_token);
        self.pending.insert(t, purpose);
        t
    }

    fn abdicate(&mut self, reason: &'static str, out: &mut Vec<Action>) {
        self.phase = Phase::Defunct;
        self.pending.clear();
        out.push(Action::GoToElection { reason });
    }

    /// Feeds one input to the automaton, returning the actions the driver
    /// must perform. After `GoToElection` is emitted, all further inputs
    /// return no actions.
    pub fn handle(&mut self, input: Input) -> Vec<Action> {
        let mut out = Vec::new();
        if self.phase == Phase::Defunct {
            return out;
        }
        match input {
            Input::Tick { now_ms } => self.on_tick(now_ms, &mut out),
            Input::Message { from, msg } => self.on_message(from, msg, &mut out),
            Input::Persisted { token } => self.on_persisted(token, &mut out),
            Input::ClientRequest { data } => self.on_client_request(data, &mut out),
            Input::SnapshotReady { snapshot, zxid } => {
                self.on_snapshot_ready(snapshot, zxid, &mut out)
            }
            Input::PeerDisconnected { peer } => {
                self.peers.remove(&peer);
                self.ack_ld.remove(&peer);
            }
            Input::Compact { through, snapshot } => {
                let point = through.min(self.delivered_to);
                if point > self.history.base() {
                    self.history.purge_through(point);
                }
                // Retain the compaction snapshot: it is the only thing
                // that can serve a follower whose lag now predates the
                // compaction horizon.
                if let Some(snap) = snapshot {
                    if through <= self.delivered_to {
                        self.retained_snapshot = Some((snap, through));
                    }
                }
            }
        }
        out
    }

    fn on_tick(&mut self, now_ms: u64, out: &mut Vec<Action>) {
        self.now_ms = now_ms;
        self.pace_syncs(now_ms, out);
        if self.phase != Phase::Broadcasting
            && now_ms.saturating_sub(self.started_ms) > self.config.establish_timeout_ms
        {
            self.abdicate("failed to establish in time", out);
            return;
        }
        if now_ms.saturating_sub(self.last_ping_ms) >= self.config.ping_interval_ms {
            self.last_ping_ms = now_ms;
            let last_committed = self.history.last_committed();
            for &id in self.peers.keys() {
                out.push(Action::Send { to: id, msg: Message::Ping { last_committed } });
            }
        }
        if self.phase == Phase::Broadcasting {
            let mut alive: BTreeSet<ServerId> = self
                .peers
                .iter()
                .filter(|(_, p)| {
                    now_ms.saturating_sub(p.last_contact_ms) <= self.config.leader_timeout_ms
                })
                .map(|(&id, _)| id)
                .collect();
            alive.insert(self.id);
            if !self.config.is_quorum(&alive) {
                self.abdicate("lost contact with a quorum", out);
            }
        }
    }

    fn on_message(&mut self, from: ServerId, msg: Message, out: &mut Vec<Action>) {
        if from == self.id || !self.config.quorum.members().contains(&from) {
            return;
        }
        if let Some(p) = self.peers.get_mut(&from) {
            p.last_contact_ms = self.now_ms;
        }
        match msg {
            Message::FollowerInfo { accepted_epoch, last_zxid } => {
                self.on_follower_info(from, accepted_epoch, last_zxid, out)
            }
            Message::AckEpoch { current_epoch, last_zxid } => {
                self.on_ack_epoch(from, current_epoch, last_zxid, out)
            }
            Message::AckNewLeader { epoch, last_zxid } => {
                self.on_ack_new_leader(from, epoch, last_zxid, out)
            }
            Message::Ack { zxid } => self.on_ack(from, zxid, out),
            Message::SyncAck { last_zxid } => self.on_sync_ack(from, last_zxid, out),
            Message::Pong { .. } => {
                // Contact timestamp already refreshed above.
            }
            // Messages a leader never receives from correct followers.
            _ => {
                // Drop silently: a reconnecting follower's stale traffic
                // may race its FOLLOWERINFO.
            }
        }
    }

    fn on_follower_info(
        &mut self,
        from: ServerId,
        accepted_epoch: Epoch,
        last_zxid: Zxid,
        out: &mut Vec<Action>,
    ) {
        // A (re)joining follower starts from a clean slate.
        self.ack_ld.remove(&from);
        match self.phase {
            Phase::CollectingInfo => {
                self.info_votes.insert(from, accepted_epoch);
                self.peers.insert(
                    from,
                    Peer {
                        state: PeerState::InfoReceived { new_epoch_sent: false },
                        last_contact_ms: self.now_ms,
                    },
                );
                self.maybe_finish_info_collection(out);
            }
            Phase::PersistingEpoch => {
                if accepted_epoch >= self.epoch {
                    self.abdicate("follower accepted an epoch at or above ours", out);
                    return;
                }
                self.peers.insert(
                    from,
                    Peer {
                        state: PeerState::InfoReceived { new_epoch_sent: false },
                        last_contact_ms: self.now_ms,
                    },
                );
            }
            Phase::CollectingAckEpoch | Phase::Establishing => {
                if accepted_epoch >= self.epoch {
                    self.abdicate("follower accepted an epoch at or above ours", out);
                    return;
                }
                self.peers.insert(
                    from,
                    Peer {
                        state: PeerState::InfoReceived { new_epoch_sent: true },
                        last_contact_ms: self.now_ms,
                    },
                );
                out.push(Action::Send { to: from, msg: Message::NewEpoch { epoch: self.epoch } });
            }
            Phase::Broadcasting => {
                if accepted_epoch > self.epoch {
                    self.abdicate("follower accepted a higher epoch", out);
                } else if accepted_epoch == self.epoch {
                    // Fast path: the follower already accepted our epoch
                    // (we are its unique established leader); skip straight
                    // to synchronization using the zxid it announced.
                    self.peers.insert(
                        from,
                        Peer {
                            state: PeerState::InfoReceived { new_epoch_sent: true },
                            last_contact_ms: self.now_ms,
                        },
                    );
                    self.start_sync(from, last_zxid, out);
                } else {
                    self.peers.insert(
                        from,
                        Peer {
                            state: PeerState::InfoReceived { new_epoch_sent: true },
                            last_contact_ms: self.now_ms,
                        },
                    );
                    out.push(Action::Send {
                        to: from,
                        msg: Message::NewEpoch { epoch: self.epoch },
                    });
                }
            }
            Phase::Defunct => {}
        }
    }

    /// Phase 1a completion check: with a quorum of infos, choose `e'` and
    /// durably adopt it before proposing.
    fn maybe_finish_info_collection(&mut self, out: &mut Vec<Action>) {
        if self.phase != Phase::CollectingInfo {
            return;
        }
        let voters: BTreeSet<ServerId> = self.info_votes.keys().copied().collect();
        if !self.config.is_quorum(&voters) {
            return;
        }
        let max_accepted = self.info_votes.values().copied().max().unwrap_or(Epoch::ZERO);
        self.epoch = max_accepted.next();
        self.accepted_epoch = self.epoch;
        self.phase = Phase::PersistingEpoch;
        let token = self.token(Pending::SendNewEpoch);
        out.push(Action::Persist { token, req: PersistRequest::AcceptedEpoch(self.epoch) });
    }

    fn on_ack_epoch(
        &mut self,
        from: ServerId,
        current_epoch: Epoch,
        last_zxid: Zxid,
        out: &mut Vec<Action>,
    ) {
        match self.phase {
            Phase::CollectingAckEpoch | Phase::Establishing | Phase::Broadcasting => {}
            _ => return, // too early; stale traffic
        }
        let expected = matches!(
            self.peers.get(&from).map(|p| &p.state),
            Some(PeerState::InfoReceived { new_epoch_sent: true })
        );
        if !expected {
            return;
        }
        // Before establishment, the leader must own the freshest history
        // (FLE guarantees it); otherwise it steps down and lets the fresher
        // process win — adopting history mid-establishment would be the
        // paper's "leader adopts Ihistory" step, which ZooKeeper avoids by
        // electing the freshest process in the first place. Once
        // established, a follower with a longer-but-stale history is simply
        // truncated: our establishment quorum proves its surplus
        // transactions never committed.
        if self.phase != Phase::Broadcasting && (current_epoch, last_zxid) > self.self_vote {
            self.abdicate("a follower has a fresher history", out);
            return;
        }
        if current_epoch > self.epoch {
            self.abdicate("a follower adopted a higher epoch", out);
            return;
        }
        self.ack_epoch.insert(from);
        if self.phase == Phase::CollectingAckEpoch {
            // Park the peer with its zxid; syncs are planned when the
            // epoch-ack quorum completes.
            self.peers.get_mut(&from).expect("peer exists").state =
                PeerState::EpochAcked { last_zxid };
            self.maybe_begin_establishment(out);
            return;
        }
        // Established or establishing: sync this follower right away.
        self.start_sync(from, last_zxid, out);
    }

    /// Phase 1b completion check: with a quorum of epoch acks (self
    /// included — our info and epoch adoption count), begin Phase 2.
    fn maybe_begin_establishment(&mut self, out: &mut Vec<Action>) {
        if self.phase != Phase::CollectingAckEpoch {
            return;
        }
        let mut ackers = self.ack_epoch.clone();
        ackers.insert(self.id);
        if !self.config.is_quorum(&ackers) {
            return;
        }
        self.phase = Phase::Establishing;
        self.current_epoch = self.epoch;
        let token = self.token(Pending::EstablishSelf);
        out.push(Action::Persist { token, req: PersistRequest::CurrentEpoch(self.epoch) });
        // Plan synchronization for every follower that acked the epoch.
        let parked: Vec<(ServerId, Zxid)> = self
            .peers
            .iter()
            .filter_map(|(&id, p)| match p.state {
                PeerState::EpochAcked { last_zxid } => Some((id, last_zxid)),
                _ => None,
            })
            .collect();
        for (id, lz) in parked {
            self.start_sync(id, lz, out);
        }
    }

    /// Phase 2 per-follower: plan DIFF/TRUNC/SNAP and stream it, ending
    /// with `NEWLEADER`.
    fn start_sync(&mut self, from: ServerId, follower_last: Zxid, out: &mut Vec<Action>) {
        let plan = self.history.plan_sync(follower_last, self.config.snap_threshold);
        match plan {
            SyncPlan::Snap => {
                // Lag behind the compaction horizon (or past the SNAP
                // threshold): serve from the retained snapshot when it can
                // still be stitched to the log suffix, otherwise ask the
                // application for a fresh one.
                let retained = self
                    .retained_snapshot
                    .clone()
                    .filter(|&(_, z)| z >= self.history.base() && z <= self.history.last_zxid());
                if let Some((snap, z)) = retained {
                    self.serve_snapshot(from, snap, z, out);
                } else {
                    self.peers.get_mut(&from).expect("peer exists").state =
                        PeerState::AwaitingSnapshot;
                    if !self.snapshot_pending {
                        self.snapshot_pending = true;
                        out.push(Action::TakeSnapshot);
                    }
                }
            }
            SyncPlan::Diff { txns } => {
                self.metrics.diff_syncs.inc();
                let mut chunks: VecDeque<Vec<Txn>> = sync_chunks(txns).into();
                let first = chunks.pop_front().expect("at least one chunk");
                self.charge_sync(chunk_cost(&first));
                self.ship_or_pace(from, Message::SyncDiff { txns: first }, chunks, out);
            }
            SyncPlan::Trunc { truncate_to, txns } => {
                self.metrics.diff_syncs.inc();
                let mut chunks: VecDeque<Vec<Txn>> = sync_chunks(txns).into();
                let first = chunks.pop_front().expect("at least one chunk");
                self.charge_sync(chunk_cost(&first));
                self.ship_or_pace(
                    from,
                    Message::SyncTrunc { truncate_to, txns: first },
                    chunks,
                    out,
                );
            }
        }
    }

    /// Opens a SNAP stream to `to` from `snapshot` (covering up to
    /// `zxid`), with the retained log suffix chunked behind it.
    fn serve_snapshot(&mut self, to: ServerId, snapshot: Bytes, zxid: Zxid, out: &mut Vec<Action>) {
        self.metrics.snap_syncs.inc();
        let mut chunks: VecDeque<Vec<Txn>> =
            sync_chunks(self.history.txns_after(zxid).to_vec()).into();
        let first = chunks.pop_front().expect("at least one chunk");
        self.charge_sync(snapshot.len() as u64 + chunk_cost(&first));
        self.ship_or_pace(
            to,
            Message::SyncSnap { snapshot, snapshot_zxid: zxid, txns: first },
            chunks,
            out,
        );
    }

    /// Sends a plan's opening message. A single-chunk plan is closed with
    /// `NEWLEADER` at once; an unshipped chunk tail is parked in a paced
    /// session gated on per-chunk `SyncAck`s and the shared token bucket.
    /// The opening message stays retransmittable until acked.
    fn ship_or_pace(
        &mut self,
        from: ServerId,
        opening: Message,
        remaining: VecDeque<Vec<Txn>>,
        out: &mut Vec<Action>,
    ) {
        out.push(Action::Send { to: from, msg: opening.clone() });
        if remaining.is_empty() {
            self.finish_sync_stream(from, out);
        } else {
            let end = sync_msg_end(&opening).expect("paced opening chunk is non-empty");
            let now_ms = self.now_ms;
            self.peers.get_mut(&from).expect("peer exists").state = PeerState::Syncing {
                queue: Vec::new(),
                plan_end: self.history.last_zxid(),
                session: SyncSession {
                    remaining,
                    outstanding: Some((vec![opening], end)),
                    throttled: false,
                    last_progress_ms: now_ms,
                    newleader_sent: false,
                    last_gap: None,
                    gap_growth: 0,
                    express: false,
                },
            };
        }
    }

    /// Deducts sync payload from the token bucket and accounts it. The
    /// opening message of every plan is charged but never deferred, so a
    /// sync always starts promptly; the bucket going (transiently)
    /// negative just delays the paced tail.
    fn charge_sync(&mut self, cost: u64) {
        self.sync_tokens = self.sync_tokens.saturating_sub(cost);
        self.metrics.sync_bytes_sent.add(cost);
    }

    fn finish_sync_stream(&mut self, from: ServerId, out: &mut Vec<Action>) {
        out.push(Action::Send { to: from, msg: Message::NewLeader { epoch: self.epoch } });
        let now_ms = self.now_ms;
        self.peers.get_mut(&from).expect("peer exists").state = PeerState::Syncing {
            queue: Vec::new(),
            plan_end: self.history.last_zxid(),
            session: SyncSession::shipped(now_ms),
        };
    }

    /// A follower acknowledged a sync chunk: release the next one if the
    /// token bucket allows, else mark the session throttled for `Tick`.
    /// Acks below the outstanding transmission's end are stale (a
    /// retransmitted chunk produces one per copy received) and ignored.
    fn on_sync_ack(&mut self, from: ServerId, last_zxid: Zxid, out: &mut Vec<Action>) {
        let now_ms = self.now_ms;
        let Some(peer) = self.peers.get_mut(&from) else { return };
        let PeerState::Syncing { session, .. } = &mut peer.state else { return };
        match &session.outstanding {
            Some((_, end)) if last_zxid >= *end => {
                session.outstanding = None;
                session.last_progress_ms = now_ms;
            }
            _ => return,
        }
        self.try_release_chunk(from, out);
    }

    /// Ships the next chunk of `from`'s paced session when it is neither
    /// waiting for an ack nor out of budget. When the planned chunks
    /// drain, the stream chases the live commit frontier: a large gap
    /// (history appended while the sync was in flight) extends the paced
    /// stream with fresh chunks, a small one rides along with `NEWLEADER`
    /// in the final transmission. That keeps the activation flush bounded
    /// to the post-`NEWLEADER` round-trip window instead of every
    /// proposal broadcast during the whole catch-up.
    fn try_release_chunk(&mut self, from: ServerId, out: &mut Vec<Action>) {
        let burst = config_sync_burst(&self.config);
        let tokens = self.sync_tokens;
        let epoch = self.epoch;
        let now_ms = self.now_ms;
        let history_end = self.history.last_zxid();
        let Some(peer) = self.peers.get_mut(&from) else { return };
        let PeerState::Syncing { plan_end, session, .. } = &mut peer.state else { return };
        if session.outstanding.is_some() {
            return;
        }
        let Some(front) = session.remaining.front() else { return };
        // `cost.min(burst)` guarantees progress even for a chunk larger
        // than the bucket (a single oversized transaction): it ships once
        // the bucket is full. Express chases skip the gate (but are still
        // charged): deferring them would livelock the catch-up.
        let mut cost = chunk_cost(front);
        if !session.express && tokens < cost.min(burst) {
            session.throttled = true;
            return;
        }
        session.throttled = false;
        let chunk = session.remaining.pop_front().expect("chunk peeked above");
        let mut end = chunk.last().expect("paced chunks are non-empty").zxid;
        let mut msgs = vec![Message::SyncDiff { txns: chunk }];
        if session.express {
            // Express transmissions fill up to the burst budget: the
            // chase must outrun the live append rate to terminate, and
            // per-turn output stays bounded by the operator's burst.
            while cost < burst {
                let Some(front) = session.remaining.front() else { break };
                let next = chunk_cost(front);
                if cost + next > burst {
                    break;
                }
                let txns = session.remaining.pop_front().expect("chunk peeked above");
                end = txns.last().expect("paced chunks are non-empty").zxid;
                cost += next;
                msgs.push(Message::SyncDiff { txns });
            }
        }
        if session.remaining.is_empty() {
            let tail = self.history.txns_after(*plan_end);
            let gap = chunk_cost(tail);
            if gap > SYNC_CHUNK_BYTES as u64 {
                session.remaining = sync_chunks(tail.to_vec()).into();
                // Convergence guard: a gap that keeps growing across
                // extensions means the configured rate sits below the
                // live append byte rate — no amount of throttled chasing
                // finishes that stream. Go express rather than livelock.
                match session.last_gap {
                    Some(prev) if gap >= prev => {
                        session.gap_growth = session.gap_growth.saturating_add(1)
                    }
                    _ => session.gap_growth = 0,
                }
                if session.gap_growth >= 2 {
                    session.express = true;
                }
                session.last_gap = Some(gap);
            } else {
                if let Some(last) = tail.last() {
                    end = last.zxid;
                    for txns in sync_chunks(tail.to_vec()) {
                        if txns.is_empty() {
                            continue;
                        }
                        cost += chunk_cost(&txns);
                        msgs.push(Message::SyncDiff { txns });
                    }
                }
                msgs.push(Message::NewLeader { epoch });
                session.newleader_sent = true;
            }
            *plan_end = history_end;
        }
        for msg in &msgs {
            out.push(Action::Send { to: from, msg: msg.clone() });
        }
        session.outstanding = Some((msgs, end));
        session.last_progress_ms = now_ms;
        self.charge_sync(cost);
    }

    /// Tick-driven half of sync pacing: refill the token bucket from the
    /// configured rate, retry every throttled session, and retransmit
    /// streams that stalled for a follower-timeout (the link swallowed a
    /// chunk, its ack, or the trailing `NEWLEADER` — without this, leader
    /// and follower ping-pong forever with the sync wedged).
    fn pace_syncs(&mut self, now_ms: u64, out: &mut Vec<Action>) {
        let dt_ms = now_ms.saturating_sub(self.last_sync_refill_ms);
        self.last_sync_refill_ms = now_ms;
        if dt_ms > 0 {
            let refill = config_sync_rate(&self.config).saturating_mul(dt_ms) / 1000;
            self.sync_tokens =
                self.sync_tokens.saturating_add(refill).min(config_sync_burst(&self.config));
        }
        let stall_ms = self.config.follower_timeout_ms;
        enum Wake {
            /// Tokens may have refilled; retry a throttled release.
            Retry,
            /// The outstanding transmission stalled; resend it verbatim.
            Resend(Vec<Message>),
            /// Fully shipped but `ACKNEWLEADER` never came; renudge with
            /// `NEWLEADER` (a stale re-ack triggers a sync restart).
            Nudge,
        }
        let wakes: Vec<(ServerId, Wake)> = self
            .peers
            .iter()
            .filter_map(|(&id, p)| {
                let PeerState::Syncing { session, .. } = &p.state else { return None };
                let stalled = now_ms.saturating_sub(session.last_progress_ms) >= stall_ms;
                match &session.outstanding {
                    Some((msgs, _)) if stalled => Some((id, Wake::Resend(msgs.clone()))),
                    None if session.remaining.is_empty() && stalled => Some((id, Wake::Nudge)),
                    None if session.throttled => Some((id, Wake::Retry)),
                    _ => None,
                }
            })
            .collect();
        let epoch = self.epoch;
        for (id, wake) in wakes {
            match wake {
                Wake::Retry => self.try_release_chunk(id, out),
                Wake::Resend(msgs) => {
                    // Accounted in the wire-bytes metric but exempt from
                    // the bucket: recovery traffic is rare and bounded
                    // (one transmission per stall window), and charging it
                    // would let one dead follower starve live catch-ups.
                    for msg in msgs {
                        self.metrics.sync_bytes_sent.add(sync_wire_cost(&msg));
                        out.push(Action::Send { to: id, msg });
                    }
                    self.stamp_sync_progress(id, now_ms);
                }
                Wake::Nudge => {
                    out.push(Action::Send { to: id, msg: Message::NewLeader { epoch } });
                    self.stamp_sync_progress(id, now_ms);
                }
            }
        }
    }

    fn stamp_sync_progress(&mut self, id: ServerId, now_ms: u64) {
        if let Some(Peer { state: PeerState::Syncing { session, .. }, .. }) =
            self.peers.get_mut(&id)
        {
            session.last_progress_ms = now_ms;
        }
    }

    /// Peers with an open catch-up sync and the work left to ship them.
    /// Peers awaiting the application snapshot report zero remaining
    /// (their stream has not been planned yet).
    pub fn syncing_peers(&self) -> Vec<SyncProgress> {
        self.peers
            .iter()
            .filter_map(|(&id, p)| match &p.state {
                PeerState::Syncing { session, .. } => Some(SyncProgress {
                    peer: id,
                    chunks_remaining: session.remaining.len() as u64,
                    bytes_remaining: session.remaining.iter().map(|c| chunk_cost(c)).sum(),
                }),
                PeerState::AwaitingSnapshot => {
                    Some(SyncProgress { peer: id, chunks_remaining: 0, bytes_remaining: 0 })
                }
                _ => None,
            })
            .collect()
    }

    /// Per-follower replication lag against this leader's committed
    /// frontier — the `/health` lag table and `core.follower_lag.<id>`
    /// gauges read this at batch boundaries. One entry per connected peer
    /// that is past epoch negotiation (active or catch-up syncing); O(#peers
    /// + #unshipped chunks), never O(history).
    pub fn follower_lags(&self) -> Vec<FollowerLag> {
        let committed = self.history.last_committed();
        self.peers
            .iter()
            .filter_map(|(&id, p)| match &p.state {
                PeerState::Active { acked, .. } => Some(FollowerLag {
                    peer: id,
                    acked: Some(*acked),
                    lag_txns: counter_gap(*acked, committed),
                    syncing: false,
                }),
                PeerState::Syncing { session, plan_end, .. } => {
                    let queued: u64 = session.remaining.iter().map(|c| c.len() as u64).sum();
                    Some(FollowerLag {
                        peer: id,
                        acked: None,
                        lag_txns: counter_gap(*plan_end, committed).map(|live| live + queued),
                        syncing: true,
                    })
                }
                PeerState::AwaitingSnapshot => {
                    Some(FollowerLag { peer: id, acked: None, lag_txns: None, syncing: true })
                }
                _ => None,
            })
            .collect()
    }

    fn on_snapshot_ready(&mut self, snapshot: Bytes, zxid: Zxid, out: &mut Vec<Action>) {
        self.snapshot_pending = false;
        // A fresh application snapshot supersedes whatever compaction
        // left behind.
        self.retained_snapshot = Some((snapshot.clone(), zxid));
        let waiting: Vec<ServerId> = self
            .peers
            .iter()
            .filter_map(|(&id, p)| match p.state {
                PeerState::AwaitingSnapshot => Some(id),
                _ => None,
            })
            .collect();
        for id in waiting {
            self.serve_snapshot(id, snapshot.clone(), zxid, out);
        }
    }

    fn on_ack_new_leader(
        &mut self,
        from: ServerId,
        epoch: Epoch,
        last_zxid: Zxid,
        out: &mut Vec<Action>,
    ) {
        if epoch != self.epoch {
            return;
        }
        let plan_end = match self.peers.get(&from).map(|p| &p.state) {
            Some(PeerState::Syncing { plan_end, .. }) => *plan_end,
            _ => return,
        };
        if last_zxid < plan_end {
            // The follower adopted the epoch but its history stops short
            // of the sync plan: part of the stream was lost in transit
            // (e.g. a connection reset swallowed the DIFF while the
            // trailing NEWLEADER survived on the fresh link). Activating
            // it would hand it a commit watermark covering transactions
            // it does not hold — restart the sync from what it actually
            // has instead.
            self.start_sync(from, last_zxid, out);
            return;
        }
        self.ack_ld.insert(from);
        match self.phase {
            Phase::Establishing => {
                self.maybe_establish(out);
                // If we just established, `maybe_establish` activated all
                // acked peers, including this one.
            }
            Phase::Broadcasting => self.activate_peer(from, last_zxid, out),
            _ => {}
        }
    }

    /// Phase 2 completion check: quorum of `ACKNEWLEADER` (self counts
    /// once its `currentEpoch` write is durable).
    fn maybe_establish(&mut self, out: &mut Vec<Action>) {
        if self.phase != Phase::Establishing || !self.self_established {
            return;
        }
        let mut ackers = self.ack_ld.clone();
        ackers.insert(self.id);
        if !self.config.is_quorum(&ackers) {
            return;
        }
        self.phase = Phase::Broadcasting;
        // COMMIT-LD: the initial history is committed and delivered.
        let initial_end = self.history.last_zxid();
        if initial_end > self.history.last_committed() {
            self.history.mark_committed(initial_end);
        }
        deliver_committed(&self.history, &mut self.delivered_to, &self.metrics, &self.tracer, out);
        out.push(Action::Activated { epoch: self.epoch });
        let acked: Vec<ServerId> = self
            .peers
            .iter()
            .filter(|(id, p)| {
                matches!(p.state, PeerState::Syncing { .. }) && self.ack_ld.contains(id)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in acked {
            // The follower's sync covered the initial history; use its
            // plan end as the ack watermark baseline.
            let plan_end = match &self.peers[&id].state {
                PeerState::Syncing { plan_end, .. } => *plan_end,
                _ => unreachable!(),
            };
            self.activate_peer(id, plan_end, out);
        }
    }

    /// Sends `UPTODATE`, flushes the queued traffic, and starts counting
    /// the peer's acks.
    fn activate_peer(&mut self, from: ServerId, acked: Zxid, out: &mut Vec<Action>) {
        let peer = self.peers.get_mut(&from).expect("peer exists");
        let (queue, plan_end) =
            match std::mem::replace(&mut peer.state, PeerState::Active { acked }) {
                PeerState::Syncing { queue, plan_end, .. } => (queue, plan_end),
                other => {
                    peer.state = other;
                    return;
                }
            };
        let commit_to = self.history.last_committed().min(plan_end);
        out.push(Action::Send { to: from, msg: Message::UpToDate { commit_to } });
        for msg in queue {
            out.push(Action::Send { to: from, msg });
        }
        self.try_commit(out);
    }

    fn on_client_request(&mut self, data: Bytes, out: &mut Vec<Action>) {
        if self.phase != Phase::Broadcasting {
            out.push(Action::ClientRequestRejected { data, reason: RejectReason::NotPrimary });
            return;
        }
        if data.len() > MAX_TXN_DATA_LEN {
            out.push(Action::ClientRequestRejected { data, reason: RejectReason::TooLarge });
            return;
        }
        if self.pending_requests.len() >= self.config.request_queue_limit {
            self.metrics.requests_rejected.inc();
            out.push(Action::ClientRequestRejected { data, reason: RejectReason::Overloaded });
            return;
        }
        self.pending_requests.push_back(data);
        self.pump_proposals(out);
    }

    /// Proposes queued requests while the outstanding window allows.
    /// Returns how many proposals went out; each carries the current
    /// commit watermark, so a caller that just advanced it can skip the
    /// standalone `COMMIT` frame (see [`Leader::try_commit`]).
    fn pump_proposals(&mut self, out: &mut Vec<Action>) -> usize {
        let commit_up_to = self.history.last_committed();
        let mut pumped = 0;
        while self.outstanding < self.config.max_outstanding {
            let Some(data) = self.pending_requests.pop_front() else { break };
            self.counter = self.counter.checked_add(1).expect("zxid counter exhausted");
            let zxid = Zxid::new(self.epoch, self.counter);
            let txn = Txn { zxid, data };
            self.history.append(txn.clone());
            self.outstanding += 1;
            pumped += 1;
            self.metrics.proposals_proposed.inc();
            self.tracer.instant(Stage::ProposeEnqueue, zxid.0, 0);
            self.propose_times.insert(zxid, self.now_ms);
            let token = self.token(Pending::SelfAck(zxid));
            out.push(Action::Persist { token, req: PersistRequest::AppendTxns(vec![txn.clone()]) });
            self.broadcast(Message::Propose { txn, commit_up_to }, out);
        }
        self.metrics.outstanding_depth.set(self.outstanding as i64);
        pumped
    }

    /// Sends to active peers; queues for syncing peers (FIFO per peer).
    ///
    /// Dissemination is the paper's star (Phase 3): the leader writes
    /// every broadcast frame to every active follower over that
    /// follower's own FIFO channel. Two or more targets produce a single
    /// [`Action::Broadcast`] (targets in id order) so the driver can
    /// encode the message once and fan out shared handles; a lone target
    /// stays a plain [`Action::Send`].
    fn broadcast(&mut self, msg: Message, out: &mut Vec<Action>) {
        let mut direct: Vec<ServerId> = Vec::with_capacity(self.peers.len());
        for (&id, peer) in self.peers.iter_mut() {
            match &mut peer.state {
                PeerState::Active { .. } => direct.push(id),
                // Until `NEWLEADER` ships, the paced stream covers new
                // history itself by extending from the log (see
                // `try_release_chunk`); queueing the proposal too would
                // duplicate it and grow the activation flush without
                // bound under sustained load. Dropped COMMITs are
                // covered by `UPTODATE`'s commit watermark.
                PeerState::Syncing { queue, session, .. } if session.newleader_sent => {
                    queue.push(msg.clone());
                }
                _ => {}
            }
        }
        match direct.len() {
            0 => {}
            1 => out.push(Action::Send { to: direct[0], msg }),
            _ => out.push(Action::Broadcast { to: direct, msg }),
        }
    }

    fn on_ack(&mut self, from: ServerId, zxid: Zxid, out: &mut Vec<Action>) {
        self.metrics.acks_received.inc();
        self.tracer.instant(Stage::AckRx, zxid.0, from.0);
        if zxid > self.history.last_zxid() {
            self.abdicate("ack beyond proposed history", out);
            return;
        }
        let Some(peer) = self.peers.get_mut(&from) else { return };
        if let PeerState::Active { acked } = &mut peer.state {
            if zxid > *acked {
                *acked = zxid;
                self.try_commit(out);
            }
        }
    }

    fn on_persisted(&mut self, token: PersistToken, out: &mut Vec<Action>) {
        let done: Vec<PersistToken> = self.pending.range(..=token).map(|(&t, _)| t).collect();
        let mut best_self_ack: Option<Zxid> = None;
        for t in done {
            match self.pending.remove(&t).expect("token present") {
                Pending::SendNewEpoch => {
                    if self.phase != Phase::PersistingEpoch {
                        continue;
                    }
                    self.phase = Phase::CollectingAckEpoch;
                    let targets: Vec<ServerId> = self
                        .peers
                        .iter_mut()
                        .filter_map(|(&id, p)| match &mut p.state {
                            PeerState::InfoReceived { new_epoch_sent } if !*new_epoch_sent => {
                                *new_epoch_sent = true;
                                Some(id)
                            }
                            _ => None,
                        })
                        .collect();
                    for id in targets {
                        out.push(Action::Send {
                            to: id,
                            msg: Message::NewEpoch { epoch: self.epoch },
                        });
                    }
                    // Our own epoch ack; a single-server ensemble can now
                    // proceed all the way to establishment.
                    self.maybe_begin_establishment(out);
                }
                Pending::EstablishSelf => {
                    self.self_established = true;
                    self.maybe_establish(out);
                }
                Pending::SelfAck(zxid) => {
                    best_self_ack = Some(best_self_ack.map_or(zxid, |b| b.max(zxid)));
                }
            }
        }
        if let Some(zxid) = best_self_ack {
            if zxid > self.self_acked {
                self.self_acked = zxid;
                self.try_commit(out);
            }
        }
    }

    /// Advances the commit watermark to the highest zxid acked by a quorum
    /// (counting our own durable log as an ack).
    fn try_commit(&mut self, out: &mut Vec<Action>) {
        if self.phase != Phase::Broadcasting {
            return;
        }
        let last_committed = self.history.last_committed();
        let mut watermarks: Vec<(ServerId, Zxid)> = vec![(self.id, self.self_acked)];
        for (&id, p) in &self.peers {
            if let PeerState::Active { acked, .. } = p.state {
                watermarks.push((id, acked));
            }
        }
        let mut candidates: Vec<Zxid> =
            watermarks.iter().map(|&(_, z)| z).filter(|&z| z > last_committed).collect();
        candidates.sort_unstable();
        candidates.dedup();
        let committed = candidates.into_iter().rev().find(|&z| {
            let supporters: BTreeSet<ServerId> =
                watermarks.iter().filter(|&&(_, w)| w >= z).map(|&(id, _)| id).collect();
            self.config.is_quorum(&supporters)
        });
        let Some(z) = committed else { return };
        // Account outstanding completions and emit per-txn commit events.
        for txn in self.history.txns_after(last_committed) {
            if txn.zxid > z {
                break;
            }
            if txn.zxid.epoch() == self.epoch {
                self.outstanding -= 1;
            }
            if let Some(proposed_ms) = self.propose_times.remove(&txn.zxid) {
                self.metrics.quorum_ack_latency_ms.record(self.now_ms.saturating_sub(proposed_ms));
            }
            self.tracer.instant(Stage::Quorum, txn.zxid.0, 0);
            out.push(Action::Committed { zxid: txn.zxid });
        }
        self.metrics.outstanding_depth.set(self.outstanding as i64);
        self.history.mark_committed(z);
        deliver_committed(&self.history, &mut self.delivered_to, &self.metrics, &self.tracer, out);
        // One cumulative COMMIT per quorum crossing — and none at all when
        // the window reopens and new proposals go out in this same
        // `handle()` call: every PROPOSE piggybacks the watermark, so the
        // standalone frame would be pure overhead on a saturated pipeline.
        // (`broadcast` and `pump_proposals` reach the same peer set, so a
        // pumped proposal implies every active and syncing peer saw `z`.)
        // The watermark reaches the followers either way (standalone COMMIT
        // or piggybacked on the pumped PROPOSEs).
        self.tracer.instant(Stage::CommitOut, z.0, 0);
        if self.pump_proposals(out) == 0 {
            self.broadcast(Message::Commit { zxid: z }, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Input;

    const ME: ServerId = ServerId(1);
    const F2: ServerId = ServerId(2);
    const F3: ServerId = ServerId(3);

    fn cfg() -> ClusterConfig {
        ClusterConfig::majority([ServerId(1), ServerId(2), ServerId(3)])
    }

    fn msg(from: ServerId, m: Message) -> Input {
        Input::Message { from, msg: m }
    }

    /// Completes every persist in `actions` immediately, returning the
    /// follow-up actions.
    fn complete_persists(l: &mut Leader, actions: &[Action]) -> Vec<Action> {
        let mut out = Vec::new();
        for a in actions {
            if let Action::Persist { token, .. } = a {
                out.extend(l.handle(Input::Persisted { token: *token }));
            }
        }
        out
    }

    fn sends_to(actions: &[Action], to: ServerId) -> Vec<&Message> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to: t, msg } if *t == to => Some(msg),
                Action::Broadcast { to: ts, msg } if ts.contains(&to) => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Drives a fresh 3-ensemble leader to Broadcasting with followers 2
    /// and 3 attached (instant persistence everywhere).
    fn established_leader() -> Leader {
        let (mut l, init) = Leader::new(ME, cfg(), PersistentState::default(), Zxid::ZERO, 0);
        assert!(init.is_empty(), "needs a quorum of infos first");
        // Follower infos arrive.
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        // Quorum of infos (self + f2): epoch chosen, persist requested.
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Persist { req: PersistRequest::AcceptedEpoch(e), .. } if *e == Epoch(1)
        )));
        let a = complete_persists(&mut l, &a);
        // NEWEPOCH went to f2.
        assert!(matches!(sends_to(&a, F2)[0], Message::NewEpoch { epoch: Epoch(1) }));
        assert_eq!(l.status(), LeaderStatus::CollectingAckEpoch);
        // f3's info arrives late; it gets NEWEPOCH directly.
        let a3 = l.handle(msg(
            F3,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        assert!(matches!(sends_to(&a3, F3)[0], Message::NewEpoch { epoch: Epoch(1) }));
        // Epoch acks from both: establishment begins on quorum.
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        assert_eq!(l.status(), LeaderStatus::Establishing);
        // Sync stream: empty diff + NEWLEADER to f2.
        let f2_msgs = sends_to(&a, F2);
        assert!(matches!(f2_msgs[0], Message::SyncDiff { .. }));
        assert!(matches!(f2_msgs[1], Message::NewLeader { epoch: Epoch(1) }));
        let a2 = complete_persists(&mut l, &a); // currentEpoch persisted
        assert!(a2.is_empty(), "self ack alone is not a quorum");
        let a = l.handle(msg(
            F3,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        assert!(matches!(sends_to(&a, F3)[1], Message::NewLeader { .. }));
        // f2 acks NEWLEADER: with self, that is a quorum → established.
        let a = l.handle(msg(F2, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        assert!(a.iter().any(|x| matches!(x, Action::Activated { epoch: Epoch(1) })));
        assert!(matches!(sends_to(&a, F2)[0], Message::UpToDate { .. }));
        assert!(l.is_established());
        // f3 finishes too.
        let a = l.handle(msg(F3, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        assert!(matches!(sends_to(&a, F3)[0], Message::UpToDate { .. }));
        assert_eq!(l.active_followers().count(), 2);
        l
    }

    #[test]
    fn establishment_walkthrough() {
        let l = established_leader();
        assert_eq!(l.epoch(), Epoch(1));
        assert_eq!(l.status(), LeaderStatus::Broadcasting);
    }

    #[test]
    fn proposal_lifecycle_self_ack_plus_one_follower_commits() {
        let mut l = established_leader();
        let a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"x") });
        let zxid = Zxid::new(Epoch(1), 1);
        // Propose fans out to both followers as one star broadcast;
        // persist requested.
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Broadcast { to, msg: Message::Propose { txn, .. } }
                if to == &vec![F2, F3] && txn.zxid == zxid
        )));
        assert_eq!(l.outstanding(), 1);
        // Self persist alone: no commit (1 of 3).
        let a2 = complete_persists(&mut l, &a);
        assert!(!a2.iter().any(|x| matches!(x, Action::Committed { .. })));
        // One follower ack → quorum → commit + deliver + COMMIT broadcast.
        let a3 = l.handle(msg(F2, Message::Ack { zxid }));
        assert!(a3.iter().any(|x| matches!(x, Action::Committed { zxid: z } if *z == zxid)));
        assert!(a3.iter().any(|x| matches!(x, Action::Deliver { txn } if txn.zxid == zxid)));
        assert!(matches!(sends_to(&a3, F2)[0], Message::Commit { zxid: z } if *z == zxid));
        assert_eq!(l.outstanding(), 0);
        assert_eq!(l.last_committed(), zxid);
    }

    #[test]
    fn follower_lags_track_acked_vs_committed() {
        let mut l = established_leader();
        // Freshly established: both followers active at zero lag.
        let lags = l.follower_lags();
        assert_eq!(lags.len(), 2);
        assert!(lags.iter().all(|f| f.lag_txns == Some(0) && !f.syncing));

        // Three proposals; f2 acks all three, f3 only the first.
        let mut persists = Vec::new();
        for _ in 0..3 {
            persists.extend(l.handle(Input::ClientRequest { data: Bytes::from_static(b"x") }));
        }
        let _ = complete_persists(&mut l, &persists);
        for c in 1..=3u32 {
            let _ = l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), c) }));
        }
        let _ = l.handle(msg(F3, Message::Ack { zxid: Zxid::new(Epoch(1), 1) }));
        assert_eq!(l.last_committed(), Zxid::new(Epoch(1), 3));

        let lags = l.follower_lags();
        let f2 = lags.iter().find(|f| f.peer == F2).unwrap();
        let f3 = lags.iter().find(|f| f.peer == F3).unwrap();
        assert_eq!(f2.acked, Some(Zxid::new(Epoch(1), 3)));
        assert_eq!(f2.lag_txns, Some(0));
        assert_eq!(f3.acked, Some(Zxid::new(Epoch(1), 1)));
        assert_eq!(f3.lag_txns, Some(2));

        // f3 catches up → lag drains to zero.
        for c in 2..=3u32 {
            let _ = l.handle(msg(F3, Message::Ack { zxid: Zxid::new(Epoch(1), c) }));
        }
        let f3 = l.follower_lags().into_iter().find(|f| f.peer == F3).unwrap();
        assert_eq!(f3.lag_txns, Some(0));
    }

    #[test]
    fn counter_gap_is_same_epoch_only() {
        assert_eq!(counter_gap(Zxid::new(Epoch(2), 5), Zxid::new(Epoch(2), 9)), Some(4));
        assert_eq!(counter_gap(Zxid::new(Epoch(2), 9), Zxid::new(Epoch(2), 5)), Some(0));
        assert_eq!(counter_gap(Zxid::new(Epoch(1), 5), Zxid::new(Epoch(2), 5)), None);
        assert_eq!(counter_gap(Zxid::ZERO, Zxid::ZERO), Some(0));
    }

    #[test]
    fn metrics_track_propose_ack_commit_cycle() {
        let reg = zab_metrics::Registry::new();
        let mut l = established_leader();
        l.set_metrics(CoreMetrics::registered(&reg));
        // Advance the driver clock, then propose; the quorum ack lands
        // 40ms later so the latency histogram must record exactly 40.
        let _ = l.handle(Input::Tick { now_ms: 100 });
        let a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"x") });
        let zxid = Zxid::new(Epoch(1), 1);
        assert_eq!(reg.snapshot().counter("core.proposals_proposed"), 1);
        assert_eq!(reg.snapshot().gauge("core.outstanding_depth"), 1);
        let _ = complete_persists(&mut l, &a);
        let _ = l.handle(Input::Tick { now_ms: 140 });
        let _ = l.handle(msg(F2, Message::Ack { zxid }));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("core.acks_received"), 1);
        assert_eq!(snap.counter("core.proposals_committed"), 1);
        assert_eq!(snap.gauge("core.outstanding_depth"), 0);
        let lat = snap.histogram("core.quorum_ack_latency_ms").cloned().unwrap_or_default();
        assert_eq!((lat.count, lat.sum, lat.max), (1, 40, 40));
    }

    #[test]
    fn follower_acks_without_leader_persist_do_not_commit() {
        // Commit needs a quorum that includes durable copies; with f2 and
        // f3 acked but the leader's own write still in flight, 2 of 3 have
        // it — that IS a quorum, so it commits. Verify the self-ack is not
        // required when followers alone form a quorum.
        let mut l = established_leader();
        let _a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"x") });
        let zxid = Zxid::new(Epoch(1), 1);
        let a2 = l.handle(msg(F2, Message::Ack { zxid }));
        assert!(!a2.iter().any(|x| matches!(x, Action::Committed { .. })));
        let a3 = l.handle(msg(F3, Message::Ack { zxid }));
        assert!(a3.iter().any(|x| matches!(x, Action::Committed { .. })));
    }

    #[test]
    fn window_throttles_and_queue_drains_on_commit() {
        let mut config = cfg();
        config.max_outstanding = 1;
        let (mut l, _) = Leader::new(ME, config, PersistentState::default(), Zxid::ZERO, 0);
        // Bring up one follower for a quorum.
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        let a = complete_persists(&mut l, &a);
        let _ = a;
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        assert!(l.is_established());

        let a1 = l.handle(Input::ClientRequest { data: Bytes::from_static(b"1") });
        let _a2 = l.handle(Input::ClientRequest { data: Bytes::from_static(b"2") });
        assert_eq!(l.outstanding(), 1);
        assert_eq!(l.queued_requests(), 1);
        complete_persists(&mut l, &a1);
        let a = l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), 1) }));
        // Commit of 1 pumps proposal 2.
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Send { msg: Message::Propose { txn, .. }, .. } if txn.zxid == Zxid::new(Epoch(1), 2)
        )));
        assert_eq!(l.outstanding(), 1);
        assert_eq!(l.queued_requests(), 0);
    }

    #[test]
    fn pumped_proposal_suppresses_standalone_commit_frame() {
        let mut config = cfg();
        config.max_outstanding = 1;
        let (mut l, _) = Leader::new(ME, config, PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        assert!(l.is_established());

        let a1 = l.handle(Input::ClientRequest { data: Bytes::from_static(b"1") });
        let _ = l.handle(Input::ClientRequest { data: Bytes::from_static(b"2") });
        complete_persists(&mut l, &a1);
        let a = l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), 1) }));
        // The commit pumps proposal 2, which carries the watermark — so
        // no standalone COMMIT frame goes out in the same batch.
        let f2_msgs = sends_to(&a, F2);
        assert!(f2_msgs.iter().any(|m| matches!(
            m,
            Message::Propose { txn, commit_up_to }
                if txn.zxid == Zxid::new(Epoch(1), 2) && *commit_up_to == Zxid::new(Epoch(1), 1)
        )));
        assert!(!f2_msgs.iter().any(|m| matches!(m, Message::Commit { .. })));

        // With nothing queued, the next commit falls back to an explicit
        // COMMIT broadcast.
        complete_persists(&mut l, &a);
        let a = l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), 2) }));
        assert!(sends_to(&a, F2)
            .iter()
            .any(|m| matches!(m, Message::Commit { zxid } if *zxid == Zxid::new(Epoch(1), 2))));
    }

    #[test]
    fn request_rejected_before_establishment() {
        let (mut l, _) = Leader::new(ME, cfg(), PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"x") });
        assert!(matches!(
            a[0],
            Action::ClientRequestRejected { reason: RejectReason::NotPrimary, .. }
        ));
    }

    #[test]
    fn request_queue_limit_rejects_overload() {
        let mut config = cfg();
        config.max_outstanding = 1;
        config.request_queue_limit = 2;
        let (mut l, _) = Leader::new(ME, config, PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        for _ in 0..3 {
            l.handle(Input::ClientRequest { data: Bytes::from_static(b"y") });
        }
        let a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"z") });
        assert!(a.iter().any(|x| matches!(
            x,
            Action::ClientRequestRejected { reason: RejectReason::Overloaded, .. }
        )));
    }

    #[test]
    fn request_over_the_txn_limit_is_rejected_and_not_proposed() {
        let (mut l, _) = Leader::new(ME, cfg(), PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        let a = l.handle(Input::ClientRequest { data: Bytes::from(vec![0; MAX_TXN_DATA_LEN + 1]) });
        assert!(matches!(
            a[..],
            [Action::ClientRequestRejected { reason: RejectReason::TooLarge, .. }]
        ));
        let a = l.handle(Input::ClientRequest { data: Bytes::from(vec![0; MAX_TXN_DATA_LEN]) });
        assert!(a.iter().any(|x| matches!(x, Action::Broadcast { .. } | Action::Send { .. })));
    }

    #[test]
    fn fresher_follower_in_discovery_forces_abdication() {
        let (mut l, _) = Leader::new(ME, cfg(), PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo {
                accepted_epoch: Epoch::ZERO,
                last_zxid: Zxid::new(Epoch(1), 5),
            },
        ));
        complete_persists(&mut l, &a);
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch(1), last_zxid: Zxid::new(Epoch(1), 5) },
        ));
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
        assert_eq!(l.status(), LeaderStatus::Defunct);
    }

    #[test]
    fn higher_accepted_epoch_in_info_forces_abdication() {
        let mut l = established_leader();
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch(9), last_zxid: Zxid::ZERO },
        ));
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
    }

    #[test]
    fn late_joiner_during_broadcast_gets_queued_traffic_after_sync() {
        // Build a 3-ensemble established with only f2; then f3 joins while
        // a proposal is being made mid-sync.
        let (mut l, _) = Leader::new(ME, cfg(), PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        assert!(l.is_established());
        // Commit one txn.
        let a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"pre") });
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), 1) }));
        // f3 joins (fresh): fast path is not taken (accepted 0 < epoch 1).
        let a = l.handle(msg(
            F3,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        assert!(matches!(sends_to(&a, F3)[0], Message::NewEpoch { .. }));
        let a = l.handle(msg(
            F3,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        // Sync carries the committed txn.
        match sends_to(&a, F3)[0] {
            Message::SyncDiff { txns } => assert_eq!(txns.len(), 1),
            m => panic!("expected DIFF, got {}", m.kind()),
        }
        // While f3 syncs, another proposal happens: f3 must NOT see it yet.
        let a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"mid") });
        assert!(sends_to(&a, F3).is_empty(), "proposal leaked to syncing peer");
        assert_eq!(sends_to(&a, F2).len(), 1);
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), 2) }));
        // f3 finishes sync: UPTODATE, then the queued PROPOSE and COMMIT.
        let a = l.handle(msg(
            F3,
            Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::new(Epoch(1), 1) },
        ));
        let f3_msgs = sends_to(&a, F3);
        assert!(matches!(f3_msgs[0], Message::UpToDate { .. }));
        assert!(f3_msgs.iter().any(|m| matches!(
            m,
            Message::Propose { txn, .. } if txn.zxid == Zxid::new(Epoch(1), 2)
        )));
        assert!(f3_msgs.iter().any(|m| matches!(
            m,
            Message::Commit { zxid } if *zxid == Zxid::new(Epoch(1), 2)
        )));
    }

    #[test]
    fn peer_disconnect_removes_it_from_commit_accounting() {
        let mut l = established_leader();
        l.handle(Input::PeerDisconnected { peer: F2 });
        assert_eq!(l.active_followers().count(), 1);
        // Proposals still commit via self + f3.
        let a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"x") });
        complete_persists(&mut l, &a);
        let a = l.handle(msg(F3, Message::Ack { zxid: Zxid::new(Epoch(1), 1) }));
        assert!(a.iter().any(|x| matches!(x, Action::Committed { .. })));
    }

    #[test]
    fn losing_quorum_contact_abdicates_on_tick() {
        let mut l = established_leader();
        l.handle(Input::PeerDisconnected { peer: F2 });
        l.handle(Input::PeerDisconnected { peer: F3 });
        let a = l.handle(Input::Tick { now_ms: 10_000 });
        assert!(a
            .iter()
            .any(|x| matches!(x, Action::GoToElection { reason: "lost contact with a quorum" })));
    }

    #[test]
    fn pings_flow_to_peers_on_interval() {
        let mut l = established_leader();
        let a = l.handle(Input::Tick { now_ms: 60 });
        let pings = a
            .iter()
            .filter(|x| matches!(x, Action::Send { msg: Message::Ping { .. }, .. }))
            .count();
        assert_eq!(pings, 2);
    }

    #[test]
    fn establish_timeout_abandons_stuck_establishment() {
        let (mut l, _) = Leader::new(ME, cfg(), PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(Input::Tick { now_ms: 5_000 });
        assert!(a
            .iter()
            .any(|x| matches!(x, Action::GoToElection { reason: "failed to establish in time" })));
    }

    #[test]
    fn ack_beyond_history_is_fatal() {
        let mut l = established_leader();
        let a = l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), 99) }));
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
    }

    #[test]
    fn snap_sync_requested_for_deep_lag() {
        let mut config = cfg();
        config.snap_threshold = 1;
        let (mut l, _) = Leader::new(ME, config, PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        // Commit two txns so the gap to a fresh joiner exceeds threshold 1.
        for _ in 0..2 {
            let a = l.handle(Input::ClientRequest { data: Bytes::from_static(b"x") });
            complete_persists(&mut l, &a);
        }
        l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), 2) }));
        // Fresh f3 joins: plan must be SNAP → TakeSnapshot requested.
        let _ = l.handle(msg(
            F3,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        let a = l.handle(msg(
            F3,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        assert!(a.iter().any(|x| matches!(x, Action::TakeSnapshot)));
        // Snapshot arrives: SNAP + NEWLEADER go out.
        let a = l.handle(Input::SnapshotReady {
            snapshot: Bytes::from_static(b"state"),
            zxid: Zxid::new(Epoch(1), 2),
        });
        let f3_msgs = sends_to(&a, F3);
        assert!(matches!(f3_msgs[0], Message::SyncSnap { .. }));
        assert!(matches!(f3_msgs[1], Message::NewLeader { .. }));
    }

    #[test]
    fn messages_from_non_members_are_ignored() {
        let mut l = established_leader();
        let a = l.handle(msg(ServerId(99), Message::Ack { zxid: Zxid::new(Epoch(1), 1) }));
        assert!(a.is_empty());
    }

    #[test]
    fn commit_watermark_skips_to_highest_quorum_acked() {
        // Pipelined proposals acked cumulatively: a single Ack(3) commits
        // 1..3 at once.
        let mut l = established_leader();
        let mut persists = Vec::new();
        for _ in 0..3 {
            persists.extend(l.handle(Input::ClientRequest { data: Bytes::from_static(b"p") }));
        }
        complete_persists(&mut l, &persists);
        let a = l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), 3) }));
        let committed: Vec<Zxid> = a
            .iter()
            .filter_map(|x| match x {
                Action::Committed { zxid } => Some(*zxid),
                _ => None,
            })
            .collect();
        assert_eq!(committed, (1..=3).map(|c| Zxid::new(Epoch(1), c)).collect::<Vec<_>>());
        // One cumulative COMMIT message.
        let commits =
            sends_to(&a, F3).iter().filter(|m| matches!(m, Message::Commit { .. })).count();
        assert_eq!(commits, 1);
    }

    #[test]
    fn sync_chunks_bounds_each_chunk_and_preserves_order() {
        let big = SYNC_CHUNK_BYTES / 2;
        let txns: Vec<Txn> = (1..=5)
            .map(|i| Txn::new(Zxid::new(Epoch(1), i), Bytes::from(vec![i as u8; big])))
            .collect();
        let chunks = sync_chunks(txns.clone());
        assert!(chunks.len() > 1, "1.25 MiB of payload must split");
        for chunk in &chunks {
            let bytes: usize = chunk.iter().map(|t| t.data.len() + SYNC_TXN_OVERHEAD).sum();
            assert!(chunk.len() == 1 || bytes <= SYNC_CHUNK_BYTES);
        }
        let flat: Vec<Txn> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, txns);

        // Empty input still yields the mandatory leading (empty) chunk.
        assert_eq!(sync_chunks(Vec::new()), vec![Vec::new()]);

        // A single oversized txn travels alone rather than being dropped.
        let giant =
            vec![Txn::new(Zxid::new(Epoch(1), 9), Bytes::from(vec![0u8; SYNC_CHUNK_BYTES * 2]))];
        let chunks = sync_chunks(giant.clone());
        assert_eq!(chunks.into_iter().flatten().collect::<Vec<_>>(), giant);
    }

    /// Establishes a leader under `config` with only F2 attached, then
    /// commits `n` txns of `payload_bytes` each (F2 acks everything).
    fn leader_with_history(config: ClusterConfig, n: u32, payload_bytes: usize) -> Leader {
        let (mut l, _) = Leader::new(ME, config, PersistentState::default(), Zxid::ZERO, 0);
        let a = l.handle(msg(
            F2,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        let a = l.handle(msg(
            F2,
            Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        complete_persists(&mut l, &a);
        l.handle(msg(F2, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        assert!(l.is_established());
        let payload = vec![0u8; payload_bytes];
        for i in 1..=n {
            let a = l.handle(Input::ClientRequest { data: Bytes::from(payload.clone()) });
            complete_persists(&mut l, &a);
            l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), i) }));
        }
        l
    }

    /// Feeds F3's FOLLOWERINFO + ACKEPOCH and returns the actions of the
    /// ACKEPOCH step (where the sync stream opens).
    fn join_f3(l: &mut Leader) -> Vec<Action> {
        let a = l.handle(msg(
            F3,
            Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
        ));
        assert!(matches!(sends_to(&a, F3)[0], Message::NewEpoch { .. }));
        l.handle(msg(F3, Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO }))
    }

    #[test]
    fn large_diff_sync_streams_as_acked_bounded_chunks() {
        // Establish with f2 only, grow a history too large for one sync
        // message, then let f3 join fresh: its DIFF opens with the first
        // bounded chunk, and each further chunk is released only after
        // the previous one is SYNCACKed, with NEWLEADER riding on the
        // final chunk — the whole tail covered in order.
        let mut l = leader_with_history(cfg(), 6, SYNC_CHUNK_BYTES / 4);
        let a = join_f3(&mut l);
        let f3_msgs = sends_to(&a, F3);
        assert_eq!(f3_msgs.len(), 1, "paced stream opens with exactly one chunk");
        let mut streamed: Vec<Txn> = Vec::new();
        let mut diffs = 0usize;
        match f3_msgs[0] {
            Message::SyncDiff { txns } => {
                streamed.extend(txns.iter().cloned());
                diffs += 1;
            }
            m => panic!("expected SyncDiff, got {}", m.kind()),
        }
        // Ack each chunk; the leader releases the next until NEWLEADER.
        let mut done = false;
        while !done {
            assert!(diffs < 16, "sync stream failed to terminate");
            let last = streamed.last().map(|t| t.zxid).unwrap_or(Zxid::ZERO);
            let a = l.handle(msg(F3, Message::SyncAck { last_zxid: last }));
            for m in sends_to(&a, F3) {
                match m {
                    Message::SyncDiff { txns } => {
                        let bytes: usize =
                            txns.iter().map(|t| t.data.len() + SYNC_TXN_OVERHEAD).sum();
                        assert!(txns.len() == 1 || bytes <= SYNC_CHUNK_BYTES);
                        streamed.extend(txns.iter().cloned());
                        diffs += 1;
                    }
                    Message::NewLeader { .. } => done = true,
                    m => panic!("unexpected message in sync stream: {}", m.kind()),
                }
            }
        }
        assert!(diffs > 1, "6 × 256 KiB must not fit one sync message");
        assert_eq!(streamed.len(), 6);
        assert!(streamed.windows(2).all(|w| w[0].zxid < w[1].zxid));
        // The stream is fully shipped: progress reports zero remaining.
        let progress = l.syncing_peers();
        assert_eq!(progress.len(), 1);
        assert_eq!((progress[0].peer, progress[0].chunks_remaining), (F3, 0));
        // Activation completes as usual.
        let a =
            l.handle(msg(F3, Message::AckNewLeader { epoch: Epoch(1), last_zxid: l.last_zxid() }));
        assert!(matches!(sends_to(&a, F3)[0], Message::UpToDate { .. }));
        assert!(l.syncing_peers().is_empty());
    }

    #[test]
    fn zero_sync_rate_paces_at_the_floor_and_retransmits_a_stalled_chunk() {
        // A rate of 0 is not "pacing off": the stream is ack-gated like any
        // other, the bucket refills at the 2 MiB/s floor, and the stall
        // retransmit still runs.
        let mut config = cfg();
        config.sync_rate_bytes_per_sec = 0;
        let stall_ms = config.follower_timeout_ms;
        let mut l = leader_with_history(config, 12, SYNC_CHUNK_BYTES / 4);
        let a = join_f3(&mut l);
        let opening: Vec<Message> = sends_to(&a, F3).into_iter().cloned().collect();
        assert_eq!(opening.len(), 1, "opening chunk only: the tail waits for acks");
        let Message::SyncDiff { txns } = &opening[0] else { panic!("expected SyncDiff") };
        let mut streamed: Vec<Txn> = txns.clone();
        // Ticks keep both peers in contact (steps stay under the timeout).
        let mut now = 0u64;
        let tick = |l: &mut Leader, now: &mut u64| {
            l.handle(msg(F2, Message::Pong { last_zxid: l.last_zxid() }));
            l.handle(msg(F3, Message::Pong { last_zxid: Zxid::ZERO }));
            *now += stall_ms / 2;
            l.handle(Input::Tick { now_ms: *now })
        };
        // The opening chunk's ack never comes: one stall window later the
        // tick resends it verbatim, and not before.
        let diffs = |a: &[Action]| -> Vec<Message> {
            let to_f3 = sends_to(a, F3).into_iter();
            to_f3.filter(|m| matches!(m, Message::SyncDiff { .. })).cloned().collect()
        };
        let a = tick(&mut l, &mut now);
        assert!(diffs(&a).is_empty(), "resent before the stall window elapsed");
        let a = tick(&mut l, &mut now);
        assert!(diffs(&a) == opening, "stalled chunk not resent verbatim");
        // Ack chunk by chunk, ticking only when an ack releases nothing:
        // the refilled 2 MiB bucket covers two of the three tail chunks,
        // so the last one must wait for a tick-driven refill, then ship.
        let mut released_by_tick = false;
        let mut done = false;
        for _ in 0..16 {
            let last = streamed.last().expect("opening chunk is non-empty").zxid;
            let mut a = l.handle(msg(F3, Message::SyncAck { last_zxid: last }));
            let by_tick = sends_to(&a, F3).is_empty();
            if by_tick {
                a = tick(&mut l, &mut now);
            }
            for m in sends_to(&a, F3) {
                match m {
                    Message::SyncDiff { txns } => {
                        released_by_tick |= by_tick;
                        streamed.extend(txns.iter().cloned());
                    }
                    Message::NewLeader { .. } => done = true,
                    _ => {}
                }
            }
            if done {
                break;
            }
        }
        assert!(done, "rate-0 sync stream failed to terminate");
        assert!(released_by_tick, "a dry bucket must refill at the floor rate");
        assert_eq!(streamed.len(), 12);
        assert!(streamed.windows(2).all(|w| w[0].zxid < w[1].zxid));
    }

    #[test]
    fn paced_sync_throttles_until_tick_refills_budget() {
        // With a 1 MiB/s budget the burst floor (2 maximal chunks) covers
        // the opening chunk and one release; the third chunk must wait for
        // tick-driven refills.
        let mut config = cfg();
        config.sync_rate_bytes_per_sec = 1 << 20;
        let mut l = leader_with_history(config, 12, SYNC_CHUNK_BYTES / 4);
        let a = join_f3(&mut l);
        assert_eq!(sends_to(&a, F3).len(), 1, "opening chunk only");
        // Ack 1 → chunk 2 released from the remaining burst budget.
        let a = l.handle(msg(F3, Message::SyncAck { last_zxid: Zxid::new(Epoch(1), 3) }));
        assert!(matches!(sends_to(&a, F3)[0], Message::SyncDiff { .. }));
        // Ack 2 → bucket is dry: chunk 3 is deferred, not sent.
        let a = l.handle(msg(F3, Message::SyncAck { last_zxid: Zxid::new(Epoch(1), 6) }));
        assert!(sends_to(&a, F3).is_empty(), "throttled: no chunk until refill");
        let progress = l.syncing_peers();
        assert_eq!(progress.len(), 1);
        assert_eq!(progress[0].chunks_remaining, 2);
        assert!(progress[0].bytes_remaining > 0);
        // 100 ms refills ~105 KiB — still short of a ~768 KiB chunk.
        let a = l.handle(Input::Tick { now_ms: 100 });
        assert!(
            !sends_to(&a, F3).iter().any(|m| matches!(m, Message::SyncDiff { .. })),
            "insufficient refill must not release the chunk"
        );
        // Keep peers fresh while virtual time advances, then refill enough.
        let mut released_at = None;
        for t in (200..=1200).step_by(100) {
            l.handle(msg(F2, Message::Pong { last_zxid: l.last_zxid() }));
            l.handle(msg(F3, Message::Pong { last_zxid: Zxid::new(Epoch(1), 6) }));
            let a = l.handle(Input::Tick { now_ms: t });
            if sends_to(&a, F3).iter().any(|m| matches!(m, Message::SyncDiff { .. })) {
                released_at = Some(t);
                break;
            }
        }
        let released_at = released_at.expect("refill must eventually release the chunk");
        assert!(released_at >= 300, "a ~768 KiB chunk needs ≥ ~700 ms at 1 MiB/s minus leftovers");
        assert_eq!(l.syncing_peers()[0].chunks_remaining, 1);
    }

    #[test]
    fn paced_sync_extends_plan_over_live_traffic_and_bounds_activation_flush() {
        // A follower that rejoins under live load must not have every
        // concurrent proposal queued behind its sync for one giant
        // activation burst (a burst that can stall the leader past the
        // follower timeout and wedge the cluster in re-elections).
        // Instead the paced stream chases the commit frontier by
        // extending itself from history, ack-gated, and only traffic
        // broadcast after NEWLEADER ships waits for the flush.
        fn record(actions: &[Action], streamed: &mut Vec<Txn>, seen_newleader: &mut bool) {
            for m in sends_to(actions, F3) {
                match m {
                    Message::SyncDiff { txns } => streamed.extend(txns.iter().cloned()),
                    Message::NewLeader { .. } => *seen_newleader = true,
                    Message::Propose { .. } => panic!("proposal sent to a peer mid-sync"),
                    _ => {}
                }
            }
        }
        let mut config = cfg();
        // The whole 7 MiB stream fits the initial 8 MiB bucket, so this
        // test isolates plan extension from throttling.
        config.sync_rate_bytes_per_sec = 8 << 20;
        let quarter = SYNC_CHUNK_BYTES / 4;
        let mut l = leader_with_history(config, 8, quarter);
        let mut streamed: Vec<Txn> = Vec::new();
        let mut seen_newleader = false;
        let a = join_f3(&mut l);
        record(&a, &mut streamed, &mut seen_newleader);
        // While the sync is in flight, live load commits another five
        // MiB — well past the cutover threshold of the original plan.
        let payload = vec![0u8; quarter];
        for i in 9..=28u32 {
            let a = l.handle(Input::ClientRequest { data: Bytes::from(payload.clone()) });
            let b = complete_persists(&mut l, &a);
            record(&a, &mut streamed, &mut seen_newleader);
            record(&b, &mut streamed, &mut seen_newleader);
            let a = l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), i) }));
            record(&a, &mut streamed, &mut seen_newleader);
        }
        // Ack chunk by chunk: the stream must outgrow its plan and still
        // terminate with NEWLEADER at the frontier.
        let mut rounds = 0usize;
        while !seen_newleader {
            rounds += 1;
            assert!(rounds < 64, "extended sync stream failed to terminate");
            let last = streamed.last().map(|t| t.zxid).unwrap_or(Zxid::ZERO);
            let a = l.handle(msg(F3, Message::SyncAck { last_zxid: last }));
            record(&a, &mut streamed, &mut seen_newleader);
        }
        assert_eq!(streamed.len(), 28, "extension must cover the live-load txns");
        assert!(streamed.windows(2).all(|w| w[0].zxid < w[1].zxid));
        // One proposal lands in the post-NEWLEADER round-trip window:
        // that (and only that) is activation-flush traffic.
        let a = l.handle(Input::ClientRequest { data: Bytes::from(vec![7u8; 8]) });
        complete_persists(&mut l, &a);
        assert!(sends_to(&a, F3).is_empty(), "post-NEWLEADER traffic queues for the flush");
        let a = l.handle(msg(
            F3,
            Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::new(Epoch(1), 28) },
        ));
        let to_f3 = sends_to(&a, F3);
        assert!(matches!(to_f3[0], Message::UpToDate { .. }));
        assert!(
            to_f3.iter().any(|m| matches!(
                m,
                Message::Propose { txn, .. } if txn.zxid == Zxid::new(Epoch(1), 29)
            )),
            "the round-trip-window proposal flushes at activation"
        );
        assert_eq!(to_f3.len(), 2, "the flush covers only the round-trip window");
        assert!(l.syncing_peers().is_empty());
    }

    #[test]
    fn underprovisioned_sync_rate_goes_express_instead_of_livelocking() {
        // Live load appending faster than `sync_rate_bytes_per_sec` can
        // ship means a strictly throttled stream never closes the gap:
        // the follower would sync forever (and its unsent backlog grow
        // without bound). The session must notice the growing gap and go
        // express — ack-gated, burst-bounded transmissions exempt from
        // the bucket — so the catch-up still terminates.
        let mut config = cfg();
        config.sync_rate_bytes_per_sec = 2 << 20;
        let quarter = SYNC_CHUNK_BYTES / 4;
        let mut l = leader_with_history(config.clone(), 6, quarter);
        let mut streamed: Vec<Txn> = Vec::new();
        let mut seen_newleader = false;
        let mut saw_multi_diff = false;
        let record = |actions: &[Action],
                      streamed: &mut Vec<Txn>,
                      seen_newleader: &mut bool,
                      saw_multi_diff: &mut bool| {
            let mut diffs_in_turn = 0usize;
            for m in sends_to(actions, F3) {
                match m {
                    Message::SyncDiff { txns } => {
                        diffs_in_turn += 1;
                        // Stall retransmits duplicate; keep novel txns only.
                        let last = streamed.last().map(|t| t.zxid).unwrap_or(Zxid::ZERO);
                        streamed.extend(txns.iter().filter(|t| t.zxid > last).cloned());
                    }
                    Message::NewLeader { .. } => *seen_newleader = true,
                    _ => {}
                }
            }
            if diffs_in_turn >= 2 {
                *saw_multi_diff = true;
            }
        };
        let a = join_f3(&mut l);
        record(&a, &mut streamed, &mut seen_newleader, &mut saw_multi_diff);
        let payload = vec![0u8; quarter];
        let mut appended = 6u32;
        let mut t = 0u64;
        let mut iters = 0usize;
        while !seen_newleader {
            iters += 1;
            assert!(iters < 100, "express chase failed to terminate the stream");
            // ~6.5 MiB/s of live appends against a 2 MiB/s sync rate that
            // also still owes the whole backlog: the gap widens every
            // extension until the guard trips. Express showing up
            // (multi-chunk transmissions) is the cue to ease the load —
            // a closed loop would have slowed long before this too.
            if !saw_multi_diff {
                for _ in 0..5 {
                    appended += 1;
                    let a = l.handle(Input::ClientRequest { data: Bytes::from(payload.clone()) });
                    complete_persists(&mut l, &a);
                    l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), appended) }));
                }
            }
            // Steps stay under the 400 ms contact timeout (pongs stamp at
            // the pre-tick clock).
            t += 200;
            l.handle(msg(F2, Message::Pong { last_zxid: l.last_zxid() }));
            l.handle(msg(F3, Message::Pong { last_zxid: Zxid::ZERO }));
            let a = l.handle(Input::Tick { now_ms: t });
            record(&a, &mut streamed, &mut seen_newleader, &mut saw_multi_diff);
            let last = streamed.last().map(|t| t.zxid).unwrap_or(Zxid::ZERO);
            let a = l.handle(msg(F3, Message::SyncAck { last_zxid: last }));
            record(&a, &mut streamed, &mut seen_newleader, &mut saw_multi_diff);
        }
        assert!(saw_multi_diff, "the convergence guard must engage express mode");
        assert_eq!(streamed.len(), appended as usize, "the stream covers every append");
        assert!(streamed.windows(2).all(|w| w[0].zxid < w[1].zxid));
        let a = l.handle(msg(
            F3,
            Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::new(Epoch(1), appended) },
        ));
        assert!(matches!(sends_to(&a, F3)[0], Message::UpToDate { .. }));
        assert!(l.syncing_peers().is_empty());
    }

    #[test]
    fn concurrent_syncs_share_the_token_budget() {
        // Two followers rejoining at once draw from one bucket: after both
        // opening chunks the budget admits only one release per refill, so
        // the second release (id order) waits for more tokens.
        let mut config = ClusterConfig::majority([
            ServerId(1),
            ServerId(2),
            ServerId(3),
            ServerId(4),
            ServerId(5),
        ]);
        config.sync_rate_bytes_per_sec = 1 << 20;
        let f4 = ServerId(4);
        let f5 = ServerId(5);
        let (mut l, _) = Leader::new(ME, config, PersistentState::default(), Zxid::ZERO, 0);
        for f in [F2, f5] {
            let a = l.handle(msg(
                f,
                Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
            ));
            complete_persists(&mut l, &a);
        }
        for f in [F2, f5] {
            let a = l.handle(msg(
                f,
                Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
            ));
            complete_persists(&mut l, &a);
        }
        for f in [F2, f5] {
            l.handle(msg(f, Message::AckNewLeader { epoch: Epoch(1), last_zxid: Zxid::ZERO }));
        }
        assert!(l.is_established());
        let payload = vec![0u8; SYNC_CHUNK_BYTES / 4];
        for i in 1..=12u32 {
            let a = l.handle(Input::ClientRequest { data: Bytes::from(payload.clone()) });
            complete_persists(&mut l, &a);
            l.handle(msg(F2, Message::Ack { zxid: Zxid::new(Epoch(1), i) }));
            l.handle(msg(f5, Message::Ack { zxid: Zxid::new(Epoch(1), i) }));
        }
        // F3 and F4 join together; each gets its opening chunk.
        for f in [F3, f4] {
            let _ = l.handle(msg(
                f,
                Message::FollowerInfo { accepted_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
            ));
            let a = l.handle(msg(
                f,
                Message::AckEpoch { current_epoch: Epoch::ZERO, last_zxid: Zxid::ZERO },
            ));
            assert!(matches!(sends_to(&a, f)[0], Message::SyncDiff { .. }));
        }
        // Both ack: the shared bucket (2 MiB burst − 2 openings) has no
        // room left, so both sessions throttle.
        for f in [F3, f4] {
            let a = l.handle(msg(f, Message::SyncAck { last_zxid: Zxid::new(Epoch(1), 3) }));
            assert!(sends_to(&a, f).is_empty(), "bucket drained by the two openings");
        }
        assert_eq!(l.syncing_peers().len(), 2);
        // One refill window admits one chunk at a time, so the two
        // sessions serialize instead of bursting together (lower id first).
        let mut f3_at = None;
        let mut f4_at = None;
        for t in (400..=2400).step_by(400) {
            for f in [F2, F3, f4, f5] {
                l.handle(msg(f, Message::Pong { last_zxid: l.last_zxid() }));
            }
            let a = l.handle(Input::Tick { now_ms: t });
            if f3_at.is_none()
                && sends_to(&a, F3).iter().any(|m| matches!(m, Message::SyncDiff { .. }))
            {
                f3_at = Some(t);
            }
            if f4_at.is_none()
                && sends_to(&a, f4).iter().any(|m| matches!(m, Message::SyncDiff { .. }))
            {
                f4_at = Some(t);
            }
        }
        let f3_at = f3_at.expect("f3's next chunk must release");
        let f4_at = f4_at.expect("f4's next chunk must release");
        assert!(f3_at < f4_at, "a shared bucket serializes concurrent sync releases");
    }

    #[test]
    fn retained_compaction_snapshot_serves_snap_without_app_round_trip() {
        // After Compact hands the leader a snapshot, a follower lagging
        // behind the compaction horizon is served SNAP directly from it —
        // no TakeSnapshot round trip — stitched to the retained log tail.
        let mut config = cfg();
        config.snap_threshold = 1;
        let mut l = leader_with_history(config, 3, 8);
        assert_eq!(l.last_committed(), Zxid::new(Epoch(1), 3));
        let a = l.handle(Input::Compact {
            through: Zxid::new(Epoch(1), 2),
            snapshot: Some(Bytes::from_static(b"compacted-state")),
        });
        assert!(a.is_empty());
        let a = join_f3(&mut l);
        assert!(
            !a.iter().any(|x| matches!(x, Action::TakeSnapshot)),
            "retained snapshot must be served without an app round trip"
        );
        let f3_msgs = sends_to(&a, F3);
        match f3_msgs[0] {
            Message::SyncSnap { snapshot, snapshot_zxid, txns } => {
                assert_eq!(snapshot.as_ref(), b"compacted-state");
                assert_eq!(*snapshot_zxid, Zxid::new(Epoch(1), 2));
                // The tail past the horizon rides along.
                assert_eq!(txns.len(), 1);
                assert_eq!(txns[0].zxid, Zxid::new(Epoch(1), 3));
            }
            m => panic!("expected SyncSnap, got {}", m.kind()),
        }
        assert!(matches!(f3_msgs[1], Message::NewLeader { .. }));
        assert_eq!(l.metrics.snap_syncs.get(), 1);
        assert_eq!(l.metrics.sync_bytes_sent.get() as usize, b"compacted-state".len() + 8 + 64);
    }

    #[test]
    fn sync_chunks_split_exactly_at_budget_boundary() {
        // Four txns whose budgeted costs sum to exactly the chunk budget
        // stay together; one extra byte forces a split after three.
        let unit = SYNC_CHUNK_BYTES / 4 - SYNC_TXN_OVERHEAD;
        let txns: Vec<Txn> = (1..=4)
            .map(|i| Txn::new(Zxid::new(Epoch(1), i), Bytes::from(vec![0u8; unit])))
            .collect();
        assert_eq!(sync_chunks(txns.clone()).len(), 1, "exact fit must not split");
        let mut over = txns;
        over[3] = Txn::new(Zxid::new(Epoch(1), 4), Bytes::from(vec![0u8; unit + 1]));
        let chunks = sync_chunks(over);
        assert_eq!(chunks.len(), 2, "one byte over the budget splits");
        assert_eq!((chunks[0].len(), chunks[1].len()), (3, 1));
    }
}
