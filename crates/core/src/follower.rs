//! The follower automaton (the paper's follower protocol, phases 1–3).
//!
//! A [`Follower`] incarnation is bound to one prospective leader (the
//! outcome of Phase 0 leader election). It walks through:
//!
//! 1. **Discovery** — announce itself (`FOLLOWERINFO`), acknowledge the
//!    leader's `NEWEPOCH` after durably updating `acceptedEpoch`.
//! 2. **Synchronization** — apply the DIFF/TRUNC/SNAP stream, durably adopt
//!    `currentEpoch` and the synced history, acknowledge `NEWLEADER`, and
//!    on `UPTODATE` commit the synced prefix and activate.
//! 3. **Broadcast** — accept pipelined proposals (persist, then ack), and
//!    deliver on commit, in zxid order, gap-free.
//!
//! Any protocol violation, stale epoch, timeout, or loss of the leader
//! connection ends the incarnation with [`Action::GoToElection`]; the
//! process then runs election again and builds a fresh automaton from its
//! recovered [`PersistentState`].

use crate::config::ClusterConfig;
use crate::delivery::deliver_committed;
use crate::events::{Action, Input, PersistRequest, PersistToken, PersistentState, RejectReason};
use crate::history::History;
use crate::messages::Message;
use crate::metrics::CoreMetrics;
use crate::types::{Epoch, ServerId, Txn, Zxid};
use std::collections::BTreeMap;
use zab_trace::{Stage, Tracer};

/// Externally visible follower phase, for tests and observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerStatus {
    /// Waiting for the leader's `NEWEPOCH` (or fast-path sync stream).
    Discovering,
    /// Processing the synchronization stream / awaiting `UPTODATE`.
    Syncing,
    /// Active: accepting proposals and delivering commits.
    Active,
    /// The incarnation ended; a new election is required.
    Defunct,
}

/// What a pending durability token completes.
// The `Ack` prefix mirrors the protocol message each completion triggers.
#[allow(clippy::enum_variant_names)]
#[derive(Debug)]
enum Pending {
    /// `acceptedEpoch` persisted → send `ACKEPOCH`.
    AckEpoch,
    /// Sync stream + `currentEpoch` persisted → send `ACKNEWLEADER`.
    AckNewLeader,
    /// A proposal persisted → ack it (cumulative).
    AckProposal(Zxid),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Discovering,
    /// Receiving the sync stream; `adopting` is set once `NEWLEADER` was
    /// seen and the durable adoption is in flight or acknowledged.
    Syncing {
        acked_new_leader: bool,
    },
    Broadcasting,
    Defunct,
}

/// The follower protocol automaton. Drive it with [`Follower::handle`].
#[derive(Debug)]
pub struct Follower {
    id: ServerId,
    leader: ServerId,
    config: ClusterConfig,
    accepted_epoch: Epoch,
    current_epoch: Epoch,
    history: History,
    delivered_to: Zxid,
    phase: Phase,
    now_ms: u64,
    last_leader_contact_ms: u64,
    next_token: u64,
    pending: BTreeMap<PersistToken, Pending>,
    /// Instrument bundle (standalone by default; see
    /// [`Follower::set_metrics`]).
    metrics: CoreMetrics,
    /// Flight recorder handle (disabled by default; see
    /// [`Follower::set_tracer`]).
    tracer: Tracer,
}

impl Follower {
    /// Creates a follower incarnation bound to `leader` and returns it with
    /// its initial actions (sending `FOLLOWERINFO`).
    ///
    /// `state` is the durable protocol state recovered from storage.
    /// `applied_to` is the zxid the driver's application has already
    /// applied up to (its snapshot point after a crash, or its live state
    /// when re-electing without one) — delivery resumes after it, so the
    /// application never sees a transaction twice within its own lifetime.
    /// `now_ms` is the driver's current clock.
    pub fn new(
        id: ServerId,
        leader: ServerId,
        config: ClusterConfig,
        state: PersistentState,
        applied_to: Zxid,
        now_ms: u64,
    ) -> (Follower, Vec<Action>) {
        let delivered_to = applied_to.max(state.history.base());
        let f = Follower {
            id,
            leader,
            config,
            accepted_epoch: state.accepted_epoch,
            current_epoch: state.current_epoch,
            history: state.history,
            delivered_to,
            phase: Phase::Discovering,
            now_ms,
            last_leader_contact_ms: now_ms,
            next_token: 0,
            pending: BTreeMap::new(),
            metrics: CoreMetrics::standalone(),
            tracer: Tracer::disabled(),
        };
        let actions = vec![Action::Send {
            to: leader,
            msg: Message::FollowerInfo {
                accepted_epoch: f.accepted_epoch,
                last_zxid: f.history.last_zxid(),
            },
        }];
        (f, actions)
    }

    /// This follower's server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Injects the instrument bundle this automaton records into,
    /// replacing the default standalone instruments. Call right after
    /// construction, before driving inputs.
    pub fn set_metrics(&mut self, metrics: CoreMetrics) {
        self.metrics = metrics;
    }

    /// Injects the flight-recorder handle this automaton records lifecycle
    /// events into (watermark-advance, deliver). Call right after
    /// construction, before driving inputs.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The leader this incarnation follows.
    pub fn leader(&self) -> ServerId {
        self.leader
    }

    /// Current phase, for observability.
    pub fn status(&self) -> FollowerStatus {
        match self.phase {
            Phase::Discovering => FollowerStatus::Discovering,
            Phase::Syncing { .. } => FollowerStatus::Syncing,
            Phase::Broadcasting => FollowerStatus::Active,
            Phase::Defunct => FollowerStatus::Defunct,
        }
    }

    /// Tail of the accepted history.
    pub fn last_zxid(&self) -> Zxid {
        self.history.last_zxid()
    }

    /// Highest committed zxid.
    pub fn last_committed(&self) -> Zxid {
        self.history.last_committed()
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
            Input::Message { from, msg } => {
                if from != self.leader {
                    // A follower converses only with its leader.
                    return out;
                }
                self.last_leader_contact_ms = self.now_ms;
                self.on_leader_message(msg, &mut out);
            }
            Input::Persisted { token } => self.on_persisted(token, &mut out),
            Input::ClientRequest { data } => {
                out.push(Action::ClientRequestRejected { data, reason: RejectReason::NotPrimary });
            }
            Input::SnapshotReady { .. } => {
                // Followers never request snapshots; ignore.
            }
            Input::PeerDisconnected { peer } => {
                if peer == self.leader {
                    self.abdicate("leader connection lost", &mut out);
                }
            }
            Input::Compact { through, .. } => {
                let point = through.min(self.delivered_to);
                if point > self.history.base() {
                    self.history.purge_through(point);
                }
            }
        }
        out
    }

    fn on_tick(&mut self, now_ms: u64, out: &mut Vec<Action>) {
        self.now_ms = now_ms;
        if now_ms.saturating_sub(self.last_leader_contact_ms) > self.config.follower_timeout_ms {
            self.abdicate("leader timeout", out);
        }
    }

    fn on_leader_message(&mut self, msg: Message, out: &mut Vec<Action>) {
        match msg {
            Message::NewEpoch { epoch } => self.on_new_epoch(epoch, out),
            Message::SyncDiff { txns } => {
                self.on_sync_txns(txns, out);
                self.ack_sync_chunk(out);
            }
            Message::SyncTrunc { truncate_to, txns } => {
                self.on_sync_trunc(truncate_to, txns, out);
                self.ack_sync_chunk(out);
            }
            Message::SyncSnap { snapshot, snapshot_zxid, txns } => {
                self.on_sync_snap(snapshot, snapshot_zxid, txns, out);
                self.ack_sync_chunk(out);
            }
            Message::NewLeader { epoch } => self.on_new_leader(epoch, out),
            Message::UpToDate { commit_to } => self.on_up_to_date(commit_to, out),
            Message::Propose { txn, commit_up_to } => self.on_propose(txn, commit_up_to, out),
            Message::Commit { zxid } => self.on_commit(zxid, out),
            Message::Ping { last_committed } => {
                if self.phase == Phase::Broadcasting {
                    self.advance_watermark(last_committed, out);
                }
                out.push(Action::Send {
                    to: self.leader,
                    msg: Message::Pong { last_zxid: self.history.last_zxid() },
                });
            }
            // Messages a follower never receives from a correct leader.
            Message::FollowerInfo { .. }
            | Message::AckEpoch { .. }
            | Message::AckNewLeader { .. }
            | Message::Ack { .. }
            | Message::Pong { .. }
            | Message::SyncAck { .. } => {
                self.abdicate("unexpected message from leader", out);
            }
        }
    }

    fn on_new_epoch(&mut self, epoch: Epoch, out: &mut Vec<Action>) {
        if self.phase != Phase::Discovering {
            self.abdicate("NEWEPOCH outside discovery", out);
            return;
        }
        // Strict acceptance (paper, Phase 1 step f.1.1): acknowledging an
        // epoch at most once ever is what makes the epoch unique to one
        // prospective leader. Equal epochs are handled by the established
        // leader's fast path, which skips NEWEPOCH entirely.
        if epoch <= self.accepted_epoch {
            self.abdicate("stale or duplicate NEWEPOCH", out);
            return;
        }
        self.accepted_epoch = epoch;
        let token = self.token(Pending::AckEpoch);
        out.push(Action::Persist { token, req: PersistRequest::AcceptedEpoch(epoch) });
    }

    /// Common entry for sync-stream transactions (DIFF body, or the suffix
    /// carried by TRUNC/SNAP).
    fn on_sync_txns(&mut self, txns: Vec<Txn>, out: &mut Vec<Action>) {
        if !self.enter_sync(out) {
            return;
        }
        // Checked whole before any of it is accepted: the history only
        // changes together with the `Persist` that makes the change durable
        // (the next incarnation inherits it in memory, not from the log).
        let mut appended = Vec::new();
        let mut last = self.history.last_zxid();
        for txn in txns {
            if txn.zxid <= last {
                // A retransmitted chunk (the leader repeats a transmission
                // whose ack got lost) overlaps what we already hold; the
                // opening TRUNC/SNAP aligned our prefix with the leader's,
                // so an already-held zxid is the same transaction.
                continue;
            }
            // A forward jump that is not the immediate successor means the
            // link swallowed part of the stream — appending would leave a
            // silent hole below the commit watermark we are about to adopt.
            if !txn.zxid.follows(last) {
                self.abdicate("sync stream leaves a gap", out);
                return;
            }
            last = txn.zxid;
            appended.push(txn);
        }
        if appended.is_empty() {
            return;
        }
        for txn in &appended {
            self.history.append(txn.clone());
        }
        let token = self.token_unpending();
        out.push(Action::Persist { token, req: PersistRequest::AppendTxns(appended) });
    }

    fn on_sync_trunc(&mut self, truncate_to: Zxid, txns: Vec<Txn>, out: &mut Vec<Action>) {
        if !self.enter_sync(out) {
            return;
        }
        if truncate_to < self.history.base() || truncate_to > self.history.last_zxid() {
            self.abdicate("TRUNC outside retained history", out);
            return;
        }
        if !self.history.contains_point(truncate_to) {
            // The leader assumed a common point we never had: our divergent
            // suffix from a dead epoch hides a hole (possible after
            // multiple interleaved leader failures). The suffix is
            // provably uncommitted, so discard it down to our greatest
            // point below the leader's, persist that, and rejoin — the
            // next discovery reports a zxid the leader does have, and the
            // sync becomes a plain DIFF.
            let fallback = self.history.last_point_at_or_below(truncate_to);
            if self.delivered_to > fallback {
                self.abdicate("TRUNC below delivery watermark", out);
                return;
            }
            self.history.truncate_to(fallback);
            let token = self.token_unpending();
            out.push(Action::Persist { token, req: PersistRequest::TruncateLog(fallback) });
            self.abdicate("TRUNC to unknown point; truncated and rejoining", out);
            return;
        }
        if self.delivered_to > truncate_to {
            // The leader asked us to discard transactions we already
            // delivered: they were committed at a quorum, so a correct
            // leader never does this. Treat as a fatal violation.
            self.abdicate("TRUNC below delivery watermark", out);
            return;
        }
        self.history.truncate_to(truncate_to);
        let token = self.token_unpending();
        out.push(Action::Persist { token, req: PersistRequest::TruncateLog(truncate_to) });
        self.on_sync_txns(txns, out);
    }

    fn on_sync_snap(
        &mut self,
        snapshot: bytes::Bytes,
        snapshot_zxid: Zxid,
        txns: Vec<Txn>,
        out: &mut Vec<Action>,
    ) {
        if !self.enter_sync(out) {
            return;
        }
        self.history.reset_to_snapshot(snapshot_zxid);
        self.delivered_to = snapshot_zxid;
        out.push(Action::InstallSnapshot { snapshot: snapshot.clone(), zxid: snapshot_zxid });
        let token = self.token_unpending();
        out.push(Action::Persist {
            token,
            req: PersistRequest::ResetToSnapshot { snapshot, zxid: snapshot_zxid },
        });
        self.on_sync_txns(txns, out);
    }

    /// Allocates a token with no completion side effect: used for sync
    /// writes whose durability is collectively awaited by the NEWLEADER
    /// adoption (ordered-durability contract: completing the adoption
    /// token implies these completed too).
    fn token_unpending(&mut self) -> PersistToken {
        self.next_token += 1;
        PersistToken(self.next_token)
    }

    /// Flow-control acknowledgement for one sync-stream chunk (paced
    /// catch-up, leader side gates the next chunk on it). Sent on
    /// receipt, not durability — pacing bounds the wire backlog, while
    /// durability of the whole stream is still gated by `ACKNEWLEADER`.
    /// Suppressed once `NEWLEADER` arrived (the stream is over) or after
    /// a violation ended the incarnation.
    fn ack_sync_chunk(&mut self, out: &mut Vec<Action>) {
        if self.phase == (Phase::Syncing { acked_new_leader: false }) {
            out.push(Action::Send {
                to: self.leader,
                msg: Message::SyncAck { last_zxid: self.history.last_zxid() },
            });
        }
    }

    /// Transitions Discovering → Syncing on the first sync message (the
    /// established leader's fast path skips NEWEPOCH). Returns false if the
    /// automaton is in the wrong phase (violation already reported).
    fn enter_sync(&mut self, out: &mut Vec<Action>) -> bool {
        match self.phase {
            Phase::Syncing { acked_new_leader: false } => true,
            Phase::Syncing { acked_new_leader: true } => {
                // The leader reopened our sync: it detected from our
                // ACKNEWLEADER that the previous stream was damaged in
                // transit, or it is renudging after a stalled stream.
                // Re-arm chunk acks and fold the new stream in (the
                // duplicate-NEWLEADER that follows re-acks harmlessly).
                self.phase = Phase::Syncing { acked_new_leader: false };
                true
            }
            Phase::Discovering => {
                self.phase = Phase::Syncing { acked_new_leader: false };
                true
            }
            _ => {
                self.abdicate("sync message outside synchronization", out);
                false
            }
        }
    }

    fn on_new_leader(&mut self, epoch: Epoch, out: &mut Vec<Action>) {
        if !self.enter_sync(out) {
            return;
        }
        // Ack NEWLEADER(e') only when acceptedEpoch == e' (paper, Phase 2):
        // either we acknowledged NEWEPOCH(e') this incarnation, or we are
        // rejoining the unique established leader of e'.
        if epoch != self.accepted_epoch {
            self.abdicate("NEWLEADER epoch mismatch", out);
            return;
        }
        if self.current_epoch > epoch {
            self.abdicate("NEWLEADER from older epoch than currentEpoch", out);
            return;
        }
        self.phase = Phase::Syncing { acked_new_leader: true };
        self.current_epoch = epoch;
        let token = self.token(Pending::AckNewLeader);
        out.push(Action::Persist { token, req: PersistRequest::CurrentEpoch(epoch) });
    }

    fn on_up_to_date(&mut self, commit_to: Zxid, out: &mut Vec<Action>) {
        if self.phase != (Phase::Syncing { acked_new_leader: true }) {
            self.abdicate("UPTODATE outside synchronization", out);
            return;
        }
        let capped = commit_to.min(self.history.last_zxid());
        if capped > self.history.last_committed() {
            self.history.mark_committed(capped);
        }
        self.phase = Phase::Broadcasting;
        deliver_committed(&self.history, &mut self.delivered_to, &self.metrics, &self.tracer, out);
        out.push(Action::Activated { epoch: self.current_epoch });
    }

    /// Advances the commit watermark to `watermark`, capped at the end of
    /// accepted history, and delivers the newly committed prefix.
    ///
    /// The cap is what keeps advisory watermarks (piggybacked on `PROPOSE`
    /// and carried by `PING`) safe: a watermark computed by the leader of
    /// epoch e orders strictly below every epoch-(e+1) zxid, and anything
    /// beyond our accepted history is clamped away — so a watermark can
    /// never commit a transaction the issuing leader did not know.
    fn advance_watermark(&mut self, watermark: Zxid, out: &mut Vec<Action>) {
        let capped = watermark.min(self.history.last_zxid());
        if capped > self.history.last_committed() {
            self.tracer.instant(Stage::WatermarkAdvance, capped.0, 0);
            self.history.mark_committed(capped);
            deliver_committed(
                &self.history,
                &mut self.delivered_to,
                &self.metrics,
                &self.tracer,
                out,
            );
        }
    }

    fn on_propose(&mut self, txn: Txn, commit_up_to: Zxid, out: &mut Vec<Action>) {
        if self.phase != Phase::Broadcasting {
            self.abdicate("PROPOSE outside broadcast phase", out);
            return;
        }
        if txn.zxid.epoch() != self.current_epoch {
            self.abdicate("PROPOSE from wrong epoch", out);
            return;
        }
        if txn.zxid <= self.history.last_zxid() {
            // Duplicate of a transaction already accepted. The leader's
            // FIFO stream never repeats a zxid, but skipping one is safe:
            // the transaction is in our history and its original ack is
            // in flight or already arrived, so there is nothing to append
            // or ack. The piggybacked watermark may still be fresh.
            self.advance_watermark(commit_up_to, out);
            return;
        }
        if !txn.zxid.follows(self.history.last_zxid()) {
            self.abdicate("gap in proposal stream", out);
            return;
        }
        self.history.append(txn.clone());
        let token = self.token(Pending::AckProposal(txn.zxid));
        out.push(Action::Persist { token, req: PersistRequest::AppendTxns(vec![txn]) });
        // The piggybacked watermark replaces the separate COMMIT frame on
        // a busy pipeline. Only applied once the proposal itself passed
        // the epoch and FIFO-gap checks above, so a frame from a deposed
        // leader can never move the watermark.
        self.advance_watermark(commit_up_to, out);
    }

    fn on_commit(&mut self, zxid: Zxid, out: &mut Vec<Action>) {
        if self.phase != Phase::Broadcasting {
            self.abdicate("COMMIT outside broadcast phase", out);
            return;
        }
        // COMMIT(z) is a cumulative watermark: everything ≤ z commits.
        if zxid > self.history.last_zxid() {
            self.abdicate("COMMIT beyond accepted history", out);
            return;
        }
        if zxid > self.history.last_committed() {
            self.tracer.instant(Stage::WatermarkAdvance, zxid.0, 0);
            self.history.mark_committed(zxid);
            deliver_committed(
                &self.history,
                &mut self.delivered_to,
                &self.metrics,
                &self.tracer,
                out,
            );
        }
    }

    fn on_persisted(&mut self, token: PersistToken, out: &mut Vec<Action>) {
        // Ordered durability: token t completes everything ≤ t.
        let done: Vec<PersistToken> = self.pending.range(..=token).map(|(&t, _)| t).collect();
        let mut best_proposal: Option<Zxid> = None;
        for t in done {
            match self.pending.remove(&t).expect("token present") {
                Pending::AckEpoch => {
                    out.push(Action::Send {
                        to: self.leader,
                        msg: Message::AckEpoch {
                            current_epoch: self.current_epoch,
                            last_zxid: self.history.last_zxid(),
                        },
                    });
                }
                Pending::AckNewLeader => {
                    out.push(Action::Send {
                        to: self.leader,
                        msg: Message::AckNewLeader {
                            epoch: self.current_epoch,
                            last_zxid: self.history.last_zxid(),
                        },
                    });
                }
                Pending::AckProposal(zxid) => {
                    // Cumulative ack: one message covers the whole batch.
                    best_proposal = Some(best_proposal.map_or(zxid, |b| b.max(zxid)));
                }
            }
        }
        if let Some(zxid) = best_proposal {
            self.metrics.acks_sent.inc();
            out.push(Action::Send { to: self.leader, msg: Message::Ack { zxid } });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    const LEADER: ServerId = ServerId(1);
    const ME: ServerId = ServerId(2);

    fn cfg() -> ClusterConfig {
        ClusterConfig::majority([ServerId(1), ServerId(2), ServerId(3)])
    }

    fn fresh() -> (Follower, Vec<Action>) {
        Follower::new(ME, LEADER, cfg(), PersistentState::default(), Zxid::ZERO, 0)
    }

    fn msg(m: Message) -> Input {
        Input::Message { from: LEADER, msg: m }
    }

    fn txn(e: u32, c: u32) -> Txn {
        Txn::new(Zxid::new(Epoch(e), c), vec![1, 2, 3])
    }

    /// Drives persistence completions instantly, like a RAM disk.
    fn complete_persists(f: &mut Follower, actions: &[Action]) -> Vec<Action> {
        let mut out = Vec::new();
        for a in actions {
            if let Action::Persist { token, .. } = a {
                out.extend(f.handle(Input::Persisted { token: *token }));
            }
        }
        out
    }

    fn sends(actions: &[Action]) -> Vec<&Message> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Runs a follower through discovery + an empty-diff sync.
    fn activated_follower() -> Follower {
        let (mut f, init) = fresh();
        assert!(matches!(sends(&init)[0], Message::FollowerInfo { .. }));
        let a = f.handle(msg(Message::NewEpoch { epoch: Epoch(1) }));
        let a2 = complete_persists(&mut f, &a);
        assert!(matches!(sends(&a2)[0], Message::AckEpoch { .. }));
        let a = f.handle(msg(Message::SyncDiff { txns: vec![] }));
        // Every sync chunk is flow-control acked on receipt.
        assert_eq!(sends(&a), vec![&Message::SyncAck { last_zxid: Zxid::ZERO }]);
        let a = f.handle(msg(Message::NewLeader { epoch: Epoch(1) }));
        let a2 = complete_persists(&mut f, &a);
        assert!(matches!(sends(&a2)[0], Message::AckNewLeader { .. }));
        let a = f.handle(msg(Message::UpToDate { commit_to: Zxid::ZERO }));
        assert!(a.iter().any(|x| matches!(x, Action::Activated { .. })));
        assert_eq!(f.status(), FollowerStatus::Active);
        f
    }

    #[test]
    fn full_happy_path_to_active() {
        let f = activated_follower();
        assert_eq!(f.persistent_state().accepted_epoch, Epoch(1));
        assert_eq!(f.persistent_state().current_epoch, Epoch(1));
    }

    #[test]
    fn ack_epoch_only_after_persist() {
        let (mut f, _) = fresh();
        let a = f.handle(msg(Message::NewEpoch { epoch: Epoch(1) }));
        // Persist requested, but no ACKEPOCH yet.
        assert!(matches!(a[0], Action::Persist { .. }));
        assert!(sends(&a).is_empty());
    }

    #[test]
    fn stale_new_epoch_defects_to_election() {
        let (mut f, _) = fresh();
        let a = f.handle(msg(Message::NewEpoch { epoch: Epoch(1) }));
        complete_persists(&mut f, &a);
        // An equal (duplicate) epoch proposal is refused: at-most-once ack.
        let mut f2 = Follower::new(ME, LEADER, cfg(), f.persistent_state(), Zxid::ZERO, 0).0;
        let a = f2.handle(msg(Message::NewEpoch { epoch: Epoch(1) }));
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
        assert_eq!(f2.status(), FollowerStatus::Defunct);
    }

    #[test]
    fn proposal_persist_then_ack_then_commit_delivers() {
        let mut f = activated_follower();
        let t = txn(1, 1);
        let a = f.handle(msg(Message::Propose { txn: t.clone(), commit_up_to: Zxid::ZERO }));
        assert!(matches!(a[0], Action::Persist { .. }));
        let a2 = complete_persists(&mut f, &a);
        assert_eq!(sends(&a2), vec![&Message::Ack { zxid: t.zxid }]);
        let a3 = f.handle(msg(Message::Commit { zxid: t.zxid }));
        assert!(a3.iter().any(|x| matches!(x, Action::Deliver { txn } if txn.zxid == t.zxid)));
    }

    #[test]
    fn pipelined_proposals_ack_cumulatively() {
        let mut f = activated_follower();
        let mut persists = Vec::new();
        for c in 1..=3 {
            persists.extend(
                f.handle(msg(Message::Propose { txn: txn(1, c), commit_up_to: Zxid::ZERO })),
            );
        }
        // Group commit: driver acks only the last token.
        let last_token = persists
            .iter()
            .filter_map(|a| match a {
                Action::Persist { token, .. } => Some(*token),
                _ => None,
            })
            .max()
            .unwrap();
        let a = f.handle(Input::Persisted { token: last_token });
        assert_eq!(sends(&a), vec![&Message::Ack { zxid: Zxid::new(Epoch(1), 3) }]);
    }

    #[test]
    fn gap_in_proposal_stream_is_fatal() {
        let mut f = activated_follower();
        let a = f.handle(msg(Message::Propose { txn: txn(1, 2), commit_up_to: Zxid::ZERO }));
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
    }

    #[test]
    fn proposal_from_wrong_epoch_is_fatal() {
        let mut f = activated_follower();
        let a = f.handle(msg(Message::Propose { txn: txn(9, 1), commit_up_to: Zxid::ZERO }));
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
    }

    #[test]
    fn duplicate_propose_skips_append_but_advances_watermark() {
        let mut f = activated_follower();
        let t = txn(1, 1);
        let a = f.handle(msg(Message::Propose { txn: t.clone(), commit_up_to: Zxid::ZERO }));
        complete_persists(&mut f, &a);
        // The same zxid again, now carrying a fresher watermark: no
        // second append/ack, but it must deliver.
        let a = f.handle(msg(Message::Propose { txn: t.clone(), commit_up_to: t.zxid }));
        assert!(!a.iter().any(|x| matches!(x, Action::Persist { .. })));
        assert!(!a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
        assert!(a.iter().any(|x| matches!(x, Action::Deliver { txn } if txn.zxid == t.zxid)));
        assert_eq!(f.last_zxid(), t.zxid);
    }

    #[test]
    fn commit_watermark_delivers_in_order() {
        let mut f = activated_follower();
        for c in 1..=3 {
            let a = f.handle(msg(Message::Propose { txn: txn(1, c), commit_up_to: Zxid::ZERO }));
            complete_persists(&mut f, &a);
        }
        let a = f.handle(msg(Message::Commit { zxid: Zxid::new(Epoch(1), 3) }));
        let delivered: Vec<Zxid> = a
            .iter()
            .filter_map(|x| match x {
                Action::Deliver { txn } => Some(txn.zxid),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, (1..=3).map(|c| Zxid::new(Epoch(1), c)).collect::<Vec<_>>());
    }

    #[test]
    fn commit_beyond_history_is_fatal() {
        let mut f = activated_follower();
        let a = f.handle(msg(Message::Commit { zxid: Zxid::new(Epoch(1), 5) }));
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
    }

    #[test]
    fn leader_timeout_triggers_election() {
        let mut f = activated_follower();
        let a = f.handle(Input::Tick { now_ms: 10_000 });
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { reason: "leader timeout" })));
    }

    #[test]
    fn ping_keeps_the_incarnation_alive_and_advances_commits() {
        let mut f = activated_follower();
        let a = f.handle(msg(Message::Propose { txn: txn(1, 1), commit_up_to: Zxid::ZERO }));
        complete_persists(&mut f, &a);
        // Ping at t=300 with an advanced watermark.
        f.handle(Input::Tick { now_ms: 300 });
        let a = f.handle(msg(Message::Ping { last_committed: Zxid::new(Epoch(1), 1) }));
        assert!(a.iter().any(|x| matches!(x, Action::Deliver { .. })));
        assert!(a.iter().any(|x| matches!(x, Action::Send { msg: Message::Pong { .. }, .. })));
        // Timeout measured from last contact, not from start.
        let a = f.handle(Input::Tick { now_ms: 600 });
        assert!(!a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
    }

    #[test]
    fn leader_disconnect_triggers_election() {
        let mut f = activated_follower();
        let a = f.handle(Input::PeerDisconnected { peer: LEADER });
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
    }

    #[test]
    fn other_peer_disconnect_is_ignored() {
        let mut f = activated_follower();
        let a = f.handle(Input::PeerDisconnected { peer: ServerId(3) });
        assert!(a.is_empty());
    }

    #[test]
    fn messages_from_non_leader_are_dropped() {
        let mut f = activated_follower();
        let a = f.handle(Input::Message {
            from: ServerId(9),
            msg: Message::Propose { txn: txn(1, 1), commit_up_to: Zxid::ZERO },
        });
        assert!(a.is_empty());
        assert_eq!(f.status(), FollowerStatus::Active);
    }

    #[test]
    fn client_requests_rejected_not_primary() {
        let mut f = activated_follower();
        let a = f.handle(Input::ClientRequest { data: Bytes::from_static(b"x") });
        assert!(matches!(
            a[0],
            Action::ClientRequestRejected { reason: RejectReason::NotPrimary, .. }
        ));
    }

    #[test]
    fn trunc_sync_discards_divergent_suffix() {
        // Follower recovered with txns (1,1) (1,2); the new leader has
        // (1,1) (2,1): truncate to (1,1) then diff (2,1).
        let mut h = History::new();
        h.append(txn(1, 1));
        h.append(txn(1, 2));
        let state =
            PersistentState { accepted_epoch: Epoch(1), current_epoch: Epoch(1), history: h };
        let (mut f, _) = Follower::new(ME, LEADER, cfg(), state, Zxid::ZERO, 0);
        let a = f.handle(msg(Message::NewEpoch { epoch: Epoch(2) }));
        complete_persists(&mut f, &a);
        let a = f.handle(msg(Message::SyncTrunc {
            truncate_to: Zxid::new(Epoch(1), 1),
            txns: vec![txn(2, 1)],
        }));
        // Persist actions: truncate then append.
        let reqs: Vec<_> = a
            .iter()
            .filter_map(|x| match x {
                Action::Persist { req, .. } => Some(req.clone()),
                _ => None,
            })
            .collect();
        assert!(matches!(reqs[0], PersistRequest::TruncateLog(z) if z == Zxid::new(Epoch(1), 1)));
        assert!(matches!(&reqs[1], PersistRequest::AppendTxns(v) if v.len() == 1));
        assert_eq!(f.last_zxid(), Zxid::new(Epoch(2), 1));
        let a = f.handle(msg(Message::NewLeader { epoch: Epoch(2) }));
        let a2 = complete_persists(&mut f, &a);
        match sends(&a2)[0] {
            Message::AckNewLeader { epoch, last_zxid } => {
                assert_eq!(*epoch, Epoch(2));
                assert_eq!(*last_zxid, Zxid::new(Epoch(2), 1));
            }
            m => panic!("expected ACKNEWLEADER, got {}", m.kind()),
        }
    }

    #[test]
    fn snap_sync_installs_snapshot_and_resets_history() {
        let (mut f, _) = fresh();
        let a = f.handle(msg(Message::NewEpoch { epoch: Epoch(3) }));
        complete_persists(&mut f, &a);
        let snap_zxid = Zxid::new(Epoch(2), 100);
        let a = f.handle(msg(Message::SyncSnap {
            snapshot: Bytes::from_static(b"state"),
            snapshot_zxid: snap_zxid,
            txns: vec![txn(2, 101)],
        }));
        assert!(a
            .iter()
            .any(|x| matches!(x, Action::InstallSnapshot { zxid, .. } if *zxid == snap_zxid)));
        assert_eq!(f.last_zxid(), Zxid::new(Epoch(2), 101));
        let a = f.handle(msg(Message::NewLeader { epoch: Epoch(3) }));
        complete_persists(&mut f, &a);
        let a = f.handle(msg(Message::UpToDate { commit_to: Zxid::new(Epoch(2), 101) }));
        // Only the post-snapshot txn is delivered; snapshot covered the rest.
        let delivered: Vec<Zxid> = a
            .iter()
            .filter_map(|x| match x {
                Action::Deliver { txn } => Some(txn.zxid),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![Zxid::new(Epoch(2), 101)]);
    }

    #[test]
    fn fast_path_sync_without_new_epoch() {
        // Rejoining the established leader of our accepted epoch: the sync
        // stream arrives with no NEWEPOCH preamble.
        let state = PersistentState {
            accepted_epoch: Epoch(2),
            current_epoch: Epoch(2),
            history: History::new(),
        };
        let (mut f, _) = Follower::new(ME, LEADER, cfg(), state, Zxid::ZERO, 0);
        let a = f.handle(msg(Message::SyncDiff { txns: vec![txn(2, 1)] }));
        assert!(!a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
        let a = f.handle(msg(Message::NewLeader { epoch: Epoch(2) }));
        let a2 = complete_persists(&mut f, &a);
        assert!(matches!(sends(&a2)[0], Message::AckNewLeader { .. }));
    }

    #[test]
    fn new_leader_with_mismatched_epoch_is_fatal() {
        let (mut f, _) = fresh();
        let a = f.handle(msg(Message::NewEpoch { epoch: Epoch(2) }));
        complete_persists(&mut f, &a);
        let a = f.handle(msg(Message::NewLeader { epoch: Epoch(3) }));
        assert!(a.iter().any(|x| matches!(x, Action::GoToElection { .. })));
    }

    #[test]
    fn defunct_follower_ignores_everything() {
        let mut f = activated_follower();
        f.handle(Input::PeerDisconnected { peer: LEADER });
        let a = f.handle(msg(Message::Propose { txn: txn(1, 1), commit_up_to: Zxid::ZERO }));
        assert!(a.is_empty());
    }

    #[test]
    fn trunc_to_unknown_point_truncates_and_rejoins() {
        // Follower has (1,1) then divergent (3,1); leader plans TRUNC to
        // (2,1), a point the follower never saw. The follower must drop
        // its divergent tail down to (1,1), persist, and go to election.
        let mut h = History::new();
        h.append(txn(1, 1));
        h.append(txn(3, 1));
        let state =
            PersistentState { accepted_epoch: Epoch(3), current_epoch: Epoch(3), history: h };
        let (mut f, _) = Follower::new(ME, LEADER, cfg(), state, Zxid::ZERO, 0);
        let a = f.handle(msg(Message::NewEpoch { epoch: Epoch(4) }));
        complete_persists(&mut f, &a);
        let a =
            f.handle(msg(Message::SyncTrunc { truncate_to: Zxid::new(Epoch(2), 1), txns: vec![] }));
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Persist { req: PersistRequest::TruncateLog(z), .. }
                if *z == Zxid::new(Epoch(1), 1)
        )));
        assert!(a.iter().any(|x| matches!(
            x,
            Action::GoToElection { reason } if reason.contains("unknown point")
        )));
        assert_eq!(f.last_zxid(), Zxid::new(Epoch(1), 1));
        // A fresh incarnation from this state reports (1,1) and syncs
        // cleanly via DIFF.
        let (f2, init) = Follower::new(ME, LEADER, cfg(), f.persistent_state(), Zxid::ZERO, 0);
        match &init[0] {
            Action::Send { msg: Message::FollowerInfo { last_zxid, .. }, .. } => {
                assert_eq!(*last_zxid, Zxid::new(Epoch(1), 1));
            }
            other => panic!("expected FOLLOWERINFO, got {other:?}"),
        }
        drop(f2);
    }

    #[test]
    fn commit_is_idempotent() {
        let mut f = activated_follower();
        let a = f.handle(msg(Message::Propose { txn: txn(1, 1), commit_up_to: Zxid::ZERO }));
        complete_persists(&mut f, &a);
        let first = f.handle(msg(Message::Commit { zxid: Zxid::new(Epoch(1), 1) }));
        assert!(first.iter().any(|x| matches!(x, Action::Deliver { .. })));
        let second = f.handle(msg(Message::Commit { zxid: Zxid::new(Epoch(1), 1) }));
        assert!(!second.iter().any(|x| matches!(x, Action::Deliver { .. })));
    }

    fn delivered_zxids(actions: &[Action]) -> Vec<Zxid> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { txn } => Some(txn.zxid),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn piggybacked_watermark_delivers_prefix_without_commit_frame() {
        let mut f = activated_follower();
        let a = f.handle(msg(Message::Propose { txn: txn(1, 1), commit_up_to: Zxid::ZERO }));
        complete_persists(&mut f, &a);
        // The next proposal carries the commit watermark for (1,1): the
        // prefix delivers with no standalone COMMIT frame ever arriving.
        let a = f
            .handle(msg(Message::Propose { txn: txn(1, 2), commit_up_to: Zxid::new(Epoch(1), 1) }));
        assert_eq!(delivered_zxids(&a), vec![Zxid::new(Epoch(1), 1)]);
        assert_eq!(f.last_committed(), Zxid::new(Epoch(1), 1));
    }

    #[test]
    fn watermark_beyond_local_history_is_clamped() {
        // An advisory watermark ahead of what we have accepted (possible
        // when the leader commits on a quorum that excludes us) clamps to
        // the end of local history instead of faulting — unlike an
        // explicit COMMIT, which is fatal beyond history.
        let mut f = activated_follower();
        let a = f.handle(msg(Message::Propose { txn: txn(1, 1), commit_up_to: Zxid::ZERO }));
        complete_persists(&mut f, &a);
        let a = f
            .handle(msg(Message::Propose { txn: txn(1, 2), commit_up_to: Zxid::new(Epoch(1), 5) }));
        assert_eq!(delivered_zxids(&a), vec![Zxid::new(Epoch(1), 1), Zxid::new(Epoch(1), 2)]);
        assert_eq!(f.status(), FollowerStatus::Active);
        assert_eq!(f.last_committed(), Zxid::new(Epoch(1), 2));
    }

    #[test]
    fn epoch_boundary_watermark_cannot_commit_next_epoch() {
        // A follower that crossed a failover with an uncommitted epoch-1
        // suffix: a watermark computed in epoch 1 must commit exactly that
        // suffix and nothing from epoch 2, even though epoch-2 proposals
        // are already accepted locally.
        let mut h = History::new();
        h.append(txn(1, 1));
        h.append(txn(1, 2));
        let state =
            PersistentState { accepted_epoch: Epoch(1), current_epoch: Epoch(1), history: h };
        let (mut f, _) = Follower::new(ME, LEADER, cfg(), state, Zxid::ZERO, 0);
        let a = f.handle(msg(Message::NewEpoch { epoch: Epoch(2) }));
        complete_persists(&mut f, &a);
        let _ = f.handle(msg(Message::SyncDiff { txns: vec![] }));
        let a = f.handle(msg(Message::NewLeader { epoch: Epoch(2) }));
        complete_persists(&mut f, &a);
        let _ = f.handle(msg(Message::UpToDate { commit_to: Zxid::ZERO }));
        assert_eq!(f.status(), FollowerStatus::Active);
        assert_eq!(f.last_committed(), Zxid::ZERO);
        // First epoch-2 proposal piggybacks the epoch-1 watermark: the
        // old-epoch suffix commits, the new proposal itself does not.
        let a = f
            .handle(msg(Message::Propose { txn: txn(2, 1), commit_up_to: Zxid::new(Epoch(1), 2) }));
        assert_eq!(delivered_zxids(&a), vec![Zxid::new(Epoch(1), 1), Zxid::new(Epoch(1), 2)]);
        assert_eq!(f.last_committed(), Zxid::new(Epoch(1), 2));
        // The epoch-2 entry commits only once an epoch-2 watermark covers it.
        let a = f
            .handle(msg(Message::Propose { txn: txn(2, 2), commit_up_to: Zxid::new(Epoch(2), 1) }));
        assert_eq!(delivered_zxids(&a), vec![Zxid::new(Epoch(2), 1)]);
    }

    #[test]
    fn wrong_epoch_propose_watermark_is_never_applied() {
        // A PROPOSE that fails the epoch check must not move the commit
        // watermark either: the deposed leader computed it from a history
        // this follower has moved past.
        let mut f = activated_follower();
        let a = f.handle(msg(Message::Propose { txn: txn(1, 1), commit_up_to: Zxid::ZERO }));
        complete_persists(&mut f, &a);
        let a = f
            .handle(msg(Message::Propose { txn: txn(9, 1), commit_up_to: Zxid::new(Epoch(1), 1) }));
        assert!(delivered_zxids(&a).is_empty());
        assert_eq!(f.status(), FollowerStatus::Defunct);
        assert_eq!(f.last_committed(), Zxid::ZERO);
    }
}
