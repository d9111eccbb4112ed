//! One Zab process: Phase 0 (election) and Phases 1–3 (the `zab-core`
//! automaton of the elected role), joined in one sans-io automaton.
//!
//! In the paper a process reads its persistent variables from stable storage
//! when it *recovers from a crash*; moving between Phase 0 and Phases 1–3
//! inside a live process is a state transition. [`Process`] is that
//! transition, so a driver reads the log once — at boot, to build the
//! `Process` — and never again. On [`Action::GoToElection`] the dying
//! incarnation hands its state back by move
//! ([`Zab::into_persistent_state`]) and the election restarts with its epoch
//! and history tail as credentials; on a decision the parked state goes into
//! [`Zab::from_election`]. Persist tokens are renumbered to increase across
//! incarnations, and a completion only reaches the incarnation that asked.

use crate::{Election, ElectionAction, ElectionConfig, ElectionInput, Notification, Vote};
use zab_core::{
    Action, ClusterConfig, CoreMetrics, Input, PersistToken, PersistentState, ServerId, Tracer,
    Zab, Zxid,
};

/// What a [`Process`] asks of, or tells, its driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessOutput {
    /// Send an election notification to a peer.
    Notify {
        /// Destination.
        to: ServerId,
        /// The gossip.
        notification: Notification,
    },
    /// An action of the current incarnation (`zab-core` driver contract).
    /// Never [`Action::GoToElection`]: the process consumes that itself.
    Zab(Action),
    /// The process (re-)entered Phase 0. Informational.
    Looking,
    /// Phase 0 nominated `leader`; the matching automaton now runs and its
    /// first actions follow. Informational.
    Decided {
        /// The nominee.
        leader: ServerId,
    },
}

/// The process automaton. Feed it election notifications
/// ([`Process::handle_notification`]) and [`Input`]s ([`Process::handle`]),
/// each with the driver's current clock; carry out what it returns.
#[derive(Debug)]
pub struct Process {
    id: ServerId,
    cluster: ClusterConfig,
    election: Election,
    /// The current incarnation; `None` while looking.
    zab: Option<Zab>,
    /// The protocol state between incarnations (meaningful while `zab` is
    /// `None`; the next automaton takes it).
    parked: PersistentState,
    /// Zxid the application has applied up to: the boot value, then every
    /// `Deliver` / `InstallSnapshot` that passed through.
    applied_to: Zxid,
    metrics: CoreMetrics,
    tracer: Tracer,
    /// Highest token a retired incarnation issued, process-wide. The
    /// current incarnation's token `t` leaves as `token_base + t`; a
    /// completion at or below `token_base` is stale and dropped.
    token_base: u64,
    /// Highest token issued so far, process-wide.
    last_token: u64,
}

impl Process {
    /// Starts a process from the state its driver recovered at boot
    /// (`applied_to`: where the application stands once restored from the
    /// recovered snapshot) and returns it with its first outputs.
    pub fn new(
        id: ServerId,
        election: ElectionConfig,
        cluster: ClusterConfig,
        state: PersistentState,
        applied_to: Zxid,
        now_ms: u64,
    ) -> (Process, Vec<ProcessOutput>) {
        let vote = Vote {
            peer_epoch: state.current_epoch,
            last_zxid: state.history.last_zxid(),
            leader: id,
        };
        let (election, acts) = Election::new(id, election, vote, now_ms);
        let mut p = Process {
            id,
            cluster,
            election,
            zab: None,
            parked: state,
            applied_to,
            metrics: CoreMetrics::standalone(),
            tracer: Tracer::disabled(),
            token_base: 0,
            last_token: 0,
        };
        let mut out = vec![ProcessOutput::Looking];
        p.absorb_election(acts, now_ms, &mut out);
        (p, out)
    }

    /// Injects the instrument bundle and flight-recorder handle every
    /// incarnation records into (the current one included). Call right
    /// after construction, before driving inputs.
    pub fn set_instruments(&mut self, metrics: CoreMetrics, tracer: Tracer) {
        if let Some(zab) = &mut self.zab {
            zab.set_metrics(metrics.clone());
            zab.set_tracer(tracer.clone());
        }
        self.metrics = metrics;
        self.tracer = tracer;
    }

    /// The current incarnation, or `None` while looking.
    pub fn zab(&self) -> Option<&Zab> {
        self.zab.as_ref()
    }

    /// Zxid the application has applied up to, as this process saw it.
    pub fn applied_to(&self) -> Zxid {
        self.applied_to
    }

    /// Feeds an election notification from `from`.
    pub fn handle_notification(
        &mut self,
        from: ServerId,
        notification: Notification,
        now_ms: u64,
    ) -> Vec<ProcessOutput> {
        let mut out = Vec::new();
        let acts = self.election.handle(ElectionInput::Notification { from, notification });
        self.absorb_election(acts, now_ms, &mut out);
        out
    }

    /// Feeds one [`Input`]; `now_ms` is the driver's clock at this input
    /// (for [`Input::Tick`], the tick's own time). A tick reaches the
    /// election before the automaton; everything else goes to the current
    /// incarnation only and is dropped while looking.
    /// [`Input::Persisted`] carries a token as this process emitted it.
    pub fn handle(&mut self, input: Input, now_ms: u64) -> Vec<ProcessOutput> {
        let mut out = Vec::new();
        let input = match input {
            Input::Tick { now_ms: tick_ms } => {
                let acts = self.election.handle(ElectionInput::Tick { now_ms: tick_ms });
                self.absorb_election(acts, now_ms, &mut out);
                Input::Tick { now_ms: tick_ms }
            }
            Input::Persisted { token } => match token.0.checked_sub(self.token_base) {
                // At or below the base: a retired incarnation asked for it.
                None | Some(0) => return out,
                Some(local) => Input::Persisted { token: PersistToken(local) },
            },
            other => other,
        };
        if let Some(zab) = &mut self.zab {
            let acts = zab.handle(input);
            self.absorb_zab(acts, now_ms, &mut out);
        }
        out
    }

    fn absorb_election(
        &mut self,
        acts: Vec<ElectionAction>,
        now_ms: u64,
        out: &mut Vec<ProcessOutput>,
    ) {
        let mut decided = None;
        for a in acts {
            match a {
                ElectionAction::Send { to, notification } => {
                    out.push(ProcessOutput::Notify { to, notification });
                }
                ElectionAction::Decided { leader } => {
                    out.push(ProcessOutput::Decided { leader });
                    decided = Some(leader);
                }
            }
        }
        // The decision is gossiped before the new automaton speaks. A
        // nominee that is still looking decides on that gossip, and must
        // have done so by the time our FOLLOWERINFO — next on the same FIFO
        // channel, sent once — reaches it: while looking it would drop it.
        if let Some(leader) = decided {
            let (mut zab, acts) = Zab::from_election(
                self.id,
                leader,
                self.cluster.clone(),
                std::mem::take(&mut self.parked),
                self.applied_to,
                now_ms,
            );
            zab.set_metrics(self.metrics.clone());
            zab.set_tracer(self.tracer.clone());
            self.zab = Some(zab);
            self.absorb_zab(acts, now_ms, out);
        }
    }

    fn absorb_zab(&mut self, acts: Vec<Action>, now_ms: u64, out: &mut Vec<ProcessOutput>) {
        out.reserve(acts.len());
        for mut a in acts {
            match &mut a {
                Action::GoToElection { .. } => {
                    let Some(zab) = self.zab.take() else { continue };
                    self.parked = zab.into_persistent_state();
                    self.token_base = self.last_token;
                    out.push(ProcessOutput::Looking);
                    let acts = self.election.restart(
                        self.parked.current_epoch,
                        self.parked.history.last_zxid(),
                        now_ms,
                    );
                    self.absorb_election(acts, now_ms, out);
                    continue;
                }
                Action::Persist { token, .. } => {
                    self.last_token = self.token_base + token.0;
                    *token = PersistToken(self.last_token);
                }
                Action::Deliver { txn } => self.applied_to = txn.zxid,
                Action::InstallSnapshot { zxid, .. } => self.applied_to = *zxid,
                _ => {}
            }
            out.push(ProcessOutput::Zab(a));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeState;
    use zab_core::{Epoch, Message, PersistRequest, Txn};

    const ME: ServerId = ServerId(2);
    const PEER: ServerId = ServerId(1);
    const LEADER: ServerId = ServerId(3);

    fn ids() -> [ServerId; 3] {
        [PEER, ME, LEADER]
    }

    fn boot(id: ServerId) -> Process {
        let (p, out) = Process::new(
            id,
            ElectionConfig::new(ids()),
            ClusterConfig::majority(ids()),
            PersistentState::default(),
            Zxid::ZERO,
            0,
        );
        assert_eq!(out[0], ProcessOutput::Looking);
        assert_eq!(notifications(&out).len(), 2, "opening gossip to both peers");
        assert!(p.zab().is_none());
        p
    }

    fn notifications(out: &[ProcessOutput]) -> Vec<Notification> {
        out.iter()
            .filter_map(|o| match o {
                ProcessOutput::Notify { notification, .. } => Some(*notification),
                _ => None,
            })
            .collect()
    }

    fn zab_actions(out: &[ProcessOutput]) -> Vec<&Action> {
        out.iter()
            .filter_map(|o| match o {
                ProcessOutput::Zab(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    fn persist_tokens(out: &[ProcessOutput]) -> Vec<u64> {
        zab_actions(out)
            .into_iter()
            .filter_map(|a| match a {
                Action::Persist { token, .. } => Some(token.0),
                _ => None,
            })
            .collect()
    }

    fn sends_to_leader(out: &[ProcessOutput]) -> Vec<&Message> {
        zab_actions(out)
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } if *to == LEADER => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// An established ensemble (LEADER leads, PEER follows) answers `p`'s
    /// gossip in round `round`: `p` decides to follow LEADER.
    fn elect_leader_3(p: &mut Process, round: u64, now_ms: u64) -> Vec<ProcessOutput> {
        let vote = Vote { peer_epoch: Epoch(9), last_zxid: Zxid(9), leader: LEADER };
        let none = p.handle_notification(
            LEADER,
            Notification { round, state: NodeState::Leading, vote },
            now_ms,
        );
        assert!(!none.iter().any(|o| matches!(o, ProcessOutput::Decided { .. })));
        p.handle_notification(
            PEER,
            Notification { round, state: NodeState::Following, vote },
            now_ms,
        )
    }

    fn from_leader(p: &mut Process, msg: Message, now_ms: u64) -> Vec<ProcessOutput> {
        p.handle(Input::Message { from: LEADER, msg }, now_ms)
    }

    fn txn(epoch: u32, counter: u32) -> Txn {
        Txn::new(Zxid::new(Epoch(epoch), counter), vec![counter as u8])
    }

    /// Drives a fresh follower through discovery and sync of epoch 1 with
    /// two transactions, completing every persist. Returns the last token.
    fn sync_epoch_1(p: &mut Process) -> u64 {
        let out = from_leader(p, Message::NewEpoch { epoch: Epoch(1) }, 1);
        assert_eq!(persist_tokens(&out), vec![1]);
        let out = p.handle(Input::Persisted { token: PersistToken(1) }, 1);
        assert!(matches!(sends_to_leader(&out)[..], [Message::AckEpoch { .. }]));
        let out = from_leader(p, Message::SyncDiff { txns: vec![txn(1, 1), txn(1, 2)] }, 2);
        assert_eq!(persist_tokens(&out), vec![2]);
        let out = from_leader(p, Message::NewLeader { epoch: Epoch(1) }, 2);
        assert_eq!(persist_tokens(&out), vec![3]);
        3
    }

    #[test]
    fn follower_lifecycle_carries_state_across_incarnations_without_the_log() {
        let mut p = boot(ME);
        let out = elect_leader_3(&mut p, 1, 0);
        // The decision, its gossip to both peers, and only then the new
        // follower's FOLLOWERINFO: a nominee that decides on our gossip has
        // done so before the handshake reaches it on the same channel.
        assert_eq!(out[0], ProcessOutput::Decided { leader: LEADER });
        assert!(out[1..3].iter().all(|o| matches!(
            o,
            ProcessOutput::Notify { notification, .. } if notification.state == NodeState::Following
        )));
        assert!(matches!(
            out[3..],
            [ProcessOutput::Zab(Action::Send { to: LEADER, msg: Message::FollowerInfo { .. } })]
        ));
        assert!(matches!(p.zab(), Some(Zab::Follower(f)) if f.leader() == LEADER));

        let last = sync_epoch_1(&mut p);
        let out = p.handle(Input::Persisted { token: PersistToken(last) }, 3);
        assert!(matches!(sends_to_leader(&out)[..], [Message::AckNewLeader { .. }]));
        let out = from_leader(&mut p, Message::UpToDate { commit_to: Zxid::new(Epoch(1), 2) }, 3);
        assert_eq!(
            zab_actions(&out).iter().filter(|a| matches!(a, Action::Deliver { .. })).count(),
            2
        );
        assert_eq!(p.applied_to(), Zxid::new(Epoch(1), 2));

        // The leader connection drops: back to Phase 0, no GoToElection
        // leaves, and the vote carries the epoch and tail held in memory.
        let out = p.handle(Input::PeerDisconnected { peer: LEADER }, 10);
        assert_eq!(out[0], ProcessOutput::Looking);
        assert!(zab_actions(&out).is_empty());
        assert!(p.zab().is_none());
        for n in notifications(&out) {
            assert_eq!(n.state, NodeState::Looking);
            assert_eq!(n.round, 2);
            assert_eq!(
                n.vote,
                Vote { peer_epoch: Epoch(1), last_zxid: Zxid::new(Epoch(1), 2), leader: ME }
            );
        }

        // Decided again: the next incarnation starts from the same epochs
        // and history, committed watermark back at the base, and resumes
        // delivery after what the application already applied.
        let out = elect_leader_3(&mut p, 2, 20);
        assert_eq!(out[0], ProcessOutput::Decided { leader: LEADER });
        match sends_to_leader(&out)[..] {
            [Message::FollowerInfo { accepted_epoch, last_zxid }] => {
                assert_eq!(*accepted_epoch, Epoch(1));
                assert_eq!(*last_zxid, Zxid::new(Epoch(1), 2));
            }
            ref other => panic!("expected FOLLOWERINFO, got {other:?}"),
        }
        let Some(Zab::Follower(f)) = p.zab() else { panic!("follower expected") };
        let state = f.persistent_state();
        assert_eq!((state.accepted_epoch, state.current_epoch), (Epoch(1), Epoch(1)));
        assert_eq!(state.history.txns(), &[txn(1, 1), txn(1, 2)]);
        assert_eq!(state.history.last_committed(), state.history.base());
        assert_eq!(p.applied_to(), Zxid::new(Epoch(1), 2));
    }

    #[test]
    fn leader_lifecycle_decides_on_the_tick_and_returns_to_looking() {
        let mut p = boot(LEADER);
        // Both peers back LEADER in round 1: quorum, finalize window armed.
        let vote = Vote { peer_epoch: Epoch(0), last_zxid: Zxid::ZERO, leader: LEADER };
        for from in [PEER, ME] {
            let out = p.handle_notification(
                from,
                Notification { round: 1, state: NodeState::Looking, vote },
                0,
            );
            assert!(!out.iter().any(|o| matches!(o, ProcessOutput::Decided { .. })));
        }
        let out = p.handle(Input::Tick { now_ms: 200 }, 200);
        assert!(out.contains(&ProcessOutput::Decided { leader: LEADER }));
        assert!(matches!(p.zab(), Some(Zab::Leader(l)) if !l.is_established()));

        // Nobody joins: establishment times out, the process looks again
        // with a bumped round and unchanged (pristine) credentials.
        let late = 200 + ClusterConfig::majority(ids()).establish_timeout_ms + 1;
        let out = p.handle(Input::Tick { now_ms: late }, late);
        assert_eq!(out[0], ProcessOutput::Looking);
        assert!(p.zab().is_none());
        let gossip = notifications(&out);
        assert_eq!(gossip.len(), 2);
        assert!(gossip.iter().all(|n| n.round == 2 && n.vote == vote));
    }

    #[test]
    fn applied_to_follows_install_snapshot_then_deliver() {
        let mut p = boot(ME);
        elect_leader_3(&mut p, 1, 0);
        from_leader(&mut p, Message::NewEpoch { epoch: Epoch(1) }, 1);
        let snap_at = Zxid::new(Epoch(1), 40);
        let out = from_leader(
            &mut p,
            Message::SyncSnap {
                snapshot: vec![7u8; 3].into(),
                snapshot_zxid: snap_at,
                txns: vec![txn(1, 41)],
            },
            2,
        );
        assert!(zab_actions(&out).iter().any(|a| matches!(a, Action::InstallSnapshot { .. })));
        assert_eq!(p.applied_to(), snap_at);
        from_leader(&mut p, Message::NewLeader { epoch: Epoch(1) }, 2);
        from_leader(&mut p, Message::UpToDate { commit_to: Zxid::new(Epoch(1), 41) }, 3);
        assert_eq!(p.applied_to(), Zxid::new(Epoch(1), 41));
    }

    #[test]
    fn tick_reaches_the_election_before_the_automaton() {
        let mut p = boot(ME);
        // All three back LEADER while looking: the finalize window arms.
        let vote = Vote { peer_epoch: Epoch(0), last_zxid: Zxid(5), leader: LEADER };
        for from in [PEER, LEADER] {
            p.handle_notification(
                from,
                Notification { round: 1, state: NodeState::Looking, vote },
                0,
            );
        }
        // One tick whose own time is far past the driver clock it arrives
        // with: the election decides on it, the follower is built at the
        // driver clock, and then sees the same tick — and times out on it.
        // Had the automaton been ticked first, the process would still be
        // following.
        let timeout = ClusterConfig::majority(ids()).follower_timeout_ms;
        let out = p.handle(Input::Tick { now_ms: 200 + timeout + 1 }, 200);
        let marks: Vec<&ProcessOutput> = out
            .iter()
            .filter(|o| matches!(o, ProcessOutput::Decided { .. } | ProcessOutput::Looking))
            .collect();
        assert_eq!(marks, [&ProcessOutput::Decided { leader: LEADER }, &ProcessOutput::Looking]);
        assert!(p.zab().is_none());
    }

    #[test]
    fn inputs_while_looking_are_dropped() {
        let mut p = boot(ME);
        assert!(from_leader(&mut p, Message::NewEpoch { epoch: Epoch(1) }, 1).is_empty());
        assert!(p.handle(Input::ClientRequest { data: vec![1u8].into() }, 1).is_empty());
        assert!(p.handle(Input::Persisted { token: PersistToken(1) }, 1).is_empty());
        assert!(p.handle(Input::PeerDisconnected { peer: LEADER }, 1).is_empty());
        assert!(p.zab().is_none());
    }

    #[test]
    fn persist_completion_only_reaches_the_incarnation_that_asked() {
        let mut p = boot(ME);
        elect_leader_3(&mut p, 1, 0);
        // First incarnation: tokens 1..=3, the last (CURRENTEPOCH) still
        // with the disk when the leader connection drops.
        let in_flight = sync_epoch_1(&mut p);
        p.handle(Input::PeerDisconnected { peer: LEADER }, 10);
        elect_leader_3(&mut p, 2, 20);

        // The old flush completes between the decision and NEWEPOCH.
        assert!(p.handle(Input::Persisted { token: PersistToken(in_flight) }, 21).is_empty());

        // NEWEPOCH(2): the new incarnation's first token continues the
        // process-wide numbering instead of restarting at 1.
        let out = from_leader(&mut p, Message::NewEpoch { epoch: Epoch(2) }, 22);
        assert!(matches!(
            zab_actions(&out)[..],
            [Action::Persist {
                token: PersistToken(4),
                req: PersistRequest::AcceptedEpoch(Epoch(2))
            }]
        ));
        // A completion the retired incarnation queued must not release
        // ACKEPOCH: acceptedEpoch = 2 is not durable yet.
        assert!(p.handle(Input::Persisted { token: PersistToken(in_flight) }, 23).is_empty());
        // Its own token does.
        let out = p.handle(Input::Persisted { token: PersistToken(4) }, 24);
        assert!(matches!(sends_to_leader(&out)[..], [Message::AckEpoch { .. }]));
    }
}
