//! # zab-election — Fast Leader Election (Phase 0)
//!
//! Zab assumes a leader oracle that eventually nominates a single live,
//! well-connected process — and for *performance* (not safety) the nominee
//! should hold the freshest history, so that synchronization never has to
//! pull history into the leader. This crate implements the oracle ZooKeeper
//! ships: **Fast Leader Election** (FLE).
//!
//! Every process gossips *notifications* carrying its current [`Vote`] —
//! `(peer_epoch, last_zxid, server_id)` of the process it currently backs —
//! tagged with a logical *round* and the sender's [`NodeState`]. A looking
//! process adopts any strictly better vote it hears, and decides once a
//! quorum of the latest round backs its vote and a short *finalize window*
//! passes without a better vote appearing. Processes that already lead or
//! follow answer lookers with their decided vote, so a rebooting process
//! converges onto an established leader without disturbing it.
//!
//! The automaton is sans-io like `zab-core`: feed [`ElectionInput`]s, act on
//! [`ElectionAction`]s. The decision is reported as
//! [`ElectionAction::Decided`]; afterwards the automaton keeps answering
//! lookers until [`Election::restart`] re-enters a new round.
//!
//! Drivers do not wire the two automata together themselves: [`Process`]
//! owns an [`Election`] and the `zab-core` automaton of the elected role and
//! performs the hand-off between them in both directions, inside the sans-io
//! boundary.
//!
//! # Example
//!
//! ```
//! use zab_core::{Epoch, ServerId, Zxid};
//! use zab_election::{Election, ElectionConfig, Vote};
//!
//! // A single-server ensemble elects itself immediately.
//! let cfg = ElectionConfig::new([ServerId(1)]);
//! let (mut el, actions) = Election::new(
//!     ServerId(1),
//!     cfg,
//!     Vote { peer_epoch: Epoch(0), last_zxid: Zxid::ZERO, leader: ServerId(1) },
//!     0,
//! );
//! assert!(actions.iter().any(|a| matches!(
//!     a,
//!     zab_election::ElectionAction::Decided { leader } if *leader == ServerId(1)
//! )));
//! # let _ = el.handle(zab_election::ElectionInput::Tick { now_ms: 1 });
//! ```

pub mod process;

pub use process::{Process, ProcessOutput};

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use zab_core::{Epoch, MajorityQuorum, QuorumSystem, ServerId, Zxid};
use zab_wire::codec::{WireError, WireRead, WireWrite};

/// A vote: the process this sender currently backs for leadership,
/// qualified by that process's history freshness.
///
/// Votes are totally ordered by `(peer_epoch, last_zxid, leader)`; FLE
/// converges on the maximum, which is the process with the freshest
/// history (ties broken by id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Vote {
    /// `currentEpoch` of the backed process.
    pub peer_epoch: Epoch,
    /// Last logged zxid of the backed process.
    pub last_zxid: Zxid,
    /// The backed process.
    pub leader: ServerId,
}

/// The sender's protocol state attached to a notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Still electing.
    Looking,
    /// Decided: leads.
    Leading,
    /// Decided: follows the vote's leader.
    Following,
}

/// A gossip message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// Logical election round of the sender.
    pub round: u64,
    /// Sender's state.
    pub state: NodeState,
    /// Sender's current vote.
    pub vote: Vote,
}

impl Notification {
    /// Encodes to the stable wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(22);
        buf.put_u64_le_wire(self.round);
        buf.put_u8_wire(match self.state {
            NodeState::Looking => 0,
            NodeState::Leading => 1,
            NodeState::Following => 2,
        });
        buf.put_u32_le_wire(self.vote.peer_epoch.0);
        buf.put_u64_le_wire(self.vote.last_zxid.0);
        buf.put_u64_le_wire(self.vote.leader.0);
        buf
    }

    /// Decodes from the wire format.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or an unknown state tag.
    pub fn decode(mut data: &[u8]) -> Result<Notification, WireError> {
        let cur = &mut data;
        let round = cur.get_u64_le_wire()?;
        let state = match cur.get_u8_wire()? {
            0 => NodeState::Looking,
            1 => NodeState::Leading,
            2 => NodeState::Following,
            tag => return Err(WireError::InvalidTag { tag, context: "NodeState" }),
        };
        let peer_epoch = Epoch(cur.get_u32_le_wire()?);
        let last_zxid = Zxid(cur.get_u64_le_wire()?);
        let leader = ServerId(cur.get_u64_le_wire()?);
        Ok(Notification { round, state, vote: Vote { peer_epoch, last_zxid, leader } })
    }
}

/// Election parameters.
#[derive(Debug, Clone)]
pub struct ElectionConfig {
    /// Quorum system of the ensemble.
    pub quorum: Arc<dyn QuorumSystem>,
    /// How long to wait, after a quorum first backs our vote, for a better
    /// vote to surface before deciding (ZooKeeper's `finalizeWait`).
    pub finalize_wait_ms: u64,
    /// Period for re-gossiping our notification while looking.
    pub resend_interval_ms: u64,
}

impl ElectionConfig {
    /// Majority quorums with ZooKeeper-like timing defaults.
    pub fn new(members: impl IntoIterator<Item = ServerId>) -> ElectionConfig {
        ElectionConfig {
            quorum: Arc::new(MajorityQuorum::new(members)),
            finalize_wait_ms: 200,
            resend_interval_ms: 100,
        }
    }
}

/// Inputs to the election automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectionInput {
    /// A notification arrived from `from`.
    Notification {
        /// Sender.
        from: ServerId,
        /// Its gossip.
        notification: Notification,
    },
    /// Monotone clock advance.
    Tick {
        /// Current driver time in milliseconds.
        now_ms: u64,
    },
}

/// Actions requested by the election automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectionAction {
    /// Send a notification to a peer.
    Send {
        /// Destination.
        to: ServerId,
        /// The gossip.
        notification: Notification,
    },
    /// The election decided: `leader` is nominated. The driver should now
    /// construct the corresponding `zab-core` automaton.
    Decided {
        /// The nominee.
        leader: ServerId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Looking,
    Decided { leader: ServerId },
}

/// The Fast Leader Election automaton.
#[derive(Debug)]
pub struct Election {
    id: ServerId,
    config: ElectionConfig,
    /// Our own freshness credentials (constant per incarnation).
    self_epoch: Epoch,
    self_zxid: Zxid,
    round: u64,
    vote: Vote,
    phase: Phase,
    /// Same-round votes received while looking (sender → vote).
    recv: BTreeMap<ServerId, Vote>,
    /// Votes from decided (Leading/Following) peers: sender → (vote, state).
    out_of_election: BTreeMap<ServerId, (Vote, NodeState)>,
    now_ms: u64,
    /// When the current quorum support window completes, if armed.
    finalize_deadline: Option<u64>,
    last_broadcast_ms: u64,
}

impl Election {
    /// Starts an election. `initial_vote` carries this process's own
    /// credentials (`peer_epoch` = its `currentEpoch`, `last_zxid` = its
    /// log tail, `leader` = itself).
    ///
    /// Returns the automaton and initial actions (gossip to all peers; in a
    /// single-server ensemble, an immediate decision).
    pub fn new(
        id: ServerId,
        config: ElectionConfig,
        initial_vote: Vote,
        now_ms: u64,
    ) -> (Election, Vec<ElectionAction>) {
        let mut e = Election {
            id,
            config,
            self_epoch: initial_vote.peer_epoch,
            self_zxid: initial_vote.last_zxid,
            round: 1,
            vote: initial_vote,
            phase: Phase::Looking,
            recv: BTreeMap::new(),
            out_of_election: BTreeMap::new(),
            now_ms,
            finalize_deadline: None,
            last_broadcast_ms: now_ms,
        };
        let mut out = Vec::new();
        e.recv.insert(id, e.vote);
        e.broadcast(&mut out);
        e.check_quorum(&mut out);
        // Deadline of zero width for n = 1: decide immediately.
        e.maybe_finalize(&mut out);
        (e, out)
    }

    /// This process's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Current logical round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The decided leader, if any.
    pub fn decided_leader(&self) -> Option<ServerId> {
        match self.phase {
            Phase::Decided { leader } => Some(leader),
            Phase::Looking => None,
        }
    }

    /// True while still looking.
    pub fn is_looking(&self) -> bool {
        self.phase == Phase::Looking
    }

    /// Re-enters the election (after the Zab automaton requested one),
    /// with possibly updated credentials, bumping the round.
    pub fn restart(&mut self, epoch: Epoch, last_zxid: Zxid, now_ms: u64) -> Vec<ElectionAction> {
        self.self_epoch = epoch;
        self.self_zxid = last_zxid;
        self.round += 1;
        self.vote = Vote { peer_epoch: epoch, last_zxid, leader: self.id };
        self.phase = Phase::Looking;
        self.recv.clear();
        self.recv.insert(self.id, self.vote);
        self.out_of_election.clear();
        self.now_ms = now_ms;
        self.finalize_deadline = None;
        let mut out = Vec::new();
        self.broadcast(&mut out);
        self.check_quorum(&mut out);
        self.maybe_finalize(&mut out);
        out
    }

    fn my_state(&self) -> NodeState {
        match self.phase {
            Phase::Looking => NodeState::Looking,
            Phase::Decided { leader } if leader == self.id => NodeState::Leading,
            Phase::Decided { .. } => NodeState::Following,
        }
    }

    fn notification(&self) -> Notification {
        Notification { round: self.round, state: self.my_state(), vote: self.vote }
    }

    fn broadcast(&mut self, out: &mut Vec<ElectionAction>) {
        self.last_broadcast_ms = self.now_ms;
        let n = self.notification();
        for &peer in self.config.quorum.members().iter() {
            if peer != self.id {
                out.push(ElectionAction::Send { to: peer, notification: n });
            }
        }
    }

    /// Feeds one input, returning requested actions.
    pub fn handle(&mut self, input: ElectionInput) -> Vec<ElectionAction> {
        let mut out = Vec::new();
        match input {
            ElectionInput::Tick { now_ms } => {
                self.now_ms = now_ms;
                if self.phase == Phase::Looking {
                    if now_ms.saturating_sub(self.last_broadcast_ms)
                        >= self.config.resend_interval_ms
                    {
                        self.broadcast(&mut out);
                    }
                    self.maybe_finalize(&mut out);
                }
            }
            ElectionInput::Notification { from, notification } => {
                if from == self.id || !self.config.quorum.members().contains(&from) {
                    return out;
                }
                self.on_notification(from, notification, &mut out);
            }
        }
        out
    }

    fn on_notification(&mut self, from: ServerId, n: Notification, out: &mut Vec<ElectionAction>) {
        match self.phase {
            Phase::Looking => match n.state {
                NodeState::Looking => self.on_looking_notification(from, n, out),
                NodeState::Leading | NodeState::Following => {
                    self.on_decided_notification(from, n, out)
                }
            },
            Phase::Decided { .. } => {
                // Help lagging lookers converge onto the decision.
                if n.state == NodeState::Looking {
                    out.push(ElectionAction::Send { to: from, notification: self.notification() });
                }
            }
        }
    }

    fn on_looking_notification(
        &mut self,
        from: ServerId,
        n: Notification,
        out: &mut Vec<ElectionAction>,
    ) {
        use std::cmp::Ordering;
        match n.round.cmp(&self.round) {
            Ordering::Greater => {
                // Join the newer round; restart vote accounting.
                self.round = n.round;
                self.recv.clear();
                let self_vote = Vote {
                    peer_epoch: self.self_epoch,
                    last_zxid: self.self_zxid,
                    leader: self.id,
                };
                self.vote = self_vote.max(n.vote);
                self.finalize_deadline = None;
                self.recv.insert(self.id, self.vote);
                self.recv.insert(from, n.vote);
                self.broadcast(out);
            }
            Ordering::Less => {
                // Stale round: help the sender catch up; ignore its vote.
                out.push(ElectionAction::Send { to: from, notification: self.notification() });
                return;
            }
            Ordering::Equal => {
                self.recv.insert(from, n.vote);
                if n.vote > self.vote {
                    self.vote = n.vote;
                    self.finalize_deadline = None;
                    self.recv.insert(self.id, self.vote);
                    self.broadcast(out);
                }
            }
        }
        self.check_quorum(out);
        self.maybe_finalize(out);
    }

    fn on_decided_notification(
        &mut self,
        from: ServerId,
        n: Notification,
        out: &mut Vec<ElectionAction>,
    ) {
        // A decided peer in our round: if a quorum of our round backs its
        // leader, adopt immediately (we were part of that election).
        if n.round == self.round {
            self.recv.insert(from, n.vote);
            let supporters: BTreeSet<ServerId> = self
                .recv
                .iter()
                .filter(|(_, v)| v.leader == n.vote.leader)
                .map(|(&s, _)| s)
                .collect();
            if self.config.quorum.is_quorum(&supporters)
                && self.leader_attests(n.vote.leader, from, n.state)
            {
                self.decide(n.vote, out);
                return;
            }
        }
        // Otherwise: track out-of-election votes; an established ensemble
        // answers a rebooted process this way.
        self.out_of_election.insert(from, (n.vote, n.state));
        let supporters: BTreeSet<ServerId> = self
            .out_of_election
            .iter()
            .filter(|(_, (v, _))| v.leader == n.vote.leader)
            .map(|(&s, _)| s)
            .collect();
        if self.config.quorum.is_quorum(&supporters)
            && self.leader_attests(n.vote.leader, from, n.state)
        {
            self.round = n.round;
            self.decide(n.vote, out);
        }
    }

    /// ZooKeeper's `checkLeader`: only follow a leader that itself attests
    /// to leading (directly, or via this very notification).
    fn leader_attests(&self, leader: ServerId, from: ServerId, state: NodeState) -> bool {
        if leader == self.id {
            return true;
        }
        if from == leader && state == NodeState::Leading {
            return true;
        }
        matches!(self.out_of_election.get(&leader), Some((_, NodeState::Leading)))
    }

    fn check_quorum(&mut self, _out: &mut Vec<ElectionAction>) {
        if self.phase != Phase::Looking || self.finalize_deadline.is_some() {
            return;
        }
        let supporters: BTreeSet<ServerId> =
            self.recv.iter().filter(|(_, v)| **v == self.vote).map(|(&s, _)| s).collect();
        if self.config.quorum.is_quorum(&supporters) {
            // Quorum reached: arm the finalize window. A better vote
            // arriving before the deadline disarms it.
            let wait = if self.config.quorum.members().len() == 1 {
                0
            } else {
                self.config.finalize_wait_ms
            };
            self.finalize_deadline = Some(self.now_ms + wait);
        }
    }

    fn maybe_finalize(&mut self, out: &mut Vec<ElectionAction>) {
        if self.phase != Phase::Looking {
            return;
        }
        if let Some(deadline) = self.finalize_deadline {
            if self.now_ms >= deadline {
                let vote = self.vote;
                self.decide(vote, out);
            }
        }
    }

    fn decide(&mut self, vote: Vote, out: &mut Vec<ElectionAction>) {
        self.vote = vote;
        self.phase = Phase::Decided { leader: vote.leader };
        self.finalize_deadline = None;
        out.push(ElectionAction::Decided { leader: vote.leader });
        // Tell everyone, so lagging peers converge fast.
        self.broadcast(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u64) -> ElectionConfig {
        ElectionConfig::new((1..=n).map(ServerId))
    }

    fn vote(epoch: u32, zxid: u64, id: u64) -> Vote {
        Vote { peer_epoch: Epoch(epoch), last_zxid: Zxid(zxid), leader: ServerId(id) }
    }

    #[test]
    fn vote_ordering_epoch_then_zxid_then_id() {
        assert!(vote(2, 0, 1) > vote(1, 99, 9));
        assert!(vote(1, 5, 1) > vote(1, 4, 9));
        assert!(vote(1, 5, 3) > vote(1, 5, 2));
    }

    #[test]
    fn notification_round_trips() {
        let n = Notification { round: 7, state: NodeState::Following, vote: vote(3, 77, 2) };
        assert_eq!(Notification::decode(&n.encode()).unwrap(), n);
    }

    #[test]
    fn notification_rejects_bad_state_tag() {
        let mut data =
            Notification { round: 1, state: NodeState::Looking, vote: vote(0, 0, 1) }.encode();
        data[8] = 9;
        assert!(Notification::decode(&data).is_err());
    }

    #[test]
    fn single_node_decides_immediately() {
        let (e, acts) = Election::new(ServerId(1), cfg(1), vote(0, 0, 1), 0);
        assert_eq!(e.decided_leader(), Some(ServerId(1)));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ElectionAction::Decided { leader } if *leader == ServerId(1))));
    }

    /// Fully-connected synchronous gossip: all notifications delivered
    /// instantly; ticks advance together.
    fn converge(mut nodes: Vec<Election>) -> Vec<Election> {
        let mut queue: Vec<(ServerId, ElectionAction)> = Vec::new();
        for node in &mut nodes {
            let id = node.id();
            let acts = node.restart(node.self_epoch, node.self_zxid, 0);
            queue.extend(acts.into_iter().map(|a| (id, a)));
        }
        let mut now = 0;
        for _ in 0..200 {
            // Drain sends.
            while let Some((from, act)) = queue.pop() {
                if let ElectionAction::Send { to, notification } = act {
                    if let Some(n) = nodes.iter_mut().find(|n| n.id() == to) {
                        let acts = n.handle(ElectionInput::Notification { from, notification });
                        let id = n.id();
                        queue.extend(acts.into_iter().map(|a| (id, a)));
                    }
                }
            }
            if nodes.iter().all(|n| !n.is_looking()) {
                break;
            }
            now += 100;
            for n in &mut nodes {
                let acts = n.handle(ElectionInput::Tick { now_ms: now });
                let id = n.id();
                queue.extend(acts.into_iter().map(|a| (id, a)));
            }
        }
        nodes
    }

    fn make(id: u64, epoch: u32, zxid: u64, n: u64) -> Election {
        Election::new(ServerId(id), cfg(n), vote(epoch, zxid, id), 0).0
    }

    #[test]
    fn equal_credentials_elect_highest_id() {
        let nodes = converge(vec![make(1, 0, 0, 3), make(2, 0, 0, 3), make(3, 0, 0, 3)]);
        for n in &nodes {
            assert_eq!(n.decided_leader(), Some(ServerId(3)), "node {} diverged", n.id());
        }
    }

    #[test]
    fn freshest_history_wins_regardless_of_id() {
        let nodes = converge(vec![make(1, 1, 50, 3), make(2, 1, 10, 3), make(3, 0, 99, 3)]);
        for n in &nodes {
            assert_eq!(n.decided_leader(), Some(ServerId(1)));
        }
    }

    #[test]
    fn higher_epoch_beats_longer_log() {
        let nodes = converge(vec![make(1, 2, 1, 3), make(2, 1, 999, 3), make(3, 1, 999, 3)]);
        for n in &nodes {
            assert_eq!(n.decided_leader(), Some(ServerId(1)));
        }
    }

    #[test]
    fn five_nodes_converge() {
        let nodes = converge((1..=5).map(|i| make(i, 0, i, 5)).collect());
        for n in &nodes {
            assert_eq!(n.decided_leader(), Some(ServerId(5)));
        }
    }

    #[test]
    fn late_joiner_adopts_established_leader() {
        let mut nodes = converge(vec![make(1, 0, 0, 3), make(2, 0, 0, 3)]);
        assert_eq!(nodes[0].decided_leader(), Some(ServerId(2)));
        // Node 3 starts fresh with better credentials — but the ensemble
        // has decided; it must join, not destabilize.
        let (mut joiner, acts) = Election::new(ServerId(3), cfg(3), vote(5, 5, 3), 0);
        let mut queue: Vec<(ServerId, ElectionAction)> =
            acts.into_iter().map(|a| (ServerId(3), a)).collect();
        for _ in 0..50 {
            let Some((from, act)) = queue.pop() else { break };
            if let ElectionAction::Send { to, notification } = act {
                if to == ServerId(3) {
                    let acts = joiner.handle(ElectionInput::Notification { from, notification });
                    queue.extend(acts.into_iter().map(|a| (ServerId(3), a)));
                } else if let Some(n) = nodes.iter_mut().find(|n| n.id() == to) {
                    let acts = n.handle(ElectionInput::Notification { from, notification });
                    let id = n.id();
                    queue.extend(acts.into_iter().map(|a| (id, a)));
                }
            }
        }
        assert_eq!(joiner.decided_leader(), Some(ServerId(2)));
        // The established nodes were not destabilized.
        assert_eq!(nodes[0].decided_leader(), Some(ServerId(2)));
        assert_eq!(nodes[1].decided_leader(), Some(ServerId(2)));
    }

    #[test]
    fn restart_bumps_round_and_relooks() {
        let (mut e, _) = Election::new(ServerId(1), cfg(3), vote(0, 0, 1), 0);
        assert!(e.is_looking());
        let r1 = e.round();
        let acts = e.restart(Epoch(1), Zxid(5), 100);
        assert_eq!(e.round(), r1 + 1);
        assert!(e.is_looking());
        // Gossips to both peers.
        let sends = acts.iter().filter(|a| matches!(a, ElectionAction::Send { .. })).count();
        assert_eq!(sends, 2);
    }

    #[test]
    fn looking_peer_with_stale_round_is_helped() {
        let (mut e, _) = Election::new(ServerId(1), cfg(3), vote(0, 0, 1), 0);
        e.restart(Epoch(0), Zxid(0), 0); // round 2
        let acts = e.handle(ElectionInput::Notification {
            from: ServerId(2),
            notification: Notification { round: 1, state: NodeState::Looking, vote: vote(9, 9, 2) },
        });
        // Our reply carries our (newer) round; the stale better vote is NOT
        // adopted — the peer will re-vote in our round.
        assert!(acts.iter().any(|a| matches!(
            a,
            ElectionAction::Send { to, notification } if *to == ServerId(2) && notification.round == 2
        )));
        assert_eq!(e.decided_leader(), None);
    }

    #[test]
    fn joining_higher_round_resets_votes() {
        let (mut e, _) = Election::new(ServerId(1), cfg(3), vote(1, 10, 1), 0);
        let acts = e.handle(ElectionInput::Notification {
            from: ServerId(2),
            notification: Notification { round: 5, state: NodeState::Looking, vote: vote(0, 0, 2) },
        });
        assert_eq!(e.round(), 5);
        // Our own credentials beat the peer's vote, so we still back
        // ourselves — in the new round.
        assert!(acts.iter().any(|a| matches!(
            a,
            ElectionAction::Send { notification, .. }
                if notification.round == 5 && notification.vote.leader == ServerId(1)
        )));
    }

    #[test]
    fn no_decision_without_quorum() {
        let (mut e, _) = Election::new(ServerId(1), cfg(5), vote(0, 0, 1), 0);
        let _ = e.handle(ElectionInput::Notification {
            from: ServerId(2),
            notification: Notification { round: 1, state: NodeState::Looking, vote: vote(0, 0, 1) },
        });
        // 2 of 5 back server 1: not a quorum, even after a long wait.
        let acts = e.handle(ElectionInput::Tick { now_ms: 60_000 });
        assert!(!acts.iter().any(|a| matches!(a, ElectionAction::Decided { .. })));
        assert!(e.is_looking());
    }

    #[test]
    fn follower_claim_alone_does_not_elect_unattested_leader() {
        // Two followers claim server 9 leads, but server 9 never says so
        // itself; `leader_attests` must block the decision.
        let (mut e, _) = Election::new(ServerId(1), cfg(3), vote(0, 0, 1), 0);
        for from in [ServerId(2), ServerId(3)] {
            let acts = e.handle(ElectionInput::Notification {
                from,
                notification: Notification {
                    round: 9,
                    state: NodeState::Following,
                    vote: vote(3, 3, 9),
                },
            });
            assert!(!acts.iter().any(|a| matches!(a, ElectionAction::Decided { .. })));
        }
        assert!(e.is_looking());
    }

    #[test]
    fn quorum_of_decided_peers_with_attesting_leader_elects() {
        let (mut e, _) = Election::new(ServerId(1), cfg(3), vote(0, 0, 1), 0);
        let _ = e.handle(ElectionInput::Notification {
            from: ServerId(3),
            notification: Notification { round: 4, state: NodeState::Leading, vote: vote(2, 8, 3) },
        });
        let acts = e.handle(ElectionInput::Notification {
            from: ServerId(2),
            notification: Notification {
                round: 4,
                state: NodeState::Following,
                vote: vote(2, 8, 3),
            },
        });
        assert!(acts.iter().any(|a| matches!(
            a,
            ElectionAction::Decided { leader } if *leader == ServerId(3)
        )));
    }
}
