//! Naive Multi-Paxos: independent synod instances per log slot, a
//! pipelined proposer, majority quorums.
//!
//! This is deliberately the *textbook* construction the paper argues
//! against — no primary-order machinery, no epoch-tagged gap handling —
//! so its failure mode can be measured. It is still a correct total-order
//! broadcast (slot-order delivery of chosen values): the violations it
//! exhibits are of *primary order*, not of consensus.

use std::collections::BTreeMap;

/// A ballot number: `(round, proposer id)`, totally ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Ballot {
    /// Monotone round.
    pub round: u64,
    /// Proposer id (ties broken by id).
    pub proposer: u64,
}

/// A log slot index (1-based).
pub type Slot = u64;

/// A broadcast value, tagged with its origin so primary order is checkable:
/// `origin` is the primary instance (epoch) that generated it, `seq` its
/// position in that primary's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedValue {
    /// Primary instance that generated the value.
    pub origin: u32,
    /// 1-based position within that primary's stream.
    pub seq: u32,
}

/// Messages of the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaxosMsg {
    /// Phase 1a: claim all slots with `ballot`.
    Prepare {
        /// The ballot being claimed.
        ballot: Ballot,
    },
    /// Phase 1b: promise plus everything this acceptor accepted.
    Promise {
        /// Echoed ballot.
        ballot: Ballot,
        /// Accepted values: slot → (ballot, value).
        accepted: Vec<(Slot, Ballot, TaggedValue)>,
    },
    /// Phase 2a: propose `value` in `slot` at `ballot`.
    Accept {
        /// The ballot.
        ballot: Ballot,
        /// The slot.
        slot: Slot,
        /// The value.
        value: TaggedValue,
    },
    /// Phase 2b: accepted.
    Accepted {
        /// Echoed ballot.
        ballot: Ballot,
        /// Echoed slot.
        slot: Slot,
    },
}

/// A Paxos acceptor: one promised ballot, per-slot accepted values.
#[derive(Debug, Clone, Default)]
pub struct Acceptor {
    promised: Ballot,
    accepted: BTreeMap<Slot, (Ballot, TaggedValue)>,
}

impl Acceptor {
    /// Fresh acceptor.
    pub fn new() -> Acceptor {
        Acceptor::default()
    }

    /// Handles a message, returning the reply (if any). Nacks are modeled
    /// as silence — proposers work with quorums, not rejections.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Option<PaxosMsg> {
        match msg {
            PaxosMsg::Prepare { ballot } => {
                if *ballot > self.promised {
                    self.promised = *ballot;
                    Some(PaxosMsg::Promise {
                        ballot: *ballot,
                        accepted: self.accepted.iter().map(|(&s, &(b, v))| (s, b, v)).collect(),
                    })
                } else {
                    None
                }
            }
            PaxosMsg::Accept { ballot, slot, value } => {
                if *ballot >= self.promised {
                    self.promised = *ballot;
                    self.accepted.insert(*slot, (*ballot, *value));
                    Some(PaxosMsg::Accepted { ballot: *ballot, slot: *slot })
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// State of one slot at the proposer.
#[derive(Debug, Clone)]
pub struct SlotState {
    /// The value proposed in this slot at the current ballot.
    pub value: TaggedValue,
    /// Acceptors that sent `Accepted`.
    pub acks: Vec<u64>,
    /// Chosen (majority accepted).
    pub chosen: bool,
}

/// A pipelined Multi-Paxos proposer (the "primary" of the baseline).
///
/// On becoming leader it runs Phase 1 once for all slots; thereafter it
/// assigns client values to consecutive slots and keeps up to `window`
/// un-chosen slots in flight (the analogue of Zab's outstanding window).
#[derive(Debug)]
pub struct Proposer {
    /// This proposer's id (also the primary-instance tag for its values).
    pub id: u64,
    /// Current ballot (valid after Phase 1 wins).
    pub ballot: Ballot,
    /// Majority threshold (acceptors/2 + 1).
    majority: usize,
    /// Promise senders.
    promises: Vec<u64>,
    /// Union of accepted reports from promises: slot → best (ballot, value).
    learned: BTreeMap<Slot, (Ballot, TaggedValue)>,
    /// True once Phase 1 completed.
    pub leading: bool,
    /// Slot assignment cursor (next free slot).
    next_slot: Slot,
    /// In-flight and decided slots.
    pub slots: BTreeMap<Slot, SlotState>,
    /// Pipelining window.
    window: usize,
    /// Client values not yet assigned to slots.
    backlog: Vec<TaggedValue>,
    /// Sequence counter for values this proposer originates.
    next_seq: u32,
}

impl Proposer {
    /// A proposer over `acceptors` acceptors, claiming ballots with round
    /// `round`, pipelining up to `window` slots.
    pub fn new(id: u64, round: u64, acceptors: usize, window: usize) -> Proposer {
        Proposer {
            id,
            ballot: Ballot { round, proposer: id },
            majority: acceptors / 2 + 1,
            promises: Vec::new(),
            learned: BTreeMap::new(),
            leading: false,
            next_slot: 1,
            slots: BTreeMap::new(),
            window,
            backlog: Vec::new(),
            next_seq: 1,
        }
    }

    /// The Phase 1a message to broadcast.
    pub fn prepare(&self) -> PaxosMsg {
        PaxosMsg::Prepare { ballot: self.ballot }
    }

    /// Handles a promise from `acceptor`. When a majority promises, Phase 1
    /// completes: previously accepted values are re-proposed (highest
    /// ballot per slot), and the slot cursor moves past everything learned.
    /// Returns Phase 2a messages to broadcast when leadership is won.
    pub fn on_promise(
        &mut self,
        acceptor: u64,
        ballot: Ballot,
        accepted: &[(Slot, Ballot, TaggedValue)],
    ) -> Vec<PaxosMsg> {
        if ballot != self.ballot || self.leading {
            return Vec::new();
        }
        if !self.promises.contains(&acceptor) {
            self.promises.push(acceptor);
            for &(slot, b, v) in accepted {
                let entry = self.learned.entry(slot).or_insert((b, v));
                if b > entry.0 {
                    *entry = (b, v);
                }
            }
        }
        if self.promises.len() < self.majority {
            return Vec::new();
        }
        self.leading = true;
        // Re-propose every learned value at our ballot; this is where the
        // baseline inherits a *suffix with holes* of the old primary's
        // stream — the root of the primary-order violation.
        let mut out = Vec::new();
        let max_learned = self.learned.keys().copied().max().unwrap_or(0);
        for (&slot, &(_, value)) in &self.learned {
            self.slots.insert(slot, SlotState { value, acks: Vec::new(), chosen: false });
            out.push(PaxosMsg::Accept { ballot: self.ballot, slot, value });
        }
        // Gaps below the learned maximum must be filled before anything
        // later can be delivered; naive Multi-Paxos fills them with the
        // new primary's own next values.
        for slot in 1..=max_learned {
            if !self.slots.contains_key(&slot) {
                let value = self.next_value();
                self.slots.insert(slot, SlotState { value, acks: Vec::new(), chosen: false });
                out.push(PaxosMsg::Accept { ballot: self.ballot, slot, value });
            }
        }
        self.next_slot = max_learned + 1;
        out.extend(self.pump());
        out
    }

    fn next_value(&mut self) -> TaggedValue {
        let v = TaggedValue { origin: self.id as u32, seq: self.next_seq };
        self.next_seq += 1;
        v
    }

    /// Queues one client operation; returns Phase 2a messages that fit in
    /// the window.
    pub fn submit(&mut self) -> Vec<PaxosMsg> {
        let v = self.next_value();
        self.backlog.push(v);
        if self.leading {
            self.pump()
        } else {
            Vec::new()
        }
    }

    /// Assigns backlog values to slots while the window allows.
    fn pump(&mut self) -> Vec<PaxosMsg> {
        let mut out = Vec::new();
        while !self.backlog.is_empty() && self.in_flight() < self.window {
            let value = self.backlog.remove(0);
            let slot = self.next_slot;
            self.next_slot += 1;
            self.slots.insert(slot, SlotState { value, acks: Vec::new(), chosen: false });
            out.push(PaxosMsg::Accept { ballot: self.ballot, slot, value });
        }
        out
    }

    fn in_flight(&self) -> usize {
        self.slots.values().filter(|s| !s.chosen).count()
    }

    /// Handles an `Accepted`; returns newly chosen slots and any follow-up
    /// proposals the freed window admits.
    pub fn on_accepted(
        &mut self,
        acceptor: u64,
        ballot: Ballot,
        slot: Slot,
    ) -> (Vec<Slot>, Vec<PaxosMsg>) {
        if ballot != self.ballot {
            return (Vec::new(), Vec::new());
        }
        let mut chosen = Vec::new();
        if let Some(st) = self.slots.get_mut(&slot) {
            if !st.chosen && !st.acks.contains(&acceptor) {
                st.acks.push(acceptor);
                if st.acks.len() >= self.majority {
                    st.chosen = true;
                    chosen.push(slot);
                }
            }
        }
        let more = if chosen.is_empty() { Vec::new() } else { self.pump() };
        (chosen, more)
    }

    /// The value proposed in `slot` (for delivery once chosen).
    pub fn value_in(&self, slot: Slot) -> Option<TaggedValue> {
        self.slots.get(&slot).map(|s| s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn promise_all(p: &mut Proposer, acceptors: &mut [Acceptor]) -> Vec<PaxosMsg> {
        let prep = p.prepare();
        let mut out = Vec::new();
        for (i, a) in acceptors.iter_mut().enumerate() {
            if let Some(PaxosMsg::Promise { ballot, accepted }) = a.handle(&prep) {
                out.extend(p.on_promise(i as u64, ballot, &accepted));
            }
        }
        out
    }

    #[test]
    fn ballot_order() {
        assert!(Ballot { round: 2, proposer: 1 } > Ballot { round: 1, proposer: 9 });
        assert!(Ballot { round: 1, proposer: 2 } > Ballot { round: 1, proposer: 1 });
    }

    #[test]
    fn fresh_leader_wins_phase_one_with_no_history() {
        let mut acceptors = vec![Acceptor::new(), Acceptor::new(), Acceptor::new()];
        let mut p = Proposer::new(1, 1, 3, 4);
        let msgs = promise_all(&mut p, &mut acceptors);
        assert!(p.leading);
        assert!(msgs.is_empty(), "nothing to re-propose");
    }

    #[test]
    fn values_get_chosen_by_majority() {
        let mut acceptors = vec![Acceptor::new(), Acceptor::new(), Acceptor::new()];
        let mut p = Proposer::new(1, 1, 3, 4);
        promise_all(&mut p, &mut acceptors);
        let accepts = p.submit();
        assert_eq!(accepts.len(), 1);
        let mut chosen = Vec::new();
        for (i, a) in acceptors.iter_mut().enumerate() {
            if let Some(PaxosMsg::Accepted { ballot, slot }) = a.handle(&accepts[0]) {
                let (c, _) = p.on_accepted(i as u64, ballot, slot);
                chosen.extend(c);
            }
        }
        assert_eq!(chosen, vec![1]);
    }

    #[test]
    fn window_limits_in_flight_slots() {
        let mut acceptors = vec![Acceptor::new(), Acceptor::new(), Acceptor::new()];
        let mut p = Proposer::new(1, 1, 3, 2);
        promise_all(&mut p, &mut acceptors);
        let mut sent = 0;
        for _ in 0..5 {
            sent += p.submit().len();
        }
        assert_eq!(sent, 2, "window of 2 admits only 2 accepts");
    }

    #[test]
    fn acceptor_rejects_stale_ballots() {
        let mut a = Acceptor::new();
        let high = Ballot { round: 5, proposer: 1 };
        assert!(a.handle(&PaxosMsg::Prepare { ballot: high }).is_some());
        let low = Ballot { round: 1, proposer: 2 };
        assert!(a.handle(&PaxosMsg::Prepare { ballot: low }).is_none());
        assert!(a
            .handle(&PaxosMsg::Accept {
                ballot: low,
                slot: 1,
                value: TaggedValue { origin: 2, seq: 1 }
            })
            .is_none());
    }

    #[test]
    fn takeover_re_proposes_learned_values_and_fills_gaps() {
        let mut acceptors = vec![Acceptor::new(), Acceptor::new(), Acceptor::new()];
        // Old primary gets slot 2 accepted everywhere but slot 1 nowhere
        // (its Accept for slot 1 was "lost").
        let mut old = Proposer::new(1, 1, 3, 4);
        promise_all(&mut old, &mut acceptors);
        let _lost_slot1 = old.submit();
        let a2 = old.submit();
        for a in acceptors.iter_mut() {
            a.handle(&a2[0]);
        }
        // New primary takes over.
        let mut new = Proposer::new(2, 2, 3, 4);
        let msgs = promise_all(&mut new, &mut acceptors);
        // It re-proposes old slot 2 and fills slot 1 with its own value.
        let mut slots: Vec<(Slot, TaggedValue)> = msgs
            .iter()
            .filter_map(|m| match m {
                PaxosMsg::Accept { slot, value, .. } => Some((*slot, *value)),
                _ => None,
            })
            .collect();
        slots.sort_by_key(|&(s, _)| s);
        assert_eq!(slots[0].0, 1);
        assert_eq!(slots[0].1.origin, 2, "gap filled by the new primary");
        assert_eq!(slots[1].0, 2);
        assert_eq!(slots[1].1, TaggedValue { origin: 1, seq: 2 }, "old suffix survives");
    }
}
