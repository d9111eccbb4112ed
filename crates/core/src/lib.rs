//! # zab-core — primary-order atomic broadcast (Zab, DSN 2011)
//!
//! A sans-io, deterministic implementation of **Zab**, the crash-recovery
//! atomic broadcast protocol behind ZooKeeper (Junqueira, Reed, Serafini:
//! *"Zab: High-performance broadcast for primary-backup systems"*, DSN'11).
//!
//! Zab lets a **primary** process execute operations and broadcast the
//! resulting *incremental state changes* to backups such that:
//!
//! - changes are delivered in a single total order at every process
//!   (**total order**, **agreement**),
//! - changes of one primary deliver in the order it generated them
//!   (**local primary order**),
//! - changes of an earlier primary never deliver after changes of a later
//!   one (**global primary order**),
//! - a new primary only starts broadcasting after every committed change of
//!   earlier primaries is delivered (**primary integrity**),
//!
//! all while allowing the primary to keep **many transactions outstanding**
//! (pipelined) — the combination that distinguishes Zab from running
//! operations through a plain consensus sequence.
//!
//! ## Architecture
//!
//! The protocol is expressed as two pure automata — [`Leader`] and
//! [`Follower`] — plus the [`Zab`] wrapper that holds whichever role the
//! last election produced. Automata consume [`Input`]s and emit
//! [`Action`]s; a *driver* (the deterministic simulator in `zab-simnet`,
//! the TCP node in `zab-node`, or a test) performs the actual I/O. See
//! [`events`] for the driver contract.
//!
//! Leader election (Phase 0) is *not* in this crate: any oracle that
//! eventually nominates a single live process works. ZooKeeper's Fast
//! Leader Election lives in the `zab-election` crate.
//!
//! ## Quick example (one automaton, hand-driven)
//!
//! ```
//! use zab_core::{
//!     ClusterConfig, Input, Leader, PersistentState, ServerId, Zxid,
//! };
//!
//! // A 1-server ensemble establishes immediately; drive its persists.
//! let cfg = ClusterConfig::majority([ServerId(1)]);
//! let (mut leader, actions) =
//!     Leader::new(ServerId(1), cfg, PersistentState::default(), Zxid::ZERO, 0);
//! let mut pending = actions;
//! while let Some(action) = pending.pop() {
//!     if let zab_core::Action::Persist { token, .. } = action {
//!         pending.extend(leader.handle(Input::Persisted { token }));
//!     }
//! }
//! assert!(leader.is_established());
//! ```

pub mod config;
pub mod delivery;
pub mod events;
pub mod follower;
pub mod history;
pub mod leader;
pub mod messages;
pub mod metrics;
pub mod types;

pub use config::{ClusterConfig, MajorityQuorum, QuorumSystem, WeightedQuorum};
pub use delivery::{DeliveryHash, HashCheckpoint};
pub use events::{Action, Input, PersistRequest, PersistToken, PersistentState, RejectReason};
pub use follower::{Follower, FollowerStatus};
pub use history::{History, SyncPlan};
pub use leader::{FollowerLag, Leader, LeaderStatus, SyncProgress};
pub use messages::{Message, MAX_TXN_DATA_LEN};
pub use metrics::CoreMetrics;
pub use types::{Epoch, ServerId, Txn, Zxid};
pub use zab_trace::Tracer;

/// The role a process plays after an election, wrapping the corresponding
/// automaton. One is constructed per election outcome and fed [`Input`]s
/// until it emits [`Action::GoToElection`] (`zab_election::Process` does
/// both on a driver's behalf).
// One automaton exists per process, never in collections, so the
// Leader/Follower size gap is irrelevant and boxing would only add an
// indirection to every input.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Zab {
    /// This process was nominated leader.
    Leader(Leader),
    /// This process follows `Follower::leader()`.
    Follower(Follower),
}

impl Zab {
    /// Builds the automaton for an election outcome: leader if `me ==
    /// nominee`, follower bound to the nominee otherwise. Returns the
    /// automaton plus its initial actions.
    pub fn from_election(
        me: ServerId,
        nominee: ServerId,
        config: ClusterConfig,
        state: PersistentState,
        applied_to: Zxid,
        now_ms: u64,
    ) -> (Zab, Vec<Action>) {
        if me == nominee {
            let (l, a) = Leader::new(me, config, state, applied_to, now_ms);
            (Zab::Leader(l), a)
        } else {
            let (f, a) = Follower::new(me, nominee, config, state, applied_to, now_ms);
            (Zab::Follower(f), a)
        }
    }

    /// Feeds one input to the wrapped automaton.
    pub fn handle(&mut self, input: Input) -> Vec<Action> {
        match self {
            Zab::Leader(l) => l.handle(input),
            Zab::Follower(f) => f.handle(input),
        }
    }

    /// Injects the instrument bundle the automaton records into (replacing
    /// the default standalone instruments). Call right after construction,
    /// before driving inputs.
    pub fn set_metrics(&mut self, metrics: CoreMetrics) {
        match self {
            Zab::Leader(l) => l.set_metrics(metrics),
            Zab::Follower(f) => f.set_metrics(metrics),
        }
    }

    /// Injects the flight-recorder handle the automaton records lifecycle
    /// events into (see `zab-trace`). Call right after construction,
    /// before driving inputs.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        match self {
            Zab::Leader(l) => l.set_tracer(tracer),
            Zab::Follower(f) => f.set_tracer(tracer),
        }
    }

    /// Highest committed zxid.
    pub fn last_committed(&self) -> Zxid {
        match self {
            Zab::Leader(l) => l.last_committed(),
            Zab::Follower(f) => f.last_committed(),
        }
    }

    /// Snapshot of the durable protocol state.
    pub fn persistent_state(&self) -> PersistentState {
        match self {
            Zab::Leader(l) => l.persistent_state(),
            Zab::Follower(f) => f.persistent_state(),
        }
    }

    /// Ends the incarnation and hands its protocol state — the paper's
    /// persistent variables — to the next one by move, with the committed
    /// watermark back at the history's base.
    ///
    /// This is what a driver reading storage back at this instant would
    /// get, without the read: each automaton changes its epochs and its
    /// history only in the `handle()` call that also emits the matching
    /// [`Action::Persist`], and ordered durability (driver contract, item
    /// 2) queues the next incarnation's writes behind this one's. Only a
    /// crash has to ask the disk.
    pub fn into_persistent_state(self) -> PersistentState {
        match self {
            Zab::Leader(l) => l.into_persistent_state(),
            Zab::Follower(f) => f.into_persistent_state(),
        }
    }

    /// Peers this process is currently catch-up syncing (leaders only;
    /// followers always report none).
    pub fn syncing_peers(&self) -> Vec<SyncProgress> {
        match self {
            Zab::Leader(l) => l.syncing_peers(),
            Zab::Follower(_) => Vec::new(),
        }
    }

    /// Per-follower replication lag against the committed frontier
    /// (leaders only; followers always report none). See
    /// [`Leader::follower_lags`].
    pub fn follower_lags(&self) -> Vec<FollowerLag> {
        match self {
            Zab::Leader(l) => l.follower_lags(),
            Zab::Follower(_) => Vec::new(),
        }
    }
}
