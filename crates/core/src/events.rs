//! The sans-io boundary: inputs a driver feeds to an automaton and actions
//! the automaton asks the driver to perform.
//!
//! The core protocol automata ([`crate::Leader`], [`crate::Follower`]) are
//! pure state machines: they never touch sockets, disks, clocks or threads.
//! A *driver* (the deterministic simulator, the TCP node, or a unit test)
//! owns those resources and mediates:
//!
//! ```text
//!             Input ───────────────►┌───────────┐
//!   driver                          │ automaton │
//!             ◄─────────── Vec<Action>└──────────┘
//! ```
//!
//! ## Driver contract
//!
//! 1. **FIFO channels.** Messages between two processes are delivered in
//!    order or the connection is reported broken via
//!    [`Input::PeerDisconnected`] (Zab's channel assumption).
//! 2. **Ordered durability.** [`Action::Persist`] requests must be applied
//!    to stable storage in emission order; [`Input::Persisted`] for a token
//!    implies every earlier token is durable too (group commit is
//!    explicitly allowed — ack only the latest token of a batch). The
//!    order holds *across* incarnations of one process: a new automaton's
//!    writes queue behind those its predecessor left in flight, which is
//!    what lets the predecessor hand its state over in memory
//!    ([`crate::Zab::into_persistent_state`]) instead of through the disk.
//!    Completions are incarnation-scoped: each automaton numbers its
//!    tokens from 1, so a completion must only ever reach the automaton
//!    that emitted the request (`zab_election::Process` renumbers tokens
//!    process-wide and drops the stale ones).
//! 3. **Time.** The driver feeds [`Input::Tick`] with a monotone
//!    millisecond clock at least every few milliseconds of protocol time;
//!    all timeouts derive from it.
//! 4. **Delivery.** [`Action::Deliver`] hands committed transactions to the
//!    application in zxid order, exactly once per automaton incarnation.

use crate::types::{Epoch, ServerId, Txn, Zxid};
use bytes::Bytes;

/// Token correlating a durability request with its completion.
///
/// Tokens are issued in strictly increasing order per automaton; completing
/// token *t* acknowledges every request of that automaton with token ≤ *t*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PersistToken(pub u64);

/// What the driver must make durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistRequest {
    /// Store the follower/leader `acceptedEpoch` variable (`f.p`).
    AcceptedEpoch(Epoch),
    /// Store the `currentEpoch` variable (`f.a`).
    CurrentEpoch(Epoch),
    /// Append transactions to the log, in order.
    AppendTxns(Vec<Txn>),
    /// Discard log entries with zxid greater than this point.
    TruncateLog(Zxid),
    /// Replace log and state with a snapshot covering up to `zxid`.
    ResetToSnapshot {
        /// Opaque application snapshot bytes.
        snapshot: Bytes,
        /// Zxid the snapshot covers (inclusive).
        zxid: Zxid,
    },
}

/// Everything a Zab automaton can receive from its driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A protocol message arrived from a peer.
    Message {
        /// Sending server.
        from: ServerId,
        /// The message.
        msg: crate::messages::Message,
    },
    /// Monotone clock advance (milliseconds since an arbitrary origin).
    Tick {
        /// Current driver time.
        now_ms: u64,
    },
    /// A client submitted an operation for broadcast. Only meaningful on
    /// the primary; elsewhere it is rejected via
    /// [`Action::ClientRequestRejected`].
    ClientRequest {
        /// Opaque incremental state change produced by the primary.
        data: Bytes,
    },
    /// Durability completion for `token` and everything before it.
    Persisted {
        /// Highest durable token.
        token: PersistToken,
    },
    /// The application produced the snapshot requested by
    /// [`Action::TakeSnapshot`].
    SnapshotReady {
        /// Snapshot bytes.
        snapshot: Bytes,
        /// Zxid the snapshot covers (the delivery point at capture).
        zxid: Zxid,
    },
    /// The transport lost the connection to `peer` (FIFO channel broken).
    PeerDisconnected {
        /// The disconnected peer.
        peer: ServerId,
    },
    /// The driver compacted its durable log into a snapshot covering up to
    /// `through` (ZooKeeper's periodic snapshotting): the automaton drops
    /// the matching in-memory prefix. Only delivered transactions are
    /// purged; followers lagging past the compaction point will be synced
    /// with SNAP.
    Compact {
        /// Compaction point (clamped to the delivered watermark).
        through: Zxid,
        /// The application snapshot the driver compacted into, if it has
        /// one. A leader retains it so a follower lagging behind the
        /// compaction horizon can be served SNAP directly, without a
        /// fresh `TakeSnapshot` round trip to the application.
        snapshot: Option<Bytes>,
    },
}

/// Why a client request was not accepted for broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// This process is not an established primary.
    NotPrimary,
    /// The pending-request queue is full (back-pressure).
    Overloaded,
    /// The request is over [`crate::MAX_TXN_DATA_LEN`], the most a
    /// follower channel or a log record can carry.
    TooLarge,
}

/// Everything a Zab automaton can ask of its driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send `msg` to `to` over the FIFO channel.
    Send {
        /// Destination server.
        to: ServerId,
        /// The message.
        msg: crate::messages::Message,
    },
    /// Send the *same* `msg` to every server in `to` — the leader's
    /// fan-out. Drivers should encode the message once and hand each
    /// channel a shared handle; semantically this is exactly a
    /// [`Action::Send`] per target, in `to`'s order.
    Broadcast {
        /// Destination servers (never includes this server).
        to: Vec<ServerId>,
        /// The message.
        msg: crate::messages::Message,
    },
    /// Make `req` durable, then feed back [`Input::Persisted`].
    Persist {
        /// Completion token.
        token: PersistToken,
        /// The durability request.
        req: PersistRequest,
    },
    /// Apply a committed transaction to the application, in zxid order.
    Deliver {
        /// The committed transaction.
        txn: Txn,
    },
    /// Replace the application state with a received snapshot before any
    /// further `Deliver`.
    InstallSnapshot {
        /// Snapshot bytes.
        snapshot: Bytes,
        /// Zxid the snapshot covers.
        zxid: Zxid,
    },
    /// Ask the application for a snapshot of its current state; reply with
    /// [`Input::SnapshotReady`]. Used by leaders serving SNAP syncs.
    TakeSnapshot,
    /// This automaton's incarnation is over; the process must run leader
    /// election again and build a fresh automaton.
    GoToElection {
        /// Human-readable cause, for logs and tests.
        reason: &'static str,
    },
    /// The process became an established primary (leader) or an active
    /// synced follower for `epoch`. Informational.
    Activated {
        /// The established epoch.
        epoch: Epoch,
    },
    /// A client request was not accepted.
    ClientRequestRejected {
        /// The rejected payload, returned to the caller.
        data: Bytes,
        /// Why.
        reason: RejectReason,
    },
    /// A transaction the automaton broadcast (or adopted) is now known
    /// committed. Emitted by the leader for observability/latency
    /// accounting; `Deliver` follows separately.
    Committed {
        /// Zxid of the committed transaction.
        zxid: Zxid,
    },
}

/// Protocol state handed to a new automaton incarnation (the paper's
/// persistent variables): read from storage when the process boots, passed
/// on in memory by the previous incarnation after that.
#[derive(Debug, Clone, Default)]
pub struct PersistentState {
    /// `f.p`: last epoch for which this process acknowledged `NEWEPOCH`.
    pub accepted_epoch: Epoch,
    /// `f.a`: last epoch for which this process acknowledged `NEWLEADER`.
    pub current_epoch: Epoch,
    /// The accepted transaction history recovered from the log.
    pub history: crate::history::History,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_tokens_are_ordered() {
        assert!(PersistToken(1) < PersistToken(2));
    }

    #[test]
    fn default_persistent_state_is_pristine() {
        let s = PersistentState::default();
        assert_eq!(s.accepted_epoch, Epoch::ZERO);
        assert_eq!(s.current_epoch, Epoch::ZERO);
        assert_eq!(s.history.last_zxid(), Zxid::ZERO);
    }
}
