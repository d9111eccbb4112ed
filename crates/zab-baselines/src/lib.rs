//! # zab-baselines — what Zab is contrasted against
//!
//! The DSN'11 paper motivates Zab with a deceptively simple observation:
//! running a primary's stream of incremental state changes through a
//! **sequence of independent consensus instances** (naive Multi-Paxos) is
//! not enough, once the primary keeps **multiple proposals outstanding**.
//! After a primary crash, the new leader learns a *suffix* of the old
//! primary's proposals from its prepare quorum — an earlier proposal may
//! be missing while a later one survives — and fills the gap with its own
//! value. Delivering in slot order then yields a sequence in which:
//!
//! - an old primary's k-th change is delivered although its (k-1)-th never
//!   was (**local primary order** violated), and
//! - an old primary's change is delivered *after* a new primary's change
//!   (**global primary order** violated),
//!
//! either of which corrupts incremental (delta-based) state.
//!
//! This crate implements that baseline faithfully enough to *measure* the
//! phenomenon:
//!
//! - [`multipaxos`] — ballots, acceptors, a pipelined proposer (window of
//!   outstanding slots), majority quorums per slot.
//! - [`harness`] — a deterministic scenario runner: message loss, primary
//!   crash, takeover, slot-order delivery.
//! - [`po`] — a primary-order checker over origin-tagged values, used to
//!   count violating runs (the harness tests assert that pipelined runs
//!   violate it and stop-and-wait runs never do; Zab's rate is zero by
//!   construction, see `tests/simulation_safety.rs`).
//!
//! # Example
//!
//! ```
//! use zab_baselines::harness::{Scenario, run_scenario};
//! use zab_baselines::po::check_primary_order;
//!
//! // A crash-free run never violates primary order.
//! let outcome = run_scenario(&Scenario {
//!     acceptors: 3,
//!     window: 8,
//!     ops_before_crash: 10,
//!     crash_primary: false,
//!     ops_after_takeover: 0,
//!     accept_drop_percent: 0,
//!     seed: 1,
//! });
//! assert!(check_primary_order(&outcome.delivered).is_ok());
//! ```

pub mod harness;
pub mod multipaxos;
pub mod po;
