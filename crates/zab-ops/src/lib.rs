//! Ensemble observability plane for the Zab reproduction.
//!
//! Everything a replica knows about itself is already served over its
//! admin endpoint (`/metrics`, `/health`, `/trace`); this crate is the
//! cross-node half — scrape every node, line the answers up, and say
//! something about the *ensemble*:
//!
//! - [`scrape`] pulls `/health` and raw traces from an address list,
//!   tolerating partial answers; [`model`] parses them back into the
//!   types the node rendered them from ([`zab_trace::health::Health`],
//!   [`zab_trace::TraceEvent`]).
//! - [`zab_trace::align`] (consumed here) estimates per-node clock
//!   offsets from causal wire edges and stitches per-node flight-recorder
//!   rings into one cross-node timeline; [`status`] renders the timeline
//!   for a single zxid — leader submit → wire-out → follower wire-in →
//!   deliver, on one clock.
//! - [`audit`] is the invariant watchdog: epoch monotonicity, single
//!   leader per epoch, follower committed ≤ leader committed, and
//!   delivered-prefix agreement via the rolling delivery hash the apply
//!   path maintains (`zab_core::DeliveryHash`).
//!
//! The `zabctl` binary wires these into `status`, `trace <zxid>`, and
//! `audit [--watch]` subcommands; see `src/bin/zabctl.rs` and the
//! DESIGN.md §9.3 walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod http;
pub mod json;
pub mod model;
pub mod scrape;
pub mod status;

pub use audit::{AuditState, Violation};
pub use scrape::EnsembleSnapshot;
