//! Protocol-layer metrics (DESIGN.md §9).
//!
//! [`CoreMetrics`] bundles the instruments both automata record into. A
//! standalone (unregistered) bundle is the default so the sans-io automata
//! stay dependency-light for tests; drivers that want the numbers surfaced
//! call [`CoreMetrics::registered`] against their [`zab_metrics::Registry`]
//! and inject it with `set_metrics`.
//!
//! The paper's evaluation quantities map directly:
//! - `core.proposals_proposed` / `core.proposals_committed`: broadcast
//!   throughput numerators.
//! - `core.quorum_ack_latency_ms`: propose → quorum-ack time (virtual ms
//!   in the simulator, wall ms on a real node).
//! - `core.outstanding_depth`: the "multiple outstanding transactions"
//!   knob, observed live.

use std::sync::Arc;
use zab_metrics::{Counter, Gauge, Histogram, Registry};

/// Instrument bundle recorded by [`crate::Leader`] and [`crate::Follower`].
#[derive(Debug, Clone)]
pub struct CoreMetrics {
    /// Proposals this leader incarnation has assigned zxids to.
    pub proposals_proposed: Arc<Counter>,
    /// ACK messages received from peers (leader side).
    pub acks_received: Arc<Counter>,
    /// Cumulative ACK messages sent to the leader (follower side).
    pub acks_sent: Arc<Counter>,
    /// Committed transactions delivered to the application. Every replica
    /// delivers the same committed stream, so this counter must agree
    /// across a healthy ensemble — the e2e and chaos tests assert exactly
    /// that.
    pub proposals_committed: Arc<Counter>,
    /// Propose → quorum-ack latency, in driver-clock milliseconds.
    pub quorum_ack_latency_ms: Arc<Histogram>,
    /// Proposals in flight (proposed, not yet committed).
    pub outstanding_depth: Arc<Gauge>,
    /// Payload bytes shipped in sync-stream messages (DIFF/TRUNC/SNAP
    /// chunks, including snapshot bytes), leader side.
    pub sync_bytes_sent: Arc<Counter>,
    /// Catch-up syncs served via full snapshot (SNAP).
    pub snap_syncs: Arc<Counter>,
    /// Catch-up syncs served via log replay (DIFF or TRUNC).
    pub diff_syncs: Arc<Counter>,
    /// Client requests the leader bounced with back-pressure
    /// (`RejectReason::Overloaded`): the pending queue was at
    /// [`crate::ClusterConfig::request_queue_limit`]. Shed, never queued —
    /// a growing counter under steady load means the admission window
    /// above is letting more in than the pipeline drains.
    pub requests_rejected: Arc<Counter>,
}

impl CoreMetrics {
    /// Fresh instruments not attached to any registry: recording works,
    /// nothing is exported. The automata default to this.
    pub fn standalone() -> CoreMetrics {
        CoreMetrics {
            proposals_proposed: Arc::new(Counter::default()),
            acks_received: Arc::new(Counter::default()),
            acks_sent: Arc::new(Counter::default()),
            proposals_committed: Arc::new(Counter::default()),
            quorum_ack_latency_ms: Arc::new(Histogram::default()),
            outstanding_depth: Arc::new(Gauge::default()),
            sync_bytes_sent: Arc::new(Counter::default()),
            snap_syncs: Arc::new(Counter::default()),
            diff_syncs: Arc::new(Counter::default()),
            requests_rejected: Arc::new(Counter::default()),
        }
    }

    /// Instruments registered under the `core.` namespace of `reg`, so
    /// they appear in the registry's snapshots and JSON dumps.
    pub fn registered(reg: &Registry) -> CoreMetrics {
        CoreMetrics {
            proposals_proposed: reg.counter("core.proposals_proposed"),
            acks_received: reg.counter("core.acks_received"),
            acks_sent: reg.counter("core.acks_sent"),
            proposals_committed: reg.counter("core.proposals_committed"),
            quorum_ack_latency_ms: reg.histogram("core.quorum_ack_latency_ms"),
            outstanding_depth: reg.gauge("core.outstanding_depth"),
            sync_bytes_sent: reg.counter("core.sync_bytes_sent"),
            snap_syncs: reg.counter("core.snap_syncs"),
            diff_syncs: reg.counter("core.diff_syncs"),
            requests_rejected: reg.counter("core.requests_rejected"),
        }
    }
}

impl Default for CoreMetrics {
    fn default() -> CoreMetrics {
        CoreMetrics::standalone()
    }
}
