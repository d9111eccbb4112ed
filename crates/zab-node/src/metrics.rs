//! Node-level instrument bundle (`node.*` metrics).
//!
//! The layers below report their own families — `core.*` from the
//! automata, `log.*` from storage, `transport.*` from the TCP mesh —
//! all into the one [`Registry`] the [`crate::Replica`] owns. This
//! bundle covers what only the event loop can see: role churn, how
//! long elections take, the client-visible commit latency, and the
//! fault events that step a replica out of the protocol.

use std::sync::Arc;
use zab_metrics::{Counter, Gauge, Histogram, Registry};

/// Handles to the node-level instruments.
#[derive(Debug, Clone)]
pub struct NodeMetrics {
    /// Role transitions published to the embedding program.
    pub role_transitions: Arc<Counter>,
    /// Wall time from entering an election to a decided leader (ms).
    pub election_duration_ms: Arc<Histogram>,
    /// End-to-end commit latency on the primary: submit accepted →
    /// the resulting transaction delivered locally (ms).
    pub commit_latency_ms: Arc<Histogram>,
    /// Client submissions broadcast but not yet delivered (primary).
    pub commit_inflight: Arc<Gauge>,
    /// Submissions shed at the admission gate (`try_submit` with a full
    /// window, or `submit_deadline` expiring) — refused visibly, never
    /// queued. The operator's overload signal: a nonzero rate means
    /// offered load exceeds what the pipeline drains.
    pub submits_shed: Arc<Counter>,
    /// The admission gate's live capacity (the adaptive window's current
    /// value).
    pub submit_window: Arc<Gauge>,
    /// Storage faults that fail-stopped this replica.
    pub storage_faults: Arc<Counter>,
    /// Failed outgoing dials surfaced as `PeerUnreachable`.
    pub peer_unreachable: Arc<Counter>,
    /// Snapshots that failed to install into the application.
    pub snapshot_install_failures: Arc<Counter>,
}

impl NodeMetrics {
    /// Instruments registered in `reg` under `node.*` names.
    pub fn registered(reg: &Registry) -> NodeMetrics {
        NodeMetrics {
            role_transitions: reg.counter("node.role_transitions"),
            election_duration_ms: reg.histogram("node.election_duration_ms"),
            commit_latency_ms: reg.histogram("node.commit_latency_ms"),
            commit_inflight: reg.gauge("node.commit_inflight"),
            submits_shed: reg.counter("node.submits_shed"),
            submit_window: reg.gauge("node.submit_window"),
            storage_faults: reg.counter("node.storage_faults"),
            peer_unreachable: reg.counter("node.peer_unreachable"),
            snapshot_install_failures: reg.counter("node.snapshot_install_failures"),
        }
    }

    /// Instruments not attached to any registry (tests, defaults).
    pub fn standalone() -> NodeMetrics {
        NodeMetrics {
            role_transitions: Arc::default(),
            election_duration_ms: Arc::default(),
            commit_latency_ms: Arc::default(),
            commit_inflight: Arc::default(),
            submits_shed: Arc::default(),
            submit_window: Arc::default(),
            storage_faults: Arc::default(),
            peer_unreachable: Arc::default(),
            snapshot_install_failures: Arc::default(),
        }
    }
}

impl Default for NodeMetrics {
    fn default() -> Self {
        NodeMetrics::standalone()
    }
}
