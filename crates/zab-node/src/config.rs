//! Replica configuration.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use zab_core::{ClusterConfig, ServerId};
use zab_election::ElectionConfig;

/// Default [`NodeConfig::submit_window`]. Throughput against requests in
/// flight flattens well before a few hundred outstanding proposals
/// (EXPERIMENTS.md F3), so 256 keeps the pipeline full,
/// and a deeper window would only add queueing delay under overload.
const DEFAULT_SUBMIT_WINDOW: usize = 256;

/// Everything needed to boot one replica.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This server's id (must appear in `peers`).
    pub id: ServerId,
    /// Address book of the full ensemble, including this server; this
    /// server listens on its own entry.
    pub peers: BTreeMap<ServerId, SocketAddr>,
    /// Protocol parameters (quorums derived from `peers` by default).
    pub cluster: ClusterConfig,
    /// Election parameters.
    pub election: ElectionConfig,
    /// Storage directory; `None` uses in-memory storage (tests, benches).
    pub data_dir: Option<PathBuf>,
    /// Compact the log into a snapshot every `k` applied transactions
    /// (ZooKeeper's snapCount); `None` never compacts.
    pub snapshot_every: Option<u64>,
    /// Submit-side admission window: the gate never admits more than this
    /// many of this replica's own requests in flight (submitted but not
    /// yet delivered or rejected). [`crate::Replica::submit`] blocks at a
    /// full gate; [`crate::Replica::try_submit`] sheds instead. Fixed for
    /// the replica's life (DESIGN.md §5c); 256 by default.
    pub submit_window: usize,
    /// Serve the admin HTTP endpoint (`GET /metrics`, `GET /health`,
    /// `GET /trace?last=N`) on this address; `None` (default) disables
    /// it. The endpoint is unauthenticated — bind loopback
    /// (`127.0.0.1:...`) unless the network is trusted.
    pub admin_addr: Option<SocketAddr>,
}

impl NodeConfig {
    /// Defaults: majority quorums over the address book, in-memory
    /// storage, 5 ms ticks.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `peers`.
    pub fn new(id: ServerId, peers: BTreeMap<ServerId, SocketAddr>) -> NodeConfig {
        assert!(peers.contains_key(&id), "own id must be in the address book");
        let members: Vec<ServerId> = peers.keys().copied().collect();
        NodeConfig {
            id,
            peers,
            cluster: ClusterConfig::majority(members.clone()),
            election: ElectionConfig::new(members),
            data_dir: None,
            snapshot_every: None,
            submit_window: DEFAULT_SUBMIT_WINDOW,
            admin_addr: None,
        }
    }

    /// Caps this replica's own in-flight submissions at `window`.
    pub fn with_submit_window(mut self, window: usize) -> NodeConfig {
        self.submit_window = window;
        self
    }

    /// Uses file-backed storage rooted at `dir`.
    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> NodeConfig {
        self.data_dir = Some(dir.into());
        self
    }

    /// Enables periodic log compaction every `k` applied transactions.
    pub fn with_snapshot_every(mut self, k: u64) -> NodeConfig {
        self.snapshot_every = Some(k);
        self
    }

    /// Serves the admin HTTP endpoint on `addr` (port 0 picks a free
    /// port; read it back via [`crate::Replica::admin_addr`]).
    pub fn with_admin(mut self, addr: SocketAddr) -> NodeConfig {
        self.admin_addr = Some(addr);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book(n: u64) -> BTreeMap<ServerId, SocketAddr> {
        (1..=n)
            .map(|i| (ServerId(i), format!("127.0.0.1:{}", 7000 + i).parse().expect("addr")))
            .collect()
    }

    #[test]
    fn defaults_derive_quorum_from_address_book() {
        let cfg = NodeConfig::new(ServerId(2), book(3));
        assert_eq!(cfg.cluster.ensemble_size(), 3);
        assert!(cfg.data_dir.is_none());
    }

    #[test]
    #[should_panic(expected = "own id must be in the address book")]
    fn unknown_own_id_rejected() {
        let _ = NodeConfig::new(ServerId(9), book(3));
    }
}
