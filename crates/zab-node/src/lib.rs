//! # zab-node — a complete Zab replica
//!
//! Assembles the workspace's pieces into the process a deployment runs:
//!
//! ```text
//!        ┌────────────────────────── Replica ──────────────────────────┐
//!        │  zab-election ──► zab-core (Leader/Follower automaton)      │
//! TCP ◄──┤      ▲                    │ Actions                         │
//! mesh   │      └── event loop ◄─────┤                                 │
//!        │            │              ▼                                 │
//!        │            │        zab-log (group-commit disk thread)      │
//!        │            ▼                                                │
//!        │        Application (execute on primary / apply on deliver)  │
//!        └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! - [`Replica::start`] boots a node: recover storage, join the mesh, run
//!   leader election, synchronize, serve.
//! - [`Application`] is the primary-backup state machine contract from the
//!   paper's abstract: the *primary executes client operations* (resolving
//!   all non-determinism) and the resulting *incremental state change* is
//!   what Zab broadcasts; backups only ever [`Application::apply`] deltas.
//! - [`apps::BytesApp`] broadcasts raw payloads (benchmarks); [`apps::KvApp`]
//!   is the ZooKeeper-like tree from `zab-kv`.
//!
//! # Example
//!
//! ```no_run
//! use zab_node::{apps::BytesApp, NodeConfig, Replica};
//! use zab_core::ServerId;
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let peers: BTreeMap<ServerId, std::net::SocketAddr> =
//!     [(ServerId(1), "127.0.0.1:7101".parse()?)].into_iter().collect();
//! let cfg = NodeConfig::new(ServerId(1), peers);
//! let replica = Replica::start(cfg, BytesApp::new())?;
//! replica.submit(b"state change".to_vec());
//! # Ok(())
//! # }
//! ```

mod admin;
mod admission;
pub mod apps;
pub mod config;
pub mod metrics;
pub mod replica;

pub use apps::{Application, BytesApp, KvApp};
pub use config::NodeConfig;
pub use metrics::NodeMetrics;
pub use replica::{NodeEvent, Replica, Role, SubmitError};
