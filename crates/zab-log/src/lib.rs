//! # zab-log — durable state for crash-recovery atomic broadcast
//!
//! Zab's safety across crashes rests on three durable pieces of state per
//! process (the paper's persistent variables):
//!
//! - `acceptedEpoch` (`f.p`) — last epoch acknowledged via `NEWEPOCH`,
//! - `currentEpoch` (`f.a`) — last epoch acknowledged via `NEWLEADER`,
//! - the **accepted transaction history**, plus the application snapshot it
//!   is compacted against.
//!
//! This crate provides the [`Storage`] trait capturing exactly the
//! operations the protocol automata request via
//! [`zab_core::PersistRequest`], with two implementations:
//!
//! - [`MemStorage`] — in-memory, with *explicit* flush boundaries so the
//!   deterministic simulator can model durability loss on crash (anything
//!   not flushed disappears),
//! - [`FileStorage`] — file-backed: a CRC-checksummed transaction log in
//!   two files that compaction recycles instead of freeing, an
//!   atomically-replaced epoch record, and an atomically-replaced snapshot
//!   file. Recovery tolerates torn tails (a partially written final record
//!   is discarded, like ZooKeeper's log recovery) and keeps the stale
//!   tail a recycled file carries.
//!
//! # Example
//!
//! ```
//! use zab_core::{Epoch, Txn, Zxid};
//! use zab_log::{MemStorage, Storage};
//!
//! let mut store = MemStorage::new();
//! store.set_accepted_epoch(Epoch(1)).unwrap();
//! store.append_txns(&[Txn::new(Zxid::new(Epoch(1), 1), &b"delta"[..])]).unwrap();
//! store.flush().unwrap();
//! let recovered = store.recover().unwrap();
//! assert_eq!(recovered.accepted_epoch, Epoch(1));
//! assert_eq!(recovered.history.len(), 1);
//! ```

pub mod fault;
pub mod file;
pub mod mem;
pub mod metrics;
pub mod record;

use bytes::Bytes;
use std::error::Error;
use std::fmt;
use zab_core::{Epoch, History, PersistRequest, PersistentState, Zxid};

pub use fault::{FaultOp, FaultPlan};
pub use file::FileStorage;
pub use mem::MemStorage;
pub use metrics::LogMetrics;

/// Storage failure.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// Stored data failed validation (checksum, ordering, truncation).
    Corrupt(String),
    /// Intact log records resume *after* a damaged region: the damage is
    /// bit-rot / media corruption inside the file body, not a torn tail,
    /// and truncating at the damage would silently drop committed
    /// transactions. Recovery must refuse rather than repair.
    MidFileCorrupt {
        /// Byte offset of the first damaged record.
        offset: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt(why) => write!(f, "storage corrupt: {why}"),
            StorageError::MidFileCorrupt { offset } => {
                write!(
                    f,
                    "storage corrupt mid-file at byte {offset}: intact records follow the \
                     damaged region (bit-rot, not a torn tail)"
                )
            }
        }
    }
}

impl Error for StorageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Corrupt(_) | StorageError::MidFileCorrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Everything recovered from stable storage at process start.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Durable `acceptedEpoch`.
    pub accepted_epoch: Epoch,
    /// Durable `currentEpoch`.
    pub current_epoch: Epoch,
    /// The accepted history (base = snapshot point, suffix = log).
    pub history: History,
    /// The application snapshot the history is based on, if any.
    pub snapshot: Option<Bytes>,
}

impl Recovered {
    /// Converts to the protocol automata's initial state.
    pub fn into_persistent_state(self) -> PersistentState {
        PersistentState {
            accepted_epoch: self.accepted_epoch,
            current_epoch: self.current_epoch,
            history: self.history,
        }
    }
}

/// Durable storage operations required by the Zab automata.
///
/// Writes are *buffered*: they become durable only at [`Storage::flush`].
/// Drivers map [`zab_core::Action::Persist`] onto these methods and answer
/// [`zab_core::Input::Persisted`] only after a flush covering the request —
/// batching several requests into one flush is the group-commit
/// optimization the paper's pipelining enables.
pub trait Storage {
    /// Buffers an update of `acceptedEpoch`.
    ///
    /// # Errors
    /// Propagates underlying I/O failures.
    fn set_accepted_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError>;

    /// Buffers an update of `currentEpoch`.
    ///
    /// # Errors
    /// Propagates underlying I/O failures.
    fn set_current_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError>;

    /// Buffers an ordered append of transactions to the log.
    ///
    /// # Errors
    /// Propagates underlying I/O failures; implementations may also reject
    /// out-of-order appends as [`StorageError::Corrupt`].
    fn append_txns(&mut self, txns: &[zab_core::Txn]) -> Result<(), StorageError>;

    /// Buffers a truncation: discard log entries with zxid greater than
    /// `to`.
    ///
    /// # Errors
    /// Propagates underlying I/O failures.
    fn truncate(&mut self, to: Zxid) -> Result<(), StorageError>;

    /// Replaces log and snapshot: the snapshot covers everything up to
    /// `zxid`; the log restarts empty after it. Implies a flush.
    ///
    /// The snapshot arrives as refcounted [`bytes::Bytes`] so a snapshot
    /// received off the wire (SNAP sync) is stored without another copy.
    ///
    /// # Errors
    /// Propagates underlying I/O failures.
    fn reset_to_snapshot(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError>;

    /// Compacts the log: stores `snapshot` covering up to `zxid` and drops
    /// log entries at or below it. Unlike [`Storage::reset_to_snapshot`]
    /// the suffix beyond `zxid` is retained. Implies a flush.
    ///
    /// # Errors
    /// Propagates underlying I/O failures.
    fn compact(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError>;

    /// Makes all buffered writes durable.
    ///
    /// # Errors
    /// Propagates underlying I/O failures.
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Reads back the durable state (buffered-but-unflushed writes are
    /// *included*; they are lost only on crash). Called once, at process
    /// start: role changes inside a live process pass the protocol state on
    /// in memory, and compaction works from the record index.
    ///
    /// # Errors
    /// Returns [`StorageError::Corrupt`] when validation fails beyond what
    /// torn-tail recovery can repair.
    fn recover(&self) -> Result<Recovered, StorageError>;

    /// Injects the instrument bundle this storage records into (see
    /// [`LogMetrics`]). Default: ignored, for implementations that do not
    /// report metrics.
    fn set_metrics(&mut self, metrics: LogMetrics) {
        let _ = metrics;
    }

    /// Applies a protocol persist request (convenience for drivers).
    ///
    /// # Errors
    /// As per the underlying operations.
    fn apply(&mut self, req: &PersistRequest) -> Result<(), StorageError> {
        match req {
            PersistRequest::AcceptedEpoch(e) => self.set_accepted_epoch(*e),
            PersistRequest::CurrentEpoch(e) => self.set_current_epoch(*e),
            PersistRequest::AppendTxns(txns) => self.append_txns(txns),
            PersistRequest::TruncateLog(to) => self.truncate(*to),
            PersistRequest::ResetToSnapshot { snapshot, zxid } => {
                self.reset_to_snapshot(snapshot.clone(), *zxid)
            }
        }
    }
}
