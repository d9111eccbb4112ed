//! In-memory storage with explicit durability boundaries.
//!
//! [`MemStorage`] separates *applied* state from *durable* state: writes go
//! to the applied copy and migrate to the durable copy only on
//! [`Storage::flush`]. [`MemStorage::crash`] discards everything applied
//! since the last flush — exactly what a power failure does to a page
//! cache — which lets the deterministic simulator exercise real
//! crash-recovery schedules without a filesystem.
//!
//! Durability is tracked with a **journal**: mutations are applied to the
//! live image and recorded; a flush replays only the journal onto the
//! durable image (O(delta), not O(state)), so simulations with large logs
//! and frequent group commits stay linear. Only a crash pays an O(state)
//! copy, and crashes are rare events in any schedule.

use crate::fault::{check_fault, FaultOp, FaultPlan};
use crate::metrics::LogMetrics;
use crate::{Recovered, Storage, StorageError};
use bytes::Bytes;
use zab_core::{Epoch, History, Txn, Zxid};

/// One copy of the stored state.
#[derive(Debug, Clone, Default)]
struct Image {
    accepted_epoch: Epoch,
    current_epoch: Epoch,
    /// Snapshot payload and the zxid it covers.
    snapshot: Option<(Bytes, Zxid)>,
    /// Log suffix beyond the snapshot, ascending by zxid.
    log: Vec<Txn>,
}

impl Image {
    fn base(&self) -> Zxid {
        self.snapshot.as_ref().map_or(Zxid::ZERO, |&(_, z)| z)
    }

    fn last_zxid(&self) -> Zxid {
        self.log.last().map_or(self.base(), |t| t.zxid)
    }

    fn apply(&mut self, op: &JournalOp) {
        match op {
            JournalOp::Append(txns) => self.log.extend(txns.iter().cloned()),
            JournalOp::Truncate(to) => self.log.retain(|t| t.zxid <= *to),
            JournalOp::SetAccepted(e) => self.accepted_epoch = *e,
            JournalOp::SetCurrent(e) => self.current_epoch = *e,
            JournalOp::Reset { snapshot, zxid } => {
                self.snapshot = Some((snapshot.clone(), *zxid));
                self.log.clear();
            }
            JournalOp::Compact { snapshot, zxid } => {
                self.snapshot = Some((snapshot.clone(), *zxid));
                self.log.retain(|t| t.zxid > *zxid);
            }
        }
    }
}

/// A buffered mutation awaiting flush.
#[derive(Debug, Clone)]
enum JournalOp {
    Append(Vec<Txn>),
    Truncate(Zxid),
    SetAccepted(Epoch),
    SetCurrent(Epoch),
    Reset { snapshot: Bytes, zxid: Zxid },
    Compact { snapshot: Bytes, zxid: Zxid },
}

/// In-memory [`Storage`] with crash simulation.
///
/// # Example
///
/// ```
/// use zab_core::{Epoch, Txn, Zxid};
/// use zab_log::{MemStorage, Storage};
///
/// let mut s = MemStorage::new();
/// s.append_txns(&[Txn::new(Zxid::new(Epoch(1), 1), &b"a"[..])]).unwrap();
/// // Not yet flushed: a crash loses it.
/// s.crash();
/// assert_eq!(s.recover().unwrap().history.len(), 0);
/// ```
#[derive(Debug, Default)]
pub struct MemStorage {
    durable: Image,
    applied: Image,
    journal: Vec<JournalOp>,
    /// Injected-fault schedule, if any (see [`crate::fault`]).
    faults: Option<FaultPlan>,
    /// Instrument bundle (standalone by default; see
    /// [`Storage::set_metrics`]).
    metrics: LogMetrics,
    /// Zxid range appended since the last flush, for fsync span
    /// attribution in the flight recorder.
    pending_flush_range: Option<(Zxid, Zxid)>,
}

impl MemStorage {
    /// Creates empty storage.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Installs (or clears) a deterministic fault-injection plan. Faults
    /// fire *before* the operation mutates anything, so a failed operation
    /// never half-applies.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// Mutable access to the installed fault plan (to arm one-shots).
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// Simulates a crash: applied-but-unflushed writes are lost.
    pub fn crash(&mut self) {
        self.applied = self.durable.clone();
        self.journal.clear();
    }

    /// Number of log entries currently applied (durable or not).
    pub fn log_len(&self) -> usize {
        self.applied.log.len()
    }

    fn record(&mut self, op: JournalOp) {
        self.applied.apply(&op);
        self.journal.push(op);
    }

    /// Fault check that accounts fired faults in the metrics bundle.
    fn check(&mut self, op: FaultOp) -> Result<(), StorageError> {
        check_fault(&mut self.faults, op).inspect_err(|_| self.metrics.injected_faults.inc())
    }
}

impl Storage for MemStorage {
    fn set_accepted_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError> {
        self.check(FaultOp::EpochWrite)?;
        self.record(JournalOp::SetAccepted(epoch));
        Ok(())
    }

    fn set_current_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError> {
        self.check(FaultOp::EpochWrite)?;
        self.record(JournalOp::SetCurrent(epoch));
        Ok(())
    }

    fn append_txns(&mut self, txns: &[Txn]) -> Result<(), StorageError> {
        self.check(FaultOp::Append)?;
        let start_us = self.metrics.clock.now_micros();
        let mut last = self.applied.last_zxid();
        for txn in txns {
            if txn.zxid <= last {
                return Err(StorageError::Corrupt(format!(
                    "append out of order: {} after {}",
                    txn.zxid, last
                )));
            }
            last = txn.zxid;
        }
        self.record(JournalOp::Append(txns.to_vec()));
        self.metrics.appends.inc();
        let end_us = self.metrics.clock.now_micros();
        self.metrics.append_latency_us.record(end_us.saturating_sub(start_us));
        if let (Some(first), Some(txn_last)) = (txns.first(), txns.last()) {
            self.metrics.tracer.span(
                zab_trace::Stage::LogAppend,
                first.zxid.0,
                txn_last.zxid.0,
                start_us,
                end_us,
            );
            self.pending_flush_range = Some(match self.pending_flush_range {
                None => (first.zxid, txn_last.zxid),
                Some((lo, hi)) => (lo.min(first.zxid), hi.max(txn_last.zxid)),
            });
        }
        Ok(())
    }

    fn truncate(&mut self, to: Zxid) -> Result<(), StorageError> {
        self.check(FaultOp::Truncate)?;
        self.record(JournalOp::Truncate(to));
        Ok(())
    }

    fn reset_to_snapshot(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError> {
        self.check(FaultOp::SnapshotReplace)?;
        let start_us = self.metrics.clock.now_micros();
        self.record(JournalOp::Reset { snapshot, zxid });
        self.flush()?;
        self.metrics.record_compaction(start_us);
        Ok(())
    }

    fn compact(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError> {
        self.check(FaultOp::Compact)?;
        let start_us = self.metrics.clock.now_micros();
        self.record(JournalOp::Compact { snapshot, zxid });
        self.flush()?;
        self.metrics.record_compaction(start_us);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.check(FaultOp::Flush)?;
        let start_us = self.metrics.clock.now_micros();
        for op in self.journal.drain(..) {
            self.durable.apply(&op);
        }
        self.metrics.fsyncs.inc();
        let end_us = self.metrics.clock.now_micros();
        self.metrics.flush_latency_us.record(end_us.saturating_sub(start_us));
        if let Some((lo, hi)) = self.pending_flush_range.take() {
            self.metrics.tracer.span(zab_trace::Stage::LogFsync, lo.0, hi.0, start_us, end_us);
        }
        Ok(())
    }

    fn recover(&self) -> Result<Recovered, StorageError> {
        let img = &self.applied;
        let history = History::from_recovered(img.base(), img.log.clone(), img.base());
        Ok(Recovered {
            accepted_epoch: img.accepted_epoch,
            current_epoch: img.current_epoch,
            history,
            snapshot: img.snapshot.as_ref().map(|(b, _)| b.clone()),
        })
    }

    fn set_metrics(&mut self, metrics: LogMetrics) {
        self.metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(e: u32, c: u32) -> Txn {
        Txn::new(Zxid::new(Epoch(e), c), vec![1])
    }

    #[test]
    fn flushed_data_survives_crash() {
        let mut s = MemStorage::new();
        s.set_accepted_epoch(Epoch(2)).unwrap();
        s.append_txns(&[txn(1, 1), txn(1, 2)]).unwrap();
        s.flush().unwrap();
        s.append_txns(&[txn(1, 3)]).unwrap();
        s.crash();
        let r = s.recover().unwrap();
        assert_eq!(r.accepted_epoch, Epoch(2));
        assert_eq!(r.history.last_zxid(), Zxid::new(Epoch(1), 2));
    }

    #[test]
    fn unflushed_epoch_lost_on_crash() {
        let mut s = MemStorage::new();
        s.set_current_epoch(Epoch(5)).unwrap();
        s.crash();
        assert_eq!(s.recover().unwrap().current_epoch, Epoch::ZERO);
    }

    #[test]
    fn out_of_order_append_rejected() {
        let mut s = MemStorage::new();
        s.append_txns(&[txn(1, 2)]).unwrap();
        assert!(matches!(s.append_txns(&[txn(1, 1)]), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn out_of_order_within_one_batch_rejected() {
        let mut s = MemStorage::new();
        assert!(matches!(s.append_txns(&[txn(1, 2), txn(1, 1)]), Err(StorageError::Corrupt(_))));
        // The failed batch must not have been half-applied.
        assert_eq!(s.log_len(), 0);
    }

    #[test]
    fn truncate_then_append_different_branch() {
        let mut s = MemStorage::new();
        s.append_txns(&[txn(1, 1), txn(1, 2)]).unwrap();
        s.truncate(Zxid::new(Epoch(1), 1)).unwrap();
        s.append_txns(&[txn(2, 1)]).unwrap();
        s.flush().unwrap();
        let r = s.recover().unwrap();
        let zxids: Vec<Zxid> = r.history.txns().iter().map(|t| t.zxid).collect();
        assert_eq!(zxids, vec![Zxid::new(Epoch(1), 1), Zxid::new(Epoch(2), 1)]);
    }

    #[test]
    fn unflushed_truncate_lost_on_crash() {
        let mut s = MemStorage::new();
        s.append_txns(&[txn(1, 1), txn(1, 2)]).unwrap();
        s.flush().unwrap();
        s.truncate(Zxid::new(Epoch(1), 1)).unwrap();
        s.crash();
        // The truncate never became durable: both entries survive.
        assert_eq!(s.recover().unwrap().history.len(), 2);
    }

    #[test]
    fn reset_to_snapshot_is_durable_immediately() {
        let mut s = MemStorage::new();
        s.append_txns(&[txn(1, 1)]).unwrap();
        s.reset_to_snapshot(Bytes::from_static(b"snap"), Zxid::new(Epoch(1), 50)).unwrap();
        s.crash();
        let r = s.recover().unwrap();
        assert_eq!(r.history.base(), Zxid::new(Epoch(1), 50));
        assert_eq!(r.snapshot.unwrap().as_ref(), b"snap");
        assert!(r.history.is_empty());
    }

    #[test]
    fn compactions_reach_injected_metrics() {
        let reg = zab_metrics::Registry::new();
        let mut s = MemStorage::new();
        s.set_metrics(LogMetrics::registered(&reg));
        s.append_txns(&[txn(1, 1), txn(1, 2)]).unwrap();
        s.compact(Bytes::from_static(b"snap"), Zxid::new(Epoch(1), 1)).unwrap();
        s.reset_to_snapshot(Bytes::from_static(b"snap"), Zxid::new(Epoch(1), 9)).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("log.compactions"), 2);
        assert_eq!(snap.histogram("log.compact_latency_us").map(|h| h.count), Some(2));
    }

    #[test]
    fn compact_keeps_suffix() {
        let mut s = MemStorage::new();
        s.append_txns(&[txn(1, 1), txn(1, 2), txn(1, 3)]).unwrap();
        s.compact(Bytes::from_static(b"snap@2"), Zxid::new(Epoch(1), 2)).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.history.base(), Zxid::new(Epoch(1), 2));
        assert_eq!(r.history.len(), 1);
        assert_eq!(r.history.last_zxid(), Zxid::new(Epoch(1), 3));
    }

    #[test]
    fn apply_maps_all_persist_requests() {
        use zab_core::PersistRequest as PR;
        let mut s = MemStorage::new();
        s.apply(&PR::AcceptedEpoch(Epoch(3))).unwrap();
        s.apply(&PR::CurrentEpoch(Epoch(3))).unwrap();
        s.apply(&PR::AppendTxns(vec![txn(3, 1)])).unwrap();
        s.apply(&PR::TruncateLog(Zxid::new(Epoch(3), 1))).unwrap();
        s.apply(&PR::ResetToSnapshot {
            snapshot: Bytes::from_static(b"s"),
            zxid: Zxid::new(Epoch(3), 10),
        })
        .unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.accepted_epoch, Epoch(3));
        assert_eq!(r.history.base(), Zxid::new(Epoch(3), 10));
    }

    #[test]
    fn injected_flush_failure_keeps_writes_volatile() {
        let mut s = MemStorage::new();
        s.append_txns(&[txn(1, 1)]).unwrap();
        s.flush().unwrap();
        let mut plan = FaultPlan::new();
        plan.arm(FaultOp::Flush);
        s.set_faults(Some(plan));
        s.append_txns(&[txn(1, 2)]).unwrap();
        assert!(matches!(s.flush(), Err(StorageError::Io(_))));
        // The failed fsync left the write volatile: a crash loses it, the
        // flushed prefix survives.
        s.crash();
        assert_eq!(s.recover().unwrap().history.last_zxid(), Zxid::new(Epoch(1), 1));
        // A retried flush (fault was one-shot) makes progress again.
        s.append_txns(&[txn(1, 2)]).unwrap();
        s.flush().unwrap();
        s.crash();
        assert_eq!(s.recover().unwrap().history.len(), 2);
    }

    #[test]
    fn injected_append_failure_leaves_state_consistent() {
        let mut s = MemStorage::new();
        let mut plan = FaultPlan::new();
        plan.arm(FaultOp::Append);
        s.set_faults(Some(plan));
        assert!(matches!(s.append_txns(&[txn(1, 1)]), Err(StorageError::Io(_))));
        assert_eq!(s.log_len(), 0);
        s.append_txns(&[txn(1, 1)]).unwrap();
        assert_eq!(s.log_len(), 1);
    }

    #[test]
    fn metrics_count_appends_flushes_and_injected_faults() {
        let reg = zab_metrics::Registry::new();
        let mut s = MemStorage::new();
        s.set_metrics(LogMetrics::registered(&reg));
        s.append_txns(&[txn(1, 1)]).unwrap();
        s.flush().unwrap();
        let mut plan = FaultPlan::new();
        plan.arm(FaultOp::Flush);
        s.set_faults(Some(plan));
        assert!(s.flush().is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("log.appends"), 1);
        assert_eq!(snap.counter("log.fsyncs"), 1);
        assert_eq!(snap.counter("log.injected_faults"), 1);
        assert_eq!(snap.histogram("log.append_latency_us").map(|h| h.count), Some(1));
        assert_eq!(snap.histogram("log.flush_latency_us").map(|h| h.count), Some(1));
    }

    #[test]
    fn repeated_flushes_are_cheap_and_correct() {
        // Many flushes over a growing log: durability tracks exactly.
        let mut s = MemStorage::new();
        for c in 1..=100u32 {
            s.append_txns(&[txn(1, c)]).unwrap();
            if c % 3 == 0 {
                s.flush().unwrap();
            }
        }
        s.crash();
        // Last flush covered c = 99.
        assert_eq!(s.recover().unwrap().history.len(), 99);
    }
}
