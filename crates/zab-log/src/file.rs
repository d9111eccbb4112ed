//! File-backed storage.
//!
//! Layout inside the storage directory:
//!
//! - `log` — transaction records (see [`crate::record`]). The live records
//!   run from offset 0 to the end given by the rules in [`crate::record`];
//!   a stale tail of older records may follow, which appends overwrite.
//!   Truncation uses `set_len` on the live prefix, like ZooKeeper's
//!   `Zxid`-indexed log truncation.
//! - `log.spare` — the previous `log`, kept for the next compaction (the
//!   first compaction creates it). Neither log file is ever freed.
//!   Compaction copies the live suffix over the front of the spare,
//!   `fdatasync`s it, and swaps the two names with one
//!   `renameat2(RENAME_EXCHANGE)` and a directory fsync; the replaced log
//!   becomes the next spare. Once both files have grown to their working
//!   size, appends overwrite allocated blocks: their `fdatasync` commits no
//!   size change or block allocation, and no compaction frees blocks for
//!   the next `fdatasync` to wait behind.
//! - `epochs` — 12-byte checksummed record holding `acceptedEpoch` and
//!   `currentEpoch`; replaced atomically (write temp file, fsync, rename).
//! - `snapshot` — checksummed application snapshot; replaced atomically.
//!
//! Durability: writes are buffered in userspace and pushed down with
//! `sync_data` on [`Storage::flush`]. Epoch and snapshot replacements are
//! synchronous (they are rare and ordering-critical); log appends are the
//! hot path and honor the flush boundary so drivers can group-commit.
//! Compaction orders its steps snapshot durable → log synced → spare
//! synced → exchange → directory fsync. A crash before the exchange is
//! durable leaves an old `log` under a newer snapshot; its records at or
//! below the snapshot are ignored, and the next compaction drops them.
//!
//! A directory written before the log files were recycled (one `log`,
//! perhaps a `log.tmp` left by a compaction cut short) opens unchanged:
//! `open` removes the `log.tmp`, and the first compaction creates the
//! spare.

use crate::fault::{check_fault, FaultOp, FaultPlan};
use crate::metrics::LogMetrics;
use crate::record::{
    decode_epochs, decode_snapshot, encode_epochs, encode_snapshot, log_record_len,
    log_record_prefix, scan, scan_log, ReadBytes, Tail, RECORD_PREFIX_LEN,
};
use crate::{Recovered, Storage, StorageError};
use bytes::Bytes;
use std::ffi::{c_char, CString};
use std::fs::{self, File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, SeekFrom, Write};
use std::os::unix::ffi::OsStrExt;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use zab_core::{Epoch, History, Txn, Zxid};

/// File-backed [`Storage`] rooted at a directory.
///
/// # Example
///
/// ```no_run
/// use zab_log::{FileStorage, Storage};
/// use zab_core::{Epoch, Txn, Zxid};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = FileStorage::open("/var/lib/zab/node1")?;
/// store.append_txns(&[Txn::new(Zxid::new(Epoch(1), 1), &b"delta"[..])])?;
/// store.flush()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// The live log, its position at the end of the live records.
    log: File,
    /// `log.spare`, once it exists.
    spare: Option<File>,
    /// No intact record in the spare is above this zxid: the last zxid
    /// when the spare was retired, or at open the last zxid (by the
    /// invariant in [`crate::record`]).
    spare_high: Zxid,
    /// In-memory index: (zxid, end offset in file) per record, ascending.
    index: Vec<(Zxid, u64)>,
    accepted_epoch: Epoch,
    current_epoch: Epoch,
    snapshot: Option<(Bytes, Zxid)>,
    /// True when the log file has appends not yet `sync_data`'d.
    dirty: bool,
    /// Injected-fault schedule, if any (see [`crate::fault`]).
    faults: Option<FaultPlan>,
    /// Instrument bundle (standalone by default; see
    /// [`Storage::set_metrics`]).
    metrics: LogMetrics,
    /// Torn tails discarded during [`FileStorage::open`], latched so the
    /// count reaches whatever bundle is injected afterwards.
    recovery_truncations: u64,
    /// Zxid range appended since the last flush, for fsync span
    /// attribution in the flight recorder.
    pending_flush_range: Option<(Zxid, Zxid)>,
}

impl FileStorage {
    /// Opens (creating if needed) storage in `dir`, recovering any existing
    /// state. A torn log tail is truncated away and a stale one is kept;
    /// mid-file corruption is a hard error (see [`crate::record`]).
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StorageError::Corrupt`] /
    /// [`StorageError::MidFileCorrupt`] for unrecoverable corruption (bad
    /// epoch record, bad snapshot, rot in the log).
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStorage, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let (accepted_epoch, current_epoch) = match fs::read(dir.join("epochs")) {
            Ok(data) => decode_epochs(&data)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Epoch::ZERO, Epoch::ZERO),
            Err(e) => return Err(e.into()),
        };

        let snapshot = match fs::read(dir.join("snapshot")) {
            Ok(data) => {
                let (zxid, payload) = decode_snapshot(data)?;
                Some((payload, zxid))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        // Left by a compaction cut short before logs were recycled: the
        // `log` beside it is intact, and nothing writes this name now.
        match fs::remove_file(dir.join("log.tmp")) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let spare = match OpenOptions::new().read(true).write(true).open(dir.join("log.spare")) {
            Ok(f) => Some(f),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("log"))?;

        // Read through a bounded buffer: only the index of the live
        // records is kept. Records at or below the snapshot's zxid are
        // leftovers of a compaction cut short before its exchange: indexed
        // like any other, ignored by recover(), dropped by the next
        // compaction.
        let floor = snapshot.as_ref().map_or(Zxid::ZERO, |&(_, z)| z);
        let mut index = Vec::new();
        let scan = scan(&mut ReadBytes::new(&log), floor, |at, zxid, len| {
            index.push((zxid, at + len));
        })?;
        let recovery_truncations = match scan.tail {
            // Intact records continue past the damage: bit-rot, not a torn
            // write. Truncating here would drop committed transactions, so
            // recovery refuses and leaves the file for forensics.
            Tail::MidFileCorrupt(_) => {
                return Err(StorageError::MidFileCorrupt { offset: scan.live_len })
            }
            // Discard the torn tail, as ZooKeeper does on recovery.
            Tail::Torn => {
                log.set_len(scan.live_len)?;
                log.sync_data()?;
                1
            }
            Tail::Clean | Tail::Stale => 0,
        };
        // Appends go where the live records end, over any stale tail.
        log.seek(SeekFrom::Start(scan.live_len))?;

        let mut store = FileStorage {
            dir,
            log,
            spare,
            spare_high: Zxid::ZERO,
            index,
            accepted_epoch,
            current_epoch,
            snapshot,
            dirty: false,
            faults: None,
            metrics: LogMetrics::standalone(),
            recovery_truncations,
            pending_flush_range: None,
        };
        store.spare_high = store.last_zxid();
        Ok(store)
    }

    /// Installs (or clears) an injected-fault schedule. Subsequent storage
    /// operations consult the plan and fail with the injected error when it
    /// fires, before mutating anything.
    pub fn set_faults(&mut self, faults: Option<FaultPlan>) {
        self.faults = faults;
    }

    /// The installed fault plan, if any.
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of records currently in the log file.
    pub fn log_records(&self) -> usize {
        self.index.len()
    }

    /// Fault check that accounts fired faults in the metrics bundle.
    fn check(&mut self, op: FaultOp) -> Result<(), StorageError> {
        check_fault(&mut self.faults, op).inspect_err(|_| self.metrics.injected_faults.inc())
    }

    fn write_epochs(&mut self) -> Result<(), StorageError> {
        let data = encode_epochs(self.accepted_epoch, self.current_epoch);
        atomic_replace(&self.dir, "epochs", &data)
    }

    fn write_snapshot_file(&mut self) -> Result<(), StorageError> {
        if let Some((payload, zxid)) = &self.snapshot {
            let data = encode_snapshot(*zxid, payload);
            atomic_replace(&self.dir, "snapshot", &data)?;
        }
        Ok(())
    }

    fn snapshot_zxid(&self) -> Zxid {
        self.snapshot.as_ref().map_or(Zxid::ZERO, |&(_, z)| z)
    }

    fn last_zxid(&self) -> Zxid {
        self.index.last().map_or_else(|| self.snapshot_zxid(), |&(z, _)| z)
    }

    /// File offset where the indexed records end.
    fn log_end(&self) -> u64 {
        self.index.last().map_or(0, |&(_, end)| end)
    }

    /// Makes `snapshot` at `zxid` durable, then the records after byte
    /// `from` (a record boundary) the whole log.
    fn install_snapshot(
        &mut self,
        snapshot: Bytes,
        zxid: Zxid,
        from: u64,
    ) -> Result<(), StorageError> {
        let start_us = self.metrics.clock.now_micros();
        let last = self.last_zxid();
        self.snapshot = Some((snapshot, zxid));
        self.write_snapshot_file()?;
        if from == self.log_end() && zxid < last {
            // A snapshot below records this store holds (SNAP to a
            // divergent follower): recycling would leave records above it.
            self.empty_logs()?;
        } else {
            self.recycle_log(from, last)?;
        }
        self.metrics.record_compaction(start_us);
        Ok(())
    }

    /// Makes the log's own byte range `[from, end of records)` the whole
    /// live log. The range is copied as it is — never decoded, re-encoded
    /// or re-checksummed — over the front of the spare, so the cost is that
    /// of the retained suffix and whatever precedes it is not looked at.
    /// Then the two files swap names. `last` is the last zxid before the
    /// snapshot moved, which bounds every record the replaced log holds.
    fn recycle_log(&mut self, from: u64, last: Zxid) -> Result<(), StorageError> {
        let len = self.log_end() - from;
        if self.dirty {
            // No record reaches the spare that the log could still lose.
            self.log.sync_data()?;
        }
        let log_path = self.dir.join("log");
        let spare_path = self.dir.join("log.spare");
        let spare = match &mut self.spare {
            Some(f) => f,
            slot @ None => slot.insert(
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(&spare_path)?,
            ),
        };
        spare.seek(SeekFrom::Start(0))?;
        let mut src = File::open(&log_path)?;
        src.seek(SeekFrom::Start(from))?;
        if io::copy(&mut src.take(len), spare)? != len {
            return Err(StorageError::Corrupt(format!(
                "log is shorter than its index: no {len} bytes after offset {from}"
            )));
        }
        spare.sync_data()?;
        exchange(&log_path, &spare_path)?;
        std::mem::swap(&mut self.log, spare);
        self.spare_high = last;
        self.log.seek(SeekFrom::Start(len))?;
        let dropped = self.index.partition_point(|&(_, end)| end <= from);
        self.index.drain(..dropped);
        for (_, end) in &mut self.index {
            *end -= from;
        }
        self.dirty = false;
        sync_dir(&self.dir)
    }

    /// Empties the spare, durably, so it holds no record above any zxid.
    fn empty_spare(&mut self) -> Result<(), StorageError> {
        if let Some(spare) = &self.spare {
            spare.set_len(0)?;
            spare.sync_data()?;
        }
        self.spare_high = Zxid::ZERO;
        Ok(())
    }

    /// Empties both log files, durably.
    fn empty_logs(&mut self) -> Result<(), StorageError> {
        self.empty_spare()?;
        self.log.set_len(0)?;
        self.log.sync_data()?;
        self.log.seek(SeekFrom::Start(0))?;
        self.index.clear();
        self.dirty = false;
        Ok(())
    }
}

/// `renameat2(2)` flag: swap the two names in one atomic step.
const RENAME_EXCHANGE: u32 = 2;
/// `AT_FDCWD`: a relative path resolves against the working directory.
const AT_FDCWD: i32 = -100;

extern "C" {
    fn renameat2(
        olddirfd: i32,
        oldpath: *const c_char,
        newdirfd: i32,
        newpath: *const c_char,
        flags: u32,
    ) -> i32;
}

/// Atomically swaps the names `a` and `b`, both of which must exist.
fn exchange(a: &Path, b: &Path) -> io::Result<()> {
    let a = CString::new(a.as_os_str().as_bytes())?;
    let b = CString::new(b.as_os_str().as_bytes())?;
    // SAFETY: both arguments are NUL-terminated strings that outlive the
    // call, which reads them and keeps no pointer.
    let rc = unsafe { renameat2(AT_FDCWD, a.as_ptr(), AT_FDCWD, b.as_ptr(), RENAME_EXCHANGE) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Writes every buffer in `bufs` fully, preferring a single vectored
/// syscall. Partial writes resume from the exact buffer/offset reached.
fn write_all_vectored(f: &mut File, bufs: &[&[u8]]) -> io::Result<()> {
    let mut idx = 0; // first buffer not fully written
    let mut off = 0; // bytes of bufs[idx] already written
    while idx < bufs.len() {
        if off == bufs[idx].len() {
            // Skip empty buffers (and exactly-finished ones).
            idx += 1;
            off = 0;
            continue;
        }
        let mut iov = Vec::with_capacity(bufs.len() - idx);
        iov.push(IoSlice::new(&bufs[idx][off..]));
        iov.extend(bufs[idx + 1..].iter().map(|b| IoSlice::new(b)));
        let mut n = match f.write_vectored(&iov) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while idx < bufs.len() {
            let rem = bufs[idx].len() - off;
            if n < rem {
                off += n;
                break;
            }
            n -= rem;
            idx += 1;
            off = 0;
        }
    }
    Ok(())
}

/// Atomically replaces `name` in `dir` with `data` (tmp + fsync + rename).
fn atomic_replace(dir: &Path, name: &str, data: &[u8]) -> Result<(), StorageError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(data)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)?;
    Ok(())
}

/// Fsyncs the directory so renames are durable.
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)?.sync_data()?;
    Ok(())
}

impl Storage for FileStorage {
    fn set_accepted_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError> {
        self.check(FaultOp::EpochWrite)?;
        self.accepted_epoch = epoch;
        self.write_epochs()
    }

    fn set_current_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError> {
        self.check(FaultOp::EpochWrite)?;
        self.current_epoch = epoch;
        self.write_epochs()
    }

    fn append_txns(&mut self, txns: &[Txn]) -> Result<(), StorageError> {
        self.check(FaultOp::Append)?;
        if txns.is_empty() {
            return Ok(());
        }
        let mut last = self.last_zxid();
        for txn in txns {
            if txn.zxid <= last {
                return Err(StorageError::Corrupt(format!(
                    "append out of order: {} after {}",
                    txn.zxid, last
                )));
            }
            last = txn.zxid;
        }
        // Group commit without concatenation: the whole batch goes down as
        // one vectored write chaining [prefix, payload] per record, so the
        // refcounted payloads are never copied into a staging buffer.
        let start_us = self.metrics.clock.now_micros();
        let prefixes: Vec<[u8; RECORD_PREFIX_LEN]> = txns.iter().map(log_record_prefix).collect();
        let mut bufs: Vec<&[u8]> = Vec::with_capacity(txns.len() * 2);
        for (prefix, txn) in prefixes.iter().zip(txns) {
            bufs.push(prefix);
            bufs.push(&txn.data);
        }
        write_all_vectored(&mut self.log, &bufs)?;
        let mut end = self.log_end();
        for txn in txns {
            end += log_record_len(txn);
            self.index.push((txn.zxid, end));
        }
        self.dirty = true;
        self.metrics.appends.inc();
        let end_us = self.metrics.clock.now_micros();
        self.metrics.append_latency_us.record(end_us.saturating_sub(start_us));
        if let (Some(first), Some(last_txn)) = (txns.first(), txns.last()) {
            self.metrics.tracer.span(
                zab_trace::Stage::LogAppend,
                first.zxid.0,
                last_txn.zxid.0,
                start_us,
                end_us,
            );
            self.pending_flush_range = Some(match self.pending_flush_range {
                None => (first.zxid, last_txn.zxid),
                Some((lo, hi)) => (lo.min(first.zxid), hi.max(last_txn.zxid)),
            });
        }
        Ok(())
    }

    fn truncate(&mut self, to: Zxid) -> Result<(), StorageError> {
        self.check(FaultOp::Truncate)?;
        let keep = self.index.partition_point(|&(z, _)| z <= to);
        let (last, new_len) = match keep.checked_sub(1) {
            Some(i) => self.index[i],
            None => (self.snapshot_zxid(), 0),
        };
        if self.spare_high > last {
            // The spare may hold a record about to be cut: it must not
            // outlive the cut (invariant in `crate::record`).
            self.empty_spare()?;
        }
        self.index.truncate(keep);
        self.log.set_len(new_len)?;
        self.log.seek(SeekFrom::Start(new_len))?;
        self.dirty = true;
        Ok(())
    }

    fn reset_to_snapshot(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError> {
        self.check(FaultOp::SnapshotReplace)?;
        self.install_snapshot(snapshot, zxid, self.log_end())
    }

    fn compact(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError> {
        self.check(FaultOp::Compact)?;
        // The suffix beyond the compaction point is a byte range of the
        // file: the index already knows where every record ends.
        let below = self.index.partition_point(|&(z, _)| z <= zxid);
        let cut = if below == 0 { 0 } else { self.index[below - 1].1 };
        self.install_snapshot(snapshot, zxid, cut)
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.check(FaultOp::Flush)?;
        if self.dirty {
            // Span: the fsync is the hot durability barrier group commit
            // amortizes; its latency distribution is the paper's disk cost.
            let start_us = self.metrics.clock.now_micros();
            let span = zab_metrics::Span::start(
                std::sync::Arc::clone(&self.metrics.flush_latency_us),
                std::sync::Arc::clone(&self.metrics.clock),
            );
            self.log.sync_data()?;
            self.dirty = false;
            self.metrics.fsyncs.inc();
            span.finish();
            if let Some((lo, hi)) = self.pending_flush_range.take() {
                self.metrics.tracer.span(
                    zab_trace::Stage::LogFsync,
                    lo.0,
                    hi.0,
                    start_us,
                    self.metrics.clock.now_micros(),
                );
            }
        }
        Ok(())
    }

    fn recover(&self) -> Result<Recovered, StorageError> {
        let base = self.snapshot_zxid();
        // Re-scan the live records as the file holds them; a stale tail
        // after them is not read. The scan hands back payloads as views of
        // this one read buffer.
        let mut data = vec![0; self.log_end() as usize];
        self.log.read_exact_at(&mut data, 0)?;
        let scan = scan_log(data);
        if scan.resume_after_damage.is_some() {
            return Err(StorageError::MidFileCorrupt { offset: scan.valid_len });
        }
        let txns: Vec<Txn> = scan.txns.into_iter().filter(|t| t.zxid > base).collect();
        let history = History::from_recovered(base, txns, base);
        Ok(Recovered {
            accepted_epoch: self.accepted_epoch,
            current_epoch: self.current_epoch,
            history,
            snapshot: self.snapshot.as_ref().map(|(b, _)| b.clone()),
        })
    }

    fn set_metrics(&mut self, metrics: LogMetrics) {
        // Torn-tail truncations happened in open(), before any bundle
        // could be injected; surface them now.
        metrics.recovery_truncations.add(self.recovery_truncations);
        self.metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_log_record;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tempdir() -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("zab-log-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn txn(e: u32, c: u32) -> Txn {
        Txn::new(Zxid::new(Epoch(e), c), vec![e as u8, c as u8])
    }

    #[test]
    fn fresh_open_is_empty() {
        let dir = tempdir();
        let s = FileStorage::open(&dir).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.accepted_epoch, Epoch::ZERO);
        assert!(r.history.is_empty());
        assert!(r.snapshot.is_none());
    }

    #[test]
    fn reopen_recovers_everything() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.set_accepted_epoch(Epoch(2)).unwrap();
            s.set_current_epoch(Epoch(2)).unwrap();
            s.append_txns(&[txn(1, 1), txn(1, 2), txn(2, 1)]).unwrap();
            s.flush().unwrap();
        }
        let s = FileStorage::open(&dir).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.accepted_epoch, Epoch(2));
        assert_eq!(r.current_epoch, Epoch(2));
        assert_eq!(r.history.len(), 3);
        assert_eq!(r.history.last_zxid(), Zxid::new(Epoch(2), 1));
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_txns(&[txn(1, 1), txn(1, 2)]).unwrap();
            s.flush().unwrap();
        }
        // Simulate a torn write: append half a record.
        let mut partial = encode_log_record(&txn(1, 3));
        partial.truncate(partial.len() / 2);
        let mut f = OpenOptions::new().append(true).open(dir.join("log")).unwrap();
        f.write_all(&partial).unwrap();
        drop(f);

        let s = FileStorage::open(&dir).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.history.len(), 2);
        assert_eq!(r.history.last_zxid(), Zxid::new(Epoch(1), 2));
    }

    #[test]
    fn torn_tail_truncation_reaches_injected_metrics() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_txns(&[txn(1, 1)]).unwrap();
            s.flush().unwrap();
        }
        let mut partial = encode_log_record(&txn(1, 2));
        partial.truncate(partial.len() / 2);
        let mut f = OpenOptions::new().append(true).open(dir.join("log")).unwrap();
        f.write_all(&partial).unwrap();
        drop(f);

        let reg = zab_metrics::Registry::new();
        let mut s = FileStorage::open(&dir).unwrap();
        // The truncation happened in open(); injection latches it.
        s.set_metrics(LogMetrics::registered(&reg));
        assert_eq!(reg.snapshot().counter("log.recovery_truncations"), 1);
        s.append_txns(&[txn(1, 2)]).unwrap();
        s.flush().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("log.appends"), 1);
        assert_eq!(snap.counter("log.fsyncs"), 1);
        assert_eq!(snap.histogram("log.flush_latency_us").map(|h| h.count), Some(1));
    }

    #[test]
    fn compactions_reach_injected_metrics() {
        let dir = tempdir();
        let reg = zab_metrics::Registry::new();
        let mut s = FileStorage::open(&dir).unwrap();
        s.set_metrics(LogMetrics::registered(&reg));
        s.append_txns(&[txn(1, 1), txn(1, 2)]).unwrap();
        s.compact(Bytes::from_static(b"state@1"), Zxid::new(Epoch(1), 1)).unwrap();
        s.reset_to_snapshot(Bytes::from_static(b"state@9"), Zxid::new(Epoch(1), 9)).unwrap();
        // A refused compaction is not counted.
        let mut plan = crate::fault::FaultPlan::new();
        plan.arm(FaultOp::Compact);
        s.set_faults(Some(plan));
        assert!(s.compact(Bytes::from_static(b"x"), Zxid::new(Epoch(1), 9)).is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("log.compactions"), 2);
        assert_eq!(snap.histogram("log.compact_latency_us").map(|h| h.count), Some(2));
    }

    #[test]
    fn torn_write_recovery_payloads_byte_identical() {
        // Payloads spanning the interesting sizes: empty, sub-block, and
        // larger than the 64 KiB read granularity.
        let payloads: Vec<Vec<u8>> =
            vec![Vec::new(), vec![0x5A; 1024], (0..64 * 1024).map(|i| (i % 251) as u8).collect()];
        let txns: Vec<Txn> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| Txn::new(Zxid::new(Epoch(1), i as u32 + 1), p.clone()))
            .collect();

        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_txns(&txns).unwrap();
            s.flush().unwrap();
        }
        // Tear a fourth record mid-payload.
        let mut partial = encode_log_record(&Txn::new(Zxid::new(Epoch(1), 4), vec![0xEE; 4096]));
        partial.truncate(partial.len() - 1000);
        let mut f = OpenOptions::new().append(true).open(dir.join("log")).unwrap();
        f.write_all(&partial).unwrap();
        drop(f);

        let s = FileStorage::open(&dir).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.history.len(), txns.len());
        for (recovered, original) in r.history.txns().iter().zip(&txns) {
            assert_eq!(recovered.zxid, original.zxid);
            assert_eq!(recovered.data, original.data, "payload differs at {}", original.zxid);
        }
    }

    #[test]
    fn truncate_then_reopen() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_txns(&[txn(1, 1), txn(1, 2), txn(1, 3)]).unwrap();
            s.truncate(Zxid::new(Epoch(1), 1)).unwrap();
            s.append_txns(&[txn(2, 1)]).unwrap();
            s.flush().unwrap();
        }
        let s = FileStorage::open(&dir).unwrap();
        let r = s.recover().unwrap();
        let zxids: Vec<Zxid> = r.history.txns().iter().map(|t| t.zxid).collect();
        assert_eq!(zxids, vec![Zxid::new(Epoch(1), 1), Zxid::new(Epoch(2), 1)]);
    }

    #[test]
    fn snapshot_reset_then_reopen() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_txns(&[txn(1, 1)]).unwrap();
            s.flush().unwrap();
            s.reset_to_snapshot(Bytes::from_static(b"full state"), Zxid::new(Epoch(1), 40))
                .unwrap();
            s.append_txns(&[txn(1, 41)]).unwrap();
            s.flush().unwrap();
        }
        let s = FileStorage::open(&dir).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.history.base(), Zxid::new(Epoch(1), 40));
        assert_eq!(r.history.len(), 1);
        assert_eq!(r.snapshot.unwrap().as_ref(), b"full state");
    }

    #[test]
    fn compact_retains_suffix_across_reopen() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_txns(&[txn(1, 1), txn(1, 2), txn(1, 3)]).unwrap();
            s.flush().unwrap();
            s.compact(Bytes::from_static(b"state@2"), Zxid::new(Epoch(1), 2)).unwrap();
        }
        let s = FileStorage::open(&dir).unwrap();
        assert_eq!(s.log_records(), 1);
        let r = s.recover().unwrap();
        assert_eq!(r.history.base(), Zxid::new(Epoch(1), 2));
        assert_eq!(r.history.last_zxid(), Zxid::new(Epoch(1), 3));
    }

    #[test]
    fn out_of_order_append_rejected() {
        let dir = tempdir();
        let mut s = FileStorage::open(&dir).unwrap();
        s.append_txns(&[txn(1, 5)]).unwrap();
        assert!(matches!(s.append_txns(&[txn(1, 4)]), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_txns(&[txn(1, 1), txn(1, 2), txn(1, 3)]).unwrap();
            s.flush().unwrap();
        }
        // Rot one payload byte of the *middle* record: records resume
        // after the damage, so recovery must refuse, not truncate.
        let first_len = encode_log_record(&txn(1, 1)).len() as u64;
        crate::fault::flip_byte_in_file(dir.join("log"), first_len + RECORD_PREFIX_LEN as u64)
            .unwrap();
        match FileStorage::open(&dir) {
            Err(StorageError::MidFileCorrupt { offset }) => assert_eq!(offset, first_len),
            other => panic!("expected MidFileCorrupt, got {other:?}"),
        }
        // The file was left untouched for forensics.
        let len = fs::metadata(dir.join("log")).unwrap().len();
        assert_eq!(len, 3 * first_len);
    }

    #[test]
    fn rot_in_final_record_truncates_like_a_torn_tail() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_txns(&[txn(1, 1), txn(1, 2)]).unwrap();
            s.flush().unwrap();
        }
        let record_len = encode_log_record(&txn(1, 1)).len() as u64;
        crate::fault::flip_byte_in_file(dir.join("log"), record_len + RECORD_PREFIX_LEN as u64)
            .unwrap();
        // Nothing intact follows the damage: indistinguishable from a torn
        // write, so the safe recovery is to drop it.
        let s = FileStorage::open(&dir).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.history.len(), 1);
        assert_eq!(r.history.last_zxid(), Zxid::new(Epoch(1), 1));
    }

    #[test]
    fn injected_faults_fire_on_file_storage() {
        let dir = tempdir();
        let mut s = FileStorage::open(&dir).unwrap();
        let mut plan = crate::fault::FaultPlan::new();
        plan.arm(FaultOp::Append);
        plan.arm(FaultOp::Flush);
        s.set_faults(Some(plan));
        assert!(matches!(s.append_txns(&[txn(1, 1)]), Err(StorageError::Io(_))));
        // Injection happens before any mutation: the log is still empty.
        assert_eq!(s.log_records(), 0);
        assert!(matches!(s.flush(), Err(StorageError::Io(_))));
        // One-shot arms consumed: retries succeed.
        s.append_txns(&[txn(1, 1)]).unwrap();
        s.flush().unwrap();
        assert!(!s.faults_mut().unwrap().armed());
    }

    #[test]
    fn corrupt_epoch_file_is_detected() {
        let dir = tempdir();
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.set_accepted_epoch(Epoch(3)).unwrap();
        }
        let mut data = fs::read(dir.join("epochs")).unwrap();
        data[0] ^= 0xFF;
        fs::write(dir.join("epochs"), &data).unwrap();
        assert!(matches!(FileStorage::open(&dir), Err(StorageError::Corrupt(_))));
    }
}
