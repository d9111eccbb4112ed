//! Compaction copies, never decodes: the compacted log is a byte range of
//! the old one, so bytes below the horizon are never read (rot there can
//! no longer fail-stop a compaction that is about to unlink them) and bytes
//! above it arrive unchanged (rot there is still refused at the next open).

use bytes::Bytes;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use zab_core::{Epoch, Txn, Zxid};
use zab_log::fault::flip_byte_in_file;
use zab_log::record::{log_record_len, RECORD_PREFIX_LEN};
use zab_log::{FileStorage, Storage, StorageError};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tempdir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("zab-log-compact-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn z(c: u32) -> Zxid {
    Zxid::new(Epoch(1), c)
}

/// Six records with payloads of different sizes (one empty).
fn txns() -> Vec<Txn> {
    (1..=6u32).map(|c| Txn::new(z(c), vec![c as u8; (c as usize * 5) % 17])).collect()
}

fn seeded(dir: &PathBuf) -> FileStorage {
    let mut s = FileStorage::open(dir).expect("open");
    s.append_txns(&txns()).expect("append");
    s.flush().expect("flush");
    s
}

/// File offset where the records up to and including `c` end.
fn end_of(c: u32) -> u64 {
    txns().iter().take(c as usize).map(log_record_len).sum()
}

#[test]
fn compacted_log_is_the_old_files_byte_range_and_reopens_to_the_same_state() {
    let dir = tempdir();
    let mut s = seeded(&dir);
    let before = std::fs::read(dir.join("log")).expect("read");
    s.compact(Bytes::from_static(b"state@4"), z(4)).expect("compact");

    let after = std::fs::read(dir.join("log")).expect("read");
    assert_eq!(after, before[end_of(4) as usize..], "suffix must be copied verbatim");
    // The live handle keeps appending where the copied suffix ends.
    s.append_txns(&[Txn::new(z(7), vec![7u8; 3])]).expect("append");
    s.flush().expect("flush");
    drop(s);

    let s = FileStorage::open(&dir).expect("reopen");
    assert_eq!(s.log_records(), 3);
    let r = s.recover().expect("recover");
    assert_eq!(r.history.base(), z(4));
    assert_eq!(r.snapshot.as_deref(), Some(&b"state@4"[..]));
    let zxids: Vec<Zxid> = r.history.txns().iter().map(|t| t.zxid).collect();
    assert_eq!(zxids, vec![z(5), z(6), z(7)]);
    assert_eq!(r.history.txns()[..2], txns()[4..]);
}

#[test]
fn rot_below_the_horizon_no_longer_fails_compaction() {
    let dir = tempdir();
    let mut s = seeded(&dir);
    // Rot a payload byte of record 2: intact records follow, so reading
    // the file back would refuse it as mid-file corruption.
    flip_byte_in_file(dir.join("log"), end_of(1) + RECORD_PREFIX_LEN as u64).expect("flip");
    assert!(matches!(s.recover(), Err(StorageError::MidFileCorrupt { .. })));
    // Compaction never looks at what it is about to unlink.
    s.compact(Bytes::from_static(b"state@4"), z(4)).expect("compact past the rot");
    drop(s);
    let r = FileStorage::open(&dir).expect("reopen").recover().expect("recover");
    assert_eq!(r.history.base(), z(4));
    assert_eq!(r.history.txns(), &txns()[4..]);
}

#[test]
fn rot_above_the_horizon_is_copied_and_refused_at_the_next_open() {
    let dir = tempdir();
    let mut s = seeded(&dir);
    // Rot a payload byte of record 5 (record 6 follows intact).
    flip_byte_in_file(dir.join("log"), end_of(4) + RECORD_PREFIX_LEN as u64).expect("flip");
    s.compact(Bytes::from_static(b"state@4"), z(4)).expect("compact");
    drop(s);
    match FileStorage::open(&dir) {
        Err(StorageError::MidFileCorrupt { offset }) => assert_eq!(offset, 0),
        other => panic!("expected MidFileCorrupt, got {other:?}"),
    }
}

#[test]
fn compacting_at_or_above_the_tail_leaves_an_empty_log() {
    for through in [z(6), z(9)] {
        let dir = tempdir();
        let mut s = seeded(&dir);
        s.compact(Bytes::from_static(b"all"), through).expect("compact");
        assert_eq!(s.log_records(), 0);
        assert_eq!(std::fs::metadata(dir.join("log")).expect("meta").len(), 0);
        // Appends resume right after the snapshot point.
        let next = Txn::new(Zxid(through.0 + 1), vec![1u8]);
        s.append_txns(std::slice::from_ref(&next)).expect("append");
        s.flush().expect("flush");
        drop(s);
        let r = FileStorage::open(&dir).expect("reopen").recover().expect("recover");
        assert_eq!(r.history.base(), through);
        assert_eq!(r.history.txns(), &[next]);
    }
}

#[test]
fn compacting_below_the_first_record_keeps_every_byte() {
    let dir = tempdir();
    {
        let mut s = FileStorage::open(&dir).expect("open");
        s.reset_to_snapshot(Bytes::from_static(b"state@2"), z(2)).expect("reset");
        s.append_txns(&txns()[3..]).expect("append");
        s.flush().expect("flush");
        let before = std::fs::read(dir.join("log")).expect("read");
        // Horizon 3 lies between the snapshot base and the first record (4).
        s.compact(Bytes::from_static(b"state@3"), z(3)).expect("compact");
        assert_eq!(std::fs::read(dir.join("log")).expect("read"), before);
        assert_eq!(s.log_records(), 3);
    }
    let r = FileStorage::open(&dir).expect("reopen").recover().expect("recover");
    assert_eq!(r.history.base(), z(3));
    assert_eq!(r.history.txns(), &txns()[3..]);
}

// The recycled layout: two log files swap names at each compaction and are
// never freed, so what follows the live records may be a stale tail.

/// Payload sizes vary from record to record, so a copied suffix seldom
/// ends on a record boundary of the bytes it overwrites.
fn varied(c: u32) -> Txn {
    Txn::new(z(c), vec![c as u8; (c as usize * 37) % 301])
}

fn append_flushed(s: &mut FileStorage, range: std::ops::RangeInclusive<u32>) {
    let batch: Vec<Txn> = range.map(varied).collect();
    s.append_txns(&batch).expect("append");
    s.flush().expect("flush");
}

/// `(name, inode)` of every `log*` file in `dir`, sorted by name.
fn log_inodes(dir: &std::path::Path) -> Vec<(String, u64)> {
    use std::os::unix::fs::MetadataExt;
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| e.expect("entry"))
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.metadata().expect("meta").ino()))
        .filter(|(name, _)| name.starts_with("log"))
        .collect();
    out.sort();
    out
}

#[test]
fn compactions_recycle_two_log_files_and_never_make_a_third() {
    let dir = tempdir();
    let mut s = FileStorage::open(&dir).expect("open");
    let mut inodes: Option<Vec<u64>> = None;
    let mut next = 1;
    for round in 0..6u32 {
        append_flushed(&mut s, next..=next + 40);
        next += 41;
        s.compact(Bytes::from_static(b"state"), z(next - 11)).expect("compact");
        let files = log_inodes(&dir);
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["log", "log.spare"], "round {round}");
        let mut now: Vec<u64> = files.iter().map(|&(_, ino)| ino).collect();
        now.sort_unstable();
        match &inodes {
            None => inodes = Some(now),
            Some(first) => assert_eq!(&now, first, "round {round}: a log inode changed"),
        }
    }
    drop(s);
    let r = FileStorage::open(&dir).expect("reopen").recover().expect("recover");
    assert_eq!(r.history.txns(), &(next - 10..next).map(varied).collect::<Vec<_>>()[..]);
}

#[test]
fn reopening_after_every_compaction_keeps_a_misaligned_stale_tail_untruncated() {
    let dir = tempdir();
    let mut next = 1;
    let mut stale_tails = 0;
    for round in 0..6u32 {
        let mut s = FileStorage::open(&dir).expect("open");
        append_flushed(&mut s, next..=next + 50);
        next += 51;
        let horizon = next - 1 - round * 3;
        s.compact(Bytes::from_static(b"state"), z(horizon)).expect("compact");
        drop(s);

        let reg = zab_metrics::Registry::new();
        let mut s = FileStorage::open(&dir).expect("reopen");
        s.set_metrics(zab_log::LogMetrics::registered(&reg));
        assert_eq!(reg.snapshot().counter("log.recovery_truncations"), 0, "round {round}");
        let r = s.recover().expect("recover");
        assert_eq!(r.history.base(), z(horizon));
        let want: Vec<Txn> = (horizon + 1..next).map(varied).collect();
        assert_eq!(r.history.txns(), &want[..], "round {round}");

        let bytes = std::fs::read(dir.join("log")).expect("read");
        let scan = zab_log::record::scan_log(bytes.clone());
        assert_eq!(scan.valid_len, want.iter().map(log_record_len).sum::<u64>());
        if scan.stale_tail {
            // Misaligned: the stale bytes do not start with an intact record.
            let tail = zab_log::record::scan_log(bytes[scan.valid_len as usize..].to_vec());
            assert!(tail.txns.is_empty(), "round {round}: stale tail starts on a record");
            stale_tails += 1;
        }
    }
    // The first compaction copies into a new file; every later one leaves
    // the old bytes of a recycled one behind the copied suffix.
    assert!(stale_tails >= 4, "only {stale_tails} rounds left a stale tail");
}

#[test]
fn a_torn_append_over_stale_bytes_recovers_the_flushed_prefix() {
    let golden = tempdir();
    let live: Vec<Txn> = {
        let mut s = FileStorage::open(&golden).expect("open");
        append_flushed(&mut s, 1..=60);
        s.compact(Bytes::from_static(b"state@50"), z(50)).expect("compact");
        append_flushed(&mut s, 61..=70);
        s.compact(Bytes::from_static(b"state@65"), z(65)).expect("compact");
        (66..=70).map(varied).collect()
    };
    let live_len: u64 = live.iter().map(log_record_len).sum();
    let file_len = std::fs::metadata(golden.join("log")).expect("meta").len();
    assert!(file_len > live_len + 1000, "the live records must sit in front of stale bytes");

    let torn = Txn::new(z(71), vec![0xC3; 200]);
    let mut record = zab_log::record::log_record_prefix(&torn).to_vec();
    record.extend_from_slice(&torn.data);
    let work = tempdir();
    for cut in 1..record.len() {
        clone_dir(&golden, &work);
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new().write(true).open(work.join("log")).expect("open");
            f.write_all_at(&record[..cut], live_len).expect("write");
        }
        let reg = zab_metrics::Registry::new();
        let mut s = FileStorage::open(&work).expect("open over a torn append");
        s.set_metrics(zab_log::LogMetrics::registered(&reg));
        assert_eq!(reg.snapshot().counter("log.recovery_truncations"), 0, "cut {cut}");
        let r = s.recover().expect("recover");
        assert_eq!(r.history.base(), z(65));
        assert_eq!(r.history.txns(), &live[..], "cut {cut}");
        if cut == record.len() / 2 {
            // The next append lands where the live records end.
            s.append_txns(std::slice::from_ref(&torn)).expect("append");
            s.flush().expect("flush");
            drop(s);
            let r = FileStorage::open(&work).expect("reopen").recover().expect("recover");
            assert_eq!(r.history.last_zxid(), z(71));
            assert_eq!(r.history.len(), live.len() + 1);
        }
    }
}

#[test]
fn a_crash_before_the_exchange_recovers_the_history_above_the_new_snapshot() {
    let dir = tempdir();
    let mut s = FileStorage::open(&dir).expect("open");
    append_flushed(&mut s, 1..=40);
    s.compact(Bytes::from_static(b"state@30"), z(30)).expect("compact");
    append_flushed(&mut s, 41..=60);
    let old_log = std::fs::read(dir.join("log")).expect("read log");
    let old_spare =
        std::fs::read(dir.join("log.spare")).expect("the first compaction made a spare");
    s.compact(Bytes::from_static(b"state@55"), z(55)).expect("compact");
    let suffix = std::fs::read(dir.join("log")).expect("read");
    drop(s);

    // The crash: the snapshot is durable, the spare half written, and the
    // exchange never happened.
    let mut half = old_spare.clone();
    let n = suffix.len() / 2;
    if half.len() < n {
        half.resize(n, 0);
    }
    half[..n].copy_from_slice(&suffix[..n]);
    std::fs::write(dir.join("log"), &old_log).expect("write log");
    std::fs::write(dir.join("log.spare"), &half).expect("write spare");

    let mut s = FileStorage::open(&dir).expect("open the crash state");
    let r = s.recover().expect("recover");
    assert_eq!(r.history.base(), z(55));
    assert_eq!(r.snapshot.as_deref(), Some(&b"state@55"[..]));
    assert_eq!(r.history.txns(), &(56..=60).map(varied).collect::<Vec<_>>()[..]);

    // The store carries on from there: the leftovers below the snapshot
    // go at the next compaction, over the half-written spare.
    append_flushed(&mut s, 61..=65);
    s.compact(Bytes::from_static(b"state@62"), z(62)).expect("compact");
    drop(s);
    let r = FileStorage::open(&dir).expect("reopen").recover().expect("recover");
    assert_eq!(r.history.base(), z(62));
    assert_eq!(r.history.txns(), &(63..=65).map(varied).collect::<Vec<_>>()[..]);
}

#[test]
fn a_directory_from_before_recycling_opens_and_loses_its_log_tmp() {
    // One `log` holding the suffix above a snapshot, and the `log.tmp` of
    // a compaction cut short before its rename.
    let dir = tempdir();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let encoded = |txns: &[Txn]| -> Vec<u8> {
        let mut out = Vec::new();
        for t in txns {
            out.extend_from_slice(&zab_log::record::log_record_prefix(t));
            out.extend_from_slice(&t.data);
        }
        out
    };
    let snap = zab_log::record::encode_snapshot(z(3), b"state@3");
    std::fs::write(dir.join("snapshot"), snap).expect("snapshot");
    std::fs::write(dir.join("log"), encoded(&txns()[3..])).expect("log");
    let tmp = encoded(&txns()[4..]);
    std::fs::write(dir.join("log.tmp"), &tmp[..tmp.len() / 2]).expect("log.tmp");

    let mut s = FileStorage::open(&dir).expect("open");
    assert!(!dir.join("log.tmp").exists(), "open must remove the leftover log.tmp");
    let r = s.recover().expect("recover");
    assert_eq!(r.history.base(), z(3));
    assert_eq!(r.history.txns(), &txns()[3..]);

    s.compact(Bytes::from_static(b"state@5"), z(5)).expect("compact");
    assert!(dir.join("log.spare").exists(), "the first compaction makes the spare");
    drop(s);
    let r = FileStorage::open(&dir).expect("reopen").recover().expect("recover");
    assert_eq!(r.history.base(), z(5));
    assert_eq!(r.history.txns(), &txns()[5..]);
}

#[test]
fn a_truncation_below_what_the_spare_holds_keeps_it_out_of_the_next_log() {
    for reopen in [false, true] {
        let dir = tempdir();
        let mut s = FileStorage::open(&dir).expect("open");
        append_flushed(&mut s, 1..=20);
        // The spare now holds records 1..=20, the log 11..=20.
        s.compact(Bytes::from_static(b"state@10"), z(10)).expect("compact");
        if reopen {
            drop(s);
            s = FileStorage::open(&dir).expect("reopen");
        }
        // Records 16..=20 are cut; the copies in the spare must go too, or
        // the next compaction would put them behind the copied suffix.
        s.truncate(z(15)).expect("truncate");
        s.flush().expect("flush");
        s.compact(Bytes::from_static(b"state@12"), z(12)).expect("compact");
        drop(s);
        let r = FileStorage::open(&dir).expect("reopen").recover().expect("recover");
        assert_eq!(r.history.base(), z(12));
        assert_eq!(r.history.txns(), &(13..=15).map(varied).collect::<Vec<_>>()[..]);
    }
}

#[test]
fn a_snapshot_below_the_last_record_leaves_no_record_above_it() {
    let dir = tempdir();
    let mut s = FileStorage::open(&dir).expect("open");
    append_flushed(&mut s, 1..=20);
    s.compact(Bytes::from_static(b"state@10"), z(10)).expect("compact");
    // SNAP to a divergent follower: the snapshot lies below its records,
    // and neither log file may keep one above it.
    s.reset_to_snapshot(Bytes::from_static(b"state@5"), z(5)).expect("reset");
    assert_eq!(s.log_records(), 0);
    drop(s);
    let mut s = FileStorage::open(&dir).expect("reopen");
    let r = s.recover().expect("recover");
    assert_eq!(r.history.base(), z(5));
    assert!(r.history.is_empty());
    append_flushed(&mut s, 6..=8);
    s.compact(Bytes::from_static(b"state@6"), z(6)).expect("compact");
    drop(s);
    let r = FileStorage::open(&dir).expect("reopen").recover().expect("recover");
    assert_eq!(r.history.txns(), &(7..=8).map(varied).collect::<Vec<_>>()[..]);
}

/// Copies every file of `src` into a fresh `dst`.
fn clone_dir(src: &std::path::Path, dst: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}
