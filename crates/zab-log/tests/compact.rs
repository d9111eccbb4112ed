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
