//! Exhaustive bit-rot sweep: flip one byte at *every* position of a
//! synced log and reopen. Recovery must either truncate safely (damage
//! confined to the final record — a torn tail) or refuse with a hard
//! error (mid-file corruption) — it must never deliver a payload, zxid,
//! or ordering that differs from what was written.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use zab_core::{Epoch, Txn, Zxid};
use zab_log::fault::flip_byte_in_file;
use zab_log::{FileStorage, Storage, StorageError};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tempdir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("zab-log-corrupt-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies every file of `src` into a fresh `dst`.
fn clone_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}

#[test]
fn every_single_byte_flip_truncates_safely_or_errors() {
    // Golden log: varying payload sizes so flips land in every field kind
    // (len, crc, zxid, dlen, payload — including a zero-length payload).
    let golden_dir = tempdir();
    let txns: Vec<Txn> = (1..=8u32)
        .map(|c| Txn::new(Zxid::new(Epoch(1), c), vec![c as u8; (c as usize * 7) % 23]))
        .collect();
    {
        let mut s = FileStorage::open(&golden_dir).expect("open");
        s.append_txns(&txns).expect("append");
        s.flush().expect("flush");
    }
    let log_len = std::fs::metadata(golden_dir.join("log")).expect("meta").len();
    let last_record_start =
        log_len - (zab_log::record::log_record_len(txns.last().expect("nonempty")));

    let work_dir = tempdir();
    let mut truncated = 0u64;
    let mut refused = 0u64;
    for offset in 0..log_len {
        clone_dir(&golden_dir, &work_dir);
        flip_byte_in_file(work_dir.join("log"), offset).expect("flip");

        match FileStorage::open(&work_dir) {
            Ok(s) => {
                // Recovery accepted the log: whatever it kept must be an
                // exact prefix of what was written — same zxids, same
                // payloads, nothing reordered or altered.
                let r = s.recover().expect("recover after open");
                let got = r.history.txns();
                assert!(got.len() < txns.len(), "offset {offset}: flip went undetected");
                assert_eq!(
                    got,
                    &txns[..got.len()],
                    "offset {offset}: recovered log is not an exact prefix"
                );
                // Only damage in the final record is truncatable.
                assert!(
                    offset >= last_record_start,
                    "offset {offset}: truncated mid-file damage (data loss!)"
                );
                assert_eq!(got.len(), txns.len() - 1);
                truncated += 1;
            }
            Err(StorageError::MidFileCorrupt { offset: reported }) => {
                // Refused: correct for any flip before the final record.
                assert!(
                    offset < last_record_start,
                    "offset {offset}: final-record damage misreported as mid-file"
                );
                assert!(
                    reported <= offset,
                    "offset {offset}: damage reported at {reported}, after the flip"
                );
                refused += 1;
            }
            Err(e) => panic!("offset {offset}: unexpected error {e}"),
        }
    }

    // The sweep must have exercised both outcomes.
    assert_eq!(refused, last_record_start, "every pre-final-record flip must refuse");
    assert_eq!(truncated, log_len - last_record_start, "every final-record flip must truncate");

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
}

/// Same sweep against a log that sits on top of a snapshot (a compacted
/// store): the snapshot must keep recovery anchored and the same
/// truncate-or-refuse guarantee must hold for the suffix log.
#[test]
fn byte_flips_after_compaction_still_truncate_or_error() {
    let golden_dir = tempdir();
    let txns: Vec<Txn> =
        (1..=6u32).map(|c| Txn::new(Zxid::new(Epoch(2), c), vec![0xA0 | c as u8; 11])).collect();
    {
        let mut s = FileStorage::open(&golden_dir).expect("open");
        s.append_txns(&txns).expect("append");
        s.compact(bytes::Bytes::from_static(b"snap"), txns[2].zxid).expect("compact");
        s.flush().expect("flush");
    }
    let suffix = &txns[3..];
    let log_len = std::fs::metadata(golden_dir.join("log")).expect("meta").len();
    let last_record_start =
        log_len - zab_log::record::log_record_len(suffix.last().expect("nonempty"));

    let work_dir = tempdir();
    for offset in 0..log_len {
        clone_dir(&golden_dir, &work_dir);
        flip_byte_in_file(work_dir.join("log"), offset).expect("flip");
        match FileStorage::open(&work_dir) {
            Ok(s) => {
                let r = s.recover().expect("recover after open");
                assert_eq!(r.history.base(), txns[2].zxid, "snapshot anchor lost");
                let got = r.history.txns();
                assert_eq!(got, &suffix[..got.len()], "offset {offset}: not a prefix");
                assert!(offset >= last_record_start, "offset {offset}: truncated mid-file");
            }
            Err(StorageError::MidFileCorrupt { .. }) => {
                assert!(offset < last_record_start, "offset {offset}: misreported tail");
            }
            Err(e) => panic!("offset {offset}: unexpected error {e}"),
        }
    }

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
}

/// Same sweep over the live records of a recycled log: the second
/// compaction copies the suffix over the front of the first log file, so
/// intact stale records follow the live ones. A flip in the final live
/// record now ends the log at a stale tail (kept, not truncated); a flip
/// before it must still refuse, and nothing stale may be recovered.
#[test]
fn byte_flips_in_the_live_records_of_a_recycled_log_still_truncate_or_error() {
    let golden_dir = tempdir();
    let txns: Vec<Txn> = (1..=40u32)
        .map(|c| Txn::new(Zxid::new(Epoch(3), c), vec![c as u8; (c as usize * 11) % 29]))
        .collect();
    {
        let mut s = FileStorage::open(&golden_dir).expect("open");
        s.append_txns(&txns[..30]).expect("append");
        s.compact(bytes::Bytes::from_static(b"snap@20"), txns[19].zxid).expect("compact");
        s.append_txns(&txns[30..]).expect("append");
        s.compact(bytes::Bytes::from_static(b"snap@33"), txns[32].zxid).expect("compact");
        s.flush().expect("flush");
    }
    let live = &txns[33..];
    let live_len: u64 = live.iter().map(zab_log::record::log_record_len).sum();
    let file_len = std::fs::metadata(golden_dir.join("log")).expect("meta").len();
    assert!(file_len > live_len, "the recycled log must carry a stale tail");
    let last_record_start =
        live_len - zab_log::record::log_record_len(live.last().expect("nonempty"));

    let work_dir = tempdir();
    for offset in 0..live_len {
        clone_dir(&golden_dir, &work_dir);
        flip_byte_in_file(work_dir.join("log"), offset).expect("flip");
        match FileStorage::open(&work_dir) {
            Ok(s) => {
                let r = s.recover().expect("recover after open");
                assert_eq!(r.history.base(), txns[32].zxid, "snapshot anchor lost");
                let got = r.history.txns();
                assert_eq!(got, &live[..live.len() - 1], "offset {offset}: not the prefix");
                assert!(offset >= last_record_start, "offset {offset}: truncated mid-file");
                let len = std::fs::metadata(work_dir.join("log")).expect("meta").len();
                assert_eq!(len, file_len, "offset {offset}: the stale tail was cut");
            }
            Err(StorageError::MidFileCorrupt { offset: reported }) => {
                assert!(offset < last_record_start, "offset {offset}: misreported tail");
                assert!(reported <= offset, "offset {offset}: reported at {reported}");
            }
            Err(e) => panic!("offset {offset}: unexpected error {e}"),
        }
    }

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
}
