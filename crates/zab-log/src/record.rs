//! On-disk record formats shared by the file-backed stores, and the rules
//! that find where a log ends.
//!
//! **Log record** (the `log` file, and its recycled twin `log.spare`; see
//! [`crate::file`]):
//!
//! ```text
//! +-----------+-------------+----------------------------+
//! | len: u32  | crc32c: u32 | body: zxid u64 + payload   |
//! +-----------+-------------+----------------------------+
//! ```
//!
//! identical to a `zab-wire` frame whose payload is an encoded
//! [`zab_core::Txn`].
//!
//! **Where the log ends.** Compaction recycles the two log files: it
//! copies the live suffix over the front of the older one, which keeps its
//! old bytes after that point. So the bytes after the last record are not
//! always garbage; they can be a *stale tail* of intact older records. The
//! live log is the run of intact records from offset 0 in which every
//! zxid is above its predecessor's. It ends at the first record that is
//! damaged or not above its predecessor. What follows is probed with
//! every intact record skipped whole, so a stale tail costs about one
//! checksum pass. The *floor* is the last live zxid, or the snapshot's
//! when that is higher:
//!
//! - nothing follows: a clean end;
//! - an intact record above the floor follows: damage cut the live records
//!   short and intact ones resume after it. This is **mid-file
//!   corruption**; truncating would drop committed transactions, so
//!   recovery refuses ([`crate::StorageError::MidFileCorrupt`]);
//! - intact records follow, none above the floor: a **stale tail**. It is
//!   left as it is, not counted as a truncation, and the next append
//!   overwrites it;
//! - nothing intact follows: a **torn tail** (a partial final write, or
//!   damage confined to the final record). It is cut off, matching
//!   ZooKeeper's transaction-log recovery.
//!
//! **Invariant.** Every intact stale record, in the log or in the spare,
//! has a zxid at or below the floor. So a stale record can neither extend
//! the live log nor read as rot. It holds because:
//!
//! - a file is read again only after an exchange has put a copied suffix,
//!   and then newer appends, ahead of its old bytes. Its old records are
//!   at or below the last zxid of the store that retired it, which is at
//!   or below the last live zxid now: the copied suffix ends at the same
//!   record, and an empty suffix leaves a snapshot at or above it. The log
//!   is synced before the copy, so no record reaches the spare that the
//!   log could still lose in a crash;
//! - `truncate` keeps `set_len`, so no record it cuts survives in the log.
//!   A spare that may hold one (it was retired above the new last zxid) is
//!   emptied and synced before the log is cut;
//! - a new epoch's zxids exceed every older one, so what a follower
//!   appends after a truncation lies above anything it cut;
//! - a snapshot installed below the last zxid (SNAP to a divergent
//!   follower) empties both files instead of recycling them.
//!
//! **Epoch record** (atomically replaced `epochs` file):
//!
//! ```text
//! +-------------------+------------------+-------------+
//! | accepted: u32 LE  | current: u32 LE  | crc32c: u32 |
//! +-------------------+------------------+-------------+
//! ```
//!
//! **Snapshot file** (atomically replaced `snapshot` file):
//!
//! ```text
//! +--------------+--------------------+-------------+
//! | zxid: u64 LE | payload (to EOF-4) | crc32c: u32 |
//! +--------------+--------------------+-------------+
//! ```

use bytes::Bytes;
use std::io::{self, Read};
use zab_core::{Epoch, Txn, Zxid};
use zab_wire::codec::{WireRead, WireWrite};
use zab_wire::crc32c::crc32c;

use crate::StorageError;

/// Fixed-size prefix of a log record: the frame header (len + crc)
/// followed by the body's zxid and payload-length fields. A record on
/// disk is this prefix immediately followed by the raw payload bytes, so
/// an append can hand `[prefix, payload]` to a vectored write without
/// assembling the record in a contiguous buffer first.
pub const RECORD_PREFIX_LEN: usize = zab_wire::frame::HEADER_LEN + 12;

/// Computes the 20-byte record prefix for `txn`. The full record is this
/// prefix followed by `txn.data` verbatim.
pub fn log_record_prefix(txn: &Txn) -> [u8; RECORD_PREFIX_LEN] {
    let zxid = txn.zxid.0.to_le_bytes();
    let dlen = (txn.data.len() as u32).to_le_bytes();
    let header = zab_wire::frame::frame_header(&[&zxid, &dlen, &txn.data]);
    let mut out = [0u8; RECORD_PREFIX_LEN];
    out[..8].copy_from_slice(&header);
    out[8..16].copy_from_slice(&zxid);
    out[16..].copy_from_slice(&dlen);
    out
}

/// On-disk size of the record for `txn`.
pub fn log_record_len(txn: &Txn) -> u64 {
    (RECORD_PREFIX_LEN + txn.data.len()) as u64
}

/// Encodes one transaction as a contiguous checksummed log record (the
/// payload is copied exactly once, into the returned buffer).
#[cfg(test)]
pub(crate) fn encode_log_record(txn: &Txn) -> Vec<u8> {
    let prefix = log_record_prefix(txn);
    let mut out = Vec::with_capacity(RECORD_PREFIX_LEN + txn.data.len());
    out.extend_from_slice(&prefix);
    out.extend_from_slice(&txn.data);
    out
}

/// Result of scanning a log byte stream.
#[derive(Debug, PartialEq, Eq)]
pub struct LogScan {
    /// The live records, in file order.
    pub txns: Vec<Txn>,
    /// Bytes of the live records; everything after them is stale or
    /// damaged.
    pub valid_len: u64,
    /// True if bytes follow the live records and they are not a stale
    /// tail: a torn tail, or mid-file corruption when
    /// `resume_after_damage` is set.
    pub torn_tail: bool,
    /// True if the bytes after the live records hold intact records and
    /// none above the last live one: a stale tail left by recycling (see
    /// the module docs), kept as it is.
    pub stale_tail: bool,
    /// The byte offset of the first intact record after the live ones
    /// whose zxid is above the last live one. `Some` means damage cut the
    /// live records short — mid-file corruption (bit-rot) — and truncating
    /// at `valid_len` would drop committed transactions, so recovery must
    /// refuse. `None` with `torn_tail` means an ordinary torn tail, safe
    /// to truncate.
    pub resume_after_damage: Option<u64>,
}

/// Scans raw log bytes, returning the live records and the length they
/// span, and classifying what follows them by the rules in the module
/// docs: nothing, a stale tail, a torn tail, or mid-file corruption (see
/// [`LogScan::resume_after_damage`]).
///
/// The scan is CRC-verified but copy-free: `data` becomes one refcounted
/// buffer and every recovered `Txn` payload is a [`Bytes`] view into it,
/// so replaying a large log allocates nothing per record.
pub fn scan_log(data: impl Into<Bytes>) -> LogScan {
    let data: Bytes = data.into();
    let mut txns = Vec::new();
    let scan = scan(&mut &data[..], Zxid::ZERO, |at, zxid, len| {
        let body = at as usize + RECORD_PREFIX_LEN..(at + len) as usize;
        txns.push(Txn::new(zxid, data.slice(body)));
    })
    .expect("a byte slice reads without error");
    LogScan {
        txns,
        valid_len: scan.live_len,
        torn_tail: matches!(scan.tail, Tail::Torn | Tail::MidFileCorrupt(_)),
        stale_tail: scan.tail == Tail::Stale,
        resume_after_damage: match scan.tail {
            Tail::MidFileCorrupt(at) => Some(at),
            _ => None,
        },
    }
}

/// What follows the live records of a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tail {
    /// Nothing: the live records run to the end of the file.
    Clean,
    /// Intact records, none above the floor: left by recycling.
    Stale,
    /// Nothing intact: a partial final write or a damaged final record.
    Torn,
    /// An intact record above the floor, at this offset: damage cut the
    /// live records short.
    MidFileCorrupt(u64),
}

/// The outcome of [`scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scan {
    /// Bytes spanned by the live records.
    pub live_len: u64,
    /// What follows them.
    pub tail: Tail,
}

/// A log's bytes, read front to back.
pub(crate) trait LogBytes {
    /// The `n` bytes at offset `at`, or fewer where the log ends first.
    /// Successive calls never ask for an offset below an earlier one.
    fn bytes_at(&mut self, at: u64, n: usize) -> io::Result<&[u8]>;
}

impl LogBytes for &[u8] {
    fn bytes_at(&mut self, at: u64, n: usize) -> io::Result<&[u8]> {
        let from = usize::try_from(at).map_or(self.len(), |at| at.min(self.len()));
        Ok(&self[from..from.saturating_add(n).min(self.len())])
    }
}

/// Bytes read ahead from a file in one go, unless a record is larger.
const READ_CHUNK: usize = 256 * 1024;

/// A log read front to back through a buffer that holds about one read
/// chunk or one record, whichever is larger, never the whole file: a stale
/// tail is probed without being held in memory.
pub(crate) struct ReadBytes<R> {
    src: R,
    buf: Vec<u8>,
    /// Offset of `buf[0]` in the log.
    start: u64,
    eof: bool,
}

impl<R: Read> ReadBytes<R> {
    /// Reads `src` from its current position, which is offset 0.
    pub(crate) fn new(src: R) -> ReadBytes<R> {
        ReadBytes { src, buf: Vec::new(), start: 0, eof: false }
    }
}

impl<R: Read> LogBytes for ReadBytes<R> {
    fn bytes_at(&mut self, at: u64, n: usize) -> io::Result<&[u8]> {
        let end = self.start + self.buf.len() as u64;
        if at.saturating_add(n as u64) > end && !self.eof {
            // Drop what lies behind `at`.
            let behind = at.saturating_sub(self.start).min(self.buf.len() as u64);
            self.buf.drain(..behind as usize);
            self.start += behind;
            if at > self.start {
                io::copy(&mut (&mut self.src).take(at - self.start), &mut io::sink())?;
                self.start = at;
            }
            // Read on as far as the log goes: a length read from damaged
            // bytes allocates only for bytes that exist.
            let want = n.max(READ_CHUNK).saturating_sub(self.buf.len());
            let got = (&mut self.src).take(want as u64).read_to_end(&mut self.buf)?;
            self.eof = got < want;
        }
        let from = at.saturating_sub(self.start).min(self.buf.len() as u64) as usize;
        Ok(&self.buf[from..from.saturating_add(n).min(self.buf.len())])
    }
}

/// What lies at one offset of a log.
enum At {
    /// An intact record: a valid frame whose body is exactly one
    /// [`Txn`]. Carries its zxid and on-disk length.
    Record(Zxid, u64),
    /// Anything else.
    Damaged,
    /// Fewer bytes than a record prefix remain.
    End,
}

/// Reads the record at offset `at`. An offset pays for the checksum only
/// once its prefix has the shape of every intact record — frame length
/// `12 + dlen`, within the frame limit — so damage is walked in time
/// linear in its length.
fn record_at(log: &mut impl LogBytes, at: u64) -> io::Result<At> {
    const HEADER: usize = zab_wire::frame::HEADER_LEN;
    let Some(&prefix) = log.bytes_at(at, RECORD_PREFIX_LEN)?.first_chunk::<RECORD_PREFIX_LEN>()
    else {
        return Ok(At::End);
    };
    let [l0, l1, l2, l3, c0, c1, c2, c3, z0, z1, z2, z3, z4, z5, z6, z7, d0, d1, d2, d3] = prefix;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let dlen = u32::from_le_bytes([d0, d1, d2, d3]) as usize;
    if len != 12 + dlen || len > zab_wire::frame::MAX_FRAME_LEN {
        return Ok(At::Damaged);
    }
    let record = log.bytes_at(at, HEADER + len)?;
    Ok(match record.get(HEADER..) {
        Some(body) if body.len() == len && crc32c(body) == u32::from_le_bytes([c0, c1, c2, c3]) => {
            let zxid = u64::from_le_bytes([z0, z1, z2, z3, z4, z5, z6, z7]);
            At::Record(Zxid(zxid), (HEADER + len) as u64)
        }
        _ => At::Damaged,
    })
}

/// Finds the live records of `log` by the rules in the module docs and
/// classifies what follows them. `live(offset, zxid, len)` is called once
/// per live record, in order. `floor` is the snapshot's zxid: with the
/// last live zxid it bounds every stale record.
pub(crate) fn scan(
    log: &mut impl LogBytes,
    floor: Zxid,
    mut live: impl FnMut(u64, Zxid, u64),
) -> io::Result<Scan> {
    let mut at = 0u64;
    let mut last = Zxid::ZERO;
    while let At::Record(zxid, len) = record_at(log, at)? {
        if zxid <= last {
            break;
        }
        live(at, zxid, len);
        last = zxid;
        at += len;
    }
    let live_len = at;
    if log.bytes_at(at, 1)?.is_empty() {
        return Ok(Scan { live_len, tail: Tail::Clean });
    }
    let floor = floor.max(last);
    let mut stale = false;
    loop {
        match record_at(log, at)? {
            At::Record(zxid, _) if zxid > floor => {
                return Ok(Scan { live_len, tail: Tail::MidFileCorrupt(at) });
            }
            // Skipped whole: a stale tail costs one checksum pass.
            At::Record(_, len) => {
                stale = true;
                at += len;
            }
            At::Damaged => at += 1,
            At::End => break,
        }
    }
    Ok(Scan { live_len, tail: if stale { Tail::Stale } else { Tail::Torn } })
}

/// Encodes the epoch pair record.
pub fn encode_epochs(accepted: Epoch, current: Epoch) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12);
    buf.put_u32_le_wire(accepted.0);
    buf.put_u32_le_wire(current.0);
    let crc = crc32c(&buf);
    buf.put_u32_le_wire(crc);
    buf
}

/// Decodes the epoch pair record.
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on bad length or checksum.
pub fn decode_epochs(data: &[u8]) -> Result<(Epoch, Epoch), StorageError> {
    if data.len() != 12 {
        return Err(StorageError::Corrupt(format!(
            "epoch record has {} bytes, expected 12",
            data.len()
        )));
    }
    let mut cur = data;
    let accepted = Epoch(cur.get_u32_le_wire().expect("length checked"));
    let current = Epoch(cur.get_u32_le_wire().expect("length checked"));
    let stored = cur.get_u32_le_wire().expect("length checked");
    if crc32c(&data[..8]) != stored {
        return Err(StorageError::Corrupt("epoch record checksum mismatch".into()));
    }
    Ok((accepted, current))
}

/// Encodes a snapshot file: zxid header, payload, trailing checksum over
/// header + payload.
pub fn encode_snapshot(zxid: Zxid, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + payload.len());
    buf.put_u64_le_wire(zxid.0);
    buf.extend_from_slice(payload);
    let crc = crc32c(&buf);
    buf.put_u32_le_wire(crc);
    buf
}

/// Decodes a snapshot file. The returned payload is a zero-copy view of
/// `data` (CRC verification is a read pass, not a copy).
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on bad length or checksum.
pub fn decode_snapshot(data: impl Into<Bytes>) -> Result<(Zxid, Bytes), StorageError> {
    let data: Bytes = data.into();
    if data.len() < 12 {
        return Err(StorageError::Corrupt("snapshot file too short".into()));
    }
    let body_len = data.len() - 4;
    let stored = u32::from_le_bytes([
        data[body_len],
        data[body_len + 1],
        data[body_len + 2],
        data[body_len + 3],
    ]);
    if crc32c(&data[..body_len]) != stored {
        return Err(StorageError::Corrupt("snapshot checksum mismatch".into()));
    }
    let zxid = Zxid(u64::from_le_bytes([
        data[0], data[1], data[2], data[3], data[4], data[5], data[6], data[7],
    ]));
    Ok((zxid, data.slice(8..body_len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(c: u32) -> Txn {
        Txn::new(Zxid::new(Epoch(1), c), vec![c as u8; 5])
    }

    #[test]
    fn log_round_trip() {
        let mut data = Vec::new();
        for c in 1..=5 {
            data.extend(encode_log_record(&txn(c)));
        }
        let total = data.len() as u64;
        let scan = scan_log(data);
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, total);
        assert_eq!(scan.txns.len(), 5);
        assert_eq!(scan.txns[4].zxid, Zxid::new(Epoch(1), 5));
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut data = Vec::new();
        data.extend(encode_log_record(&txn(1)));
        let good_len = data.len() as u64;
        let mut partial = encode_log_record(&txn(2));
        partial.truncate(partial.len() - 3);
        data.extend(partial);
        let scan = scan_log(data);
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.resume_after_damage, None, "a torn tail has no resume point");
    }

    #[test]
    fn corrupt_record_stops_scan() {
        let mut data = Vec::new();
        data.extend(encode_log_record(&txn(1)));
        let good_len = data.len() as u64;
        let mut bad = encode_log_record(&txn(2));
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        data.extend(bad);
        let resume_at = data.len() as u64;
        data.extend(encode_log_record(&txn(3)));
        let scan = scan_log(data);
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.txns.len(), 1);
        // An intact record follows the damage: mid-file corruption.
        assert_eq!(scan.resume_after_damage, Some(resume_at));
    }

    #[test]
    fn corrupt_final_record_is_a_tail_not_mid_file() {
        let mut data = Vec::new();
        data.extend(encode_log_record(&txn(1)));
        let mut bad = encode_log_record(&txn(2));
        bad[10] ^= 0x40; // zxid byte: CRC fails
        data.extend(bad);
        let scan = scan_log(data);
        assert!(scan.torn_tail);
        assert_eq!(scan.txns.len(), 1);
        assert_eq!(scan.resume_after_damage, None);
    }

    #[test]
    fn damaged_length_prefix_still_finds_resume() {
        // Flip a byte in the length field of record 2's header so the
        // frame decoder mis-frames; record 3 must still be found intact.
        let mut data = Vec::new();
        data.extend(encode_log_record(&txn(1)));
        let good_len = data.len() as u64;
        let mut bad = encode_log_record(&txn(2));
        bad[0] ^= 0x04;
        data.extend(bad);
        let resume_at = data.len() as u64;
        data.extend(encode_log_record(&txn(3)));
        let scan = scan_log(data);
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.resume_after_damage, Some(resume_at));
    }

    #[test]
    fn garbage_after_the_log_is_a_torn_tail_probed_in_linear_time() {
        let mut data = Vec::new();
        for c in 1..=100 {
            data.extend(encode_log_record(&txn(c)));
        }
        let good_len = data.len() as u64;
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        data.extend((0..4 << 20).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        }));
        let started = std::time::Instant::now();
        let scan = scan_log(data);
        let took = started.elapsed();
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.txns.len(), 100);
        assert_eq!(scan.resume_after_damage, None, "garbage holds no intact record");
        // Probing in linear time takes well under a second here, even
        // unoptimised; checksumming at every offset whose length field
        // fits in the file takes tens of seconds.
        assert!(took < std::time::Duration::from_secs(3), "probe took {took:?}");
    }

    /// Live records of epoch 2 (varied sizes), then at least 8 MiB of
    /// epoch-1 records cut `skew` bytes into the first: the stale tail a
    /// recycled log leaves behind its copied suffix.
    fn live_then_stale(skew: usize) -> (Vec<u8>, u64, Vec<u64>) {
        let mut data = Vec::new();
        for c in 1..=50u32 {
            data.extend(encode_log_record(&Txn::new(Zxid::new(Epoch(2), c), vec![7; c as usize])));
        }
        let live_len = data.len() as u64;
        let mut stale = Vec::new();
        let mut starts = Vec::new();
        let mut c = 1u32;
        while stale.len() < 8 << 20 {
            starts.push(live_len + stale.len() as u64 - skew as u64);
            stale.extend(encode_log_record(&Txn::new(Zxid::new(Epoch(1), c), vec![c as u8; 1024])));
            c += 1;
        }
        data.extend_from_slice(&stale[skew..]);
        (data, live_len, starts)
    }

    #[test]
    fn megabytes_of_stale_records_after_a_misaligned_cut_are_a_stale_tail() {
        let (data, live_len, _) = live_then_stale(333);
        let scan = scan_log(data);
        assert_eq!(scan.valid_len, live_len);
        assert_eq!(scan.txns.len(), 50);
        assert!(scan.stale_tail);
        assert!(!scan.torn_tail, "a stale tail is not a torn one");
        assert_eq!(scan.resume_after_damage, None);
    }

    #[test]
    fn an_aligned_stale_record_ends_the_live_log() {
        // Not above its predecessor: the first stale record is intact.
        let (data, live_len, _) = live_then_stale(0);
        let scan = scan_log(data);
        assert_eq!(scan.valid_len, live_len);
        assert!(scan.stale_tail && !scan.torn_tail);
    }

    #[test]
    fn a_record_above_the_last_deep_in_a_stale_tail_is_mid_file_corruption() {
        let (mut data, _, starts) = live_then_stale(333);
        // Replace one stale record some 6 MiB in by a record above every
        // live zxid, of the same length.
        let at = starts[starts.len() * 3 / 4] as usize;
        let planted = encode_log_record(&Txn::new(Zxid::new(Epoch(3), 1), vec![9; 1024]));
        data[at..at + planted.len()].copy_from_slice(&planted);
        let scan = scan_log(data);
        assert_eq!(scan.txns.len(), 50);
        assert_eq!(scan.resume_after_damage, Some(at as u64));
        assert!(scan.torn_tail && !scan.stale_tail);
    }

    #[test]
    fn reading_a_file_through_the_bounded_buffer_matches_the_slice() {
        let (mut data, _, starts) = live_then_stale(333);
        let at = starts[starts.len() / 2] as usize;
        let planted = encode_log_record(&Txn::new(Zxid::new(Epoch(3), 1), vec![9; 1024]));
        data[at..at + planted.len()].copy_from_slice(&planted);
        for bytes in [&data[..at + 100], &data[..]] {
            let mut from_slice = Vec::new();
            let a = scan(&mut &bytes[..], Zxid::ZERO, |o, z, l| from_slice.push((o, z, l)));
            let mut from_reader = Vec::new();
            let b = scan(&mut ReadBytes::new(bytes), Zxid::ZERO, |o, z, l| {
                from_reader.push((o, z, l));
            });
            assert_eq!(a.expect("slice"), b.expect("reader"));
            assert_eq!(from_slice, from_reader);
        }
    }

    #[test]
    fn the_floor_bounds_stale_records_when_no_live_record_does() {
        // An empty copied suffix leaves only stale records at or below the
        // snapshot; a torn first append sits in front of them.
        let mut data = encode_log_record(&txn(9));
        data.truncate(10);
        for c in 1..=5 {
            data.extend(encode_log_record(&txn(c)));
        }
        let tail = |floor| scan(&mut &data[..], floor, |_, _, _| {}).expect("slice").tail;
        assert_eq!(tail(Zxid::new(Epoch(1), 5)), Tail::Stale);
        assert_eq!(tail(Zxid::ZERO), Tail::MidFileCorrupt(10));
    }

    #[test]
    fn empty_log_is_clean() {
        let scan = scan_log(Vec::new());
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, 0);
        assert!(scan.txns.is_empty());
    }

    #[test]
    fn epochs_round_trip() {
        let data = encode_epochs(Epoch(7), Epoch(6));
        assert_eq!(decode_epochs(&data).unwrap(), (Epoch(7), Epoch(6)));
    }

    #[test]
    fn epochs_detect_corruption() {
        let mut data = encode_epochs(Epoch(7), Epoch(6));
        data[0] ^= 1;
        assert!(decode_epochs(&data).is_err());
        assert!(decode_epochs(&data[..8]).is_err());
    }

    #[test]
    fn snapshot_round_trip() {
        let data = encode_snapshot(Zxid::new(Epoch(3), 9), b"app state");
        let (zxid, payload) = decode_snapshot(data).unwrap();
        assert_eq!(zxid, Zxid::new(Epoch(3), 9));
        assert_eq!(payload, b"app state");
    }

    #[test]
    fn snapshot_detects_corruption() {
        let mut data = encode_snapshot(Zxid::new(Epoch(3), 9), b"app state");
        data[9] ^= 0x10;
        assert!(decode_snapshot(data).is_err());
    }

    #[test]
    fn empty_snapshot_payload_allowed() {
        let data = encode_snapshot(Zxid::ZERO, b"");
        let (zxid, payload) = decode_snapshot(data).unwrap();
        assert_eq!(zxid, Zxid::ZERO);
        assert!(payload.is_empty());
    }
}
