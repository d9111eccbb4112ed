//! On-disk record formats shared by the file-backed stores.
//!
//! **Log record** (append-only `log` file):
//!
//! ```text
//! +-----------+-------------+----------------------------+
//! | len: u32  | crc32c: u32 | body: zxid u64 + payload   |
//! +-----------+-------------+----------------------------+
//! ```
//!
//! identical to a `zab-wire` frame whose payload is an encoded
//! [`zab_core::Txn`]. A torn tail (partial final record, or a final record
//! failing its checksum) is detected and discarded during the recovery
//! scan, matching ZooKeeper's transaction-log recovery semantics.
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
use zab_core::{Epoch, Txn, Zxid};
use zab_wire::codec::{BytesCursor, WireRead, WireWrite};
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
    /// Intact transactions, in file order.
    pub txns: Vec<Txn>,
    /// Bytes of the intact prefix; everything after is damaged.
    pub valid_len: u64,
    /// True if damage (torn or corrupt bytes) follows the intact prefix.
    pub torn_tail: bool,
    /// When damage was found *and* at least one intact record resumes
    /// after it: the byte offset of that record. `Some` means the damage
    /// is mid-file corruption (bit-rot) — truncating at `valid_len` would
    /// drop committed transactions — so recovery must refuse. `None` with
    /// `torn_tail` means an ordinary torn tail, safe to truncate.
    pub resume_after_damage: Option<u64>,
}

/// Scans raw log bytes, returning every intact record and the length of
/// the valid prefix. When the scan stops before end-of-file it probes the
/// remaining bytes for an intact record, distinguishing a **torn tail**
/// (nothing valid follows; truncation is safe) from **mid-file
/// corruption** (valid records resume; truncation would lose data) — see
/// [`LogScan::resume_after_damage`].
///
/// The scan is CRC-verified but copy-free: `data` becomes one refcounted
/// buffer and every recovered `Txn` payload is a [`Bytes`] view into it,
/// so replaying a large log allocates nothing per record.
pub fn scan_log(data: impl Into<Bytes>) -> LogScan {
    let data: Bytes = data.into();
    let raw = data.clone();
    let total = data.len() as u64;
    let mut dec = zab_wire::frame::FrameDecoder::new();
    dec.extend_bytes(data);
    let mut txns = Vec::new();
    let mut valid_len = 0u64;
    let damaged = loop {
        match dec.next_frame() {
            Ok(Some(payload)) => {
                let record_len = (zab_wire::frame::HEADER_LEN + payload.len()) as u64;
                let mut cur = BytesCursor::new(payload);
                match Txn::decode(&mut cur) {
                    Ok(txn) if cur.wire_is_empty() => {
                        valid_len += record_len;
                        txns.push(txn);
                    }
                    // Record framed correctly but body malformed: stop.
                    _ => break true,
                }
            }
            Ok(None) => break valid_len != total,
            Err(_) => break true,
        }
    };
    let resume_after_damage = if damaged {
        let last = txns.last().map_or(Zxid::ZERO, |t| t.zxid);
        probe_resume(&raw, valid_len + 1, last)
    } else {
        None
    };
    LogScan { txns, valid_len, torn_tail: damaged, resume_after_damage }
}

/// Searches `raw[from..]` for an intact log record (valid frame, body a
/// well-formed [`Txn`] with zxid above `last`). Returns its offset — the
/// signature of mid-file corruption, since a torn tail has nothing valid
/// after the damage. Only runs on the (rare) damaged-recovery path.
///
/// An offset pays for the checksum only once its prefix has the shape of
/// every intact record — frame length `12 + dlen`, zxid above `last` — so
/// a damaged span is probed in time linear in its length.
fn probe_resume(raw: &Bytes, from: u64, last: Zxid) -> Option<u64> {
    const HEADER: usize = zab_wire::frame::HEADER_LEN;
    let mut o = from as usize;
    while let Some(prefix) = raw.get(o..).and_then(<[u8]>::first_chunk::<RECORD_PREFIX_LEN>) {
        let [l0, l1, l2, l3, c0, c1, c2, c3, z0, z1, z2, z3, z4, z5, z6, z7, d0, d1, d2, d3] =
            *prefix;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let zxid = u64::from_le_bytes([z0, z1, z2, z3, z4, z5, z6, z7]);
        let dlen = u32::from_le_bytes([d0, d1, d2, d3]) as usize;
        let end = o + HEADER + len;
        let shaped = len == 12 + dlen && len <= zab_wire::frame::MAX_FRAME_LEN && zxid > last.0;
        if shaped && end <= raw.len() {
            // The shape makes the body exactly one `Txn` above `last`.
            let body = raw.slice(o + HEADER..end);
            if crc32c(&body) == u32::from_le_bytes([c0, c1, c2, c3])
                && Txn::decode(&mut BytesCursor::new(body)).is_ok()
            {
                return Some(o as u64);
            }
        }
        o += 1;
    }
    None
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
