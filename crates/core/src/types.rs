//! Fundamental protocol identifiers: server ids, epochs, zxids, transactions.
//!
//! The zxid layout follows ZooKeeper exactly: a 64-bit transaction identifier
//! whose **high 32 bits are the epoch** of the primary that generated the
//! transaction and whose **low 32 bits are a per-epoch counter**. Ordering
//! zxids as plain integers therefore orders transactions first by epoch and
//! then by the order their primary generated them — the order in which PO
//! atomic broadcast must deliver them.

use bytes::Bytes;
use std::fmt;
use zab_wire::codec::{WireError, WireRead, WireWrite};

/// Unique identifier of a server (the paper's process id).
///
/// # Example
///
/// ```
/// use zab_core::ServerId;
/// let a = ServerId(1);
/// let b = ServerId(2);
/// assert!(a < b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServerId(pub u64);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An epoch of a primary instance (the paper's `e`).
///
/// Epochs increase every time a new primary is established; zxids embed the
/// epoch in their high 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u32);

impl Epoch {
    /// The epoch before any primary has been established.
    pub const ZERO: Epoch = Epoch(0);

    /// The next epoch.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the 32-bit epoch space (2^32 leader changes).
    pub fn next(self) -> Epoch {
        Epoch(self.0.checked_add(1).expect("epoch space exhausted"))
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Transaction identifier: `(epoch, counter)` packed into 64 bits.
///
/// `Zxid` is totally ordered; the integer order coincides with the
/// lexicographic order on `(epoch, counter)`, which is the global delivery
/// order Zab enforces.
///
/// # Example
///
/// ```
/// use zab_core::{Epoch, Zxid};
/// let z = Zxid::new(Epoch(3), 7);
/// assert_eq!(z.epoch(), Epoch(3));
/// assert_eq!(z.counter(), 7);
/// assert!(z < Zxid::new(Epoch(4), 0));
/// assert!(z > Zxid::new(Epoch(3), 6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Zxid(pub u64);

impl Zxid {
    /// The zero zxid: no transaction.
    pub const ZERO: Zxid = Zxid(0);

    /// Packs an epoch and counter into a zxid.
    pub fn new(epoch: Epoch, counter: u32) -> Zxid {
        Zxid(((epoch.0 as u64) << 32) | counter as u64)
    }

    /// The epoch component (high 32 bits).
    pub fn epoch(self) -> Epoch {
        Epoch((self.0 >> 32) as u32)
    }

    /// The per-epoch counter component (low 32 bits).
    pub fn counter(self) -> u32 {
        self.0 as u32
    }

    /// True if `self` is the transaction immediately following `prev`
    /// *within the same epoch*, or the first transaction of a later epoch.
    ///
    /// This is the gap-freedom check followers apply to the proposal stream.
    pub fn follows(self, prev: Zxid) -> bool {
        if self.epoch() == prev.epoch() {
            self.counter() == prev.counter().wrapping_add(1)
        } else {
            self.epoch() > prev.epoch() && self.counter() == 1
        }
    }
}

impl fmt::Display for Zxid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.epoch().0, self.counter())
    }
}

/// A transaction: an identifier plus the opaque incremental state change
/// computed by the primary (the paper's `⟨v, z⟩`).
///
/// The payload is reference-counted ([`Bytes`]) because the leader fans the
/// same transaction out to every follower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// The transaction identifier assigned by the primary.
    pub zxid: Zxid,
    /// The incremental state change (opaque to the broadcast layer).
    pub data: Bytes,
}

impl Txn {
    /// Creates a transaction.
    pub fn new(zxid: Zxid, data: impl Into<Bytes>) -> Txn {
        Txn { zxid, data: data.into() }
    }

    /// Encodes the transaction onto a wire buffer.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le_wire(self.zxid.0);
        buf.put_bytes_wire(&self.data);
    }

    /// Decodes a transaction from a wire cursor.
    ///
    /// Decoding from a [`zab_wire::codec::BytesCursor`] makes `data` a
    /// zero-copy view of the cursor's backing buffer; a `&[u8]` cursor
    /// pays one owning copy.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the cursor is truncated or the payload
    /// length prefix is invalid.
    pub fn decode<R: WireRead>(cur: &mut R) -> Result<Txn, WireError> {
        let zxid = Zxid(cur.get_u64_le_wire()?);
        let data = cur.get_bytes_wire()?;
        Ok(Txn { zxid, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zxid_packs_epoch_and_counter() {
        let z = Zxid::new(Epoch(0xABCD), 0x1234_5678);
        assert_eq!(z.epoch(), Epoch(0xABCD));
        assert_eq!(z.counter(), 0x1234_5678);
        assert_eq!(z.0, 0x0000_ABCD_1234_5678);
    }

    #[test]
    fn zxid_integer_order_is_epoch_then_counter() {
        let a = Zxid::new(Epoch(1), u32::MAX);
        let b = Zxid::new(Epoch(2), 0);
        assert!(a < b);
        assert!(Zxid::new(Epoch(2), 1) > b);
    }

    #[test]
    fn follows_within_epoch() {
        let prev = Zxid::new(Epoch(2), 7);
        assert!(Zxid::new(Epoch(2), 8).follows(prev));
        assert!(!Zxid::new(Epoch(2), 9).follows(prev));
        assert!(!Zxid::new(Epoch(2), 7).follows(prev));
    }

    #[test]
    fn follows_across_epochs_requires_counter_one() {
        let prev = Zxid::new(Epoch(2), 7);
        assert!(Zxid::new(Epoch(3), 1).follows(prev));
        assert!(Zxid::new(Epoch(5), 1).follows(prev));
        assert!(!Zxid::new(Epoch(3), 2).follows(prev));
        assert!(!Zxid::new(Epoch(1), 1).follows(prev));
    }

    #[test]
    fn first_txn_of_first_epoch_follows_zero() {
        // Epoch counters start at 1; ZERO is (e0, c0).
        assert!(Zxid::new(Epoch(1), 1).follows(Zxid::ZERO));
    }

    #[test]
    fn txn_encode_decode_round_trip() {
        let txn = Txn::new(Zxid::new(Epoch(9), 42), &b"delta"[..]);
        let mut buf = Vec::new();
        txn.encode(&mut buf);
        let mut cur = buf.as_slice();
        let back = Txn::decode(&mut cur).unwrap();
        assert_eq!(back, txn);
        assert!(cur.is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ServerId(3).to_string(), "s3");
        assert_eq!(Epoch(4).to_string(), "e4");
        assert_eq!(Zxid::new(Epoch(4), 17).to_string(), "4:17");
    }
}
