//! Ordered delivery of committed transactions to the application.
//!
//! PO atomic broadcast delivers transactions in zxid order with no gaps.
//! Both automata funnel deliveries through [`deliver_committed`], which
//! walks the history from the per-incarnation delivery watermark up to the
//! committed watermark and emits one [`Action::Deliver`] per transaction.

use crate::events::Action;
use crate::history::History;
use crate::metrics::CoreMetrics;
use crate::types::Zxid;
use std::collections::VecDeque;
use zab_trace::{Stage, Tracer};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step over a whole word: a bijection in `h` for a fixed `x`
/// and in `x` for a fixed `h` (`FNV_PRIME` is odd), so two inputs that
/// differ in one step leave every later state different.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Folds `data` into `h` in 8-byte little-endian lanes, then the tail
/// byte-wise: one multiply per 8 bytes instead of one per byte.
fn fold(h: u64, data: &[u8]) -> u64 {
    let (lanes, tail) = data.as_chunks::<8>();
    let h = lanes.iter().fold(h, |h, lane| mix(h, u64::from_le_bytes(*lane)));
    tail.iter().fold(h, |h, &b| mix(h, u64::from(b)))
}

/// The 64-bit lane-fold hash of one payload, the same fold
/// [`DeliveryHash`] chains. Its values are only comparable between
/// processes running the same build.
pub fn payload_hash(data: &[u8]) -> u64 {
    fold(FNV_OFFSET, data)
}

/// Delivered-prefix checkpoints are taken every this many transactions
/// (whenever `zxid.counter() % CHECKPOINT_STRIDE == 0`). A fixed zxid
/// stride — rather than "every Nth local delivery" — means every replica
/// checkpoints at the *same* zxids, so an ensemble auditor can compare
/// hashes at common points even when replicas are scraped at different
/// moments of the commit stream.
pub const CHECKPOINT_STRIDE: u32 = 64;

/// Checkpoints retained (ring). At stride 64 this covers the last ~8k
/// delivered transactions, bounding both memory and `/health` size.
const CHECKPOINT_CAP: usize = 128;

/// One `(zxid, hash)` point of the rolling delivery hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashCheckpoint {
    /// The delivery watermark the hash covers (inclusive).
    pub zxid: Zxid,
    /// Chain hash over every delivery from the anchor through `zxid`.
    pub hash: u64,
}

/// Rolling hash over the delivered transaction stream — the
/// delivered-prefix-agreement witness the ensemble watchdog compares
/// across replicas.
///
/// Each delivery folds the zxid, the payload length and the payload into an
/// FNV-1a-style chain, a word at a time: the zxid and length as one lane
/// each, the payload in 8-byte little-endian lanes with its tail byte-wise.
/// That is O(payload) per deliver, never O(history), and a stream that
/// differs in any one byte or in a length ends with a different hash. The
/// values live only in memory and are compared only between replicas of
/// the same build.
///
/// Because replicas may boot (and install snapshots) at different points,
/// a chain hash from process start would never agree across nodes;
/// instead the chain **re-anchors at every epoch
/// boundary** (and at the first delivery after boot), and the anchor zxid
/// is part of the witness. Two replicas are comparable exactly when their
/// anchors match — true for every replica that lived through the same
/// establishment, which is the steady state the watchdog patrols. On
/// agreement: if both anchors and both watermarks match, PO says the
/// replicas delivered identical streams, so the hashes must match —
/// anything else is a real divergence (or a corrupted apply path).
#[derive(Debug, Clone)]
pub struct DeliveryHash {
    anchor: Zxid,
    last: Zxid,
    hash: u64,
    checkpoints: VecDeque<HashCheckpoint>,
}

impl Default for DeliveryHash {
    fn default() -> DeliveryHash {
        DeliveryHash {
            anchor: Zxid::ZERO,
            last: Zxid::ZERO,
            hash: FNV_OFFSET,
            checkpoints: VecDeque::new(),
        }
    }
}

impl DeliveryHash {
    /// Fresh tracker; the chain anchors on the first observed delivery.
    pub fn new() -> DeliveryHash {
        DeliveryHash::default()
    }

    /// Folds one delivered transaction into the chain. Call in the apply
    /// path, in delivery order.
    pub fn observe(&mut self, zxid: Zxid, data: &[u8]) {
        if self.last == Zxid::ZERO || zxid.epoch() != self.last.epoch() {
            // New chain: first delivery of this incarnation or of a new
            // epoch. Old-epoch checkpoints belong to the old anchor and
            // would never be compared again — drop them.
            self.hash = FNV_OFFSET;
            self.anchor = zxid;
            self.checkpoints.clear();
        }
        let h = fold(mix(mix(self.hash, zxid.0), data.len() as u64), data);
        self.hash = h;
        self.last = zxid;
        if zxid.counter().is_multiple_of(CHECKPOINT_STRIDE) {
            if self.checkpoints.len() == CHECKPOINT_CAP {
                self.checkpoints.pop_front();
            }
            self.checkpoints.push_back(HashCheckpoint { zxid, hash: h });
        }
    }

    /// First zxid of the current chain (`Zxid::ZERO` before any delivery).
    pub fn anchor(&self) -> Zxid {
        self.anchor
    }

    /// Last delivered zxid folded into the chain.
    pub fn last(&self) -> Zxid {
        self.last
    }

    /// Chain hash covering `anchor()..=last()`.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Retained stride checkpoints, oldest first.
    pub fn checkpoints(&self) -> impl Iterator<Item = HashCheckpoint> + '_ {
        self.checkpoints.iter().copied()
    }
}

/// Emits `Deliver` actions for every committed-but-undelivered transaction,
/// advancing `delivered_to`.
///
/// Delivery is exactly-once per automaton incarnation: the watermark only
/// moves forward, and a transaction is emitted only when the committed
/// watermark has reached it. Each delivery bumps
/// `metrics.proposals_committed`, the counter the e2e and chaos tests
/// compare across replicas, and records a [`Stage::Deliver`] flight-recorder
/// event — the terminal point of every zxid's causal timeline.
pub fn deliver_committed(
    history: &History,
    delivered_to: &mut Zxid,
    metrics: &CoreMetrics,
    tracer: &Tracer,
    out: &mut Vec<Action>,
) {
    let target = history.last_committed();
    if *delivered_to >= target {
        return;
    }
    for txn in history.txns_after(*delivered_to) {
        if txn.zxid > target {
            break;
        }
        debug_assert!(
            txn.zxid > *delivered_to,
            "delivery would regress: {} after {}",
            txn.zxid,
            delivered_to
        );
        tracer.instant(Stage::Deliver, txn.zxid.0, 0);
        out.push(Action::Deliver { txn: txn.clone() });
        metrics.proposals_committed.inc();
        *delivered_to = txn.zxid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Epoch, Txn};

    fn hist(n: u32) -> History {
        let mut h = History::new();
        for c in 1..=n {
            h.append(Txn::new(Zxid::new(Epoch(1), c), vec![c as u8]));
        }
        h
    }

    fn delivered(out: &[Action]) -> Vec<Zxid> {
        out.iter()
            .map(|a| match a {
                Action::Deliver { txn } => txn.zxid,
                other => panic!("unexpected action {other:?}"),
            })
            .collect()
    }

    #[test]
    fn delivers_up_to_committed_watermark_only() {
        let mut h = hist(5);
        h.mark_committed(Zxid::new(Epoch(1), 3));
        let mut watermark = Zxid::ZERO;
        let mut out = Vec::new();
        deliver_committed(
            &h,
            &mut watermark,
            &CoreMetrics::standalone(),
            &Tracer::disabled(),
            &mut out,
        );
        assert_eq!(delivered(&out), (1..=3).map(|c| Zxid::new(Epoch(1), c)).collect::<Vec<_>>());
        assert_eq!(watermark, Zxid::new(Epoch(1), 3));
    }

    #[test]
    fn idempotent_when_nothing_new() {
        let mut h = hist(2);
        h.mark_committed(Zxid::new(Epoch(1), 2));
        let mut watermark = Zxid::ZERO;
        let mut out = Vec::new();
        deliver_committed(
            &h,
            &mut watermark,
            &CoreMetrics::standalone(),
            &Tracer::disabled(),
            &mut out,
        );
        out.clear();
        deliver_committed(
            &h,
            &mut watermark,
            &CoreMetrics::standalone(),
            &Tracer::disabled(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn resumes_from_watermark() {
        let mut h = hist(4);
        h.mark_committed(Zxid::new(Epoch(1), 2));
        let mut watermark = Zxid::ZERO;
        let mut out = Vec::new();
        deliver_committed(
            &h,
            &mut watermark,
            &CoreMetrics::standalone(),
            &Tracer::disabled(),
            &mut out,
        );
        h.mark_committed(Zxid::new(Epoch(1), 4));
        out.clear();
        deliver_committed(
            &h,
            &mut watermark,
            &CoreMetrics::standalone(),
            &Tracer::disabled(),
            &mut out,
        );
        assert_eq!(delivered(&out), vec![Zxid::new(Epoch(1), 3), Zxid::new(Epoch(1), 4)]);
    }

    fn z(e: u32, c: u32) -> Zxid {
        Zxid::new(Epoch(e), c)
    }

    #[test]
    fn delivery_hash_agrees_for_identical_streams() {
        let mut a = DeliveryHash::new();
        let mut b = DeliveryHash::new();
        for c in 1..=200u32 {
            a.observe(z(1, c), &c.to_le_bytes());
            b.observe(z(1, c), &c.to_le_bytes());
        }
        assert_eq!(a.anchor(), b.anchor());
        assert_eq!(a.last(), b.last());
        assert_eq!(a.hash(), b.hash());
        // Stride checkpoints land at the same zxids with the same hashes.
        let ca: Vec<_> = a.checkpoints().collect();
        let cb: Vec<_> = b.checkpoints().collect();
        assert_eq!(ca, cb);
        assert_eq!(
            ca.iter().map(|c| c.zxid).collect::<Vec<_>>(),
            vec![z(1, 64), z(1, 128), z(1, 192)]
        );
    }

    #[test]
    fn delivery_hash_detects_payload_divergence() {
        let mut a = DeliveryHash::new();
        let mut b = DeliveryHash::new();
        for c in 1..=64u32 {
            a.observe(z(1, c), &c.to_le_bytes());
            let payload = if c == 40 { [0xFFu8; 4] } else { c.to_le_bytes() };
            b.observe(z(1, c), &payload);
        }
        // Same watermark and anchor, different content → different hash.
        assert_eq!(a.last(), b.last());
        assert_eq!(a.anchor(), b.anchor());
        assert_ne!(a.hash(), b.hash());
        let (ca, cb) = (a.checkpoints().next().unwrap(), b.checkpoints().next().unwrap());
        assert_eq!(ca.zxid, cb.zxid);
        assert_ne!(ca.hash, cb.hash);
    }

    #[test]
    fn delivery_hash_reanchors_on_epoch_change_and_late_boot() {
        let mut veteran = DeliveryHash::new();
        for c in 1..=100u32 {
            veteran.observe(z(1, c), b"x");
        }
        // Epoch roll: chain resets, old checkpoints dropped.
        veteran.observe(z(2, 1), b"y");
        assert_eq!(veteran.anchor(), z(2, 1));
        assert_eq!(veteran.checkpoints().count(), 0);

        // A replica that boots mid-epoch anchors where it starts — its
        // anchor differs from the veteran's, flagging the chains as
        // incomparable rather than falsely divergent.
        let mut late = DeliveryHash::new();
        late.observe(z(2, 1), b"y");
        assert_eq!(late.anchor(), veteran.anchor());
        assert_eq!(late.hash(), veteran.hash());
        let mut later = DeliveryHash::new();
        later.observe(z(2, 5), b"z");
        assert_ne!(later.anchor(), veteran.anchor());
    }

    #[test]
    fn lane_fold_witnesses_every_byte_flip_and_length() {
        let chain = |data: &[u8]| {
            let mut d = DeliveryHash::new();
            d.observe(z(1, 1), data);
            d.hash()
        };
        let base: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        // 0..=17 covers every tail shape around two lanes; 1024 is the op.
        for len in (0..=17).chain([1024]) {
            let payload = &base[..len];
            let h = chain(payload);
            let mut flipped = payload.to_vec();
            for i in 0..len {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    assert_ne!(chain(&flipped), h, "len {len}: flip {i}:{bit} unseen");
                    flipped[i] ^= 1 << bit;
                }
            }
            let longer = [payload, &[0]].concat();
            assert_ne!(chain(&longer), h, "len {len}: a trailing zero byte unseen");
        }
        // The length alone: all-zero payloads of every size hash apart.
        let zeros: std::collections::HashSet<u64> =
            (0..=17).chain([1024]).map(|len| chain(&vec![0u8; len])).collect();
        assert_eq!(zeros.len(), 19);
    }

    #[test]
    fn delivery_hash_checkpoint_ring_is_bounded() {
        let mut d = DeliveryHash::new();
        for c in 1..=20_000u32 {
            d.observe(z(1, c), b"p");
        }
        let cps: Vec<_> = d.checkpoints().collect();
        assert_eq!(cps.len(), 128);
        assert_eq!(cps.last().unwrap().zxid, z(1, 19_968)); // newest stride point
        assert!(cps.windows(2).all(|w| w[0].zxid < w[1].zxid));
    }
}
