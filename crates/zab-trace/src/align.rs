//! Cross-node clock alignment for flight-recorder streams.
//!
//! Every node's recorder timestamps events with its own monotonic clock,
//! whose origin is arbitrary (process start). Merging raw streams from
//! several nodes therefore produces garbage orderings — a follower's
//! `wire-in` can appear *before* the leader's `wire-out` that caused it.
//!
//! The fix is the classic causal-edge bound: a frame is enqueued before it
//! is decoded, so for a message sender *s* → receiver *r* with local
//! timestamps `t_out` (at *s*) and `t_in` (at *r*), the clock offset
//! `d = o_r − o_s` (how far *r*'s clock runs ahead of *s*'s) satisfies
//! `d < t_in − t_out`. Messages flowing the other way bound `d` from
//! below: `d > t_out' − t_in'`. Zab traffic is naturally bidirectional —
//! PROPOSE/COMMIT flow leader→follower while ACKs flow back — so both
//! bounds exist for every live pair, and the midpoint of the interval is
//! the offset estimate (its error is bounded by the one-way-delay
//! asymmetry, microseconds on a LAN). Nodes with no direct edge to the
//! reference (e.g. the other followers when a follower is the reference:
//! followers never exchange frames) align transitively through whatever
//! path of edges exists.

use crate::{Stage, TraceEvent};
use std::collections::{BTreeMap, VecDeque};

/// Offset bounds for one ordered node pair `(a, b)`: `d = o_b − o_a`,
/// microseconds.
#[derive(Debug, Clone, Copy, Default)]
struct PairBounds {
    /// `min(t_in@b − t_out@a)` over a→b messages.
    upper: Option<i64>,
    /// `max(t_out@b − t_in@a)` over b→a messages.
    lower: Option<i64>,
}

impl PairBounds {
    /// Midpoint when both bounds exist, else the single bound; `None` when
    /// no edge was observed.
    fn estimate(&self) -> Option<i64> {
        match (self.lower, self.upper) {
            (Some(lo), Some(hi)) => Some(lo.midpoint(hi)),
            (Some(lo), None) => Some(lo),
            (None, Some(hi)) => Some(hi),
            (None, None) => None,
        }
    }
}

/// Estimates each node's clock offset relative to `reference`, in
/// microseconds, from the wire-out/wire-in causal edges in `events`.
///
/// An offset `o` for node `n` means `n`'s clock reads `o` µs ahead of the
/// reference clock at the same instant; subtract it to map `n`'s
/// timestamps onto the reference timeline (see [`apply_offsets`]). The
/// reference itself maps to 0. Nodes with no edge path to the reference
/// are absent from the result.
pub fn estimate_offsets(events: &[TraceEvent], reference: u64) -> BTreeMap<u64, i64> {
    // Wire events grouped by (sender, receiver, zxid), each side in ts
    // order. The k-th out pairs with the k-th in: the transport channel is
    // FIFO, so ordinal matching survives a zxid appearing in several
    // messages on one pair (PROPOSE then COMMIT).
    let mut outs: BTreeMap<(u64, u64, u64), Vec<u64>> = BTreeMap::new();
    let mut ins: BTreeMap<(u64, u64, u64), Vec<u64>> = BTreeMap::new();
    for e in events {
        match e.stage {
            Stage::WireOut if e.peer != 0 => {
                outs.entry((e.node, e.peer, e.zxid)).or_default().push(e.ts_us)
            }
            Stage::WireIn if e.peer != 0 => {
                ins.entry((e.peer, e.node, e.zxid)).or_default().push(e.ts_us)
            }
            _ => {}
        }
    }
    let mut bounds: BTreeMap<(u64, u64), PairBounds> = BTreeMap::new();
    for (key @ &(sender, receiver, _), out_ts) in &outs {
        let Some(in_ts) = ins.get(key) else { continue };
        for (&t_out, &t_in) in out_ts.iter().zip(in_ts) {
            let diff = t_in as i64 - t_out as i64;
            // Forward edge for (sender → receiver): upper bound on
            // o_receiver − o_sender…
            let fwd = bounds.entry((sender, receiver)).or_default();
            fwd.upper = Some(fwd.upper.map_or(diff, |u| u.min(diff)));
            // …which is equally a lower bound of −diff on the reverse
            // ordered pair.
            let rev = bounds.entry((receiver, sender)).or_default();
            rev.lower = Some(rev.lower.map_or(-diff, |l| l.max(-diff)));
        }
    }

    // BFS from the reference, composing pairwise estimates along the
    // first-discovered path.
    let mut offsets: BTreeMap<u64, i64> = BTreeMap::new();
    offsets.insert(reference, 0);
    let mut queue = VecDeque::from([reference]);
    while let Some(a) = queue.pop_front() {
        let base = offsets[&a];
        for (&(from, to), b) in &bounds {
            if from != a || offsets.contains_key(&to) {
                continue;
            }
            if let Some(d) = b.estimate() {
                offsets.insert(to, base + d);
                queue.push_back(to);
            }
        }
    }
    offsets
}

/// Maps every event onto the reference timeline by subtracting its node's
/// offset (saturating at 0). Events from nodes absent in `offsets` pass
/// through unchanged — callers that care can check membership first.
pub fn apply_offsets(events: &[TraceEvent], offsets: &BTreeMap<u64, i64>) -> Vec<TraceEvent> {
    events
        .iter()
        .map(|e| {
            let off = offsets.get(&e.node).copied().unwrap_or(0);
            let ts = (e.ts_us as i64 - off).max(0) as u64;
            TraceEvent { ts_us: ts, ..*e }
        })
        .collect()
}

/// One-call stitcher: estimates offsets against `reference`, rebases every
/// event, and returns the merged stream sorted by aligned time plus the
/// offsets used. The result is safe to feed to [`crate::timelines`] /
/// [`crate::stage_deltas`] / [`crate::chrome_trace_json`] for a true
/// cross-node causal view.
pub fn stitch(events: &[TraceEvent], reference: u64) -> (Vec<TraceEvent>, BTreeMap<u64, i64>) {
    let offsets = estimate_offsets(events, reference);
    let mut aligned = apply_offsets(events, &offsets);
    aligned.sort_by_key(|e| (e.ts_us, e.node, e.zxid, e.stage));
    (aligned, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: u64, ts_us: u64, stage: Stage, zxid: u64, peer: u64) -> TraceEvent {
        TraceEvent { ts_us, dur_us: 0, node, zxid, zxid_end: zxid, stage, peer }
    }

    /// Leader 1 and follower 2; follower clock runs 1000 µs ahead. A
    /// PROPOSE takes 50 µs out, the ACK 50 µs back: symmetric delay, so
    /// the midpoint recovers the offset exactly.
    #[test]
    fn symmetric_pair_recovers_exact_offset() {
        let events = vec![
            ev(1, 100, Stage::WireOut, 7, 2), // propose leaves leader (true 100)
            ev(2, 1150, Stage::WireIn, 7, 1), // arrives (true 150, clock +1000)
            ev(2, 1200, Stage::WireOut, 7, 1), // ack leaves follower (true 200)
            ev(1, 250, Stage::WireIn, 7, 2),  // arrives back (true 250)
        ];
        let off = estimate_offsets(&events, 1);
        assert_eq!(off.get(&1), Some(&0));
        assert_eq!(off.get(&2), Some(&1000));

        let (aligned, _) = stitch(&events, 1);
        let ts: Vec<(u64, u64)> = aligned.iter().map(|e| (e.node, e.ts_us)).collect();
        // Causal order restored on the shared timeline.
        assert_eq!(ts, vec![(1, 100), (2, 150), (2, 200), (1, 250)]);
    }

    /// Only forward edges (no acks seen): the upper bound alone is used,
    /// which still restores causal order even if it absorbs the one-way
    /// delay.
    #[test]
    fn one_sided_edges_fall_back_to_single_bound() {
        let events = vec![ev(1, 100, Stage::WireOut, 3, 2), ev(2, 5150, Stage::WireIn, 3, 1)];
        let off = estimate_offsets(&events, 1);
        assert_eq!(off.get(&2), Some(&5050));
        let aligned = apply_offsets(&events, &off);
        assert!(aligned[0].ts_us <= aligned[1].ts_us);
    }

    /// A chain: node 3 only talks to node 2, which talks to reference 1.
    /// The offset composes transitively through the BFS.
    #[test]
    fn transitive_alignment_through_an_intermediate_node() {
        let events = vec![
            // 1 ↔ 2, follower 2 clock +1000.
            ev(1, 100, Stage::WireOut, 9, 2),
            ev(2, 1150, Stage::WireIn, 9, 1),
            ev(2, 1200, Stage::WireOut, 9, 1),
            ev(1, 250, Stage::WireIn, 9, 2),
            // 2 ↔ 3, node 3 clock +5000 (i.e. +4000 vs node 2).
            ev(2, 1300, Stage::WireOut, 9, 3),
            ev(3, 5350, Stage::WireIn, 9, 2),
            ev(3, 5400, Stage::WireOut, 9, 2),
            ev(2, 1450, Stage::WireIn, 9, 3),
        ];
        let off = estimate_offsets(&events, 1);
        assert_eq!(off.get(&2), Some(&1000));
        assert_eq!(off.get(&3), Some(&5000));
    }

    /// A node with no wire edges at all stays unaligned rather than
    /// getting a fabricated offset.
    #[test]
    fn disconnected_node_is_absent() {
        let events = vec![
            ev(1, 100, Stage::WireOut, 3, 2),
            ev(2, 180, Stage::WireIn, 3, 1),
            ev(9, 777, Stage::Deliver, 3, 0),
        ];
        let off = estimate_offsets(&events, 1);
        assert!(off.contains_key(&2));
        assert!(!off.contains_key(&9));
        // Pass-through keeps the unaligned event intact.
        let aligned = apply_offsets(&events, &off);
        assert_eq!(aligned[2].ts_us, 777);
    }

    /// Repeated messages for one zxid on one pair (PROPOSE then COMMIT)
    /// pair ordinally, not cross-wise — bounds stay consistent.
    #[test]
    fn ordinal_pairing_survives_repeated_zxids() {
        let events = vec![
            ev(1, 100, Stage::WireOut, 4, 2), // propose out
            ev(1, 300, Stage::WireOut, 4, 2), // commit out
            ev(2, 650, Stage::WireIn, 4, 1),  // propose in (+500 clock, 50 delay)
            ev(2, 860, Stage::WireIn, 4, 1),  // commit in (60 delay)
            ev(2, 700, Stage::WireOut, 4, 1), // ack out (true 200)
            ev(1, 250, Stage::WireIn, 4, 2),  // ack in
        ];
        let off = estimate_offsets(&events, 1);
        let d = *off.get(&2).unwrap();
        assert!((450..=560).contains(&d), "estimate {d} out of bound range");
    }
}
