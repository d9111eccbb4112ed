//! Seeded inputs: payload bytes, key choice, kill-schedule jitter, and the
//! open-loop due-time schedule. The same seed gives the same inputs; the
//! replicas receive only the generated requests.

use std::time::{Duration, Instant};

/// A 64-bit hash of `(seed, stream, n)` (the SplitMix64 finaliser). Every
/// input of a run is a pure function of the seed and the op id, so an op can
/// be generated again (a client resubmitting after a failover) without any
/// generator state to rewind. `stream` separates the uses of one seed.
pub fn mix(seed: u64, stream: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(n.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams of [`mix`].
pub mod stream {
    /// Bytes of the payload pool.
    pub const POOL: u64 = 1;
    /// Where in the pool an op's payload starts.
    pub const OFFSET: u64 = 2;
    /// Which key an op writes.
    pub const KEY: u64 = 3;
    /// Jitter of the kill schedule.
    pub const KILL: u64 = 4;
}

/// Payload bytes for every op of a run: each op's payload is a window of one
/// seeded random pool (a memcpy per op instead of a kilobyte of generator
/// output), stamped with the op id in its first 8 bytes.
#[derive(Debug, Clone)]
pub struct Payloads {
    pool: Vec<u8>,
    size: usize,
    seed: u64,
}

/// Pool size; must exceed every payload size used.
const POOL_BYTES: usize = 1 << 20;

impl Payloads {
    /// Payloads of `size` bytes (at least 8, for the id) drawn from `seed`.
    pub fn new(seed: u64, size: usize) -> Payloads {
        assert!((8..POOL_BYTES).contains(&size), "payload size {size} out of range");
        let words = (0..POOL_BYTES as u64 / 8).map(|i| mix(seed, stream::POOL, i));
        Payloads { pool: words.flat_map(u64::to_le_bytes).collect(), size, seed }
    }

    /// The payload of op `id`.
    pub fn get(&self, id: u64) -> Vec<u8> {
        let off = (mix(self.seed, stream::OFFSET, id) % (POOL_BYTES - self.size) as u64) as usize;
        let mut p = self.pool[off..off + self.size].to_vec();
        p[..8].copy_from_slice(&id.to_le_bytes());
        p
    }
}

/// The op id stamped into a payload by [`Payloads::get`].
pub fn stamped_id(payload: &[u8]) -> Option<u64> {
    payload.get(..8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Open-loop schedule: op `i` (0-based) is due at `start + i / rate`,
/// whatever happened to the ops before it. Latency is timed from the due
/// instant, so a stall is charged to every op that came due during it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period_ns: u64,
}

impl Schedule {
    /// `rate` ops per second from `start`.
    pub fn new(start: Instant, rate: u64) -> Schedule {
        assert!(rate > 0, "open loop needs a rate");
        Schedule { start, period_ns: 1_000_000_000 / rate }
    }

    /// When op `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos(i * self.period_ns)
    }

    /// How many ops are due at or before `now` (op 0 is due at `start`).
    pub fn due_count(&self, now: Instant) -> u64 {
        match now.checked_duration_since(self.start) {
            Some(d) => d.as_nanos() as u64 / self.period_ns + 1,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (Payloads::new(7, 128), Payloads::new(7, 128), Payloads::new(8, 128));
        let (mut same, mut differ) = (true, false);
        for id in 1..=100 {
            let (pa, pb, pc) = (a.get(id), b.get(id), c.get(id));
            assert_eq!(pa.len(), 128);
            assert_eq!(stamped_id(&pa), Some(id));
            same &= pa == pb;
            differ |= pa != pc;
        }
        assert!(same, "one seed must give one input sequence");
        assert!(differ, "another seed must give other inputs");
        assert_eq!(a.get(42), a.get(42), "an op can be generated again");
        assert_ne!(a.get(42)[8..], a.get(43)[8..]);
        assert_ne!(mix(3, stream::KEY, 9), mix(3, stream::KILL, 9));
    }

    #[test]
    fn a_stall_is_charged_to_every_op_due_during_it() {
        let start = Instant::now();
        let s = Schedule::new(start, 1_000); // one op per ms
        assert_eq!(s.due_count(start), 1);
        assert_eq!(s.due_count(start + Duration::from_micros(2_500)), 3);
        // The generator stalls for 50 ms after op 9 and resumes at t = 60 ms:
        // ops 10..=60 all came due meanwhile, and each is late by the time
        // since its own due instant, not since the generator woke up.
        let resume = start + Duration::from_millis(60);
        assert_eq!(s.due_count(resume), 61);
        let lateness = |i| resume.duration_since(s.due(i)).as_millis();
        assert_eq!(lateness(10), 50);
        assert_eq!(lateness(35), 25);
        assert_eq!(lateness(60), 0);
        assert_eq!(s.due_count(start - Duration::from_millis(1)), 0);
    }
}
