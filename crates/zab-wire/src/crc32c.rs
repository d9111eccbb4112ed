//! CRC-32C (Castagnoli) checksums.
//!
//! ZooKeeper checksums every transaction-log record; this reproduction does
//! the same for log records and network frames. CRC-32C is polynomial
//! `0x1EDC6F41` (reflected form `0x82F63B78`).
//!
//! [`Crc32c::update`] checks at run time whether the CPU has SSE4.2; if so
//! it folds 8-byte lanes through the `crc32` instruction, which computes
//! this very polynomial. Otherwise it falls back to a slice-by-4 table loop,
//! which also serves as the oracle the hardware path is tested against. Both
//! paths produce the same values, so every checksum on disk or on the wire
//! is the same whichever one wrote it.
//!
//! The implementation is self-contained (no external crate) and validated
//! against the published check value: `crc32c(b"123456789") == 0xE3069283`.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Lookup tables for slice-by-4 processing, generated at compile time.
struct Tables([[u32; 256]; 4]);

impl Tables {
    const fn generate() -> Tables {
        let mut t = [[0u32; 256]; 4];
        let mut i = 0usize;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
                bit += 1;
            }
            t[0][i] = crc;
            i += 1;
        }
        let mut k = 1usize;
        while k < 4 {
            let mut i = 0usize;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        Tables(t)
    }
}

static TABLES: Tables = Tables::generate();

/// Streaming CRC-32C state.
///
/// Feed bytes with [`Crc32c::update`]; obtain the checksum with
/// [`Crc32c::finish`]. The one-shot convenience [`crc32c`] covers the common
/// case.
///
/// # Example
///
/// ```
/// use zab_wire::crc32c::{crc32c, Crc32c};
///
/// let mut state = Crc32c::new();
/// state.update(b"123");
/// state.update(b"456789");
/// assert_eq!(state.finish(), crc32c(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Creates a fresh CRC state.
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Absorbs `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = hardware(self.state, data).unwrap_or_else(|| table(self.state, data));
    }

    /// Returns the checksum of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32C of `data`.
///
/// # Example
///
/// ```
/// assert_eq!(zab_wire::crc32c::crc32c(b"123456789"), 0xE306_9283);
/// ```
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

/// Slice-by-4 table loop: the portable path and the test oracle.
fn table(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES.0;
    let (words, tail) = data.as_chunks::<4>();
    for w in words {
        crc ^= u32::from_le_bytes(*w);
        crc = t[3][(crc & 0xFF) as usize]
            ^ t[2][((crc >> 8) & 0xFF) as usize]
            ^ t[1][((crc >> 16) & 0xFF) as usize]
            ^ t[0][(crc >> 24) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The `crc32` instruction path, or `None` when the CPU lacks it.
#[cfg(target_arch = "x86_64")]
fn hardware(crc: u32, data: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `sse42` only requires SSE4.2, detected just above.
    Some(unsafe { sse42(crc, data) })
}

#[cfg(not(target_arch = "x86_64"))]
fn hardware(_: u32, _: &[u8]) -> Option<u32> {
    None
}

/// The `crc32` instruction over 8-byte lanes, then the tail byte-wise.
/// Callers must first check that the CPU has SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (lanes, tail) = data.as_chunks::<8>();
    let mut wide = u64::from(crc);
    for lane in lanes {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*lane));
    }
    // The instruction leaves the 32-bit CRC in the low half.
    let mut crc = wide as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value_matches_specification() {
        // Published CRC-32C check value for the nine-digit test vector.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn single_byte_inputs_differ() {
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
    }

    #[test]
    fn streaming_equals_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let expect = crc32c(&data);
        for split in [0, 1, 3, 4, 7, 512, 1023, 1024] {
            let mut s = Crc32c::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finish(), expect, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let base = crc32c(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), base, "flip {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    /// One-shot CRC through the table oracle alone.
    fn table_crc(data: &[u8]) -> u32 {
        !table(!0, data)
    }

    /// One-shot CRC through the `crc32` instruction, `None` without SSE4.2.
    fn hardware_crc(data: &[u8]) -> Option<u32> {
        hardware(!0, data).map(|state| !state)
    }

    /// Seeded bytes with no lane-periodic structure.
    fn noise(n: usize) -> Vec<u8> {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn vectors_hold_through_both_paths() {
        let ascending: Vec<u8> = (0..32u8).collect();
        let descending: Vec<u8> = (0..32u8).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (data, expect) in vectors {
            assert_eq!(table_crc(data), expect);
            if let Some(hw) = hardware_crc(data) {
                assert_eq!(hw, expect);
            }
        }
    }

    #[test]
    fn hardware_matches_table_at_every_length_and_offset() {
        if hardware_crc(b"").is_none() {
            eprintln!("no SSE4.2 on this CPU: only the table path is exercised");
            return;
        }
        let data = noise(2048 + 8);
        for start in 0..8 {
            for len in 0..=2048 {
                let slice = &data[start..start + len];
                assert_eq!(hardware_crc(slice), Some(table_crc(slice)), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn dispatch_matches_table_at_every_split_point() {
        let data = noise(1024);
        let expect = table_crc(&data);
        for split in 0..=data.len() {
            let mut s = Crc32c::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finish(), expect, "split at {split}");
        }
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 appendix B.4 test vectors for CRC-32C.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32u8).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0..32u8).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }
}
