//! CRC-32 (IEEE 802.3 polynomial) used for frame and log-record
//! integrity checking.
//!
//! Implemented locally to keep the dependency set to the approved list.
//! The table-driven implementation processes one byte per step — about
//! 2 µs per KiB (`types.frame_crc_ns_per_kib` in the benchmark). That is
//! small for the paper's 1 kB - 10 kB broadcasts *because a multicast is
//! framed, and so checksummed, once however many recipients it has*
//! ([`crate::frame::Frame`]); it is not small for a MiB state transfer,
//! where the checksum is a visible share of join latency.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Lazily-computed lookup table (256 entries).
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(data);
    hasher.finalize()
}

/// Incremental CRC-32 hasher for multi-part records.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        for &byte in data {
            let idx = ((crc ^ byte as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
        self.state = crc;
    }

    /// Finishes and returns the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"stateful group communication services";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..25]);
        h.update(&data[25..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let clean = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut h = Crc32::new();
        h.update(b"abc");
        assert_eq!(h.finalize(), h.finalize());
    }
}
