//! CRC-32 (IEEE 802.3 polynomial) used for frame and log-record
//! integrity checking.
//!
//! Implemented locally to keep the dependency set to the approved list.
//! One entry point, [`Crc32::update`], over a two-tier kernel; the tier
//! is picked per call from the CPU and the input length, never by a
//! feature, variable or setting:
//!
//! * **folding** — on x86-64 with `pclmulqdq` and `sse4.1` (detected at
//!   run time), inputs of at least 64 bytes are folded 64 bytes per
//!   iteration with carry-less multiplies and reduced 128 → 64 → 32
//!   bits by Barrett reduction: 30–45 ns per KiB
//!   (`types.frame_crc_ns_per_kib` in the benchmark, Xeon @ 2.1 GHz);
//! * **slicing-by-8** — everywhere else, for shorter inputs, and for
//!   the under-16-byte tail the folding tier leaves: eight table
//!   look-ups per 8 bytes, 550–650 ns per KiB on the same machine.
//!
//! The one-byte-per-step table loop both replace (about 2600 ns per
//! KiB) survives only as the oracle the tests pin them to.
//!
//! The x86 `crc32` *instruction* (SSE4.2) is not an option: it computes
//! CRC-32C (Castagnoli, 0x1EDC6F41), a different polynomial. Frames on
//! the wire and records in stable storage carry the IEEE checksum, so
//! old logs must recover and old clients interoperate.
//!
//! A multicast is framed, and so checksummed, once however many
//! recipients it has ([`crate::frame::Frame`]); a MiB state transfer is
//! checksummed once by the server and once by the joiner.

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
        self.state = kernel::update(self.state, data);
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

/// The checksum kernel. Every function maps a raw (un-inverted) CRC
/// state and more input to the next raw state. All of the crate's
/// `unsafe` lives here.
mod kernel {
    /// The reflected IEEE polynomial.
    const POLY: u32 = 0xEDB8_8320;

    /// Advances a reflected state by one zero byte (× x⁸ mod P).
    const fn shift_byte(mut crc: u32) -> u32 {
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        crc
    }

    /// `TABLES[k][b]` is the state after byte `b` and then `k` zero
    /// bytes; `TABLES[0]` is the classic one-byte table.
    static TABLES: [[u32; 256]; 8] = build_tables();

    const fn build_tables() -> [[u32; 256]; 8] {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            tables[0][i] = shift_byte(i as u32);
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    }

    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::BLOCK
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `fold` requires exactly the two CPU features
            // detected on this processor in the condition above.
            let (state, tail) = unsafe { clmul::fold(state, data) };
            return slicing8(state, tail);
        }
        slicing8(state, data)
    }

    /// The portable tier: eight bytes per step, one table each.
    pub(super) fn slicing8(mut crc: u32, data: &[u8]) -> u32 {
        let (words, tail) = data.as_chunks::<8>();
        for w in words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &byte in tail {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        crc
    }

    /// The reference the other tiers are tested against: the classic
    /// table loop, one byte per step.
    #[cfg(test)]
    pub(super) fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        crc
    }

    /// The folding tier called directly (finished by the slicing tier
    /// for the tail, as in [`update`]), or `None` where the CPU or the
    /// architecture lacks it.
    #[cfg(test)]
    pub(super) fn folding(state: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            // SAFETY: the two features `fold` enables were just detected.
            let (state, tail) = unsafe { clmul::fold(state, data) };
            return Some(slicing8(state, tail));
        }
        let _ = (state, data);
        None
    }

    /// The folding tier, after Gopal et al., *Fast CRC Computation for
    /// Generic Polynomials Using PCLMULQDQ Instruction* (Intel, 2009),
    /// in its bit-reflected form. The message is held as 128-bit lanes;
    /// a lane is carried `d` bits forward by multiplying its halves by
    /// x^(d+32) and x^(d−32) mod P and adding the data `d` bits ahead,
    /// which leaves the remainder unchanged.
    #[cfg(target_arch = "x86_64")]
    pub(super) mod clmul {
        use super::POLY;
        use std::arch::x86_64::*;

        /// Bytes folded per iteration, and the shortest input taken.
        pub(in super::super) const BLOCK: usize = 64;

        /// xⁿ mod P, bit-reflected, shifted left once: a carry-less
        /// product of reflected operands comes out one bit low, and the
        /// shift pre-compensates.
        const fn x_pow(n: u32) -> i64 {
            let mut r = 0x8000_0000u32; // x⁰
            let mut i = 0;
            while i < n {
                r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
                i += 1;
            }
            (r as i64) << 1
        }

        /// ⌊x⁶⁴ / P⌋, bit-reflected into 33 bits: the Barrett constant.
        const fn mu() -> i64 {
            // Long division by P (unreflected, 33 bits): after n steps
            // `rem` = xⁿ mod P and `quot` = ⌊xⁿ / P⌋.
            let p = 0x1_04C1_1DB7u64;
            let (mut rem, mut quot, mut i) = (1u64, 0u64, 0);
            while i < 64 {
                rem <<= 1;
                quot <<= 1;
                if rem >> 32 != 0 {
                    rem ^= p;
                    quot |= 1;
                }
                i += 1;
            }
            (quot.reverse_bits() >> (64 - 33)) as i64
        }

        const FOLD_512: (i64, i64) = (x_pow(512 + 32), x_pow(512 - 32));
        const FOLD_128: (i64, i64) = (x_pow(128 + 32), x_pow(128 - 32));
        const X_64: i64 = x_pow(64);
        /// P itself, reflected into 33 bits.
        const P_X: i64 = ((POLY as i64) << 1) | 1;
        const MU: i64 = mu();

        /// Folds every whole 16-byte lane of `data` (at least
        /// [`BLOCK`] bytes) into `state`; returns the new state and the
        /// unconsumed tail, shorter than 16 bytes.
        #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
        pub(in super::super) fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
            let (blocks, rest) = data.as_chunks::<BLOCK>();
            let Some((first, blocks)) = blocks.split_first() else {
                return (state, data);
            };
            let mut x = lanes(first);
            x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
            let k = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
            for block in blocks {
                let y = lanes(block);
                for (x, y) in x.iter_mut().zip(y) {
                    *x = carry(*x, y, k);
                }
            }
            let k = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
            let mut acc = x[0];
            for lane in &x[1..] {
                acc = carry(acc, *lane, k);
            }
            let (singles, tail) = rest.as_chunks::<16>();
            for lane in singles {
                acc = carry(acc, load(lane), k);
            }
            (reduce(acc, k), tail)
        }

        /// Carries `lane` forward onto `ahead` (see the module note).
        #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
        fn carry(lane: __m128i, ahead: __m128i, k: __m128i) -> __m128i {
            let lo = _mm_clmulepi64_si128(lane, k, 0x00);
            let hi = _mm_clmulepi64_si128(lane, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(ahead, lo), hi)
        }

        /// 128 → 64 → 32 bits; `k` is the [`FOLD_128`] pair.
        #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
        fn reduce(x: __m128i, k: __m128i) -> u32 {
            let low32 = _mm_set_epi32(0, 0, 0, !0);
            // Low half × x⁹⁶ onto the high half: 96 bits remain.
            let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x10), _mm_srli_si128(x, 8));
            // Low word × x⁶⁴ onto the rest: 64 bits remain.
            let x = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, X_64), 0x00),
                _mm_srli_si128(x, 4),
            );
            // Barrett: T1 = ⌊R mod x³²⌋·μ, T2 = ⌊T1 mod x³²⌋·P, and
            // the remainder is the high word of R ⊕ T2.
            let pu = _mm_set_epi64x(MU, P_X);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
            _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
        }

        #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
        fn lanes(block: &[u8; BLOCK]) -> [__m128i; 4] {
            let (lanes, _) = block.as_chunks::<16>();
            [
                load(&lanes[0]),
                load(&lanes[1]),
                load(&lanes[2]),
                load(&lanes[3]),
            ]
        }

        /// An unaligned load in safe code; it compiles to one `movdqu`.
        #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
        fn load(lane: &[u8; 16]) -> __m128i {
            let v = u128::from_le_bytes(*lane);
            _mm_set_epi64x((v >> 64) as i64, v as i64)
        }

        #[test]
        fn constants_match_the_published_ones() {
            // Gopal et al., table for the IEEE 802.3 polynomial.
            assert_eq!(FOLD_512, (0x1_5444_2bd4, 0x1_c6e4_1596));
            assert_eq!(FOLD_128, (0x1_7519_97d0, 0x0_ccaa_009e));
            assert_eq!(X_64, 0x1_63cd_6124);
            assert_eq!(P_X, 0x1_db71_0641);
            assert_eq!(MU, 0x1_f701_1641);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::kernel::{bytewise, folding, slicing8};
    use super::*;
    use proptest::prelude::*;

    const INIT: u32 = 0xFFFF_FFFF;

    /// Deterministic filler with no short period.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Every tier, and the public entry point, against the oracle.
    fn assert_tiers_agree(state: u32, data: &[u8], want: u32) {
        let at = format!("len {} from state {state:#x}", data.len());
        assert_eq!(slicing8(state, data), want, "slicing, {at}");
        if let Some(got) = folding(state, data) {
            assert_eq!(got, want, "folding, {at}");
        }
        assert_eq!(super::kernel::update(state, data), want, "update, {at}");
    }

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
    fn golden_long_inputs() {
        // Recorded from the one-byte table loop this kernel replaced
        // (zlib agrees): long enough for every tier, so a polynomial
        // or byte-order slip fails here without a second
        // implementation to agree with.
        assert_eq!(crc32(&[0u8; 64]), 0x758D_6336);
        assert_eq!(crc32(&noise(1000)), 0x5EFF_08C8);
        assert_eq!(crc32(&noise(1 << 20)), 0xC073_ED1B);
    }

    #[test]
    fn every_short_length_and_alignment_matches_the_oracle() {
        let buf = noise(16 + 600);
        for offset in 0..16 {
            for len in 0..=600 {
                let data = &buf[offset..offset + len];
                assert_tiers_agree(INIT, data, bytewise(INIT, data));
            }
        }
    }

    #[test]
    fn lengths_around_block_boundaries_match_the_oracle() {
        const SPREAD: usize = 3;
        let buf = noise(16 + (1 << 20) + SPREAD);
        for centre in [4 << 10, 64 << 10, 1 << 20] {
            for offset in 0..16 {
                // One oracle pass per offset, extended a byte at a
                // time across the lengths under test.
                let mut want = bytewise(INIT, &buf[offset..offset + centre - SPREAD]);
                for len in centre - SPREAD..=centre + SPREAD {
                    assert_tiers_agree(INIT, &buf[offset..offset + len], want);
                    want = bytewise(want, &buf[offset + len..offset + len + 1]);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn split_updates_match_the_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..5000),
            offset in 0usize..16,
            a in any::<u16>(),
            b in any::<u16>(),
        ) {
            let data = &data[offset.min(data.len())..];
            let want = bytewise(INIT, data) ^ INIT;
            prop_assert_eq!(crc32(data), want);
            // Two- and three-way splits: each part enters a tier with
            // a mid-stream state and its own length and alignment.
            let cut1 = a as usize % (data.len() + 1);
            let cut2 = cut1 + b as usize % (data.len() - cut1 + 1);
            let mut two = Crc32::new();
            two.update(&data[..cut1]);
            two.update(&data[cut1..]);
            prop_assert_eq!(two.finalize(), want);
            let mut three = Crc32::new();
            three.update(&data[..cut1]);
            let mid = three.state;
            three.update(&data[cut1..cut2]);
            three.update(&data[cut2..]);
            prop_assert_eq!(three.finalize(), want);
            assert_tiers_agree(mid, &data[cut1..cut2], bytewise(mid, &data[cut1..cut2]));
        }
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
        // 200 bytes: the folding tier's block loop, lane loop and tail.
        let mut data = vec![0u8; 200];
        let clean = crc32(&data);
        for byte in 0..data.len() {
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
