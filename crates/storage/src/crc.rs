//! CRC-32, the checksum behind every `CCPG` page trailer and every
//! `CWL1` record, computed two ways that give one value: slicing-by-8,
//! the reference, and on x86-64 folding by carry-less multiplication
//! (Gopal et al., "Fast CRC computation for generic polynomials using
//! PCLMULQDQ instruction", Intel, 2009), the reference taking the last
//! 0–15 bytes. The machine's features are detected once;
//! `CC_FORCE_SCALAR=1` pins the reference, as it pins the scalar
//! kernels of the `c2lsh` crate.
//!
//! # Safety
//!
//! This is the only module of the crate allowed to use `unsafe` (the
//! crate-level lint is `deny(unsafe_code)`). There are two kinds of
//! unsafe operation: unaligned 16-byte loads, whose operands are
//! `&[u8; 16]` so the type proves them in bounds, and the one call into
//! the `#[target_feature]` fold, made only after [`folding`] detected
//! both features it enables.
#![allow(unsafe_code)]

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
/// checksum guarding each write-ahead-log record's payload and each
/// disk page. Folded 64 bytes a step by carry-less multiplication where
/// the CPU has PCLMULQDQ and SSE4.1 and the input is at least 64 bytes,
/// otherwise table-driven (slicing-by-8, eight bytes a step); both
/// compute the same value. `CC_FORCE_SCALAR=1` pins the table.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if folding() {
        // SAFETY: `folding` detected PCLMULQDQ and SSE4.1, the features
        // `fold` enables.
        let (crc, tail) = unsafe { x86::fold(!0, bytes) };
        return !slicing_by_8(crc, tail);
    }
    !slicing_by_8(!0, bytes)
}

/// Whether `crc32` folds: once per process, PCLMULQDQ and SSE4.1
/// detected and `CC_FORCE_SCALAR` not `1`.
#[cfg(target_arch = "x86_64")]
fn folding() -> bool {
    static FOLDING: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FOLDING.get_or_init(|| {
        !std::env::var("CC_FORCE_SCALAR").is_ok_and(|v| v == "1") && x86::detected()
    })
}

/// The reference: advance the CRC register `crc` (not inverted) over
/// `bytes` eight bytes per step, the tail bytewise.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    static T: [[u32; 256]; 8] = crc32_tables();
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// `T[0]` is the bytewise table; `T[k][b]` is the CRC state after byte
/// `b` and then `k` zero bytes.
pub(crate) const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    // Bit-reflected constants for polynomial 0x04C11DB7 (Gopal et al.):
    // x^(4·128+32) mod P and x^(4·128−32) mod P fold four lanes 512
    // bits ahead, x^(128+32) and x^(128−32) one lane 128 bits ahead,
    // x^64 mod P reduces 96 bits to 64, and P and μ = ⌊x^64 / P⌋ drive
    // the Barrett reduction to 32 bits.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const POLY: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this machine has the features [`fold`] enables.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the CRC register `crc` over the longest prefix of
    /// `bytes` whose length is a multiple of 16, and return the new
    /// register and the 0–15 bytes left over. An input shorter than 64
    /// bytes, too short for the four lanes, is returned whole with `crc`
    /// unchanged; from 64 bytes on the fold is faster than the table.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        if bytes.len() < 64 {
            return (crc, bytes);
        }
        let (whole, tail) = bytes.split_at(bytes.len() - bytes.len() % 16);
        let mut blocks = whole.chunks_exact(16).map(load);
        let mut next = || blocks.next().expect("a 16-byte block is left");
        // Four lanes, the first carrying the register in its low word.
        let mut lanes = [next(), next(), next(), next()];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let ahead_4 = _mm_set_epi64x(K2, K1);
        for _ in 0..(whole.len() - 64) / 64 {
            for lane in &mut lanes {
                *lane = fold_into(*lane, next(), ahead_4);
            }
        }
        let ahead_1 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(lanes[0], lanes[1], ahead_1);
        x = fold_into(x, lanes[2], ahead_1);
        x = fold_into(x, lanes[3], ahead_1);
        for block in blocks {
            x = fold_into(x, block, ahead_1);
        }
        // 128 bits to 64: fold the low half over the high, then the low
        // 32 bits of that over the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, ahead_1, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction to 32 bits, bit-reflected: the remainder
        // lands in the second word.
        let barrett = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), barrett, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32, tail)
    }

    /// `next` plus `acc` carried 128 or 512 bits ahead: each half of
    /// `acc` times its constant in `k`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("16-byte block");
        // SAFETY: `block` is 16 readable bytes, and an unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    #[cfg(test)]
    mod tests {
        use super::super::slicing_by_8;
        use super::*;

        /// The fold, called directly whatever `CC_FORCE_SCALAR` says,
        /// against the reference at every length up to two pages and
        /// every start offset into a 16-byte block.
        #[test]
        fn fold_matches_slicing_by_8_at_every_length_and_offset() {
            if !detected() {
                return;
            }
            // Interpreted, the same walk over short lengths only.
            let max_len = if cfg!(miri) { 160 } else { 8_192 };
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let bytes: Vec<u8> = (0..max_len + 16)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            for len in 0..=max_len {
                for start in 0..16 {
                    let slice = &bytes[start..start + len];
                    let want = !slicing_by_8(!0, slice);
                    // SAFETY: `detected` found both features `fold` enables.
                    let (crc, tail) = unsafe { fold(!0, slice) };
                    assert!(tail.len() < 16 || len < 64, "len {len}: {} left", tail.len());
                    assert_eq!(!slicing_by_8(crc, tail), want, "len {len}, start {start}");
                }
            }
        }
    }
}
