//! Posting-list codec: the first id, then the gaps between ids
//! bit-packed in blocks of [`BLOCK_GAPS`], each block at its own width.
//!
//! Bucket posting lists are sorted `u32` point ids. Under virtual
//! rehashing the ids inside one bucket tend to be dense (small gaps),
//! which makes delta + bitpacking a fit; a width per block of gaps
//! instead of one per list keeps one wide gap from widening every other.
//!
//! Wire format (integers little-endian):
//!
//! ```text
//! count   LEB128, 1–5 bytes     number of ids
//! -- count >= 1 --
//! first   u32                   first id
//! blocks  ⌈(count − 1) / 32⌉ × [ width u8 (0..=32) | gaps ]
//! ```
//!
//! A block packs its gaps LSB-first at `width` bits each: a full block
//! is `1 + 4·width` bytes, the last one rounds its bits up to a byte.
//! Width 0 encodes a run of identical ids in no gap bytes. Input must be
//! non-decreasing; duplicates are preserved exactly.

/// Gaps per block, each block led by its width byte.
pub const BLOCK_GAPS: usize = 32;

/// Number of bits needed to represent `v` (0 for 0).
fn bits_for(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// Bytes of the LEB128 encoding of `v`.
fn varint_len(v: usize) -> usize {
    1 + (usize::BITS - (v | 1).leading_zeros()).saturating_sub(1) as usize / 7
}

/// Bytes of a block of `gaps` gaps at `width` bits, its width byte included.
fn block_bytes(gaps: usize, width: u8) -> usize {
    1 + (gaps * usize::from(width)).div_ceil(8)
}

/// Encode a non-decreasing list of ids, appending to `out`. Returns the
/// number of bytes appended.
///
/// # Panics
///
/// Panics if `ids` is decreasing or longer than `u32::MAX`.
pub fn encode_postings(ids: &[u32], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let mut count = u32::try_from(ids.len()).expect("posting list longer than u32::MAX");
    while count >= 0x80 {
        out.push(count as u8 | 0x80);
        count >>= 7;
    }
    out.push(count as u8);
    let Some(&first) = ids.first() else { return out.len() - start };
    out.extend_from_slice(&first.to_le_bytes());
    for at in (1..ids.len()).step_by(BLOCK_GAPS) {
        let block = &ids[at - 1..ids.len().min(at + BLOCK_GAPS)];
        let width = block_width(block);
        out.push(width);
        // Gap i of the block occupies bits [i*width, (i+1)*width).
        let (mut acc, mut acc_bits) = (0u64, 0u32);
        for w in block.windows(2) {
            acc |= u64::from(w[1] - w[0]) << acc_bits;
            acc_bits += u32::from(width);
            while acc_bits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                acc_bits -= 8;
            }
        }
        if acc_bits > 0 {
            out.push(acc as u8);
        }
    }
    out.len() - start
}

/// Bits per gap of the block whose ids, its last id before it included,
/// are `ids`: the width of the widest gap, the width of their OR.
///
/// # Panics
///
/// Panics if `ids` is decreasing.
fn block_width(ids: &[u32]) -> u8 {
    let (mut all, mut sorted) = (0, true);
    for w in ids.windows(2) {
        sorted &= w[0] <= w[1];
        all |= w[1].wrapping_sub(w[0]);
    }
    assert!(sorted, "posting list must be non-decreasing");
    bits_for(all)
}

/// How many leading ids of `ids` encode in at most `room` bytes: the
/// largest `k` with `encode_postings(&ids[..k])` no longer than `room`
/// (0 when not even one id fits). A list's encoding never shrinks as
/// ids are added, so this is where a page that must stay full splits it.
pub(crate) fn fitting_prefix(ids: &[u32], room: usize) -> usize {
    let size = |k: usize, blocks: usize, gaps: usize, width: u8| {
        varint_len(k) + 4 + blocks + if gaps > 0 { block_bytes(gaps, width) } else { 0 }
    };
    if ids.is_empty() || size(1, 0, 0, 0) > room {
        return 0;
    }
    // `closed`: the bytes of the whole blocks before the one at `at`.
    let mut closed = 0;
    for at in (1..ids.len()).step_by(BLOCK_GAPS) {
        let end = ids.len().min(at + BLOCK_GAPS);
        let width = block_width(&ids[at - 1..end]);
        if size(end, closed, end - at, width) > room {
            // The list ends inside this block: with `at` ids it fit.
            let fits = |k: &usize| size(*k, closed, k - at, block_width(&ids[at - 1..*k])) <= room;
            return (at + 1..end).take_while(fits).last().unwrap_or(at);
        }
        closed += block_bytes(end - at, width);
    }
    ids.len()
}

/// The count of an encoded list and the bytes its count takes.
fn read_count(buf: &[u8]) -> Option<(usize, usize)> {
    let mut count = 0u64;
    for (i, &byte) in buf.iter().take(5).enumerate() {
        count |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((usize::try_from(count).ok().filter(|&c| c <= u32::MAX as usize)?, i + 1));
        }
    }
    None
}

/// Read the header of an encoded posting list: `(count, total encoded bytes)`.
///
/// Lets a scanner skip a list without decoding it: it reads the count
/// and one width byte per block. Returns `None` if the buffer is too
/// short or a width exceeds 32.
pub fn peek_postings(buf: &[u8]) -> Option<(usize, usize)> {
    let (count, mut at) = read_count(buf)?;
    if count > 0 {
        at += 4;
        for block_start in (0..count - 1).step_by(BLOCK_GAPS) {
            let width = *buf.get(at)?;
            if width > 32 {
                return None;
            }
            at += block_bytes((count - 1 - block_start).min(BLOCK_GAPS), width);
        }
    }
    (at <= buf.len()).then_some((count, at))
}

/// Decode an encoded posting list, appending ids to `out`.
///
/// Returns the number of encoded bytes consumed, or `None` on a malformed
/// buffer (short buffer, width > 32); ids decoded before the fault stay
/// in `out`.
pub fn decode_postings(buf: &[u8], out: &mut Vec<u32>) -> Option<usize> {
    let (count, mut at) = read_count(buf)?;
    if count == 0 {
        return Some(at);
    }
    let mut prev = u32::from_le_bytes(buf.get(at..at + 4)?.try_into().unwrap());
    at += 4;
    out.push(prev);
    let mut left = count - 1;
    // Each block is copied into a buffer 8 bytes longer than any block,
    // so that every gap is one unaligned 8-byte read: `width <= 32` bits
    // from a bit offset below 8 end inside the word, and the mask drops
    // whatever follows the block.
    let mut block = [0u8; 4 * BLOCK_GAPS + 8];
    while left > 0 {
        let gaps = left.min(BLOCK_GAPS);
        let width = *buf.get(at)?;
        if width > 32 {
            return None;
        }
        let bytes = buf.get(at + 1..at + block_bytes(gaps, width))?;
        block[..bytes.len()].copy_from_slice(bytes);
        let (width, mask) = (usize::from(width), (1u64 << width) - 1);
        out.extend((0..gaps).map(|i| {
            let bit = i * width;
            let word = u64::from_le_bytes(block[bit / 8..bit / 8 + 8].try_into().unwrap());
            prev = prev.wrapping_add(((word >> (bit % 8)) & mask) as u32);
            prev
        }));
        at += bytes.len() + 1;
        left -= gaps;
    }
    Some(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ids: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        let n = encode_postings(ids, &mut buf);
        assert_eq!(n, buf.len());
        let (count, total) = peek_postings(&buf).expect("peek");
        assert_eq!(count, ids.len());
        assert_eq!(total, buf.len());
        let mut out = Vec::new();
        let consumed = decode_postings(&buf, &mut out).expect("decode");
        assert_eq!(consumed, buf.len());
        assert_eq!(out, ids);
        buf
    }

    #[test]
    fn empty_list_is_one_count_byte() {
        assert_eq!(round_trip(&[]), vec![0]);
    }

    #[test]
    fn singleton_round_trips() {
        assert_eq!(round_trip(&[0]).len(), 5);
        round_trip(&[u32::MAX]);
    }

    #[test]
    fn dense_run_compresses() {
        let ids: Vec<u32> = (1000..3000).collect();
        let buf = round_trip(&ids);
        // 2000 ids with 1-bit gaps: count 2 + first 4 + 62 full blocks of
        // 1 + 4 bytes + a last block of 15 gaps in 1 + 2 bytes.
        assert_eq!(buf.len(), 2 + 4 + 62 * 5 + 3);
    }

    #[test]
    fn identical_ids_use_width_zero() {
        let buf = round_trip(&[7u32; 100]);
        // count 1 + first 4 + four width-0 blocks.
        assert_eq!(buf.len(), 1 + 4 + 4);
    }

    #[test]
    fn one_wide_gap_widens_its_block_only() {
        let mut ids: Vec<u32> = (0..97).collect();
        ids.push(u32::MAX);
        let buf = round_trip(&ids);
        // Three blocks of 32 one-bit gaps; the 97th gap, 32 bits wide,
        // fills the last block alone.
        assert_eq!(buf.len(), 1 + 4 + 3 * (1 + 4) + 1 + 4);
    }

    #[test]
    fn max_u32_gaps_round_trip() {
        round_trip(&[0, u32::MAX]);
        let mut ids: Vec<u32> = (0..100).collect();
        ids.push(u32::MAX - 1);
        ids.push(u32::MAX);
        round_trip(&ids);
    }

    #[test]
    fn long_counts_take_more_count_bytes() {
        for n in [127usize, 128, 16_383, 16_384, 70_000] {
            let buf = round_trip(&vec![3u32; n]);
            assert_eq!(buf.len(), varint_len(n) + 4 + (n - 1).div_ceil(BLOCK_GAPS));
        }
    }

    #[test]
    fn fitting_prefix_is_the_longest_that_fits() {
        let ids: Vec<u32> = (0..300u32).map(|i| i * i / 7).collect();
        for room in [0, 4, 5, 6, 9, 20, 40, 41, 100, 333, 10_000] {
            let k = fitting_prefix(&ids, room);
            let len = |k: usize| encode_postings(&ids[..k], &mut Vec::new());
            assert!(k == 0 || len(k) <= room, "room {room}: {k} ids take {}", len(k));
            assert!(k == ids.len() || len(k + 1) > room, "room {room}: {} ids fit", k + 1);
        }
    }

    #[test]
    fn decode_rejects_truncated_and_malformed() {
        let mut buf = Vec::new();
        encode_postings(&[1, 2, 3, 4, 5, 6, 7, 8], &mut buf);
        let mut out = Vec::new();
        assert!(decode_postings(&buf[..buf.len() - 1], &mut out).is_none());
        assert!(peek_postings(&buf[..buf.len() - 1]).is_none());
        // A width of 33.
        assert!(decode_postings(&[2, 0, 0, 0, 0, 33, 0, 0, 0, 0, 0], &mut out).is_none());
        // A count that never ends.
        assert!(decode_postings(&[0x80; 6], &mut out).is_none());
        assert!(decode_postings(&[], &mut out).is_none());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn encode_panics_on_decreasing_input() {
        let mut buf = Vec::new();
        encode_postings(&[5, 3], &mut buf);
    }
}
