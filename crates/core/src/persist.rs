//! Index persistence: serialize a built [`crate::C2lshIndex`]'s state so
//! it can be reloaded without re-hashing the dataset.
//!
//! The serialized form (`C2L1` format) contains the configuration, the
//! derived parameters, the hash family (`a` vectors and offsets) and the
//! sorted hash tables — everything except the raw vectors, which the
//! caller keeps (the index borrows them at load time, and a fingerprint
//! of the dataset shape guards against loading an index against the
//! wrong data). Tables are written one `(bucket, oid)` entry per object,
//! whatever the runs look like in memory; loading splits each table's
//! entries by id range into its segments and folds the repeated bucket
//! ids back into each run's directory.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "C2L1" | n | dim | c | w | delta | base_radius | beta_num |
//! m | l | beta_n | seed |
//! per function: d×f32 (a), f64 (b) |
//! per table:    n×(i64 bucket, u32 oid) |
//! xor-fold checksum
//! ```
//!
//! The magic word doubles as the version stamp: the `"C2L"` prefix
//! identifies the format family and the trailing byte (`'1'`) its
//! version. A blob with the right prefix but a different version byte
//! is rejected as [`PersistError::UnsupportedVersion`] *before* the
//! checksum runs, so "written by a newer release" never masquerades as
//! corruption. Loading is panic-free on arbitrary input: every read is
//! bounds-checked and truncation at any byte boundary reports
//! [`PersistError::Malformed`] (see `tests/proptest_persist.rs`).

use crate::config::{Beta, C2lshConfig};
use crate::dynamic::DynamicIndex;
use crate::index::{C2lshIndex, Segment, SortedRun, SEGMENT_IDS};
use crate::meta::PointMeta;
use bytes::BufMut;
use cc_vector::dataset::Dataset;
use std::fmt;

const MAGIC: u32 = 0x4332_4C31; // "C2L1": "C2L" prefix + version byte '1'
/// High three bytes of the magic word — the format family tag.
const MAGIC_PREFIX: u32 = MAGIC & !0xFF;
/// Low byte of the magic word — the format version this build writes
/// and the only one it reads.
const FORMAT_VERSION: u8 = (MAGIC & 0xFF) as u8;

/// Magic of the dynamic-index checkpoint format: `"C2D"` family prefix
/// plus version byte `'1'`. A separate family from `"C2L"` because the
/// two formats persist different things: `C2L1` is a borrow-the-dataset
/// static index, `C2D1` owns its vectors (the full slot array,
/// tombstones included) plus the WAL high-water mark.
const DYN_MAGIC: u32 = 0x4332_4431; // "C2D1"
const DYN_MAGIC_PREFIX: u32 = DYN_MAGIC & !0xFF;
const DYN_FORMAT_VERSION: u8 = (DYN_MAGIC & 0xFF) as u8;

/// Why loading failed.
#[derive(Debug, PartialEq)]
pub enum PersistError {
    /// Wrong magic / truncated / checksum mismatch.
    Malformed(String),
    /// The blob carries the right magic prefix but a format version
    /// this build does not understand (e.g. a file written by a newer
    /// release). Distinct from [`PersistError::Malformed`] so callers
    /// can tell "upgrade the reader" apart from "the file is damaged".
    UnsupportedVersion {
        /// The version byte found in the blob.
        found: u8,
    },
    /// The provided dataset does not match the fingerprint recorded at
    /// save time.
    DatasetMismatch {
        /// Expected number of vectors.
        want_n: usize,
        /// Expected dimensionality.
        want_dim: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Malformed(m) => write!(f, "malformed index blob: {m}"),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported index format version {:?} (this build reads {:?} only)",
                *found as char, FORMAT_VERSION as char
            ),
            PersistError::DatasetMismatch { want_n, want_dim } => write!(
                f,
                "dataset mismatch: index was built over {want_n} vectors of dim {want_dim}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// Bytes of a `C2L1` blob before the hash family: magic through `beta_n`.
const HEADER_LEN: usize = 73;

/// Bytes of a `C2L1` blob's hash family and tables. Computed in `u128`
/// because [`load_index`] takes `m`, `dim` and `n` from the wire, where
/// they must not overflow the check itself.
fn payload_len(m: usize, dim: usize, n: usize) -> u128 {
    m as u128 * (dim as u128 * 4 + 8) + m as u128 * n as u128 * 12
}

/// Serialize a built index (excluding the raw vectors).
pub fn save_index(index: &C2lshIndex<'_>) -> Vec<u8> {
    let (n, dim) = index.data_shape();
    let cfg = index.config();
    let len = HEADER_LEN + payload_len(index.num_tables(), dim, n) as usize + 4;
    let mut buf = Vec::with_capacity(len);
    buf.put_u32_le(MAGIC);
    buf.put_u64_le(n as u64);
    buf.put_u32_le(dim as u32);
    buf.put_u32_le(cfg.c);
    buf.put_f64_le(cfg.w);
    buf.put_f64_le(cfg.delta);
    buf.put_f64_le(cfg.base_radius);
    match cfg.beta {
        Beta::Count(c) => {
            buf.put_u8(0);
            buf.put_u64_le(c);
        }
        Beta::Fraction(f) => {
            buf.put_u8(1);
            buf.put_f64_le(f);
        }
    }
    buf.put_u64_le(cfg.seed);
    let p = index.params();
    buf.put_u32_le(p.m as u32);
    buf.put_u32_le(p.l as u32);
    buf.put_u32_le(p.beta_n as u32);

    for h in index.family().iter() {
        for &a in h.projection_coeffs() {
            buf.put_f32_le(a);
        }
        buf.put_f64_le(h.offset());
    }
    index.for_each_table_entry(|bucket, oid| {
        buf.put_i64_le(bucket);
        buf.put_u32_le(oid);
    });
    let checksum = xor_fold(&buf);
    buf.put_u32_le(checksum);
    debug_assert_eq!(buf.len(), len);
    buf
}

/// Bounds-checked little-endian reader: every getter reports
/// truncation as [`PersistError::Malformed`] instead of panicking, so
/// arbitrary byte strings — including every truncation of a valid blob
/// — are safe to feed through [`load_index`].
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.buf.len() < n {
            return Err(PersistError::Malformed(format!(
                "truncated: wanted {n} more bytes, {} left",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32_le(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_u64_le(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_f32_le(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_f64_le(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Reload an index over the same (caller-kept) dataset.
pub fn load_index<'d>(data: &'d Dataset, buf: &[u8]) -> Result<C2lshIndex<'d>, PersistError> {
    if buf.len() < 4 + 8 + 4 {
        return Err(PersistError::Malformed("header too short".into()));
    }
    // Identify the format before verifying the checksum: a well-formed
    // blob from a newer format version must surface as
    // `UnsupportedVersion`, not be lumped into the corruption path
    // (newer versions may checksum differently).
    let magic = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if magic & !0xFF != MAGIC_PREFIX {
        return Err(PersistError::Malformed(format!("bad magic {magic:#010x}")));
    }
    let version = (magic & 0xFF) as u8;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let (payload, tail) = buf.split_at(buf.len() - 4);
    if xor_fold(payload) != u32::from_le_bytes(tail.try_into().unwrap()) {
        return Err(PersistError::Malformed("checksum mismatch".into()));
    }

    // Magic already consumed; the trailing checksum already verified.
    let mut r = Reader::new(&payload[4..]);
    let n = r.get_u64_le()? as usize;
    let dim = r.get_u32_le()? as usize;
    if n != data.len() || dim != data.dim() {
        return Err(PersistError::DatasetMismatch { want_n: n, want_dim: dim });
    }
    let c = r.get_u32_le()?;
    let w = r.get_f64_le()?;
    let delta = r.get_f64_le()?;
    let base_radius = r.get_f64_le()?;
    let beta = match r.get_u8()? {
        0 => Beta::Count(r.get_u64_le()?),
        1 => Beta::Fraction(r.get_f64_le()?),
        x => return Err(PersistError::Malformed(format!("unknown beta tag {x}"))),
    };
    let seed = r.get_u64_le()?;
    let m = r.get_u32_le()? as usize;
    let l = r.get_u32_le()? as usize;
    let beta_n = r.get_u32_le()? as usize;
    if m == 0 || l == 0 || l > m {
        return Err(PersistError::Malformed(format!("bad (m, l) = ({m}, {l})")));
    }

    let config = C2lshConfig {
        c,
        w,
        delta,
        base_radius,
        beta,
        seed,
        m_override: Some(m),
        l_override: Some(l),
    };
    config.validate().map_err(|e| PersistError::Malformed(e.to_string()))?;

    // Size the payload up front so a corrupt header can't trigger huge
    // allocations below.
    let need = payload_len(m, dim, n);
    if r.remaining() as u128 != need {
        return Err(PersistError::Malformed(format!(
            "payload size {} != expected {need}",
            r.remaining()
        )));
    }
    let mut functions = Vec::with_capacity(m);
    for _ in 0..m {
        let mut a = Vec::with_capacity(dim);
        for _ in 0..dim {
            a.push(r.get_f32_le()?);
        }
        let b = r.get_f64_le()?;
        functions.push(crate::hash::PstableHash::from_parts(a, b, w));
    }
    let mut segments: Vec<Segment> = (0..n)
        .step_by(SEGMENT_IDS)
        .map(|first| {
            let last = n.min(first + SEGMENT_IDS) - 1;
            Segment { runs: Vec::with_capacity(m), first: first as u32, last: last as u32 }
        })
        .collect();
    for _ in 0..m {
        let entries = r.take(n * 12)?.chunks_exact(12).map(|e| {
            let (bucket, oid) = e.split_at(8);
            (
                i64::from_le_bytes(bucket.try_into().unwrap()),
                u32::from_le_bytes(oid.try_into().unwrap()),
            )
        });
        if !entries.clone().map(|(bucket, _)| bucket).is_sorted() {
            return Err(PersistError::Malformed("table not sorted".into()));
        }
        if entries.clone().any(|(_, oid)| oid as usize >= n) {
            return Err(PersistError::Malformed("object id out of range".into()));
        }
        for segment in &mut segments {
            let (first, last) = (segment.first, segment.last);
            let own = entries.clone().filter(|&(_, oid)| (first..=last).contains(&oid));
            let run =
                SortedRun::from_sorted(own.map(|(bucket, oid)| (bucket, (oid - first) as u16)));
            segment.runs.push(run.expect("the table was checked sorted"));
        }
    }
    // beta_n re-derives identically from (beta, n); sanity-check it.
    let idx = C2lshIndex::from_parts(data, config, functions, segments);
    if idx.params().beta_n != beta_n {
        return Err(PersistError::Malformed(format!(
            "beta_n mismatch: stored {beta_n}, derived {}",
            idx.params().beta_n
        )));
    }
    Ok(idx)
}

/// Serialize a [`DynamicIndex`] checkpoint (`C2D1` format), including
/// every vector slot (tombstones preserved so object ids survive) and
/// `last_seq`, the WAL sequence number of the last mutation the
/// checkpoint reflects: replay resumes from `last_seq + 1`.
///
/// Layout (all little-endian):
///
/// ```text
/// magic "C2D1" | dim | expected_n | c | w | delta | base_radius |
/// beta tag+value | seed | m_override tag(+val) | l_override tag(+val) |
/// m | l | beta_n | last_seq |
/// slot_count | per slot: u8 tag, then
///     0 = tombstone: nothing
///     1 = live, default metadata: dim×f32
///     2 = live: u64 tag | u32 label | dim×f32 |
/// xor-fold checksum
/// ```
///
/// The slot tag is chosen per slot, as the WAL chooses an insert
/// record's op: a point whose [`PointMeta`] is the default costs no
/// metadata bytes, so an index without metadata writes tags 0 and 1
/// only — the file every earlier build wrote.
///
/// The hash family is *not* stored: it re-generates deterministically
/// from `(m, dim, config)` at load time, exactly as the original was
/// built, keeping checkpoints proportional to the data rather than the
/// data plus `m × dim` projections.
pub fn save_dynamic(index: &DynamicIndex, last_seq: u64) -> Vec<u8> {
    let cfg = index.config();
    let slots = index.slots();
    // 91 header bytes through `slot_count`, 4 per override set and 4 of
    // checksum; per slot a tag byte, `4·dim` when live, 12 more with metadata.
    let set = [cfg.m_override, cfg.l_override].iter().flatten().count();
    let tagged = slots.iter().zip(index.meta_slots().iter());
    let tagged = tagged.filter(|&(slot, meta)| slot.is_some() && *meta != PointMeta::default());
    let len = 95 + 4 * set + slots.len() + 4 * index.dim() * index.len() + 12 * tagged.count();
    let mut buf = Vec::with_capacity(len);
    buf.put_u32_le(DYN_MAGIC);
    buf.put_u32_le(index.dim() as u32);
    buf.put_u64_le(index.expected_n() as u64);
    buf.put_u32_le(cfg.c);
    buf.put_f64_le(cfg.w);
    buf.put_f64_le(cfg.delta);
    buf.put_f64_le(cfg.base_radius);
    match cfg.beta {
        Beta::Count(c) => {
            buf.put_u8(0);
            buf.put_u64_le(c);
        }
        Beta::Fraction(f) => {
            buf.put_u8(1);
            buf.put_f64_le(f);
        }
    }
    buf.put_u64_le(cfg.seed);
    for over in [cfg.m_override, cfg.l_override] {
        match over {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                buf.put_u32_le(v as u32);
            }
        }
    }
    let p = index.params();
    buf.put_u32_le(p.m as u32);
    buf.put_u32_le(p.l as u32);
    buf.put_u32_le(p.beta_n as u32);
    buf.put_u64_le(last_seq);
    buf.put_u64_le(slots.len() as u64);
    for (slot, meta) in slots.iter().zip(index.meta_slots().iter()) {
        let Some(v) = slot else {
            buf.put_u8(0);
            continue;
        };
        if *meta == PointMeta::default() {
            buf.put_u8(1);
        } else {
            buf.put_u8(2);
            buf.put_u64_le(meta.tag);
            buf.put_u32_le(meta.label);
        }
        for &x in v.iter() {
            buf.put_f32_le(x);
        }
    }
    let checksum = xor_fold(&buf);
    buf.put_u32_le(checksum);
    debug_assert_eq!(buf.len(), len);
    buf
}

/// Reload a [`DynamicIndex`] checkpoint; returns the index and the WAL
/// sequence number it reflects ([`save_dynamic`]'s `last_seq`).
/// Panic-free on arbitrary input, like [`load_index`]: truncation,
/// corruption and impossible values all surface as
/// [`PersistError::Malformed`], a right-family/newer-version blob as
/// [`PersistError::UnsupportedVersion`].
pub fn load_dynamic(buf: &[u8]) -> Result<(DynamicIndex, u64), PersistError> {
    if buf.len() < 4 + 4 {
        return Err(PersistError::Malformed("header too short".into()));
    }
    let magic = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if magic & !0xFF != DYN_MAGIC_PREFIX {
        return Err(PersistError::Malformed(format!("bad magic {magic:#010x}")));
    }
    let version = (magic & 0xFF) as u8;
    if version != DYN_FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let (payload, tail) = buf.split_at(buf.len() - 4);
    if xor_fold(payload) != u32::from_le_bytes(tail.try_into().unwrap()) {
        return Err(PersistError::Malformed("checksum mismatch".into()));
    }

    let mut r = Reader::new(&payload[4..]);
    let dim = r.get_u32_le()? as usize;
    let expected_n = r.get_u64_le()? as usize;
    if dim == 0 || expected_n == 0 {
        return Err(PersistError::Malformed(format!("bad shape ({expected_n}, {dim})")));
    }
    let c = r.get_u32_le()?;
    let w = r.get_f64_le()?;
    let delta = r.get_f64_le()?;
    let base_radius = r.get_f64_le()?;
    let beta = match r.get_u8()? {
        0 => Beta::Count(r.get_u64_le()?),
        1 => Beta::Fraction(r.get_f64_le()?),
        x => return Err(PersistError::Malformed(format!("unknown beta tag {x}"))),
    };
    let seed = r.get_u64_le()?;
    let mut overrides = [None, None];
    for slot in overrides.iter_mut() {
        *slot = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u32_le()? as usize),
            x => return Err(PersistError::Malformed(format!("unknown override tag {x}"))),
        };
    }
    let m = r.get_u32_le()? as usize;
    let l = r.get_u32_le()? as usize;
    let beta_n = r.get_u32_le()? as usize;
    if m == 0 || l == 0 || l > m {
        return Err(PersistError::Malformed(format!("bad (m, l) = ({m}, {l})")));
    }
    let last_seq = r.get_u64_le()?;

    let config = C2lshConfig {
        c,
        w,
        delta,
        base_radius,
        beta,
        seed,
        m_override: overrides[0],
        l_override: overrides[1],
    };
    config.validate().map_err(|e| PersistError::Malformed(e.to_string()))?;

    let slot_count = r.get_u64_le()? as usize;
    // Every slot costs at least its tag byte; a fabricated count that
    // exceeds the remaining bytes must not drive the allocation below.
    if slot_count > r.remaining() {
        return Err(PersistError::Malformed(format!(
            "slot count {slot_count} exceeds remaining {} bytes",
            r.remaining()
        )));
    }
    let mut slots: Vec<Option<Vec<f32>>> = Vec::with_capacity(slot_count);
    // Stays empty until a slot carries metadata, then holds one payload
    // per slot (defaults before it, and for tombstones and tag-1 slots).
    let mut metas: Vec<PointMeta> = Vec::new();
    for i in 0..slot_count {
        match r.get_u8()? {
            0 => {
                slots.push(None);
                continue;
            }
            1 => {}
            2 => {
                metas.resize(i, PointMeta::default());
                metas.push(PointMeta::new(r.get_u64_le()?, r.get_u32_le()?));
            }
            x => return Err(PersistError::Malformed(format!("unknown slot tag {x}"))),
        }
        let mut v = Vec::with_capacity(dim);
        for _ in 0..dim {
            let x = r.get_f32_le()?;
            if !x.is_finite() {
                return Err(PersistError::Malformed(format!("non-finite coordinate in slot {i}")));
            }
            v.push(x);
        }
        slots.push(Some(v));
    }
    if !metas.is_empty() {
        metas.resize(slot_count, PointMeta::default());
    }
    if r.remaining() != 0 {
        return Err(PersistError::Malformed(format!("{} trailing bytes", r.remaining())));
    }

    let index = DynamicIndex::from_slots(dim, expected_n, &config, slots, metas);
    // (m, l, beta_n) re-derive from (expected_n, config); a mismatch
    // means the checkpoint and this build disagree on the derivation
    // and the restored index would not answer like the saved one.
    let p = index.params();
    if (p.m, p.l, p.beta_n) != (m, l, beta_n) {
        return Err(PersistError::Malformed(format!(
            "derived params ({}, {}, {}) != stored ({m}, {l}, {beta_n})",
            p.m, p.l, p.beta_n
        )));
    }
    Ok((index, last_seq))
}

fn xor_fold(bytes: &[u8]) -> u32 {
    let mut acc = 0u32;
    for chunk in bytes.chunks(4) {
        let mut word = [0u8; 4];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = acc.rotate_left(1) ^ u32::from_le_bytes(word);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vector::gen::{generate, Distribution};

    fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 8, spread: 0.02, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    fn cfg() -> C2lshConfig {
        C2lshConfig::builder().bucket_width(1.0).seed(9).build()
    }

    #[test]
    fn save_load_roundtrip_preserves_queries() {
        let data = clustered(600, 10, 1);
        let idx = C2lshIndex::build(&data, &cfg());
        let blob = save_index(&idx);
        let loaded = load_index(&data, &blob).unwrap();
        for qi in [0usize, 123, 599] {
            let q = data.get(qi);
            assert_eq!(idx.query(q, 7).0, loaded.query(q, 7).0, "query {qi}");
        }
        assert_eq!(idx.params().m, loaded.params().m);
        assert_eq!(idx.params().l, loaded.params().l);
    }

    /// 64-bit FNV-1a, enough to pin a blob without checking it in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// The `C2L1` bytes of a fixed 2 000 × 16 index, pinned while the
    /// tables still stored a bucket id per entry. The in-memory layout
    /// is not the file format: whatever the runs look like in memory,
    /// `save_index` must keep writing these bytes — so a blob written
    /// by any earlier build *is* the blob checked here, and it must
    /// load and answer like the index it was saved from.
    #[test]
    fn golden_save_index_bytes() {
        let data = clustered(2000, 16, 21);
        let idx = C2lshIndex::build(&data, &cfg());
        let blob = save_index(&idx);
        let m = idx.params().m;
        assert_eq!(m, 146);
        assert_eq!(blob.len(), 73 + m * (16 * 4 + 8) + m * 2000 * 12 + 4);
        assert_eq!(fnv1a(&blob), 5_892_197_027_107_874_559, "save_index bytes moved");
        assert_eq!(fnv1a(&blob[blob.len() / 2..]), 14_308_760_631_875_540_648, "table bytes moved");
        let loaded = load_index(&data, &blob).unwrap();
        assert_eq!(save_index(&loaded), blob, "load then save is the identity");
        for qi in [0usize, 777, 1999] {
            let q = data.get(qi);
            assert_eq!(idx.query(q, 10), loaded.query(q, 10), "query {qi}");
        }
    }

    #[test]
    fn rejects_wrong_dataset() {
        let data = clustered(100, 8, 2);
        let idx = C2lshIndex::build(&data, &cfg());
        let blob = save_index(&idx);
        let other = clustered(101, 8, 2);
        assert!(matches!(
            load_index(&other, &blob),
            Err(PersistError::DatasetMismatch { want_n: 100, want_dim: 8 })
        ));
        let other_dim = clustered(100, 9, 2);
        assert!(load_index(&other_dim, &blob).is_err());
    }

    #[test]
    fn detects_corruption() {
        let data = clustered(80, 6, 3);
        let idx = C2lshIndex::build(&data, &cfg());
        let mut blob = save_index(&idx);
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        let err = load_index(&data, &blob).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");
    }

    #[test]
    fn rejects_truncation_and_bad_magic() {
        let data = clustered(50, 4, 4);
        let idx = C2lshIndex::build(&data, &cfg());
        let blob = save_index(&idx);
        assert!(load_index(&data, &blob[..10]).is_err());
        // Corrupt the prefix (byte 1 holds 'L'), not the version byte.
        let mut bad = blob.clone();
        bad[1] ^= 1;
        assert!(matches!(load_index(&data, &bad), Err(PersistError::Malformed(_))));
    }

    /// Re-stamp a valid blob's version byte and fix up the trailing
    /// checksum so only the version differs from a well-formed file.
    fn with_version(blob: &[u8], version: u8) -> Vec<u8> {
        let mut out = blob.to_vec();
        out[0] = version; // little-endian magic: byte 0 is the low (version) byte
        let end = out.len() - 4;
        let sum = xor_fold(&out[..end]).to_le_bytes();
        out[end..].copy_from_slice(&sum);
        out
    }

    #[test]
    fn future_version_rejected_explicitly() {
        let data = clustered(60, 5, 6);
        let idx = C2lshIndex::build(&data, &cfg());
        let blob = save_index(&idx);
        // A hypothetical "C2L2" file — valid checksum, newer version —
        // must name the version, not claim corruption.
        let future = with_version(&blob, b'2');
        assert_eq!(
            load_index(&data, &future).unwrap_err(),
            PersistError::UnsupportedVersion { found: b'2' }
        );
        // Even without a fixed-up checksum the version verdict wins:
        // version is checked before the checksum.
        let mut unfixed = blob.clone();
        unfixed[0] = b'3';
        assert_eq!(
            load_index(&data, &unfixed).unwrap_err(),
            PersistError::UnsupportedVersion { found: b'3' }
        );
        // The version this build writes still loads.
        assert!(load_index(&data, &with_version(&blob, b'1')).is_ok());
    }

    fn mutated_dynamic() -> (DynamicIndex, Dataset) {
        let data = clustered(300, 8, 11);
        let mut idx = DynamicIndex::from_dataset(&data, &cfg());
        for oid in [5u32, 100, 299] {
            assert!(idx.delete(oid));
        }
        idx.insert(vec![3.0; 8]);
        (idx, data)
    }

    /// The checkpoint bytes of a fixed history whose points all carry
    /// default metadata, pinned while the writer still chose between a
    /// `C2D1` and a `C2D2` stamp for the whole file. However metadata is
    /// encoded, a metadata-free index must keep writing these bytes: the
    /// checkpoint's size is a reported figure (`index_mib`), and every
    /// file an earlier build wrote is one of these.
    #[test]
    fn golden_save_dynamic_zero_meta_bytes() {
        let (idx, _) = mutated_dynamic();
        let blob = save_dynamic(&idx, 417);
        let (live, dead) = (298, 3);
        assert_eq!(idx.slots().len(), live + dead);
        assert_eq!(blob.len(), 91 + live * (1 + 8 * 4) + dead + 4);
        assert_eq!(&blob[..4], b"1D2C", "little-endian \"C2D1\"");
        assert_eq!(fnv1a(&blob), 10_829_543_242_195_557_130, "save_dynamic bytes moved");
        assert_eq!(fnv1a(&blob[blob.len() / 2..]), 16_200_998_130_324_938_747, "slot bytes moved");
    }

    /// The blob is written into a buffer reserved at its exact length,
    /// whatever the header's optional words and the slots' tags add.
    #[test]
    fn save_dynamic_reserves_the_exact_length() {
        let builder = C2lshConfig::builder().bucket_width(1.0).seed(3);
        let config = builder.m_override(5).l_override(2).build();
        let mut idx = DynamicIndex::new(4, 50, &config);
        for i in 0..40u32 {
            idx.insert_with_meta(vec![i as f32; 4], PointMeta::new(u64::from(i % 3), i % 2));
        }
        assert!(idx.delete(7) && idx.delete(12));
        let blob = save_dynamic(&idx, 9);
        assert_eq!(blob.capacity(), blob.len());
        assert_eq!(load_dynamic(&blob).unwrap().0.len(), 38);
    }

    #[test]
    fn dynamic_roundtrip_preserves_queries_ids_and_seq() {
        let (idx, data) = mutated_dynamic();
        let blob = save_dynamic(&idx, 417);
        let (loaded, last_seq) = load_dynamic(&blob).unwrap();
        assert_eq!(last_seq, 417);
        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.slots().len(), idx.slots().len(), "tombstones preserved");
        assert!(loaded.meta_slots().iter().all(|m| *m == PointMeta::default()));
        for qi in [0usize, 42, 250] {
            let q = data.get(qi);
            assert_eq!(idx.query(q, 6).0, loaded.query(q, 6).0, "query {qi}");
        }
        // Post-restore inserts keep assigning the same ids.
        let mut a = idx;
        let mut b = loaded;
        assert_eq!(a.insert(vec![1.0; 8]), b.insert(vec![1.0; 8]));
    }

    #[test]
    fn dynamic_rejects_corruption_everywhere() {
        let (idx, _) = mutated_dynamic();
        let blob = save_dynamic(&idx, 1);
        for at in [0usize, 3, 10, blob.len() / 2, blob.len() - 5] {
            let mut bad = blob.clone();
            bad[at] ^= 0x40;
            let r = load_dynamic(&bad);
            assert!(r.is_err(), "flip at {at} accepted");
        }
        for cut in [0usize, 4, 20, blob.len() / 3, blob.len() - 1] {
            assert!(load_dynamic(&blob[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    #[test]
    fn dynamic_future_version_and_wrong_family() {
        let (idx, _) = mutated_dynamic();
        let blob = save_dynamic(&idx, 0);
        // "C2D3": right family, newer version, checksum fixed up.
        let future = with_version(&blob, b'3');
        assert_eq!(
            load_dynamic(&future).unwrap_err(),
            PersistError::UnsupportedVersion { found: b'3' }
        );
        // "C2D2" was a whole-file metadata switch for a few releases; the
        // slot tags replaced it and its reader is gone.
        assert_eq!(
            load_dynamic(&with_version(&blob, b'2')).unwrap_err(),
            PersistError::UnsupportedVersion { found: b'2' }
        );
        // A C2L1 blob is a different family, not a version skew.
        let data = clustered(50, 4, 12);
        let static_blob = save_index(&C2lshIndex::build(&data, &cfg()));
        assert!(matches!(load_dynamic(&static_blob), Err(PersistError::Malformed(_))));
        assert!(load_dynamic(&with_version(&blob, b'1')).is_ok());
    }

    #[test]
    fn dynamic_checkpoint_tags_each_slot_by_its_metadata() {
        // Every third point carries no metadata, the rest do, and two
        // slots are tombstones (one of each kind).
        let data = clustered(120, 8, 13);
        let meta_of = |i: usize| match i % 3 {
            0 => PointMeta::default(),
            _ => PointMeta::new((i as u64) << 1, (i % 4) as u32),
        };
        let mut rich = DynamicIndex::new(8, 300, &cfg());
        let mut plain = DynamicIndex::new(8, 300, &cfg());
        for (i, v) in data.iter().enumerate() {
            rich.insert_with_meta(v.to_vec(), meta_of(i));
            plain.insert(v.to_vec());
        }
        for idx in [&mut rich, &mut plain] {
            assert!(idx.delete(60) && idx.delete(61));
        }
        let blob = save_dynamic(&rich, 121);
        assert_eq!(blob[0], b'1', "one version, whatever the slots carry");
        // 12 bytes per live slot with metadata, none for the others.
        let tagged = (0..120).filter(|i| i % 3 != 0 && ![60, 61].contains(i)).count();
        assert_eq!(blob.len(), save_dynamic(&plain, 121).len() + 12 * tagged);

        let (loaded, last_seq) = load_dynamic(&blob).unwrap();
        assert_eq!(last_seq, 121);
        assert_eq!(loaded.slots(), rich.slots());
        let want: Vec<PointMeta> = (0..120)
            .map(|i| if [60, 61].contains(&i) { PointMeta::default() } else { meta_of(i) })
            .collect();
        let got: Vec<PointMeta> = loaded.meta_slots().iter().copied().collect();
        assert_eq!(got, want, "tombstones restore with default meta");
        use crate::engine::SearchOptions;
        use crate::meta::Predicate;
        let opts = SearchOptions { filter: Some(Predicate::label(3)), ..Default::default() };
        let (q, filtered) = (data.get(5), rich.query_with(data.get(5), 4, &opts).0);
        assert!(!filtered.is_empty());
        assert_eq!(loaded.query_with(q, 4, &opts).0, filtered);
        assert_eq!(loaded.query(q, 4).0, rich.query(q, 4).0);
        assert_eq!(save_dynamic(&loaded, 121), blob, "load then save is the identity");

        // Cut anywhere — inside a tag-2 slot's metadata included — the
        // blob is malformed, never a panic and never a shorter index.
        for cut in 0..blob.len() {
            assert!(
                matches!(load_dynamic(&blob[..cut]), Err(PersistError::Malformed(_))),
                "truncation to {cut} bytes accepted"
            );
        }
    }
}
