//! Checkpoints of a [`DynamicIndex`] (`C2D1` format): its configuration,
//! every vector slot (tombstones included, so object ids survive) and
//! the WAL high-water mark. The hash family and the tables are not
//! stored; they re-derive from the configuration and the slots.
//!
//! The magic word doubles as the version stamp: the `"C2D"` prefix
//! identifies the format family and the trailing byte (`'1'`) its
//! version. A blob with the right prefix but a different version byte
//! is rejected as [`PersistError::UnsupportedVersion`] *before* the
//! checksum runs, so "written by a newer release" never masquerades as
//! corruption. Loading is panic-free on arbitrary input: every read is
//! bounds-checked, nothing is sized from a header field before the
//! field is checked, and truncation at any byte boundary reports
//! [`PersistError::Malformed`] (see `tests/proptest_persist.rs`).

use crate::config::{Beta, C2lshConfig};
use crate::dynamic::DynamicIndex;
use crate::meta::PointMeta;
use bytes::BufMut;
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

const DYN_MAGIC: u32 = 0x4332_4431; // "C2D1": "C2D" prefix + version byte '1'
/// High three bytes of the magic word — the format family tag.
const DYN_MAGIC_PREFIX: u32 = DYN_MAGIC & !0xFF;
/// Low byte of the magic word — the format version this build writes
/// and the only one it reads.
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
    /// The checkpoint was written for another `(dim, expected_n,
    /// config)` than the caller asked for.
    Mismatch,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Malformed(m) => write!(f, "malformed index blob: {m}"),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported index format version {:?} (this build reads {:?} only)",
                *found as char, DYN_FORMAT_VERSION as char
            ),
            PersistError::Mismatch => {
                f.write_str("checkpoint does not match the requested (dim, expected_n, config)")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Bounds-checked little-endian reader: every getter reports
/// truncation as [`PersistError::Malformed`] instead of panicking, so
/// arbitrary byte strings — including every truncation of a valid blob
/// — are safe to feed through [`load_dynamic`].
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

    fn get_f64_le(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Bytes [`save_dynamic`] gathers before it hands them to its writer.
const SAVE_CHUNK: usize = 1 << 16;

/// Stream a [`DynamicIndex`] checkpoint (`C2D1` format) into `out`,
/// including every vector slot (tombstones preserved so object ids
/// survive) and `last_seq`, the WAL sequence number of the last mutation
/// the checkpoint reflects: replay resumes from `last_seq + 1`.
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
///
/// The bytes pass through one buffer of about 64 KiB, which folds them
/// into the checksum and writes them to `out` a chunk at a time, so a
/// checkpoint of any size costs that buffer and no copy of the file.
pub fn save_dynamic(index: &DynamicIndex, last_seq: u64, mut out: impl Write) -> io::Result<()> {
    let cfg = index.config();
    let mut buf = Vec::with_capacity(SAVE_CHUNK + 16 + 4 * index.dim());
    let mut checksum = 0;
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
    let slots = index.slots();
    buf.put_u64_le(slots.len() as u64);
    for (slot, meta) in slots.iter().zip(index.meta_slots().iter()) {
        match slot {
            None => buf.put_u8(0),
            Some(v) => {
                if *meta == PointMeta::default() {
                    buf.put_u8(1);
                } else {
                    buf.put_u8(2);
                    buf.put_u64_le(meta.tag);
                    buf.put_u32_le(meta.label);
                }
                let at = buf.len();
                buf.resize(at + 4 * v.len(), 0);
                for (bytes, x) in buf[at..].chunks_exact_mut(4).zip(v.iter()) {
                    bytes.copy_from_slice(&x.to_le_bytes());
                }
            }
        }
        if buf.len() >= SAVE_CHUNK {
            // Whole words only, so the fold's word boundaries are the
            // file's: the one to three bytes left over lead the next chunk.
            let words = buf.len() & !3;
            checksum = xor_fold(checksum, &buf[..words]);
            out.write_all(&buf[..words])?;
            buf.drain(..words);
        }
    }
    checksum = xor_fold(checksum, &buf);
    buf.put_u32_le(checksum);
    out.write_all(&buf)
}

/// Reload a [`DynamicIndex`] checkpoint written for `(dim, expected_n,
/// config)`; returns the index and the WAL sequence number it reflects
/// ([`save_dynamic`]'s `last_seq`). A checkpoint of any other shape or
/// configuration is [`PersistError::Mismatch`], refused before anything
/// is sized from its header. Panic-free on arbitrary input: truncation,
/// corruption and impossible values all surface as
/// [`PersistError::Malformed`], a right-family/newer-version blob as
/// [`PersistError::UnsupportedVersion`].
pub fn load_dynamic(
    buf: &[u8],
    dim: usize,
    expected_n: usize,
    config: &C2lshConfig,
) -> Result<(DynamicIndex, u64), PersistError> {
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
    if xor_fold(0, payload) != u32::from_le_bytes(tail.try_into().unwrap()) {
        return Err(PersistError::Malformed("checksum mismatch".into()));
    }

    let mut r = Reader::new(&payload[4..]);
    let shape = (r.get_u32_le()? as usize, r.get_u64_le()? as usize);
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
    let (m_override, l_override) = (overrides[0], overrides[1]);
    let found = C2lshConfig { c, w, delta, base_radius, beta, seed, m_override, l_override };
    if shape != (dim, expected_n) || found != *config {
        return Err(PersistError::Mismatch);
    }
    let m = r.get_u32_le()? as usize;
    let l = r.get_u32_le()? as usize;
    let beta_n = r.get_u32_le()? as usize;
    let last_seq = r.get_u64_le()?;

    let slot_count = r.get_u64_le()? as usize;
    // Every slot costs at least its tag byte; a fabricated count that
    // exceeds the remaining bytes must not drive the allocation below.
    if slot_count > r.remaining() {
        return Err(PersistError::Malformed(format!(
            "slot count {slot_count} exceeds remaining {} bytes",
            r.remaining()
        )));
    }
    let mut slots: Vec<Option<Arc<[f32]>>> = Vec::with_capacity(slot_count);
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
        // The slot's bytes are taken before its vector is allocated, in
        // the `Arc` the index keeps.
        let coords = r.take(4 * dim)?.chunks_exact(4);
        let v: Arc<[f32]> = coords.map(|x| f32::from_le_bytes(x.try_into().unwrap())).collect();
        if !v.iter().all(|x| x.is_finite()) {
            return Err(PersistError::Malformed(format!("non-finite coordinate in slot {i}")));
        }
        slots.push(Some(v));
    }
    if !metas.is_empty() {
        metas.resize(slot_count, PointMeta::default());
    }
    if r.remaining() != 0 {
        return Err(PersistError::Malformed(format!("{} trailing bytes", r.remaining())));
    }

    let index = DynamicIndex::from_slots(dim, expected_n, config, slots, metas);
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

/// Fold `bytes` into the checksum `acc` of the bytes before them, a
/// little-endian word at a time (a short last word zero-padded); the
/// bytes before must be whole words.
fn xor_fold(mut acc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(4);
    for word in &mut words {
        acc = acc.rotate_left(1) ^ u32::from_le_bytes(word.try_into().unwrap());
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 4];
        word[..tail.len()].copy_from_slice(tail);
        acc = acc.rotate_left(1) ^ u32::from_le_bytes(word);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vector::dataset::Dataset;
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

    /// 64-bit FNV-1a, enough to pin a blob without checking it in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Re-stamp a valid blob's version byte and fix up the trailing
    /// checksum so only the version differs from a well-formed file.
    fn with_version(blob: &[u8], version: u8) -> Vec<u8> {
        let mut out = blob.to_vec();
        out[0] = version; // little-endian magic: byte 0 is the low (version) byte
        let end = out.len() - 4;
        let sum = xor_fold(0, &out[..end]).to_le_bytes();
        out[end..].copy_from_slice(&sum);
        out
    }

    /// The checkpoint of `index`, streamed into a `Vec`.
    fn save_dynamic(index: &DynamicIndex, last_seq: u64) -> Vec<u8> {
        let mut blob = Vec::new();
        super::save_dynamic(index, last_seq, &mut blob).unwrap();
        blob
    }

    /// Reload `blob` with the shape and configuration of `idx`.
    fn reload(idx: &DynamicIndex, blob: &[u8]) -> Result<(DynamicIndex, u64), PersistError> {
        load_dynamic(blob, idx.dim(), idx.expected_n(), idx.config())
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

    /// The streamed checkpoint is as long as its layout says: 91 header
    /// bytes through `slot_count`, 4 per optional header word set, a tag
    /// byte per slot, `4·dim` per live slot and 12 more with metadata,
    /// 4 of checksum — over three of the writer's chunks.
    #[test]
    fn save_dynamic_streams_the_layouts_length() {
        let builder = C2lshConfig::builder().bucket_width(1.0).seed(3);
        let config = builder.m_override(5).l_override(2).build();
        let mut idx = DynamicIndex::new(7, 50, &config);
        for i in 0..4000u32 {
            idx.insert_with_meta(vec![i as f32; 7], PointMeta::new(u64::from(i % 3), i % 2));
        }
        let dead = [7, 12, 3000];
        assert!(dead.iter().all(|&oid| idx.delete(oid)));
        let tagged = (0..4000).filter(|i| (i % 3, i % 2) != (0, 0) && !dead.contains(i)).count();
        let blob = save_dynamic(&idx, 9);
        assert!(blob.len() > 2 * SAVE_CHUNK);
        assert_eq!(blob.len(), 91 + 2 * 4 + 4000 + 3997 * 4 * 7 + 12 * tagged + 4);
        assert_eq!(reload(&idx, &blob).unwrap().0.len(), 3997);
    }

    #[test]
    fn dynamic_roundtrip_preserves_queries_ids_and_seq() {
        let (idx, data) = mutated_dynamic();
        let blob = save_dynamic(&idx, 417);
        let (loaded, last_seq) = reload(&idx, &blob).unwrap();
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
            let r = reload(&idx, &bad);
            assert!(r.is_err(), "flip at {at} accepted");
        }
        for cut in [0usize, 4, 20, blob.len() / 3, blob.len() - 1] {
            assert!(reload(&idx, &blob[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    #[test]
    fn dynamic_future_version_and_wrong_family() {
        let (idx, _) = mutated_dynamic();
        let blob = save_dynamic(&idx, 0);
        // "C2D3": right family, newer version, checksum fixed up.
        let future = with_version(&blob, b'3');
        assert_eq!(
            reload(&idx, &future).unwrap_err(),
            PersistError::UnsupportedVersion { found: b'3' }
        );
        // "C2D2" was a whole-file metadata switch for a few releases; the
        // slot tags replaced it and its reader is gone.
        assert_eq!(
            reload(&idx, &with_version(&blob, b'2')).unwrap_err(),
            PersistError::UnsupportedVersion { found: b'2' }
        );
        // A "C2L1" stamp names another family, not a version skew.
        let mut other_family = blob.clone();
        other_family[..4].copy_from_slice(b"1L2C");
        assert!(matches!(reload(&idx, &other_family), Err(PersistError::Malformed(_))));
        assert!(reload(&idx, &with_version(&blob, b'1')).is_ok());
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

        let (loaded, last_seq) = reload(&rich, &blob).unwrap();
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
                matches!(reload(&rich, &blob[..cut]), Err(PersistError::Malformed(_))),
                "truncation to {cut} bytes accepted"
            );
        }
    }
}
