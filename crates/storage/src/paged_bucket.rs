//! Compressed sorted `(bucket, object)` posting runs over disk pages.
//!
//! One run holds a hash table's entries sorted by `(bucket, oid)`, packed
//! into [`DiskPageFile`] pages as per-bucket *groups* of codec-compressed
//! oid lists (see [`crate::codec`]). Page payload layout:
//!
//! ```text
//! u16 group_count
//! group_count × [ i64 bucket | encoded postings ]
//! ```
//!
//! Groups never span pages; a bucket whose list outgrows one page is split
//! into continuation groups carrying the same bucket id on following
//! pages. An in-memory directory (first bucket per page + global entry
//! index per page) gives `lower_bound` / `scan_while` over global *entry*
//! indexes at ≤ 1 page read per bound probe, while the entries themselves
//! stay compressed on disk and are fetched through the [`PinnedPool`].
//! A scan hands its visitor one decoded group at a time.

use std::io;

use crate::codec;
use crate::diskfile::{DiskPageFile, DiskPageFileWriter, PAYLOAD_BYTES};
use crate::pool::PinnedPool;

/// Bytes of per-page overhead (the `u16` group count).
const PAGE_HEADER: usize = 2;
/// Bytes of per-group overhead before the encoded postings (the bucket id).
const GROUP_HEADER: usize = 8;

/// Largest oid chunk emitted as one group: its *plain* encoding is
/// guaranteed to fit an empty page, so packing never gets stuck.
pub const MAX_GROUP_IDS: usize =
    (PAYLOAD_BYTES - PAGE_HEADER - GROUP_HEADER - codec::HEADER_BYTES) / 4;

/// Run encoder: feed whole buckets in ascending bucket order. Finished
/// page payloads are held until [`finish`](Self::finish) appends them
/// to the [`DiskPageFileWriter`], so a run can be encoded on any thread
/// and written by the one that owns the file.
pub struct PostingRunBuilder {
    /// The page being filled.
    page: Vec<u8>,
    groups_in_page: u16,
    /// Full pages' payloads, [`PAYLOAD_BYTES`] each.
    payloads: Vec<u8>,
    fences: Vec<i64>,
    entry_base: Vec<usize>,
    len: usize,
    last_bucket: Option<i64>,
    enc: Vec<u8>,
}

impl Default for PostingRunBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PostingRunBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        PostingRunBuilder {
            page: vec![0; PAGE_HEADER],
            groups_in_page: 0,
            payloads: Vec::new(),
            fences: Vec::new(),
            entry_base: Vec::new(),
            len: 0,
            last_bucket: None,
            enc: Vec::new(),
        }
    }

    /// Append one bucket's ids, ascending. Buckets must arrive in
    /// strictly ascending order; a list longer than [`MAX_GROUP_IDS`]
    /// becomes continuation groups carrying the same bucket id.
    pub fn push_bucket(&mut self, bucket: i64, oids: &[u32]) {
        if let Some(last) = self.last_bucket {
            assert!(bucket > last, "buckets out of order: {bucket} after {last}");
        }
        debug_assert!(oids.is_sorted(), "oids out of order");
        self.last_bucket = Some(bucket);
        for group in oids.chunks(MAX_GROUP_IDS) {
            self.enc.clear();
            codec::encode_postings(group, &mut self.enc);
            let group_bytes = GROUP_HEADER + self.enc.len();
            if self.page.len() + group_bytes > PAYLOAD_BYTES {
                self.flush_page();
            }
            debug_assert!(self.page.len() + group_bytes <= PAYLOAD_BYTES);
            if self.groups_in_page == 0 {
                self.fences.push(bucket);
                self.entry_base.push(self.len);
            }
            self.page.extend_from_slice(&bucket.to_le_bytes());
            self.page.extend_from_slice(&self.enc);
            self.groups_in_page += 1;
            self.len += group.len();
        }
    }

    fn flush_page(&mut self) {
        if self.groups_in_page == 0 {
            return;
        }
        self.page[..PAGE_HEADER].copy_from_slice(&self.groups_in_page.to_le_bytes());
        self.page.resize(PAYLOAD_BYTES, 0);
        self.payloads.append(&mut self.page);
        self.page.resize(PAGE_HEADER, 0);
        self.groups_in_page = 0;
    }

    /// Append the run's pages to `writer` and return its in-memory
    /// directory.
    pub fn finish(mut self, writer: &mut DiskPageFileWriter) -> io::Result<PostingRun> {
        self.flush_page();
        let pages = self.payloads.chunks_exact(PAYLOAD_BYTES).map(|p| writer.append_page(p));
        Ok(PostingRun {
            pages: pages.collect::<io::Result<_>>()?,
            fences: self.fences,
            entry_base: self.entry_base,
            len: self.len,
        })
    }
}

/// One finished posting run: page numbers plus the in-memory directory.
pub struct PostingRun {
    pages: Vec<u32>,
    /// Bucket id of the first group on each page.
    fences: Vec<i64>,
    /// Global entry index of the first entry on each page.
    entry_base: Vec<usize>,
    len: usize,
}

impl PostingRun {
    /// Total entries in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of disk pages the run occupies.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// First global entry index whose bucket is `>= target`; costs at most
    /// one page read (usually a pool hit).
    pub fn lower_bound(
        &self,
        file: &DiskPageFile,
        pool: &PinnedPool,
        target: i64,
    ) -> io::Result<usize> {
        let pp = self.fences.partition_point(|&f| f < target);
        if pp == 0 {
            return Ok(0);
        }
        let page_idx = pp - 1;
        let page = pool.get(file, self.pages[page_idx])?;
        let mut idx = self.entry_base[page_idx];
        let mut off = PAGE_HEADER;
        let groups = u16::from_le_bytes(page[..PAGE_HEADER].try_into().unwrap());
        for _ in 0..groups {
            let bucket = i64::from_le_bytes(page[off..off + GROUP_HEADER].try_into().unwrap());
            let (count, total) =
                codec::peek_postings(&page[off + GROUP_HEADER..]).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed posting group")
                })?;
            if bucket >= target {
                break;
            }
            idx += count;
            off += GROUP_HEADER + total;
        }
        Ok(idx)
    }

    /// Visit entries with global indexes in `[from, to)` in order, one
    /// call `f(bucket, oids)` per group, clipped to the range; stops early
    /// (returning `Ok(false)`) when `f` returns `false`, reading no page
    /// past the one that group is on. Groups are decoded into `ids`,
    /// which the caller keeps from scan to scan.
    pub fn scan_while(
        &self,
        file: &DiskPageFile,
        pool: &PinnedPool,
        from: usize,
        to: usize,
        ids: &mut Vec<u32>,
        mut f: impl FnMut(i64, &[u32]) -> bool,
    ) -> io::Result<bool> {
        let to = to.min(self.len);
        if from >= to {
            return Ok(true);
        }
        let start_page = self.entry_base.partition_point(|&b| b <= from) - 1;
        let mut idx = self.entry_base[start_page];
        for &page_no in &self.pages[start_page..] {
            let page = pool.get(file, page_no)?;
            let groups = u16::from_le_bytes(page[..PAGE_HEADER].try_into().unwrap());
            let mut off = PAGE_HEADER;
            for _ in 0..groups {
                let bucket = i64::from_le_bytes(page[off..off + GROUP_HEADER].try_into().unwrap());
                let enc = &page[off + GROUP_HEADER..];
                let (count, total) = codec::peek_postings(enc).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed posting group")
                })?;
                if idx + count > from {
                    ids.clear();
                    codec::decode_postings(enc, ids).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "malformed posting group")
                    })?;
                    // Here `idx < to`: the scan returns as soon as it is not.
                    let clipped = &ids[from.saturating_sub(idx)..count.min(to - idx)];
                    if !f(bucket, clipped) {
                        return Ok(false);
                    }
                }
                idx += count;
                if idx >= to {
                    return Ok(true);
                }
                off += GROUP_HEADER + total;
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::scratch_dir;

    /// Build a run from entries, returning everything needed to read it.
    fn build(tag: &str, entries: &[(i64, u32)]) -> (std::path::PathBuf, DiskPageFile, PostingRun) {
        let dir = scratch_dir(tag);
        let path = dir.join("run.ccpg");
        let mut w = DiskPageFileWriter::create(&path).unwrap();
        let mut b = PostingRunBuilder::new();
        for bucket in entries.chunk_by(|a, b| a.0 == b.0) {
            let oids: Vec<u32> = bucket.iter().map(|e| e.1).collect();
            b.push_bucket(bucket[0].0, &oids);
        }
        let run = b.finish(&mut w).unwrap();
        (dir, w.finish().unwrap(), run)
    }

    fn reference_entries(n: usize, seed: u64) -> Vec<(i64, u32)> {
        // Deterministic LCG: clustered buckets with duplicate-heavy lists.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut entries: Vec<(i64, u32)> =
            (0..n).map(|_| ((next() % 97) as i64 - 48, (next() % 10_000) as u32)).collect();
        entries.sort_unstable();
        entries
    }

    #[test]
    fn lower_bound_and_scan_match_reference() {
        let entries = reference_entries(20_000, 7);
        let (dir, file, run) = build("run_ref", &entries);
        assert_eq!(run.len(), entries.len());
        let pool = PinnedPool::new(8);
        for target in [-60i64, -48, -10, 0, 3, 47, 48, 60] {
            let expect = entries.partition_point(|&(b, _)| b < target);
            assert_eq!(run.lower_bound(&file, &pool, target).unwrap(), expect, "target {target}");
        }
        let (from, to) = (137, 9_731);
        let (mut seen, mut ids) = (Vec::new(), Vec::new());
        assert!(run
            .scan_while(&file, &pool, from, to, &mut ids, |b, oids| {
                seen.extend(oids.iter().map(|&o| (b, o)));
                true
            })
            .unwrap());
        assert_eq!(seen, entries[from..to]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_bucket_splits_into_continuation_groups() {
        // One bucket with 5000 wide-gapped ids (poorly compressible) must
        // span multiple pages via continuation groups.
        let mut oids: Vec<u32> = {
            let mut state = 99u64;
            (0..5_000)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 32) as u32
                })
                .collect()
        };
        oids.sort_unstable();
        let entries: Vec<(i64, u32)> = oids.into_iter().map(|o| (42i64, o)).collect();
        let (dir, file, run) = build("run_split", &entries);
        assert!(run.page_count() >= 2, "expected a multi-page run, got {}", run.page_count());
        let pool = PinnedPool::new(4);
        assert_eq!(run.lower_bound(&file, &pool, 42).unwrap(), 0);
        assert_eq!(run.lower_bound(&file, &pool, 43).unwrap(), 5_000);
        let mut seen = Vec::new();
        run.scan_while(&file, &pool, 0, run.len(), &mut Vec::new(), |b, oids| {
            seen.extend(oids.iter().map(|&o| (b, o)));
            true
        })
        .unwrap();
        assert_eq!(seen, entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_aborts_early() {
        let entries = reference_entries(3_000, 11);
        let (dir, file, run) = build("run_abort", &entries);
        let pool = PinnedPool::new(4);
        // Refuse the third group: no fourth call, and only the pages up
        // to that group's are fetched.
        let (mut calls, mut seen) = (0, 0);
        let done = run
            .scan_while(&file, &pool, 5, run.len(), &mut Vec::new(), |_, oids| {
                calls += 1;
                seen += oids.len();
                calls < 3
            })
            .unwrap();
        assert!(!done);
        assert_eq!(calls, 3);
        let third_group_end = entries.chunk_by(|a, b| a.0 == b.0).take(3).map(<[_]>::len).sum();
        assert_eq!(5 + seen, third_group_end);
        assert_eq!(pool.stats().requests, 1, "three small groups share the first page");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_run_is_well_formed() {
        let (dir, file, run) = build("run_empty", &[]);
        assert!(run.is_empty());
        assert_eq!(run.page_count(), 0);
        let pool = PinnedPool::new(2);
        assert_eq!(run.lower_bound(&file, &pool, 0).unwrap(), 0);
        assert!(run.scan_while(&file, &pool, 0, 10, &mut Vec::new(), |_, _| true).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
