//! Compressed posting runs over disk pages: a hash table's object ids in
//! `(bucket, oid)` order, and nothing else.
//!
//! One run holds a table's entries as [`DiskPageFile`] pages of
//! *segments*. A segment is one bucket's consecutive ids on one page, as
//! one codec list (see [`crate::codec`]); no bucket id is stored, because
//! the caller keeps the table's bucket directory in RAM and asks for
//! entries by their global index. Page payload layout:
//!
//! ```text
//! u16 segment_count
//! segment_count × encoded postings
//! ```
//!
//! The builder fills every page up to the last id that fits and carries
//! the rest of the bucket on to the next page as a new segment, so no
//! page but a run's last could take its next id. An in-memory list of each page's
//! first entry index turns `[from, to)` into the pages that hold it;
//! the entries stay compressed on disk and are fetched through the
//! [`PinnedPool`]. A scan hands its visitor one decoded segment at a
//! time.

use std::io;

use crate::codec;
use crate::diskfile::{DiskPageFile, DiskPageFileWriter, PAYLOAD_BYTES};
use crate::pool::PinnedPool;

/// Bytes of per-page overhead (the `u16` segment count).
const PAGE_HEADER: usize = 2;

fn malformed() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "malformed posting segment")
}

/// Run encoder: feed whole buckets in the table's bucket order. Finished
/// page payloads are held until [`finish`](Self::finish) appends them
/// to the [`DiskPageFileWriter`], so a run can be encoded on any thread
/// and written by the one that owns the file.
pub struct PostingRunBuilder {
    /// The page being filled.
    page: Vec<u8>,
    segments: u16,
    /// Full pages' payloads, [`PAYLOAD_BYTES`] each.
    payloads: Vec<u8>,
    entry_base: Vec<usize>,
    len: usize,
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
            segments: 0,
            payloads: Vec::new(),
            entry_base: Vec::new(),
            len: 0,
        }
    }

    /// Append one bucket's ids, ascending: as many as fit on the page
    /// being filled, the rest on the pages after it.
    pub fn push_bucket(&mut self, oids: &[u32]) {
        debug_assert!(oids.is_sorted(), "oids out of order");
        let mut rest = oids;
        while !rest.is_empty() {
            let take = codec::encode_prefix(rest, PAYLOAD_BYTES - self.page.len(), &mut self.page);
            if take == 0 {
                debug_assert!(self.segments > 0, "one id always fits an empty page");
                self.flush_page();
                continue;
            }
            if self.segments == 0 {
                self.entry_base.push(self.len);
            }
            self.segments += 1;
            self.len += take;
            rest = &rest[take..];
        }
    }

    fn flush_page(&mut self) {
        if self.segments == 0 {
            return;
        }
        self.page[..PAGE_HEADER].copy_from_slice(&self.segments.to_le_bytes());
        self.page.resize(PAYLOAD_BYTES, 0);
        self.payloads.append(&mut self.page);
        self.page.resize(PAGE_HEADER, 0);
        self.segments = 0;
    }

    /// Append the run's pages to `writer` and return its in-memory
    /// page list.
    pub fn finish(mut self, writer: &mut DiskPageFileWriter) -> io::Result<PostingRun> {
        self.flush_page();
        let pages = self.payloads.chunks_exact(PAYLOAD_BYTES).map(|p| writer.append_page(p));
        Ok(PostingRun {
            pages: pages.collect::<io::Result<_>>()?,
            entry_base: self.entry_base,
            len: self.len,
        })
    }
}

/// One finished posting run: its page numbers and the first entry index
/// of each.
pub struct PostingRun {
    pages: Vec<u32>,
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

    /// The index, among the run's pages, of the page holding entry
    /// `entry < len`.
    pub fn page_of(&self, entry: usize) -> usize {
        debug_assert!(entry < self.len);
        self.entry_base.partition_point(|&b| b <= entry) - 1
    }

    /// Visit entries with global indexes in `[from, to)` in order, one
    /// call `f(oids)` per segment, clipped to the range; stops early
    /// (returning `Ok(false)`) when `f` returns `false`, reading no page
    /// past the one that segment is on. Segments are decoded into `ids`,
    /// which the caller keeps from scan to scan. A page whose contents do
    /// not parse is an [`io::ErrorKind::InvalidData`] error.
    pub fn scan_while(
        &self,
        file: &DiskPageFile,
        pool: &PinnedPool,
        from: usize,
        to: usize,
        ids: &mut Vec<u32>,
        mut f: impl FnMut(&[u32]) -> bool,
    ) -> io::Result<bool> {
        let to = to.min(self.len);
        if from >= to {
            return Ok(true);
        }
        let first = self.page_of(from);
        for (&page_no, &base) in self.pages[first..].iter().zip(&self.entry_base[first..]) {
            let mut idx = base;
            // Only after a damaged page that held fewer ids than its
            // successor's first entry says: the range is covered.
            if idx >= to {
                break;
            }
            let page = pool.get(file, page_no)?;
            let segments = u16::from_le_bytes([page[0], page[1]]);
            let mut body = &page[PAGE_HEADER..];
            for _ in 0..segments {
                // Segments wholly before `from` are skipped undecoded.
                let (count, total) = codec::peek_postings(body).ok_or_else(malformed)?;
                if idx + count > from {
                    ids.clear();
                    codec::decode_postings(&body[..total], ids).ok_or_else(malformed)?;
                    // Here `idx < to`: the scan returns as soon as it is not.
                    if !f(&ids[from.saturating_sub(idx)..count.min(to - idx)]) {
                        return Ok(false);
                    }
                }
                idx += count;
                if idx >= to {
                    return Ok(true);
                }
                body = &body[total..];
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
            b.push_bucket(&oids);
        }
        let run = b.finish(&mut w).unwrap();
        (dir, w.finish().unwrap(), run)
    }

    /// Every id of `run`'s entries `[from, to)`, segment by segment.
    fn scan(run: &PostingRun, file: &DiskPageFile, from: usize, to: usize) -> Vec<Vec<u32>> {
        let (pool, mut seen) = (PinnedPool::new(4), Vec::new());
        let done = run.scan_while(file, &pool, from, to, &mut Vec::new(), |oids| {
            seen.push(oids.to_vec());
            true
        });
        assert!(done.unwrap());
        seen
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
    fn scan_matches_reference() {
        let entries = reference_entries(20_000, 7);
        let (dir, file, run) = build("run_ref", &entries);
        assert_eq!(run.len(), entries.len());
        let (from, to) = (137, 9_731);
        let seen: Vec<u32> = scan(&run, &file, from, to).concat();
        let want: Vec<u32> = entries[from..to].iter().map(|e| e.1).collect();
        assert_eq!(seen, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_page_but_the_last_is_full() {
        // Wide gaps: a few hundred ids fill a page.
        let mut entries: Vec<(i64, u32)> =
            (0..30_000u32).map(|i| (i64::from(i / 700), i.wrapping_mul(2_654_435_761))).collect();
        entries.sort_unstable();
        let (dir, file, run) = build("run_full", &entries);
        let pool = PinnedPool::new(4);
        for p in 0..run.page_count() - 1 {
            let page = pool.get(&file, run.pages[p]).unwrap();
            let segments = u16::from_le_bytes([page[0], page[1]]);
            let (mut used, mut last) = (PAGE_HEADER, 0);
            for _ in 0..segments {
                let (count, bytes) = codec::peek_postings(&page[used..]).unwrap();
                (last, used) = (count, used + bytes);
            }
            // The page's last segment could not take the next entry: not
            // as one more id of its bucket, nor as a segment of its own.
            let end = run.entry_base[p + 1];
            let free = PAYLOAD_BYTES - used;
            if entries[end].0 == entries[end - 1].0 {
                let ids: Vec<u32> = entries[end - last..=end].iter().map(|e| e.1).collect();
                let grown = codec::encode_postings(&ids, &mut Vec::new());
                let had = codec::encode_postings(&ids[..last], &mut Vec::new());
                assert!(grown - had > free, "page {p}: {free} bytes free");
            } else {
                assert!(free < 5, "page {p}: {free} bytes free");
            }
        }
        let seen: Vec<u32> = scan(&run, &file, 0, run.len()).concat();
        assert_eq!(seen, entries.iter().map(|e| e.1).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn long_bucket_continues_on_following_pages() {
        // One bucket of 5000 wide-gapped ids (poorly compressible) spans
        // several pages, one segment on each.
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
        let entries: Vec<(i64, u32)> = oids.iter().map(|&o| (42i64, o)).collect();
        let (dir, file, run) = build("run_split", &entries);
        assert!(run.page_count() >= 2, "expected a multi-page run, got {}", run.page_count());
        let segments = scan(&run, &file, 0, run.len());
        assert_eq!(segments.len(), run.page_count());
        assert_eq!(segments.concat(), oids);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_aborts_early() {
        let entries = reference_entries(3_000, 11);
        let (dir, file, run) = build("run_abort", &entries);
        let pool = PinnedPool::new(4);
        // Refuse the third segment: no fourth call, and only the pages up
        // to that segment's are fetched.
        let (mut calls, mut seen) = (0, 0);
        let done = run
            .scan_while(&file, &pool, 5, run.len(), &mut Vec::new(), |oids| {
                calls += 1;
                seen += oids.len();
                calls < 3
            })
            .unwrap();
        assert!(!done);
        assert_eq!(calls, 3);
        let third_bucket_end = entries.chunk_by(|a, b| a.0 == b.0).take(3).map(<[_]>::len).sum();
        assert_eq!(5 + seen, third_bucket_end);
        assert_eq!(pool.stats().requests, 1, "three small segments share the first page");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_of_finds_each_entry() {
        let entries = reference_entries(20_000, 3);
        let (dir, file, run) = build("run_page_of", &entries);
        assert!(run.page_count() > 2);
        let pool = PinnedPool::new(1);
        for p in 0..run.page_count() {
            // A scan of one entry reads the page `page_of` names, and only it.
            let entry = run.entry_base[p];
            assert_eq!(run.page_of(entry), p);
            if p > 0 {
                assert_eq!(run.page_of(entry - 1), p - 1);
            }
            pool.reset_stats();
            run.scan_while(&file, &pool, entry, entry + 1, &mut Vec::new(), |_| true).unwrap();
            assert_eq!(pool.stats().requests, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_run_is_well_formed() {
        let (dir, file, run) = build("run_empty", &[]);
        assert!(run.is_empty());
        assert_eq!(run.page_count(), 0);
        assert!(scan(&run, &file, 0, 10).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
