//! The paged (out-of-core) C2LSH index.
//!
//! Where [`crate::disk::DiskIndex`] borrows an in-RAM [`Dataset`] and
//! only *counts* the paper's page I/O, `PagedStore` owns nothing but page
//! numbers: both the data vectors and the compressed hash-table posting
//! runs live in an on-disk [`DiskPageFile`] (checksummed 4 KiB pages)
//! and every read goes through a [`PinnedPool`] buffer pool. Peak memory
//! is the pool size plus per-table page directories — independent of
//! dataset size — which is what lets `bench run --profile large` ingest
//! millions of points.
//!
//! Construction streams: [`PagedBuilder`] accepts rows one at a time,
//! writes vector bytes straight into pages, and spills per-table
//! `(bucket, oid)` entries to sorted temp-file segments; `finish` k-way
//! merges each table's segments into delta-compressed posting runs
//! ([`cc_storage::paged_bucket`]) and returns the queryable store. No
//! step ever materializes the dataset or a full table in RAM.
//!
//! File layout: vector pages first (`d·4` bytes per point, packed
//! back-to-back across page payloads — `PAYLOAD_BYTES` is a multiple of
//! 4, so floats never straddle pages), then each table's posting pages.

use std::fs::File;
use std::io::{self, Write};
#[cfg(not(unix))]
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::config::C2lshConfig;
use crate::engine::{self, BucketWindows, QueryScratch, SearchOptions, SearchParams, TableStore};
use crate::hash::HashFamily;
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_storage::diskfile::{DiskPageFile, DiskPageFileWriter, PAYLOAD_BYTES};
use cc_storage::paged_bucket::{PostingRun, PostingRunBuilder};
use cc_storage::pool::{PinnedPool, PinnedPoolStats};
use cc_storage::{ENTRIES_PER_PAGE, PAGE_SIZE};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use parking_lot::Mutex;

/// Floats per vector page (`PAYLOAD_BYTES / 4`; divides evenly).
const FLOATS_PER_PAGE: usize = PAYLOAD_BYTES / 4;

/// Default in-RAM spill buffer: total `(bucket, oid)` entries across all
/// tables held before a sorted segment flush (~`16 B` each ⇒ ~64 MiB).
const DEFAULT_SPILL_ENTRIES: usize = 4 << 20;

/// Bytes per spilled entry on disk (`i64` bucket + `u32` oid).
const SPILL_ENTRY_BYTES: usize = 12;

/// One table's spill state: an append-only temp file of sorted segments.
struct SpillTable {
    file: File,
    buf: Vec<(i64, u32)>,
    /// `(entry offset, entry count)` of each sorted segment.
    segments: Vec<(u64, u64)>,
    written: u64,
}

impl SpillTable {
    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        let mut bytes = Vec::with_capacity(self.buf.len() * SPILL_ENTRY_BYTES);
        for &(bucket, oid) in &self.buf {
            bytes.extend_from_slice(&bucket.to_le_bytes());
            bytes.extend_from_slice(&oid.to_le_bytes());
        }
        self.file.write_all(&bytes)?;
        self.segments.push((self.written, self.buf.len() as u64));
        self.written += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }
}

/// Buffered sequential reader over one sorted spill segment.
struct SegmentCursor {
    remaining: u64,
    next_offset: u64,
    buf: Vec<u8>,
    pos: usize,
    head: Option<(i64, u32)>,
}

impl SegmentCursor {
    const CHUNK_ENTRIES: u64 = 4096;

    fn new(file: &File, offset: u64, count: u64) -> io::Result<Self> {
        let mut c = SegmentCursor {
            remaining: count,
            next_offset: offset * SPILL_ENTRY_BYTES as u64,
            buf: Vec::new(),
            pos: 0,
            head: None,
        };
        c.advance(file)?;
        Ok(c)
    }

    fn advance(&mut self, file: &File) -> io::Result<()> {
        if self.pos >= self.buf.len() {
            if self.remaining == 0 {
                self.head = None;
                return Ok(());
            }
            let take = self.remaining.min(Self::CHUNK_ENTRIES);
            self.buf.resize(take as usize * SPILL_ENTRY_BYTES, 0);
            read_exact_at(file, &mut self.buf, self.next_offset)?;
            self.next_offset += take * SPILL_ENTRY_BYTES as u64;
            self.remaining -= take;
            self.pos = 0;
        }
        let e = &self.buf[self.pos..self.pos + SPILL_ENTRY_BYTES];
        self.head = Some((
            i64::from_le_bytes(e[0..8].try_into().unwrap()),
            u32::from_le_bytes(e[8..12].try_into().unwrap()),
        ));
        self.pos += SPILL_ENTRY_BYTES;
        Ok(())
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Streaming builder for a [`PagedStore`]. See module docs.
pub struct PagedBuilder {
    writer: DiskPageFileWriter,
    config: C2lshConfig,
    params: FullParams,
    family: HashFamily,
    dim: usize,
    expected_n: usize,
    next_oid: u32,
    /// Partially filled vector page payload.
    vec_page: Vec<u8>,
    spill_dir: PathBuf,
    spill: Vec<SpillTable>,
    spill_budget: usize,
    buffered: usize,
}

impl PagedBuilder {
    /// Start building at `path` for exactly `n` points of dimension
    /// `dim`. `n` is needed up front because C2LSH derives `(m, l, βn)`
    /// from the cardinality.
    ///
    /// # Panics
    /// Panics on `n == 0`, `dim == 0`, or an invalid config.
    pub fn create(
        path: impl AsRef<Path>,
        dim: usize,
        n: usize,
        config: &C2lshConfig,
    ) -> io::Result<Self> {
        assert!(n > 0, "cannot index an empty dataset");
        assert!(dim > 0, "dimension must be positive");
        let params = FullParams::derive(n, config);
        let family = HashFamily::generate(params.m, dim, config);
        let writer = DiskPageFileWriter::create(path)?;
        let spill_dir = cc_storage::wal::scratch_dir("paged_build");
        let spill = (0..params.m)
            .map(|t| {
                let file = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(spill_dir.join(format!("table_{t}.spill")))?;
                Ok(SpillTable { file, buf: Vec::new(), segments: Vec::new(), written: 0 })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(PagedBuilder {
            writer,
            config: config.clone(),
            params,
            family,
            dim,
            expected_n: n,
            next_oid: 0,
            vec_page: Vec::with_capacity(PAYLOAD_BYTES),
            spill_dir,
            spill,
            spill_budget: DEFAULT_SPILL_ENTRIES,
            buffered: 0,
        })
    }

    /// Cap the in-RAM spill buffer at `entries` `(bucket, oid)` pairs
    /// (across all tables) before segments are flushed to temp files.
    pub fn spill_budget(mut self, entries: usize) -> Self {
        self.spill_budget = entries.max(self.params.m);
        self
    }

    /// Derived parameters (`m`, `l`, `βn`) in effect.
    pub fn params(&self) -> &FullParams {
        &self.params
    }

    /// Points appended so far.
    pub fn len(&self) -> usize {
        self.next_oid as usize
    }

    /// `true` before the first row is appended.
    pub fn is_empty(&self) -> bool {
        self.next_oid == 0
    }

    /// Append one point: its bytes go into the vector segment, its `m`
    /// bucket ids into the spill buffers.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or when more than `n` rows arrive.
    pub fn append(&mut self, row: &[f32]) -> io::Result<()> {
        assert_eq!(row.len(), self.dim, "row dimensionality mismatch");
        assert!((self.next_oid as usize) < self.expected_n, "more rows than declared at create()");
        for &x in row {
            self.vec_page.extend_from_slice(&x.to_le_bytes());
            if self.vec_page.len() == PAYLOAD_BYTES {
                self.writer.append_page(&self.vec_page)?;
                self.vec_page.clear();
            }
        }
        let oid = self.next_oid;
        for (t, h) in self.family.iter().enumerate() {
            self.spill[t].buf.push((h.bucket(row), oid));
        }
        self.buffered += self.params.m;
        self.next_oid += 1;
        if self.buffered >= self.spill_budget {
            for table in &mut self.spill {
                table.flush()?;
            }
            self.buffered = 0;
        }
        Ok(())
    }

    /// Merge the spilled segments into compressed posting runs, seal the
    /// page file, and open the finished store with a pool of
    /// `pool_pages` pages.
    ///
    /// # Panics
    /// Panics when fewer rows than declared were appended.
    pub fn finish(mut self, pool_pages: usize) -> io::Result<PagedStore> {
        assert_eq!(self.next_oid as usize, self.expected_n, "fewer rows than declared at create()");
        if !self.vec_page.is_empty() {
            self.writer.append_page(&self.vec_page)?;
            self.vec_page.clear();
        }
        let vec_pages = u32::try_from(self.writer.pages()).expect("vector pages exceed u32");
        let mut tables = Vec::with_capacity(self.params.m);
        for table in &mut self.spill {
            table.flush()?;
            let mut run = PostingRunBuilder::new();
            // K-way merge of the sorted segments, smallest (bucket, oid)
            // first; each cursor reads its segment in 48 KiB chunks.
            let mut cursors = table
                .segments
                .iter()
                .map(|&(off, count)| SegmentCursor::new(&table.file, off, count))
                .collect::<io::Result<Vec<_>>>()?;
            let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(i64, u32, usize)>> =
                cursors
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| c.head.map(|(b, o)| std::cmp::Reverse((b, o, i))))
                    .collect();
            while let Some(std::cmp::Reverse((bucket, oid, i))) = heap.pop() {
                run.push(&mut self.writer, bucket, oid)?;
                cursors[i].advance(&table.file)?;
                if let Some((b, o)) = cursors[i].head {
                    heap.push(std::cmp::Reverse((b, o, i)));
                }
            }
            tables.push(run.finish(&mut self.writer)?);
        }
        std::fs::remove_dir_all(&self.spill_dir).ok();
        let file = self.writer.finish()?;
        let posting_pages = tables.iter().map(PostingRun::page_count).sum();
        Ok(PagedStore {
            config: self.config,
            params: self.params,
            family: self.family,
            file,
            pool: PinnedPool::new(pool_pages),
            tables,
            vec_pages,
            posting_pages,
            n: self.expected_n,
            dim: self.dim,
            scratch: Mutex::new(QueryScratch::new(self.expected_n)),
            delete_on_drop: false,
        })
    }
}

/// The out-of-core C2LSH index: vectors and compressed posting runs on
/// disk, reads through a pinned buffer pool. Implements [`TableStore`],
/// so the generic engine serves it unchanged.
pub struct PagedStore {
    config: C2lshConfig,
    params: FullParams,
    family: HashFamily,
    file: DiskPageFile,
    pool: PinnedPool,
    tables: Vec<PostingRun>,
    /// Vector segment: pages `[0, vec_pages)` of the file.
    vec_pages: u32,
    posting_pages: usize,
    n: usize,
    dim: usize,
    scratch: Mutex<QueryScratch>,
    delete_on_drop: bool,
}

impl PagedStore {
    /// Convenience build from an in-RAM dataset (tests, smoke bench,
    /// service bootstrap). Large ingests should stream via
    /// [`PagedBuilder`] instead.
    pub fn build(
        data: &Dataset,
        config: &C2lshConfig,
        path: impl AsRef<Path>,
        pool_pages: usize,
    ) -> io::Result<PagedStore> {
        let mut b = PagedBuilder::create(path, data.dim(), data.len(), config)?;
        for row in data.iter() {
            b.append(row)?;
        }
        b.finish(pool_pages)
    }

    /// The derived parameters in effect.
    pub fn params(&self) -> &FullParams {
        &self.params
    }

    /// Points served.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dataset dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The build configuration.
    pub fn config(&self) -> &C2lshConfig {
        &self.config
    }

    /// Path of the backing page file.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Delete the backing file when the store is dropped (for
    /// bench/test stores built in scratch locations).
    pub fn delete_file_on_drop(mut self) -> Self {
        self.delete_on_drop = true;
        self
    }

    fn search_params(&self) -> SearchParams {
        SearchParams {
            c: self.config.c,
            l: self.params.l as u32,
            beta_n: self.params.beta_n,
            base_radius: self.config.base_radius,
        }
    }

    /// c-k-ANN query; [`QueryStats::io`] counts *physical* page reads
    /// (pool misses), so it reflects the buffer pool's effectiveness.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.query_with(q, k, &SearchOptions::default())
    }

    /// [`PagedStore::query`] with explicit observability options.
    pub fn query_with(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<Neighbor>, QueryStats) {
        let mut scratch = self.scratch.lock();
        engine::run_query(self, &self.search_params(), &mut scratch, q, k, opts)
    }

    /// Convenience c-ANN (k = 1).
    pub fn query_one(&self, q: &[f32]) -> (Option<Neighbor>, QueryStats) {
        let (mut nn, stats) = self.query(q, 1);
        (nn.pop(), stats)
    }

    /// Answer a whole query set in parallel across scoped threads.
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        self.query_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`PagedStore::query_batch`] with explicit observability options.
    pub fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        engine::run_query_batch(self, &self.search_params(), queries, k, opts)
    }

    /// Hash-table (posting) bytes on disk — the paper's index-size
    /// metric, excluding the raw data segment every method shares.
    pub fn posting_bytes(&self) -> u64 {
        self.posting_pages as u64 * PAGE_SIZE as u64
    }

    /// What the postings would occupy uncompressed, in the layout
    /// [`crate::disk::DiskIndex`] is costed under (12 B entries,
    /// [`ENTRIES_PER_PAGE`] per page).
    pub fn uncompressed_posting_bytes(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| t.len().div_ceil(ENTRIES_PER_PAGE) as u64 * PAGE_SIZE as u64)
            .sum()
    }

    /// Total file size (header + vectors + postings).
    pub fn file_bytes(&self) -> u64 {
        self.file.size_bytes()
    }

    /// Physical page reads since the last [`PagedStore::reset_io`].
    pub fn physical_reads(&self) -> u64 {
        self.file.reads()
    }

    /// Buffer-pool counters (requests / hits / misses / evictions).
    pub fn pool_stats(&self) -> PinnedPoolStats {
        self.pool.stats()
    }

    /// Buffer-pool capacity in pages.
    pub fn pool_pages(&self) -> usize {
        self.pool.capacity()
    }

    /// Pages currently resident in the buffer pool.
    pub fn pool_resident(&self) -> usize {
        self.pool.resident()
    }

    /// Reset the physical-read and pool counters (between bench phases).
    pub fn reset_io(&self) {
        self.file.reset_reads();
        self.pool.reset_stats();
    }

    /// Replace the buffer pool with a cold one of `pages` pages and
    /// reset the I/O counters — the knob behind the recall/IO vs
    /// pool-size curve (figure 9 analogue).
    pub fn set_pool_pages(&mut self, pages: usize) {
        self.pool = PinnedPool::new(pages);
        self.file.reset_reads();
    }

    fn run(&self, t: usize) -> &PostingRun {
        &self.tables[t]
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        if self.delete_on_drop {
            std::fs::remove_file(self.file.path()).ok();
        }
    }
}

impl TableStore for PagedStore {
    type Cursor = BucketWindows;

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.n
    }

    fn num_tables(&self) -> usize {
        self.tables.len()
    }

    fn begin(&self, q: &[f32]) -> BucketWindows {
        BucketWindows::new(self.family.buckets(q))
    }

    fn begin_batch(&self, queries: &Dataset) -> Vec<BucketWindows> {
        let m = self.family.len();
        self.family
            .buckets_batch(queries)
            .chunks_exact(m)
            .map(|b| BucketWindows::new(b.to_vec()))
            .collect()
    }

    fn expand(
        &self,
        cursor: &mut BucketWindows,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(u32) -> bool,
    ) {
        let run = self.run(t);
        let (left, right) = cursor.grow(t, radius, self.n, |b, _, _| {
            run.lower_bound(&self.file, &self.pool, b).expect("posting page read failed")
        });
        for range in [left, right] {
            if !range.is_empty() {
                run.scan_while(&self.file, &self.pool, range.start, range.end, |_, oid| visit(oid))
                    .expect("posting page read failed");
            }
        }
    }

    fn exhausted(&self, cursor: &BucketWindows) -> bool {
        cursor.exhausted(self.n)
    }

    /// Vectors are not memory resident; see [`TableStore::vector_into`].
    fn vector(&self, _oid: u32) -> Option<&[f32]> {
        None
    }

    fn vectors_resident(&self) -> bool {
        false
    }

    fn vector_into(&self, oid: u32, out: &mut Vec<f32>) -> bool {
        if oid as usize >= self.n {
            return false;
        }
        out.clear();
        out.reserve(self.dim);
        // Global float index of the vector start; PAYLOAD_BYTES is a
        // multiple of 4, so floats never straddle page boundaries.
        let mut fidx = oid as usize * self.dim;
        let mut remaining = self.dim;
        while remaining > 0 {
            let page_no = (fidx / FLOATS_PER_PAGE) as u32;
            debug_assert!(page_no < self.vec_pages, "vector read past segment");
            let within = fidx % FLOATS_PER_PAGE;
            let take = remaining.min(FLOATS_PER_PAGE - within);
            let page = self.pool.get(&self.file, page_no).expect("vector page read failed");
            for chunk in page[within * 4..(within + take) * 4].chunks_exact(4) {
                out.push(f32::from_le_bytes(chunk.try_into().unwrap()));
            }
            fidx += take;
            remaining -= take;
        }
        true
    }

    fn io_reads(&self) -> u64 {
        self.file.reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::C2lshIndex;
    use cc_storage::wal::scratch_dir;
    use cc_vector::gen::{generate, Distribution};

    fn test_config(seed: u64) -> C2lshConfig {
        C2lshConfig::builder().bucket_width(4.0).seed(seed).build()
    }

    fn scratch_store(
        tag: &str,
        data: &Dataset,
        config: &C2lshConfig,
        pool_pages: usize,
    ) -> (PathBuf, PagedStore) {
        let dir = scratch_dir(tag);
        let store = PagedStore::build(data, config, dir.join("index.ccpg"), pool_pages).unwrap();
        (dir, store)
    }

    #[test]
    fn paged_results_match_memory_results() {
        let data = generate(
            Distribution::GaussianMixture { clusters: 8, spread: 0.15, scale: 4.0 },
            2_000,
            12,
            42,
        );
        let queries = generate(Distribution::UniformCube { side: 8.0 }, 24, 12, 43);
        let config = test_config(7);
        let mem = C2lshIndex::build(&data, &config);
        let (dir, paged) = scratch_store("paged_equiv", &data, &config, 64);
        for q in queries.iter() {
            let (mem_nn, _) = mem.query(q, 10);
            let (paged_nn, _) = paged.query(q, 10);
            assert_eq!(mem_nn, paged_nn);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_matches_sequential() {
        let data = generate(Distribution::UniformCube { side: 6.0 }, 1_500, 10, 11);
        let queries = generate(Distribution::UniformCube { side: 6.0 }, 16, 10, 12);
        let config = test_config(3);
        let (dir, paged) = scratch_store("paged_batch", &data, &config, 32);
        let (batch, _) = paged.query_batch(&queries, 5);
        for (q, (nn, _)) in queries.iter().zip(&batch) {
            let (seq_nn, _) = paged.query(q, 5);
            assert_eq!(&seq_nn, nn);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_build_matches_bulk_build() {
        let data = generate(Distribution::UniformCube { side: 4.0 }, 1_200, 8, 21);
        let config = test_config(5);
        let dir = scratch_dir("paged_stream");
        // Tiny spill budget forces many segment flushes and a real merge.
        let mut b = PagedBuilder::create(dir.join("a.ccpg"), data.dim(), data.len(), &config)
            .unwrap()
            .spill_budget(1_000);
        for row in data.iter() {
            b.append(row).unwrap();
        }
        let streamed = b.finish(48).unwrap();
        let bulk = PagedStore::build(&data, &config, dir.join("b.ccpg"), 48).unwrap();
        let queries = generate(Distribution::UniformCube { side: 4.0 }, 12, 8, 22);
        for q in queries.iter() {
            let (a, _) = streamed.query(q, 7);
            let (b, _) = bulk.query(q, 7);
            assert_eq!(a, b);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// 64-bit FNV-1a, enough to pin a file without checking it in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// A builder that spills at least three times over 3 000 rows.
    fn spilling_builder(path: &Path, dim: usize, n: usize, config: &C2lshConfig) -> PagedBuilder {
        let b = PagedBuilder::create(path, dim, n, config).unwrap();
        let per_spill = 700 * b.params().m;
        b.spill_budget(per_spill)
    }

    /// The CCPG bytes of a fixed 3 000 × 16 clustered set, pinned while
    /// the builder still sorted and merged `(bucket, oid)` segments.
    /// How the build gets the entries into `(bucket, oid)` order is not
    /// the file format: whatever it does, it must keep writing this file.
    #[test]
    fn golden_page_file_bytes() {
        let data = generate(
            Distribution::GaussianMixture { clusters: 12, spread: 0.1, scale: 6.0 },
            3_000,
            16,
            77,
        );
        let config = test_config(19);
        let dir = scratch_dir("paged_golden");
        let path = dir.join("golden.ccpg");
        let mut b = spilling_builder(&path, data.dim(), data.len(), &config);
        for row in data.iter() {
            b.append(row).unwrap();
        }
        let store = b.finish(8).unwrap();
        let m = store.params().m;
        assert_eq!(m, 129);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, store.file_bytes());
        assert_eq!(bytes.len(), 724_992, "page file length moved");
        assert_eq!(fnv1a(&bytes), 10_138_013_523_714_106_763, "page file bytes moved");
        let postings = bytes.len() - store.posting_bytes() as usize;
        assert_eq!(fnv1a(&bytes[postings..]), 8_763_658_187_905_858_780, "posting pages moved");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vector_into_round_trips_every_row() {
        let data = generate(Distribution::UniformCube { side: 2.0 }, 300, 33, 9);
        let config = test_config(1);
        let (dir, paged) = scratch_store("paged_vec", &data, &config, 16);
        let mut buf = Vec::new();
        for (i, row) in data.iter().enumerate() {
            assert!(paged.vector_into(i as u32, &mut buf));
            assert_eq!(buf, row);
        }
        assert!(!paged.vector_into(300, &mut buf));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compression_beats_uncompressed_layout() {
        let data = generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.05, scale: 8.0 },
            4_000,
            16,
            33,
        );
        let config = test_config(13);
        let (dir, paged) = scratch_store("paged_cmp", &data, &config, 64);
        let ratio = paged.uncompressed_posting_bytes() as f64 / paged.posting_bytes() as f64;
        assert!(ratio >= 2.0, "compression ratio {ratio:.2} below 2x");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_counters_reflect_pool_size() {
        let data = generate(Distribution::UniformCube { side: 6.0 }, 3_000, 16, 17);
        let queries = generate(Distribution::UniformCube { side: 6.0 }, 20, 16, 18);
        let config = test_config(29);
        let (dir, mut paged) = scratch_store("paged_pool", &data, &config, 0);
        let run = |store: &PagedStore| {
            store.reset_io();
            for q in queries.iter() {
                store.query(q, 5);
            }
            (store.physical_reads(), store.pool_stats())
        };
        paged.set_pool_pages(2);
        let (reads_tiny, stats_tiny) = run(&paged);
        let total_pages = (paged.file_bytes() / PAGE_SIZE as u64) as usize + 1;
        paged.set_pool_pages(total_pages);
        let (reads_big, stats_big) = run(&paged);
        assert!(reads_big < reads_tiny, "bigger pool should do fewer physical reads");
        assert!(stats_big.hit_ratio() > stats_tiny.hit_ratio());
        assert_eq!(stats_big.evictions, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
