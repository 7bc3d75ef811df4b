//! The paged (out-of-core) C2LSH index.
//!
//! Where [`crate::disk::DiskIndex`] borrows an in-RAM [`Dataset`] and
//! only *counts* the paper's page I/O, `PagedStore` owns nothing but page
//! numbers: both the data vectors and the compressed hash-table posting
//! runs live in an on-disk [`DiskPageFile`] (checksummed 4 KiB pages)
//! and every read goes through a [`PinnedPool`] buffer pool. Peak memory
//! is the pool size plus per table a bucket directory (the
//! `BucketDirectory` a resident run keeps: a few dozen buckets, each
//! with the entry it starts at) and each posting page's first entry —
//! independent of dataset size — which is what lets `bench large`
//! ingest millions of points.
//!
//! A query never reads a page to find a window: the directory turns the
//! buckets a grow newly covers into entry ranges, and only the posting
//! pages holding those entries are requested, one decoded segment per
//! slice. The rest of its requests are the vectors it verifies;
//! [`PagedStore::vector_reads`] counts their misses.
//!
//! Construction streams: [`PagedBuilder`] accepts rows one at a time
//! and writes their bytes straight into vector pages, a span at a time.
//! Every 16 384 rows it hashes the buffered block eight tables per pass
//! on the machine's cores, counting-sorts each table's column into
//! `(bucket, row)` order while it is still in cache, exactly as
//! [`crate::index::C2lshIndex`] builds a segment's run, and appends the
//! run — its bucket directory and a 2-byte block-relative id per object
//! — to that table's temp file. `finish` reads the block runs back one
//! table per worker, walks the buckets across the blocks into the
//! table's directory and its ids-only posting pages
//! ([`cc_storage::paged_bucket`]) and appends the runs to the page file
//! in table order; nothing is sorted there. The dataset is never in
//! RAM; one table per worker is — its block runs and its encoded pages,
//! about 3 bytes per object (0.3 MB per worker at 100 000 objects,
//! 3 MB at a million).
//!
//! File layout: vector pages first (`d·4` bytes per point, packed
//! back-to-back across page payloads — `PAYLOAD_BYTES` is a multiple of
//! 4, so floats never straddle pages), then each table's posting pages.

use std::fs::File;
use std::io::{self, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;

use crate::config::C2lshConfig;
use crate::engine::{self, Ids, KeyWindows, SearchOptions, TableStore};
use crate::hash::HashFamily;
use crate::index::{each_bucket, per_table, BucketDirectory, SortedRun, SEGMENT_IDS};
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_storage::diskfile::{DiskPageFile, DiskPageFileWriter, PAYLOAD_BYTES};
use cc_storage::paged_bucket::{PostingRun, PostingRunBuilder};
use cc_storage::pool::{PinnedPool, PinnedPoolStats};
use cc_storage::{ENTRIES_PER_PAGE, PAGE_SIZE};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;

/// Floats per vector page (`PAYLOAD_BYTES / 4`; divides evenly).
const FLOATS_PER_PAGE: usize = PAYLOAD_BYTES / 4;

/// Rows buffered before a block is hashed, sorted and spilled: a
/// column of 128 KiB sorts in cache, and a block's ids are 16-bit
/// offsets, so a block spans at most [`SEGMENT_IDS`] rows. Blocks of
/// 4 096 rows built the ledger's 100 000 × 64 set about 5 % slower.
const BLOCK_ROWS: usize = 16_384;

/// The build's scratch directory: one file per table holding, block
/// after block, the run each spilled block's column was sorted into
/// ([`SortedRun::spill`]). Removed on drop, so an abandoned build leaves
/// nothing behind.
struct Spill {
    dir: PathBuf,
    columns: Vec<File>,
}

impl Drop for Spill {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Read one table's `blocks` block runs back and encode them: hand the
/// encoder every bucket's ids block by block, and the directory where
/// each bucket starts. Block `b` holds ids from `b · block_rows` on.
fn encode_column(
    mut file: &File,
    blocks: usize,
    block_rows: usize,
) -> io::Result<(PostingRunBuilder, BucketDirectory)> {
    file.seek(SeekFrom::Start(0))?;
    let mut input = BufReader::new(file);
    let runs =
        (0..blocks).map(|_| SortedRun::unspill(&mut input)).collect::<io::Result<Vec<_>>>()?;
    let (mut run, mut dir) = (PostingRunBuilder::new(), BucketDirectory::default());
    let (mut ids, mut entries) = (Vec::new(), 0);
    each_bucket(&runs.iter().collect::<Vec<_>>(), |bucket, slices| {
        ids.clear();
        for &(block, offsets) in slices {
            let first = (block * block_rows) as u32;
            ids.extend(offsets.iter().map(|&oid| first + u32::from(oid)));
        }
        dir.push(bucket, entries);
        entries += ids.len();
        run.push_bucket(&ids);
    });
    dir.finish(entries);
    Ok((run, dir))
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
    /// Rows appended since the last spill, row-major.
    block: Vec<f32>,
    block_rows: usize,
    workers: usize,
    spill: Spill,
}

impl PagedBuilder {
    /// Start building at `path` for exactly `n` points of dimension
    /// `dim`. `n` is needed up front because C2LSH derives `(m, l, βn)`
    /// from the cardinality.
    ///
    /// # Panics
    /// Panics on `n == 0`, `n > u32::MAX`, `dim == 0`, or an invalid
    /// config.
    pub fn create(
        path: impl AsRef<Path>,
        dim: usize,
        n: usize,
        config: &C2lshConfig,
    ) -> io::Result<Self> {
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_block(path.as_ref(), dim, n, config, BLOCK_ROWS, workers)
    }

    /// [`PagedBuilder::create`] spilling every `block_rows` rows and
    /// hashing and encoding on `workers` threads.
    fn with_block(
        path: &Path,
        dim: usize,
        n: usize,
        config: &C2lshConfig,
        block_rows: usize,
        workers: usize,
    ) -> io::Result<Self> {
        assert!(n > 0, "cannot index an empty dataset");
        assert!(u32::try_from(n).is_ok(), "object ids are 32-bit");
        assert!(dim > 0, "dimension must be positive");
        assert!((1..=SEGMENT_IDS).contains(&block_rows), "a block's ids are 16-bit offsets");
        let params = FullParams::derive(n, config);
        let family = HashFamily::generate(params.m, dim, config);
        let writer = DiskPageFileWriter::create(path)?;
        let mut spill = Spill { dir: cc_storage::wal::scratch_dir("paged_build"), columns: vec![] };
        for t in 0..params.m {
            let path = spill.dir.join(format!("table_{t}.column"));
            let column = File::options().read(true).write(true).create_new(true).open(path)?;
            spill.columns.push(column);
        }
        Ok(PagedBuilder {
            writer,
            config: config.clone(),
            params,
            family,
            dim,
            expected_n: n,
            next_oid: 0,
            vec_page: Vec::with_capacity(PAYLOAD_BYTES),
            block: Vec::with_capacity(block_rows * dim),
            block_rows,
            workers,
            spill,
        })
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

    /// Append one point: its bytes go into the vector segment, the row
    /// into the block awaiting hashing.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or when more than `n` rows arrive.
    pub fn append(&mut self, row: &[f32]) -> io::Result<()> {
        assert_eq!(row.len(), self.dim, "row dimensionality mismatch");
        assert!((self.next_oid as usize) < self.expected_n, "more rows than declared at create()");
        let mut rest = row;
        while !rest.is_empty() {
            let at = self.vec_page.len();
            let (span, after) = rest.split_at(rest.len().min((PAYLOAD_BYTES - at) / 4));
            self.vec_page.resize(at + span.len() * 4, 0);
            for (bytes, x) in self.vec_page[at..].chunks_exact_mut(4).zip(span) {
                bytes.copy_from_slice(&x.to_le_bytes());
            }
            if self.vec_page.len() == PAYLOAD_BYTES {
                self.writer.append_page(&self.vec_page)?;
                self.vec_page.clear();
            }
            rest = after;
        }
        self.block.extend_from_slice(row);
        self.next_oid += 1;
        if self.block.len() == self.block_rows * self.dim {
            self.spill_block()?;
        }
        Ok(())
    }

    /// Hash the buffered rows table-major — each worker takes a
    /// contiguous share of the tables and fills eight of their columns
    /// per pass over the block, so a block is read `m / 8` times from
    /// cache and no row's ids are scattered `m` ways — counting-sort
    /// each column while it is in cache, and append the run to its
    /// table's spill file.
    fn spill_block(&mut self) -> io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let (family, block, files) = (&self.family, &self.block, &self.spill.columns);
        let written = per_table(family.len(), self.workers, |tables| {
            let (mut bytes, mut written) = (Vec::new(), Vec::with_capacity(tables.len()));
            family.each_column(tables, block, |t, column| {
                bytes.clear();
                SortedRun::from_column(column, |i| i as u16).spill(&mut bytes);
                written.push((&files[t]).write_all(&bytes));
            });
            written
        });
        written.into_iter().collect::<io::Result<()>>()?;
        self.block.clear();
        Ok(())
    }

    /// Turn every spilled column into a posting run and append the runs
    /// to the page file in table order. Worker `w` encodes tables `w`,
    /// `w + workers`, … and hands each over a one-slot channel, so no
    /// worker holds more than two encoded tables the writer has not taken.
    fn write_tables(&mut self) -> io::Result<Vec<PagedTable>> {
        let (block_rows, columns, writer) =
            (self.block_rows, &self.spill.columns, &mut self.writer);
        let blocks = self.expected_n.div_ceil(block_rows);
        let workers = self.workers.min(columns.len());
        crossbeam::scope(|scope| {
            let encoded: Vec<_> = (0..workers)
                .map(|w| {
                    let (tx, rx) = sync_channel(1);
                    scope.spawn(move |_| {
                        for file in columns.iter().skip(w).step_by(workers) {
                            if tx.send(encode_column(file, blocks, block_rows)).is_err() {
                                return; // the writer failed and hung up
                            }
                        }
                    });
                    rx
                })
                .collect();
            (0..columns.len())
                .map(|t| {
                    let (run, dir) =
                        encoded[t % workers].recv().expect("encode worker panicked")?;
                    Ok(PagedTable { dir, run: run.finish(writer)? })
                })
                .collect()
        })
        .expect("encode scope panicked")
    }

    /// Hash what is still buffered, sort and encode every table, seal
    /// the page file, and open the finished store with a pool of
    /// `pool_pages` pages.
    ///
    /// # Panics
    /// Panics when fewer rows than declared were appended.
    pub fn finish(mut self, pool_pages: usize) -> io::Result<PagedStore> {
        assert_eq!(self.next_oid as usize, self.expected_n, "fewer rows than declared at create()");
        self.spill_block()?;
        if !self.vec_page.is_empty() {
            self.writer.append_page(&self.vec_page)?;
        }
        let vec_pages = u32::try_from(self.writer.pages()).expect("vector pages exceed u32");
        let tables = self.write_tables()?;
        let file = self.writer.finish()?;
        let posting_pages = tables.iter().map(|t| t.run.page_count()).sum();
        Ok(PagedStore {
            config: self.config,
            params: self.params,
            family: self.family,
            file,
            pool: PinnedPool::new(pool_pages),
            tables,
            vec_pages,
            posting_pages,
            vector_reads: AtomicU64::new(0),
            n: self.expected_n,
            dim: self.dim,
            delete_on_drop: false,
        })
    }
}

/// One hash table of a [`PagedStore`]: the bucket directory in RAM,
/// the ids on posting pages.
struct PagedTable {
    dir: BucketDirectory,
    run: PostingRun,
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
    tables: Vec<PagedTable>,
    /// Vector segment: pages `[0, vec_pages)` of the file.
    vec_pages: u32,
    posting_pages: usize,
    /// Pool misses on vector pages since the last reset.
    vector_reads: AtomicU64,
    n: usize,
    dim: usize,
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
        engine::run_query(self, &self.params.search(&self.config), q, k, opts)
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
        engine::run_query_batch(self, &self.params.search(&self.config), queries, k, opts)
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
            .map(|t| t.run.len().div_ceil(ENTRIES_PER_PAGE) as u64 * PAGE_SIZE as u64)
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

    /// Physical reads of vector pages since the last
    /// [`PagedStore::reset_io`]; the rest of
    /// [`PagedStore::physical_reads`] are posting pages.
    pub fn vector_reads(&self) -> u64 {
        self.vector_reads.load(Ordering::Relaxed)
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
        self.vector_reads.store(0, Ordering::Relaxed);
    }

    /// Replace the buffer pool with a cold one of `pages` pages and
    /// reset the I/O counters — the knob behind the recall/IO vs
    /// pool-size curve (figure 9 analogue).
    pub fn set_pool_pages(&mut self, pages: usize) {
        self.pool = PinnedPool::new(pages);
        self.file.reset_reads();
        self.vector_reads.store(0, Ordering::Relaxed);
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        if self.delete_on_drop {
            std::fs::remove_file(self.file.path()).ok();
        }
    }
}

/// Per-query state of a [`PagedStore`]: the windows over its tables and
/// the buffer every posting segment of the query is decoded into.
pub struct PagedCursor {
    windows: KeyWindows,
    ids: Vec<u32>,
}

impl PagedCursor {
    fn new(q_buckets: Vec<i64>) -> Self {
        PagedCursor { windows: KeyWindows::new(q_buckets), ids: Vec::new() }
    }
}

impl TableStore for PagedStore {
    type Cursor = PagedCursor;
    type Id = u32;

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.n
    }

    fn num_tables(&self) -> usize {
        self.tables.len()
    }

    fn begin(&self, q: &[f32]) -> PagedCursor {
        PagedCursor::new(self.family.buckets(q))
    }

    fn begin_batch(&self, queries: &Dataset) -> Vec<PagedCursor> {
        self.family.cursors_batch(queries, PagedCursor::new)
    }

    fn expand(
        &self,
        cursor: &mut PagedCursor,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&Ids<'_, u32>) -> bool,
    ) {
        let PagedTable { dir, run } = &self.tables[t];
        // The directory turns the buckets the window newly covers into
        // entry ranges without a read.
        let [below, above] = cursor.windows.grow(t, radius).map(|keys| dir.entries(keys));
        // After a window that covered no entry, the two are one scan.
        let ranges =
            if below.end == above.start { [below.start..above.end, 0..0] } else { [below, above] };
        let (file, pool) = (&self.file, &self.pool);
        for range in ranges {
            let keep_going = run
                .scan_while(file, pool, range.start, range.end, &mut cursor.ids, |oids| {
                    visit(&Ids { first: 0, offsets: oids })
                })
                .expect("posting page read failed");
            if !keep_going {
                return;
            }
        }
    }

    fn exhausted(&self, cursor: &PagedCursor) -> bool {
        self.tables
            .iter()
            .enumerate()
            .all(|(t, table)| cursor.windows.covers(t, table.dir.key_span()))
    }

    /// Vectors live in pages: `buf` is filled through the buffer pool.
    fn vector<'a>(&'a self, oid: u32, buf: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        if oid as usize >= self.n {
            return None;
        }
        buf.clear();
        buf.reserve(self.dim);
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
            if page.missed() {
                self.vector_reads.fetch_add(1, Ordering::Relaxed);
            }
            for chunk in page[within * 4..(within + take) * 4].chunks_exact(4) {
                buf.push(f32::from_le_bytes(chunk.try_into().unwrap()));
            }
            fidx += take;
            remaining -= take;
        }
        Some(buf)
    }

    fn io_reads(&self) -> u64 {
        self.file.reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Beta;
    use crate::hash::PstableHash;
    use crate::index::C2lshIndex;
    use crate::stats::Termination;
    use cc_storage::wal::scratch_dir;
    use cc_vector::gen::{generate, Distribution};
    use std::io::Read;

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
        // A tiny block forces many spills; three workers share them.
        let (path, n) = (dir.join("a.ccpg"), data.len());
        let mut b = PagedBuilder::with_block(&path, data.dim(), n, &config, 7, 3).unwrap();
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
        PagedBuilder::with_block(path, dim, n, config, 700, 2).unwrap()
    }

    /// The CCPG bytes of a fixed 3 000 × 16 clustered set. How the build
    /// gets the entries into `(bucket, oid)` order is not the file
    /// format: whatever it does, it must keep writing this file. The
    /// vector pages are those the version-1 layout wrote too.
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
        assert_eq!(fnv1a(&bytes), 6_184_160_769_350_635_892, "page file bytes moved");
        let postings = bytes.len() - store.posting_bytes() as usize;
        let vectors = &bytes[PAGE_SIZE..postings];
        assert_eq!(fnv1a(vectors), 15_534_395_170_744_826_833, "vector pages moved");
        assert_eq!(fnv1a(&bytes[postings..]), 17_795_337_374_429_425_612, "posting pages moved");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The file the builder must write: vector bytes packed into pages,
    /// then per table the `(bucket, oid)` pairs sorted and pushed
    /// through the run encoder, on one thread with nothing spilled.
    fn reference_file(path: &Path, data: &Dataset, family: &HashFamily) -> Vec<u8> {
        let mut w = DiskPageFileWriter::create(path).unwrap();
        let floats: Vec<u8> = data.iter().flatten().flat_map(|x| x.to_le_bytes()).collect();
        for page in floats.chunks(PAYLOAD_BYTES) {
            w.append_page(page).unwrap();
        }
        for h in family.iter() {
            let mut pairs: Vec<(i64, u32)> = data.iter().map(|v| h.bucket(v)).zip(0..).collect();
            pairs.sort_unstable();
            let mut run = PostingRunBuilder::new();
            for bucket in pairs.chunk_by(|a, b| a.0 == b.0) {
                let oids: Vec<u32> = bucket.iter().map(|e| e.1).collect();
                run.push_bucket(&oids);
            }
            run.finish(&mut w).unwrap();
        }
        w.finish().unwrap();
        std::fs::read(path).unwrap()
    }

    /// Hash functions over rows `(u, far, i)` whose bucket columns take
    /// the shapes of `index::tests::shaped_column`, one shape per table.
    fn shaped_family(m: usize) -> HashFamily {
        let shapes = [
            // A few dozen buckets around zero: the counting sort.
            (vec![1.0, 0.0, 0.0], 1.0),
            // One bucket holds everything.
            (vec![0.0, 0.0, 0.0], 1.0),
            // All distinct, descending: dense, then sparse.
            (vec![0.0, 0.0, -1.0], 1.0),
            (vec![0.0, 0.0, -3.0], 1.0),
            // Two clusters 2^40 ≈ 10^12 buckets apart.
            (vec![1.0, (1u64 << 20) as f32, 0.0], 1.0 / (1u64 << 20) as f64),
        ];
        let shaped = |t: usize| {
            let (a, w) = shapes[t % shapes.len()].clone();
            PstableHash::from_parts(a, 7.5 * w, w)
        };
        HashFamily::from_functions((0..m).map(shaped).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// Whatever shape a table's column takes, however many workers
        /// hash and encode it, and whether or not the block size divides
        /// `n`, the builder writes the reference file byte for byte.
        #[test]
        fn build_matches_sorted_pairs_reference(
            blocks in 17usize..21,
            raw in proptest::collection::vec((0u32..60, 0u32..2), 64 * 20),
        ) {
            let n = 64 * blocks;
            let rows: Vec<Vec<f32>> = raw[..n]
                .iter()
                .enumerate()
                .map(|(i, &(u, far))| vec![u as f32, far as f32, i as f32])
                .collect();
            let data = Dataset::from_rows(&rows);
            let config = test_config(5);
            let dir = scratch_dir("paged_shapes");
            let family = shaped_family(FullParams::derive(n, &config).m);
            let spans: Vec<i64> = family
                .iter()
                .take(5)
                .map(|h| {
                    let column: Vec<i64> = data.iter().map(|v| h.bucket(v)).collect();
                    column.iter().max().unwrap() - column.iter().min().unwrap()
                })
                .collect();
            assert!(spans[0] < 60 && spans[1] == 0 && spans[2] == n as i64 - 1);
            assert!(spans[3] == 3 * (n as i64 - 1) && spans[4] >= 1 << 40, "{spans:?}");
            let want = reference_file(&dir.join("want.ccpg"), &data, &family);
            for workers in [1, 2, 7] {
                for block_rows in [64, 100] {
                    let path = dir.join("got.ccpg");
                    let mut b =
                        PagedBuilder::with_block(&path, 3, n, &config, block_rows, workers).unwrap();
                    b.family = family.clone();
                    for row in data.iter() {
                        b.append(row).unwrap();
                    }
                    b.finish(4).unwrap();
                    let got = std::fs::read(&path).unwrap();
                    proptest::prop_assert!(got == want, "{} workers, blocks of {}", workers, block_rows);
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn dropped_builder_removes_its_spill_directory() {
        let data = generate(Distribution::UniformCube { side: 4.0 }, 300, 8, 31);
        let dir = scratch_dir("paged_drop");
        let path = dir.join("unfinished.ccpg");
        let mut b = PagedBuilder::with_block(&path, 8, 1_000, &test_config(5), 64, 2).unwrap();
        for row in data.iter() {
            b.append(row).unwrap();
        }
        let spill = b.spill.dir.clone();
        assert!(std::fs::metadata(spill.join("table_0.column")).unwrap().len() >= 256 * 2);
        drop(b);
        assert!(!spill.exists(), "spill directory survived the builder");
        let err = DiskPageFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every block a table spills reads back as the run its column was
    /// sorted into: its `(bucket, row)` pairs in order, rows counted
    /// from the block's first.
    #[test]
    fn spilled_blocks_read_back_as_their_sorted_runs() {
        let data = generate(Distribution::UniformCube { side: 4.0 }, 300, 8, 31);
        let dir = scratch_dir("paged_spill");
        let path = dir.join("unfinished.ccpg");
        let mut b = PagedBuilder::with_block(&path, 8, 1_000, &test_config(5), 64, 2).unwrap();
        for row in data.iter() {
            b.append(row).unwrap();
        }
        let rows: Vec<&[f32]> = data.iter().collect();
        for t in [0, b.family.len() / 2, b.family.len() - 1] {
            let h = b.family.iter().nth(t).unwrap();
            let mut file = &b.spill.columns[t];
            file.seek(SeekFrom::Start(0)).unwrap();
            let mut input = BufReader::new(file);
            // 300 rows in blocks of 64: four spilled, 44 still buffered.
            for block in rows.chunks(64).take(4) {
                let column: Vec<i64> = block.iter().map(|v| h.bucket(v)).collect();
                let mut want: Vec<(i64, u16)> = column.iter().copied().zip(0..).collect();
                want.sort_unstable();
                let run = SortedRun::unspill(&mut input).unwrap();
                let mut got = Vec::new();
                each_bucket(&[&run], |bucket, slices| {
                    got.extend(slices[0].1.iter().map(|&i| (bucket, i)));
                });
                assert_eq!(got, want, "table {t}");
                assert_eq!(run, SortedRun::from_column(&column, |i| i as u16));
            }
            assert_eq!(input.read(&mut [0u8; 1]).unwrap(), 0, "table {t}: bytes past the blocks");
        }
        drop(b);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A candidate budget small enough that T2 ends most queries, at
    /// `c = 3` so that a window grows on both sides at once: the paged
    /// store must stop counting at the same entry as memory.
    #[test]
    fn t2_stop_matches_memory() {
        let data = generate(Distribution::UniformCube { side: 6.0 }, 5_000, 12, 61);
        let queries = generate(Distribution::UniformCube { side: 6.0 }, 16, 12, 62);
        let config = C2lshConfig::builder()
            .bucket_width(1.0)
            .approximation_ratio(3)
            .seed(7)
            .beta(Beta::Count(3))
            .build();
        let mem = C2lshIndex::build(&data, &config);
        let (dir, paged) = scratch_store("paged_t2", &data, &config, 64);
        let mut t2 = 0;
        for q in queries.iter() {
            let (want, want_stats) = mem.query(q, 5);
            let (got, got_stats) = paged.query(q, 5);
            assert_eq!(got, want);
            assert_eq!(got_stats.collisions_counted, want_stats.collisions_counted);
            assert_eq!(got_stats.candidates_verified, want_stats.candidates_verified);
            assert_eq!(got_stats.terminated_by, want_stats.terminated_by);
            t2 += usize::from(want_stats.terminated_by == Termination::T2CandidateBudget);
        }
        assert!(t2 >= queries.len() / 2, "only {t2} queries ended on T2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vector_round_trips_every_row() {
        let data = generate(Distribution::UniformCube { side: 2.0 }, 300, 33, 9);
        let config = test_config(1);
        let (dir, paged) = scratch_store("paged_vec", &data, &config, 16);
        let mut buf = Vec::new();
        for (i, row) in data.iter().enumerate() {
            assert_eq!(paged.vector(i as u32, &mut buf), Some(row));
        }
        assert_eq!(paged.vector(300, &mut buf), None);
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

    #[test]
    fn vector_reads_count_vector_page_misses() {
        let data = generate(Distribution::UniformCube { side: 2.0 }, 2_000, 24, 5);
        let (dir, paged) = scratch_store("paged_vec_reads", &data, &test_config(3), 4_096);
        paged.reset_io();
        let mut buf = Vec::new();
        for i in (0..2_000).step_by(7) {
            paged.vector(i, &mut buf);
        }
        // A cold pool large enough to keep every page reads each vector
        // page once, and the second pass reads none.
        let pages = (2_000 * 24usize).div_ceil(FLOATS_PER_PAGE) as u64;
        assert_eq!(paged.vector_reads(), pages);
        assert_eq!(paged.physical_reads(), pages);
        for i in (0..2_000).step_by(7) {
            paged.vector(i, &mut buf);
        }
        assert_eq!(paged.vector_reads(), pages);
        // A query adds posting reads beside them, and a reset clears both.
        let (_, stats) = paged.query(data.get(3), 5);
        assert!(paged.physical_reads() > paged.vector_reads());
        assert!(stats.candidates_verified > 0);
        paged.reset_io();
        assert_eq!((paged.vector_reads(), paged.physical_reads()), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A [`PagedStore`] that counts the pages a query must request: the
    /// pages holding the entries its scans hand out, and the pages each
    /// vector it reads lies on. Window bounds come from the directory,
    /// so nothing else may be requested.
    struct Metered<'s> {
        store: &'s PagedStore,
        pages: std::cell::Cell<u64>,
    }

    impl TableStore for Metered<'_> {
        type Cursor = PagedCursor;
        type Id = u32;

        fn dim(&self) -> usize {
            self.store.dim
        }

        fn len(&self) -> usize {
            self.store.n
        }

        fn num_tables(&self) -> usize {
            self.store.tables.len()
        }

        fn begin(&self, q: &[f32]) -> PagedCursor {
            self.store.begin(q)
        }

        fn expand(
            &self,
            cursor: &mut PagedCursor,
            t: usize,
            radius: i64,
            visit: &mut dyn FnMut(&Ids<'_, u32>) -> bool,
        ) {
            let PagedTable { dir, run } = &self.store.tables[t];
            let covered = |cursor: &PagedCursor| {
                cursor.windows.covered(t).map_or(0..0, |(first, last)| dir.entries(first..=last))
            };
            let before = covered(cursor);
            let mut handed = 0;
            self.store.expand(cursor, t, radius, &mut |ids| {
                handed += ids.len();
                visit(ids)
            });
            let after = covered(cursor);
            let new = if before.is_empty() {
                [after.clone(), 0..0]
            } else {
                [after.start..before.start, before.end..after.end]
            };
            for range in new {
                let take = handed.min(range.len());
                if take > 0 {
                    let pages = run.page_of(range.start + take - 1) - run.page_of(range.start) + 1;
                    self.pages.set(self.pages.get() + pages as u64);
                }
                handed -= take;
            }
        }

        fn exhausted(&self, cursor: &PagedCursor) -> bool {
            self.store.exhausted(cursor)
        }

        fn vector<'a>(&'a self, oid: u32, buf: &'a mut Vec<f32>) -> Option<&'a [f32]> {
            let first = oid as usize * self.store.dim;
            let last = first + self.store.dim - 1;
            let pages = last / FLOATS_PER_PAGE - first / FLOATS_PER_PAGE + 1;
            self.pages.set(self.pages.get() + pages as u64);
            self.store.vector(oid, buf)
        }
    }

    #[test]
    fn cold_query_requests_only_the_pages_it_decodes() {
        // Dimension 20 does not divide a page's floats: some vectors
        // straddle two pages.
        let data = generate(
            Distribution::GaussianMixture { clusters: 6, spread: 0.1, scale: 5.0 },
            20_000,
            20,
            71,
        );
        let queries = generate(Distribution::UniformCube { side: 5.0 }, 12, 20, 72);
        let config = test_config(17);
        let (dir, mut paged) = scratch_store("paged_requests", &data, &config, 64);
        assert!(paged.tables.iter().any(|t| t.run.page_count() >= 3));
        let params = paged.params.search(&config);
        let (mut rounds, mut t2) = (0, 0);
        for (i, q) in queries.iter().enumerate() {
            paged.set_pool_pages(64);
            let metered = Metered { store: &paged, pages: std::cell::Cell::new(0) };
            let (nn, stats) =
                engine::run_query(&metered, &params, q, 10, &SearchOptions::default());
            assert_eq!(paged.pool_stats().requests, metered.pages.get(), "query {i}");
            assert_eq!(nn, paged.query(q, 10).0);
            rounds += stats.rounds as usize;
            t2 += usize::from(stats.terminated_by == Termination::T2CandidateBudget);
        }
        // Queries of several rounds, and queries that T2 stops mid-scan.
        assert!(rounds > queries.len() && t2 > 0, "{rounds} rounds, {t2} T2 stops");
        std::fs::remove_dir_all(&dir).ok();
    }
}
