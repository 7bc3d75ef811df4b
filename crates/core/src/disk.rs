//! The disk-resident C2LSH index.
//!
//! Identical logical layout to [`crate::index::C2lshIndex`], but every
//! hash table is a [`BucketFile`] — sorted `(bucket, oid)` entries packed
//! into 4 KiB pages of a [`PageFile`] — so each query's page I/O can be
//! measured exactly, reproducing the paper's I/O-cost experiments.
//!
//! The [`crate::engine`] loop runs against this store; the in-memory
//! fence keys of each [`BucketFile`] play the role of the (always-cached)
//! sparse index over each sorted run, and leaf-page reads are charged to
//! the embedded [`PageFile`]'s counters.

use crate::config::C2lshConfig;
use crate::engine::QueryScratch;
use crate::engine::{self, BucketWindows, SearchOptions, SearchParams, TableStore};
use crate::hash::HashFamily;
use crate::meta::PointMeta;
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_storage::bucket_file::BucketFile;
use cc_storage::pagefile::PageFile;
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use parking_lot::Mutex;

/// The paged C2LSH index.
pub struct DiskIndex<'d> {
    data: &'d Dataset,
    config: C2lshConfig,
    params: FullParams,
    family: HashFamily,
    file: PageFile,
    tables: Vec<BucketFile>,
    /// Per-point attribute payloads; empty = every point defaults.
    metas: Vec<PointMeta>,
    scratch: Mutex<QueryScratch>,
    /// Pages a candidate verification costs: reading one data vector.
    /// `⌈d·4 / 4096⌉`, at least 1 — the paper charges one page per
    /// candidate unless vectors exceed a page.
    verify_pages: u64,
}

impl<'d> DiskIndex<'d> {
    /// Build the paged index (hash, sort, pack into pages).
    ///
    /// # Panics
    /// Panics on an empty dataset or invalid config.
    pub fn build(data: &'d Dataset, config: &C2lshConfig) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let params = FullParams::derive(data.len(), config);
        let family = HashFamily::generate(params.m, data.dim(), config);
        let mut file = PageFile::new();
        let tables: Vec<BucketFile> = family
            .iter()
            .map(|h| {
                let mut pairs: Vec<(i64, u32)> =
                    data.iter().enumerate().map(|(i, v)| (h.bucket(v), i as u32)).collect();
                pairs.sort_unstable();
                BucketFile::build(&mut file, &pairs)
            })
            .collect();
        file.reset_stats();
        let verify_pages = (data.dim() as u64 * 4).div_ceil(4096).max(1);
        Self {
            data,
            config: config.clone(),
            params,
            family,
            file,
            tables,
            metas: Vec::new(),
            scratch: Mutex::new(QueryScratch::new(data.len())),
            verify_pages,
        }
    }

    /// Attach per-point metadata (one entry per indexed point, in id
    /// order). Filtered queries resolve [`Predicate`] clauses against
    /// these payloads.
    ///
    /// [`Predicate`]: crate::meta::Predicate
    ///
    /// # Panics
    /// Panics when `metas.len() != len()`.
    pub fn set_meta(&mut self, metas: Vec<PointMeta>) {
        assert_eq!(metas.len(), self.data.len(), "one PointMeta per indexed point");
        self.metas = metas;
    }

    /// Builder-style [`DiskIndex::set_meta`].
    #[must_use]
    pub fn with_meta(mut self, metas: Vec<PointMeta>) -> Self {
        self.set_meta(metas);
        self
    }

    /// The derived parameters in effect.
    pub fn params(&self) -> &FullParams {
        &self.params
    }

    fn search_params(&self) -> SearchParams {
        SearchParams {
            c: self.config.c,
            l: self.params.l as u32,
            beta_n: self.params.beta_n,
            base_radius: self.config.base_radius,
        }
    }

    /// c-k-ANN query with exact page-I/O accounting.
    ///
    /// The returned [`QueryStats::io`] contains the pages read from the
    /// hash tables *plus* one page per verified candidate (fetching the
    /// vector to compute its true distance), matching the paper's cost
    /// model for disk-resident data.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.query_with(q, k, &SearchOptions::default())
    }

    /// [`DiskIndex::query`] with explicit observability options.
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
    ///
    /// Per-query [`QueryStats::io`] carries the deterministic
    /// verification charge; the table page reads of the whole batch are
    /// reported once in [`BatchStats::io`] (workers share the page
    /// file's counters, so a per-query table delta is not attributable
    /// under concurrency).
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        self.query_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`DiskIndex::query_batch`] with explicit observability options.
    pub fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        engine::run_query_batch(self, &self.search_params(), queries, k, opts)
    }

    /// Index size in pages (hash tables only; the paper's index-size
    /// metric excludes the raw data file, which every method shares).
    pub fn size_pages(&self) -> usize {
        self.file.len()
    }

    /// The backing page file (exposed for I/O-trace experiments).
    pub fn page_file(&self) -> &PageFile {
        &self.file
    }

    /// Index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.file.size_bytes()
    }
}

impl TableStore for DiskIndex<'_> {
    type Cursor = BucketWindows;

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn len(&self) -> usize {
        self.data.len()
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
        let table = &self.tables[t];
        let n = self.data.len();
        let (left, right) = cursor.grow(t, radius, n, |b, _, _| table.lower_bound(&self.file, b));
        for range in [left, right] {
            if !range.is_empty() {
                table.scan_while(&self.file, range.start, range.end, |_, oid| visit(oid));
            }
        }
    }

    fn exhausted(&self, cursor: &BucketWindows) -> bool {
        cursor.exhausted(self.data.len())
    }

    fn vector(&self, oid: u32) -> Option<&[f32]> {
        Some(self.data.get(oid as usize))
    }

    fn meta(&self, oid: u32) -> PointMeta {
        self.metas.get(oid as usize).copied().unwrap_or_default()
    }

    fn verify_pages(&self) -> u64 {
        self.verify_pages
    }

    fn io_reads(&self) -> u64 {
        self.file.stats().reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vector::gen::{generate, Distribution};

    fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.015, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    fn cfg() -> C2lshConfig {
        C2lshConfig::builder().bucket_width(1.0).seed(42).build()
    }

    #[test]
    fn disk_results_match_memory_results() {
        use crate::index::C2lshIndex;
        let data = clustered(1500, 16, 10);
        let mem = C2lshIndex::build(&data, &cfg());
        let disk = DiskIndex::build(&data, &cfg());
        for qi in [0usize, 100, 700] {
            let q = data.get(qi);
            let (m_nn, _) = mem.query(q, 10);
            let (d_nn, _) = disk.query(q, 10);
            assert_eq!(m_nn, d_nn, "query {qi} diverged between backends");
        }
    }

    #[test]
    fn io_is_counted_and_positive() {
        let data = clustered(2000, 16, 11);
        let disk = DiskIndex::build(&data, &cfg());
        let (_, stats) = disk.query(data.get(3), 10);
        assert!(stats.io.reads > 0);
        // Verification I/O is included.
        assert!(stats.io.reads >= stats.candidates_verified as u64);
    }

    #[test]
    fn io_resets_between_queries() {
        let data = clustered(1000, 8, 12);
        let disk = DiskIndex::build(&data, &cfg());
        let (_, s1) = disk.query(data.get(0), 5);
        let (_, s2) = disk.query(data.get(0), 5);
        assert_eq!(s1.io, s2.io, "identical queries must cost identical I/O");
    }

    #[test]
    fn size_pages_scales_with_m() {
        let data = clustered(2000, 8, 13);
        let disk = DiskIndex::build(&data, &cfg());
        let per_table = 2000usize.div_ceil(cc_storage::bucket_file::ENTRIES_PER_PAGE);
        assert_eq!(disk.size_pages(), per_table * disk.params().m);
        assert_eq!(disk.size_bytes(), disk.size_pages() * 4096);
    }

    #[test]
    fn wide_vectors_charge_multiple_verify_pages() {
        let data = clustered(300, 1500, 14); // 6000 B per vector -> 2 pages
        let disk = DiskIndex::build(&data, &cfg());
        assert_eq!(disk.verify_pages, 2);
    }

    #[test]
    fn batch_results_match_sequential_and_io_is_conserved() {
        let data = clustered(900, 12, 15);
        let disk = DiskIndex::build(&data, &cfg());
        let queries = data.slice_rows(0, 16);
        let (batch, agg) = disk.query_batch(&queries, 5);
        let mut seq_table_reads = 0u64;
        let mut seq_verify_reads = 0u64;
        for (qi, (nn, stats)) in batch.iter().enumerate() {
            let (seq_nn, seq_stats) = disk.query(queries.get(qi), 5);
            assert_eq!(nn, &seq_nn, "query {qi}");
            let verify = seq_stats.candidates_verified as u64 * disk.verify_pages;
            // Per-query batch I/O carries only the verification charge.
            assert_eq!(stats.io.reads, verify, "query {qi}");
            seq_verify_reads += verify;
            seq_table_reads += seq_stats.io.reads - verify;
        }
        // Batch-level I/O = all verification charges + table reads of
        // the whole batch, which matches the sequential sum exactly
        // (bucket scans read the same pages either way).
        assert_eq!(agg.io.reads, seq_verify_reads + seq_table_reads);
    }

    /// Exact paper-model costs of fixed queries, multi-round and
    /// early-stopped ones included. Any change to how table pages are
    /// charged, or to where an expansion stops, moves these numbers —
    /// and with them every I/O column in EXPERIMENTS.md.
    #[test]
    fn golden_io_counts() {
        use crate::stats::Termination::{T1AtRadius as T1, T2CandidateBudget as T2};
        let data = clustered(2000, 16, 11);
        let disk = DiskIndex::build(&data, &cfg());
        assert_eq!(disk.size_pages(), 876);
        // (query id, offset added to every coordinate, k) ->
        // (io reads, verified, collisions, termination)
        let golden = [
            ((3, 0.0, 1), (493, 101, 13515, T2)),
            ((3, 0.0, 10), (511, 110, 13886, T2)),
            ((259, 0.0, 1), (577, 101, 14688, T2)),
            ((259, 0.0, 10), (580, 104, 14793, T1)),
            ((1100, 0.5, 1), (994, 101, 17401, T2)),
            ((1100, 0.5, 10), (994, 101, 17421, T1)),
            ((400, 2.0, 1), (1714, 101, 48944, T2)),
            ((400, 2.0, 10), (1727, 110, 49311, T2)),
            ((3, 30.0, 1), (2653, 101, 80352, T2)),
            ((3, 30.0, 10), (2662, 110, 80402, T2)),
        ];
        for ((qi, offset, k), want) in golden {
            let q: Vec<f32> = data.get(qi).iter().map(|x| x + offset).collect();
            let (_, s) = disk.query(&q, k);
            let got = (s.io.reads, s.candidates_verified, s.collisions_counted, s.terminated_by);
            assert_eq!(got, want, "query {qi} + {offset}, k = {k}");
        }
    }
}
