//! The disk-resident C2LSH index, costed under the paper's I/O model.
//!
//! The paper's efficiency metric is a *count* of 4 KiB page reads. This
//! backend is a page meter around the walk of [`C2lshIndex`]: it answers
//! from the same segment and charges what the paper's paged layout of
//! each run — one 12-byte `(bucket, oid)` entry per object,
//! [`ENTRIES_PER_PAGE`] per page, first key of every page cached in
//! memory — would read: one page per window-bound probe, every page a
//! scan hands the engine entries from, and [`TableStore::verify_pages`]
//! per verified candidate. The count is arithmetic on entry indices,
//! which the in-memory bucket directory leaves as they are; no page
//! bytes exist. The tier that does real out-of-core I/O is
//! [`crate::paged`].

use crate::config::C2lshConfig;
use crate::engine::{self, Ids, KeyWindows, SearchOptions, TableStore};
use crate::index::{C2lshIndex, Segment};
use crate::meta::PointMeta;
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_storage::{ENTRIES_PER_PAGE, PAGE_SIZE};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// C2LSH with exact page-I/O accounting.
pub struct DiskIndex<'d> {
    mem: C2lshIndex<'d>,
    /// Table pages charged since build.
    reads: AtomicU64,
    /// Pages a candidate verification costs: reading one data vector.
    /// `⌈d·4 / 4096⌉`, at least 1 — the paper charges one page per
    /// candidate unless vectors exceed a page.
    verify_pages: u64,
}

/// Grow window `t` of `cursor` over `segments` to `radius`, charging to
/// `reads` the two bound probes (none on an empty table) and every page
/// a scan moves onto. The pages are those of one run over all segments:
/// slices are cut where their pages end, and a page is charged as its
/// first piece is handed out unless that piece continues the last one
/// inside a page already read: a refusal reads no later page.
fn expand_metered(
    segments: &[Segment],
    reads: &AtomicU64,
    cursor: &mut KeyWindows,
    t: usize,
    radius: i64,
    visit: &mut dyn FnMut(&Ids<'_, u16>) -> bool,
) {
    let empty = segments.iter().all(|s| s.runs[t].oids.is_empty());
    reads.fetch_add(if empty { 0 } else { 2 }, Relaxed);
    // One past the last entry handed out.
    let mut end = None;
    Segment::expand(segments, cursor, t, radius, |mut at, Ids { first, mut offsets }| {
        while !offsets.is_empty() {
            let page_left = ENTRIES_PER_PAGE - at % ENTRIES_PER_PAGE;
            let (piece, rest) = offsets.split_at(offsets.len().min(page_left));
            if end != Some(at) || at % ENTRIES_PER_PAGE == 0 {
                reads.fetch_add(1, Relaxed);
            }
            if !visit(&Ids { first, offsets: piece }) {
                return false;
            }
            (at, offsets) = (at + piece.len(), rest);
            end = Some(at);
        }
        true
    });
}

impl<'d> DiskIndex<'d> {
    /// Build the index (hash, sort).
    ///
    /// # Panics
    /// Panics on an empty dataset or invalid config.
    pub fn build(data: &'d Dataset, config: &C2lshConfig) -> Self {
        let verify_pages = (data.dim() * 4).div_ceil(PAGE_SIZE).max(1) as u64;
        Self { mem: C2lshIndex::build(data, config), reads: AtomicU64::new(0), verify_pages }
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
        self.mem.set_meta(metas);
    }

    /// Builder-style [`DiskIndex::set_meta`].
    #[must_use]
    pub fn with_meta(mut self, metas: Vec<PointMeta>) -> Self {
        self.set_meta(metas);
        self
    }

    /// The derived parameters in effect.
    pub fn params(&self) -> &FullParams {
        self.mem.params()
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
        engine::run_query(self, &self.mem.params().search(self.mem.config()), q, k, opts)
    }

    /// Answer a whole query set in parallel across scoped threads.
    ///
    /// Per-query [`QueryStats::io`] carries the deterministic
    /// verification charge; the table page reads of the whole batch are
    /// reported once in [`BatchStats::io`] (workers share one page
    /// counter, so a per-query table delta is not attributable under
    /// concurrency).
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
        let search = self.mem.params().search(self.mem.config());
        engine::run_query_batch(self, &search, queries, k, opts)
    }

    /// Index size in pages (hash tables only; the paper's index-size
    /// metric excludes the raw data file, which every method shares).
    pub fn size_pages(&self) -> usize {
        self.num_tables() * self.len().div_ceil(ENTRIES_PER_PAGE)
    }

    /// Index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_pages() * PAGE_SIZE
    }
}

impl TableStore for DiskIndex<'_> {
    type Cursor = KeyWindows;
    type Id = u16;

    fn dim(&self) -> usize {
        self.mem.dim()
    }

    fn len(&self) -> usize {
        self.mem.len()
    }

    fn num_tables(&self) -> usize {
        self.mem.num_tables()
    }

    fn begin(&self, q: &[f32]) -> KeyWindows {
        self.mem.begin(q)
    }

    fn begin_batch(&self, queries: &Dataset) -> Vec<KeyWindows> {
        self.mem.begin_batch(queries)
    }

    fn expand(
        &self,
        cursor: &mut KeyWindows,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&Ids<'_, u16>) -> bool,
    ) {
        expand_metered(&self.mem.segments, &self.reads, cursor, t, radius, visit);
    }

    fn exhausted(&self, cursor: &KeyWindows) -> bool {
        self.mem.exhausted(cursor)
    }

    fn vector<'a>(&'a self, oid: u32, buf: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        self.mem.vector(oid, buf)
    }

    fn meta(&self, oid: u32) -> PointMeta {
        self.mem.meta(oid)
    }

    fn verify_pages(&self) -> u64 {
        self.verify_pages
    }

    fn io_reads(&self) -> u64 {
        self.reads.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SortedRun;
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
        let per_table = 2000usize.div_ceil(ENTRIES_PER_PAGE);
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
            ((3, 0.0, 1), (492, 101, 13515, T2)),
            ((3, 0.0, 10), (511, 110, 13886, T2)),
            ((259, 0.0, 1), (576, 101, 14688, T2)),
            ((259, 0.0, 10), (580, 104, 14793, T1)),
            ((1100, 0.5, 1), (994, 101, 17401, T2)),
            ((1100, 0.5, 10), (994, 101, 17421, T1)),
            ((400, 2.0, 1), (1713, 101, 48944, T2)),
            ((400, 2.0, 10), (1727, 110, 49311, T2)),
            ((3, 30.0, 1), (2652, 101, 80352, T2)),
            ((3, 30.0, 10), (2661, 110, 80402, T2)),
        ];
        for ((qi, offset, k), want) in golden {
            let q: Vec<f32> = data.get(qi).iter().map(|x| x + offset).collect();
            let (_, s) = disk.query(&q, k);
            let got = (s.io.reads, s.candidates_verified, s.collisions_counted, s.terminated_by);
            assert_eq!(got, want, "query {qi} + {offset}, k = {k}");
        }
    }

    /// Naive page model the meter must equal: one page per bound probe,
    /// and every maximal run of consecutively visited entry indices (one
    /// scan) reads each distinct `index / 341` page it touches once.
    fn naive_pages(probes: u64, visited: &[usize]) -> u64 {
        let mut pages = probes;
        let mut scan = std::collections::BTreeSet::new();
        for (n, &i) in visited.iter().enumerate() {
            if n > 0 && visited[n - 1] + 1 != i {
                pages += scan.len() as u64;
                scan.clear();
            }
            scan.insert(i / 341);
        }
        pages + scan.len() as u64
    }

    /// Expand the objects of `buckets` (object `i` in bucket
    /// `buckets[i]`), split into `parts` segments of consecutive ids,
    /// round by round around bucket `q`, stopping round `r` at its
    /// `stops[r]`-th visit, and compare each round's charge with the
    /// pages of the one run of every `(bucket, oid)` entry.
    fn check_meter(buckets: Vec<i64>, q: i64, stops: &[usize], parts: usize) {
        let n = buckets.len();
        let mut order: Vec<(i64, usize)> = buckets.iter().copied().zip(0..).collect();
        order.sort_unstable();
        // Object id → its entry in the one run.
        let mut entry = vec![0; n];
        order.iter().enumerate().for_each(|(at, &(_, oid))| entry[oid] = at);
        let share = n.div_ceil(parts).max(1);
        let segments: Vec<Segment> = (0..n)
            .step_by(share)
            .map(|first| {
                let rows = &buckets[first..n.min(first + share)];
                let run = SortedRun::from_column(rows, |i| i as u16);
                Segment {
                    runs: vec![run],
                    first: first as u32,
                    last: (first + rows.len() - 1) as u32,
                }
            })
            .collect();
        let probes = if n == 0 { 0 } else { 2 };
        let reads = AtomicU64::new(0);
        let mut cursor = KeyWindows::new(vec![q]);
        for (level, &stop) in stops.iter().enumerate() {
            let (before, mut visited) = (reads.load(Relaxed), Vec::new());
            let radius = crate::rehash::radius_at(2, level as u32);
            expand_metered(&segments, &reads, &mut cursor, 0, radius, &mut |ids| {
                // Consume a slice up to the stop, as the engine does.
                let take = ids.len().min(stop - visited.len());
                let oids = ids[..take].iter().map(|&oid| (ids.first + u32::from(oid)) as usize);
                visited.extend(oids.map(|oid| entry[oid]));
                visited.len() != stop
            });
            assert_eq!(
                reads.load(Relaxed) - before,
                naive_pages(probes, &visited),
                "round {level}, {parts} segments"
            );
        }
    }

    #[test]
    fn meter_handles_empty_run_and_page_boundary() {
        check_meter(Vec::new(), 0, &[1, 1], 1);
        for parts in [1, 3] {
            // One bucket of exactly two pages: the scan ends on a page boundary.
            check_meter(vec![5; 2 * ENTRIES_PER_PAGE], 5, &[usize::MAX], parts);
            // ... and stopping on the last entry of the first page reads one.
            check_meter(vec![5; 2 * ENTRIES_PER_PAGE], 5, &[ENTRIES_PER_PAGE], parts);
        }
    }

    proptest::proptest! {
        #[test]
        fn meter_matches_naive_page_count(
            buckets in proptest::collection::vec(-60i64..60, 0..1500),
            q in -60i64..60,
            stops in proptest::collection::vec(1usize..700, 1..8),
            parts in 1usize..5,
        ) {
            check_meter(buckets, q, &stops, parts);
        }
    }
}
