//! The in-memory C2LSH index.
//!
//! Per hash function, the index stores one run of `(level-1 bucket id,
//! object id)` entries sorted by bucket id, in structure-of-arrays form
//! (`Vec<i64>` + `Vec<u32>`) so binary searches touch only the bucket
//! array. This *is* the paper's hash table: virtual rehashing turns
//! every level-`R` bucket lookup into a contiguous range of this run.
//!
//! The query loop itself lives in [`crate::engine`]; this module only
//! maps delta-range requests onto its sorted runs.

use crate::config::C2lshConfig;
use crate::engine::QueryScratch;
use crate::engine::{self, BucketWindows, SearchOptions, SearchParams, TableStore};
use crate::hash::HashFamily;
use crate::meta::PointMeta;
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use parking_lot::Mutex;

/// One sorted hash table in SoA layout.
#[derive(Debug)]
pub(crate) struct SortedRun {
    pub(crate) buckets: Vec<i64>,
    pub(crate) oids: Vec<u32>,
}

impl SortedRun {
    /// Index of the first entry with bucket id ≥ `b`, searched within
    /// `lo..hi` (the hint [`BucketWindows::grow`] supplies).
    pub(crate) fn lower_bound(&self, b: i64, lo: usize, hi: usize) -> usize {
        lo + self.buckets[lo..hi].partition_point(|&x| x < b)
    }
}

/// The in-memory C2LSH index over a borrowed dataset.
#[derive(Debug)]
pub struct C2lshIndex<'d> {
    data: &'d Dataset,
    config: C2lshConfig,
    params: FullParams,
    family: HashFamily,
    pub(crate) tables: Vec<SortedRun>,
    /// Per-point attribute payloads, indexed by object id; empty when
    /// the corpus carries no metadata (every point reads as default).
    metas: Vec<PointMeta>,
    /// Reusable query scratch (epoch counter), lazily rebuilt per query.
    pub(crate) scratch: Mutex<QueryScratch>,
}

impl<'d> C2lshIndex<'d> {
    /// Build an index: draw `m` hash functions, hash every object, sort
    /// each table by bucket id.
    ///
    /// # Panics
    /// Panics on an empty dataset or an invalid config.
    pub fn build(data: &'d Dataset, config: &C2lshConfig) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let params = FullParams::derive(data.len(), config);
        let family = HashFamily::generate(params.m, data.dim(), config);
        let tables = build_tables(data, &family);
        Self {
            data,
            config: config.clone(),
            params,
            family,
            tables,
            metas: Vec::new(),
            scratch: Mutex::new(QueryScratch::new(data.len())),
        }
    }

    /// Attach per-point attribute payloads (row `i` of the dataset gets
    /// `metas[i]`), enabling filtered queries via
    /// [`SearchOptions::filter`].
    ///
    /// # Panics
    /// Panics unless exactly one payload per indexed point is supplied.
    pub fn set_meta(&mut self, metas: Vec<PointMeta>) {
        assert_eq!(metas.len(), self.data.len(), "one PointMeta per indexed point");
        self.metas = metas;
    }

    /// Builder-style [`C2lshIndex::set_meta`].
    pub fn with_meta(mut self, metas: Vec<PointMeta>) -> Self {
        self.set_meta(metas);
        self
    }

    /// The derived parameters in effect.
    pub fn params(&self) -> &FullParams {
        &self.params
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &C2lshConfig {
        &self.config
    }

    /// The hash family (exposed for the theory-validation experiments).
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    pub(crate) fn search_params(&self) -> SearchParams {
        SearchParams {
            c: self.config.c,
            l: self.params.l as u32,
            beta_n: self.params.beta_n,
            base_radius: self.config.base_radius,
        }
    }

    /// c-k-ANN query: the `k` nearest verified candidates, ascending by
    /// distance, plus cost counters.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.query_with(q, k, &SearchOptions::default())
    }

    /// [`C2lshIndex::query`] with explicit observability options.
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
    /// Results are in query order and identical to sequential
    /// [`C2lshIndex::query`] calls (each worker owns its own collision
    /// counter). Thread count defaults to the machine's parallelism.
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        self.query_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`C2lshIndex::query_batch`] with explicit observability options.
    pub fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        engine::run_query_batch(self, &self.search_params(), queries, k, opts)
    }

    /// Estimated index size in bytes (hash tables + hash family), the
    /// quantity reported in the paper's index-size table.
    pub fn size_bytes(&self) -> usize {
        let tables: usize =
            self.tables.iter().map(|t| t.buckets.len() * 8 + t.oids.len() * 4).sum();
        tables + self.family.size_bytes()
    }

    /// Number of hash tables `m`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// `(n, dim)` of the indexed dataset (for persistence fingerprints).
    pub fn data_shape(&self) -> (usize, usize) {
        (self.data.len(), self.data.dim())
    }

    /// Visit every `(bucket, oid)` entry, table by table in order (the
    /// persistence serializer).
    pub fn for_each_table_entry(&self, mut f: impl FnMut(i64, u32)) {
        for t in &self.tables {
            for (b, o) in t.buckets.iter().zip(&t.oids) {
                f(*b, *o);
            }
        }
    }

    /// Reassemble an index from persisted parts (`crate::persist`).
    pub(crate) fn from_parts(
        data: &'d Dataset,
        config: C2lshConfig,
        functions: Vec<crate::hash::PstableHash>,
        tables: Vec<(Vec<i64>, Vec<u32>)>,
    ) -> Self {
        let params = FullParams::derive(data.len(), &config);
        let family = HashFamily::from_functions(functions);
        assert_eq!(family.len(), params.m, "family size disagrees with parameters");
        let tables =
            tables.into_iter().map(|(buckets, oids)| SortedRun { buckets, oids }).collect();
        Self {
            data,
            config,
            params,
            family,
            tables,
            metas: Vec::new(),
            scratch: Mutex::new(QueryScratch::new(data.len())),
        }
    }
}

fn build_tables(data: &Dataset, family: &HashFamily) -> Vec<SortedRun> {
    family
        .iter()
        .map(|h| {
            let mut pairs: Vec<(i64, u32)> =
                data.iter().enumerate().map(|(i, v)| (h.bucket(v), i as u32)).collect();
            pairs.sort_unstable();
            SortedRun {
                buckets: pairs.iter().map(|p| p.0).collect(),
                oids: pairs.iter().map(|p| p.1).collect(),
            }
        })
        .collect()
}

impl TableStore for C2lshIndex<'_> {
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
        let run = &self.tables[t];
        let n = run.oids.len();
        let (left, right) = cursor.grow(t, radius, n, |b, lo, hi| run.lower_bound(b, lo, hi));
        for range in [left, right] {
            for &oid in &run.oids[range] {
                if !visit(oid) {
                    return;
                }
            }
        }
    }

    fn expand_slices(
        &self,
        cursor: &mut BucketWindows,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&[u32]) -> bool,
    ) {
        // Native slices: each delta range of a sorted run is already a
        // contiguous id run, handed to the engine without any buffering.
        let run = &self.tables[t];
        let n = run.oids.len();
        let (left, right) = cursor.grow(t, radius, n, |b, lo, hi| run.lower_bound(b, lo, hi));
        for range in [left, right] {
            if !range.is_empty() && !visit(&run.oids[range]) {
                return;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Beta;
    use crate::stats::Termination;
    use cc_vector::gen::{generate, Distribution};
    use cc_vector::gt::knn_linear;
    use cc_vector::metrics::{overall_ratio, recall};

    fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.015, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    fn cfg() -> C2lshConfig {
        // w matched to the data scale of `clustered` (NN distances ~0.4).
        C2lshConfig::builder().bucket_width(1.0).seed(42).build()
    }

    #[test]
    fn finds_exact_match() {
        let data = clustered(500, 16, 1);
        let index = C2lshIndex::build(&data, &cfg());
        for i in [0usize, 17, 499] {
            let (nn, _) = index.query(data.get(i), 1);
            assert_eq!(nn[0].id as usize, i);
            assert_eq!(nn[0].dist, 0.0);
        }
    }

    #[test]
    fn high_recall_on_clustered_data() {
        let data = clustered(2000, 24, 2);
        let index = C2lshIndex::build(&data, &cfg());
        let queries = generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.015, scale: 10.0 },
            2020,
            24,
            2,
        );
        let mut total_recall = 0.0;
        let mut total_ratio = 0.0;
        let nq = 20;
        for qi in 0..nq {
            let q = queries.get(2000 + qi);
            let truth = knn_linear(&data, q, 10);
            let (got, _) = index.query(q, 10);
            total_recall += recall(&got, &truth);
            total_ratio += overall_ratio(&got, &truth);
        }
        let mean_recall = total_recall / nq as f64;
        let mean_ratio = total_ratio / nq as f64;
        assert!(mean_recall > 0.8, "recall too low: {mean_recall}");
        assert!(mean_ratio < 1.2, "ratio too high: {mean_ratio}");
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let data = clustered(800, 12, 3);
        let index = C2lshIndex::build(&data, &cfg());
        let (nn, _) = index.query(data.get(5), 20);
        assert_eq!(nn.len(), 20);
        for w in nn.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<u32> = nn.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20, "duplicate ids in result");
    }

    #[test]
    fn t2_budget_bounds_verification() {
        let data = clustered(3000, 16, 4);
        let config = C2lshConfig::builder().bucket_width(1.0).seed(7).beta(Beta::Count(30)).build();
        let index = C2lshIndex::build(&data, &config);
        let (_, stats) = index.query(data.get(11), 10);
        // T2 caps verified candidates at k + beta_n.
        assert!(
            stats.candidates_verified <= 10 + index.params().beta_n,
            "verified {} > budget {}",
            stats.candidates_verified,
            10 + index.params().beta_n
        );
    }

    #[test]
    fn exhausts_tiny_dataset_and_still_answers() {
        let data = clustered(20, 8, 5);
        let index = C2lshIndex::build(&data, &cfg());
        // Far-away query: loop must terminate via window exhaustion or T1
        // and return all reachable points.
        let far = vec![1e4f32; 8];
        let (nn, stats) = index.query(&far, 5);
        assert_eq!(nn.len(), 5);
        assert!(matches!(
            stats.terminated_by,
            Termination::Exhausted | Termination::T1AtRadius | Termination::T2CandidateBudget
        ));
    }

    #[test]
    fn query_one_matches_query_k1() {
        let data = clustered(300, 8, 6);
        let index = C2lshIndex::build(&data, &cfg());
        let (one, _) = index.query_one(data.get(42));
        let (k1, _) = index.query(data.get(42), 1);
        assert_eq!(one.unwrap(), k1[0]);
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let data = clustered(400, 10, 7);
        let i1 = C2lshIndex::build(&data, &cfg());
        let i2 = C2lshIndex::build(&data, &cfg());
        let q = data.get(123);
        assert_eq!(i1.query(q, 5).0, i2.query(q, 5).0);
    }

    #[test]
    fn size_accounting_scales_with_m_and_n() {
        let data = clustered(1000, 8, 8);
        let index = C2lshIndex::build(&data, &cfg());
        let m = index.num_tables();
        // 12 bytes per entry per table plus the family itself.
        assert!(index.size_bytes() >= m * 1000 * 12);
    }

    #[test]
    fn k_exceeding_candidates_returns_fewer() {
        let data = clustered(10, 4, 9);
        let index = C2lshIndex::build(&data, &cfg());
        let (nn, _) = index.query(data.get(0), 50);
        assert!(nn.len() <= 10);
        assert!(!nn.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let data = Dataset::empty(4);
        let _ = C2lshIndex::build(&data, &cfg());
    }

    #[test]
    fn batch_query_matches_sequential() {
        let data = clustered(1200, 12, 10);
        let index = C2lshIndex::build(&data, &cfg());
        let queries = data.slice_rows(0, 37);
        let (batch, agg) = index.query_batch(&queries, 5);
        assert_eq!(batch.len(), 37);
        assert_eq!(agg.queries, 37);
        let mut verified_total = 0u64;
        for (qi, (nn, stats)) in batch.iter().enumerate() {
            let (seq_nn, seq_stats) = index.query(queries.get(qi), 5);
            assert_eq!(nn, &seq_nn, "query {qi}");
            assert_eq!(stats.candidates_verified, seq_stats.candidates_verified);
            verified_total += stats.candidates_verified as u64;
        }
        assert_eq!(agg.verified, verified_total);
    }

    #[test]
    fn batch_query_empty_set() {
        let data = clustered(50, 8, 11);
        let index = C2lshIndex::build(&data, &cfg());
        let (batch, agg) = index.query_batch(&Dataset::empty(8), 3);
        assert!(batch.is_empty());
        assert_eq!(agg.queries, 0);
    }

    #[test]
    fn filtered_query_respects_predicate_and_counts_separately() {
        use crate::meta::Predicate;
        let data = clustered(900, 12, 13);
        // Modulus 3 is coprime to the generator's 16 clusters, so every
        // cluster mixes all three labels and a filtered search must
        // reject frequent same-cluster points.
        let metas: Vec<PointMeta> =
            (0..900u32).map(|i| PointMeta::new(1 << (i % 5), i % 3)).collect();
        let index = C2lshIndex::build(&data, &cfg()).with_meta(metas);
        let opts = SearchOptions {
            filter: Some(Predicate::label(1).and_tag_any(u64::MAX)),
            ..Default::default()
        };
        let (nn, stats) = index.query_with(data.get(4), 8, &opts);
        assert!(!nn.is_empty());
        for n in &nn {
            assert_eq!(n.id % 3, 1, "label clause violated by {}", n.id);
        }
        assert!(stats.candidates_filtered > 0);
        // Unfiltered queries on the same index stay untouched.
        let (_, plain) = index.query(data.get(4), 8);
        assert_eq!(plain.candidates_filtered, 0);
    }

    #[test]
    #[should_panic(expected = "one PointMeta per indexed point")]
    fn meta_length_mismatch_rejected() {
        let data = clustered(50, 8, 14);
        let _ = C2lshIndex::build(&data, &cfg()).with_meta(vec![PointMeta::default(); 49]);
    }

    #[test]
    fn per_round_observability_via_options() {
        let data = clustered(600, 10, 12);
        let index = C2lshIndex::build(&data, &cfg());
        let opts = SearchOptions { per_round: true, timing: true, ..Default::default() };
        let (_, stats) = index.query_with(data.get(9), 5, &opts);
        assert_eq!(stats.per_round.len(), stats.rounds as usize);
        let col: u64 = stats.per_round.iter().map(|r| r.collisions).sum();
        assert_eq!(col, stats.collisions_counted);
        assert!(stats.elapsed_nanos > 0);
        // And with defaults the layer stays off.
        let (_, plain) = index.query(data.get(9), 5);
        assert!(plain.per_round.is_empty());
        assert_eq!(plain.elapsed_nanos, 0);
    }
}
