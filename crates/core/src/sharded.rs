//! Horizontal sharding: one logical index over `S` disjoint data shards.
//!
//! Scaling an index past one allocation (or, eventually, one machine)
//! means partitioning the dataset. Collision counting makes this
//! unusually clean: every table is keyed by a single hash function, so
//! an object's count at radius `R` depends only on its own buckets —
//! never on other objects — and an index partitioned by object id *is*
//! the unpartitioned index. [`ShardedEngine`] keeps one hash family and
//! one set of parameters, both derived from the **total** object count,
//! and per shard the `index::Segment`s of its sorted runs over global
//! ids, one per 65 536 of them. A query runs the single engine loop of
//! [`crate::engine::run_query`] under one [`KeyWindows`] cursor, and a
//! bucket's ids go out shard by shard, bucket after bucket — one
//! table's `(bucket, oid)` order, the walk every store makes over its
//! segments. Answers, rounds, terminating conditions and every cost
//! counter equal those of an unsharded [`crate::C2lshIndex`] over the
//! same data, whichever condition ends the query — the property pinned
//! by `tests/proptest_sharded.rs`.

use crate::config::C2lshConfig;
use crate::engine::{self, Ids, KeyWindows, SearchOptions, SearchParams, TableStore};
use crate::hash::HashFamily;
use crate::index::{build_segments, Segment};
use crate::meta::PointMeta;
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;

/// A dataset partitioned into contiguous shards. Owns the per-shard
/// copies; [`ShardedEngine`] borrows them (the same borrow discipline
/// as [`crate::C2lshIndex`] over a [`Dataset`]).
#[derive(Debug)]
pub struct ShardedData {
    shards: Vec<Dataset>,
    /// `offsets[s]` = global id of shard `s`'s first object;
    /// a trailing entry holds the total count.
    offsets: Vec<u32>,
}

impl ShardedData {
    /// Split `data` into `num_shards` contiguous chunks of near-equal
    /// size (the first `n % num_shards` shards get one extra row).
    /// Global object id `g` lands in the shard covering it, as local id
    /// `g - offsets[s]` — so ids reported by a [`ShardedEngine`] match
    /// the source dataset's row numbers.
    ///
    /// # Panics
    /// Panics when `num_shards == 0` or `num_shards > data.len()`
    /// (every shard must hold at least one object).
    pub fn partition(data: &Dataset, num_shards: usize) -> Self {
        let n = data.len();
        assert!(num_shards > 0, "need at least one shard");
        assert!(num_shards <= n, "cannot spread {n} objects over {num_shards} shards");
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut offsets = Vec::with_capacity(num_shards + 1);
        let mut lo = 0usize;
        for s in 0..num_shards {
            let len = base + usize::from(s < extra);
            offsets.push(lo as u32);
            shards.push(data.slice_rows(lo, lo + len));
            lo += len;
        }
        offsets.push(n as u32);
        Self { shards, offsets }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total objects across all shards.
    pub fn len(&self) -> usize {
        *self.offsets.last().unwrap() as usize
    }

    /// `true` when no shard holds any object (unreachable via
    /// [`ShardedData::partition`], which requires non-empty shards).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the vectors.
    pub fn dim(&self) -> usize {
        self.shards[0].dim()
    }

    /// Borrow shard `s`'s dataset.
    pub fn shard(&self, s: usize) -> &Dataset {
        &self.shards[s]
    }
}

/// One logical collision-counting index over partitioned data: the
/// segments of sorted runs of every shard under one hash family and one
/// set of derived parameters, driven by the generic engine.
#[derive(Debug)]
pub struct ShardedEngine<'d> {
    data: &'d ShardedData,
    family: HashFamily,
    /// Every shard's segments in shard order, shard `s`'s over the global
    /// ids `offsets[s]..offsets[s + 1]`.
    segments: Vec<Segment>,
    /// Per-point attribute payloads by global object id; empty when the
    /// corpus carries no metadata (every point reads as default).
    metas: Vec<PointMeta>,
    params: FullParams,
    search: SearchParams,
}

impl<'d> ShardedEngine<'d> {
    /// Build the per-shard runs. Parameters `(m, l, β·n)` and the hash
    /// family are derived once, from the **total** object count; each
    /// shard's tables are built in parallel on the machine's cores.
    ///
    /// # Panics
    /// Panics on an invalid config (same contract as
    /// [`crate::C2lshIndex::build`]).
    pub fn build(data: &'d ShardedData, config: &C2lshConfig) -> Self {
        assert!(u32::try_from(data.len()).is_ok(), "object ids are 32-bit");
        let params = FullParams::derive(data.len(), config);
        let family = HashFamily::generate(params.m, data.dim(), config);
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let shards = data.shards.iter().zip(data.offsets.windows(2));
        let segments = shards
            .flat_map(|(rows, ids)| build_segments(rows, &family, threads, |i| ids[0] + i as u32))
            .collect();
        let search = params.search(config);
        Self { data, family, segments, metas: Vec::new(), params, search }
    }

    /// The derived parameters in effect (shared by every shard).
    pub fn params(&self) -> &FullParams {
        &self.params
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.data.num_shards()
    }

    /// Dataset dimensionality (inherent mirror of the [`TableStore`]
    /// accessor, so callers don't need the trait in scope).
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// Total objects across all shards.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when no shard holds any object (unreachable via
    /// [`ShardedData::partition`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// c-k-ANN query with unsharded semantics: one engine loop over
    /// every shard's runs. Ids are global row numbers of the source
    /// dataset.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.query_with(q, k, &SearchOptions::default())
    }

    /// [`ShardedEngine::query`] with explicit observability options.
    pub fn query_with(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<Neighbor>, QueryStats) {
        engine::run_query(self, &self.search, q, k, opts)
    }

    /// Answer a whole query set in parallel across scoped threads
    /// (results as [`ShardedEngine::query`]).
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        self.query_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`ShardedEngine::query_batch`] with explicit observability
    /// options.
    pub fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        engine::run_query_batch(self, &self.search, queries, k, opts)
    }

    /// Attach per-point metadata, indexed by **global** object id (one
    /// entry per row of the source dataset), enabling filtered queries
    /// via `SearchOptions::filter`.
    ///
    /// # Panics
    /// Panics when `metas.len() != len()`.
    pub fn set_meta(&mut self, metas: Vec<PointMeta>) {
        assert_eq!(metas.len(), self.len(), "one PointMeta per indexed point");
        self.metas = metas;
    }

    /// Builder-style [`ShardedEngine::set_meta`].
    #[must_use]
    pub fn with_meta(mut self, metas: Vec<PointMeta>) -> Self {
        self.set_meta(metas);
        self
    }
}

impl TableStore for ShardedEngine<'_> {
    type Cursor = KeyWindows;
    type Id = u16;

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn num_tables(&self) -> usize {
        self.params.m
    }

    fn begin(&self, q: &[f32]) -> KeyWindows {
        KeyWindows::new(self.family.buckets(q))
    }

    fn begin_batch(&self, queries: &Dataset) -> Vec<KeyWindows> {
        self.family.cursors_batch(queries, KeyWindows::new)
    }

    fn expand(
        &self,
        cursor: &mut KeyWindows,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&Ids<'_, u16>) -> bool,
    ) {
        Segment::expand(&self.segments, cursor, t, radius, |_, ids| visit(&ids))
    }

    fn exhausted(&self, cursor: &KeyWindows) -> bool {
        Segment::exhausted(&self.segments, cursor, self.params.m)
    }

    fn vector<'a>(&'a self, oid: u32, _: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        let offsets = &self.data.offsets;
        let s = offsets.partition_point(|&first| first <= oid) - 1;
        Some(self.data.shards[s].get((oid - offsets[s]) as usize))
    }

    fn meta(&self, oid: u32) -> PointMeta {
        self.metas.get(oid as usize).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Beta;
    use crate::index::C2lshIndex;
    use cc_vector::gen::{generate, Distribution};

    fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 8, spread: 0.02, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    /// β·n = n: T1 or exhaustion ends every query under it (the golden
    /// and `proptest_sharded` run into T2).
    fn cfg_exact(n: usize) -> C2lshConfig {
        C2lshConfig::builder().bucket_width(1.0).seed(11).beta(Beta::Count(n as u64)).build()
    }

    #[test]
    fn partition_covers_all_rows_in_order() {
        let data = clustered(103, 6, 1);
        let sharded = ShardedData::partition(&data, 4);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.len(), 103);
        // 103 = 26 + 26 + 26 + 25.
        let sizes: Vec<usize> = (0..4).map(|s| sharded.shard(s).len()).collect();
        assert_eq!(sizes, vec![26, 26, 26, 25]);
        let mut global = 0usize;
        for s in 0..4 {
            for i in 0..sharded.shard(s).len() {
                assert_eq!(sharded.shard(s).get(i), data.get(global), "row {global}");
                global += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn rejects_more_shards_than_rows() {
        let data = clustered(3, 4, 2);
        let _ = ShardedData::partition(&data, 4);
    }

    #[test]
    fn sharded_matches_unsharded_exactly() {
        let data = clustered(900, 10, 4);
        let cfg = cfg_exact(900);
        let single = C2lshIndex::build(&data, &cfg);
        let sharded = ShardedData::partition(&data, 4);
        let engine = ShardedEngine::build(&sharded, &cfg);
        for qi in [0usize, 123, 456, 899] {
            let q = data.get(qi);
            let (want, want_stats) = single.query(q, 7);
            let (got, got_stats) = engine.query(q, 7);
            assert_eq!(got, want, "query {qi}");
            assert_eq!(got_stats.rounds, want_stats.rounds, "query {qi}");
            assert_eq!(got_stats.candidates_verified, want_stats.candidates_verified, "query {qi}");
        }
    }

    #[test]
    fn batch_matches_single_queries() {
        let data = clustered(600, 8, 5);
        let cfg = cfg_exact(600);
        let sharded = ShardedData::partition(&data, 3);
        let engine = ShardedEngine::build(&sharded, &cfg);
        let queries = data.slice_rows(100, 117);
        let (batch, agg) = engine.query_batch(&queries, 5);
        assert_eq!(batch.len(), 17);
        assert_eq!(agg.queries, 17);
        for (qi, (nn, _)) in batch.iter().enumerate() {
            let (want, _) = engine.query(queries.get(qi), 5);
            assert_eq!(nn, &want, "query {qi}");
        }
    }

    #[test]
    fn sharded_filtered_matches_unsharded_filtered() {
        use crate::meta::Predicate;
        let data = clustered(700, 10, 8);
        let cfg = cfg_exact(700);
        let metas: Vec<PointMeta> = (0..700).map(|i| PointMeta::labeled(i % 5)).collect();
        let single = C2lshIndex::build(&data, &cfg).with_meta(metas.clone());
        let sharded = ShardedData::partition(&data, 3);
        let engine = ShardedEngine::build(&sharded, &cfg).with_meta(metas);
        let opts = SearchOptions { filter: Some(Predicate::label(2)), ..Default::default() };
        for qi in [0usize, 350, 699] {
            let q = data.get(qi);
            let (want, want_stats) = single.query_with(q, 6, &opts);
            let (got, got_stats) = engine.query_with(q, 6, &opts);
            assert_eq!(got, want, "query {qi}");
            assert_eq!(got_stats.candidates_filtered, want_stats.candidates_filtered, "query {qi}");
            for n in &got {
                assert_eq!(n.id % 5, 2, "predicate violated by {}", n.id);
            }
        }
    }

    #[test]
    fn single_shard_degenerates_to_plain_index() {
        let data = clustered(300, 8, 7);
        let cfg = cfg_exact(300);
        let single = C2lshIndex::build(&data, &cfg);
        let sharded = ShardedData::partition(&data, 1);
        let engine = ShardedEngine::build(&sharded, &cfg);
        let q = data.get(200);
        assert_eq!(engine.query(q, 9), single.query(q, 9));
    }

    /// A shard of more than 65 536 rows is several segments, and still
    /// one shard.
    #[test]
    fn a_shard_past_one_segment_is_still_one_shard() {
        let data = clustered(140_000, 2, 9);
        let config = C2lshConfig::builder().seed(3).m_override(3).l_override(2).build();
        let sharded = ShardedData::partition(&data, 2);
        let engine = ShardedEngine::build(&sharded, &config);
        assert_eq!(engine.num_shards(), 2);
        let ranges: Vec<(u32, u32)> = engine.segments.iter().map(|s| (s.first, s.last)).collect();
        assert_eq!(ranges, [(0, 65_535), (65_536, 69_999), (70_000, 135_535), (135_536, 139_999)]);
        let single = C2lshIndex::build(&data, &config);
        for qi in [0usize, 65_535, 65_536, 70_000, 139_999] {
            assert_eq!(engine.query(data.get(qi), 5), single.query(data.get(qi), 5), "query {qi}");
        }
    }

    /// Pins what one 6 000 × 12 data set answers at 1, 3 and 4 shards:
    /// per (c, β·n, query row, offset added to every coordinate, k, label
    /// filter) the first id, an FNV-1a of every id and distance's bits,
    /// rounds, final radius, collisions, verified, abandoned, filtered and
    /// the terminating condition. The rows cover T1 in the first round and
    /// after several, T2 in the first round and in a later one. Recorded
    /// at one shard, where the engine was a [`C2lshIndex`].
    #[test]
    fn golden_answers_at_one_and_four_shards() {
        use crate::meta::Predicate;
        use crate::stats::Termination::{self, T1AtRadius as T1, T2CandidateBudget as T2};
        type Ask = (u32, u64, usize, f32, usize, bool);
        type Want = (u32, u64, u32, i64, u64, usize, usize, usize, Termination);
        #[rustfmt::skip]
        let golden: [(Ask, Want); 20] = [
            ((2, 300, 5, 0.3, 1, false), (5501, 5_888_565_586_053_662_639, 1, 1, 49_173, 182, 65, 0, T1)),
            ((2, 300, 5, 0.3, 10, true), (3077, 16_323_071_659_754_759_305, 1, 1, 49_173, 38, 0, 144, T1)),
            ((2, 300, 2500, 0.6, 10, false), (260, 12_378_683_759_749_052_750, 2, 2, 80_046, 168, 22, 0, T1)),
            ((2, 300, 5, 5.0, 10, false), (5230, 1_081_732_582_016_980_006, 5, 16, 215_015, 31, 0, 0, T1)),
            ((2, 300, 5, 0.0, 10, false), (5, 17_524_422_206_563_501_287, 1, 1, 44_540, 310, 206, 0, T2)),
            ((2, 300, 5999, 0.6, 1, false), (1647, 9_994_238_837_717_563_748, 2, 2, 78_929, 301, 218, 0, T2)),
            ((2, 300, 2500, 1.0, 10, false), (260, 16_006_165_877_309_492_610, 3, 4, 115_002, 310, 15, 0, T2)),
            ((3, 300, 5999, 0.6, 10, false), (2591, 2_668_629_573_819_702_471, 1, 1, 23_646, 10, 0, 0, T1)),
            ((3, 300, 5999, 1.0, 10, false), (1647, 2_336_351_094_943_579_482, 2, 3, 49_804, 217, 5, 0, T1)),
            ((3, 300, 5999, 0.6, 10, true), (1647, 12_303_184_789_837_195_526, 2, 3, 69_012, 150, 55, 600, T1)),
            ((3, 300, 5999, 5.0, 1, false), (3969, 6_279_072_531_252_257_512, 3, 9, 88_979, 19, 0, 0, T1)),
            ((3, 300, 2500, 30.0, 10, true), (5512, 9_090_722_331_801_978_853, 5, 81, 127_926, 306, 0, 1213, T1)),
            ((3, 300, 5, 2.0, 10, true), (5557, 9_784_624_197_337_950_114, 3, 9, 119_936, 310, 160, 1226, T2)),
            ((3, 300, 2500, 0.6, 1, false), (260, 3_626_848_482_219_242_182, 2, 3, 41_640, 301, 209, 0, T2)),
            ((2, 30, 5, 5.0, 1, false), (5861, 14_716_050_044_677_539_296, 5, 16, 312_784, 19, 0, 0, T1)),
            ((2, 30, 2500, 0.3, 1, false), (36, 919_845_504_273_861_283, 1, 1, 64_905, 31, 11, 0, T2)),
            ((2, 30, 5999, 30.0, 10, true), (117, 6_569_527_640_387_894_356, 8, 128, 342_396, 40, 0, 130, T2)),
            ((3, 30, 5999, 0.3, 10, true), (5207, 18_417_791_205_157_601_095, 1, 1, 35_361, 40, 6, 156, T2)),
            ((3, 30, 5, 30.0, 1, false), (5840, 17_153_567_111_618_282_443, 6, 243, 183_043, 31, 0, 0, T2)),
            ((3, 30, 5999, 2.0, 1, false), (1647, 18_284_493_468_113_838_838, 3, 9, 117_651, 31, 0, 0, T2)),
        ];
        let data = clustered(6000, 12, 21);
        let metas: Vec<PointMeta> = (0..6000).map(|i| PointMeta::labeled(i % 5)).collect();
        for shards in [1, 3, 4] {
            let sharded = ShardedData::partition(&data, shards);
            let mut built: Option<((u32, u64), ShardedEngine)> = None;
            for (row, &((c, beta, qi, offset, k, filtered), want)) in golden.iter().enumerate() {
                // Rows of one (c, β·n) follow one another: build once for them.
                if built.as_ref().map(|(of, _)| *of) != Some((c, beta)) {
                    let cfg = C2lshConfig::builder()
                        .bucket_width(1.0)
                        .approximation_ratio(c)
                        .seed(11)
                        .beta(Beta::Count(beta))
                        .build();
                    let engine = ShardedEngine::build(&sharded, &cfg).with_meta(metas.clone());
                    built = Some(((c, beta), engine));
                }
                let engine = &built.as_ref().expect("built above").1;
                let q: Vec<f32> = data.get(qi).iter().map(|x| x + offset).collect();
                let filter = filtered.then(|| Predicate::label(2));
                let (nn, s) =
                    engine.query_with(&q, k, &SearchOptions { filter, ..Default::default() });
                let mut fnv = 0xcbf2_9ce4_8422_2325u64;
                for byte in nn.iter().flat_map(|n| {
                    n.id.to_le_bytes().into_iter().chain(n.dist.to_bits().to_le_bytes())
                }) {
                    fnv = (fnv ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
                let got: Want = (
                    nn[0].id,
                    fnv,
                    s.rounds,
                    s.final_radius,
                    s.collisions_counted,
                    s.candidates_verified,
                    s.candidates_abandoned,
                    s.candidates_filtered,
                    s.terminated_by,
                );
                assert_eq!(got, want, "row {row}, {shards} shards");
            }
        }
    }
}
