//! Horizontal sharding: one logical index over `S` disjoint data shards.
//!
//! Scaling an index past one allocation (or, eventually, one machine)
//! means partitioning the dataset. Collision counting makes this
//! unusually clean: when every shard uses the *same* hash family and
//! collision threshold, an object's count at radius `R` depends only on
//! its own buckets — never on other objects — so the counts computed
//! shard-by-shard are exactly the counts the unsharded index would
//! compute. [`ShardedEngine`] exploits this two ways:
//!
//! * **Exact path** — [`ShardedEngine::query`] /
//!   [`ShardedEngine::query_batch`] run the *single* engine loop of
//!   [`crate::engine::run_query`] over a [`TableStore`] that presents
//!   the shard tables as one concatenated table per hash function
//!   (object ids remapped to global). Rounds, terminating conditions
//!   and (absent mid-round T2 truncation) results are identical to an
//!   unsharded [`C2lshIndex`] over the same data — the property pinned
//!   by `tests/proptest_sharded.rs`.
//! * **Fan-out path** — [`ShardedEngine::query_fanout`] runs one
//!   engine loop *per shard* in parallel (each shard terminating
//!   independently) and merges the per-shard top-k by
//!   `f64::total_cmp`, folding the per-shard [`QueryStats`] with
//!   [`QueryStats::merge`]. Lower single-query latency; per-shard
//!   termination means it may verify more (never fewer kinds of)
//!   candidates than the exact path.
//!
//! The derived parameters `(m, l)` come from the **total** object
//! count and are forced into every shard via the config overrides, so
//! all shards share one hash family (same seed, same `m`, same `w`).

use crate::config::C2lshConfig;
use crate::engine::{self, BucketWindows, SearchOptions, SearchParams, TableStore};
use crate::index::C2lshIndex;
use crate::meta::PointMeta;
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;

/// A dataset partitioned into contiguous shards. Owns the per-shard
/// copies; [`ShardedEngine`] borrows them (the same borrow discipline
/// as [`C2lshIndex`] over a [`Dataset`]).
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

/// One logical collision-counting index over partitioned data: a
/// [`C2lshIndex`] per shard, all sharing one hash family and one set of
/// derived parameters, driven by the generic engine. See the module
/// docs for the exact-vs-fanout trade-off.
#[derive(Debug)]
pub struct ShardedEngine<'d> {
    shards: Vec<C2lshIndex<'d>>,
    offsets: &'d [u32],
    params: FullParams,
    search: SearchParams,
}

impl<'d> ShardedEngine<'d> {
    /// Build the per-shard indexes. Parameters `(m, l, β·n)` are
    /// derived from the **total** object count, then forced into every
    /// shard build so all shards draw the identical hash family.
    ///
    /// # Panics
    /// Panics on an invalid config (same contract as
    /// [`C2lshIndex::build`]).
    pub fn build(data: &'d ShardedData, config: &C2lshConfig) -> Self {
        let n = data.len();
        let params = FullParams::derive(n, config);
        let shard_config = C2lshConfig {
            m_override: Some(params.m),
            l_override: Some(params.l),
            ..config.clone()
        };
        let shards: Vec<C2lshIndex<'d>> =
            data.shards.iter().map(|d| C2lshIndex::build(d, &shard_config)).collect();
        let search = SearchParams {
            c: config.c,
            l: params.l as u32,
            beta_n: params.beta_n,
            base_radius: config.base_radius,
        };
        Self { shards, offsets: &data.offsets, params, search }
    }

    /// The derived parameters in effect (shared by every shard).
    pub fn params(&self) -> &FullParams {
        &self.params
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Dataset dimensionality (inherent mirror of the [`TableStore`]
    /// accessor, so callers don't need the trait in scope).
    pub fn dim(&self) -> usize {
        TableStore::dim(self)
    }

    /// Total objects across all shards.
    pub fn len(&self) -> usize {
        TableStore::len(self)
    }

    /// `true` when no shard holds any object (unreachable via
    /// [`ShardedData::partition`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// c-k-ANN query with exact unsharded semantics: one engine loop
    /// over the concatenated shard tables. Ids are global row numbers
    /// of the source dataset.
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
    /// (exact semantics, as [`ShardedEngine::query`]).
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

    /// Low-latency fan-out: run the engine loop on every shard in
    /// parallel (each shard terminates independently), remap ids to
    /// global, merge the per-shard top-k by `f64::total_cmp` (ties by
    /// id) and fold the per-shard stats with [`QueryStats::merge`].
    ///
    /// May return *closer* neighbors than [`ShardedEngine::query`] when
    /// a small shard keeps expanding past the radius at which the
    /// global loop would have stopped; both paths return valid c-k-ANN
    /// answers.
    pub fn query_fanout(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<Neighbor>, QueryStats) {
        let mut per_shard: Vec<(Vec<Neighbor>, QueryStats)> =
            vec![(Vec::new(), QueryStats::new()); self.shards.len()];
        crossbeam::scope(|scope| {
            for (s, slot) in per_shard.iter_mut().enumerate() {
                let shard = &self.shards[s];
                scope.spawn(move |_| *slot = engine::run_query(shard, &self.search, q, k, opts));
            }
        })
        .expect("shard fan-out worker panicked");

        let mut merged = Vec::with_capacity(k * self.shards.len());
        let mut stats = QueryStats::new();
        for (s, (nn, shard_stats)) in per_shard.into_iter().enumerate() {
            let off = self.offsets[s];
            merged.extend(nn.into_iter().map(|n| Neighbor::new(n.id + off, n.dist)));
            stats.merge(&shard_stats);
        }
        merged.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        merged.truncate(k);
        (merged, stats)
    }

    /// Attach per-point metadata, indexed by **global** object id (one
    /// entry per row of the source dataset). The vector is split along
    /// the shard boundaries so each shard serves its own slice; both
    /// the exact and fan-out paths then honor `SearchOptions::filter`.
    ///
    /// # Panics
    /// Panics when `metas.len() != len()`.
    pub fn set_meta(&mut self, metas: Vec<PointMeta>) {
        assert_eq!(metas.len(), self.len(), "one PointMeta per indexed point");
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let lo = self.offsets[s] as usize;
            let hi = self.offsets[s + 1] as usize;
            shard.set_meta(metas[lo..hi].to_vec());
        }
    }

    /// Builder-style [`ShardedEngine::set_meta`].
    #[must_use]
    pub fn with_meta(mut self, metas: Vec<PointMeta>) -> Self {
        self.set_meta(metas);
        self
    }

    /// A cursor for a query hashing to `q_buckets`: every shard gets its
    /// own windows over the same bucket ids.
    fn cursor(&self, q_buckets: Vec<i64>) -> ShardedCursor {
        let windows = BucketWindows::new(q_buckets);
        ShardedCursor { per_shard: vec![windows; self.shards.len()] }
    }

    /// Map a global object id to `(shard, local id)`.
    fn locate(&self, oid: u32) -> (usize, u32) {
        let s = self.offsets.partition_point(|&o| o <= oid) - 1;
        (s, oid - self.offsets[s])
    }
}

/// Ids remapped per call of the engine's visitor: a stack buffer (1 KiB)
/// that stays in L1 under the counting loop.
const REMAP_CHUNK: usize = 256;

/// Per-query cursor of the exact path: one positional window set per
/// shard (all shards share the query's bucket ids, but window positions
/// differ with each shard's table contents).
pub struct ShardedCursor {
    per_shard: Vec<BucketWindows>,
}

impl TableStore for ShardedEngine<'_> {
    type Cursor = ShardedCursor;

    fn dim(&self) -> usize {
        self.shards[0].dim()
    }

    fn len(&self) -> usize {
        *self.offsets.last().unwrap() as usize
    }

    fn num_tables(&self) -> usize {
        self.params.m
    }

    fn begin(&self, q: &[f32]) -> ShardedCursor {
        // All shards share one hash family: hash once, not `S` times.
        self.cursor(self.shards[0].family().buckets(q))
    }

    fn begin_batch(&self, queries: &Dataset) -> Vec<ShardedCursor> {
        // One blocked matrix product hashes the whole batch for every
        // shard at once (shared family).
        self.shards[0].family().cursors_batch(queries, |buckets| self.cursor(buckets))
    }

    fn expand(
        &self,
        cursor: &mut ShardedCursor,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&[u32]) -> bool,
    ) {
        // Logical table t = concatenation of the shard tables for t.
        // Shard 0's local ids are already global (offset 0) and pass
        // through untouched; later shards remap each slice through a
        // stack buffer. A refusal propagates across shards by the flag.
        let mut stopped = false;
        let mut buf = [0u32; REMAP_CHUNK];
        for (s, shard) in self.shards.iter().enumerate() {
            let off = self.offsets[s];
            shard.expand(&mut cursor.per_shard[s], t, radius, &mut |oids| {
                if off == 0 {
                    stopped = !visit(oids);
                    return !stopped;
                }
                for chunk in oids.chunks(REMAP_CHUNK) {
                    let remapped = &mut buf[..chunk.len()];
                    for (dst, &local) in remapped.iter_mut().zip(chunk) {
                        *dst = local + off;
                    }
                    if !visit(remapped) {
                        stopped = true;
                        return false;
                    }
                }
                true
            });
            if stopped {
                return;
            }
        }
    }

    fn exhausted(&self, cursor: &ShardedCursor) -> bool {
        self.shards.iter().zip(&cursor.per_shard).all(|(shard, windows)| shard.exhausted(windows))
    }

    fn vector<'a>(&'a self, oid: u32, buf: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        let (s, local) = self.locate(oid);
        self.shards[s].vector(local, buf)
    }

    fn meta(&self, oid: u32) -> PointMeta {
        let (s, local) = self.locate(oid);
        TableStore::meta(&self.shards[s], local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Beta;
    use cc_vector::gen::{generate, Distribution};

    fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 8, spread: 0.02, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    /// T2 disabled (budget ≥ n) so results are independent of
    /// within-round visit order — the regime where sharded and
    /// unsharded answers are bit-identical.
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
    fn shards_share_one_hash_family() {
        let data = clustered(400, 8, 3);
        let sharded = ShardedData::partition(&data, 4);
        let engine = ShardedEngine::build(&sharded, &cfg_exact(400));
        let q = data.get(7);
        let reference: Vec<i64> = engine.shards[0].family().buckets(q);
        for s in 1..4 {
            assert_eq!(engine.shards[s].family().buckets(q), reference, "shard {s}");
        }
        assert_eq!(engine.params().m, engine.shards[2].params().m);
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
    fn fanout_returns_valid_global_ids_and_merged_stats() {
        let data = clustered(500, 8, 6);
        let cfg = cfg_exact(500);
        let sharded = ShardedData::partition(&data, 4);
        let engine = ShardedEngine::build(&sharded, &cfg);
        let q = data.get(42);
        let (nn, stats) = engine.query_fanout(q, 6, &SearchOptions::default());
        assert_eq!(nn.len(), 6);
        assert_eq!(nn[0].id, 42, "exact match must surface with its global id");
        assert_eq!(nn[0].dist, 0.0);
        for w in nn.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert!(stats.candidates_verified >= 6);
        assert!(stats.rounds >= 1);
        // Fan-out can only improve on (or match) the exact path's
        // distances: each shard keeps expanding at least as far.
        let (exact, _) = engine.query(q, 6);
        for (f, e) in nn.iter().zip(&exact) {
            assert!(f.dist <= e.dist + 1e-6, "fanout {f:?} worse than exact {e:?}");
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
        assert_eq!(engine.query(q, 9).0, single.query(q, 9).0);
        assert_eq!(engine.query_fanout(q, 9, &SearchOptions::default()).0, single.query(q, 9).0);
    }

    /// Pins what one 6 000 × 12 data set answers at 1, 3 and 4 shards:
    /// per (c, β·n, query row, offset added to every coordinate, k, label
    /// filter) the first id, an FNV-1a of every id and distance's bits,
    /// rounds, final radius, collisions, verified, abandoned, filtered and
    /// the terminating condition. The rows cover T1 in the first round and
    /// after several, T2 in the first round and in a later one. `golden`
    /// holds the answers of one shard, which are [`C2lshIndex`]'s;
    /// `shard_major` the rows that read otherwise at 3 or 4 shards, where a
    /// range of several buckets is visited shard by shard: the budget runs
    /// out at another id, or a candidate meets another abandon bound.
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
        // (row of `golden`, shards) -> what that many shards answer instead.
        #[rustfmt::skip]
        let shard_major: [(usize, usize, Want); 14] = [
            (6, 3, (260, 16_006_165_877_309_492_610, 3, 4, 115_021, 310, 12, 0, T2)),
            (6, 4, (260, 16_006_165_877_309_492_610, 3, 4, 115_024, 310, 13, 0, T2)),
            (8, 3, (1647, 2_336_351_094_943_579_482, 2, 3, 49_804, 217, 6, 0, T1)),
            (8, 4, (1647, 2_336_351_094_943_579_482, 2, 3, 49_804, 217, 6, 0, T1)),
            (9, 3, (1647, 12_303_184_789_837_195_526, 2, 3, 69_012, 150, 54, 600, T1)),
            (9, 4, (1647, 12_303_184_789_837_195_526, 2, 3, 69_012, 150, 54, 600, T1)),
            (12, 3, (5557, 9_784_624_197_337_950_114, 3, 9, 119_890, 310, 160, 1215, T2)),
            (12, 4, (5557, 9_784_624_197_337_950_114, 3, 9, 119_943, 310, 160, 1224, T2)),
            (13, 3, (260, 3_626_848_482_219_242_182, 2, 3, 41_652, 301, 209, 0, T2)),
            (13, 4, (260, 3_626_848_482_219_242_182, 2, 3, 41_674, 301, 209, 0, T2)),
            (16, 3, (997, 13_228_008_660_116_715_524, 8, 128, 343_425, 40, 0, 138, T2)),
            (16, 4, (997, 13_329_352_600_733_622_654, 8, 128, 342_974, 40, 0, 131, T2)),
            (18, 3, (1888, 2_793_286_163_649_889_301, 6, 243, 182_822, 31, 0, 0, T2)),
            (18, 4, (1168, 3_884_971_681_698_852_406, 6, 243, 182_700, 31, 0, 0, T2)),
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
                let other = shard_major.iter().find(|&&(r, s, _)| (r, s) == (row, shards));
                let want = other.map_or(want, |&(_, _, want)| want);
                assert_eq!(got, want, "row {row}, {shards} shards");
            }
        }
    }
}
