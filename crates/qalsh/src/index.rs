//! The QALSH index.
//!
//! One sorted column per hash function: every object's raw projection
//! `a·o` beside its id, in (projection, id) order — the leaf level of
//! the B+-tree the paper keeps per function. A query computes its own
//! projections and opens an empty window at the lower bound of each; the
//! search itself runs in the shared [`c2lsh::engine`] loop: at radius
//! `R = c^level` the collision window of column `i` is
//! `[a_i·q − w·R/2, a_i·q + w·R/2]`, rounds widen the windows
//! ([`TableStore::expand`]), and counting, verification and the T1/T2
//! stops are C2LSH's.
//!
//! A tree that is never updated is, page for page, its leaves under a
//! few inner nodes, so what reading it costs is arithmetic on entry
//! positions: full leaves of [`ENTRIES_PER_PAGE`] 12-byte entries, inner
//! nodes of 256 children, and one counter charged the nodes a cursor
//! pair walking that tree would read. No node exists.

use crate::params::derive;
use c2lsh::engine::{self, Ids, SearchOptions, SearchParams, TableStore};
use c2lsh::meta::PointMeta;
use c2lsh::stats::{BatchStats, QueryStats};
use c2lsh::{ENTRIES_PER_PAGE, PAGE_SIZE};
use cc_math::hoeffding::DerivedParams;
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// QALSH configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QalshConfig {
    /// Integer approximation ratio `c ≥ 2`.
    pub c: u32,
    /// Window width `w` (radius-1 collision window is `w/2` each side).
    pub w: f64,
    /// Failure budget `δ ∈ (0, 1/2)`.
    pub delta: f64,
    /// Geometric base radius the theory's `R = 1` maps to (data units).
    /// Keep at 1.0 for NN-normalized data; for raw data pass the "near"
    /// distance and scale `w` by the same factor.
    pub base_radius: f64,
    /// False-positive budget as an absolute count (`β = count/n`).
    pub beta_count: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QalshConfig {
    fn default() -> Self {
        Self {
            c: 2,
            w: crate::params::optimal_width(2),
            delta: (-1.0f64).exp(),
            base_radius: 1.0,
            beta_count: 100,
            seed: 0,
        }
    }
}

/// One hash function's table: `keys[i]` is the projection of object
/// `oids[i]`, ascending by (`total_cmp` of the projection, object id).
struct Column {
    keys: Vec<f64>,
    oids: Vec<u32>,
}

impl Column {
    fn new(mut entries: Vec<(f64, u32)>) -> Self {
        entries.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        let (keys, oids) = entries.into_iter().unzip();
        Self { keys, oids }
    }

    /// An empty window at the lower bound of `pq`, charging `reads` the
    /// nodes the column's tree reads to put its cursor pair there: the
    /// descent that finds it; the leaf before it when it is the first
    /// slot of a later leaf (the left cursor starts one entry back); or,
    /// when every key is below `pq`, a second descent, to the last entry.
    fn locate(&self, pq: f64, reads: &AtomicU64) -> Range<usize> {
        let height = tree_shape(self.keys.len()).0;
        let at = self.keys.partition_point(|key| key.total_cmp(&pq).is_lt());
        let behind = if at == self.keys.len() {
            height
        } else {
            u64::from(at > 0 && at.is_multiple_of(ENTRIES_PER_PAGE))
        };
        reads.fetch_add(height + behind, Relaxed);
        at..at
    }

    /// Widen `covered` to the keys in `[lo_key, hi_key]` and hand `visit`
    /// the new entries right of it ascending, then those left of it
    /// descending — the order a cursor pair yields them in — one leaf to
    /// a slice. A cursor stepping off the edge of a leaf reads the next
    /// one, inside the window or not: `reads` is charged when the slice
    /// that ends on the edge is accepted.
    fn expand(
        &self,
        covered: &mut Range<usize>,
        (lo_key, hi_key): (f64, f64),
        reads: &AtomicU64,
        visit: &mut dyn FnMut(&[u32]) -> bool,
    ) {
        let Self { keys, oids } = self;
        let Range { start: lo, end: hi } = covered;
        let new_hi = *hi + keys[*hi..].partition_point(|&key| key <= hi_key);
        while *hi < new_hi {
            let end = new_hi.min((*hi / ENTRIES_PER_PAGE + 1) * ENTRIES_PER_PAGE);
            if !visit(&oids[*hi..end]) {
                return;
            }
            *hi = end;
            if end.is_multiple_of(ENTRIES_PER_PAGE) && end < keys.len() {
                reads.fetch_add(1, Relaxed);
            }
        }
        let new_lo = keys[..*lo].partition_point(|&key| key < lo_key);
        let mut reversed = [0u32; ENTRIES_PER_PAGE];
        while *lo > new_lo {
            let start = new_lo.max((*lo - 1) / ENTRIES_PER_PAGE * ENTRIES_PER_PAGE);
            let slice = &mut reversed[..*lo - start];
            for (dst, &oid) in slice.iter_mut().zip(oids[start..*lo].iter().rev()) {
                *dst = oid;
            }
            if !visit(slice) {
                return;
            }
            *lo = start;
            if start.is_multiple_of(ENTRIES_PER_PAGE) && start > 0 {
                reads.fetch_add(1, Relaxed);
            }
        }
    }
}

/// Height and node count of the B+-tree over `n ≥ 1` entries: full
/// leaves, then levels of inner nodes — an 8-byte separator key and an
/// 8-byte child pointer per child, 256 to a page — up to one root.
fn tree_shape(n: usize) -> (u64, usize) {
    let mut level = n.div_ceil(ENTRIES_PER_PAGE);
    let (mut height, mut nodes) = (1, level);
    while level > 1 {
        level = level.div_ceil(PAGE_SIZE / 16);
        height += 1;
        nodes += level;
    }
    (height, nodes)
}

/// The QALSH index over a borrowed dataset.
pub struct Qalsh<'d> {
    data: &'d Dataset,
    config: QalshConfig,
    derived: DerivedParams,
    beta_n: usize,
    /// `m` projection vectors.
    proj: Vec<Vec<f32>>,
    /// One sorted column per projection, keyed by `a·o`.
    columns: Vec<Column>,
    /// Tree nodes charged since build.
    reads: AtomicU64,
    /// Per-point attribute payloads; empty = every point defaults.
    metas: Vec<PointMeta>,
}

impl<'d> Qalsh<'d> {
    /// Build the index: derive `(m, l)`, draw `m` projections, sort `m`
    /// columns.
    ///
    /// # Panics
    /// Panics on empty data or invalid config (`c < 2`, `w ≤ 0`, …).
    pub fn build(data: &'d Dataset, config: QalshConfig) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(config.c >= 2, "c must be >= 2");
        assert!(config.w > 0.0, "w must be positive");
        assert!(config.base_radius > 0.0, "base_radius must be positive");
        let n = data.len();
        let beta = (config.beta_count as f64 / n as f64).clamp(1.0 / (10.0 * n as f64), 0.999);
        // p depends only on s/w, so deriving at base radius r is the
        // same as deriving at radius 1 with width w/r.
        let derived = derive(config.c, config.w / config.base_radius, config.delta, beta);
        let beta_n = ((beta * n as f64).ceil() as usize).max(1);

        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9a15_4aa1);
        let mut normal = cc_vector::gen::NormalSampler::new();
        let d = data.dim();
        let proj: Vec<Vec<f32>> = (0..derived.m)
            .map(|_| (0..d).map(|_| normal.sample(&mut rng) as f32).collect())
            .collect();
        // Build-time keys and query-time probes must use the same
        // projection schedule; both go through the dispatched kernel
        // (bit-identical across kernels, so cross-kernel index/query
        // mixes still probe exactly).
        let kd = c2lsh::kernels::dispatch();
        let columns = proj
            .iter()
            .map(|a| {
                Column::new(data.iter().zip(0..).map(|(v, oid)| (kd.dot(a, v), oid)).collect())
            })
            .collect();
        Self {
            data,
            config,
            derived,
            beta_n,
            proj,
            columns,
            reads: AtomicU64::new(0),
            metas: Vec::new(),
        }
    }

    /// Attach per-point metadata (one entry per indexed point, in id
    /// order) for filtered queries via `SearchOptions::filter`.
    ///
    /// # Panics
    /// Panics when `metas.len() != data.len()`.
    pub fn set_meta(&mut self, metas: Vec<PointMeta>) {
        assert_eq!(metas.len(), self.data.len(), "one PointMeta per indexed point");
        self.metas = metas;
    }

    /// Builder-style [`Qalsh::set_meta`].
    #[must_use]
    pub fn with_meta(mut self, metas: Vec<PointMeta>) -> Self {
        self.set_meta(metas);
        self
    }

    /// The Hoeffding-derived parameters (`p1`, `p2`, `α`, `m`, `l`).
    pub fn derived(&self) -> &DerivedParams {
        &self.derived
    }

    /// Number of hash functions, each with its own tree.
    pub fn num_trees(&self) -> usize {
        self.columns.len()
    }

    /// Index size in bytes: the pages of `m` trees plus the projection
    /// vectors.
    pub fn size_bytes(&self) -> usize {
        self.columns.len() * (tree_shape(self.data.len()).1 * PAGE_SIZE + self.data.dim() * 4)
    }

    fn search_params(&self) -> SearchParams {
        SearchParams {
            c: self.config.c,
            l: self.derived.l as u32,
            beta_n: self.beta_n,
            base_radius: self.config.base_radius,
        }
    }

    /// c-k-ANN query with B+-tree I/O accounting.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.query_with(q, k, &SearchOptions::default())
    }

    /// [`Qalsh::query`] with explicit observability options.
    pub fn query_with(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<Neighbor>, QueryStats) {
        engine::run_query(self, &self.search_params(), q, k, opts)
    }

    /// Answer a whole query set in parallel across scoped threads
    /// (results in query order, identical to sequential queries).
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        self.query_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`Qalsh::query_batch`] with explicit observability options.
    pub fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        engine::run_query_batch(self, &self.search_params(), queries, k, opts)
    }
}

/// Query expansion state over the `m` columns: the query's projections
/// plus the entry range each column's window covers — what lies between
/// a tree's cursor pair.
pub struct QalshCursor {
    pq: Vec<f64>,
    covered: Vec<Range<usize>>,
}

impl TableStore for Qalsh<'_> {
    type Cursor = QalshCursor;
    type Id = u32;

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn num_tables(&self) -> usize {
        self.columns.len()
    }

    fn begin(&self, q: &[f32]) -> QalshCursor {
        // The dispatched projection kernel; build-time keys used the same
        // canonical schedule, so probe positions land exactly.
        let kd = c2lsh::kernels::dispatch();
        let pq: Vec<f64> = self.proj.iter().map(|a| kd.dot(a, q)).collect();
        let located = self.columns.iter().zip(&pq).map(|(col, &pq)| col.locate(pq, &self.reads));
        QalshCursor { covered: located.collect(), pq }
    }

    fn expand(
        &self,
        cursor: &mut QalshCursor,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&Ids<'_, u32>) -> bool,
    ) {
        let half = self.config.w * radius as f64 / 2.0;
        let window = (cursor.pq[t] - half, cursor.pq[t] + half);
        let covered = &mut cursor.covered[t];
        self.columns[t]
            .expand(covered, window, &self.reads, &mut |offsets| visit(&Ids { first: 0, offsets }));
    }

    fn exhausted(&self, cursor: &QalshCursor) -> bool {
        cursor.covered.iter().all(|c| *c == (0..self.data.len()))
    }

    fn vector<'a>(&'a self, oid: u32, _: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        Some(self.data.get(oid as usize))
    }

    fn meta(&self, oid: u32) -> PointMeta {
        self.metas.get(oid as usize).copied().unwrap_or_default()
    }

    fn verify_pages(&self) -> u64 {
        (self.data.dim() * 4).div_ceil(PAGE_SIZE).max(1) as u64
    }

    fn io_reads(&self) -> u64 {
        self.reads.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2lsh::stats::Termination;
    use cc_vector::gen::{generate, Distribution};
    use cc_vector::gt::knn_linear;
    use cc_vector::metrics::{overall_ratio, recall};
    use proptest::prelude::*;

    fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.015, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    fn cfg() -> QalshConfig {
        QalshConfig { w: 1.2, seed: 21, ..QalshConfig::default() }
    }

    #[test]
    fn finds_exact_match() {
        let data = clustered(600, 16, 1);
        let idx = Qalsh::build(&data, cfg());
        for i in [0usize, 42, 599] {
            let (nn, _) = idx.query(data.get(i), 1);
            assert_eq!(nn[0].id as usize, i);
            assert_eq!(nn[0].dist, 0.0);
        }
    }

    #[test]
    fn high_quality_on_clusters() {
        let data = clustered(2000, 24, 2);
        let idx = Qalsh::build(&data, cfg());
        let mut r = 0.0;
        let mut ratio = 0.0;
        for qi in 0..20 {
            let q = data.get(qi * 91);
            let truth = knn_linear(&data, q, 10);
            let (got, _) = idx.query(q, 10);
            r += recall(&got, &truth);
            ratio += overall_ratio(&got, &truth);
        }
        r /= 20.0;
        ratio /= 20.0;
        assert!(r > 0.8, "recall {r}");
        assert!(ratio < 1.15, "ratio {ratio}");
    }

    #[test]
    fn uses_fewer_trees_than_c2lsh_tables() {
        let data = clustered(2000, 16, 3);
        let q_idx = Qalsh::build(&data, QalshConfig::default());
        let c_cfg = c2lsh::C2lshConfig::builder().bucket_width(2.184).seed(3).build();
        let c_idx = c2lsh::C2lshIndex::build(&data, &c_cfg);
        assert!(
            q_idx.num_trees() < c_idx.params().m,
            "QALSH m = {} should be below C2LSH m = {}",
            q_idx.num_trees(),
            c_idx.params().m
        );
    }

    #[test]
    fn io_accounting_positive_and_reproducible() {
        let data = clustered(1500, 16, 4);
        let idx = Qalsh::build(&data, cfg());
        let (_, s1) = idx.query(data.get(7), 10);
        let (_, s2) = idx.query(data.get(7), 10);
        assert!(s1.io.reads > 0);
        assert_eq!(s1.io, s2.io);
    }

    #[test]
    fn t2_budget_respected() {
        let data = clustered(2500, 16, 5);
        let idx = Qalsh::build(&data, QalshConfig { beta_count: 20, ..cfg() });
        let (_, stats) = idx.query(data.get(0), 10);
        assert!(stats.candidates_verified <= 10 + idx.beta_n);
    }

    #[test]
    fn exhausts_tiny_dataset() {
        let data = clustered(15, 8, 6);
        let idx = Qalsh::build(&data, cfg());
        let far = vec![1e5f32; 8];
        let (nn, _) = idx.query(&far, 4);
        assert_eq!(nn.len(), 4);
    }

    /// Heights and node counts read off the bulk-loaded arena tree this
    /// index used to walk (leaves of 341, inner nodes of 256) before it
    /// was deleted.
    #[test]
    fn tree_shape_is_what_a_bulk_load_built() {
        let recorded = [
            (1, (1, 1)),
            (340, (1, 1)),
            (341, (1, 1)),
            (342, (2, 3)),
            (682, (2, 3)),
            (683, (2, 4)),
            (3000, (2, 10)),
            (87_296, (2, 257)),
            (87_297, (3, 260)),
            (200_000, (3, 591)),
        ];
        for (n, shape) in recorded {
            assert_eq!(tree_shape(n), shape, "n = {n}");
        }
    }

    /// What the meter must equal: the cursor pair of a B+-tree over one
    /// sorted column, moved one entry at a time, reading a leaf whenever
    /// a cursor steps onto it.
    struct NaiveWalk<'a> {
        column: &'a Column,
        /// The entry the right cursor is on; `keys.len()` off the end.
        right: usize,
        /// The entry the left cursor is on; `None` off the front.
        left: Option<usize>,
        reads: u64,
    }

    impl<'a> NaiveWalk<'a> {
        fn begin(column: &'a Column, pq: f64, height: u64) -> Self {
            let n = column.keys.len();
            let right = column.keys.iter().filter(|key| key.total_cmp(&pq).is_lt()).count();
            // The descent to the lower bound, then the left cursor one
            // entry back: on another leaf, or — from off the end — down
            // the tree again to the last entry.
            let left = if right == n { Some(n - 1) } else { right.checked_sub(1) };
            let back = match left {
                Some(_) if right == n => height,
                Some(left) => u64::from(left / 341 != right / 341),
                None => 0,
            };
            Self { column, right, left, reads: height + back }
        }

        /// Widen the window to `[lo_key, hi_key]`; the `stop`-th entry
        /// yielded is refused, and a refused cursor does not move.
        fn expand(&mut self, (lo_key, hi_key): (f64, f64), stop: usize) -> Vec<u32> {
            let Column { keys, oids } = self.column;
            let mut seen = Vec::new();
            while self.right < keys.len() && keys[self.right] <= hi_key {
                seen.push(oids[self.right]);
                if seen.len() == stop {
                    return seen;
                }
                self.right += 1;
                let next_leaf = self.right < keys.len() && self.right.is_multiple_of(341);
                self.reads += u64::from(next_leaf);
            }
            while let Some(at) = self.left.filter(|&at| keys[at] >= lo_key) {
                seen.push(oids[at]);
                if seen.len() == stop {
                    return seen;
                }
                self.left = at.checked_sub(1);
                self.reads += u64::from(self.left.is_some_and(|left| left / 341 != at / 341));
            }
            seen
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Integer keys, `dup` entries to a key, so that runs of equal
        /// keys straddle leaf edges and window bounds fall exactly on
        /// keys; a query on a leaf edge, anywhere in the column, or off
        /// either end of it; widening windows, and in most cases one
        /// round that is refused at a random entry. Round by round the
        /// ids consumed and the nodes charged are those of the
        /// one-entry-at-a-time walk, no slice spans two leaves, and an
        /// unrefused window ends up covering the column.
        #[test]
        fn meter_charges_what_a_cursor_pair_reads(
            n in (0usize..5, 1usize..341, 342usize..1100)
                .prop_map(|(shape, small, large)| [small, 341, 682, 1023, large][shape]),
            dup in (0usize..4).prop_map(|i| [1, 11, 31, 400][i]),
            (on_edge, edge, jitter) in (0usize..3, 0usize..3, -1i64..2),
            (anywhere, between) in (0.0f64..1.0, 0usize..2),
            growth in collection::vec(1i64..5, 7),
            (refused_round, stop) in (0usize..12, 1usize..700),
        ) {
            let column = Column::new((0..n).map(|oid| ((oid / dup) as f64, oid as u32)).collect());
            let top = ((n - 1) / dup) as i64;
            let x = if on_edge > 0 {
                // The key whose run starts on (or next to) a leaf edge.
                ((1 + edge % (n / 341).max(1)) * 341 / dup) as i64 + jitter
            } else {
                (anywhere * (top + 7) as f64) as i64 - 3
            };
            let pq = x as f64 + between as f64 / 2.0;
            let height = tree_shape(n).0;

            let reads = AtomicU64::new(0);
            let mut covered = column.locate(pq, &reads);
            let mut walk = NaiveWalk::begin(&column, pq, height);
            prop_assert_eq!(&covered, &(walk.right..walk.right), "begin: n {}, dup {}, pq {}", n, dup, pq);
            prop_assert_eq!(reads.load(Relaxed), walk.reads, "begin: n {}, dup {}, pq {}", n, dup, pq);
            let mut radii = vec![1i64];
            for g in growth {
                radii.push(radii[radii.len() - 1] * g + 1);
            }
            radii.push(1 << 40);
            let mut refused = false;
            for (round, radius) in radii.into_iter().enumerate() {
                let stop = if round == refused_round { stop } else { usize::MAX };
                let window = (pq - radius as f64 / 2.0, pq + radius as f64 / 2.0);
                let mut seen = Vec::new();
                column.expand(&mut covered, window, &reads, &mut |oids| {
                    assert!(oids.len() <= 341 && seen.len() < stop);
                    seen.extend_from_slice(&oids[..oids.len().min(stop - seen.len())]);
                    seen.len() < stop
                });
                prop_assert_eq!(&seen, &walk.expand(window, stop), "round {}", round);
                prop_assert_eq!(
                    reads.load(Relaxed),
                    walk.reads,
                    "round {}: n {}, dup {}, pq {}, radius {}, stop {}",
                    round, n, dup, pq, radius, stop
                );
                refused = seen.len() == stop;
                if refused {
                    break;
                }
            }
            prop_assert!(refused || covered == (0..n));
        }
    }

    /// FNV-1a over a neighbour list: every id and every distance's bits.
    fn answer_hash(nn: &[Neighbor]) -> u64 {
        let bytes = nn
            .iter()
            .flat_map(|n| n.id.to_le_bytes().into_iter().chain(n.dist.to_bits().to_le_bytes()));
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// What one golden query is held to: the answer (ids and distance
    /// bits, hashed), rounds, collisions counted, candidates verified
    /// and abandoned, termination, and `io.reads`.
    type GoldenRow = (u64, u32, u64, usize, usize, Termination, u64);

    /// The golden queries: a data point moved by an offset along every
    /// axis. The last one projects outside the key range of every table.
    const GOLDEN_QUERIES: [(usize, f32); 12] = [
        (3, 0.0),
        (259, 0.0),
        (1100, 0.05),
        (1100, 0.5),
        (400, 1.0),
        (400, 2.0),
        (2222, 4.0),
        (17, 8.0),
        (3, 30.0),
        (2999, 0.2),
        (1500, -3.0),
        (0, 1e5),
    ];

    /// Run [`GOLDEN_QUERIES`] at k = 1 and k = 10 against `idx` and
    /// compare with `rows` (two per query); `begin` is what positioning
    /// the cursor of each query charges, which `io.reads` leaves out.
    fn check_golden(data: &Dataset, idx: &Qalsh, begin: [u64; 12], rows: [GoldenRow; 24]) {
        for (i, (qi, offset)) in GOLDEN_QUERIES.into_iter().enumerate() {
            let q: Vec<f32> = data.get(qi).iter().map(|x| x + offset).collect();
            let before = idx.io_reads();
            let _ = idx.begin(&q);
            assert_eq!(idx.io_reads() - before, begin[i], "begin, query {qi} + {offset}");
            for (j, k) in [1, 10].into_iter().enumerate() {
                let (nn, s) = idx.query(&q, k);
                let got: GoldenRow = (
                    answer_hash(&nn),
                    s.rounds,
                    s.collisions_counted,
                    s.candidates_verified,
                    s.candidates_abandoned,
                    s.terminated_by,
                    s.io.reads,
                );
                assert_eq!(got, rows[2 * i + j], "query {qi} + {offset}, k = {k}");
            }
        }
    }

    /// Exact answers and costs of fixed queries over 3 000 points (8.8
    /// leaves a table): single- and multi-round, ended by T1 and by T2,
    /// at both approximation ratios. Any change to the order entries are
    /// handed to the engine in, to where an expansion stops, or to what
    /// reading a node costs moves these numbers — and with them QALSH's
    /// columns in EXPERIMENTS.md.
    #[test]
    fn golden_answers_and_io() {
        use Termination::{T1AtRadius as T1, T2CandidateBudget as T2};
        let data = clustered(3000, 16, 12);
        let idx = Qalsh::build(&data, QalshConfig { c: 2, beta_count: 175, ..cfg() });
        assert_eq!((idx.num_trees(), idx.size_bytes()), (93, 3_815_232));
        let begin = [186, 186, 186, 186, 197, 202, 206, 230, 264, 186, 208, 288];
        #[rustfmt::skip]
        let rows = [
            (0x49ab_347a_77de_9d46, 1, 14955, 176, 175, T2, 213),
            (0xf789_2b36_545b_8e96, 1, 15652, 179, 159, T1, 218),
            (0x7a64_9672_9908_df51, 1, 13842, 176, 175, T2, 218),
            (0x563d_44c2_ab9f_c525, 1, 15055, 185, 166, T2, 230),
            (0x508e_e845_6f2e_2ec3, 1, 16366, 171, 170, T1, 220),
            (0x5e59_45f6_2f47_7058, 1, 16366, 171, 151, T1, 220),
            (0x66fe_8b3b_c6e8_624f, 1, 12834, 1, 0, T1, 33),
            (0xa3d7_57a4_6642_d3c2, 2, 23053, 185, 155, T2, 251),
            (0x3ffe_985f_12ba_5dc0, 3, 28425, 176, 171, T2, 258),
            (0xac51_f85e_add6_9dcd, 3, 29257, 185, 160, T2, 269),
            (0x5f3d_6d64_8fd5_e329, 4, 41921, 176, 171, T2, 287),
            (0x87a2_153a_f291_f6fd, 4, 43490, 185, 156, T2, 300),
            (0xf5c2_edae_4b7a_3a61, 5, 68326, 176, 171, T2, 362),
            (0x0c2d_1249_2cc2_28b2, 5, 68475, 185, 146, T2, 372),
            (0xffc2_ad99_0fd8_011c, 5, 71388, 174, 168, T1, 368),
            (0x7de8_c464_c5df_e141, 5, 71388, 174, 137, T1, 368),
            (0x70be_1684_2075_fd22, 8, 93507, 176, 168, T2, 429),
            (0x5571_931f_749d_da01, 8, 93572, 185, 150, T2, 438),
            (0x9668_6f5e_05db_5240, 1, 14962, 128, 123, T1, 163),
            (0x0931_118b_cd11_4546, 1, 14962, 128, 107, T1, 163),
            (0xb882_68f3_7ac0_35ae, 4, 54081, 1, 0, T1, 151),
            (0x75db_1b38_4240_e8a3, 5, 64953, 185, 149, T2, 366),
            (0xe2db_64ee_5903_2ea1, 20, 102176, 176, 172, T2, 448),
            (0xf871_ecb1_4086_b359, 20, 102185, 185, 146, T2, 457),
        ];
        check_golden(&data, &idx, begin, rows);
        // The last query does lie outside every table's key range.
        let far: Vec<f32> = data.get(0).iter().map(|x| x + 1e5).collect();
        let kd = c2lsh::kernels::dispatch();
        for a in &idx.proj {
            let (pq, keys) = (kd.dot(a, &far), data.iter().map(|v| kd.dot(a, v)));
            let (min, max) = keys.fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
            assert!(pq < min || pq > max, "the far query projects inside a table");
        }

        let idx = Qalsh::build(&data, QalshConfig { c: 3, beta_count: 175, ..cfg() });
        assert_eq!((idx.num_trees(), idx.size_bytes()), (52, 2_133_248));
        let begin = [104, 104, 104, 104, 107, 112, 112, 128, 146, 104, 114, 164];
        #[rustfmt::skip]
        let rows = [
            (0x49ab_347a_77de_9d46, 1, 7334, 176, 175, T2, 194),
            (0xf789_2b36_545b_8e96, 1, 8353, 185, 164, T2, 204),
            (0x7a64_9672_9908_df51, 1, 6440, 176, 175, T2, 194),
            (0x563d_44c2_ab9f_c525, 1, 6908, 185, 161, T2, 205),
            (0x508e_e845_6f2e_2ec3, 1, 8890, 172, 171, T1, 198),
            (0x5e59_45f6_2f47_7058, 1, 8890, 172, 154, T1, 198),
            (0x6c7c_bd49_4cc8_114d, 1, 7328, 27, 19, T1, 43),
            (0xa6e4_31b2_226d_216b, 1, 7328, 27, 4, T1, 43),
            (0x3ffe_985f_12ba_5dc0, 2, 12693, 176, 172, T2, 206),
            (0xac51_f85e_add6_9dcd, 2, 13698, 185, 159, T2, 218),
            (0x5f3d_6d64_8fd5_e329, 3, 18817, 176, 171, T2, 224),
            (0x87a2_153a_f291_f6fd, 3, 20957, 185, 148, T2, 239),
            (0xf5c2_edae_4b7a_3a61, 3, 28547, 140, 136, T1, 212),
            (0x6e4c_225a_4deb_6f08, 3, 28547, 140, 102, T1, 212),
            (0x2cb3_f5bc_4009_8b89, 4, 33109, 176, 174, T2, 267),
            (0x07f7_3840_7232_2233, 4, 33124, 185, 159, T2, 276),
            (0x1bcc_741d_b0d9_97b5, 5, 41665, 176, 166, T2, 287),
            (0x49a9_52df_191d_ea63, 5, 41695, 185, 123, T2, 296),
            (0x9668_6f5e_05db_5240, 1, 8138, 127, 123, T1, 146),
            (0x0931_118b_cd11_4546, 1, 8138, 127, 105, T1, 146),
            (0x27ad_ad15_72e0_e8ae, 3, 31149, 176, 173, T2, 263),
            (0x9e7b_fc16_c978_851c, 3, 31289, 185, 157, T2, 273),
            (0x64b3_86de_48d9_04e3, 13, 51176, 176, 174, T2, 312),
            (0xe739_9109_1701_4094, 13, 51185, 185, 151, T2, 321),
        ];
        check_golden(&data, &idx, begin, rows);
    }

    #[test]
    #[should_panic(expected = "c must be >= 2")]
    fn rejects_bad_c() {
        let data = clustered(10, 4, 7);
        let _ = Qalsh::build(&data, QalshConfig { c: 1, ..QalshConfig::default() });
    }
}
