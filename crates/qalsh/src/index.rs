//! The QALSH index.
//!
//! One B+-tree per hash function, keyed by the raw projection `a·o`.
//! A query computes its own projections and positions one bidirectional
//! cursor pair per tree; the search itself runs in the shared
//! [`c2lsh::engine`] loop: at radius `R = c^level` the collision window
//! of tree `i` is `[a_i·q − w·R/2, a_i·q + w·R/2]`, rounds expand the
//! windows ([`TableStore::expand`]), the engine counts newly covered
//! objects, verifies those reaching the collision threshold `l`, and
//! stops on the same T1/T2 conditions as C2LSH.

use crate::params::derive;
use c2lsh::engine::{self, SearchOptions, SearchParams, TableStore};
use c2lsh::meta::PointMeta;
use c2lsh::stats::{BatchStats, QueryStats};
use cc_math::hoeffding::DerivedParams;
use cc_storage::bptree::{BPlusTree, Cursor};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;

/// Totally ordered `f64` key (orders by `total_cmp`; projections are
/// always finite here, so this matches numeric order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

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

/// The QALSH index over a borrowed dataset.
pub struct Qalsh<'d> {
    data: &'d Dataset,
    config: QalshConfig,
    derived: DerivedParams,
    m: usize,
    l: u32,
    beta_n: usize,
    /// `m` projection vectors.
    proj: Vec<Vec<f32>>,
    /// One B+-tree per projection, keyed by `a·o`.
    trees: Vec<BPlusTree<OrdF64, u32>>,
    /// Per-point attribute payloads; empty = every point defaults.
    metas: Vec<PointMeta>,
    verify_pages: u64,
}

impl<'d> Qalsh<'d> {
    /// Build the index: derive `(m, l)`, draw `m` projections, bulk-load
    /// `m` B+-trees.
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
        let m = derived.m;
        let l = derived.l as u32;
        let beta_n = ((beta * n as f64).ceil() as usize).max(1);

        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9a15_4aa1);
        let mut normal = cc_vector::gen::NormalSampler::new();
        let d = data.dim();
        let proj: Vec<Vec<f32>> =
            (0..m).map(|_| (0..d).map(|_| normal.sample(&mut rng) as f32).collect()).collect();
        // Build-time keys and query-time probes must use the same
        // projection schedule; both go through the dispatched kernel
        // (bit-identical across kernels, so cross-kernel index/query
        // mixes still probe exactly).
        let kd = c2lsh::kernels::dispatch();
        let trees: Vec<BPlusTree<OrdF64, u32>> = proj
            .iter()
            .map(|a| {
                let mut pairs: Vec<(OrdF64, u32)> = data
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (OrdF64(kd.dot(a, v)), i as u32))
                    .collect();
                pairs.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
                let t = BPlusTree::bulk_load(&pairs);
                t.reset_io();
                t
            })
            .collect();
        let verify_pages = (d as u64 * 4).div_ceil(4096).max(1);
        Self { data, config, derived, m, l, beta_n, proj, trees, metas: Vec::new(), verify_pages }
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

    /// Number of hash functions / B+-trees.
    pub fn num_trees(&self) -> usize {
        self.m
    }

    /// Index size in bytes: B+-tree pages plus projection vectors.
    pub fn size_bytes(&self) -> usize {
        let pages: usize = self.trees.iter().map(|t| t.num_pages()).sum();
        pages * 4096 + self.m * self.data.dim() * 4
    }

    fn search_params(&self) -> SearchParams {
        SearchParams {
            c: self.config.c,
            l: self.l,
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

/// Per-tree bidirectional cursor pair straddling the query projection:
/// `right` sits at the first key ≥ a·q, `left` just below it; the done
/// flags latch once a direction runs off its tree.
struct ProbePair {
    left: Cursor,
    right: Cursor,
    left_done: bool,
    right_done: bool,
}

/// Query expansion state over the `m` B+-trees: the query's projections
/// plus one probe pair per tree.
pub struct QalshCursor {
    pq: Vec<f64>,
    probes: Vec<ProbePair>,
}

impl TableStore for Qalsh<'_> {
    type Cursor = QalshCursor;

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn num_tables(&self) -> usize {
        self.m
    }

    fn begin(&self, q: &[f32]) -> QalshCursor {
        // The dispatched projection kernel; build-time keys used the same
        // canonical schedule, so probe positions land exactly.
        let kd = c2lsh::kernels::dispatch();
        let pq: Vec<f64> = self.proj.iter().map(|a| kd.dot(a, q)).collect();
        let probes: Vec<ProbePair> = (0..self.m)
            .map(|t| {
                let right = self.trees[t].lower_bound(OrdF64(pq[t]));
                let left = self.trees[t].retreat(right);
                ProbePair {
                    left,
                    right,
                    left_done: self.trees[t].get(left).is_none(),
                    right_done: self.trees[t].get(right).is_none(),
                }
            })
            .collect();
        QalshCursor { pq, probes }
    }

    fn expand(
        &self,
        cursor: &mut QalshCursor,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&[u32]) -> bool,
    ) {
        // A B+-tree cursor yields one entry at a time, so a slice is one
        // id, and a refusal leaves both cursors where the engine stopped.
        let tree = &self.trees[t];
        let half = self.config.w * radius as f64 / 2.0;
        let (lo_key, hi_key) = (cursor.pq[t] - half, cursor.pq[t] + half);
        let probe = &mut cursor.probes[t];
        // Expand rightward.
        while !probe.right_done {
            match tree.get(probe.right) {
                Some((OrdF64(key), oid)) if key <= hi_key => {
                    let keep_going = visit(&[oid]);
                    probe.right = tree.advance(probe.right);
                    if !keep_going {
                        return;
                    }
                }
                Some(_) => break,
                None => probe.right_done = true,
            }
        }
        // Expand leftward.
        while !probe.left_done {
            match tree.get(probe.left) {
                Some((OrdF64(key), oid)) if key >= lo_key => {
                    let keep_going = visit(&[oid]);
                    let prev = tree.retreat(probe.left);
                    if tree.get(prev).is_none() {
                        probe.left_done = true;
                    } else {
                        probe.left = prev;
                    }
                    if !keep_going {
                        return;
                    }
                }
                Some(_) => break,
                None => probe.left_done = true,
            }
        }
    }

    fn exhausted(&self, cursor: &QalshCursor) -> bool {
        cursor.probes.iter().all(|p| p.left_done && p.right_done)
    }

    fn vector<'a>(&'a self, oid: u32, _: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        Some(self.data.get(oid as usize))
    }

    fn meta(&self, oid: u32) -> PointMeta {
        self.metas.get(oid as usize).copied().unwrap_or_default()
    }

    fn verify_pages(&self) -> u64 {
        self.verify_pages
    }

    fn io_reads(&self) -> u64 {
        self.trees.iter().map(|t| t.io_reads()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2lsh::stats::Termination;
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

    fn cfg() -> QalshConfig {
        QalshConfig { w: 1.2, seed: 21, ..QalshConfig::default() }
    }

    #[test]
    fn ordf64_total_order() {
        let mut v = [OrdF64(1.5), OrdF64(-2.0), OrdF64(0.0), OrdF64(7.25)];
        v.sort();
        let keys: Vec<f64> = v.iter().map(|k| k.0).collect();
        assert_eq!(keys, vec![-2.0, 0.0, 1.5, 7.25]);
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
