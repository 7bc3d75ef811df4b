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

    #[test]
    #[should_panic(expected = "c must be >= 2")]
    fn rejects_bad_c() {
        let data = clustered(10, 4, 7);
        let _ = Qalsh::build(&data, QalshConfig { c: 1, ..QalshConfig::default() });
    }
}
