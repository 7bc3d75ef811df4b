//! LSB-forest (Tao, Yi, Sheng, Kalnis — SIGMOD 2009), the paper's main
//! competitor.
//!
//! Each of the `L` LSB-trees hashes every object with `K` p-stable
//! functions, offsets the buckets into `[0, 2^u)`, interleaves the `K`
//! u-bit values into one **z-order value** of `K·u ≤ 128` bits, and
//! stores `(z, oid)` pairs sorted by `z` (the paper uses a B-tree; a
//! sorted run with in-memory fences is page-for-page equivalent for a
//! static index). A query locates its own z-value in every tree and
//! expands bidirectionally, always consuming — across all `2L` frontiers
//! — the entry with the **longest common prefix (LLCP)** with the query's
//! z-value; a long shared prefix means the pair shares large z-order
//! cells in many hash dimensions, i.e. is likely close.
//!
//! Termination follows the paper's two conditions, adapted to this
//! static layout:
//!
//! * **T-quality**: the current k-th candidate distance is at most
//!   `c · w · 2^(u − 1 − ⌊llcp/K⌋)` — no deeper frontier entry can
//!   improve the c-approximation, or
//! * **T-budget**: `budget` candidates were verified (the paper's
//!   `4L·B/page + …` cost cap generalized to a tunable).
//!
//! I/O model (see `DESIGN.md`): each tree costs its search descent plus
//! `⌈visited·20 B / 4096⌉` sequential leaf pages, plus one page per
//! verified candidate — the same page-granularity arithmetic as the
//! disk-based original.

use crate::BaselineStats;
use cc_storage::IoStats;
use cc_vector::dataset::Dataset;
use cc_vector::dist::{dot, euclidean_sq_bounded};
use cc_vector::gt::Neighbor;
use cc_vector::topk::TopK;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Bytes per stored entry: 16-byte z-value + 4-byte object id.
const ENTRY_BYTES: u64 = 20;

/// LSB-forest configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsbConfig {
    /// Hash functions per tree (z-order dimensions). `K·u` must be ≤ 128.
    pub k_funcs: usize,
    /// Number of trees.
    pub l_trees: usize,
    /// Bits per hash value.
    pub u_bits: u32,
    /// Bucket width of the underlying p-stable functions.
    pub w: f64,
    /// Approximation ratio used by the quality stop rule.
    pub c: u32,
    /// Hard candidate budget per query.
    pub budget: usize,
    /// Apply the c-approximation quality stop (T-quality). Disable to
    /// spend the whole budget — higher recall, more I/O.
    pub quality_stop: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LsbConfig {
    fn default() -> Self {
        Self {
            k_funcs: 8,
            l_trees: 16,
            u_bits: 16,
            w: 1.0,
            c: 2,
            budget: 400,
            quality_stop: true,
            seed: 0,
        }
    }
}

/// One LSB-tree: its hash functions and the sorted `(z, oid)` run.
struct LsbTree {
    /// `K` projection vectors.
    proj: Vec<Vec<f32>>,
    /// `K` offsets.
    offsets: Vec<f64>,
    /// Per-function shift making bucket ids non-negative.
    shifts: Vec<i64>,
    /// Sorted `(z, oid)`.
    entries: Vec<(u128, u32)>,
}

/// The LSB-forest index.
pub struct LsbForest<'d> {
    data: &'d Dataset,
    config: LsbConfig,
    trees: Vec<LsbTree>,
    verify_pages: u64,
}

impl<'d> LsbForest<'d> {
    /// Build `L` trees.
    ///
    /// # Panics
    /// Panics on empty data or when `K·u > 128`.
    pub fn build(data: &'d Dataset, config: LsbConfig) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(config.k_funcs > 0 && config.l_trees > 0, "K and L must be positive");
        assert!(
            config.k_funcs as u32 * config.u_bits <= 128,
            "K*u = {} exceeds 128 bits",
            config.k_funcs as u32 * config.u_bits
        );
        assert!(config.w > 0.0, "w must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x15bf_04e5);
        let mut normal = cc_vector::gen::NormalSampler::new();
        let d = data.dim();

        let trees = (0..config.l_trees)
            .map(|_| {
                let proj: Vec<Vec<f32>> = (0..config.k_funcs)
                    .map(|_| (0..d).map(|_| normal.sample(&mut rng) as f32).collect())
                    .collect();
                let offsets: Vec<f64> =
                    (0..config.k_funcs).map(|_| rng.gen::<f64>() * config.w).collect();
                // Raw buckets per function for the whole dataset.
                let mut raw: Vec<Vec<i64>> = Vec::with_capacity(config.k_funcs);
                for f in 0..config.k_funcs {
                    raw.push(
                        data.iter()
                            .map(|v| ((dot(&proj[f], v) + offsets[f]) / config.w).floor() as i64)
                            .collect(),
                    );
                }
                // Shift each function's buckets so the dataset occupies
                // the middle of [0, 2^u): queries below/above clamp.
                let shifts: Vec<i64> = raw
                    .iter()
                    .map(|col| {
                        let min = *col.iter().min().expect("non-empty");
                        let max = *col.iter().max().expect("non-empty");
                        let span = max - min + 1;
                        let slack = ((1i64 << config.u_bits) - span).max(0) / 2;
                        min - slack
                    })
                    .collect();
                let mut entries: Vec<(u128, u32)> = (0..data.len())
                    .map(|i| {
                        let vals: Vec<u64> = (0..config.k_funcs)
                            .map(|f| clamp_bucket(raw[f][i] - shifts[f], config.u_bits))
                            .collect();
                        (interleave(&vals, config.u_bits), i as u32)
                    })
                    .collect();
                entries.sort_unstable();
                LsbTree { proj, offsets, shifts, entries }
            })
            .collect();
        let verify_pages = (d as u64 * 4).div_ceil(4096).max(1);
        Self { data, config, trees, verify_pages }
    }

    fn z_of_query(&self, tree: &LsbTree, q: &[f32]) -> u128 {
        let vals: Vec<u64> = (0..self.config.k_funcs)
            .map(|f| {
                let raw =
                    ((dot(&tree.proj[f], q) + tree.offsets[f]) / self.config.w).floor() as i64;
                clamp_bucket(raw - tree.shifts[f], self.config.u_bits)
            })
            .collect();
        interleave(&vals, self.config.u_bits)
    }

    /// c-k-ANN query by LLCP-priority merge over all trees.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, BaselineStats) {
        assert!(k > 0, "k must be positive");
        let mut stats = BaselineStats::default();
        let total_bits = self.config.k_funcs as u32 * self.config.u_bits;
        let mut seen = vec![false; self.data.len()];
        let mut heap: BinaryHeap<Frontier> = BinaryHeap::new();
        let mut qz = Vec::with_capacity(self.trees.len());
        let mut visited_per_tree = vec![0u64; self.trees.len()];

        for (t, tree) in self.trees.iter().enumerate() {
            let z = self.z_of_query(tree, q);
            qz.push(z);
            let pos = tree.entries.partition_point(|e| e.0 < z);
            stats.probes += 1;
            // Search descent: fences in memory, one leaf read.
            stats.io.reads += 1;
            // Two frontiers: entries[pos] going right, entries[pos-1] left.
            if pos < tree.entries.len() {
                heap.push(Frontier::new(t, pos, 1, tree.entries[pos].0, z, total_bits));
            }
            if pos > 0 {
                heap.push(Frontier::new(t, pos - 1, -1, tree.entries[pos - 1].0, z, total_bits));
            }
        }

        let mut candidates: Vec<Neighbor> = Vec::new();
        let mut topk = TopK::new(k);
        while let Some(f) = heap.pop() {
            let tree = &self.trees[f.tree];
            let (_, oid) = tree.entries[f.pos];
            visited_per_tree[f.tree] += 1;
            if !seen[oid as usize] {
                seen[oid as usize] = true;
                stats.candidates_verified += 1;
                let v = self.data.get(oid as usize);
                match euclidean_sq_bounded(v, q, topk.bound_sq()) {
                    Some(d_sq) => {
                        topk.insert(d_sq, oid);
                        candidates.push(Neighbor::new(oid, d_sq.sqrt()));
                    }
                    None => stats.candidates_abandoned += 1,
                }
            }
            // T-budget.
            if stats.candidates_verified >= self.config.budget {
                break;
            }
            // T-quality: the heap is LLCP-ordered, so `f.llcp` only
            // degrades from here. An entry with LLCP ℓ shares
            // `level = ⌊ℓ/K⌋` z-order levels with the query, i.e. a cell
            // of side `w·2^(u−level)` per hash dimension; once the k-th
            // candidate distance is within `c×` the *half* cell side of
            // the best remaining frontier, deeper entries cannot improve
            // the c-approximation and the sweep stops. The k-th distance
            // comes from the incrementally maintained top-k heap root
            // (abandoned candidates are provably farther than it, so
            // this equals the k-th over all verified candidates) —
            // previously this re-sorted every candidate per iteration.
            if self.config.quality_stop && topk.is_full() {
                let dk = topk.worst_dist();
                let level = (f.llcp / self.config.k_funcs as u32).min(self.config.u_bits - 1);
                let half_cell = self.config.w * 2f64.powi((self.config.u_bits - 1 - level) as i32);
                if dk <= self.config.c as f64 * half_cell {
                    break;
                }
            }
            // Push the successor on the same side.
            let next = f.pos as i64 + f.dir as i64;
            if next >= 0 && (next as usize) < tree.entries.len() {
                heap.push(Frontier::new(
                    f.tree,
                    next as usize,
                    f.dir,
                    tree.entries[next as usize].0,
                    qz[f.tree],
                    total_bits,
                ));
            }
        }

        // Sequential leaf pages per tree.
        for v in visited_per_tree {
            stats.io.reads += (v * ENTRY_BYTES).div_ceil(4096);
        }
        stats.io = IoStats {
            reads: stats.io.reads + stats.candidates_verified as u64 * self.verify_pages,
            writes: 0,
        };
        candidates.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        candidates.truncate(k);
        (candidates, stats)
    }

    /// Index size: `L · n` 20-byte entries plus the projection vectors.
    pub fn size_bytes(&self) -> usize {
        let entries = self.config.l_trees * self.data.len() * ENTRY_BYTES as usize;
        let funcs = self.config.l_trees * self.config.k_funcs * (self.data.dim() * 4 + 24);
        entries + funcs
    }

    /// The configuration in effect.
    pub fn config(&self) -> &LsbConfig {
        &self.config
    }
}

/// A directional cursor into one tree, ordered by LLCP with the query.
struct Frontier {
    llcp: u32,
    tree: usize,
    pos: usize,
    dir: i8,
}

impl Frontier {
    fn new(tree: usize, pos: usize, dir: i8, z: u128, qz: u128, total_bits: u32) -> Self {
        let llcp = llcp_bits(z, qz, total_bits);
        Self { llcp, tree, pos, dir }
    }
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.llcp == other.llcp && self.tree == other.tree && self.pos == other.pos
    }
}
impl Eq for Frontier {}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        self.llcp
            .cmp(&other.llcp)
            .then_with(|| other.tree.cmp(&self.tree))
            .then_with(|| other.pos.cmp(&self.pos))
    }
}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Clamp a shifted bucket id into `[0, 2^u)`.
fn clamp_bucket(v: i64, u_bits: u32) -> u64 {
    v.clamp(0, (1i64 << u_bits) - 1) as u64
}

/// Interleave `K` u-bit values MSB-first: output bit `(u−1−j)·K + i`
/// holds bit `(u−1−j)` of value `i` — standard Morton/z-order encoding.
fn interleave(vals: &[u64], u_bits: u32) -> u128 {
    let k = vals.len() as u32;
    debug_assert!(k * u_bits <= 128);
    let mut z: u128 = 0;
    for bit in (0..u_bits).rev() {
        for (i, &v) in vals.iter().enumerate() {
            z = (z << 1) | (((v >> bit) & 1) as u128);
            let _ = i;
        }
    }
    z
}

/// Length of the common prefix of `a` and `b` within their low
/// `total_bits` bits (values produced by [`interleave`]).
fn llcp_bits(a: u128, b: u128, total_bits: u32) -> u32 {
    let x = a ^ b;
    if x == 0 {
        return total_bits;
    }
    let highest = 127 - x.leading_zeros(); // index of highest differing bit
    if highest >= total_bits {
        0
    } else {
        total_bits - 1 - highest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vector::gen::{generate, Distribution};
    use cc_vector::gt::knn_linear;
    use cc_vector::metrics::recall;

    fn clustered(n: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.015, scale: 10.0 },
            n,
            16,
            seed,
        )
    }

    fn cfg() -> LsbConfig {
        LsbConfig {
            k_funcs: 8,
            l_trees: 12,
            u_bits: 14,
            w: 0.5,
            c: 2,
            budget: 300,
            quality_stop: false,
            seed: 5,
        }
    }

    #[test]
    fn interleave_basics() {
        // Two 2-bit values: a=0b10, b=0b01 -> z = a1 b1 a0 b0 = 1 0 0 1.
        assert_eq!(interleave(&[0b10, 0b01], 2), 0b1001);
        assert_eq!(interleave(&[0b11, 0b11], 2), 0b1111);
        assert_eq!(interleave(&[0, 0], 2), 0);
    }

    #[test]
    fn interleave_orders_by_msb() {
        // Differing in the MSB of any value must dominate lower bits.
        let hi = interleave(&[0b100, 0b000], 3);
        let lo = interleave(&[0b011, 0b111], 3);
        assert!(hi > lo);
    }

    #[test]
    fn llcp_properties() {
        let a = interleave(&[0b1010, 0b0101], 4);
        assert_eq!(llcp_bits(a, a, 8), 8);
        let b = interleave(&[0b1010, 0b0100], 4); // differs in last bit of v1
        assert_eq!(llcp_bits(a, b, 8), 7);
        let c = interleave(&[0b0010, 0b0101], 4); // differs in first bit of v0
        assert_eq!(llcp_bits(a, c, 8), 0);
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp_bucket(-5, 4), 0);
        assert_eq!(clamp_bucket(3, 4), 3);
        assert_eq!(clamp_bucket(99, 4), 15);
    }

    #[test]
    fn finds_exact_match() {
        let data = clustered(500, 1);
        let idx = LsbForest::build(&data, cfg());
        let (nn, _) = idx.query(data.get(3), 1);
        assert_eq!(nn[0].id, 3);
        assert_eq!(nn[0].dist, 0.0);
    }

    #[test]
    fn reasonable_recall_on_clusters() {
        let data = clustered(2000, 2);
        let idx = LsbForest::build(&data, cfg());
        let mut total = 0.0;
        for qi in 0..20 {
            let q = data.get(qi * 83);
            let truth = knn_linear(&data, q, 10);
            let (got, _) = idx.query(q, 10);
            total += recall(&got, &truth);
        }
        let r = total / 20.0;
        assert!(r > 0.5, "recall {r} too low");
    }

    #[test]
    fn budget_caps_verification() {
        let data = clustered(3000, 3);
        let small = LsbForest::build(&data, LsbConfig { budget: 50, ..cfg() });
        let (_, stats) = small.query(data.get(0), 10);
        assert!(stats.candidates_verified <= 50);
    }

    #[test]
    fn io_counted() {
        let data = clustered(1000, 4);
        let idx = LsbForest::build(&data, cfg());
        let (_, stats) = idx.query(data.get(1), 5);
        assert!(stats.io.reads as usize >= idx.config().l_trees);
    }

    #[test]
    fn size_scales_with_trees() {
        let data = clustered(500, 5);
        let a = LsbForest::build(&data, LsbConfig { l_trees: 4, ..cfg() });
        let b = LsbForest::build(&data, LsbConfig { l_trees: 8, ..cfg() });
        assert!(b.size_bytes() > a.size_bytes());
    }

    #[test]
    #[should_panic(expected = "exceeds 128 bits")]
    fn rejects_oversized_z() {
        let data = clustered(10, 6);
        let _ = LsbForest::build(&data, LsbConfig { k_funcs: 10, u_bits: 16, ..cfg() });
    }

    #[test]
    fn determinism() {
        let data = clustered(400, 7);
        let a = LsbForest::build(&data, cfg());
        let b = LsbForest::build(&data, cfg());
        assert_eq!(a.query(data.get(11), 5).0, b.query(data.get(11), 5).0);
    }
}
