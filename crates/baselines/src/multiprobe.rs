//! Multi-Probe LSH (Lv, Josephson, Wang, Charikar, Li — VLDB 2007).
//!
//! The classic space-saving variant of the static concatenating
//! framework: instead of adding more tables, each query probes — in
//! addition to its own bucket — a sequence of *perturbed* buckets
//! `G(q) + Δ` chosen in increasing order of estimated miss probability.
//! This lets `L` drop by an order of magnitude at equal recall, which is
//! why it became the standard E2LSH deployment mode and a natural
//! comparison point for C2LSH's indexing-overhead argument.
//!
//! The perturbation sequence follows the paper's *query-directed*
//! scheme: for each of the `K` hash coordinates, the distance from the
//! projection to the adjacent bucket boundary (`x_i(−1)` below, and
//! `w − x_i(−1)` for `+1`) scores a ±1 perturbation; perturbation *sets*
//! are enumerated in increasing total score with the shift/expand heap
//! construction, so buckets most likely to hold near neighbors are
//! probed first.

use crate::BaselineStats;
use cc_storage::IoStats;
use cc_vector::dataset::Dataset;
use cc_vector::dist::{dot, euclidean_sq_bounded};
use cc_vector::gt::Neighbor;
use cc_vector::topk::TopK;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};

/// Multi-Probe LSH configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiProbeConfig {
    /// Concatenated functions per table.
    pub k_funcs: usize,
    /// Number of tables (much smaller than plain E2LSH needs).
    pub l_tables: usize,
    /// Bucket width.
    pub w: f64,
    /// Number of *additional* probes per table (0 = plain E2LSH).
    pub probes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultiProbeConfig {
    fn default() -> Self {
        Self { k_funcs: 8, l_tables: 8, w: 2.184, probes: 16, seed: 0 }
    }
}

struct HashFn {
    a: Vec<f32>,
    b: f64,
}

/// The Multi-Probe LSH index.
pub struct MultiProbeLsh<'d> {
    data: &'d Dataset,
    config: MultiProbeConfig,
    /// `l_tables × k_funcs` functions, row-major.
    functions: Vec<HashFn>,
    tables: Vec<HashMap<u64, Vec<u32>>>,
    verify_pages: u64,
}

/// One perturbation set in the heap, ordered by ascending score.
struct PSet {
    score: f64,
    /// Indices into the sorted per-coordinate perturbation list.
    set: Vec<usize>,
}

impl PartialEq for PSet {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for PSet {}
impl Ord for PSet {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on score.
        other.score.total_cmp(&self.score)
    }
}
impl PartialOrd for PSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<'d> MultiProbeLsh<'d> {
    /// Build the `L` tables.
    ///
    /// # Panics
    /// Panics on empty data or degenerate parameters.
    pub fn build(data: &'d Dataset, config: MultiProbeConfig) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(config.k_funcs > 0 && config.l_tables > 0, "K and L must be positive");
        assert!(config.w > 0.0, "w must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x6d70_4c53);
        let mut normal = cc_vector::gen::NormalSampler::new();
        let d = data.dim();
        let functions: Vec<HashFn> = (0..config.l_tables * config.k_funcs)
            .map(|_| HashFn {
                a: (0..d).map(|_| normal.sample(&mut rng) as f32).collect(),
                b: rng.gen::<f64>() * config.w,
            })
            .collect();
        let mut tables = vec![HashMap::new(); config.l_tables];
        let mut key = Vec::with_capacity(config.k_funcs);
        for (i, v) in data.iter().enumerate() {
            for (t, table) in tables.iter_mut().enumerate() {
                key.clear();
                for f in 0..config.k_funcs {
                    let hf = &functions[t * config.k_funcs + f];
                    key.push(((dot(&hf.a, v) + hf.b) / config.w).floor() as i64);
                }
                table.entry(compress(&key)).or_insert_with(Vec::new).push(i as u32);
            }
        }
        let verify_pages = (d as u64 * 4).div_ceil(4096).max(1);
        Self { data, config, functions, tables, verify_pages }
    }

    /// Generate the probing sequence for one table: the home bucket plus
    /// up to `probes` perturbed buckets in ascending score order
    /// (shift/expand enumeration over per-coordinate ±1 perturbations).
    fn probe_sequence(&self, t: usize, q: &[f32]) -> Vec<Vec<i64>> {
        let kf = self.config.k_funcs;
        let w = self.config.w;
        // Home bucket and, per coordinate, the score of moving ±1:
        // distance from the projection to the relevant bucket boundary.
        let mut home = Vec::with_capacity(kf);
        let mut moves: Vec<(f64, usize, i64)> = Vec::with_capacity(2 * kf); // (score, coord, delta)
        for f in 0..kf {
            let hf = &self.functions[t * kf + f];
            let proj = dot(&hf.a, q) + hf.b;
            let bucket = (proj / w).floor();
            let frac = proj - bucket * w; // position within the bucket, [0, w)
            home.push(bucket as i64);
            moves.push((frac * frac, f, -1)); // cross the lower boundary
            moves.push(((w - frac) * (w - frac), f, 1)); // cross the upper
        }
        moves.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Enumerate perturbation sets in ascending total score using the
        // shift/expand heap over indices into `moves`.
        let mut out = vec![home.clone()];
        if self.config.probes == 0 || moves.is_empty() {
            return out;
        }
        let mut heap: BinaryHeap<PSet> = BinaryHeap::new();
        heap.push(PSet { score: moves[0].0, set: vec![0] });
        while out.len() <= self.config.probes {
            let Some(top) = heap.pop() else { break };
            // Validity: a set may not perturb the same coordinate twice
            // (indices 2i and 2i+1 after sorting refer to arbitrary
            // coordinates, so check explicitly).
            let mut coords: Vec<usize> = top.set.iter().map(|&i| moves[i].1).collect();
            coords.sort_unstable();
            let valid = coords.windows(2).all(|p| p[0] != p[1]);
            if valid {
                let mut probe = home.clone();
                for &i in &top.set {
                    probe[moves[i].1] += moves[i].2;
                }
                out.push(probe);
            }
            // Shift: advance the last element; expand: append successor.
            let last = *top.set.last().expect("non-empty set");
            if last + 1 < moves.len() {
                let mut shifted = top.set.clone();
                *shifted.last_mut().unwrap() = last + 1;
                let score = top.score - moves[last].0 + moves[last + 1].0;
                heap.push(PSet { score, set: shifted });
                let mut expanded = top.set;
                expanded.push(last + 1);
                let score = top.score + moves[last + 1].0;
                heap.push(PSet { score, set: expanded });
            }
        }
        out
    }

    /// c-k-ANN query probing `1 + probes` buckets per table.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, BaselineStats) {
        assert!(k > 0, "k must be positive");
        assert_eq!(q.len(), self.data.dim(), "query dimensionality mismatch");
        let mut stats = BaselineStats::default();
        let mut seen = vec![false; self.data.len()];
        let mut candidates: Vec<Neighbor> = Vec::new();
        let mut topk = TopK::new(k);
        for t in 0..self.config.l_tables {
            for probe in self.probe_sequence(t, q) {
                stats.probes += 1;
                stats.io.reads += 1;
                if let Some(bucket) = self.tables[t].get(&compress(&probe)) {
                    stats.io.reads += (bucket.len() as u64 * 12) / 4096;
                    for &oid in bucket {
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
                    }
                }
            }
        }
        stats.io = IoStats {
            reads: stats.io.reads + stats.candidates_verified as u64 * self.verify_pages,
            writes: 0,
        };
        candidates.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        candidates.truncate(k);
        (candidates, stats)
    }

    /// Index size: `L` tables of 12-byte entries plus `K·L` functions.
    pub fn size_bytes(&self) -> usize {
        self.config.l_tables * self.data.len() * 12
            + self.functions.len() * (self.data.dim() * 4 + 16)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MultiProbeConfig {
        &self.config
    }
}

fn compress(key: &[i64]) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
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

    fn cfg() -> MultiProbeConfig {
        MultiProbeConfig { k_funcs: 6, l_tables: 8, w: 1.0, probes: 24, seed: 13 }
    }

    #[test]
    fn finds_exact_match() {
        let data = clustered(500, 1);
        let idx = MultiProbeLsh::build(&data, cfg());
        let (nn, stats) = idx.query(data.get(11), 1);
        assert_eq!(nn[0].id, 11);
        assert_eq!(nn[0].dist, 0.0);
        // 1 + probes buckets per table.
        assert_eq!(stats.probes, 8 * 25);
    }

    #[test]
    fn probes_boost_recall_over_plain_e2lsh_shape() {
        // Same (K, L): more probes => strictly more candidates reachable,
        // therefore recall must not decrease and should increase
        // substantially on clustered data.
        let data = clustered(2000, 2);
        let plain = MultiProbeLsh::build(&data, MultiProbeConfig { probes: 0, ..cfg() });
        let probed = MultiProbeLsh::build(&data, cfg());
        let mut r_plain = 0.0;
        let mut r_probed = 0.0;
        for qi in 0..20 {
            let q = data.get(qi * 97);
            let truth = knn_linear(&data, q, 10);
            r_plain += recall(&plain.query(q, 10).0, &truth);
            r_probed += recall(&probed.query(q, 10).0, &truth);
        }
        assert!(
            r_probed > r_plain + 1.0,
            "probing should lift recall: plain {r_plain}, probed {r_probed} (sums over 20)"
        );
    }

    #[test]
    fn probe_sequence_scores_ascend_and_start_at_home() {
        let data = clustered(100, 3);
        let idx = MultiProbeLsh::build(&data, cfg());
        let q = data.get(0);
        let seq = idx.probe_sequence(0, q);
        assert_eq!(seq.len(), 1 + idx.config().probes);
        // First is the home bucket; all probes differ from home by ±1 in
        // at least one coordinate and never by more than 1 anywhere.
        let home = &seq[0];
        for probe in &seq[1..] {
            assert_ne!(probe, home);
            for (a, b) in probe.iter().zip(home) {
                assert!((a - b).abs() <= 1, "perturbation beyond ±1");
            }
        }
        // No duplicate probes.
        let mut sorted = seq.clone();
        sorted.sort();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), before, "duplicate probes in sequence");
    }

    #[test]
    fn matches_e2lsh_candidates_at_zero_probes() {
        // probes = 0 reduces to plain static concatenation over the same
        // bucket structure: verified count equals number of distinct
        // colliders in the L home buckets.
        let data = clustered(400, 4);
        let idx = MultiProbeLsh::build(&data, MultiProbeConfig { probes: 0, ..cfg() });
        let (_, stats) = idx.query(data.get(7), 5);
        assert_eq!(stats.probes, idx.config().l_tables);
        assert!(stats.candidates_verified >= 1);
    }

    #[test]
    fn determinism() {
        let data = clustered(300, 5);
        let a = MultiProbeLsh::build(&data, cfg());
        let b = MultiProbeLsh::build(&data, cfg());
        assert_eq!(a.query(data.get(9), 5).0, b.query(data.get(9), 5).0);
    }

    #[test]
    fn smaller_l_with_probes_matches_bigger_l_without() {
        // The multi-probe selling point: L=4 with 24 probes should reach
        // the recall ballpark of L=16 with none, at a quarter the index.
        let data = clustered(2000, 6);
        let small =
            MultiProbeLsh::build(&data, MultiProbeConfig { l_tables: 4, probes: 24, ..cfg() });
        let big =
            MultiProbeLsh::build(&data, MultiProbeConfig { l_tables: 16, probes: 0, ..cfg() });
        let mut r_small = 0.0;
        let mut r_big = 0.0;
        for qi in 0..20 {
            let q = data.get(qi * 83);
            let truth = knn_linear(&data, q, 10);
            r_small += recall(&small.query(q, 10).0, &truth);
            r_big += recall(&big.query(q, 10).0, &truth);
        }
        assert!(small.size_bytes() * 3 < big.size_bytes());
        assert!(
            r_small > r_big - 2.0,
            "L=4+probes recall {r_small} far below L=16 recall {r_big} (sums over 20)"
        );
    }
}
