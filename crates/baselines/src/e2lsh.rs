//! E2LSH: the static concatenating search framework.
//!
//! The classical scheme of Datar et al. / Andoni's E2LSH package:
//! concatenate `K` i.i.d. p-stable functions into one compound hash
//! `G(o) = (h_1(o), …, h_K(o))`, build `L` independent tables, and at
//! query time verify everything in the `L` buckets `G_j(q)`.
//!
//! This is exactly the framework whose trade-off C2LSH attacks: driving
//! false positives down via `K` also drives true positives down, forcing
//! `L` (and the index size, `O(n·L)` entries plus `K·L` functions) up.
//!
//! Compound keys are SipHash-compressed to `u64`; with `n ≤ 10⁷` the
//! collision probability is ≪ 10⁻⁴ per bucket pair and only ever *adds*
//! false candidates (never loses true ones).

use crate::BaselineStats;
use cc_storage::IoStats;
use cc_vector::dataset::Dataset;
use cc_vector::dist::{dot, euclidean_sq_bounded};
use cc_vector::gt::Neighbor;
use cc_vector::topk::TopK;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One p-stable function (kept local: E2LSH needs no virtual rehashing,
/// so its offsets live in plain `[0, w)`).
#[derive(Debug, Clone)]
struct HashFn {
    a: Vec<f32>,
    b: f64,
    w: f64,
}

impl HashFn {
    fn bucket(&self, o: &[f32]) -> i64 {
        ((dot(&self.a, o) + self.b) / self.w).floor() as i64
    }
}

/// E2LSH configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2lshConfig {
    /// Number of concatenated functions per compound hash.
    pub k_funcs: usize,
    /// Number of hash tables.
    pub l_tables: usize,
    /// Bucket width.
    pub w: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for E2lshConfig {
    fn default() -> Self {
        Self { k_funcs: 8, l_tables: 32, w: 2.184, seed: 0 }
    }
}

/// The E2LSH index.
pub struct E2lsh<'d> {
    data: &'d Dataset,
    config: E2lshConfig,
    /// `l_tables × k_funcs` functions, row-major.
    functions: Vec<HashFn>,
    tables: Vec<HashMap<u64, Vec<u32>>>,
    /// Pages per candidate verification.
    verify_pages: u64,
}

impl<'d> E2lsh<'d> {
    /// Build the `L` tables.
    ///
    /// # Panics
    /// Panics on empty data or zero `K`/`L`/`w`.
    pub fn build(data: &'d Dataset, config: E2lshConfig) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(config.k_funcs > 0 && config.l_tables > 0, "K and L must be positive");
        assert!(config.w > 0.0, "w must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xe215_4afe);
        let mut normal = cc_vector::gen::NormalSampler::new();
        let d = data.dim();
        let functions: Vec<HashFn> = (0..config.l_tables * config.k_funcs)
            .map(|_| HashFn {
                a: (0..d).map(|_| normal.sample(&mut rng) as f32).collect(),
                b: rng.gen::<f64>() * config.w,
                w: config.w,
            })
            .collect();

        let mut tables = vec![HashMap::new(); config.l_tables];
        let mut key_buf = Vec::with_capacity(config.k_funcs);
        for (i, v) in data.iter().enumerate() {
            for (t, table) in tables.iter_mut().enumerate() {
                key_buf.clear();
                for f in 0..config.k_funcs {
                    key_buf.push(functions[t * config.k_funcs + f].bucket(v));
                }
                let key = compress(&key_buf);
                table.entry(key).or_insert_with(Vec::new).push(i as u32);
            }
        }
        let verify_pages = (d as u64 * 4).div_ceil(4096).max(1);
        Self { data, config, functions, tables, verify_pages }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &E2lshConfig {
        &self.config
    }

    /// c-k-ANN query: verify everything colliding with `q` in any of the
    /// `L` buckets.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, BaselineStats) {
        assert!(k > 0, "k must be positive");
        let mut stats = BaselineStats::default();
        let mut seen = vec![false; self.data.len()];
        // Retained candidates for final (dist, id) ranking; the top-k
        // accumulator's root feeds the early-abandon bound (its slack
        // keeps the final ranking identical to full verification).
        let mut candidates: Vec<Neighbor> = Vec::new();
        let mut topk = TopK::new(k);
        let mut key_buf = Vec::with_capacity(self.config.k_funcs);
        for t in 0..self.config.l_tables {
            key_buf.clear();
            for f in 0..self.config.k_funcs {
                key_buf.push(self.functions[t * self.config.k_funcs + f].bucket(q));
            }
            let key = compress(&key_buf);
            stats.probes += 1;
            // One page read per probed bucket (hash directory assumed
            // cached, bucket chain read from disk).
            stats.io.reads += 1;
            if let Some(bucket) = self.tables[t].get(&key) {
                // Long chains spill over pages: 12 B per entry.
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
        stats.io = IoStats {
            reads: stats.io.reads + stats.candidates_verified as u64 * self.verify_pages,
            writes: 0,
        };
        candidates.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        candidates.truncate(k);
        (candidates, stats)
    }

    /// Index size: `L` tables of `n` 12-byte entries plus `K·L` functions.
    pub fn size_bytes(&self) -> usize {
        let entries = self.config.l_tables * self.data.len() * 12;
        let funcs = self.functions.len() * (self.data.dim() * 4 + 16);
        entries + funcs
    }
}

/// Compress a compound key to `u64` with SipHash (std's default hasher).
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

    fn cfg() -> E2lshConfig {
        E2lshConfig { k_funcs: 6, l_tables: 48, w: 1.0, seed: 9 }
    }

    #[test]
    fn finds_exact_match() {
        let data = clustered(500, 1);
        let idx = E2lsh::build(&data, cfg());
        let (nn, stats) = idx.query(data.get(7), 1);
        assert_eq!(nn[0].id, 7);
        assert_eq!(nn[0].dist, 0.0);
        assert_eq!(stats.probes, 48);
    }

    #[test]
    fn reasonable_recall_on_clusters() {
        let data = clustered(2000, 2);
        let idx = E2lsh::build(&data, cfg());
        let mut total = 0.0;
        for qi in 0..20 {
            let q = data.get(qi * 97);
            let truth = knn_linear(&data, q, 10);
            let (got, _) = idx.query(q, 10);
            total += recall(&got, &truth);
        }
        let r = total / 20.0;
        assert!(r > 0.5, "recall {r} too low for generous K/L");
    }

    #[test]
    fn no_duplicate_candidates_across_tables() {
        let data = clustered(300, 3);
        let idx = E2lsh::build(&data, cfg());
        let (_, stats) = idx.query(data.get(0), 5);
        assert!(stats.candidates_verified <= data.len());
    }

    #[test]
    fn size_grows_linearly_in_l() {
        let data = clustered(400, 4);
        let small = E2lsh::build(&data, E2lshConfig { l_tables: 8, ..cfg() });
        let big = E2lsh::build(&data, E2lshConfig { l_tables: 16, ..cfg() });
        assert!(big.size_bytes() > small.size_bytes());
        assert!(big.size_bytes() < 3 * small.size_bytes());
    }

    #[test]
    fn determinism() {
        let data = clustered(300, 5);
        let a = E2lsh::build(&data, cfg());
        let b = E2lsh::build(&data, cfg());
        assert_eq!(a.query(data.get(1), 5).0, b.query(data.get(1), 5).0);
    }

    #[test]
    fn larger_k_funcs_reduces_candidates() {
        let data = clustered(2000, 6);
        let loose = E2lsh::build(&data, E2lshConfig { k_funcs: 2, ..cfg() });
        let tight = E2lsh::build(&data, E2lshConfig { k_funcs: 10, ..cfg() });
        let q = data.get(50);
        let (_, s_loose) = loose.query(q, 10);
        let (_, s_tight) = tight.query(q, 10);
        assert!(
            s_tight.candidates_verified < s_loose.candidates_verified,
            "tight {} !< loose {}",
            s_tight.candidates_verified,
            s_loose.candidates_verified
        );
    }

    #[test]
    #[should_panic(expected = "K and L must be positive")]
    fn rejects_zero_k() {
        let data = clustered(10, 7);
        let _ = E2lsh::build(&data, E2lshConfig { k_funcs: 0, ..cfg() });
    }
}
