//! The p-stable LSH family used by C2LSH.
//!
//! One hash function is `h_{a,b}(o) = ⌊(a·o + b)/w⌋` with
//! `a ~ N(0,1)^d`. The offset `b` is drawn uniformly from
//! `[0, w · c^L)` — a multiple of every level's bucket width
//! `w·c^i, i ≤ L` — so that **virtual rehashing is exact**: the level-`R`
//! hash value `⌊(a·o + b)/(wR)⌋` equals `⌊h_{a,b}(o)/R⌋` (nested floor
//! division) *and* the offset is uniform modulo every level's width,
//! making each level a textbook p-stable function with collision
//! probability `p(s, wR)`.

use crate::config::C2lshConfig;
use crate::kernels::{self, HashTile, Margin, TILE};
use cc_vector::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The highest virtual-rehashing level supported (radii up to
/// `c^MAX_LEVEL`); chosen so `2^MAX_LEVEL` dwarfs any practical radius.
pub const MAX_LEVEL: u32 = 30;

/// One p-stable hash function.
#[derive(Debug, Clone)]
pub struct PstableHash {
    /// Projection vector, entries i.i.d. standard normal.
    a: Vec<f32>,
    /// Uniform offset in `[0, w·c^L)`.
    b: f64,
    /// Level-1 bucket width.
    w: f64,
}

impl PstableHash {
    /// Raw projection `a·o + b` (before bucketing). Exposed because
    /// QALSH-style schemes index this value directly. Computed through
    /// the process-wide [`kernels::dispatch`] under the canonical
    /// lane-parallel schedule, so single-function, family and batched
    /// hashing agree bit-for-bit across kernels.
    #[inline]
    pub fn project(&self, o: &[f32]) -> f64 {
        kernels::dispatch().dot(&self.a, o) + self.b
    }

    /// Level-1 bucket id `⌊(a·o + b)/w⌋`.
    #[inline]
    pub fn bucket(&self, o: &[f32]) -> i64 {
        (self.project(o) / self.w).floor() as i64
    }

    /// Dimensionality this function was drawn for.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Level-1 bucket width.
    pub fn width(&self) -> f64 {
        self.w
    }

    /// Assemble a function from its projection `a`, offset `b` and
    /// width `w`.
    ///
    /// # Panics
    /// Panics on an empty projection or non-positive width.
    pub fn from_parts(a: Vec<f32>, b: f64, w: f64) -> Self {
        assert!(!a.is_empty(), "empty projection vector");
        assert!(w > 0.0, "width must be positive");
        Self { a, b, w }
    }
}

/// A family of `m` i.i.d. p-stable hash functions.
///
/// Besides the individual [`PstableHash`] functions, the family keeps
/// their projection vectors packed into one row-major `m×d` matrix, with
/// their offsets and widths beside it, so every row is hashed by the one
/// dispatched kernel ([`kernels::KernelDispatch::hash_rows`]) against
/// [`TILE`] functions at a time instead of one virtual call per function.
#[derive(Debug, Clone)]
pub struct HashFamily {
    functions: Vec<PstableHash>,
    /// Row-major `m×d` packing of the functions' `a` vectors.
    matrix: Vec<f32>,
    /// Per-function offsets `b`.
    offsets: Vec<f64>,
    /// Per-function widths `w`.
    widths: Vec<f64>,
    /// Per-function certificate margins of the AVX2 tile, taken once.
    margins: Vec<Margin>,
    /// Dimensionality shared by every function.
    d: usize,
}

impl HashFamily {
    /// Assemble a family from its functions.
    ///
    /// # Panics
    /// Panics when `functions` is empty or dimensions disagree.
    pub fn from_functions(functions: Vec<PstableHash>) -> Self {
        assert!(!functions.is_empty(), "empty hash family");
        let d = functions[0].dim();
        assert!(functions.iter().all(|h| h.dim() == d), "mixed dimensions in family");
        let matrix = functions.iter().flat_map(|h| h.a.iter().copied()).collect();
        let offsets = functions.iter().map(|h| h.b).collect();
        let widths = functions.iter().map(|h| h.w).collect();
        let margins = functions.iter().map(|h| Margin::of(&h.a, h.w)).collect();
        Self { functions, matrix, offsets, widths, margins, d }
    }

    /// Draw `m` functions for `d`-dimensional data, deterministically
    /// from `config.seed`.
    pub fn generate(m: usize, d: usize, config: &C2lshConfig) -> Self {
        assert!(m > 0 && d > 0, "need m > 0 and d > 0");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5ee1_c0de);
        let mut normal = cc_vector::gen::NormalSampler::new();
        // Offsets uniform over [0, w * c^MAX_LEVEL): a multiple of every
        // level's width, see module docs.
        let level_cap = (config.c as f64).powi(MAX_LEVEL as i32);
        let functions = (0..m)
            .map(|_| {
                let a: Vec<f32> = (0..d).map(|_| normal.sample(&mut rng) as f32).collect();
                let b = rng.gen::<f64>() * config.w * level_cap;
                PstableHash { a, b, w: config.w }
            })
            .collect();
        Self::from_functions(functions)
    }

    /// Number of functions `m`.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// `true` when the family is empty (never happens post-construction).
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Access function `i`.
    pub fn get(&self, i: usize) -> &PstableHash {
        &self.functions[i]
    }

    /// Iterate over the functions.
    pub fn iter(&self) -> impl Iterator<Item = &PstableHash> {
        self.functions.iter()
    }

    /// Dimensionality the family was drawn for.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Level-1 bucket ids of `o` under every function ("hash string"),
    /// bit-identical to calling [`PstableHash::bucket`] per function.
    ///
    /// # Panics
    /// Panics when `o` has another dimensionality than the family.
    pub fn buckets(&self, o: &[f32]) -> Vec<i64> {
        assert_eq!(o.len(), self.d, "query dimensionality mismatch");
        self.row_major(o)
    }

    /// Level-1 bucket ids for a whole coalesced query batch:
    /// `out[qi*m + t]` is query `qi`'s bucket under function `t`,
    /// bit-identical to per-query [`HashFamily::buckets`].
    ///
    /// # Panics
    /// Panics when the batch dimensionality disagrees with the family's.
    pub fn buckets_batch(&self, queries: &Dataset) -> Vec<i64> {
        assert_eq!(queries.dim(), self.d, "query dimensionality mismatch");
        self.row_major(queries.as_flat())
    }

    /// The bucket ids of the row-major `rows`, row after row.
    fn row_major(&self, rows: &[f32]) -> Vec<i64> {
        let m = self.functions.len();
        let mut out = vec![0; rows.len() / self.d * m];
        if out.is_empty() {
            return out;
        }
        let kernel = kernels::dispatch();
        for lo in (0..m).step_by(TILE) {
            let tile = self.tile(lo..(lo + TILE).min(m));
            kernel.hash_rows(&tile, rows, &mut out[lo..], (m, 1));
        }
        out
    }

    /// Hash the row-major `rows` under every function of `tables`, and
    /// hand `visit` each function's column of bucket ids, in table order.
    /// One pass over the rows fills [`TILE`] columns, so the call holds
    /// `TILE` columns of `rows` at a time.
    pub(crate) fn each_column(
        &self,
        tables: Range<usize>,
        rows: &[f32],
        mut visit: impl FnMut(usize, &[i64]),
    ) {
        let n = rows.len() / self.d;
        let (kernel, mut columns) = (kernels::dispatch(), Vec::new());
        for lo in tables.clone().step_by(TILE) {
            let tile = lo..(lo + TILE).min(tables.end);
            columns.resize(tile.len() * n, 0);
            kernel.hash_rows(&self.tile(tile.clone()), rows, &mut columns, (1, n));
            for (i, t) in tile.enumerate() {
                visit(t, &columns[i * n..(i + 1) * n]);
            }
        }
    }

    /// The functions `tables`, at most [`TILE`] of them, as a kernel tile.
    fn tile(&self, tables: Range<usize>) -> HashTile<'_> {
        let coeffs = &self.matrix[tables.start * self.d..tables.end * self.d];
        let (offsets, widths) = (&self.offsets[tables.clone()], &self.widths[tables.clone()]);
        HashTile::with_margins(coeffs, offsets, widths, &self.margins[tables])
    }

    /// One query cursor per row of a coalesced batch, in row order:
    /// `cursor` gets each query's bucket ids, as [`HashFamily::buckets`]
    /// would return them, out of one [`HashFamily::buckets_batch`]
    /// product.
    pub fn cursors_batch<C>(&self, queries: &Dataset, cursor: impl FnMut(Vec<i64>) -> C) -> Vec<C> {
        let m = self.functions.len();
        self.buckets_batch(queries).chunks_exact(m).map(<[i64]>::to_vec).map(cursor).collect()
    }

    /// Estimated heap size of the family in bytes (index-size reports).
    pub fn size_bytes(&self) -> usize {
        self.functions
            .iter()
            .map(|h| h.a.len() * core::mem::size_of::<f32>() + 2 * core::mem::size_of::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_math::pstable::collision_probability;
    use cc_vector::dist::euclidean;

    fn cfg(seed: u64, w: f64) -> C2lshConfig {
        C2lshConfig::builder().bucket_width(w).seed(seed).build()
    }

    #[test]
    fn deterministic_per_seed() {
        let c = cfg(5, 1.0);
        let f1 = HashFamily::generate(4, 8, &c);
        let f2 = HashFamily::generate(4, 8, &c);
        let o = [1.0f32, -2.0, 0.5, 3.0, 0.0, 1.0, 2.0, -1.0];
        assert_eq!(f1.buckets(&o), f2.buckets(&o));
        let c2 = cfg(6, 1.0);
        let f3 = HashFamily::generate(4, 8, &c2);
        assert_ne!(f1.buckets(&o), f3.buckets(&o));
    }

    #[test]
    fn offsets_are_positive_and_bounded() {
        let c = cfg(1, 0.5);
        let fam = HashFamily::generate(16, 4, &c);
        let cap = 0.5 * 2f64.powi(MAX_LEVEL as i32);
        for h in fam.iter() {
            assert!(h.b >= 0.0 && h.b < cap);
            assert_eq!(h.dim(), 4);
            assert_eq!(h.width(), 0.5);
        }
    }

    #[test]
    fn bucket_is_floor_of_projection() {
        let c = cfg(2, 2.0);
        let fam = HashFamily::generate(1, 3, &c);
        let h = fam.get(0);
        let o = [0.3f32, -1.0, 2.5];
        assert_eq!(h.bucket(&o), (h.project(&o) / 2.0).floor() as i64);
    }

    #[test]
    fn empirical_collision_rate_matches_theory() {
        // Two points at distance s must collide with probability p(s, w)
        // over the random draw of the family. Use many functions as i.i.d.
        // trials.
        let w = 2.184;
        let c = cfg(77, w);
        let d = 24;
        let m = 8000;
        let fam = HashFamily::generate(m, d, &c);
        let o: Vec<f32> = vec![0.0; d];
        let mut q = vec![0.0f32; d];
        q[0] = 1.3; // distance 1.3
        let s = euclidean(&o, &q);
        let collisions = fam.iter().filter(|h| h.bucket(&o) == h.bucket(&q)).count();
        let empirical = collisions as f64 / m as f64;
        let theory = collision_probability(s, w);
        // Standard error ~ sqrt(p(1-p)/m) ≈ 0.005; allow 4 sigma.
        assert!((empirical - theory).abs() < 0.025, "empirical {empirical} vs theory {theory}");
    }

    #[test]
    fn virtual_rehash_consistency() {
        // floor(bucket / R) must equal floor((a·o + b) / (w R)).
        let w = 1.7;
        let c = cfg(3, w);
        let fam = HashFamily::generate(32, 6, &c);
        let o = [0.2f32, 5.0, -3.0, 0.7, 1.1, -0.4];
        for h in fam.iter() {
            for level in 0..10u32 {
                let r = 2i64.pow(level);
                let direct = (h.project(&o) / (w * r as f64)).floor() as i64;
                let derived = h.bucket(&o).div_euclid(r);
                assert_eq!(direct, derived, "level {level}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need m > 0")]
    fn rejects_empty_family() {
        HashFamily::generate(0, 4, &cfg(0, 1.0));
    }

    #[test]
    fn family_buckets_match_per_function_buckets() {
        let c = cfg(11, 1.3);
        let fam = HashFamily::generate(17, 13, &c);
        let o: Vec<f32> = (0..13).map(|i| (i as f32 * 0.9).sin() * 4.0).collect();
        let packed = fam.buckets(&o);
        let single: Vec<i64> = fam.iter().map(|h| h.bucket(&o)).collect();
        assert_eq!(packed, single);
    }

    #[test]
    fn batched_buckets_match_single_query_buckets() {
        use cc_vector::gen::{generate, Distribution};
        let c = cfg(19, 0.8);
        let d = 21;
        let fam = HashFamily::generate(9, d, &c);
        let queries = generate(
            Distribution::GaussianMixture { clusters: 4, spread: 0.05, scale: 3.0 },
            13,
            d,
            3,
        );
        let batched = fam.buckets_batch(&queries);
        for qi in 0..queries.len() {
            assert_eq!(&batched[qi * 9..(qi + 1) * 9], fam.buckets(queries.get(qi)), "q={qi}");
        }
    }
}
