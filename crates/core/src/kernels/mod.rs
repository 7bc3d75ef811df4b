//! Runtime-dispatched SIMD kernels for the two hot loops: the
//! projection behind hashing ([`KernelDispatch::hash_rows`], every row
//! of every build, load and ingest path and every query) and the bounded
//! squared distance behind candidate verification.
//!
//! ## Dispatch model
//!
//! There are two paths: AVX2 + FMA on x86-64 machines that have both,
//! and the scalar reference everywhere else. A [`Kernel`] names one of
//! them; [`KernelDispatch`] wraps a validated choice and exposes the
//! kernel entry points. The process picks its kernel **once**:
//! [`dispatch`] lazily initializes a global from runtime CPU feature
//! detection (`is_x86_feature_detected!`), or to scalar under
//! `CC_FORCE_SCALAR=1`. Both paths are testable in one process because
//! every entry point also exists on explicit [`KernelDispatch`] values:
//! the equivalence proptests run every available kernel against the
//! scalar oracle.
//!
//! A machine without AVX2 + FMA runs the scalar reference: compiled for
//! baseline x86-64 it hashed faster than a dedicated SSE2 kernel did
//! (EXPERIMENTS.md §W15).
//!
//! ## Bit-identity contract
//!
//! For a given input, both kernels return **bit-identical** results:
//!
//! * distance: same value as [`cc_vector::dist::euclidean_sq`], and for
//!   a finite bound the same `Some`/`None` abandon decision at the same
//!   [`cc_vector::dist::BOUND_CHECK_DIMS`] boundaries;
//! * projection: same value as [`scalar::dot`], the canonical lane-
//!   parallel schedule (which this module *defines* — the old
//!   sequential-`f64` `cc_vector::dist::dot` cannot be reproduced by a
//!   lane-parallel kernel, so hashing now funnels through this one), and
//!   the same bucket id from [`KernelDispatch::hash_rows`] as
//!   `⌊(scalar::dot + b) / w⌋`.
//!
//! A projection may fuse its multiply-adds: the product of two `f32`
//! values widened to `f64` is exact (48 significant bits, exponents far
//! inside `f64`'s range), so `fma(a, x, acc)` rounds once, exactly as
//! `acc + a·x` does. A distance may not: `(a − b)²` is formed in `f32`
//! and rounded, and fusing would skip that rounding.
//!
//! Kernel choice therefore never affects results, only speed: an index
//! built under AVX2 answers queries hashed under `CC_FORCE_SCALAR=1`
//! identically, sharded and service paths included.
//!
//! ## Safety
//!
//! This module (its `x86` submodule and the AVX2 call sites below) is
//! the only code in the crate allowed to use `unsafe` — the crate-level
//! lint is `deny(unsafe_code)` with narrow `allow`s here. The
//! obligations are (a) SIMD loads stay in bounds, guaranteed by
//! slice-length arithmetic at each load and, in the projection tile, by
//! [`HashTile`] holding exactly `d` coefficients per function, and (b)
//! AVX2 functions are only entered after `is_x86_feature_detected!`
//! found AVX2 and FMA, which [`KernelDispatch::new`] establishes and the
//! dispatch methods rely on.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// One implementation of the kernels. Both variants exist on every
/// architecture, but [`Kernel::Avx2`] is [`available`](Kernel::available)
/// only on an x86-64 machine with AVX2 and FMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The portable reference path ([`cc_vector::dist`] + [`scalar`]).
    Scalar,
    /// x86-64 AVX2 with FMA (both runtime-detected).
    Avx2,
}

impl Kernel {
    /// Stable lowercase name (bench reports, Prometheus).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Whether this kernel can run on the current machine.
    pub fn available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            // The projection tile fuses with FMA, which is a separate
            // feature: an AVX2 machine without it runs the scalar path.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => false,
        }
    }

    /// The best kernel the current machine supports.
    pub fn detect() -> Kernel {
        if Kernel::Avx2.available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        }
    }

    /// Every kernel available on this machine (scalar first) — the
    /// iteration set of the equivalence tests.
    pub fn all_available() -> Vec<Kernel> {
        [Kernel::Scalar, Kernel::Avx2].into_iter().filter(|k| k.available()).collect()
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated kernel choice; construction proves availability, so the
/// dispatch methods may enter `#[target_feature]` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    kernel: Kernel,
}

impl KernelDispatch {
    /// Wrap `kernel`, verifying it can run on this machine.
    pub fn new(kernel: Kernel) -> Result<Self, String> {
        if kernel.available() {
            Ok(Self { kernel })
        } else {
            Err(format!("kernel '{}' is not available on this machine", kernel.name()))
        }
    }

    /// The selected kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Early-abandoning squared Euclidean distance; contract identical
    /// to [`cc_vector::dist::euclidean_sq_bounded`], results
    /// bit-identical across kernels. A bound of `f64::INFINITY` never
    /// abandons and returns the full distance.
    ///
    /// # Panics
    /// Panics when the slices disagree on length.
    #[inline]
    #[allow(unsafe_code)]
    pub fn euclidean_sq_bounded(&self, a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch::new` only admits Avx2 after
            // `is_x86_feature_detected!("avx2")` succeeded.
            Kernel::Avx2 => unsafe { x86::sq_avx2(a, b, bound) },
            _ => cc_vector::dist::euclidean_sq_bounded(a, b, bound),
        }
    }

    /// Projection dot product `Σ a[i]·q[i]` under the canonical
    /// lane-parallel schedule ([`scalar::dot`]), bit-identical across
    /// kernels.
    ///
    /// # Panics
    /// Panics when the slices disagree on length.
    #[inline]
    #[allow(unsafe_code)]
    pub fn dot(&self, a: &[f32], q: &[f32]) -> f64 {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch::new` only admits Avx2 after
            // `is_x86_feature_detected!("avx2")` succeeded.
            Kernel::Avx2 => unsafe { x86::dot_avx2(a, q) },
            _ => scalar::dot(a, q),
        }
    }

    /// Bucket ids `⌊(a·row + b) / w⌋` of every row of the row-major
    /// `rows` under every function of `tile`: row `r`'s id under function
    /// `f` lands at `out[r * stride.0 + f * stride.1]`. Each projection is
    /// bit-identical to [`scalar::dot`] plus the offset, so the ids equal
    /// [`crate::PstableHash::bucket`]'s under every kernel.
    ///
    /// AVX2 runs a tile of its own; the scalar path takes each
    /// function's projection with [`scalar::dot`].
    ///
    /// # Panics
    /// Panics when `rows` is not whole rows of the tile's dimension or
    /// `out` is too short for the strides.
    #[allow(unsafe_code)]
    pub fn hash_rows(
        &self,
        tile: &HashTile<'_>,
        rows: &[f32],
        out: &mut [i64],
        stride: (usize, usize),
    ) {
        assert!(rows.len().is_multiple_of(tile.dim()), "rows of the tile's dimension");
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch::new` only admits Avx2 after
            // `is_x86_feature_detected!` found both AVX2 and FMA.
            Kernel::Avx2 => unsafe { x86::hash_rows_avx2(tile, rows, out, stride) },
            _ => each_row(tile, rows, out, stride, |row| tile.ids(|a| scalar::dot(a, row))),
        }
    }
}

/// Functions [`KernelDispatch::hash_rows`] hashes a row against in one
/// pass: each row chunk is widened once for all of them.
pub const TILE: usize = 8;

/// One to [`TILE`] p-stable functions over the same `d` dimensions, as
/// [`KernelDispatch::hash_rows`] takes them. A tile of fewer functions
/// repeats its last one, so every kernel runs the one eight-function
/// tile and only the first `k` ids are stored.
#[derive(Debug, Clone, Copy)]
pub struct HashTile<'a> {
    /// Coefficients of each function, `d` each.
    a: [&'a [f32]; TILE],
    /// Offsets `b`.
    b: [f64; TILE],
    /// Bucket widths `w`.
    w: [f64; TILE],
    /// Functions whose ids are stored.
    k: usize,
}

impl<'a> HashTile<'a> {
    /// The tile of `offsets.len()` functions: function `f` has the
    /// coefficients `coeffs[f * d..(f + 1) * d]`, offset `offsets[f]`
    /// and width `widths[f]`.
    ///
    /// # Panics
    /// Panics unless there are 1 to [`TILE`] functions of one positive
    /// dimension, each with an offset and a width.
    pub fn new(coeffs: &'a [f32], offsets: &[f64], widths: &[f64]) -> Self {
        let k = offsets.len();
        assert!((1..=TILE).contains(&k), "1 to {TILE} functions in a tile, not {k}");
        assert_eq!(widths.len(), k, "a width per function");
        assert!(
            !coeffs.is_empty() && coeffs.len().is_multiple_of(k),
            "coefficients of one dimension"
        );
        let d = coeffs.len() / k;
        HashTile {
            a: std::array::from_fn(|f| &coeffs[f.min(k - 1) * d..][..d]),
            b: std::array::from_fn(|f| offsets[f.min(k - 1)]),
            w: std::array::from_fn(|f| widths[f.min(k - 1)]),
            k,
        }
    }

    /// Dimensions of every function.
    pub fn dim(&self) -> usize {
        self.a[0].len()
    }

    /// The bucket ids `⌊(project(a) + b) / w⌋` of one row under the
    /// tile's functions, `project` taking the row's dot product with a
    /// function's coefficients `a`.
    #[inline(always)]
    fn ids(&self, project: impl Fn(&[f32]) -> f64) -> [i64; TILE] {
        std::array::from_fn(|f| ((project(self.a[f]) + self.b[f]) / self.w[f]).floor() as i64)
    }

    /// Per function, the projection of the elements past the last whole
    /// chunk of [`scalar::PROJ_LANES`], summed in order as [`scalar::dot`]
    /// sums them.
    #[inline(always)]
    fn tails(&self, row: &[f32]) -> [f64; TILE] {
        let split = row.len() - row.len() % scalar::PROJ_LANES;
        if split == row.len() {
            return [0.0; TILE];
        }
        std::array::from_fn(|f| {
            let products = self.a[f][split..].iter().zip(&row[split..]);
            products.fold(0.0, |tail, (x, y)| tail + f64::from(*x) * f64::from(*y))
        })
    }
}

/// Run `hash` over each row of `rows` and store the bucket ids of the
/// tile's first `k` functions where [`KernelDispatch::hash_rows`] says.
#[inline(always)]
fn each_row(
    tile: &HashTile<'_>,
    rows: &[f32],
    out: &mut [i64],
    (row_stride, fn_stride): (usize, usize),
    mut hash: impl FnMut(&[f32]) -> [i64; TILE],
) {
    for (r, row) in rows.chunks_exact(tile.dim()).enumerate() {
        let ids = hash(row);
        for (f, &id) in ids[..tile.k].iter().enumerate() {
            out[r * row_stride + f * fn_stride] = id;
        }
    }
}

/// Hint the CPU to pull `slice[i]`'s cache line toward L1 (out-of-bounds
/// indices are ignored; a no-op on architectures without a stable
/// prefetch intrinsic). The counting loop issues this a few entries
/// ahead of its random-access counter updates so the line arrives
/// before the increment needs it, and a store that hands out many short
/// slices asks for the head of each before the first is consumed.
/// Purely a performance hint — prefetch cannot fault and has no
/// architectural effect.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch_read<T>(slice: &[T], i: usize) {
    if let Some(word) = slice.get(i) {
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "sse")]
            #[inline]
            fn hint(p: *const i8) {
                // PREFETCHT0 is a hint with no architectural effect; it
                // cannot fault on any address, and inside this
                // `target_feature(sse)` context the intrinsic call is
                // safe.
                core::arch::x86_64::_mm_prefetch(p, core::arch::x86_64::_MM_HINT_T0);
            }
            // SAFETY: SSE is part of the x86-64 baseline.
            unsafe { hint(word as *const T as *const i8) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = word;
        }
    }
}

/// The process-wide kernel dispatch, chosen once at first use: scalar
/// under `CC_FORCE_SCALAR=1`, otherwise the best detected ISA.
pub fn dispatch() -> &'static KernelDispatch {
    static GLOBAL: OnceLock<KernelDispatch> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let forced = std::env::var("CC_FORCE_SCALAR").is_ok_and(|v| v == "1");
        let kernel = if forced { Kernel::Scalar } else { Kernel::detect() };
        KernelDispatch::new(kernel).expect("the chosen kernel is always available")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(d: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        // Deterministic pseudo-random data without a rand dependency.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let a = (0..d).map(|_| next()).collect();
        let b = (0..d).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn kernels_every_available_distance_matches_scalar_bitwise() {
        for kernel in Kernel::all_available() {
            let kd = KernelDispatch::new(kernel).unwrap();
            for d in [1usize, 7, 8, 9, 63, 64, 65, 128, 200, 511] {
                let (a, b) = vecs(d, 0x9E37 + d as u64);
                let exact = cc_vector::dist::euclidean_sq(&a, &b);
                let v = kd.euclidean_sq_bounded(&a, &b, f64::INFINITY).unwrap();
                assert_eq!(v.to_bits(), exact.to_bits(), "{kernel} d={d}");
                // Same abandon decision as the scalar oracle at a mid
                // bound.
                let mid = exact * 0.5;
                let scalar = cc_vector::dist::euclidean_sq_bounded(&a, &b, mid);
                assert_eq!(
                    kd.euclidean_sq_bounded(&a, &b, mid).map(f64::to_bits),
                    scalar.map(f64::to_bits),
                    "{kernel} abandon d={d}"
                );
            }
        }
    }

    #[test]
    fn kernels_every_available_projection_matches_scalar_bitwise() {
        for kernel in Kernel::all_available() {
            let kd = KernelDispatch::new(kernel).unwrap();
            for d in [1usize, 4, 7, 8, 9, 16, 127, 128, 129, 512] {
                let (a, q) = vecs(d, 0x51D7 + d as u64);
                let exact = scalar::dot(&a, &q);
                assert_eq!(kd.dot(&a, &q).to_bits(), exact.to_bits(), "{kernel} d={d}");
            }
        }
    }

    /// The exact-product argument, then the hashing tile on the values
    /// that would expose a product rounded before its add: a projection
    /// of `2^-46` or `−2^-46` next to a bucket edge (`(1 + 2^-23)²` is
    /// not an `f32`), projections cancelling to zero against offsets of
    /// both signs, subnormals and `f32::MAX`.
    #[test]
    fn kernels_hash_rows_at_f32_extremes() {
        let e = 1.0 + f32::EPSILON;
        let values = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -1e-40,
            f32::MAX,
            -f32::MAX,
            1e38,
            e,
            -e,
            1.0 + 2.0 * f32::EPSILON,
            -3.0,
        ];
        let accs = [0.0, -0.0, 1.0, -1.0 - 2f64.powi(-22), -1e300, f64::MIN_POSITIVE];
        for a in values.map(f64::from) {
            for x in values.map(f64::from) {
                for acc in accs {
                    assert_eq!(
                        a.mul_add(x, acc).to_bits(),
                        (acc + a * x).to_bits(),
                        "{a} {x} {acc}"
                    );
                }
            }
        }

        let d = 9;
        let crafted: [(Vec<f32>, Vec<f32>); 4] = [
            // e² − (1 + 2^-22) = 2^-46: bucket 0, and −2^-46: bucket −1.
            (vec![e, -1.0], vec![e, 1.0 + 2.0 * f32::EPSILON]),
            (vec![e, -1.0], vec![-e, -1.0 - 2.0 * f32::EPSILON]),
            // Eight products cancelling exactly across the lanes.
            (vec![e; 8], vec![e, -e, e, -e, e, -e, e, -e]),
            (vec![f32::MAX, f32::MAX], vec![f32::MAX, -f32::MAX]),
        ];
        let pad = |mut v: Vec<f32>| {
            v.resize(d, 0.0);
            v
        };
        let (mut coeffs, mut rows): (Vec<f32>, Vec<f32>) = (Vec::new(), Vec::new());
        for (a, row) in crafted {
            coeffs.extend(pad(a));
            rows.extend(pad(row));
        }
        for i in 0..4 * d {
            coeffs.push(values[i % values.len()]);
            rows.push(values[(3 * i + 1) % values.len()]);
        }
        let offsets = [0.0, -0.0, 0.0, -0.0, 0.5, -1e300, 2.0, 0.0];
        let widths = [1.0, 1.0, 1.0, 1.0, 1.3, 0.7, f64::MIN_POSITIVE, 1e-3];
        let (coeffs, rows) = (&coeffs, &rows);
        for k in [1, 5, 8] {
            let tile = HashTile::new(&coeffs[..k * d], &offsets[..k], &widths[..k]);
            let oracle: Vec<i64> = rows
                .chunks_exact(d)
                .flat_map(|row| {
                    (0..k).map(move |f| {
                        let dot = scalar::dot(&coeffs[f * d..(f + 1) * d], row);
                        ((dot + offsets[f]) / widths[f]).floor() as i64
                    })
                })
                .collect();
            if k == 8 {
                assert_eq!([oracle[0], oracle[9], oracle[18], oracle[27]], [0, -1, 0, 0]);
            }
            for kernel in Kernel::all_available() {
                let mut got = vec![7; oracle.len()];
                KernelDispatch::new(kernel).unwrap().hash_rows(&tile, rows, &mut got, (k, 1));
                assert_eq!(got, oracle, "{kernel} k={k}");
            }
        }
    }

    #[test]
    fn kernels_detection() {
        assert!(Kernel::Scalar.available());
        // The AVX2 kernel fuses projections, so it is admitted only with
        // FMA; every other machine runs the scalar reference.
        #[cfg(target_arch = "x86_64")]
        let simd = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let simd = false;
        assert_eq!(Kernel::Avx2.available(), simd);
        assert_eq!(Kernel::detect(), if simd { Kernel::Avx2 } else { Kernel::Scalar });
        let all: &[Kernel] = if simd { &[Kernel::Scalar, Kernel::Avx2] } else { &[Kernel::Scalar] };
        assert_eq!(Kernel::all_available(), all);
    }

    #[test]
    fn kernels_dispatch_is_available_and_stable() {
        let a = dispatch();
        let b = dispatch();
        assert_eq!(a.kernel(), b.kernel());
        assert!(a.kernel().available());
    }

    #[test]
    fn kernels_unavailable_kernel_rejected() {
        assert_eq!(KernelDispatch::new(Kernel::Avx2).is_ok(), Kernel::Avx2.available());
    }
}
