//! The x86-64 kernels: AVX2 with FMA (runtime-detected) on stable
//! `core::arch`.
//!
//! # Bit-identity
//!
//! The kernels replicate the scalar schedules operation-for-operation:
//!
//! * **Distance** ([`cc_vector::dist`]): eight `f32` accumulator lanes in
//!   one 256-bit register, lane `i` accumulating elements `i, i+8, …`.
//!   Subtract, multiply and add are separate IEEE-rounded ops (**no
//!   FMA** — the `f32` product `d·d` is rounded before the add, and a
//!   fused op would skip that rounding), the combine pairs lane `i` with
//!   `i+4` and folds in the scalar `combine`'s association, and the bound
//!   checks sit at the same [`BOUND_CHECK_DIMS`] block boundaries.
//! * **Projection** ([`super::scalar`]): eight `f64` accumulator lanes
//!   per function in two 256-bit registers, combine
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, sequential `f64` tail
//!   added last. Products are formed in `f64` from `f32` inputs, so they
//!   are exact. The hashing tile fuses them into the accumulators with
//!   `_mm256_fmadd_pd`, one rounding either way: it widens each chunk of
//!   eight row elements once and runs it against eight functions, whose
//!   `f32` coefficients are widened in registers, and its epilogue
//!   combines four functions at a time, adds the tails and offsets,
//!   divides by the widths and floors.
//!
//! Per-lane IEEE ops are identical scalar-vs-packed, conversions are
//! exact, and the reduction order is fixed — so results (including the
//! bounded kernel's `Some`/`None` decisions) are bit-identical to the
//! scalar oracle. Pinned by `tests/proptest_kernels.rs`.
//!
//! # Safety
//!
//! This module is the reason the crate relaxed `#![forbid(unsafe_code)]`
//! to `deny` + scoped allows. The only unsafe operations are unaligned
//! SIMD loads and stores (`_mm*_loadu_*`, `_mm*_storeu_*`) whose
//! in-bounds-ness is guaranteed by the surrounding slice arithmetic, and
//! calls to `#[target_feature(enable = "avx2")]` functions, which
//! [`super::KernelDispatch`] only makes after `is_x86_feature_detected!`
//! found AVX2 and FMA. The two reductions use SSE2 instructions only,
//! which are part of the x86-64 baseline.
#![allow(unsafe_code)]

use super::scalar::PROJ_LANES;
use super::{HashTile, TILE};
use cc_vector::dist::{BOUND_CHECK_DIMS, LANES};
use core::arch::x86_64::*;

/// Reduce the 8-lane f32 accumulator (as one 256-bit register) exactly
/// like the scalar `combine`: `((a0+a4) + (a2+a6)) + ((a1+a5) + (a3+a7))`
/// with the pairwise sums in f32 and the folds in f64.
#[inline]
#[target_feature(enable = "avx2")]
fn combine_avx2(acc: __m256) -> f64 {
    let lo = _mm256_castps256_ps128(acc); // lanes 0..4
    let hi = _mm256_extractf128_ps::<1>(acc); // lanes 4..8
    combine_halves(lo, hi)
}

/// The same reduction from the accumulator's two 128-bit halves (`lo`
/// holds lanes 0..4, `hi` lanes 4..8).
#[inline]
#[target_feature(enable = "sse2")]
fn combine_halves(lo: __m128, hi: __m128) -> f64 {
    let s = _mm_add_ps(lo, hi); // [a0+a4, a1+a5, a2+a6, a3+a7], f32
    let d_lo = _mm_cvtps_pd(s); // [s0, s1] exact as f64
    let d_hi = _mm_cvtps_pd(_mm_movehl_ps(s, s)); // [s2, s3]
    let t = _mm_add_pd(d_lo, d_hi); // [s0+s2, s1+s3]
    _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t))
}

/// AVX2 squared-distance kernel with the early-abandon checks of
/// [`cc_vector::dist::euclidean_sq_bounded`]. Callers must have verified
/// AVX2 support.
#[inline]
#[target_feature(enable = "avx2")]
pub fn sq_avx2(a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let whole = split - split % BOUND_CHECK_DIMS;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i < whole {
        let block_end = i + BOUND_CHECK_DIMS;
        while i < block_end {
            // SAFETY: i + LANES <= whole <= a.len() == b.len().
            let x = unsafe { _mm256_loadu_ps(a.as_ptr().add(i)) };
            let y = unsafe { _mm256_loadu_ps(b.as_ptr().add(i)) };
            let d = _mm256_sub_ps(x, y);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
            i += LANES;
        }
        if combine_avx2(acc) > bound {
            return None;
        }
    }
    while i < split {
        // SAFETY: i + LANES <= split <= a.len() == b.len().
        let x = unsafe { _mm256_loadu_ps(a.as_ptr().add(i)) };
        let y = unsafe { _mm256_loadu_ps(b.as_ptr().add(i)) };
        let d = _mm256_sub_ps(x, y);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        i += LANES;
    }
    if !split.is_multiple_of(BOUND_CHECK_DIMS) && combine_avx2(acc) > bound {
        return None;
    }
    let mut tail = 0.0f32;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        let d = x - y;
        tail += d * d;
    }
    Some(combine_avx2(acc) + f64::from(tail))
}

/// Reduce the eight f64 projection lanes, held as four 128-bit pairs
/// (`acc01` holds lanes 0–1, `acc23` lanes 2–3, …), exactly like the
/// scalar combine.
#[inline]
#[target_feature(enable = "sse2")]
fn combine_proj_pairs(acc01: __m128d, acc23: __m128d, acc45: __m128d, acc67: __m128d) -> f64 {
    let t04 = _mm_add_pd(acc01, acc45); // [l0+l4, l1+l5]
    let t26 = _mm_add_pd(acc23, acc67); // [l2+l6, l3+l7]
    let u = _mm_add_pd(t04, t26); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7)]
    _mm_cvtsd_f64(u) + _mm_cvtsd_f64(_mm_unpackhi_pd(u, u))
}

/// AVX2 projection dot product (eight f64 lanes in two registers).
#[inline]
#[target_feature(enable = "avx2")]
pub fn dot_avx2(a: &[f32], q: &[f32]) -> f64 {
    assert_eq!(a.len(), q.len(), "dimension mismatch: {} vs {}", a.len(), q.len());
    let split = a.len() - a.len() % super::scalar::PROJ_LANES;
    let mut acc_a = _mm256_setzero_pd(); // scalar lanes 0..4
    let mut acc_b = _mm256_setzero_pd(); // scalar lanes 4..8
    let mut i = 0usize;
    while i < split {
        // SAFETY: i + 8 <= split <= a.len() == q.len().
        let x_lo = unsafe { _mm_loadu_ps(a.as_ptr().add(i)) };
        let x_hi = unsafe { _mm_loadu_ps(a.as_ptr().add(i + 4)) };
        let y_lo = unsafe { _mm_loadu_ps(q.as_ptr().add(i)) };
        let y_hi = unsafe { _mm_loadu_ps(q.as_ptr().add(i + 4)) };
        acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(_mm256_cvtps_pd(x_lo), _mm256_cvtps_pd(y_lo)));
        acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(_mm256_cvtps_pd(x_hi), _mm256_cvtps_pd(y_hi)));
        i += super::scalar::PROJ_LANES;
    }
    // Split each 256-bit accumulator into its 128-bit halves (lanes
    // [0,1]/[2,3] and [4,5]/[6,7]) — value-identical to the scalar
    // combine.
    let main = combine_proj_pairs(
        _mm256_castpd256_pd128(acc_a),
        _mm256_extractf128_pd::<1>(acc_a),
        _mm256_castpd256_pd128(acc_b),
        _mm256_extractf128_pd::<1>(acc_b),
    );
    let mut tail = 0.0f64;
    for (x, y) in a[split..].iter().zip(&q[split..]) {
        tail += f64::from(*x) * f64::from(*y);
    }
    main + tail
}

/// AVX2 + FMA hashing tile: [`super::KernelDispatch::hash_rows`].
#[target_feature(enable = "avx2,fma")]
pub fn hash_rows_avx2(tile: &HashTile<'_>, rows: &[f32], out: &mut [i64], stride: (usize, usize)) {
    super::each_row(tile, rows, out, stride, |row| hash_row_avx2(tile, row));
}

/// The bucket ids of one row under the tile's eight functions.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn hash_row_avx2(tile: &HashTile<'_>, row: &[f32]) -> [i64; TILE] {
    assert_eq!(row.len(), tile.dim(), "row of the tile's dimension");
    let split = row.len() - row.len() % PROJ_LANES;
    // Lanes 0..4 of every function, then lanes 4..8: each half of a row
    // chunk is widened once for all eight functions, and a pass keeps
    // only its eight accumulators live.
    let mut acc = [[_mm256_setzero_pd(); TILE]; 2];
    for (half, acc) in acc.iter_mut().enumerate() {
        let mut i = 4 * half;
        while i < split {
            // SAFETY: i + 4 <= split <= row.len(), and every function of
            // the tile has row.len() coefficients (`HashTile::new`).
            let x = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(row.as_ptr().add(i)) });
            for (acc, a) in acc.iter_mut().zip(&tile.a) {
                let a = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(a.as_ptr().add(i)) });
                *acc = _mm256_fmadd_pd(a, x, *acc);
            }
            i += PROJ_LANES;
        }
    }
    let [lo, hi] = acc;
    let tails = tile.tails(row);
    let mut quotients = [0.0f64; TILE];
    for q in [0, 4] {
        // Per function s = [l0+l4, l1+l5, l2+l6, l3+l7]; transposed, the
        // four functions' (s0+s2) + (s1+s3) are three packed adds.
        let s: [__m256d; 4] = std::array::from_fn(|j| _mm256_add_pd(lo[q + j], hi[q + j]));
        let t0 = _mm256_unpacklo_pd(s[0], s[1]); // [f0.s0, f1.s0, f0.s2, f1.s2]
        let t1 = _mm256_unpackhi_pd(s[0], s[1]); // [f0.s1, f1.s1, f0.s3, f1.s3]
        let t2 = _mm256_unpacklo_pd(s[2], s[3]);
        let t3 = _mm256_unpackhi_pd(s[2], s[3]);
        let even = _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
        );
        let odd = _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        );
        let main = _mm256_add_pd(even, odd);
        // SAFETY: q + 4 <= TILE, the length of all four arrays.
        unsafe {
            let at = |v: &[f64; TILE]| _mm256_loadu_pd(v.as_ptr().add(q));
            let p = _mm256_add_pd(_mm256_add_pd(main, at(&tails)), at(&tile.b));
            let floored = _mm256_floor_pd(_mm256_div_pd(p, at(&tile.w)));
            _mm256_storeu_pd(quotients.as_mut_ptr().add(q), floored);
        }
    }
    quotients.map(|q| q as i64)
}
