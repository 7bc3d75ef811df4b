//! x86-64 kernels: AVX2 with FMA (runtime-detected) and SSE2 (baseline,
//! always present on x86-64) on stable `core::arch`.
//!
//! # Bit-identity
//!
//! Both kernels replicate the scalar schedules operation-for-operation:
//!
//! * **Distance** ([`cc_vector::dist`]): eight `f32` accumulator lanes,
//!   lane `i` accumulating elements `i, i+8, …` — AVX2 keeps them in one
//!   256-bit register, SSE2 in two 128-bit registers. Subtract, multiply
//!   and add are separate IEEE-rounded ops (**no FMA** — the `f32`
//!   product `d·d` is rounded before the add, and a fused op would skip
//!   that rounding), the combine pairs lane `i` with `i+4` and folds in
//!   the scalar `combine`'s association, and the bound checks sit at the
//!   same [`BOUND_CHECK_DIMS`] block boundaries.
//! * **Projection** ([`super::scalar`]): eight `f64` accumulator lanes
//!   per function (two 256-bit / four 128-bit registers), combine
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, sequential `f64` tail
//!   added last. Products are formed in `f64` from `f32` inputs, so they
//!   are exact. The AVX2 hashing tile fuses them into the accumulators
//!   with `_mm256_fmadd_pd`, one rounding either way: it widens each
//!   chunk of eight row elements once and runs it against eight
//!   functions, whose `f32` coefficients are widened in registers, and
//!   its epilogue combines four functions at a time, adds the tails and
//!   offsets, divides by the widths and floors. SSE2 hashes through
//!   [`dot_sse2`], one function at a time.
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
//! found AVX2 and FMA. SSE2 is part of the x86-64 baseline, so the SSE2
//! functions are callable safely.
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
    combine_sse2(lo, hi)
}

/// The same reduction from the two-register SSE2 layout (`lo` holds
/// lanes 0..4, `hi` lanes 4..8).
#[inline]
#[target_feature(enable = "sse2")]
fn combine_sse2(lo: __m128, hi: __m128) -> f64 {
    let s = _mm_add_ps(lo, hi); // [a0+a4, a1+a5, a2+a6, a3+a7], f32
    let d_lo = _mm_cvtps_pd(s); // [s0, s1] exact as f64
    let d_hi = _mm_cvtps_pd(_mm_movehl_ps(s, s)); // [s2, s3]
    let t = _mm_add_pd(d_lo, d_hi); // [s0+s2, s1+s3]
    _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t))
}

/// AVX2 squared-distance kernel, `BOUNDED` adds the early-abandon
/// checks. Callers must have verified AVX2 support.
#[inline]
#[target_feature(enable = "avx2")]
pub fn sq_avx2<const BOUNDED: bool>(a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    if BOUNDED {
        let whole = split - split % BOUND_CHECK_DIMS;
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
    }
    while i < split {
        // SAFETY: i + LANES <= split <= a.len() == b.len().
        let x = unsafe { _mm256_loadu_ps(a.as_ptr().add(i)) };
        let y = unsafe { _mm256_loadu_ps(b.as_ptr().add(i)) };
        let d = _mm256_sub_ps(x, y);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        i += LANES;
    }
    if BOUNDED && !split.is_multiple_of(BOUND_CHECK_DIMS) && combine_avx2(acc) > bound {
        return None;
    }
    let mut tail = 0.0f32;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        let d = x - y;
        tail += d * d;
    }
    Some(combine_avx2(acc) + f64::from(tail))
}

/// SSE2 squared-distance kernel (two 4-wide accumulator registers).
#[inline]
#[target_feature(enable = "sse2")]
pub fn sq_sse2<const BOUNDED: bool>(a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let mut acc_lo = _mm_setzero_ps(); // scalar lanes 0..4
    let mut acc_hi = _mm_setzero_ps(); // scalar lanes 4..8
    let mut i = 0usize;
    if BOUNDED {
        let whole = split - split % BOUND_CHECK_DIMS;
        while i < whole {
            let block_end = i + BOUND_CHECK_DIMS;
            while i < block_end {
                // SAFETY: i + LANES <= whole <= a.len() == b.len().
                let x0 = unsafe { _mm_loadu_ps(a.as_ptr().add(i)) };
                let y0 = unsafe { _mm_loadu_ps(b.as_ptr().add(i)) };
                let x1 = unsafe { _mm_loadu_ps(a.as_ptr().add(i + 4)) };
                let y1 = unsafe { _mm_loadu_ps(b.as_ptr().add(i + 4)) };
                let d0 = _mm_sub_ps(x0, y0);
                let d1 = _mm_sub_ps(x1, y1);
                acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(d0, d0));
                acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(d1, d1));
                i += LANES;
            }
            if combine_sse2(acc_lo, acc_hi) > bound {
                return None;
            }
        }
    }
    while i < split {
        // SAFETY: i + LANES <= split <= a.len() == b.len().
        let x0 = unsafe { _mm_loadu_ps(a.as_ptr().add(i)) };
        let y0 = unsafe { _mm_loadu_ps(b.as_ptr().add(i)) };
        let x1 = unsafe { _mm_loadu_ps(a.as_ptr().add(i + 4)) };
        let y1 = unsafe { _mm_loadu_ps(b.as_ptr().add(i + 4)) };
        let d0 = _mm_sub_ps(x0, y0);
        let d1 = _mm_sub_ps(x1, y1);
        acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(d0, d0));
        acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(d1, d1));
        i += LANES;
    }
    if BOUNDED && !split.is_multiple_of(BOUND_CHECK_DIMS) && combine_sse2(acc_lo, acc_hi) > bound {
        return None;
    }
    let mut tail = 0.0f32;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        let d = x - y;
        tail += d * d;
    }
    Some(combine_sse2(acc_lo, acc_hi) + f64::from(tail))
}

/// Reduce the four 2-wide f64 projection accumulators (`acc01` holds
/// lanes 0–1, `acc23` lanes 2–3, …) exactly like the scalar combine.
#[inline]
#[target_feature(enable = "sse2")]
fn combine_proj_sse2(acc01: __m128d, acc23: __m128d, acc45: __m128d, acc67: __m128d) -> f64 {
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
    // Reduce via the SSE2 four-register shape: split each 256-bit
    // accumulator into its 128-bit halves (lanes [0,1]/[2,3] and
    // [4,5]/[6,7]) — value-identical to the scalar combine.
    let main = combine_proj_sse2(
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

/// SSE2 projection dot product (eight f64 lanes in four registers).
#[inline]
#[target_feature(enable = "sse2")]
pub fn dot_sse2(a: &[f32], q: &[f32]) -> f64 {
    assert_eq!(a.len(), q.len(), "dimension mismatch: {} vs {}", a.len(), q.len());
    let split = a.len() - a.len() % super::scalar::PROJ_LANES;
    let mut acc01 = _mm_setzero_pd();
    let mut acc23 = _mm_setzero_pd();
    let mut acc45 = _mm_setzero_pd();
    let mut acc67 = _mm_setzero_pd();
    let mut i = 0usize;
    while i < split {
        // SAFETY: i + 8 <= split <= a.len() == q.len().
        let x_lo = unsafe { _mm_loadu_ps(a.as_ptr().add(i)) };
        let x_hi = unsafe { _mm_loadu_ps(a.as_ptr().add(i + 4)) };
        let y_lo = unsafe { _mm_loadu_ps(q.as_ptr().add(i)) };
        let y_hi = unsafe { _mm_loadu_ps(q.as_ptr().add(i + 4)) };
        let x01 = _mm_cvtps_pd(x_lo);
        let x23 = _mm_cvtps_pd(_mm_movehl_ps(x_lo, x_lo));
        let x45 = _mm_cvtps_pd(x_hi);
        let x67 = _mm_cvtps_pd(_mm_movehl_ps(x_hi, x_hi));
        let y01 = _mm_cvtps_pd(y_lo);
        let y23 = _mm_cvtps_pd(_mm_movehl_ps(y_lo, y_lo));
        let y45 = _mm_cvtps_pd(y_hi);
        let y67 = _mm_cvtps_pd(_mm_movehl_ps(y_hi, y_hi));
        acc01 = _mm_add_pd(acc01, _mm_mul_pd(x01, y01));
        acc23 = _mm_add_pd(acc23, _mm_mul_pd(x23, y23));
        acc45 = _mm_add_pd(acc45, _mm_mul_pd(x45, y45));
        acc67 = _mm_add_pd(acc67, _mm_mul_pd(x67, y67));
        i += super::scalar::PROJ_LANES;
    }
    let main = combine_proj_sse2(acc01, acc23, acc45, acc67);
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
