//! The x86-64 kernels: AVX2 with FMA (runtime-detected) on stable
//! `core::arch`.
//!
//! # Bit-identity
//!
//! The distance kernel and the projection replicate the scalar schedules
//! operation for operation; the hashing tile certifies instead:
//!
//! * **Distance** ([`cc_vector::dist`]): eight `f32` accumulator lanes in
//!   one 256-bit register, lane `i` accumulating elements `i, i+8, …`.
//!   Subtract, multiply and add are separate IEEE-rounded ops (**no
//!   FMA** — the `f32` product `d·d` is rounded before the add, and a
//!   fused op would skip that rounding), the combine pairs lane `i` with
//!   `i+4` and folds in the scalar `combine`'s association, and the bound
//!   checks sit at the same [`BOUND_CHECK_DIMS`] block boundaries.
//! * **Projection** ([`dot_avx2`], the reference schedule of
//!   [`super::scalar`]): eight `f64` accumulator lanes per function in two
//!   256-bit registers, combine `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`,
//!   sequential `f64` tail added last. Products of `f32` inputs formed in
//!   `f64` are exact.
//! * **Hashing tile** ([`hash_rows_avx2`]): projects in `f32`, one fused
//!   multiply-add per function and chunk of eight elements, reduced in
//!   three levels of pairwise adds, and keeps `⌊(p̂ + b) / w⌋` only where
//!   [`super::Margin`] proves the reference's quotient has the same
//!   floor; every other id is taken again with [`dot_avx2`].
//!
//! So distances (including the bounded kernel's `Some`/`None`
//! decisions), projections and bucket ids are bit-identical to the
//! scalar oracle, pinned by `tests/proptest_kernels.rs`.
//!
//! # Safety
//!
//! This module is the reason the crate relaxed `#![forbid(unsafe_code)]`
//! to `deny` + scoped allows. The only unsafe operations are unaligned
//! SIMD loads and stores (`_mm*_loadu_*`, `_mm*_storeu_*`) whose
//! in-bounds-ness is guaranteed by the surrounding slice arithmetic,
//! masked loads (`_mm256_maskload_ps`) whose masks admit only the lanes
//! inside the slice, and calls to `#[target_feature(enable = "avx2")]`
//! functions, which [`super::KernelDispatch`] only makes after
//! `is_x86_feature_detected!` found AVX2 and FMA. The two reductions use
//! SSE2 instructions only, which are part of the x86-64 baseline.
#![allow(unsafe_code)]

use super::{HashTile, F64_ROUNDING, TILE};
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

/// Rows projected before their ids are certified: a block of
/// independent rows overlaps each row's long chains of dependent ops.
const BLOCK: usize = 16;

/// AVX2 + FMA hashing tile: [`super::KernelDispatch::hash_rows`].
#[target_feature(enable = "avx2,fma")]
pub fn hash_rows_avx2(tile: &HashTile<'_>, rows: &[f32], out: &mut [i64], stride: (usize, usize)) {
    let d = tile.dim();
    if rows.len() == d {
        // A query's one row needs no block.
        let [one] = project(tile, [rows]);
        return super::each_row(tile, rows, out, stride, |_, row| certify(tile, row, one));
    }
    let mut projected = [(_mm256_setzero_ps(), 0.0); BLOCK];
    for (b, block) in rows.chunks(BLOCK * d).enumerate() {
        for (slots, rows) in projected.chunks_exact_mut(2).zip(block.chunks(2 * d)) {
            match rows.split_at_checked(d) {
                Some((one, two)) if !two.is_empty() => {
                    slots.copy_from_slice(&project(tile, [one, two]))
                }
                _ => slots[..1].copy_from_slice(&project(tile, [rows])),
            }
        }
        let out = &mut out[b * BLOCK * stride.0..];
        super::each_row(tile, block, out, stride, |r, row| certify(tile, row, projected[r]));
    }
}

/// Lane masks for a chunk of `r` elements: `&TAIL_MASKS[8 - r..][..8]`.
static TAIL_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// `R` (1 or 2) rows' `f32` projections (lane `f` for function `f`), each
/// with an upper bound of the row's norm. The rows share each coefficient
/// load, `8 / R` functions a pass, so eight accumulators are live.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn project<const R: usize>(tile: &HashTile<'_>, rows: [&[f32]; R]) -> [(__m256, f64); R] {
    let d = tile.dim();
    assert!(rows.iter().all(|row| row.len() == d), "rows of the tile's dimension");
    let split = d - d % LANES;
    let per_pass = TILE / R;
    // Lane `j` of function `f` sums the products of elements `j, j + 8,
    // …`; `squares` sums each row's squares on the same schedule. `quads`
    // holds functions 0..4 and 4..8 after two levels of pairwise adds.
    let mut squares = [_mm256_setzero_ps(); R];
    let mut quads = [[_mm256_setzero_ps(); 2]; R];
    for pass in 0..R {
        let a = &tile.a[pass * per_pass..(pass + 1) * per_pass];
        let mut acc = [[_mm256_setzero_ps(); TILE]; R];
        let mut step = |x: [__m256; R], load: &dyn Fn(&[f32]) -> __m256| {
            if pass == 0 {
                for (squares, x) in squares.iter_mut().zip(x) {
                    *squares = _mm256_fmadd_ps(x, x, *squares);
                }
            }
            for (f, a) in a.iter().enumerate() {
                let a = load(a);
                for (acc, x) in acc.iter_mut().zip(x) {
                    acc[f] = _mm256_fmadd_ps(a, x, acc[f]);
                }
            }
        };
        let mut i = 0;
        while i < split {
            // SAFETY: i + 8 <= split <= d, the length of every row and of
            // every function's coefficients (`HashTile::new`).
            let load = |v: &[f32]| unsafe { _mm256_loadu_ps(v.as_ptr().add(i)) };
            step(rows.map(load), &load);
            i += LANES;
        }
        if split < d {
            // The last partial chunk, its missing lanes read as zeros: a
            // masked load touches no element past the slice.
            // SAFETY: the mask admits the d - split lanes that are in
            // bounds, of every row and of every function's coefficients.
            let mask = unsafe { _mm256_loadu_si256(TAIL_MASKS[8 - (d - split)..].as_ptr().cast()) };
            let load = |v: &[f32]| unsafe { _mm256_maskload_ps(v.as_ptr().add(split), mask) };
            step(rows.map(load), &load);
        }
        for (quads, acc) in quads.iter_mut().zip(acc) {
            for g in 0..per_pass / 4 {
                let [a0, a1, a2, a3] = [0, 1, 2, 3].map(|j| acc[4 * g + j]);
                quads[pass * per_pass / 4 + g] =
                    _mm256_hadd_ps(_mm256_hadd_ps(a0, a1), _mm256_hadd_ps(a2, a3));
            }
        }
    }
    std::array::from_fn(|r| {
        let [lo, hi] = quads[r];
        let sums = _mm256_add_ps(
            _mm256_permute2f128_ps::<0x20>(lo, hi),
            _mm256_permute2f128_ps::<0x31>(lo, hi),
        );
        // The squares fold in the same three levels.
        let squares = squares[r];
        let half = _mm_add_ps(_mm256_castps256_ps128(squares), _mm256_extractf128_ps::<1>(squares));
        let quarter = _mm_add_ps(half, _mm_movehl_ps(half, half));
        let sum = _mm_add_ss(quarter, _mm_shuffle_ps::<1>(quarter, quarter));
        (sums, (f64::from(_mm_cvtss_f32(sum)) + super::underflow(d)).sqrt())
    })
}

/// One row's ids from its [`project`]ion: `⌊z⌋`, `z = (p̂ + b) / w`, where
/// `|z| < 2⁵¹` and `z` is farther than the [`super::Margin`] from every
/// integer; the reference schedule's ([`dot_avx2`]) id everywhere else.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn certify(tile: &HashTile<'_>, row: &[f32], (projections, norm): (__m256, f64)) -> [i64; TILE] {
    let (norm, rounding) = (_mm256_set1_pd(norm), _mm256_set1_pd(F64_ROUNDING));
    let (sign, limit) = (_mm256_set1_pd(-0.0), _mm256_set1_pd((1u64 << 51) as f64));
    // An integer below 2⁵¹ in magnitude plus 1.5·2⁵² keeps its bits in
    // the significand: subtracting the sum's bits as integers converts.
    let magic = _mm256_set1_pd(1.5 * (1u64 << 52) as f64);
    let mut ids = [0i64; TILE];
    let mut certified = 0;
    let halves = [_mm256_castps256_ps128(projections), _mm256_extractf128_ps::<1>(projections)];
    for (q, p) in [0, 4].into_iter().zip(halves) {
        // SAFETY: q + 4 <= TILE, the length of every array read or
        // written below.
        let at = |v: &[f64; TILE]| unsafe { _mm256_loadu_pd(v.as_ptr().add(q)) };
        let z = _mm256_div_pd(_mm256_add_pd(_mm256_cvtps_pd(p), at(&tile.b)), at(&tile.w));
        let magnitude = _mm256_andnot_pd(sign, z);
        let nearest = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(z);
        let edge = _mm256_andnot_pd(sign, _mm256_sub_pd(z, nearest));
        let margin = _mm256_fmadd_pd(
            at(&tile.per_norm),
            norm,
            _mm256_fmadd_pd(magnitude, rounding, at(&tile.floor)),
        );
        let ok = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LT_OQ>(margin, edge),
            _mm256_cmp_pd::<_CMP_LT_OQ>(magnitude, limit),
        );
        certified |= _mm256_movemask_pd(ok) << q;
        let floored = _mm256_castpd_si256(_mm256_add_pd(_mm256_floor_pd(z), magic));
        let floored = _mm256_sub_epi64(floored, _mm256_castpd_si256(magic));
        unsafe { _mm256_storeu_si256(ids.as_mut_ptr().add(q).cast(), floored) };
    }
    let mut pending = !certified & ((1 << tile.k) - 1);
    while pending != 0 {
        let f = pending.trailing_zeros() as usize;
        ids[f] = tile.id(f, dot_avx2(tile.a[f], row));
        pending &= pending - 1;
    }
    ids
}
