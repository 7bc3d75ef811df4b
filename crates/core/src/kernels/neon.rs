//! aarch64 NEON kernels on stable `core::arch`.
//!
//! NEON is part of the aarch64 baseline, so no runtime detection is
//! needed and the functions are callable safely. The schedules mirror
//! the scalar oracles exactly — see the x86 module docs for the
//! bit-identity argument; the NEON register layout matches SSE2's
//! two-register (distance) and four-register (projection) shapes. The
//! distance keeps its multiplies and adds separate (no `vfmaq`): its
//! `f32` products are rounded before the add. NEON hashes rows through
//! [`dot_neon`], one function at a time; it has no hashing tile.
//!
//! # Safety
//!
//! The only unsafe operations are unaligned vector loads (`vld1q_f32`)
//! whose in-bounds-ness is guaranteed by the surrounding slice
//! arithmetic.
#![allow(unsafe_code)]

use cc_vector::dist::{BOUND_CHECK_DIMS, LANES};
use core::arch::aarch64::*;

/// Reduce the 8-lane f32 accumulator (`lo` holds scalar lanes 0..4,
/// `hi` lanes 4..8) exactly like the scalar `combine`.
#[inline]
#[target_feature(enable = "neon")]
fn combine_neon(lo: float32x4_t, hi: float32x4_t) -> f64 {
    let s = vaddq_f32(lo, hi); // [a0+a4, a1+a5, a2+a6, a3+a7], f32
    let d_lo = vcvt_f64_f32(vget_low_f32(s)); // [s0, s1] exact as f64
    let d_hi = vcvt_high_f64_f32(s); // [s2, s3]
    let t = vaddq_f64(d_lo, d_hi); // [s0+s2, s1+s3]
    vgetq_lane_f64::<0>(t) + vgetq_lane_f64::<1>(t)
}

/// NEON squared-distance kernel, `BOUNDED` adds the early-abandon
/// checks.
#[inline]
#[target_feature(enable = "neon")]
pub fn sq_neon<const BOUNDED: bool>(a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let mut acc_lo = vdupq_n_f32(0.0); // scalar lanes 0..4
    let mut acc_hi = vdupq_n_f32(0.0); // scalar lanes 4..8
    let mut i = 0usize;
    if BOUNDED {
        let whole = split - split % BOUND_CHECK_DIMS;
        while i < whole {
            let block_end = i + BOUND_CHECK_DIMS;
            while i < block_end {
                // SAFETY: i + LANES <= whole <= a.len() == b.len().
                let x0 = unsafe { vld1q_f32(a.as_ptr().add(i)) };
                let y0 = unsafe { vld1q_f32(b.as_ptr().add(i)) };
                let x1 = unsafe { vld1q_f32(a.as_ptr().add(i + 4)) };
                let y1 = unsafe { vld1q_f32(b.as_ptr().add(i + 4)) };
                let d0 = vsubq_f32(x0, y0);
                let d1 = vsubq_f32(x1, y1);
                acc_lo = vaddq_f32(acc_lo, vmulq_f32(d0, d0));
                acc_hi = vaddq_f32(acc_hi, vmulq_f32(d1, d1));
                i += LANES;
            }
            if combine_neon(acc_lo, acc_hi) > bound {
                return None;
            }
        }
    }
    while i < split {
        // SAFETY: i + LANES <= split <= a.len() == b.len().
        let x0 = unsafe { vld1q_f32(a.as_ptr().add(i)) };
        let y0 = unsafe { vld1q_f32(b.as_ptr().add(i)) };
        let x1 = unsafe { vld1q_f32(a.as_ptr().add(i + 4)) };
        let y1 = unsafe { vld1q_f32(b.as_ptr().add(i + 4)) };
        let d0 = vsubq_f32(x0, y0);
        let d1 = vsubq_f32(x1, y1);
        acc_lo = vaddq_f32(acc_lo, vmulq_f32(d0, d0));
        acc_hi = vaddq_f32(acc_hi, vmulq_f32(d1, d1));
        i += LANES;
    }
    if BOUNDED && split % BOUND_CHECK_DIMS != 0 && combine_neon(acc_lo, acc_hi) > bound {
        return None;
    }
    let mut tail = 0.0f32;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        let d = x - y;
        tail += d * d;
    }
    Some(combine_neon(acc_lo, acc_hi) + f64::from(tail))
}

/// NEON projection dot product (eight f64 lanes in four registers).
#[inline]
#[target_feature(enable = "neon")]
pub fn dot_neon(a: &[f32], q: &[f32]) -> f64 {
    assert_eq!(a.len(), q.len(), "dimension mismatch: {} vs {}", a.len(), q.len());
    let split = a.len() - a.len() % super::scalar::PROJ_LANES;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    let mut acc45 = vdupq_n_f64(0.0);
    let mut acc67 = vdupq_n_f64(0.0);
    let mut i = 0usize;
    while i < split {
        // SAFETY: i + 8 <= split <= a.len() == q.len().
        let x_lo = unsafe { vld1q_f32(a.as_ptr().add(i)) };
        let x_hi = unsafe { vld1q_f32(a.as_ptr().add(i + 4)) };
        let y_lo = unsafe { vld1q_f32(q.as_ptr().add(i)) };
        let y_hi = unsafe { vld1q_f32(q.as_ptr().add(i + 4)) };
        acc01 = vaddq_f64(
            acc01,
            vmulq_f64(vcvt_f64_f32(vget_low_f32(x_lo)), vcvt_f64_f32(vget_low_f32(y_lo))),
        );
        acc23 = vaddq_f64(acc23, vmulq_f64(vcvt_high_f64_f32(x_lo), vcvt_high_f64_f32(y_lo)));
        acc45 = vaddq_f64(
            acc45,
            vmulq_f64(vcvt_f64_f32(vget_low_f32(x_hi)), vcvt_f64_f32(vget_low_f32(y_hi))),
        );
        acc67 = vaddq_f64(acc67, vmulq_f64(vcvt_high_f64_f32(x_hi), vcvt_high_f64_f32(y_hi)));
        i += super::scalar::PROJ_LANES;
    }
    let t04 = vaddq_f64(acc01, acc45); // [l0+l4, l1+l5]
    let t26 = vaddq_f64(acc23, acc67); // [l2+l6, l3+l7]
    let u = vaddq_f64(t04, t26);
    let main = vgetq_lane_f64::<0>(u) + vgetq_lane_f64::<1>(u);
    let mut tail = 0.0f64;
    for (x, y) in a[split..].iter().zip(&q[split..]) {
        tail += f64::from(*x) * f64::from(*y);
    }
    main + tail
}
