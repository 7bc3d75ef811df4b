//! Scalar reference kernels — the oracle every SIMD path must match
//! bit-for-bit.
//!
//! The squared-distance reference lives in [`cc_vector::dist`] (it
//! predates this module and every baseline shares it); this file adds
//! the canonical **projection** schedule. The old `cc_vector::dist::dot`
//! summed `a[i]·q[i]` sequentially in `f64` — one long dependency chain
//! that neither auto-vectorizes nor can be reproduced by a lane-parallel
//! kernel without changing results. The canonical schedule is therefore
//! defined lane-parallel from the start:
//!
//! * [`PROJ_LANES`] = 8 independent `f64` accumulators; lane `j`
//!   accumulates elements `j, j+8, j+16, …` (each product is computed in
//!   `f64`, exact for `f32` inputs).
//! * The combine pairs lane `j` with lane `j+4` first — exactly the two
//!   4-wide AVX2 registers the SIMD kernel keeps the lanes in — then
//!   folds `(s0+s2)+(s1+s3)`.
//! * Elements past the lane-chunked region accumulate sequentially into
//!   a separate `tail` added last.
//!
//! The AVX2 path reproduces these exact operations in the same order,
//! so scalar and SIMD projections (and hence bucket ids) are
//! bit-identical — which matters because an index built under one
//! kernel must answer queries hashed under another
//! (`CC_FORCE_SCALAR=1` against a default-built index, for instance).

/// Independent `f64` accumulator lanes of the projection kernel.
pub const PROJ_LANES: usize = 8;

/// Combine the eight projection accumulators. Pairing `j` with `j+4`
/// reduces the two 4-wide registers with one packed add; the remaining
/// folds follow the same `(s0+s2)+(s1+s3)` shape as the distance
/// kernel's combine.
#[inline(always)]
pub(crate) fn combine(acc: [f64; PROJ_LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Canonical projection dot product `Σ a[i]·q[i]` in `f64`.
pub fn dot(a: &[f32], q: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), q.len());
    let split = a.len() - a.len() % PROJ_LANES;
    let mut acc = [0.0f64; PROJ_LANES];
    for (ca, cq) in a[..split].chunks_exact(PROJ_LANES).zip(q[..split].chunks_exact(PROJ_LANES)) {
        for j in 0..PROJ_LANES {
            acc[j] += f64::from(ca[j]) * f64::from(cq[j]);
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in a[split..].iter().zip(&q[split..]) {
        tail += f64::from(*x) * f64::from(*y);
    }
    combine(acc) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_scalar_dot_matches_naive_within_rounding() {
        for d in [1usize, 3, 7, 8, 9, 16, 100, 128, 513] {
            let a: Vec<f32> = (0..d).map(|i| (i as f32).sin()).collect();
            let q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.7).cos()).collect();
            let naive: f64 = a.iter().zip(&q).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
            let got = dot(&a, &q);
            assert!((naive - got).abs() <= 1e-10 * (1.0 + naive.abs()), "dim {d}");
        }
    }

    #[test]
    fn kernels_scalar_dot_empty_and_short() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0; 8], &[1.0; 8]), 8.0);
    }
}
