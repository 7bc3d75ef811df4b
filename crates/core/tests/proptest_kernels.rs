//! Scalar vs SIMD equivalence properties for the kernels.
//!
//! Every kernel the machine can run ([`Kernel::all_available`]) is held
//! to the bit-identity contract against the scalar oracle — same
//! distance bits, same `Some`/`None` abandon decision, same projection
//! bits, and from the hashing tile the same bucket id as the floored
//! scalar projection for every row and function, partial tiles included
//! — across dimensions from 1 to 512 including every
//! non-multiple-of-lane remainder. The CI kernel matrix runs this file
//! twice (default and `CC_FORCE_SCALAR=1`); the properties themselves
//! always exercise all kernels explicitly, so the env leg guards the
//! *dispatch* path while the explicit loop guards the *kernels*.

use c2lsh::kernels::{scalar, HashTile, Kernel, KernelDispatch, TILE};
use proptest::prelude::*;

fn vec_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

/// Dimensions biased toward lane boundaries (1..=33 covers every
/// remainder of the 8/16-wide loops twice) but reaching 512.
fn dim() -> impl Strategy<Value = usize> {
    (0u32..4, 1usize..34, 34usize..513)
        .prop_map(|(sel, small, big)| if sel < 3 { small } else { big })
}

fn available() -> Vec<KernelDispatch> {
    Kernel::all_available()
        .into_iter()
        .map(|k| KernelDispatch::new(k).expect("listed as available"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn distance_matches_scalar_bitwise_and_abandons_identically(
        (a, b, frac) in dim().prop_flat_map(|d| (vec_f32(d), vec_f32(d), 0.0f64..1.5))
    ) {
        let exact = cc_vector::dist::euclidean_sq(&a, &b);
        // Spans both regimes: frac < 1 forces abandonment on most
        // inputs, frac > 1 forces completion.
        let bound = exact * frac;
        let oracle = cc_vector::dist::euclidean_sq_bounded(&a, &b, bound);
        for kd in available() {
            let full = kd.euclidean_sq(&a, &b);
            prop_assert_eq!(
                full.to_bits(), exact.to_bits(),
                "{}: full distance diverged ({} vs {})", kd.kernel(), full, exact
            );
            let got = kd.euclidean_sq_bounded(&a, &b, bound);
            prop_assert_eq!(
                got.map(f64::to_bits), oracle.map(f64::to_bits),
                "{}: bounded result diverged ({:?} vs {:?})", kd.kernel(), got, oracle
            );
            // Abandonment is only ever legal when the true distance
            // reached the bound: partial sums of squares are
            // monotonically non-decreasing.
            if got.is_none() {
                prop_assert!(
                    exact >= bound,
                    "{}: abandoned although exact {} < bound {}", kd.kernel(), exact, bound
                );
            }
        }
    }

    #[test]
    fn projection_matches_scalar_bitwise(
        (a, q) in dim().prop_flat_map(|d| (vec_f32(d), vec_f32(d)))
    ) {
        let oracle = scalar::dot(&a, &q);
        for kd in available() {
            let got = kd.dot(&a, &q);
            prop_assert_eq!(
                got.to_bits(), oracle.to_bits(),
                "{}: dot diverged ({} vs {})", kd.kernel(), got, oracle
            );
        }
    }

    #[test]
    fn hash_rows_matches_floored_scalar_projection(
        (d, m, rows) in (dim(), 1usize..25).prop_flat_map(|(d, m)| (
            Just(d),
            Just(m),
            proptest::collection::vec(vec_f32(d), 0..11),
        )),
        matrix_seed in 0u64..u64::MAX,
    ) {
        // Deterministic family from the seed (generating m*d floats via
        // proptest would dominate shrink time).
        let mut state = matrix_seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        // A quotient rounds to a full 24-bit significand, so the products
        // need more than 53 bits and their sums round: a sum taken in
        // another order shows in the ids below.
        let matrix: Vec<f32> = (0..m * d).map(|_| next() / (0.75 + next())).collect();
        let offsets: Vec<f64> = (0..m).map(|_| f64::from(next()) * 40.0).collect();
        // Widths of 2^-49 to 2^-31 put a bucket edge within an ulp or a
        // few of most projections, so an id moves with a projection's
        // last bit: the ids check the projection bit for bit.
        let widths: Vec<f64> =
            (0..m).map(|_| 2f64.powi(-40 + (f64::from(next()) * 20.0) as i32)).collect();
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let n = rows.len();
        let oracle = |r: usize, t: usize| {
            let dot = scalar::dot(&matrix[t * d..(t + 1) * d], &rows[r]);
            ((dot + offsets[t]) / widths[t]).floor() as i64
        };

        for kd in available() {
            // Row-major as a query batch is hashed, column-major as a
            // build fills its columns; tiles of eight, the last partial.
            let (mut by_row, mut by_column) = (vec![0i64; n * m], vec![0i64; n * m]);
            for lo in (0..m).step_by(TILE) {
                let hi = (lo + TILE).min(m);
                let tile = HashTile::new(&matrix[lo * d..hi * d], &offsets[lo..hi], &widths[lo..hi]);
                // No rows leave no ids to start at function `lo`.
                let by_row = by_row.get_mut(lo..).unwrap_or_default();
                kd.hash_rows(&tile, &flat, by_row, (m, 1));
                kd.hash_rows(&tile, &flat, &mut by_column[lo * n..], (1, n));
            }
            for r in 0..n {
                for t in 0..m {
                    let want = oracle(r, t);
                    prop_assert_eq!(
                        by_row[r * m + t], want,
                        "{}: row-major id diverged at row {} function {}", kd.kernel(), r, t
                    );
                    prop_assert_eq!(
                        by_column[t * n + r], want,
                        "{}: column-major id diverged at row {} function {}", kd.kernel(), r, t
                    );
                }
            }
        }
    }
}
