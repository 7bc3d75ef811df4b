//! Scalar vs SIMD equivalence properties for the kernels.
//!
//! Every kernel the machine can run ([`Kernel::all_available`]) is held
//! to the bit-identity contract against the scalar oracle — same
//! distance bits, same `Some`/`None` abandon decision, same projection
//! bits, and from the hashing tile the same bucket id as the floored
//! scalar projection for every row and function, partial tiles included
//! — across dimensions from 1 to 512 including every
//! non-multiple-of-lane remainder. A second hashing property puts
//! projections at bucket edges, where an id is decided by less than the
//! error of a projection taken in `f32`. The CI kernel matrix runs this file
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
            let full = kd.euclidean_sq_bounded(&a, &b, f64::INFINITY);
            prop_assert_eq!(
                full.map(f64::to_bits), Some(exact.to_bits()),
                "{}: full distance diverged ({:?} vs {})", kd.kernel(), full, exact
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

    #[test]
    fn hash_rows_at_bucket_edges_matches_floored_scalar_projection(
        d in dim(),
        c in 2u32..4,
        seed in 0u64..u64::MAX,
    ) {
        let (matrix, offsets, widths, rows) = edge_cases(d, c, seed);
        let n = rows.len() / d;
        let tile = HashTile::new(&matrix, &offsets, &widths);
        for kd in available() {
            let (mut by_row, mut by_column) = (vec![0i64; n * TILE], vec![0i64; n * TILE]);
            kd.hash_rows(&tile, &rows, &mut by_row, (TILE, 1));
            kd.hash_rows(&tile, &rows, &mut by_column, (1, n));
            for (r, row) in rows.chunks_exact(d).enumerate() {
                // A row alone, as a query is hashed.
                let mut alone = [0i64; TILE];
                kd.hash_rows(&tile, row, &mut alone, (TILE, 1));
                for t in 0..TILE {
                    let dot = scalar::dot(&matrix[t * d..(t + 1) * d], row);
                    let want = ((dot + offsets[t]) / widths[t]).floor() as i64;
                    prop_assert_eq!(
                        alone[t], want,
                        "{}: a lone row's id diverged at row {} function {}", kd.kernel(), r, t
                    );
                    prop_assert_eq!(
                        by_row[r * TILE + t], want,
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

/// One tile of eight functions of ordinary widths (0.5 to 4) and rows
/// that put projections at bucket edges, both ways an `f32` projection
/// can mislead:
///
/// - Functions 0–3 and the first row are eight ones followed by `t`s
///   with `t² = 2⁻²⁴(1 − 2⁻¹²)²`: each `t²` is just under half an ulp of
///   the lane's running sum, so an `f32` lane loses every one of them and
///   the projection's error comes near its proven bound. The offsets put
///   the reference's quotient within a few ulps of an integer above it.
/// - Functions 4–7 have offsets up to `w·c³⁰` and drawn coefficients. For
///   each, a drawn row is rescaled so that its projection lands within a
///   few `f32` ulps of the point where adding the offset rounds one way
///   or the other, next to a bucket edge; five rows step across it an
///   ulp of one coordinate at a time. There the error of an `f32`
///   projection is far below the quotient's own rounding, and only the
///   `f64` part of the margin separates the two sides.
fn edge_cases(d: usize, c: u32, seed: u64) -> (Vec<f32>, Vec<f64>, Vec<f64>, Vec<f32>) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let widths: Vec<f64> = (0..TILE).map(|_| 0.5 + 3.5 * next()).collect();
    let t = 2f32.powi(-12) - 2f32.powi(-24);
    let ones_then_t: Vec<f32> = (0..d).map(|i| if i < 8 { 1.0 } else { t }).collect();
    let mut matrix = ones_then_t.repeat(4);
    matrix.extend((0..4 * d).map(|_| (next() - 0.5) as f32 / (0.75 + next() as f32)));
    let mut rows = ones_then_t.clone();
    let mut offsets = Vec::with_capacity(TILE);
    // Offsets putting the reference quotient at the integer `edge`, then
    // function `f`'s offset `f` floats higher.
    let p = scalar::dot(&ones_then_t, &ones_then_t);
    for (f, w) in widths[..4].iter().enumerate() {
        let edge = (next() * 1000.0).floor();
        let mut b = edge * w - p;
        for _ in 0..f {
            b = b.next_up();
        }
        offsets.push(b);
    }
    let level_cap = f64::from(c).powi(30);
    for f in 4..TILE {
        let (a, w) = (&matrix[f * d..(f + 1) * d], widths[f]);
        // A quotient `edge` whose float `e = edge·w` divides back to it
        // while the float below `e` does not.
        let first = (next() * level_cap).floor().max(1.0);
        let found = (0..64).map(|i| first + f64::from(i)).find(|&edge| {
            let e = edge * w;
            (e / w).floor() == edge && (e.next_down() / w).floor() == edge - 1.0
        });
        let Some(edge) = found else {
            offsets.push(first * w);
            continue;
        };
        let e = edge * w;
        // An offset `k + 1` floats below `e`: a projection under the
        // midpoint `(k + 1/2)·g` of that step rounds the sum down to the
        // float below `e`, one above it rounds it up to `e`.
        let k = (next() * 3.0) as u64;
        let b = f64::from_bits(e.to_bits() - (k + 1));
        let g = e - e.next_down();
        let target = (k as f64 + 0.5) * g;
        offsets.push(b);
        let mut row: Vec<f32> = (0..d).map(|_| (next() - 0.5) as f32).collect();
        let big = (0..d).max_by(|&i, &j| a[i].abs().total_cmp(&a[j].abs())).unwrap_or(0);
        if a[big] == 0.0 {
            continue;
        }
        for _ in 0..3 {
            let dot = scalar::dot(a, &row);
            if dot == 0.0 {
                row[big] = 1.0;
                continue;
            }
            let scale = target / dot;
            if (scale - 1.0).abs() > 1e-3 {
                row.iter_mut().for_each(|x| *x = (f64::from(*x) * scale) as f32);
            }
            row[big] =
                (f64::from(row[big]) + (target - scalar::dot(a, &row)) / f64::from(a[big])) as f32;
        }
        for step in -2i32..=2 {
            let mut stepped = row.clone();
            for _ in 0..step.unsigned_abs() {
                stepped[big] =
                    if step < 0 { stepped[big].next_down() } else { stepped[big].next_up() };
            }
            rows.extend(stepped);
        }
    }
    (matrix, offsets, widths, rows)
}
