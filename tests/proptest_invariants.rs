//! Property-based tests over the public APIs of the whole workspace.

use c2lsh::rehash::{radius_at, window};
use cc_vector::dataset::Dataset;
use cc_vector::dist::{euclidean, euclidean_sq};
use cc_vector::gt::{knn_linear, Neighbor};
use cc_vector::metrics::{overall_ratio, recall};
use proptest::prelude::*;

fn vec_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #[test]
    fn euclidean_is_a_metric(a in vec_f32(8), b in vec_f32(8), c in vec_f32(8)) {
        let ab = euclidean(&a, &b);
        let ba = euclidean(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-6, "symmetry");
        prop_assert!(ab >= 0.0, "non-negativity");
        let ac = euclidean(&a, &c);
        let cb = euclidean(&c, &b);
        prop_assert!(ab <= ac + cb + 1e-3, "triangle inequality");
        prop_assert!(euclidean(&a, &a) == 0.0, "identity");
    }

    #[test]
    fn euclidean_sq_matches_naive(a in vec_f32(13), b in vec_f32(13)) {
        let naive: f64 = a.iter().zip(&b)
            .map(|(&x, &y)| { let d = x as f64 - y as f64; d * d }).sum();
        let fast = euclidean_sq(&a, &b);
        prop_assert!((naive - fast).abs() <= 1e-3 * (1.0 + naive));
    }

    #[test]
    fn knn_is_sorted_prefix_of_kplus1(rows in proptest::collection::vec(vec_f32(4), 2..60), q in vec_f32(4)) {
        let ds = Dataset::from_rows(&rows);
        let k = rows.len() / 2 + 1;
        let nn_k = knn_linear(&ds, &q, k);
        let nn_k1 = knn_linear(&ds, &q, k + 1);
        prop_assert_eq!(&nn_k[..], &nn_k1[..k.min(rows.len())], "k-NN must be a prefix of (k+1)-NN");
        for w in nn_k.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn recall_and_ratio_are_bounded(
        truth_d in proptest::collection::vec(0.01f64..100.0, 1..20),
        extra in 0.0f64..50.0,
    ) {
        // Build a sorted truth list and a method result that inflates
        // each distance; recall in [0,1], ratio >= 1.
        let mut td = truth_d.clone();
        td.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let truth: Vec<Neighbor> = td.iter().enumerate()
            .map(|(i, &d)| Neighbor::new(i as u32, d)).collect();
        let result: Vec<Neighbor> = td.iter().enumerate()
            .map(|(i, &d)| Neighbor::new(1000 + i as u32, d + extra)).collect();
        let r = recall(&result, &truth);
        prop_assert!((0.0..=1.0).contains(&r));
        let ratio = overall_ratio(&result, &truth);
        prop_assert!(ratio >= 1.0 - 1e-12, "ratio {ratio} below 1");
        prop_assert!(ratio.is_finite());
    }

    #[test]
    fn rehash_windows_nest_and_cover(
        near in -1_000_000i64..1_000_000,
        end in 0usize..3,
        level in 0u32..70,
        c in 2u32..5,
    ) {
        // Buckets near zero, and the ends of the key space where hashing
        // saturates a bucket id, at every radius up to the saturated one.
        let bucket = [near, i64::MIN, i64::MAX][end];
        let r1 = radius_at(c, level);
        let r2 = radius_at(c, level + 1);
        let (lo1, hi1) = window(bucket, r1);
        let (lo2, hi2) = window(bucket, r2);
        // A window that reaches `i64::MAX` holds that bucket too.
        prop_assert!(lo1 <= bucket && (bucket < hi1 || hi1 == i64::MAX), "window covers its bucket");
        prop_assert!(lo2 <= lo1 && hi2 >= hi1, "windows nest");
        for (lo, hi, r) in [(lo1, hi1, r1), (lo2, hi2, r2)] {
            if i64::MIN < lo && hi < i64::MAX {
                prop_assert_eq!(hi - lo, r, "window width = radius inside the key space");
            }
        }
    }

    #[test]
    fn dataset_slice_roundtrip(rows in proptest::collection::vec(vec_f32(3), 1..30), split in 0usize..30) {
        let ds = Dataset::from_rows(&rows);
        let split = split.min(rows.len());
        let left = ds.slice_rows(0, split);
        let right = ds.slice_rows(split, rows.len());
        prop_assert_eq!(left.len() + right.len(), ds.len());
        for i in 0..split {
            prop_assert_eq!(left.get(i), ds.get(i));
        }
        for i in split..rows.len() {
            prop_assert_eq!(right.get(i - split), ds.get(i));
        }
    }

    #[test]
    fn io_roundtrips_any_dataset(rows in proptest::collection::vec(vec_f32(5), 1..40)) {
        let ds = Dataset::from_rows(&rows);
        let f = cc_vector::io::from_fvecs(&cc_vector::io::to_fvecs(&ds)).unwrap();
        prop_assert_eq!(&f, &ds);
        let c = cc_vector::io::from_ccv1(&cc_vector::io::to_ccv1(&ds)).unwrap();
        prop_assert_eq!(&c, &ds);
    }

    #[test]
    fn collision_probability_in_unit_interval(s in 0.0f64..1000.0, w in 0.01f64..100.0) {
        let p = cc_math::pstable::collision_probability(s, w);
        prop_assert!((0.0..=1.0).contains(&p));
        let pq = qalsh::qalsh_collision_probability(s, w);
        prop_assert!((0.0..=1.0).contains(&pq));
        // Query-aware family dominates the offset family at equal width.
        prop_assert!(pq >= p - 1e-12, "qalsh p {pq} < pstable p {p}");
    }
}
