//! Property-based tests on C2LSH's core machinery: parameter derivation
//! feasibility, hashing determinism, query-result invariants against a
//! linear-scan oracle.

use c2lsh::{C2lshConfig, C2lshIndex, HashFamily};
use cc_vector::dataset::Dataset;
use cc_vector::gt::knn_linear;
use proptest::prelude::*;

fn small_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..40, 2usize..10, 0u64..1000).prop_map(|(n, d, seed)| {
        cc_vector::gen::generate(
            cc_vector::gen::Distribution::GaussianMixture {
                clusters: 4,
                spread: 0.05,
                scale: 10.0,
            },
            n,
            d,
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn derived_params_always_feasible(
        n in 10usize..2_000_000,
        c in 2u32..5,
        w in 0.5f64..8.0,
        beta_count in 1u64..1000,
    ) {
        let cfg = C2lshConfig::builder()
            .approximation_ratio(c)
            .bucket_width(w)
            .beta(c2lsh::Beta::Count(beta_count))
            .try_build()
            .unwrap();
        let p = c2lsh::FullParams::derive(n, &cfg);
        prop_assert!(p.l >= 1 && p.l <= p.m);
        prop_assert!(p.derived.alpha > p.derived.p2 && p.derived.alpha < p.derived.p1);
        let beta = cfg.beta.resolve(n);
        prop_assert!(cc_math::hoeffding::satisfies_bounds(
            p.derived.p1, p.derived.p2, cfg.delta, beta, p.m, p.l));
    }

    #[test]
    fn hashing_is_deterministic_and_shift_consistent(
        d in 1usize..20,
        seed in 0u64..500,
        coords in proptest::collection::vec(-50.0f32..50.0, 1..20),
    ) {
        let d = d.min(coords.len());
        let v = &coords[..d];
        let cfg = C2lshConfig::builder().bucket_width(1.5).seed(seed).build();
        let f1 = HashFamily::generate(8, d, &cfg);
        let f2 = HashFamily::generate(8, d, &cfg);
        prop_assert_eq!(f1.buckets(v), f2.buckets(v));
        // Nested floor-division consistency at every level: dividing to
        // level r in one step equals dividing level-by-level (this is
        // what makes virtual rehashing windows nest).
        for h in f1.iter() {
            let b = h.bucket(v);
            for lvl in 1..8u32 {
                let r = 2i64.pow(lvl);
                prop_assert_eq!(b.div_euclid(r), b.div_euclid(2).div_euclid(r / 2));
            }
        }
    }

    #[test]
    fn query_results_are_sound(ds in small_dataset(), k in 1usize..8) {
        let cfg = C2lshConfig::builder().bucket_width(1.0).seed(3).build();
        let idx = C2lshIndex::build(&ds, &cfg);
        let q = ds.get(0);
        let (nn, stats) = idx.query(q, k);
        // Results sorted, unique, and distances correct.
        for w in nn.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<u32> = nn.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        let len_before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), len_before);
        for n in &nn {
            let want = cc_vector::dist::euclidean(ds.get(n.id as usize), q);
            prop_assert!((n.dist - want).abs() < 1e-9);
        }
        // The query point itself must be found (it is in the dataset and
        // collides with itself in every table).
        prop_assert_eq!(nn[0].id, 0);
        prop_assert_eq!(nn[0].dist, 0.0);
        prop_assert!(stats.candidates_verified >= nn.len());
        // Each returned distance is >= the exact distance at that rank.
        let exact = knn_linear(&ds, q, k);
        for (got, want) in nn.iter().zip(&exact) {
            prop_assert!(got.dist + 1e-12 >= want.dist);
        }
    }

    #[test]
    fn beta_resolution_is_clamped(n in 1usize..1_000_000, count in 0u64..10_000) {
        let beta = c2lsh::Beta::Count(count.max(1)).resolve(n);
        prop_assert!(beta > 0.0 && beta < 1.0);
    }
}
