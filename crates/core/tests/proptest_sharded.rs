//! Property tests for the sharded engine: a [`ShardedEngine`] over any
//! number of shards must return exactly what a single unsharded
//! [`C2lshIndex`] over the same data returns — same ids, same distances
//! under `f64::total_cmp`, same rounds and cost counters.
//!
//! Why it holds: the engine derives the unsharded index's hash family
//! and `(m, l)` from the total n, so per-object collision counts are
//! the unsharded ones, and it hands a bucket's ids out shard by shard,
//! bucket after bucket — the unsharded table's `(bucket, oid)` order —
//! so the T2 budget runs out at the same id and a candidate meets the
//! same abandon bound.

use c2lsh::{Beta, C2lshConfig, C2lshIndex, ShardedData, ShardedEngine};
use cc_vector::dataset::Dataset;
use proptest::prelude::*;

fn clustered_dataset() -> impl Strategy<Value = Dataset> {
    (8usize..120, 2usize..12, 0u64..1000).prop_map(|(n, d, seed)| {
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn four_shards_match_single_index(
        data in clustered_dataset(),
        k in 1usize..8,
        qi in 0usize..120,
        seed in 0u64..100,
    ) {
        let n = data.len();
        let cfg = C2lshConfig::builder()
            .bucket_width(1.0)
            .seed(seed)
            .beta(Beta::Count(n as u64)) // cap k + n: T2 never fires
            .build();
        let single = C2lshIndex::build(&data, &cfg);
        let sharded = ShardedData::partition(&data, 4);
        let engine = ShardedEngine::build(&sharded, &cfg);

        let q = data.get(qi % n);
        let (want, want_stats) = single.query(q, k);
        let (got, got_stats) = engine.query(q, k);

        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert!(
                g.dist.total_cmp(&w.dist).is_eq(),
                "distance mismatch for id {}: {} vs {}", g.id, g.dist, w.dist
            );
        }
        // The loop itself must agree, not just the ranking.
        prop_assert_eq!(got_stats.rounds, want_stats.rounds);
        prop_assert_eq!(got_stats.collisions_counted, want_stats.collisions_counted);
        prop_assert_eq!(got_stats.candidates_verified, want_stats.candidates_verified);
    }

    #[test]
    fn shard_count_never_changes_answers(
        data in clustered_dataset(),
        shards in 1usize..8,
        seed in 0u64..100,
    ) {
        let n = data.len();
        prop_assume!(n >= 8);
        let shards = shards.min(n);
        let cfg = C2lshConfig::builder()
            .bucket_width(1.0)
            .seed(seed)
            .beta(Beta::Count(n as u64))
            .build();
        let single = C2lshIndex::build(&data, &cfg);
        let sharded = ShardedData::partition(&data, shards);
        let engine = ShardedEngine::build(&sharded, &cfg);
        let q = data.get(n / 2);
        prop_assert_eq!(engine.query(q, 3).0, single.query(q, 3).0);
    }

    /// T2 on: a budget of 1..n/4 far objects, queries off the data so
    /// that rounds follow one another and, at c = 3, both delta ranges
    /// grow — the budget often runs out inside a range of several
    /// buckets. Everything the loop reports must still be the single
    /// index's.
    #[test]
    fn any_shard_count_equals_the_single_index_with_t2_on(
        data in clustered_dataset(),
        shards in 1usize..13,
        c in 2u32..4,
        budget in 0.0f64..1.0,
        asks in proptest::collection::vec((0usize..120, 0.05f32..6.0, 1usize..8), 1..5),
        seed in 0u64..100,
    ) {
        let n = data.len();
        let beta = 1 + (budget * (n / 4 - 1) as f64) as u64;
        let cfg = C2lshConfig::builder()
            .bucket_width(1.0)
            .approximation_ratio(c)
            .seed(seed)
            .beta(Beta::Count(beta))
            .build();
        let single = C2lshIndex::build(&data, &cfg);
        let sharded = ShardedData::partition(&data, shards.min(n));
        let engine = ShardedEngine::build(&sharded, &cfg);
        for (qi, offset, k) in asks {
            let q: Vec<f32> = data.get(qi % n).iter().map(|x| x + offset).collect();
            let (want, want_stats) = single.query(&q, k);
            let (got, got_stats) = engine.query(&q, k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!((g.id, g.dist.to_bits()), (w.id, w.dist.to_bits()));
            }
            // `QueryStats` equality covers rounds, final radius, collisions,
            // verified, abandoned, filtered and the terminating condition.
            prop_assert_eq!(got_stats, want_stats, "β·n = {}, query {} + {}", beta, qi % n, offset);
        }
    }
}
