//! Property-based model tests: the B+-tree against sorted-slice
//! reference semantics.

use cc_storage::bptree::BPlusTree;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bptree_lower_bound_matches_partition_point(
        mut keys in proptest::collection::vec(-200i64..200, 1..200),
        probes in proptest::collection::vec(-250i64..250, 1..30),
    ) {
        keys.sort_unstable();
        let pairs: Vec<(i64, u32)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let tree = BPlusTree::bulk_load_with_capacities(&pairs, 5, 5);
        tree.validate();
        for &p in &probes {
            let want = keys.partition_point(|&k| k < p);
            let cur = tree.lower_bound(p);
            match tree.get(cur) {
                Some((k, _)) => prop_assert_eq!(k, keys[want], "probe {}", p),
                None => prop_assert_eq!(want, keys.len(), "probe {}", p),
            }
        }
    }

    #[test]
    fn bptree_range_matches_filter(
        mut keys in proptest::collection::vec(-100i64..100, 0..150),
        lo in -120i64..120,
        span in 0i64..120,
    ) {
        keys.sort_unstable();
        let pairs: Vec<(i64, u32)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let tree = BPlusTree::bulk_load_with_capacities(&pairs, 4, 4);
        let hi = lo + span;
        let got: Vec<i64> = tree.range(lo, hi).iter().map(|e| e.0).collect();
        let want: Vec<i64> = keys.iter().copied().filter(|&k| (lo..hi).contains(&k)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn cursor_walk_is_total_and_ordered(
        mut keys in proptest::collection::vec(-300i64..300, 1..200),
    ) {
        keys.sort_unstable();
        let pairs: Vec<(i64, u32)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let tree = BPlusTree::bulk_load_with_capacities(&pairs, 4, 4);
        let mut cur = tree.first();
        let mut walked = Vec::new();
        while let Some((k, _)) = tree.get(cur) {
            walked.push(k);
            cur = tree.advance(cur);
        }
        prop_assert_eq!(walked, keys);
    }
}
