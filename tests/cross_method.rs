//! Cross-method integration tests: every index answers the same workload
//! coherently.

use c2lsh::{C2lshConfig, C2lshIndex, DiskIndex};
use cc_baselines::e2lsh::{E2lsh, E2lshConfig};
use cc_baselines::linear::LinearScan;
use cc_baselines::lsb::{LsbConfig, LsbForest};
use cc_vector::gen::{generate, Distribution};
use cc_vector::metrics::{mean_ratio, mean_recall};
use cc_vector::workload::Workload;
use qalsh::{Qalsh, QalshConfig};

fn workload() -> Workload {
    let all = generate(
        Distribution::GaussianMixture { clusters: 20, spread: 0.015, scale: 10.0 },
        2_030,
        24,
        77,
    );
    let data = all.slice_rows(0, 2_000);
    let queries = all.slice_rows(2_000, 2_030);
    Workload::from_parts("it", data, queries, 10)
}

#[test]
fn all_methods_find_planted_exact_matches() {
    let w = workload();
    let c_cfg = C2lshConfig::builder().bucket_width(1.0).seed(5).build();
    let c2 = C2lshIndex::build(&w.data, &c_cfg);
    let c2d = DiskIndex::build(&w.data, &c_cfg);
    let qa = Qalsh::build(&w.data, QalshConfig { w: 1.2, seed: 5, ..Default::default() });
    let e2 = E2lsh::build(&w.data, E2lshConfig { k_funcs: 6, l_tables: 48, w: 1.0, seed: 5 });
    let lsb = LsbForest::build(
        &w.data,
        LsbConfig { w: 0.5, budget: 200, quality_stop: false, seed: 5, ..Default::default() },
    );

    for probe in [0usize, 500, 1999] {
        let q = w.data.get(probe);
        assert_eq!(c2.query(q, 1).0[0].id as usize, probe, "c2lsh mem");
        assert_eq!(c2d.query(q, 1).0[0].id as usize, probe, "c2lsh disk");
        assert_eq!(qa.query(q, 1).0[0].id as usize, probe, "qalsh");
        assert_eq!(e2.query(q, 1).0[0].id as usize, probe, "e2lsh");
        assert_eq!(lsb.query(q, 1).0[0].id as usize, probe, "lsb");
    }
}

#[test]
fn memory_and_disk_c2lsh_agree_exactly() {
    let w = workload();
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(6).build();
    let mem = C2lshIndex::build(&w.data, &cfg);
    let disk = DiskIndex::build(&w.data, &cfg);
    for q in w.queries.iter() {
        assert_eq!(mem.query(q, 10).0, disk.query(q, 10).0);
    }
}

#[test]
fn collision_counting_methods_beat_static_concat_at_equal_budget() {
    // The paper's core claim (ablation A2): at an equal hash budget,
    // dynamic collision counting extracts more recall.
    let w = workload();
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(8).build();
    let c2 = C2lshIndex::build(&w.data, &cfg);
    let m = c2.params().m;
    let e2 = E2lsh::build(
        &w.data,
        E2lshConfig { k_funcs: 8, l_tables: (m / 8).max(1), w: 1.0, seed: 8 },
    );

    let truth = w.truth_at(10);
    let c2_res: Vec<_> = w.queries.iter().map(|q| c2.query(q, 10).0).collect();
    let e2_res: Vec<_> = w.queries.iter().map(|q| e2.query(q, 10).0).collect();
    let r_c2 = mean_recall(&c2_res, &truth);
    let r_e2 = mean_recall(&e2_res, &truth);
    assert!(
        r_c2 > r_e2,
        "dynamic counting recall {r_c2} should beat static concat {r_e2} at equal budget"
    );
}

#[test]
fn approximate_methods_stay_within_c_bound_on_ratio() {
    let w = workload();
    let truth = w.truth_at(10);
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(9).build();
    let c2 = C2lshIndex::build(&w.data, &cfg);
    let qa = Qalsh::build(&w.data, QalshConfig { w: 1.2, seed: 9, ..Default::default() });

    let c2_res: Vec<_> = w.queries.iter().map(|q| c2.query(q, 10).0).collect();
    let qa_res: Vec<_> = w.queries.iter().map(|q| qa.query(q, 10).0).collect();
    // c = 2 quality bound, with margin: mean ratio far below 2.
    assert!(mean_ratio(&c2_res, &truth) < 1.5);
    assert!(mean_ratio(&qa_res, &truth) < 1.5);
}

#[test]
fn linear_scan_is_the_quality_ceiling() {
    let w = workload();
    let lin = LinearScan::new(&w.data);
    let truth = w.truth_at(10);
    for (qi, q) in w.queries.iter().enumerate() {
        let (nn, _) = lin.query(q, 10);
        assert_eq!(nn, truth[qi], "query {qi}");
    }
}

// ---------------------------------------------------------------------------
// Engine-unification guarantees: all in-repo backends drive the same
// search loop, so they must agree bit-for-bit — on the neighbors AND on
// which terminating condition fired.
// ---------------------------------------------------------------------------

mod engine_equivalence {
    use c2lsh::{C2lshConfig, C2lshIndex, DiskIndex, DynamicIndex};
    use cc_vector::dataset::Dataset;
    use proptest::prelude::*;

    fn coord() -> impl Strategy<Value = f32> {
        -50.0f32..50.0
    }

    fn rows() -> impl Strategy<Value = Vec<Vec<f32>>> {
        proptest::collection::vec(proptest::collection::vec(coord(), 6), 20..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn backends_agree_on_neighbors_and_termination(
            rows in rows(),
            qi in 0usize..1000,
            k in 1usize..8,
            seed in 0u64..64,
        ) {
            let data = Dataset::from_rows(&rows);
            let qi = qi % data.len();
            let cfg = C2lshConfig::builder().bucket_width(1.0).seed(seed).build();
            let mem = C2lshIndex::build(&data, &cfg);
            let disk = DiskIndex::build(&data, &cfg);
            let dynm = DynamicIndex::from_dataset(&data, &cfg);
            let q = data.get(qi).to_vec();

            let (m_nn, m_s) = mem.query(&q, k);
            let (d_nn, d_s) = disk.query(&q, k);
            let (y_nn, y_s) = dynm.query(&q, k);

            prop_assert_eq!(&m_nn, &d_nn, "mem vs disk neighbors");
            prop_assert_eq!(&m_nn, &y_nn, "mem vs dynamic neighbors");
            prop_assert_eq!(m_s.terminated_by, d_s.terminated_by, "mem vs disk termination");
            prop_assert_eq!(m_s.terminated_by, y_s.terminated_by, "mem vs dynamic termination");
            // Identical loop => identical counting work too.
            prop_assert_eq!(m_s.rounds, d_s.rounds);
            prop_assert_eq!(m_s.collisions_counted, d_s.collisions_counted);
            prop_assert_eq!(m_s.candidates_verified, y_s.candidates_verified);
        }
    }
}

// ---------------------------------------------------------------------------
// Filtered search: with metadata attached, a query carrying a predicate
// must serve exactly the unfiltered ranking with non-matching points
// struck out — on every backend.
// ---------------------------------------------------------------------------

mod filtered_equivalence {
    use c2lsh::engine::SearchOptions;
    use c2lsh::{C2lshConfig, C2lshIndex, DiskIndex, DynamicIndex, PointMeta, Predicate};
    use cc_vector::dataset::Dataset;
    use cc_vector::gt::Neighbor;
    use proptest::prelude::*;
    use qalsh::{Qalsh, QalshConfig};

    fn coord() -> impl Strategy<Value = f32> {
        -50.0f32..50.0
    }

    fn rows() -> impl Strategy<Value = Vec<Vec<f32>>> {
        proptest::collection::vec(proptest::collection::vec(coord(), 6), 20..100)
    }

    /// Run one (unfiltered, filtered) query pair and demand the
    /// post-filter identity, bit-exact on ids and distances. With
    /// k = n, T1 cannot fire before full coverage and the default β
    /// budget (k + 100 > n) keeps T2 unreachable, so both runs exhaust
    /// their windows and rank everything the predicate admits.
    fn assert_post_filter_identity(
        label: &str,
        metas: &[PointMeta],
        pred: Predicate,
        full: &[Neighbor],
        filtered: &[Neighbor],
        filtered_count: usize,
    ) {
        let expected: Vec<Neighbor> =
            full.iter().filter(|nb| pred.matches(metas[nb.id as usize])).cloned().collect();
        prop_assert_eq!(filtered, &expected[..], "{} disagrees with post-filtering", label);
        let rejected = metas.len() - expected.len();
        prop_assert_eq!(filtered_count, rejected, "{} rejection count", label);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn filtered_search_equals_brute_force_post_filtering(
            rows in rows(),
            qi in 0usize..1000,
            seed in 0u64..64,
            labels in 2u32..5,
            want in 0u32..5,
        ) {
            let n = rows.len();
            let data = Dataset::from_rows(&rows);
            let q = data.get(qi % n).to_vec();
            let want = want % labels;
            let metas: Vec<PointMeta> =
                (0..n as u32).map(|i| PointMeta::new(1 << (i % 7), i % labels)).collect();
            let pred = Predicate::label(want).and_tag_any(u64::MAX);
            let opts = SearchOptions { filter: Some(pred), ..Default::default() };
            let plain = SearchOptions::default();
            let cfg = C2lshConfig::builder().bucket_width(1.0).seed(seed).build();

            let mem = C2lshIndex::build(&data, &cfg).with_meta(metas.clone());
            let (full, _) = mem.query_with(&q, n, &plain);
            let (flt, fs) = mem.query_with(&q, n, &opts);
            assert_post_filter_identity("mem", &metas, pred, &full, &flt, fs.candidates_filtered);

            let disk = DiskIndex::build(&data, &cfg).with_meta(metas.clone());
            let (full, _) = disk.query_with(&q, n, &plain);
            let (flt, fs) = disk.query_with(&q, n, &opts);
            assert_post_filter_identity("disk", &metas, pred, &full, &flt, fs.candidates_filtered);

            let mut dynm = DynamicIndex::new(6, n, &cfg);
            for (i, v) in data.iter().enumerate() {
                dynm.insert_with_meta(v.to_vec(), metas[i]);
            }
            let (full, _) = dynm.query_with(&q, n, &plain);
            let (flt, fs) = dynm.query_with(&q, n, &opts);
            assert_post_filter_identity("dyn", &metas, pred, &full, &flt, fs.candidates_filtered);

            let mut qa = Qalsh::build(&data, QalshConfig { w: 1.2, seed, ..Default::default() });
            qa.set_meta(metas.clone());
            let (full, _) = qa.query_with(&q, n, &plain);
            let (flt, fs) = qa.query_with(&q, n, &opts);
            assert_post_filter_identity("qalsh", &metas, pred, &full, &flt, fs.candidates_filtered);
        }
    }
}

#[test]
fn candidate_budget_larger_than_dataset_is_safe_everywhere() {
    // Default β is an absolute count (100), so on a tiny dataset
    // k + β·n exceeds n: the T2 budget can never fill, every backend
    // must fall through to T1/exhaustion with at most n verifications.
    let data = generate(
        Distribution::GaussianMixture { clusters: 3, spread: 0.05, scale: 5.0 },
        30,
        8,
        123,
    );
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(11).build();
    let k = 12;
    assert!(k + C2lshIndex::build(&data, &cfg).params().beta_n > data.len());

    let mem = C2lshIndex::build(&data, &cfg);
    let disk = DiskIndex::build(&data, &cfg);
    let dynm = c2lsh::DynamicIndex::from_dataset(&data, &cfg);
    let q = data.get(0).to_vec();
    let (m_nn, m_s) = mem.query(&q, k);
    let (d_nn, d_s) = disk.query(&q, k);
    let (y_nn, y_s) = dynm.query(&q, k);
    for s in [&m_s, &d_s, &y_s] {
        assert!(s.candidates_verified <= data.len());
        assert_ne!(
            s.terminated_by,
            c2lsh::Termination::T2CandidateBudget,
            "budget exceeding n must be unreachable"
        );
    }
    assert_eq!(m_nn, d_nn);
    assert_eq!(m_nn, y_nn);
    assert_eq!(m_nn.len(), k);
}

#[test]
fn mutated_dynamic_index_matches_fresh_build_over_final_point_set() {
    // The paper's update story, end to end: an index that lived through
    // an arbitrary insert/delete history must answer exactly like one
    // built from scratch over the surviving points. Ids differ (the
    // mutated index keeps its original oids, the fresh one assigns
    // compact ranks), but because deletion preserves per-bucket order,
    // the rank map is order-preserving and everything else — distances,
    // per-rank correspondence, termination condition — is bit-identical.
    use c2lsh::DynamicIndex;

    let data = generate(
        Distribution::GaussianMixture { clusters: 12, spread: 0.02, scale: 10.0 },
        600,
        8,
        31,
    );
    let extra = generate(
        Distribution::GaussianMixture { clusters: 12, spread: 0.02, scale: 10.0 },
        150,
        8,
        32,
    );
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(31).build();
    let mut live = DynamicIndex::from_dataset(&data, &cfg);
    for (i, v) in extra.iter().enumerate() {
        live.insert(v.to_vec());
        // Interleave deletes; `i * 7 % 600` revisits ids, so some are
        // misses — they must be harmless no-ops.
        if i % 2 == 0 {
            live.delete((i * 7 % 600) as u32);
        }
    }

    let survivors: Vec<(u32, Vec<f32>)> = live
        .slots()
        .iter()
        .enumerate()
        .filter_map(|(oid, slot)| slot.as_ref().map(|v| (oid as u32, v.to_vec())))
        .collect();
    let mut fresh = DynamicIndex::new(live.dim(), live.expected_n(), &cfg);
    for (_, v) in &survivors {
        fresh.insert(v.clone());
    }
    assert_eq!(fresh.len(), live.len());

    for qi in [0usize, 100, 299, 599] {
        let q = data.get(qi);
        for k in [1usize, 5, 10] {
            let (live_nn, live_stats) = live.query(q, k);
            let (fresh_nn, fresh_stats) = fresh.query(q, k);
            assert_eq!(live_nn.len(), fresh_nn.len(), "query {qi} k {k}");
            for (l, f) in live_nn.iter().zip(&fresh_nn) {
                assert_eq!(l.dist, f.dist, "query {qi} k {k}");
                let rank = survivors
                    .iter()
                    .position(|(oid, _)| *oid == l.id)
                    .expect("result id must be a survivor");
                assert_eq!(f.id as usize, rank, "order-preserving id map, query {qi}");
            }
            assert_eq!(live_stats.terminated_by, fresh_stats.terminated_by);
            assert_eq!(live_stats.candidates_verified, fresh_stats.candidates_verified);
        }
    }
}

#[test]
fn extreme_magnitude_coordinates_sort_totally() {
    // Candidate ranking uses total_cmp: huge, tiny-subnormal and zero
    // distances must order deterministically without panicking.
    let rows: Vec<Vec<f32>> = vec![
        vec![0.0, 0.0, 0.0, 0.0],
        vec![1.0e15, 0.0, 0.0, 0.0],
        vec![-1.0e15, 0.0, 0.0, 0.0],
        vec![1.0e-40, 0.0, 0.0, 0.0], // subnormal f32
        vec![-1.0e-40, 1.0e-40, 0.0, 0.0],
        vec![3.0e14, -3.0e14, 3.0e14, -3.0e14],
        vec![0.5, 0.5, 0.5, 0.5],
        vec![-0.0, 0.0, -0.0, 0.0], // negative zero coordinates
    ];
    let data = cc_vector::Dataset::from_rows(&rows);
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(3).build();
    let mem = C2lshIndex::build(&data, &cfg);
    let dynm = c2lsh::DynamicIndex::from_dataset(&data, &cfg);
    let q = vec![0.0f32; 4];
    for nn in [mem.query(&q, rows.len()).0, dynm.query(&q, rows.len()).0] {
        assert_eq!(nn.len(), rows.len(), "every object verified and returned");
        for w in nn.windows(2) {
            assert!(
                w[0].dist < w[1].dist || (w[0].dist == w[1].dist && w[0].id < w[1].id),
                "strict total order violated: {w:?}"
            );
        }
        assert_eq!(nn[0].id, 0, "exact match first");
        // Ground truth agrees under the same total order.
        let gt = cc_vector::gt::knn_linear(&data, &q, rows.len());
        assert_eq!(nn, gt);
    }
}

#[test]
fn saturated_bucket_ids_end_every_query() {
    // A finite query far past the key space hashes to bucket `i64::MIN`
    // or `i64::MAX` in every table, and so does such a data row. Windows
    // saturate with them, and the round run at the saturated radius is
    // the last: every store ends each query, and all five answer alike.
    use c2lsh::sharded::{ShardedData, ShardedEngine};
    use c2lsh::{DynamicIndex, PagedStore, Termination};
    let near = generate(
        Distribution::GaussianMixture { clusters: 3, spread: 0.05, scale: 5.0 },
        60,
        4,
        17,
    );
    let mut rows: Vec<Vec<f32>> = near.iter().map(<[f32]>::to_vec).collect();
    rows.push(vec![1.0e30; 4]);
    let far = cc_vector::Dataset::from_rows(&rows);
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(3).build();
    let dir = cc_storage::wal::scratch_dir("saturated_buckets");
    let asks = [
        (&near, vec![1.0e30f32; 4], 5),
        (&near, vec![-1.0e30, 5.0, 0.0, 0.0], 5),
        // Every reachable point, one of them past the key space.
        (&far, near.get(0).to_vec(), far.len() + 1),
    ];
    for (data, q, k) in asks {
        let paged = PagedStore::build(data, &cfg, dir.join("index.ccpg"), 8).unwrap();
        let shards = ShardedData::partition(data, 3);
        let answers = [
            C2lshIndex::build(data, &cfg).query(&q, k),
            DiskIndex::build(data, &cfg).query(&q, k),
            paged.query(&q, k),
            DynamicIndex::from_dataset(data, &cfg).query(&q, k),
            ShardedEngine::build(&shards, &cfg).query(&q, k),
        ];
        let (nn, stats) = &answers[0];
        assert_eq!(nn.len(), k.min(data.len()), "q {q:?}");
        assert_eq!((stats.rounds, stats.final_radius), (64, i64::MAX), "q {q:?}");
        assert_eq!(stats.terminated_by, Termination::Exhausted, "q {q:?}");
        for (store, (other_nn, other)) in answers.iter().enumerate().skip(1) {
            assert_eq!(other_nn, nn, "store {store}, q {q:?}");
            assert_eq!(other.collisions_counted, stats.collisions_counted, "store {store}");
            assert_eq!(other.terminated_by, stats.terminated_by, "store {store}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
