//! Concurrency behaviour: shared indexes must be safe to query from many
//! threads and produce exactly the sequential results — and for the
//! mutable index, racing readers must only ever observe batch-boundary
//! states, never a half-applied mutation batch, although a published
//! snapshot and the writer's private clone share every chunk the batch
//! does not write.

use c2lsh::{
    C2lshConfig, C2lshIndex, DiskIndex, DynamicIndex, MutableIndex, MutationOp, TableStore,
};
use cc_vector::gen::{generate, Distribution};
use cc_vector::gt::Neighbor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn clustered(n: usize, d: usize, seed: u64) -> cc_vector::Dataset {
    generate(Distribution::GaussianMixture { clusters: 12, spread: 0.02, scale: 10.0 }, n, d, seed)
}

#[test]
fn concurrent_queries_match_sequential() {
    let data = Arc::new(clustered(1500, 16, 1));
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(2).build();
    let index = C2lshIndex::build(&*data, &cfg);

    // Sequential reference.
    let expected: Vec<Vec<Neighbor>> =
        (0..32).map(|qi| index.query(data.get(qi * 40), 5).0).collect();

    // 8 threads × 4 queries each, interleaved, against the same index.
    let results: Vec<Vec<Neighbor>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..8 {
            let index = &index;
            let data = Arc::clone(&data);
            handles.push(scope.spawn(move || {
                (0..4)
                    .map(|i| {
                        let qi = t * 4 + i;
                        index.query(data.get(qi * 40), 5).0
                    })
                    .collect::<Vec<_>>()
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(results, expected, "concurrent results diverged from sequential");
}

#[test]
fn batch_query_equals_manual_threads() {
    let data = clustered(1000, 12, 3);
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(4).build();
    let index = C2lshIndex::build(&data, &cfg);
    let queries = data.slice_rows(0, 24);
    let (batch, agg) = index.query_batch(&queries, 7);
    assert_eq!(agg.queries, 24);
    assert_eq!(agg.t1 + agg.t2 + agg.exhausted, 24);
    for (qi, (nn, _)) in batch.iter().enumerate() {
        assert_eq!(nn, &index.query(queries.get(qi), 7).0, "query {qi}");
    }
}

#[test]
fn disk_index_io_accounting_is_exact_under_concurrency() {
    // Atomic counters must not lose updates: total I/O after N concurrent
    // queries equals the sum of N identical sequential queries.
    let data = clustered(1200, 8, 5);
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(6).build();
    let disk = DiskIndex::build(&data, &cfg);
    let q = data.get(77).to_vec();

    let (_, one) = disk.query(&q, 5);
    let per_query_tables = one.io.reads - one.candidates_verified as u64;

    let before = disk.io_reads();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let disk = &disk;
            let q = q.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    let _ = disk.query(&q, 5);
                }
            });
        }
    });
    assert_eq!(
        disk.io_reads() - before,
        30 * per_query_tables,
        "lost or duplicated I/O counts under concurrency"
    );
}

#[test]
fn queries_racing_mutation_batches_never_see_a_torn_view() {
    // Every batch is exactly {delete oid i, insert a replacement}: two
    // logged ops, so every published snapshot has an even sequence
    // number, a slot count of base_n + batches_applied, and exactly
    // batches_applied tombstones in the base range. A reader observing
    // any other combination caught a half-applied batch — the bug the
    // clone-and-swap snapshot design exists to make impossible, and the
    // one a write leaking through a chunk it shares with a published
    // snapshot would reintroduce.
    const BASE_N: usize = 400;
    const BATCHES: usize = 120;
    let data = clustered(BASE_N, 8, 21);
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(22).build();
    let index = MutableIndex::ephemeral(DynamicIndex::from_dataset(&data, &cfg));
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let index = &index;
        let stop = &stop;
        let data = &data;
        for _ in 0..4 {
            s.spawn(move || {
                let mut last_seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (snap, seq) = index.snapshot();
                    assert_eq!(seq % 2, 0, "snapshot published mid-batch at seq {seq}");
                    let applied = (seq / 2) as usize;
                    let slots = snap.slots();
                    assert_eq!(slots.len(), BASE_N + applied, "insert visible without its seq");
                    let dead = slots.iter().take(BASE_N).filter(|slot| slot.is_none()).count();
                    assert_eq!(
                        dead, applied,
                        "torn view: {dead} deletes visible after {applied} whole batches"
                    );
                    assert!(seq >= last_seen, "snapshots went backwards");
                    last_seen = seq;
                    // The query path must stamp the same invariant.
                    let (_, stats) = index.query(data.get(BASE_N - 1), 3);
                    assert_eq!(stats.snapshot_seq % 2, 0, "query served mid-batch");
                }
            });
        }
        for i in 0..BATCHES {
            let replacement: Vec<f32> = (0..8).map(|j| 1000.0 + (i * 8 + j) as f32).collect();
            let ops = [
                MutationOp::Delete { oid: i as u32 },
                MutationOp::Insert { vector: replacement, meta: Default::default() },
            ];
            let (acks, _) = index.apply_batch(&ops).unwrap();
            assert_eq!(acks.len(), 2);
        }
        stop.store(true, Ordering::Release);
    });

    assert_eq!(index.last_seq(), (BATCHES * 2) as u64);
    assert_eq!(index.len(), BASE_N, "each batch swapped one object for one");
}
