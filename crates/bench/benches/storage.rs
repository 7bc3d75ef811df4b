//! Micro-benchmark: B+-tree search and range scans.

use cc_storage::bptree::BPlusTree;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_bptree(c: &mut Criterion) {
    let pairs: Vec<(i64, u32)> = (0..100_000).map(|i| (i as i64, i as u32)).collect();
    let tree = BPlusTree::bulk_load(&pairs);
    c.bench_function("bptree_lower_bound_100k", |b| b.iter(|| tree.lower_bound(black_box(73_421))));
    c.bench_function("bptree_range_scan_1k", |b| {
        b.iter(|| tree.range(black_box(50_000), black_box(51_000)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_bptree
}
criterion_main!(benches);
