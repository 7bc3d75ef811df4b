//! What a bulk load through [`MutableIndex`] costs in resident memory,
//! against what it must hold: every vector once and every id once per
//! hash table, as a 2-byte offset inside its segment. Release-only (the CI fault-injection job runs it) and
//! Linux-only (`VmHWM` comes from `/proc/self/status`). It is the only
//! test in this binary, so nothing else moves the high-water mark.
#![cfg(target_os = "linux")]

mod common;

use c2lsh::{C2lshConfig, MutableIndex, MutationOp};
use cc_storage::wal::scratch_dir;
use cc_vector::gen::{generate, Distribution};
use common::vm_hwm_kib;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode load, run by the CI fault-injection job")]
fn a_bulk_load_peaks_near_the_bytes_it_must_hold() {
    const N: usize = 50_000;
    const DIM: usize = 32;
    const BATCH: usize = 4096;

    let dir = scratch_dir("mutable-load-rss");
    let config = C2lshConfig::builder().bucket_width(1.0).seed(31).build();
    let mixture = Distribution::GaussianMixture { clusters: 64, spread: 0.02, scale: 10.0 };
    let data = generate(mixture, N, DIM, 33);
    let index = MutableIndex::open(&dir, DIM, N, &config).unwrap();
    let m = index.snapshot().0.params().m;

    let before_kib = vm_hwm_kib();
    for lo in (0..N).step_by(BATCH) {
        let ops: Vec<MutationOp> = (lo..N.min(lo + BATCH))
            .map(|row| MutationOp::Insert {
                vector: data.get(row).to_vec(),
                meta: Default::default(),
            })
            .collect();
        index.apply_batch(&ops).unwrap();
    }
    index.checkpoint().unwrap();
    let grown = (vm_hwm_kib() - before_kib) as f64 * 1024.0;

    // The vectors, and a 2-byte id per object per table. Everything
    // else — the batch in flight, the block being hashed, the segments a
    // merge reads while it writes their successor, the retained log's and
    // the columns' pointers, the checkpoint blob — is the factor: 2.85
    // with 4-byte ids in the runs (78.4 MiB grown), 1.84 with 2-byte
    // offsets (50.4 MiB; three runs each, equal to the second decimal).
    // The bound sits halfway.
    let payload = (N * (4 * DIM + 2 * m)) as f64;
    println!(
        "VmHWM grew {:.1} MiB for {:.1} MiB of payload: x{:.2}",
        grown / 1048576.0,
        payload / 1048576.0,
        grown / payload
    );
    assert!(grown < 2.35 * payload, "the load held {:.2} times its payload", grown / payload);
    assert_eq!(index.len(), N);
    std::fs::remove_dir_all(&dir).unwrap();
}
