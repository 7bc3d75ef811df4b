//! Sustained-write soak for the persistent [`MutableIndex`]: thousands
//! of durable one-op batches at constant resident size, with readers
//! holding snapshots across writes, must not grow the process's peak
//! resident set, and a cold reopen must reproduce the acknowledged
//! history. Release-only (the CI fault-injection job runs it) and
//! Linux-only (`VmHWM` comes from `/proc/self/status`). It is the only
//! test in this binary, so nothing else moves the high-water mark.
#![cfg(target_os = "linux")]

mod common;

use c2lsh::{C2lshConfig, DynamicIndex, MutableIndex, MutationAck, MutationOp, TableStore};
use cc_storage::wal::scratch_dir;
use cc_vector::gen::{generate, Distribution};
use common::vm_hwm_kib;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode soak, run by the CI fault-injection job")]
fn mutable_soak_keeps_peak_rss_flat_and_reopens_to_the_acked_history() {
    const N: usize = 20_000;
    const DIM: usize = 16;
    const BATCHES: usize = 3_000;
    const SETTLE: usize = 100;

    let dir = scratch_dir("mutable-soak");
    let config = C2lshConfig::builder().bucket_width(1.0).seed(31).build();
    let mixture = Distribution::GaussianMixture { clusters: 64, spread: 0.02, scale: 10.0 };
    let data = generate(mixture, N + BATCHES / 2, DIM, 32);
    let insert = |row: usize| MutationOp::Insert {
        vector: data.get(row).to_vec(),
        meta: Default::default(),
    };

    let index = MutableIndex::open(&dir, DIM, N, &config).unwrap();
    // What the acknowledgements say the index holds, op by op.
    let mut reference = DynamicIndex::new(DIM, N, &config);
    for start in (0..N).step_by(1000) {
        let ops: Vec<MutationOp> = (start..start + 1000).map(insert).collect();
        index.apply_batch(&ops).unwrap();
        for row in start..start + 1000 {
            reference.insert(data.get(row).to_vec());
        }
    }

    let stop = AtomicBool::new(false);
    let mut settled_kib = 0;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                // Take a snapshot, keep it while at least two more
                // batches publish, then check it still is what it was.
                while !stop.load(Ordering::SeqCst) {
                    let (held, seq) = index.snapshot();
                    let (len, bound) = (held.len(), TableStore::id_bound(&*held));
                    assert_eq!(len, N + (seq % 2) as usize, "resident size at seq {seq}");
                    while index.last_seq() < seq + 2 && !stop.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    let (nn, _) = held.query(data.get(seq as usize % N), 1);
                    assert_eq!(nn[0].dist, 0.0, "held snapshot lost a base point");
                    assert_eq!((held.len(), TableStore::id_bound(&*held)), (len, bound));
                }
            });
        }
        let mut newest = 0;
        for batch in 0..BATCHES {
            if batch == SETTLE {
                settled_kib = vm_hwm_kib();
            }
            // Insert a fresh point, then delete it again: N or N + 1
            // resident objects throughout.
            let op = if batch % 2 == 0 {
                insert(N + batch / 2)
            } else {
                MutationOp::Delete { oid: newest }
            };
            let (acks, _) = index.apply_batch(std::slice::from_ref(&op)).unwrap();
            match (acks[0], op) {
                (MutationAck::Inserted { oid, .. }, MutationOp::Insert { vector, .. }) => {
                    assert_eq!(reference.insert(vector), oid);
                    newest = oid;
                }
                (MutationAck::Deleted { oid, found: true, .. }, _) => {
                    assert!(reference.delete(oid))
                }
                (ack, op) => panic!("batch {batch}: {op:?} acknowledged as {ack:?}"),
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    let grown = vm_hwm_kib() as f64 / settled_kib as f64;
    println!("VmHWM {settled_kib} KiB after {SETTLE} batches, x{grown:.3} after {BATCHES}");
    assert!(grown < 1.10, "VmHWM grew {grown:.3}x over {} one-op batches", BATCHES - SETTLE);

    let last_seq = index.last_seq();
    drop(index);
    let reopened = MutableIndex::open(&dir, DIM, N, &config).unwrap();
    assert_eq!(reopened.last_seq(), last_seq);
    let (snapshot, _) = reopened.snapshot();
    assert_eq!(snapshot.slots(), reference.slots(), "reopen differs from the acked history");
    for row in (0..N).step_by(997) {
        assert_eq!(snapshot.query(data.get(row), 5).0, reference.query(data.get(row), 5).0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
