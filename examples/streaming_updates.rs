//! Streaming updates + checkpoints — the operational story.
//!
//! The paper argues C2LSH is update-friendly: every hash table is keyed
//! by a single LSH function, so inserting or deleting an object touches
//! exactly `m` buckets — no compound keys to recompute, no per-radius
//! indexes to maintain. This example runs a rolling window over a
//! stream of vectors with [`c2lsh::DynamicIndex`], then runs the same
//! window through a durable [`c2lsh::MutableIndex`] in a temporary
//! directory, checkpoints it and reopens it.
//!
//! ```text
//! cargo run --release --example streaming_updates
//! ```

use c2lsh::{C2lshConfig, DynamicIndex, MutableIndex, MutationOp};
use cc_vector::gen::{generate, Distribution};

fn main() {
    let d = 32;
    let stream = generate(
        Distribution::GaussianMixture { clusters: 24, spread: 0.02, scale: 10.0 },
        6_000,
        d,
        99,
    );
    let config = C2lshConfig::builder().bucket_width(1.0).seed(4).build();

    // --- Part 1: rolling window over a stream -------------------------
    let window = 2_000;
    let mut index = DynamicIndex::new(d, window, &config);
    let mut in_window: Vec<u32> = Vec::new();
    let mut found = 0u32;
    let mut probes = 0u32;
    for i in 0..stream.len() {
        let oid = index.insert(stream.get(i).to_vec());
        in_window.push(oid);
        if in_window.len() > window {
            let evicted = in_window.remove(0);
            assert!(index.delete(evicted));
        }
        // Every 500 arrivals, look up the most recent vector.
        if i % 500 == 499 {
            probes += 1;
            let q = stream.get(i).to_vec();
            let (nn, _) = index.query(&q, 1);
            if nn.first().map(|n| n.dist == 0.0).unwrap_or(false) {
                found += 1;
            }
        }
    }
    println!(
        "rolling window: processed {} arrivals, window {} live, self-lookup hit {}/{}",
        stream.len(),
        index.len(),
        found,
        probes
    );

    // --- Part 2: the same window, durable: checkpoint and reopen -----
    // Every arrival and eviction is logged and fsynced before it is
    // acknowledged; a checkpoint folds the log into one file, and a
    // reopen reads that file back.
    let dir = std::env::temp_dir().join(format!("streaming-updates-{}", std::process::id()));
    let durable = MutableIndex::open(&dir, d, window, &config).expect("open");
    for start in (0..stream.len()).step_by(500) {
        let mut batch = Vec::new();
        for i in start..start + 500 {
            batch.push(MutationOp::Insert {
                vector: stream.get(i).to_vec(),
                meta: Default::default(),
            });
            if i >= window {
                batch.push(MutationOp::Delete { oid: (i - window) as u32 });
            }
        }
        durable.apply_batch(&batch).expect("durable batch");
    }
    durable.checkpoint().expect("checkpoint");
    let bytes = std::fs::metadata(dir.join(c2lsh::mutable::CHECKPOINT_FILE)).expect("stat").len();
    println!(
        "\ncheckpoint: {:.1} MiB for {} live vectors (m = {} tables, rebuilt on reopen)",
        bytes as f64 / (1024.0 * 1024.0),
        durable.len(),
        index.params().m
    );
    drop(durable);
    let reopened = MutableIndex::open(&dir, d, window, &config).expect("reopen");
    for i in [0, 2_345, stream.len() - 1] {
        let q = stream.get(i);
        assert_eq!(index.query(q, 5).0, reopened.query(q, 5).0, "query {i}");
    }
    println!("reopened index answers as the in-memory window does: verified on three queries");
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
}
