//! Streaming updates + checkpoints — the operational story.
//!
//! The paper argues C2LSH is update-friendly: every hash table is keyed
//! by a single LSH function, so inserting or deleting an object touches
//! exactly `m` buckets — no compound keys to recompute, no per-radius
//! indexes to maintain. This example runs a rolling window over a
//! stream of vectors with [`c2lsh::DynamicIndex`], then checkpoints the
//! window to bytes and reloads it.
//!
//! ```text
//! cargo run --release --example streaming_updates
//! ```

use c2lsh::{C2lshConfig, DynamicIndex};
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

    // --- Part 2: checkpoint the window to bytes and reload ------------
    let mut blob = Vec::new();
    c2lsh::save_dynamic(&index, stream.len() as u64, &mut blob).expect("checkpoint");
    println!(
        "\ncheckpoint: {:.1} MiB for {} live vectors (m = {} tables, rebuilt on load)",
        blob.len() as f64 / (1024.0 * 1024.0),
        index.len(),
        index.params().m
    );
    let (reloaded, _) = c2lsh::load_dynamic(&blob, d, window, index.config()).expect("reload");
    for i in [0, 2_345, stream.len() - 1] {
        let q = stream.get(i);
        assert_eq!(index.query(q, 5).0, reloaded.query(q, 5).0, "query {i}");
    }
    println!("reloaded index answers identically: verified on three queries");
}
