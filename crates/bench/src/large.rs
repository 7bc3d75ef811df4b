//! The out-of-core slice: `n` synthetic 64-d points streamed through
//! [`PagedBuilder`] into a page file and queried through a buffer pool
//! of a twentieth of it.
//!
//! The data set is never materialized: points are generated in chunks
//! and appended to the builder while exact ground truth is gathered into
//! per-query top-k heaps (early-abandoned against the current k-th
//! distance), so the working set is one chunk plus the heaps whatever
//! `n` is, and peak RSS stays far below the page file's size. The run
//! ends with an equal-parameter parity sub-run: the in-memory and the
//! paged backend built on the same materialized 100 000-point slice
//! must recall the same.

use c2lsh::{Beta, C2lshConfig, C2lshIndex, PagedBuilder, PagedStore};
use cc_vector::dataset::Dataset;
use cc_vector::dist::euclidean_sq_bounded;
use cc_vector::gt::{ground_truth, Neighbor};
use cc_vector::metrics::recall;
use cc_vector::scale::{mean_nn_distance, rescale};
use cc_vector::topk::TopK;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;

/// Dimensionality of the streamed points.
const DIM: usize = 64;
/// Points per generated chunk — the largest slice of the data set ever
/// resident in memory.
const CHUNK: usize = 50_000;
/// Mixture components of the clustered distribution.
const CLUSTERS: usize = 64;
/// Points in the equal-parameter parity sub-run.
const PARITY_N: usize = 100_000;

/// Streaming Gaussian-mixture generator.
///
/// [`cc_vector::gen::Distribution::GaussianMixture`] draws its cluster
/// centers from the call's own seed, so generating a huge data set in
/// chunks with per-chunk seeds would *move the mixture* between chunks.
/// This generator fixes the centers once and hands out chunks of the
/// same virtual stream: chunk contents depend on the chunk seed, the
/// distribution does not. Uniform data would stream trivially but is
/// the worst case for LSH contrast at d = 64 (distance concentration
/// drives recall toward zero for every method), which would make the
/// slice useless as a regression signal.
struct StreamMixture {
    centers: Vec<Vec<f64>>,
    sigma: f64,
}

impl StreamMixture {
    fn new(seed: u64, scale: f64, spread: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers =
            (0..CLUSTERS).map(|_| (0..DIM).map(|_| rng.gen::<f64>() * scale).collect()).collect();
        Self { centers, sigma: spread * scale }
    }

    /// Points `[start, start + n)` of the virtual stream, as a data set.
    fn chunk(&self, seed: u64, start: usize, n: usize) -> Dataset {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (start as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut normal = cc_vector::gen::NormalSampler::new();
        let mut flat = Vec::with_capacity(n * DIM);
        for i in start..start + n {
            for &cj in &self.centers[i % CLUSTERS] {
                flat.push((cj + self.sigma * normal.sample(&mut rng)) as f32);
            }
        }
        Dataset::from_flat(DIM, flat)
    }
}

/// What one run of the slice measured.
#[derive(Debug, Clone)]
pub struct LargeRun {
    /// Points streamed into the page file.
    pub n: usize,
    /// Size of the page file.
    pub file_bytes: u64,
    /// Plain-layout posting bytes over compressed posting bytes.
    pub compression: f64,
    /// Mean physical page reads (pool misses) per query.
    pub reads_per_query: f64,
    /// Share of page requests the pool answered.
    pub pool_hit_rate: f64,
    /// Mean recall against the exact neighbors of the streamed set.
    pub recall: f64,
    /// VmHWM after the query phase, before the materialized parity
    /// sub-run raises it.
    pub peak_rss_bytes: u64,
    /// Points in the parity sub-run.
    pub parity_n: usize,
    /// Recall of the paged backend on the parity slice.
    pub paged_parity_recall: f64,
    /// Recall of the in-memory backend on the parity slice.
    pub mem_parity_recall: f64,
}

/// Peak resident set size (VmHWM) of this process, in bytes; 0 when
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next());
    kib.and_then(|kib| kib.parse::<u64>().ok()).unwrap_or(0) * 1024
}

/// Stream `n` points through the paged tier and query it with `nq`
/// held-out queries at depth `k`.
pub fn run(n: usize, nq: usize, k: usize, seed: u64) -> io::Result<LargeRun> {
    let mix = StreamMixture::new(seed, 10.0, 0.02);
    // Unit-NN normalization factor from a probe chunk — the paper's
    // protocol, estimated on a sample because the full set never
    // exists in memory.
    let factor = 1.0 / mean_nn_distance(&mix.chunk(seed, 0, 20_000.min(n)), 50);
    let queries = rescale(&mix.chunk(seed ^ 0x9e37_79b9, 0, nq), factor);

    // The paper's default verification budget (β·n = 100) is tuned for
    // its ≤ 68k-point data sets; held constant to 1M points it truncates
    // the candidate list long before the true neighbors are verified
    // and recall decays with n for *every* backend. Scale the budget
    // sublinearly (0.2% of n, floor 100) so the slice measures the disk
    // tier, not budget starvation.
    let beta = Beta::Count((n as u64 / 500).max(100));
    let config = C2lshConfig::builder().bucket_width(2.184).seed(seed).beta(beta).build();

    let scratch = |what: &str| {
        std::env::temp_dir().join(format!("cc-bench-{what}-{}.ccpg", std::process::id()))
    };
    let mut builder = PagedBuilder::create(scratch("large"), DIM, n, &config)?;
    let mut heaps: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
    let mut next_id = 0u32;
    for (chunk_i, start) in (0..n).step_by(CHUNK).enumerate() {
        let take = CHUNK.min(n - start);
        let chunk =
            rescale(&mix.chunk(seed.wrapping_add(1000 + chunk_i as u64), start, take), factor);
        for row in chunk.iter() {
            builder.append(row)?;
            for (q, heap) in queries.iter().zip(&mut heaps) {
                if let Some(d_sq) = euclidean_sq_bounded(q, row, heap.bound_sq()) {
                    heap.insert(d_sq, next_id);
                }
            }
            next_id += 1;
        }
        eprintln!("[ingested {next_id}/{n}]");
    }
    let truth: Vec<Vec<Neighbor>> = heaps.iter_mut().map(TopK::drain_sorted).collect();
    let mut store = builder.finish(1)?.delete_file_on_drop();
    let file_pages = (store.file_bytes() as usize).div_ceil(cc_storage::PAGE_SIZE);
    store.set_pool_pages((file_pages / 20).max(256));

    // Every posting and every vector comes through the buffer pool;
    // physical reads (pool misses) are the paper's cost model for a
    // cached disk index.
    let mean_recall = |answer: &dyn Fn(&[f32]) -> Vec<Neighbor>, truth: &[Vec<Neighbor>]| {
        queries.iter().zip(truth).map(|(q, t)| recall(&answer(q), t)).sum::<f64>() / nq as f64
    };
    let recall_large = mean_recall(&|q| store.query(q, k).0, &truth);
    let reads_per_query = store.physical_reads() as f64 / nq as f64;
    let peak_rss_bytes = peak_rss_bytes();

    // Both backends on the same materialized slice, same config — the
    // paged tier must not trade recall away.
    let parity_n = PARITY_N.min(n);
    let parity_data = rescale(&mix.chunk(seed.wrapping_add(77), 0, parity_n), factor);
    let parity_truth = ground_truth(&parity_data, &queries, k);
    let mem_index = C2lshIndex::build(&parity_data, &config);
    let parity_pool = ((parity_n * DIM * 4 / cc_storage::PAGE_SIZE) / 20).max(64);
    let parity_store = PagedStore::build(&parity_data, &config, scratch("parity"), parity_pool)?
        .delete_file_on_drop();

    Ok(LargeRun {
        n,
        file_bytes: store.file_bytes(),
        compression: store.uncompressed_posting_bytes() as f64
            / store.posting_bytes().max(1) as f64,
        reads_per_query,
        pool_hit_rate: store.pool_stats().hit_ratio(),
        recall: recall_large,
        peak_rss_bytes,
        parity_n,
        paged_parity_recall: mean_recall(&|q| parity_store.query(q, k).0, &parity_truth),
        mem_parity_recall: mean_recall(&|q| mem_index.query(q, k).0, &parity_truth),
    })
}
