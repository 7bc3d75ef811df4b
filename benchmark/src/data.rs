//! Seed → inputs: the dataset, the held-out queries, their exact ground
//! truth and each client's op schedule. Everything a run feeds the
//! program is derived here from `--seed`; the program itself only ever
//! sees the generated vectors.

use c2lsh::C2lshConfig;
use cc_vector::dataset::Dataset;
use cc_vector::gen::{generate, Distribution};
use cc_vector::gt::{ground_truth, Neighbor};
use cc_vector::scale::{mean_nn_distance, rescale};
use std::time::Instant;

/// Neighbours asked for by every query.
pub const K: usize = 10;
/// Dimensionality of the generated vectors.
pub const DIM: usize = 64;
/// Held-out queries; one pass answers each exactly once.
pub const QUERIES: usize = 200;
/// Points per mixture component. With the paper's default bucket width
/// this density lands `recall_at_10` near 0.88 and a `lib-mem` query
/// near 2–3 ms at n = 100 000 (tuned once, see the README).
const POINTS_PER_CLUSTER: usize = 25;
/// The paper's ρ-minimising bucket width for c = 2 on NN-normalised data.
const BUCKET_WIDTH: f64 = 2.184;

/// Generated inputs of one run.
pub struct Inputs {
    pub data: Dataset,
    pub queries: Dataset,
    /// Exact k-NN of every query over `data`.
    pub truth: Vec<Vec<Neighbor>>,
    pub config: C2lshConfig,
    /// Seconds spent generating (reported as `harness.prep_s`).
    pub prep_s: f64,
}

impl Inputs {
    /// `n` clustered points plus [`QUERIES`] held-out queries from the
    /// same mixture, rescaled so the mean 1-NN distance is 1 (the
    /// protocol of `cc_bench::prep`), with exact ground truth.
    pub fn generate(seed: u64, n: usize) -> Inputs {
        let start = Instant::now();
        let mut inputs = Inputs::without_truth(seed, n);
        inputs.truth = ground_truth(&inputs.data, &inputs.queries, K);
        inputs.prep_s = start.elapsed().as_secs_f64();
        inputs
    }

    /// The same inputs without the ground truth, which a set-up does
    /// not need.
    pub fn without_truth(seed: u64, n: usize) -> Inputs {
        let start = Instant::now();
        let dist = Distribution::GaussianMixture {
            clusters: (n / POINTS_PER_CLUSTER).max(1),
            spread: 0.02,
            scale: 10.0,
        };
        let all = generate(dist, n + QUERIES, DIM, seed);
        let base = all.slice_rows(0, n);
        let factor = 1.0 / mean_nn_distance(&base, 50);
        let data = rescale(&base, factor);
        let queries = rescale(&all.slice_rows(n, n + QUERIES), factor);
        let config = C2lshConfig::builder().bucket_width(BUCKET_WIDTH).seed(seed).build();
        Inputs { data, queries, truth: Vec::new(), config, prep_s: start.elapsed().as_secs_f64() }
    }
}

/// One step of a client's pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Query number `.0` of the held-out set.
    Read(u16),
    /// Insert the client's next far-away vector.
    Insert,
    /// Delete the client's own oldest live insert.
    DeleteOldest,
}

/// Reads between two writes on the read/write workload: one write per
/// ten reads, so 9.1 % of a pass's ops are durable writes.
const READS_PER_WRITE: usize = 10;

/// The fixed op list client `client` of `clients` repeats: its share of
/// the held-out queries in a seed-shuffled order, and with `writes` a
/// write after every tenth read, alternating insert and delete so the
/// resident size is the same at the end of every pass.
///
/// The clients' writes are staggered (client 1 writes five reads after
/// client 0). The server answers both clients' ops from one flush, so
/// two clients with the same op list move in lockstep: with unstaggered
/// lists a run either group-commits every pair of writes and delays no
/// read, or slips by one op and delays a read behind every write, and
/// which of the two it does is decided by the first few microseconds.
/// Staggered, every write shares its flush with a read of the other
/// client, in every run.
pub fn schedule(seed: u64, client: usize, clients: usize, writes: bool) -> Vec<Op> {
    let mut order: Vec<u16> = (0..QUERIES as u16).collect();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    let mut ops = Vec::new();
    let mut insert_next = true;
    let stagger = client * READS_PER_WRITE / clients;
    for (i, q) in order.into_iter().skip(client).step_by(clients).enumerate() {
        ops.push(Op::Read(q));
        if writes && (i + 1 + stagger).is_multiple_of(READS_PER_WRITE) {
            ops.push(if insert_next { Op::Insert } else { Op::DeleteOldest });
            insert_next = !insert_next;
        }
    }
    ops
}

/// The schedule as bytes (the determinism test compares these).
#[cfg(test)]
pub fn schedule_bytes(ops: &[Op]) -> Vec<u8> {
    ops.iter()
        .flat_map(|op| match *op {
            Op::Read(q) => [0, (q >> 8) as u8, q as u8],
            Op::Insert => [1, 0, 0],
            Op::DeleteOldest => [2, 0, 0],
        })
        .collect()
}

/// The `counter`-th vector client `client` inserts: every coordinate
/// equal, far outside the normalised data and exact in `f32`, so it
/// never enters a read's top-k and is answerable at distance 0 after a
/// reopen.
pub fn far_vector(client: usize, counter: usize) -> Vec<f32> {
    assert!(counter < 1_000_000 && client < 8, "far vectors must stay exact in f32");
    vec![(100_000 + client * 1_000_000 + counter) as f32; DIM]
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_schedule() {
        for writes in [false, true] {
            let a = schedule_bytes(&schedule(42, 1, 2, writes));
            let b = schedule_bytes(&schedule(42, 1, 2, writes));
            assert_eq!(a, b);
            assert_ne!(a, schedule_bytes(&schedule(43, 1, 2, writes)));
        }
    }

    #[test]
    fn clients_cover_every_query_once() {
        let mut seen = vec![0; QUERIES];
        for c in 0..2 {
            for op in schedule(7, c, 2, true) {
                if let Op::Read(q) = op {
                    seen[q as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn write_schedule_keeps_resident_size_constant() {
        let ops = schedule(42, 0, 2, true);
        let inserts = ops.iter().filter(|o| **o == Op::Insert).count();
        let deletes = ops.iter().filter(|o| **o == Op::DeleteOldest).count();
        assert_eq!(inserts, deletes);
        assert_eq!(inserts + deletes, 10);
        // a delete never precedes the insert it removes
        let mut live = 0i32;
        for op in ops {
            match op {
                Op::Insert => live += 1,
                Op::DeleteOldest => {
                    live -= 1;
                    assert!(live >= 0);
                }
                Op::Read(_) => {}
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let a = Inputs::generate(5, 500);
        let b = Inputs::generate(5, 500);
        assert_eq!(a.data.as_flat(), b.data.as_flat());
        assert_eq!(a.queries.as_flat(), b.queries.as_flat());
        assert_eq!(a.truth, b.truth);
    }
}
