//! Exact k-nearest-neighbor ground truth.
//!
//! Every quality metric in the paper (recall, overall ratio) is defined
//! against the *exact* k-NN of each query, so ground truth must be
//! computed by brute force. Queries are independent, which makes this an
//! embarrassingly parallel scan: the query set is chunked across
//! `std::thread::scope` threads.

use crate::dataset::Dataset;
use crate::dist::euclidean_sq_bounded;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One neighbor: an object id and its (true, non-squared) distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Object id (row index into the base dataset).
    pub id: u32,
    /// Euclidean distance to the query.
    pub dist: f64,
}

impl Neighbor {
    /// Construct a neighbor record.
    pub fn new(id: u32, dist: f64) -> Self {
        Self { id, dist }
    }
}

/// Max-heap entry so `BinaryHeap` keeps the k smallest distances.
#[derive(PartialEq)]
struct HeapEntry {
    dist_sq: f64,
    id: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq.total_cmp(&other.dist_sq).then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Exact k-NN of a single query by linear scan. Results are sorted by
/// ascending distance, ties broken by id for determinism.
pub fn knn_linear(data: &Dataset, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    let k = k.min(data.len());
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for (i, v) in data.iter().enumerate() {
        // The heap root is the exact k-th best squared distance, so the
        // early-abandon bound is exact here (no ranking by sqrt happens
        // until after selection): a candidate abandoned at this bound
        // exceeds the root and would have been rejected below anyway.
        let bound = if heap.len() < k {
            f64::INFINITY
        } else {
            heap.peek().map_or(f64::INFINITY, |top| top.dist_sq)
        };
        let Some(d) = euclidean_sq_bounded(query, v, bound) else {
            continue;
        };
        if heap.len() < k {
            heap.push(HeapEntry { dist_sq: d, id: i as u32 });
        } else if let Some(top) = heap.peek() {
            if d < top.dist_sq || (d == top.dist_sq && (i as u32) < top.id) {
                heap.pop();
                heap.push(HeapEntry { dist_sq: d, id: i as u32 });
            }
        }
    }
    let mut out: Vec<Neighbor> =
        heap.into_iter().map(|e| Neighbor::new(e.id, e.dist_sq.sqrt())).collect();
    out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    out
}

/// Exact k-NN ground truth for a whole query set, in parallel.
///
/// Returns one sorted neighbor list per query, in query order. Thread
/// count defaults to the machine's available parallelism.
pub fn ground_truth(data: &Dataset, queries: &Dataset, k: usize) -> Vec<Vec<Neighbor>> {
    assert_eq!(data.dim(), queries.dim(), "dataset/query dimensionality mismatch");
    let nq = queries.len();
    if nq == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(nq);
    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];

    std::thread::scope(|scope| {
        let chunk = nq.div_ceil(threads);
        for (t, out_chunk) in results.chunks_mut(chunk).enumerate() {
            let lo = t * chunk;
            scope.spawn(move || {
                for (off, slot) in out_chunk.iter_mut().enumerate() {
                    *slot = knn_linear(data, queries.get(lo + off), k);
                }
            });
        }
    });

    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Distribution};

    fn toy() -> Dataset {
        Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0], vec![5.0, 5.0]])
    }

    #[test]
    fn knn_orders_by_distance() {
        let ds = toy();
        let nn = knn_linear(&ds, &[0.1, 0.0], 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[1].id, 1);
        assert_eq!(nn[2].id, 2);
        assert!(nn[0].dist < nn[1].dist && nn[1].dist < nn[2].dist);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let ds = toy();
        let nn = knn_linear(&ds, &[0.0, 0.0], 100);
        assert_eq!(nn.len(), 4);
    }

    #[test]
    fn exact_self_match() {
        let ds = toy();
        let nn = knn_linear(&ds, &[5.0, 5.0], 1);
        assert_eq!(nn[0].id, 3);
        assert_eq!(nn[0].dist, 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = generate(Distribution::UniformCube { side: 1.0 }, 500, 12, 21);
        let queries = generate(Distribution::UniformCube { side: 1.0 }, 33, 12, 22);
        let par = ground_truth(&data, &queries, 7);
        for (qi, got) in par.iter().enumerate() {
            let seq = knn_linear(&data, queries.get(qi), 7);
            assert_eq!(got, &seq, "query {qi} differs");
        }
    }

    #[test]
    fn ties_break_by_id() {
        let ds = Dataset::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0]]);
        let nn = knn_linear(&ds, &[0.0, 0.0], 3);
        assert_eq!(nn.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_query_set() {
        let data = toy();
        let queries = Dataset::empty(2);
        assert!(ground_truth(&data, &queries, 3).is_empty());
    }
}
