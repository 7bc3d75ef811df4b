//! Exact linear scan.
//!
//! The quality upper bound (ratio 1.0, recall 1.0) and the cost lower
//! bound every approximate method must beat. Its disk cost model is the
//! full sequential read of the data file: `⌈n·d·4 / 4096⌉` pages.

use crate::BaselineStats;
use cc_storage::IoStats;
use cc_vector::dataset::Dataset;
use cc_vector::gt::{knn_linear, Neighbor};

/// Linear-scan "index" (borrowing the dataset).
#[derive(Debug)]
pub struct LinearScan<'d> {
    data: &'d Dataset,
}

impl<'d> LinearScan<'d> {
    /// Wrap a dataset.
    pub fn new(data: &'d Dataset) -> Self {
        Self { data }
    }

    /// Exact k-NN plus its (trivially predictable) cost.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, BaselineStats) {
        let nn = knn_linear(self.data, q, k);
        let bytes = self.data.payload_bytes();
        let stats = BaselineStats {
            candidates_verified: self.data.len(),
            probes: 1,
            io: IoStats { reads: (bytes as u64).div_ceil(4096), writes: 0 },
            ..BaselineStats::default()
        };
        (nn, stats)
    }

    /// Index size: zero — linear scan needs no auxiliary structure.
    pub fn size_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_costed() {
        let data = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![3.0, 3.0]]);
        let scan = LinearScan::new(&data);
        let (nn, stats) = scan.query(&[0.9, 0.9], 2);
        assert_eq!(nn[0].id, 1);
        assert_eq!(nn[1].id, 0);
        assert_eq!(stats.candidates_verified, 3);
        assert_eq!(stats.io.reads, 1); // 24 bytes -> 1 page
        assert_eq!(scan.size_bytes(), 0);
    }
}
