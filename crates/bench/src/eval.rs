//! Query-set evaluation: run a method over a workload, aggregate the
//! paper's metrics.
//!
//! Cost counters are aggregated through [`BatchStats`] — the same
//! aggregation the engine's batch executor produces — so the harness
//! never hand-sums counters; only the quality metrics (recall, ratio),
//! which need per-query ground truth, keep their own accumulators.

use crate::methods::AnnIndex;
use c2lsh::BatchStats;
use cc_math::stats::mean;
use cc_vector::metrics::{overall_ratio, recall};
use cc_vector::workload::Workload;
use std::time::Instant;

/// Aggregated result of one (method, workload, k) cell.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Method display name.
    pub method: String,
    /// Neighbors requested.
    pub k: usize,
    /// Mean recall over the query set.
    pub recall: f64,
    /// Mean overall ratio over the query set.
    pub ratio: f64,
    /// Mean verified candidates per query.
    pub verified: f64,
    /// Mean page reads per query.
    pub io_reads: f64,
    /// Mean wall-clock query time in milliseconds.
    pub time_ms: f64,
    /// Index size in MiB.
    pub index_mib: f64,
}

/// Run every workload query at depth `k` through `index`.
pub fn evaluate(index: &dyn AnnIndex, w: &Workload, k: usize) -> EvalRow {
    let (row, _) = evaluate_with_stats(index, w, k);
    row
}

/// [`evaluate`], also returning the aggregated [`BatchStats`] for
/// callers that want rounds / termination tallies beyond the row.
pub fn evaluate_with_stats(index: &dyn AnnIndex, w: &Workload, k: usize) -> (EvalRow, BatchStats) {
    let truth = w.truth_at(k);
    let mut recalls = Vec::with_capacity(w.queries.len());
    let mut ratios = Vec::with_capacity(w.queries.len());
    let mut agg = BatchStats::default();
    for (qi, q) in w.queries.iter().enumerate() {
        let t0 = Instant::now();
        let (nn, mut stats) = index.query(q, k);
        if stats.elapsed_nanos == 0 {
            // Baselines don't self-time; stamp the harness measurement.
            stats.elapsed_nanos = t0.elapsed().as_nanos() as u64;
        }
        recalls.push(recall(&nn, &truth[qi]));
        ratios.push(overall_ratio(&nn, &truth[qi]));
        agg.absorb(&stats);
    }
    let row = EvalRow {
        method: index.name().to_string(),
        k,
        recall: mean(&recalls),
        ratio: mean(&ratios),
        verified: agg.mean_verified(),
        io_reads: agg.mean_io_reads(),
        time_ms: agg.mean_time_ms(),
        index_mib: index.size_bytes() as f64 / (1024.0 * 1024.0),
    };
    (row, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::defaults;
    use cc_vector::synth::Profile;

    #[test]
    fn linear_scan_is_exact() {
        let w = Workload::from_profile(Profile::Color, 0.01, 5, 10, 1);
        let idx = defaults::linear(&w.data);
        let (row, agg) = evaluate_with_stats(&idx, &w, 10);
        assert_eq!(row.recall, 1.0);
        assert!((row.ratio - 1.0).abs() < 1e-12);
        assert_eq!(row.method, "LinearScan");
        assert_eq!(row.verified, w.n() as f64);
        assert_eq!(agg.queries, w.queries.len());
        assert!(row.time_ms > 0.0, "harness stamps wall time for baselines");
    }

    #[test]
    fn engine_methods_report_rounds_and_termination() {
        let w = Workload::from_profile(Profile::Color, 0.02, 5, 10, 2);
        let idx = defaults::c2lsh(&w.data, 7);
        let (row, agg) = evaluate_with_stats(&idx, &w, 10);
        assert_eq!(agg.queries, w.queries.len());
        assert!(agg.rounds >= agg.queries as u64, "at least one round per query");
        assert_eq!(agg.t1 + agg.t2 + agg.exhausted, agg.queries);
        assert!(row.time_ms > 0.0, "engine self-times with the timing flag");
    }
}
