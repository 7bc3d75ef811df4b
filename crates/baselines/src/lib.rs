//! # cc-baselines — comparators for the C2LSH evaluation
//!
//! Every method the paper's figures compare against, implemented from
//! scratch on the same substrates:
//!
//! * [`linear`] — exact linear scan (ground truth / upper bound),
//! * [`e2lsh`] — classic E2LSH: static concatenation of `K` p-stable
//!   functions into `L` hash tables,
//! * [`rigorous`] — rigorous-LSH: one E2LSH index per search radius
//!   `R ∈ {1, c, c², …}` (the index-size blow-up C2LSH eliminates),
//! * [`lsb`] — LSB-forest (Tao et al., SIGMOD 2009): z-order-encoded
//!   compound hashes in `L` sorted trees merged by longest-common-prefix
//!   priority; the paper's primary competitor.
//!
//! All query entry points return `(Vec<Neighbor>, BaselineStats)` so the
//! harness can tabulate cost alongside quality uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e2lsh;
pub mod linear;
pub mod lsb;
pub mod multiprobe;
pub mod rigorous;

use cc_storage::IoStats;

/// Uniform per-query cost counters for the baseline methods.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BaselineStats {
    /// Objects whose true distance was computed.
    pub candidates_verified: usize,
    /// Of the verified candidates, how many the early-abandon kernel cut
    /// short (partial distance already beyond the running k-th best).
    /// They still count in `candidates_verified` and in the I/O model —
    /// the page fetch happens before the distance loop.
    pub candidates_abandoned: usize,
    /// Hash-table buckets / tree positions probed.
    pub probes: usize,
    /// Modeled page I/O (4 KiB granularity; see each module's cost model).
    pub io: IoStats,
}
