//! # cc-bench — experiment harness
//!
//! One runnable binary per table/figure of the C2LSH evaluation (see
//! `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! recorded results). The shared machinery lives here:
//!
//! * [`large`] — the out-of-core slice: points streamed through the
//!   paged tier, never materialized,
//! * [`methods`] — a uniform [`methods::AnnIndex`] facade over C2LSH
//!   (memory + disk), QALSH, E2LSH, rigorous-LSH, LSB-forest and linear
//!   scan,
//! * [`eval`] — run a query set through a method and aggregate recall,
//!   ratio, candidates, I/O and wall-clock time,
//! * [`prep`] — workload preparation with nearest-neighbor-scale
//!   normalization (the paper's datasets are normalized so the theory's
//!   `R = 1` base radius is meaningful),
//! * [`report`] — the machine-readable `BENCH_<tag>.json` schema the
//!   unified `bench run` binary emits, plus the CI regression gate,
//! * [`table`] — aligned console tables plus CSV output under
//!   `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod large;
pub mod methods;
pub mod prep;
pub mod report;
pub mod table;

/// Default experiment scale (fraction of the paper-scale dataset sizes).
/// Override with the `CC_SCALE` environment variable.
pub const DEFAULT_SCALE: f64 = 0.10;

/// Default number of held-out queries (the paper uses 100). Override
/// with `CC_QUERIES`.
pub const DEFAULT_QUERIES: usize = 50;

/// Read an `f64` environment override.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read a `usize` environment override.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The scale to run experiments at (`CC_SCALE`, default
/// [`DEFAULT_SCALE`]).
pub fn scale() -> f64 {
    env_f64("CC_SCALE", DEFAULT_SCALE)
}

/// The query count (`CC_QUERIES`, default [`DEFAULT_QUERIES`]).
pub fn queries() -> usize {
    env_usize("CC_QUERIES", DEFAULT_QUERIES)
}
