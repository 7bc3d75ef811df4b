//! `cc-obs` — dependency-free observability primitives for the
//! collision-counting engine and its query service.
//!
//! The crate deliberately uses nothing but `std`: the workspace builds
//! offline against vendored shims, so every building block here is
//! hand-rolled and small enough to audit:
//!
//! * [`Histogram`] — a lock-free log-linear histogram (HDR-style):
//!   p50/p90/p99/p999 with a bounded ≤ 1/32 relative error, without
//!   ever storing samples. Snapshots [`merge`](HistSnapshot::merge)
//!   associatively, so per-shard or per-thread histograms fold into a
//!   fleet-wide view.
//! * [`Counter`] — a cache-padded, striped atomic counter for hot
//!   paths where a single `AtomicU64` would bounce between cores.
//! * [`Trace`] / [`SpanGuard`] / [`span!`] — RAII span guards that
//!   record `(name, start, duration, depth, detail)` tuples into a
//!   per-query trace tree; zero allocation when tracing is off.
//! * [`SlowLog`] — a fixed-capacity ring buffer of the slowest / most
//!   recent offending queries with their span trees.
//! * [`PromText`] — Prometheus text-format exposition (`# HELP` /
//!   `# TYPE`, duplicate-series detection, summary quantiles), and
//!   [`sample`], its one reader.
//! * [`MetricsServer`] — a minimal HTTP/1.0 listener serving
//!   `/metrics`, `/healthz` and `/slowlog` for scrapers and humans.
//!
//! Everything is opt-in and gated by [`ObsConfig`]: with observability
//! disabled no histogram is touched and no span is allocated, so the
//! query path pays nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod hist;
mod http;
mod prom;
mod slowlog;
mod span;

pub use counter::Counter;
pub use hist::{HistSnapshot, Histogram, NUM_BUCKETS};
pub use http::{http_get, MetricsServer, MetricsSource};
pub use prom::{sample, PromText};
pub use slowlog::{SlowLog, SlowQuery};
pub use span::{SpanGuard, SpanRecord, Trace};

/// Run-time switches for the observability layer.
///
/// The default is everything off — the instrumented code paths check
/// these flags before touching any histogram or allocating any span,
/// so a disabled config is free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when `false` no metric is recorded at all.
    pub enabled: bool,
    /// Capture a full span tree for every `trace_sample_every`-th
    /// query (`0` disables sampling entirely).
    pub trace_sample_every: u32,
    /// Queries slower than this end-to-end threshold are recorded in
    /// the slow-query ring log (`0` disables the slow log).
    pub slow_query_ms: u64,
    /// Capacity of the slow-query ring buffer.
    pub slow_log_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: false, trace_sample_every: 0, slow_query_ms: 0, slow_log_capacity: 64 }
    }
}

impl ObsConfig {
    /// A sensible "everything on" config: metrics enabled, every 64th
    /// query traced, queries over 100 ms logged.
    pub fn all_on() -> Self {
        ObsConfig {
            enabled: true,
            trace_sample_every: 64,
            slow_query_ms: 100,
            slow_log_capacity: 64,
        }
    }
}
