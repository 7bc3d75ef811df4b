//! `cc-obs` — dependency-free observability primitives for the
//! collision-counting engine and its query service.
//!
//! The crate deliberately uses nothing but `std`: the workspace builds
//! offline against vendored shims, so every building block here is
//! hand-rolled and small enough to audit:
//!
//! * [`Histogram`] — a lock-free log-linear histogram (HDR-style):
//!   p50/p90/p99/p999 with a bounded ≤ 1/32 relative error, without
//!   ever storing samples.
//! * [`Counter`] — a monotone counter, one relaxed `AtomicU64`.
//! * [`SpanRecord`] — one `(name, start, duration, depth, detail)`
//!   interval of a traced query. The engine records a query's rounds;
//!   the service lays them out as these records.
//! * [`SlowLog`] — a fixed-capacity ring buffer of the most recent
//!   offending queries with their spans.
//! * [`PromText`] — Prometheus text-format exposition (`# HELP` /
//!   `# TYPE`, duplicate-series detection, summary quantiles), and
//!   [`sample`], its one reader.
//! * [`MetricsServer`] — a minimal HTTP/1.0 listener serving
//!   `/metrics`, `/healthz` and `/slowlog` for scrapers and humans,
//!   one connection at a time; its [`Deadline`] reader bounds how long
//!   a request may take to arrive (the service reads its frames so too).
//!
//! Everything is opt-in and gated by [`ObsConfig`]: with observability
//! disabled no histogram is touched and no span is laid out.

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
pub use http::{http_get, Deadline, MetricsServer, MetricsSource};
pub use prom::{sample, PromText};
pub use slowlog::{SlowLog, SlowQuery};
pub use span::SpanRecord;

/// Run-time switches for the observability layer.
///
/// The default is everything off — the instrumented code paths check
/// these flags before touching any histogram or laying out any span,
/// so a disabled config is free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when `false` no metric is recorded at all.
    pub enabled: bool,
    /// Trace every `trace_sample_every`-th query: record its rounds
    /// (`0` disables sampling entirely).
    pub trace_sample_every: u32,
    /// Queries slower than this end-to-end threshold are recorded in
    /// the slow-query ring log (`0` disables the slow log).
    pub slow_query_ms: u64,
}

impl ObsConfig {
    /// A sensible "everything on" config: metrics enabled, every 64th
    /// query traced, queries over 100 ms logged.
    pub fn all_on() -> Self {
        ObsConfig { enabled: true, trace_sample_every: 64, slow_query_ms: 100 }
    }
}
