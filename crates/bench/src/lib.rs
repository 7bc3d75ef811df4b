//! # cc-bench — experiment harness
//!
//! One binary, `bench <id>`, prints every table and figure of the C2LSH
//! evaluation (see `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for recorded results); `tests/gates.rs` pins every
//! deterministic quantity of a fixed workload exactly. The shared
//! machinery lives here:
//!
//! * [`methods`] — a uniform [`methods::AnnIndex`] facade over C2LSH
//!   (memory, disk meter, paged), QALSH, E2LSH, rigorous-LSH, LSB-forest,
//!   Multi-Probe LSH and linear scan,
//! * [`eval`] — run a query set through a method and aggregate recall,
//!   ratio, candidates, I/O and wall-clock time,
//! * [`prep`] — workload preparation with nearest-neighbor-scale
//!   normalization (the paper's datasets are normalized so the theory's
//!   `R = 1` base radius is meaningful),
//! * [`large`] — the out-of-core slice: points streamed through the
//!   paged tier, never materialized,
//! * [`table`] — aligned console tables plus CSV output under
//!   `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod large;
pub mod methods;
pub mod prep;
pub mod table;

/// Default experiment scale (fraction of the paper-scale dataset sizes).
/// Override with the `CC_SCALE` environment variable.
pub const DEFAULT_SCALE: f64 = 0.10;

/// Default number of held-out queries (the paper uses 100). Override
/// with `CC_QUERIES`.
pub const DEFAULT_QUERIES: usize = 50;

/// An experiment setting from the environment: `default` when `name` is
/// unset; a value that does not parse or that `accept` refuses ends the
/// process with a one-line message and exit code 2, before any table is
/// computed or written.
fn setting<T: std::str::FromStr>(name: &str, default: T, accept: fn(&T) -> bool, want: &str) -> T {
    let Some(raw) = std::env::var_os(name) else { return default };
    match raw.to_str().and_then(|v| v.parse().ok()).filter(accept) {
        Some(value) => value,
        None => {
            eprintln!("{name}={}: expected {want}", raw.to_string_lossy());
            std::process::exit(2);
        }
    }
}

/// The scale to run experiments at (`CC_SCALE`, default
/// [`DEFAULT_SCALE`]), in (0, 1].
pub fn scale() -> f64 {
    setting("CC_SCALE", DEFAULT_SCALE, |s| *s > 0.0 && *s <= 1.0, "a scale in (0, 1]")
}

/// The query count (`CC_QUERIES`, default [`DEFAULT_QUERIES`]), at least 1.
pub fn queries() -> usize {
    setting("CC_QUERIES", DEFAULT_QUERIES, |q| *q > 0, "a query count of at least 1")
}
