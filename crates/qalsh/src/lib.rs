//! # qalsh — Query-Aware LSH over sorted projection columns
//!
//! QALSH (Huang, Feng, Zhang, Fang, Ng — PVLDB 2015 / VLDBJ 2017) is the
//! direct follow-up to C2LSH by the same group and keeps its **dynamic
//! collision counting** framework while removing the random bucket
//! offset: each hash function is the bare projection `h_a(o) = a·o`,
//! kept sorted (a B+-tree in the paper), and the *query* anchors the
//! bucket — object `o` collides with query `q` at radius `R` iff
//! `|a·o − a·q| ≤ w·R/2`.
//!
//! Compared to C2LSH this improves the per-function collision
//! probabilities to
//!
//! ```text
//! p(s) = 2·Φ( w / (2s) ) − 1
//! ```
//!
//! (`p1 = p(1)`, `p2 = p(c)`), needing fewer hash functions for the same
//! guarantee; the price is a search for `a·q` plus a window growing
//! both ways from it per function instead of a grid cell.
//!
//! It is implemented here as the repository's *extension feature*: it
//! reuses C2LSH's collision counter, Hoeffding parameter solver and
//! terminating conditions over one sorted `(projection, id)` column per
//! function — the leaves of the paper's B+-tree, charged the nodes that
//! tree would read — so it slots into the paper's experiment harness as
//! an extra comparator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod params;

pub use index::{Qalsh, QalshConfig};
pub use params::qalsh_collision_probability;
