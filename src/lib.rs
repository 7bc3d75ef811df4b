//! # c2lsh-repro — umbrella crate
//!
//! Re-exports the whole reproduction of *"Locality-Sensitive Hashing
//! Scheme Based on Dynamic Collision Counting"* (C2LSH, SIGMOD 2012) so
//! that examples, integration tests and downstream users can depend on a
//! single crate.
//!
//! * [`c2lsh`] — the paper's contribution: virtual-rehashing index +
//!   dynamic collision counting query engine.
//! * [`cc_math`] — numerics (Gaussian CDF, p-stable collision
//!   probabilities, Hoeffding parameter solver).
//! * [`cc_vector`] — datasets, distances, generators, ground truth.
//! * [`cc_storage`] — page file, buffer pool, posting runs, write-ahead log.
//! * [`cc_baselines`] — linear scan, E2LSH, rigorous-LSH, LSB-forest.
//! * [`qalsh`] — the query-aware follow-up, built on the same framework.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use c2lsh;
pub use cc_baselines;
pub use cc_math;
pub use cc_storage;
pub use cc_vector;
pub use qalsh;
