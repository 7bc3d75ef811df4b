//! # cc-math — numerics substrate for the C2LSH reproduction
//!
//! C2LSH ("Locality-Sensitive Hashing Scheme Based on Dynamic Collision
//! Counting", SIGMOD 2012) derives *all* of its index parameters from first
//! principles: the number of hash tables `m`, the collision threshold
//! `l = ⌈α·m⌉` and the threshold percentage `α` are computed from the
//! collision probabilities `p1 = p(1, w)` and `p2 = p(c, w)` of the p-stable
//! LSH family via Hoeffding bounds. Those probabilities in turn require the
//! standard normal CDF, hence the error function.
//!
//! This crate provides everything that machinery needs, implemented from
//! scratch (no external numerics dependency):
//!
//! * [`mod@erf`] — error function and friends, accurate to ~1e-15,
//! * [`gaussian`] — the standard normal CDF,
//! * [`pstable`] — collision probability `p(s, w)` of the 2-stable
//!   (Gaussian) LSH family and the hash quality `ρ`,
//! * [`hoeffding`] — the closed-form C2LSH parameter solver
//!   (`α*`, `m`, `l`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod erf;
pub mod gaussian;
pub mod hoeffding;
pub mod pstable;

pub use erf::{erf, erfc};
pub use gaussian::normal_cdf;
pub use hoeffding::{derive_params, DerivedParams};
pub use pstable::{collision_probability, rho};
