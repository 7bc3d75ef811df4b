//! # cc-vector — vector substrate for the C2LSH reproduction
//!
//! Everything the experiments need around the raw vectors:
//!
//! * [`dataset`] — a flat, cache-friendly `f32` vector store,
//! * [`dist`] — Euclidean distance kernels,
//! * [`gen`] — seeded synthetic dataset generators (Gaussian mixtures,
//!   uniform cubes, heavy-tailed scales),
//! * [`synth`] — named profiles reproducing the *(n, d)* shapes of the
//!   paper's four real datasets (Audio, Mnist, Color, LabelMe),
//! * [`gt`] — exact k-NN ground truth by (parallel) linear scan,
//! * [`topk`] — reusable top-k accumulator driving early-abandon
//!   verification,
//! * [`workload`] — dataset + queries + ground truth bundles,
//! * [`metrics`] — recall and the paper's *overall ratio* quality metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod dist;
pub mod gen;
pub mod gt;
pub mod metrics;
pub mod scale;
pub mod synth;
pub mod topk;
pub mod workload;

pub use dataset::Dataset;
pub use dist::{euclidean, euclidean_sq, euclidean_sq_bounded};
pub use gt::{ground_truth, Neighbor};
pub use scale::{mean_nn_distance, normalize_to_unit_nn, rescale};
pub use topk::TopK;
pub use workload::Workload;
