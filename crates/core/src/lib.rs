//! # c2lsh — Locality-Sensitive Hashing with Dynamic Collision Counting
//!
//! A from-scratch Rust implementation of **C2LSH** (Gan, Feng, Fang, Ng —
//! *"Locality-Sensitive Hashing Scheme Based on Dynamic Collision
//! Counting"*, SIGMOD 2012), the LSH scheme that replaces E2LSH's static
//! concatenation of `K` hash functions with per-object collision counting
//! over `m` *single-function* hash tables, and replaces per-radius
//! physical indexes with **virtual rehashing** over one set of tables.
//!
//! ## Quick start
//!
//! ```
//! use c2lsh::{C2lshConfig, C2lshIndex};
//! use cc_vector::gen::{generate, Distribution};
//!
//! // 1000 clustered vectors in R^16.
//! let data = generate(
//!     Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
//!     1000, 16, 42,
//! );
//! let config = C2lshConfig::builder().approximation_ratio(2).bucket_width(1.0).seed(7).build();
//! let index = C2lshIndex::build(&data, &config);
//!
//! let query = data.get(0).to_vec();
//! let (neighbors, stats) = index.query(&query, 5);
//! assert_eq!(neighbors.len(), 5);
//! assert_eq!(neighbors[0].id, 0); // the query itself is in the data
//! assert!(stats.candidates_verified >= 5);
//! ```
//!
//! ## Crate layout
//!
//! The c-k-ANN search loop — virtual rehashing, dynamic collision
//! counting, the T1/T2 terminating conditions — is implemented exactly
//! once, in [`engine`]. Each backend (segments of sorted runs in
//! memory or metered in 4 KiB pages, compressed runs behind a buffer
//! pool, a segment per sealed block, the query-aware
//! columns of the downstream `qalsh` crate) implements
//! [`engine::TableStore`] and gets `query` and a parallel `query_batch`
//! from the engine, along with the [`stats`] observability layer. All
//! but `qalsh` grow one window cursor; the resident ones share one walk.
//!
//! * [`config`] — tunables (`c`, `w`, `δ`, `β`, seed) with a builder,
//! * [`params`] — per-dataset derived parameters (`m`, `l`, `α`),
//! * [`hash`] — the p-stable hash family and hash-string computation,
//! * [`engine`] — the search engine: the [`engine::TableStore`] trait,
//!   the c-k-ANN loop ([`engine::run_query`]), the batch executor
//!   ([`engine::run_query_batch`]), the window cursor
//!   ([`engine::KeyWindows`]) and [`engine::counting::CollisionCounter`],
//! * [`index`] — the in-memory backend: segments of sorted runs over
//!   [`Rows`] in one or more parts,
//! * [`disk`] — a page meter over its walk: paper-model I/O accounting,
//! * [`paged`] — the out-of-core backend: page file and buffer pool,
//! * [`dynamic`] — the updatable backend: the same runs in sealed
//!   segments shared between snapshots (a clone copies pointers, a
//!   write seals a block and merges neighbours by size tier),
//! * [`sharded`] — a dataset split into `S` contiguous shards, the
//!   [`Rows`] of one [`C2lshIndex`] that answers as the unsplit one does,
//! * [`mutable`] — crash-safe online mutations: snapshot-consistent
//!   reads over the dynamic backend plus WAL-backed durability
//!   (acknowledged inserts/deletes survive a kill at any byte offset),
//! * [`meta`] — per-point attribute payloads ([`meta::PointMeta`]) and
//!   the conjunctive [`meta::Predicate`] filters evaluated inside the
//!   counting loop (filtered search),
//! * [`rehash`] — virtual rehashing window arithmetic (shared),
//! * [`stats`] — per-query, per-round and per-batch cost counters,
//! * [`persist`] — `C2D1` checkpoints of the dynamic backend (a static
//!   index is rebuilt, not loaded: building it is faster),
//! * [`error`] — configuration errors plus the unified [`Error`] /
//!   [`ErrorKind`] type whose stable numeric codes ride the service's
//!   protocol Error frames.

// `deny` rather than `forbid`: the [`kernels`] module carries the
// crate's only `unsafe` (stable `std::arch` SIMD with per-site safety
// comments) behind narrowly scoped `#[allow(unsafe_code)]`; everything
// else still fails to compile if it tries to use `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod disk;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod hash;
pub mod index;
pub mod kernels;
pub mod meta;
pub mod mutable;
pub mod paged;
pub mod params;
pub mod persist;
pub mod rehash;
pub mod sharded;
pub mod stats;

/// Epoch-stamped collision counters (re-export of [`engine::counting`]).
pub use engine::counting;

pub use config::{Beta, C2lshConfig, ConfigBuilder};
pub use disk::DiskIndex;
pub use dynamic::DynamicIndex;
pub use engine::{SearchOptions, SearchParams, TableStore};
pub use error::{C2lshError, Error, ErrorKind};
pub use hash::{HashFamily, PstableHash};
pub use index::{C2lshIndex, Rows};
pub use kernels::{Kernel, KernelDispatch};
pub use meta::{PointMeta, Predicate};
pub use mutable::{MutableIndex, MutationAck, MutationOp};
pub use paged::{PagedBuilder, PagedStore};
pub use params::FullParams;
pub use persist::{load_dynamic, save_dynamic, PersistError};
pub use sharded::{ShardedData, ShardedEngine};
pub use stats::{BatchStats, MutationStats, QueryStats, RoundStats, StageNanos, Termination};

/// Re-export of the page size the paged tier is built on and of the
/// entries a page of the paper's I/O model holds, so downstream crates
/// can size buffer pools and count pages without a `cc-storage` dep.
pub use cc_storage::{ENTRIES_PER_PAGE, PAGE_SIZE};

/// Re-export of the observability primitives ([`cc_obs`]) the stats
/// layer builds on, so downstream crates need no direct `cc-obs` dep
/// to consume [`stats::QueryStats::spans`].
pub use cc_obs::{SpanRecord, Trace};
