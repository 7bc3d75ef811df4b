//! # cc-storage — storage substrate
//!
//! One disk stack, bottom up:
//!
//! * [`diskfile`] — an on-disk page file of [`PAGE_SIZE`]-byte pages with
//!   a checksummed header and a CRC-32 trailer verified on every read
//!   (positioned `pread`-style I/O),
//! * [`pool`] — a pinned buffer pool (clock eviction, pin counts,
//!   hit/miss/eviction counters) fronting the page file,
//! * [`codec`] — delta + bitpacked posting-list compression, one width
//!   per block of 32 gaps,
//! * [`paged_bucket`] — a hash table's object ids in `(bucket, object)`
//!   order, compressed into full disk pages with no bucket ids (the
//!   caller keeps the bucket directory); the on-disk layout of a C2LSH
//!   hash table,
//! * [`wal`] — a checksummed write-ahead log for online index mutations
//!   (append + fsync + replay with torn-tail truncation), the index
//!   checkpoint written in the same framing and refused whole when
//!   damaged, and the [`wal::FailpointFile`] fault injector used by the
//!   crash-recovery test suites.
//!
//! Beside it, for the paper's I/O-count experiments (the headline
//! efficiency metric of C2LSH and its competitors is the *number* of
//! 4 KiB pages read per query, not wall-clock time — see `DESIGN.md` §2),
//! only what the counting shares: [`IoStats`], the page-access counters
//! every method reports, and [`ENTRIES_PER_PAGE`], the uncompressed
//! 12-byte-entry layout C2LSH's sorted runs and QALSH's tree leaves are
//! charged under. The counts themselves are meters over in-memory sorted
//! runs in the crates that own the runs; no simulated structure lives
//! here.
//!
//! The crate is `deny(unsafe_code)`. One private module may use
//! `unsafe`: the checksum behind [`wal::crc32`], whose carry-less
//! multiplication fold makes unaligned SIMD loads and calls a
//! `#[target_feature]` function after detecting its features.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod crc;
pub mod diskfile;
pub mod paged_bucket;
pub mod pool;
pub mod wal;

pub use diskfile::{DiskPageFile, DiskPageFileWriter, PAYLOAD_BYTES};
pub use paged_bucket::{PostingRun, PostingRunBuilder};
pub use pool::{PinnedPage, PinnedPool, PinnedPoolStats};
pub use wal::{FailpointFile, ReplayReport, Wal, WalOp, WalPosition, WalRecord};

/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// Entries per page of an uncompressed sorted run or tree leaf:
/// `⌊4096 / 12⌋` (an 8-byte key — `i64` bucket or `f64` projection —
/// and a `u32` object id).
pub const ENTRIES_PER_PAGE: usize = PAGE_SIZE / 12;

/// Page read/write counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Number of page reads.
    pub reads: u64,
    /// Number of page writes.
    pub writes: u64,
}

impl IoStats {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}
