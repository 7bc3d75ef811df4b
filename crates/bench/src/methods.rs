//! A uniform facade over every method in the evaluation.
//!
//! The experiments talk to [`AnnIndex`] only, so each figure's
//! code is a loop over methods instead of per-method plumbing. Every
//! method reports its cost as a [`QueryStats`] — the engine-backed
//! methods return theirs natively (with wall-clock timing enabled);
//! baseline methods have their [`BaselineStats`] lifted into the same
//! shape — so the harness aggregates everything through
//! [`c2lsh::BatchStats`].

use c2lsh::engine::SearchOptions;
use c2lsh::QueryStats;
use cc_baselines::BaselineStats;
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;

/// Options the engine-backed wrappers query with: wall-clock timing on,
/// per-round breakdowns off (the harness reports means, not rounds).
fn timed() -> SearchOptions {
    SearchOptions { timing: true, ..Default::default() }
}

/// Lift a baseline's counters into the uniform [`QueryStats`] shape
/// (no rehashing rounds or termination reason to report; the harness
/// stamps wall-clock time itself for these).
fn lift(s: &BaselineStats) -> QueryStats {
    QueryStats {
        candidates_verified: s.candidates_verified,
        candidates_abandoned: s.candidates_abandoned,
        io: s.io,
        ..QueryStats::new()
    }
}

/// Uniform query interface.
pub trait AnnIndex {
    /// Display name used in tables.
    fn name(&self) -> &str;
    /// c-k-ANN query with cost counters.
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats);
    /// Index size in bytes (excluding the raw data, which all methods
    /// share).
    fn size_bytes(&self) -> usize;
}

/// C2LSH, in-memory backend.
pub struct C2lshMem<'d>(pub c2lsh::C2lshIndex<'d>);

impl AnnIndex for C2lshMem<'_> {
    fn name(&self) -> &str {
        "C2LSH"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.0.query_with(q, k, &timed())
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// C2LSH, out-of-core backend: compressed postings + vectors on disk,
/// reads through the pinned buffer pool. Owns its page file (scratch,
/// deleted on drop).
pub struct C2lshPaged(pub c2lsh::PagedStore);

impl AnnIndex for C2lshPaged {
    fn name(&self) -> &str {
        "C2LSH(paged)"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.0.query_with(q, k, &timed())
    }
    /// Compressed posting bytes — the on-disk analogue of the other
    /// methods' table bytes (the shared raw-data segment is excluded).
    fn size_bytes(&self) -> usize {
        self.0.posting_bytes() as usize
    }
}

/// C2LSH, paged backend with exact I/O accounting.
pub struct C2lshDisk<'d>(pub c2lsh::DiskIndex<'d>);

impl AnnIndex for C2lshDisk<'_> {
    fn name(&self) -> &str {
        "C2LSH(disk)"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.0.query_with(q, k, &timed())
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// QALSH over sorted projection columns, metered as B+-trees.
pub struct QalshIdx<'d>(pub qalsh::Qalsh<'d>);

impl AnnIndex for QalshIdx<'_> {
    fn name(&self) -> &str {
        "QALSH"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.0.query_with(q, k, &timed())
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// E2LSH (static concatenation).
pub struct E2lshIdx<'d>(pub cc_baselines::e2lsh::E2lsh<'d>);

impl AnnIndex for E2lshIdx<'_> {
    fn name(&self) -> &str {
        "E2LSH"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        let (nn, s) = self.0.query(q, k);
        (nn, lift(&s))
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// Rigorous-LSH (per-radius E2LSH indexes).
pub struct RigorousIdx<'d>(pub cc_baselines::rigorous::RigorousLsh<'d>);

impl AnnIndex for RigorousIdx<'_> {
    fn name(&self) -> &str {
        "RigorousLSH"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        let (nn, s) = self.0.query(q, k);
        (nn, lift(&s))
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// LSB-forest.
pub struct LsbIdx<'d>(pub cc_baselines::lsb::LsbForest<'d>);

impl AnnIndex for LsbIdx<'_> {
    fn name(&self) -> &str {
        "LSB-forest"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        let (nn, s) = self.0.query(q, k);
        (nn, lift(&s))
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// Multi-Probe LSH.
pub struct MultiProbeIdx<'d>(pub cc_baselines::multiprobe::MultiProbeLsh<'d>);

impl AnnIndex for MultiProbeIdx<'_> {
    fn name(&self) -> &str {
        "MultiProbe"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        let (nn, s) = self.0.query(q, k);
        (nn, lift(&s))
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// Exact linear scan.
pub struct LinearIdx<'d>(pub cc_baselines::linear::LinearScan<'d>);

impl AnnIndex for LinearIdx<'_> {
    fn name(&self) -> &str {
        "LinearScan"
    }
    fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        let (nn, s) = self.0.query(q, k);
        (nn, lift(&s))
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// Default-parameter constructors used by most experiments; the seeds are
/// fixed so every experiment is reproducible.
pub mod defaults {
    use super::*;
    use cc_baselines::e2lsh::E2lshConfig;
    use cc_baselines::lsb::LsbConfig;

    /// C2LSH with the paper's defaults on NN-normalized data.
    pub fn c2lsh(data: &Dataset, seed: u64) -> C2lshMem<'_> {
        let cfg = c2lsh::C2lshConfig::builder().bucket_width(2.184).seed(seed).build();
        C2lshMem(c2lsh::C2lshIndex::build(data, &cfg))
    }

    /// C2LSH out-of-core backend, same parameters; the page file lands
    /// in a scratch directory and the buffer pool is capped at ~10% of
    /// the file so the smoke table actually exercises eviction.
    pub fn c2lsh_paged(data: &Dataset, seed: u64) -> C2lshPaged {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let cfg = c2lsh::C2lshConfig::builder().bucket_width(2.184).seed(seed).build();
        let path = std::env::temp_dir().join(format!(
            "cc-paged-bench-{}-{}.ccpg",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = c2lsh::PagedStore::build(data, &cfg, &path, 1)
            .expect("paged index build failed")
            .delete_file_on_drop();
        let pages = (store.file_bytes() as usize / cc_storage::PAGE_SIZE / 10).max(64);
        let mut store = store;
        store.set_pool_pages(pages);
        C2lshPaged(store)
    }

    /// C2LSH disk backend, same parameters.
    pub fn c2lsh_disk(data: &Dataset, seed: u64) -> C2lshDisk<'_> {
        let cfg = c2lsh::C2lshConfig::builder().bucket_width(2.184).seed(seed).build();
        C2lshDisk(c2lsh::DiskIndex::build(data, &cfg))
    }

    /// QALSH at its ρ-optimal width.
    pub fn qalsh(data: &Dataset, seed: u64) -> QalshIdx<'_> {
        QalshIdx(qalsh::Qalsh::build(data, qalsh::QalshConfig { seed, ..Default::default() }))
    }

    /// E2LSH sized for decent recall on NN-normalized data.
    pub fn e2lsh(data: &Dataset, seed: u64) -> E2lshIdx<'_> {
        let cfg = E2lshConfig { k_funcs: 8, l_tables: 64, w: 2.184, seed };
        E2lshIdx(cc_baselines::e2lsh::E2lsh::build(data, cfg))
    }

    /// LSB-forest with its quality stop off (recall mode) and a budget in
    /// the same ballpark as C2LSH's `k + βn`.
    pub fn lsb(data: &Dataset, seed: u64) -> LsbIdx<'_> {
        let cfg = LsbConfig {
            k_funcs: 8,
            l_trees: 24,
            u_bits: 16,
            w: 1.5,
            c: 2,
            budget: 200,
            quality_stop: false,
            seed,
        };
        LsbIdx(cc_baselines::lsb::LsbForest::build(data, cfg))
    }

    /// Multi-Probe LSH: few tables, many probes.
    pub fn multiprobe(data: &Dataset, seed: u64) -> MultiProbeIdx<'_> {
        let cfg = cc_baselines::multiprobe::MultiProbeConfig {
            k_funcs: 8,
            l_tables: 8,
            w: 2.184,
            probes: 32,
            seed,
        };
        MultiProbeIdx(cc_baselines::multiprobe::MultiProbeLsh::build(data, cfg))
    }

    /// Linear scan.
    pub fn linear(data: &Dataset) -> LinearIdx<'_> {
        LinearIdx(cc_baselines::linear::LinearScan::new(data))
    }
}
