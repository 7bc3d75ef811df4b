//! Per-query and per-batch cost counters.
//!
//! Every experiment in the paper reports some slice of these: verified
//! candidates (distance computations), page I/O, rounds of virtual
//! rehashing. They are returned alongside the neighbors by every query
//! entry point. The optional observability layer — per-round
//! [`RoundStats`] breakdowns and wall-clock timings — is off by default
//! and enabled through [`crate::engine::SearchOptions`]; batch runs
//! aggregate into [`BatchStats`].

use cc_storage::IoStats;

/// Wall-clock nanoseconds attributed to each stage of the query
/// pipeline, recorded when
/// [`crate::engine::SearchOptions::stage_timing`] is set. This is the
/// per-stage accounting the LSH benchmarking literature keys on —
/// hashing vs. counting vs. verification — and what the service's
/// `/metrics` histograms are fed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Hashing the query under all `m` functions and positioning the
    /// per-table windows ([`crate::engine::TableStore::begin`]).
    pub hash: u64,
    /// Window expansion + collision counting, *excluding* the time
    /// inside candidate verification (which is bracketed separately
    /// even though it runs interleaved with counting).
    pub count: u64,
    /// Candidate verification: true-distance computations, including
    /// early-abandoned ones.
    pub verify: u64,
    /// Final ranking: sorting the retained candidates and cutting to k.
    pub rank: u64,
}

impl StageNanos {
    /// Fold another block in: every stage adds (CPU-time semantics).
    /// Associative and commutative with `StageNanos::default()` as the
    /// identity.
    pub fn merge(&mut self, other: &StageNanos) {
        self.hash += other.hash;
        self.count += other.count;
        self.verify += other.verify;
        self.rank += other.rank;
    }

    /// Sum over all stages.
    pub fn total(&self) -> u64 {
        self.hash + self.count + self.verify + self.rank
    }
}

/// Why the query loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// T1: at the end of a round, ≥ k verified candidates lay within
    /// `c·R` of the query.
    T1AtRadius,
    /// T2: `k + β·n` candidates were verified.
    T2CandidateBudget,
    /// The windows covered every table completely (tiny datasets or
    /// pathological configurations); all reachable candidates were seen.
    Exhausted,
}

/// One virtual-rehashing round's share of the work (recorded only when
/// [`crate::engine::SearchOptions::per_round`] is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Level index (radius = c^level), starting at 0.
    pub level: u32,
    /// Search radius of this round.
    pub radius: i64,
    /// Collision-count increments performed this round (= entries newly
    /// covered by the window growth of this round).
    pub collisions: u64,
    /// Candidates verified this round.
    pub verified: usize,
    /// Verified candidates (cumulative) within `c·R·base_radius` at the
    /// end of this round — the T1 progress measure.
    pub within_c_r: usize,
    /// Wall-clock nanoseconds spent in this round; 0 unless
    /// [`crate::engine::SearchOptions::timing`] is also set.
    pub elapsed_nanos: u64,
}

/// Cost counters for one c-k-ANN query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// Virtual-rehashing rounds executed (levels tried).
    pub rounds: u32,
    /// Final search radius `R = c^(rounds-1)` reached.
    pub final_radius: i64,
    /// Total collision-count increments performed. A dynamic index
    /// counts the ids of deleted objects too until a merge drops them
    /// from their segment; they are never verified.
    pub collisions_counted: u64,
    /// Objects whose true distance was computed (= frequent objects).
    pub candidates_verified: usize,
    /// Of the verified candidates, how many the early-abandon kernel cut
    /// short (their partial distance exceeded the running k-th best, so
    /// the full distance was never finished). Always ≤
    /// `candidates_verified`; the rest are the candidates ranked.
    pub candidates_abandoned: usize,
    /// Frequent objects rejected by the query's
    /// [`crate::meta::Predicate`] *before* verification: their true
    /// distance was never computed, so they appear in neither
    /// `candidates_verified` nor `candidates_abandoned` and do not
    /// consume the T2 budget. Always 0 for unfiltered queries.
    pub candidates_filtered: usize,
    /// Page I/O (zero in memory mode).
    pub io: IoStats,
    /// Which condition stopped the loop.
    pub terminated_by: Termination,
    /// Per-round breakdown; empty unless
    /// [`crate::engine::SearchOptions::per_round`] was set.
    pub per_round: Vec<RoundStats>,
    /// Wall-clock nanoseconds for the whole query; 0 unless
    /// [`crate::engine::SearchOptions::timing`] was set.
    pub elapsed_nanos: u64,
    /// Sequence number of the index snapshot this query ran against
    /// (the last mutation visible to it). 0 for immutable backends;
    /// stamped by [`crate::mutable::MutableIndex`] query paths, and a
    /// client's proof of read-your-writes: once an ack for seq `s`
    /// arrived, every later query reports `snapshot_seq >= s`.
    pub snapshot_seq: u64,
    /// Per-stage wall-clock breakdown; all-zero unless
    /// [`crate::engine::SearchOptions::stage_timing`] was set.
    pub stage: StageNanos,
}

impl QueryStats {
    /// A zeroed stats block (start of a query).
    pub fn new() -> Self {
        Self {
            rounds: 0,
            final_radius: 1,
            collisions_counted: 0,
            candidates_verified: 0,
            candidates_abandoned: 0,
            candidates_filtered: 0,
            io: IoStats::default(),
            terminated_by: Termination::Exhausted,
            per_round: Vec::new(),
            elapsed_nanos: 0,
            snapshot_seq: 0,
            stage: StageNanos::default(),
        }
    }
}

impl Default for QueryStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters for the write path: mutations applied and the WAL work
/// they cost. Produced per batch by
/// [`crate::mutable::MutableIndex::apply_batch`] and accumulated by the
/// index into [`crate::mutable::MutableIndex::mutation_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Vectors inserted.
    pub inserts: u64,
    /// Objects deleted (the id existed and was live).
    pub deletes: u64,
    /// Delete requests whose id was unknown or already deleted
    /// (acknowledged as not-found, never logged to the WAL).
    pub delete_misses: u64,
    /// Mutation batches applied (= snapshot publications).
    pub batches: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL fsyncs issued (group commit: one per batch, so
    /// `wal_records / wal_syncs` is the mean commit group size).
    pub wal_syncs: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Highest sequence number acknowledged so far (0 when none).
    pub last_seq: u64,
}

impl MutationStats {
    /// Fold another window's counters into this one: every count adds,
    /// `last_seq` takes the maximum. Associative and commutative with
    /// `MutationStats::default()` as the identity.
    pub fn merge(&mut self, other: &MutationStats) {
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.delete_misses += other.delete_misses;
        self.batches += other.batches;
        self.wal_records += other.wal_records;
        self.wal_syncs += other.wal_syncs;
        self.wal_bytes += other.wal_bytes;
        self.last_seq = self.last_seq.max(other.last_seq);
    }

    /// Mutations applied (inserts + deletes, excluding misses).
    pub fn applied(&self) -> u64 {
        self.inserts + self.deletes
    }
}

/// Aggregated cost counters over a set of queries, built by folding
/// [`QueryStats`] via [`BatchStats::absorb`]. The batch executor
/// ([`crate::engine::run_query_batch`]) returns one per batch; bench
/// code consumes these instead of hand-folding counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Queries aggregated.
    pub queries: usize,
    /// Total rounds across all queries.
    pub rounds: u64,
    /// Total collision-count increments.
    pub collisions: u64,
    /// Total candidates verified.
    pub verified: u64,
    /// Total candidates cut short by the early-abandon kernel (subset of
    /// `verified`).
    pub abandoned: u64,
    /// Total frequent objects rejected by per-query predicates before
    /// verification (disjoint from `verified`).
    pub filtered: u64,
    /// Total page I/O: per-query verification charges plus (for batch
    /// runs) the store's table-read delta over the whole batch.
    pub io: IoStats,
    /// Queries that stopped via T1.
    pub t1: usize,
    /// Queries that stopped via T2.
    pub t2: usize,
    /// Queries that exhausted their windows.
    pub exhausted: usize,
    /// Wall-clock nanoseconds: sum of per-query times when absorbed
    /// sequentially, or the whole-batch wall time from the parallel
    /// executor (with [`crate::engine::SearchOptions::timing`]).
    pub elapsed_nanos: u64,
    /// Summed per-stage time across all absorbed queries; all-zero
    /// unless [`crate::engine::SearchOptions::stage_timing`] was set.
    pub stage: StageNanos,
}

impl BatchStats {
    /// Fold one query's counters into the aggregate.
    pub fn absorb(&mut self, s: &QueryStats) {
        self.queries += 1;
        self.rounds += s.rounds as u64;
        self.collisions += s.collisions_counted;
        self.verified += s.candidates_verified as u64;
        self.abandoned += s.candidates_abandoned as u64;
        self.filtered += s.candidates_filtered as u64;
        self.io.reads += s.io.reads;
        self.io.writes += s.io.writes;
        match s.terminated_by {
            Termination::T1AtRadius => self.t1 += 1,
            Termination::T2CandidateBudget => self.t2 += 1,
            Termination::Exhausted => self.exhausted += 1,
        }
        self.elapsed_nanos += s.elapsed_nanos;
        self.stage.merge(&s.stage);
    }

    /// Mean verified candidates per query (0 for an empty batch).
    pub fn mean_verified(&self) -> f64 {
        self.per_query(self.verified as f64)
    }

    /// Mean page reads per query (0 for an empty batch).
    pub fn mean_io_reads(&self) -> f64 {
        self.per_query(self.io.reads as f64)
    }

    /// Mean rounds per query (0 for an empty batch).
    pub fn mean_rounds(&self) -> f64 {
        self.per_query(self.rounds as f64)
    }

    /// Mean wall-clock milliseconds per query (0 for an empty batch or
    /// when timing was disabled).
    pub fn mean_time_ms(&self) -> f64 {
        self.per_query(self.elapsed_nanos as f64 / 1e6)
    }

    fn per_query(&self, total: f64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            total / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stats_are_zero() {
        let s = QueryStats::new();
        assert_eq!(s.rounds, 0);
        assert_eq!(s.collisions_counted, 0);
        assert_eq!(s.candidates_verified, 0);
        assert_eq!(s.io.total(), 0);
        assert_eq!(s.terminated_by, Termination::Exhausted);
        assert!(s.per_round.is_empty());
        assert_eq!(s.elapsed_nanos, 0);
    }

    #[test]
    fn batch_absorbs_and_averages() {
        let mut q1 = QueryStats::new();
        q1.rounds = 3;
        q1.collisions_counted = 100;
        q1.candidates_verified = 10;
        q1.io.reads = 40;
        q1.terminated_by = Termination::T1AtRadius;
        q1.elapsed_nanos = 2_000_000;
        let mut q2 = QueryStats::new();
        q2.rounds = 5;
        q2.collisions_counted = 300;
        q2.candidates_verified = 30;
        q2.io.reads = 80;
        q2.terminated_by = Termination::T2CandidateBudget;
        q2.elapsed_nanos = 4_000_000;

        let mut b = BatchStats::default();
        b.absorb(&q1);
        b.absorb(&q2);
        assert_eq!(b.queries, 2);
        assert_eq!(b.rounds, 8);
        assert_eq!(b.collisions, 400);
        assert_eq!(b.verified, 40);
        assert_eq!((b.t1, b.t2, b.exhausted), (1, 1, 0));
        assert_eq!(b.mean_verified(), 20.0);
        assert_eq!(b.mean_io_reads(), 60.0);
        assert_eq!(b.mean_rounds(), 4.0);
        assert_eq!(b.mean_time_ms(), 3.0);
    }

    fn sample_mutation_stats(seed: u64) -> MutationStats {
        MutationStats {
            inserts: 5 * seed + 1,
            deletes: 2 * seed,
            delete_misses: seed % 3,
            batches: seed % 4 + 1,
            wal_records: 7 * seed + 2,
            wal_syncs: seed % 4 + 1,
            wal_bytes: 100 * seed + 31,
            last_seq: (seed * 13) % 29,
        }
    }

    #[test]
    fn mutation_merge_identity_associative_commutative() {
        for seeds in [[1u64, 2, 3], [0, 9, 5], [6, 6, 2]] {
            let [a, b, c] = seeds.map(sample_mutation_stats);
            let mut id = MutationStats::default();
            id.merge(&a);
            assert_eq!(id, a, "identity failed for seeds {seeds:?}");
            let mut ab_c = a;
            ab_c.merge(&b);
            ab_c.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut a_bc = a;
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc, "associativity failed for seeds {seeds:?}");
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_eq!(ab, ba, "commutativity failed for seeds {seeds:?}");
        }
    }

    #[test]
    fn mutation_merge_adds_counts_and_maxes_seq() {
        let mut a = sample_mutation_stats(2);
        let b = sample_mutation_stats(5);
        let (ins_a, ins_b) = (a.inserts, b.inserts);
        let want_seq = a.last_seq.max(b.last_seq);
        a.merge(&b);
        assert_eq!(a.inserts, ins_a + ins_b);
        assert_eq!(a.last_seq, want_seq, "last_seq is a high-water mark, not a sum");
        assert_eq!(a.applied(), a.inserts + a.deletes);
    }

    #[test]
    fn empty_batch_means_are_zero() {
        let b = BatchStats::default();
        assert_eq!(b.mean_verified(), 0.0);
        assert_eq!(b.mean_io_reads(), 0.0);
        assert_eq!(b.mean_rounds(), 0.0);
        assert_eq!(b.mean_time_ms(), 0.0);
    }
}
