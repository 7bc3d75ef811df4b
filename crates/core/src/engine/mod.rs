//! The collision-counting search engine — the c-k-ANN loop of C2LSH.
//!
//! Exactly one implementation of the paper's query algorithm lives here
//! (virtual rehashing, dynamic collision counting, terminating
//! conditions T1/T2); every index backend drives it through the
//! [`TableStore`] trait, and all but `qalsh` grow one [`KeyWindows`]:
//!
//! * [`crate::index::C2lshIndex`] — segments of in-memory sorted runs,
//!   per part of its rows (one dataset, or the shards of a
//!   [`crate::ShardedData`]),
//! * [`crate::disk::DiskIndex`] — a page meter over their walk,
//! * [`crate::paged::PagedStore`] — compressed runs behind a buffer pool,
//! * [`crate::dynamic::DynamicIndex`] — a segment per sealed block,
//! * `qalsh::Qalsh` (sibling crate) — query-centred windows over sorted
//!   projection columns, metered as B+-trees.
//!
//! ## The algorithm (paper §4)
//!
//! ```text
//! R ← 1;  C ← ∅                         // verified candidates
//! loop:
//!   for each hash table i ∈ 1..m:
//!     grow table i's covered window to the level-R bucket of q
//!     for each newly covered object o:
//!       #Col(o) += 1
//!       if #Col(o) = l:                  // o became frequent
//!         verify o (compute true distance), C ← C ∪ {o}
//!         if |C| ≥ k + βn: STOP          // T2
//!   if |{o ∈ C : dist(o, q) ≤ c·R}| ≥ k: STOP   // T1
//!   if every window covers its whole table     // exhausted
//!      or R saturated at i64::MAX: STOP
//!   R ← c·R
//! return the k nearest members of C
//! ```
//!
//! Because the per-level windows nest, each `(object, table)` pair is
//! visited at most once per query, so the cumulative count *is* the
//! collision count at the current radius. A store only answers "which
//! entries did growing the radius to R newly cover" —
//! [`TableStore::expand`] — plus some bookkeeping; the engine owns
//! counting, verification, termination, ranking, per-round observability
//! ([`crate::stats::RoundStats`]), the batch executor ([`run_query_batch`])
//! and the per-query scratch, kept on a free list between queries.

use crate::kernels;
use crate::meta::{PointMeta, Predicate};
use crate::rehash::{radius_at, window};
use crate::stats::{BatchStats, QueryStats, RoundStats, Termination};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use cc_vector::topk::TopK;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// How many entries ahead the counting loop prefetches its counts (far
/// enough to cover an L2 round-trip at ~1 entry/cycle-ish consumption,
/// near enough to stay inside typical slice lengths).
const COUNT_PREFETCH_AHEAD: usize = 16;

/// The parameters the search loop needs, independent of how they were
/// derived (C2LSH's Chernoff bounds and QALSH's Hoeffding bounds both
/// reduce to this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchParams {
    /// Integer approximation ratio `c ≥ 2` (radius grows by ×c per round).
    pub c: u32,
    /// Collision threshold `l`: an object is verified when its count
    /// reaches `l`.
    pub l: u32,
    /// False-positive budget `β·n`; T2 stops after `k + β·n`
    /// verifications.
    pub beta_n: usize,
    /// Data-units distance the theoretical radius `R = 1` maps to; T1
    /// compares true distances against `c·R·base_radius`.
    pub base_radius: f64,
}

/// Per-query knobs for the observability layer. All default to off /
/// cheapest; the flags only cost a branch when disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchOptions {
    /// Record a [`RoundStats`] entry per virtual-rehashing round.
    pub per_round: bool,
    /// Measure wall-clock time (whole query, and per round when
    /// `per_round` is also set).
    pub timing: bool,
    /// Attribute wall clock to pipeline stages
    /// ([`crate::stats::StageNanos`]: hash / count / verify / rank).
    /// Costs two clock reads per *verified* candidate plus two per
    /// round; off by default so the plain hot path pays one branch.
    pub stage_timing: bool,
    /// In [`run_query_batch`]: additionally trace every
    /// `trace_every`-th query — turn on `per_round` and `timing` for
    /// it — counted across calls in the order they reserve their
    /// positions, so batches of one are sampled like one large batch
    /// (0 = only what `per_round` says). Lets a service trace a sample
    /// of live traffic without paying for every query.
    pub trace_every: u32,
    /// Per-query attribute filter, evaluated against
    /// [`TableStore::meta`] for every frequent object *before* its
    /// true distance is computed. Rejected objects count in
    /// [`QueryStats::candidates_filtered`] and never reach
    /// `euclidean_sq_bounded`. `None` (the default) skips the check
    /// entirely. A filter that matches nothing verifies nothing, so no
    /// T1 or T2 fires: the query ends `Exhausted` after about `m·n`
    /// increments (≈ 12 M at 100 000 objects).
    pub filter: Option<Predicate>,
}

/// Storage abstraction over the `m` per-function hash tables: a store
/// hands out what a table's window newly covers and resolves object ids.
/// Every store of this crate grows one [`KeyWindows`] cursor, the
/// resident ones over `index::Segment`s; `qalsh` centres its windows on
/// the query.
pub trait TableStore {
    /// Per-query expansion state: the query's per-table hash position
    /// plus how far each table's window has grown.
    type Cursor;

    /// Dataset dimensionality.
    fn dim(&self) -> usize;

    /// Number of live (queryable) objects.
    fn len(&self) -> usize;

    /// `true` when the store holds no live objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exclusive upper bound on object ids (≥ [`TableStore::len`]; they
    /// differ for stores with tombstoned deletes). Sizes the collision
    /// counts.
    fn id_bound(&self) -> usize {
        self.len()
    }

    /// Number of hash tables `m`.
    fn num_tables(&self) -> usize;

    /// Start a query: hash `q` under every function and position the
    /// per-table windows (all empty).
    fn begin(&self, q: &[f32]) -> Self::Cursor;

    /// Start a whole coalesced query batch: one cursor per query, in
    /// query order, each identical to [`TableStore::begin`] on that
    /// query. The default maps `begin`; backends whose cursors are
    /// bucket ids override this with one
    /// [`crate::hash::HashFamily::buckets_batch`] call, which runs every
    /// query against eight functions per pass, so each eight rows of the
    /// hash matrix stay in cache for the whole batch.
    fn begin_batch(&self, queries: &Dataset) -> Vec<Self::Cursor> {
        (0..queries.len()).map(|qi| self.begin(queries.get(qi))).collect()
    }

    /// The width a store keeps ids in: `u16` offsets inside a segment of
    /// at most 65 536 ids, or `u32` ids.
    type Id: Copy + Into<u32> + PartialEq + std::fmt::Debug;

    /// Grow table `t`'s window to `radius` and hand `visit` the newly
    /// covered object ids as contiguous [`Ids`] slices, in table order,
    /// with whatever slice boundaries suit the store. A slice carries
    /// ids of the store's width as offsets from its `first` id, and the
    /// engine counts them against the counts from that id up, so no id
    /// is widened. The counting loop runs inlined over each slice, so a
    /// collision costs a couple of instructions and the virtual call is
    /// paid per slice.
    ///
    /// `visit` returns `false` to refuse more: the expansion must return
    /// without calling it again — not for the rest of the range, and not
    /// for the other delta range of the same grow. The engine stops
    /// *consuming* the refused slice at the exact entry that hit the T2
    /// budget, so counts, verification order and the cut-off do not
    /// depend on where a store cuts its slices; a store that meters I/O
    /// charges a slice as it hands it out, so a refusal also ends the
    /// charge.
    fn expand(
        &self,
        cursor: &mut Self::Cursor,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&Ids<'_, Self::Id>) -> bool,
    );

    /// `true` once every table's window covers its entire table (no
    /// further expansion can reach new entries).
    fn exhausted(&self, cursor: &Self::Cursor) -> bool;

    /// Resolve an object id to its vector; `None` for tombstoned ids
    /// (such objects are skipped, not verified). Stores whose vectors
    /// are addressable memory return them and ignore `buf`; a store that
    /// has to read the vector from elsewhere fills `buf` and returns it.
    fn vector<'a>(&'a self, oid: u32, buf: &'a mut Vec<f32>) -> Option<&'a [f32]>;

    /// Resolve an object id to its attribute payload. Stores without
    /// metadata (or ids out of range) report the default payload,
    /// which trivial predicates accept — so unfiltered behaviour is
    /// unchanged and filters degrade predictably on metadata-free
    /// corpora.
    fn meta(&self, _oid: u32) -> PointMeta {
        PointMeta::default()
    }

    /// Pages charged per verified candidate (reading the vector under
    /// the paper's disk cost model; 0 for in-memory stores).
    fn verify_pages(&self) -> u64 {
        0
    }

    /// Monotone table-read counter (pages / nodes), used to attribute
    /// I/O deltas; 0 forever for stores that don't model I/O.
    fn io_reads(&self) -> u64 {
        0
    }
}

/// A slice of object ids as a store hands it out: the id of each entry
/// is `first` plus the entry. It derefs to the entries themselves.
#[derive(Debug, Clone, Copy)]
pub struct Ids<'a, T> {
    /// The id every entry is an offset from.
    pub first: u32,
    /// The offsets.
    pub offsets: &'a [T],
}

impl<T> std::ops::Deref for Ids<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.offsets
    }
}

/// Per-query window state, one key window per table: the query's
/// level-1 bucket in each table and the bucket ids each table's window
/// covers.
#[derive(Debug, Clone)]
pub struct KeyWindows {
    q_buckets: Vec<i64>,
    /// Per table, the covered buckets `first..=last`; `None` before the
    /// table's first grow.
    covered: Vec<Option<(i64, i64)>>,
}

impl KeyWindows {
    /// State for a query hashing to `q_buckets`.
    pub fn new(q_buckets: Vec<i64>) -> Self {
        let m = q_buckets.len();
        Self { q_buckets, covered: vec![None; m] }
    }

    /// Grow table `t`'s window to `radius`; returns the buckets it newly
    /// covers below and above the window before, each ascending and
    /// empty where nothing grew. A window that reaches `i64::MAX` holds
    /// that bucket too ([`crate::rehash`]).
    pub fn grow(&mut self, t: usize, radius: i64) -> [RangeInclusive<i64>; 2] {
        let (lo, hi) = window(self.q_buckets[t], radius);
        let last = if hi == i64::MAX { hi } else { hi - 1 };
        let deltas = match self.covered[t] {
            None => [lo..=last, EMPTY],
            Some((first, before)) => [
                if lo < first { lo..=first - 1 } else { EMPTY },
                if before < last { before + 1..=last } else { EMPTY },
            ],
        };
        self.covered[t] = Some((lo, last));
        deltas
    }

    /// The buckets table `t`'s window covers, `(first, last)` inclusive;
    /// `None` before its first grow.
    pub fn covered(&self, t: usize) -> Option<(i64, i64)> {
        self.covered[t]
    }

    /// `true` when table `t`'s window contains the key range `[min, max]`
    /// reported by the store (`None` for an empty table).
    pub fn covers(&self, t: usize, key_range: Option<(i64, i64)>) -> bool {
        let Some((first, last)) = self.covered[t] else { return false };
        key_range.is_none_or(|(min, max)| first <= min && max <= last)
    }
}

/// No buckets.
const EMPTY: RangeInclusive<i64> = RangeInclusive::new(1, 0);

/// Per-query scratch: the collision counts, the retained-candidate
/// buffer, the top-k accumulator that feeds the early-abandon bound, and
/// a vector staging buffer. A query that finds one on the free list
/// allocates nothing but its k-sized result.
#[derive(Debug)]
struct QueryScratch {
    /// `#Col(o)` per object id: at most `m` ≤ `u16::MAX` ([`search`]
    /// asserts it), and it reaches `l` once, when its object is verified.
    counts: Vec<u16>,
    /// Every verified (non-abandoned) candidate, in verification order.
    candidates: Vec<Neighbor>,
    /// Running k nearest by squared distance; its root bounds the
    /// early-abandon kernel.
    topk: TopK,
    /// What [`TableStore::vector`] may fill when a store's vectors are
    /// not addressable memory.
    vec_buf: Vec<f32>,
}

impl QueryScratch {
    /// An empty scratch; [`search`] sizes the counts for its store.
    fn new() -> Self {
        QueryScratch {
            counts: Vec::new(),
            candidates: Vec::new(),
            topk: TopK::new(1),
            vec_buf: Vec::new(),
        }
    }
}

/// The machine's parallelism, read once (the standard library re-reads
/// the cgroup files on every call).
fn parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Scratches parked between queries. Every query of every store draws
/// from the one list, so a scratch ends up sized for the largest store
/// it has served, and each query zeroes the counts of its own store's
/// ids. At most [`parallelism`] scratches stay parked — what one batch's
/// workers hold; a burst of more concurrent queries allocates its extra
/// scratches and drops them afterwards.
struct ScratchPool(Mutex<Vec<QueryScratch>>);

static SCRATCHES: ScratchPool = ScratchPool(Mutex::new(Vec::new()));

impl ScratchPool {
    /// Run `f` with a parked scratch, or a new empty one, and park it
    /// again afterwards.
    fn with<R>(&self, f: impl FnOnce(&mut QueryScratch) -> R) -> R {
        // A push or pop cannot leave the list half-updated, so a
        // poisoned lock is still a valid free list.
        let parked = self.0.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let mut scratch = parked.unwrap_or_else(QueryScratch::new);
        let out = f(&mut scratch);
        let mut free = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if free.len() < parallelism() {
            free.push(scratch);
        }
        out
    }
}

/// Run one c-k-ANN query against `store`. Returns the k nearest
/// verified candidates (ascending distance, ties by id) plus cost
/// counters, whose [`QueryStats::io`] includes the store's table I/O
/// past hashing.
pub fn run_query<S: TableStore>(
    store: &S,
    params: &SearchParams,
    q: &[f32],
    k: usize,
    opts: &SearchOptions,
) -> (Vec<Neighbor>, QueryStats) {
    let query_start = opts.timing.then(Instant::now);
    let hash_start = opts.stage_timing.then(Instant::now);
    let cursor = store.begin(q);
    let hash_ns = hash_start.map_or(0, |s| s.elapsed().as_nanos() as u64);
    let io_before = store.io_reads();
    let (nn, mut stats) =
        SCRATCHES.with(|scratch| search(store, params, scratch, q, k, opts, cursor, hash_ns));
    stats.io.reads += store.io_reads() - io_before;
    if let Some(start) = query_start {
        stats.elapsed_nanos = start.elapsed().as_nanos() as u64;
    }
    (nn, stats)
}

/// The query loop, with hashing already done: `cursor` came from
/// [`TableStore::begin`] or one slot of [`TableStore::begin_batch`], and
/// `hash_ns` is the hashing time to attribute to this query's
/// [`crate::stats::StageNanos::hash`] (a batch passes its per-query
/// share). `scratch` is grown and its counts zeroed here. The stats
/// charge only the verification pages; the caller adds table I/O and
/// the elapsed time.
#[allow(clippy::too_many_arguments)] // the seam between the single and the batch entry point
fn search<S: TableStore>(
    store: &S,
    params: &SearchParams,
    scratch: &mut QueryScratch,
    q: &[f32],
    k: usize,
    opts: &SearchOptions,
    mut cursor: S::Cursor,
    hash_ns: u64,
) -> (Vec<Neighbor>, QueryStats) {
    assert!(k > 0, "k must be positive");
    assert_eq!(q.len(), store.dim(), "query dimensionality mismatch");
    assert!(q.iter().all(|x| x.is_finite()), "query contains non-finite coordinates");

    let m = store.num_tables();
    assert!(m <= usize::from(u16::MAX), "{m} hash tables overflow a u16 collision count");
    let n = store.len();
    let l = params.l;
    let cap = k + params.beta_n; // T2 budget
                                 // Normalize the filter once: a trivial predicate (no clauses)
                                 // matches everything, so the hot loop skips the check entirely.
    let filter = opts.filter.filter(|p| !p.is_trivial());
    let id_bound = store.id_bound();
    if scratch.counts.len() < id_bound {
        scratch.counts.resize(id_bound, 0);
    }
    let counts = &mut scratch.counts;
    counts[..id_bound].fill(0);
    let candidates = &mut scratch.candidates;
    candidates.clear();
    // The budget threshold stays `k + β·n`, but no query can verify more
    // than the live objects — clamp the allocation, not the condition.
    candidates.reserve(cap.min(n));
    let topk = &mut scratch.topk;
    topk.reset(k);
    let vec_buf = &mut scratch.vec_buf;
    // Hoisted kernel dispatch: one global load per query, not per
    // candidate.
    let kd = kernels::dispatch();

    let mut stats = QueryStats::new();
    // Stage accounting (hash / count / verify / rank) is opt-in; when
    // off, the hot loop pays one branch per verified candidate and
    // nothing per collision increment.
    let stage_on = opts.stage_timing;
    let mut verify_ns: u64 = 0;
    let mut count_ns: u64 = 0;

    let mut level: u32 = 0;
    loop {
        let radius = radius_at(params.c, level);
        stats.rounds += 1;
        stats.final_radius = radius;
        let round_start = (opts.timing && opts.per_round).then(Instant::now);
        let round_collisions = stats.collisions_counted;
        let round_verified = stats.candidates_verified;
        let verify_ns_before = verify_ns;
        let expand_start = stage_on.then(Instant::now);

        let mut budget_hit = false;
        for t in 0..m {
            store.expand(&mut cursor, t, radius, &mut |ids| {
                // The slice's offsets index the counts from its first id
                // up; only an object that turns frequent is named by id.
                let view = &mut counts[ids.first as usize..];
                // Collision accounting is per *slice*: one add for the
                // whole slice on the fall-through path, `idx + 1` on the
                // early-stop path — never a per-entry counter RMW.
                for (idx, &id) in ids.iter().enumerate() {
                    let i = id.into() as usize;
                    // The ids stream through L1, but their counts are
                    // random access: pull a count's line a few entries
                    // ahead so the increment doesn't stall on it.
                    if let Some(&ahead) = ids.get(idx + COUNT_PREFETCH_AHEAD) {
                        kernels::prefetch_read(view, ahead.into() as usize);
                    }
                    view[i] += 1;
                    if u32::from(view[i]) == l {
                        let oid = ids.first + i as u32;
                        // Frequent: the query's predicate prunes before
                        // the distance kernel — rejected objects are
                        // counted separately and never charge the T2
                        // budget.
                        if let Some(pred) = &filter {
                            if !pred.matches(store.meta(oid)) {
                                stats.candidates_filtered += 1;
                                continue;
                            }
                        }
                        // Verify unless tombstoned.
                        if let Some(v) = store.vector(oid, vec_buf) {
                            // The budget counts *verifications* (distance
                            // computations paid for), abandoned or not —
                            // identical to the pre-abandon candidate
                            // count.
                            stats.candidates_verified += 1;
                            let verify_start = stage_on.then(Instant::now);
                            match kd.euclidean_sq_bounded(v, q, topk.bound_sq()) {
                                Some(d_sq) => {
                                    topk.insert(d_sq, oid);
                                    candidates.push(Neighbor::new(oid, d_sq.sqrt()));
                                }
                                // Abandoned: provably farther than the
                                // final k-th best (the bound carries
                                // slack for the sqrt rounding used in
                                // ranking), so it can affect neither the
                                // result nor T1.
                                None => stats.candidates_abandoned += 1,
                            }
                            if let Some(s) = verify_start {
                                verify_ns += s.elapsed().as_nanos() as u64;
                            }
                            if stats.candidates_verified >= cap {
                                stats.collisions_counted += (idx + 1) as u64;
                                budget_hit = true;
                                return false; // T2: stop scanning
                            }
                        }
                    }
                }
                stats.collisions_counted += ids.len() as u64;
                true
            });
            if budget_hit {
                break;
            }
        }

        if let Some(s) = expand_start {
            // Counting time is the expansion total minus the verify
            // work interleaved inside it.
            let round_total = s.elapsed().as_nanos() as u64;
            count_ns += round_total.saturating_sub(verify_ns - verify_ns_before);
        }

        // T1 progress: verified candidates within the geometric radius
        // c·R·base_radius. Abandoned candidates are not counted, which
        // cannot change the `≥ k` decision: the k nearest candidates are
        // never abandoned, so whenever the full count would reach k the
        // retained count does too.
        let c_r = params.c as f64 * radius as f64 * params.base_radius;
        let within_c_r = candidates.iter().filter(|cand| cand.dist <= c_r).count();

        if opts.per_round {
            stats.per_round.push(RoundStats {
                level,
                radius,
                collisions: stats.collisions_counted - round_collisions,
                verified: stats.candidates_verified - round_verified,
                within_c_r,
                elapsed_nanos: round_start.map_or(0, |s| s.elapsed().as_nanos() as u64),
            });
        }

        if budget_hit {
            stats.terminated_by = Termination::T2CandidateBudget;
            break;
        }
        if within_c_r >= k {
            stats.terminated_by = Termination::T1AtRadius;
            break;
        }
        // No window grows past the saturated radius (`rehash`), so a
        // round run at it is the last.
        if store.exhausted(&cursor) || radius == i64::MAX {
            stats.terminated_by = Termination::Exhausted;
            break;
        }
        level += 1;
    }

    stats.io.reads = stats.candidates_verified as u64 * store.verify_pages();
    // Rank exactly as before the early-abandon change: sort *all*
    // retained candidates by (dist, id) and take k. (The top-k heap
    // selects by squared distance, whose ties can differ from post-sqrt
    // ties at the boundary, so it serves only as the abandon bound.)
    let rank_start = stage_on.then(Instant::now);
    candidates.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    candidates.truncate(k);
    let result = candidates.clone();
    if stage_on {
        stats.stage = crate::stats::StageNanos {
            hash: hash_ns,
            count: count_ns,
            verify: verify_ns,
            rank: rank_start.map_or(0, |s| s.elapsed().as_nanos() as u64),
        };
    }
    (result, stats)
}

/// Answer a whole query set in parallel across scoped threads.
///
/// The batch is hashed up front in one call ([`TableStore::begin_batch`])
/// — eight hash functions at a time against every query — then queries
/// fan out to workers (hence the `S::Cursor: Send` bound). Results are
/// in query order and identical to sequential [`run_query`] calls, with
/// two observable differences: [`QueryStats::elapsed_nanos`] excludes
/// hashing, and per-query [`QueryStats::io`] carries only the
/// deterministic verification charge. The store's table I/O over the
/// whole batch is reported once in [`BatchStats::io`] (concurrent
/// workers share the store's I/O counters, so a per-query table delta
/// would be attribution noise). Each worker holds one scratch from the
/// engine's free list for its whole share. Thread count defaults to the
/// machine's parallelism. With stage timing on, each query's `hash`
/// stage carries its 1/nq share of the batched hashing time.
pub fn run_query_batch<S: TableStore + Sync>(
    store: &S,
    params: &SearchParams,
    queries: &Dataset,
    k: usize,
    opts: &SearchOptions,
) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats)
where
    S::Cursor: Send,
{
    assert_eq!(queries.dim(), store.dim(), "query dimensionality mismatch");
    let nq = queries.len();
    let mut batch = BatchStats::default();
    if nq == 0 {
        return (Vec::new(), batch);
    }
    let batch_start = opts.timing.then(Instant::now);
    let io_before = store.io_reads();
    // Positions of sampled tracing run on across calls: each call that
    // samples reserves `nq` of them (`Relaxed`: they guard no data).
    static TRACE_POSITIONS: AtomicU64 = AtomicU64::new(0);
    let first_pos =
        if opts.trace_every > 0 { TRACE_POSITIONS.fetch_add(nq as u64, Relaxed) } else { 0 };

    // Hash the whole batch in one pass; workers consume their cursors.
    let hash_start = opts.stage_timing.then(Instant::now);
    let mut cursors: Vec<Option<S::Cursor>> =
        store.begin_batch(queries).into_iter().map(Some).collect();
    assert_eq!(cursors.len(), nq, "begin_batch must return one cursor per query");
    let hash_ns_each = hash_start.map_or(0, |s| s.elapsed().as_nanos() as u64 / nq as u64);

    let threads = parallelism().min(nq);
    let mut out: Vec<(Vec<Neighbor>, QueryStats)> = vec![(Vec::new(), QueryStats::new()); nq];
    std::thread::scope(|scope| {
        let chunk = nq.div_ceil(threads);
        for (t, (out_chunk, cur_chunk)) in
            out.chunks_mut(chunk).zip(cursors.chunks_mut(chunk)).enumerate()
        {
            let lo = t * chunk;
            scope.spawn(move || {
                SCRATCHES.with(|scratch| {
                    for (off, (slot, cur)) in out_chunk.iter_mut().zip(cur_chunk).enumerate() {
                        let qi = lo + off;
                        let mut per_query = *opts;
                        // Sampled tracing: every trace_every-th position
                        // records its timed rounds.
                        if opts.trace_every > 0
                            && (first_pos + qi as u64).is_multiple_of(u64::from(opts.trace_every))
                        {
                            per_query.per_round = true;
                            per_query.timing = true;
                        }
                        let query_start = per_query.timing.then(Instant::now);
                        let cursor = cur.take().expect("each batch cursor is consumed once");
                        let q = queries.get(qi);
                        let (nn, mut stats) =
                            search(store, params, scratch, q, k, &per_query, cursor, hash_ns_each);
                        if let Some(start) = query_start {
                            stats.elapsed_nanos = start.elapsed().as_nanos() as u64;
                        }
                        *slot = (nn, stats);
                    }
                })
            });
        }
    });

    for (_, s) in &out {
        batch.absorb(s);
    }
    batch.io.reads += store.io_reads() - io_before;
    if let Some(start) = batch_start {
        batch.elapsed_nanos = start.elapsed().as_nanos() as u64;
    }
    (out, batch)
}

#[cfg(test)]
mod tests {
    //! The engine is exercised end-to-end through the backends in their
    //! own modules and in `tests/`; here we pin the store-level
    //! contract with a hand-rolled mock.

    use super::*;
    use crate::config::C2lshConfig;
    use crate::hash::HashFamily;
    use crate::params::FullParams;

    /// A store over explicit `(bucket, oid)` tables.
    struct MockStore {
        data: Dataset,
        family: HashFamily,
        tables: Vec<Vec<(i64, u32)>>,
        metas: Vec<PointMeta>,
    }

    impl TableStore for MockStore {
        type Cursor = KeyWindows;
        type Id = u32;

        fn dim(&self) -> usize {
            self.data.dim()
        }
        fn len(&self) -> usize {
            self.data.len()
        }
        fn num_tables(&self) -> usize {
            self.tables.len()
        }
        fn begin(&self, q: &[f32]) -> KeyWindows {
            KeyWindows::new(self.family.buckets(q))
        }
        fn expand(
            &self,
            cursor: &mut KeyWindows,
            t: usize,
            radius: i64,
            visit: &mut dyn FnMut(&Ids<'_, u32>) -> bool,
        ) {
            for keys in cursor.grow(t, radius) {
                let covered = self.tables[t].iter().filter(|e| keys.contains(&e.0));
                let oids: Vec<u32> = covered.map(|e| e.1).collect();
                if !oids.is_empty() && !visit(&Ids { first: 0, offsets: &oids }) {
                    return;
                }
            }
        }
        fn exhausted(&self, cursor: &KeyWindows) -> bool {
            let span = |table: &[(i64, u32)]| Some((table.first()?.0, table.last()?.0));
            self.tables.iter().enumerate().all(|(t, table)| cursor.covers(t, span(table)))
        }
        fn vector<'a>(&'a self, oid: u32, _: &'a mut Vec<f32>) -> Option<&'a [f32]> {
            Some(self.data.get(oid as usize))
        }
        fn meta(&self, oid: u32) -> PointMeta {
            self.metas.get(oid as usize).copied().unwrap_or_default()
        }
    }

    fn mock_store(n: usize, seed: u64) -> (MockStore, SearchParams) {
        use cc_vector::gen::{generate, Distribution};
        let data = generate(
            Distribution::GaussianMixture { clusters: 4, spread: 0.02, scale: 10.0 },
            n,
            8,
            seed,
        );
        let cfg = C2lshConfig::builder().bucket_width(1.0).seed(1).build();
        let params = FullParams::derive(data.len(), &cfg);
        let family = HashFamily::generate(params.m, data.dim(), &cfg);
        let mut tables = Vec::with_capacity(params.m);
        for t in 0..params.m {
            let h = family.get(t);
            let mut entries: Vec<(i64, u32)> =
                data.iter().enumerate().map(|(i, v)| (h.bucket(v), i as u32)).collect();
            entries.sort_unstable();
            tables.push(entries);
        }
        let search = SearchParams {
            c: cfg.c,
            l: params.l as u32,
            beta_n: params.beta_n,
            base_radius: cfg.base_radius,
        };
        (MockStore { data, family, tables, metas: Vec::new() }, search)
    }

    /// Build a coherent store for a tiny dataset via the real hashing
    /// path, then check the loop's bookkeeping.
    #[test]
    fn mock_store_agrees_with_real_index() {
        let (store, params) = mock_store(200, 3);
        let q = store.data.get(17).to_vec();
        let (nn, stats) = run_query(&store, &params, &q, 3, &SearchOptions::default());
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].id, 17, "query point itself must be the 1-NN");
        assert_eq!(nn[0].dist, 0.0);
        assert!(stats.candidates_verified >= 3);
        assert!(stats.rounds >= 1);
        // Collision increments can't exceed m·n.
        assert!(stats.collisions_counted <= (store.num_tables() * store.len()) as u64);
        // Observability off by default.
        assert!(stats.per_round.is_empty());
        assert_eq!(stats.elapsed_nanos, 0);
    }

    #[test]
    fn per_round_breakdown_sums_to_totals() {
        let (store, params) = mock_store(300, 4);
        let q = store.data.get(5).to_vec();
        let opts = SearchOptions { per_round: true, timing: true, ..Default::default() };
        let (_, stats) = run_query(&store, &params, &q, 5, &opts);
        assert_eq!(stats.per_round.len(), stats.rounds as usize);
        let col: u64 = stats.per_round.iter().map(|r| r.collisions).sum();
        let ver: usize = stats.per_round.iter().map(|r| r.verified).sum();
        assert_eq!(col, stats.collisions_counted);
        assert_eq!(ver, stats.candidates_verified);
        assert_eq!(stats.per_round.last().unwrap().radius, stats.final_radius);
        // Levels are consecutive from 0.
        for (i, r) in stats.per_round.iter().enumerate() {
            assert_eq!(r.level, i as u32);
        }
        assert!(stats.elapsed_nanos > 0, "timing was requested");
    }

    /// [`search`] for the 2 nearest to row `qi`, observability off.
    fn search_in(scratch: &mut QueryScratch, store: &MockStore, params: &SearchParams, qi: usize) {
        let (q, opts) = (store.data.get(qi), SearchOptions::default());
        let (nn, _) = search(store, params, scratch, q, 2, &opts, store.begin(q), 0);
        assert_eq!((nn.len(), nn[0].id), (2, qi as u32));
    }

    /// A query's answer and the counters that depend on every count it
    /// kept, through `scratch`.
    type Counted = (Vec<Neighbor>, u64, usize, u32, i64, Termination);

    fn counted(scratch: &mut QueryScratch, store: &MockStore, params: &SearchParams) -> Counted {
        let (q, opts) = (store.data.get(11), SearchOptions::default());
        let (nn, s) = search(store, params, scratch, q, 4, &opts, store.begin(q), 0);
        (nn, s.collisions_counted, s.candidates_verified, s.rounds, s.final_radius, s.terminated_by)
    }

    #[test]
    fn no_count_leaks_from_one_query_into_the_next() {
        let (store, params) = mock_store(250, 12);
        let (larger, larger_params) = mock_store(400, 6);
        let (smaller, smaller_params) = mock_store(120, 5);
        let fresh = counted(&mut QueryScratch::new(), &store, &params);
        assert!(fresh.2 >= 4, "the query verifies candidates: {fresh:?}");

        // A scratch that already served the same store, twice.
        let mut again = QueryScratch::new();
        counted(&mut again, &store, &params);
        assert_eq!(counted(&mut again, &store, &params), fresh);

        // A scratch that already served a larger store, then a smaller one:
        // counts past the smaller store's ids are left from the larger one.
        let mut shrunk = QueryScratch::new();
        counted(&mut shrunk, &larger, &larger_params);
        counted(&mut shrunk, &smaller, &smaller_params);
        assert_eq!(counted(&mut shrunk, &store, &params), fresh);
    }

    #[test]
    fn scratches_are_reused_and_the_free_list_is_bounded() {
        let (big, big_params) = mock_store(400, 6);
        let (small, small_params) = mock_store(120, 5);
        let parked = |pool: &ScratchPool| pool.0.lock().unwrap().len();
        // A list of its own, which no other test's queries draw from.
        let pool = ScratchPool(Mutex::new(Vec::new()));
        // The first query finds the list empty and sizes its counts.
        pool.with(|s| {
            assert_eq!(s.counts.len(), 0);
            search_in(s, &big, &big_params, 9);
            assert_eq!(s.counts.len(), 400);
        });
        assert_eq!(parked(&pool), 1);
        // The second gets those counts, not counts of its own size.
        pool.with(|s| {
            assert_eq!(s.counts.len(), 400);
            search_in(s, &small, &small_params, 3);
            assert_eq!(s.counts.len(), 400);
        });
        assert_eq!(parked(&pool), 1);
        // More holders at once than the list keeps: the surplus is dropped.
        let holders = 2 * parallelism() + 1;
        let all_hold = std::sync::Barrier::new(holders);
        std::thread::scope(|scope| {
            for _ in 0..holders {
                scope.spawn(|| pool.with(|_| all_hold.wait()));
            }
        });
        assert_eq!(parked(&pool), parallelism());

        // The engine's own list, through the public entry points.
        let opts = SearchOptions::default();
        for qi in 0..100 {
            run_query(&small, &small_params, small.data.get(qi), 2, &opts);
        }
        run_query_batch(&big, &big_params, &big.data.slice_rows(0, 23), 2, &opts);
        assert!(parked(&SCRATCHES) <= parallelism());
    }

    #[test]
    fn batch_matches_sequential_and_aggregates() {
        let (store, params) = mock_store(400, 6);
        let queries = store.data.slice_rows(0, 23);
        let opts = SearchOptions { timing: true, ..Default::default() };
        let (batch, agg) = run_query_batch(&store, &params, &queries, 4, &opts);
        assert_eq!(batch.len(), 23);
        assert_eq!(agg.queries, 23);
        let mut verified_total = 0u64;
        for (qi, (nn, stats)) in batch.iter().enumerate() {
            let (seq_nn, seq_stats) =
                run_query(&store, &params, queries.get(qi), 4, &SearchOptions::default());
            assert_eq!(nn, &seq_nn, "query {qi}");
            assert_eq!(stats.candidates_verified, seq_stats.candidates_verified);
            verified_total += stats.candidates_verified as u64;
        }
        assert_eq!(agg.verified, verified_total);
        assert_eq!(agg.t1 + agg.t2 + agg.exhausted, 23, "every query's termination is tallied");
        assert!(agg.elapsed_nanos > 0);
    }

    #[test]
    fn stage_timing_and_rounds_account_for_the_query() {
        let (store, params) = mock_store(300, 8);
        let q = store.data.get(9).to_vec();
        let opts = SearchOptions {
            timing: true,
            stage_timing: true,
            per_round: true,
            ..Default::default()
        };
        let (plain_nn, plain) = run_query(&store, &params, &q, 5, &SearchOptions::default());
        let (nn, stats) = run_query(&store, &params, &q, 5, &opts);
        // Instrumentation must not change the answer or the work done.
        assert_eq!(nn, plain_nn);
        assert_eq!(stats.candidates_verified, plain.candidates_verified);
        assert_eq!(stats.terminated_by, plain.terminated_by);
        // Stage totals are positive and bounded by the wall clock of
        // the whole query (they partition the inner work).
        assert!(stats.stage.count > 0, "counting time must be attributed");
        assert!(stats.stage.verify > 0, "verification time must be attributed");
        assert!(stats.stage.total() <= stats.elapsed_nanos * 2, "{:?}", stats.stage);
        // One timed round per level, the last at the final radius, all
        // inside the query's wall clock.
        assert_eq!(stats.per_round.len(), stats.rounds as usize);
        assert_eq!(stats.per_round.last().unwrap().radius, stats.final_radius);
        assert!(stats.per_round.iter().all(|r| r.elapsed_nanos > 0), "{:?}", stats.per_round);
        let round_ns: u64 = stats.per_round.iter().map(|r| r.elapsed_nanos).sum();
        assert!(round_ns <= stats.elapsed_nanos, "{round_ns} > {}", stats.elapsed_nanos);
        // Disabled observability stays disabled.
        assert_eq!(plain.stage, crate::stats::StageNanos::default());
        assert!(plain.per_round.is_empty());
    }

    /// The only test that samples, so no other test shifts the positions
    /// between its calls.
    #[test]
    fn batch_trace_sampling_captures_every_nth_query() {
        let (store, params) = mock_store(250, 9);
        let opts = SearchOptions { trace_every: 4, ..Default::default() };
        // One batch of ten: one traced query per 4 positions, wherever the
        // batch starts among them.
        let (batch, _) = run_query_batch(&store, &params, &store.data.slice_rows(0, 10), 3, &opts);
        let traced: Vec<usize> = (0..10).filter(|&qi| !batch[qi].1.per_round.is_empty()).collect();
        assert!(traced[0] < 4, "{traced:?}");
        assert!(traced.windows(2).all(|w| w[1] - w[0] == 4), "{traced:?}");
        assert!(traced[traced.len() - 1] + 4 >= 10, "{traced:?}");
        // Forty batches of one trace one query in four, not every query.
        let traced_singles = (0..40)
            .filter(|&qi| {
                let (batch, _) =
                    run_query_batch(&store, &params, &store.data.slice_rows(qi, qi + 1), 3, &opts);
                !batch[0].1.per_round.is_empty()
            })
            .count();
        assert_eq!(traced_singles, 10);
    }

    #[test]
    fn filter_prunes_before_verification() {
        let (mut store, params) = mock_store(300, 10);
        // Label points round-robin over 3 classes.
        store.metas = (0..store.len()).map(|i| PointMeta::labeled((i % 3) as u32)).collect();
        let q = store.data.get(12).to_vec();

        let (plain_nn, plain) = run_query(&store, &params, &q, 5, &SearchOptions::default());
        assert_eq!(plain.candidates_filtered, 0, "unfiltered queries never filter");

        let opts = SearchOptions { filter: Some(Predicate::label(0)), ..Default::default() };
        let (nn, stats) = run_query(&store, &params, &q, 5, &opts);
        assert_eq!(nn[0].id, 12, "query point (label 0) survives its own filter");
        for n in &nn {
            assert_eq!(n.id % 3, 0, "result {n:?} violates the predicate");
        }
        assert!(stats.candidates_filtered > 0, "2/3 of frequent objects must be rejected");
        // Rejected objects charge neither verification counter.
        assert!(stats.candidates_verified + stats.candidates_filtered >= plain.candidates_verified);

        // A trivial predicate behaves exactly like no predicate.
        let trivial = SearchOptions { filter: Some(Predicate::any()), ..Default::default() };
        let (triv_nn, triv) = run_query(&store, &params, &q, 5, &trivial);
        assert_eq!(triv_nn, plain_nn);
        assert_eq!(triv.candidates_filtered, 0);
        assert_eq!(triv.candidates_verified, plain.candidates_verified);
    }

    #[test]
    #[should_panic(expected = "65536 hash tables overflow a u16 collision count")]
    fn more_tables_than_a_u16_count_holds_are_refused() {
        let (mut store, params) = mock_store(50, 7);
        store.tables = vec![Vec::new(); 65_536];
        let (q, opts) = (store.data.get(0), SearchOptions::default());
        let cursor = KeyWindows::new(vec![0; 65_536]);
        search(&store, &params, &mut QueryScratch::new(), q, 1, &opts, cursor, 0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let (store, params) = mock_store(50, 7);
        let q = store.data.get(0).to_vec();
        let _ = run_query(&store, &params, &q, 0, &SearchOptions::default());
    }
}
