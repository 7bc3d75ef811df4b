//! The dynamic (updatable) C2LSH index.
//!
//! A key advantage the paper claims over LSB-forest: because every hash
//! table is keyed by a *single* LSH function, updates are trivial —
//! insert/delete an object touches one bucket per table, no compound
//! keys, no tree rebalancing across radii (virtual rehashing still works
//! because it only relies on bucket-id arithmetic).
//!
//! [`DynamicIndex`] owns its data and is a *persistent* structure: a
//! clone shares everything with its original and a write replaces only
//! what it touches. The hash tables are a short list of sealed,
//! `Arc`-shared segments — each the sorted runs of a block of rows, one
//! run per table, over ascending, disjoint ranges of object ids — and
//! the per-object columns are `Arc`-shared chunks of 256 rows. A block of
//! rows is hashed into its runs and sealed as they are; the list is
//! then restored by a tiered merge of neighbours (`merge_due`), so a
//! one-row batch rebuilds a tail of under 256 rows, whatever the index
//! holds, and an id is rewritten a handful of times on its way into a
//! segment spanning up to 65 536 ids — which is what lets
//! [`crate::mutable::MutableIndex`] publish a snapshot per write batch.
//! A delete tombstones the object's slot; its ids stay in their segment,
//! counted and then skipped at [`TableStore::vector`], until a merge or
//! the rewrite of a segment more than an eighth dead drops them.
//! Queries run through the shared [`crate::engine`] loop — the same
//! virtual-rehashing windows, incremental counting and T1/T2 termination
//! as every other backend: under one [`KeyWindows`] cursor a bucket's
//! ids go out segment by segment, which is one table's `(bucket, oid)`
//! order — the walk of `index::Segment::expand` every store shares.

use crate::config::C2lshConfig;
use crate::engine::{self, Ids, KeyWindows, SearchOptions, TableStore};
use crate::hash::HashFamily;
use crate::index::{build_segments, per_table, Segment, SortedRun, SEGMENT_IDS};
use crate::meta::PointMeta;
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use std::ops::Range;
use std::sync::Arc;

/// Rows per chunk of the vector and metadata columns.
const ROW_CHUNK: usize = 256;
/// Rows gathered before a block is hashed and sealed; its rows and runs
/// (`4·dim + 2·m` bytes a row) are built before anything is merged.
const HASH_BLOCK: usize = 4096;
/// Rows of a block or a merge per worker: shorter work stays on the
/// calling thread, where starting a thread would cost more than it saves.
const WORKER_ROWS: usize = 256;
/// A segment of fewer rows is a tail: two neighbouring tails merge, so a
/// one-row batch rewrites fewer than this many rows.
const TAIL_ROWS: usize = 256;

/// A segment — the rows of one sealed block, or of several merged — as
/// one snapshot sees it.
#[derive(Clone)]
struct Sealed {
    segment: Arc<Segment>,
    /// How many of its ids this snapshot has tombstoned.
    dead: usize,
}

impl Sealed {
    fn live(&self) -> usize {
        self.segment.rows() - self.dead
    }

    /// Live rows, first and last id: what [`merge_due`] decides on.
    fn shape(&self) -> (usize, u32, u32) {
        (self.live(), self.segment.first, self.segment.last)
    }
}

impl AsRef<Segment> for Sealed {
    fn as_ref(&self) -> &Segment {
        &self.segment
    }
}

/// The size class of a segment of `rows` live rows: `None` for a tail,
/// `Some(k)` from `TAIL_ROWS·4^k` rows up.
fn class(rows: usize) -> Option<u32> {
    (rows / TAIL_ROWS).checked_ilog(4)
}

/// The neighbours to merge next in a list of segments of these live
/// rows and first and last ids, the rightmost first: four of one class;
/// or two of which the first is of a smaller class than the second, or
/// both are tails — so classes descend along the list, there are fewer
/// than four of each and at most one tail, which a block sealed behind
/// them keeps true. No merge spans more than [`SEGMENT_IDS`] ids, which
/// also bounds the longest stall a write can meet to writing `2·m` bytes
/// for each of them: neighbours that would are left as they are, and
/// four tails that would are taken two at a time.
fn merge_due(segments: &[(usize, u32, u32)]) -> Option<Range<usize>> {
    let fits = |due: &Range<usize>| {
        ((segments[due.end - 1].2 - segments[due.start].1) as usize) < SEGMENT_IDS
    };
    let class_at = |i: usize| segments.get(i).map(|&(rows, ..)| class(rows));
    let due_at = |i: usize| {
        let (a, b) = (class_at(i)?, class_at(i + 1)?);
        let four = (i..i + 4).all(|j| class_at(j) == Some(a)).then_some(i..i + 4);
        let pair = (a < b || (a, b) == (None, None)).then_some(i..i + 2);
        four.into_iter().chain(pair).find(fits)
    };
    (0..segments.len()).rev().find_map(due_at)
}

/// One write of a batch handed to [`DynamicIndex::apply`].
pub(crate) enum Edit<'a> {
    /// Insert this vector with this payload.
    Insert(&'a [f32], PointMeta),
    /// Delete this object id.
    Delete(u32),
}

/// One per-object column of a [`DynamicIndex`] (object id → value), as
/// returned by [`DynamicIndex::slots`] and [`DynamicIndex::meta_slots`]:
/// a read-only sequence whose chunks are shared between snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Slots<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T: Clone> Slots<T> {
    /// Number of slots (tombstones included).
    pub fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * ROW_CHUNK + last.len())
    }

    /// `true` when the column holds no slot.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The value of slot `i`, `None` past the end.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / ROW_CHUNK)?.get(i % ROW_CHUNK)
    }

    /// All slots in object-id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Slot `i` for writing; its chunk is copied first when a snapshot
    /// still shares it.
    fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        Arc::make_mut(self.chunks.get_mut(i / ROW_CHUNK)?).get_mut(i % ROW_CHUNK)
    }

    fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < ROW_CHUNK => Arc::make_mut(last).push(value),
            _ => {
                let mut chunk = Vec::with_capacity(ROW_CHUNK);
                chunk.push(value);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }
}

/// An updatable C2LSH index owning its vectors.
///
/// A clone is a second handle on the same segments and chunks — the
/// basis of the snapshot read path: a writer clones the current index,
/// mutates the clone and publishes it, while readers keep querying the
/// original. It copies a pointer per segment and `2·n/ROW_CHUNK` more;
/// the two diverge segment by segment and chunk by chunk as either is
/// written.
#[derive(Clone)]
pub struct DynamicIndex {
    dim: usize,
    /// The dataset size the `(m, l)` derivation was calibrated for
    /// (recorded so checkpoints can rebuild an identical index).
    expected_n: usize,
    config: C2lshConfig,
    params: FullParams,
    family: Arc<HashFamily>,
    /// Object id → vector (tombstoned on delete).
    vectors: Slots<Option<Arc<[f32]>>>,
    /// Object id → attribute payload, parallel to `vectors` (slots of
    /// tombstoned objects keep their last payload; it is never read,
    /// since the engine drops tombstones at [`TableStore::vector`]).
    metas: Slots<PointMeta>,
    live: usize,
    /// Every live id is in exactly one segment, the one whose range
    /// holds it; a tombstoned id may still be in it.
    segments: Vec<Sealed>,
    /// Rows per hashed block and the most threads hashing a block or
    /// merging segments (tests set both).
    block_rows: usize,
    workers: usize,
}

impl std::fmt::Debug for DynamicIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicIndex")
            .field("dim", &self.dim)
            .field("expected_n", &self.expected_n)
            .field("live", &self.live)
            .field("id_bound", &self.vectors.len())
            .field("m", &self.params.m)
            .finish_non_exhaustive()
    }
}

impl DynamicIndex {
    /// Create an empty index sized for an *expected* dataset size
    /// `expected_n` (drives the `(m, l)` derivation; the guarantee is
    /// calibrated to that order of magnitude — re-derive and rebuild if
    /// the live size drifts by more than ~10×).
    ///
    /// # Panics
    /// Panics on `expected_n == 0`, `dim == 0` or an invalid config.
    pub fn new(dim: usize, expected_n: usize, config: &C2lshConfig) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let params = FullParams::derive(expected_n, config);
        let family = Arc::new(HashFamily::generate(params.m, dim, config));
        Self {
            dim,
            expected_n,
            config: config.clone(),
            params,
            family,
            vectors: Slots { chunks: Vec::new() },
            metas: Slots { chunks: Vec::new() },
            live: 0,
            segments: Vec::new(),
            block_rows: HASH_BLOCK,
            workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }

    /// Rebuild an index from a checkpoint's slot array (object id →
    /// vector or tombstone), preserving ids exactly and keeping each
    /// vector's allocation as its slot. The hash family is re-generated
    /// from `(dim, expected_n, config)` — the same derivation as
    /// [`DynamicIndex::new`] — so an index restored this way answers
    /// queries identically to the one that was saved.
    pub(crate) fn from_slots(
        dim: usize,
        expected_n: usize,
        config: &C2lshConfig,
        slots: Vec<Option<Arc<[f32]>>>,
        metas: Vec<PointMeta>,
    ) -> Self {
        assert!(
            metas.is_empty() || metas.len() == slots.len(),
            "checkpoint meta array length mismatch"
        );
        let mut idx = Self::new(dim, expected_n, config);
        // Keep `metas` parallel to `vectors` (meta-free checkpoints
        // restore with all-default payloads).
        let metas = metas.into_iter().chain(std::iter::repeat(PointMeta::default()));
        idx.append(slots.into_iter().zip(metas));
        idx
    }

    /// Build from an existing dataset (bulk path used by tests and by
    /// migrations from the static index).
    pub fn from_dataset(data: &Dataset, config: &C2lshConfig) -> Self {
        let mut idx = Self::new(data.dim(), data.len().max(1), config);
        idx.insert_batch(data.iter().map(|v| (v, PointMeta::default())));
        idx
    }

    /// Insert a vector with default (empty) metadata; returns its
    /// object id. O(m log n).
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn insert(&mut self, v: Vec<f32>) -> u32 {
        self.insert_with_meta(v, PointMeta::default())
    }

    /// Insert a vector with an attribute payload; returns its object
    /// id. O(m log n). Object id assignment is independent of the
    /// payload, so a meta-bearing insert replays identically to a
    /// meta-free one (WAL compatibility).
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn insert_with_meta(&mut self, v: Vec<f32>, meta: PointMeta) -> u32 {
        self.insert_batch([(v.as_slice(), meta)])
    }

    /// Insert `rows` in order; they get consecutive object ids, the
    /// first of which is returned (the id the next insert would get
    /// when `rows` is empty). Same result as inserting one by one.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or a non-finite coordinate.
    pub(crate) fn insert_batch<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a [f32], PointMeta)>,
    ) -> u32 {
        let first = self.vectors.len() as u32;
        self.append(rows.into_iter().map(|(v, meta)| (Some(v), meta)));
        first
    }

    /// Apply `edits` in order and return, per edit, the object id it
    /// concerned and whether it took effect (`false` only for a delete
    /// of an unknown or already deleted id). Same result as one call
    /// per edit; each run of consecutive inserts is hashed as a block.
    pub(crate) fn apply<'a>(
        &mut self,
        edits: impl IntoIterator<Item = Edit<'a>>,
    ) -> Vec<(u32, bool)> {
        let mut done = Vec::new();
        let mut edits = edits.into_iter().peekable();
        while edits.peek().is_some() {
            let first = self.vectors.len() as u32;
            self.append(std::iter::from_fn(|| match edits.peek()? {
                &Edit::Insert(v, meta) => edits.next().map(|_| (Some(v), meta)),
                Edit::Delete(_) => None,
            }));
            done.extend((first..self.vectors.len() as u32).map(|oid| (oid, true)));
            if let Some(Edit::Delete(oid)) = edits.next() {
                done.push((oid, self.tombstone(oid)));
            }
        }
        self.restore();
        done
    }

    /// Append slots (`None` = tombstone) in object-id order, sealing
    /// the live rows a block at a time. A slot keeps an `Arc<[f32]>` it
    /// is handed and copies a borrowed vector into one.
    fn append<V: AsRef<[f32]> + Into<Arc<[f32]>>>(
        &mut self,
        slots: impl Iterator<Item = (Option<V>, PointMeta)>,
    ) {
        let mut block = Dataset::empty(self.dim);
        let mut oids = Vec::new();
        for (slot, meta) in slots {
            if let Some(v) = slot.as_ref().map(V::as_ref) {
                assert_eq!(v.len(), self.dim, "vector length mismatch");
                assert!(v.iter().all(|x| x.is_finite()), "vector contains non-finite coordinates");
                oids.push(self.vectors.len() as u32);
                block.push(v);
            }
            self.vectors.push(slot.map(Into::into));
            self.metas.push(meta);
            if oids.len() == self.block_rows {
                self.index_rows(&std::mem::replace(&mut block, Dataset::empty(self.dim)), &oids);
                oids.clear();
            }
        }
        self.index_rows(&block, &oids);
    }

    /// Seal `rows` as segments under `oids`: workers hash the block
    /// table by table and counting-sort each column into runs of its
    /// rows' ids, a new segment wherever the ids would span more than
    /// [`SEGMENT_IDS`] — as the empty slots of a restored checkpoint can
    /// make them. The runs stay where the workers allocated them.
    fn index_rows(&mut self, rows: &Dataset, oids: &[u32]) {
        if oids.is_empty() {
            return;
        }
        let workers = self.workers.min(oids.len() / WORKER_ROWS).max(1);
        for segment in build_segments(rows, &self.family, workers, |i| oids[i]) {
            self.segments.push(Sealed { segment: Arc::new(segment), dead: 0 });
        }
        self.live += oids.len();
        self.restore();
    }

    /// Bring the list of segments back to the shape [`merge_due`] keeps,
    /// then rewrite any segment more than an eighth dead.
    fn restore(&mut self) {
        let eighth_dead = |s: &Sealed| 8 * s.dead > s.segment.rows();
        loop {
            let shape: Vec<_> = self.segments.iter().map(Sealed::shape).collect();
            let dead = || self.segments.iter().position(eighth_dead).map(|i| i..i + 1);
            let Some(due) = merge_due(&shape).or_else(dead) else { return };
            self.merge(due);
        }
    }

    /// Replace the segments `due` with one of their live ids, each
    /// table written bucket by bucket by workers that share the tables.
    fn merge(&mut self, due: Range<usize>) {
        let parts = &self.segments[due.clone()];
        let rows = parts.iter().map(Sealed::live).sum();
        let (first, last) = (parts[0].segment.first, parts[parts.len() - 1].segment.last);
        // Every id is stored as a `u16` offset from `first`.
        assert!(((last - first) as usize) < SEGMENT_IDS, "a merge spans {first}..={last}");
        let keep = |oid: u32| self.get(oid).is_some();
        let workers = self.workers.min(rows / WORKER_ROWS).max(1);
        let runs = per_table(self.params.m, workers, |tables| {
            let merged = |t| {
                let runs = parts.iter().map(|p| (&p.segment.runs[t], p.segment.first, p.dead > 0));
                SortedRun::merged(&runs.collect::<Vec<_>>(), first, rows, keep)
            };
            tables.map(merged).collect()
        });
        let merged = Sealed { segment: Arc::new(Segment { runs, first, last }), dead: 0 };
        self.segments.splice(due, (rows > 0).then_some(merged));
    }

    /// Delete an object by id; returns `false` when the id is unknown or
    /// already deleted.
    pub fn delete(&mut self, oid: u32) -> bool {
        let deleted = self.tombstone(oid);
        self.restore();
        deleted
    }

    /// Empty the slot of `oid`, if it is live, and count it dead in its
    /// segment.
    fn tombstone(&mut self, oid: u32) -> bool {
        if self.get(oid).is_none() {
            return false;
        }
        *self.vectors.get_mut(oid as usize).expect("slot was just read") = None;
        let at = self.segments.partition_point(|s| s.segment.last < oid);
        debug_assert!(self.segments[at].segment.first <= oid);
        self.segments[at].dead += 1;
        self.live -= 1;
        true
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when the index holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The derived parameters in effect.
    pub fn params(&self) -> &FullParams {
        &self.params
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &C2lshConfig {
        &self.config
    }

    /// The expected dataset size the `(m, l)` derivation used.
    pub fn expected_n(&self) -> usize {
        self.expected_n
    }

    /// Dataset dimensionality (also available through
    /// [`TableStore::dim`]; inherent so callers need no trait import).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The full slot column (object id → vector, `None` for
    /// tombstones), used by checkpointing. Its length is
    /// [`TableStore::id_bound`].
    pub fn slots(&self) -> &Slots<Option<Arc<[f32]>>> {
        &self.vectors
    }

    /// The attribute payloads parallel to [`DynamicIndex::slots`] (one
    /// per slot, tombstones included), used by checkpointing.
    pub fn meta_slots(&self) -> &Slots<PointMeta> {
        &self.metas
    }

    /// Access a live vector by id.
    pub fn get(&self, oid: u32) -> Option<&[f32]> {
        self.vectors.get(oid as usize)?.as_deref()
    }

    /// c-k-ANN query (same algorithm and guarantees as the static
    /// index; see module docs).
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.query_with(q, k, &SearchOptions::default())
    }

    /// [`DynamicIndex::query`] with explicit observability options.
    pub fn query_with(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<Neighbor>, QueryStats) {
        engine::run_query(self, &self.params.search(&self.config), q, k, opts)
    }

    /// Answer a whole query set in parallel across scoped threads
    /// (results in query order, identical to sequential queries).
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        self.query_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`DynamicIndex::query_batch`] with explicit observability options.
    pub fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        engine::run_query_batch(self, &self.params.search(&self.config), queries, k, opts)
    }
}

impl TableStore for DynamicIndex {
    type Cursor = KeyWindows;
    type Id = u16;

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.live
    }

    fn id_bound(&self) -> usize {
        // Tombstoned ids still index the counter arrays.
        self.vectors.len()
    }

    fn num_tables(&self) -> usize {
        self.params.m
    }

    fn begin(&self, q: &[f32]) -> KeyWindows {
        KeyWindows::new(self.family.buckets(q))
    }

    fn begin_batch(&self, queries: &Dataset) -> Vec<KeyWindows> {
        self.family.cursors_batch(queries, KeyWindows::new)
    }

    fn expand(
        &self,
        cursor: &mut KeyWindows,
        t: usize,
        radius: i64,
        visit: &mut dyn FnMut(&Ids<'_, u16>) -> bool,
    ) {
        Segment::expand(&self.segments, cursor, t, radius, |_, ids| visit(&ids))
    }

    fn exhausted(&self, cursor: &KeyWindows) -> bool {
        // Over the buckets resident ids occupy: one that holds only
        // tombstoned ids is still to be covered.
        Segment::exhausted(&self.segments, cursor, self.params.m)
    }

    fn vector<'a>(&'a self, oid: u32, _: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        self.get(oid)
    }

    fn meta(&self, oid: u32) -> PointMeta {
        self.metas.get(oid as usize).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::C2lshIndex;
    use crate::stats::Termination;
    use cc_vector::gen::{generate, Distribution};
    use std::collections::BTreeMap;

    fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.015, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    fn cfg() -> C2lshConfig {
        C2lshConfig::builder().bucket_width(1.0).seed(42).build()
    }

    /// The slot column as a checkpoint decodes it.
    fn owned_slots(idx: &DynamicIndex) -> Vec<Option<Arc<[f32]>>> {
        idx.slots().iter().map(|slot| slot.as_deref().map(Arc::from)).collect()
    }

    #[test]
    fn matches_static_index_results() {
        // Same config/seed => same hash family => identical candidates.
        let data = clustered(800, 12, 1);
        let static_idx = C2lshIndex::build(&data, &cfg());
        let dyn_idx = DynamicIndex::from_dataset(&data, &cfg());
        for qi in [0usize, 99, 700] {
            let q = data.get(qi).to_vec();
            let (s_nn, _) = static_idx.query(&q, 10);
            let (d_nn, _) = dyn_idx.query(&q, 10);
            assert_eq!(s_nn, d_nn, "query {qi}");
        }
    }

    #[test]
    fn insert_then_find() {
        let mut idx = DynamicIndex::new(8, 1000, &cfg());
        let data = clustered(200, 8, 2);
        for v in data.iter() {
            idx.insert(v.to_vec());
        }
        assert_eq!(idx.len(), 200);
        let (nn, _) = idx.query(data.get(57), 1);
        assert_eq!(nn[0].id, 57);
        assert_eq!(nn[0].dist, 0.0);
    }

    #[test]
    fn delete_removes_from_results() {
        let mut idx = DynamicIndex::new(8, 1000, &cfg());
        let data = clustered(100, 8, 3);
        for v in data.iter() {
            idx.insert(v.to_vec());
        }
        let q = data.get(42).to_vec();
        assert_eq!(idx.query(&q, 1).0[0].id, 42);
        assert!(idx.delete(42));
        assert!(!idx.delete(42), "double delete must be a no-op");
        assert_eq!(idx.len(), 99);
        assert!(idx.get(42).is_none());
        let (nn, _) = idx.query(&q, 1);
        assert_ne!(nn[0].id, 42, "deleted object must not be returned");
    }

    #[test]
    fn interleaved_updates_stay_consistent() {
        let mut idx = DynamicIndex::new(6, 500, &cfg());
        let data = clustered(300, 6, 4);
        let mut live: Vec<u32> = Vec::new();
        for (i, v) in data.iter().enumerate() {
            let oid = idx.insert(v.to_vec());
            live.push(oid);
            if i % 3 == 2 {
                let victim = live.remove(live.len() / 2);
                assert!(idx.delete(victim));
            }
        }
        assert_eq!(idx.len(), live.len());
        // Every remaining live object findable by exact-match query.
        for &oid in live.iter().step_by(17) {
            let q = idx.get(oid).unwrap().to_vec();
            let (nn, _) = idx.query(&q, 1);
            assert_eq!(nn[0].dist, 0.0);
        }
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut idx = DynamicIndex::new(4, 100, &cfg());
        assert!(!idx.delete(0));
        assert!(idx.get(5).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn query_on_sparse_index_terminates() {
        let mut idx = DynamicIndex::new(4, 1000, &cfg());
        idx.insert(vec![0.0; 4]);
        idx.insert(vec![100.0; 4]);
        let (nn, stats) = idx.query(&[50.0; 4], 2);
        assert_eq!(nn.len(), 2);
        assert!(matches!(stats.terminated_by, Termination::Exhausted | Termination::T1AtRadius));
    }

    /// No segment — nothing inserted yet, or every id tombstoned and its
    /// segment dropped — is `m` tables with no bucket to cover: exhausted
    /// once every table has been grown, not before.
    #[test]
    fn an_index_without_a_segment_is_exhausted_once_grown() {
        let empty = DynamicIndex::new(4, 1000, &cfg());
        let mut emptied = empty.clone();
        emptied.insert(vec![0.0; 4]);
        emptied.insert(vec![100.0; 4]);
        assert!(emptied.delete(0) && emptied.delete(1));
        for idx in [&empty, &emptied] {
            assert!(idx.segments.is_empty() && idx.is_empty());
            let mut cursor = idx.begin(&[50.0; 4]);
            assert!(!idx.exhausted(&cursor));
            for t in 0..idx.params().m {
                idx.expand(&mut cursor, t, 1, &mut |ids| panic!("handed out {ids:?}"));
            }
            assert!(idx.exhausted(&cursor));
            let (nn, stats) = idx.query(&[50.0; 4], 2);
            assert!(nn.is_empty());
            assert_eq!((stats.rounds, stats.terminated_by), (1, Termination::Exhausted));
        }
    }

    #[test]
    fn query_takes_shared_reference() {
        // Concurrent readers over one shared index: compiles only with
        // `query(&self)`, and each reader counts in a scratch of its own.
        let data = clustered(150, 6, 5);
        let idx = DynamicIndex::from_dataset(&data, &cfg());
        let expected = idx.query(data.get(3), 4).0;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let expected = &expected;
                let idx = &idx;
                let data = &data;
                s.spawn(move || {
                    let (nn, _) = idx.query(data.get(3), 4);
                    assert_eq!(&nn, expected);
                });
            }
        });
    }

    #[test]
    fn batch_matches_sequential() {
        let data = clustered(400, 8, 6);
        let idx = DynamicIndex::from_dataset(&data, &cfg());
        let queries = data.slice_rows(0, 13);
        let (batch, agg) = idx.query_batch(&queries, 3);
        assert_eq!(batch.len(), 13);
        assert_eq!(agg.queries, 13);
        for (qi, (nn, _)) in batch.iter().enumerate() {
            assert_eq!(nn, &idx.query(queries.get(qi), 3).0, "query {qi}");
        }
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn rejects_wrong_dimension() {
        let mut idx = DynamicIndex::new(4, 100, &cfg());
        idx.insert(vec![0.0; 3]);
    }

    #[test]
    fn clone_isolates_writer_from_reader() {
        let data = clustered(120, 6, 7);
        let base = DynamicIndex::from_dataset(&data, &cfg());
        let q = data.get(10).to_vec();
        let before = base.query(&q, 3).0;
        let mut fork = base.clone();
        fork.delete(10);
        fork.insert(vec![42.0; 6]);
        // The original is untouched and still answers identically.
        assert_eq!(base.query(&q, 3).0, before);
        assert_eq!(base.len(), 120);
        assert_eq!(fork.len(), 120); // -1 +1
        assert_ne!(fork.query(&q, 1).0[0].id, 10);
    }

    #[test]
    fn from_slots_restores_ids_and_answers() {
        let data = clustered(150, 8, 8);
        let mut idx = DynamicIndex::from_dataset(&data, &cfg());
        for oid in [3u32, 77, 149] {
            assert!(idx.delete(oid));
        }
        let restored = DynamicIndex::from_slots(
            idx.dim,
            idx.expected_n(),
            idx.config(),
            owned_slots(&idx),
            idx.meta_slots().iter().copied().collect(),
        );
        assert_eq!(restored.len(), idx.len());
        assert_eq!(TableStore::id_bound(&restored), TableStore::id_bound(&idx));
        for qi in [0usize, 50, 120] {
            let q = data.get(qi).to_vec();
            assert_eq!(restored.query(&q, 5).0, idx.query(&q, 5).0, "query {qi}");
        }
        // Ids keep growing from the preserved bound, exactly like the
        // original would.
        let mut a = idx;
        let mut b = restored;
        assert_eq!(a.insert(vec![1.0; 8]), b.insert(vec![1.0; 8]));
    }

    /// Slots a checkpoint restores empty can set a block's rows further
    /// apart than a segment's offsets reach: the block is sealed as two
    /// segments, and no merge joins what one segment could not hold.
    #[test]
    fn a_segment_spans_at_most_65_536_ids() {
        let live = [0, 5, SEGMENT_IDS - 1, SEGMENT_IDS, SEGMENT_IDS + 7, 2 * SEGMENT_IDS - 1];
        let mut slots: Vec<Option<Arc<[f32]>>> = vec![None; 2 * SEGMENT_IDS];
        for at in live {
            slots[at] = Some(Arc::from([at as f32 / 1000.0, 0.0]));
        }
        let idx = DynamicIndex::from_slots(2, 1000, &cfg(), slots, Vec::new());
        let ranges: Vec<(u32, u32)> =
            idx.segments.iter().map(|s| (s.segment.first, s.segment.last)).collect();
        let top = 2 * SEGMENT_IDS as u32 - 1;
        assert_eq!(ranges, [(0, SEGMENT_IDS as u32 - 1), (SEGMENT_IDS as u32, top)]);
        for at in live {
            let (nn, _) = idx.query(&[at as f32 / 1000.0, 0.0], 1);
            assert_eq!((nn[0].id, nn[0].dist), (at as u32, 0.0));
        }
    }

    #[test]
    fn insert_with_meta_enables_filtered_queries() {
        use crate::meta::Predicate;
        let data = clustered(240, 8, 10);
        let mut idx = DynamicIndex::new(8, 400, &cfg());
        for (i, v) in data.iter().enumerate() {
            idx.insert_with_meta(v.to_vec(), PointMeta::labeled((i % 3) as u32));
        }
        let opts = SearchOptions { filter: Some(Predicate::label(1)), ..Default::default() };
        let (nn, stats) = idx.query_with(data.get(10), 5, &opts);
        assert!(!nn.is_empty());
        for n in &nn {
            assert_eq!(n.id % 3, 1, "predicate violated by {}", n.id);
        }
        assert!(stats.candidates_filtered > 0);
        // Metadata survives the slots round-trip.
        let restored = DynamicIndex::from_slots(
            8,
            idx.expected_n(),
            idx.config(),
            owned_slots(&idx),
            idx.meta_slots().iter().copied().collect(),
        );
        assert_eq!(restored.query_with(data.get(10), 5, &opts).0, nn);
        // A meta-free restore answers unfiltered queries identically.
        let plain = DynamicIndex::from_slots(
            8,
            idx.expected_n(),
            idx.config(),
            owned_slots(&idx),
            Vec::new(),
        );
        assert_eq!(plain.query(data.get(10), 5).0, idx.query(data.get(10), 5).0);
        assert!(plain.meta_slots().iter().all(|m| *m == PointMeta::default()));
    }

    /// The seeded history behind [`golden_answers_after_mixed_history`]:
    /// 3000 inserts, 400 deletes, 200 re-inserts. The deletes are picked
    /// from the buckets themselves (recomputed here from the hash family,
    /// so the choice does not depend on how the index stores them):
    /// objects alone in a bucket of some table and every member of ten
    /// small buckets of table 0 (both empty a bucket), the first and the
    /// last object of fifty larger buckets, then every seventh id until
    /// 400 are gone.
    fn golden_history() -> (Dataset, DynamicIndex) {
        let data = clustered(3000, 16, 11);
        // β·n = 200 lets near queries stop at T1 and far ones run into T2.
        let beta = crate::config::Beta::Count(200);
        let config = C2lshConfig::builder().bucket_width(1.0).seed(42).beta(beta).build();
        let mut idx = DynamicIndex::new(16, 3000, &config);
        let mut tables: Vec<BTreeMap<i64, Vec<u32>>> = vec![BTreeMap::new(); idx.params().m];
        for v in data.iter() {
            let oid = idx.insert(v.to_vec());
            for (table, b) in tables.iter_mut().zip(idx.family.buckets(v)) {
                table.entry(b).or_default().push(oid);
            }
        }
        let mut victims: Vec<u32> = Vec::new();
        let mut pick = |oid: u32| {
            if !victims.contains(&oid) {
                victims.push(oid);
            }
        };
        let singles = tables.iter().flat_map(|t| t.values()).filter(|b| b.len() == 1);
        singles.take(40).for_each(|b| pick(b[0]));
        let small = tables[0].values().filter(|b| (2..=4).contains(&b.len()));
        small.take(10).flatten().for_each(|&oid| pick(oid));
        for bucket in tables[0].values().filter(|b| b.len() >= 5).take(50) {
            pick(bucket[0]);
            pick(*bucket.last().unwrap());
        }
        (0..3000u32).step_by(7).for_each(&mut pick);
        victims.truncate(400);
        assert_eq!(victims.len(), 400);
        for &oid in &victims {
            assert!(idx.delete(oid));
        }
        for &oid in victims.iter().step_by(2) {
            idx.insert(data.get(oid as usize).to_vec());
        }
        assert_eq!((idx.len(), TableStore::id_bound(&idx)), (2800, 3200));
        (data, idx)
    }

    /// `got` collisions against the `want` recorded where a delete took
    /// the id out of its buckets: a tombstoned id still resident is
    /// counted, once per table at most, and nothing else may differ.
    fn assert_collisions(idx: &DynamicIndex, got: u64, want: u64, what: &str) {
        let resident_dead: usize = idx.segments.iter().map(|s| s.dead).sum();
        let most = want + (resident_dead * idx.params().m) as u64;
        assert!((want..=most).contains(&got), "{what}: {got} collisions, {want}..={most} allowed");
    }

    /// Pins what queries return over a mutated index: neighbour ids and
    /// distances, collisions, verified, abandoned, rounds and the
    /// terminating condition. Recorded against the `BTreeMap<i64,
    /// Vec<u32>>` tables; any representation must reproduce the bucket
    /// order and the insertion order inside a bucket to pass.
    #[test]
    fn golden_answers_after_mixed_history() {
        use crate::stats::Termination::{T1AtRadius as T1, T2CandidateBudget as T2};
        type Want<'a> = (&'a [u32], &'a [f64], u64, usize, usize, u32, Termination);
        let (data, idx) = golden_history();
        // (query id, offset added to every coordinate, k) ->
        // (ids, distances, collisions, verified, abandoned, rounds, termination)
        #[rustfmt::skip]
        let golden: [((usize, f32, usize), Want); 16] = [
            ((3, 0.0, 1), (&[1059], &[0.4051705700954564], 22287, 174, 172, 1, T1)),
            ((3, 0.0, 10), (&[1059, 3156, 627, 195, 2595, 1315, 179, 1667, 2835, 3140], &[0.4051705700954564, 0.5093250965468742, 0.5207795870388433, 0.5331430977788348, 0.5355717775633283, 0.5448642438746107, 0.5640579972391231, 0.5686319572571753, 0.5999394480628627, 0.6140374059621412], 22287, 174, 158, 1, T1)),
            ((259, 0.0, 1), (&[3078], &[0.0], 19616, 145, 144, 1, T1)),
            ((259, 0.0, 10), (&[3078, 1011, 1187, 499, 531, 1923, 451, 867, 1667, 1091], &[0.0, 0.6954184274673074, 0.7061662651739794, 0.7148803508748055, 0.7194595126157305, 0.7327484115035436, 0.7380521989163776, 0.7590197257989271, 0.761067459241284, 0.7641565926075676], 19616, 145, 128, 1, T1)),
            ((7, 0.0, 1), (&[1143], &[0.42203815272369766], 21252, 172, 171, 1, T1)),
            ((7, 0.0, 10), (&[1143, 1527, 2087, 1559, 3146, 1895, 2743, 2663, 1303, 775], &[0.42203815272369766, 0.4371701960141993, 0.46736732047549556, 0.46971382849517584, 0.4902826680565247, 0.5050122687205624, 0.5053086947189892, 0.5121102291597623, 0.5154584738559, 0.518706513213686], 21252, 172, 151, 1, T1)),
            ((14, 0.0, 1), (&[2798], &[0.5107986827406555], 22228, 175, 173, 1, T1)),
            ((14, 0.0, 10), (&[2798, 302, 2494, 846, 1198, 2334, 718, 2478, 2462, 2654], &[0.5107986827406555, 0.5479074813401625, 0.5677918869271475, 0.58258964967116, 0.6002278322545713, 0.6269662921033861, 0.6315102069238269, 0.6372108868595562, 0.6490509021652187, 0.6605699021957574], 22228, 175, 156, 1, T1)),
            ((1100, 0.5, 1), (&[2876], &[1.8291753865021851], 23228, 153, 150, 2, T1)),
            ((1100, 0.5, 10), (&[2876, 1756, 620, 2764, 572, 2668, 908, 1100, 1676, 892], &[1.8291753865021851, 1.8410865813724957, 1.9328018416386081, 1.95098955526445, 1.9562844928467114, 1.9790898626048128, 1.9830274737422364, 2.000000119209286, 2.016064632879285, 2.0177052357193133], 23228, 153, 130, 2, T1)),
            ((400, 2.0, 1), (&[416], &[7.550799437381097], 80276, 201, 194, 4, T2)),
            ((400, 2.0, 10), (&[416, 1648, 880, 2656, 2624, 1520, 1616, 1808, 1472, 1312], &[7.550799437381097, 7.569759573097869, 7.581123749765936, 7.6072345206189596, 7.6364812867692065, 7.643163778013436, 7.654904492540517, 7.6651175703075936, 7.666164595984874, 7.6730094117577075], 80329, 210, 182, 4, T2)),
            ((2999, 0.25, 1), (&[199], &[0.8188547578798269], 16901, 110, 108, 1, T1)),
            ((2999, 0.25, 10), (&[199, 135, 2039, 1111, 583, 1559, 1191, 1479, 1751, 2583], &[0.8188547578798269, 0.8677830069025243, 0.892499765842204, 0.9058627501536302, 0.9246321963421749, 0.9558394114689912, 0.958748425205136, 0.9598232182140711, 0.9737491672056895, 0.9807807532323357], 16901, 110, 83, 1, T1)),
            ((3, 30.0, 1), (&[2694], &[114.67509831619122], 107824, 201, 195, 8, T2)),
            ((3, 30.0, 10), (&[2694, 1782, 1990, 934, 774, 2854, 1254, 2454, 2166, 2710], &[114.67509831619122, 114.6807655124242, 114.74778409659214, 114.75718250941856, 114.76370722529728, 114.7705527788215, 114.77603445814592, 114.79465893804958, 114.80399077918905, 114.80934008308078], 107860, 210, 179, 8, T2)),
        ];
        for ((qi, offset, k), want) in golden {
            let q: Vec<f32> = data.get(qi).iter().map(|x| x + offset).collect();
            let (nn, s) = idx.query(&q, k);
            let ids: Vec<u32> = nn.iter().map(|n| n.id).collect();
            let dists: Vec<f64> = nn.iter().map(|n| n.dist).collect();
            assert_collisions(&idx, s.collisions_counted, want.2, &format!("query {qi}, k = {k}"));
            let got: Want = (
                &ids,
                &dists,
                want.2,
                s.candidates_verified,
                s.candidates_abandoned,
                s.rounds,
                s.terminated_by,
            );
            assert_eq!(got, want, "query {qi} + {offset}, k = {k}");
        }
    }

    /// The history behind [`golden_answers_across_write_shapes`]: the 20 000
    /// rows of `data` entered as batches of 4 096, 300 and 1 rows, with 1 500
    /// deletes (alone, in bursts and inside mixed batches) and 500
    /// re-inserted vectors in between. Without `deletes` the same rows
    /// take the same ids and nothing is removed.
    fn write_shapes_history(data: &Dataset, deletes: bool) -> DynamicIndex {
        fn enter<'a>(
            idx: &mut DynamicIndex,
            rows: &mut impl Iterator<Item = &'a [f32]>,
            batch: usize,
            count: usize,
        ) {
            let rows: Vec<&[f32]> = rows.take(count).collect();
            assert_eq!(rows.len(), count);
            for batch in rows.chunks(batch) {
                idx.insert_batch(batch.iter().map(|&v| (v, PointMeta::default())));
            }
        }
        let beta = crate::config::Beta::Count(1100);
        let config = C2lshConfig::builder().bucket_width(1.0).seed(42).beta(beta).build();
        let mut idx = DynamicIndex::new(16, 20_000, &config);
        let rows = &mut data.iter();
        enter(&mut idx, rows, 4096, 4096);
        enter(&mut idx, rows, 1, 200);
        enter(&mut idx, rows, 300, 3000);
        for oid in (0..3500).step_by(5).filter(|_| deletes) {
            assert!(idx.delete(oid));
        }
        enter(&mut idx, rows, 4096, 4096);
        // Ids equal row numbers up to here: bring back every second victim.
        for oid in (0..2500).step_by(10) {
            idx.insert(data.get(oid).to_vec());
        }
        // Mixed batches: 300 rows each, a delete before every third of
        // the first 300 edits.
        for round in 0..8u32 {
            let mut edits: Vec<Edit> =
                rows.take(300).map(|v| Edit::Insert(v, PointMeta::default())).collect();
            for j in (0..100).rev().filter(|_| deletes) {
                edits.insert(j * 3, Edit::Delete(7300 + (round * 100 + j as u32) * 5));
            }
            assert!(idx.apply(edits).iter().all(|&(_, took_effect)| took_effect));
        }
        enter(&mut idx, rows, 4096, 4096);
        enter(&mut idx, &mut (2500..5000).step_by(10).map(|oid| data.get(oid)), 250, 250);
        enter(&mut idx, rows, 1, 112);
        enter(&mut idx, rows, 300, 2000);
        assert!(rows.next().is_none());
        let removed = if deletes { 1500 } else { 0 };
        assert_eq!((idx.len(), TableStore::id_bound(&idx)), (20_500 - removed, 20_500));
        idx
    }

    /// Pins answers and costs over an index written in every batch
    /// shape: per (query, offset, k) the first id, an FNV-1a of every id
    /// and distance's bits, collisions, verified, abandoned, rounds and
    /// the terminating condition — once over the history with its
    /// deletes and once without them. The rows without deletes are exact;
    /// with them, collisions may rise by what [`assert_collisions`] allows.
    #[test]
    fn golden_answers_across_write_shapes() {
        use crate::stats::Termination::{T1AtRadius as T1, T2CandidateBudget as T2};
        type Want = (u32, u64, u64, usize, usize, u32, Termination);
        #[rustfmt::skip]
        let asks: [(usize, f32, usize); 12] = [
            (3, 0.0, 1), (3, 0.0, 10), (4100, 0.0, 10), (12_345, 0.25, 1), (12_345, 0.25, 10),
            (19_999, 0.5, 10), (7300, 2.0, 1), (7300, 2.0, 10), (15, 30.0, 1), (15, 30.0, 10),
            (9000, 1.0, 10), (17_000, 0.75, 1),
        ];
        #[rustfmt::skip]
        let golden: [(bool, [Want; 12]); 2] = [
            (true, [
                (3, 5_308_394_286_387_993_926, 127_025, 1062, 1061, 1, T1),
                (3, 11_991_390_567_423_801_618, 127_025, 1062, 1032, 1, T1),
                (4100, 474_831_630_145_011_463, 122_232, 1110, 1091, 1, T2),
                (6329, 6_955_096_195_366_000_736, 97_992, 44, 42, 1, T1),
                (6329, 6_195_216_791_618_412_193, 97_992, 44, 28, 1, T1),
                (13_193, 10_819_599_472_339_411_790, 197_935, 1110, 1077, 2, T2),
                (16_654, 10_179_786_926_681_208_563, 437_589, 1101, 1092, 4, T2),
                (16_654, 7_022_237_584_357_388_013, 437_962, 1110, 1085, 4, T2),
                (15_338, 18_432_354_795_171_095_452, 775_196, 1101, 1081, 8, T2),
                (15_338, 233_818_213_492_279_306, 775_215, 1110, 1012, 8, T2),
                (10_392, 17_939_302_575_294_828_365, 253_591, 1110, 1067, 3, T2),
                (2472, 12_977_860_995_885_174_283, 169_060, 206, 205, 2, T1),
            ]),
            (false, [
                (3, 5_308_394_286_387_993_926, 129_130, 1101, 1100, 1, T2),
                (3, 11_991_390_567_423_801_618, 129_747, 1110, 1080, 1, T2),
                (4100, 474_831_630_145_011_463, 128_050, 1110, 1091, 1, T2),
                (6329, 6_955_096_195_366_000_736, 105_806, 50, 48, 1, T1),
                (6329, 8_253_500_646_223_370_823, 105_806, 50, 34, 1, T1),
                (13_193, 14_699_307_026_701_993_224, 204_789, 1110, 1076, 2, T2),
                (16_654, 10_179_786_926_681_208_563, 465_913, 1101, 1092, 4, T2),
                (16_654, 6_246_849_446_256_426_639, 465_967, 1110, 1085, 4, T2),
                (15_338, 18_432_354_795_171_095_452, 836_192, 1101, 1081, 8, T2),
                (15_338, 15_470_403_864_592_166_417, 836_213, 1110, 1013, 8, T2),
                (10_392, 17_939_302_575_294_828_365, 264_598, 1110, 1069, 3, T2),
                (2472, 12_977_860_995_885_174_283, 182_377, 220, 219, 2, T1),
            ]),
        ];
        let data = clustered(20_000, 16, 17);
        for (deletes, wants) in golden {
            let idx = write_shapes_history(&data, deletes);
            for ((qi, offset, k), want) in asks.into_iter().zip(wants) {
                let q: Vec<f32> = data.get(qi).iter().map(|x| x + offset).collect();
                let (nn, s) = idx.query(&q, k);
                let mut fnv = 0xcbf2_9ce4_8422_2325u64;
                for byte in nn.iter().flat_map(|n| {
                    n.id.to_le_bytes().into_iter().chain(n.dist.to_bits().to_le_bytes())
                }) {
                    fnv = (fnv ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
                let what = format!("deletes {deletes}, query {qi} + {offset}, k = {k}");
                assert_collisions(&idx, s.collisions_counted, want.2, &what);
                let collisions = if deletes { want.2 } else { s.collisions_counted };
                let got: Want = (
                    nn[0].id,
                    fnv,
                    collisions,
                    s.candidates_verified,
                    s.candidates_abandoned,
                    s.rounds,
                    s.terminated_by,
                );
                assert_eq!(got, want, "{what}");
            }
        }
    }

    /// The representation the persistent index replaced — one vector of
    /// slots and a `BTreeMap<bucket, Vec<oid>>` per table that a delete
    /// takes the id out of, deep-copied by `clone` — kept here as the
    /// oracle of [`persistent_index_matches_the_naive_model`].
    #[derive(Clone)]
    struct Model {
        vectors: Vec<Option<Vec<f32>>>,
        metas: Vec<PointMeta>,
        tables: Vec<BTreeMap<i64, Vec<u32>>>,
    }

    impl Model {
        fn insert(&mut self, family: &HashFamily, v: Vec<f32>, meta: PointMeta) {
            let oid = self.vectors.len() as u32;
            for (table, h) in self.tables.iter_mut().zip(family.iter()) {
                table.entry(h.bucket(&v)).or_default().push(oid);
            }
            self.vectors.push(Some(v));
            self.metas.push(meta);
        }

        fn delete(&mut self, family: &HashFamily, oid: u32) -> bool {
            let Some(v) = self.vectors.get_mut(oid as usize).and_then(Option::take) else {
                return false;
            };
            for (table, h) in self.tables.iter_mut().zip(family.iter()) {
                let b = h.bucket(&v);
                let bucket = table.get_mut(&b).unwrap();
                bucket.retain(|&o| o != oid);
                if bucket.is_empty() {
                    table.remove(&b);
                }
            }
            true
        }
    }

    /// Everything the model can see of `idx`, compared field by field,
    /// then the shape the representation promises.
    fn assert_matches_model(idx: &DynamicIndex, model: &Model, step: usize) {
        let live = model.vectors.iter().flatten().count();
        assert_eq!((idx.len(), TableStore::id_bound(idx)), (live, model.vectors.len()), "{step}");
        let slots = idx.slots().iter().map(|s| s.as_deref());
        assert!(slots.eq(model.vectors.iter().map(|s| s.as_deref())), "slots at step {step}");
        assert!(idx.meta_slots().iter().eq(model.metas.iter()), "metas at step {step}");
        // One cursor grows from the densest bucket to everything at or
        // above bucket 0, the other takes everything below in one step:
        // every delta range must list the model's ids in its order.
        let dense = idx.family.buckets(&[0.0, -0.01]);
        for (q_buckets, radii) in [(dense, &[1, 2, 8, 64, 1 << 40][..]), (vec![-1; 3], &[1 << 40])]
        {
            let mut cursor = KeyWindows::new(q_buckets);
            let mut model_cursor = cursor.clone();
            for &radius in radii {
                for (t, table) in model.tables.iter().enumerate() {
                    let mut got: Vec<u32> = Vec::new();
                    idx.expand(&mut cursor, t, radius, &mut |ids| {
                        let oids = ids.iter().map(|&oid| ids.first + u32::from(oid));
                        got.extend(oids.filter(|&oid| idx.get(oid).is_some()));
                        true
                    });
                    let ranges = model_cursor.grow(t, radius).into_iter().filter(|r| !r.is_empty());
                    let want: Vec<u32> = ranges
                        .flat_map(|keys| table.range(keys))
                        .flat_map(|(_, b)| b.iter().copied())
                        .collect();
                    assert_eq!(got, want, "table {t}, radius {radius}, step {step}");
                }
                // Exhausted once every resident bucket is covered, and
                // then every bucket of the model is.
                let covered = |t: usize, keys: &mut dyn Iterator<Item = i64>| {
                    let keys: Vec<i64> = keys.collect();
                    model_cursor
                        .covers(t, keys.iter().min().copied().zip(keys.iter().max().copied()))
                };
                let resident = (0..model.tables.len()).all(|t| {
                    let entries = idx.segments.iter().flat_map(|s| s.segment.entries(t));
                    covered(t, &mut entries.map(|(b, _)| b))
                });
                assert_eq!(idx.exhausted(&cursor), resident, "radius {radius}, step {step}");
                let model_covered = (0..model.tables.len())
                    .all(|t| covered(t, &mut model.tables[t].keys().copied()));
                assert!(model_covered || !resident, "radius {radius}, step {step}");
            }
        }
        assert_shape(idx, step);
    }

    /// The list `merge_due` leaves, of segments of these live rows and
    /// first and last ids: ascending, disjoint id ranges none of which
    /// spans more than the cap and, between segments whose ids up to the
    /// next one's reach a quarter of the cap — which a merge may have had
    /// to leave beside a smaller neighbour — classes descend, fewer than
    /// four of a class, at most one tail.
    fn assert_list_shape(shape: &[(usize, u32, u32)], step: usize) {
        assert_eq!(merge_due(shape), None, "{shape:?} at step {step}");
        let fits = |&(rows, first, last): &(usize, u32, u32)| {
            0 < rows
                && rows <= (last - first) as usize + 1
                && ((last - first) as usize) < SEGMENT_IDS
        };
        assert!(shape.iter().all(fits), "{shape:?} at step {step}");
        assert!(shape.windows(2).all(|w| w[0].2 < w[1].1), "{shape:?} at step {step}");
        let ends = shape.iter().skip(1).map(|s| s.1).chain(shape.last().map(|s| s.2 + 1));
        let reach: Vec<(Option<u32>, usize)> = shape
            .iter()
            .zip(ends)
            .map(|(&(rows, first, _), end)| (class(rows), (end - first) as usize))
            .collect();
        for stretch in reach.split(|&(_, ids)| ids >= SEGMENT_IDS / 4) {
            let classes: Vec<_> = stretch.iter().map(|&(class, _)| class).collect();
            assert!(classes.windows(2).all(|w| w[0] >= w[1]), "{shape:?} at step {step}");
            let of = |c| classes.iter().filter(|&&class| class == c).count();
            assert!(of(None) <= 1 && (0..4).all(|k| of(Some(k)) < 4), "{shape:?} at step {step}");
        }
    }

    proptest::proptest! {
        /// The merge policy on row counts and id ranges alone, at sizes a
        /// test cannot afford to build: blocks of every length sealed
        /// behind the list, ids a restored checkpoint leaves empty between
        /// them, and deletes anywhere in it, restored as
        /// [`DynamicIndex::restore`] restores. No row is lost or made up,
        /// no merge spans more than the cap, the shape of
        /// [`assert_list_shape`] holds after every write and a load of full
        /// blocks ends in segments of exactly the cap.
        #[test]
        fn merge_policy_keeps_the_list_in_shape_at_any_size(
            writes in proptest::collection::vec((0u8..7, 1usize..HASH_BLOCK + 1, 0usize..1 << 20), 1..400),
        ) {
            // (rows, dead, first id, last id) per segment.
            type Listed = (usize, usize, u32, u32);
            let shape = |list: &[Listed]| -> Vec<(usize, u32, u32)> {
                list.iter().map(|&(rows, dead, first, last)| (rows - dead, first, last)).collect()
            };
            let restore = |list: &mut Vec<Listed>| loop {
                let now = shape(list);
                let dead = || list.iter().position(|&(rows, dead, ..)| 8 * dead > rows).map(|i| i..i + 1);
                let Some(due) = merge_due(&now).or_else(dead) else { break };
                let rows: usize = now[due.clone()].iter().map(|&(rows, ..)| rows).sum();
                let (first, last) = (list[due.start].2, list[due.end - 1].3);
                assert!(((last - first) as usize) < SEGMENT_IDS, "{now:?} merges {due:?}");
                list.splice(due, (rows > 0).then_some((rows, 0, first, last)));
            };
            let seal = |list: &mut Vec<Listed>, next: &mut u32, rows: usize| {
                list.push((rows, 0, *next, *next + rows as u32 - 1));
                *next += rows as u32;
            };
            let (mut list, mut next, mut held) = (Vec::new(), 0u32, 0);
            for (step, (kind, rows, pick)) in writes.into_iter().enumerate() {
                match kind {
                    // A full block, a block of any length, one row.
                    0..=3 => {
                        let rows = [HASH_BLOCK, HASH_BLOCK, rows, 1][kind as usize];
                        seal(&mut list, &mut next, rows);
                        held += rows;
                    }
                    // Up to a block's worth of deletes in one segment.
                    4 | 5 if !list.is_empty() => {
                        let at = pick % list.len();
                        let (of, dead, ..) = &mut list[at];
                        let more = rows.min(*of - *dead);
                        *dead += more;
                        held -= more;
                    }
                    // Ids whose slots a restored checkpoint holds empty.
                    6 => next += (pick % SEGMENT_IDS) as u32,
                    _ => {}
                }
                restore(&mut list);
                let now = shape(&list);
                proptest::prop_assert_eq!(now.iter().map(|s| s.0).sum::<usize>(), held, "step {}", step);
                assert_list_shape(&now, step);
                proptest::prop_assert!(list.iter().all(|&(rows, dead, ..)| 8 * dead <= rows));
            }
            let (mut load, mut next) = (Vec::new(), 0);
            for _ in 0..41 {
                seal(&mut load, &mut next, HASH_BLOCK);
                restore(&mut load);
            }
            let (cap, quarter) = (SEGMENT_IDS as u32, SEGMENT_IDS as u32 / 4);
            let ends = [cap, 2 * cap, 2 * cap + quarter, 2 * cap + 2 * quarter, next];
            let want: Vec<Listed> = ends
                .iter()
                .scan(0, |first, &end| {
                    let segment = ((end - *first) as usize, 0, *first, end - 1);
                    *first = end;
                    Some(segment)
                })
                .collect();
            proptest::prop_assert_eq!(load, want);
        }
    }

    /// The shape the segments of `idx` promise after any write.
    fn assert_shape(idx: &DynamicIndex, step: usize) {
        let mut holder = vec![0; TableStore::id_bound(idx)];
        for (at, s) in idx.segments.iter().enumerate() {
            let segment = &s.segment;
            let mut ids: Vec<u32> = segment.entries(0).map(|(_, oid)| oid).collect();
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "an id twice at step {step}");
            assert!(segment.first <= ids[0] && ids[ids.len() - 1] <= segment.last, "{step}");
            for t in 0..segment.runs.len() {
                let entries: Vec<(i64, u32)> = segment.entries(t).collect();
                let mut of_run: Vec<u32> = entries.iter().map(|&(_, oid)| oid).collect();
                of_run.sort_unstable();
                assert_eq!(of_run, ids, "tables differ in their ids at step {step}");
                let in_order = entries.windows(2).all(|w| w[0] < w[1]);
                assert!(in_order, "a bucket out of id order at step {step}");
            }
            assert_eq!(ids.iter().filter(|&&oid| idx.get(oid).is_none()).count(), s.dead, "{step}");
            assert!(8 * s.dead <= segment.rows(), "segment {at} too dead at step {step}");
            ids.iter().for_each(|&oid| holder[oid as usize] += 1);
        }
        let ranges = idx.segments.windows(2).all(|w| w[0].segment.last < w[1].segment.first);
        assert!(ranges, "id ranges at step {step}");
        for (oid, held) in holder.into_iter().enumerate() {
            assert!(held <= 1 && (held == 1 || idx.get(oid as u32).is_none()), "id {oid}, {step}");
        }
        let shape: Vec<_> = idx.segments.iter().map(Sealed::shape).collect();
        assert_eq!(shape.iter().map(|s| s.0).sum::<usize>(), idx.len(), "live rows at step {step}");
        assert_list_shape(&shape, step);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Random interleavings of insert / insert-with-meta / mixed
        /// batches / delete (hit, miss, double) / delete bursts / fork by
        /// clone / drop a fork, each applied to one of the live forks
        /// and to its model. After every step every fork equals its own
        /// model — its live ids in the model's order in every range a
        /// cursor takes, and the shape [`assert_shape`] holds — so no
        /// fork ever sees another's writes. Half the vectors share a
        /// bucket or two per table, and a short block seals the pre-fill
        /// as dozens of segments, so every kind of merge runs.
        #[test]
        fn persistent_index_matches_the_naive_model(
            prefill in 0usize..5000,
            block in 0usize..4,
            steps in proptest::collection::vec((0u8..8, 0u32..100_000, 0usize..64), 1..90),
        ) {
            let config =
                C2lshConfig::builder().bucket_width(4.0).seed(5).m_override(3).l_override(2).build();
            let vector = |a: u32| {
                let spread = if a.is_multiple_of(2) { 0.01 } else { 40.0 };
                vec![(a % 7) as f32 * spread, (a / 7 % 5) as f32 * spread - spread]
            };
            let meta = |a: u32| PointMeta::new(u64::from(a), a % 3);
            let block_rows = [3, 64, 300, HASH_BLOCK][block];
            let mut idx = DynamicIndex { block_rows, workers: 2, ..DynamicIndex::new(2, 1000, &config) };
            let family = Arc::clone(&idx.family);
            let mut model =
                Model { vectors: Vec::new(), metas: Vec::new(), tables: vec![BTreeMap::new(); 3] };
            let rows: Vec<Vec<f32>> = (0..prefill as u32).map(|a| vector(a * 2)).collect();
            idx.insert_batch(rows.iter().map(|v| (v.as_slice(), PointMeta::default())));
            rows.into_iter().for_each(|v| model.insert(&family, v, PointMeta::default()));
            let mut forks = vec![(idx, model)];
            for (step, (kind, a, sel)) in steps.into_iter().enumerate() {
                let at = sel % forks.len();
                let (idx, model) = &mut forks[at];
                let bound = model.vectors.len() as u32 + 2;
                match kind {
                    0 | 1 => {
                        assert_eq!(idx.insert(vector(a)), bound - 2);
                        model.insert(&family, vector(a), PointMeta::default());
                    }
                    2 => {
                        idx.insert_with_meta(vector(a), meta(a));
                        model.insert(&family, vector(a), meta(a));
                    }
                    3 => {
                        // One batch: a burst of inserts around a delete.
                        let rows: Vec<Vec<f32>> = (a..a + a % 300).map(vector).collect();
                        let mut edits: Vec<Edit> =
                            rows.iter().map(|v| Edit::Insert(v, meta(a))).collect();
                        edits.insert(edits.len() / 2, Edit::Delete(a % bound));
                        let want: Vec<(u32, bool)> = edits
                            .iter()
                            .map(|edit| match *edit {
                                Edit::Insert(v, meta) => {
                                    model.insert(&family, v.to_vec(), meta);
                                    (model.vectors.len() as u32 - 1, true)
                                }
                                Edit::Delete(oid) => (oid, model.delete(&family, oid)),
                            })
                            .collect();
                        assert_eq!(idx.apply(edits), want);
                    }
                    4 => assert_eq!(idx.delete(a % bound), model.delete(&family, a % bound)),
                    5 => {
                        for oid in (a % bound..).take(120) {
                            assert_eq!(idx.delete(oid), model.delete(&family, oid));
                        }
                    }
                    6 => {
                        let fork = (idx.clone(), model.clone());
                        forks.push(fork);
                    }
                    _ if forks.len() > 1 => drop(forks.swap_remove(at)),
                    _ => {}
                }
                for (idx, model) in &forks {
                    assert_matches_model(idx, model, step);
                }
            }
        }
    }

    /// Every table of `idx` as the model keeps it: bucket → live ids in
    /// segment order.
    fn bucket_lists(idx: &DynamicIndex) -> Vec<BTreeMap<i64, Vec<u32>>> {
        let mut tables = vec![BTreeMap::<i64, Vec<u32>>::new(); idx.params().m];
        for (t, table) in tables.iter_mut().enumerate() {
            for (b, oid) in idx.segments.iter().flat_map(|s| s.segment.entries(t)) {
                let ids = table.entry(b).or_default();
                ids.extend(idx.get(oid).map(|_| oid));
            }
            table.retain(|_, ids| !ids.is_empty());
        }
        tables
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        /// One slot history — a few dozen buckets a table with
        /// tombstones in between, then one bucket taking more ids than a
        /// block holds, then buckets further apart than there are rows —
        /// appended at once, as a checkpoint restores, under every block
        /// length and worker count: each index equals the model filled a
        /// row at a time, in every bucket of every table, in both
        /// columns and in every range an expanding cursor returns. Then a
        /// block lands on a clone while the original is held, and another
        /// on the original: neither sees the other's ids.
        #[test]
        fn one_index_whatever_the_block_length_and_worker_count(
            a in 0u32..100_000,
            dense in 200usize..1200,
            gap in 2usize..9,
        ) {
            const LONGEST: usize = HASH_BLOCK + 500;
            let config =
                C2lshConfig::builder().bucket_width(4.0).seed(5).m_override(3).l_override(2).build();
            let family = Arc::clone(&DynamicIndex::new(2, 1000, &config).family);
            let spread = |a: u32| vec![(a % 7) as f32 * 40.0, (a / 7 % 5) as f32 * 40.0 - 40.0];
            let far = |i: u32| vec![i as f32 * 1000.0, i as f32 * -777.0];
            let meta = |a: u32| PointMeta::new(u64::from(a), a % 3);
            let mut history: Vec<(Option<Vec<f32>>, PointMeta)> = (0..dense as u32)
                .map(|i| (!(i as usize).is_multiple_of(gap)).then(|| spread(a + i)))
                .map(|slot| (slot, meta(a)))
                .collect();
            history.extend((0..2 * LONGEST).map(|_| (Some(vec![0.01, 0.0]), PointMeta::default())));
            history.extend((0..150).map(|i| (Some(far(i)), meta(i))));
            let mut model =
                Model { vectors: Vec::new(), metas: Vec::new(), tables: vec![BTreeMap::new(); 3] };
            for (slot, meta) in &history {
                match slot {
                    Some(v) => model.insert(&family, v.clone(), *meta),
                    None => {
                        model.vectors.push(None);
                        model.metas.push(*meta);
                    }
                }
            }
            // The column shapes the longest block hands `index_rows`.
            let live: Vec<&[f32]> = history.iter().filter_map(|(slot, _)| slot.as_deref()).collect();
            let shapes: Vec<(usize, usize, bool)> = live
                .chunks(LONGEST)
                .map(|block| {
                    let mut counts = BTreeMap::new();
                    block.iter().for_each(|v| *counts.entry(family.get(0).bucket(v)).or_insert(0) += 1);
                    let span = counts.keys().next_back().unwrap() - counts.keys().next().unwrap();
                    (counts.len(), *counts.values().max().unwrap(), span as usize >= block.len())
                })
                .collect();
            assert!((12..60).contains(&shapes[0].0), "a few dozen buckets: {shapes:?}");
            assert!(shapes[1].1 > HASH_BLOCK, "one bucket fills a block: {shapes:?}");
            assert!(shapes.last().unwrap().2, "buckets sparser than rows: {shapes:?}");
            assert!(!shapes[0].2 && history[..dense].iter().any(|(slot, _)| slot.is_none()));

            let to_clone: Vec<Vec<f32>> =
                (0..700).map(|i| if i % 2 == 0 { vec![0.01, 0.0] } else { spread(a + i) }).collect();
            let to_original: Vec<Vec<f32>> = (0..300).map(|i| spread(a / 2 + i % 3)).collect();
            let (mut forked, mut written) = (model.clone(), model.clone());
            to_clone.iter().for_each(|v| forked.insert(&family, v.clone(), PointMeta::default()));
            to_original.iter().for_each(|v| written.insert(&family, v.clone(), PointMeta::default()));

            for block_rows in [1, 64, 100, 1024, LONGEST] {
                for workers in [1, 2, 7] {
                    let tag = block_rows * 10 + workers;
                    let same = |idx: &DynamicIndex, model: &Model| {
                        assert_eq!(bucket_lists(idx), model.tables, "{tag}");
                        assert_matches_model(idx, model, tag);
                    };
                    let mut idx = DynamicIndex { block_rows, workers, ..DynamicIndex::new(2, 1000, &config) };
                    idx.append(history.iter().map(|(slot, meta)| (slot.as_deref(), *meta)));
                    same(&idx, &model);
                    let mut fork = idx.clone();
                    fork.insert_batch(to_clone.iter().map(|v| (v.as_slice(), PointMeta::default())));
                    same(&idx, &model);
                    idx.insert_batch(to_original.iter().map(|v| (v.as_slice(), PointMeta::default())));
                    same(&fork, &forked);
                    same(&idx, &written);
                }
            }
        }
    }

    /// ROADMAP's "insert cost flat in n": a one-insert batch leaves every
    /// sealed segment but the tail the very allocation the snapshot before
    /// it holds, copies one row chunk per column, and writes the same
    /// number of rows into its new tail with 5 000 resident points or
    /// 50 000.
    #[test]
    fn a_one_insert_batch_rebuilds_only_the_tail_at_any_size() {
        use crate::mutable::{MutableIndex, MutationOp};
        let data = clustered(50_000, 16, 13);
        let built = [5_000, 50_000].map(|n| {
            let mut idx = DynamicIndex::new(16, 50_000, &cfg());
            // Both sizes end in a tail of 100 rows.
            idx.insert_batch(data.iter().take(n - 100).map(|v| (v, PointMeta::default())));
            idx.insert_batch(
                data.iter().skip(n - 100).take(100).map(|v| (v, PointMeta::default())),
            );
            let index = MutableIndex::ephemeral(idx);
            let (before, _) = index.snapshot();
            let near =
                MutationOp::Insert { vector: data.get(7).to_vec(), meta: PointMeta::default() };
            index.apply_batch(&[near]).unwrap();
            let (now, _) = index.snapshot();
            assert_eq!(now.segments.len(), before.segments.len(), "n = {n}");
            let (tail, sealed) = now.segments.split_last().unwrap();
            for (s, old) in sealed.iter().zip(&before.segments) {
                assert!(s.segment.rows() >= TAIL_ROWS && Arc::ptr_eq(&s.segment, &old.segment));
            }
            fn chunks<T>(now: &Slots<T>, old: &Slots<T>) -> usize {
                let same = now.chunks.iter().zip(&old.chunks).filter(|(c, o)| Arc::ptr_eq(c, o));
                now.chunks.len() - same.count()
            }
            assert_eq!(chunks(&now.vectors, &before.vectors), 1, "n = {n}");
            assert_eq!(chunks(&now.metas, &before.metas), 1, "n = {n}");
            tail.segment.rows()
        });
        assert_eq!(built, [101, 101], "a write must cost the same whatever the index holds");
    }
}
