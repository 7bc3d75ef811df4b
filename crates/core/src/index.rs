//! The in-memory C2LSH index.
//!
//! Per hash function, the index stores runs of object ids ordered by
//! `(level-1 bucket id, object id)` behind a *bucket directory*: the
//! distinct bucket ids in ascending order and the entry offset at which
//! each one starts. A table holds a few dozen distinct buckets however
//! many objects it indexes, so the directory stays cache-resident. The
//! ids are kept per `Segment` of at most 65 536 ids, each as a `u16`
//! offset from the segment's first id, so the index costs 2 bytes per
//! entry instead of the 12 of a `(bucket, oid)` pair. This *is* the
//! paper's hash table: virtual rehashing only ever asks a run where a
//! bucket starts, and turns every level-`R` bucket lookup into a
//! contiguous range of each segment's run.
//!
//! The build hashes one segment's rows at a time against eight tables
//! per pass — one kernel call fills eight columns — and counting-sorts
//! each column by bucket — the histogram's prefix sums are the
//! directory — with tables spread over the machine's cores.
//!
//! The query loop itself lives in [`crate::engine`]; this module holds
//! the one walk that feeds it. Every resident store is a list of
//! segments over ascending id ranges: `⌈len / 65 536⌉` of them here per
//! part of the rows, the sealed blocks of [`crate::dynamic`]. The walk
//! grows a [`KeyWindows`] cursor and hands the segments' ids out bucket
//! by bucket as one table; [`crate::disk`] meters it in pages.

use crate::config::C2lshConfig;
use crate::engine::{self, Ids, KeyWindows, SearchOptions, TableStore};
use crate::hash::HashFamily;
use crate::kernels;
use crate::meta::PointMeta;
use crate::params::FullParams;
use crate::stats::{BatchStats, QueryStats};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use std::io::{self, Read};
use std::ops::{Range, RangeInclusive};

/// The most ids a segment spans, `last − first + 1`: its runs store each
/// as a `u16` offset from `first`.
pub(crate) const SEGMENT_IDS: usize = 1 << 16;

/// Where each distinct bucket of one hash table starts: the bucket ids
/// in ascending order and the entry offset at which each one's ids
/// begin. A [`SortedRun`] keeps one in front of its ids;
/// [`crate::paged::PagedStore`] keeps one per table in RAM in front of
/// its posting pages, so a window's entries are known before any read.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct BucketDirectory {
    /// Distinct bucket ids, ascending.
    keys: Vec<i64>,
    /// `keys.len() + 1` entry offsets once finished: bucket `keys[i]`
    /// owns entries `starts[i]..starts[i + 1]`.
    starts: Vec<u32>,
}

impl BucketDirectory {
    fn with_capacity(buckets: usize) -> Self {
        BucketDirectory {
            keys: Vec::with_capacity(buckets),
            starts: Vec::with_capacity(buckets + 1),
        }
    }

    /// Open bucket `key`, above every key so far, at entry `start`.
    pub(crate) fn push(&mut self, key: i64, start: usize) {
        debug_assert!(self.keys.last().is_none_or(|&last| last < key), "keys out of order");
        self.keys.push(key);
        self.starts.push(u32::try_from(start).expect("entry offsets are 32-bit"));
    }

    /// Close the last bucket at `len` entries.
    pub(crate) fn finish(&mut self, len: usize) {
        self.starts.push(u32::try_from(len).expect("entry offsets are 32-bit"));
    }

    /// The first occupied bucket at or above `b`.
    pub(crate) fn key_from(&self, b: i64) -> Option<i64> {
        self.keys.get(self.keys.partition_point(|&k| k < b)).copied()
    }

    /// The entry bucket `b` starts at, occupied or not.
    fn start(&self, b: i64) -> usize {
        self.starts[self.keys.partition_point(|&k| k < b)] as usize
    }

    /// The entries of buckets `first..=last`: two searches, no ids read.
    pub(crate) fn entries(&self, keys: RangeInclusive<i64>) -> Range<usize> {
        let (first, last) = keys.into_inner();
        let lo = self.start(first);
        lo..lo.max(self.starts[self.keys.partition_point(|&k| k <= last)] as usize)
    }

    /// The entries of bucket `b`, none when no object hashed there.
    fn bucket(&self, b: i64) -> Range<usize> {
        match self.keys.binary_search(&b) {
            Ok(i) => self.starts[i] as usize..self.starts[i + 1] as usize,
            Err(_) => 0..0,
        }
    }

    /// The lowest and the highest occupied bucket, `None` when empty.
    pub(crate) fn key_span(&self) -> Option<(i64, i64)> {
        self.keys.first().copied().zip(self.keys.last().copied())
    }

    /// Resident bytes.
    fn size_bytes(&self) -> usize {
        self.keys.len() * 8 + self.starts.len() * 4
    }
}

/// One hash table of a segment: id offsets ordered by `(bucket, id)`,
/// behind the directory of where each distinct bucket starts.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SortedRun {
    dir: BucketDirectory,
    /// Offsets from the segment's first id.
    pub(crate) oids: Vec<u16>,
}

impl SortedRun {
    /// A run over entries already ordered by bucket id.
    fn from_sorted(entries: impl IntoIterator<Item = (i64, u16)>) -> Self {
        let entries = entries.into_iter();
        let oids = Vec::with_capacity(entries.size_hint().0);
        let mut run = SortedRun { dir: BucketDirectory::default(), oids };
        for (bucket, oid) in entries {
            if run.dir.keys.last() != Some(&bucket) {
                run.dir.push(bucket, run.oids.len());
            }
            run.oids.push(oid);
        }
        run.dir.finish(run.oids.len());
        run
    }

    /// The run of `column.len()` objects, the `i`-th of them `id(i)` in
    /// bucket `column[i]`; `id` ascends.
    pub(crate) fn from_column(column: &[i64], id: impl Fn(usize) -> u16) -> Self {
        let n = column.len();
        let min = column.iter().copied().min().unwrap_or(0);
        let max = column.iter().copied().max().unwrap_or(0);
        // Two's complement: exact for any `min <= max`.
        let span = max.wrapping_sub(min) as u64;
        if span >= n as u64 {
            // Far more buckets than objects (outliers, a tiny table): a
            // histogram over the span would dwarf the run. Sort the ids.
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by_key(|&i| (column[i as usize], i));
            let entries = order.into_iter().map(|i| (column[i as usize], id(i as usize)));
            return Self::from_sorted(entries);
        }
        // Counting sort. The histogram's prefix sums are the directory,
        // and scattering ids in ascending order leaves them ascending
        // inside every bucket.
        let slot = |b: i64| b.wrapping_sub(min) as usize;
        let mut next = vec![0u32; span as usize + 1];
        for &b in column.iter() {
            next[slot(b)] += 1;
        }
        let mut dir = BucketDirectory::default();
        let mut seen = 0u32;
        for (j, cell) in next.iter_mut().enumerate() {
            let count = *cell;
            if count > 0 {
                dir.push(min.wrapping_add(j as i64), seen as usize);
            }
            *cell = seen;
            seen += count;
        }
        dir.finish(seen as usize);
        let mut oids = vec![0u16; n];
        for (i, &b) in column.iter().enumerate() {
            let at = &mut next[slot(b)];
            oids[*at as usize] = id(i);
            *at += 1;
        }
        SortedRun { dir, oids }
    }

    /// The id offsets of bucket `b`, none when no object hashed there.
    fn bucket(&self, b: i64) -> &[u16] {
        &self.oids[self.dir.bucket(b)]
    }

    /// One run from `first` holding the `rows` ids of `parts` that `keep`
    /// accepts; each part is a run with the first id its offsets count
    /// from, and `keep` is asked only about parts flagged as holding ids
    /// it refuses. Every id of a part is above every id of the part
    /// before it, and no id is `SEGMENT_IDS` or more past `first`.
    pub(crate) fn merged(
        parts: &[(&SortedRun, u32, bool)],
        first: u32,
        rows: usize,
        keep: impl Fn(u32) -> bool,
    ) -> Self {
        let buckets = parts.iter().map(|(part, ..)| part.dir.keys.len()).sum::<usize>().min(rows);
        let mut run = SortedRun {
            dir: BucketDirectory::with_capacity(buckets),
            oids: Vec::with_capacity(rows),
        };
        let runs: Vec<&SortedRun> = parts.iter().map(|&(part, ..)| part).collect();
        each_bucket(&runs, |bucket, slices| {
            let start = run.oids.len();
            for &(p, ids) in slices {
                let (_, from, sift) = parts[p];
                let shift = (from - first) as u16;
                let ids = ids.iter().map(|&oid| oid + shift);
                if sift {
                    run.oids.extend(ids.filter(|&oid| keep(first + u32::from(oid))));
                } else {
                    run.oids.extend(ids);
                }
            }
            if run.oids.len() > start {
                run.dir.push(bucket, start);
            }
        });
        run.dir.finish(run.oids.len());
        debug_assert_eq!(run.oids.len(), rows);
        run
    }

    /// Resident bytes: the ids plus the directory.
    fn size_bytes(&self) -> usize {
        self.oids.len() * 2 + self.dir.size_bytes()
    }

    /// Append the run to `out` as the paged build spills it, all
    /// little-endian: the bucket count (`u32`), the keys (`i64`), the
    /// starts (`u32`, one more than the keys) and the ids (`u16`).
    pub(crate) fn spill(&self, out: &mut Vec<u8>) {
        let BucketDirectory { keys, starts } = &self.dir;
        let buckets = u32::try_from(keys.len()).expect("a run has at most 65 536 buckets");
        out.extend_from_slice(&buckets.to_le_bytes());
        out.extend(keys.iter().flat_map(|k| k.to_le_bytes()));
        out.extend(starts.iter().flat_map(|s| s.to_le_bytes()));
        let at = out.len();
        out.resize(at + 2 * self.oids.len(), 0);
        for (bytes, oid) in out[at..].chunks_exact_mut(2).zip(&self.oids) {
            bytes.copy_from_slice(&oid.to_le_bytes());
        }
    }

    /// Read back the next run [`SortedRun::spill`] wrote to `input`.
    pub(crate) fn unspill(input: &mut impl Read) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("spill: {what}"));
        let mut word = [0u8; 4];
        input.read_exact(&mut word)?;
        let buckets = u32::from_le_bytes(word) as usize;
        if buckets > SEGMENT_IDS {
            return Err(bad("more buckets than a run has ids"));
        }
        let mut bytes = vec![0u8; buckets * 12 + 4];
        input.read_exact(&mut bytes)?;
        let (keys, starts) = bytes.split_at(buckets * 8);
        let keys = keys.chunks_exact(8).map(|b| i64::from_le_bytes(b.try_into().expect("8 bytes")));
        let starts = starts.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4")));
        let dir = BucketDirectory { keys: keys.collect(), starts: starts.collect() };
        let len = *dir.starts.last().expect("a finished directory has a last start") as usize;
        if len > SEGMENT_IDS {
            return Err(bad("a run longer than a segment"));
        }
        bytes.resize(2 * len, 0);
        input.read_exact(&mut bytes)?;
        let oids = bytes.chunks_exact(2).map(|b| u16::from_le_bytes([b[0], b[1]])).collect();
        Ok(SortedRun { dir, oids })
    }
}

/// Every bucket of `runs`, ascending, with the index and the ids of each
/// run that holds it, in run order.
pub(crate) fn each_bucket<'r>(
    runs: &[&'r SortedRun],
    mut visit: impl FnMut(i64, &[(usize, &'r [u16])]),
) {
    let mut next = vec![0; runs.len()];
    let mut slices = Vec::with_capacity(runs.len());
    let head = |next: &[usize]| {
        runs.iter().zip(next).filter_map(|(run, &i)| run.dir.keys.get(i)).min().copied()
    };
    while let Some(bucket) = head(&next) {
        slices.clear();
        for (p, (run, i)) in runs.iter().zip(&mut next).enumerate() {
            if run.dir.keys.get(*i) == Some(&bucket) {
                let (from, to) = (run.dir.starts[*i] as usize, run.dir.starts[*i + 1] as usize);
                slices.push((p, &run.oids[from..to]));
                *i += 1;
            }
        }
        visit(bucket, &slices);
    }
}

/// Segments whose slices of a bucket are looked up before the first is
/// handed out, and cache lines asked for at the head of each.
const HEADS: usize = 8;
const HEAD_LINES: usize = 16;

/// The rows of one id range of at most [`SEGMENT_IDS`] ids — a slice of
/// one part of the index's rows, a sealed block, several blocks merged:
/// per hash table a run of their id offsets by `(bucket, id)`. Never
/// written once built, so snapshots share it.
#[derive(Debug)]
pub(crate) struct Segment {
    pub(crate) runs: Vec<SortedRun>,
    /// The lowest and the highest id it was built with; the segments of
    /// a store cover ascending, disjoint ranges.
    pub(crate) first: u32,
    pub(crate) last: u32,
}

impl AsRef<Segment> for Segment {
    fn as_ref(&self) -> &Segment {
        self
    }
}

impl Segment {
    pub(crate) fn rows(&self) -> usize {
        self.runs[0].oids.len()
    }

    /// [`TableStore::expand`] over `segments` as one table: a bucket's
    /// ids from every segment in turn, bucket after bucket. Segments hold
    /// ascending id ranges, so that is the `(bucket, oid)` order of one
    /// run over all of them. `visit` gets each slice with the entry it
    /// starts at in that one run.
    pub(crate) fn expand(
        segments: &[impl AsRef<Segment>],
        cursor: &mut KeyWindows,
        t: usize,
        radius: i64,
        mut visit: impl FnMut(usize, Ids<'_, u16>) -> bool,
    ) {
        for keys in cursor.grow(t, radius) {
            let (first, last) = keys.into_inner();
            if first > last {
                continue;
            }
            // Where bucket `first` starts in the one run; past each bucket
            // it is where the next occupied one starts.
            let mut at: usize = segments.iter().map(|s| s.as_ref().runs[t].dir.start(first)).sum();
            let mut from = first;
            while from <= last {
                // A range of one bucket, as in every first round, has no
                // next occupied bucket to look for.
                let next = if first == last {
                    Some(first)
                } else {
                    segments.iter().filter_map(|s| s.as_ref().runs[t].dir.key_from(from)).min()
                };
                let Some(b) = next.filter(|&b| b <= last) else { break };
                // Every slice costs a directory search and a first read of
                // ids nothing has touched: look a group's slices up and ask
                // for their heads together, so those misses overlap
                // instead of following one another.
                for group in segments.chunks(HEADS) {
                    let mut slices = [Ids { first: 0, offsets: &[] as &[u16] }; HEADS];
                    for (slice, s) in slices.iter_mut().zip(group) {
                        let s = s.as_ref();
                        *slice = Ids { first: s.first, offsets: s.runs[t].bucket(b) };
                        (0..HEAD_LINES).for_each(|line| kernels::prefetch_read(slice, 32 * line));
                    }
                    for ids in slices.into_iter().filter(|ids| !ids.is_empty()) {
                        if !visit(at, ids) {
                            return;
                        }
                        at += ids.len();
                    }
                }
                // Bucket `i64::MAX` is the last there is.
                let Some(after) = b.checked_add(1) else { break };
                from = after;
            }
        }
    }

    /// [`TableStore::exhausted`] over `segments` as `m` tables: every
    /// bucket an id of theirs occupies is covered. A table no segment
    /// holds an id of is covered once it has been grown at all.
    pub(crate) fn exhausted(
        segments: &[impl AsRef<Segment>],
        cursor: &KeyWindows,
        m: usize,
    ) -> bool {
        (0..m).all(|t| {
            let spans = segments.iter().filter_map(|s| s.as_ref().runs[t].dir.key_span());
            cursor.covers(t, spans.reduce(|(lo, hi), (min, max)| (lo.min(min), hi.max(max))))
        })
    }
}

/// What an index is built over: rows in one or more parts. Row `i` of
/// part `p` is object id `i` plus the rows of the parts before `p`. A
/// [`Dataset`] is one part; a [`crate::ShardedData`] is its shards.
pub trait Rows: Sync {
    /// The parts, in id order; each holds rows of one dimensionality.
    fn parts(&self) -> &[Dataset];
}

impl Rows for Dataset {
    fn parts(&self) -> &[Dataset] {
        std::slice::from_ref(self)
    }
}

/// The in-memory C2LSH index over borrowed rows.
#[derive(Debug)]
pub struct C2lshIndex<'d> {
    parts: &'d [Dataset],
    /// `offsets[p]` = id of part `p`'s first row; a trailing entry holds
    /// the total count.
    offsets: Vec<u32>,
    config: C2lshConfig,
    params: FullParams,
    family: HashFamily,
    /// Every part's segments in part order, part `p`'s over the ids
    /// `offsets[p]..offsets[p + 1]`, [`SEGMENT_IDS`] to a segment.
    pub(crate) segments: Vec<Segment>,
    /// Per-point attribute payloads, indexed by object id; empty when
    /// the corpus carries no metadata (every point reads as default).
    metas: Vec<PointMeta>,
}

impl<'d> C2lshIndex<'d> {
    /// Build an index: draw `m` hash functions, hash every object, order
    /// each table's ids by bucket id. Parameters `(m, l, β·n)` and the
    /// hash family come from the total object count, and each part's
    /// segments are built in turn, its tables in parallel on the
    /// machine's cores. How the rows are split into parts changes the
    /// segments' edges and nothing a query sees.
    ///
    /// # Panics
    /// Panics when the rows are empty, number more than `u32::MAX`, or
    /// the config is invalid.
    pub fn build<R: Rows + ?Sized>(rows: &'d R, config: &C2lshConfig) -> Self {
        let parts = rows.parts();
        let n: usize = parts.iter().map(Dataset::len).sum();
        assert!(n > 0, "cannot index an empty dataset");
        assert!(u32::try_from(n).is_ok(), "object ids are 32-bit");
        let ends = parts.iter().scan(0, |end, part| {
            *end += part.len() as u32;
            Some(*end)
        });
        let offsets: Vec<u32> = std::iter::once(0).chain(ends).collect();
        let params = FullParams::derive(n, config);
        let family = HashFamily::generate(params.m, parts[0].dim(), config);
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let segments = parts
            .iter()
            .zip(&offsets)
            .flat_map(|(rows, &first)| {
                build_segments(rows, &family, threads, move |i| first + i as u32)
            })
            .collect();
        let config = config.clone();
        Self { parts, offsets, config, params, family, segments, metas: Vec::new() }
    }

    /// Dataset dimensionality (inherent mirror of the [`TableStore`]
    /// accessor, so callers don't need the trait in scope).
    pub fn dim(&self) -> usize {
        self.parts[0].dim()
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("a trailing offset") as usize
    }

    /// Always `false`: [`C2lshIndex::build`] refuses empty rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of parts the rows came in: 1 for a [`Dataset`], the shard
    /// count for a [`crate::ShardedData`].
    pub fn num_shards(&self) -> usize {
        self.parts.len()
    }

    /// Attach per-point attribute payloads (row `i` of the dataset gets
    /// `metas[i]`), enabling filtered queries via
    /// [`SearchOptions::filter`].
    ///
    /// # Panics
    /// Panics unless exactly one payload per indexed point is supplied.
    pub fn set_meta(&mut self, metas: Vec<PointMeta>) {
        assert_eq!(metas.len(), self.len(), "one PointMeta per indexed point");
        self.metas = metas;
    }

    /// Builder-style [`C2lshIndex::set_meta`].
    pub fn with_meta(mut self, metas: Vec<PointMeta>) -> Self {
        self.set_meta(metas);
        self
    }

    /// The derived parameters in effect.
    pub fn params(&self) -> &FullParams {
        &self.params
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &C2lshConfig {
        &self.config
    }

    /// The hash family (exposed for the theory-validation experiments).
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// c-k-ANN query: the `k` nearest verified candidates, ascending by
    /// distance, plus cost counters.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.query_with(q, k, &SearchOptions::default())
    }

    /// [`C2lshIndex::query`] with explicit observability options.
    pub fn query_with(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<Neighbor>, QueryStats) {
        engine::run_query(self, &self.params.search(&self.config), q, k, opts)
    }

    /// Answer a whole query set in parallel across scoped threads.
    ///
    /// Results are in query order and identical to sequential
    /// [`C2lshIndex::query`] calls. Thread count defaults to the
    /// machine's parallelism.
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        self.query_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`C2lshIndex::query_batch`] with explicit observability options.
    pub fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        engine::run_query_batch(self, &self.params.search(&self.config), queries, k, opts)
    }

    /// Resident index size in bytes: every table's ids — 2 bytes an
    /// entry — and every segment's bucket directory of it, plus the hash
    /// family. (The paper's index-size table is the 12-byte-entry disk
    /// layout, [`crate::DiskIndex::size_bytes`].)
    pub fn size_bytes(&self) -> usize {
        let runs = self.segments.iter().flat_map(|s| &s.runs);
        runs.map(SortedRun::size_bytes).sum::<usize>() + self.family.size_bytes()
    }

    /// Number of hash tables `m`.
    pub fn num_tables(&self) -> usize {
        self.params.m
    }
}

/// The segments of `data`, row `i` entered as `id(i)`: a new segment
/// starts at the first row whose id is [`SEGMENT_IDS`] or more past its
/// first. `id` ascends. Each worker hashes one segment's rows at a time
/// against eight of its tables per pass ([`HashFamily::each_column`]) and
/// sorts each column, so it holds at most eight columns of
/// [`SEGMENT_IDS`] ids — 4 MiB — however many rows there are.
pub(crate) fn build_segments(
    data: &Dataset,
    family: &HashFamily,
    threads: usize,
    id: impl Fn(usize) -> u32 + Sync,
) -> Vec<Segment> {
    let mut bounds: Vec<Range<usize>> = Vec::new();
    for row in 0..data.len() {
        match bounds.last_mut() {
            Some(rows) if (id(row) - id(rows.start)) < SEGMENT_IDS as u32 => rows.end = row + 1,
            _ => bounds.push(row..row + 1),
        }
    }
    let d = data.dim();
    let tables = per_table(family.len(), threads, |tables| {
        let mut runs: Vec<_> = tables.clone().map(|_| Vec::with_capacity(bounds.len())).collect();
        for rows in &bounds {
            let first = id(rows.start);
            let block = &data.as_flat()[rows.start * d..rows.end * d];
            family.each_column(tables.clone(), block, |t, column| {
                let run = SortedRun::from_column(column, |i| (id(rows.start + i) - first) as u16);
                runs[t - tables.start].push(run);
            });
        }
        runs
    });
    let mut tables: Vec<_> = tables.into_iter().map(Vec::into_iter).collect();
    let segment = |rows: &Range<usize>| Segment {
        runs: tables.iter_mut().map(|runs| runs.next().expect("a run per segment")).collect(),
        first: id(rows.start),
        last: id(rows.end - 1),
    };
    bounds.iter().map(segment).collect()
}

/// What `build` makes of each of `m` tables, in table order: `threads`
/// workers each take a contiguous share of the tables — the calling
/// thread when there is one share.
pub(crate) fn per_table<T: Send>(
    m: usize,
    threads: usize,
    build: impl Fn(Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    if threads == 1 {
        return build(0..m);
    }
    let (build, share) = (&build, m.div_ceil(threads));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..m)
            .step_by(share)
            .map(|lo| scope.spawn(move || build(lo..(lo + share).min(m))))
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("table worker panicked")).collect()
    })
}

impl TableStore for C2lshIndex<'_> {
    type Cursor = KeyWindows;
    type Id = u16;

    fn dim(&self) -> usize {
        C2lshIndex::dim(self)
    }

    fn len(&self) -> usize {
        C2lshIndex::len(self)
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
        Segment::expand(&self.segments, cursor, t, radius, |_, ids| visit(&ids));
    }

    fn exhausted(&self, cursor: &KeyWindows) -> bool {
        Segment::exhausted(&self.segments, cursor, self.params.m)
    }

    fn vector<'a>(&'a self, oid: u32, _: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        let p = self.offsets.partition_point(|&first| first <= oid) - 1;
        Some(self.parts[p].get((oid - self.offsets[p]) as usize))
    }

    fn meta(&self, oid: u32) -> PointMeta {
        self.metas.get(oid as usize).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Beta;
    use crate::stats::Termination;
    use cc_vector::gen::{generate, Distribution};
    use cc_vector::gt::knn_linear;
    use cc_vector::metrics::{overall_ratio, recall};

    impl SortedRun {
        /// Every `(bucket, offset)` entry in run order.
        pub(crate) fn entries(&self) -> impl Iterator<Item = (i64, u16)> + '_ {
            let bounds = self.dir.starts.windows(2).map(|w| w[0] as usize..w[1] as usize);
            let buckets =
                self.dir.keys.iter().zip(bounds).map(|(&bucket, ids)| (bucket, &self.oids[ids]));
            buckets.flat_map(|(bucket, ids)| ids.iter().map(move |&oid| (bucket, oid)))
        }
    }

    impl Segment {
        /// Every `(bucket, id)` entry of table `t`, in run order.
        pub(crate) fn entries(&self, t: usize) -> impl Iterator<Item = (i64, u32)> + '_ {
            self.runs[t].entries().map(|(bucket, oid)| (bucket, self.first + u32::from(oid)))
        }
    }

    fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.015, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    fn cfg() -> C2lshConfig {
        // w matched to the data scale of `clustered` (NN distances ~0.4).
        C2lshConfig::builder().bucket_width(1.0).seed(42).build()
    }

    #[test]
    fn finds_exact_match() {
        let data = clustered(500, 16, 1);
        let index = C2lshIndex::build(&data, &cfg());
        for i in [0usize, 17, 499] {
            let (nn, _) = index.query(data.get(i), 1);
            assert_eq!(nn[0].id as usize, i);
            assert_eq!(nn[0].dist, 0.0);
        }
    }

    #[test]
    fn high_recall_on_clustered_data() {
        let data = clustered(2000, 24, 2);
        let index = C2lshIndex::build(&data, &cfg());
        let queries = generate(
            Distribution::GaussianMixture { clusters: 16, spread: 0.015, scale: 10.0 },
            2020,
            24,
            2,
        );
        let mut total_recall = 0.0;
        let mut total_ratio = 0.0;
        let nq = 20;
        for qi in 0..nq {
            let q = queries.get(2000 + qi);
            let truth = knn_linear(&data, q, 10);
            let (got, _) = index.query(q, 10);
            total_recall += recall(&got, &truth);
            total_ratio += overall_ratio(&got, &truth);
        }
        let mean_recall = total_recall / nq as f64;
        let mean_ratio = total_ratio / nq as f64;
        assert!(mean_recall > 0.8, "recall too low: {mean_recall}");
        assert!(mean_ratio < 1.2, "ratio too high: {mean_ratio}");
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let data = clustered(800, 12, 3);
        let index = C2lshIndex::build(&data, &cfg());
        let (nn, _) = index.query(data.get(5), 20);
        assert_eq!(nn.len(), 20);
        for w in nn.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<u32> = nn.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20, "duplicate ids in result");
    }

    #[test]
    fn t2_budget_bounds_verification() {
        let data = clustered(3000, 16, 4);
        let config = C2lshConfig::builder().bucket_width(1.0).seed(7).beta(Beta::Count(30)).build();
        let index = C2lshIndex::build(&data, &config);
        let (_, stats) = index.query(data.get(11), 10);
        // T2 caps verified candidates at k + beta_n.
        assert!(
            stats.candidates_verified <= 10 + index.params().beta_n,
            "verified {} > budget {}",
            stats.candidates_verified,
            10 + index.params().beta_n
        );
    }

    #[test]
    fn exhausts_tiny_dataset_and_still_answers() {
        let data = clustered(20, 8, 5);
        let index = C2lshIndex::build(&data, &cfg());
        // Far-away query: loop must terminate via window exhaustion or T1
        // and return all reachable points.
        let far = vec![1e4f32; 8];
        let (nn, stats) = index.query(&far, 5);
        assert_eq!(nn.len(), 5);
        assert!(matches!(
            stats.terminated_by,
            Termination::Exhausted | Termination::T1AtRadius | Termination::T2CandidateBudget
        ));
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let data = clustered(400, 10, 7);
        let i1 = C2lshIndex::build(&data, &cfg());
        let i2 = C2lshIndex::build(&data, &cfg());
        let q = data.get(123);
        assert_eq!(i1.query(q, 5).0, i2.query(q, 5).0);
    }

    #[test]
    fn size_accounting_scales_with_m_and_n() {
        let data = clustered(1000, 8, 8);
        let index = C2lshIndex::build(&data, &cfg());
        let mn = index.num_tables() * 1000;
        // 2 bytes per entry per table; the directories and the family
        // are small change beside them.
        assert!((2 * mn..3 * mn).contains(&index.size_bytes()), "{}", index.size_bytes());

        // Worst case, every object alone in its bucket: a key and an
        // offset per entry on top of the id.
        let rows: Vec<Vec<f32>> =
            (0..200).map(|i| vec![i as f32 * 1000.0, 0.0, 0.0, 0.0]).collect();
        let data = Dataset::from_rows(&rows);
        let index = C2lshIndex::build(&data, &cfg());
        let (m, tables) = (index.num_tables(), index.size_bytes() - index.family().size_bytes());
        assert!(tables > 13 * m * 200 && tables <= m * (14 * 200 + 4), "{tables}");
    }

    /// The reference run: the `(bucket, oid)` pairs themselves, sorted.
    fn sorted_pairs<T: Ord>(buckets: &[i64], oids: impl Iterator<Item = T>) -> Vec<(i64, T)> {
        let mut pairs: Vec<(i64, T)> = buckets.iter().copied().zip(oids).collect();
        pairs.sort_unstable();
        pairs
    }

    /// `run` must hold exactly `want`, and one segment of it must hand a
    /// cursor, at every radius up to the saturated one, what the window
    /// newly covers of `want` in `want`'s order, and be exhausted exactly
    /// when the window covers all of it.
    fn check_run(run: SortedRun, want: &[(i64, u16)], queries: &[i64]) {
        assert_eq!(run.entries().collect::<Vec<_>>(), want);
        assert_eq!(run.oids, want.iter().map(|e| e.1).collect::<Vec<_>>());
        assert_eq!(run.dir.starts.len(), run.dir.keys.len() + 1);
        for &q in queries {
            let (near, far) = (q.saturating_sub(3), q.saturating_add(3));
            for (first, last) in [(q, q), (near, far), (far, near), (i64::MIN, i64::MAX)] {
                let lo = want.partition_point(|e| e.0 < first);
                let hi = want.partition_point(|e| e.0 <= last).max(lo);
                assert_eq!(run.dir.entries(first..=last), lo..hi, "buckets {first}..={last}");
            }
        }
        let segment = [Segment { runs: vec![run], first: 0, last: 0 }];
        // A window reaching `i64::MAX` holds that bucket too.
        let holds = |(lo, hi): (i64, i64), b: i64| lo <= b && (b < hi || hi == i64::MAX);
        for &q in queries {
            let (mut cursor, mut before) = (KeyWindows::new(vec![q]), None);
            for radius in (0..64).map(|level| crate::rehash::radius_at(2, level)) {
                let now = crate::rehash::window(q, radius);
                let new =
                    |&&(b, _): &&(i64, u16)| holds(now, b) && !before.is_some_and(|w| holds(w, b));
                let reference: Vec<u16> = want.iter().filter(new).map(|e| e.1).collect();
                let mut got = Vec::new();
                Segment::expand(&segment, &mut cursor, 0, radius, |_, ids| {
                    got.extend_from_slice(&ids);
                    true
                });
                assert_eq!(got, reference, "q {q}, radius {radius}");
                let whole = want.iter().all(|&(b, _)| holds(now, b));
                assert_eq!(
                    Segment::exhausted(&segment, &cursor, 1),
                    whole,
                    "q {q}, radius {radius}"
                );
                if whole {
                    break;
                }
                before = Some(now);
            }
        }
    }

    /// Bucket columns of the shapes a table can take, from raw draws.
    fn shaped_column(shape: u8, raw: &[i64]) -> Vec<i64> {
        let stride = 1 + raw.first().map_or(0, |r| r.rem_euclid(3));
        let shaped = |(i, &r): (usize, &i64)| match shape {
            // A few dozen buckets around zero: the counting sort.
            0 => r % 60,
            1 => r,
            // One bucket holds everything.
            2 => 7,
            // All distinct, descending: dense at stride 1, sparse above.
            3 => -(i as i64) * stride,
            // Two clusters 10^12 buckets apart: a histogram over the
            // span would be terabytes.
            4 => r % 20 + if r & 64 == 0 { 0 } else { 1_000_000_000_000 },
            _ => [i64::MIN, r % 5, i64::MAX][i % 3],
        };
        raw.iter().enumerate().map(shaped).collect()
    }

    proptest::proptest! {
        #[test]
        fn sorted_run_matches_reference_pairs(
            shape in 0u8..6,
            raw in proptest::collection::vec(i64::MIN..i64::MAX, 0..300),
            q in -(1i64 << 40)..(1i64 << 40),
        ) {
            let column = shaped_column(shape, &raw);
            let ends = [0, -1, i64::MIN, i64::MAX];
            let queries: Vec<i64> = column.iter().take(3).copied().chain([q]).chain(ends).collect();
            let want = sorted_pairs(&column, 0..);
            check_run(SortedRun::from_column(&column, |i| i as u16), &want, &queries);
            // Ascending ids of a shard or a block, written in the one pass.
            let id = |i: usize| 1000 + 3 * i as u16;
            let want = sorted_pairs(&column, (0..column.len()).map(id));
            check_run(SortedRun::from_column(&column, id), &want, &queries);
        }
    }

    /// Whatever the thread count, every table of every segment is its
    /// rows' `(bucket, id)` pairs sorted, a segment ends where the next
    /// id would take it past `SEGMENT_IDS` ids, and the segments' entries
    /// of a table together are the sorted pairs of all rows.
    #[test]
    fn build_segments_matches_reference_for_any_thread_count() {
        let data = clustered(700, 6, 15);
        let index = C2lshIndex::build(&data, &cfg());
        let columns: Vec<Vec<i64>> =
            index.family().iter().map(|h| data.iter().map(|v| h.bucket(v)).collect()).collect();
        // Ids 300 apart: 219 of them span fewer than 65 536.
        for (step, rows) in [(1, 700), (300, 219)] {
            let id = |i: usize| i as u32 * step;
            let want: Vec<Vec<(i64, u32)>> =
                columns.iter().map(|column| sorted_pairs(column, (0..700).map(id))).collect();
            let bounds: Vec<(u32, u32)> =
                (0..700).step_by(rows).map(|lo| (id(lo), id((lo + rows).min(700) - 1))).collect();
            for threads in [1, 2, 7] {
                let segments = build_segments(&data, index.family(), threads, id);
                assert_eq!(segments.iter().map(|s| (s.first, s.last)).collect::<Vec<_>>(), bounds);
                for (s, lo) in segments.iter().zip((0..700).step_by(rows)) {
                    for (t, column) in columns.iter().enumerate() {
                        let own = &column[lo..(lo + rows).min(700)];
                        let want = sorted_pairs(own, (lo..lo + own.len()).map(id));
                        assert_eq!(s.entries(t).collect::<Vec<_>>(), want, "{threads} threads");
                    }
                }
                for (t, want) in want.iter().enumerate() {
                    let mut walked: Vec<_> = segments.iter().flat_map(|s| s.entries(t)).collect();
                    walked.sort_unstable();
                    assert_eq!(&walked, want, "{threads} threads, ids {step} apart");
                }
            }
        }
    }

    #[test]
    fn k_exceeding_candidates_returns_fewer() {
        let data = clustered(10, 4, 9);
        let index = C2lshIndex::build(&data, &cfg());
        let (nn, _) = index.query(data.get(0), 50);
        assert!(nn.len() <= 10);
        assert!(!nn.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let data = Dataset::empty(4);
        let _ = C2lshIndex::build(&data, &cfg());
    }

    #[test]
    fn batch_query_matches_sequential() {
        let data = clustered(1200, 12, 10);
        let index = C2lshIndex::build(&data, &cfg());
        let queries = data.slice_rows(0, 37);
        let (batch, agg) = index.query_batch(&queries, 5);
        assert_eq!(batch.len(), 37);
        assert_eq!(agg.queries, 37);
        let mut verified_total = 0u64;
        for (qi, (nn, stats)) in batch.iter().enumerate() {
            let (seq_nn, seq_stats) = index.query(queries.get(qi), 5);
            assert_eq!(nn, &seq_nn, "query {qi}");
            assert_eq!(stats.candidates_verified, seq_stats.candidates_verified);
            verified_total += stats.candidates_verified as u64;
        }
        assert_eq!(agg.verified, verified_total);
    }

    #[test]
    fn batch_query_empty_set() {
        let data = clustered(50, 8, 11);
        let index = C2lshIndex::build(&data, &cfg());
        let (batch, agg) = index.query_batch(&Dataset::empty(8), 3);
        assert!(batch.is_empty());
        assert_eq!(agg.queries, 0);
    }

    #[test]
    fn filtered_query_respects_predicate_and_counts_separately() {
        use crate::meta::Predicate;
        let data = clustered(900, 12, 13);
        // Modulus 3 is coprime to the generator's 16 clusters, so every
        // cluster mixes all three labels and a filtered search must
        // reject frequent same-cluster points.
        let metas: Vec<PointMeta> =
            (0..900u32).map(|i| PointMeta::new(1 << (i % 5), i % 3)).collect();
        let index = C2lshIndex::build(&data, &cfg()).with_meta(metas);
        let opts = SearchOptions {
            filter: Some(Predicate::label(1).and_tag_any(u64::MAX)),
            ..Default::default()
        };
        let (nn, stats) = index.query_with(data.get(4), 8, &opts);
        assert!(!nn.is_empty());
        for n in &nn {
            assert_eq!(n.id % 3, 1, "label clause violated by {}", n.id);
        }
        assert!(stats.candidates_filtered > 0);
        // Unfiltered queries on the same index stay untouched.
        let (_, plain) = index.query(data.get(4), 8);
        assert_eq!(plain.candidates_filtered, 0);
    }

    #[test]
    #[should_panic(expected = "one PointMeta per indexed point")]
    fn meta_length_mismatch_rejected() {
        let data = clustered(50, 8, 14);
        let _ = C2lshIndex::build(&data, &cfg()).with_meta(vec![PointMeta::default(); 49]);
    }

    #[test]
    fn per_round_observability_via_options() {
        let data = clustered(600, 10, 12);
        let index = C2lshIndex::build(&data, &cfg());
        let opts = SearchOptions { per_round: true, timing: true, ..Default::default() };
        let (_, stats) = index.query_with(data.get(9), 5, &opts);
        assert_eq!(stats.per_round.len(), stats.rounds as usize);
        let col: u64 = stats.per_round.iter().map(|r| r.collisions).sum();
        assert_eq!(col, stats.collisions_counted);
        assert!(stats.elapsed_nanos > 0);
        // And with defaults the layer stays off.
        let (_, plain) = index.query(data.get(9), 5);
        assert!(plain.per_round.is_empty());
        assert_eq!(plain.elapsed_nanos, 0);
    }
}
