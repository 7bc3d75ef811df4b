//! Crash-safe online mutations over the dynamic index.
//!
//! [`MutableIndex`] wraps a [`DynamicIndex`] behind two guarantees the
//! serving layer needs and the raw index does not give:
//!
//! * **Snapshot-consistent reads.** Readers obtain an `Arc` to an
//!   immutable published index and query it without any lock held;
//!   a writer clones the current index (the clone shares every segment
//!   and chunk and a write replaces the ones it touches), applies a
//!   whole batch to the clone and publishes it in one pointer swap. A
//!   concurrent query therefore sees the pre-batch or the post-batch
//!   index — never a half-applied one (pinned by `tests/concurrency.rs`).
//! * **Durability of acknowledged writes.** With a backing directory,
//!   every applied mutation is appended to a write-ahead log
//!   ([`cc_storage::wal`]) and fsynced *before* the new snapshot is
//!   published or any acknowledgement returned — one group-commit sync
//!   per batch. After a kill at any byte offset, [`MutableIndex::open`]
//!   restores the last checkpoint and replays the WAL back to the last
//!   acknowledged mutation (pinned by the fault-injection proptests in
//!   `tests/proptest_persist.rs` and the kill/restart test in
//!   `cc-service`).
//!
//! The ordering — apply to the private clone, then WAL-append, then
//! fsync, then publish, then ack — means a crash can lose only
//! *unacknowledged* work, and replay (which re-runs the same
//! deterministic oid assignment) can only *re-create* state that was
//! already acknowledged.

use crate::config::{Beta, C2lshConfig};
use crate::dynamic::{DynamicIndex, Edit};
use crate::engine::SearchOptions;
use crate::meta::PointMeta;
use crate::params::FullParams;
use crate::stats::{BatchStats, MutationStats, QueryStats};
use cc_storage::wal::{read_checkpoint, write_checkpoint, Wal, WalOp, WalRecord};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use parking_lot::{Mutex, RwLock};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One requested mutation, as carried by the service protocol and the
/// batching worker.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp {
    /// Insert a vector (the index assigns the object id).
    Insert {
        /// The vector to insert; must match the index dimension and be
        /// finite in every coordinate.
        vector: Vec<f32>,
        /// Attribute payload stored alongside the vector (default:
        /// empty). Persisted in the WAL record and in checkpoints, so
        /// filtered search keeps working across crash recovery.
        meta: PointMeta,
    },
    /// Delete an object by id.
    Delete {
        /// The object id to remove.
        oid: u32,
    },
}

/// Per-request acknowledgement for one [`MutationOp`]. Returned only
/// after the batch's WAL records are fsynced, so holding an ack means
/// the mutation survives any subsequent crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationAck {
    /// The insert was applied and logged.
    Inserted {
        /// Object id the index assigned.
        oid: u32,
        /// WAL sequence number of the logged record.
        seq: u64,
    },
    /// The delete was processed.
    Deleted {
        /// The requested object id.
        oid: u32,
        /// `true` when the object existed and was removed (and logged);
        /// `false` for unknown/already-deleted ids, which are
        /// acknowledged without a WAL record.
        found: bool,
        /// WAL sequence number of the logged record; for a miss, the
        /// current high-water mark (nothing new was logged).
        seq: u64,
    },
}

impl MutationAck {
    /// The sequence number this ack certifies as durable.
    pub fn seq(&self) -> u64 {
        match *self {
            MutationAck::Inserted { seq, .. } | MutationAck::Deleted { seq, .. } => seq,
        }
    }
}

/// The published read state: an immutable index plus the sequence
/// number of the last mutation it contains.
struct Snapshot {
    seq: u64,
    index: Arc<DynamicIndex>,
}

/// Writer-side state, serialized by a mutex: at most one batch is in
/// flight at a time.
struct Writer {
    wal: Option<Wal>,
    dir: Option<PathBuf>,
    /// Next sequence number in ephemeral mode (WAL-backed mode asks the
    /// log).
    next_seq: u64,
    /// Cumulative write-path counters since open.
    stats: MutationStats,
    /// Set when a WAL failure could not be rolled back: the on-disk log
    /// may hold garbage between acknowledged records, so accepting (and
    /// fsync-acking) further batches on top of it would let replay
    /// silently drop them. While poisoned every mutation is refused;
    /// reads keep serving the last published snapshot. Reopening the
    /// directory recovers (open truncates the torn bytes away).
    poisoned: Option<String>,
}

impl Writer {
    /// Refuse `what` while the write path is poisoned.
    fn refuse_if_poisoned(&self, what: &str) -> io::Result<()> {
        let Some(why) = &self.poisoned else { return Ok(()) };
        let refusal = format!("{what} refused, write path poisoned ({why}); reopen to recover");
        Err(io::Error::other(refusal))
    }
}

/// One applied mutation, as logged and as retained for replication: a
/// [`WalOp`] whose vector is the allocation the index's slot holds.
enum Applied {
    Insert { oid: u32, vector: Arc<[f32]>, meta: PointMeta },
    Delete { oid: u32 },
}

impl Applied {
    /// The insert of `vector` that `index` holds under `oid`, sharing
    /// the slot's allocation — or a copy, when a later op of the same
    /// batch emptied the slot again.
    fn insert(index: &DynamicIndex, oid: u32, vector: &[f32], meta: PointMeta) -> Self {
        let slot = index.slots().get(oid as usize).cloned().flatten();
        Applied::Insert { oid, vector: slot.unwrap_or_else(|| vector.into()), meta }
    }

    /// `op`, already applied to `index`.
    fn of(op: &WalOp, index: &DynamicIndex) -> Self {
        match op {
            WalOp::Insert { oid, vector, tag, label } => {
                Self::insert(index, *oid, vector, PointMeta::new(*tag, *label))
            }
            WalOp::Delete { oid } => Applied::Delete { oid: *oid },
        }
    }

    fn append_to(&self, wal: &mut Wal) -> io::Result<u64> {
        match self {
            Applied::Insert { oid, vector, meta } => {
                wal.append_insert(*oid, vector, meta.tag, meta.label)
            }
            Applied::Delete { oid } => wal.append_delete(*oid),
        }
    }

    /// The record as shipped to a follower.
    fn record(&self, seq: u64) -> WalRecord {
        let op = match self {
            Applied::Insert { oid, vector, meta } => WalOp::Insert {
                oid: *oid,
                vector: vector.to_vec(),
                tag: meta.tag,
                label: meta.label,
            },
            Applied::Delete { oid } => WalOp::Delete { oid: *oid },
        };
        WalRecord { seq, op }
    }
}

/// In-memory retention of applied mutations, feeding replication
/// subscribers. Seeded from the replayed log at open and appended on
/// every applied batch; checkpoints truncate the *disk* log but never
/// this buffer, so a connected follower survives checkpoints. The
/// buffer grows with process-lifetime mutations — bounded retention
/// plus snapshot shipping for too-far-behind followers is the
/// documented follow-up (DESIGN.md §14).
struct ReplLog {
    /// Sequence number *before* the first retained record: subscribers
    /// must start at or above this floor. Nonzero when the index was
    /// opened from a checkpoint (the pre-checkpoint history is gone).
    floor: u64,
    /// Record `i` has sequence number `floor + 1 + i`: the log hands
    /// out dense numbers and [`MutableIndex::commit`] checks each.
    records: VecDeque<Applied>,
}

impl ReplLog {
    /// See [`MutableIndex::replication_tail`].
    fn tail(&self, from_seq: u64, max: usize) -> io::Result<(u64, Vec<WalRecord>)> {
        if from_seq < self.floor {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "replication tail from seq {from_seq} is below the retained floor {}; \
                     the subscriber must re-seed from a checkpoint copy",
                    self.floor
                ),
            ));
        }
        let last = self.floor + self.records.len() as u64;
        let skip = (from_seq.min(last) - self.floor) as usize;
        let tail = self.records.range(skip..).take(max).zip(self.floor + skip as u64 + 1..);
        Ok((last, tail.map(|(op, seq)| op.record(seq)).collect()))
    }
}

/// A [`DynamicIndex`] made safe for concurrent serving: lock-free-read
/// snapshots plus (optionally) a WAL-backed crash-recovery story. See
/// the module docs for the contract.
pub struct MutableIndex {
    snapshot: RwLock<Snapshot>,
    writer: Mutex<Writer>,
    repl: Mutex<ReplLog>,
}

/// Apply replicated/replayed WAL records to an index in order, with the
/// divergence checks shared by crash recovery and follower apply: an
/// insert must reproduce the logged oid, a delete must find its
/// victim — anything else means the histories forked.
fn apply_wal_records<R: Borrow<WalRecord>>(
    index: &mut DynamicIndex,
    records: &[R],
) -> io::Result<()> {
    let edits = records.iter().map(|rec| match &rec.borrow().op {
        WalOp::Insert { vector, tag, label, .. } => {
            Edit::Insert(vector, PointMeta::new(*tag, *label))
        }
        WalOp::Delete { oid } => Edit::Delete(*oid),
    });
    for (rec, (got, found)) in records.iter().zip(index.apply(edits)) {
        let WalRecord { seq, op } = rec.borrow();
        let diverged = match op {
            WalOp::Insert { oid, .. } => {
                (got != *oid).then(|| format!("insert produced oid {got}, log says {oid}"))
            }
            WalOp::Delete { oid } => (!found).then(|| format!("delete of unknown oid {oid}")),
        };
        if let Some(what) = diverged {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL replay divergence at seq {seq}: {what}"),
            ));
        }
    }
    Ok(())
}

impl std::fmt::Debug for MutableIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot.read();
        f.debug_struct("MutableIndex")
            .field("seq", &snap.seq)
            .field("index", &snap.index)
            .finish_non_exhaustive()
    }
}

/// File name of the checkpoint inside a [`MutableIndex::open`] directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.c2d";
/// File name of the write-ahead log inside a [`MutableIndex::open`]
/// directory.
pub const WAL_FILE: &str = "wal.log";

/// A checkpoint head's shape bytes: `expected_n`, the configuration and
/// the `(m, l, beta_n)` derived from them. An index of other shape bytes
/// (another build's derivation included) refuses the checkpoint.
fn shape(expected_n: usize, config: &C2lshConfig, params: &FullParams) -> Vec<u8> {
    let mut out = (expected_n as u64).to_le_bytes().to_vec();
    out.extend(config.c.to_le_bytes());
    out.extend([config.w, config.delta, config.base_radius].iter().flat_map(|x| x.to_le_bytes()));
    out.extend(match config.beta {
        Beta::Count(c) => [0].into_iter().chain(c.to_le_bytes()),
        Beta::Fraction(f) => [1].into_iter().chain(f.to_le_bytes()),
    });
    out.extend(config.seed.to_le_bytes());
    for over in [config.m_override, config.l_override] {
        out.push(u8::from(over.is_some()));
        out.extend(over.into_iter().flat_map(|v| (v as u32).to_le_bytes()));
    }
    out.extend([params.m, params.l, params.beta_n].iter().flat_map(|&v| (v as u32).to_le_bytes()));
    out
}

/// Write the checkpoint of `index` at `last_seq` into `out`: every slot
/// with its metadata, tombstones included so object ids survive.
fn save(index: &DynamicIndex, last_seq: u64, out: impl Write) -> io::Result<()> {
    let shape = shape(index.expected_n(), index.config(), index.params());
    let slots = index.slots().iter().zip(index.meta_slots().iter());
    let slots = slots.map(|(slot, meta)| (slot.as_deref(), meta.tag, meta.label));
    write_checkpoint(out, index.dim(), last_seq, &shape, index.slots().len(), slots)
}

impl MutableIndex {
    /// Wrap an existing index with snapshot semantics but **no
    /// durability** (no WAL): acknowledged mutations die with the
    /// process. For tests and self-contained benchmarks.
    pub fn ephemeral(index: DynamicIndex) -> Self {
        Self {
            snapshot: RwLock::new(Snapshot { seq: 0, index: Arc::new(index) }),
            writer: Mutex::new(Writer {
                wal: None,
                dir: None,
                next_seq: 1,
                stats: MutationStats::default(),
                poisoned: None,
            }),
            repl: Mutex::new(ReplLog { floor: 0, records: VecDeque::new() }),
        }
    }

    /// Open (or create) a durable index backed by directory `dir`,
    /// holding `dir/checkpoint.c2d` and `dir/wal.log`. Restores the
    /// checkpoint if present — it must agree with `(dim, expected_n,
    /// config)` — then replays the WAL's valid prefix on top. A torn
    /// WAL tail (a kill mid-write) is truncated away; it can never
    /// contain an acknowledged mutation, because acks happen only after
    /// fsync. A checkpoint is renamed into place whole, so a damaged one
    /// is refused with [`io::ErrorKind::InvalidData`], never opened as a
    /// shorter index.
    pub fn open(
        dir: impl AsRef<Path>,
        dim: usize,
        expected_n: usize,
        config: &C2lshConfig,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let (mut index, ckpt_seq) = if ckpt_path.exists() {
            let shape = shape(expected_n, config, &FullParams::derive(expected_n, config));
            let ckpt = read_checkpoint(&std::fs::read(&ckpt_path)?, dim, &shape)?;
            let metas = ckpt.metas.into_iter().map(|(tag, label)| PointMeta::new(tag, label));
            let index =
                DynamicIndex::from_slots(dim, expected_n, config, ckpt.slots, metas.collect());
            (index, ckpt.last_seq)
        } else {
            (DynamicIndex::new(dim, expected_n, config), 0)
        };

        let (wal, records, _report) = Wal::open(dir.join(WAL_FILE), ckpt_seq)?;
        // Records at or below `ckpt_seq` are already reflected by the
        // checkpoint (log written before the checkpoint's reset, e.g. a
        // kill between checkpoint rename and WAL reset).
        let retained: Vec<WalRecord> = records.into_iter().filter(|r| r.seq > ckpt_seq).collect();
        if retained.first().is_some_and(|first| first.seq != ckpt_seq + 1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL starts at seq {}, checkpoint ends at {ckpt_seq}", retained[0].seq),
            ));
        }
        apply_wal_records(&mut index, &retained)?;
        let last_seq = ckpt_seq + retained.len() as u64;
        let retained = retained.iter().map(|rec| Applied::of(&rec.op, &index)).collect();

        Ok(Self {
            snapshot: RwLock::new(Snapshot { seq: last_seq, index: Arc::new(index) }),
            writer: Mutex::new(Writer {
                next_seq: wal.next_seq(),
                wal: Some(wal),
                dir: Some(dir),
                stats: MutationStats { last_seq, ..MutationStats::default() },
                poisoned: None,
            }),
            repl: Mutex::new(ReplLog { floor: ckpt_seq, records: retained }),
        })
    }

    /// Apply a batch of mutations atomically with respect to readers:
    /// WAL-append + one fsync (durable mode), then publish the
    /// post-batch snapshot, then return per-op acks and this batch's
    /// [`MutationStats`] delta. Concurrent callers serialize on the
    /// writer lock; readers are never blocked for longer than the final
    /// pointer swap.
    ///
    /// Every op is validated up front — wrong dimension, non-finite
    /// coordinates — and an invalid op fails the whole batch with
    /// [`io::ErrorKind::InvalidInput`] *before* anything is applied or
    /// logged (the service validates per-request at decode time, so a
    /// mixed batch of independent clients never dies on one bad op).
    ///
    /// # Failure handling
    ///
    /// A WAL append or sync that fails mid-batch (ENOSPC, an I/O error)
    /// discards the in-memory clone *and* rolls the on-disk log back to
    /// the pre-batch boundary, so partially-written record bytes never
    /// sit between acknowledged records (replay truncates at the first
    /// torn record — garbage mid-log would silently swallow everything
    /// after it). If even the rollback fails, the writer is **poisoned**:
    /// every further mutation is refused with the original error until
    /// the index is reopened, while reads keep serving the last published
    /// snapshot. Either way no snapshot is published and no ack returned,
    /// so the durability contract holds.
    pub fn apply_batch(&self, ops: &[MutationOp]) -> io::Result<(Vec<MutationAck>, MutationStats)> {
        let mut writer = self.writer.lock();
        writer.refuse_if_poisoned("mutation")?;

        let dim = self.snapshot.read().index.dim();
        for (i, op) in ops.iter().enumerate() {
            if let MutationOp::Insert { vector, .. } = op {
                if vector.len() != dim {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("op {i}: vector has dim {}, index has {dim}", vector.len()),
                    ));
                }
                if !vector.iter().all(|x| x.is_finite()) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("op {i}: vector has non-finite coordinates"),
                    ));
                }
            }
        }

        // Clone-and-mutate: the published index stays untouched (and
        // readable) while the batch lands on the private clone. The
        // clone shares every segment and chunk with the published index
        // and the batch replaces the ones it writes, so a one-op batch
        // costs the same whatever the index holds.
        let mut next = DynamicIndex::clone(&self.snapshot.read().index);
        let mut delta = MutationStats { batches: 1, ..MutationStats::default() };
        let mut acks = Vec::with_capacity(ops.len());
        let mut logged: Vec<Applied> = Vec::with_capacity(ops.len());
        let mut last_seq = writer.stats.last_seq.max(self.snapshot.read().seq);

        let edits = ops.iter().map(|op| match op {
            MutationOp::Insert { vector, meta } => Edit::Insert(vector, *meta),
            MutationOp::Delete { oid } => Edit::Delete(*oid),
        });
        let applied = next.apply(edits);
        for (op, (oid, found)) in ops.iter().zip(applied) {
            match op {
                MutationOp::Insert { vector, meta } => {
                    logged.push(Applied::insert(&next, oid, vector, *meta));
                    acks.push(MutationAck::Inserted { oid, seq: 0 });
                }
                MutationOp::Delete { .. } if found => {
                    logged.push(Applied::Delete { oid });
                    acks.push(MutationAck::Deleted { oid, found: true, seq: 0 });
                }
                MutationOp::Delete { .. } => {
                    delta.delete_misses += 1;
                    acks.push(MutationAck::Deleted { oid, found: false, seq: 0 });
                }
            }
        }

        // Sequence numbers flow back into acks.
        let first_seq = writer.wal.as_ref().map_or(writer.next_seq, Wal::next_seq);
        let mut seqs = self.commit(&mut writer, next, logged, first_seq, &mut delta)?.into_iter();
        for ack in acks.iter_mut() {
            match ack {
                MutationAck::Inserted { seq, .. }
                | MutationAck::Deleted { found: true, seq, .. } => {
                    *seq = seqs.next().expect("seq per logged op");
                }
                MutationAck::Deleted { found: false, seq, .. } => *seq = last_seq,
            }
            last_seq = last_seq.max(ack.seq());
        }
        Ok((acks, delta))
    }

    /// What a batch does once its ops have landed on the private clone
    /// `next`, a client's batch and a replicated one alike: append
    /// `logged` to the WAL under one fsync (group commit; ephemeral mode
    /// only hands out sequence numbers), restore the log on failure (see
    /// [`MutableIndex::apply_batch`]), retain the records for replication
    /// subscribers, publish `next` and fold `delta` — whose op and WAL
    /// counts and `last_seq` it sets — into the cumulative stats.
    /// `first_seq` is the seq of the first op — the log's next one for a
    /// client's batch, the one a primary shipped it under for a replicated
    /// batch: the local log assigns dense seqs from the same base, so a
    /// mismatch means the histories forked and the node must not serve.
    /// Returns the seqs.
    fn commit(
        &self,
        writer: &mut Writer,
        next: DynamicIndex,
        logged: Vec<Applied>,
        first_seq: u64,
        delta: &mut MutationStats,
    ) -> io::Result<Vec<u64>> {
        let last_seq = writer.stats.last_seq.max(self.snapshot.read().seq);
        let mut seqs = Vec::with_capacity(logged.len());
        match writer.wal.as_mut() {
            Some(wal) => {
                let (pos, wal_bytes_before) = (wal.position(), wal.size_bytes());
                let appended = (|| -> io::Result<()> {
                    for op in &logged {
                        let seq = op.append_to(wal)?;
                        let shipped = first_seq + seqs.len() as u64;
                        if seq != shipped {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "local WAL assigned seq {seq} to a record shipped as seq {shipped}"
                                ),
                            ));
                        }
                        seqs.push(seq);
                    }
                    if !logged.is_empty() {
                        wal.sync()?;
                        delta.wal_syncs = 1;
                    }
                    Ok(())
                })();
                if let Err(e) = appended {
                    // Partial record bytes (or whole-but-unsynced
                    // records) must not stay behind, or the next batch
                    // would append after garbage and be dropped by the
                    // next replay. When the rollback itself fails the
                    // on-disk state is unknowable — poison the writer.
                    let poisoned = match wal.rollback(pos) {
                        Ok(()) => None,
                        Err(rb) => Some(format!("{e}; WAL rollback also failed: {rb}")),
                    };
                    writer.poisoned = poisoned;
                    return Err(e);
                }
                delta.wal_records = logged.len() as u64;
                delta.wal_bytes = wal.size_bytes() - wal_bytes_before;
            }
            None => {
                seqs.extend((first_seq..).take(logged.len()));
                writer.next_seq = first_seq + logged.len() as u64;
            }
        }
        delta.last_seq = seqs.last().map_or(last_seq, |&seq| seq.max(last_seq));
        delta.inserts =
            logged.iter().filter(|op| matches!(op, Applied::Insert { .. })).count() as u64;
        delta.deletes = logged.len() as u64 - delta.inserts;

        // Past the durability point (fsynced, or accepted in ephemeral
        // mode) the records may ship to followers and the batch is
        // published: one pointer swap; readers holding the old Arc finish
        // on the pre-batch snapshot. A batch of pure delete misses
        // changed nothing — keep the old snapshot and its cache residency.
        if !logged.is_empty() {
            self.repl.lock().records.extend(logged);
            *self.snapshot.write() = Snapshot { seq: delta.last_seq, index: Arc::new(next) };
        }
        writer.stats.merge(delta);
        Ok(seqs)
    }

    /// The replication tail: every retained record with sequence number
    /// strictly greater than `from_seq`, capped at `max` records, plus
    /// the current high-water mark. An empty vec with a high-water mark
    /// equal to `from_seq` means the subscriber is caught up.
    ///
    /// # Errors
    ///
    /// `from_seq` below the retained floor (the index was opened from a
    /// checkpoint and the earlier history is gone) is refused with
    /// [`io::ErrorKind::InvalidInput`] — such a follower needs a full
    /// snapshot copy, not a log tail.
    pub fn replication_tail(&self, from_seq: u64, max: usize) -> io::Result<(u64, Vec<WalRecord>)> {
        self.repl.lock().tail(from_seq, max)
    }

    /// Apply a batch of replicated WAL records shipped from a primary.
    /// Records at or below the local high-water mark are skipped
    /// (idempotent redelivery after a reconnect); the remainder must
    /// continue the local sequence densely. Applied records go through
    /// the same divergence checks as crash recovery, land in the local
    /// WAL under their *shipped* sequence numbers (one fsync per call),
    /// and are retained for downstream subscribers. Returns the new
    /// high-water mark.
    pub fn apply_replicated(&self, records: &[WalRecord]) -> io::Result<u64> {
        let mut writer = self.writer.lock();
        writer.refuse_if_poisoned("replicated apply")?;
        let last_seq = writer.stats.last_seq.max(self.snapshot.read().seq);
        let fresh: Vec<&WalRecord> = records.iter().filter(|r| r.seq > last_seq).collect();
        if fresh.is_empty() {
            return Ok(last_seq);
        }
        for (expect, rec) in (last_seq + 1..).zip(&fresh) {
            if rec.seq != expect {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("replication gap: expected seq {expect}, got {}", rec.seq),
                ));
            }
        }
        let dim = self.snapshot.read().index.dim();
        for rec in &fresh {
            if let WalOp::Insert { vector, .. } = &rec.op {
                if vector.len() != dim || !vector.iter().all(|x| x.is_finite()) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("replicated record at seq {} carries an invalid vector", rec.seq),
                    ));
                }
            }
        }

        let mut next = DynamicIndex::clone(&self.snapshot.read().index);
        let mut delta = MutationStats { batches: 1, ..MutationStats::default() };
        apply_wal_records(&mut next, &fresh)?;

        let logged = fresh.iter().map(|rec| Applied::of(&rec.op, &next)).collect();
        self.commit(&mut writer, next, logged, last_seq + 1, &mut delta)?;
        Ok(delta.last_seq)
    }

    /// The lowest sequence number replication can serve *from* (see
    /// [`MutableIndex::replication_tail`]): subscribers asking below
    /// this floor are refused.
    pub fn replication_floor(&self) -> u64 {
        self.repl.lock().floor
    }

    /// Write a checkpoint (`checkpoint.c2d`, via tmp-file + rename) of
    /// the current snapshot and truncate the WAL, bounding recovery
    /// time. The checkpoint is a `CWL1` file of slot records
    /// ([`cc_storage::wal::write_checkpoint`]), each written to the tmp
    /// file as soon as it is framed; it is never whole in memory.
    /// No-op in ephemeral mode. Readers are unaffected; writers wait on
    /// the writer lock for the file I/O.
    pub fn checkpoint(&self) -> io::Result<()> {
        let writer = self.writer.lock();
        writer.refuse_if_poisoned("checkpoint")?;
        let Some(dir) = writer.dir.clone() else { return Ok(()) };
        // With the writer lock held no batch can publish, so the
        // current snapshot is the latest durable state.
        let (index, seq) = {
            let snap = self.snapshot.read();
            (Arc::clone(&snap.index), snap.seq)
        };
        let tmp = dir.join("checkpoint.c2d.tmp");
        let final_path = dir.join(CHECKPOINT_FILE);
        {
            let mut f = std::fs::File::create(&tmp)?;
            save(&index, seq, &mut f)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &final_path)?;
        // Make the rename itself durable before dropping the log.
        std::fs::File::open(&dir)?.sync_all()?;
        drop(index);
        let mut writer = writer;
        if let Some(wal) = writer.wal.as_mut() {
            wal.reset()?;
        }
        Ok(())
    }

    /// [`MutableIndex::checkpoint`], but only once the WAL has grown
    /// past `wal_bytes` — the trigger a serving layer calls after every
    /// mutation flush so recovery time stays bounded instead of the log
    /// growing forever (a bulk seed alone can be tens of MB). Returns
    /// whether a checkpoint ran; always `Ok(false)` in ephemeral mode.
    /// Pass 0 to force one (any real log is at least its header).
    pub fn checkpoint_if_wal_exceeds(&self, wal_bytes: u64) -> io::Result<bool> {
        // Racing a concurrent batch between the size probe and the
        // checkpoint is benign: the checkpoint takes the writer lock
        // and snapshots whatever is published at that point.
        if self.wal_size_bytes().is_none_or(|b| b <= wal_bytes) {
            return Ok(false);
        }
        self.checkpoint()?;
        Ok(true)
    }

    /// Current WAL size in bytes (header included); `None` in ephemeral
    /// mode.
    pub fn wal_size_bytes(&self) -> Option<u64> {
        self.writer.lock().wal.as_ref().map(Wal::size_bytes)
    }

    /// `true` once a WAL failure could not be rolled back and the write
    /// path refuses all further mutations (reads stay available).
    /// Recovery is a reopen of the backing directory.
    pub fn is_poisoned(&self) -> bool {
        self.writer.lock().poisoned.is_some()
    }

    /// Test support (fault injection): run `f` against the underlying
    /// WAL. `None` in ephemeral mode.
    #[doc(hidden)]
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> Option<R> {
        self.writer.lock().wal.as_mut().map(f)
    }

    /// The current read snapshot: an immutable index plus the sequence
    /// number of the last mutation it reflects. Hold the `Arc` as long
    /// as needed — it never mutates.
    pub fn snapshot(&self) -> (Arc<DynamicIndex>, u64) {
        let snap = self.snapshot.read();
        (Arc::clone(&snap.index), snap.seq)
    }

    /// c-k-ANN query against the current snapshot, with
    /// [`QueryStats::snapshot_seq`] stamped.
    pub fn query(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, QueryStats) {
        self.query_with(q, k, &SearchOptions::default())
    }

    /// [`MutableIndex::query`] with explicit observability options.
    pub fn query_with(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<Neighbor>, QueryStats) {
        let (index, seq) = self.snapshot();
        let (nn, mut stats) = index.query_with(q, k, opts);
        stats.snapshot_seq = seq;
        (nn, stats)
    }

    /// Batch query against one coherent snapshot (every query in the
    /// batch sees the same index), with per-query
    /// [`QueryStats::snapshot_seq`] stamped.
    pub fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        let (index, seq) = self.snapshot();
        let (mut per_query, batch) = index.query_batch_with(queries, k, opts);
        for (_, stats) in per_query.iter_mut() {
            stats.snapshot_seq = seq;
        }
        (per_query, batch)
    }

    /// Number of live objects in the current snapshot.
    pub fn len(&self) -> usize {
        self.snapshot.read().index.len()
    }

    /// `true` when the current snapshot holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dataset dimensionality.
    pub fn dim(&self) -> usize {
        self.snapshot.read().index.dim()
    }

    /// Sequence number of the last acknowledged mutation (0 when none).
    pub fn last_seq(&self) -> u64 {
        self.snapshot.read().seq
    }

    /// Cumulative write-path counters since open.
    pub fn mutation_stats(&self) -> MutationStats {
        self.writer.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_storage::wal::scratch_dir;
    use cc_vector::gen::{generate, Distribution};

    fn cfg() -> C2lshConfig {
        C2lshConfig::builder().bucket_width(1.0).seed(42).build()
    }

    fn points(n: usize, d: usize, seed: u64) -> Dataset {
        generate(
            Distribution::GaussianMixture { clusters: 8, spread: 0.02, scale: 10.0 },
            n,
            d,
            seed,
        )
    }

    fn insert(v: &[f32]) -> MutationOp {
        MutationOp::Insert { vector: v.to_vec(), meta: PointMeta::default() }
    }

    fn checkpoint_bytes(index: &DynamicIndex, last_seq: u64) -> Vec<u8> {
        let mut blob = Vec::new();
        save(index, last_seq, &mut blob).unwrap();
        blob
    }

    #[test]
    fn ephemeral_apply_and_query() {
        let data = points(50, 6, 1);
        let m = MutableIndex::ephemeral(DynamicIndex::new(6, 200, &cfg()));
        let ops: Vec<MutationOp> = data.iter().map(insert).collect();
        let (acks, delta) = m.apply_batch(&ops).unwrap();
        assert_eq!(acks.len(), 50);
        assert_eq!(delta.inserts, 50);
        assert_eq!(delta.last_seq, 50);
        assert_eq!(m.len(), 50);
        let (nn, stats) = m.query(data.get(7), 1);
        assert_eq!(nn[0].id, 7);
        assert_eq!(stats.snapshot_seq, 50, "queries carry the snapshot seq");
        // Deletes: one hit, one miss.
        let (acks, delta) = m
            .apply_batch(&[MutationOp::Delete { oid: 7 }, MutationOp::Delete { oid: 999 }])
            .unwrap();
        assert_eq!(acks[0], MutationAck::Deleted { oid: 7, found: true, seq: 51 });
        assert_eq!(acks[1], MutationAck::Deleted { oid: 999, found: false, seq: 51 });
        assert_eq!((delta.deletes, delta.delete_misses), (1, 1));
        assert_ne!(m.query(data.get(7), 1).0[0].id, 7);
        let total = m.mutation_stats();
        assert_eq!((total.inserts, total.deletes, total.batches), (50, 1, 2));
    }

    #[test]
    fn invalid_ops_fail_the_batch_before_any_effect() {
        let m = MutableIndex::ephemeral(DynamicIndex::new(4, 100, &cfg()));
        let bad_dim = m.apply_batch(&[insert(&[1.0; 4]), insert(&[1.0; 3])]).unwrap_err();
        assert_eq!(bad_dim.kind(), io::ErrorKind::InvalidInput);
        let nan = m.apply_batch(&[insert(&[f32::NAN; 4])]).unwrap_err();
        assert_eq!(nan.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(m.len(), 0, "failed batches must not partially apply");
        assert_eq!(m.last_seq(), 0);
    }

    #[test]
    fn durable_open_apply_reopen_recovers() {
        let dir = scratch_dir("mutable-reopen");
        let data = points(40, 5, 2);
        let q = data.get(3).to_vec();
        {
            let m = MutableIndex::open(&dir, 5, 100, &cfg()).unwrap();
            let ops: Vec<MutationOp> = data.iter().map(insert).collect();
            m.apply_batch(&ops).unwrap();
            m.apply_batch(&[MutationOp::Delete { oid: 3 }]).unwrap();
            assert_eq!(m.last_seq(), 41);
        } // dropped without checkpoint: recovery is pure WAL replay
        let m = MutableIndex::open(&dir, 5, 100, &cfg()).unwrap();
        assert_eq!(m.last_seq(), 41);
        assert_eq!(m.len(), 39);
        assert_ne!(m.query(&q, 1).0[0].id, 3, "deleted object stays deleted across reopen");
        // New mutations continue the sequence.
        let (acks, _) = m.apply_batch(&[insert(&[0.5; 5])]).unwrap();
        assert_eq!(acks[0], MutationAck::Inserted { oid: 40, seq: 42 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_reopen_agrees() {
        let dir = scratch_dir("mutable-ckpt");
        let data = points(30, 4, 3);
        {
            let m = MutableIndex::open(&dir, 4, 100, &cfg()).unwrap();
            let ops: Vec<MutationOp> = data.iter().map(insert).collect();
            m.apply_batch(&ops).unwrap();
            m.checkpoint().unwrap();
            // Post-checkpoint mutations land in the (reset) WAL.
            m.apply_batch(&[MutationOp::Delete { oid: 0 }]).unwrap();
            assert_eq!(m.last_seq(), 31);
        }
        assert!(dir.join(CHECKPOINT_FILE).exists());
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(
            wal_len < 100,
            "WAL should hold only the post-checkpoint delete, got {wal_len} bytes"
        );
        let m = MutableIndex::open(&dir, 4, 100, &cfg()).unwrap();
        assert_eq!(m.last_seq(), 31);
        assert_eq!(m.len(), 29);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The review-found poison scenario: a WAL append dying mid-record
    /// (ENOSPC) must not leave garbage that swallows later acknowledged
    /// batches at replay. The failed batch rolls the log back to the
    /// pre-batch boundary, a subsequent batch is acknowledged on a
    /// clean log, and recovery after a kill serves exactly the
    /// acknowledged history.
    #[test]
    fn failed_append_mid_batch_rolls_back_and_later_acks_survive_reopen() {
        let dir = scratch_dir("mutable-enospc");
        let data = points(12, 4, 9);
        let config = cfg();
        {
            let m = MutableIndex::open(&dir, 4, 100, &config).unwrap();
            let a: Vec<MutationOp> = data.iter().take(4).map(insert).collect();
            m.apply_batch(&a).unwrap();

            // Batch B: the second of three records tears after 7 bytes.
            m.with_wal(|w| w.inject_append_failure(1, 7)).unwrap();
            let b: Vec<MutationOp> = data.iter().skip(4).take(3).map(insert).collect();
            let err = m.apply_batch(&b).unwrap_err();
            assert_eq!(err.to_string(), "injected append failure");
            assert!(!m.is_poisoned(), "a successful rollback keeps the writer usable");
            assert_eq!(m.len(), 4, "the failed batch must not partially apply");
            assert_eq!(m.last_seq(), 4);

            // Batch C lands on the rolled-back log and is acknowledged.
            let c: Vec<MutationOp> = data.iter().skip(8).take(3).map(insert).collect();
            let (acks, _) = m.apply_batch(&c).unwrap();
            assert_eq!(acks[0], MutationAck::Inserted { oid: 4, seq: 5 });
            assert_eq!(m.last_seq(), 7);
        } // kill
        let r = MutableIndex::open(&dir, 4, 100, &config).unwrap();
        assert_eq!(r.last_seq(), 7, "every acknowledged mutation recovered");
        assert_eq!(r.len(), 7);
        let mut reference = DynamicIndex::new(4, 100, &config);
        for v in data.iter().take(4).chain(data.iter().skip(8).take(3)) {
            reference.insert(v.to_vec());
        }
        assert_eq!(r.snapshot().0.slots(), reference.slots(), "recovered state is A ++ C");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_sync_rolls_back_fully_written_records_too() {
        let dir = scratch_dir("mutable-syncfail");
        let data = points(8, 4, 10);
        let config = cfg();
        {
            let m = MutableIndex::open(&dir, 4, 100, &config).unwrap();
            let a: Vec<MutationOp> = data.iter().take(3).map(insert).collect();
            m.apply_batch(&a).unwrap();
            // Whole batch written, group-commit fsync fails: the
            // records are unacknowledged and must be truncated away,
            // not left to reappear at replay.
            m.with_wal(|w| w.inject_sync_failures(1)).unwrap();
            let err = m.apply_batch(&[insert(data.get(3))]).unwrap_err();
            assert_eq!(err.to_string(), "injected sync failure");
            assert!(!m.is_poisoned());
            assert_eq!(m.len(), 3);
            m.apply_batch(&[insert(data.get(4))]).unwrap();
        } // kill
        let r = MutableIndex::open(&dir, 4, 100, &config).unwrap();
        assert_eq!(r.last_seq(), 4);
        let mut reference = DynamicIndex::new(4, 100, &config);
        for v in data.iter().take(3).chain(std::iter::once(data.get(4))) {
            reference.insert(v.to_vec());
        }
        assert_eq!(r.snapshot().0.slots(), reference.slots());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrollbackable_failure_poisons_writes_until_reopen() {
        let dir = scratch_dir("mutable-poison");
        let data = points(6, 4, 11);
        let config = cfg();
        {
            let m = MutableIndex::open(&dir, 4, 100, &config).unwrap();
            let a: Vec<MutationOp> = data.iter().take(3).map(insert).collect();
            m.apply_batch(&a).unwrap();
            // First injected failure kills the batch's group commit,
            // the second kills the rollback's truncation fsync: the
            // on-disk state is now unknowable.
            m.with_wal(|w| w.inject_sync_failures(2)).unwrap();
            m.apply_batch(&[insert(data.get(3))]).unwrap_err();
            assert!(m.is_poisoned());
            // Mutations and checkpoints are refused; reads still serve.
            let err = m.apply_batch(&[insert(data.get(4))]).unwrap_err();
            assert!(err.to_string().contains("poisoned"), "{err}");
            let err = m.checkpoint().unwrap_err();
            assert!(err.to_string().contains("poisoned"), "{err}");
            assert_eq!(m.checkpoint_if_wal_exceeds(0).unwrap_err().kind(), err.kind());
            assert_eq!(m.len(), 3);
            assert_eq!(m.query(data.get(0), 1).0[0].id, 0);
        } // kill

        // Reopen truncates whatever the torn log holds past the last
        // acknowledged prefix and the write path works again.
        let r = MutableIndex::open(&dir, 4, 100, &config).unwrap();
        assert!(!r.is_poisoned());
        assert_eq!(r.last_seq(), 3, "only acknowledged batches recovered");
        r.apply_batch(&[insert(data.get(5))]).unwrap();
        assert_eq!(r.last_seq(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_if_wal_exceeds_respects_the_threshold() {
        let dir = scratch_dir("mutable-ckpt-threshold");
        let data = points(10, 4, 12);
        let m = MutableIndex::open(&dir, 4, 100, &cfg()).unwrap();
        let ops: Vec<MutationOp> = data.iter().map(insert).collect();
        m.apply_batch(&ops).unwrap();
        let size = m.wal_size_bytes().unwrap();
        assert!(!m.checkpoint_if_wal_exceeds(size).unwrap(), "at-threshold is not over it");
        assert!(m.checkpoint_if_wal_exceeds(size - 1).unwrap());
        assert!(dir.join(CHECKPOINT_FILE).exists());
        assert!(m.wal_size_bytes().unwrap() < size, "checkpoint truncated the log");
        // Ephemeral indexes never checkpoint.
        let e = MutableIndex::ephemeral(DynamicIndex::new(4, 100, &cfg()));
        assert_eq!(e.wal_size_bytes(), None);
        assert!(!e.checkpoint_if_wal_exceeds(0).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metadata_survives_wal_replay_and_checkpoint() {
        use crate::meta::Predicate;
        let dir = scratch_dir("mutable-meta");
        let data = points(60, 6, 20);
        let config = cfg();
        // A mixed history: every fourth point carries no metadata, and
        // one point of each kind is deleted again.
        let meta_of = |i: usize| match i % 4 {
            0 => PointMeta::default(),
            _ => PointMeta::new(1 << (i % 8), (i % 3) as u32),
        };
        let mut ops: Vec<MutationOp> = data
            .iter()
            .enumerate()
            .map(|(i, v)| MutationOp::Insert { vector: v.to_vec(), meta: meta_of(i) })
            .collect();
        ops.extend([MutationOp::Delete { oid: 8 }, MutationOp::Delete { oid: 9 }]);
        let opts = SearchOptions {
            filter: Some(Predicate::label(1).and_tag_any(0xFF)),
            ..Default::default()
        };
        let q = data.get(13).to_vec();
        let (want, want_plain) = {
            let m = MutableIndex::open(&dir, 6, 100, &config).unwrap();
            m.apply_batch(&ops).unwrap();
            (m.query_with(&q, 4, &opts).0, m.query(&q, 4).0)
        }; // kill without checkpoint: recovery is pure WAL replay
        assert!(!want.is_empty());
        for n in &want {
            assert_eq!(n.id % 3, 1, "predicate violated by {}", n.id);
        }
        let live_metas = |m: &MutableIndex| -> Vec<PointMeta> {
            let (index, _) = m.snapshot();
            let slots = index.slots().iter().zip(index.meta_slots().iter());
            slots.filter(|(slot, _)| slot.is_some()).map(|(_, meta)| *meta).collect()
        };
        let want_live: Vec<PointMeta> =
            (0..60).filter(|i| ![8, 9].contains(i)).map(meta_of).collect();
        {
            let m = MutableIndex::open(&dir, 6, 100, &config).unwrap();
            assert_eq!(m.query_with(&q, 4, &opts).0, want, "WAL replay lost metadata");
            assert_eq!(live_metas(&m), want_live);
            m.checkpoint().unwrap();
        }
        // Now recovery goes through the checkpoint instead of the log.
        let m = MutableIndex::open(&dir, 6, 100, &config).unwrap();
        assert_eq!(m.query_with(&q, 4, &opts).0, want, "checkpoint lost metadata");
        assert_eq!(m.query(&q, 4).0, want_plain);
        assert_eq!(live_metas(&m), want_live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The two files a checkpoint leaves behind — after a history with
    /// tombstones and metadata slots, and one more batch in the reset
    /// log — pinned while the checkpoint was built whole in memory and
    /// the log wrote a record at a time. The checkpoint's half was
    /// re-pinned when it became a `CWL1` file of a head and slot records;
    /// the slot bytes inside them did not change. However the bytes
    /// travel to the disk, these are the bytes: `index_mib` reports their
    /// size, and a log an earlier build wrote is one of these.
    #[test]
    fn golden_checkpoint_and_log_files() {
        /// 64-bit FNV-1a, enough to pin a file without checking it in.
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        }
        let dir = scratch_dir("mutable-golden");
        let data = points(50, 6, 21);
        let meta_of = |i: usize| match i % 3 {
            0 => PointMeta::default(),
            _ => PointMeta::new(1 << (i % 5), (i % 4) as u32),
        };
        let ops: Vec<MutationOp> = data
            .iter()
            .enumerate()
            .map(|(i, v)| MutationOp::Insert { vector: v.to_vec(), meta: meta_of(i) })
            .collect();
        let m = MutableIndex::open(&dir, 6, 100, &cfg()).unwrap();
        m.apply_batch(&ops[..30]).unwrap();
        // One tombstone of each slot kind, and a miss.
        let deletes = [4, 9, 12, 77].map(|oid| MutationOp::Delete { oid });
        m.apply_batch(&deletes).unwrap();
        m.apply_batch(&ops[30..]).unwrap();
        m.checkpoint().unwrap();
        let tail = [
            MutationOp::Insert { vector: vec![0.5; 6], meta: PointMeta::new(3, 7) },
            MutationOp::Delete { oid: 31 },
            insert(&[-1.25; 6]),
        ];
        m.apply_batch(&tail).unwrap();
        assert_eq!(m.last_seq(), 56);
        let checkpoint = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let tagged = (0..50).filter(|i| i % 3 != 0 && ![4, 9].contains(i)).count();
        // The header, the head (its body: dim, last_seq, slot count and
        // 67 shape bytes) and one record of 50 slots, a tag byte each.
        let (head, slots) = (4 + 8 + 1 + 4 + 8 + 8 + 67 + 4, 4 + 8 + 1 + 4 + 4 + 4);
        assert_eq!(checkpoint.len(), 8 + head + slots + 47 * (1 + 6 * 4) + 12 * tagged + 3);
        let (plain, meta, delete) = (4 + 8 + 1 + 8 + 24 + 4, 4 + 8 + 1 + 20 + 24 + 4, 21);
        assert_eq!(log.len(), 8 + plain + meta + delete);
        assert_eq!(fnv1a(&checkpoint), 15_372_464_532_963_983_695, "checkpoint bytes moved");
        assert_eq!(fnv1a(&log), 3_161_929_885_051_519_813, "log bytes moved");
        drop(m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_mismatched_config() {
        let dir = scratch_dir("mutable-cfg");
        {
            let m = MutableIndex::open(&dir, 4, 100, &cfg()).unwrap();
            m.apply_batch(&[insert(&[1.0; 4])]).unwrap();
            m.checkpoint().unwrap();
        }
        let other = C2lshConfig::builder().bucket_width(2.0).seed(42).build();
        let err = MutableIndex::open(&dir, 4, 100, &other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An earlier build's checkpoint, stamped `C2D1`, is refused at open,
    /// never opened as an empty index.
    #[test]
    fn checkpoint_of_an_earlier_build_is_refused() {
        let dir = scratch_dir("mutable-ckpt-c2d1");
        {
            let m = MutableIndex::open(&dir, 4, 100, &cfg()).unwrap();
            m.apply_batch(&[insert(&[1.0; 4])]).unwrap();
            m.checkpoint().unwrap();
        }
        let path = dir.join(CHECKPOINT_FILE);
        let mut earlier = std::fs::read(&path).unwrap();
        earlier[..4].copy_from_slice(b"1D2C"); // "C2D1", little-endian
        std::fs::write(&path, earlier).unwrap();
        let err = MutableIndex::open(&dir, 4, 100, &cfg()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a CWL1 file"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A kill between a checkpoint's rename and the log's reset leaves
    /// the new checkpoint beside the whole old log. Reopen skips the
    /// records the checkpoint already holds, so none is applied twice,
    /// and the log numbers on from the checkpoint.
    #[test]
    fn checkpoint_then_kill_before_the_log_reset_applies_each_record_once() {
        let dir = scratch_dir("mutable-ckpt-kill");
        let data = points(40, 5, 37);
        let config = cfg();
        let tagged = |i: usize| MutationOp::Insert {
            vector: data.get(i).to_vec(),
            meta: PointMeta::new(1 << (i % 7), i as u32 % 3),
        };
        // The slots, the metadata of the live ones (a tombstone keeps
        // none across a checkpoint) and the seq.
        let state = |m: &MutableIndex| {
            let (index, seq) = m.snapshot();
            let slots = index.slots().iter().zip(index.meta_slots().iter());
            let metas: Vec<_> = slots.filter(|(v, _)| v.is_some()).map(|(_, meta)| *meta).collect();
            (index.slots().clone(), metas, seq)
        };
        let before = {
            let m = MutableIndex::open(&dir, 5, 100, &config).unwrap();
            m.apply_batch(&(0..20).map(tagged).collect::<Vec<_>>()).unwrap();
            let deletes = [MutationOp::Delete { oid: 3 }, MutationOp::Delete { oid: 11 }];
            m.apply_batch(&[&deletes[..], &[tagged(20)]].concat()).unwrap();
            m.apply_batch(&data.iter().skip(21).take(9).map(insert).collect::<Vec<_>>()).unwrap();
            let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
            m.checkpoint().unwrap();
            let before = state(&m);
            drop(m);
            std::fs::write(dir.join(WAL_FILE), log).unwrap(); // the reset never happened
            before
        };
        let (ids, last_seq) = (before.0.len() as u32, before.2);
        assert_eq!((ids, last_seq), (30, 32));
        let m = MutableIndex::open(&dir, 5, 100, &config).unwrap();
        assert!(state(&m) == before, "reopen diverged");
        let (acks, _) = m.apply_batch(&[insert(data.get(30))]).unwrap();
        assert_eq!(acks[0], MutationAck::Inserted { oid: ids, seq: last_seq + 1 });
        let after = state(&m);
        drop(m);
        let m = MutableIndex::open(&dir, 5, 100, &config).unwrap();
        assert!(state(&m) == after, "a second reopen diverged");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replication_tail_ships_and_apply_replicated_converges() {
        let dir_p = scratch_dir("repl-primary");
        let dir_f = scratch_dir("repl-follower");
        let data = points(30, 5, 33);
        let config = cfg();
        let primary = MutableIndex::open(&dir_p, 5, 100, &config).unwrap();
        let follower = MutableIndex::open(&dir_f, 5, 100, &config).unwrap();

        let ops: Vec<MutationOp> = data.iter().take(20).map(insert).collect();
        primary.apply_batch(&ops).unwrap();
        primary.apply_batch(&[MutationOp::Delete { oid: 3 }]).unwrap();

        // Ship the whole tail in two pulls.
        let (last, tail) = primary.replication_tail(0, 15).unwrap();
        assert_eq!(last, 21);
        assert_eq!(tail.len(), 15);
        assert_eq!(follower.apply_replicated(&tail).unwrap(), 15);
        let (_, tail) = primary.replication_tail(15, 100).unwrap();
        assert_eq!(tail.len(), 6);
        assert_eq!(follower.apply_replicated(&tail).unwrap(), 21);

        // Converged: same answers, same seq, same live count.
        assert_eq!(follower.last_seq(), primary.last_seq());
        assert_eq!(follower.len(), primary.len());
        let q = data.get(7).to_vec();
        assert_eq!(follower.query(&q, 3).0, primary.query(&q, 3).0);

        // Idempotent redelivery: replaying the same tail is a no-op.
        assert_eq!(follower.apply_replicated(&tail).unwrap(), 21);
        assert_eq!(follower.len(), primary.len());

        // A gap is refused, not silently applied.
        let (_, all) = primary.replication_tail(0, 1000).unwrap();
        let gapped = [all[0].clone(), all[2].clone()];
        let fresh = MutableIndex::ephemeral(DynamicIndex::new(5, 100, &config));
        let err = fresh.apply_replicated(&gapped).unwrap_err();
        assert!(err.to_string().contains("replication gap"), "{err}");

        // Caught-up probe: empty tail, high-water mark echoed.
        let (last, tail) = primary.replication_tail(21, 100).unwrap();
        assert_eq!((last, tail.len()), (21, 0));

        // The follower's own WAL carried the shipped seqs: a cold
        // reopen of the follower directory reproduces the state.
        drop(follower);
        let reopened = MutableIndex::open(&dir_f, 5, 100, &config).unwrap();
        assert_eq!(reopened.last_seq(), 21);
        assert_eq!(reopened.query(&q, 3).0, primary.query(&q, 3).0);
        std::fs::remove_dir_all(&dir_p).unwrap();
        std::fs::remove_dir_all(&dir_f).unwrap();
    }

    /// A follower whose own log tears while it applies a shipped batch
    /// keeps its pre-batch state and a clean log; the primary ships the
    /// same records again, they land, and a kill later the follower
    /// recovers all of them.
    #[test]
    fn failed_append_of_a_replicated_batch_rolls_back_and_redelivery_lands() {
        let dir = scratch_dir("repl-enospc");
        let data = points(9, 4, 35);
        let config = cfg();
        let primary = MutableIndex::ephemeral(DynamicIndex::new(4, 100, &config));
        let ops: Vec<MutationOp> = data.iter().map(insert).collect();
        primary.apply_batch(&ops).unwrap();
        primary.apply_batch(&[MutationOp::Delete { oid: 2 }]).unwrap();
        let (_, tail) = primary.replication_tail(0, 100).unwrap();
        {
            let follower = MutableIndex::open(&dir, 4, 100, &config).unwrap();
            assert_eq!(follower.apply_replicated(&tail[..4]).unwrap(), 4);

            // The second of the next six records tears after 7 bytes.
            follower.with_wal(|w| w.inject_append_failure(1, 7)).unwrap();
            let err = follower.apply_replicated(&tail[4..]).unwrap_err();
            assert_eq!(err.to_string(), "injected append failure");
            assert!(!follower.is_poisoned(), "a successful rollback keeps the writer usable");
            assert_eq!((follower.len(), follower.last_seq()), (4, 4), "nothing of it applied");
            assert_eq!(follower.replication_tail(0, 100).unwrap().1, tail[..4]);

            // Redelivery, overlapping what the follower already holds.
            assert_eq!(follower.apply_replicated(&tail[2..]).unwrap(), 10);
            assert_eq!(follower.replication_tail(0, 100).unwrap().1, tail);
        } // kill
        let reopened = MutableIndex::open(&dir, 4, 100, &config).unwrap();
        assert_eq!(reopened.last_seq(), 10, "every applied record recovered");
        assert_eq!(reopened.snapshot().0.slots(), primary.snapshot().0.slots());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What `apply_batch` keeps of an insert is the slot's allocation,
    /// not a copy — on the primary, on a follower and after a reopen —
    /// and the tail it ships brings a follower to the same checkpoint
    /// bytes.
    #[test]
    fn a_retained_record_shares_its_slot_and_the_tail_converges_a_follower() {
        let dir = scratch_dir("repl-shared");
        let data = points(40, 6, 36);
        let config = cfg();
        let primary = MutableIndex::open(&dir, 6, 100, &config).unwrap();
        let follower = MutableIndex::ephemeral(DynamicIndex::new(6, 100, &config));
        let labeled = |(i, v): (usize, &[f32])| MutationOp::Insert {
            vector: v.to_vec(),
            meta: PointMeta::labeled(i as u32 % 3),
        };
        let mut ops: Vec<MutationOp> = data.iter().enumerate().map(labeled).collect();
        // Oid 5 is inserted and deleted by one batch: its record keeps a copy.
        ops.insert(10, MutationOp::Delete { oid: 5 });
        primary.apply_batch(&ops[..21]).unwrap();
        primary.apply_batch(&ops[21..]).unwrap();
        primary.apply_batch(&[MutationOp::Delete { oid: 30 }, insert(data.get(0))]).unwrap();
        // The ids whose retained insert is the very allocation in the slot.
        let shared = |index: &MutableIndex| {
            let (snapshot, _) = index.snapshot();
            let same = |op: &Applied| match op {
                Applied::Insert { oid, vector, .. } => {
                    let slot = snapshot.slots().get(*oid as usize).unwrap().as_ref();
                    slot.is_some_and(|slot| Arc::ptr_eq(slot, vector)).then_some(*oid)
                }
                Applied::Delete { .. } => None,
            };
            index.repl.lock().records.iter().filter_map(same).collect::<Vec<u32>>()
        };
        let live: Vec<u32> = (0..41).filter(|oid| ![5, 30].contains(oid)).collect();
        assert_eq!(shared(&primary), live);

        let mut from = 0;
        while from < primary.last_seq() {
            let (_, tail) = primary.replication_tail(from, 7).unwrap();
            from = follower.apply_replicated(&tail).unwrap();
        }
        assert_eq!(shared(&follower), live);
        let blob = |index: &MutableIndex| checkpoint_bytes(&index.snapshot().0, 0);
        assert!(blob(&follower) == blob(&primary), "follower diverged");
        let whole = |index: &MutableIndex| index.replication_tail(0, 100).unwrap();
        assert_eq!(whole(&follower), whole(&primary));

        drop(primary);
        let reopened = MutableIndex::open(&dir, 6, 100, &config).unwrap();
        assert_eq!(shared(&reopened), live);
        assert!(blob(&reopened) == blob(&follower), "replay diverged");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        /// The tail is a seek into the dense log: whatever the floor, the
        /// subscriber's position and the cap, it is what filtering every
        /// retained record by its sequence number gives — the refusal
        /// below the floor and the empty answer to a subscriber that has
        /// caught up, or claims to be ahead, included.
        #[test]
        fn replication_tail_seeks_to_what_a_filter_finds(
            floor in 0u64..50,
            len in 0u32..60,
            from_seq in 0u64..130,
            max in 0usize..70,
        ) {
            let log = ReplLog { floor, records: (0..len).map(|oid| Applied::Delete { oid }).collect() };
            let numbered = (floor + 1..).zip(&log.records);
            let want: Vec<WalRecord> = numbered
                .filter(|&(seq, _)| seq > from_seq)
                .take(max)
                .map(|(seq, op)| op.record(seq))
                .collect();
            match log.tail(from_seq, max) {
                Ok(got) => {
                    proptest::prop_assert!(from_seq >= floor);
                    proptest::prop_assert_eq!(got, (floor + u64::from(len), want));
                }
                Err(e) => {
                    proptest::prop_assert!(from_seq < floor);
                    proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
                }
            }
        }
    }

    #[test]
    fn replication_floor_rises_with_checkpointed_reopen() {
        let dir = scratch_dir("repl-floor");
        let data = points(10, 4, 34);
        let config = cfg();
        {
            let m = MutableIndex::open(&dir, 4, 100, &config).unwrap();
            let ops: Vec<MutationOp> = data.iter().map(insert).collect();
            m.apply_batch(&ops).unwrap();
            assert_eq!(m.replication_floor(), 0, "fresh open retains from the start");
            m.checkpoint().unwrap();
            // A live index keeps its in-memory retention across the
            // checkpoint — connected followers are unaffected.
            assert_eq!(m.replication_tail(0, 100).unwrap().1.len(), 10);
            m.apply_batch(&[MutationOp::Delete { oid: 0 }]).unwrap();
        }
        // A reopen only has the post-checkpoint history.
        let m = MutableIndex::open(&dir, 4, 100, &config).unwrap();
        assert_eq!(m.replication_floor(), 10);
        let err = m.replication_tail(5, 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let (last, tail) = m.replication_tail(10, 100).unwrap();
        assert_eq!((last, tail.len()), (11, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_see_pre_or_post_batch_never_torn() {
        let data = points(200, 6, 4);
        let m = MutableIndex::ephemeral(DynamicIndex::new(6, 400, &cfg()));
        let ops: Vec<MutationOp> = data.iter().map(insert).collect();
        m.apply_batch(&ops).unwrap();
        let q = data.get(11).to_vec();
        let pre = m.query(&q, 3).0;
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let stop = &stop;
            let m = &m;
            let q = &q;
            let pre = &pre;
            for _ in 0..4 {
                s.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let (nn, stats) = m.query(q, 3);
                        // Exactly one of the two published states.
                        if stats.snapshot_seq <= 200 {
                            assert_eq!(&nn, pre, "torn view at seq {}", stats.snapshot_seq);
                        } else {
                            assert_ne!(nn[0].id, 11, "post-batch view must not contain oid 11");
                        }
                    }
                });
            }
            // One mutation batch racing the readers: delete the top
            // answer plus neighbors-of-neighbors, insert replacements.
            let mut batch = vec![MutationOp::Delete { oid: 11 }];
            for v in data.iter().take(20) {
                batch.push(insert(v));
            }
            m.apply_batch(&batch).unwrap();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }

    /// However the same 20 000 points arrive — in 4 096-row batches, one
    /// op a batch, through `from_dataset`, or out of a checkpoint of the
    /// first — the index is the same one: the same checkpoint bytes and
    /// the same answers at the same cost.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "20 000 one-op batches, run by the CI fault-injection job"
    )]
    fn every_way_of_loading_serves_the_same_index() {
        let data = points(20_000, 16, 31);
        let ops: Vec<MutationOp> = data.iter().map(insert).collect();
        let dir = scratch_dir("mutable-shapes");
        let batched = MutableIndex::open(&dir, 16, data.len(), &cfg()).unwrap();
        let single = MutableIndex::ephemeral(DynamicIndex::new(16, data.len(), &cfg()));
        for chunk in ops.chunks(4096) {
            batched.apply_batch(chunk).unwrap();
        }
        for op in ops.chunks(1) {
            single.apply_batch(op).unwrap();
        }
        let built = DynamicIndex::from_dataset(&data, &cfg());
        batched.checkpoint().unwrap();
        let (batched, _) = batched.snapshot();
        let reopened = MutableIndex::open(&dir, 16, data.len(), &cfg()).unwrap();
        assert_eq!(reopened.last_seq(), 20_000);

        let blob = checkpoint_bytes(&batched, 7);
        assert!(blob == checkpoint_bytes(&single.snapshot().0, 7), "one op a batch");
        assert!(blob == checkpoint_bytes(&built, 7), "from_dataset");
        let answers = |index: &DynamicIndex| {
            let asks = (0..16).flat_map(|qi| [(qi, 1), (qi, 10)]);
            asks.map(|(qi, k)| {
                let q: Vec<f32> = data.get(qi * 1237).iter().map(|x| x + 0.25).collect();
                let (nn, s) = index.query(&q, k);
                (nn, s.collisions_counted, s.candidates_verified, s.terminated_by)
            })
            .collect::<Vec<_>>()
        };
        let want = answers(&batched);
        assert_eq!(answers(&single.snapshot().0), want, "one op a batch");
        assert_eq!(answers(&built), want, "from_dataset");
        assert_eq!(answers(&reopened.snapshot().0), want, "checkpoint + reopen");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
