//! Write-ahead log for online index mutations.
//!
//! The dynamic collision-counting index accepts inserts and deletes at
//! run time; a service acknowledging such a write must not lose it to a
//! crash. This module supplies the durability half of that contract: an
//! append-only log of checksummed mutation records where an operation
//! counts as *acknowledged* only once [`Wal::sync`] returned after its
//! [`Wal::append`]. An append frames its record into the log's batch
//! buffer and writes nothing; the next [`Wal::sync`] writes the record
//! bytes of the whole batch with one `write_all` and then fsyncs, so a
//! batch costs one write and one fsync however many records it holds,
//! and a record that was never synced never reaches the file. Replay
//! after a kill at **any** byte offset recovers exactly the prefix of
//! records that made it to disk whole — which is always a superset of
//! the acknowledged prefix — and never panics on a torn or bit-flipped
//! file (pinned by the fault-injection proptests in
//! `crates/core/tests/proptest_persist.rs`).
//!
//! ## On-disk layout (all little-endian)
//!
//! ```text
//! header  8 bytes: magic "CWL1" (u32) | u32 reserved (0)
//! record  u32 len | payload (len bytes) | u32 crc32(payload)
//! payload u64 seq | u8 op | body
//!         op 1 = insert: u32 oid | u32 dim | dim × f32
//!         op 2 = delete: u32 oid
//!         op 3 = insert with metadata:
//!                u32 oid | u64 tag | u32 label | u32 dim | dim × f32
//! ```
//!
//! Op 3 extends op 1 with the point's attribute payload (a tag bitmask
//! plus a label id, the wire shape of `c2lsh::meta::PointMeta`).
//! Appends pick the opcode by content — a zero payload encodes as the
//! original op 1 — so logs written by a metadata-free workload stay
//! byte-identical to the v1 format, and every old `CWL1` log replays
//! unchanged (op 1 decodes with a zero payload).
//!
//! The `"CWL"` prefix of the magic identifies the format family and the
//! trailing byte its version, mirroring the persistence formats of the
//! core crate. Sequence numbers are assigned by the log, start after
//! the caller-provided base (a checkpoint's high-water mark) and
//! increase by exactly one per record; a gap is treated as corruption
//! and ends replay there.
//!
//! ## Replay semantics
//!
//! [`Wal::open`] scans the file front to back. The first record that is
//! truncated, fails its CRC, declares an impossible length, carries an
//! unknown opcode or breaks the sequence chain ends the scan: everything
//! before it is returned, everything from it on is discarded and the
//! file is physically truncated back to the valid prefix so subsequent
//! appends extend a clean log. A record can only be *acknowledged* after
//! an fsync that covered it, so the discarded tail never contains an
//! acknowledged write.
//!
//! [`FailpointFile`] is the matching test harness: it truncates,
//! bit-flips or extends a file at a chosen byte offset, simulating a
//! kill (or a corrupting disk) at that exact point.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub use crate::crc::crc32;

/// Magic word of the WAL format: `"CWL"` family prefix + version byte
/// `'1'`, written little-endian so the file starts with the ASCII bytes
/// `1LWC` reversed into `"CWL1"` when read as a big-endian word.
pub const WAL_MAGIC: u32 = 0x4357_4C31; // "CWL1"
const WAL_MAGIC_PREFIX: u32 = WAL_MAGIC & !0xFF;
/// Size of the file header preceding the first record.
pub const WAL_HEADER_BYTES: u64 = 8;
/// Upper bound on one record's payload (a 1M-dimensional vector fits
/// comfortably); a length word above this is corruption, not data.
pub const MAX_RECORD: usize = 16 << 20;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_INSERT_META: u8 = 3;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A vector was inserted and assigned `oid`. Replay re-inserts and
    /// verifies the store assigns the same id (oid assignment is
    /// deterministic, so a mismatch means the log and store diverged).
    Insert {
        /// Object id the store assigned at append time.
        oid: u32,
        /// The inserted vector.
        vector: Vec<f32>,
        /// Attribute tag bitmask (`PointMeta::tag`); 0 when absent.
        tag: u64,
        /// Attribute label id (`PointMeta::label`); 0 when absent.
        label: u32,
    },
    /// The object with this id was deleted.
    Delete {
        /// Object id that was removed.
        oid: u32,
    },
}

/// A replayed record: the operation plus its log sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotone sequence number assigned at append time.
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records replayed from the valid prefix.
    pub records: usize,
    /// File offset one past the last valid record (= the length the
    /// file was truncated to).
    pub valid_bytes: u64,
    /// Bytes discarded past the valid prefix (torn tail / corruption).
    pub torn_bytes: u64,
    /// Sequence number of the last valid record (0 when none).
    pub last_seq: u64,
}

/// A saved append position: everything [`Wal::rollback`] needs to
/// restore the log to a batch boundary after a failed append or sync.
/// Take one with [`Wal::position`] before the first append of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    len: u64,
    next_seq: u64,
    appended_since_sync: u64,
}

/// An open write-ahead log positioned for appends.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// Header plus every appended record, the ones in `batch` included:
    /// the file holds the first `len - batch.len()` of these bytes.
    len: u64,
    appended_since_sync: u64,
    /// The framed records appended since the last sync, which writes
    /// them; reused from batch to batch.
    batch: Vec<u8>,
    /// Fault injection (test support): after skipping `.0` more
    /// appends, write only `.1` bytes of the next record, then fail.
    fail_append: Option<(u32, usize)>,
    /// Fault injection (test support): fail the next N syncs.
    fail_syncs: u32,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, replay its valid
    /// prefix and truncate any torn tail. `base_seq` is the sequence
    /// number already covered by a checkpoint: an empty log starts
    /// numbering at `base_seq + 1`, and a non-empty log resumes after
    /// its own last valid record.
    ///
    /// A file whose header is damaged (wrong magic) is refused with
    /// [`io::ErrorKind::InvalidData`] rather than silently treated as
    /// empty — wiping a real log over a one-bit header flip would turn
    /// recoverable corruption into data loss.
    pub fn open(
        path: impl AsRef<Path>,
        base_seq: u64,
    ) -> io::Result<(Self, Vec<WalRecord>, ReplayReport)> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let file_len = file.metadata()?.len();

        if file_len < WAL_HEADER_BYTES {
            // Brand new (or the header itself was torn mid-creation,
            // before any record could have been acknowledged): start
            // fresh.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
            header.extend_from_slice(&WAL_MAGIC.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            file.write_all(&header)?;
            file.sync_data()?;
            // A record synced into this log is acknowledged; it must not
            // vanish with a directory entry that never reached the disk.
            let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
            let wal = Wal {
                file,
                path,
                next_seq: base_seq + 1,
                len: WAL_HEADER_BYTES,
                appended_since_sync: 0,
                batch: Vec::new(),
                fail_append: None,
                fail_syncs: 0,
            };
            return Ok((wal, Vec::new(), ReplayReport::default()));
        }

        let mut bytes = Vec::with_capacity(file_len as usize);
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let magic = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        if magic & !0xFF != WAL_MAGIC_PREFIX {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: bad WAL magic {magic:#010x}", path.display()),
            ));
        }
        if magic != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: unsupported WAL version {:?} (this build reads '1')",
                    path.display(),
                    (magic & 0xFF) as u8 as char
                ),
            ));
        }

        let (records, valid_bytes) = scan(&bytes);
        let report = ReplayReport {
            records: records.len(),
            valid_bytes,
            torn_bytes: file_len - valid_bytes,
            last_seq: records.last().map_or(0, |r| r.seq),
        };
        if valid_bytes < file_len {
            file.set_len(valid_bytes)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_bytes))?;
        let next_seq = records.last().map_or(base_seq, |r| r.seq.max(base_seq)) + 1;
        let wal = Wal {
            file,
            path,
            next_seq,
            len: valid_bytes,
            appended_since_sync: 0,
            batch: Vec::new(),
            fail_append: None,
            fail_syncs: 0,
        };
        Ok((wal, records, report))
    }

    /// Append one operation; returns its assigned sequence number. The
    /// record is framed into the batch buffer and its bytes are written
    /// at the next [`Wal::sync`]: it is *not* durable (and must not be
    /// acknowledged) until that sync returns, and it never reaches the
    /// file if the log is dropped or rolled back first.
    pub fn append(&mut self, op: &WalOp) -> io::Result<u64> {
        match op {
            WalOp::Insert { oid, vector, tag, label } => {
                self.append_insert(*oid, vector, *tag, *label)
            }
            WalOp::Delete { oid } => self.append_delete(*oid),
        }
    }

    /// [`Wal::append`] of a [`WalOp::Insert`] whose vector the caller
    /// keeps.
    pub fn append_insert(
        &mut self,
        oid: u32,
        vector: &[f32],
        tag: u64,
        label: u32,
    ) -> io::Result<u64> {
        let plain = tag == 0 && label == 0;
        let start = self.begin_record(if plain { OP_INSERT } else { OP_INSERT_META }, oid);
        let batch = &mut self.batch;
        if !plain {
            batch.extend_from_slice(&tag.to_le_bytes());
            batch.extend_from_slice(&label.to_le_bytes());
        }
        batch.extend_from_slice(&(vector.len() as u32).to_le_bytes());
        let at = batch.len();
        batch.resize(at + 4 * vector.len(), 0);
        for (bytes, x) in batch[at..].chunks_exact_mut(4).zip(vector) {
            bytes.copy_from_slice(&x.to_le_bytes());
        }
        self.end_record(start)
    }

    /// [`Wal::append`] of a [`WalOp::Delete`].
    pub fn append_delete(&mut self, oid: u32) -> io::Result<u64> {
        let start = self.begin_record(OP_DELETE, oid);
        self.end_record(start)
    }

    /// Start the next record at the end of the batch buffer: a place for
    /// the length word, the sequence number, the opcode and the object
    /// id. Returns where the record starts.
    fn begin_record(&mut self, opcode: u8, oid: u32) -> usize {
        let (start, batch) = (self.batch.len(), &mut self.batch);
        batch.extend_from_slice(&[0; 4]); // the length word, known once the payload is
        batch.extend_from_slice(&self.next_seq.to_le_bytes());
        batch.push(opcode);
        batch.extend_from_slice(&oid.to_le_bytes());
        start
    }

    /// Frame the record begun at `start` by [`Wal::begin_record`] —
    /// length word in front, checksum behind; returns its sequence
    /// number.
    fn end_record(&mut self, start: usize) -> io::Result<u64> {
        let (seq, batch) = (self.next_seq, &mut self.batch);
        let payload = batch.len() - start - 4;
        debug_assert!(payload <= MAX_RECORD);
        batch[start..start + 4].copy_from_slice(&(payload as u32).to_le_bytes());
        let crc = crc32(&batch[start + 4..]);
        batch.extend_from_slice(&crc.to_le_bytes());
        match self.fail_append {
            Some((0, partial)) => {
                // Injected short write: the batch's earlier records and
                // some bytes of this one land in the file, the length/seq
                // bookkeeping does not advance past the earlier records —
                // exactly the state a real mid-record write failure
                // (ENOSPC) leaves.
                self.fail_append = None;
                let torn = start + partial.min(batch.len() - start);
                let written = self.file.write_all(&batch[..torn]);
                batch.clear();
                written?;
                return Err(io::Error::other("injected append failure"));
            }
            Some((skip, partial)) => self.fail_append = Some((skip - 1, partial)),
            None => {}
        }
        self.len += (batch.len() - start) as u64;
        self.next_seq += 1;
        self.appended_since_sync += 1;
        Ok(seq)
    }

    /// Write the batch's records with one `write_all` and make every
    /// appended record durable (fsync). Returns the number of records
    /// this sync covered — the group-commit size. After a failure the
    /// file may hold part of the batch: [`Wal::rollback`] to the batch's
    /// position before appending again.
    pub fn sync(&mut self) -> io::Result<u64> {
        if !self.batch.is_empty() {
            let written = self.file.write_all(&self.batch);
            self.batch.clear();
            written?;
        }
        self.sync_inner()?;
        Ok(std::mem::take(&mut self.appended_since_sync))
    }

    fn sync_inner(&mut self) -> io::Result<()> {
        if self.fail_syncs > 0 {
            self.fail_syncs -= 1;
            return Err(io::Error::other("injected sync failure"));
        }
        self.file.sync_data()
    }

    /// The current append position. Take one before a batch's first
    /// append so a failure anywhere in the batch can [`Wal::rollback`]
    /// to this boundary.
    pub fn position(&self) -> WalPosition {
        WalPosition {
            len: self.len,
            next_seq: self.next_seq,
            appended_since_sync: self.appended_since_sync,
        }
    }

    /// Restore the log — file length, write offset, batch buffer,
    /// sequence numbering — to a previously captured [`WalPosition`],
    /// physically discarding every byte appended after it. This is the
    /// recovery path for a failed append or sync mid-batch: a short
    /// write leaves partial record bytes in the file (and a failed
    /// `write_all` leaves the file position wherever it died), and later
    /// appends on top of that garbage would be silently discarded by the
    /// next replay. Truncating back to the batch boundary keeps the
    /// log's valid prefix equal to its acknowledged history.
    pub fn rollback(&mut self, pos: WalPosition) -> io::Result<()> {
        // Records after `pos` that are still in the buffer are dropped
        // with it; the file keeps at most the bytes before `pos`.
        let on_disk = (self.len - self.batch.len() as u64).min(pos.len);
        self.batch.truncate((pos.len - on_disk) as usize);
        self.file.set_len(on_disk)?;
        // Make the truncation itself durable: if the partial bytes had
        // already reached the platter, a crash right after an unsynced
        // set_len could resurrect them behind acknowledged appends.
        self.sync_inner()?;
        self.file.seek(SeekFrom::Start(on_disk))?;
        self.len = pos.len;
        self.next_seq = pos.next_seq;
        self.appended_since_sync = pos.appended_since_sync;
        Ok(())
    }

    /// Fault injection (test support, like [`FailpointFile`]): after
    /// `skip` more successful appends, the following [`Wal::append`]
    /// writes only the first `partial_bytes` bytes of its record and
    /// then fails — ENOSPC / a short write, placeable mid-batch.
    pub fn inject_append_failure(&mut self, skip: u32, partial_bytes: usize) {
        self.fail_append = Some((skip, partial_bytes));
    }

    /// Fault injection (test support): fail the next `n` fsyncs —
    /// including the one inside [`Wal::rollback`], so two injected
    /// failures exercise the can't-even-roll-back path.
    pub fn inject_sync_failures(&mut self, n: u32) {
        self.fail_syncs = n;
    }

    /// Truncate the log back to an empty (header-only) state after a
    /// checkpoint made its contents redundant, unsynced records
    /// included. Sequence numbering continues — the checkpoint records
    /// the high-water mark.
    pub fn reset(&mut self) -> io::Result<()> {
        self.batch.clear();
        self.file.set_len(WAL_HEADER_BYTES)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_BYTES))?;
        self.len = WAL_HEADER_BYTES;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Sequence number the next [`Wal::append`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Size of the log in bytes: header plus appended records, whether
    /// or not they are synced (and so written) yet.
    pub fn size_bytes(&self) -> u64 {
        self.len
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Scan `bytes` (starting after the header) for valid records; returns
/// them plus the offset one past the last valid record.
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut at = WAL_HEADER_BYTES as usize;
    let mut expect_seq: Option<u64> = None;
    while let Some(len_bytes) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        if !(9..=MAX_RECORD).contains(&len) {
            break; // impossible payload: torn or corrupt length word
        }
        let Some(payload) = bytes.get(at + 4..at + 4 + len) else { break };
        let Some(crc_bytes) = bytes.get(at + 4 + len..at + 8 + len) else { break };
        if crc32(payload) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
            break;
        }
        let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
        if let Some(want) = expect_seq {
            if seq != want {
                break; // sequence gap: the chain is broken here
            }
        }
        let Some(op) = decode_op(&payload[8..]) else { break };
        records.push(WalRecord { seq, op });
        expect_seq = Some(seq + 1);
        at += 8 + len;
    }
    (records, at as u64)
}

fn decode_op(body: &[u8]) -> Option<WalOp> {
    match *body.first()? {
        OP_INSERT => {
            let oid = u32::from_le_bytes(body.get(1..5)?.try_into().unwrap());
            let dim = u32::from_le_bytes(body.get(5..9)?.try_into().unwrap()) as usize;
            let raw = body.get(9..)?;
            if raw.len() != dim * 4 {
                return None;
            }
            let vector =
                raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
            Some(WalOp::Insert { oid, vector, tag: 0, label: 0 })
        }
        OP_INSERT_META => {
            let oid = u32::from_le_bytes(body.get(1..5)?.try_into().unwrap());
            let tag = u64::from_le_bytes(body.get(5..13)?.try_into().unwrap());
            let label = u32::from_le_bytes(body.get(13..17)?.try_into().unwrap());
            let dim = u32::from_le_bytes(body.get(17..21)?.try_into().unwrap()) as usize;
            let raw = body.get(21..)?;
            if raw.len() != dim * 4 {
                return None;
            }
            let vector =
                raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
            Some(WalOp::Insert { oid, vector, tag, label })
        }
        OP_DELETE => {
            if body.len() != 5 {
                return None;
            }
            let oid = u32::from_le_bytes(body[1..5].try_into().unwrap());
            Some(WalOp::Delete { oid })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Fault-injection test support
// ---------------------------------------------------------------------------

/// Fault injector over a file path: simulate a kill or a corrupting
/// disk at an exact byte offset. Test support for the WAL recovery
/// suites (kept in the library, not behind `cfg(test)`, so downstream
/// crates' integration tests can drive it too).
#[derive(Debug, Clone)]
pub struct FailpointFile {
    path: PathBuf,
}

impl FailpointFile {
    /// Wrap the file at `path` (which must already exist for the fault
    /// methods to succeed).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// Current file size in bytes.
    pub fn size_bytes(&self) -> io::Result<u64> {
        Ok(std::fs::metadata(&self.path)?.len())
    }

    /// Cut the file to exactly `offset` bytes — the state a kill
    /// mid-write leaves behind.
    pub fn truncate_at(&self, offset: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(offset)?;
        file.sync_data()
    }

    /// Flip bit `bit` (0–7) of the byte at `offset` — silent media
    /// corruption under a checksum's nose.
    pub fn flip_bit(&self, offset: u64, bit: u8) -> io::Result<()> {
        assert!(bit < 8, "bit index out of range");
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        if offset >= file.metadata()?.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "flip offset past end of file",
            ));
        }
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut byte)?;
        byte[0] ^= 1 << bit;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(&byte)?;
        file.sync_data()
    }

    /// Append raw bytes past the current end — the torn half-record a
    /// kill between `write` and `fsync` can leave.
    pub fn append_garbage(&self, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().append(true).open(&self.path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }
}

/// A fresh scratch directory for fault-injection artifacts: under
/// `$CC_FAULT_DIR` when set (CI points this at a path it uploads on
/// failure, so surviving WAL dumps become debuggable artifacts), else
/// under the system temp dir. Unique per call; the caller owns cleanup
/// (tests remove it on success and leave it behind on failure).
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let base =
        std::env::var_os("CC_FAULT_DIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let unique =
        format!("cc-wal-{tag}-{}-{}", std::process::id(), COUNTER.fetch_add(1, Ordering::Relaxed));
    let dir = base.join(unique);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops(n: usize) -> Vec<WalOp> {
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    WalOp::Delete { oid: (i / 3) as u32 }
                } else {
                    WalOp::Insert {
                        oid: i as u32,
                        vector: (0..4).map(|d| (i * 4 + d) as f32 * 0.5).collect(),
                        tag: if i % 2 == 0 { 0 } else { 1 << (i % 64) },
                        label: (i % 2) as u32 * 7,
                    }
                }
            })
            .collect()
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("wal.log");
        let ops = sample_ops(9);
        {
            let (mut wal, replayed, report) = Wal::open(&path, 0).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(report, ReplayReport::default());
            for (i, op) in ops.iter().enumerate() {
                assert_eq!(wal.append(op).unwrap(), i as u64 + 1);
            }
            assert_eq!(wal.sync().unwrap(), 9, "group commit covered all appends");
        }
        let (wal, replayed, report) = Wal::open(&path, 0).unwrap();
        assert_eq!(replayed.len(), 9);
        assert_eq!(report.records, 9);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.last_seq, 9);
        for (i, rec) in replayed.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(&rec.op, &ops[i]);
        }
        assert_eq!(wal.next_seq(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_offset_recovers_a_prefix() {
        let dir = scratch_dir("cut");
        let path = dir.join("wal.log");
        let ops = sample_ops(6);
        // Record the file size after each synced append: the boundaries
        // at which a record becomes durable.
        let mut boundaries = vec![WAL_HEADER_BYTES];
        {
            let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
                wal.sync().unwrap();
                boundaries.push(wal.size_bytes());
            }
        }
        let full = *boundaries.last().unwrap();
        for cut in 0..=full {
            std::fs::copy(&path, dir.join("cut.log")).unwrap();
            let fp = FailpointFile::new(dir.join("cut.log"));
            fp.truncate_at(cut).unwrap();
            let expect = boundaries.iter().filter(|&&b| b > WAL_HEADER_BYTES && b <= cut).count();
            if cut < WAL_HEADER_BYTES {
                // Header torn: open() starts a fresh log.
                let (_, replayed, _) = Wal::open(dir.join("cut.log"), 0).unwrap();
                assert!(replayed.is_empty(), "cut at {cut}");
            } else {
                let (_, replayed, report) = Wal::open(dir.join("cut.log"), 0).unwrap();
                assert_eq!(replayed.len(), expect, "cut at {cut}");
                assert_eq!(report.torn_bytes, cut - report.valid_bytes, "cut at {cut}");
                for (i, rec) in replayed.iter().enumerate() {
                    assert_eq!(&rec.op, &ops[i], "cut at {cut}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_ends_replay_before_the_damaged_record() {
        let dir = scratch_dir("flip");
        let path = dir.join("wal.log");
        let ops = sample_ops(5);
        let mut boundaries = vec![WAL_HEADER_BYTES];
        {
            let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
                wal.sync().unwrap();
                boundaries.push(wal.size_bytes());
            }
        }
        let full = *boundaries.last().unwrap();
        for offset in WAL_HEADER_BYTES..full {
            std::fs::copy(&path, dir.join("flip.log")).unwrap();
            let fp = FailpointFile::new(dir.join("flip.log"));
            fp.flip_bit(offset, (offset % 8) as u8).unwrap();
            // The record containing the flipped byte (and everything
            // after it) must vanish; everything before survives intact.
            let damaged = boundaries.iter().filter(|&&b| b <= offset).count() - 1;
            let (_, replayed, _) = Wal::open(dir.join("flip.log"), 0).unwrap();
            assert_eq!(replayed.len(), damaged, "flip at {offset}");
            for (i, rec) in replayed.iter().enumerate() {
                assert_eq!(&rec.op, &ops[i], "flip at {offset}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_bit_flip_is_an_explicit_error() {
        let dir = scratch_dir("header");
        let path = dir.join("wal.log");
        {
            let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
            wal.append(&WalOp::Delete { oid: 1 }).unwrap();
            wal.sync().unwrap();
        }
        FailpointFile::new(&path).flip_bit(1, 3).unwrap();
        let err = Wal::open(&path, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_garbage_tail_is_discarded_and_log_stays_appendable() {
        let dir = scratch_dir("tail");
        let path = dir.join("wal.log");
        {
            let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
            for op in sample_ops(3).iter() {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
        }
        FailpointFile::new(&path).append_garbage(&[0xAB; 13]).unwrap();
        let (mut wal, replayed, report) = Wal::open(&path, 0).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(report.torn_bytes, 13);
        // The log is clean again: append + reopen sees 4 records.
        assert_eq!(wal.append(&WalOp::Delete { oid: 9 }).unwrap(), 4);
        wal.sync().unwrap();
        drop(wal);
        let (_, replayed, _) = Wal::open(&path, 0).unwrap();
        assert_eq!(replayed.len(), 4);
        assert_eq!(replayed[3].op, WalOp::Delete { oid: 9 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_keeps_sequence_numbering() {
        let dir = scratch_dir("reset");
        let path = dir.join("wal.log");
        let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
        for op in sample_ops(4).iter() {
            wal.append(op).unwrap();
        }
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.size_bytes(), WAL_HEADER_BYTES);
        assert_eq!(wal.append(&WalOp::Delete { oid: 0 }).unwrap(), 5);
        wal.sync().unwrap();
        drop(wal);
        // A checkpoint at seq 4 plus the reset log replays just seq 5.
        let (wal, replayed, _) = Wal::open(&path, 4).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].seq, 5);
        assert_eq!(wal.next_seq(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn base_seq_numbers_an_empty_log() {
        let dir = scratch_dir("base");
        let (mut wal, _, _) = Wal::open(dir.join("wal.log"), 41).unwrap();
        assert_eq!(wal.next_seq(), 42);
        assert_eq!(wal.append(&WalOp::Delete { oid: 7 }).unwrap(), 42);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_after_failed_append_restores_the_batch_boundary() {
        let dir = scratch_dir("rollback");
        let path = dir.join("wal.log");
        let ops = sample_ops(4);
        {
            let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
            wal.append(&ops[0]).unwrap();
            wal.sync().unwrap();
            // Batch of two: first append lands, second dies mid-record.
            let pos = wal.position();
            wal.inject_append_failure(1, 7);
            wal.append(&ops[1]).unwrap();
            let err = wal.append(&ops[2]).unwrap_err();
            assert_eq!(err.to_string(), "injected append failure");
            wal.rollback(pos).unwrap();
            assert_eq!(wal.size_bytes(), pos.len);
            // The log is clean again: the next batch appends and is
            // numbered as if the failed one never happened.
            assert_eq!(wal.append(&ops[3]).unwrap(), 2);
            wal.sync().unwrap();
        }
        let (_, replayed, report) = Wal::open(&path, 0).unwrap();
        assert_eq!(report.torn_bytes, 0, "no garbage left behind the rollback");
        assert_eq!(replayed.len(), 2);
        assert_eq!(&replayed[0].op, &ops[0]);
        assert_eq!(&replayed[1].op, &ops[3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn without_rollback_a_failed_append_poisons_later_records() {
        // Documents the failure mode rollback exists to prevent: append
        // after a torn record and replay silently drops the later
        // (fully written, synced) record.
        let dir = scratch_dir("poisoned");
        let path = dir.join("wal.log");
        let ops = sample_ops(3);
        {
            let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
            wal.inject_append_failure(0, 5);
            wal.append(&ops[0]).unwrap_err();
            wal.append(&ops[1]).unwrap();
            wal.sync().unwrap();
        }
        let (_, replayed, report) = Wal::open(&path, 0).unwrap();
        assert!(replayed.is_empty(), "the record behind the garbage is unreachable");
        assert!(report.torn_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_sync_failures_count_down() {
        let dir = scratch_dir("sync-fail");
        let (mut wal, _, _) = Wal::open(dir.join("wal.log"), 0).unwrap();
        wal.append(&WalOp::Delete { oid: 1 }).unwrap();
        wal.inject_sync_failures(1);
        wal.sync().unwrap_err();
        assert_eq!(wal.sync().unwrap(), 1, "the retry syncs the still-pending record");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_and_plain_inserts_roundtrip_together() {
        let dir = scratch_dir("meta-roundtrip");
        let path = dir.join("wal.log");
        let ops = vec![
            WalOp::Insert { oid: 0, vector: vec![1.0, 2.0], tag: 0, label: 0 },
            WalOp::Insert { oid: 1, vector: vec![3.0, 4.0], tag: 0xDEAD_BEEF, label: 42 },
            WalOp::Insert { oid: 2, vector: vec![5.0, 6.0], tag: 0, label: 9 },
            WalOp::Delete { oid: 1 },
            WalOp::Insert { oid: 3, vector: vec![7.0, 8.0], tag: u64::MAX, label: u32::MAX },
        ];
        {
            let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, replayed, report) = Wal::open(&path, 0).unwrap();
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(replayed.len(), ops.len());
        for (rec, op) in replayed.iter().zip(&ops) {
            assert_eq!(&rec.op, op);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_format_insert_records_replay_with_zero_meta() {
        // Hand-encode an op-1 record exactly as a pre-metadata build
        // wrote it and confirm this build replays it (zero payload).
        let dir = scratch_dir("old-insert");
        let path = dir.join("wal.log");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // seq
        payload.push(OP_INSERT);
        payload.extend_from_slice(&0u32.to_le_bytes()); // oid
        payload.extend_from_slice(&2u32.to_le_bytes()); // dim
        payload.extend_from_slice(&1.5f32.to_le_bytes());
        payload.extend_from_slice(&(-2.5f32).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, replayed, report) = Wal::open(&path, 0).unwrap();
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(replayed.len(), 1);
        assert_eq!(
            replayed[0].op,
            WalOp::Insert { oid: 0, vector: vec![1.5, -2.5], tag: 0, label: 0 }
        );
        // A zero-meta append on this build reproduces the v1 encoding
        // bit-for-bit (same opcode, same body), keeping mixed logs
        // readable by both.
        let before = wal.size_bytes();
        wal.append(&WalOp::Insert { oid: 1, vector: vec![1.5, -2.5], tag: 0, label: 0 }).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.size_bytes() - before, (8 + payload.len()) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The log bytes of a fixed history holding one record of every
    /// opcode, pinned while `append` still built a payload `Vec` and a
    /// record `Vec` per call. However a record is assembled, these are
    /// the bytes a log holds: a file written by any earlier build *is*
    /// the file checked here, and `wal.bytes_per_insert` is a reported
    /// figure.
    #[test]
    fn golden_log_bytes() {
        /// 64-bit FNV-1a, enough to pin a file without checking it in.
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        }
        let dir = scratch_dir("golden");
        let path = dir.join("wal.log");
        let vector = |a: f32| (0..16).map(|d| a + d as f32 * 0.25).collect::<Vec<f32>>();
        let (mut wal, _, _) = Wal::open(&path, 7).unwrap();
        wal.append(&WalOp::Insert { oid: 0, vector: vector(1.0), tag: 0, label: 0 }).unwrap();
        wal.append(&WalOp::Insert { oid: 1, vector: vector(-2.5), tag: 0xDEAD_BEEF, label: 42 })
            .unwrap();
        wal.append(&WalOp::Delete { oid: 0 }).unwrap();
        assert_eq!(wal.sync().unwrap(), 3);
        wal.append(&WalOp::Insert { oid: 2, vector: vector(0.125), tag: 0, label: 0 }).unwrap();
        assert_eq!(wal.sync().unwrap(), 1);
        let bytes = std::fs::read(&path).unwrap();
        // Per record: length word, seq, opcode, body, CRC.
        let (plain, meta, delete) =
            (4 + 8 + 1 + 8 + 64 + 4, 4 + 8 + 1 + 20 + 64 + 4, 4 + 8 + 1 + 4 + 4);
        assert_eq!(bytes.len(), WAL_HEADER_BYTES as usize + 2 * plain + meta + delete);
        assert_eq!(wal.size_bytes(), bytes.len() as u64);
        assert_eq!(fnv1a(&bytes), 11_059_117_134_712_632_751, "log bytes moved");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A kill between a batch's appends: whatever prefix of the batch's
    /// bytes reached the file, replay returns every synced record and
    /// then whole records of the batch only, in seq order.
    #[test]
    fn kill_between_appends_replays_synced_and_whole_appended_records() {
        let dir = scratch_dir("kill-mid-batch");
        let path = dir.join("wal.log");
        let ops = sample_ops(7);
        let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
        for op in &ops[..3] {
            wal.append(op).unwrap();
        }
        assert_eq!(wal.sync().unwrap(), 3);
        let synced = wal.size_bytes() as usize;
        for op in &ops[3..] {
            wal.append(op).unwrap();
        }
        // The kill: the file as it is now, cut anywhere past the synced
        // records.
        let killed = std::fs::read(&path).unwrap();
        assert!(killed.len() >= synced);
        for cut in synced..=killed.len() {
            std::fs::write(dir.join("killed.log"), &killed[..cut]).unwrap();
            let (_, replayed, report) = Wal::open(dir.join("killed.log"), 0).unwrap();
            assert!((3..=ops.len()).contains(&replayed.len()), "cut at {cut}");
            for (i, rec) in replayed.iter().enumerate() {
                assert_eq!((rec.seq, &rec.op), (i as u64 + 1, &ops[i]), "cut at {cut}");
            }
            assert_eq!(report.valid_bytes + report.torn_bytes, cut as u64);
        }
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Appended records wait in the batch buffer: the file grows by the
    /// whole batch at its sync, and a record never synced never reaches
    /// the file, however the log is left — dropped, rolled back or reset.
    #[test]
    fn unsynced_bytes_never_reach_the_file() {
        let dir = scratch_dir("unsynced");
        let path = dir.join("wal.log");
        let on_disk = || std::fs::metadata(&path).unwrap().len();
        let ops = sample_ops(6);
        let (mut wal, _, _) = Wal::open(&path, 0).unwrap();
        wal.append(&ops[0]).unwrap();
        wal.append(&ops[1]).unwrap();
        assert_eq!(on_disk(), WAL_HEADER_BYTES, "an append writes nothing");
        assert!(wal.size_bytes() > WAL_HEADER_BYTES, "but the log counts it");
        assert_eq!(wal.sync().unwrap(), 2);
        assert_eq!(on_disk(), wal.size_bytes(), "the sync wrote the batch");

        let pos = wal.position();
        wal.append(&ops[2]).unwrap();
        wal.rollback(pos).unwrap();
        assert_eq!((on_disk(), wal.size_bytes()), (pos.len, pos.len));
        wal.append(&ops[3]).unwrap();
        wal.reset().unwrap();
        assert_eq!(on_disk(), WAL_HEADER_BYTES);
        wal.append(&ops[4]).unwrap();
        assert_eq!(wal.sync().unwrap(), 1);
        let reset = wal.size_bytes();
        assert_eq!(on_disk(), reset);
        wal.append(&ops[5]).unwrap();
        drop(wal);
        assert_eq!(on_disk(), reset, "dropped before its sync");
        let (_, replayed, report) = Wal::open(&path, 0).unwrap();
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(replayed.len(), 1);
        assert_eq!(
            (replayed[0].seq, &replayed[0].op),
            (4, &ops[4]),
            "after 2, a rollback and a reset"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    use crate::crc::crc32_tables;

    /// The one-byte-per-step loop `crc32` replaced, kept as its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const T: [[u32; 256]; 8] = crc32_tables();
        !bytes.iter().fold(!0u32, |crc, &b| (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize])
    }

    proptest::proptest! {
        /// Any length a page or record can have, starting at every
        /// offset into an eight-byte word.
        #[test]
        fn crc32_matches_bytewise_loop(
            raw in proptest::collection::vec(0u16..256, 4_108),
            len in 0usize..4_101,
        ) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            for start in 0..8 {
                let slice = &bytes[start..start + len];
                proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "start {}", start);
            }
        }
    }
}
