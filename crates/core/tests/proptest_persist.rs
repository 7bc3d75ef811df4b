//! Property tests for the checkpoint and crash recovery.
//!
//! A WAL-backed [`MutableIndex`] killed at *any* byte offset of its log
//! recovers exactly the acknowledged prefix of mutations — never a torn
//! record, never a reordering, and (when the kill falls on a record
//! boundary or beyond) never a lost ack. A checkpoint round-trips any
//! mutation history, and a malformed checkpoint — arbitrary garbage, a
//! crafted head — is refused at open with `InvalidData`, never a panic
//! or an abort.

use c2lsh::mutable::CHECKPOINT_FILE;
use c2lsh::{C2lshConfig, DynamicIndex, MutableIndex, MutationAck, MutationOp, PointMeta};
use cc_storage::wal::scratch_dir;
use cc_storage::FailpointFile;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Crash consistency: WAL-backed MutableIndex vs kill-at-any-offset.
// ---------------------------------------------------------------------------

/// A randomized mutation script: `(kind, payload)` where `kind == 0`
/// is a delete aimed at `payload % (ids assigned so far + 1)` — it may
/// hit a live object, an already-deleted one, or the not-yet-assigned
/// id bound — and any other kind is an insert whose vector is derived
/// deterministically from `payload`.
fn mutation_script() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..4, 0u64..1_000_000), 1..48)
}

/// Expand a script into concrete ops for an index of dimension `dim`.
fn materialize(script: &[(u8, u64)], dim: usize) -> Vec<MutationOp> {
    let mut ops = Vec::with_capacity(script.len());
    let mut inserted = 0u64;
    for &(kind, payload) in script {
        if kind == 0 {
            ops.push(MutationOp::Delete { oid: (payload % (inserted + 1)) as u32 });
        } else {
            let mut s = payload.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(inserted);
            let vector = (0..dim)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((s >> 40) as f32) / 1000.0
                })
                .collect();
            // Roughly half the inserts carry a non-default payload, so
            // both WAL insert opcodes appear in every recovered log.
            let meta = if payload % 2 == 0 {
                PointMeta::default()
            } else {
                PointMeta::new(payload | 1, (payload >> 3) as u32)
            };
            ops.push(MutationOp::Insert { vector, meta });
            inserted += 1;
        }
    }
    ops
}

/// On-disk size of the WAL record a logged op produces:
/// `u32 len | u64 seq | u8 op | body | u32 crc`.
fn record_bytes(op: &MutationOp) -> u64 {
    match op {
        // op 1 body: u32 oid | u32 dim | dim × f32
        MutationOp::Insert { vector, meta } if *meta == PointMeta::default() => {
            4 + 8 + 1 + 4 + 4 + 4 * vector.len() as u64 + 4
        }
        // op 3 body: u32 oid | u64 tag | u32 label | u32 dim | dim × f32
        MutationOp::Insert { vector, .. } => 4 + 8 + 1 + 4 + 12 + 4 + 4 * vector.len() as u64 + 4,
        // body: u32 oid
        MutationOp::Delete { .. } => 4 + 8 + 1 + 4 + 4,
    }
}

fn dyn_cfg(seed: u64) -> C2lshConfig {
    C2lshConfig::builder().bucket_width(1.0).seed(seed).build()
}

const EXPECTED_N: usize = 64;

/// Apply `ops` in acked batches against a durable [`MutableIndex`] in
/// `dir`, returning the sub-sequence of ops that produced WAL records
/// (inserts and *found* deletes — misses are acked but never logged).
fn run_acked(
    dir: &std::path::Path,
    dim: usize,
    cfg: &C2lshConfig,
    ops: &[MutationOp],
) -> Vec<MutationOp> {
    let index = MutableIndex::open(dir, dim, EXPECTED_N, cfg).unwrap();
    let mut logged = Vec::new();
    for chunk in ops.chunks(5) {
        let (acks, _) = index.apply_batch(chunk).unwrap();
        for (op, ack) in chunk.iter().zip(&acks) {
            match ack {
                MutationAck::Inserted { .. } => logged.push(op.clone()),
                MutationAck::Deleted { found: true, .. } => logged.push(op.clone()),
                MutationAck::Deleted { found: false, .. } => {}
            }
        }
    }
    logged
}

/// The reference state after replaying the first `k` logged ops onto a
/// fresh index: slot-for-slot what recovery must reconstruct.
fn reference_after(dim: usize, cfg: &C2lshConfig, logged: &[MutationOp], k: usize) -> DynamicIndex {
    let mut reference = DynamicIndex::new(dim, EXPECTED_N, cfg);
    for op in &logged[..k] {
        match op {
            MutationOp::Insert { vector, meta } => {
                reference.insert_with_meta(vector.clone(), *meta);
            }
            MutationOp::Delete { oid } => {
                assert!(reference.delete(*oid), "logged deletes always hit on prefix replay");
            }
        }
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE crash-safety property: acknowledge a random mutation history,
    /// kill the process (drop), cut the log at an arbitrary byte offset,
    /// and recovery must land on *exactly* the prefix of logged records
    /// that fit entirely before the cut — computed independently from
    /// the wire-format record sizes, not trusted from the recovered
    /// index.
    #[test]
    fn wal_cut_at_any_offset_recovers_exactly_the_acked_prefix(
        script in mutation_script(),
        dim in 2usize..5,
        seed in 0u64..50,
        cut_sel in 0u64..1_000_000,
    ) {
        let dir = scratch_dir("core-wal-cut");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = dyn_cfg(seed);
        let ops = materialize(&script, dim);
        let logged = run_acked(&dir, dim, &cfg, &ops);

        let wal = FailpointFile::new(dir.join(c2lsh::mutable::WAL_FILE));
        let size = wal.size_bytes().unwrap();
        let total: u64 = cc_storage::wal::WAL_HEADER_BYTES
            + logged.iter().map(record_bytes).sum::<u64>();
        prop_assert_eq!(size, total, "every logged record is exactly its framed size");

        let cut = cut_sel % (size + 1);
        wal.truncate_at(cut).unwrap();

        // Expected surviving prefix: records wholly before the cut.
        let mut offset = cc_storage::wal::WAL_HEADER_BYTES;
        let mut expect_k = 0usize;
        for op in &logged {
            offset += record_bytes(op);
            if offset > cut {
                break;
            }
            expect_k += 1;
        }

        let recovered = MutableIndex::open(&dir, dim, EXPECTED_N, &cfg).unwrap();
        prop_assert_eq!(recovered.last_seq(), expect_k as u64,
            "sequence numbers are dense, so last_seq is the prefix length");
        if cut == size {
            prop_assert_eq!(expect_k, logged.len(), "an on-boundary kill loses nothing acked");
        }
        let reference = reference_after(dim, &cfg, &logged, expect_k);
        let (snap, snap_seq) = recovered.snapshot();
        prop_assert_eq!(snap_seq, expect_k as u64);
        prop_assert_eq!(snap.slots(), reference.slots(),
            "recovered object slots must match the acked prefix exactly");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A single flipped bit anywhere in the log must never panic, never
    /// invent state: either open fails loudly (header damage) or it
    /// recovers some prefix of the logged history — verified
    /// slot-for-slot against an independent replay.
    #[test]
    fn wal_bit_flip_recovers_a_prefix_or_fails_loudly(
        script in mutation_script(),
        dim in 2usize..5,
        flip_sel in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let dir = scratch_dir("core-wal-flip");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = dyn_cfg(11);
        let ops = materialize(&script, dim);
        let logged = run_acked(&dir, dim, &cfg, &ops);

        let wal = FailpointFile::new(dir.join(c2lsh::mutable::WAL_FILE));
        let size = wal.size_bytes().unwrap();
        wal.flip_bit(flip_sel % size, bit).unwrap();

        match MutableIndex::open(&dir, dim, EXPECTED_N, &cfg) {
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            Ok(recovered) => {
                let k = recovered.last_seq() as usize;
                prop_assert!(k <= logged.len(), "recovery can only shrink the history");
                let reference = reference_after(dim, &cfg, &logged, k);
                let (snap, _) = recovered.snapshot();
                prop_assert_eq!(snap.slots(), reference.slots());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Checkpoint round-trip under a random mutation history: a reopen
    /// from the checkpoint alone restores the slots, their metadata, the
    /// id assignment and the sequence number.
    #[test]
    fn dynamic_checkpoint_round_trips_any_mutation_history(
        script in mutation_script(),
        dim in 2usize..6,
        seed in 0u64..50,
    ) {
        let dir = scratch_dir("core-ckpt-roundtrip");
        let cfg = dyn_cfg(seed);
        let ops = materialize(&script, dim);
        let saved = MutableIndex::open(&dir, dim, EXPECTED_N, &cfg).unwrap();
        for chunk in ops.chunks(5) {
            saved.apply_batch(chunk).unwrap();
        }
        saved.checkpoint().unwrap();
        let (index, seq) = saved.snapshot();
        drop(saved);
        let reopened = MutableIndex::open(&dir, dim, EXPECTED_N, &cfg).unwrap();
        let (loaded, loaded_seq) = reopened.snapshot();
        prop_assert_eq!(loaded_seq, seq);
        prop_assert_eq!(loaded.slots(), index.slots());
        prop_assert_eq!(loaded.len(), index.len());
        // Live slots keep their payloads; tombstones restore default.
        for (i, (slot, meta)) in index.slots().iter().zip(index.meta_slots().iter()).enumerate() {
            let want = if slot.is_some() { *meta } else { PointMeta::default() };
            prop_assert_eq!(loaded.meta_slots().get(i), Some(&want), "slot {}", i);
        }
        if !index.is_empty() {
            let q = index.slots().iter().flatten().next().unwrap();
            let (a, _) = index.query(q, 3);
            let (b, _) = loaded.query(q, 3);
            prop_assert_eq!(a, b, "queries agree after a checkpoint round-trip");
        }
        // The next insert is assigned the id the saved index would give.
        let (acks, _) = reopened.apply_batch(&[MutationOp::Insert {
            vector: vec![0.5; dim],
            meta: PointMeta::default(),
        }]).unwrap();
        prop_assert_eq!(acks[0], MutationAck::Inserted { oid: index.slots().len() as u32, seq: seq + 1 });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary garbage in place of a checkpoint is refused at open,
    /// never a panic and never an empty index.
    #[test]
    fn dynamic_garbage_never_panics(
        garbage in proptest::collection::vec(0u8..255, 0..256),
    ) {
        let dir = scratch_dir("core-ckpt-garbage");
        std::fs::write(dir.join(CHECKPOINT_FILE), &garbage).unwrap();
        let err = MutableIndex::open(&dir, 4, EXPECTED_N, &dyn_cfg(1)).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A valid checkpoint whose head's `dim` word reads `u32::MAX`, its CRC
/// fixed up: sized from that word, loading would ask for 16 GiB per
/// vector and abort. Refused at open with zero live slots and with one,
/// before anything is sized from the word.
#[test]
fn crafted_checkpoint_header_is_refused_without_allocating() {
    let cfg = dyn_cfg(5);
    for live in [0, 1] {
        let dir = scratch_dir("core-ckpt-crafted");
        {
            let index = MutableIndex::open(&dir, 4, EXPECTED_N, &cfg).unwrap();
            if live == 1 {
                let one = MutationOp::Insert { vector: vec![1.0; 4], meta: PointMeta::default() };
                index.apply_batch(&[one]).unwrap();
            }
            index.checkpoint().unwrap();
        }
        // The head is the file's first record: its length word follows
        // the 8-byte header, its payload is `seq | op | dim | ...`.
        let path = dir.join(CHECKPOINT_FILE);
        let mut blob = std::fs::read(&path).unwrap();
        let len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
        blob[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = cc_storage::wal::crc32(&blob[12..12 + len]);
        blob[12 + len..16 + len].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &blob).unwrap();
        let err = MutableIndex::open(&dir, 4, EXPECTED_N, &cfg).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{live} live slots");
        assert!(err.to_string().contains("dim 4294967295"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
