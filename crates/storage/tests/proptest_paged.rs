//! Property tests for the paged disk tier: posting-list codec round-trips
//! on arbitrary sorted id lists, posting-run scans against a reference
//! model, and `FailpointFile`-driven torn-page / bad-checksum recovery for
//! the on-disk page file.

use cc_storage::codec::{decode_postings, encode_postings, peek_postings};
use cc_storage::paged_bucket::PostingRunBuilder;
use cc_storage::wal::scratch_dir;
use cc_storage::{DiskPageFile, DiskPageFileWriter, FailpointFile, PinnedPool, PAGE_SIZE};
use proptest::prelude::*;

fn round_trip(ids: &[u32]) {
    let mut buf = Vec::new();
    let written = encode_postings(ids, &mut buf);
    assert_eq!(written, buf.len());
    let (count, total) = peek_postings(&buf).expect("peek");
    assert_eq!((count, total), (ids.len(), buf.len()));
    let mut out = Vec::new();
    let consumed = decode_postings(&buf, &mut out).expect("decode");
    assert_eq!(consumed, buf.len());
    assert_eq!(out, ids);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary sorted id lists (duplicates allowed, any gap profile)
    /// round-trip bit-exactly through whichever encoding the codec picks.
    #[test]
    fn codec_round_trips_sorted_lists(mut ids in proptest::collection::vec(0u32..u32::MAX, 0..400)) {
        ids.sort_unstable();
        round_trip(&ids);
    }

    /// Dense lists (small gaps — the virtual-rehashing common case) round-trip
    /// and actually compress below the plain encoding.
    #[test]
    fn codec_round_trips_dense_lists(
        start in 0u32..1_000_000,
        gaps in proptest::collection::vec(0u32..16, 64..512),
    ) {
        let mut ids = vec![start];
        for g in gaps {
            ids.push(ids.last().unwrap().saturating_add(g));
        }
        round_trip(&ids);
        let mut buf = Vec::new();
        encode_postings(&ids, &mut buf);
        prop_assert!(buf.len() < 5 + ids.len() * 4, "dense list did not compress");
    }

    /// A corrupted encoding is rejected or decodes to *some* list — never
    /// panics, never reads out of bounds.
    #[test]
    fn codec_never_panics_on_corruption(
        mut ids in proptest::collection::vec(0u32..u32::MAX, 1..100),
        byte in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        ids.sort_unstable();
        let mut buf = Vec::new();
        encode_postings(&ids, &mut buf);
        let idx = byte % buf.len();
        buf[idx] ^= 1 << bit;
        let mut out = Vec::new();
        let _ = decode_postings(&buf, &mut out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Posting runs reproduce an in-memory reference for lower_bound and
    /// ranged scans on arbitrary (clustered) entry sets.
    #[test]
    fn posting_run_matches_reference(
        raw in proptest::collection::vec((-40i64..40, 0u32..u32::MAX), 0..3_000),
        probes in proptest::collection::vec(-50i64..50, 1..8),
        range in (0usize..3_200, 0usize..3_200),
    ) {
        let mut entries = raw;
        entries.sort_unstable();
        let dir = scratch_dir("prop_posting_run");
        let path = dir.join("run.ccpg");
        let mut w = DiskPageFileWriter::create(&path).unwrap();
        let mut b = PostingRunBuilder::new();
        for bucket in entries.chunk_by(|a, b| a.0 == b.0) {
            let oids: Vec<u32> = bucket.iter().map(|e| e.1).collect();
            b.push_bucket(bucket[0].0, &oids);
        }
        let run = b.finish(&mut w).unwrap();
        let file = w.finish().unwrap();
        let pool = PinnedPool::new(4);
        prop_assert_eq!(run.len(), entries.len());
        for target in probes {
            let expect = entries.partition_point(|&(b, _)| b < target);
            prop_assert_eq!(run.lower_bound(&file, &pool, target).unwrap(), expect);
        }
        let (mut from, mut to) = range;
        if from > to {
            std::mem::swap(&mut from, &mut to);
        }
        let mut seen = Vec::new();
        run.scan_while(&file, &pool, from, to, &mut Vec::new(), |b, oids| {
            seen.extend(oids.iter().map(|&o| (b, o)));
            true
        })
        .unwrap();
        let clamped_to = to.min(entries.len());
        let expect: &[(i64, u32)] =
            if from >= clamped_to { &[] } else { &entries[from..clamped_to] };
        prop_assert_eq!(&seen[..], expect);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Build a small page file for fault-injection tests.
fn build_victim(tag: &str, pages: u32) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = scratch_dir(tag);
    let path = dir.join("victim.ccpg");
    let mut w = DiskPageFileWriter::create(&path).unwrap();
    for i in 0..pages {
        let payload: Vec<u8> = (0..200).map(|j| (i as u8).wrapping_add(j)).collect();
        w.append_page(&payload).unwrap();
    }
    let f = w.finish().unwrap();
    assert_eq!(f.pages(), pages);
    drop(f);
    (dir, path)
}

#[test]
fn torn_page_at_tail_is_detected_at_open() {
    let (dir, path) = build_victim("fault_torn", 4);
    let fp = FailpointFile::new(&path);
    let full = fp.size_bytes().unwrap();
    // Tear the last page mid-write: the header's page count no longer
    // matches the file length, so open must refuse.
    fp.truncate_at(full - (PAGE_SIZE as u64) / 2).unwrap();
    let err = DiskPageFile::open(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_data_page_fails_that_read_only() {
    let (dir, path) = build_victim("fault_flip", 4);
    let fp = FailpointFile::new(&path);
    // Flip one bit in the middle of data page 2's payload.
    let offset = (PAGE_SIZE as u64) * 3 + 100;
    fp.flip_bit(offset, 3).unwrap();
    let file = DiskPageFile::open(&path).unwrap();
    let mut buf = Vec::new();
    for page in [0u32, 1, 3] {
        file.read_payload(page, &mut buf).unwrap();
    }
    let err = file.read_payload(2, &mut buf).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "error should name the checksum: {err}");
    // The pool propagates the same error instead of caching garbage.
    let pool = PinnedPool::new(2);
    assert!(pool.get(&file, 2).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_header_is_detected_at_open() {
    let (dir, path) = build_victim("fault_header", 2);
    let fp = FailpointFile::new(&path);
    fp.flip_bit(12, 0).unwrap(); // page-count field inside the header payload
    let err = DiskPageFile::open(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn appended_garbage_is_detected_at_open() {
    let (dir, path) = build_victim("fault_garbage", 2);
    let fp = FailpointFile::new(&path);
    fp.append_garbage(&[0xAB; 137]).unwrap();
    let err = DiskPageFile::open(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("length"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_page_boundary_is_detected() {
    for pages_kept in 0..4u64 {
        let (dir, path) = build_victim("fault_boundary", 4);
        let fp = FailpointFile::new(&path);
        fp.truncate_at((pages_kept + 1) * PAGE_SIZE as u64).unwrap();
        // Even a clean page-boundary truncation disagrees with the header.
        let err = DiskPageFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
