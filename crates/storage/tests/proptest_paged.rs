//! Property tests for the paged disk tier: posting-list codec round-trips
//! on arbitrary sorted id lists, posting-run scans against a reference
//! model, posting pages of arbitrary contents, and `FailpointFile`-driven
//! torn-page / bad-checksum recovery for the on-disk page file.

use cc_storage::codec::{decode_postings, encode_postings, peek_postings};
use cc_storage::paged_bucket::{PostingRun, PostingRunBuilder};
use cc_storage::wal::scratch_dir;
use cc_storage::{
    DiskPageFile, DiskPageFileWriter, FailpointFile, PinnedPool, PAGE_SIZE, PAYLOAD_BYTES,
};
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
    /// panics, never reads out of bounds. So is a posting page whose
    /// checksum is sound and whose contents are arbitrary: noise over the
    /// whole payload, or noise spliced into a real page. Its scan is an
    /// `InvalidData` error or hands out some ids.
    #[test]
    fn codec_never_panics_on_corruption(
        mut ids in proptest::collection::vec(0u32..u32::MAX, 1..100),
        byte in 0usize..1_000_000,
        bit in 0u8..8,
        noise in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..PAYLOAD_BYTES),
        splice in 0usize..PAYLOAD_BYTES * 3 / 2,
        victim in 0usize..8,
        range in (0usize..6_000, 0usize..6_000),
    ) {
        ids.sort_unstable();
        let mut buf = Vec::new();
        encode_postings(&ids, &mut buf);
        let idx = byte % buf.len();
        buf[idx] ^= 1 << bit;
        let mut out = Vec::new();
        let _ = decode_postings(&buf, &mut out);

        let dir = scratch_dir("prop_page_noise");
        let (run, file) = build_run(&dir.join("run.ccpg"), &corruptible_buckets());
        let victim = victim % run.page_count();
        let mut w = DiskPageFileWriter::create(dir.join("noisy.ccpg")).unwrap();
        let mut payload = Vec::new();
        for page in 0..file.pages() {
            file.read_payload(page, &mut payload).unwrap();
            if page as usize == victim {
                // Past the payload's end: noise replaces the page.
                if splice >= PAYLOAD_BYTES {
                    payload.clone_from(&noise);
                } else {
                    let end = PAYLOAD_BYTES.min(splice + noise.len());
                    payload[splice..end].copy_from_slice(&noise[..end - splice]);
                }
            }
            w.append_page(&payload).unwrap();
        }
        let noisy = w.finish().unwrap();
        let (from, to) = (range.0.min(range.1), range.0.max(range.1));
        let pool = PinnedPool::new(2);
        let mut handed = 0;
        match run.scan_while(&noisy, &pool, from, to, &mut Vec::new(), |oids| {
            handed += oids.len();
            true
        }) {
            Ok(done) => prop_assert!(done && handed <= to - from),
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Buckets of every shape a table holds, from `(length, shape, seed)`
/// draws: ids all equal (width 0), dense, wide-gapped (a few hundred
/// fill a page, so a long bucket spans pages), or a single id.
fn shaped_buckets(draws: &[(usize, u8, u64)]) -> Vec<Vec<u32>> {
    draws
        .iter()
        .map(|&(len, shape, seed)| {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u32
            };
            let start = next() % 1_000;
            let mut id = start;
            match shape {
                0 => vec![start; len],
                1 | 2 => (0..len)
                    .map(|_| {
                        let gap = if shape == 1 { next() % 4 } else { next() % (1 << 20) };
                        id = id.saturating_add(gap);
                        id
                    })
                    .collect(),
                _ => vec![start],
            }
        })
        .collect()
}

/// Write `buckets` as one run at `path`.
fn build_run(path: &std::path::Path, buckets: &[Vec<u32>]) -> (PostingRun, DiskPageFile) {
    let mut w = DiskPageFileWriter::create(path).unwrap();
    let mut b = PostingRunBuilder::new();
    for oids in buckets {
        b.push_bucket(oids);
    }
    let run = b.finish(&mut w).unwrap();
    (run, w.finish().unwrap())
}

/// A few pages' worth of every bucket shape.
fn corruptible_buckets() -> Vec<Vec<u32>> {
    shaped_buckets(&[(300, 1, 1), (1, 3, 2), (900, 2, 3), (50, 0, 4), (2_000, 2, 5), (40, 1, 6)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Posting runs hand out exactly the reference's ids for arbitrary
    /// `[from, to)` scans, over buckets split across pages, buckets
    /// longer than a page, one-id buckets and width-0 runs; every slice
    /// a scan hands out lies inside one bucket.
    #[test]
    fn posting_run_matches_reference(
        draws in proptest::collection::vec((1usize..2_500, 0u8..4, 0u64..u64::MAX), 0..10),
        ranges in proptest::collection::vec((0usize..12_000, 0usize..12_000), 1..8),
    ) {
        let buckets = shaped_buckets(&draws);
        let ids: Vec<u32> = buckets.concat();
        let ends: Vec<usize> = buckets
            .iter()
            .scan(0, |end, b| {
                *end += b.len();
                Some(*end)
            })
            .collect();
        let dir = scratch_dir("prop_posting_run");
        let (run, file) = build_run(&dir.join("run.ccpg"), &buckets);
        let pool = PinnedPool::new(4);
        prop_assert_eq!(run.len(), ids.len());
        for (a, b) in ranges {
            let (from, to) = (a.min(b), a.max(b));
            let (mut seen, mut at) = (Vec::new(), from);
            run.scan_while(&file, &pool, from, to, &mut Vec::new(), |oids| {
                let bucket = ends.partition_point(|&end| end <= at);
                assert!(at + oids.len() <= ends[bucket], "a slice crosses a bucket's end");
                at += oids.len();
                seen.extend_from_slice(oids);
                true
            })
            .unwrap();
            let clamped_to = to.min(ids.len());
            let expect: &[u32] = if from >= clamped_to { &[] } else { &ids[from..clamped_to] };
            prop_assert_eq!(&seen[..], expect);
        }
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
