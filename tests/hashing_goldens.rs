//! What hashing writes, pinned as digests so that a change to how rows
//! are projected cannot move a bucket id unnoticed.
//!
//! - `HashFamily::buckets_batch` over rows of f32 extremes (subnormals,
//!   ±1e38, values whose products cancel exactly, zeros) at the
//!   dimensions that leave every remainder of an eight-lane loop: 1, 7,
//!   13, 64 and 129. Each family has 13 functions, so a block of eight
//!   functions leaves five over; two of them are built so that a row's
//!   products cancel exactly.
//! - The CCPG page file `PagedBuilder` writes for 70 000 rows, at 64
//!   dimensions and at 13 (a tail past the last eight-lane chunk): every
//!   vector page and every posting page. Release-only, like
//!   `tests/segment_boundaries.rs`.

use c2lsh::{C2lshConfig, HashFamily, PagedStore, PstableHash};
use cc_vector::dataset::Dataset;
use cc_vector::gen::{generate, Distribution};

/// 64-bit FNV-1a, folded over `bytes` from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A deterministic stream of values in `[-0.5, 0.5)`.
fn xorshift(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
    }
}

/// Eleven drawn functions, then one of all ones and one of alternating
/// ±0.75, both with a zero offset: a row of `x, −x` pairs projects to
/// exactly zero under the first, a constant row of even length under the
/// second.
fn family(d: usize) -> HashFamily {
    let config = C2lshConfig::builder().bucket_width(1.3).seed(5 + d as u64).build();
    let drawn = HashFamily::generate(11, d, &config);
    let mut functions: Vec<PstableHash> = drawn.iter().cloned().collect();
    functions.push(PstableHash::from_parts(vec![1.0; d], 0.0, 1.3));
    let alternating = (0..d).map(|i| if i % 2 == 0 { 0.75 } else { -0.75 }).collect();
    functions.push(PstableHash::from_parts(alternating, 0.0, 1.3));
    HashFamily::from_functions(functions)
}

/// Rows of `d` values that reach the corners of f32: ordinary values,
/// subnormals, ±1e38 and `f32::MAX`, zeros of both signs, rows whose
/// products cancel exactly, and mixtures of them.
fn extreme_rows(d: usize) -> Dataset {
    let mut next = xorshift(0x9E37 + d as u64);
    let subnormals = [f32::from_bits(1), -f32::from_bits(1), 1e-40, -3e-39, f32::MIN_POSITIVE];
    let huge = [1e38f32, -1e38, f32::MAX, -f32::MAX];
    let mut rows: Vec<Vec<f32>> = Vec::new();
    rows.push(vec![0.0; d]);
    rows.push(vec![-0.0; d]);
    rows.extend((0..4).map(|_| (0..d).map(|_| next() * 8.0).collect()));
    rows.extend(subnormals.iter().map(|&s| vec![s; d]));
    rows.extend(huge.iter().map(|&h| vec![h; d]));
    // `x, −x` pairs: exactly zero under the all-ones function when `d` is
    // even, the last `x` alone otherwise.
    for scale in [1.0f32, 1e-30, 1e30, 1e38] {
        rows.push((0..d).map(|i| if i % 2 == 0 { scale } else { -scale } * 1.5).collect());
    }
    // Constant rows: exactly zero under the alternating function when
    // `d` is even.
    rows.push(vec![2.5; d]);
    rows.push(vec![-1e38; d]);
    // Mixtures: every kind at every position, so each lane and the tail
    // see each of them.
    for shift in 0..6 {
        let kinds = |i: usize| match (i + shift) % 6 {
            0 => subnormals[i % subnormals.len()],
            1 => huge[i % huge.len()],
            2 => 0.0,
            3 => -0.0,
            _ => next() * 100.0,
        };
        rows.push((0..d).map(kinds).collect());
    }
    // A huge pair that cancels next to ordinary values.
    rows.push((0..d).map(|i| [1e38, -1e38, next()][i % 3]).collect());
    Dataset::from_rows(&rows)
}

#[test]
fn golden_bucket_ids_at_f32_extremes() {
    let mut digests = Vec::new();
    for d in [1usize, 7, 13, 64, 129] {
        let (family, rows) = (family(d), extreme_rows(d));
        let ids = family.buckets_batch(&rows);
        assert_eq!(ids.len(), rows.len() * family.len());
        // One row at a time agrees with the batch.
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(family.buckets(row), &ids[i * 13..(i + 1) * 13], "d = {d}, row {i}");
        }
        let bytes: Vec<u8> = ids.iter().flat_map(|b| b.to_le_bytes()).collect();
        digests.push(fnv1a(FNV_OFFSET, &bytes));
    }
    assert_eq!(
        digests,
        [
            10_011_206_593_913_660_519,
            2_675_368_843_574_471_688,
            13_245_838_664_684_276_634,
            17_511_992_906_334_254_589,
            9_401_126_904_154_033_443,
        ]
    );
}

/// The page file `PagedStore::build` writes for 70 000 clustered rows of
/// `dim` dimensions: its length and its digest.
fn page_file(dim: usize) -> (usize, u64) {
    let n = 70_000;
    let data = generate(
        Distribution::GaussianMixture { clusters: 32, spread: 0.02, scale: 10.0 },
        n,
        dim,
        n as u64 + dim as u64,
    );
    let config = C2lshConfig::builder().bucket_width(1.5).seed(23).build();
    let dir = cc_storage::wal::scratch_dir("hashing_goldens");
    let path = dir.join("golden.ccpg");
    let store = PagedStore::build(&data, &config, &path, 8).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, store.file_bytes());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    (bytes.len(), fnv1a(FNV_OFFSET, &bytes))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode sizes, run by the CI test job's release leg")]
fn golden_page_files_at_70_000_rows() {
    assert_eq!(page_file(64), (28_336_128, 3_224_020_022_536_708_516), "d = 64");
    assert_eq!(page_file(13), (12_500_992, 16_807_205_322_368_535_933), "d = 13");
}
