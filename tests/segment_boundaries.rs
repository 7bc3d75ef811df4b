//! Answers and costs of indexes large enough to cross a segment
//! boundary: 70 000 and 140 000 rows of 64 dimensions. `tests/oracle.rs`
//! draws at most 700 rows, which never reach one.
//!
//! Per size, 200 queries at k = 1 and k = 10 are folded into one FNV-1a
//! digest of every neighbour's id and distance bits, the rounds, the
//! final radius, the collisions counted, the candidates verified and the
//! terminating condition. The in-memory index, a 3-shard engine, the
//! dynamic index, a durable `MutableIndex` reopened from its checkpoint,
//! the disk index and the paged store must all reach that one digest.
//! The paged store reads through a pool of 64 pages, so its scans miss,
//! and its buckets span many posting pages. The disk index's page reads
//! are pinned beside the digest. Release-only: a debug build takes
//! minutes over these sizes.

use c2lsh::sharded::{ShardedData, ShardedEngine};
use c2lsh::{C2lshConfig, C2lshIndex, DiskIndex, DynamicIndex, MutableIndex, MutationOp};
use c2lsh::{PagedStore, QueryStats, Termination};
use cc_vector::dataset::Dataset;
use cc_vector::gen::{generate, Distribution};
use cc_vector::gt::Neighbor;

const DIM: usize = 64;
const QUERIES: usize = 200;

/// 64-bit FNV-1a, folded over `bytes` from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The `i`-th query over `data`: a row moved by one of four offsets, so
/// queries end in the first round and after several.
fn query(data: &Dataset, i: usize) -> Vec<f32> {
    let offset = [0.0, 0.3, 1.0, 3.0][i % 4];
    data.get(i * 347 % data.len()).iter().map(|x| x + offset).collect()
}

/// The digest of every answer `ask` gives, and how many of them each of
/// T1, T2 and exhaustion ended.
fn digest(
    data: &Dataset,
    mut ask: impl FnMut(&[f32], usize) -> (Vec<Neighbor>, QueryStats),
) -> (u64, [usize; 3]) {
    let mut hash = FNV_OFFSET;
    let mut ended = [0; 3];
    for i in 0..QUERIES {
        let q = query(data, i);
        for k in [1, 10] {
            let (nn, s) = ask(&q, k);
            for n in &nn {
                hash = fnv1a(hash, &n.id.to_le_bytes());
                hash = fnv1a(hash, &n.dist.to_bits().to_le_bytes());
            }
            let by = match s.terminated_by {
                Termination::T1AtRadius => 0,
                Termination::T2CandidateBudget => 1,
                Termination::Exhausted => 2,
            };
            ended[by] += 1;
            hash = fnv1a(hash, &s.rounds.to_le_bytes());
            hash = fnv1a(hash, &s.final_radius.to_le_bytes());
            hash = fnv1a(hash, &s.collisions_counted.to_le_bytes());
            hash = fnv1a(hash, &(s.candidates_verified as u64).to_le_bytes());
            hash = fnv1a(hash, &[by as u8]);
        }
    }
    (hash, ended)
}

/// One size: the answers' digest, how T1 / T2 / exhaustion split them
/// and the disk index's page reads over all of them.
fn check(n: usize, want: (u64, [usize; 3], u64)) {
    let data = generate(
        Distribution::GaussianMixture { clusters: 32, spread: 0.02, scale: 10.0 },
        n,
        DIM,
        n as u64,
    );
    let config = C2lshConfig::builder().bucket_width(1.5).seed(23).build();

    let mem = C2lshIndex::build(&data, &config);
    let answers = digest(&data, |q, k| mem.query(q, k));
    drop(mem);

    let parts = ShardedData::partition(&data, 3);
    let sharded = ShardedEngine::build(&parts, &config);
    assert_eq!(digest(&data, |q, k| sharded.query(q, k)), answers, "{n} rows: 3 shards");
    drop(sharded);

    let dynamic = DynamicIndex::from_dataset(&data, &config);
    assert_eq!(digest(&data, |q, k| dynamic.query(q, k)), answers, "{n} rows: DynamicIndex");
    drop(dynamic);

    // Bulk-loaded in batches, checkpointed, and reopened from the
    // checkpoint alone (the checkpoint resets the log).
    let dir = cc_storage::wal::scratch_dir("segment_boundaries");
    {
        let durable = MutableIndex::open(dir.join("rw"), DIM, n, &config).unwrap();
        let insert =
            |v: &[f32]| MutationOp::Insert { vector: v.to_vec(), meta: Default::default() };
        let rows: Vec<MutationOp> = data.iter().map(insert).collect();
        for chunk in rows.chunks(4096) {
            durable.apply_batch(chunk).unwrap();
        }
        durable.checkpoint().unwrap();
    }
    let reopened = MutableIndex::open(dir.join("rw"), DIM, n, &config).unwrap();
    assert_eq!(reopened.last_seq(), n as u64);
    assert_eq!(digest(&data, |q, k| reopened.query(q, k)), answers, "{n} rows: reopened");
    drop(reopened);

    let disk = DiskIndex::build(&data, &config);
    let mut reads = 0;
    let disk_answers = digest(&data, |q, k| {
        let (nn, s) = disk.query(q, k);
        reads += s.io.reads;
        (nn, s)
    });
    assert_eq!(disk_answers, answers, "{n} rows: DiskIndex");
    drop(disk);

    let paged = PagedStore::build(&data, &config, dir.join("paged.ccpg"), 64).unwrap();
    assert_eq!(digest(&data, |q, k| paged.query(q, k)), answers, "{n} rows: PagedStore");
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((answers.0, answers.1, reads), want, "{n} rows");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode sizes, run by the CI test job's release leg")]
fn golden_answers_across_segment_boundaries() {
    check(70_000, (11_905_762_198_514_976_365, [128, 272, 0], 1_914_164));
    check(140_000, (14_091_155_450_945_070_512, [114, 286, 0], 3_596_274));
}
