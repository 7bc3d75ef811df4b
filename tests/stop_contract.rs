//! One stop contract for every [`TableStore`]: once the visitor refuses
//! a slice, `expand` returns. It does not call the visitor again — not
//! for the rest of the range, and not for the other delta range of the
//! same grow — what was handed out up to the refusal is a prefix of what
//! an unrefused expansion hands out, and a store that meters its I/O has
//! read no page or node beyond the ones holding that prefix.

use c2lsh::rehash::window;
use c2lsh::sharded::{ShardedData, ShardedEngine};
use c2lsh::{C2lshConfig, C2lshIndex, DiskIndex, DynamicIndex, FullParams, HashFamily};
use c2lsh::{PagedStore, TableStore, ENTRIES_PER_PAGE};
use cc_vector::dataset::Dataset;
use cc_vector::gen::{generate, Distribution};
use qalsh::{Qalsh, QalshConfig};

/// Approximation ratio 3: a window can grow on both sides in one round
/// (at ratio 2 the old window is always one half of the new one).
const C: i64 = 3;

/// The data every store indexes, and one expansion of it — table `t` of
/// query `q` growing to radius `C^level` — that adds `left` ids below
/// the window of the round before and `right` ids above it.
struct Fixture {
    data: Dataset,
    config: C2lshConfig,
    q: Vec<f32>,
    t: usize,
    level: u32,
    left: usize,
    right: usize,
}

fn fixture() -> Fixture {
    let data = generate(Distribution::UniformCube { side: 6.0 }, 12_000, 8, 91);
    // A handful of tables is all the contract needs.
    let config = C2lshConfig::builder()
        .bucket_width(1.0)
        .approximation_ratio(C as u32)
        .seed(7)
        .m_override(8)
        .l_override(4)
        .build();
    let m = FullParams::derive(data.len(), &config).m;
    let family = HashFamily::generate(m, data.dim(), &config);
    // The first (query, table, round) whose delta ranges are both several
    // pages long, counted from the bucket ids themselves.
    let columns: Vec<Vec<i64>> =
        family.iter().map(|h| data.iter().map(|v| h.bucket(v)).collect()).collect();
    let rounds = (0..50).flat_map(|qi| (0..m).flat_map(move |t| (1..4).map(move |l| (qi, t, l))));
    let (qi, t, level, left, right) = rounds
        .map(|(qi, t, level)| {
            let b = columns[t][qi];
            let within = |lo, hi| columns[t].iter().filter(|&&b| lo <= b && b < hi).count();
            let ((old_lo, old_hi), (lo, hi)) =
                (window(b, C.pow(level - 1)), window(b, C.pow(level)));
            (qi, t, level, within(lo, old_lo), within(old_hi, hi))
        })
        .find(|&(.., left, right)| left >= 700 && right >= 1_000)
        .expect("no expansion with two long delta ranges in the data");
    let q = data.get(qi).to_vec();
    Fixture { data, config, q, t, level, left, right }
}

/// A cursor for `f.q` whose table `f.t` has been through every round
/// before `f.level`, nothing refused.
fn before_the_round<S: TableStore>(store: &S, f: &Fixture) -> S::Cursor {
    let mut cursor = store.begin(&f.q);
    for level in 0..f.level {
        store.expand(&mut cursor, f.t, C.pow(level), &mut |_| true);
    }
    cursor
}

/// Refuse the fixture's expansion at its j-th id, for the given `stops`
/// and a few more taken from the expansion's own length, which is
/// returned.
fn check_stops<S: TableStore>(
    name: &str,
    store: &S,
    f: &Fixture,
    stops: &[usize],
    metered: bool,
) -> usize {
    let radius = C.pow(f.level);
    let mut full = Vec::new();
    store.expand(&mut before_the_round(store, f), f.t, radius, &mut |ids| {
        full.extend_from_slice(ids);
        true
    });
    assert!(full.len() > 600, "{name}: only {} ids in the round", full.len());
    // The first id, a third of the way in, 300 ids — more than any
    // buffer a store might flush late — before the end, and the last id.
    let own = [1, 2, full.len() / 3, full.len() - 300, full.len()];
    for &stop in own.iter().chain(stops) {
        let mut cursor = before_the_round(store, f);
        let (mut seen, mut calls, mut refused) = (Vec::new(), 0u64, false);
        let reads_before = store.io_reads();
        store.expand(&mut cursor, f.t, radius, &mut |ids| {
            assert!(!refused, "{name}: visitor called again after refusing id {stop}");
            calls += 1;
            // Consume the slice up to the stop, as the engine does.
            let take = ids.len().min(stop - seen.len());
            seen.extend_from_slice(&ids[..take]);
            refused = seen.len() == stop;
            !refused
        });
        assert!(refused, "{name}: expansion ended before id {stop}");
        assert_eq!(seen, full[..stop], "{name}: ids up to the refusal of id {stop}");
        if metered {
            // At most the two window-bound probes, and one page or node
            // per slice: no store hands out a slice that spans two.
            let reads = store.io_reads() - reads_before;
            assert!(
                reads <= calls + 2,
                "{name}: {reads} reads for {calls} slices, refusing id {stop} of {}",
                full.len()
            );
            // Nor does it cut a page into many slices to be allowed a
            // read for each: two delta ranges of pages no smaller than
            // the uncompressed one, each with a page begun before it and
            // a page left unfinished.
            let pages = (stop.div_ceil(ENTRIES_PER_PAGE) + 3) as u64;
            assert!(
                reads <= pages + 2,
                "{name}: {reads} reads for {pages} pages, refusing id {stop} of {}",
                full.len()
            );
        }
    }
    full.len()
}

/// Stops placed by the delta ranges of a store that keeps bucket-id
/// windows: inside the left range, on its last id, on the first id of
/// the right range, and far from the end of the right range.
fn range_stops(f: &Fixture) -> [usize; 4] {
    [f.left / 2, f.left, f.left + 1, f.left + f.right - 400]
}

/// Every store over bucket-id windows hands out the same ids in one
/// round; the sharded one bucket after bucket, shard by shard inside one.
fn check_bucket_store<S: TableStore>(name: &str, store: &S, f: &Fixture, metered: bool) {
    let ids = check_stops(name, store, f, &range_stops(f), metered);
    assert_eq!(ids, f.left + f.right, "{name}");
}

#[test]
fn memory_index_stops_where_refused() {
    let f = fixture();
    check_bucket_store("C2lshIndex", &C2lshIndex::build(&f.data, &f.config), &f, false);
}

#[test]
fn disk_index_stops_where_refused() {
    let f = fixture();
    check_bucket_store("DiskIndex", &DiskIndex::build(&f.data, &f.config), &f, true);
}

#[test]
fn paged_store_stops_where_refused() {
    let f = fixture();
    let dir = cc_storage::wal::scratch_dir("stop_contract");
    // A pool of one page: every page a scan moves on to is a physical read.
    let store = PagedStore::build(&f.data, &f.config, dir.join("index.ccpg"), 1).unwrap();
    check_bucket_store("PagedStore", &store, &f, true);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_index_stops_where_refused() {
    let f = fixture();
    check_bucket_store("DynamicIndex", &DynamicIndex::from_dataset(&f.data, &f.config), &f, false);
}

#[test]
fn sharded_engine_stops_where_refused() {
    let f = fixture();
    let shards = ShardedData::partition(&f.data, 3);
    check_bucket_store("ShardedEngine", &ShardedEngine::build(&shards, &f.config), &f, false);
}

#[test]
fn qalsh_stops_where_refused() {
    let f = fixture();
    let config = QalshConfig { c: C as u32, w: 1.2, seed: 7, ..QalshConfig::default() };
    // Its windows are centred on the query's projection, so only the
    // stops taken from the expansion's own length apply; its leaves are
    // pages of the same 341 entries, so the same bounds do.
    check_stops("Qalsh", &Qalsh::build(&f.data, config), &f, &[], true);
}
