//! Every deterministic quantity of the fixed 4 000 × 128 workload and
//! of the 200 000-point paged slice, pinned to what this tree reads.
//!
//! None of these numbers depends on the dispatched kernel (the kernels
//! are bit-identical by contract), on the build profile or on the core
//! count, so a cell that moves is a change of behaviour somebody must
//! look at: re-pin it in the commit that means to move it. Timing is not
//! gated here; the ledger (`benchmark/`) judges that.

use c2lsh::engine::SearchOptions;
use c2lsh::{C2lshConfig, C2lshIndex, PointMeta, Predicate};
use cc_bench::eval::evaluate_with_stats;
use cc_bench::methods::{defaults, AnnIndex};
use cc_bench::prep::prepare_workload;
use cc_vector::dist::{euclidean_sq, euclidean_sq_bounded};
use cc_vector::gt::Neighbor;
use cc_vector::synth::Profile;
use cc_vector::topk::TopK;
use cc_vector::workload::Workload;

const K: usize = 10;
const SEED: u64 = 42;

fn smoke_workload() -> Workload {
    prepare_workload(Profile::Custom { n: 4000, d: 128 }, 1.0, 40, 100, SEED)
}

#[track_caller]
fn assert_reads(what: &str, got: f64, want: f64) {
    assert!((got - want).abs() <= 1e-12, "{what}: read {got:?}, pinned {want:?}");
}

#[test]
fn smoke_table() {
    let w = smoke_workload();
    let methods: [Box<dyn AnnIndex + '_>; 7] = [
        Box::new(defaults::c2lsh(&w.data, SEED)),
        Box::new(defaults::c2lsh_paged(&w.data, SEED)),
        Box::new(defaults::c2lsh_disk(&w.data, SEED)),
        Box::new(defaults::qalsh(&w.data, SEED)),
        Box::new(defaults::e2lsh(&w.data, SEED)),
        Box::new(defaults::multiprobe(&w.data, SEED)),
        Box::new(defaults::linear(&w.data)),
    ];
    // method, recall, ratio, verified, abandoned and page reads per
    // query, index bytes.
    let pinned: [(&str, f64, f64, f64, f64, f64, usize); 7] = [
        ("C2LSH", 0.91, 1.0028005690090416, 48.5, 26.4, 0.0, 718_428),
        ("C2LSH(paged)", 0.91, 1.0028005690090416, 48.5, 26.4, 136.3, 335_872),
        ("C2LSH(disk)", 0.91, 1.0028005690090416, 48.5, 26.4, 375.925, 4_030_464),
        ("QALSH", 0.935, 1.0014155819885784, 51.2, 29.075, 115.625, 2_688_000),
        ("E2LSH", 0.7675, 1.008513784204403, 38.475, 16.8, 102.475, 3_342_336),
        ("MultiProbe", 0.95, 1.0012267354775792, 52.425, 28.25, 316.425, 417_792),
        ("LinearScan", 1.0, 1.0, 4000.0, 0.0, 500.0, 0),
    ];
    for (index, (name, recall, ratio, verified, abandoned, io, bytes)) in methods.iter().zip(pinned)
    {
        let (row, agg) = evaluate_with_stats(index.as_ref(), &w, K);
        assert_eq!(row.method, name);
        assert_reads(&format!("{name} recall"), row.recall, recall);
        assert_reads(&format!("{name} ratio"), row.ratio, ratio);
        assert_reads(&format!("{name} verified / query"), row.verified, verified);
        let abandoned_per_query = agg.abandoned as f64 / agg.queries as f64;
        assert_reads(&format!("{name} abandoned / query"), abandoned_per_query, abandoned);
        assert_reads(&format!("{name} page reads / query"), row.io_reads, io);
        assert_eq!(index.size_bytes(), bytes, "{name} index bytes");
    }
    // Compressed postings against the paper's 12-byte-entry layout.
    assert!(2 * methods[1].size_bytes() <= methods[2].size_bytes());
}

/// Every third point carries the target label (the generator's 64
/// clusters and a modulus of 3 are coprime, so every cluster mixes all
/// labels and the predicate is selective near every query). The
/// filtered arm runs the predicate inside the counting loop, so a point
/// failing it is rejected before its distance is computed; the naive arm
/// queries unfiltered at an inflated `k'` (from `k / selectivity`,
/// doubling until its kept top-`k` recalls what the filtered arm does)
/// and drops the non-matching answers. Recall of both arms is against
/// exact k-NN over the matching subset.
#[test]
fn filtered_beats_postfilter() {
    let w = smoke_workload();
    let n = w.n();
    let metas: Vec<PointMeta> = (0..n).map(|i| PointMeta::labeled(i as u32 % 3)).collect();
    let predicate = Predicate::label(1);
    let matching = metas.iter().filter(|m| predicate.matches(**m)).count();

    let cfg = C2lshConfig::builder().bucket_width(2.184).seed(SEED).build();
    let index = C2lshIndex::build(&w.data, &cfg).with_meta(metas.clone());

    let truth: Vec<Vec<u32>> = w
        .queries
        .iter()
        .map(|q| {
            let mut subset: Vec<Neighbor> = (0..n)
                .filter(|&id| predicate.matches(metas[id]))
                .map(|id| Neighbor::new(id as u32, euclidean_sq(q, w.data.get(id)).sqrt()))
                .collect();
            subset.sort_by(|x, y| x.dist.total_cmp(&y.dist).then(x.id.cmp(&y.id)));
            subset.truncate(K);
            subset.into_iter().map(|nb| nb.id).collect()
        })
        .collect();
    let truth_size = truth.iter().map(Vec::len).sum::<usize>() as f64;
    let nq = w.queries.len() as f64;

    let opts = SearchOptions { filter: Some(predicate), ..SearchOptions::default() };
    let (mut verified, mut rejected, mut hits) = (0u64, 0u64, 0usize);
    for (q, t) in w.queries.iter().zip(&truth) {
        let (nn, stats) = index.query_with(q, K, &opts);
        verified += stats.candidates_verified as u64;
        rejected += stats.candidates_filtered as u64;
        hits += nn.iter().filter(|nb| t.contains(&nb.id)).count();
    }
    let filtered_recall = hits as f64 / truth_size;

    let mut k_post = ((K * n) as f64 / matching as f64).ceil() as usize;
    let (post_verified, post_recall) = loop {
        let (mut verified, mut hits) = (0u64, 0usize);
        for (q, t) in w.queries.iter().zip(&truth) {
            let (nn, stats) = index.query(q, k_post);
            verified += stats.candidates_verified as u64;
            let kept = nn.iter().filter(|nb| predicate.matches(metas[nb.id as usize])).take(K);
            hits += kept.filter(|nb| t.contains(&nb.id)).count();
        }
        let recall = hits as f64 / truth_size;
        if recall >= filtered_recall || k_post >= n {
            break (verified, recall);
        }
        k_post = (k_post * 2).min(n);
    };

    assert_reads("filtered verified / query", verified as f64 / nq, 16.5);
    assert_reads("filtered recall", filtered_recall, 0.8875);
    assert_reads("rejected before verification / query", rejected as f64 / nq, 34.075);
    assert_eq!(k_post, 62);
    assert_reads("post-filter verified / query", post_verified as f64 / nq, 62.2);
    assert_reads("post-filter recall", post_recall, 1.0);
    // What the numbers above are pinned for: the in-loop predicate
    // verifies strictly fewer candidates than unfiltered search inflated
    // to no lower recall.
    assert!(verified < post_verified && post_recall >= filtered_recall);
}

/// The bounded distance kernel under a live top-k bound, over the shape
/// of the engine's verify phase: every query against the first 2 000
/// rows.
#[test]
fn early_abandon_share() {
    let w = smoke_workload();
    let mut topk = TopK::new(K);
    let (mut abandoned, mut seen) = (0u64, 0u64);
    for q in w.queries.iter() {
        topk.reset(K);
        for (id, v) in w.data.iter().take(2000).enumerate() {
            match euclidean_sq_bounded(q, v, topk.bound_sq()) {
                Some(d_sq) => drop(topk.insert(d_sq, id as u32)),
                None => abandoned += 1,
            }
            seen += 1;
        }
    }
    assert_reads("abandoned share", abandoned as f64 / seen as f64, 0.9673875);
}

/// 200 000 points streamed through the page file under a pool of a
/// twentieth of it. The other tests of this binary hold a few MiB each,
/// far below the slack of the resident-set bound.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode slice, run by the CI gates job")]
fn paged_slice_200k() {
    let before = cc_bench::large::peak_rss_bytes();
    let run = cc_bench::large::run(200_000, 50, K, 7).expect("paged slice");
    assert_reads("recall", run.recall, 0.79);
    assert_reads("physical reads / query", run.reads_per_query, 709.84);
    assert!(run.compression >= 2.0, "postings compress {:.2}x", run.compression);
    assert_eq!(run.parity_n, 100_000);
    assert_eq!(run.paged_parity_recall, run.mem_parity_recall);
    let grown = run.peak_rss_bytes - before;
    assert!(
        before > 0 && grown < run.file_bytes,
        "VmHWM grew {grown} B under a {} B page file",
        run.file_bytes
    );
}
