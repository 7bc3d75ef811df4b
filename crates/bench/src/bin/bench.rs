//! `bench run` — the unified benchmark harness.
//!
//! Subsumes the shared plumbing of the `exp_*` binaries (dataset prep,
//! ground truth, the method registry) behind one entry point that emits
//! a machine-readable `BENCH_<tag>.json` report (see
//! [`cc_bench::report`]) next to the human-readable console table.
//!
//! ```text
//! bench run --smoke                      # CI preset + kernel microbench
//! bench run --profile color --k 20      # one paper profile
//! bench run --profile custom:8000x64    # arbitrary shape
//! bench run --profile large             # out-of-core: stream 1M points
//!                                        # through the paged disk tier
//! bench run --smoke --check results/bench_baseline.json   # CI gate
//! bench run --smoke --write-baseline results/bench_baseline.json
//! bench f9                               # buffer-pool sensitivity sweep
//! ```
//!
//! `--check` exits nonzero when the current run regresses against the
//! checked-in baseline (recall/ratio drift, I/O-per-query or
//! index-bytes growth, paged-tier compression or parity-recall
//! collapse, filtered search no cheaper than post-filtering,
//! early-abandon speedup under its floor) — that is the CI
//! `bench-smoke` / `disk-large` gate. qps and latency are printed and
//! recorded, not gated: the ledger (`benchmark/`) judges those.
//!
//! `--profile large` never materializes the dataset: points are
//! generated in chunks and streamed into the page-file builder while
//! exact ground truth is folded into per-query top-k heaps, so peak RSS
//! stays far below the on-disk index size. The run records physical
//! I/O per query, on-disk index bytes, the buffer-pool hit rate and
//! peak RSS (VmHWM) in the report's `paged` section, plus an
//! equal-parameter parity sub-run against the in-memory backend.

use c2lsh::engine::SearchOptions;
use c2lsh::{C2lshConfig, C2lshIndex, PointMeta, Predicate};
use cc_bench::eval::evaluate_detailed;
use cc_bench::methods::{defaults, AnnIndex};
use cc_bench::prep::prepare_workload;
use cc_bench::report::{
    check_regression, percentile_ms, BenchReport, DatasetInfo, FilteredSearchReport,
    KernelBatchPoint, KernelsReport, MethodReport, PagedTierReport, VerifyKernelReport,
    SCHEMA_VERSION,
};
use cc_bench::table::{f1, f3, Table};
use cc_vector::dataset::Dataset;
use cc_vector::dist::{euclidean_sq, euclidean_sq_bounded};
use cc_vector::gt::{ground_truth, Neighbor};
use cc_vector::metrics::{overall_ratio, recall};
use cc_vector::scale::{mean_nn_distance, rescale};
use cc_vector::synth::Profile;
use cc_vector::topk::TopK;
use cc_vector::workload::Workload;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Registry keys accepted by `--methods`, in canonical order.
const METHOD_KEYS: [&str; 9] = [
    "c2lsh",
    "c2lsh-paged",
    "c2lsh-disk",
    "c2lsh-dyn",
    "qalsh",
    "e2lsh",
    "lsb",
    "multiprobe",
    "linear",
];

/// Methods the `--smoke` preset runs (dyn/lsb excluded to keep the CI
/// job fast; they stay available via `--methods`).
const SMOKE_METHODS: [&str; 7] =
    ["c2lsh", "c2lsh-paged", "c2lsh-disk", "qalsh", "e2lsh", "multiprobe", "linear"];

/// Paper-scale point count of the `large` profile (times `--scale`).
const LARGE_N: usize = 1_000_000;
/// Dimensionality of the `large` profile.
const LARGE_D: usize = 64;
/// Points per generated chunk during the large profile's streaming
/// ingest — the largest dataset slice ever resident in memory.
const LARGE_CHUNK: usize = 50_000;
/// Mixture components of the large profile's clustered distribution.
const LARGE_CLUSTERS: usize = 64;
/// Points in the large profile's equal-parameter parity sub-run.
const PARITY_N: usize = 100_000;

/// Streaming Gaussian-mixture generator for the large profile.
///
/// [`cc_vector::gen::Distribution::GaussianMixture`] draws its cluster
/// centers from the call's own seed, so generating a huge dataset in chunks with
/// per-chunk seeds would *move the mixture* between chunks. This
/// generator fixes the centers once and hands out chunks of the same
/// virtual stream: chunk contents depend on the chunk seed, the
/// distribution does not. Uniform data would stream trivially but is
/// the worst case for LSH contrast at d = 64 (distance concentration
/// drives recall toward zero for every method), which would make the
/// profile useless as a regression signal.
struct StreamMixture {
    centers: Vec<Vec<f64>>,
    sigma: f64,
}

impl StreamMixture {
    fn new(seed: u64, clusters: usize, d: usize, scale: f64, spread: f64) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let centers =
            (0..clusters).map(|_| (0..d).map(|_| rng.gen::<f64>() * scale).collect()).collect();
        Self { centers, sigma: spread * scale }
    }

    /// Points `[start, start + n)` of the virtual stream, as a dataset.
    fn chunk(&self, seed: u64, start: usize, n: usize) -> Dataset {
        use rand::SeedableRng;
        let d = self.centers[0].len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            seed ^ (start as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut normal = cc_vector::gen::NormalSampler::new();
        let mut flat = Vec::with_capacity(n * d);
        for i in start..start + n {
            let c = &self.centers[i % self.centers.len()];
            for &cj in c {
                flat.push((cj + self.sigma * normal.sample(&mut rng)) as f32);
            }
        }
        Dataset::from_flat(d, flat)
    }
}

struct RunConfig {
    profile: Profile,
    large: bool,
    scale: f64,
    scale_explicit: bool,
    queries: usize,
    k: usize,
    seed: u64,
    reps: usize,
    pool_pages: Option<usize>,
    methods: Vec<String>,
    tag: String,
    out_dir: PathBuf,
    check: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    kernel: Option<c2lsh::Kernel>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench run [options] | bench f9\n\
         \n\
         run options:\n\
           --smoke                preset: custom:4000x128, 40 queries, k=10, seed 42,\n\
                                  methods {smoke}, tag `smoke`, reps 7, kernel microbench on\n\
           --profile NAME         audio | mnist | color | labelme | custom:NxD | large\n\
                                  (`large` streams scale x 1M points through the paged\n\
                                  disk tier; scale defaults to 1.0 there)\n\
           --scale F              fraction of the paper-scale n (default {scale})\n\
           --queries N            held-out queries (default {queries})\n\
           --k N                  neighbors per query (default 10)\n\
           --seed N               RNG seed for data + every index (default 7)\n\
           --reps N               timing repetitions per method; qps and latency\n\
                                  percentiles come from the fastest rep (default 3)\n\
           --pool-pages N         buffer-pool capacity for `--profile large`\n\
                                  (default ~5% of the page file)\n\
           --methods a,b,c        subset of: {all}\n\
           --tag NAME             report tag; output file is BENCH_<tag>.json\n\
           --out DIR              output directory (default results/)\n\
           --check FILE           compare against a baseline report; exit 1 on regression\n\
           --write-baseline FILE  also write this run as the new baseline\n\
           --kernel NAME          pin the SIMD kernel: auto|scalar|sse2|avx2|neon\n\
                                  (default auto: CC_FORCE_SCALAR=1 or best detected)\n\
         \n\
         f9: sweep the pinned buffer pool's capacity over the paged tier\n\
         and write results/f9_buffer_pool.csv (recall / physical I/O vs\n\
         pool size; honors CC_BENCH_SCALE / CC_BENCH_QUERIES)",
        smoke = SMOKE_METHODS.join(","),
        scale = cc_bench::DEFAULT_SCALE,
        queries = cc_bench::DEFAULT_QUERIES,
        all = METHOD_KEYS.join(","),
    );
    std::process::exit(2);
}

fn parse_profile(s: &str) -> Profile {
    match s {
        "audio" => Profile::Audio,
        "mnist" => Profile::Mnist,
        "color" => Profile::Color,
        "labelme" => Profile::LabelMe,
        custom => {
            let Some(shape) = custom.strip_prefix("custom:") else {
                eprintln!("unknown profile `{s}`");
                usage();
            };
            let parts: Vec<_> = shape.split('x').collect();
            let parsed = match parts.as_slice() {
                [n, d] => n.parse().ok().zip(d.parse().ok()),
                _ => None,
            };
            let Some((n, d)) = parsed else {
                eprintln!("bad custom shape `{shape}` (expected NxD, e.g. 4000x128)");
                usage();
            };
            Profile::Custom { n, d }
        }
    }
}

fn parse_args() -> RunConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("run") {
        usage();
    }
    let mut cfg = RunConfig {
        profile: Profile::Color,
        large: false,
        scale: cc_bench::scale(),
        scale_explicit: false,
        queries: cc_bench::queries(),
        k: 10,
        seed: 7,
        reps: 3,
        pool_pages: None,
        methods: METHOD_KEYS.iter().map(|s| s.to_string()).collect(),
        tag: String::new(),
        out_dir: PathBuf::from("results"),
        check: None,
        write_baseline: None,
        kernel: None,
    };
    fn need<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> String {
        it.next()
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage();
            })
            .clone()
    }
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                cfg.profile = Profile::Custom { n: 4000, d: 128 };
                cfg.scale = 1.0;
                cfg.queries = 40;
                cfg.k = 10;
                cfg.seed = 42;
                cfg.methods = SMOKE_METHODS.iter().map(|s| s.to_string()).collect();
                cfg.tag = "smoke".into();
                // The smoke profile is tiny, so a single throttling dip
                // on a shared runner would dominate the recorded qps:
                // take the best of more reps.
                cfg.reps = 7;
            }
            "--profile" => {
                let name = need(&mut it, "--profile");
                if name == "large" {
                    cfg.large = true;
                } else {
                    cfg.profile = parse_profile(&name);
                }
            }
            "--scale" => {
                cfg.scale = need(&mut it, "--scale").parse().unwrap_or_else(|_| usage());
                cfg.scale_explicit = true;
            }
            "--queries" => {
                cfg.queries = need(&mut it, "--queries").parse().unwrap_or_else(|_| usage())
            }
            "--k" => cfg.k = need(&mut it, "--k").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = need(&mut it, "--seed").parse().unwrap_or_else(|_| usage()),
            "--reps" => {
                cfg.reps = need(&mut it, "--reps").parse().unwrap_or_else(|_| usage());
                if cfg.reps == 0 {
                    eprintln!("--reps must be >= 1");
                    usage();
                }
            }
            "--methods" => {
                cfg.methods = need(&mut it, "--methods").split(',').map(str::to_string).collect();
                for m in &cfg.methods {
                    if !METHOD_KEYS.contains(&m.as_str()) {
                        eprintln!("unknown method `{m}`");
                        usage();
                    }
                }
            }
            "--pool-pages" => {
                cfg.pool_pages =
                    Some(need(&mut it, "--pool-pages").parse().unwrap_or_else(|_| usage()))
            }
            "--tag" => cfg.tag = need(&mut it, "--tag"),
            "--out" => cfg.out_dir = PathBuf::from(need(&mut it, "--out")),
            "--check" => cfg.check = Some(PathBuf::from(need(&mut it, "--check"))),
            "--write-baseline" => {
                cfg.write_baseline = Some(PathBuf::from(need(&mut it, "--write-baseline")))
            }
            "--kernel" => {
                cfg.kernel = c2lsh::Kernel::parse(&need(&mut it, "--kernel")).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                })
            }
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    if cfg.large {
        // The large profile is paper-scale by definition: the global
        // CC_BENCH_SCALE default (meant to shrink the in-memory
        // profiles) does not apply unless --scale is passed explicitly.
        if !cfg.scale_explicit {
            cfg.scale = 1.0;
        }
        if cfg.tag.is_empty() {
            cfg.tag = "large".into();
        }
    }
    if cfg.tag.is_empty() {
        cfg.tag = cfg.profile.name().to_string();
    }
    cfg
}

/// Build a registry method over the shared (borrowed) dataset.
fn build_method<'d>(key: &str, data: &'d Dataset, seed: u64) -> Box<dyn AnnIndex + 'd> {
    match key {
        "c2lsh" => Box::new(defaults::c2lsh(data, seed)),
        "c2lsh-paged" => Box::new(defaults::c2lsh_paged(data, seed)),
        "c2lsh-disk" => Box::new(defaults::c2lsh_disk(data, seed)),
        "c2lsh-dyn" => Box::new(defaults::c2lsh_dyn(data, seed)),
        "qalsh" => Box::new(defaults::qalsh(data, seed)),
        "e2lsh" => Box::new(defaults::e2lsh(data, seed)),
        "lsb" => Box::new(defaults::lsb(data, seed)),
        "multiprobe" => Box::new(defaults::multiprobe(data, seed)),
        "linear" => Box::new(defaults::linear(data)),
        other => unreachable!("method keys are validated at parse time: {other}"),
    }
}

/// The seed's verification kernel, kept verbatim so the microbenchmark
/// measures the speedup the issue asks for ("over old kernel"): four
/// accumulator lanes, no early abandonment.
#[inline]
fn old_euclidean_sq(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch: {} vs {}", a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let (ac, ar) = a.split_at(a.len() - a.len() % 4);
    let (bc, br) = b.split_at(b.len() - b.len() % 4);
    for (ca, cb) in ac.chunks_exact(4).zip(bc.chunks_exact(4)) {
        for i in 0..4 {
            let d = ca[i] - cb[i];
            acc[i] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ar.iter().zip(br) {
        let d = x - y;
        tail += d * d;
    }
    (acc[0] + acc[1]) as f64 + (acc[2] + acc[3]) as f64 + tail as f64
}

/// Microbenchmark the verification hot path, old pipeline vs new, over
/// the same candidate stream (every workload query against a fixed
/// slice of the base data — the shape of the engine's verify phase).
///
/// * **old**: the seed's verify phase — 4-lane kernel, a fresh
///   candidate `Vec` per query, `sqrt` for every candidate, one full
///   sort at the end.
/// * **new**: this PR's verify phase — 8-lane early-abandon kernel
///   feeding a live top-k bound, reused scratch buffers.
///
/// Best-of-3 wall times; returns per-candidate costs, the speedup, and
/// the fraction of candidates the bounded kernel cut short.
fn verify_kernel_bench(w: &Workload, k: usize) -> VerifyKernelReport {
    let n_cand = w.n().min(2000);
    let per_pass = (w.queries.len() * n_cand) as f64;
    let mut old_best = f64::INFINITY;
    let mut new_best = f64::INFINITY;
    let mut abandoned = 0u64;
    let by_dist_then_id =
        |x: &Neighbor, y: &Neighbor| x.dist.total_cmp(&y.dist).then(x.id.cmp(&y.id));
    for rep in 0..3 {
        let t0 = Instant::now();
        for q in w.queries.iter() {
            let mut cands: Vec<Neighbor> = Vec::new();
            for (id, v) in w.data.iter().take(n_cand).enumerate() {
                let d_sq = old_euclidean_sq(q, v);
                cands.push(Neighbor::new(id as u32, d_sq.sqrt()));
            }
            cands.sort_by(by_dist_then_id);
            cands.truncate(k);
            black_box(cands.last().map(|nb| nb.dist));
        }
        old_best = old_best.min(t0.elapsed().as_secs_f64());

        let mut cands: Vec<Neighbor> = Vec::new();
        let mut topk = TopK::new(k);
        let mut pass_abandoned = 0u64;
        let t0 = Instant::now();
        for q in w.queries.iter() {
            cands.clear();
            topk.reset(k);
            for (id, v) in w.data.iter().take(n_cand).enumerate() {
                match euclidean_sq_bounded(q, v, topk.bound_sq()) {
                    Some(d_sq) => {
                        topk.insert(d_sq, id as u32);
                        cands.push(Neighbor::new(id as u32, d_sq.sqrt()));
                    }
                    None => pass_abandoned += 1,
                }
            }
            cands.sort_by(by_dist_then_id);
            cands.truncate(k);
            black_box(cands.last().map(|nb| nb.dist));
        }
        new_best = new_best.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            abandoned = pass_abandoned; // deterministic across reps
        }
    }
    VerifyKernelReport {
        old_ns_per_cand: old_best * 1e9 / per_pass,
        new_ns_per_cand: new_best * 1e9 / per_pass,
        speedup: old_best / new_best,
        abandon_rate: abandoned as f64 / per_pass,
    }
}

/// Microbenchmark the SIMD kernels against the scalar oracle on both
/// hot loops, plus the batched-projection sweep.
///
/// * **ns/hash**: one hash = one `d`-dim dot product + offset, over an
///   `m = 128` row matrix, queries hashed one at a time — the hashing
///   phase's unit of work. Measured for the scalar kernel and the
///   dispatched one (identical under `CC_FORCE_SCALAR=1`).
/// * **ns/cand**: one full-dimension bounded distance (bound = ∞ so
///   both kernels do identical work; the abandon *decision* path is
///   covered by the equivalence proptests, its end-to-end payoff by
///   [`verify_kernel_bench`]).
/// * **batch sweep**: dispatched-kernel [`project_batch`] cost per hash
///   as the number of coalesced queries grows — the curve that
///   justifies the batching worker's coalescing.
///
/// Best-of-3 wall times throughout; both kernels return bit-identical
/// results by contract, so only time differs.
///
/// [`project_batch`]: c2lsh::kernels::KernelDispatch::project_batch
fn kernels_bench(w: &Workload) -> KernelsReport {
    use c2lsh::kernels::{self, Kernel, KernelDispatch};
    let kd = *kernels::dispatch();
    let scalar = KernelDispatch::new(Kernel::Scalar).expect("scalar is always available");
    let d = w.data.dim();
    let m = 128usize;

    // Deterministic pseudo-random family (xorshift; no rand dependency
    // needed here and the exact values are irrelevant to timing).
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
    };
    let matrix: Vec<f32> = (0..m * d).map(|_| next()).collect();
    let offsets: Vec<f64> = (0..m).map(|_| next() as f64).collect();

    let nq = w.queries.len().max(1);
    let single_reps = (20_000 / nq).max(1);
    let mut out = vec![0.0f64; m];
    let mut time_single = |k: &KernelDispatch| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..single_reps {
                for q in w.queries.iter() {
                    k.project_family(&matrix, d, q, &offsets, &mut out);
                    black_box(out[0]);
                }
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best * 1e9 / (single_reps * nq * m) as f64
    };
    let scalar_ns_per_hash = time_single(&scalar);
    let dispatched_ns_per_hash = time_single(&kd);

    let n_cand = w.n().min(2000);
    let cand_reps = (40_000 / nq.max(1)).clamp(1, 100);
    let time_cand = |k: &KernelDispatch| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..cand_reps {
                for q in w.queries.iter() {
                    for v in w.data.iter().take(n_cand) {
                        black_box(k.euclidean_sq_bounded(q, v, f64::INFINITY));
                    }
                }
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best * 1e9 / (cand_reps * nq * n_cand) as f64
    };
    let scalar_ns_per_cand = time_cand(&scalar);
    let dispatched_ns_per_cand = time_cand(&kd);

    let batch_sweep = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|batch| {
            // A coalesced batch of `batch` queries, drawn cyclically
            // from the workload's query set.
            let mut flat = Vec::with_capacity(batch * d);
            for i in 0..batch {
                flat.extend_from_slice(w.queries.get(i % nq));
            }
            let qs = Dataset::from_flat(d, flat);
            let mut out = vec![0.0f64; batch * m];
            let reps = (40_000 / batch).max(1);
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t0 = Instant::now();
                for _ in 0..reps {
                    kd.project_batch(&matrix, d, &qs, &offsets, &mut out);
                    black_box(out[0]);
                }
                best = best.min(t0.elapsed().as_secs_f64());
            }
            KernelBatchPoint { batch, ns_per_hash: best * 1e9 / (reps * batch * m) as f64 }
        })
        .collect();

    KernelsReport {
        kernel: kd.kernel().name().into(),
        scalar_ns_per_hash,
        dispatched_ns_per_hash,
        hash_speedup: scalar_ns_per_hash / dispatched_ns_per_hash,
        scalar_ns_per_cand,
        dispatched_ns_per_cand,
        cand_speedup: scalar_ns_per_cand / dispatched_ns_per_cand,
        batch_sweep,
    }
}

/// A/B-measure filtered search against the naive plan on the same
/// index.
///
/// Every third point gets the target label (64 generator clusters and
/// a modulus of 3 are coprime, so every cluster mixes all labels and
/// the predicate is genuinely selective near every query). The two
/// arms:
///
/// * **filtered**: the predicate runs inside the collision-counting
///   loop — points failing it are rejected *before*
///   `euclidean_sq_bounded`, so they never count as verified.
/// * **post-filter**: query unfiltered with an inflated `k'`
///   (starting at `k / selectivity`, doubling until the kept top-`k`
///   reaches the filtered arm's recall on the matching subset), then
///   drop non-matching answers.
///
/// Recall for both arms is measured against exact k-NN over the
/// matching subset. The gate ([`check_regression`]) demands the
/// filtered arm verify strictly fewer candidates per query at
/// equal-or-better post-filter recall.
fn filtered_search_bench(w: &Workload, k: usize, seed: u64) -> FilteredSearchReport {
    const LABELS: u32 = 3;
    let n = w.n();
    let metas: Vec<PointMeta> = (0..n).map(|i| PointMeta::labeled(i as u32 % LABELS)).collect();
    let predicate = Predicate::label(1);
    let matching = metas.iter().filter(|m| predicate.matches(**m)).count();
    let selectivity = matching as f64 / n as f64;

    let cfg = C2lshConfig::builder().bucket_width(2.184).seed(seed).build();
    let index = C2lshIndex::build(&w.data, &cfg).with_meta(metas.clone());

    // Exact k-NN over the matching subset — the ground truth both arms
    // are scored against.
    let truth: Vec<Vec<u32>> = w
        .queries
        .iter()
        .map(|q| {
            let mut subset: Vec<Neighbor> = w
                .data
                .iter()
                .enumerate()
                .filter(|(id, _)| predicate.matches(metas[*id]))
                .map(|(id, v)| Neighbor::new(id as u32, euclidean_sq(q, v).sqrt()))
                .collect();
            subset.sort_by(|x, y| x.dist.total_cmp(&y.dist).then(x.id.cmp(&y.id)));
            subset.truncate(k);
            subset.into_iter().map(|nb| nb.id).collect()
        })
        .collect();
    let truth_size: usize = truth.iter().map(Vec::len).sum();

    let opts = SearchOptions { filter: Some(predicate), ..SearchOptions::default() };
    let (mut f_verified, mut f_rejected, mut f_hits) = (0u64, 0u64, 0usize);
    for (qi, q) in w.queries.iter().enumerate() {
        let (nn, stats) = index.query_with(q, k, &opts);
        f_verified += stats.candidates_verified as u64;
        f_rejected += stats.candidates_filtered as u64;
        f_hits += nn.iter().filter(|nb| truth[qi].contains(&nb.id)).count();
    }
    let filtered_recall = f_hits as f64 / truth_size.max(1) as f64;

    // Naive arm: inflate k' until post-filtering stops costing recall.
    let mut postfilter_k = ((k as f64 / selectivity).ceil() as usize).clamp(k + 1, n);
    let (mut p_verified, mut postfilter_recall);
    loop {
        p_verified = 0u64;
        let mut p_hits = 0usize;
        for (qi, q) in w.queries.iter().enumerate() {
            let (nn, stats) = index.query(q, postfilter_k);
            p_verified += stats.candidates_verified as u64;
            p_hits += nn
                .iter()
                .filter(|nb| predicate.matches(metas[nb.id as usize]))
                .take(k)
                .filter(|nb| truth[qi].contains(&nb.id))
                .count();
        }
        postfilter_recall = p_hits as f64 / truth_size.max(1) as f64;
        if postfilter_recall >= filtered_recall || postfilter_k >= n {
            break;
        }
        postfilter_k = (postfilter_k * 2).min(n);
    }

    let queries = w.queries.len().max(1) as f64;
    FilteredSearchReport {
        selectivity,
        postfilter_k,
        filtered_recall,
        postfilter_recall,
        filtered_verified_per_query: f_verified as f64 / queries,
        postfilter_verified_per_query: p_verified as f64 / queries,
        rejected_per_query: f_rejected as f64 / queries,
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("f9") => f9_main(),
        Some("run") => {
            let cfg = parse_args();
            // Pin the kernel before any index builds or hashes.
            if let Some(k) = cfg.kernel {
                if let Err(e) = c2lsh::kernels::init(k) {
                    eprintln!("--kernel: {e}");
                    return ExitCode::from(2);
                }
            }
            if cfg.large {
                run_large(&cfg)
            } else {
                run_standard(&cfg)
            }
        }
        _ => usage(),
    }
}

/// Peak resident set size (VmHWM) of this process, in bytes; 0 when
/// `/proc` is unavailable.
fn peak_rss_bytes() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0.0);
            return kb * 1024.0;
        }
    }
    0.0
}

/// Write `BENCH_<tag>.json`, optionally refresh the baseline, and run
/// the regression gate — the shared tail of every `bench run` flavor.
fn emit_report(report: &BenchReport, cfg: &RunConfig) -> ExitCode {
    if std::fs::create_dir_all(&cfg.out_dir).is_err() {
        eprintln!("error: cannot create {}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let out_path = cfg.out_dir.join(format!("BENCH_{}.json", cfg.tag));
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("[saved {}]", out_path.display());

    if let Some(path) = &cfg.write_baseline {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write baseline {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("[saved baseline {}]", path.display());
    }

    if let Some(path) = &cfg.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: bad baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let violations = check_regression(&baseline, report);
        if violations.is_empty() {
            println!("regression gate: PASS vs {}", path.display());
        } else {
            eprintln!("regression gate: FAIL vs {}", path.display());
            for v in &violations {
                eprintln!("  - {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn run_standard(cfg: &RunConfig) -> ExitCode {
    let (n_paper, d) = cfg.profile.shape();
    let n = ((n_paper as f64 * cfg.scale) as usize).max(1);
    let dataset_name = match cfg.profile {
        Profile::Custom { n, d } => format!("custom-{n}x{d}"),
        p => p.name().to_string(),
    };
    println!(
        "bench run: {dataset_name} n={n} d={d} queries={q} k={k} seed={s}",
        q = cfg.queries,
        k = cfg.k,
        s = cfg.seed
    );

    let w = prepare_workload(cfg.profile, cfg.scale, cfg.queries, cfg.k.max(100), cfg.seed);

    println!("kernel microbench: old verify pipeline vs early-abandon...");
    let verify = verify_kernel_bench(&w, cfg.k);
    println!(
        "  old {:.1} ns/cand, new {:.1} ns/cand -> {:.2}x speedup ({:.0}% abandoned)",
        verify.old_ns_per_cand,
        verify.new_ns_per_cand,
        verify.speedup,
        verify.abandon_rate * 100.0
    );

    println!("kernels: scalar oracle vs dispatched SIMD on both hot loops...");
    let kernels = kernels_bench(&w);
    println!(
        "  kernel {}: hash {:.1} -> {:.1} ns ({:.2}x), dist {:.1} -> {:.1} ns/cand ({:.2}x)",
        kernels.kernel,
        kernels.scalar_ns_per_hash,
        kernels.dispatched_ns_per_hash,
        kernels.hash_speedup,
        kernels.scalar_ns_per_cand,
        kernels.dispatched_ns_per_cand,
        kernels.cand_speedup,
    );
    let sweep: Vec<String> =
        kernels.batch_sweep.iter().map(|p| format!("{}:{:.1}", p.batch, p.ns_per_hash)).collect();
    println!("  batch sweep (queries:ns/hash): {}", sweep.join("  "));

    println!("filtered search: in-loop predicate vs unfiltered + post-filter...");
    let filtered_search = filtered_search_bench(&w, cfg.k, cfg.seed);
    println!(
        "  selectivity {:.2}: filtered {:.1} verified/query (recall {:.3}, {:.1} rejected \
         pre-verify) vs post-filter k'={} {:.1} verified/query (recall {:.3})",
        filtered_search.selectivity,
        filtered_search.filtered_verified_per_query,
        filtered_search.filtered_recall,
        filtered_search.rejected_per_query,
        filtered_search.postfilter_k,
        filtered_search.postfilter_verified_per_query,
        filtered_search.postfilter_recall,
    );

    let mut table = Table::new(
        format!("bench run · {dataset_name} · k={}", cfg.k),
        &[
            "method",
            "qps",
            "p50ms",
            "p95ms",
            "p99ms",
            "recall",
            "ratio",
            "verified",
            "abandoned",
            "io",
            "MiB",
        ],
    );
    let mut methods = Vec::new();
    for key in &cfg.methods {
        let index = build_method(key, &w.data, cfg.seed);
        // Quality metrics and counters are deterministic across reps;
        // timing is not (single-vCPU CI runners are noisy), so qps and
        // the latency percentiles come from the fastest rep.
        let (row, agg, mut lat) = evaluate_detailed(index.as_ref(), &w, cfg.k);
        for _ in 1..cfg.reps {
            let (_, _, l) = evaluate_detailed(index.as_ref(), &w, cfg.k);
            if l.iter().sum::<u64>() < lat.iter().sum::<u64>() {
                lat = l;
            }
        }
        let total_s: f64 = lat.iter().map(|&ns| ns as f64 / 1e9).sum();
        let m = MethodReport {
            name: row.method.clone(),
            qps: if total_s > 0.0 { lat.len() as f64 / total_s } else { 0.0 },
            p50_ms: percentile_ms(&lat, 50.0),
            p95_ms: percentile_ms(&lat, 95.0),
            p99_ms: percentile_ms(&lat, 99.0),
            recall: row.recall,
            ratio: row.ratio,
            verified_per_query: row.verified,
            abandoned_per_query: agg.abandoned as f64 / agg.queries.max(1) as f64,
            io_per_query: row.io_reads,
            index_bytes: index.size_bytes() as f64,
        };
        table.row(vec![
            m.name.clone(),
            f1(m.qps),
            f3(m.p50_ms),
            f3(m.p95_ms),
            f3(m.p99_ms),
            f3(m.recall),
            f3(m.ratio),
            f1(m.verified_per_query),
            f1(m.abandoned_per_query),
            f1(m.io_per_query),
            f3(m.index_bytes / (1024.0 * 1024.0)),
        ]);
        methods.push(m);
    }
    table.print();

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        tag: cfg.tag.clone(),
        dataset: DatasetInfo { name: dataset_name, n: w.n(), d, queries: w.queries.len() },
        k: cfg.k,
        seed: cfg.seed,
        verify: Some(verify),
        kernels: Some(kernels),
        filtered_search: Some(filtered_search),
        paged: None,
        methods,
    };

    emit_report(&report, cfg)
}

/// `bench run --profile large` — stream `scale × 1M` synthetic points
/// through the paged disk tier without ever materializing the dataset.
///
/// Chunks are generated, normalized and appended to the page-file
/// builder one at a time; exact ground truth is folded into per-query
/// top-k heaps during the same pass (early-abandoned against the
/// current k-th distance), so the working set is one chunk plus the
/// heaps regardless of `n`. After the out-of-core query phase the run
/// records peak RSS (VmHWM) and finishes with an equal-parameter
/// parity sub-run: in-memory and paged backends built on the same
/// materialized slice, gated to within [`cc_bench::report::RECALL_TOLERANCE`].
fn run_large(cfg: &RunConfig) -> ExitCode {
    let n = ((LARGE_N as f64 * cfg.scale) as usize).max(10_000);
    let d = LARGE_D;
    let k = cfg.k;
    let dataset_name = format!("large-mixture-{n}x{d}");
    println!(
        "bench run: {dataset_name} (streaming ingest, never materialized) queries={q} k={k} seed={s}",
        q = cfg.queries,
        s = cfg.seed
    );

    // Fixed-center mixture: chunks with per-chunk seeds all draw from
    // the same distribution (see [`StreamMixture`]).
    let mix = StreamMixture::new(cfg.seed, LARGE_CLUSTERS, d, 10.0, 0.02);
    // Unit-NN normalization factor from a probe chunk — the paper's
    // protocol, estimated on a sample because the full set never
    // exists in memory.
    let probe = mix.chunk(cfg.seed, 0, 20_000.min(n));
    let factor = 1.0 / mean_nn_distance(&probe, 50);
    drop(probe);
    let queries = rescale(&mix.chunk(cfg.seed ^ 0x9e37_79b9, 0, cfg.queries.max(1)), factor);

    // The paper's default verification budget (β·n = 100) is tuned for
    // its ≤ 68k-point datasets; held constant to 1M points it truncates
    // the candidate list long before the true neighbors are verified
    // and recall decays with n for *every* backend. Scale the budget
    // sublinearly (0.2% of n, floor 100) so the million-point profile
    // measures the disk tier, not budget starvation.
    let beta = c2lsh::config::Beta::Count((n as u64 / 500).max(100));
    let config = C2lshConfig::builder().bucket_width(2.184).seed(cfg.seed).beta(beta).build();

    let scratch = std::env::temp_dir().join(format!("cc-bench-large-{}.ccpg", std::process::id()));
    let t_ingest = Instant::now();
    let mut builder = match c2lsh::PagedBuilder::create(&scratch, d, n, &config) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot create page file {}: {e}", scratch.display());
            return ExitCode::FAILURE;
        }
    };
    let mut heaps: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
    let mut next_id: u32 = 0;
    let mut chunk_i: u64 = 0;
    while (next_id as usize) < n {
        let take = LARGE_CHUNK.min(n - next_id as usize);
        let chunk = rescale(
            &mix.chunk(cfg.seed.wrapping_add(1000 + chunk_i), next_id as usize, take),
            factor,
        );
        for row in chunk.iter() {
            if let Err(e) = builder.append(row) {
                eprintln!("error: ingest failed at point {next_id}: {e}");
                return ExitCode::FAILURE;
            }
            for (qi, q) in queries.iter().enumerate() {
                if let Some(d_sq) = euclidean_sq_bounded(q, row, heaps[qi].bound_sq()) {
                    heaps[qi].insert(d_sq, next_id);
                }
            }
            next_id += 1;
        }
        chunk_i += 1;
        if chunk_i.is_multiple_of(4) || (next_id as usize) == n {
            println!("  ingested {next_id}/{n} points ({:.0}s)", t_ingest.elapsed().as_secs_f64());
        }
    }
    let truth: Vec<Vec<Neighbor>> = heaps.iter_mut().map(TopK::drain_sorted).collect();
    let store = match builder.finish(1) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: finishing the page file failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut store = store.delete_file_on_drop();
    let ingest_seconds = t_ingest.elapsed().as_secs_f64();

    let file_pages = (store.file_bytes() as usize).div_ceil(cc_storage::PAGE_SIZE);
    let pool_pages = cfg.pool_pages.unwrap_or((file_pages / 20).max(256));
    store.set_pool_pages(pool_pages);
    let index_bytes = store.posting_bytes() as f64;
    let compression_ratio =
        store.uncompressed_posting_bytes() as f64 / store.posting_bytes().max(1) as f64;
    println!(
        "  page file: {file_pages} pages ({:.1} MiB), postings {:.1} MiB compressed \
         ({compression_ratio:.2}x vs plain layout), buffer pool {pool_pages} pages",
        store.file_bytes() as f64 / (1024.0 * 1024.0),
        index_bytes / (1024.0 * 1024.0),
    );

    // Out-of-core query phase: every posting and every vector comes
    // through the buffer pool; io_per_query counts physical reads
    // (pool misses), the paper's cost model for a cached disk index.
    let opts = SearchOptions { timing: true, ..SearchOptions::default() };
    let nq = queries.len() as f64;
    let mut lat = Vec::with_capacity(queries.len());
    let (mut rec_sum, mut ratio_sum) = (0.0f64, 0.0f64);
    let (mut verified, mut abandoned) = (0u64, 0u64);
    for (qi, q) in queries.iter().enumerate() {
        let t0 = Instant::now();
        let (nn, stats) = store.query_with(q, k, &opts);
        lat.push(t0.elapsed().as_nanos() as u64);
        rec_sum += recall(&nn, &truth[qi]);
        ratio_sum += overall_ratio(&nn, &truth[qi]);
        verified += stats.candidates_verified as u64;
        abandoned += stats.candidates_abandoned as u64;
    }
    let io_per_query = store.physical_reads() as f64 / nq;
    let pool_stats = store.pool_stats();
    // VmHWM is monotonic, so read it after the query phase and before
    // the (materialized) parity sub-run inflates it.
    let peak_rss = peak_rss_bytes();
    println!(
        "  queries: recall {:.3}, {:.1} physical reads/query, pool hit rate {:.3}, \
         peak RSS {:.0} MiB",
        rec_sum / nq,
        io_per_query,
        pool_stats.hit_ratio(),
        peak_rss / (1024.0 * 1024.0),
    );

    // Equal-parameter parity: both backends on the same materialized
    // slice, same config — the paged tier must not trade recall away.
    let parity_n = PARITY_N.min(n);
    let parity_data = rescale(&mix.chunk(cfg.seed.wrapping_add(77), 0, parity_n), factor);
    let parity_truth = ground_truth(&parity_data, &queries, k);
    let mem_index = C2lshIndex::build(&parity_data, &config);
    let parity_path =
        std::env::temp_dir().join(format!("cc-bench-parity-{}.ccpg", std::process::id()));
    let parity_pool = ((parity_n * d * 4 / cc_storage::PAGE_SIZE) / 20).max(64);
    let parity_store =
        match c2lsh::PagedStore::build(&parity_data, &config, &parity_path, parity_pool) {
            Ok(s) => s.delete_file_on_drop(),
            Err(e) => {
                eprintln!("error: parity page file failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    let (mut mem_rec, mut paged_rec) = (0.0f64, 0.0f64);
    for (qi, q) in queries.iter().enumerate() {
        let (nn_mem, _) = mem_index.query(q, k);
        mem_rec += recall(&nn_mem, &parity_truth[qi]);
        let (nn_paged, _) = parity_store.query(q, k);
        paged_rec += recall(&nn_paged, &parity_truth[qi]);
    }
    let (mem_parity_recall, paged_parity_recall) = (mem_rec / nq, paged_rec / nq);
    println!(
        "  parity @ n={parity_n}: in-memory recall {mem_parity_recall:.3}, \
         paged recall {paged_parity_recall:.3}"
    );

    let total_s: f64 = lat.iter().map(|&ns| ns as f64 / 1e9).sum();
    let row = MethodReport {
        name: "C2LSH(paged)".into(),
        qps: if total_s > 0.0 { lat.len() as f64 / total_s } else { 0.0 },
        p50_ms: percentile_ms(&lat, 50.0),
        p95_ms: percentile_ms(&lat, 95.0),
        p99_ms: percentile_ms(&lat, 99.0),
        recall: rec_sum / nq,
        ratio: ratio_sum / nq,
        verified_per_query: verified as f64 / nq,
        abandoned_per_query: abandoned as f64 / nq,
        io_per_query,
        index_bytes,
    };
    let paged = PagedTierReport {
        points: n,
        ingest_seconds,
        io_per_query,
        index_bytes,
        file_bytes: store.file_bytes() as f64,
        bufpool_pages: pool_pages,
        bufpool_hit_rate: pool_stats.hit_ratio(),
        compression_ratio,
        peak_rss_bytes: peak_rss,
        parity_points: parity_n,
        paged_parity_recall,
        mem_parity_recall,
    };
    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        tag: cfg.tag.clone(),
        dataset: DatasetInfo { name: dataset_name, n, d, queries: queries.len() },
        k,
        seed: cfg.seed,
        verify: None,
        kernels: None,
        filtered_search: None,
        paged: Some(paged),
        methods: vec![row],
    };
    emit_report(&report, cfg)
}

/// `bench f9` — sweep the pinned buffer pool's capacity over a real
/// paged index and record recall / physical I/O per pool size, writing
/// `results/f9_buffer_pool.csv` (figure 9's curve). Unlike the old
/// trace-replay simulation, every row here queries the actual
/// `PagedStore` through the actual pool, so hit rates include vector
/// pages and posting pages alike.
fn f9_main() -> ExitCode {
    let scale = cc_bench::scale();
    let nq = cc_bench::queries();
    let k = 10;
    let mut t = Table::new(
        format!("F9: pinned buffer-pool sensitivity of the paged tier (k = {k})"),
        &["dataset", "file_pages", "pool_pages", "pool_frac", "hit_rate", "io_per_query", "recall"],
    );
    for profile in [Profile::Mnist, Profile::Color] {
        let w = prepare_workload(profile, scale, nq, k, 59);
        let cfg = C2lshConfig::builder().bucket_width(2.184).seed(59).build();
        let path = std::env::temp_dir().join(format!(
            "cc-bench-f9-{}-{}.ccpg",
            std::process::id(),
            profile.name()
        ));
        let mut store = match c2lsh::PagedStore::build(&w.data, &cfg, &path, 1) {
            Ok(s) => s.delete_file_on_drop(),
            Err(e) => {
                eprintln!("error: paged build failed for {}: {e}", profile.name());
                return ExitCode::FAILURE;
            }
        };
        let truth = w.truth_at(k);
        let file_pages = (store.file_bytes() as usize).div_ceil(cc_storage::PAGE_SIZE);
        for frac in [0.01f64, 0.05, 0.1, 0.25, 0.5] {
            let pages = ((file_pages as f64 * frac) as usize).max(1);
            // A fresh pool per capacity: hit rates and physical reads
            // below cover exactly this sweep point's query pass.
            store.set_pool_pages(pages);
            let mut rec = 0.0;
            for (qi, q) in w.queries.iter().enumerate() {
                let (nn, _) = store.query(q, k);
                rec += recall(&nn, &truth[qi]);
            }
            let s = store.pool_stats();
            t.row(vec![
                profile.name().into(),
                file_pages.to_string(),
                pages.to_string(),
                f3(frac),
                f3(s.hit_ratio()),
                f1(store.physical_reads() as f64 / nq.max(1) as f64),
                f3(rec / nq.max(1) as f64),
            ]);
        }
        eprintln!("[{} done]", profile.name());
    }
    t.print();
    t.save_csv("f9_buffer_pool");
    ExitCode::SUCCESS
}
