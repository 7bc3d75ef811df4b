//! `bench <id>` — every table and figure of the evaluation, one
//! subcommand each (DESIGN.md §3 is the index, EXPERIMENTS.md holds the
//! recorded outputs).
//!
//! ```text
//! bench t3          # one experiment: its table on stdout, its CSV under results/
//! bench all         # all of them, in the order of `EXPERIMENTS`
//! CC_SCALE=1 CC_QUERIES=100 bench f2    # paper-scale sizes
//! ```
//!
//! Two settings, read once: `CC_SCALE` (fraction of the paper's data set
//! sizes, default 0.10; `large` streams `CC_SCALE` × 1 M points) and
//! `CC_QUERIES` (held-out queries, default 50). Every experiment is
//! seeded, so every column but the wall-clock ones (`ms`, `build_s`)
//! repeats exactly. The deterministic gates over the same builders are
//! tests: `cargo test --release -p cc-bench -- --include-ignored`.

use c2lsh::{Beta, C2lshConfig, C2lshIndex, DiskIndex, FullParams, HashFamily, PagedStore};
use cc_baselines::e2lsh::{E2lsh, E2lshConfig};
use cc_baselines::lsb::{LsbConfig, LsbForest};
use cc_baselines::multiprobe::{MultiProbeConfig, MultiProbeLsh};
use cc_baselines::rigorous::{RigorousConfig, RigorousLsh};
use cc_bench::eval::evaluate;
use cc_bench::methods::{
    defaults, AnnIndex, C2lshDisk, C2lshMem, E2lshIdx, LsbIdx, MultiProbeIdx, QalshIdx, RigorousIdx,
};
use cc_bench::prep::{mean_nn_distance, prepare_workload};
use cc_bench::table::{f1, f3, push_eval_row, Table, EVAL_HEADERS};
use cc_vector::dataset::Dataset;
use cc_vector::dist::dot;
use cc_vector::metrics::{overall_ratio, recall};
use cc_vector::synth::Profile;
use qalsh::{Qalsh, QalshConfig};
use std::io;
use std::process::ExitCode;
use std::time::Instant;

/// One experiment: the scale and the query count in, its table out.
type Experiment = fn(f64, usize) -> io::Result<Table>;

/// Subcommand, CSV stem under `results/`, function — in `all`'s order.
/// `large` leads: its peak-RSS column is the process's high-water mark,
/// which the in-memory experiments would have raised before it ran.
const EXPERIMENTS: [(&str, &str, Experiment); 18] = [
    ("large", "large_paged", large),
    ("t1", "t1_datasets", t1),
    ("t2", "t2_params", t2),
    ("t3", "t3_index_size", t3),
    ("f1", "f1_ratio_vs_k", fig1),
    ("f2", "f2_io_vs_k", fig2),
    ("f3", "f3_time_vs_k", fig3),
    ("f4", "f4_effect_of_c", fig4),
    ("f5", "f5_effect_of_beta", fig5),
    ("f6", "f6_recall_frontier", fig6),
    ("f7", "f7_scalability", fig7),
    ("f8", "f8_effect_of_w", fig8),
    ("f9", "f9_buffer_pool", fig9),
    ("a1", "a1_virtual_rehash", a1),
    ("a2", "a2_counting_vs_concat", a2),
    ("a3", "a3_m_sweep", a3),
    ("v1", "v1_collision_prob", v1),
    ("v2", "v2_success_prob", v2),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let picked: Vec<_> = match args.as_slice() {
        [id] => EXPERIMENTS.iter().filter(|(name, ..)| id == "all" || id == name).collect(),
        _ => Vec::new(),
    };
    if picked.is_empty() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        eprintln!("usage: [CC_SCALE=0.1] [CC_QUERIES=50] bench <{}|all>", ids.join("|"));
        return ExitCode::from(2);
    }
    let (scale, nq) = (cc_bench::scale(), cc_bench::queries());
    for (id, csv, experiment) in picked {
        println!("##### {id}");
        match experiment(scale, nq) {
            Ok(table) => {
                table.print();
                table.save_csv(csv);
            }
            Err(e) => {
                eprintln!("error: {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The methods the per-k figures and T3 compare, at their defaults.
#[derive(Clone, Copy)]
enum Method {
    C2lsh,
    C2lshDisk,
    Qalsh,
    E2lsh,
    Lsb,
    MultiProbe,
    Rigorous,
    Linear,
}

fn build(method: Method, data: &Dataset, seed: u64) -> Box<dyn AnnIndex + '_> {
    match method {
        Method::C2lsh => Box::new(defaults::c2lsh(data, seed)),
        Method::C2lshDisk => Box::new(defaults::c2lsh_disk(data, seed)),
        Method::Qalsh => Box::new(defaults::qalsh(data, seed)),
        Method::E2lsh => Box::new(defaults::e2lsh(data, seed)),
        Method::Lsb => Box::new(defaults::lsb(data, seed)),
        Method::MultiProbe => Box::new(defaults::multiprobe(data, seed)),
        Method::Rigorous => Box::new(rigorous(data, 64, 10, seed)),
        Method::Linear => Box::new(defaults::linear(data)),
    }
}

/// Rigorous-LSH: one physical K = 8 E2LSH index per radius level.
fn rigorous(data: &Dataset, l_tables: usize, levels: u32, seed: u64) -> RigorousIdx<'_> {
    let base = E2lshConfig { k_funcs: 8, l_tables, w: 2.184, seed };
    RigorousIdx(RigorousLsh::build(data, RigorousConfig { base, c: 2, levels }))
}

fn mib(bytes: usize) -> String {
    f1(bytes as f64 / (1024.0 * 1024.0))
}

/// Every method at every `k` on the four paper profiles, in the
/// canonical columns.
fn methods_vs_k(
    title: String,
    methods: &[Method],
    ks: &[usize],
    seed: u64,
    scale: f64,
    nq: usize,
) -> io::Result<Table> {
    let mut t = Table::new(title, &EVAL_HEADERS);
    for profile in Profile::paper_profiles() {
        let w = prepare_workload(profile, scale, nq, ks[ks.len() - 1], seed);
        let built: Vec<_> = methods.iter().map(|&m| build(m, &w.data, seed)).collect();
        for &k in ks {
            for index in &built {
                push_eval_row(&mut t, profile.name(), &evaluate(index.as_ref(), &w, k));
            }
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **T1 — data set statistics.** The four evaluation profiles at the
/// configured scale beside the paper-scale shapes they mirror.
fn t1(scale: f64, nq: usize) -> io::Result<Table> {
    let mut t = Table::new(
        format!("T1: datasets (scale {scale}, {nq} queries)"),
        &["dataset", "n(paper)", "d", "n(run)", "queries", "meanNN(norm)"],
    );
    for profile in Profile::paper_profiles() {
        let (n_full, d) = profile.shape();
        let w = prepare_workload(profile, scale, nq, 1, 42);
        t.row(vec![
            profile.name().to_string(),
            n_full.to_string(),
            d.to_string(),
            w.n().to_string(),
            w.queries.len().to_string(),
            f3(mean_nn_distance(&w.data, 30)),
        ]);
    }
    Ok(t)
}

/// **T2 — derived parameters.** Per profile and `c ∈ {2, 3}`: `p1`,
/// `p2`, the threshold percentage `α*`, the number of hash functions `m`
/// and the collision threshold `l` the Hoeffding machinery derives,
/// beside QALSH's.
fn t2(scale: f64, _nq: usize) -> io::Result<Table> {
    let mut t = Table::new(
        format!("T2: derived parameters (scale {scale}, delta = 1/e, beta = 100/n)"),
        &["dataset", "n", "c", "method", "w", "p1", "p2", "alpha*", "m", "l"],
    );
    for profile in Profile::paper_profiles() {
        let n = ((profile.shape().0 as f64 * scale) as usize).max(1);
        for c in [2u32, 3] {
            let cfg = C2lshConfig::builder().approximation_ratio(c).build();
            let p = FullParams::derive(n, &cfg);
            let w_q = qalsh::params::optimal_width(c);
            let dq = qalsh::params::derive(c, w_q, cfg.delta, 100.0 / n as f64);
            for (method, w, p1, p2, alpha, m, l) in [
                ("C2LSH", cfg.w, p.derived.p1, p.derived.p2, p.derived.alpha, p.m, p.l),
                ("QALSH", w_q, dq.p1, dq.p2, dq.alpha, dq.m, dq.l),
            ] {
                t.row(vec![
                    profile.name().into(),
                    n.to_string(),
                    c.to_string(),
                    method.into(),
                    f3(w),
                    f3(p1),
                    f3(p2),
                    f3(alpha),
                    m.to_string(),
                    l.to_string(),
                ]);
            }
        }
    }
    Ok(t)
}

/// **T3 — index size and construction time**, the headline of C2LSH's
/// space advantage. The paper's shape: LSB-forest ≫ rigorous-LSH ≫
/// E2LSH > C2LSH.
fn t3(scale: f64, _nq: usize) -> io::Result<Table> {
    let mut t = Table::new(
        format!("T3: index size & build time (scale {scale})"),
        &["dataset", "n", "method", "MiB", "build_s"],
    );
    for profile in Profile::paper_profiles() {
        let w = prepare_workload(profile, scale, 1, 1, 7);
        for method in [
            Method::C2lsh,
            Method::Qalsh,
            Method::E2lsh,
            Method::Lsb,
            Method::MultiProbe,
            Method::Rigorous,
        ] {
            let t0 = Instant::now();
            let index = build(method, &w.data, 7);
            let build_s = t0.elapsed().as_secs_f64();
            t.row(vec![
                profile.name().to_string(),
                w.n().to_string(),
                index.name().to_string(),
                mib(index.size_bytes()),
                f3(build_s),
            ]);
        }
    }
    Ok(t)
}

/// **F1 — overall ratio and recall vs k.** Every method stays well below
/// the `c = 2` bound; C2LSH and QALSH track 1.0 and degrade more slowly
/// with `k` than the static-framework methods.
fn fig1(scale: f64, nq: usize) -> io::Result<Table> {
    let title = format!("F1: ratio & recall vs k (scale {scale}, {nq} queries)");
    let methods = [Method::C2lsh, Method::Qalsh, Method::E2lsh, Method::Lsb, Method::MultiProbe];
    methods_vs_k(title, &methods, &[1, 10, 20, 40, 60, 80, 100], 11, scale, nq)
}

/// **F2 — page I/O vs k** (C2LSH and LSB-forest are disk-based systems
/// and the paper reports page reads): `DiskIndex`'s page meter, `Qalsh`'s
/// node meter, LSB-forest's page model, and the linear scan's full read
/// as the upper reference.
fn fig2(scale: f64, nq: usize) -> io::Result<Table> {
    let title = format!("F2: page I/O vs k (scale {scale}, {nq} queries)");
    let methods = [Method::C2lshDisk, Method::Qalsh, Method::Lsb, Method::Linear];
    methods_vs_k(title, &methods, &[1, 10, 20, 40, 60, 80, 100], 13, scale, nq)
}

/// **F3 — wall-clock query time vs k**, memory mode, with the exact
/// linear scan as the budget every approximate method must undercut.
fn fig3(scale: f64, nq: usize) -> io::Result<Table> {
    let title = format!("F3: query time vs k, memory mode (scale {scale}, {nq} queries)");
    let methods = [Method::C2lsh, Method::Qalsh, Method::E2lsh, Method::Lsb, Method::Linear];
    methods_vs_k(title, &methods, &[1, 10, 50, 100], 17, scale, nq)
}

/// **F4 — effect of the approximation ratio c.** A larger `c` widens the
/// `p1 / p2` gap, shrinking `m`, the index and the query cost at the
/// price of a weaker guarantee (disk backend).
fn fig4(scale: f64, nq: usize) -> io::Result<Table> {
    let k = 10;
    let mut t = Table::new(
        format!("F4: effect of c (k = {k}, scale {scale}, {nq} queries)"),
        &["dataset", "c", "m", "l", "MiB", "recall", "ratio", "io", "verified"],
    );
    for profile in Profile::paper_profiles() {
        let w = prepare_workload(profile, scale, nq, k, 19);
        for c in [2u32, 3] {
            let cfg = C2lshConfig::builder()
                .approximation_ratio(c)
                .bucket_width(if c == 2 { 2.184 } else { 2.719 })
                .seed(19)
                .build();
            let idx = C2lshDisk(DiskIndex::build(&w.data, &cfg));
            let row = evaluate(&idx, &w, k);
            let p = idx.0.params();
            t.row(vec![
                profile.name().into(),
                c.to_string(),
                p.m.to_string(),
                p.l.to_string(),
                mib(idx.size_bytes()),
                f3(row.recall),
                f3(row.ratio),
                f1(row.io_reads),
                f1(row.verified),
            ]);
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **F5 — effect of the false-positive budget β.** β sets terminating
/// condition T2 (`k + βn` verified candidates) *and* feeds the Hoeffding
/// bound, so a larger β verifies more candidates and slightly shrinks
/// `m`.
fn fig5(scale: f64, nq: usize) -> io::Result<Table> {
    let k = 10;
    let mut t = Table::new(
        format!("F5: effect of beta (k = {k}, scale {scale}, {nq} queries)"),
        &["dataset", "beta_count", "m", "recall", "ratio", "verified", "io"],
    );
    for profile in [Profile::Mnist, Profile::Color] {
        let w = prepare_workload(profile, scale, nq, k, 23);
        for beta_count in [25u64, 50, 100, 200, 400] {
            let cfg = C2lshConfig::builder()
                .bucket_width(2.184)
                .beta(Beta::Count(beta_count))
                .seed(23)
                .build();
            let idx = C2lshDisk(DiskIndex::build(&w.data, &cfg));
            let row = evaluate(&idx, &w, k);
            t.row(vec![
                profile.name().into(),
                beta_count.to_string(),
                idx.0.params().m.to_string(),
                f3(row.recall),
                f3(row.ratio),
                f1(row.verified),
                f1(row.io_reads),
            ]);
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **F6 — recall / query-time frontier.** The paper reports each method
/// at its best parameters per recall level: a small grid per method,
/// every (recall, time) point printed; the frontier is the lower
/// envelope per method.
fn fig6(scale: f64, nq: usize) -> io::Result<Table> {
    let k = 10;
    let mut t = Table::new(
        format!("F6: recall/time frontier (k = {k}, scale {scale}, {nq} queries)"),
        &["dataset", "method", "params", "recall", "ratio", "ms"],
    );
    let w = prepare_workload(Profile::Mnist, scale, nq, k, 29);
    let mut point = |index: &dyn AnnIndex, params: String| {
        let r = evaluate(index, &w, k);
        t.row(vec![
            Profile::Mnist.name().into(),
            index.name().into(),
            params,
            f3(r.recall),
            f3(r.ratio),
            f3(r.time_ms),
        ]);
    };
    // C2LSH and QALSH: the verification budget, via beta.
    for beta in [25u64, 50, 100, 200, 400, 800] {
        let cfg =
            C2lshConfig::builder().bucket_width(2.184).beta(Beta::Count(beta)).seed(29).build();
        point(&C2lshMem(C2lshIndex::build(&w.data, &cfg)), format!("beta={beta}"));
    }
    for beta in [25u64, 50, 100, 200, 400] {
        let cfg = QalshConfig { beta_count: beta, seed: 29, ..Default::default() };
        point(&QalshIdx(Qalsh::build(&w.data, cfg)), format!("beta={beta}"));
    }
    for (kf, l) in [(10, 32), (8, 32), (8, 64), (6, 64), (6, 128), (4, 128)] {
        let cfg = E2lshConfig { k_funcs: kf, l_tables: l, w: 2.184, seed: 29 };
        point(&E2lshIdx(E2lsh::build(&w.data, cfg)), format!("K={kf},L={l}"));
    }
    for (l, budget) in [(8, 100), (16, 100), (16, 200), (24, 200), (24, 400), (32, 800)] {
        let cfg = LsbConfig {
            k_funcs: 8,
            l_trees: l,
            u_bits: 16,
            w: 1.5,
            c: 2,
            budget,
            quality_stop: false,
            seed: 29,
        };
        point(&LsbIdx(LsbForest::build(&w.data, cfg)), format!("L={l},budget={budget}"));
    }
    // Multi-Probe LSH: few tables, sweep the probe count.
    for probes in [0usize, 8, 16, 32, 64, 128] {
        let cfg = MultiProbeConfig { k_funcs: 8, l_tables: 8, w: 2.184, probes, seed: 29 };
        point(&MultiProbeIdx(MultiProbeLsh::build(&w.data, cfg)), format!("L=8,probes={probes}"));
    }
    Ok(t)
}

/// **F7 — scalability in n** at fixed dimensionality: the derived `m`
/// (theory: `O(log n)`), index size (`O(n log n)`), query I/O and
/// verified candidates, which stay near `k + βn ≈ k + 100` while the
/// linear scan's cost grows linearly. The sizes are fixed: `CC_SCALE`
/// does not apply.
fn fig7(_scale: f64, nq: usize) -> io::Result<Table> {
    let (k, d) = (10, 32);
    let mut t = Table::new(
        format!("F7: scalability in n (d = {d}, k = {k}, {nq} queries)"),
        &["n", "method", "m", "MiB", "recall", "ratio", "verified", "io", "ms"],
    );
    for n in [4_000usize, 8_000, 16_000, 32_000, 64_000] {
        let w = prepare_workload(Profile::Custom { n, d }, 1.0, nq, k, 31);
        let c2 = defaults::c2lsh_disk(&w.data, 31);
        let lin = defaults::linear(&w.data);
        for (index, m) in [(&c2 as &dyn AnnIndex, c2.0.params().m.to_string()), (&lin, "-".into())]
        {
            let row = evaluate(index, &w, k);
            t.row(vec![
                n.to_string(),
                index.name().into(),
                m,
                mib(index.size_bytes()),
                f3(row.recall),
                f3(row.ratio),
                f1(row.verified),
                f1(row.io_reads),
                f3(row.time_ms),
            ]);
        }
        eprintln!("[n = {n} done]");
    }
    Ok(t)
}

/// **F8 — effect of the bucket width w** around 2.184 on NN-normalized
/// data. Too small a `w` collapses `p1` (more tables, noisier counts);
/// too large a `w` collapses the `p1 / p2` contrast.
fn fig8(scale: f64, nq: usize) -> io::Result<Table> {
    let k = 10;
    let mut t = Table::new(
        format!("F8: effect of bucket width w (k = {k}, scale {scale}, {nq} queries)"),
        &["dataset", "w", "rho", "m", "l", "recall", "ratio", "verified", "ms"],
    );
    for profile in [Profile::Mnist, Profile::Color] {
        let w = prepare_workload(profile, scale, nq, k, 47);
        for width in [1.0f64, 1.5, 2.184, 3.0, 4.0, 6.0] {
            let cfg = C2lshConfig::builder().bucket_width(width).seed(47).build();
            let p = FullParams::derive(w.n(), &cfg);
            let row = evaluate(&C2lshMem(C2lshIndex::build(&w.data, &cfg)), &w, k);
            t.row(vec![
                profile.name().into(),
                f3(width),
                f3(cc_math::pstable::rho(2.0, width)),
                p.m.to_string(),
                p.l.to_string(),
                f3(row.recall),
                f3(row.ratio),
                f1(row.verified),
                f3(row.time_ms),
            ]);
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **F9 — buffer-pool sensitivity of the paged tier** (beyond the
/// paper): recall and physical I/O per pool size. Every row queries a
/// real `PagedStore` through a real pool, so hit rates cover vector
/// pages and posting pages alike.
fn fig9(scale: f64, nq: usize) -> io::Result<Table> {
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
        let mut store = PagedStore::build(&w.data, &cfg, &path, 1)?.delete_file_on_drop();
        let truth = w.truth_at(k);
        let file_pages = (store.file_bytes() as usize).div_ceil(cc_storage::PAGE_SIZE);
        for frac in [0.01f64, 0.05, 0.1, 0.25, 0.5] {
            let pages = ((file_pages as f64 * frac) as usize).max(1);
            // A fresh pool per capacity: the hit rate and the reads
            // below cover exactly this sweep point's query pass.
            store.set_pool_pages(pages);
            let mut rec = 0.0;
            for (q, truth) in w.queries.iter().zip(&truth) {
                rec += recall(&store.query(q, k).0, truth);
            }
            t.row(vec![
                profile.name().into(),
                file_pages.to_string(),
                pages.to_string(),
                f3(frac),
                f3(store.pool_stats().hit_ratio()),
                f1(store.physical_reads() as f64 / nq as f64),
                f3(rec / nq as f64),
            ]);
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **A1 — virtual rehashing vs physical per-radius indexes.** C2LSH
/// answers every radius from one physical index; rigorous-LSH builds one
/// per radius. Quality roughly fixed, index size and build time compared.
fn a1(scale: f64, nq: usize) -> io::Result<Table> {
    let k = 10;
    let mut t = Table::new(
        format!("A1: virtual rehashing vs physical per-radius indexes (k = {k}, scale {scale})"),
        &["dataset", "method", "physical_indexes", "MiB", "build_s", "recall", "ratio"],
    );
    for profile in [Profile::Mnist, Profile::Color] {
        let w = prepare_workload(profile, scale, nq, k, 41);
        for levels in [None, Some(4u32), Some(8), Some(12)] {
            let t0 = Instant::now();
            let (index, method): (Box<dyn AnnIndex + '_>, _) = match levels {
                None => (Box::new(defaults::c2lsh(&w.data, 41)), "C2LSH (virtual)"),
                Some(l) => (Box::new(rigorous(&w.data, 48, l, 41)), "Rigorous (physical)"),
            };
            let build_s = t0.elapsed().as_secs_f64();
            let r = evaluate(index.as_ref(), &w, k);
            t.row(vec![
                profile.name().into(),
                method.into(),
                levels.unwrap_or(1).to_string(),
                mib(index.size_bytes()),
                f3(build_s),
                f3(r.recall),
                f3(r.ratio),
            ]);
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **A2 — dynamic collision counting vs static concatenation at an equal
/// hash-function budget.** The paper's central claim: `m` single-function
/// tables under a collision threshold extract far more signal than the
/// same `m` functions split into K-wise concatenations over `L = m / K`
/// tables.
fn a2(scale: f64, nq: usize) -> io::Result<Table> {
    let k = 10;
    let mut t = Table::new(
        format!("A2: dynamic counting vs static concatenation, equal hash budget (k = {k})"),
        &["dataset", "framework", "functions", "layout", "recall", "ratio", "verified", "ms"],
    );
    for profile in [Profile::Mnist, Profile::Color] {
        let w = prepare_workload(profile, scale, nq, k, 43);
        let mut arm = |index: &dyn AnnIndex, framework: &str, functions: usize, layout: String| {
            let r = evaluate(index, &w, k);
            t.row(vec![
                profile.name().into(),
                framework.into(),
                functions.to_string(),
                layout,
                f3(r.recall),
                f3(r.ratio),
                f1(r.verified),
                f3(r.time_ms),
            ]);
        };
        // Dynamic counting: the derived m is the budget.
        let c2 = defaults::c2lsh(&w.data, 43);
        let (m, l) = (c2.0.params().m, c2.0.params().l);
        arm(&c2, "dynamic counting", m, format!("m={m}, l={l}"));
        // Static concatenation with the same budget m = K × L.
        for kf in [2usize, 4, 8] {
            let l = (m / kf).max(1);
            let cfg = E2lshConfig { k_funcs: kf, l_tables: l, w: 2.184, seed: 43 };
            let e2 = E2lshIdx(E2lsh::build(&w.data, cfg));
            arm(&e2, "static concat", kf * l, format!("K={kf}, L={l}"));
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **A3 — is the Hoeffding-derived m needed?** `m` overridden to
/// fractions and multiples of the derived value, the threshold
/// percentage held at `α*`. Recall climbs steeply up to about the derived
/// `m` and flattens after: the theory's `m` sits at the knee.
fn a3(scale: f64, nq: usize) -> io::Result<Table> {
    let k = 10;
    let mut t = Table::new(
        format!("A3: sweep of m around the derived optimum (k = {k}, scale {scale})"),
        &["dataset", "m/m*", "m", "l", "recall", "ratio", "verified", "MiB"],
    );
    for profile in [Profile::Mnist, Profile::Color] {
        let w = prepare_workload(profile, scale, nq, k, 53);
        let derived = FullParams::derive(w.n(), &C2lshConfig::default());
        for frac in [0.25f64, 0.5, 0.75, 1.0, 1.5, 2.0] {
            let m = ((derived.m as f64 * frac).round() as usize).max(2);
            let cfg = C2lshConfig::builder().m_override(m).seed(53).build();
            let idx = C2lshMem(C2lshIndex::build(&w.data, &cfg));
            let row = evaluate(&idx, &w, k);
            t.row(vec![
                profile.name().into(),
                f3(frac),
                idx.0.params().m.to_string(),
                idx.0.params().l.to_string(),
                f3(row.recall),
                f3(row.ratio),
                f1(row.verified),
                mib(idx.size_bytes()),
            ]);
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **V1 — collision-probability validation.** The parameter derivation
/// rests on the closed-form p-stable collision probability `p(s, w)` and
/// its QALSH counterpart: point pairs planted at controlled distances,
/// hashed under 20 000 independently drawn functions, against the closed
/// forms — at the virtual rehashing levels `R ∈ {1, 2, 4}` too, where the
/// effective width is `w·R`. No setting applies.
fn v1(_scale: f64, _nq: usize) -> io::Result<Table> {
    use rand::SeedableRng;
    let (d, m, w) = (32, 20_000, 2.184);
    let cfg = C2lshConfig::builder().bucket_width(w).seed(1234).build();
    let family = HashFamily::generate(m, d, &cfg);
    let mut t = Table::new(
        format!("V1: empirical vs theoretical collision probability (m = {m} trials)"),
        &["family", "s", "R", "empirical", "theory", "abs_err"],
    );
    let mut check = |family: &str, s: f64, r: i64, collisions: usize, theory: f64| {
        let emp = collisions as f64 / m as f64;
        t.row(vec![
            family.into(),
            f3(s),
            r.to_string(),
            f3(emp),
            f3(theory),
            f3((emp - theory).abs()),
        ]);
    };
    let o = vec![0.0f32; d];
    let at = |s: f64| {
        let mut q = vec![0.0f32; d];
        q[0] = s as f32;
        q
    };
    for s in [0.5f64, 1.0, 1.5, 2.0, 3.0, 5.0] {
        let q = at(s);
        for r in [1i64, 2, 4] {
            let collisions = family
                .iter()
                .filter(|h| h.bucket(&o).div_euclid(r) == h.bucket(&q).div_euclid(r))
                .count();
            let theory = cc_math::pstable::collision_probability(s, w * r as f64);
            check("p-stable", s, r, collisions, theory);
        }
    }
    // QALSH family: |a·(o−q)| ≤ w/2 with a ~ N(0,1)^d.
    let wq = qalsh::params::optimal_width(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut normal = cc_vector::gen::NormalSampler::new();
    let projections: Vec<Vec<f32>> =
        (0..m).map(|_| (0..d).map(|_| normal.sample(&mut rng) as f32).collect()).collect();
    for s in [0.5f64, 1.0, 2.0, 4.0] {
        let q = at(s);
        let collisions =
            projections.iter().filter(|a| (dot(a, &q) - dot(a, &o)).abs() <= wq / 2.0).count();
        check("query-aware", s, 1, collisions, qalsh::qalsh_collision_probability(s, wq));
    }
    Ok(t)
}

/// **V2 — success-probability validation.** With `δ = 1/e` the scheme
/// answers each `(R, c)`-NN instance correctly with probability ≥
/// `1/2 − 1/e ≈ 0.132`; for c-k-ANN, the returned i-th neighbor is within
/// `c ×` the true i-th NN distance. Measured over the queries and three
/// index draws: how often every rank holds the c-bound — far above the
/// bound, which is what a lower bound predicts.
fn v2(scale: f64, nq: usize) -> io::Result<Table> {
    let (k, c) = (10, 2u32);
    let mut t = Table::new(
        format!("V2: empirical c-ANN success rate (c = {c}, k = {k}, bound = 1/2 - 1/e = 0.132)"),
        &["dataset", "seed", "all_ranks_ok", "rank1_ok", "mean_ratio"],
    );
    for profile in [Profile::Mnist, Profile::Color] {
        let w = prepare_workload(profile, scale, nq, k, 37);
        let truth = w.truth_at(k);
        for seed in [1u64, 2, 3] {
            let cfg = C2lshConfig::builder().bucket_width(2.184).seed(seed).build();
            let idx = C2lshIndex::build(&w.data, &cfg);
            let (mut all_ok, mut rank1_ok, mut ratio_acc) = (0usize, 0usize, 0.0);
            for (q, truth) in w.queries.iter().zip(&truth) {
                let (nn, _) = idx.query(q, k);
                let ok = |i: usize| match (nn.get(i), truth.get(i)) {
                    (Some(got), Some(want)) => got.dist <= c as f64 * want.dist.max(1e-12),
                    _ => false,
                };
                all_ok += (0..k).all(ok) as usize;
                rank1_ok += ok(0) as usize;
                ratio_acc += overall_ratio(&nn, truth);
            }
            t.row(vec![
                profile.name().into(),
                seed.to_string(),
                f3(all_ok as f64 / nq as f64),
                f3(rank1_ok as f64 / nq as f64),
                f3(ratio_acc / nq as f64),
            ]);
        }
        eprintln!("[{} done]", profile.name());
    }
    Ok(t)
}

/// **The out-of-core slice** (beyond the paper): `CC_SCALE` × 1 M points
/// streamed through the paged tier — see [`cc_bench::large`].
fn large(scale: f64, nq: usize) -> io::Result<Table> {
    let run = cc_bench::large::run(((1e6 * scale) as usize).max(10_000), nq, 10, 7)?;
    let mut t = Table::new(
        format!("Large: {} x 64 streamed through the paged tier (k = 10, {nq} queries)", run.n),
        &[
            "n",
            "file_MiB",
            "compression",
            "reads_per_query",
            "pool_hit_rate",
            "recall",
            "peak_rss_MiB",
            "parity_n",
            "paged_parity_recall",
            "mem_parity_recall",
        ],
    );
    t.row(vec![
        run.n.to_string(),
        mib(run.file_bytes as usize),
        format!("{:.2}", run.compression),
        format!("{:.2}", run.reads_per_query),
        f3(run.pool_hit_rate),
        f3(run.recall),
        mib(run.peak_rss_bytes as usize),
        run.parity_n.to_string(),
        f3(run.paged_parity_recall),
        f3(run.mem_parity_recall),
    ]);
    Ok(t)
}
