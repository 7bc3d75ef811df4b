//! **loadgen — closed-loop load generator for `cc-service`**.
//!
//! Drives a running (or self-hosted) query server with `CC_CLIENTS`
//! concurrent closed-loop connections — each sends a request, waits for
//! the answer, repeats — for `CC_SECONDS`, then reports throughput,
//! latency percentiles (p50/p95/p99) split by reads and writes, the
//! overload-rejection count, and the server's own coalescing evidence
//! (batches, largest batch) and latency quantiles, read from its
//! Prometheus exposition (the `Metrics` frame) before and after.
//!
//! With `CC_MODE=dynamic` the self-hosted server is a WAL-backed
//! [`MutableIndex`] and `CC_WRITE_PCT` percent of each client's
//! operations become inserts/deletes. Every acknowledged mutation is
//! tracked, and after the drain the WAL directory is reopened
//! cold — exactly what a crash recovery would do — and checked against
//! the acknowledged ground truth: every acked insert answerable at
//! distance zero, every acked delete gone.
//!
//! ```text
//! # self-hosted read-only: 4-shard engine on an ephemeral port
//! cargo run -p cc-bench --release --bin loadgen
//!
//! # self-hosted mixed read/write with durability verification
//! CC_MODE=dynamic CC_WRITE_PCT=10 cargo run -p cc-bench --release --bin loadgen
//!
//! # against an external server (see `cargo run -p cc-service`)
//! CC_ADDR=127.0.0.1:7878 cargo run -p cc-bench --release --bin loadgen
//! ```
//!
//! Environment overrides: `CC_ADDR` (default: self-host), `CC_CLIENTS`
//! (32), `CC_SECONDS` (5), `CC_K` (10), `CC_N` (20000, self-host
//! only), `CC_DIM` (16, self-host only), `CC_MODE`
//! (`sharded`|`dynamic`, self-host only), `CC_WRITE_PCT` (0; needs a
//! mutable server), `CC_FILTER_PCT` (0; that share of reads carries a
//! label predicate — self-hosted servers seed labels `i % 3`, and the
//! probe predicate `label == 0` also matches every point of an
//! external server without metadata), `CC_WAL_DIR` (scratch directory
//! by default). The server's own latency quantiles are printed when it
//! records them (`cc-service --metrics-addr`).

use c2lsh::{
    C2lshConfig, MutableIndex, MutationOp, PointMeta, Predicate, ShardedData, ShardedEngine,
};
use cc_bench::env_usize;
use cc_obs::sample;
use cc_service::{Client, QueryRequest, SearchOutcome, ServiceConfig};
use cc_vector::gen::{generate, Distribution};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One client's acknowledged write, kept for post-run verification.
struct AckedWrite {
    oid: u32,
    vector: Vec<f32>,
    deleted: bool,
}

#[derive(Default)]
struct ClientReport {
    read_latencies_ns: Vec<u64>,
    filtered_latencies_ns: Vec<u64>,
    write_latencies_ns: Vec<u64>,
    overloaded: u64,
    acked: Vec<AckedWrite>,
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[rank] as f64 / 1e6
}

/// The closed loop of one connection: send, wait, repeat. Overload
/// rejections are counted and retried after a short backoff — the
/// client-side half of the admission-control contract. A `write_pct`
/// slice of operations mutate: inserts of vectors unique to this
/// client, and deletes of the client's own earlier inserts (so every
/// delete targets a live object and clients never interfere).
fn run_client(
    addr: std::net::SocketAddr,
    queries: &cc_vector::dataset::Dataset,
    k: u32,
    write_pct: usize,
    filter_pct: usize,
    stop: &AtomicBool,
    t: usize,
) -> ClientReport {
    let dim = queries.dim();
    let mut client = Client::connect(addr).expect("connect");
    let mut report = ClientReport::default();
    let mut qi = t; // stagger the starting query per client
    let mut inserted = 0usize;
    let mut next_victim = 0usize; // index into report.acked, oldest first
    while !stop.load(Ordering::Relaxed) {
        qi += 1;
        // Cheap multiplicative hash → deterministic op mix per client.
        let roll = (qi.wrapping_mul(2654435761)) % 100;
        if roll < write_pct {
            let sent = Instant::now();
            // Alternate: odd writes delete the oldest own live object
            // (when one exists), even writes insert.
            if roll % 2 == 1 && next_victim < report.acked.len() {
                let victim = report.acked[next_victim].oid;
                let (found, _seq) = client.delete(victim).expect("delete");
                assert!(found, "client {t} deleting its own live oid {victim}");
                report.acked[next_victim].deleted = true;
                next_victim += 1;
            } else {
                // Unique per (client, counter) and far from the seeded
                // clusters; exact in f32 well past any realistic rate.
                let val = (t * 100_000 + inserted) as f32 + 100_000.0;
                let vector = vec![val; dim];
                let (oid, _seq) = client.insert(&vector).expect("insert");
                report.acked.push(AckedWrite { oid, vector, deleted: false });
                inserted += 1;
            }
            report.write_latencies_ns.push(sent.elapsed().as_nanos() as u64);
            continue;
        }
        let q = queries.get(qi % queries.len());
        // A second independent roll decides whether this read carries a
        // predicate. `label == 0` is selective (one label in three) on
        // the self-hosted seeding and still matches every point of a
        // metadata-free external server, so results stay non-empty.
        let filtered = (qi.wrapping_mul(2246822519)) % 100 < filter_pct;
        let mut req = QueryRequest::new(q.to_vec()).k(k);
        if filtered {
            req = req.filter(Predicate::label(0));
        }
        let sent = Instant::now();
        match client.search(&req).expect("query") {
            SearchOutcome::Result(r) => {
                assert!(!r.neighbors.is_empty(), "server returned an empty result set");
                let lat = sent.elapsed().as_nanos() as u64;
                if filtered {
                    report.filtered_latencies_ns.push(lat);
                } else {
                    report.read_latencies_ns.push(lat);
                }
            }
            SearchOutcome::Overloaded => {
                report.overloaded += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            SearchOutcome::DeadlineExceeded => {
                panic!("deadline exceeded on a query that set no deadline")
            }
            SearchOutcome::Stale => {
                panic!("stale rejection on a query that pinned no min_seq")
            }
        }
    }
    report
}

fn drive(
    addr: std::net::SocketAddr,
    queries: &cc_vector::dataset::Dataset,
    write_pct: usize,
    filter_pct: usize,
) -> Vec<ClientReport> {
    let clients = env_usize("CC_CLIENTS", 32);
    let seconds = env_usize("CC_SECONDS", 5);
    let k = env_usize("CC_K", 10) as u32;

    let mut probe = Client::connect(addr).expect("connect");
    probe.ping().expect("ping");
    let before = probe.metrics_text().expect("metrics");

    eprintln!(
        "driving {clients} closed-loop clients for {seconds}s \
         (k = {k}, writes {write_pct}%, filtered reads {filter_pct}%)…"
    );
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let reports: Vec<ClientReport> = crossbeam::scope(move |s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| s.spawn(move |_| run_client(addr, queries, k, write_pct, filter_pct, stop, t)))
            .collect();
        std::thread::sleep(Duration::from_secs(seconds as u64));
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    let after = probe.metrics_text().expect("metrics");
    let read = |text: &str, series: &str| sample(text, series).unwrap_or(0.0);
    let delta = |series: &str| (read(&after, series) - read(&before, series)) as u64;

    let mut reads: Vec<u64> =
        reports.iter().flat_map(|r| r.read_latencies_ns.iter().copied()).collect();
    reads.sort_unstable();
    let mut filtered: Vec<u64> =
        reports.iter().flat_map(|r| r.filtered_latencies_ns.iter().copied()).collect();
    filtered.sort_unstable();
    let mut writes: Vec<u64> =
        reports.iter().flat_map(|r| r.write_latencies_ns.iter().copied()).collect();
    writes.sort_unstable();
    let answered = (reads.len() + filtered.len()) as u64;
    let overloaded: u64 = reports.iter().map(|r| r.overloaded).sum();
    let ops = answered + writes.len() as u64;

    println!(
        "answered    {answered} queries ({} filtered) + {} writes ({overloaded} overload \
         rejections)",
        filtered.len(),
        writes.len()
    );
    println!("throughput  {:.0} ops/s", ops as f64 / seconds as f64);
    println!(
        "read  lat.  p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms",
        percentile(&reads, 0.50),
        percentile(&reads, 0.95),
        percentile(&reads, 0.99),
    );
    if !filtered.is_empty() {
        println!(
            "filt. lat.  p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms \
             ({} candidates rejected by predicates, whole server lifetime)",
            percentile(&filtered, 0.50),
            percentile(&filtered, 0.95),
            percentile(&filtered, 0.99),
            delta("cc_filtered_candidates_total"),
        );
    }
    if !writes.is_empty() {
        println!(
            "write lat.  p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms (durable: acked after fsync)",
            percentile(&writes, 0.50),
            percentile(&writes, 0.95),
            percentile(&writes, 0.99),
        );
        println!(
            "write path  {} inserts, {} deletes, {} mutation flushes",
            delta("cc_inserts_total"),
            delta("cc_deletes_total"),
            delta("cc_mutation_batches_total"),
        );
    }
    let batches = delta("cc_batches_total");
    let mean_batch =
        if batches > 0 { delta("cc_queries_total") as f64 / batches as f64 } else { 0.0 };
    let max_batch = read(&after, "cc_max_batch") as u64;
    println!(
        "coalescing  {batches} engine flushes, mean batch {mean_batch:.1}, largest batch \
         {max_batch} (whole server lifetime)",
    );
    if answered > 0 && max_batch < 2 {
        eprintln!("warning: no request coalescing observed — is the server idle-tuned?");
    }
    // A server running with observability on records its own latency
    // quantiles — print them next to the client-side measurement.
    if read(&after, "cc_query_seconds_count") > 0.0 {
        let p50 = read(&after, "cc_query_seconds{quantile=\"0.5\"}") * 1e3;
        let p99 = read(&after, "cc_query_seconds{quantile=\"0.99\"}") * 1e3;
        println!(
            "server lat. p50 {p50:.3} ms   p99 {p99:.3} ms (reported by the server, network excluded)"
        );
        // Server-side time excludes the network and the client stack,
        // so a server p50 far above the client p50 means the two views
        // disagree about what was measured.
        let client_p50 = percentile(&reads, 0.50);
        if p50 > client_p50 * 2.0 + 1.0 {
            eprintln!(
                "warning: server p50 {p50:.3} ms vs client p50 {client_p50:.3} ms — inconsistent"
            );
        }
    }
    reports
}

/// Reopen the WAL directory cold — the same code path crash recovery
/// takes — and check every acknowledged write against it.
fn verify_durability(
    dir: &std::path::Path,
    dim: usize,
    expected_n: usize,
    config: &C2lshConfig,
    reports: &[ClientReport],
) {
    let recovered = MutableIndex::open(dir, dim, expected_n, config).expect("reopen WAL dir");
    let mut verified = 0usize;
    for report in reports {
        for w in &report.acked {
            let slot = recovered.snapshot().0.slots().get(w.oid as usize).cloned().flatten();
            if w.deleted {
                assert!(slot.is_none(), "acked delete of oid {} did not survive reopen", w.oid);
            } else {
                assert_eq!(
                    slot.as_deref(),
                    Some(&w.vector[..]),
                    "acked insert of oid {} did not survive reopen",
                    w.oid
                );
                let (nn, _) = recovered.query(&w.vector, 1);
                assert_eq!((nn[0].id, nn[0].dist), (w.oid, 0.0), "oid {} unanswerable", w.oid);
            }
            verified += 1;
        }
    }
    println!("durability  verified {verified} acknowledged writes against a cold reopen ✓");
}

/// The label assignment the self-hosted servers seed: `i % 3`, coprime
/// to the generator's cluster count, so every cluster mixes all labels
/// and a label predicate is genuinely selective.
fn seed_meta(i: usize) -> PointMeta {
    PointMeta::new(1 << (i % 5), (i % 3) as u32)
}

fn main() {
    let write_pct = env_usize("CC_WRITE_PCT", 0).min(100);
    let filter_pct = env_usize("CC_FILTER_PCT", 0).min(100);
    if let Ok(addr) = std::env::var("CC_ADDR") {
        let addr = addr.parse().expect("CC_ADDR must be HOST:PORT");
        let queries = generate(
            Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
            256,
            env_usize("CC_DIM", 16),
            99,
        );
        // External server: mutations are driven if requested, but
        // durability can only be verified when we own the WAL dir.
        drive(addr, &queries, write_pct, filter_pct);
        return;
    }

    let n = env_usize("CC_N", 20_000);
    let dim = env_usize("CC_DIM", 16);
    let mode = std::env::var("CC_MODE").unwrap_or_else(|_| "sharded".into());
    let data = generate(
        Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
        n,
        dim,
        42,
    );
    let queries = generate(
        Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
        256,
        dim,
        99,
    );
    let config = C2lshConfig::builder().bucket_width(1.0).seed(42).build();
    let service = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    match mode.as_str() {
        "sharded" => {
            assert_eq!(write_pct, 0, "CC_WRITE_PCT needs CC_MODE=dynamic (read-only engine)");
            if n < 4 {
                eprintln!("CC_N={n}: the self-hosted engine has 4 shards, each holding a vector");
                std::process::exit(2);
            }
            eprintln!("self-hosting: building a 4-shard index over {n} vectors in R^{dim}…");
            let sharded = ShardedData::partition(&data, 4);
            let metas: Vec<PointMeta> = (0..n).map(seed_meta).collect();
            let engine = ShardedEngine::build(&sharded, &config).with_meta(metas);
            let (engine, service, queries) = (&engine, &service, &queries);
            crossbeam::scope(move |s| {
                let server =
                    s.spawn(move |_| cc_service::serve(engine, listener, service).unwrap());
                drive(addr, queries, 0, filter_pct);
                Client::connect(addr).expect("connect").shutdown().expect("shutdown");
                let stats = server.join().unwrap();
                eprintln!(
                    "server drained: {} queries in {} batches (largest {})",
                    stats.queries, stats.batches, stats.max_batch
                );
            })
            .unwrap();
        }
        "dynamic" => {
            let dir = std::env::var("CC_WAL_DIR")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|_| cc_storage::wal::scratch_dir("loadgen"));
            std::fs::create_dir_all(&dir).expect("create WAL dir");
            eprintln!(
                "self-hosting: WAL-backed dynamic index over {n} vectors in R^{dim} \
                 (log in {})…",
                dir.display()
            );
            let engine = MutableIndex::open(&dir, dim, n, &config).expect("open WAL dir");
            if engine.is_empty() && engine.last_seq() == 0 {
                let rows: Vec<MutationOp> = data
                    .iter()
                    .enumerate()
                    .map(|(i, v)| MutationOp::Insert { vector: v.to_vec(), meta: seed_meta(i) })
                    .collect();
                for chunk in rows.chunks(4096) {
                    engine.apply_batch(chunk).expect("bulk load");
                }
            }
            let reports = {
                let (engine, service, queries) = (&engine, &service, &queries);
                crossbeam::scope(move |s| {
                    let server =
                        s.spawn(move |_| cc_service::serve(engine, listener, service).unwrap());
                    let reports = drive(addr, queries, write_pct, filter_pct);
                    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
                    let stats = server.join().unwrap();
                    eprintln!(
                        "server drained: {} queries, {} inserts, {} deletes in {} batches",
                        stats.queries, stats.inserts, stats.deletes, stats.batches
                    );
                    reports
                })
                .unwrap()
            };
            drop(engine); // release the WAL before the cold reopen
            verify_durability(&dir, dim, n, &config, &reports);
            if std::env::var("CC_WAL_DIR").is_err() {
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        other => panic!("unknown CC_MODE {other:?} (expected sharded or dynamic)"),
    }
}
