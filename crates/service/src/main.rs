//! `cc-service` — stand up a collision-counting query server.
//!
//! Modes:
//!
//! * `--mode memory` (default): generate a synthetic clustered
//!   dataset, build one read-only [`C2lshIndex`] over it and serve
//!   queries.
//! * `--mode dynamic`: serve a mutable [`MutableIndex`] that accepts
//!   insert/delete frames. With `--wal DIR` the index is durable —
//!   mutations are WAL-logged under `DIR` and recovered on restart; the
//!   synthetic dataset seeds the index only when `DIR` is empty.
//!   Without `--wal` the index is in-memory (acks do not survive a
//!   restart).
//! * `--mode paged`: build the out-of-core disk tier ([`PagedStore`])
//!   under `--paged-file PATH` (default: a scratch file in the temp
//!   dir, deleted on exit) and serve read-only queries through the
//!   pinned buffer pool (`--pool-pages N`, default ~5% of the page
//!   file). With `--metrics-addr` the pool exports the `cc_bufpool_*`
//!   Prometheus families.
//! * `--mode dynamic --replicate-from HOST:PORT`: run as a read-only
//!   **follower** — never seeds, refuses direct writes, and advances
//!   only by pulling the primary's WAL stream (`--node-name NAME`
//!   labels it on the primary's `cc_replica_lag_seq` gauge). Either
//!   way the engine's write path is exported as `cc_wal_*`,
//!   `cc_delete_misses_total` and `cc_applied_seq`.
//! * `--mode router`: no engine at all — scatter-gather reads across
//!   `--replicas A,B[,…]` groups (repeat the flag per shard group)
//!   with per-leg `--node-deadline-ms` failover, and forward every
//!   write to `--primary HOST:PORT`.
//!
//! ```text
//! cargo run -p cc-service --release
//! cargo run -p cc-service --release -- --mode dynamic --wal /tmp/cc-wal
//! cargo run -p cc-service --release -- --mode paged --pool-pages 512
//! cargo run -p cc-service --release -- --mode dynamic --wal /tmp/f1 \
//!     --replicate-from 127.0.0.1:7878 --node-name f1 --addr 127.0.0.1:7879
//! cargo run -p cc-service --release -- --mode router --primary 127.0.0.1:7878 \
//!     --replicas 127.0.0.1:7879,127.0.0.1:7880 --addr 127.0.0.1:7900
//! ```
//!
//! Flags (all optional): `--addr HOST:PORT` (default `127.0.0.1:7878`),
//! `--mode memory|dynamic|paged|router` (memory), `--wal DIR` (dynamic
//! only), `--paged-file PATH` / `--pool-pages N` (paged only),
//! `--collections-dir DIR` (persist named collections under `DIR`;
//! without it collections are in-memory),
//! `--n N` (20000), `--dim D` (16), `--seed SEED`
//! (42), `--bucket-width W` (1.0), `--queue-cap Q` (1024),
//! `--max-batch B` (32), `--max-delay-us US` (2000), `--k-max K`
//! (1024), `--checkpoint-wal-bytes BYTES` (16 MiB; the batcher
//! checkpoints and truncates the WAL whenever it exceeds this).
//!
//! Observability: `--metrics-addr HOST:PORT` turns the metrics layer
//! on and serves `GET /metrics` (Prometheus text format), `/healthz`
//! and `/slowlog` there; `--slow-query-ms MS` (100, 0 disables the
//! slow log) sets the slow-log threshold and `--trace-sample N` (64)
//! captures a span tree for every Nth query. Without `--metrics-addr`
//! the service records nothing per query.
//!
//! Kernels: both hot loops dispatch through the best SIMD kernel the
//! CPU supports, or the scalar one under `CC_FORCE_SCALAR=1`. The
//! selection is printed at startup and exported as the `cc_kernel_info`
//! gauge.

use c2lsh::{C2lshConfig, C2lshIndex, DynamicIndex, MutableIndex, MutationOp, PagedStore};
use cc_obs::{MetricsServer, ObsConfig};
use cc_service::collections::check_name;
use cc_service::{BufpoolSnapshot, ServerObs, ServiceConfig};
use cc_vector::gen::{generate, Distribution};
use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    mode: String,
    wal: Option<String>,
    paged_file: Option<String>,
    pool_pages: Option<usize>,
    collections_dir: Option<String>,
    n: usize,
    dim: usize,
    seed: u64,
    bucket_width: f64,
    queue_cap: usize,
    max_batch: usize,
    max_delay_us: u64,
    k_max: usize,
    checkpoint_wal_bytes: u64,
    metrics_addr: Option<String>,
    slow_query_ms: u64,
    trace_sample: u32,
    replicate_from: Option<String>,
    node_name: Option<String>,
    primary: Option<String>,
    replicas: Vec<String>,
    node_deadline_ms: u64,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            addr: "127.0.0.1:7878".into(),
            mode: "memory".into(),
            wal: None,
            paged_file: None,
            pool_pages: None,
            collections_dir: None,
            n: 20_000,
            dim: 16,
            seed: 42,
            bucket_width: 1.0,
            queue_cap: 1024,
            max_batch: 32,
            max_delay_us: 2000,
            k_max: 1024,
            checkpoint_wal_bytes: 16 << 20,
            metrics_addr: None,
            slow_query_ms: 100,
            trace_sample: 64,
            replicate_from: None,
            node_name: None,
            primary: None,
            replicas: Vec::new(),
            node_deadline_ms: 500,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    exit(2);
                })
            };
            match flag.as_str() {
                "--addr" => args.addr = value("--addr"),
                "--mode" => args.mode = value("--mode"),
                "--wal" => args.wal = Some(value("--wal")),
                "--paged-file" => args.paged_file = Some(value("--paged-file")),
                "--pool-pages" => {
                    args.pool_pages = Some(parse(&value("--pool-pages"), "--pool-pages"))
                }
                "--collections-dir" => args.collections_dir = Some(value("--collections-dir")),
                "--n" => args.n = parse(&value("--n"), "--n"),
                "--dim" => args.dim = parse(&value("--dim"), "--dim"),
                "--seed" => args.seed = parse(&value("--seed"), "--seed"),
                "--bucket-width" => {
                    args.bucket_width = parse(&value("--bucket-width"), "--bucket-width")
                }
                "--queue-cap" => args.queue_cap = parse(&value("--queue-cap"), "--queue-cap"),
                "--max-batch" => args.max_batch = parse(&value("--max-batch"), "--max-batch"),
                "--max-delay-us" => {
                    args.max_delay_us = parse(&value("--max-delay-us"), "--max-delay-us")
                }
                "--k-max" => args.k_max = parse(&value("--k-max"), "--k-max"),
                "--checkpoint-wal-bytes" => {
                    args.checkpoint_wal_bytes =
                        parse(&value("--checkpoint-wal-bytes"), "--checkpoint-wal-bytes")
                }
                "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
                "--slow-query-ms" => {
                    args.slow_query_ms = parse(&value("--slow-query-ms"), "--slow-query-ms")
                }
                "--trace-sample" => {
                    args.trace_sample = parse(&value("--trace-sample"), "--trace-sample")
                }
                "--replicate-from" => args.replicate_from = Some(value("--replicate-from")),
                "--node-name" => args.node_name = Some(value("--node-name")),
                "--primary" => args.primary = Some(value("--primary")),
                "--replicas" => {
                    // Comma-separated within a group; repeat the flag
                    // for more shard groups.
                    args.replicas.push(value("--replicas"));
                }
                "--node-deadline-ms" => {
                    args.node_deadline_ms =
                        parse(&value("--node-deadline-ms"), "--node-deadline-ms")
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: cc-service [--addr HOST:PORT] \
                         [--mode memory|dynamic|paged|router] \
                         [--wal DIR] [--paged-file PATH] [--pool-pages N] \
                         [--collections-dir DIR] [--n N] [--dim D] \
                         [--seed SEED] [--bucket-width W] [--queue-cap Q] [--max-batch B] \
                         [--max-delay-us US] [--k-max K] [--checkpoint-wal-bytes BYTES] \
                         [--metrics-addr HOST:PORT] [--slow-query-ms MS] [--trace-sample N] \
                         [--replicate-from HOST:PORT] [--node-name NAME] \
                         [--primary HOST:PORT] [--replicas A,B[,…]]… \
                         [--node-deadline-ms MS]"
                    );
                    exit(0);
                }
                other => {
                    eprintln!("unknown flag {other} (try --help)");
                    exit(2);
                }
            }
        }
        args
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        exit(2);
    })
}

fn main() {
    let args = Args::parse();
    if args.n == 0 || args.dim == 0 || args.max_batch == 0 {
        eprintln!("--n, --dim and --max-batch must all be at least 1");
        exit(2);
    }
    if let Some(Err(e)) = args.node_name.as_deref().map(|n| check_name("node", n)) {
        eprintln!("--node-name: {e}");
        exit(2);
    }
    eprintln!("kernel: {}", c2lsh::kernels::dispatch().kernel());
    let config = C2lshConfig::builder().bucket_width(args.bucket_width).seed(args.seed).build();
    let mut service = ServiceConfig {
        max_batch: args.max_batch,
        max_delay: Duration::from_micros(args.max_delay_us),
        queue_capacity: args.queue_cap,
        k_max: args.k_max,
        checkpoint_wal_bytes: args.checkpoint_wal_bytes,
        ..ServiceConfig::default()
    };
    // Named collections share the server's hashing config; with a
    // root directory they are durable (each gets its own WAL under
    // `DIR/<name>/`), without one they live in memory.
    service.collections.config = config.clone();
    service.collections.root = args.collections_dir.as_ref().map(std::path::PathBuf::from);
    let listener = TcpListener::bind(&args.addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", args.addr);
        exit(1);
    });
    let shown_addr = listener.local_addr().map(|a| a.to_string()).unwrap_or(args.addr.clone());

    // Metrics are pay-for-what-you-ask: the registry only records
    // per-query latency (and samples traces) when --metrics-addr is
    // given. Counters are maintained either way — they are free.
    let obs = Arc::new(ServerObs::new(match args.metrics_addr {
        Some(_) => ObsConfig {
            enabled: true,
            trace_sample_every: args.trace_sample,
            slow_query_ms: args.slow_query_ms,
            slow_log_capacity: 64,
        },
        None => ObsConfig::default(),
    }));
    let _metrics_server = args.metrics_addr.as_ref().map(|addr| {
        let server = MetricsServer::bind(addr.as_str(), obs.clone()).unwrap_or_else(|e| {
            eprintln!("cannot bind metrics address {addr}: {e}");
            exit(1);
        });
        let shown = server.local_addr();
        eprintln!("metrics on http://{shown}/metrics (healthz, slowlog)");
        server
    });

    let stats = match args.mode.as_str() {
        "memory" => {
            eprintln!("generating {} clustered vectors in R^{}…", args.n, args.dim);
            let data = generate(
                Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
                args.n,
                args.dim,
                args.seed,
            );
            let engine = C2lshIndex::build(&data, &config);
            let params = engine.params();
            eprintln!(
                "cc-service listening on {shown_addr} — read-only, n = {}, d = {}, m = {}, l = {}",
                args.n, args.dim, params.m, params.l,
            );
            cc_service::serve_with_obs(&engine, listener, &service, obs)
        }
        "paged" => {
            eprintln!("generating {} clustered vectors in R^{}…", args.n, args.dim);
            let data = generate(
                Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
                args.n,
                args.dim,
                args.seed,
            );
            let scratch = args.paged_file.is_none();
            let path = args.paged_file.clone().map(std::path::PathBuf::from).unwrap_or_else(|| {
                std::env::temp_dir().join(format!("cc-service-paged-{}.ccpg", std::process::id()))
            });
            eprintln!("building the paged disk tier at {}…", path.display());
            let store = PagedStore::build(&data, &config, &path, 1).unwrap_or_else(|e| {
                eprintln!("cannot build page file {}: {e}", path.display());
                exit(1);
            });
            let mut store = if scratch { store.delete_file_on_drop() } else { store };
            let file_pages = (store.file_bytes() as usize).div_ceil(c2lsh::PAGE_SIZE);
            let pool_pages = args.pool_pages.unwrap_or((file_pages / 20).max(64));
            store.set_pool_pages(pool_pages);
            let store = Arc::new(store);
            // The scrape path snapshots the pool through a weak-free
            // clone of the Arc; plain counter reads, no query-path
            // cost.
            let pool_src = store.clone();
            obs.set_bufpool_source(Box::new(move || {
                let s = pool_src.pool_stats();
                BufpoolSnapshot {
                    requests: s.requests,
                    hits: s.hits,
                    misses: s.misses,
                    evictions: s.evictions,
                    capacity_pages: pool_src.pool_pages() as u64,
                    resident_pages: pool_src.pool_resident() as u64,
                }
            }));
            let params = store.params();
            eprintln!(
                "cc-service listening on {shown_addr} — paged (out-of-core, read-only), \
                 n = {}, d = {}, file pages = {file_pages}, pool pages = {pool_pages}, \
                 m = {}, l = {}",
                args.n, args.dim, params.m, params.l,
            );
            cc_service::serve_with_obs(&*store, listener, &service, obs)
        }
        "router" => {
            let primary = args.primary.clone().unwrap_or_else(|| {
                eprintln!("--mode router needs --primary HOST:PORT");
                exit(2);
            });
            if args.replicas.is_empty() {
                eprintln!("--mode router needs at least one --replicas A[,B,…] group");
                exit(2);
            }
            let router = cc_service::RouterConfig {
                primary,
                groups: args
                    .replicas
                    .iter()
                    .map(|g| g.split(',').map(str::to_string).collect())
                    .collect(),
                node_deadline: Duration::from_millis(args.node_deadline_ms),
                primary_reads: true,
            };
            eprintln!(
                "cc-service listening on {shown_addr} — router, primary = {}, groups = {:?}",
                router.primary, router.groups,
            );
            match cc_service::route_with_obs(listener, &router, obs) {
                Ok(stats) => {
                    eprintln!(
                        "router drained: {} queries, {} legs, {} failovers, \
                         {} node errors, {} forwards, {} errors",
                        stats.queries,
                        stats.fanout,
                        stats.failovers,
                        stats.node_errors,
                        stats.forwards,
                        stats.errors,
                    );
                    return;
                }
                Err(e) => {
                    eprintln!("router failed: {e}");
                    exit(1);
                }
            }
        }
        "dynamic" => {
            let engine = Arc::new(match &args.wal {
                Some(dir) => {
                    MutableIndex::open(dir, args.dim, args.n, &config).unwrap_or_else(|e| {
                        eprintln!("cannot open WAL directory {dir}: {e}");
                        exit(1);
                    })
                }
                None => MutableIndex::ephemeral(DynamicIndex::new(args.dim, args.n, &config)),
            });
            // Scraped beside the engine like the paged tier's pool: a
            // follower's applied seq is exact even if it never answers
            // a query.
            let write_path = engine.clone();
            obs.set_mutations_source(Box::new(move || {
                (write_path.mutation_stats(), write_path.len() as u64)
            }));
            let engine = &*engine;
            // A follower's state may only advance through the
            // replication stream: never seed it, and refuse direct
            // writes — either would fork its sequence history from the
            // primary's.
            let follower = args.replicate_from.is_some();
            if follower {
                service.read_only = true;
            }
            if !follower && engine.is_empty() && engine.last_seq() == 0 {
                // Fresh store: seed it with the synthetic dataset so
                // the server has something to answer about. A recovered
                // store keeps its own data untouched.
                eprintln!("seeding {} clustered vectors in R^{}…", args.n, args.dim);
                let data = generate(
                    Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
                    args.n,
                    args.dim,
                    args.seed,
                );
                // Chunked batches keep the WAL group commits, the
                // clone-per-batch cost and the second copy of the rows a
                // batch is made of bounded during the bulk load.
                for lo in (0..data.len()).step_by(4096) {
                    let chunk: Vec<MutationOp> = (lo..data.len().min(lo + 4096))
                        .map(|i| MutationOp::Insert {
                            vector: data.get(i).to_vec(),
                            meta: Default::default(),
                        })
                        .collect();
                    if let Err(e) = engine.apply_batch(&chunk) {
                        eprintln!("bulk load failed: {e}");
                        exit(1);
                    }
                }
                // Fold the seed into a checkpoint immediately: without
                // this every restart replays the whole bulk load from
                // the WAL (no-op in ephemeral mode).
                if let Err(e) = engine.checkpoint() {
                    eprintln!("post-seed checkpoint failed: {e}");
                    exit(1);
                }
            }
            eprintln!(
                "cc-service listening on {shown_addr} — dynamic{}{}, n = {}, d = {}, seq = {}",
                if args.wal.is_some() { " (WAL-backed)" } else { " (ephemeral)" },
                if follower { ", read-only follower" } else { "" },
                engine.len(),
                args.dim,
                engine.last_seq(),
            );
            match &args.replicate_from {
                Some(primary) => {
                    // The pull loop runs next to the serve loop; once
                    // the serve loop drains, raise the stop flag and
                    // wait the loop out (bounded by its read timeout).
                    let name = args
                        .node_name
                        .clone()
                        .unwrap_or_else(|| format!("follower-{}", std::process::id()));
                    let repl = cc_service::ReplicationConfig::new(primary.clone(), name);
                    let stop = std::sync::atomic::AtomicBool::new(false);
                    let repl = &repl;
                    let stop = &stop;
                    crossbeam::scope(move |s| {
                        let puller = s.spawn(move |_| cc_service::run_follower(engine, repl, stop));
                        let stats = cc_service::serve_with_obs(engine, listener, &service, obs);
                        stop.store(true, std::sync::atomic::Ordering::SeqCst);
                        let pulled = puller.join().expect("replication thread panicked");
                        eprintln!(
                            "replication stopped: {} batches, {} records, \
                             {} heartbeats, {} reconnects",
                            pulled.batches, pulled.records, pulled.heartbeats, pulled.reconnects,
                        );
                        stats
                    })
                    .expect("follower worker panicked")
                }
                None => cc_service::serve_with_obs(engine, listener, &service, obs),
            }
        }
        other => {
            eprintln!("unknown --mode {other} (expected memory, dynamic, paged or router)");
            exit(2);
        }
    };

    match stats {
        Ok(stats) => {
            eprintln!(
                "drained: {} queries in {} batches (largest {}), \
                 {} inserts, {} deletes, {} overloaded, {} expired, {} errors",
                stats.queries,
                stats.batches,
                stats.max_batch,
                stats.inserts,
                stats.deletes,
                stats.overloaded,
                stats.deadline_expired,
                stats.errors,
            );
        }
        Err(e) => {
            eprintln!("server failed: {e}");
            exit(1);
        }
    }
}
