//! The observability layer against live servers.
//!
//! In-process: a mutable engine served with metrics on — mixed
//! read/write load, `/metrics` scraped over real HTTP and checked for
//! monotone counters that agree with the client-side tally, the
//! exposition linted (unique series, `# HELP`/`# TYPE` for every
//! family), traces and the slow log exercised end-to-end.
//!
//! Against the real binary: `--metrics-addr` must announce itself on
//! stderr, serve `/metrics` and `/healthz`, count the queries the
//! client sends, and label the series of two live collections whose
//! filtered answers honour their predicate.

use c2lsh::config::Beta;
use c2lsh::{C2lshConfig, DynamicIndex, MutableIndex, MutationOp, Predicate};
use cc_obs::{http_get, sample, MetricsServer, ObsConfig};
use cc_service::{Client, QueryRequest, ServerObs, ServiceConfig};
use cc_vector::gen::{generate, Distribution};
use std::collections::HashSet;
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Abort the whole process if `f` does not finish in time — a panic
/// inside a crossbeam scope would otherwise leave the server thread
/// unjoined and hang the suite instead of failing it.
fn with_watchdog(label: &'static str, limit: Duration, f: impl FnOnce()) {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        if done_rx.recv_timeout(limit).is_err() {
            eprintln!("[{label}] did not finish within {limit:?}");
            std::process::abort();
        }
    });
    f();
    let _ = done_tx.send(());
}

/// The exposition lint: every sample line belongs to a family with
/// `# HELP` and `# TYPE`, and no series name (including its labels)
/// appears twice.
fn lint_exposition(text: &str) {
    let mut help = HashSet::new();
    let mut ty = HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split_whitespace().next().unwrap().to_string();
            assert!(help.insert(family.clone()), "duplicate HELP for {family}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split_whitespace().next().unwrap().to_string();
            assert!(ty.insert(family.clone()), "duplicate TYPE for {family}");
        }
    }
    assert_eq!(help, ty, "HELP and TYPE must cover the same families");
    let mut series = HashSet::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let name = line.split(' ').next().unwrap().to_string();
        assert!(series.insert(name.clone()), "duplicate series {name}:\n{text}");
        // The family is the series name with labels and the summary
        // aggregate suffixes stripped.
        let family = name.split('{').next().unwrap();
        let family = family.strip_suffix("_sum").unwrap_or(family);
        let family = family.strip_suffix("_count").unwrap_or(family);
        assert!(ty.contains(family), "series {name} has no # TYPE (family {family}):\n{text}");
    }
    assert!(!series.is_empty(), "empty exposition");
}

/// Mixed read/write load against an in-process server with the full
/// observability stack on, scraped over real HTTP.
#[test]
fn live_scrape_is_monotone_and_consistent_with_load() {
    const D: usize = 8;
    const SEED_N: usize = 200;
    const QUERIES_1: usize = 12;
    const QUERIES_2: usize = 9;
    const INSERTS: usize = 5;
    const DELETES: usize = 3;

    let cfg =
        C2lshConfig::builder().bucket_width(1.0).seed(11).beta(Beta::Count(SEED_N as u64)).build();
    let data = generate(
        Distribution::GaussianMixture { clusters: 6, spread: 0.02, scale: 10.0 },
        SEED_N,
        D,
        17,
    );
    let engine = MutableIndex::ephemeral(DynamicIndex::new(D, SEED_N, &cfg));
    let seed: Vec<MutationOp> = data
        .iter()
        .map(|v| MutationOp::Insert { vector: v.to_vec(), meta: Default::default() })
        .collect();
    engine.apply_batch(&seed).unwrap();

    let obs = Arc::new(ServerObs::new(ObsConfig {
        enabled: true,
        trace_sample_every: 1,
        slow_query_ms: 1,
        slow_log_capacity: 8,
    }));
    let metrics = MetricsServer::bind("127.0.0.1:0", obs.clone()).unwrap();
    let scrape = metrics.local_addr();

    // A 5 ms linger with a lone client means every query waits out the
    // full batching delay — so each one crosses the 1 ms slow-query
    // threshold and the ring gets exercised.
    let service = ServiceConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(5),
        k_max: 32,
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("live_scrape", Duration::from_secs(120), || {
        let obs = obs.clone();
        crossbeam::scope(|s| {
            let (engine, service) = (&engine, &service);
            let server = s.spawn(move |_| {
                cc_service::serve_with_obs(engine, listener, service, obs).unwrap()
            });
            let mut client = Client::connect(addr).unwrap();

            assert_eq!(http_get(scrape, "/healthz").unwrap(), "ok\n");

            for i in 0..QUERIES_1 {
                let r = client
                    .search_result(&QueryRequest::new(data.get(i % SEED_N).to_vec()).k(3))
                    .unwrap();
                assert_eq!(r.neighbors[0].id, (i % SEED_N) as u32);
                assert!(r.cost.is_none(), "stats not requested");
                assert_eq!(r.trace_id, 0, "trace not requested");
            }
            let first = http_get(scrape, "/metrics").unwrap();
            lint_exposition(&first);
            assert_eq!(sample(&first, "cc_up"), Some(1.0));
            assert_eq!(sample(&first, "cc_queries_total"), Some(QUERIES_1 as f64));
            assert_eq!(sample(&first, "cc_dim"), Some(D as f64));
            assert_eq!(sample(&first, "cc_objects"), Some(SEED_N as f64));
            // The per-stage histograms saw exactly the answered queries.
            assert_eq!(sample(&first, "cc_query_seconds_count"), Some(QUERIES_1 as f64));
            assert_eq!(sample(&first, "cc_stage_count_seconds_count"), Some(QUERIES_1 as f64));
            assert!(sample(&first, "cc_query_seconds_sum").unwrap() > 0.0);
            // p50 ≤ p99 by construction.
            let p50 = sample(&first, "cc_query_seconds{quantile=\"0.5\"}").unwrap();
            let p99 = sample(&first, "cc_query_seconds{quantile=\"0.99\"}").unwrap();
            assert!(p50 <= p99, "p50 {p50} > p99 {p99}");

            // Second wave: writes plus traced/stats queries.
            let mut inserted = Vec::new();
            for i in 0..INSERTS {
                let novel: Vec<f32> = (0..D).map(|j| 900.0 + (i * D + j) as f32).collect();
                inserted.push(client.insert(&novel).unwrap().0);
            }
            for oid in 0..DELETES {
                let (found, _) = client.delete(oid as u32).unwrap();
                assert!(found);
            }
            let mut traced_ids = Vec::new();
            for i in 0..QUERIES_2 {
                let r = client
                    .search_result(&QueryRequest::new(data.get(50 + i).to_vec()).k(2).with_trace())
                    .unwrap();
                let cost = r.cost.expect("trace implies a cost block");
                assert!(cost.rounds > 0, "{cost:?}");
                assert!(!cost.spans.is_empty(), "traced query lost its spans: {cost:?}");
                assert!(r.trace_id > 0, "traced query got no id");
                traced_ids.push(r.trace_id);
            }
            let unique: HashSet<u64> = traced_ids.iter().copied().collect();
            assert_eq!(unique.len(), traced_ids.len(), "trace ids must be unique");

            let second = http_get(scrape, "/metrics").unwrap();
            lint_exposition(&second);
            assert_eq!(sample(&second, "cc_queries_total"), Some((QUERIES_1 + QUERIES_2) as f64));
            assert_eq!(sample(&second, "cc_inserts_total"), Some(INSERTS as f64));
            assert_eq!(sample(&second, "cc_deletes_total"), Some(DELETES as f64));
            assert_eq!(sample(&second, "cc_objects"), Some((SEED_N + INSERTS - DELETES) as f64));
            assert!(sample(&second, "cc_traces_total").unwrap() >= QUERIES_2 as f64);
            // One WAL-apply observation per flush that carried mutations:
            // at least one (something was written), at most one per request.
            let wal_flushes = sample(&second, "cc_wal_apply_seconds_count").unwrap();
            assert!(
                (1.0..=(INSERTS + DELETES) as f64).contains(&wal_flushes),
                "wal flushes {wal_flushes}"
            );
            // A collection write is its own batch: one more observation
            // and one more mutation batch.
            let batches = sample(&second, "cc_mutation_batches_total").unwrap();
            client.create_collection("side", D as u32).unwrap();
            client.insert_with_meta(Some("side"), data.get(0), 1, 2).unwrap();
            let third = http_get(scrape, "/metrics").unwrap();
            assert_eq!(sample(&third, "cc_wal_apply_seconds_count"), Some(wal_flushes + 1.0));
            assert_eq!(sample(&third, "cc_mutation_batches_total"), Some(batches + 1.0));
            // Monotonicity across the two scrapes, counter by counter.
            for family in [
                "cc_queries_total",
                "cc_batches_total",
                "cc_errors_total",
                "cc_inserts_total",
                "cc_deletes_total",
                "cc_traces_total",
                "cc_slow_queries_total",
                "cc_query_seconds_count",
                "cc_flush_seconds_count",
            ] {
                assert!(
                    sample(&second, family).unwrap() >= sample(&first, family).unwrap(),
                    "{family} went backwards"
                );
            }

            // Every query outlasted the 1 ms threshold (the linger alone
            // guarantees it), so the ring retained the most recent ones —
            // and the traced ids are cross-referenced.
            let slowlog = http_get(scrape, "/slowlog").unwrap();
            assert!(slowlog.contains("slow queries"), "{slowlog}");
            let last_id = *traced_ids.last().unwrap();
            assert!(slowlog.contains(&format!("trace_id={last_id} ")), "{slowlog}");

            // Two clients at once, one filtered and one not, so flushes
            // split into predicate groups. `cc_batch_size` observes
            // engine calls: one value per group, none for the
            // mutation-only flushes of the second wave.
            let data = &data;
            let waves: Vec<_> = [None, Some(Predicate::label(0))]
                .into_iter()
                .map(|filter| {
                    s.spawn(move |_| {
                        let mut client = Client::connect(addr).unwrap();
                        for i in 0..QUERIES_1 {
                            let mut req = QueryRequest::new(data.get(i).to_vec()).k(2);
                            if let Some(pred) = filter {
                                req = req.filter(pred);
                            }
                            assert!(!client.search_result(&req).unwrap().neighbors.is_empty());
                        }
                    })
                })
                .collect();
            for wave in waves {
                wave.join().unwrap();
            }

            // The same document is served over the binary protocol.
            let inband = client.metrics_text().unwrap();
            lint_exposition(&inband);
            let answered = sample(&inband, "cc_queries_total").unwrap();
            assert_eq!(answered, (3 * QUERIES_1 + QUERIES_2) as f64, "{inband}");
            let calls = sample(&inband, "cc_batches_total");
            assert_eq!(sample(&inband, "cc_batch_size_count"), calls, "{inband}");
            assert_eq!(sample(&inband, "cc_batch_size_sum"), Some(answered), "{inband}");
            assert!(sample(&inband, "cc_batch_size{quantile=\"0.5\"}").unwrap() >= 1.0);

            client.shutdown().unwrap();
            server.join().unwrap();
        })
        .unwrap();
    });
    metrics.stop();
}

/// The real binary: `--metrics-addr` announces the scrape endpoint on
/// stderr and serves a lintable exposition that tracks served queries,
/// including the per-collection series of two collections under a
/// mixed filtered load whose answers honour their predicate.
#[test]
fn binary_serves_metrics_endpoint() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    const N: usize = 300;
    const D: usize = 8;

    let mut child = Command::new(env!("CARGO_BIN_EXE_cc-service"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--slow-query-ms",
            "0",
            "--trace-sample",
            "1",
            "--n",
            &N.to_string(),
            "--dim",
            &D.to_string(),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cc-service");
    let stderr = child.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let mut serve_addr = None;
    let mut scrape_addr = None;
    while serve_addr.is_none() || scrape_addr.is_none() {
        let line = lines
            .next()
            .expect("server exited before announcing its addresses")
            .expect("read server stderr");
        if let Some(rest) = line.split("metrics on http://").nth(1) {
            let addr = rest.split('/').next().unwrap();
            scrape_addr = Some(addr.parse().expect("parse metrics address"));
        } else if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest.split_whitespace().next().unwrap();
            serve_addr = Some(addr.parse::<std::net::SocketAddr>().expect("parse address"));
        }
    }
    std::thread::spawn(move || for _ in lines {});
    let (serve_addr, scrape_addr) = (serve_addr.unwrap(), scrape_addr.unwrap());

    assert_eq!(http_get(scrape_addr, "/healthz").unwrap(), "ok\n");
    let before = http_get(scrape_addr, "/metrics").unwrap();
    lint_exposition(&before);
    assert_eq!(sample(&before, "cc_up"), Some(1.0));
    assert_eq!(sample(&before, "cc_queries_total"), Some(0.0));
    for family in ["cc_query_seconds", "cc_stage_count_seconds", "cc_terminations_total"] {
        assert!(before.contains(&format!("# TYPE {family} ")), "no {family}:\n{before}");
    }

    let mut client = Client::connect(serve_addr).unwrap();
    for i in 0..7u32 {
        let q: Vec<f32> = (0..D).map(|j| (i + j as u32) as f32).collect();
        let r = client.search_result(&QueryRequest::new(q).k(3).with_stats()).unwrap();
        assert!(!r.neighbors.is_empty());
        assert!(r.cost.is_some());
    }
    let after = http_get(scrape_addr, "/metrics").unwrap();
    lint_exposition(&after);
    assert_eq!(sample(&after, "cc_queries_total"), Some(7.0));
    assert!(sample(&after, "cc_query_seconds_count").unwrap() >= 7.0);

    // Two collections whose rows carry labels `i % 3` — coprime to the
    // 8 generator clusters, so a label predicate is selective — then a
    // mixed load: two in three collection queries filtered.
    let rows = generate(
        Distribution::GaussianMixture { clusters: 8, spread: 0.02, scale: 10.0 },
        60,
        D,
        5,
    );
    for name in ["alpha", "beta"] {
        assert!(!client.create_collection(name, D as u32).unwrap(), "{name} is new");
        for (i, v) in rows.iter().enumerate() {
            client.insert_with_meta(Some(name), v, 1 << (i % 4), (i % 3) as u32).unwrap();
        }
    }
    let mut rejected = 0;
    for (i, q) in rows.iter().take(30).enumerate() {
        let name = if i % 2 == 0 { "alpha" } else { "beta" };
        let mut req = QueryRequest::new(q.to_vec()).k(5).collection(name).with_stats();
        if i % 3 != 0 {
            req = req.filter(Predicate::label(1));
        }
        let res = client.search_result(&req).unwrap();
        assert!(!res.neighbors.is_empty(), "query {i} served nothing");
        if i % 3 != 0 {
            assert!(res.neighbors.iter().all(|n| n.id % 3 == 1), "query {i}: {:?}", res.neighbors);
        }
        rejected += res.cost.unwrap().filtered;
    }
    assert!(rejected > 0, "a selective predicate must reject some candidates");
    let labelled = http_get(scrape_addr, "/metrics").unwrap();
    lint_exposition(&labelled);
    for name in ["alpha", "beta"] {
        let series =
            |family: &str| sample(&labelled, &format!("{family}{{collection=\"{name}\"}}"));
        assert_eq!(series("cc_collection_objects"), Some(60.0), "{labelled}");
        assert_eq!(series("cc_collection_inserts_total"), Some(60.0), "{labelled}");
        assert_eq!(series("cc_collection_queries_total"), Some(15.0), "{labelled}");
    }
    let filtered: f64 = ["alpha", "beta"]
        .iter()
        .filter_map(|name| {
            sample(
                &labelled,
                &format!("cc_collection_filtered_candidates_total{{collection=\"{name}\"}}"),
            )
        })
        .sum();
    assert_eq!(filtered, rejected as f64, "{labelled}");

    client.shutdown().unwrap();
    child.wait().expect("server drains after shutdown");
}

/// `--max-batch 0` is a usage error at startup (exit code 2), as `--n 0`
/// is: a batch of none would leave every admitted query unanswered. A
/// build without the check serves, so the wait is bounded and such a
/// server is killed.
#[test]
fn binary_refuses_a_zero_max_batch() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cc-service"))
        .args(["--addr", "127.0.0.1:0", "--max-batch", "0", "--n", "50", "--dim", "4"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cc-service");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll cc-service") {
            break Some(status);
        }
        if std::time::Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).ok();
    let status = status.unwrap_or_else(|| panic!("still serving after 30 s; stderr: {stderr}"));
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--max-batch must all be at least 1"), "stderr: {stderr}");
}

/// A `--node-name` outside the collection-name rules is a usage error
/// at startup (exit code 2), checked before anything else: `--mode
/// none` keeps a build without the check from serving.
#[test]
fn binary_refuses_a_bad_node_name() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-service"))
        .args(["--addr", "127.0.0.1:0", "--node-name", "bad name!", "--mode", "none"])
        .output()
        .expect("run cc-service");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with("--node-name: "), "stderr: {stderr}");
    assert!(stderr.contains("bad node name \"bad name!\""), "stderr: {stderr}");
}
