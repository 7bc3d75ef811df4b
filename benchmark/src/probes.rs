//! Micro-probes: single layers timed from outside, through the crates'
//! public functions. A traced run probes the layers its workload runs,
//! on the engine the workload itself set up; a layer the workload does
//! not touch is not probed there. A probe repeats its measurement at
//! least thirty times where a repeat is cheap and reports the
//! fastest-tenth estimate the passes use ([`quiet_value`]).

use crate::data::{far_vector, Inputs, K};
use crate::estimators::{median, quiet_value};
use crate::report::Report;
use crate::workloads::{run_phase, serve_and, ClientState, Phase, Scratch, Target, Workload};
use c2lsh::{
    C2lshIndex, FullParams, HashFamily, MutableIndex, MutationOp, PagedStore, ShardedEngine,
};
use cc_baselines::linear::LinearScan;
use cc_obs::ObsConfig;
use cc_service::protocol::{self, Request, Response};
use cc_service::{Client, QueryRequest, RouterConfig, ServiceConfig, ServiceStats};
use cc_storage::diskfile::DiskPageFile;
use cc_storage::pool::PinnedPool;
use cc_storage::wal::{Wal, WalOp};
use cc_vector::gt::Neighbor;
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::time::{Duration, Instant};

/// Seconds per call of `f`, one sample per repeat.
fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// The service configuration with observability on, as an operator
/// would run it.
pub fn service_with_obs() -> ServiceConfig {
    ServiceConfig { obs: ObsConfig::all_on(), ..ServiceConfig::default() }
}

/// `name value` of an unlabelled or exactly-labelled Prometheus series.
fn series(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Mean of a Prometheus summary in microseconds. The summaries'
/// quantiles come from log-linear histogram buckets and read the same
/// on every run; sum over count is exact.
fn mean_us(text: &str, name: &str) -> f64 {
    series(text, &format!("{name}_sum")) / series(text, &format!("{name}_count")).max(1.0) * 1e6
}

/// What the server says about itself after a phase with `obs` on.
pub fn server_side(report: &mut Report, metrics_text: &str, stats: &ServiceStats, wall_s: f64) {
    report.set("server.wait_us_mean", mean_us(metrics_text, "cc_queue_wait_seconds"));
    report.set("server.flush_us_mean", mean_us(metrics_text, "cc_flush_seconds"));
    report.set("server.mean_batch", stats.queries as f64 / stats.batches.max(1) as f64);
    report.set("server.flushes_per_s", stats.batches as f64 / wall_s);
    report.set("server.overloaded", stats.overloaded as f64);
}

/// The write path's share of [`server_side`].
pub fn server_write_side(report: &mut Report, metrics_text: &str, stats: &ServiceStats) {
    report.set("server.wal_apply_us_mean", mean_us(metrics_text, "cc_wal_apply_seconds"));
    report.set(
        "server.mutation_batch_mean",
        (stats.inserts + stats.deletes) as f64 / stats.mutation_batches.max(1) as f64,
    );
}

pub fn ping_rtt_us(addr: SocketAddr) -> f64 {
    let mut client = Client::connect(addr).expect("connect");
    quiet_value(&time_reps(200, || client.ping().expect("ping"))) * 1e6
}

/// kernels: one hash, one hash inside a 32-query batch, one candidate
/// verification, through the dispatched kernel.
pub fn kernels(report: &mut Report, inputs: &Inputs) {
    let (data, queries) = (&inputs.data, &inputs.queries);
    let m = FullParams::derive(data.len(), &inputs.config).m;
    let family = HashFamily::generate(m, data.dim(), &inputs.config);
    // A hundred calls per sample: one call is too short for the clock.
    let one = time_reps(60, || {
        for _ in 0..100 {
            black_box(family.buckets(black_box(queries.get(0))));
        }
    });
    report.set("kernels.hash_ns", quiet_value(&one) * 1e9 / (100 * m) as f64);
    let batch = queries.slice_rows(0, 32);
    let many = time_reps(60, || {
        black_box(family.buckets_batch(black_box(&batch)));
    });
    report.set("kernels.project_batch32_ns_per_hash", quiet_value(&many) * 1e9 / (32 * m) as f64);
    // Verification as the engine does it: early abandon against the
    // query's true k-th distance.
    let kernel = c2lsh::kernels::dispatch();
    let cands = data.len().min(4096);
    let bound = inputs.truth[0].last().map_or(f64::INFINITY, |x| x.dist * x.dist);
    let verify = time_reps(60, || {
        for i in 0..cands {
            black_box(kernel.euclidean_sq_bounded(data.get(i), queries.get(0), bound));
        }
    });
    report.set("kernels.verify_ns_per_cand", quiet_value(&verify) * 1e9 / cands as f64);
}

/// Seconds per query, one sample per query, of the first `count` queries.
fn per_query(
    inputs: &Inputs,
    count: usize,
    mut ask: impl FnMut(&[f32]) -> Vec<Neighbor>,
) -> Vec<f64> {
    (0..count.min(inputs.queries.len()))
        .map(|i| {
            let t = Instant::now();
            black_box(ask(inputs.queries.get(i)));
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// baselines: the exact scan the index must beat, on the same data,
/// the same thread and the same queries, interleaved.
pub fn scan(report: &mut Report, inputs: &Inputs, index: &C2lshIndex<'_>) {
    let scan = LinearScan::new(&inputs.data);
    let (mut index_s, mut scan_s) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        index_s.extend(per_query(inputs, 40, |q| index.query(q, K).0));
        scan_s.extend(per_query(inputs, 40, |q| scan.query(q, K).0));
    }
    report.set("scan.qps", 1.0 / quiet_value(&scan_s));
    report.set("scan.speedup", quiet_value(&scan_s) / quiet_value(&index_s));
}

/// paged, pool, diskfile, codec, on the store the workload served.
pub fn paged(report: &mut Report, inputs: &Inputs, store: &mut PagedStore) {
    let file_bytes = store.file_bytes();
    report.set("paged.file_mib", file_bytes as f64 / (1 << 20) as f64);
    report.set(
        "paged.file_bytes_per_user_byte",
        file_bytes as f64 / inputs.data.payload_bytes() as f64,
    );
    report.set(
        "codec.compression_ratio",
        store.uncompressed_posting_bytes() as f64 / store.posting_bytes().max(1) as f64,
    );
    // In-process latency with the served pool (working set far above
    // it), with the whole file resident (decode cost without misses),
    // and of the in-memory index over the same data.
    let small_pool = median(&per_query(inputs, 40, |q| store.query(q, K).0));
    let file_pages = (file_bytes as usize).div_ceil(c2lsh::PAGE_SIZE);
    store.set_pool_pages(file_pages);
    per_query(inputs, 40, |q| store.query(q, K).0);
    let all_pool = median(&per_query(inputs, 40, |q| store.query(q, K).0));
    report.set("paged.read_p50_ms_pool_all", all_pool * 1e3);
    let index = C2lshIndex::build(&inputs.data, &inputs.config);
    let in_mem = median(&per_query(inputs, 40, |q| index.query(q, K).0));
    drop(index);
    report.set("paged.slowdown_vs_mem", small_pool / in_mem);

    let file = DiskPageFile::open(store.path()).expect("reopen page file");
    let pages = file.pages();
    let mut buf = Vec::new();
    let mut next = 0u32;
    let mut stride = || {
        next = (next + 7919) % pages;
        next
    };
    let read = time_reps(300, || file.read_payload(stride(), &mut buf).expect("read page"));
    report.set("diskfile.read_page_us", quiet_value(&read) * 1e6);
    let pool = PinnedPool::new(64);
    let miss = time_reps(300, || drop(pool.get(&file, stride()).expect("pool miss")));
    report.set("pool.get_miss_us", quiet_value(&miss) * 1e6);
    let hot = stride();
    drop(pool.get(&file, hot).expect("load hot page"));
    let hit = time_reps(60, || {
        for _ in 0..100 {
            drop(black_box(pool.get(&file, hot).expect("pool hit")));
        }
    });
    report.set("pool.get_hit_ns", quiet_value(&hit) * 1e9 / 100.0);

    // One posting list as the paged tier stores them: ascending ids
    // with the gaps of one table's bucket.
    let ids: Vec<u32> = (0..4096u32).map(|i| i * 23 + i % 7).collect();
    let mut encoded = Vec::new();
    cc_storage::codec::encode_postings(&ids, &mut encoded);
    let mut decoded = Vec::with_capacity(ids.len());
    let decode = time_reps(200, || {
        decoded.clear();
        black_box(cc_storage::codec::decode_postings(black_box(&encoded), &mut decoded));
    });
    assert_eq!(decoded, ids, "codec round trip");
    report.set("codec.decode_ns_per_id", quiet_value(&decode) * 1e9 / ids.len() as f64);
}

/// mutable, dynamic: one-insert batches, the clone behind each of
/// them and a checkpoint, on the index the workload served.
pub fn mutable(report: &mut Report, index: &MutableIndex, dir: &Path) {
    let mut counter = 500_000;
    let mut one_insert = || {
        counter += 1;
        [MutationOp::Insert { vector: far_vector(7, counter), meta: Default::default() }]
    };
    let apply = time_reps(30, || {
        index.apply_batch(&one_insert()).expect("apply_batch");
    });
    report.set("mutable.apply_batch1_ms", quiet_value(&apply) * 1e3);
    let (snapshot, _seq) = index.snapshot();
    let clone = time_reps(30, || {
        black_box((*snapshot).clone());
    });
    drop(snapshot);
    report.set("dynamic.clone_ms", quiet_value(&clone) * 1e3);
    let checkpoint = time_reps(3, || {
        index.apply_batch(&one_insert()).expect("apply_batch");
        index.checkpoint().expect("checkpoint");
    });
    report.set("mutable.checkpoint_ms", quiet_value(&checkpoint) * 1e3);
    let bytes = std::fs::metadata(dir.join(c2lsh::mutable::CHECKPOINT_FILE)).map_or(0, |m| m.len());
    report.set("mutable.checkpoint_mib", bytes as f64 / (1 << 20) as f64);
    // Leave one record in the log for the cold reopen that follows.
    index.apply_batch(&one_insert()).expect("apply_batch");
}

/// mutable, wal: a cold reopen of the directory the workload's index
/// left behind (checkpoint plus one WAL record), and durable appends.
pub fn reopen_and_wal(report: &mut Report, inputs: &Inputs, dir: &Path, scratch: &Scratch) {
    let t = Instant::now();
    black_box(
        MutableIndex::open(dir, inputs.data.dim(), inputs.data.len(), &inputs.config)
            .expect("cold reopen"),
    );
    report.set("mutable.reopen_s", t.elapsed().as_secs_f64());

    let (mut wal, _, _) = Wal::open(scratch.path("probe-wal"), 0).expect("open WAL");
    let before = wal.size_bytes();
    let mut oid = 0;
    let sync = time_reps(60, || {
        oid += 1;
        wal.append(&WalOp::Insert { oid, vector: far_vector(0, 0), tag: 0, label: 0 })
            .expect("append");
        wal.sync().expect("sync");
    });
    report.set("wal.append_sync_us", quiet_value(&sync) * 1e6);
    report.set("wal.bytes_per_insert", (wal.size_bytes() - before) as f64 / 60.0);
}

/// protocol: one query's frames through the codec, without a socket.
pub fn protocol(report: &mut Report, inputs: &Inputs) {
    let request = Request::QueryV2 {
        k: K as u32,
        deadline_ms: 0,
        want_stats: false,
        want_trace: false,
        vector: inputs.queries.get(0).to_vec(),
        filter: None,
        collection: None,
        min_seq: 0,
    };
    let response = Response::TopKV2 { trace_id: 0, neighbors: inputs.truth[0].clone(), cost: None };
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    // A hundred round trips per sample: one is too short for the clock.
    let codec = time_reps(60, || {
        for _ in 0..100 {
            req_buf.clear();
            resp_buf.clear();
            protocol::write_request(&mut req_buf, &request).expect("encode request");
            black_box(protocol::read_request(&mut &req_buf[..]).expect("decode request"));
            protocol::write_response(&mut resp_buf, &response).expect("encode response");
            black_box(protocol::read_response(&mut &resp_buf[..]).expect("decode response"));
        }
    });
    report.set("protocol.codec_us_per_query", quiet_value(&codec) * 1e6 / 100.0);
    report.set("protocol.request_bytes", req_buf.len() as f64);
    report.set("protocol.response_bytes", resp_buf.len() as f64);
}

/// Quiet qps of the read-only wire schedule against `addr`.
fn wire_qps(addr: SocketAddr, inputs: &Inputs, seed: u64, seconds: f64) -> f64 {
    let mut states = ClientState::fresh(2);
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let phase = Phase { warmup: 0, until, traced: false };
    run_phase(&Target::Wire(addr), Workload::WireMem, inputs, seed, phase, &mut states).window().qps
}

/// Median latency of `count` sequential reads from one connection.
fn sequential_p50(addr: SocketAddr, inputs: &Inputs, count: usize) -> f64 {
    let mut client = Client::connect(addr).expect("connect");
    median(&per_query(inputs, count, |q| {
        client.search_result(&QueryRequest::new(q).k(K as u32)).expect("query").neighbors
    }))
}

/// obs, router, on the engine `wire-mem` served.
pub fn obs_and_router(report: &mut Report, inputs: &Inputs, engine: &ShardedEngine<'_>, seed: u64) {
    // Observability off, on, off, on: what watching costs in qps.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (qps, service) in [(&mut off, ServiceConfig::default()), (&mut on, service_with_obs())]
        {
            qps.push(serve_and(engine, &service, |addr| wire_qps(addr, inputs, seed, 1.0)).0);
        }
    }
    report.set("obs.overhead_pct", 100.0 * (median(&off) - median(&on)) / median(&off));

    // One hop through the scatter-gather router in front of the server.
    let ((direct, routed), _stats) = serve_and(engine, &ServiceConfig::default(), |addr| {
        let direct = sequential_p50(addr, inputs, 40);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
        let router_addr = listener.local_addr().expect("router addr");
        let config = RouterConfig {
            primary: addr.to_string(),
            groups: vec![vec![addr.to_string()]],
            node_deadline: Duration::from_secs(5),
            primary_reads: true,
        };
        let routed = std::thread::scope(|s| {
            let router = s.spawn(|| cc_service::route(listener, &config));
            let routed = sequential_p50(router_addr, inputs, 40);
            Client::connect(router_addr).expect("connect router").shutdown().expect("shutdown");
            let stats = router.join().expect("router panicked").expect("route failed");
            report.set("router.failovers", stats.failovers as f64);
            routed
        });
        (direct, routed)
    });
    report.set("router.hop_us_p50", (routed - direct) * 1e6);
}
