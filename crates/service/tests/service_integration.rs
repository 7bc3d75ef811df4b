//! End-to-end service tests against a live 4-shard server on loopback:
//! correctness under concurrency (32 client threads, answers compared
//! bit-exactly with a single unsharded index), request coalescing
//! evidence, admission control, deadline expiry, protocol-violation
//! handling, and graceful drain with a leaked-thread watchdog.
//!
//! The second half drives the mutable engine over the same wire:
//! durable insert/delete acks with racing readers, mutation rejection
//! on a read-only engine, and — against the real `cc-service` binary —
//! SIGKILL mid-service followed by a restart that must recover every
//! acknowledged mutation from the WAL.

use c2lsh::config::Beta;
use c2lsh::engine::SearchOptions;
use c2lsh::{
    C2lshConfig, C2lshIndex, DynamicIndex, MutableIndex, MutationOp, PointMeta, Predicate,
    ShardedData, ShardedEngine,
};
use cc_obs::{sample, ObsConfig};
use cc_service::{
    Client, CollectionsConfig, ProtoError, QueryRequest, Request, Response, SearchOutcome,
    ServerObs, ServiceConfig,
};
use cc_vector::dataset::Dataset;
use cc_vector::gen::{generate, Distribution};
use cc_vector::gt::Neighbor;
use std::net::TcpListener;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

#[path = "harness/mod.rs"]
mod harness;
use harness::{with_watchdog, ClusterHarness, NodeSpec};

fn clustered(n: usize, d: usize, seed: u64) -> Dataset {
    generate(Distribution::GaussianMixture { clusters: 8, spread: 0.02, scale: 10.0 }, n, d, seed)
}

/// A registry that also exports `engine`'s write path (`cc_wal_*`,
/// `cc_applied_seq`), set up the way `cc-service --mode dynamic` does.
fn obs_watching(engine: &Arc<MutableIndex>, config: ObsConfig) -> Arc<ServerObs> {
    let obs = Arc::new(ServerObs::new(config));
    let engine = Arc::clone(engine);
    obs.set_mutations_source(Box::new(move || (engine.mutation_stats(), engine.len() as u64)));
    obs
}

/// The "neighbors-or-bust" query these tests make constantly.
fn top_k(client: &mut Client, vector: &[f32], k: u32) -> Vec<Neighbor> {
    client.search_result(&QueryRequest::new(vector.to_vec()).k(k)).unwrap().neighbors
}

/// T2 disabled (budget ≥ n): the regime where sharded answers are
/// bit-identical to the unsharded index, so the test can demand exact
/// equality of served results (ids *and* f64 distances).
fn cfg_exact(n: usize) -> C2lshConfig {
    C2lshConfig::builder().bucket_width(1.0).seed(13).beta(Beta::Count(n as u64)).build()
}

/// 32 concurrent connections against a 4-shard server: every served
/// answer must equal the single unsharded index's answer exactly;
/// coalescing must show up in the stats; shutdown must drain cleanly
/// (the server thread joins, proving no worker survived).
#[test]
fn concurrent_clients_match_single_index_ground_truth() {
    const N: usize = 2000;
    const D: usize = 16;
    const K: u32 = 5;
    const CLIENTS: usize = 32;
    const ROUNDS: usize = 8;

    let data = clustered(N, D, 3);
    let queries = clustered(64, D, 4);
    let cfg = cfg_exact(N);

    // Ground truth from the unsharded index over the same data.
    let single = C2lshIndex::build(&data, &cfg);
    let expected: Vec<Vec<Neighbor>> =
        (0..queries.len()).map(|qi| single.query(queries.get(qi), K as usize).0).collect();

    let sharded = ShardedData::partition(&data, 4);
    let engine = ShardedEngine::build(&sharded, &cfg);
    let service = ServiceConfig {
        max_batch: 16,
        max_delay: Duration::from_millis(50),
        queue_capacity: 1024,
        k_max: 64,
        ..ServiceConfig::default()
    };

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("concurrent_clients", Duration::from_secs(120), || {
        let barrier = Barrier::new(CLIENTS);
        let (engine, service, queries, expected, barrier) =
            (&engine, &service, &queries, &expected, &barrier);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());

            let mut control = Client::connect(addr).unwrap();
            control.ping().unwrap();

            let clients: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        for i in 0..ROUNDS {
                            // All clients fire together each round so the
                            // batcher has something to coalesce.
                            barrier.wait();
                            let qi = (t * ROUNDS + i) % queries.len();
                            let got = top_k(&mut client, queries.get(qi), K);
                            assert_eq!(got, expected[qi], "client {t} round {i} query {qi}");
                        }
                    })
                })
                .collect();
            for handle in clients {
                handle.join().unwrap();
            }

            let m = control.metrics_text().unwrap();
            let answered = (CLIENTS * ROUNDS) as u64;
            assert_eq!(sample(&m, "cc_queries_total"), Some(answered as f64), "{m}");
            assert_eq!(sample(&m, "cc_errors_total"), Some(0.0), "{m}");
            assert_eq!(sample(&m, "cc_shards"), Some(4.0), "{m}");
            let max_batch = sample(&m, "cc_max_batch").unwrap() as u64;
            assert!(max_batch >= 2, "no coalescing observed (max_batch = {max_batch}): {m}");
            let batches = sample(&m, "cc_batches_total").unwrap() as u64;
            assert!(batches < answered, "every query got its own batch: {m}");

            // Graceful drain: serve() returns only after every worker
            // thread joined, so a successful join IS the leak check.
            control.shutdown().unwrap();
            let stats = server.join().unwrap();
            assert_eq!(stats.queries, answered);
            assert_eq!(stats.max_batch, max_batch);
        });
    });
}

/// A zero `max_batch` would take no work from the queue, so every
/// admitted query would wait forever: `serve` refuses the config before
/// it spawns anything (a build that serves trips the watchdog).
#[test]
fn serve_refuses_a_zero_max_batch() {
    let engine = MutableIndex::ephemeral(DynamicIndex::new(4, 16, &cfg_exact(16)));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let service = ServiceConfig { max_batch: 0, ..ServiceConfig::default() };
    with_watchdog("zero_max_batch", Duration::from_secs(30), || {
        let err = cc_service::serve(&engine, listener, &service).expect_err("max_batch 0");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    });
}

/// Admission control and deadlines, pinned deterministically by a long
/// linger: a queued request occupies the (capacity-1) queue for the
/// full linger window, so a second concurrent query must be refused
/// with `Overloaded`, and the first one's 50 ms deadline expires
/// before the 400 ms flush → `DeadlineExceeded`.
#[test]
fn admission_control_and_deadlines() {
    const N: usize = 300;
    const D: usize = 8;

    let data = clustered(N, D, 5);
    let cfg = cfg_exact(N);
    let sharded = ShardedData::partition(&data, 2);
    let engine = ShardedEngine::build(&sharded, &cfg);
    let service = ServiceConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(400),
        queue_capacity: 1,
        k_max: 16,
        drain_grace: Duration::from_secs(2),
        ..ServiceConfig::default()
    };

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("admission_and_deadlines", Duration::from_secs(60), || {
        let (engine, service, data) = (&engine, &service, &data);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());

            // A: admitted, then sits out the 400 ms linger with a 50 ms
            // deadline → expires while queued.
            let slow = s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .search(&QueryRequest::new(data.get(0).to_vec()).k(3).deadline_ms(50))
                    .unwrap()
            });

            // B: arrives mid-linger while A occupies the whole queue.
            std::thread::sleep(Duration::from_millis(150));
            let mut client = Client::connect(addr).unwrap();
            let refused = client.search(&QueryRequest::new(data.get(1).to_vec()).k(3)).unwrap();
            assert_eq!(refused, SearchOutcome::Overloaded);
            let strict = refused.into_result();
            assert!(matches!(strict, Err(ProtoError::Overloaded)), "{strict:?}");

            let expired = slow.join().unwrap();
            assert_eq!(expired, SearchOutcome::DeadlineExceeded);

            // The queue is free again: a plain query succeeds end-to-end.
            let neighbors = top_k(&mut client, data.get(2), 3);
            assert_eq!(neighbors[0].id, 2, "the query vector is row 2 of the data");
            assert_eq!(neighbors[0].dist, 0.0);

            // The retired first-generation frames — Query 0x02
            // (`u32 k | u32 deadline_ms | u32 dim | dim × f32`) and
            // Insert 0x05 (`u32 dim | dim × f32`) — and the retired JSON
            // Stats request 0x03 are refused like any unknown opcode: an
            // `Error(Protocol)` frame, then the connection is closed.
            let coords: Vec<u8> = data.get(2).iter().flat_map(|x| x.to_le_bytes()).collect();
            let mut v1_query = vec![0x02];
            for word in [3u32, 0, D as u32] {
                v1_query.extend_from_slice(&word.to_le_bytes());
            }
            v1_query.extend_from_slice(&coords);
            let mut v1_insert = vec![0x05];
            v1_insert.extend_from_slice(&(D as u32).to_le_bytes());
            v1_insert.extend_from_slice(&coords);
            for payload in [v1_query, v1_insert, vec![0x03]] {
                use std::io::{Read, Write};
                let mut raw = std::net::TcpStream::connect(addr).unwrap();
                raw.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
                raw.write_all(&payload).unwrap();
                let mut reply = Vec::new();
                raw.read_to_end(&mut reply).unwrap(); // EOF: the server hung up
                let mut reply = &reply[..];
                match cc_service::protocol::read_response(&mut reply).unwrap().unwrap() {
                    Response::Error(e) => assert_eq!(e.kind(), c2lsh::ErrorKind::Protocol, "{e}"),
                    other => panic!("opcode {:#04x} answered with {other:?}", payload[0]),
                }
                assert!(reply.is_empty(), "exactly one frame before the close");
            }
            // And a client refuses the retired TopK 0x82 answer frame
            // (`u32 count | count × (u32 id, f64 dist)`) and the retired
            // JSON stats answer 0x85 (UTF-8 to the end of the frame).
            let v1_topk = [5u8, 0, 0, 0, 0x82, 0, 0, 0, 0];
            let v1_stats = [3u8, 0, 0, 0, 0x85, b'{', b'}'];
            for frame in [&v1_topk[..], &v1_stats[..]] {
                assert!(matches!(
                    cc_service::protocol::read_response(&mut &frame[..]),
                    Err(cc_service::ProtoError::Malformed(_))
                ));
            }

            // Bad requests are answered with an error frame, which the
            // client surfaces as `Err` — never dropped.
            let wrong_dim = client.search(&QueryRequest::new(vec![0.0f32; D + 1]).k(3));
            let invalid = |e: &ProtoError| matches!(e, ProtoError::Server(e) if e.kind() == c2lsh::ErrorKind::InvalidArgument);
            assert!(wrong_dim.as_ref().is_err_and(invalid), "{wrong_dim:?}");
            let bad_k = client.search(&QueryRequest::new(data.get(0).to_vec()).k(0));
            assert!(bad_k.is_err(), "{bad_k:?}");
            // Non-finite coordinates must be refused at admission — the
            // engine asserts finiteness, and a NaN reaching the batcher
            // thread would kill it and wedge the whole service.
            let nan = client.search(&QueryRequest::new(vec![f32::NAN; D]).k(3));
            assert!(nan.is_err(), "{nan:?}");
            let survived = top_k(&mut client, data.get(2), 3);
            assert_eq!(survived[0].id, 2);

            let m = client.metrics_text().unwrap();
            assert_eq!(sample(&m, "cc_overloaded_total"), Some(1.0), "{m}");
            assert_eq!(sample(&m, "cc_deadline_expired_total"), Some(1.0), "{m}");
            // Three retired frames, wrong dim, k = 0, NaN.
            assert_eq!(sample(&m, "cc_errors_total"), Some(6.0), "{m}");
            assert_eq!(sample(&m, "cc_queries_total"), Some(2.0), "{m}");

            client.shutdown().unwrap();
            let stats = server.join().unwrap();
            assert_eq!(stats.overloaded, 1);
            assert_eq!(stats.deadline_expired, 1);
        });
    });
}

/// The same pin with every request naming a collection: collection
/// work waits in the one bounded queue, so a second concurrent query is
/// refused with `Overloaded` and a queued 50 ms deadline expires.
#[test]
fn collection_requests_meet_admission_control_and_deadlines() {
    const D: usize = 8;
    let data = clustered(4, D, 5);
    let engine = MutableIndex::ephemeral(DynamicIndex::new(D, 64, &cfg_exact(64)));
    let service = ServiceConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(400),
        queue_capacity: 1,
        k_max: 16,
        drain_grace: Duration::from_secs(2),
        collections: CollectionsConfig { config: cfg_exact(64), ..CollectionsConfig::default() },
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("collection_admission", Duration::from_secs(60), || {
        let (engine, service, data) = (&engine, &service, &data);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let mut client = Client::connect(addr).unwrap();
            client.create_collection("alpha", D as u32).unwrap();
            for v in data.iter() {
                client.insert_with_meta(Some("alpha"), v, 0, 0).unwrap();
            }
            let ask =
                |row: usize| QueryRequest::new(data.get(row).to_vec()).k(3).collection("alpha");

            let slow = s.spawn(move || {
                Client::connect(addr).unwrap().search(&ask(0).deadline_ms(50)).unwrap()
            });
            std::thread::sleep(Duration::from_millis(150));
            assert_eq!(client.search(&ask(1)).unwrap(), SearchOutcome::Overloaded);
            assert_eq!(slow.join().unwrap(), SearchOutcome::DeadlineExceeded);

            let nn = client.search_result(&ask(2)).unwrap().neighbors;
            assert_eq!((nn[0].id, nn[0].dist), (2, 0.0));
            let m = client.metrics_text().unwrap();
            assert_eq!(sample(&m, "cc_overloaded_total"), Some(1.0), "{m}");
            assert_eq!(sample(&m, "cc_deadline_expired_total"), Some(1.0), "{m}");
            assert_eq!(
                sample(&m, "cc_collection_queries_total{collection=\"alpha\"}"),
                Some(1.0),
                "{m}"
            );

            client.shutdown().unwrap();
            let stats = server.join().unwrap();
            assert_eq!((stats.overloaded, stats.deadline_expired), (1, 1));
        });
    });
}

/// 32 clients querying one collection share engine calls: the batcher
/// coalesces collection work exactly as it does the default engine's.
#[test]
fn collection_queries_coalesce_in_the_batcher() {
    const D: usize = 8;
    const CLIENTS: usize = 32;
    const ROUNDS: usize = 20;
    let data = clustered(2 * CLIENTS, D, 9);
    let engine = MutableIndex::ephemeral(DynamicIndex::new(D, 64, &cfg_exact(64)));
    let service = ServiceConfig {
        max_batch: 16,
        max_delay: Duration::from_millis(50),
        k_max: 16,
        obs: ObsConfig::all_on(),
        collections: CollectionsConfig { config: cfg_exact(64), ..CollectionsConfig::default() },
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("collection_coalescing", Duration::from_secs(120), || {
        let barrier = Barrier::new(CLIENTS);
        let (engine, service, data, barrier) = (&engine, &service, &data, &barrier);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let mut control = Client::connect(addr).unwrap();
            control.create_collection("alpha", D as u32).unwrap();

            let clients: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        for row in [2 * t, 2 * t + 1] {
                            client.insert_with_meta(Some("alpha"), data.get(row), 0, 0).unwrap();
                        }
                        for i in 0..ROUNDS {
                            barrier.wait();
                            let row = (t + i) % data.len();
                            let req = QueryRequest::new(data.get(row).to_vec()).k(1);
                            let nn = client.search_result(&req.collection("alpha")).unwrap();
                            assert_eq!(nn.neighbors[0].dist, 0.0, "client {t} round {i}");
                        }
                    })
                })
                .collect();
            for handle in clients {
                handle.join().unwrap();
            }

            let m = control.metrics_text().unwrap();
            let p50 = sample(&m, "cc_batch_size{quantile=\"0.5\"}").unwrap();
            assert!(p50 > 1.0, "collection queries were not coalesced: {m}");
            control.shutdown().unwrap();
            let stats = server.join().unwrap();
            assert_eq!(stats.queries, (CLIENTS * ROUNDS) as u64);
            assert!(stats.max_batch > 1, "{stats:?}");
            assert!(stats.batches < stats.queries, "{stats:?}");
        });
    });
}

/// After a `Shutdown`, a connection that is still open gets the same
/// `Draining` refusal for a collection insert as for a default-engine
/// insert.
#[test]
fn draining_server_refuses_collection_writes() {
    const D: usize = 4;
    let engine = MutableIndex::ephemeral(DynamicIndex::new(D, 64, &cfg_exact(64)));
    let service = ServiceConfig { drain_grace: Duration::from_secs(5), ..ServiceConfig::default() };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("collection_drain", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let mut open = Client::connect(addr).unwrap();
            open.create_collection("alpha", D as u32).unwrap();
            open.insert_with_meta(Some("alpha"), &[1.0; D], 0, 0).unwrap();

            Client::connect(addr).unwrap().shutdown().unwrap();
            // The ack is written before the drain flag flips; wait for
            // the flag, which the exposition shows.
            while sample(&open.metrics_text().unwrap(), "cc_draining") != Some(1.0) {
                std::thread::sleep(Duration::from_millis(5));
            }
            let default = open.insert(&[2.0; D]).unwrap_err();
            let named = open.insert_with_meta(Some("alpha"), &[2.0; D], 0, 0).unwrap_err();
            assert!(default.to_string().contains("draining"), "{default}");
            assert_eq!(named.to_string(), default.to_string());
            drop(open);
            let stats = server.join().unwrap();
            assert_eq!(stats.inserts, 1, "{stats:?}");
        });
    });
}

/// A replica name follows the collection-name rules: a subscriber with
/// any other name is refused, and no lag series is exported for it.
#[test]
fn replica_names_are_validated_before_the_lag_board() {
    const D: usize = 4;
    let engine = MutableIndex::ephemeral(DynamicIndex::new(D, 64, &cfg_exact(64)));
    let service = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("replica_names", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            for bad in ["bad name!\n", "", &"r".repeat(65)] {
                let mut raw = std::net::TcpStream::connect(addr).unwrap();
                let req = Request::ReplSubscribe { replica: bad.into(), from_seq: 0 };
                cc_service::protocol::write_request(&mut raw, &req).unwrap();
                match cc_service::protocol::read_response(&mut raw).unwrap().unwrap() {
                    Response::Error(e) => {
                        assert_eq!(e.kind(), c2lsh::ErrorKind::InvalidArgument, "{e}")
                    }
                    other => panic!("replica {bad:?} answered with {other:?}"),
                }
            }
            let mut client = Client::connect(addr).unwrap();
            client.repl_subscribe("f-1", 0).unwrap();
            let m = client.metrics_text().unwrap();
            assert_eq!(m.matches("cc_replica_lag_seq{").count(), 1, "{m}");
            assert_eq!(sample(&m, "cc_replica_lag_seq{replica=\"f-1\"}"), Some(0.0), "{m}");

            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// The follower pull loop in process. A follower started halfway
/// through a primary's inserts catches up over the stream: its sequence
/// and its answers equal the primary's, and it applied every record
/// without a reconnect. A follower that subscribes below the floor of a
/// primary reopened from a checkpoint is refused, reconnects, and
/// applies nothing.
#[test]
fn follower_loop_catches_up_and_is_refused_below_the_floor() {
    use cc_service::{run_follower, ReplicationConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    const N: usize = 300;
    const D: usize = 8;
    let cfg = cfg_exact(N);
    let data = clustered(N, D, 31);
    let queries = clustered(8, D, 32);
    let service = ServiceConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    let primary = MutableIndex::ephemeral(DynamicIndex::new(D, N, &cfg));
    let follower = MutableIndex::ephemeral(DynamicIndex::new(D, N, &cfg));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let repl = ReplicationConfig::new(addr.to_string(), "f-1");
    with_watchdog("follower_catch_up", Duration::from_secs(90), || {
        let (primary, follower, service, data) = (&primary, &follower, &service, &data);
        let (queries, wait_for, stop, repl) = (&queries, &wait_for, &stop, &repl);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(primary, listener, service).unwrap());
            let mut client = Client::connect(addr).unwrap();
            let mut puller = None;
            for (i, v) in data.iter().enumerate() {
                if i == N / 2 {
                    puller = Some(s.spawn(move || run_follower(follower, repl, stop)));
                }
                client.insert(v).unwrap();
            }
            assert_eq!(primary.last_seq(), N as u64);
            wait_for("the follower to catch up", &|| follower.last_seq() == primary.last_seq());
            for q in queries.iter() {
                assert_eq!(follower.query(q, 5).0, primary.query(q, 5).0);
            }
            stop.store(true, Ordering::SeqCst);
            let pulled = puller.unwrap().join().unwrap();
            assert_eq!(pulled.records, N as u64, "{pulled:?}");
            assert_eq!(pulled.reconnects, 0, "{pulled:?}");
            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });

    let dir = cc_storage::wal::scratch_dir("svc-repl-floor");
    let reopened = {
        let engine = MutableIndex::open(&dir, D, N, &cfg).unwrap();
        let seed: Vec<MutationOp> = data
            .iter()
            .take(20)
            .map(|v| MutationOp::Insert { vector: v.to_vec(), meta: PointMeta::default() })
            .collect();
        engine.apply_batch(&seed).unwrap();
        engine.checkpoint().unwrap();
        drop(engine);
        MutableIndex::open(&dir, D, N, &cfg).unwrap()
    };
    assert_eq!(reopened.replication_floor(), 20);
    let follower = MutableIndex::ephemeral(DynamicIndex::new(D, N, &cfg));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let repl = ReplicationConfig::new(addr.to_string(), "f-1");
    with_watchdog("follower_below_floor", Duration::from_secs(90), || {
        let (reopened, follower, service, wait_for) = (&reopened, &follower, &service, &wait_for);
        let (stop, repl) = (&stop, &repl);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(reopened, listener, service).unwrap());
            let puller = s.spawn(move || run_follower(follower, repl, stop));
            // Two refusals written: the loop came back after the first.
            wait_for("two refused subscriptions", &|| {
                let m = Client::connect(addr).unwrap().metrics_text().unwrap();
                sample(&m, "cc_errors_total").unwrap_or(0.0) >= 2.0
            });
            stop.store(true, Ordering::SeqCst);
            let pulled = puller.join().unwrap();
            assert!(pulled.reconnects >= 1, "{pulled:?}");
            assert_eq!((pulled.batches, pulled.records), (0, 0), "{pulled:?}");
            assert_eq!(follower.last_seq(), 0);
            assert!(follower.is_empty());
            Client::connect(addr).unwrap().shutdown().unwrap();
            server.join().unwrap();
        });
    });
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// A collection of a dimensionality no vector frame could carry is
/// refused as an invalid argument before anything is allocated for it:
/// at `u32::MAX` the hash family alone would ask for 16 GiB and abort the
/// process. The refused names never list, and the same server still
/// answers a ping and a query.
#[test]
fn collection_dims_no_frame_can_carry_are_refused() {
    const D: usize = 4;
    let data = clustered(64, D, 5);
    let engine = MutableIndex::ephemeral(DynamicIndex::new(D, 64, &cfg_exact(64)));
    let seed: Vec<MutationOp> = data
        .iter()
        .map(|v| MutationOp::Insert { vector: v.to_vec(), meta: PointMeta::default() })
        .collect();
    engine.apply_batch(&seed).unwrap();
    let service = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("collection_dims", Duration::from_secs(60), || {
        let (engine, service, data) = (&engine, &service, &data);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let mut client = Client::connect(addr).unwrap();
            let too_wide = (cc_service::protocol::MAX_FRAME / 4 + 1) as u32;
            for dim in [u32::MAX, too_wide] {
                match client.create_collection(&format!("d{dim}"), dim) {
                    Err(ProtoError::Server(e)) => {
                        assert_eq!(e.kind(), c2lsh::ErrorKind::InvalidArgument, "{e}")
                    }
                    other => panic!("dim {dim} answered with {other:?}"),
                }
            }
            assert!(client.list_collections().unwrap().is_empty());
            client.ping().unwrap();
            assert_eq!(top_k(&mut client, data.get(7), 1)[0].id, 7);

            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// The lag board holds at most `MAX_REPLICAS` names: the next new name
/// is refused as an invalid argument, the exposition keeps exactly that
/// many rows, and a name already on the board still subscribes.
#[test]
fn lag_board_refuses_new_names_past_its_cap() {
    use cc_service::server::MAX_REPLICAS;
    const D: usize = 4;
    let engine = MutableIndex::ephemeral(DynamicIndex::new(D, 64, &cfg_exact(64)));
    let service = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("lag_board_cap", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let mut client = Client::connect(addr).unwrap();
            for i in 0..MAX_REPLICAS {
                client.repl_subscribe(&format!("f-{i}"), 0).unwrap();
            }
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            let req = Request::ReplSubscribe { replica: "one-too-many".into(), from_seq: 0 };
            cc_service::protocol::write_request(&mut raw, &req).unwrap();
            match cc_service::protocol::read_response(&mut raw).unwrap().unwrap() {
                Response::Error(e) => {
                    assert_eq!(e.kind(), c2lsh::ErrorKind::InvalidArgument, "{e}")
                }
                other => panic!("a name past the cap answered with {other:?}"),
            }
            let m = client.metrics_text().unwrap();
            assert_eq!(m.matches("cc_replica_lag_seq{").count(), MAX_REPLICAS, "{m}");
            assert!(!m.contains("one-too-many"), "{m}");
            let mut again = Client::connect(addr).unwrap();
            again.repl_subscribe("f-0", 0).unwrap();
            let m = client.metrics_text().unwrap();
            assert_eq!(m.matches("cc_replica_lag_seq{").count(), MAX_REPLICAS, "{m}");

            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// Protocol violations get an explicit `Error` frame and a closed
/// connection — never a hang, never a crash of the server.
#[test]
fn malformed_frames_are_rejected_and_connection_closed() {
    use std::io::{Read, Write};

    const N: usize = 200;
    let data = clustered(N, 8, 6);
    let cfg = cfg_exact(N);
    let sharded = ShardedData::partition(&data, 2);
    let engine = ShardedEngine::build(&sharded, &cfg);
    let service = ServiceConfig::default();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("malformed_frames", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());

            // Raw socket: a frame with an unknown opcode.
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.write_all(&[1, 0, 0, 0, 0x7F]).unwrap();
            let mut reply = Vec::new();
            raw.read_to_end(&mut reply).unwrap(); // server replies then closes
            let resp = cc_service::protocol::read_response(&mut &reply[..]).unwrap().unwrap();
            assert!(matches!(resp, Response::Error(_)), "{resp:?}");

            // The server survived: a well-formed session still works.
            let mut client = Client::connect(addr).unwrap();
            client.ping().unwrap();
            assert_eq!(sample(&client.metrics_text().unwrap(), "cc_errors_total"), Some(1.0));

            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// A frame that stops halfway is refused once the rest of it is overdue:
/// the sender gets a `Protocol` error frame and a closed connection long
/// before the drain, and the refusal is counted.
#[test]
fn a_half_sent_frame_is_refused_and_closed() {
    use std::io::{Read, Write};
    use std::time::Instant;

    let engine = MutableIndex::ephemeral(DynamicIndex::new(4, 16, &cfg_exact(16)));
    let service = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("half_sent_frame", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());

            // Two bytes of a length word, then nothing.
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.write_all(&[9, 0]).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            let sent = Instant::now();
            let mut reply = Vec::new();
            raw.read_to_end(&mut reply).expect("the server answers and closes");
            assert!(sent.elapsed() < Duration::from_secs(20), "{:?}", sent.elapsed());
            match cc_service::protocol::read_response(&mut &reply[..]).unwrap().unwrap() {
                Response::Error(e) => assert_eq!(e.kind(), c2lsh::ErrorKind::Protocol, "{e}"),
                other => panic!("a half-sent frame answered with {other:?}"),
            }

            let mut client = Client::connect(addr).unwrap();
            assert_eq!(sample(&client.metrics_text().unwrap(), "cc_errors_total"), Some(1.0));
            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// A server holds at most twice its queue's capacity of connections:
/// with a queue of four, the ninth connection is sent one `Overloaded`
/// frame and closed, and once a client hangs up its place is free again.
#[test]
fn connections_past_twice_the_queue_capacity_are_refused() {
    use std::io::Read;

    let engine = MutableIndex::ephemeral(DynamicIndex::new(4, 16, &cfg_exact(16)));
    let service = ServiceConfig { queue_capacity: 4, ..ServiceConfig::default() };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("connection_cap", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let mut clients: Vec<Client> = (0..8)
                .map(|_| {
                    let mut client = Client::connect(addr).unwrap();
                    client.ping().unwrap();
                    client
                })
                .collect();

            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            let mut reply = Vec::new();
            raw.read_to_end(&mut reply).expect("the server answers and closes");
            let mut frame = &reply[..];
            let refusal = cc_service::protocol::read_response(&mut frame).unwrap().unwrap();
            assert!(matches!(refusal, Response::Overloaded), "{refusal:?}");
            assert!(frame.is_empty(), "exactly one frame before the close");

            // A hang-up frees a place; the server sees it a moment later.
            let mut last = clients.pop().unwrap();
            drop(clients);
            let served = (0..100).any(|_| {
                let ok = Client::connect(addr).is_ok_and(|mut client| client.ping().is_ok());
                if !ok {
                    std::thread::sleep(Duration::from_millis(20));
                }
                ok
            });
            assert!(served, "no connection was served after seven hung up");

            last.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// A peer that sends requests but never reads the answers stalls its
/// handler's writes; past `FRAME_DEADLINE` the server gives the
/// connection up instead of holding the thread until the drain.
#[test]
fn a_peer_that_never_reads_is_closed_after_the_frame_deadline() {
    use std::io::{ErrorKind, Read, Write};

    let engine = MutableIndex::ephemeral(DynamicIndex::new(4, 16, &cfg_exact(16)));
    let service = ServiceConfig { queue_capacity: 4, ..ServiceConfig::default() };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("unread_answers", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());

            // Twenty thousand Metrics requests: their answers, kilobytes
            // each, fill both socket buffers long before the last, and
            // the handler's write stalls well inside the wait below.
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = raw.write_all(&[1, 0, 0, 0, 0x08].repeat(20_000));
            std::thread::sleep(cc_service::server::FRAME_DEADLINE + Duration::from_secs(2));

            // What was buffered drains, then the connection is closed;
            // a handler still holding it would answer on and then wait.
            raw.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            let mut sink = vec![0u8; 1 << 16];
            let closed = loop {
                match raw.read(&mut sink) {
                    Ok(0) => break true,
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::ConnectionReset => break true,
                    Err(e) => {
                        assert!(
                            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                            "{e}"
                        );
                        break false;
                    }
                }
            };
            assert!(closed, "the server still holds a connection that stopped reading");

            let mut client = Client::connect(addr).unwrap();
            client.ping().unwrap();
            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// A read-only (sharded) engine must refuse mutation frames at
/// admission with an `Error` response — and keep serving queries. Each
/// refusal has its kind: writes and replication pulls are
/// `Unsupported`, a read bounded by a sequence the engine never applies
/// is `Stale`, and `cc_errors_total` counts every one.
#[test]
fn sharded_engine_rejects_mutations() {
    const N: usize = 200;
    const D: usize = 8;
    let data = clustered(N, D, 9);
    let cfg = cfg_exact(N);
    let sharded = ShardedData::partition(&data, 2);
    let engine = ShardedEngine::build(&sharded, &cfg);
    let service = ServiceConfig::default();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("sharded_rejects_mutations", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());

            let mut client = Client::connect(addr).unwrap();
            let unsupported = |what: &str, got: Result<(), ProtoError>| match got {
                Err(ProtoError::Server(e)) => {
                    assert_eq!(e.kind(), c2lsh::ErrorKind::Unsupported, "{what}: {e}")
                }
                other => panic!("{what} answered with {other:?}"),
            };
            unsupported("insert", client.insert(&[0.5f32; D]).map(drop));
            unsupported("delete", client.delete(3).map(drop));
            unsupported("subscribe", client.repl_subscribe("f-1", 0).map(drop));
            let fresh = QueryRequest::new(data.get(4).to_vec()).k(1).min_seq(1);
            assert!(matches!(client.search(&fresh).unwrap(), SearchOutcome::Stale));

            // Still alive and still read-correct.
            let nn = top_k(&mut client, data.get(4), 1);
            assert_eq!(nn[0].id, 4);
            let m = client.metrics_text().unwrap();
            assert_eq!(sample(&m, "cc_errors_total"), Some(4.0), "{m}");
            assert_eq!(sample(&m, "cc_inserts_total"), Some(0.0), "{m}");

            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// A finite query far past the key space hashes to the saturated bucket
/// ids: its frame is answered, and the batcher goes on to answer the next
/// query.
#[test]
fn saturated_bucket_query_is_answered_and_serving_continues() {
    const N: usize = 200;
    const D: usize = 8;
    let data = clustered(N, D, 9);
    let sharded = ShardedData::partition(&data, 2);
    let engine = ShardedEngine::build(&sharded, &cfg_exact(N));
    let service = ServiceConfig::default();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("saturated_bucket_query", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());

            let mut client = Client::connect(addr).unwrap();
            assert_eq!(top_k(&mut client, &[1.0e30; D], 3).len(), 3);
            assert_eq!(top_k(&mut client, data.get(4), 1)[0].id, 4);

            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// A mutation batch whose fsync fails is answered with one error frame
/// per queued write, and each is counted once in `cc_errors_total`.
#[test]
fn failed_mutation_batch_counts_each_error_once() {
    let dir = cc_storage::wal::scratch_dir("svc-failed-batch");
    let engine = MutableIndex::open(&dir, 4, 16, &cfg_exact(16)).unwrap();
    engine.with_wal(|w| w.inject_sync_failures(1)).expect("a durable index has a WAL");
    // The flush fires the moment both inserts are queued, so they fail
    // as one batch.
    let service = ServiceConfig {
        max_batch: 2,
        max_delay: Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("failed_mutation_batch", Duration::from_secs(60), || {
        let (engine, service) = (&engine, &service);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || Client::connect(addr).unwrap().insert(&[1.0; 4]).unwrap_err())
                })
                .collect();
            for w in writers {
                let err = w.join().unwrap().to_string();
                assert!(err.contains("injected sync failure"), "{err}");
            }

            let mut client = Client::connect(addr).unwrap();
            let m = client.metrics_text().unwrap();
            let read = |series| sample(&m, series).unwrap();
            let got = (read("cc_errors_total"), read("cc_inserts_total"));
            assert_eq!((got, read("cc_mutation_batches_total")), ((2.0, 0.0), 0.0), "{m}");

            client.shutdown().unwrap();
            assert_eq!(server.join().unwrap().errors, 2);
        });
    });
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// The mutable engine over the wire: writers insert distinctive
/// vectors and delete seeded objects while readers hammer queries.
/// Every ack must prove read-your-writes on the next query,
/// the exposition must show the write path, and after a graceful
/// drain the WAL directory must reopen to exactly the acknowledged
/// state (durability without even needing a crash).
#[test]
fn mutable_server_applies_durable_mutations_under_racing_readers() {
    const SEED_N: usize = 300;
    const D: usize = 8;
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const READS: usize = 20;

    let dir = cc_storage::wal::scratch_dir("svc-mutable");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = cfg_exact(SEED_N);
    let data = clustered(SEED_N, D, 7);

    let engine = Arc::new(MutableIndex::open(&dir, D, SEED_N, &cfg).unwrap());
    // Seeded rows carry label i % 3; a writer's insert carries label 0.
    let seed_ops: Vec<MutationOp> = data
        .iter()
        .enumerate()
        .map(|(i, v)| MutationOp::Insert {
            vector: v.to_vec(),
            meta: PointMeta::new(0, (i % 3) as u32),
        })
        .collect();
    engine.apply_batch(&seed_ops).unwrap();
    assert_eq!(engine.last_seq(), SEED_N as u64);
    let labelled_0 = |id: u32| id as usize >= SEED_N || id.is_multiple_of(3);

    let service = ServiceConfig {
        max_batch: 16,
        max_delay: Duration::from_millis(5),
        queue_capacity: 256,
        k_max: 64,
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let acked = std::sync::Mutex::new(Vec::<(u32, Vec<f32>)>::new());
    with_watchdog("mutable_server", Duration::from_secs(120), || {
        let obs = obs_watching(&engine, ObsConfig::default());
        let (engine, service, data, acked) = (&*engine, &service, &data, &acked);
        let (ack_tx, ack_rx) = mpsc::channel::<(u32, Vec<f32>)>();
        std::thread::scope(move |s| {
            let server = s
                .spawn(move || cc_service::serve_with_obs(engine, listener, service, obs).unwrap());
            let mut control = Client::connect(addr).unwrap();
            control.ping().unwrap();

            let writers: Vec<_> = (0..WRITERS)
                .map(|t| {
                    let ack_tx = ack_tx.clone();
                    s.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        // A vector far outside the seeded clusters,
                        // unique per writer.
                        let novel: Vec<f32> = (0..D).map(|j| 2000.0 + (t * D + j) as f32).collect();
                        let (oid, seq) = client.insert(&novel).unwrap();
                        assert!(seq > SEED_N as u64, "acked seq must follow the seed history");
                        // Read-your-writes: the ack precedes this query,
                        // and the batcher applies mutations before the
                        // queries of any later flush.
                        let nn = top_k(&mut client, &novel, 1);
                        assert_eq!(nn[0].id, oid, "writer {t} cannot see its own insert");
                        assert_eq!(nn[0].dist, 0.0);
                        ack_tx.send((oid, novel)).unwrap();

                        // Delete a distinct seeded object and prove it gone:
                        // no exact duplicate exists, so top-1 distance to the
                        // deleted vector must become nonzero.
                        let victim = (t * 2) as u32;
                        let (found, _) = client.delete(victim).unwrap();
                        assert!(found, "seeded oid {victim} must exist");
                        let nn = top_k(&mut client, data.get(victim as usize), 1);
                        assert!(
                            nn[0].id != victim && nn[0].dist > 0.0,
                            "deleted object {victim} still served: {nn:?}"
                        );
                    })
                })
                .collect();
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        for i in 0..READS {
                            let qi = (r * READS + i) % SEED_N;
                            // Concurrent with deletes, so only sanity is
                            // checkable: a well-formed, ordered answer.
                            // Reader 1 filters on label 0, so each of its
                            // answers also keeps to that label.
                            let nn = match r {
                                1 => {
                                    let req = QueryRequest::new(data.get(qi).to_vec())
                                        .k(3)
                                        .filter(Predicate::label(0));
                                    client.search_result(&req).unwrap().neighbors
                                }
                                _ => top_k(&mut client, data.get(qi), 3),
                            };
                            assert!(!nn.is_empty());
                            assert!(nn.windows(2).all(|w| w[0].dist <= w[1].dist));
                            assert!(
                                r != 1 || nn.iter().all(|n| labelled_0(n.id)),
                                "label-0 read answered {nn:?}"
                            );
                        }
                    })
                })
                .collect();
            for h in writers.into_iter().chain(readers) {
                h.join().unwrap();
            }

            let m = control.metrics_text().unwrap();
            let read = |series| sample(&m, series).unwrap() as usize;
            assert_eq!(read("cc_inserts_total"), WRITERS, "{m}");
            assert_eq!(read("cc_deletes_total"), WRITERS, "{m}");
            assert_eq!(read("cc_wal_records_total"), SEED_N + 2 * WRITERS, "{m}");
            assert_eq!(read("cc_applied_seq"), SEED_N + 2 * WRITERS, "{m}");
            assert_eq!(read("cc_delete_misses_total"), 0, "{m}");
            let batches = read("cc_mutation_batches_total");
            assert!((1..=2 * WRITERS).contains(&batches), "{m}");

            control.shutdown().unwrap();
            let stats = server.join().unwrap();
            assert_eq!(stats.inserts, WRITERS as u64);
            assert_eq!(stats.deletes, WRITERS as u64);
            drop(ack_tx);
            acked.lock().unwrap().extend(ack_rx);
        });
    });

    // Durability, the gentle way: a fresh process-equivalent reopen of
    // the directory must reconstruct exactly the acknowledged state.
    drop(engine);
    let reopened = MutableIndex::open(&dir, D, SEED_N, &cfg).unwrap();
    assert_eq!(reopened.last_seq(), (SEED_N + 2 * WRITERS) as u64);
    assert_eq!(reopened.len(), SEED_N, "each writer added one and removed one");
    let acked = acked.into_inner().unwrap();
    for (oid, novel) in &acked {
        let (nn, _) = reopened.query(novel, 1);
        assert_eq!(nn[0].id, *oid, "acked insert lost across reopen");
        assert_eq!(nn[0].dist, 0.0);
    }
    for t in 0..WRITERS {
        let victim = (t * 2) as u32;
        let (nn, _) = reopened.query(data.get(victim as usize), 1);
        assert!(nn[0].id != victim, "acked delete resurrected across reopen");
    }
    // The labels survived replay: a filtered read of a label-1 row still
    // answers only label-0 objects.
    let opts = SearchOptions { filter: Some(Predicate::label(0)), ..SearchOptions::default() };
    let (nn, _) = reopened.query_with(data.get(1), 5, &opts);
    assert!(!nn.is_empty() && nn.iter().all(|n| labelled_0(n.id)), "after reopen: {nn:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint policy over the wire: with a tiny
/// `checkpoint_wal_bytes` the batcher must fold acknowledged mutations
/// into checkpoints as it goes (the WAL never grows without bound), the
/// drain must leave an empty, header-only log, and a reopen of the
/// directory must serve every acknowledged write from the checkpoint
/// alone.
#[test]
fn checkpoint_policy_bounds_the_wal_and_preserves_acks() {
    const SEED_N: usize = 100;
    const D: usize = 6;
    const INSERTS: usize = 40;

    let dir = cc_storage::wal::scratch_dir("svc-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = cfg_exact(SEED_N);
    let data = clustered(SEED_N, D, 21);

    let engine = MutableIndex::open(&dir, D, SEED_N, &cfg).unwrap();
    let seed_ops: Vec<MutationOp> = data
        .iter()
        .map(|v| MutationOp::Insert { vector: v.to_vec(), meta: Default::default() })
        .collect();
    engine.apply_batch(&seed_ops).unwrap();
    let seeded_wal = engine.wal_size_bytes().unwrap();

    let service = ServiceConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        k_max: 16,
        // Any mutation flush finds the log over this threshold, so
        // every flush checkpoints — the most aggressive policy.
        checkpoint_wal_bytes: 0,
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let acked = std::sync::Mutex::new(Vec::<(u32, Vec<f32>)>::new());
    with_watchdog("checkpoint_policy", Duration::from_secs(60), || {
        let (engine, service, acked) = (&engine, &service, &acked);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let mut client = Client::connect(addr).unwrap();
            for i in 0..INSERTS {
                let novel: Vec<f32> = (0..D).map(|j| 5000.0 + (i * D + j) as f32).collect();
                let (oid, _) = client.insert(&novel).unwrap();
                acked.lock().unwrap().push((oid, novel));
            }
            // The log was truncated along the way: it cannot still hold
            // the seed plus every insert.
            assert!(
                engine.wal_size_bytes().unwrap() < seeded_wal,
                "WAL grew past the seeded size despite the checkpoint policy"
            );
            let m = client.metrics_text().unwrap();
            let checkpoints = sample(&m, "cc_checkpoints_total").unwrap() as u64;
            assert!(checkpoints >= 1, "no checkpoint recorded");
            client.shutdown().unwrap();
            let stats = server.join().unwrap();
            assert!(stats.checkpoints >= checkpoints, "drain adds the final checkpoint");
        });
    });

    // After the drain the log holds nothing but its header …
    let wal_len = std::fs::metadata(dir.join(c2lsh::mutable::WAL_FILE)).unwrap().len();
    assert_eq!(wal_len, cc_storage::wal::WAL_HEADER_BYTES, "drain leaves an empty WAL");
    // … and the checkpoint alone reproduces every ack.
    drop(engine);
    let reopened = MutableIndex::open(&dir, D, SEED_N, &cfg).unwrap();
    assert_eq!(reopened.last_seq(), (SEED_N + INSERTS) as u64);
    assert_eq!(reopened.len(), SEED_N + INSERTS);
    for (oid, novel) in acked.into_inner().unwrap().iter() {
        let (nn, _) = reopened.query(novel, 1);
        assert_eq!((nn[0].id, nn[0].dist), (*oid, 0.0), "acked insert lost");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Collections and filtered search over one wire session: named
/// collections are created, listed and dropped by opcode; inserts into
/// a collection carry per-point metadata; filtered queries honor the
/// predicate against both a named collection and the default engine;
/// and the cost block reports predicate rejections (`filtered`)
/// separately from verification work.
#[test]
fn collections_and_filtered_search_over_the_wire() {
    const N: usize = 600;
    const D: usize = 8;
    let data = clustered(N, D, 17);
    let cfg = cfg_exact(N);

    // Default engine seeded with labels `i % 3` — coprime to the
    // generator's 8 clusters, so every cluster mixes all labels and a
    // selective predicate must reject close points.
    let engine = MutableIndex::ephemeral(DynamicIndex::new(D, N, &cfg));
    let seed: Vec<MutationOp> = data
        .iter()
        .enumerate()
        .map(|(i, v)| MutationOp::Insert {
            vector: v.to_vec(),
            meta: PointMeta::new(1 << (i % 5), (i % 3) as u32),
        })
        .collect();
    engine.apply_batch(&seed).unwrap();

    let col_data = clustered(90, D, 31);
    let service = ServiceConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(2),
        k_max: 64,
        obs: cc_obs::ObsConfig::all_on(),
        collections: CollectionsConfig { config: cfg_exact(128), ..CollectionsConfig::default() },
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("collections_wire", Duration::from_secs(120), || {
        let (engine, service, data, col_data) = (&engine, &service, &data, &col_data);
        std::thread::scope(move |s| {
            let server = s.spawn(move || cc_service::serve(engine, listener, service).unwrap());
            let mut client = Client::connect(addr).unwrap();

            // Lifecycle: create is idempotent-with-signal, bad names
            // are refused outright.
            assert!(!client.create_collection("alpha", D as u32).unwrap(), "fresh create");
            assert!(client.create_collection("alpha", D as u32).unwrap(), "second create exists");
            assert!(!client.create_collection("beta", 4).unwrap());
            assert!(client.create_collection("no spaces!", D as u32).is_err());
            assert!(client.create_collection("", D as u32).is_err());

            // Per-collection inserts carry metadata; oid == insertion
            // order, so `oid % 3` recovers the label below.
            for (i, v) in col_data.iter().enumerate() {
                let (oid, seq) = client
                    .insert_with_meta(Some("alpha"), v, 1 << (i % 4), (i % 3) as u32)
                    .unwrap();
                assert_eq!(oid as usize, i);
                assert_eq!(seq as usize, i + 1);
            }
            // Dimension mismatches are refused per collection.
            assert!(client.insert_with_meta(Some("beta"), col_data.get(0), 0, 0).is_err());

            let listed = client.list_collections().unwrap();
            assert_eq!(listed.len(), 2, "{listed:?}");
            let alpha = listed.iter().find(|c| c.name == "alpha").unwrap();
            assert_eq!((alpha.dim, alpha.objects), (D as u32, 90));
            let beta = listed.iter().find(|c| c.name == "beta").unwrap();
            assert_eq!((beta.dim, beta.objects), (4, 0));

            // Filtered query against the collection: row 3 has label 0,
            // so asking for label 1 must skip it (distance-0 rejection
            // shows up in `filtered`) and serve only label-1 points.
            let res = client
                .search_result(
                    &QueryRequest::new(col_data.get(3).to_vec())
                        .k(5)
                        .collection("alpha")
                        .filter(Predicate::label(1))
                        .with_stats(),
                )
                .unwrap();
            assert!(!res.neighbors.is_empty());
            for n in &res.neighbors {
                assert_eq!(n.id % 3, 1, "label predicate violated by oid {}", n.id);
                assert!(n.dist > 0.0, "row 3 itself must be filtered out");
            }
            let cost = res.cost.expect("with_stats populates the cost block");
            assert!(cost.filtered >= 1, "the exact match was label-0: {cost:?}");

            // A collection query runs the same flush as a default-engine
            // one: asked for a trace it gets an id and its spans, and
            // the latency histograms see it.
            let query_seconds_count = |client: &mut Client| -> f64 {
                let text = client.metrics_text().unwrap();
                let line = text.lines().find(|l| l.starts_with("cc_query_seconds_count ")).unwrap();
                line.split_whitespace().nth(1).unwrap().parse().unwrap()
            };
            let before = query_seconds_count(&mut client);
            let res = client
                .search_result(
                    &QueryRequest::new(col_data.get(3).to_vec())
                        .k(2)
                        .collection("alpha")
                        .with_trace(),
                )
                .unwrap();
            assert_eq!((res.neighbors[0].id, res.neighbors[0].dist), (3, 0.0));
            assert!(res.trace_id > 0, "traced collection query got no id");
            let cost = res.cost.expect("a trace implies a cost block");
            assert!(!cost.spans.is_empty(), "traced collection query lost its spans: {cost:?}");
            assert_eq!(query_seconds_count(&mut client), before + 1.0);

            // Same predicate against the default engine.
            let res = client
                .search_result(
                    &QueryRequest::new(data.get(5).to_vec())
                        .k(5)
                        .filter(Predicate::label(1))
                        .with_stats(),
                )
                .unwrap();
            assert!(!res.neighbors.is_empty());
            for n in &res.neighbors {
                assert_eq!(n.id % 3, 1, "label predicate violated by oid {}", n.id);
            }
            let cost = res.cost.expect("cost block");
            assert!(cost.filtered >= 1, "row 5 (label 2) must be rejected: {cost:?}");

            // An unfiltered query on the default engine is untouched by
            // all of the above.
            let nn = top_k(&mut client, data.get(5), 1);
            assert_eq!((nn[0].id, nn[0].dist), (5, 0.0));

            // Unknown collections are an error, not a hang.
            assert!(client
                .search_result(&QueryRequest::new(data.get(0).to_vec()).k(1).collection("nope"))
                .is_err());

            // Drop: first call deletes, second reports absence; queries
            // against the dropped name fail cleanly.
            assert!(client.drop_collection("beta").unwrap());
            assert!(!client.drop_collection("beta").unwrap());
            assert_eq!(client.list_collections().unwrap().len(), 1);
            assert!(client.insert_with_meta(Some("beta"), col_data.get(0), 0, 0).is_err());

            // One live collection is exported, and the collection
            // queries fold into the server-wide filter counter.
            let m = client.metrics_text().unwrap();
            assert_eq!(m.matches("cc_collection_objects{").count(), 1, "alpha survives: {m}");
            let filtered = sample(&m, "cc_filtered_candidates_total").unwrap();
            assert!(filtered >= 2.0, "both filtered queries counted: {m}");

            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
}

/// The full crash story against the real binary: seed a WAL-backed
/// server, acknowledge mutations over TCP, SIGKILL the process with no
/// warning, restart it on the same directory, and demand every
/// acknowledged mutation back. This is the live-server variant of the
/// kill-at-any-offset proptest — the offset here is wherever the OS
/// happened to be when the KILL landed.
#[test]
fn killed_server_recovers_every_acknowledged_mutation() {
    const N: usize = 400;
    const D: usize = 8;
    const SEED: u64 = 42;

    // Must match the binary's --mode dynamic seeding parameters.
    let data = generate(
        Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
        N,
        D,
        SEED,
    );

    with_watchdog("kill_and_restart", Duration::from_secs(120), || {
        let cluster = ClusterHarness::new("svc-kill");
        let wal = cluster.wal_dir("primary");
        let spec = NodeSpec::new("primary").args(&[
            "--mode",
            "dynamic",
            "--wal",
            wal.to_str().unwrap(),
            "--n",
            &N.to_string(),
            "--dim",
            &D.to_string(),
            "--seed",
            &SEED.to_string(),
            "--max-delay-us",
            "500",
        ]);
        let mut node = cluster.spawn(spec);
        let mut client = node.client();
        client.ping().unwrap();

        // Two acknowledged inserts and one acknowledged delete.
        let novel_a: Vec<f32> = (0..D).map(|j| 3000.0 + j as f32).collect();
        let novel_b: Vec<f32> = (0..D).map(|j| -3000.0 - j as f32).collect();
        let (oid_a, seq_a) = client.insert(&novel_a).unwrap();
        let (oid_b, seq_b) = client.insert(&novel_b).unwrap();
        assert_eq!(oid_a as usize, N, "first insert follows the seeded rows");
        assert_eq!(oid_b, oid_a + 1);
        assert!(seq_b > seq_a);
        let (found, seq_del) = client.delete(0).unwrap();
        assert!(found, "seeded oid 0 must exist");
        assert_eq!(seq_del, (N + 3) as u64, "dense sequence: seed + 2 inserts + 1 delete");

        // SIGKILL: no drain, no flush beyond what the acks certified.
        node.kill();

        let mut node = cluster.restart(node);
        let mut client = node.client();

        // Every ack must have survived.
        let nn = top_k(&mut client, &novel_a, 1);
        assert_eq!((nn[0].id, nn[0].dist), (oid_a, 0.0), "insert A lost in the crash");
        let nn = top_k(&mut client, &novel_b, 1);
        assert_eq!((nn[0].id, nn[0].dist), (oid_b, 0.0), "insert B lost in the crash");
        let nn = top_k(&mut client, data.get(0), 1);
        assert!(nn[0].id != 0 && nn[0].dist > 0.0, "delete of oid 0 resurrected: {nn:?}");

        // The recovered engine reports the pre-crash high-water mark,
        // and a post-restart mutation continues the sequence densely.
        let applied = sample(&client.metrics_text().unwrap(), "cc_applied_seq");
        assert_eq!(applied, Some((N + 3) as f64), "dynamic mode exports its WAL position");
        let (_, seq) = client.insert(&[9000.0; D]).unwrap();
        assert_eq!(seq, (N + 4) as u64, "sequence must resume after recovery");

        node.shutdown();
    });
}

/// Every deterministic counter the service reports, pinned to the last
/// digit over one scripted single-client session. One client means one
/// work item per flush, so no value depends on timing. The script: a
/// query that stops by T1 in round 1, one that stops by T1 after
/// several rounds, one that runs out of its T2 budget (β = 50 on 400
/// points), two filtered queries, five inserts (the fifth trips a
/// size-triggered checkpoint), three deletes (one of an unknown id), a
/// wrong-dim query, and a collection with one insert and one query.
#[test]
fn golden_counters_of_a_scripted_session() {
    const N: usize = 400;
    const D: usize = 8;
    const EXPECTED: [(&str, u64); 23] = [
        ("queries", 6),
        ("batches", 6),
        ("max_batch", 1),
        ("errors", 1),
        ("inserts", 6),
        ("deletes", 3),
        ("mutation_batches", 9),
        ("checkpoints", 1),
        ("collections", 1),
        ("engine.rounds", 12),
        ("engine.collisions", 37_151),
        ("engine.verified", 183),
        ("engine.abandoned", 123),
        ("engine.filtered", 66),
        ("engine.t1", 5),
        ("engine.t2", 1),
        ("engine.exhausted", 0),
        ("engine.io_reads", 0),
        ("mutations.wal_records", 407),
        ("mutations.wal_syncs", 8),
        ("mutations.wal_bytes", 27_927),
        ("mutations.delete_misses", 1),
        ("mutations.last_seq", 407),
    ];

    let data = clustered(N, D, 23);
    let cfg = C2lshConfig::builder().bucket_width(1.0).seed(13).beta(Beta::Count(50)).build();
    let dir = cc_storage::wal::scratch_dir("svc-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let engine = Arc::new(MutableIndex::open(&dir, D, N, &cfg).unwrap());
    let seed: Vec<MutationOp> = data
        .iter()
        .enumerate()
        .map(|(i, v)| MutationOp::Insert {
            vector: v.to_vec(),
            meta: PointMeta::new(1 << (i % 5), (i % 3) as u32),
        })
        .collect();
    engine.apply_batch(&seed).unwrap();
    engine.checkpoint().unwrap();
    let service = ServiceConfig {
        max_delay: Duration::from_millis(1),
        k_max: 64,
        // The 8-byte header plus four 57-byte insert records (D = 8):
        // the fifth insert trips the checkpoint, and the deletes after
        // it stay under.
        checkpoint_wal_bytes: 8 + 4 * 57,
        ..ServiceConfig::default()
    };
    let obs = obs_watching(&engine, ObsConfig::all_on());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    with_watchdog("golden_counters", Duration::from_secs(60), || {
        let (engine, service, data) = (&*engine, &service, &data);
        std::thread::scope(move |s| {
            let server = s
                .spawn(move || cc_service::serve_with_obs(engine, listener, service, obs).unwrap());
            let mut client = Client::connect(addr).unwrap();
            let rounds = |client: &mut Client, req: QueryRequest| {
                client.search_result(&req.with_stats()).unwrap().cost.unwrap().rounds
            };
            let far: Vec<f32> = data.get(7).iter().map(|x| x + 4.0).collect();
            assert_eq!(rounds(&mut client, QueryRequest::new(data.get(0).to_vec())), 1);
            assert_eq!(rounds(&mut client, QueryRequest::new(far.clone()).k(30)), 4);
            assert_eq!(rounds(&mut client, QueryRequest::new(far)), 4);
            for row in [2, 5] {
                let req =
                    QueryRequest::new(data.get(row).to_vec()).k(5).filter(Predicate::label(1));
                let nn = client.search_result(&req).unwrap().neighbors;
                assert!(nn.iter().all(|n| n.id % 3 == 1), "{nn:?}");
            }
            for i in 0..5 {
                let novel: Vec<f32> = (0..D).map(|j| 4000.0 + (i * D + j) as f32).collect();
                client.insert(&novel).unwrap();
            }
            for (oid, known) in [(0, true), (1, true), (99_999, false)] {
                assert_eq!(client.delete(oid).unwrap().0, known);
            }
            assert!(client.search(&QueryRequest::new(vec![0.0; D + 1])).is_err());
            client.create_collection("golden", D as u32).unwrap();
            client.insert_with_meta(Some("golden"), data.get(3), 0, 0).unwrap();
            let req = QueryRequest::new(data.get(3).to_vec()).collection("golden");
            assert_eq!(client.search_result(&req).unwrap().neighbors[0].id, 0);

            let text = client.metrics_text().unwrap();
            let read = |series: &str| {
                sample(&text, series).unwrap_or_else(|| panic!("no {series} in:\n{text}")) as u64
            };
            let got = [
                ("queries", read("cc_queries_total")),
                ("batches", read("cc_batches_total")),
                ("max_batch", read("cc_max_batch")),
                ("errors", read("cc_errors_total")),
                ("inserts", read("cc_inserts_total")),
                ("deletes", read("cc_deletes_total")),
                ("mutation_batches", read("cc_mutation_batches_total")),
                ("checkpoints", read("cc_checkpoints_total")),
                ("collections", text.matches("cc_collection_objects{").count() as u64),
                ("engine.rounds", read("cc_rounds_total")),
                ("engine.collisions", read("cc_collisions_total")),
                ("engine.verified", read("cc_verified_total")),
                ("engine.abandoned", read("cc_abandoned_total")),
                ("engine.filtered", read("cc_filtered_candidates_total")),
                ("engine.t1", read("cc_terminations_total{by=\"t1\"}")),
                ("engine.t2", read("cc_terminations_total{by=\"t2\"}")),
                ("engine.exhausted", read("cc_terminations_total{by=\"exhausted\"}")),
                ("engine.io_reads", read("cc_io_reads_total")),
                ("mutations.wal_records", read("cc_wal_records_total")),
                ("mutations.wal_syncs", read("cc_wal_syncs_total")),
                ("mutations.wal_bytes", read("cc_wal_bytes_total")),
                ("mutations.delete_misses", read("cc_delete_misses_total")),
                ("mutations.last_seq", read("cc_applied_seq")),
            ];
            assert_eq!(got, EXPECTED);

            client.shutdown().unwrap();
            server.join().unwrap();
        });
    });
    std::fs::remove_dir_all(&dir).ok();
}
