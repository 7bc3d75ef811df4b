//! Multi-process chaos tests for the replicated serving tier: a real
//! primary, real follower processes pulling the WAL stream, and a real
//! scatter-gather router — all spawned as child binaries through the
//! shared [`harness`]. The cluster is put under mixed read/write load,
//! a follower is SIGKILLed mid-load (queries must keep succeeding via
//! failover), restarted (it must catch up over replication), and
//! cold-reopened (its local WAL must already hold every acknowledged
//! write). A second test pins the read-your-writes guarantee with a
//! failpoint that stalls the follower's apply loop.

#[path = "harness/mod.rs"]
mod harness;

use cc_service::{QueryRequest, SearchOutcome};
use cc_vector::gen::{generate, Distribution};
use harness::{with_watchdog, ClusterHarness, NodeSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A vector nowhere near the seeded gaussian mixture, unique per `j`.
fn novel_vector(dim: usize, j: usize) -> Vec<f32> {
    (0..dim).map(|c| 3000.0 + (j * dim + c) as f32).collect()
}

/// Pull one counter's value out of a Prometheus text exposition.
fn metric_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(series) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("series {series} missing from exposition:\n{text}"))
}

/// The full chaos scenario on a 3-node cluster plus router:
///
/// 1. primary seeds N vectors; two followers replicate the seed;
/// 2. reader threads hammer the router with exact self-queries while a
///    writer streams inserts through it;
/// 3. one follower is SIGKILLed mid-load — every query must still
///    succeed (router failover), with zero reader errors overall;
/// 4. the follower restarts on the same port and catches up over the
///    replication stream to the final sequence;
/// 5. read-your-writes: the last insert is queried through the router
///    with `min_seq` set to its acked sequence;
/// 6. the *other* follower is SIGKILLed and cold-reopened: its own WAL
///    replay alone must surface every acknowledged write (zero loss),
///    verified with `min_seq`-pinned direct queries;
/// 7. the primary's replica lag gauge names both followers, and the
///    router counted fanout and at least one failed leg.
#[test]
fn chaos_follower_sigkill_failover_catchup_and_zero_loss() {
    const N: usize = 300;
    const D: usize = 8;
    const WRITES: usize = 120;
    const FINAL_SEQ: u64 = (N + WRITES) as u64;

    with_watchdog("chaos_follower_sigkill", Duration::from_secs(180), || {
        let cluster = ClusterHarness::new("chaos");
        let data = generate(
            Distribution::GaussianMixture { clusters: 10, spread: 0.02, scale: 10.0 },
            N,
            D,
            42,
        );

        let common = [
            "--mode",
            "dynamic",
            "--n",
            "300",
            "--dim",
            "8",
            "--seed",
            "42",
            "--max-delay-us",
            "500",
        ];
        let primary = cluster.spawn(
            NodeSpec::new("primary")
                .args(&common)
                .args(&["--wal", cluster.wal_dir("primary").to_str().unwrap()]),
        );
        let follower = |name: &str| {
            NodeSpec::new(name)
                .args(&common)
                .args(&["--wal", cluster.wal_dir(name).to_str().unwrap()])
                .args(&["--replicate-from", &primary.addr.to_string(), "--node-name", name])
        };
        let mut f1 = cluster.spawn(follower("f1"));
        let mut f2 = cluster.spawn(follower("f2"));
        let router = cluster.spawn(NodeSpec::new("router").args(&[
            "--mode",
            "router",
            "--primary",
            &primary.addr.to_string(),
            "--replicas",
            &format!("{},{}", f1.addr, f2.addr),
            "--node-deadline-ms",
            "500",
        ]));

        // Both followers replicate the seed before load starts.
        harness::wait_for_seq(f1.addr, N as u64, Duration::from_secs(30));
        harness::wait_for_seq(f2.addr, N as u64, Duration::from_secs(30));

        // Readers: exact self-queries through the router, continuously,
        // across the kill and the restart. Zero errors tolerated.
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let failures = Arc::new(Mutex::new(Vec::<String>::new()));
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let stop = Arc::clone(&stop);
                let served = Arc::clone(&served);
                let failures = Arc::clone(&failures);
                let data = data.clone();
                let addr = router.addr;
                std::thread::spawn(move || {
                    let mut client = cc_service::Client::connect(addr).expect("reader connect");
                    let mut i = r * 37;
                    while !stop.load(Ordering::Relaxed) {
                        i = (i + 1) % N;
                        let req = QueryRequest::new(data.get(i).to_vec()).k(1);
                        match client.search_result(&req) {
                            Ok(result) => {
                                assert_eq!(result.neighbors[0].id, i as u32);
                                assert_eq!(result.neighbors[0].dist, 0.0);
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                failures.lock().unwrap().push(format!("query for {i}: {e}"));
                            }
                        }
                    }
                })
            })
            .collect();

        // Writer: stream inserts through the router; SIGKILL f1 a third
        // of the way in, bring it back two thirds in.
        let mut writer = router.client();
        let mut acked = Vec::with_capacity(WRITES);
        for j in 0..WRITES {
            if j == WRITES / 3 {
                f1.kill();
                // With f1 dead, the very next queries must still be
                // answered — the router fails the leg over to f2.
                let mut probe = router.client();
                for i in 0..4 {
                    let got = probe
                        .search_result(&QueryRequest::new(data.get(i).to_vec()).k(1))
                        .expect("query during follower outage");
                    assert_eq!(got.neighbors[0].id, i as u32);
                }
            }
            if j == 2 * WRITES / 3 {
                f1 = cluster.restart(f1);
            }
            let v = novel_vector(D, j);
            let (oid, seq) = writer.insert(&v).expect("insert through router");
            assert_eq!(oid, (N + j) as u32, "oids stay dense through the outage");
            assert_eq!(seq, (N + j + 1) as u64, "seqs stay dense through the outage");
            acked.push((oid, seq, v));
        }

        // The restarted follower replays its local WAL, re-subscribes
        // from where it left off, and catches up; f2 never fell behind
        // for long.
        harness::wait_for_seq(f1.addr, FINAL_SEQ, Duration::from_secs(60));
        harness::wait_for_seq(f2.addr, FINAL_SEQ, Duration::from_secs(30));

        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader thread");
        }
        let failures = failures.lock().unwrap();
        assert!(failures.is_empty(), "reader errors during chaos: {failures:?}");
        assert!(served.load(Ordering::Relaxed) > 0, "readers never got a query through");

        // Read-your-writes through the router: the freshest insert,
        // pinned to its acked sequence, must come back exactly.
        let (oid, seq, v) = acked.last().unwrap();
        let got = writer
            .search_result(&QueryRequest::new(v.clone()).k(1).min_seq(*seq))
            .expect("min_seq query through router");
        assert_eq!(got.neighbors[0].id, *oid);
        assert_eq!(got.neighbors[0].dist, 0.0);

        // The router counted its fanout and the legs that failed while
        // f1 was down; the primary's lag gauge names both replicas.
        let metrics = router.client().metrics_text().expect("router metrics");
        // Every query sent through it was answered: the readers', the
        // four probes during the outage and the pinned read.
        assert_eq!(
            metric_value(&metrics, "cc_queries_total"),
            (served.load(Ordering::Relaxed) + 4 + 1) as f64,
            "the router's query counter:\n{metrics}"
        );
        assert!(metric_value(&metrics, "cc_router_fanout_total") > 0.0);
        assert!(
            metric_value(&metrics, "cc_router_node_errors_total") > 0.0,
            "no leg failures recorded despite a SIGKILLed follower"
        );
        let primary_metrics = primary.client().metrics_text().expect("primary metrics");
        for name in ["f1", "f2"] {
            assert!(
                primary_metrics.contains(&format!("cc_replica_lag_seq{{replica=\"{name}\"}}")),
                "primary lag gauge missing {name}:\n{primary_metrics}"
            );
        }

        // Cold reopen, zero acked-write loss: SIGKILL f2 and bring it
        // back — its *own* WAL replay must already hold every write the
        // router ever acknowledged, before any further replication.
        f2.kill();
        let f2 = cluster.restart(f2);
        harness::wait_for_seq(f2.addr, FINAL_SEQ, Duration::from_secs(30));
        let mut direct = f2.client();
        for (oid, seq, v) in acked.iter().step_by(10) {
            let got = direct
                .search_result(&QueryRequest::new(v.clone()).k(1).min_seq(*seq))
                .expect("acked write on cold-reopened follower");
            assert_eq!(got.neighbors[0].id, *oid, "acked write lost across SIGKILL");
            assert_eq!(got.neighbors[0].dist, 0.0);
        }

        // Tear down: router first (it holds no state), then the
        // followers, then the primary.
        for mut node in [router, f1, f2, primary] {
            node.shutdown();
        }
    });
}

/// Read-your-writes against a *deliberately* lagged follower: with the
/// `CC_REPL_STALL_APPLY_MS` failpoint stalling every batch apply, a
/// direct `min_seq` query on the follower must refuse with `Stale`
/// (never serve older data as if it were fresh), the same query through
/// the router must succeed by failing over, direct writes to the
/// follower must be refused, and once the stall drains the follower
/// serves the pinned read itself.
#[test]
fn read_your_writes_never_served_from_lagged_follower() {
    const N: usize = 64;
    const D: usize = 8;

    with_watchdog("read_your_writes_lag", Duration::from_secs(120), || {
        let cluster = ClusterHarness::new("ryw");
        let common = [
            "--mode",
            "dynamic",
            "--n",
            "64",
            "--dim",
            "8",
            "--seed",
            "42",
            "--max-delay-us",
            "500",
        ];
        let primary = cluster.spawn(
            NodeSpec::new("primary")
                .args(&common)
                .args(&["--wal", cluster.wal_dir("primary").to_str().unwrap()]),
        );
        // The failpoint sleeps before *every* non-empty batch apply, so
        // the follower sits at seq 0 for several seconds after
        // subscribing — long enough to observe staleness reliably.
        let lagger = cluster.spawn(
            NodeSpec::new("lagger")
                .args(&common)
                .args(&["--wal", cluster.wal_dir("lagger").to_str().unwrap()])
                .args(&["--replicate-from", &primary.addr.to_string(), "--node-name", "lagger"])
                .env("CC_REPL_STALL_APPLY_MS", "4000"),
        );
        let router = cluster.spawn(NodeSpec::new("router").args(&[
            "--mode",
            "router",
            "--primary",
            &primary.addr.to_string(),
            "--replicas",
            &lagger.addr.to_string(),
            "--node-deadline-ms",
            "500",
        ]));

        // Insert through the router; the ack carries the WAL sequence
        // that defines "my writes" for the read-your-writes check.
        let v = novel_vector(D, 0);
        let (oid, seq) = router.client().insert(&v).expect("insert through router");
        assert_eq!(seq, (N + 1) as u64);

        // Directly on the stalled follower: the pinned read must refuse
        // as Stale — it has applied nothing yet.
        let mut direct = lagger.client();
        let pinned = QueryRequest::new(v.clone()).k(1).min_seq(seq);
        match direct.search(&pinned).expect("stale probe") {
            SearchOutcome::Stale => {}
            other => panic!("lagged follower served a pinned read: {other:?}"),
        }
        // ...while an unpinned read is fine serving the older snapshot
        // (which is empty here — no result rows, but no refusal).
        direct
            .search(&QueryRequest::new(v.clone()).k(1))
            .expect("unpinned reads always admissible");

        // Direct writes to a follower are refused: the replication
        // stream is the only writer.
        assert!(direct.insert(&novel_vector(D, 1)).is_err(), "follower accepted a direct write");

        // The same pinned read through the router succeeds: the stale
        // leg fails over to the primary, which is at `seq` by
        // definition.
        let got = router
            .client()
            .search_result(&pinned)
            .expect("router serves the pinned read via failover");
        assert_eq!(got.neighbors[0].id, oid);
        assert_eq!(got.neighbors[0].dist, 0.0);
        let metrics = router.client().metrics_text().expect("router metrics");
        assert!(
            metric_value(&metrics, "cc_router_failover_total") > 0.0,
            "pinned read did not fail over:\n{metrics}"
        );

        // Once the stall drains and the follower applies the stream, it
        // serves the pinned read itself.
        harness::wait_for_seq(lagger.addr, seq, Duration::from_secs(60));
        let got = direct.search_result(&pinned).expect("caught-up follower serves pinned read");
        assert_eq!(got.neighbors[0].id, oid);
        assert_eq!(got.neighbors[0].dist, 0.0);

        for mut node in [router, lagger, primary] {
            node.shutdown();
        }
    });
}
