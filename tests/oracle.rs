//! A reference oracle for the c-k-ANN loop of C2LSH, and one
//! differential proptest that holds every store of the `c2lsh` crate to
//! it.
//!
//! The oracle is the paper's algorithm written to be read, not to be
//! fast: per hash function one `Vec<(bucket, oid)>` sorted by
//! `(bucket, oid)`, a level-`R` window per table grown by virtual
//! rehashing, a plain count per object, and distances from
//! `cc_vector::dist` — no kernels, no scratch, no cursors. Its
//! parameters are `FullParams::derive`'s, its hash functions the family
//! every store draws from the same config.
//!
//! The contract: a round visits table after table, and in each table the
//! entries its window newly covers in `(bucket, oid)` order. Every store
//! that hands a round's ids out in that order answers exactly as the
//! oracle does — neighbours, rounds, final radius, collisions counted,
//! candidates verified and the terminating condition — whichever of
//! T1, T2 or exhaustion ends the query.

use c2lsh::rehash::{radius_at, window};
use c2lsh::sharded::{ShardedData, ShardedEngine};
use c2lsh::{Beta, C2lshConfig, C2lshIndex, DiskIndex, DynamicIndex, FullParams, HashFamily};
use c2lsh::{PagedStore, QueryStats, Termination};
use cc_service::{Client, QueryRequest, RouterConfig, ServiceConfig};
use cc_vector::dataset::Dataset;
use cc_vector::dist::euclidean;
use cc_vector::gen::{generate, Distribution};
use cc_vector::gt::Neighbor;
use proptest::prelude::*;
use std::net::TcpListener;

/// What a query returns and what it cost, in the paper's quantities.
#[derive(Debug, PartialEq)]
struct Answer {
    neighbors: Vec<Neighbor>,
    rounds: u32,
    final_radius: i64,
    collisions: u64,
    verified: usize,
    terminated_by: Termination,
}

impl Answer {
    fn of((neighbors, s): (Vec<Neighbor>, QueryStats)) -> Self {
        Answer {
            neighbors,
            rounds: s.rounds,
            final_radius: s.final_radius,
            collisions: s.collisions_counted,
            verified: s.candidates_verified,
            terminated_by: s.terminated_by,
        }
    }
}

/// Whether bucket `b` lies in the half-open window `(lo, hi)`.
fn inside(b: i64, (lo, hi): (i64, i64)) -> bool {
    lo <= b && b < hi
}

/// The paper's loop (§4): grow every table's window to the level-`R`
/// bucket of `q`, count each newly covered object once, verify an object
/// when its count reaches `l`, stop on T2 (`k + βn` verified), T1 (`k`
/// verified within `c·R`) or when every window covers its whole table.
fn oracle(data: &Dataset, config: &C2lshConfig, q: &[f32], k: usize) -> Answer {
    let params = FullParams::derive(data.len(), config);
    let family = HashFamily::generate(params.m, data.dim(), config);
    let tables: Vec<Vec<(i64, u32)>> = family
        .iter()
        .map(|h| {
            let mut table: Vec<(i64, u32)> = data.iter().map(|v| h.bucket(v)).zip(0..).collect();
            table.sort();
            table
        })
        .collect();
    let q_buckets: Vec<i64> = family.iter().map(|h| h.bucket(q)).collect();

    let mut counts = vec![0usize; data.len()];
    let mut covered: Vec<Option<(i64, i64)>> = vec![None; params.m];
    let mut candidates: Vec<Neighbor> = Vec::new();
    let (mut rounds, mut collisions, mut level) = (0, 0, 0);
    let (terminated_by, final_radius) = loop {
        let radius = radius_at(config.c, level);
        rounds += 1;
        let mut budget_hit = false;
        'tables: for (t, table) in tables.iter().enumerate() {
            let now = window(q_buckets[t], radius);
            let before = covered[t].replace(now);
            for &(bucket, oid) in table {
                if !inside(bucket, now) || before.is_some_and(|w| inside(bucket, w)) {
                    continue;
                }
                collisions += 1;
                counts[oid as usize] += 1;
                if counts[oid as usize] == params.l {
                    let dist = euclidean(data.get(oid as usize), q);
                    candidates.push(Neighbor::new(oid, dist));
                    if candidates.len() >= k + params.beta_n {
                        budget_hit = true;
                        break 'tables;
                    }
                }
            }
        }
        if budget_hit {
            break (Termination::T2CandidateBudget, radius);
        }
        let c_r = config.c as f64 * radius as f64 * config.base_radius;
        if candidates.iter().filter(|cand| cand.dist <= c_r).count() >= k {
            break (Termination::T1AtRadius, radius);
        }
        let whole =
            |t: usize| tables[t].iter().all(|&(b, _)| covered[t].is_some_and(|w| inside(b, w)));
        if (0..params.m).all(whole) {
            break (Termination::Exhausted, radius);
        }
        level += 1;
    };
    let verified = candidates.len();
    candidates.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    candidates.truncate(k);
    Answer { neighbors: candidates, rounds, final_radius, collisions, verified, terminated_by }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every store answers as the oracle does: the in-memory index, its
    /// page meter, the paged store, the dynamic index and the sharded
    /// engine at one to four shards. Queries are rows of the data moved
    /// by an offset, so they end in the first round and after several;
    /// the small budgets end many of them on T2, and `k` past `n` ends
    /// the rest on exhaustion.
    #[test]
    fn every_store_answers_as_the_oracle(
        n in 60usize..700,
        dim in 2usize..10,
        data_seed in 0u64..1_000,
        c in 2u32..4,
        width in 0usize..3,
        beta in 0usize..3,
        seed in 0u64..64,
        asks in proptest::collection::vec((0usize..1_000, 0usize..4, 1usize..12), 1..4),
        far_k in 0u8..4,
        shards in 1usize..5,
    ) {
        let data = generate(
            Distribution::GaussianMixture { clusters: 6, spread: 0.05, scale: 10.0 },
            n,
            dim,
            data_seed,
        );
        let config = C2lshConfig::builder()
            .bucket_width([1.0, 2.0, 4.0][width])
            .approximation_ratio(c)
            .beta(Beta::Count([2, 20, 100_000][beta]))
            .seed(seed)
            .build();
        let mem = C2lshIndex::build(&data, &config);
        let disk = DiskIndex::build(&data, &config);
        let dir = cc_storage::wal::scratch_dir("oracle");
        let paged = PagedStore::build(&data, &config, dir.join("index.ccpg"), 4).unwrap();
        let dynamic = DynamicIndex::from_dataset(&data, &config);
        let parts = ShardedData::partition(&data, shards);
        let sharded = ShardedEngine::build(&parts, &config);
        for &(row, offset, k) in &asks {
            let offset = [0.0, 0.5, 3.0, 40.0][offset];
            let q: Vec<f32> = data.get(row % n).iter().map(|x| x + offset).collect();
            let k = if far_k == 0 { n + k } else { k };
            let want = oracle(&data, &config, &q, k);
            prop_assert_eq!(&Answer::of(mem.query(&q, k)), &want, "C2lshIndex");
            prop_assert_eq!(&Answer::of(disk.query(&q, k)), &want, "DiskIndex");
            prop_assert_eq!(&Answer::of(paged.query(&q, k)), &want, "PagedStore");
            prop_assert_eq!(&Answer::of(dynamic.query(&q, k)), &want, "DynamicIndex");
            prop_assert_eq!(&Answer::of(sharded.query(&q, k)), &want, "{} shards", shards);
        }
        drop(paged);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Neighbours as ids and the bits of their distances.
fn bits(neighbors: &[Neighbor]) -> Vec<(u32, u64)> {
    neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Through the wire: a `C2lshIndex` and one over three parts, each
/// served on loopback and asked directly and through a one-group router,
/// return the oracle's neighbours bit for bit and its rounds, collisions
/// and verified count in the cost block — under a config whose queries
/// end on T1 and under one whose queries end on T2.
#[test]
fn served_and_routed_answers_are_the_oracles() {
    let data = generate(
        Distribution::GaussianMixture { clusters: 6, spread: 0.05, scale: 10.0 },
        600,
        6,
        7,
    );
    let parts = ShardedData::partition(&data, 3);
    for (beta, ends) in [(100_000, Termination::T1AtRadius), (2, Termination::T2CandidateBudget)] {
        let config =
            C2lshConfig::builder().bucket_width(1.0).beta(Beta::Count(beta)).seed(5).build();
        let asks: Vec<(Vec<f32>, Answer)> = [0usize, 150, 333, 599]
            .iter()
            .map(|&row| {
                let q: Vec<f32> = data.get(row).iter().map(|x| x + 0.5).collect();
                let want = oracle(&data, &config, &q, 10);
                assert_eq!(want.terminated_by, ends, "row {row}, β·n = {beta}");
                (q, want)
            })
            .collect();
        let whole = C2lshIndex::build(&data, &config);
        let split = C2lshIndex::build(&parts, &config);
        crossbeam::scope(|s| {
            let (mut servers, mut routers, mut running) = (Vec::new(), Vec::new(), Vec::new());
            for engine in [&whole, &split] {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let served = listener.local_addr().unwrap();
                running.push(s.spawn(move |_| {
                    cc_service::serve(engine, listener, &ServiceConfig::default()).map(drop)
                }));
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                routers.push(listener.local_addr().unwrap());
                let router = RouterConfig {
                    primary: served.to_string(),
                    groups: vec![vec![served.to_string()]],
                    ..RouterConfig::default()
                };
                running.push(s.spawn(move |_| cc_service::route(listener, &router).map(drop)));
                servers.push(served);
            }
            for (via, addr) in
                servers.iter().map(|a| ("direct", a)).chain(routers.iter().map(|a| ("router", a)))
            {
                let mut client = Client::connect(addr).unwrap();
                for (q, want) in &asks {
                    let got = client
                        .search_result(&QueryRequest::new(q.clone()).k(10).with_stats())
                        .unwrap();
                    let cost = got.cost.expect("a cost block");
                    assert_eq!(bits(&got.neighbors), bits(&want.neighbors), "{via} {addr}");
                    assert_eq!(
                        (cost.rounds, cost.collisions, cost.verified),
                        (want.rounds, want.collisions, want.verified as u64),
                        "{via} {addr}"
                    );
                }
            }
            // Routers first: a router's shutdown stops it, not its group.
            for addr in routers.iter().chain(&servers) {
                Client::connect(addr).unwrap().shutdown().unwrap();
            }
            for handle in running {
                handle.join().unwrap().unwrap();
            }
        })
        .unwrap();
    }
}
