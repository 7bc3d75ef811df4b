//! Filtered search quickstart: per-point metadata, predicates inside
//! the collision-counting loop, and named collections over the wire.
//!
//! ```text
//! cargo run --release --example filtered_search
//! ```
//!
//! Part 1 attaches a `PointMeta` (u64 tag bitset + u32 label) to every
//! indexed point and runs the same query unfiltered and with a
//! predicate. The predicate is evaluated when a point's collision
//! count crosses the threshold — *before* the distance computation —
//! so non-matching points are rejected without ever being verified.
//!
//! Part 2 does the same against a live `cc-service`: a named
//! collection, metadata-bearing inserts, and a `QueryRequest` carrying
//! the filter.

use c2lsh::engine::SearchOptions;
use c2lsh::{C2lshConfig, C2lshIndex, DynamicIndex, MutableIndex, PointMeta, Predicate};
use cc_service::{Client, QueryRequest, ServiceConfig};
use cc_vector::gen::{generate, Distribution};
use std::net::TcpListener;

const DIM: usize = 32;
const N: usize = 8_000;

/// Pretend catalogue metadata: label = category (0..=4), tag bit i%6 =
/// a feature flag. Both moduli are coprime to the generator's cluster
/// count, so every cluster mixes all categories.
fn meta(i: usize) -> PointMeta {
    PointMeta::new(1 << (i % 6), (i % 5) as u32)
}

fn main() {
    let data = generate(
        Distribution::GaussianMixture { clusters: 16, spread: 0.02, scale: 10.0 },
        N,
        DIM,
        11,
    );
    let config = C2lshConfig::builder().bucket_width(1.0).seed(11).build();

    // ----- Part 1: the library API ---------------------------------
    let metas: Vec<PointMeta> = (0..N).map(meta).collect();
    let index = C2lshIndex::build(&data, &config).with_meta(metas);

    // Category 2, restricted to points with feature bit 0 or 3 set.
    let predicate = Predicate::label(2).and_tag_any((1 << 0) | (1 << 3));
    let q = data.get(7);

    let (plain, plain_stats) = index.query(q, 10);
    let opts = SearchOptions { filter: Some(predicate), ..Default::default() };
    let (filtered, filtered_stats) = index.query_with(q, 10, &opts);

    println!("unfiltered top-3:");
    for n in plain.iter().take(3) {
        println!("  id {:>4}  dist {:.4}", n.id, n.dist);
    }
    println!("filtered top-3 (label == 2 && tag & 0b1001 != 0):");
    for n in filtered.iter().take(3) {
        println!("  id {:>4}  dist {:.4}  (id % 5 == {})", n.id, n.dist, n.id % 5);
    }
    println!(
        "cost: unfiltered verified {} candidates; filtered verified {} and rejected {} \
         by predicate before any distance computation",
        plain_stats.candidates_verified,
        filtered_stats.candidates_verified,
        filtered_stats.candidates_filtered,
    );

    // ----- Part 2: collections over the wire -----------------------
    let engine = MutableIndex::ephemeral(DynamicIndex::new(DIM, N, &config));
    let service = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    let (engine, service, data) = (&engine, &service, &data);
    std::thread::scope(move |s| {
        s.spawn(move || cc_service::serve(engine, listener, service).unwrap());

        let mut client = Client::connect(addr).expect("connect");
        client.create_collection("catalogue", DIM as u32).expect("create");
        for (i, v) in data.iter().take(2_000).enumerate() {
            let m = meta(i);
            client.insert_with_meta(Some("catalogue"), v, m.tag, m.label).expect("insert");
        }
        for info in client.list_collections().expect("list") {
            println!("collection {:?}: {} objects in R^{}", info.name, info.objects, info.dim);
        }

        let result = client
            .search_result(
                &QueryRequest::new(data.get(7).to_vec())
                    .k(5)
                    .collection("catalogue")
                    .filter(Predicate::label(2))
                    .with_stats(),
            )
            .expect("filtered query");
        println!("served top-{} from the collection, label == 2 only:", result.neighbors.len());
        for n in &result.neighbors {
            println!("  id {:>4}  dist {:.4}", n.id, n.dist);
        }
        if let Some(cost) = result.cost {
            println!(
                "server-side cost: {} verified, {} rejected by the predicate",
                cost.verified, cost.filtered
            );
        }

        client.shutdown().expect("shutdown");
    });
}
