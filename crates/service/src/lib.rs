//! # cc-service — serving the collision-counting engine over TCP
//!
//! A batching query (and mutation) service over any
//! [`server::ServeEngine`] — the read-only [`c2lsh::C2lshIndex`] or
//! the crash-safe [`c2lsh::MutableIndex`]: clients speak a
//! length-prefixed binary protocol ([`protocol`]) to a
//! thread-per-connection server ([`server`]) whose single batching
//! worker coalesces concurrent queries into engine batches and
//! mutations into group-committed WAL batches. Built on `std::net`
//! only — no async runtime.
//!
//! * [`protocol`] — the wire format: framing, opcodes, encode/decode,
//!   one frame per operation,
//! * [`server`] — [`server::serve`]: the accept loop (the router's
//!   too), admission control, request coalescing, durable mutation
//!   acks through the engine's [`c2lsh::MutableIndex`], per-request
//!   deadlines, graceful drain,
//! * [`collections`] — the named-collection registry: per-collection
//!   indexes, WAL directories, metadata manifests and metric counters,
//! * [`replication`] — the follower side of WAL shipping: subscribe to
//!   a primary, apply each shipped batch durably, acknowledge,
//!   reconnect with backoff,
//! * [`router`] — the scatter-gather front: fan QueryV2 out across
//!   shard groups, fail over within each group, merge top-k, forward
//!   writes to the primary,
//! * [`obs`] — the live metric registry ([`obs::ServerObs`]), the one
//!   place the service keeps its counters: counters, per-stage latency
//!   histograms, trace sampling, the slow-query ring, and the
//!   Prometheus renderer, the one way a running service is read,
//! * [`client`] — a minimal blocking [`Client`] and the
//!   builder-style [`QueryRequest`],
//! * [`json`] — the workspace's one hand-rolled JSON codec, kept here
//!   for the `benchmark/` ledger's reports.
//!
//! ## Quick start
//!
//! ```
//! use c2lsh::{C2lshConfig, C2lshIndex};
//! use cc_service::{Client, ServiceConfig};
//! use cc_vector::gen::{generate, Distribution};
//! use std::net::TcpListener;
//!
//! let data = generate(
//!     Distribution::GaussianMixture { clusters: 4, spread: 0.02, scale: 10.0 },
//!     400, 8, 42,
//! );
//! let engine = C2lshIndex::build(&data, &C2lshConfig::default());
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! std::thread::scope(|s| {
//!     let server = s.spawn(|| {
//!         cc_service::serve(&engine, listener, &ServiceConfig::default()).unwrap()
//!     });
//!     let mut client = Client::connect(addr).unwrap();
//!     let result = client
//!         .search_result(&cc_service::QueryRequest::new(data.get(7).to_vec()).k(3))
//!         .unwrap();
//!     assert_eq!(result.neighbors[0].id, 7); // the query itself is in the data
//!     client.shutdown().unwrap();
//!     let stats = server.join().unwrap();
//!     assert_eq!(stats.queries, 1);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod collections;
pub mod json;
pub mod obs;
pub mod protocol;
pub mod replication;
pub mod router;
pub mod server;

pub use client::{Client, QueryRequest, QueryResult, SearchOutcome};
pub use collections::CollectionsConfig;
pub use obs::ServerObs;
pub use protocol::{CollectionInfo, ProtoError, QueryCost, Request, Response};
pub use replication::{run_follower, ReplicationConfig, ReplicationStats};
pub use router::{route, route_with_obs, RouterConfig, RouterStats};
pub use server::{serve, serve_with_obs, ServeEngine, ServiceConfig, ServiceStats};
