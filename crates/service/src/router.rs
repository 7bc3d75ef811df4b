//! The scatter-gather router: one process speaking the ordinary wire
//! protocol in front of a fleet of cc-service nodes.
//!
//! ```text
//!                        ┌──────────┐ group 0  ┌───────────┐
//!  client ── QueryV2 ──▶ │  router  │ ───────▶ │ replica A │ (or B, or primary)
//!                        │          │ group 1  ├───────────┤
//!                        │ (merge   │ ───────▶ │ replica C │ …
//!                        │  top-k)  │          └───────────┘
//!                        └────┬─────┘
//!                   writes ───┴──────────────▶ primary
//! ```
//!
//! **Reads** scatter one sub-query per [`RouterConfig::groups`] entry —
//! each group holds one shard of the data, served by any of its
//! replicas — and the per-group answers are merged by distance
//! (`f64::total_cmp`, ties by id) and truncated to `k`. Within a
//! group the router rotates across replicas for load balance and
//! **fails over** on anything transient: connect failure, a leg
//! exceeding [`RouterConfig::node_deadline`], an
//! [`ErrorKind::Stale`] refusal (the replica lags the query's
//! `min_seq` bound), or admission-control pushback. When
//! [`RouterConfig::primary_reads`] is set (the default, correct
//! whenever the primary holds all the data, i.e. replication rather
//! than sharding topologies) the primary is appended to every group as
//! the last-resort leg — it is always fresh, so a freshness-bounded
//! read succeeds even when every follower lags. Deterministic
//! rejections (bad dimensionality, `k` out of range) are returned to
//! the client unchanged — retrying them elsewhere cannot help.
//!
//! **Writes** and collection operations forward verbatim to
//! [`RouterConfig::primary`] over a fresh connection per request, so a
//! primary restart never wedges the router. `Ping` and `Metrics` are
//! answered locally (the router exports its own `cc_router_*`
//! counters); `Shutdown` stops the router itself, never the fleet.

use crate::obs::ServerObs;
use crate::protocol::{self, ProtoError, QueryCost, Request, Response};
use crate::server::{read_request_or_refuse, send, Front, ServiceConfig};
use c2lsh::{Error, ErrorKind};
use cc_vector::gt::Neighbor;
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Topology and tunables of one router process.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The write path: every mutation and collection op forwards here
    /// (`HOST:PORT`).
    pub primary: String,
    /// The read path: one entry per shard group, each listing the
    /// replicas that can answer for that group. A single group whose
    /// replicas are followers of [`RouterConfig::primary`] is the
    /// replication topology; multiple groups partition the data.
    pub groups: Vec<Vec<String>>,
    /// Per-leg budget: connect + request + response on one node. A leg
    /// exceeding it is abandoned and the query fails over to the next
    /// replica in the group.
    pub node_deadline: Duration,
    /// Append the primary as the last-resort read leg of every group.
    /// Correct when the primary holds all the data (replication
    /// topologies); turn off when groups shard the data and the
    /// primary holds none of it.
    pub primary_reads: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            primary: "127.0.0.1:7878".into(),
            groups: Vec::new(),
            node_deadline: Duration::from_millis(500),
            primary_reads: true,
        }
    }
}

/// Final counter snapshot returned by [`route`] after the drain, read
/// from the [`ServerObs`] counters behind the router's `/metrics`.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Queries answered (merged scatter-gathers).
    pub queries: u64,
    /// Scatter legs issued (one per node actually contacted).
    pub fanout: u64,
    /// Queries that needed at least one failover to answer.
    pub failovers: u64,
    /// Individual legs that errored (connect, deadline, stale,
    /// overloaded, or an error frame).
    pub node_errors: u64,
    /// Requests forwarded to the primary (writes, collections).
    pub forwards: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
}

struct RouterShared {
    config: RouterConfig,
    front: Front,
    /// The one count that is not a counter of `obs`.
    forwards: AtomicU64,
    /// Round-robin cursor so consecutive queries start at different
    /// replicas within a group.
    rr: AtomicU64,
    obs: Arc<ServerObs>,
}

/// Run the router until a [`Request::Shutdown`] arrives, with a
/// private metric registry. See [`route_with_obs`] to share one with a
/// scrape listener.
pub fn route(listener: TcpListener, config: &RouterConfig) -> io::Result<RouterStats> {
    route_with_obs(listener, config, Arc::new(ServerObs::disabled()))
}

/// Like [`route`], but counting into a caller-owned [`ServerObs`] (so
/// `--metrics-addr` can scrape the query, error and `cc_router_*`
/// counters); hand each call a registry of its own.
pub fn route_with_obs(
    listener: TcpListener,
    config: &RouterConfig,
    obs: Arc<ServerObs>,
) -> io::Result<RouterStats> {
    if config.groups.is_empty() || config.groups.iter().any(|g| g.is_empty()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one group with at least one replica",
        ));
    }
    let shared = RouterShared {
        config: config.clone(),
        // No queue of its own: it holds the connections a server of
        // the default queue would.
        front: Front::new(&listener, ServiceConfig::default().queue_capacity)?,
        forwards: AtomicU64::new(0),
        rr: AtomicU64::new(0),
        obs,
    };
    let shared = &shared;
    let stats = std::thread::scope(move |s| {
        shared.front.accept(s, listener, move |stream| {
            let _ = serve_connection(shared, stream);
        });
        // The router holds no durable state: there is nothing to drain.
        shared.front.close(Duration::ZERO);
        let obs = &shared.obs;
        RouterStats {
            queries: obs.queries.get(),
            fanout: obs.router_fanout.get(),
            failovers: obs.router_failover.get(),
            node_errors: obs.router_node_errors.get(),
            forwards: shared.forwards.load(Ordering::Relaxed),
            errors: obs.errors.get(),
        }
    });
    Ok(stats)
}

fn serve_connection(shared: &RouterShared, stream: &mut TcpStream) -> Result<(), ProtoError> {
    loop {
        let Some(req) = read_request_or_refuse(stream, &shared.obs)? else { return Ok(()) };
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Metrics => Response::MetricsText(shared.obs.render_prometheus()),
            Request::Shutdown => {
                send(stream, &Response::ShutdownAck)?;
                shared.front.stop();
                return Ok(());
            }
            // Collection queries are not replicated across the read
            // fleet — collections live on the primary.
            req @ Request::QueryV2 { collection: Some(_), .. } => forward_to_primary(shared, req),
            req @ Request::QueryV2 { .. } => scatter_query(shared, req),
            req @ (Request::InsertV2 { .. }
            | Request::Delete { .. }
            | Request::CreateCollection { .. }
            | Request::DropCollection { .. }
            | Request::ListCollections) => forward_to_primary(shared, req),
            Request::ReplSubscribe { .. } | Request::ReplAck { .. } => Response::Error(Error::new(
                ErrorKind::Unsupported,
                "the router does not serve the replication stream; subscribe to the primary",
            )),
        };
        if matches!(resp, Response::Error(_)) {
            shared.obs.errors.inc();
        }
        send(stream, &resp)?;
    }
}

/// Scatter one default-engine query across every group, failing over
/// within each group, and merge the per-group answers to one top-k.
fn scatter_query(shared: &RouterShared, req: Request) -> Response {
    let Request::QueryV2 { k, .. } = &req else { unreachable!("caller matched QueryV2") };
    let k = *k as usize;
    let mut merged: Vec<Neighbor> = Vec::new();
    let mut carried: Option<(u64, Option<QueryCost>)> = None;
    let groups = shared.config.groups.len();
    for group in &shared.config.groups {
        match query_group(shared, group, &req) {
            Ok(Response::TopKV2 { trace_id, neighbors, cost }) => {
                merged.extend(neighbors);
                // Cost blocks describe one engine's work; they only
                // survive the merge when there is exactly one source.
                carried = (groups == 1).then_some((trace_id, cost));
            }
            Ok(other) => return other, // deterministic rejection, verbatim
            Err(e) => return Response::Error(e),
        }
    }
    merged.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    merged.truncate(k);
    let (trace_id, cost) = carried.unwrap_or((0, None));
    shared.obs.queries.inc();
    Response::TopKV2 { trace_id, neighbors: merged, cost }
}

/// Ask one group: rotate across its replicas (primary appended last
/// when [`RouterConfig::primary_reads`]), failing over on transient
/// outcomes. `Ok` carries the first authoritative answer — including
/// deterministic rejections; `Err` means the whole group is down.
fn query_group(shared: &RouterShared, group: &[String], req: &Request) -> Result<Response, Error> {
    let start = (shared.rr.fetch_add(1, Ordering::Relaxed) as usize) % group.len();
    let mut legs: Vec<&str> =
        (0..group.len()).map(|i| group[(start + i) % group.len()].as_str()).collect();
    if shared.config.primary_reads && !group.contains(&shared.config.primary) {
        legs.push(shared.config.primary.as_str());
    }
    let mut attempts = 0u64;
    let mut last_failure = String::new();
    for node in legs {
        attempts += 1;
        shared.obs.router_fanout.inc();
        match ask_node(node, req, shared.config.node_deadline) {
            Ok(resp @ Response::TopKV2 { .. }) => {
                if attempts > 1 {
                    shared.obs.router_failover.inc();
                }
                return Ok(resp);
            }
            // Transient: the next replica may well succeed.
            Ok(Response::Overloaded) => last_failure = format!("{node}: overloaded"),
            Ok(Response::DeadlineExceeded) => last_failure = format!("{node}: deadline"),
            Ok(Response::Error(e)) if e.kind() == ErrorKind::Stale => {
                last_failure = format!("{node}: {e}")
            }
            Ok(Response::Error(e)) if e.kind() == ErrorKind::Draining => {
                last_failure = format!("{node}: {e}")
            }
            // Deterministic: bad dimensionality, k out of range, … —
            // every replica would refuse identically.
            Ok(resp @ Response::Error(_)) => return Ok(resp),
            Ok(other) => last_failure = format!("{node}: unexpected response {other:?}"),
            Err(e) => last_failure = format!("{node}: {e}"),
        }
        shared.obs.router_node_errors.inc();
        eprintln!("router: leg failed ({last_failure}); failing over");
    }
    Err(Error::new(
        ErrorKind::Io,
        format!("no replica in the group answered ({attempts} tried; last: {last_failure})"),
    ))
}

/// One leg: fresh connection, per-leg timeouts, one request/response.
fn ask_node(node: &str, req: &Request, deadline: Duration) -> io::Result<Response> {
    let addr = node
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, deadline)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(deadline))?;
    stream.set_write_timeout(Some(deadline))?;
    protocol::write_request(&mut stream, req)?;
    match protocol::read_response(&mut stream) {
        Ok(Some(resp)) => Ok(resp),
        Ok(None) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "node closed the connection")),
        Err(ProtoError::Io(e)) => Err(e),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Forward one request verbatim to the primary; failures come back as
/// typed error frames rather than dropped connections, so the client
/// can tell "primary down" from "router down". The forward deadline is
/// deliberately generous — group-commit fsyncs are slower than a read
/// leg.
fn forward_to_primary(shared: &RouterShared, req: Request) -> Response {
    shared.forwards.fetch_add(1, Ordering::Relaxed);
    let deadline = shared.config.node_deadline.max(Duration::from_secs(2)) * 5;
    match ask_node(&shared.config.primary, &req, deadline) {
        Ok(resp) => resp,
        Err(e) => Response::Error(Error::new(
            ErrorKind::Io,
            format!("primary {} unreachable: {e}", shared.config.primary),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, QueryRequest};

    /// A query no leg could answer is an error and not a query: the
    /// counters say what the router answered, not what it was sent.
    #[test]
    fn a_refused_query_counts_as_an_error_only() {
        // The address of a listener that is gone: every leg is down.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
        let config = RouterConfig {
            primary: dead.clone(),
            groups: vec![vec![dead]],
            node_deadline: Duration::from_millis(200),
            primary_reads: true,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let router = std::thread::spawn(move || route(listener, &config).unwrap());

        let mut client = Client::connect(addr).unwrap();
        let refusal = client.search(&QueryRequest::new(vec![0.0; 4])).unwrap_err();
        assert!(refusal.to_string().contains("no replica in the group answered"), "{refusal}");
        let metrics = client.metrics_text().unwrap();
        for series in ["cc_queries_total 0", "cc_errors_total 1", "cc_router_fanout_total 1"] {
            assert!(metrics.lines().any(|line| line == series), "{series} not in:\n{metrics}");
        }
        client.shutdown().unwrap();
        let stats = router.join().unwrap();
        assert_eq!((stats.queries, stats.errors, stats.node_errors), (0, 1, 1));
    }
}
