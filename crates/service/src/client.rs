//! Minimal blocking client for the cc-service wire protocol.
//!
//! One request in flight per connection (the protocol has no request
//! ids); open several [`Client`]s for concurrency — that is exactly
//! what gives the server batches to coalesce.
//!
//! Queries go through the builder-style [`QueryRequest`]:
//!
//! ```no_run
//! # use cc_service::{Client, QueryRequest, SearchOutcome};
//! # fn run(client: &mut Client) -> Result<(), cc_service::ProtoError> {
//! let req = QueryRequest::new(vec![0.5; 16]).k(10).deadline_ms(50).with_trace();
//! match client.search(&req)? {
//!     SearchOutcome::Result(r) => {
//!         println!("{} neighbors, trace {}", r.neighbors.len(), r.trace_id);
//!         if let Some(cost) = r.cost {
//!             println!("{} rounds, {} spans", cost.rounds, cost.spans.len());
//!         }
//!     }
//!     SearchOutcome::Overloaded => { /* back off and retry */ }
//!     SearchOutcome::DeadlineExceeded => { /* give up */ }
//!     SearchOutcome::Stale => { /* retry a fresher replica */ }
//! }
//! # Ok(()) }
//! ```

use crate::protocol::{self, CollectionInfo, ProtoError, QueryCost, Request, Response};
use c2lsh::{ErrorKind, Predicate};
use cc_storage::wal::WalRecord;
use cc_vector::gt::Neighbor;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// One c-k-ANN query, built fluently and executed with
/// [`Client::search`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    vector: Vec<f32>,
    k: u32,
    deadline_ms: u32,
    want_stats: bool,
    want_trace: bool,
    filter: Option<Predicate>,
    collection: Option<String>,
    min_seq: u64,
}

impl QueryRequest {
    /// A query for the nearest neighbor of `vector` (raise with
    /// [`QueryRequest::k`]); no deadline, no stats, no trace.
    pub fn new(vector: impl Into<Vec<f32>>) -> Self {
        QueryRequest {
            vector: vector.into(),
            k: 1,
            deadline_ms: 0,
            want_stats: false,
            want_trace: false,
            filter: None,
            collection: None,
            min_seq: 0,
        }
    }

    /// Ask for the `k` nearest neighbors.
    pub fn k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Give up (server-side) if still queued after `ms` milliseconds;
    /// 0 disables the deadline.
    pub fn deadline_ms(mut self, ms: u32) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Attach a per-query cost block ([`QueryCost`]) to the answer.
    pub fn with_stats(mut self) -> Self {
        self.want_stats = true;
        self
    }

    /// Trace this query: the answer carries a server-assigned trace id
    /// and the captured span tree (implies [`QueryRequest::with_stats`]).
    pub fn with_trace(mut self) -> Self {
        self.want_trace = true;
        self
    }

    /// Only return points matching `pred`; the server evaluates it
    /// inside the collision-counting loop, before any distance work.
    pub fn filter(mut self, pred: Predicate) -> Self {
        self.filter = Some(pred);
        self
    }

    /// Route the query to a named collection instead of the default
    /// engine.
    pub fn collection(mut self, name: impl Into<String>) -> Self {
        self.collection = Some(name.into());
        self
    }

    /// Read-your-writes: only accept an answer from a node that has
    /// applied at least WAL sequence `seq` (e.g. the `seq` returned by
    /// an insert ack). A lagging follower answers
    /// [`SearchOutcome::Stale`] instead of serving old data; 0 (the
    /// default) disables the bound.
    pub fn min_seq(mut self, seq: u64) -> Self {
        self.min_seq = seq;
        self
    }

    fn to_wire(&self) -> Request {
        Request::QueryV2 {
            k: self.k,
            deadline_ms: self.deadline_ms,
            want_stats: self.want_stats,
            want_trace: self.want_trace,
            vector: self.vector.clone(),
            filter: self.filter,
            collection: self.collection.clone(),
            min_seq: self.min_seq,
        }
    }
}

/// A served query: the answer plus whatever extras were requested.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The k nearest verified candidates, ascending by distance.
    pub neighbors: Vec<Neighbor>,
    /// Per-query cost block; present iff the request asked via
    /// [`QueryRequest::with_stats`] / [`QueryRequest::with_trace`].
    pub cost: Option<QueryCost>,
    /// Server-assigned trace id (0 unless the request asked for a
    /// trace); cross-references the server's `/slowlog`.
    pub trace_id: u64,
}

/// How the server disposed of a [`QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum SearchOutcome {
    /// Served; the payload.
    Result(QueryResult),
    /// Refused at admission (queue full) — retry later.
    Overloaded,
    /// The deadline expired while the query was queued.
    DeadlineExceeded,
    /// The node has not caught up to the request's
    /// [`QueryRequest::min_seq`] bound — ask another replica (or the
    /// primary) or retry after replication catches up.
    Stale,
}

impl SearchOutcome {
    /// Unwrap the served result; maps [`SearchOutcome::Overloaded`] and
    /// [`SearchOutcome::DeadlineExceeded`] to a [`ProtoError`] for
    /// callers that treat them as failures.
    pub fn into_result(self) -> Result<QueryResult, ProtoError> {
        match self {
            SearchOutcome::Result(r) => Ok(r),
            SearchOutcome::Overloaded => Err(ProtoError::Malformed("server overloaded".into())),
            SearchOutcome::DeadlineExceeded => {
                Err(ProtoError::Malformed("deadline exceeded".into()))
            }
            SearchOutcome::Stale => {
                Err(ProtoError::Malformed("replica stale for requested min_seq".into()))
            }
        }
    }
}

/// A connected service client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    fn call(&mut self, req: &Request) -> Result<Response, ProtoError> {
        protocol::write_request(&mut self.stream, req)?;
        protocol::read_response(&mut self.stream)?.ok_or_else(|| {
            ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), ProtoError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Execute one [`QueryRequest`], reporting admission-control
    /// outcomes ([`SearchOutcome::Overloaded`] /
    /// [`SearchOutcome::DeadlineExceeded`]) in-band so the caller can
    /// react; server-side rejections ([`Response::Error`]) surface as
    /// `Err`.
    pub fn search(&mut self, req: &QueryRequest) -> Result<SearchOutcome, ProtoError> {
        match self.call(&req.to_wire())? {
            Response::TopKV2 { trace_id, neighbors, cost } => {
                Ok(SearchOutcome::Result(QueryResult { neighbors, cost, trace_id }))
            }
            Response::Overloaded => Ok(SearchOutcome::Overloaded),
            Response::DeadlineExceeded => Ok(SearchOutcome::DeadlineExceeded),
            Response::Error(e) if e.kind() == ErrorKind::Stale => Ok(SearchOutcome::Stale),
            Response::Error(e) => Err(ProtoError::Malformed(e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// Convenience: execute `req` and unwrap the served result (treats
    /// overload/deadline as errors). For the common
    /// "neighbors-or-bust" call site.
    pub fn search_result(&mut self, req: &QueryRequest) -> Result<QueryResult, ProtoError> {
        self.search(req)?.into_result()
    }

    /// Fetch the Prometheus text exposition over the binary protocol
    /// (the same document `--metrics-addr` serves at `/metrics`) — every
    /// counter the server keeps; read one series with [`cc_obs::sample`].
    pub fn metrics_text(&mut self) -> Result<String, ProtoError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsText(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Insert a vector with no metadata into the default engine;
    /// returns `(oid, seq)` — the object id the index assigned and the
    /// WAL sequence number. When this returns, the insert is durable
    /// (the server acks after its group-commit fsync).
    pub fn insert(&mut self, vector: &[f32]) -> Result<(u32, u64), ProtoError> {
        self.insert_with_meta(None, vector, 0, 0)
    }

    /// Insert a vector carrying a metadata payload — tag bitmask and
    /// label — into the default engine (`collection = None`) or a
    /// named collection. Returns `(oid, seq)` with the same durability
    /// contract as [`Client::insert`].
    pub fn insert_with_meta(
        &mut self,
        collection: Option<&str>,
        vector: &[f32],
        tag: u64,
        label: u32,
    ) -> Result<(u32, u64), ProtoError> {
        let req = Request::InsertV2 {
            collection: collection.map(str::to_string),
            tag,
            label,
            vector: vector.to_vec(),
        };
        match self.call(&req)? {
            Response::InsertAck { oid, seq } => Ok((oid, seq)),
            Response::Error(e) => Err(ProtoError::Malformed(e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// Create a collection with dimensionality `dim`; returns whether
    /// it already existed (idempotent either way).
    pub fn create_collection(&mut self, name: &str, dim: u32) -> Result<bool, ProtoError> {
        match self.call(&Request::CreateCollection { name: name.into(), dim })? {
            Response::CollectionAck { existed } => Ok(existed),
            Response::Error(e) => Err(ProtoError::Malformed(e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// Drop a collection and its on-disk state; returns whether it
    /// existed.
    pub fn drop_collection(&mut self, name: &str) -> Result<bool, ProtoError> {
        match self.call(&Request::DropCollection { name: name.into() })? {
            Response::CollectionAck { existed } => Ok(existed),
            Response::Error(e) => Err(ProtoError::Malformed(e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// List all collections with their dimensionality and live object
    /// counts.
    pub fn list_collections(&mut self) -> Result<Vec<CollectionInfo>, ProtoError> {
        match self.call(&Request::ListCollections)? {
            Response::CollectionList(infos) => Ok(infos),
            other => Err(unexpected(&other)),
        }
    }

    /// Delete an object by id; returns `(found, seq)`. `found == false`
    /// means the id was unknown or already deleted (still a successful,
    /// idempotent call).
    pub fn delete(&mut self, oid: u32) -> Result<(bool, u64), ProtoError> {
        match self.call(&Request::Delete { oid })? {
            Response::DeleteAck { oid: got, found, seq } => {
                if got != oid {
                    return Err(ProtoError::Malformed(format!(
                        "delete ack for oid {got}, requested {oid}"
                    )));
                }
                Ok((found, seq))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Subscribe this connection to the server's replication stream,
    /// resuming after `from_seq` (0 = from the beginning). Returns the
    /// primary's high-water sequence and the first batch of records
    /// (possibly empty when already caught up). Keep the stream alive
    /// with [`Client::repl_ack`].
    pub fn repl_subscribe(
        &mut self,
        replica: &str,
        from_seq: u64,
    ) -> Result<(u64, Vec<WalRecord>), ProtoError> {
        let req = Request::ReplSubscribe { replica: replica.into(), from_seq };
        match self.call(&req)? {
            Response::ReplBatch { last_seq, records } => Ok((last_seq, records)),
            Response::Error(e) => Err(ProtoError::Malformed(e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// Acknowledge that every record up to `applied_seq` is applied and
    /// durable on this subscriber; the server long-polls and answers
    /// with the next batch (empty = heartbeat, still caught up).
    pub fn repl_ack(&mut self, applied_seq: u64) -> Result<(u64, Vec<WalRecord>), ProtoError> {
        match self.call(&Request::ReplAck { applied_seq })? {
            Response::ReplBatch { last_seq, records } => Ok((last_seq, records)),
            Response::Error(e) => Err(ProtoError::Malformed(e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to drain and exit; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ProtoError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> ProtoError {
    ProtoError::Malformed(format!("unexpected response {resp:?}"))
}
