//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `u32` payload length (little-endian, excluding the
//! length word itself) followed by the payload; the payload's first
//! byte is the opcode. Requests use opcodes `0x01..=0x0E`, responses
//! set the high bit. All multi-byte integers and floats are
//! little-endian, matching the persistence format of the core crate.
//! There is one frame per operation: the opcodes of the retired
//! first-generation query, insert and answer frames (`0x02`, `0x05`,
//! `0x82`) and of the retired JSON stats request and answer (`0x03`,
//! `0x85`; counters are read through `0x08` Metrics) stay reserved and
//! are refused like any unknown opcode, and the surviving frames keep
//! the names they were introduced under.
//!
//! ```text
//! request  0x01 Ping
//!          0x04 Shutdown
//!          0x06 Delete    u32 oid
//!          0x07 QueryV2   u32 k | u32 deadline_ms (0 = none) |
//!                         u32 flags (bit0 = want stats,
//!                         bit1 = want trace, bit2 = filter,
//!                         bit3 = collection, bit4 = min_seq;
//!                         any other bit = malformed) |
//!                         u32 dim | dim × f32 |
//!                         [filter block, iff bit2] |
//!                         [u16 name_len | name, iff bit3] |
//!                         [u64 min_seq, iff bit4]
//!          0x08 Metrics             (Prometheus text exposition)
//!          0x09 CreateCollection  u16 name_len | name | u32 dim
//!          0x0A DropCollection    u16 name_len | name
//!          0x0B ListCollections
//!          0x0C InsertV2  u16 name_len (0 = default engine) | name |
//!                         u64 tag | u32 label | u32 dim | dim × f32
//!          0x0D ReplSubscribe  u16 name_len | replica name |
//!                              u64 from_seq (ship records > from_seq)
//!          0x0E ReplAck   u64 applied_seq   (long-polls the next batch)
//!
//! response 0x81 Pong
//!          0x83 Overloaded          (admission queue full)
//!          0x84 DeadlineExceeded    (expired while queued)
//!          0x86 ShutdownAck
//!          0x87 InsertAck u32 oid | u64 seq
//!          0x88 DeleteAck u8 found (0/1) | u32 oid | u64 seq
//!          0x89 TopKV2    u64 trace_id (0 = untraced) | u32 count |
//!                         count × (u32 id, f64 dist) |
//!                         u8 has_stats | [QueryCost, see below]
//!          0x8A MetricsText utf-8 Prometheus text document
//!          0x8B CollectionAck  u8 existed (0/1)
//!          0x8C CollectionList u32 count | count × (u16 name_len |
//!                              name | u32 dim | u64 objects)
//!          0x8F Error     u16 ErrorKind code | utf-8 message
//!          0x90 ReplBatch u64 last_seq | u32 count | count × record
//! ```
//!
//! A replication *record* is one WAL entry on the wire: `u64 seq | u8
//! kind`, where kind 1 (insert) continues `u32 oid | u64 tag | u32
//! label | u32 dim | dim × f32` and kind 2 (delete) continues `u32
//! oid`. A `ReplBatch` with no records is a heartbeat: `last_seq`
//! tells the subscriber the primary's high-water mark (equal to the
//! acked seq when caught up). The subscribe/ack exchange is a pull
//! loop: the follower sends `ReplSubscribe` once, applies each
//! `ReplBatch`, and answers with `ReplAck` to request the next.
//!
//! The QueryV2 *filter block* serializes a [`c2lsh::Predicate`]: `u8
//! clause mask (bit0 = label_eq, bit1 = tag_any, bit2 = tag_all)`
//! followed by the present clauses in that order (`u32 label`, `u64
//! tag_any`, `u64 tag_all`). Unknown clause bits, like unknown flag
//! bits, are malformed: a node must not silently drop a condition a
//! newer peer asked for.
//!
//! `QueryCost` (present when `has_stats = 1`): `u32 rounds | u64
//! collisions | u64 verified | u64 abandoned | u64 filtered | u64
//! io_reads | u64 elapsed_nanos | u64 snapshot_seq | 4 × u64 stage
//! nanos (hash, count, verify, rank) | u32 span_count | span_count ×
//! (u8 name_len | name utf-8 | u64 start_ns | u64 dur_ns | u8 depth |
//! u64 detail)`.
//!
//! Error frames carry the *stable numeric code* of
//! [`c2lsh::ErrorKind`] ahead of the prose, so clients branch on the
//! kind without string matching; unknown codes decode as
//! `ErrorKind::Internal`.
//!
//! An `InsertAck`/`DeleteAck` is sent only after the mutation's WAL
//! record is fsynced, so receiving one certifies durability; `seq` is
//! the WAL sequence number (for a delete miss, `found = 0` and `seq`
//! is the server's current high-water mark).
//!
//! Distances travel as `f64` so a served answer is bit-identical to a
//! local [`cc_vector::gt::Neighbor`] — the integration tests compare
//! them with `total_cmp` equality, no tolerance.

use c2lsh::{Error, ErrorKind, Predicate};
use cc_obs::SpanRecord;
use cc_storage::wal::{WalOp, WalRecord};
use cc_vector::gt::Neighbor;
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (guards the length word against
/// garbage: 16 MiB comfortably holds a 1M-dimensional query).
pub const MAX_FRAME: usize = 16 << 20;

/// The largest dimensionality a vector frame can carry. The largest frame
/// that carries one vector is the [`Response::ReplBatch`] shipping one
/// tagged insert (42 bytes + 4 per coordinate), so an insert of up to
/// this many coordinates is one a follower can be sent. A collection of
/// more dimensions could never be written to or queried.
pub(crate) const MAX_DIM: usize = (MAX_FRAME - 42) / 4;

/// One row of a [`Response::CollectionList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionInfo {
    /// Collection name.
    pub name: String,
    /// Dimensionality of its vectors.
    pub dim: u32,
    /// Live objects it currently holds.
    pub objects: u64,
}

/// Per-query cost summary a [`Request::QueryV2`] can ask for: the
/// engine-side counters plus stage timings and (when tracing) the
/// span tree, compact enough to ride every response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryCost {
    /// Virtual-rehashing rounds executed.
    pub rounds: u32,
    /// Total collisions counted.
    pub collisions: u64,
    /// Candidates whose exact distance was computed.
    pub verified: u64,
    /// Candidates abandoned by early-termination bounds.
    pub abandoned: u64,
    /// Candidates rejected by the query's filter predicate before any
    /// distance work.
    pub filtered: u64,
    /// Backend page reads (0 for in-memory backends).
    pub io_reads: u64,
    /// Wall-clock nanoseconds the engine spent on this query.
    pub elapsed_nanos: u64,
    /// Snapshot sequence number the query ran against.
    pub snapshot_seq: u64,
    /// Nanoseconds hashing the query into table keys.
    pub hash_ns: u64,
    /// Nanoseconds scanning tables / counting collisions.
    pub count_ns: u64,
    /// Nanoseconds verifying candidate distances.
    pub verify_ns: u64,
    /// Nanoseconds ranking / truncating the candidate set.
    pub rank_ns: u64,
    /// Span tree (empty unless the query was traced).
    pub spans: Vec<SpanRecord>,
}

impl QueryCost {
    /// Summarize an engine-side [`c2lsh::QueryStats`] for the wire.
    pub fn from_stats(stats: &c2lsh::QueryStats) -> Self {
        QueryCost {
            rounds: stats.rounds,
            collisions: stats.collisions_counted,
            verified: stats.candidates_verified as u64,
            abandoned: stats.candidates_abandoned as u64,
            filtered: stats.candidates_filtered as u64,
            io_reads: stats.io.reads,
            elapsed_nanos: stats.elapsed_nanos,
            snapshot_seq: stats.snapshot_seq,
            hash_ns: stats.stage.hash,
            count_ns: stats.stage.count,
            verify_ns: stats.stage.verify,
            rank_ns: stats.stage.rank,
            spans: crate::obs::trace_spans(stats),
        }
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Begin graceful shutdown: the server stops admitting work,
    /// drains its queue, answers everything in flight, then exits.
    Shutdown,
    /// Delete an object by id; answered with [`Response::DeleteAck`].
    Delete {
        /// The object id to remove.
        oid: u32,
    },
    /// One c-k-ANN query: answered with [`Response::TopKV2`],
    /// optionally carrying per-query stats and a trace. Built by
    /// [`crate::QueryRequest`].
    QueryV2 {
        /// Number of neighbors wanted.
        k: u32,
        /// Milliseconds the request may wait in the server's queue
        /// before the server gives up on it; 0 disables the deadline.
        deadline_ms: u32,
        /// Return a [`QueryCost`] block with the answer.
        want_stats: bool,
        /// Trace this query: capture the span tree (implies stats on
        /// the wire) and assign a trace id.
        want_trace: bool,
        /// The query vector.
        vector: Vec<f32>,
        /// Evaluate this predicate inside the collision-counting loop;
        /// only matching points are verified and returned.
        filter: Option<Predicate>,
        /// Route the query to a named collection instead of the
        /// default engine.
        collection: Option<String>,
        /// Read-your-writes freshness bound: the serving node must have
        /// applied at least this sequence number, or answer
        /// [`ErrorKind::Stale`] instead of serving stale data. 0 (the
        /// default) disables the bound and adds nothing to the frame.
        min_seq: u64,
    },
    /// Ask for the Prometheus text exposition (same document the
    /// `--metrics-addr` HTTP listener serves at `/metrics`).
    Metrics,
    /// Create a named collection with its own index (and, on a durable
    /// server, its own WAL directory). Idempotent: creating an
    /// existing collection answers [`Response::CollectionAck`] with
    /// `existed = true` and leaves it untouched.
    CreateCollection {
        /// Collection name (1–64 chars of `[A-Za-z0-9_-]`).
        name: String,
        /// Dimensionality of the collection's vectors.
        dim: u32,
    },
    /// Drop a collection and its on-disk state. Idempotent.
    DropCollection {
        /// Collection name.
        name: String,
    },
    /// List all collections; answered with
    /// [`Response::CollectionList`].
    ListCollections,
    /// Insert a vector with its [`c2lsh::PointMeta`] payload, into a
    /// named collection or (empty name) the default engine; answered
    /// with [`Response::InsertAck`] once the mutation is durable (or
    /// [`Response::Error`] if the engine is immutable or the vector
    /// invalid).
    InsertV2 {
        /// Target collection; `None` routes to the default engine.
        collection: Option<String>,
        /// Tag bitmask stored with the point.
        tag: u64,
        /// Label id stored with the point.
        label: u32,
        /// The vector to insert.
        vector: Vec<f32>,
    },
    /// Subscribe this connection to the primary's replication stream,
    /// asking for records after `from_seq`. Answered with
    /// [`Response::ReplBatch`]; the subscriber keeps the stream alive
    /// with [`Request::ReplAck`].
    ReplSubscribe {
        /// Subscriber's self-chosen name (shows up in the primary's
        /// `cc_replica_lag_seq` gauge; same charset rules as
        /// collection names, refused as invalid otherwise).
        replica: String,
        /// Ship records with sequence numbers strictly greater than
        /// this (the subscriber's current high-water mark).
        from_seq: u64,
    },
    /// Acknowledge application through `applied_seq` and long-poll the
    /// next [`Response::ReplBatch`]. Only valid after a
    /// [`Request::ReplSubscribe`] on the same connection.
    ReplAck {
        /// Highest sequence number the subscriber has durably applied.
        applied_seq: u64,
    },
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// The admission queue was full; retry later.
    Overloaded,
    /// The request's deadline expired before the engine ran it.
    DeadlineExceeded,
    /// Shutdown acknowledged; the connection will close after the
    /// drain completes.
    ShutdownAck,
    /// The insert was applied and is durable.
    InsertAck {
        /// Object id the index assigned.
        oid: u32,
        /// WAL sequence number of the mutation.
        seq: u64,
    },
    /// The delete was processed and (when `found`) is durable.
    DeleteAck {
        /// The requested object id.
        oid: u32,
        /// `true` when the object existed and was removed.
        found: bool,
        /// WAL sequence number (high-water mark for a miss).
        seq: u64,
    },
    /// Answer to a [`Request::QueryV2`]: neighbors plus the optional
    /// cost block and trace id.
    TopKV2 {
        /// Server-assigned trace id (0 when the query was not traced).
        trace_id: u64,
        /// The k nearest verified candidates, ascending by distance.
        neighbors: Vec<Neighbor>,
        /// Per-query cost summary, present when the request set
        /// `want_stats` (or `want_trace`).
        cost: Option<QueryCost>,
    },
    /// Prometheus text exposition document.
    MetricsText(String),
    /// Reply to [`Request::CreateCollection`] /
    /// [`Request::DropCollection`]: whether the collection already
    /// existed (create) or was present to drop (drop).
    CollectionAck {
        /// See above; both operations are idempotent either way.
        existed: bool,
    },
    /// Reply to [`Request::ListCollections`].
    CollectionList(Vec<CollectionInfo>),
    /// The request was rejected (bad dimensionality, k out of range,
    /// server draining, …). Carries the unified [`c2lsh::Error`] whose
    /// [`ErrorKind`] code rides the wire numerically.
    Error(Error),
    /// A batch of WAL records for a replication subscriber. Empty
    /// `records` is a heartbeat; `last_seq` is the primary's current
    /// high-water mark either way.
    ReplBatch {
        /// The primary's highest acknowledged sequence number.
        last_seq: u64,
        /// Records after the subscriber's position, in sequence order.
        records: Vec<WalRecord>,
    },
}

/// Why a frame could not be read, or why the server did not answer a
/// request with its result.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed (includes clean EOF mid-frame).
    Io(io::Error),
    /// The bytes don't parse as a frame of the expected direction, or
    /// the reply is not one the request can get.
    Malformed(String),
    /// The server refused the request with a typed error frame; its
    /// [`Error::kind`] says why.
    Server(Error),
    /// The query was refused at admission (queue full).
    Overloaded,
    /// The query's deadline expired while it was queued.
    DeadlineExceeded,
    /// The node has not applied the query's `min_seq` yet.
    Stale,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::Server(e) => write!(f, "server error: {e}"),
            ProtoError::Overloaded => f.write_str("server overloaded"),
            ProtoError::DeadlineExceeded => f.write_str("deadline exceeded"),
            ProtoError::Stale => f.write_str("replica stale for requested min_seq"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<ProtoError> for Error {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io) => Error::new(ErrorKind::Io, io.to_string()),
            ProtoError::Malformed(m) => Error::new(ErrorKind::Protocol, m),
            ProtoError::Server(e) => e,
            ProtoError::Stale => Error::new(ErrorKind::Stale, ProtoError::Stale.to_string()),
            other => Error::new(ErrorKind::Internal, other.to_string()),
        }
    }
}

// 0x02, 0x05 and 0x82 belonged to the retired first-generation query,
// insert and answer frames, 0x03 and 0x85 to the retired JSON stats
// frames; they stay unassigned.
const OP_PING: u8 = 0x01;
const OP_SHUTDOWN: u8 = 0x04;
const OP_DELETE: u8 = 0x06;
const OP_QUERY_V2: u8 = 0x07;
const OP_METRICS: u8 = 0x08;
const OP_CREATE_COLLECTION: u8 = 0x09;
const OP_DROP_COLLECTION: u8 = 0x0A;
const OP_LIST_COLLECTIONS: u8 = 0x0B;
const OP_INSERT_V2: u8 = 0x0C;
const OP_REPL_SUBSCRIBE: u8 = 0x0D;
const OP_REPL_ACK: u8 = 0x0E;
const OP_PONG: u8 = 0x81;
const OP_OVERLOADED: u8 = 0x83;
const OP_DEADLINE: u8 = 0x84;
const OP_SHUTDOWN_ACK: u8 = 0x86;
const OP_INSERT_ACK: u8 = 0x87;
const OP_DELETE_ACK: u8 = 0x88;
const OP_TOPK_V2: u8 = 0x89;
const OP_METRICS_TEXT: u8 = 0x8A;
const OP_COLLECTION_ACK: u8 = 0x8B;
const OP_COLLECTION_LIST: u8 = 0x8C;
const OP_ERROR: u8 = 0x8F;
const OP_REPL_BATCH: u8 = 0x90;

/// QueryV2 flag bits.
const FLAG_WANT_STATS: u32 = 1;
const FLAG_WANT_TRACE: u32 = 2;
const FLAG_FILTER: u32 = 4;
const FLAG_COLLECTION: u32 = 8;
const FLAG_MIN_SEQ: u32 = 16;
const FLAGS_KNOWN: u32 =
    FLAG_WANT_STATS | FLAG_WANT_TRACE | FLAG_FILTER | FLAG_COLLECTION | FLAG_MIN_SEQ;

/// Replication record kind bytes.
const REC_INSERT: u8 = 1;
const REC_DELETE: u8 = 2;

/// Filter-block clause-mask bits.
const CLAUSE_LABEL: u8 = 1;
const CLAUSE_TAG_ANY: u8 = 2;
const CLAUSE_TAG_ALL: u8 = 4;

/// Longest collection name the wire accepts (the server is stricter).
const MAX_NAME: usize = 256;

fn put_name(buf: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    debug_assert!(bytes.len() <= MAX_NAME, "collection names are short");
    buf.extend_from_slice(&(bytes.len().min(MAX_NAME) as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..bytes.len().min(MAX_NAME)]);
}

fn get_name(cur: &mut Cur<'_>) -> Result<String, ProtoError> {
    let len = cur.u16()? as usize;
    if len > MAX_NAME {
        return Err(ProtoError::Malformed(format!("collection name of {len} bytes")));
    }
    String::from_utf8(cur.take(len)?.to_vec())
        .map_err(|_| ProtoError::Malformed("invalid UTF-8 collection name".into()))
}

fn put_filter(buf: &mut Vec<u8>, pred: &Predicate) {
    let mut mask = 0u8;
    if pred.label_eq.is_some() {
        mask |= CLAUSE_LABEL;
    }
    if pred.tag_any.is_some() {
        mask |= CLAUSE_TAG_ANY;
    }
    if pred.tag_all.is_some() {
        mask |= CLAUSE_TAG_ALL;
    }
    buf.push(mask);
    if let Some(label) = pred.label_eq {
        put_u32(buf, label);
    }
    if let Some(m) = pred.tag_any {
        put_u64(buf, m);
    }
    if let Some(m) = pred.tag_all {
        put_u64(buf, m);
    }
}

fn get_filter(cur: &mut Cur<'_>) -> Result<Predicate, ProtoError> {
    let mask = cur.u8()?;
    if mask & !(CLAUSE_LABEL | CLAUSE_TAG_ANY | CLAUSE_TAG_ALL) != 0 {
        return Err(ProtoError::Malformed(format!("unknown filter clause bits {mask:#04x}")));
    }
    let mut pred = Predicate::any();
    if mask & CLAUSE_LABEL != 0 {
        pred.label_eq = Some(cur.u32()?);
    }
    if mask & CLAUSE_TAG_ANY != 0 {
        pred.tag_any = Some(cur.u64()?);
    }
    if mask & CLAUSE_TAG_ALL != 0 {
        pred.tag_all = Some(cur.u64()?);
    }
    Ok(pred)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// `u32 dim | dim × f32` — how every frame carries a vector.
fn put_vector(buf: &mut Vec<u8>, vector: &[f32]) {
    put_u32(buf, vector.len() as u32);
    for x in vector {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_wal_record(buf: &mut Vec<u8>, rec: &WalRecord) {
    put_u64(buf, rec.seq);
    match &rec.op {
        WalOp::Insert { oid, vector, tag, label } => {
            buf.push(REC_INSERT);
            put_u32(buf, *oid);
            put_u64(buf, *tag);
            put_u32(buf, *label);
            put_vector(buf, vector);
        }
        WalOp::Delete { oid } => {
            buf.push(REC_DELETE);
            put_u32(buf, *oid);
        }
    }
}

fn get_wal_record(cur: &mut Cur<'_>) -> Result<WalRecord, ProtoError> {
    let seq = cur.u64()?;
    let op = match cur.u8()? {
        REC_INSERT => {
            let oid = cur.u32()?;
            let tag = cur.u64()?;
            let label = cur.u32()?;
            WalOp::Insert { oid, vector: cur.vector("record")?, tag, label }
        }
        REC_DELETE => WalOp::Delete { oid: cur.u32()? },
        kind => return Err(ProtoError::Malformed(format!("unknown record kind {kind}"))),
    };
    Ok(WalRecord { seq, op })
}

fn encode_cost(buf: &mut Vec<u8>, cost: &QueryCost) {
    put_u32(buf, cost.rounds);
    put_u64(buf, cost.collisions);
    put_u64(buf, cost.verified);
    put_u64(buf, cost.abandoned);
    put_u64(buf, cost.filtered);
    put_u64(buf, cost.io_reads);
    put_u64(buf, cost.elapsed_nanos);
    put_u64(buf, cost.snapshot_seq);
    put_u64(buf, cost.hash_ns);
    put_u64(buf, cost.count_ns);
    put_u64(buf, cost.verify_ns);
    put_u64(buf, cost.rank_ns);
    put_u32(buf, cost.spans.len() as u32);
    for s in &cost.spans {
        let name = s.name.as_bytes();
        debug_assert!(name.len() <= u8::MAX as usize, "span names are short identifiers");
        buf.push(name.len().min(u8::MAX as usize) as u8);
        buf.extend_from_slice(&name[..name.len().min(u8::MAX as usize)]);
        put_u64(buf, s.start_ns);
        put_u64(buf, s.dur_ns);
        buf.push(s.depth);
        put_u64(buf, s.detail);
    }
}

fn decode_cost(cur: &mut Cur<'_>) -> Result<QueryCost, ProtoError> {
    let mut cost = QueryCost {
        rounds: cur.u32()?,
        collisions: cur.u64()?,
        verified: cur.u64()?,
        abandoned: cur.u64()?,
        filtered: cur.u64()?,
        io_reads: cur.u64()?,
        elapsed_nanos: cur.u64()?,
        snapshot_seq: cur.u64()?,
        hash_ns: cur.u64()?,
        count_ns: cur.u64()?,
        verify_ns: cur.u64()?,
        rank_ns: cur.u64()?,
        spans: Vec::new(),
    };
    let span_count = cur.u32()? as usize;
    if span_count > MAX_FRAME / 26 {
        return Err(ProtoError::Malformed(format!("bad span count {span_count}")));
    }
    cost.spans.reserve(span_count);
    for _ in 0..span_count {
        let name_len = cur.u8()? as usize;
        let name = String::from_utf8(cur.take(name_len)?.to_vec())
            .map_err(|_| ProtoError::Malformed("invalid UTF-8 span name".into()))?;
        cost.spans.push(SpanRecord {
            name: name.into(),
            start_ns: cur.u64()?,
            dur_ns: cur.u64()?,
            depth: cur.u8()?,
            detail: cur.u64()?,
        });
    }
    Ok(cost)
}

/// Encode one request payload (without the length prefix).
fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => vec![OP_PING],
        Request::Shutdown => vec![OP_SHUTDOWN],
        Request::Delete { oid } => {
            let mut buf = Vec::with_capacity(5);
            buf.push(OP_DELETE);
            put_u32(&mut buf, *oid);
            buf
        }
        Request::QueryV2 {
            k,
            deadline_ms,
            want_stats,
            want_trace,
            vector,
            filter,
            collection,
            min_seq,
        } => {
            let mut buf = Vec::with_capacity(17 + vector.len() * 4);
            buf.push(OP_QUERY_V2);
            put_u32(&mut buf, *k);
            put_u32(&mut buf, *deadline_ms);
            let mut flags = 0u32;
            if *want_stats {
                flags |= FLAG_WANT_STATS;
            }
            if *want_trace {
                flags |= FLAG_WANT_TRACE;
            }
            if filter.is_some() {
                flags |= FLAG_FILTER;
            }
            if collection.is_some() {
                flags |= FLAG_COLLECTION;
            }
            if *min_seq > 0 {
                flags |= FLAG_MIN_SEQ;
            }
            put_u32(&mut buf, flags);
            put_vector(&mut buf, vector);
            if let Some(pred) = filter {
                put_filter(&mut buf, pred);
            }
            if let Some(name) = collection {
                put_name(&mut buf, name);
            }
            if *min_seq > 0 {
                put_u64(&mut buf, *min_seq);
            }
            buf
        }
        Request::Metrics => vec![OP_METRICS],
        Request::CreateCollection { name, dim } => {
            let mut buf = Vec::with_capacity(7 + name.len());
            buf.push(OP_CREATE_COLLECTION);
            put_name(&mut buf, name);
            put_u32(&mut buf, *dim);
            buf
        }
        Request::DropCollection { name } => {
            let mut buf = Vec::with_capacity(3 + name.len());
            buf.push(OP_DROP_COLLECTION);
            put_name(&mut buf, name);
            buf
        }
        Request::ListCollections => vec![OP_LIST_COLLECTIONS],
        Request::InsertV2 { collection, tag, label, vector } => {
            let name = collection.as_deref().unwrap_or("");
            let mut buf = Vec::with_capacity(19 + name.len() + vector.len() * 4);
            buf.push(OP_INSERT_V2);
            put_name(&mut buf, name);
            put_u64(&mut buf, *tag);
            put_u32(&mut buf, *label);
            put_vector(&mut buf, vector);
            buf
        }
        Request::ReplSubscribe { replica, from_seq } => {
            let mut buf = Vec::with_capacity(11 + replica.len());
            buf.push(OP_REPL_SUBSCRIBE);
            put_name(&mut buf, replica);
            put_u64(&mut buf, *from_seq);
            buf
        }
        Request::ReplAck { applied_seq } => {
            let mut buf = Vec::with_capacity(9);
            buf.push(OP_REPL_ACK);
            put_u64(&mut buf, *applied_seq);
            buf
        }
    }
}

/// Encode one response payload (without the length prefix).
fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Pong => vec![OP_PONG],
        Response::Overloaded => vec![OP_OVERLOADED],
        Response::DeadlineExceeded => vec![OP_DEADLINE],
        Response::ShutdownAck => vec![OP_SHUTDOWN_ACK],
        Response::InsertAck { oid, seq } => {
            let mut buf = Vec::with_capacity(13);
            buf.push(OP_INSERT_ACK);
            put_u32(&mut buf, *oid);
            buf.extend_from_slice(&seq.to_le_bytes());
            buf
        }
        Response::DeleteAck { oid, found, seq } => {
            let mut buf = Vec::with_capacity(14);
            buf.push(OP_DELETE_ACK);
            buf.push(u8::from(*found));
            put_u32(&mut buf, *oid);
            buf.extend_from_slice(&seq.to_le_bytes());
            buf
        }
        Response::TopKV2 { trace_id, neighbors, cost } => {
            let mut buf = Vec::with_capacity(14 + neighbors.len() * 12);
            buf.push(OP_TOPK_V2);
            put_u64(&mut buf, *trace_id);
            put_u32(&mut buf, neighbors.len() as u32);
            for n in neighbors {
                put_u32(&mut buf, n.id);
                buf.extend_from_slice(&n.dist.to_le_bytes());
            }
            match cost {
                Some(c) => {
                    buf.push(1);
                    encode_cost(&mut buf, c);
                }
                None => buf.push(0),
            }
            buf
        }
        Response::MetricsText(text) => {
            let mut buf = Vec::with_capacity(1 + text.len());
            buf.push(OP_METRICS_TEXT);
            buf.extend_from_slice(text.as_bytes());
            buf
        }
        Response::CollectionAck { existed } => vec![OP_COLLECTION_ACK, u8::from(*existed)],
        Response::CollectionList(infos) => {
            let mut buf = Vec::with_capacity(5 + infos.len() * 20);
            buf.push(OP_COLLECTION_LIST);
            put_u32(&mut buf, infos.len() as u32);
            for info in infos {
                put_name(&mut buf, &info.name);
                put_u32(&mut buf, info.dim);
                put_u64(&mut buf, info.objects);
            }
            buf
        }
        Response::Error(err) => {
            let msg = err.message();
            let mut buf = Vec::with_capacity(3 + msg.len());
            buf.push(OP_ERROR);
            buf.extend_from_slice(&err.kind().code().to_le_bytes());
            buf.extend_from_slice(msg.as_bytes());
            buf
        }
        Response::ReplBatch { last_seq, records } => {
            let mut buf = Vec::with_capacity(13 + records.len() * 32);
            buf.push(OP_REPL_BATCH);
            put_u64(&mut buf, *last_seq);
            put_u32(&mut buf, records.len() as u32);
            for rec in records {
                put_wal_record(&mut buf, rec);
            }
            buf
        }
    }
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Send one request.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_frame(w, &encode_request(req))
}

/// Send one response.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_frame(w, &encode_response(resp))
}

/// Read one whole frame payload. `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed between frames).
fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(ProtoError::Malformed("empty payload".into()));
    }
    if len > MAX_FRAME {
        return Err(ProtoError::Malformed(format!("frame of {len} bytes exceeds {MAX_FRAME}")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Bounds-checked cursor over a frame payload.
struct Cur<'a> {
    buf: &'a [u8],
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() < n {
            return Err(ProtoError::Malformed(format!(
                "truncated payload: wanted {n} more bytes, {} left",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `u32 dim | dim × f32`; `what` names the frame in the refusal.
    /// The dimensionality is bounded before anything is allocated.
    fn vector(&mut self, what: &str) -> Result<Vec<f32>, ProtoError> {
        let dim = self.u32()? as usize;
        if dim == 0 || dim > MAX_DIM {
            return Err(ProtoError::Malformed(format!("bad {what} dimensionality {dim}")));
        }
        let bytes = self.take(dim * 4)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn utf8_rest(&mut self) -> Result<String, ProtoError> {
        let bytes = std::mem::take(&mut self.buf);
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("invalid UTF-8 text".into()))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!("{} trailing bytes", self.buf.len())))
        }
    }
}

/// Read one request; `Ok(None)` on clean EOF between frames.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ProtoError> {
    let Some(payload) = read_frame(r)? else { return Ok(None) };
    let mut cur = Cur { buf: &payload[1..] };
    let req = match payload[0] {
        OP_PING => Request::Ping,
        OP_SHUTDOWN => Request::Shutdown,
        OP_DELETE => Request::Delete { oid: cur.u32()? },
        OP_QUERY_V2 => {
            let k = cur.u32()?;
            let deadline_ms = cur.u32()?;
            let flags = cur.u32()?;
            if flags & !FLAGS_KNOWN != 0 {
                return Err(ProtoError::Malformed(format!(
                    "unknown query flag bits {flags:#010x}"
                )));
            }
            let vector = cur.vector("query")?;
            let filter = if flags & FLAG_FILTER != 0 { Some(get_filter(&mut cur)?) } else { None };
            let collection =
                if flags & FLAG_COLLECTION != 0 { Some(get_name(&mut cur)?) } else { None };
            let min_seq = if flags & FLAG_MIN_SEQ != 0 { cur.u64()? } else { 0 };
            Request::QueryV2 {
                k,
                deadline_ms,
                want_stats: flags & FLAG_WANT_STATS != 0,
                want_trace: flags & FLAG_WANT_TRACE != 0,
                vector,
                filter,
                collection,
                min_seq,
            }
        }
        OP_METRICS => Request::Metrics,
        OP_CREATE_COLLECTION => {
            let name = get_name(&mut cur)?;
            let dim = cur.u32()?;
            Request::CreateCollection { name, dim }
        }
        OP_DROP_COLLECTION => Request::DropCollection { name: get_name(&mut cur)? },
        OP_LIST_COLLECTIONS => Request::ListCollections,
        OP_INSERT_V2 => {
            let name = get_name(&mut cur)?;
            let tag = cur.u64()?;
            let label = cur.u32()?;
            let vector = cur.vector("insert")?;
            Request::InsertV2 { collection: (!name.is_empty()).then_some(name), tag, label, vector }
        }
        OP_REPL_SUBSCRIBE => {
            let replica = get_name(&mut cur)?;
            let from_seq = cur.u64()?;
            Request::ReplSubscribe { replica, from_seq }
        }
        OP_REPL_ACK => Request::ReplAck { applied_seq: cur.u64()? },
        op => return Err(ProtoError::Malformed(format!("unknown request opcode {op:#04x}"))),
    };
    cur.finish()?;
    Ok(Some(req))
}

/// Read one response; `Ok(None)` on clean EOF between frames.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, ProtoError> {
    let Some(payload) = read_frame(r)? else { return Ok(None) };
    let mut cur = Cur { buf: &payload[1..] };
    let resp = match payload[0] {
        OP_PONG => Response::Pong,
        OP_OVERLOADED => Response::Overloaded,
        OP_DEADLINE => Response::DeadlineExceeded,
        OP_SHUTDOWN_ACK => Response::ShutdownAck,
        OP_INSERT_ACK => {
            let oid = cur.u32()?;
            let seq = cur.u64()?;
            Response::InsertAck { oid, seq }
        }
        OP_DELETE_ACK => {
            let found = match cur.u8()? {
                0 => false,
                1 => true,
                x => return Err(ProtoError::Malformed(format!("bad found flag {x}"))),
            };
            let oid = cur.u32()?;
            let seq = cur.u64()?;
            Response::DeleteAck { oid, found, seq }
        }
        OP_TOPK_V2 => {
            let trace_id = cur.u64()?;
            let count = cur.u32()? as usize;
            if count > MAX_FRAME / 12 {
                return Err(ProtoError::Malformed(format!("bad result count {count}")));
            }
            let mut neighbors = Vec::with_capacity(count);
            for _ in 0..count {
                let id = cur.u32()?;
                let dist = cur.f64()?;
                neighbors.push(Neighbor::new(id, dist));
            }
            let cost = match cur.u8()? {
                0 => None,
                1 => Some(decode_cost(&mut cur)?),
                x => return Err(ProtoError::Malformed(format!("bad has_stats flag {x}"))),
            };
            Response::TopKV2 { trace_id, neighbors, cost }
        }
        OP_METRICS_TEXT => Response::MetricsText(cur.utf8_rest()?),
        OP_COLLECTION_ACK => {
            let existed = match cur.u8()? {
                0 => false,
                1 => true,
                x => return Err(ProtoError::Malformed(format!("bad existed flag {x}"))),
            };
            Response::CollectionAck { existed }
        }
        OP_COLLECTION_LIST => {
            let count = cur.u32()? as usize;
            if count > MAX_FRAME / 14 {
                return Err(ProtoError::Malformed(format!("bad collection count {count}")));
            }
            let mut infos = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_name(&mut cur)?;
                let dim = cur.u32()?;
                let objects = cur.u64()?;
                infos.push(CollectionInfo { name, dim, objects });
            }
            Response::CollectionList(infos)
        }
        OP_ERROR => {
            let kind = ErrorKind::from_code(cur.u16()?);
            Response::Error(Error::new(kind, cur.utf8_rest()?))
        }
        OP_REPL_BATCH => {
            let last_seq = cur.u64()?;
            let count = cur.u32()? as usize;
            if count > MAX_FRAME / 13 {
                return Err(ProtoError::Malformed(format!("bad record count {count}")));
            }
            let mut records = Vec::with_capacity(count);
            for _ in 0..count {
                records.push(get_wal_record(&mut cur)?);
            }
            Response::ReplBatch { last_seq, records }
        }
        op => return Err(ProtoError::Malformed(format!("unknown response opcode {op:#04x}"))),
    };
    cur.finish()?;
    Ok(Some(resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_request(req: Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        read_request(&mut Cursor::new(wire)).unwrap().unwrap()
    }

    fn round_trip_response(resp: Response) -> Response {
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        read_response(&mut Cursor::new(wire)).unwrap().unwrap()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire bytes of one frame of every kind, length prefix
    /// included. Recorded before the v1 frames were retired and the
    /// vector loops moved into helpers: whatever else changes, these
    /// frames must keep encoding to exactly these bytes and decode back.
    #[test]
    fn golden_frame_bytes() {
        let vector = vec![1.5f32, -2.0];
        let requests: Vec<(Request, &str)> = vec![
            (Request::Ping, "0100000001"),
            (Request::Shutdown, "0100000004"),
            (Request::Metrics, "0100000008"),
            (Request::ListCollections, "010000000b"),
            (Request::Delete { oid: 0x0102_0304 }, "050000000604030201"),
            (
                Request::QueryV2 {
                    k: 10,
                    deadline_ms: 250,
                    want_stats: true,
                    want_trace: false,
                    vector: vector.clone(),
                    filter: None,
                    collection: None,
                    min_seq: 0,
                },
                "19000000070a000000fa00000001000000020000000000c03f000000c0",
            ),
            (
                Request::QueryV2 {
                    k: 3,
                    deadline_ms: 0,
                    want_stats: false,
                    want_trace: true,
                    vector: vector.clone(),
                    filter: Some(Predicate::label(7).and_tag_any(0b1010).and_tag_all(0xFF00)),
                    collection: Some("alpha".into()),
                    min_seq: 0x1122_3344_5566_7788,
                },
                "3d0000000703000000000000001e000000020000000000c03f000000c007070000000a0000000000\
                 000000ff0000000000000500616c7068618877665544332211",
            ),
            (
                Request::InsertV2 { collection: None, tag: 0, label: 0, vector: vector.clone() },
                "1b0000000c0000000000000000000000000000020000000000c03f000000c0",
            ),
            (
                Request::InsertV2 {
                    collection: Some("alpha".into()),
                    tag: 0xDEAD_BEEF,
                    label: 42,
                    vector: vector.clone(),
                },
                "200000000c0500616c706861efbeadde000000002a000000020000000000c03f000000c0",
            ),
            (
                Request::CreateCollection { name: "alpha".into(), dim: 128 },
                "0c000000090500616c70686180000000",
            ),
            (Request::DropCollection { name: "alpha".into() }, "080000000a0500616c706861"),
            (
                Request::ReplSubscribe { replica: "f1".into(), from_seq: 9 },
                "0d0000000d020066310900000000000000",
            ),
            (Request::ReplAck { applied_seq: 12 }, "090000000e0c00000000000000"),
        ];
        for (req, golden) in requests {
            let mut wire = Vec::new();
            write_request(&mut wire, &req).unwrap();
            assert_eq!(hex(&wire), golden, "{req:?}");
            assert_eq!(read_request(&mut Cursor::new(wire)).unwrap().unwrap(), req);
        }

        let neighbors = vec![Neighbor::new(3, 0.25), Neighbor::new(9, 2.0)];
        let cost = QueryCost {
            rounds: 2,
            collisions: 1000,
            verified: 42,
            abandoned: 7,
            filtered: 11,
            io_reads: 5,
            elapsed_nanos: 123_456,
            snapshot_seq: 9,
            hash_ns: 100,
            count_ns: 2000,
            verify_ns: 300,
            rank_ns: 40,
            spans: vec![SpanRecord {
                name: "round".into(),
                start_ns: 100,
                dur_ns: 2300,
                depth: 1,
                detail: 16,
            }],
        };
        let responses: Vec<(Response, &str)> = vec![
            (Response::Pong, "0100000081"),
            (Response::Overloaded, "0100000083"),
            (Response::DeadlineExceeded, "0100000084"),
            (Response::ShutdownAck, "0100000086"),
            (Response::MetricsText("cc_up 1\n".into()), "090000008a63635f757020310a"),
            (Response::InsertAck { oid: 12, seq: 99 }, "0d000000870c0000006300000000000000"),
            (
                Response::DeleteAck { oid: 4, found: true, seq: 100 },
                "0e0000008801040000006400000000000000",
            ),
            (
                Response::DeleteAck { oid: 5, found: false, seq: 100 },
                "0e0000008800050000006400000000000000",
            ),
            (Response::CollectionAck { existed: true }, "020000008b01"),
            (
                Response::TopKV2 { trace_id: 0, neighbors: neighbors.clone(), cost: None },
                "260000008900000000000000000200000003000000000000000000d03f0900000000000000000000\
                 4000",
            ),
            (
                Response::TopKV2 { trace_id: 77, neighbors, cost: Some(cost) },
                "a5000000894d000000000000000200000003000000000000000000d03f0900000000000000000000\
                 400102000000e8030000000000002a0000000000000007000000000000000b000000000000000500\
                 00000000000040e201000000000009000000000000006400000000000000d0070000000000002c01\
                 00000000000028000000000000000100000005726f756e646400000000000000fc08000000000000\
                 011000000000000000",
            ),
            (Response::Error(Error::new(ErrorKind::Stale, "behind")), "090000008f0800626568696e64"),
            (
                Response::CollectionList(vec![CollectionInfo {
                    name: "alpha".into(),
                    dim: 8,
                    objects: 90,
                }]),
                "180000008c010000000500616c706861080000005a00000000000000",
            ),
            (
                Response::ReplBatch {
                    last_seq: 3,
                    records: vec![
                        WalRecord {
                            seq: 2,
                            op: WalOp::Insert { oid: 1, vector, tag: 0xF0, label: 7 },
                        },
                        WalRecord { seq: 3, op: WalOp::Delete { oid: 1 } },
                    ],
                },
                "3f0000009003000000000000000200000002000000000000000101000000f0000000000000000700\
                 0000020000000000c03f000000c003000000000000000201000000",
            ),
        ];
        for (resp, golden) in responses {
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).unwrap();
            assert_eq!(hex(&wire), golden, "{resp:?}");
            assert_eq!(read_response(&mut Cursor::new(wire)).unwrap().unwrap(), resp);
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ping,
            Request::Shutdown,
            Request::Delete { oid: u32::MAX },
            Request::Metrics,
            Request::QueryV2 {
                k: 5,
                deadline_ms: 40,
                want_stats: true,
                want_trace: false,
                vector: vec![0.5, -1.25, 0.0, f32::MIN, f32::MAX],
                filter: None,
                collection: None,
                min_seq: 0,
            },
            Request::QueryV2 {
                k: 1,
                deadline_ms: 0,
                want_stats: false,
                want_trace: true,
                vector: vec![9.0],
                filter: Some(Predicate::label(7).and_tag_any(0b1010).and_tag_all(u64::MAX)),
                collection: Some("tenant-a".into()),
                min_seq: u64::MAX,
            },
            Request::QueryV2 {
                k: 3,
                deadline_ms: 10,
                want_stats: false,
                want_trace: false,
                vector: vec![1.0, 2.0],
                filter: Some(Predicate::tag_any(1)),
                collection: None,
                min_seq: 417,
            },
            Request::ReplSubscribe { replica: "follower-1".into(), from_seq: 0 },
            Request::ReplSubscribe { replica: "f".into(), from_seq: u64::MAX },
            Request::ReplAck { applied_seq: 12345 },
            Request::CreateCollection { name: "images".into(), dim: 128 },
            Request::DropCollection { name: "images".into() },
            Request::ListCollections,
            Request::InsertV2 {
                collection: Some("images".into()),
                tag: u64::MAX,
                label: 42,
                vector: vec![0.5, -0.5],
            },
            Request::InsertV2 { collection: None, tag: 0, label: 0, vector: vec![3.0] },
        ] {
            assert_eq!(round_trip_request(req.clone()), req);
        }
    }

    #[test]
    fn unextended_query_v2_keeps_the_pre_collection_wire_shape() {
        // A request with neither filter nor collection must encode to
        // exactly the pre-extension layout: header + flags + vector,
        // nothing trailing, flag bits 2/3 clear.
        let req = Request::QueryV2 {
            k: 4,
            deadline_ms: 9,
            want_stats: true,
            want_trace: false,
            vector: vec![1.0, 2.0, 3.0],
            filter: None,
            collection: None,
            min_seq: 0,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        // len(4) + opcode(1) + k(4) + deadline(4) + flags(4) + dim(4) + 3 × f32.
        assert_eq!(wire.len(), 4 + 1 + 4 + 4 + 4 + 4 + 12);
        let flags = u32::from_le_bytes(wire[13..17].try_into().unwrap());
        assert_eq!(flags & (FLAG_FILTER | FLAG_COLLECTION | FLAG_MIN_SEQ), 0);
    }

    #[test]
    fn min_seq_rides_the_tail_of_the_query_frame() {
        // With the freshness bound set, the flag comes on and the u64
        // is the last eight payload bytes (after filter + collection).
        let req = Request::QueryV2 {
            k: 2,
            deadline_ms: 0,
            want_stats: false,
            want_trace: false,
            vector: vec![0.5],
            filter: Some(Predicate::label(1)),
            collection: Some("c".into()),
            min_seq: 0xDEAD_BEEF,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let flags = u32::from_le_bytes(wire[13..17].try_into().unwrap());
        assert_eq!(flags & FLAG_MIN_SEQ, FLAG_MIN_SEQ);
        let tail = &wire[wire.len() - 8..];
        assert_eq!(tail, &0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(round_trip_request(req.clone()), req);
    }

    #[test]
    fn repl_batches_round_trip() {
        use cc_storage::wal::{WalOp, WalRecord};
        for resp in [
            Response::ReplBatch { last_seq: 0, records: vec![] },
            Response::ReplBatch { last_seq: u64::MAX, records: vec![] },
            Response::ReplBatch {
                last_seq: 3,
                records: vec![
                    WalRecord {
                        seq: 1,
                        op: WalOp::Insert {
                            oid: 0,
                            vector: vec![1.5, -2.5, f32::MAX],
                            tag: u64::MAX,
                            label: 7,
                        },
                    },
                    WalRecord { seq: 2, op: WalOp::Delete { oid: 0 } },
                    WalRecord {
                        seq: 3,
                        op: WalOp::Insert { oid: 1, vector: vec![0.0], tag: 0, label: 0 },
                    },
                ],
            },
        ] {
            assert_eq!(round_trip_response(resp.clone()), resp);
        }
    }

    /// The widest insert a server admits is one its followers can be
    /// sent: a `ReplBatch` of one tagged `MAX_DIM` insert fits a frame
    /// and round-trips, and an `InsertV2` one coordinate wider is refused.
    #[test]
    fn the_widest_admitted_insert_fits_one_repl_batch() {
        use cc_storage::wal::{WalOp, WalRecord};
        let vector = vec![1.5; MAX_DIM];
        let op = WalOp::Insert { oid: u32::MAX, vector, tag: u64::MAX, label: u32::MAX };
        let resp = Response::ReplBatch {
            last_seq: u64::MAX,
            records: vec![WalRecord { seq: u64::MAX, op }],
        };
        assert_eq!(round_trip_response(resp.clone()), resp);

        let wide = Request::InsertV2 {
            collection: None,
            tag: 0,
            label: 0,
            vector: vec![0.0; MAX_DIM + 1],
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &wide).unwrap();
        match read_request(&mut Cursor::new(wire)) {
            Err(ProtoError::Malformed(why)) => assert!(why.contains("dimensionality"), "{why}"),
            other => panic!("an insert of {} coordinates read as {other:?}", MAX_DIM + 1),
        }
    }

    #[test]
    fn repl_batch_rejects_bad_record_kinds_and_truncations() {
        use cc_storage::wal::{WalOp, WalRecord};
        let resp = Response::ReplBatch {
            last_seq: 2,
            records: vec![
                WalRecord {
                    seq: 1,
                    op: WalOp::Insert { oid: 9, vector: vec![1.0, 2.0], tag: 3, label: 4 },
                },
                WalRecord { seq: 2, op: WalOp::Delete { oid: 9 } },
            ],
        };
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        for len in 0..wire.len() {
            match read_response(&mut Cursor::new(&wire[..len])) {
                Ok(None) | Err(_) => {}
                Ok(Some(got)) => panic!("truncation to {len} bytes parsed as {got:?}"),
            }
        }
        // The first record's kind byte follows len(4) + opcode(1) +
        // last_seq(8) + count(4) + seq(8).
        let kind_at = 4 + 1 + 8 + 4 + 8;
        assert_eq!(wire[kind_at], REC_INSERT);
        wire[kind_at] = 0x7E;
        assert!(matches!(
            read_response(&mut Cursor::new(&wire[..])),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_filter_clause_bits_are_malformed() {
        let req = Request::QueryV2 {
            k: 1,
            deadline_ms: 0,
            want_stats: false,
            want_trace: false,
            vector: vec![1.0],
            filter: Some(Predicate::label(3)),
            collection: None,
            min_seq: 0,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        // The clause mask sits right after the single f32 coordinate:
        // len(4) + opcode(1) + 3 × u32 header + dim(4) + f32(4).
        let mask_at = 4 + 1 + 12 + 4 + 4;
        assert_eq!(wire[mask_at], CLAUSE_LABEL);
        wire[mask_at] = 0x80;
        assert!(matches!(read_request(&mut Cursor::new(&wire[..])), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn unknown_query_flag_bits_are_malformed() {
        let req = Request::QueryV2 {
            k: 1,
            deadline_ms: 0,
            want_stats: true,
            want_trace: false,
            vector: vec![1.0],
            filter: None,
            collection: None,
            min_seq: 0,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        // The flags word follows len(4) + opcode(1) + k(4) + deadline(4).
        let flags_at = 4 + 1 + 8;
        assert_eq!(wire[flags_at], FLAG_WANT_STATS as u8);
        // Every bit above `FLAG_MIN_SEQ`, one at a time: a flag this node
        // does not know must not be dropped on the floor.
        for bit in 5..32 {
            let mut patched = wire.clone();
            let flags = FLAG_WANT_STATS | 1 << bit;
            patched[flags_at..flags_at + 4].copy_from_slice(&flags.to_le_bytes());
            assert!(
                matches!(
                    read_request(&mut Cursor::new(&patched[..])),
                    Err(ProtoError::Malformed(_))
                ),
                "flag bit {bit} was accepted"
            );
        }
        assert_eq!(read_request(&mut Cursor::new(wire)).unwrap().unwrap(), req);
    }

    #[test]
    fn collection_frames_round_trip() {
        for resp in [
            Response::CollectionAck { existed: false },
            Response::CollectionAck { existed: true },
            Response::CollectionList(vec![]),
            Response::CollectionList(vec![
                CollectionInfo { name: "a".into(), dim: 8, objects: 0 },
                CollectionInfo { name: "tenant-b_2".into(), dim: 512, objects: u64::MAX },
            ]),
        ] {
            assert_eq!(round_trip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Pong,
            Response::Overloaded,
            Response::DeadlineExceeded,
            Response::ShutdownAck,
            Response::Error(Error::invalid("dim mismatch")),
            Response::Error(Error::new(ErrorKind::Draining, "shutting down")),
            Response::InsertAck { oid: 12, seq: u64::MAX },
            Response::DeleteAck { oid: 4, found: true, seq: 99 },
            Response::DeleteAck { oid: 5, found: false, seq: 0 },
            Response::MetricsText("# HELP cc_up 1\n".into()),
            Response::TopKV2 {
                trace_id: 0,
                neighbors: vec![Neighbor::new(3, 0.25), Neighbor::new(9, 1e300)],
                cost: None,
            },
            Response::TopKV2 {
                trace_id: 77,
                neighbors: vec![],
                cost: Some(QueryCost {
                    rounds: 3,
                    collisions: 1000,
                    verified: 42,
                    abandoned: 7,
                    filtered: 11,
                    io_reads: 5,
                    elapsed_nanos: 123_456,
                    snapshot_seq: 9,
                    hash_ns: 100,
                    count_ns: 2000,
                    verify_ns: 300,
                    rank_ns: 40,
                    spans: vec![
                        SpanRecord {
                            name: "hash".into(),
                            start_ns: 0,
                            dur_ns: 100,
                            depth: 0,
                            detail: 0,
                        },
                        SpanRecord {
                            name: "round".into(),
                            start_ns: 100,
                            dur_ns: 2300,
                            depth: 0,
                            detail: 16,
                        },
                    ],
                }),
            },
        ] {
            assert_eq!(round_trip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn error_frames_carry_the_kind_code() {
        let mut wire = Vec::new();
        write_response(&mut wire, &Response::Error(Error::new(ErrorKind::Draining, "bye")))
            .unwrap();
        // len(4) | opcode(1) | u16 code — the Draining code is 6.
        assert_eq!(&wire[5..7], &6u16.to_le_bytes());
        // An unknown code from a future peer decodes as Internal, not an error.
        wire[5] = 0xEE;
        wire[6] = 0x01;
        match read_response(&mut Cursor::new(wire)).unwrap().unwrap() {
            Response::Error(e) => {
                assert_eq!(e.kind(), c2lsh::ErrorKind::Internal);
                assert_eq!(e.message(), "bye");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn delete_ack_found_flag_must_be_boolean() {
        let mut wire = Vec::new();
        write_response(&mut wire, &Response::DeleteAck { oid: 1, found: true, seq: 2 }).unwrap();
        wire[5] = 2; // the `found` byte, right after len(4) + opcode(1)
        assert!(matches!(
            read_response(&mut Cursor::new(&wire[..])),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_request(&mut Cursor::new(Vec::new())).unwrap().is_none());
        assert!(read_response(&mut Cursor::new(Vec::new())).unwrap().is_none());
    }

    #[test]
    fn torn_frame_is_io_error() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Ping).unwrap();
        wire.pop(); // lose the opcode byte
        wire[0] = 1; // length still claims one byte
        let err = read_request(&mut Cursor::new(&wire[..4])).unwrap_err();
        assert!(matches!(err, ProtoError::Io(_)), "{err}");
    }

    #[test]
    fn garbage_never_panics() {
        // Every truncation of a valid query frame either errors or
        // reports clean EOF — no panics, no bogus successes.
        let mut wire = Vec::new();
        let req = Request::QueryV2 {
            k: 3,
            deadline_ms: 0,
            want_stats: false,
            want_trace: false,
            vector: vec![0.5; 6],
            filter: None,
            collection: None,
            min_seq: 0,
        };
        write_request(&mut wire, &req).unwrap();
        for len in 0..wire.len() {
            match read_request(&mut Cursor::new(&wire[..len])) {
                Ok(None) | Err(_) => {}
                Ok(Some(got)) => panic!("truncation to {len} bytes parsed as {got:?}"),
            }
        }
        // Unknown opcodes are malformed.
        let bogus = [1u8, 0, 0, 0, 0x7F];
        assert!(matches!(
            read_request(&mut Cursor::new(&bogus[..])),
            Err(ProtoError::Malformed(_))
        ));
        // Oversized length words are rejected without allocating.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(matches!(read_request(&mut Cursor::new(&huge[..])), Err(ProtoError::Malformed(_))));
        // Trailing bytes after a well-formed body are rejected.
        let mut padded = Vec::new();
        write_request(&mut padded, &Request::Ping).unwrap();
        padded[0] = 2; // grow the declared length
        padded.push(0xAB);
        assert!(matches!(
            read_request(&mut Cursor::new(&padded[..])),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_topk_v2_never_panics() {
        let resp = Response::TopKV2 {
            trace_id: 42,
            neighbors: vec![Neighbor::new(1, 0.5), Neighbor::new(2, 1.5)],
            cost: Some(QueryCost {
                rounds: 2,
                spans: vec![SpanRecord {
                    name: "rank".into(),
                    start_ns: 5,
                    dur_ns: 6,
                    depth: 1,
                    detail: 7,
                }],
                ..QueryCost::default()
            }),
        };
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        for len in 0..wire.len() {
            match read_response(&mut Cursor::new(&wire[..len])) {
                Ok(None) | Err(_) => {}
                Ok(Some(got)) => panic!("truncation to {len} bytes parsed as {got:?}"),
            }
        }
        assert_eq!(read_response(&mut Cursor::new(wire)).unwrap().unwrap(), resp);
    }
}
