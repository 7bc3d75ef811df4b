//! The serving core: accept loop, per-connection handlers, and the
//! batching worker that coalesces queued queries into engine batches.
//!
//! ```text
//!             ┌────────────┐   bounded queue    ┌─────────────┐
//!  conn 1 ──▶ │ handler 1  │ ──┐                │   batcher   │
//!  conn 2 ──▶ │ handler 2  │ ──┼──▶ VecDeque ──▶│ (coalesces, │──▶ C2lshIndex
//!   ...       │    ...     │ ──┘   + Condvar    │  flushes)   │    ::query_batch
//!  conn C ──▶ │ handler C  │ ◀──── mpsc reply ──┴─────────────┘
//!             └────────────┘
//! ```
//!
//! Every connection gets a thread (scoped — [`serve`] returns only
//! after all of them joined) from the accept loop the router shares.
//! A frame's first byte may be waited for indefinitely, the rest of it
//! for [`FRAME_DEADLINE`]. A handler never touches the engine
//! directly: it validates the request, pushes work onto the shared
//! queue and blocks on a private reply channel. The single batcher
//! thread drains the queue — waiting up to [`ServiceConfig::max_delay`]
//! for the batch to fill to [`ServiceConfig::max_batch`] — and answers
//! a whole batch with one [`ServeEngine::query_batch_with`] call, so
//! concurrent clients share the engine's scoped-parallel executor
//! instead of contending for it.
//!
//! The engine behind the queue is anything implementing
//! [`ServeEngine`]: the read-only [`C2lshIndex`] or the mutable,
//! WAL-backed [`c2lsh::MutableIndex`], which [`ServeEngine::mutable`]
//! hands over for writes, checkpoints and replication pulls. When a
//! flush contains both
//! mutations and queries, the mutations are applied first — as one
//! group-committed [`c2lsh::MutableIndex::apply_batch`] — and the
//! queries then run against the post-batch snapshot. Acknowledgements
//! go out only after the batch's WAL fsync, so a client that received
//! an ack and then queries always sees its own write
//! (read-your-writes), and the write survives a crash.
//!
//! A request that names a collection joins the same queue, tagged with
//! its collection; the batcher flushes each drained batch once per
//! target, so collections get the same admission, deadlines,
//! coalescing and drain as the default engine.
//!
//! **Admission control** is a hard bound: when the queue already holds
//! [`ServiceConfig::queue_capacity`] requests, new queries are refused
//! with [`Response::Overloaded`] *immediately* (the handler never
//! blocks on a full queue — the client decides whether to retry).
//! **Deadlines** are per-request: a query carrying `deadline_ms` that
//! is still queued when the deadline passes is answered with
//! [`Response::DeadlineExceeded`] instead of occupying engine time.
//! **Shutdown** is graceful: the drain flag flips under the queue lock
//! (so no request can slip in behind the batcher's final sweep), the
//! queue is flushed, every waiting client gets its answer, and idle
//! connections are force-closed after [`ServiceConfig::drain_grace`].
//!
//! Every count the serving core keeps lives in its [`ServerObs`]
//! registry and is read through the Prometheus exposition (opcode
//! `0x08`, or `/metrics` with `--metrics-addr`); the [`ServiceStats`]
//! returned at drain is read from the same counters.

use crate::collections::{check_name, Collection, CollectionsConfig, Registry};
use crate::obs::ServerObs;
use crate::protocol::{self, ProtoError, QueryCost, Request, Response};
use c2lsh::engine::SearchOptions;
use c2lsh::stats::{BatchStats, QueryStats};
use c2lsh::{
    C2lshIndex, Error, ErrorKind, MutableIndex, MutationAck, MutationOp, PagedStore, PointMeta,
    Predicate,
};
use cc_obs::{Deadline, ObsConfig};
use cc_vector::dataset::Dataset;
use cc_vector::gt::Neighbor;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// What the serving layer needs from an engine: the read path, and the
/// [`MutableIndex`] behind it if there is one. Implemented by the
/// read-only [`C2lshIndex`] and [`PagedStore`] (mutations refused at
/// admission) and by [`MutableIndex`] (snapshot reads + WAL-backed
/// mutations).
pub trait ServeEngine: Sync {
    /// Dataset dimensionality (used to validate requests).
    fn dim(&self) -> usize;

    /// Live objects served.
    fn len(&self) -> usize;

    /// Whether the engine currently serves no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parts the index was built over (1 for engines that are not
    /// split); exported as `cc_shards`.
    fn num_shards(&self) -> usize {
        1
    }

    /// Answer a whole batch of queries; semantics of
    /// [`C2lshIndex::query_batch_with`].
    fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats);

    /// The mutable index behind the engine, through which the server
    /// applies writes, checkpoints and serves replication pulls; `None`
    /// for a read-only engine, whose writes are refused at admission and
    /// whose applied sequence is 0.
    fn mutable(&self) -> Option<&MutableIndex> {
        None
    }
}

impl ServeEngine for C2lshIndex<'_> {
    fn dim(&self) -> usize {
        C2lshIndex::dim(self)
    }

    fn len(&self) -> usize {
        C2lshIndex::len(self)
    }

    fn num_shards(&self) -> usize {
        C2lshIndex::num_shards(self)
    }

    fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        C2lshIndex::query_batch_with(self, queries, k, opts)
    }
}

/// The out-of-core disk tier serves read-only, exactly like the
/// resident index: posting lists and vectors stream through the pinned
/// buffer pool, mutations are refused at admission.
impl ServeEngine for PagedStore {
    fn dim(&self) -> usize {
        PagedStore::dim(self)
    }

    fn len(&self) -> usize {
        PagedStore::len(self)
    }

    fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        PagedStore::query_batch_with(self, queries, k, opts)
    }
}

impl ServeEngine for MutableIndex {
    fn dim(&self) -> usize {
        MutableIndex::dim(self)
    }

    fn len(&self) -> usize {
        MutableIndex::len(self)
    }

    fn query_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> (Vec<(Vec<Neighbor>, QueryStats)>, BatchStats) {
        MutableIndex::query_batch_with(self, queries, k, opts)
    }

    fn mutable(&self) -> Option<&MutableIndex> {
        Some(self)
    }
}

/// Tunables of the serving layer (the engine has its own config).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most queries answered by one engine batch; a flush triggers as
    /// soon as this many are queued. At least 1: [`serve`] refuses 0.
    pub max_batch: usize,
    /// How long the batcher lingers for more work before flushing a
    /// partial batch (the latency cost of coalescing).
    pub max_delay: Duration,
    /// Admission bound: queries arriving while this many are already
    /// queued are refused with [`Response::Overloaded`].
    pub queue_capacity: usize,
    /// Largest accepted `k` (guards the per-request memory bound).
    pub k_max: usize,
    /// After the drain, how long to wait for idle connections to hang
    /// up on their own before force-closing them.
    pub drain_grace: Duration,
    /// Checkpoint policy: after a flush that applied mutations, the
    /// batcher writes a checkpoint and truncates the WAL once it
    /// exceeds this many bytes (so recovery time stays bounded instead
    /// of the log replaying the whole history — including any bulk
    /// seed — forever). A graceful drain always writes a final
    /// checkpoint regardless. `u64::MAX` disables the size trigger.
    pub checkpoint_wal_bytes: u64,
    /// Observability switches: histograms, trace sampling and the slow
    /// log. Off by default, so the query path pays nothing. (Ignored
    /// by [`serve_with_obs`], which takes a pre-built registry.)
    pub obs: ObsConfig,
    /// How named collections are provisioned: durable root directory
    /// (default none — ephemeral) and index parameters.
    pub collections: CollectionsConfig,
    /// Refuse every direct mutation (insert/delete and collection
    /// create/drop/insert) with [`ErrorKind::Unsupported`]. Set on
    /// follower nodes, whose state may only advance through the
    /// replication stream — a direct write would fork the sequence
    /// history from the primary's.
    pub read_only: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            queue_capacity: 1024,
            k_max: 1024,
            drain_grace: Duration::from_secs(5),
            checkpoint_wal_bytes: 16 << 20,
            obs: ObsConfig::default(),
            collections: CollectionsConfig::default(),
            read_only: false,
        }
    }
}

/// The service counters [`serve`] returns after the drain, read from
/// its [`ServerObs`] registry — the counters `/metrics` exposes, each
/// event counted once, there.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Queries answered with a [`Response::TopKV2`].
    pub queries: u64,
    /// Engine calls made (one per predicate group of a flush).
    pub batches: u64,
    /// Most queries one engine call answered.
    pub max_batch: u64,
    /// Queries refused at admission (queue full).
    pub overloaded: u64,
    /// Queries whose deadline expired while queued.
    pub deadline_expired: u64,
    /// Requests answered with [`Response::Error`].
    pub errors: u64,
    /// Inserts acknowledged.
    pub inserts: u64,
    /// Deletes acknowledged (found or not).
    pub deletes: u64,
    /// Flushes that applied at least one mutation.
    pub mutation_batches: u64,
    /// WAL-truncating checkpoints written (size-triggered plus the
    /// final one on a graceful drain).
    pub checkpoints: u64,
}

/// One admitted query waiting for the batcher.
struct Pending {
    vector: Vec<f32>,
    k: usize,
    /// Predicate evaluated inside the engine's counting loop; queries
    /// with equal filters still coalesce into one engine batch.
    filter: Option<Predicate>,
    deadline: Option<Instant>,
    /// When the query entered the queue (feeds the queue-wait
    /// histogram).
    enqueued_at: Instant,
    /// Attach a [`QueryCost`] block to the reply.
    want_stats: bool,
    /// Capture a span tree and assign a trace id.
    want_trace: bool,
    tx: mpsc::Sender<Response>,
}

/// One unit of admitted work.
enum Work {
    Query(Pending),
    /// An insert or delete plus its reply channel; acknowledged only
    /// after the flush's WAL fsync.
    Mutation {
        op: MutationOp,
        tx: mpsc::Sender<Response>,
    },
}

/// Queue state guarded by one mutex: the drain flag lives *inside* so
/// admission and the batcher's exit decision serialize — once a
/// handler admits a query under the lock, the batcher cannot already
/// have made its final sweep.
struct Queue {
    /// Admitted work with its collection (`None` = the default engine).
    items: VecDeque<(Option<Arc<Collection>>, Work)>,
    draining: bool,
}

/// Most distinct replica names the lag board holds. A pull under a new
/// name once it is full is refused, so a client that subscribes under
/// fresh names grows neither the board nor the exposition; a name
/// already on it keeps pulling.
pub const MAX_REPLICAS: usize = 64;

/// Replication progress per connected subscriber, shared between the
/// connection handlers (which update it on every subscribe/ack) and
/// the metrics renderer (which turns it into the per-replica
/// `cc_replica_lag_seq` gauge).
struct ReplicaBoard {
    /// The primary's high-water mark as of the last replication
    /// interaction (kept here so the lag gauge needs no engine access).
    last_seq: AtomicU64,
    /// replica name → highest sequence number it acknowledged.
    acked: Mutex<HashMap<String, u64>>,
}

impl ReplicaBoard {
    /// Record that `replica` acknowledged `acked`; `false`, recording
    /// nothing, for a new name when the board already holds
    /// [`MAX_REPLICAS`].
    fn record(&self, replica: &str, acked: u64) -> bool {
        let mut board = self.acked.lock().unwrap();
        if board.len() >= MAX_REPLICAS && !board.contains_key(replica) {
            return false;
        }
        board.insert(replica.to_string(), acked);
        true
    }

    fn lag_rows(&self) -> Vec<(String, u64)> {
        let last = self.last_seq.load(Ordering::Relaxed);
        let mut rows: Vec<(String, u64)> = self
            .acked
            .lock()
            .unwrap()
            .iter()
            .map(|(name, &acked)| (name.clone(), last.saturating_sub(acked)))
            .collect();
        rows.sort();
        rows
    }
}

/// The accept loop the server and the router share: one scoped thread
/// per connection, registered while it runs so that a drain can sever
/// what is left.
pub(crate) struct Front {
    stopping: AtomicBool,
    conns: Mutex<Vec<(usize, TcpStream)>>,
    local_addr: SocketAddr,
}

impl Front {
    pub(crate) fn new(listener: &TcpListener) -> io::Result<Front> {
        let local_addr = listener.local_addr()?;
        Ok(Front { stopping: AtomicBool::new(false), conns: Mutex::new(Vec::new()), local_addr })
    }

    /// Serve every connection `listener` accepts with `serve`, each on a
    /// thread of `scope`, until [`Front::stop`]; the listener is closed
    /// when this returns.
    pub(crate) fn accept<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        listener: TcpListener,
        serve: impl Fn(&mut TcpStream) + Copy + Send + 'scope,
    ) {
        for (id, stream) in listener.incoming().enumerate() {
            if self.stopped() {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            if let Ok(clone) = stream.try_clone() {
                self.conns.lock().unwrap().push((id, clone));
            }
            scope.spawn(move || {
                let _ = stream.set_nodelay(true);
                serve(&mut stream);
                self.conns.lock().unwrap().retain(|(cid, _)| *cid != id);
            });
        }
    }

    /// Whether [`Front::stop`] was called.
    pub(crate) fn stopped(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// End the accept loop: it re-checks the flag per connection, so one
    /// throwaway local connection gets it past `accept`.
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Give open connections up to `grace` to hang up on their own, then
    /// sever the rest so that the scope can join.
    pub(crate) fn close(&self, grace: Duration) {
        let end = Instant::now() + grace;
        while !self.conns.lock().unwrap().is_empty() && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(5));
        }
        for (_, conn) in self.conns.lock().unwrap().iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

struct Shared {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    front: Front,
    obs: Arc<ServerObs>,
    collections: Arc<Registry>,
    replicas: Arc<ReplicaBoard>,
}

/// Run the service until a [`Request::Shutdown`] arrives: accept
/// connections on `listener`, answer queries from `engine`, then drain
/// and return the final [`ServiceStats`] snapshot. All worker threads
/// are scoped — when this returns, none survive. Builds a private
/// metric registry from [`ServiceConfig::obs`]; use [`serve_with_obs`]
/// to share one with a scrape listener.
pub fn serve<E: ServeEngine>(
    engine: &E,
    listener: TcpListener,
    config: &ServiceConfig,
) -> io::Result<ServiceStats> {
    serve_with_obs(engine, listener, config, Arc::new(ServerObs::new(config.obs)))
}

/// Like [`serve`], but over a caller-owned [`ServerObs`] — the same
/// registry can then back a [`cc_obs::MetricsServer`] serving
/// `/metrics` while this function runs. The returned event counts are
/// that registry's, so hand each call a registry of its own.
pub fn serve_with_obs<E: ServeEngine>(
    engine: &E,
    listener: TcpListener,
    config: &ServiceConfig,
    obs: Arc<ServerObs>,
) -> io::Result<ServiceStats> {
    if config.max_batch == 0 {
        // A batch of none would leave every admitted request unanswered.
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "max_batch must be at least 1"));
    }
    let front = Front::new(&listener)?;
    obs.set_index_info(engine.len() as u64, engine.dim() as u64, engine.num_shards() as u64);
    let collections = Arc::new(Registry::open(config.collections.clone())?);
    // The scrape listener renders per-collection series through this
    // Arc; it stays valid after serve returns because the closure owns
    // its own clone.
    obs.set_collections_source({
        let registry = Arc::clone(&collections);
        Box::new(move || registry.metrics_rows())
    });
    let replicas = Arc::new(ReplicaBoard {
        last_seq: AtomicU64::new(engine.mutable().map_or(0, MutableIndex::last_seq)),
        acked: Mutex::new(HashMap::new()),
    });
    obs.set_replicas_source({
        let board = Arc::clone(&replicas);
        Box::new(move || board.lag_rows())
    });
    let shared = Shared {
        queue: Mutex::new(Queue { items: VecDeque::new(), draining: false }),
        not_empty: Condvar::new(),
        front,
        obs,
        collections,
        replicas,
    };
    let shared = &shared;
    let stats = std::thread::scope(move |s| {
        let batcher = s.spawn(move || batcher_loop(engine, shared, config));
        shared.front.accept(s, listener, move |stream| {
            let _ = serve_connection(engine, shared, config, stream);
        });
        batcher.join().expect("batch worker panicked");
        // Final checkpoint: a graceful drain leaves an empty WAL, so
        // the next start replays nothing. Acked writes are already
        // durable via the WAL, so a failure here only costs restart
        // time — report it, don't fail the drain.
        match engine.mutable().map(|index| index.checkpoint_if_wal_exceeds(0)) {
            Some(Ok(true)) => shared.obs.checkpoints.inc(),
            Some(Err(e)) => eprintln!("final checkpoint failed: {e}"),
            _ => {}
        }
        // Same deal for every durable collection.
        shared.obs.checkpoints.add(shared.collections.checkpoint_all(0));
        // Handlers deregister on exit; give stragglers (clients that
        // keep idle connections open across the shutdown) a grace
        // period, then sever them so the scope can join.
        shared.front.close(config.drain_grace);
        service_stats(&shared.obs)
    });
    Ok(stats)
}

/// How long a [`Request::ReplAck`] long-polls for fresh records before
/// answering with a heartbeat (an empty [`Response::ReplBatch`]).
const REPL_POLL: Duration = Duration::from_millis(250);
/// Poll granularity inside the long-poll window.
const REPL_POLL_STEP: Duration = Duration::from_millis(5);
/// Soft cap on the payload bytes of one [`Response::ReplBatch`].
const REPL_BATCH_BYTES: usize = 4 << 20;

/// Records per [`Response::ReplBatch`], derived from the engine's
/// dimensionality so a full batch stays under [`REPL_BATCH_BYTES`]
/// (each insert record is ~29 bytes + 4 per coordinate).
fn repl_batch_cap(dim: usize) -> usize {
    (REPL_BATCH_BYTES / (29 + dim * 4)).clamp(1, 1024)
}

/// Answer one replication pull: ship the tail after `from_seq`, update
/// the lag board, surface engine refusals as typed errors. The board
/// only ever holds names that pass the collection-name rules, and at
/// most [`MAX_REPLICAS`] of them.
fn answer_repl_pull<E: ServeEngine>(
    engine: &E,
    shared: &Shared,
    replica: &str,
    from_seq: u64,
) -> Response {
    if let Err(e) = check_name("replica", replica) {
        return Response::Error(e);
    }
    let Some(index) = engine.mutable() else {
        return Response::Error(Error::new(
            ErrorKind::Unsupported,
            "engine has no replication log",
        ));
    };
    match index.replication_tail(from_seq, repl_batch_cap(engine.dim())) {
        Ok((last_seq, records)) => {
            if !shared.replicas.record(replica, from_seq) {
                return Response::Error(Error::invalid(format!(
                    "replica {replica:?} refused: the lag board holds {MAX_REPLICAS} replicas"
                )));
            }
            let last_seq = last_seq.max(index.last_seq());
            shared.replicas.last_seq.store(last_seq, Ordering::Relaxed);
            Response::ReplBatch { last_seq, records }
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            // Below the retained floor: the subscriber must re-seed.
            Response::Error(Error::invalid(e.to_string()))
        }
        Err(e) => Response::Error(Error::new(ErrorKind::Io, e.to_string())),
    }
}

/// Longest the rest of a request frame may take to arrive once its first
/// byte has: past it the frame is refused as malformed, so a sender that
/// stops halfway cannot hold its handler thread. An idle connection, one
/// with no byte of a next frame sent, may wait as long as it likes.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Read the next request; `None` is a clean hang-up between frames. A
/// malformed frame, or one not completed within [`FRAME_DEADLINE`], is
/// counted and answered with the reason before the error closes the
/// connection: after a framing violation the stream position is
/// unreliable. The router's connections read the same way.
pub(crate) fn read_request_or_refuse(
    stream: &mut TcpStream,
    obs: &ServerObs,
) -> Result<Option<Request>, ProtoError> {
    let mut first = [0u8; 1];
    stream.set_read_timeout(None)?;
    match stream.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let at = Instant::now() + FRAME_DEADLINE;
    let mut read = protocol::read_request(&mut first.as_slice().chain(Deadline(stream, at)));
    if matches!(read, Err(ProtoError::Io(_))) && Instant::now() >= at {
        let late = format!("frame not completed within {FRAME_DEADLINE:?}");
        read = Err(ProtoError::Malformed(late));
    }
    if let Err(ProtoError::Malformed(msg)) = &read {
        obs.errors.inc();
        let why = Error::new(ErrorKind::Protocol, format!("malformed request: {msg}"));
        let _ = protocol::write_response(stream, &Response::Error(why));
    }
    read
}

fn serve_connection<E: ServeEngine>(
    engine: &E,
    shared: &Shared,
    config: &ServiceConfig,
    stream: &mut TcpStream,
) -> Result<(), ProtoError> {
    // Set once this connection subscribes to the replication stream;
    // ReplAck frames are only meaningful afterwards.
    let mut repl_name: Option<String> = None;
    loop {
        let Some(req) = read_request_or_refuse(stream, &shared.obs)? else { return Ok(()) };
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Metrics => Response::MetricsText(shared.obs.render_prometheus()),
            Request::Shutdown => {
                protocol::write_response(stream, &Response::ShutdownAck)?;
                begin_shutdown(shared);
                return Ok(());
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
                let ask =
                    QueryAsk { k, deadline_ms, vector, want_stats, want_trace, filter, min_seq };
                answer_query(engine, shared, config, collection.as_deref(), ask)
            }
            Request::InsertV2 { .. }
            | Request::Delete { .. }
            | Request::CreateCollection { .. }
            | Request::DropCollection { .. }
                if config.read_only =>
            {
                Response::Error(Error::new(
                    ErrorKind::Unsupported,
                    "node is a read-only follower; route writes to the primary",
                ))
            }
            Request::InsertV2 { collection, tag, label, vector } => {
                let op = MutationOp::Insert { vector, meta: PointMeta::new(tag, label) };
                answer_mutation(engine, shared, config, collection.as_deref(), op)
            }
            Request::Delete { oid } => {
                answer_mutation(engine, shared, config, None, MutationOp::Delete { oid })
            }
            Request::CreateCollection { name, dim } => {
                match shared.collections.create(&name, dim as usize) {
                    Ok(existed) => Response::CollectionAck { existed },
                    Err(e) => Response::Error(e),
                }
            }
            Request::DropCollection { name } => match shared.collections.drop_collection(&name) {
                Ok(existed) => Response::CollectionAck { existed },
                Err(e) => Response::Error(Error::new(
                    ErrorKind::Io,
                    format!("cannot drop collection {name:?}: {e}"),
                )),
            },
            Request::ListCollections => Response::CollectionList(shared.collections.list()),
            Request::ReplSubscribe { replica, from_seq } => {
                // The first pull answers immediately (possibly empty):
                // the subscriber learns the high-water mark and keeps
                // the stream alive with acks.
                let resp = answer_repl_pull(engine, shared, &replica, from_seq);
                if !matches!(resp, Response::Error(_)) {
                    repl_name = Some(replica);
                }
                resp
            }
            Request::ReplAck { applied_seq } => match &repl_name {
                None => Response::Error(Error::new(
                    ErrorKind::Protocol,
                    "ReplAck without a ReplSubscribe on this connection",
                )),
                Some(replica) => {
                    // Long-poll: answer as soon as there are records
                    // past the acked position, or heartbeat after the
                    // poll window (also on drain, so subscribers notice
                    // shutdown promptly).
                    let deadline = Instant::now() + REPL_POLL;
                    loop {
                        if engine.mutable().map_or(0, MutableIndex::last_seq) > applied_seq
                            || Instant::now() >= deadline
                            || shared.front.stopped()
                        {
                            break;
                        }
                        std::thread::sleep(REPL_POLL_STEP);
                    }
                    answer_repl_pull(engine, shared, replica, applied_seq)
                }
            },
        };
        // Error frames are counted where they are written — here and
        // in `read_request_or_refuse` — never where they are produced,
        // so a failed mutation batch counts once per frame.
        if matches!(resp, Response::Error(_)) {
            shared.obs.errors.inc();
        }
        protocol::write_response(stream, &resp)?;
    }
}

/// Where one request runs: the default engine, or a named collection's
/// own index.
struct Target<'a> {
    engine: &'a dyn ServeEngine,
    /// The collection behind `engine`; `None` for the default engine.
    collection: Option<&'a Arc<Collection>>,
}

impl<'a> Target<'a> {
    fn new(default: &'a dyn ServeEngine, collection: Option<&'a Arc<Collection>>) -> Self {
        Target { engine: collection.map_or(default, |col| &col.index), collection }
    }

    /// How error messages name the target.
    fn label(&self) -> String {
        match self.collection {
            Some(col) => format!("collection {:?}", col.name()),
            None => "the index".into(),
        }
    }
}

/// Resolve a request's collection name (`None` = the default engine)
/// and answer it against that target.
fn with_target(
    engine: &dyn ServeEngine,
    shared: &Shared,
    collection: Option<&str>,
    answer: impl FnOnce(Target<'_>) -> Response,
) -> Response {
    let Some(name) = collection else { return answer(Target::new(engine, None)) };
    match shared.collections.get(name) {
        Some(col) => answer(Target::new(engine, Some(&col))),
        None => Response::Error(Error::invalid(format!("unknown collection {name:?}"))),
    }
}

/// One decoded query, not yet validated.
struct QueryAsk {
    k: u32,
    deadline_ms: u32,
    vector: Vec<f32>,
    want_stats: bool,
    want_trace: bool,
    filter: Option<Predicate>,
    /// Read-your-writes bound: refuse (as [`ErrorKind::Stale`]) unless
    /// the target has applied at least this sequence. Zero disables.
    min_seq: u64,
}

/// Everything a query must satisfy before it may reach an engine.
fn validate_query(
    target: &Target<'_>,
    config: &ServiceConfig,
    ask: &QueryAsk,
) -> Result<(), Error> {
    // Freshness gate: the check runs before admission, and the target
    // only ever applies *more* writes between now and the flush, so
    // passing here is conservative-correct for read-your-writes.
    let applied = target.engine.mutable().map_or(0, MutableIndex::last_seq);
    if ask.min_seq > applied {
        return Err(Error::new(
            ErrorKind::Stale,
            format!(
                "{} is at seq {applied} but the query requires at least {}",
                target.label(),
                ask.min_seq
            ),
        ));
    }
    if ask.k == 0 || ask.k as usize > config.k_max {
        return Err(Error::invalid(format!("k = {} out of range 1..={}", ask.k, config.k_max)));
    }
    validate_vector(target, "query", &ask.vector)
}

/// What any vector must satisfy before it may reach an engine; `what`
/// names the request in the refusal.
fn validate_vector(target: &Target<'_>, what: &str, vector: &[f32]) -> Result<(), Error> {
    if vector.len() != target.engine.dim() {
        return Err(Error::invalid(format!(
            "{what} dimensionality {} does not match {} ({})",
            vector.len(),
            target.label(),
            target.engine.dim()
        )));
    }
    // The engine asserts finiteness; a NaN/inf coordinate reaching the
    // batcher would kill it and wedge every later request, so refuse here.
    if !vector.iter().all(|x| x.is_finite()) {
        return Err(Error::invalid(format!("{what} contains non-finite coordinates")));
    }
    Ok(())
}

/// Everything a mutation must satisfy before it may reach an engine.
fn validate_mutation(target: &Target<'_>, op: &MutationOp) -> Result<(), Error> {
    if target.engine.mutable().is_none() {
        return Err(Error::new(
            ErrorKind::Unsupported,
            "engine is immutable: mutations are not supported",
        ));
    }
    match op {
        MutationOp::Insert { vector, .. } => validate_vector(target, "insert", vector),
        MutationOp::Delete { .. } => Ok(()),
    }
}

/// Validate one query, hand it to its target and wait out the answer.
fn answer_query(
    engine: &dyn ServeEngine,
    shared: &Shared,
    config: &ServiceConfig,
    collection: Option<&str>,
    ask: QueryAsk,
) -> Response {
    with_target(engine, shared, collection, |target| {
        if let Err(e) = validate_query(&target, config, &ask) {
            return Response::Error(e);
        }
        let QueryAsk { k, deadline_ms, vector, want_stats, want_trace, filter, .. } = ask;
        let deadline =
            (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms.into()));
        submit(target, shared, config, |tx| {
            Work::Query(Pending {
                vector,
                k: k as usize,
                // Trivial predicates are dropped at admission so the
                // flush groups them with unfiltered traffic.
                filter: filter.filter(|p| !p.is_trivial()),
                deadline,
                enqueued_at: Instant::now(),
                want_stats,
                want_trace,
                tx,
            })
        })
    })
}

/// Validate one mutation, hand it to its target and wait out the ack.
/// The reply comes only after the flush's group-commit fsync, so the
/// returned ack certifies durability.
fn answer_mutation(
    engine: &dyn ServeEngine,
    shared: &Shared,
    config: &ServiceConfig,
    collection: Option<&str>,
    op: MutationOp,
) -> Response {
    with_target(engine, shared, collection, |target| match validate_mutation(&target, &op) {
        Ok(()) => submit(target, shared, config, |tx| Work::Mutation { op, tx }),
        Err(e) => Response::Error(e),
    })
}

/// Queue one validated unit of work for its target — refused when the
/// queue is full, never blocking — and wait for the batcher's reply.
fn submit(
    target: Target<'_>,
    shared: &Shared,
    config: &ServiceConfig,
    work: impl FnOnce(mpsc::Sender<Response>) -> Work,
) -> Response {
    let (tx, rx) = mpsc::channel();
    let mut q = shared.queue.lock().unwrap();
    if q.draining {
        return Response::Error(Error::new(ErrorKind::Draining, "server is draining"));
    }
    if q.items.len() >= config.queue_capacity {
        shared.obs.overloaded.inc();
        return Response::Overloaded;
    }
    q.items.push_back((target.collection.cloned(), work(tx)));
    drop(q);
    shared.not_empty.notify_one();
    // Every admitted request is answered, including during the drain; a
    // dead channel means the batcher panicked.
    rx.recv().unwrap_or_else(|_| {
        Response::Error(Error::new(ErrorKind::Internal, "server shut down before answering"))
    })
}

/// The single batching worker: wait for work, linger for coalescing,
/// flush once per target. Exits once draining *and* empty — both
/// checked under the queue lock, so no admitted request is stranded.
fn batcher_loop<E: ServeEngine>(engine: &E, shared: &Shared, config: &ServiceConfig) {
    loop {
        let batch: Vec<(Option<Arc<Collection>>, Work)> = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if q.items.is_empty() {
                    if q.draining {
                        return;
                    }
                    q = shared.not_empty.wait(q).unwrap();
                    continue;
                }
                if q.items.len() >= config.max_batch || q.draining {
                    break;
                }
                // Linger: hold the pending work (it keeps counting
                // against the admission bound) while waiting for the
                // batch to fill.
                let linger_end = Instant::now() + config.max_delay;
                loop {
                    let now = Instant::now();
                    if now >= linger_end || q.items.len() >= config.max_batch || q.draining {
                        break;
                    }
                    let (guard, _) = shared.not_empty.wait_timeout(q, linger_end - now).unwrap();
                    q = guard;
                }
                break;
            }
            let take = q.items.len().min(config.max_batch);
            q.items.drain(..take).collect()
        };
        // One flush per target, each in queue order. Targets compare by
        // pointer, so a re-created collection is never its predecessor.
        let mut parts: Vec<(Option<Arc<Collection>>, Vec<Work>)> = Vec::new();
        for (col, work) in batch {
            let key = col.as_ref().map(Arc::as_ptr);
            match parts.iter_mut().find(|(c, _)| c.as_ref().map(Arc::as_ptr) == key) {
                Some((_, works)) => works.push(work),
                None => parts.push((col, vec![work])),
            }
        }
        for (col, works) in parts {
            flush(Target::new(engine, col.as_ref()), shared, config, works);
        }
    }
}

/// Execute one batch against its target, account for it, and reply:
/// apply its mutations first (one durable
/// [`MutableIndex::apply_batch`] call — group commit), acknowledge
/// them, then expire stale deadlines and run the remaining queries as
/// one engine batch at the largest requested `k`. Ordering mutations
/// before queries keeps a flush monotone: no query in the batch can
/// miss a mutation that was acknowledged before the query was sent.
fn flush(target: Target<'_>, shared: &Shared, config: &ServiceConfig, batch: Vec<Work>) {
    let (engine, obs) = (target.engine, &shared.obs);
    let now = Instant::now();
    let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
    let mut expired: Vec<Pending> = Vec::new();
    let mut ops: Vec<MutationOp> = Vec::new();
    let mut op_txs: Vec<mpsc::Sender<Response>> = Vec::new();
    for w in batch {
        match w {
            Work::Mutation { op, tx } => {
                ops.push(op);
                op_txs.push(tx);
            }
            Work::Query(p) => match p.deadline {
                Some(d) if d <= now => expired.push(p),
                _ => live.push(p),
            },
        }
    }

    let mut wal_ns: Option<u64> = None;
    if !ops.is_empty() {
        let index = engine.mutable().expect("admission refuses writes to a read-only target");
        let wal_start = obs.on().then(Instant::now);
        match index.apply_batch(&ops) {
            Ok((acks, delta)) => {
                wal_ns = wal_start.map(|s| s.elapsed().as_nanos() as u64);
                let deletes = delta.deletes + delta.delete_misses;
                obs.inserts.add(delta.inserts);
                obs.deletes.add(deletes);
                match target.collection {
                    Some(col) => {
                        col.inserts.add(delta.inserts);
                        col.deletes.add(deletes);
                    }
                    // The live-object gauge follows the default engine.
                    None => obs.set_objects(engine.len() as u64),
                }
                obs.mutation_batches.inc();
                // Replies only after the counters are recorded (and, more
                // importantly, after apply_batch's fsync returned).
                for (tx, ack) in op_txs.iter().zip(acks) {
                    let resp = match ack {
                        MutationAck::Inserted { oid, seq } => Response::InsertAck { oid, seq },
                        MutationAck::Deleted { oid, found, seq } => {
                            Response::DeleteAck { oid, found, seq }
                        }
                    };
                    let _ = tx.send(resp);
                }
                // Size-triggered checkpoint, after the acks went out
                // (they are already WAL-durable; the checkpoint only
                // bounds recovery time). A failure is not a lost write,
                // so it is reported rather than propagated.
                match index.checkpoint_if_wal_exceeds(config.checkpoint_wal_bytes) {
                    Ok(true) => obs.checkpoints.inc(),
                    Ok(false) => {}
                    Err(e) => eprintln!("checkpoint of {} failed: {e}", target.label()),
                }
            }
            // Not counted here: the connection threads count each error
            // frame as they relay it.
            Err(e) => {
                for tx in &op_txs {
                    let _ = tx.send(Response::Error(Error::new(
                        ErrorKind::Io,
                        format!("mutation on {} failed: {e}", target.label()),
                    )));
                }
            }
        }
    }
    let batch_len = live.len();
    // Whole-batch round recording when any client asked for a trace;
    // positional sampling (`trace_every`) when the observability layer
    // is on. Stage timing turns on for either — it is what feeds both
    // the per-stage histograms and the cost blocks.
    let any_trace = live.iter().any(|p| p.want_trace);
    let any_stats = live.iter().any(|p| p.want_stats);
    let sample_every = if obs.on() { obs.config().trace_sample_every } else { 0 };
    let results = if batch_len > 0 {
        // The filter rides SearchOptions (whole-batch scope), so a
        // flush runs one engine call per distinct predicate. Queries
        // sharing a predicate — including the unfiltered majority —
        // still coalesce; answers scatter back to queue order.
        let mut groups: Vec<(Option<Predicate>, Vec<usize>)> = Vec::new();
        for (i, p) in live.iter().enumerate() {
            match groups.iter_mut().find(|(f, _)| *f == p.filter) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((p.filter, vec![i])),
            }
        }
        let mut results: Vec<Option<(Vec<Neighbor>, QueryStats)>> =
            (0..batch_len).map(|_| None).collect();
        for (filter, idxs) in groups {
            let k_max = idxs.iter().map(|&i| live[i].k).max().unwrap();
            let rows: Vec<Vec<f32>> =
                idxs.iter().map(|&i| std::mem::take(&mut live[i].vector)).collect();
            let queries = Dataset::from_rows(&rows);
            let opts = SearchOptions {
                timing: true,
                stage_timing: obs.on() || any_stats || any_trace,
                per_round: any_trace,
                trace_every: sample_every,
                filter,
            };
            let (group_results, agg) = engine.query_batch_with(&queries, k_max, &opts);
            let answered = idxs.len() as u64;
            obs.record_engine_call(answered, &agg);
            if let Some(col) = target.collection {
                col.queries.add(answered);
                col.filtered.add(agg.filtered);
            }
            for (&i, r) in idxs.iter().zip(group_results) {
                results[i] = Some(r);
            }
        }
        results.into_iter().map(|r| r.expect("every live query answered")).collect()
    } else {
        Vec::new()
    };
    obs.deadline_expired.add(expired.len() as u64);
    obs.record_flush(now.elapsed().as_nanos() as u64, wal_ns);
    // Reply only after every counter is recorded: a client holding its
    // answer must find it reflected in an immediate scrape.
    for p in expired {
        let _ = p.tx.send(Response::DeadlineExceeded);
    }
    let answered_at = Instant::now();
    for (p, (mut nn, qstats)) in live.into_iter().zip(results) {
        nn.truncate(p.k);
        let queue_wait_ns = now.saturating_duration_since(p.enqueued_at).as_nanos() as u64;
        let total_ns = answered_at.saturating_duration_since(p.enqueued_at).as_nanos() as u64;
        obs.record_query(queue_wait_ns, total_ns, &qstats.stage);
        // A query is *traced* when it has rounds it is entitled to:
        // either it asked, or positional sampling picked it. (A
        // batchmate's `want_trace` records the whole batch's rounds;
        // rounds nobody asked for are dropped here.)
        let traced =
            !qstats.per_round.is_empty() && (p.want_trace || (sample_every > 0 && !any_trace));
        let trace_id = if traced {
            obs.traces.inc();
            obs.alloc_trace_id()
        } else {
            0
        };
        obs.maybe_log_slow(trace_id, total_ns, p.k as u32, traced.then_some(&qstats));
        let cost = (p.want_stats || p.want_trace).then(|| {
            let mut c = QueryCost::from_stats(&qstats);
            if !p.want_trace {
                c.spans.clear();
            }
            c
        });
        let _ = p.tx.send(Response::TopKV2 {
            trace_id: if p.want_trace { trace_id } else { 0 },
            neighbors: nn,
            cost,
        });
    }
}

fn begin_shutdown(shared: &Shared) {
    shared.queue.lock().unwrap().draining = true;
    shared.obs.set_draining();
    shared.not_empty.notify_all();
    shared.front.stop();
}

/// The service counters as of now, read from the registry.
fn service_stats(obs: &ServerObs) -> ServiceStats {
    ServiceStats {
        queries: obs.queries.get(),
        batches: obs.batches.get(),
        max_batch: obs.max_batch(),
        overloaded: obs.overloaded.get(),
        deadline_expired: obs.deadline_expired.get(),
        errors: obs.errors.get(),
        inserts: obs.inserts.get(),
        deletes: obs.deletes.get(),
        mutation_batches: obs.mutation_batches.get(),
        checkpoints: obs.checkpoints.get(),
    }
}
