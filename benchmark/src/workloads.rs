//! The four workloads: how each engine is set up from the generated
//! inputs, how it is served, and how clients drive it pass by pass.
//! Every layer is reached through the crates' public functions only.

use crate::data::{far_vector, schedule, Inputs, Op, K};
use crate::estimators::{summarize, Kind, Pass, WindowStats};
use crate::trace::Recorder;
use c2lsh::{
    C2lshConfig, C2lshIndex, MutableIndex, MutationOp, PagedBuilder, PagedStore, SearchOptions,
    ShardedData, ShardedEngine, PAGE_SIZE,
};
use cc_service::{Client, QueryRequest, SearchOutcome, ServeEngine, ServiceConfig, ServiceStats};
use cc_vector::gt::Neighbor;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Shards behind the served in-memory engine (`cc-service`'s default).
const SHARDS: usize = 4;
/// Rows per bulk-load batch of the mutable index (as `cc-service` seeds).
const BULK_CHUNK: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LibMem,
    WireMem,
    WirePaged,
    WireRw,
}

impl Workload {
    /// Fixed order of `ledger all`.
    pub const ALL: [Workload; 4] =
        [Workload::LibMem, Workload::WireMem, Workload::WirePaged, Workload::WireRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LibMem => "lib-mem",
            Workload::WireMem => "wire-mem",
            Workload::WirePaged => "wire-paged",
            Workload::WireRw => "wire-rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients: callers of a k-NN service wait for the
    /// reply, and the guest has two vCPUs.
    pub fn clients(self) -> usize {
        if self == Workload::LibMem {
            1
        } else {
            2
        }
    }

    pub fn writes(self) -> bool {
        self == Workload::WireRw
    }
}

/// Per-run scratch space for WAL directories and page files, inside the
/// benchmark's `out/` directory and removed when the run ends. The
/// crates' own scratch files (the paged builder's spill segments) are
/// pointed into it too, so that a run reads and writes only inside the
/// benchmark's directory.
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    pub fn create(out_dir: &Path) -> std::io::Result<Scratch> {
        let root = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        // Runs follow one another; no other thread lives while this is set.
        std::env::set_var("CC_FAULT_DIR", &root);
        Ok(Scratch { root, next: AtomicUsize::new(0) })
    }

    /// A fresh path under the scratch root (nothing is created).
    pub fn path(&self, tag: &str) -> PathBuf {
        self.root.join(format!("{tag}-{}", self.next.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// A built engine, before it is served.
pub enum Engine<'a> {
    Lib(C2lshIndex<'a>),
    Mem {
        engine: ShardedEngine<'a>,
        /// The partitioned data the engine was built over.
        shards: &'a ShardedData,
    },
    Paged(PagedStore),
    Rw {
        index: MutableIndex,
        dir: PathBuf,
    },
}

impl Engine<'_> {
    /// Bytes the index occupies: in-memory table bytes, page-file
    /// bytes, or checkpoint plus WAL bytes. The sharded engine exposes
    /// neither its shards nor a size, so its figure is the sum of
    /// `C2lshIndex::size_bytes` over one index per shard, each built here
    /// as `ShardedEngine::build` builds its own (the parameters of the
    /// whole data set forced into every shard) and dropped at once.
    pub fn index_bytes(&self, config: &C2lshConfig) -> u64 {
        match self {
            Engine::Lib(idx) => idx.size_bytes() as u64,
            Engine::Mem { engine, shards } => {
                let params = engine.params();
                let per_shard = C2lshConfig {
                    m_override: Some(params.m),
                    l_override: Some(params.l),
                    ..config.clone()
                };
                (0..shards.num_shards())
                    .map(|s| C2lshIndex::build(shards.shard(s), &per_shard).size_bytes() as u64)
                    .sum()
            }
            Engine::Paged(p) => p.file_bytes(),
            Engine::Rw { dir, .. } => dir_bytes(dir),
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Build `w`'s engine from the inputs — index build, streaming ingest,
/// or bulk load plus checkpoint — and hand it to `body` with the
/// seconds the build took.
pub fn with_engine<R>(
    w: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    body: impl FnOnce(&mut Engine<'_>, f64) -> R,
) -> R {
    let start = Instant::now();
    let data = &inputs.data;
    match w {
        Workload::LibMem => {
            let mut engine = Engine::Lib(C2lshIndex::build(data, &inputs.config));
            body(&mut engine, start.elapsed().as_secs_f64())
        }
        Workload::WireMem => {
            let shards = ShardedData::partition(data, SHARDS);
            let engine = ShardedEngine::build(&shards, &inputs.config);
            let mut engine = Engine::Mem { engine, shards: &shards };
            body(&mut engine, start.elapsed().as_secs_f64())
        }
        Workload::WirePaged => {
            let mut engine = Engine::Paged(build_paged(inputs, &scratch.path("paged")));
            body(&mut engine, start.elapsed().as_secs_f64())
        }
        Workload::WireRw => {
            let dir = scratch.path("rw");
            let index = MutableIndex::open(&dir, data.dim(), data.len(), &inputs.config)
                .expect("open WAL directory");
            let rows: Vec<MutationOp> = data
                .iter()
                .map(|v| MutationOp::Insert { vector: v.to_vec(), meta: Default::default() })
                .collect();
            for chunk in rows.chunks(BULK_CHUNK) {
                index.apply_batch(chunk).expect("bulk load");
            }
            drop(rows);
            index.checkpoint().expect("post-load checkpoint");
            let mut engine = Engine::Rw { index, dir };
            body(&mut engine, start.elapsed().as_secs_f64())
        }
    }
}

/// Stream the rows through `PagedBuilder` and open the store with the
/// service's default pool: a twentieth of the file's pages.
fn build_paged(inputs: &Inputs, path: &Path) -> PagedStore {
    let data = &inputs.data;
    let mut builder = PagedBuilder::create(path, data.dim(), data.len(), &inputs.config)
        .expect("create page file");
    for row in data.iter() {
        builder.append(row).expect("append row");
    }
    let mut store = builder.finish(1).expect("finish page file").delete_file_on_drop();
    store.set_pool_pages(((store.file_bytes() as usize).div_ceil(PAGE_SIZE) / 20).max(64));
    store
}

/// What clients talk to.
pub enum Target<'a> {
    Lib(&'a C2lshIndex<'a>),
    Wire(SocketAddr),
}

/// Serve `engine` on a loopback port, wait for the first ping to be
/// answered, run `body` against the address, then shut the server down
/// and join it.
pub fn serve_and<E: ServeEngine, R>(
    engine: &E,
    service: &ServiceConfig,
    body: impl FnOnce(SocketAddr) -> R,
) -> (R, ServiceStats) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|s| {
        let server = s.spawn(move || cc_service::serve(engine, listener, service));
        Client::connect(addr).expect("connect").ping().expect("first ping");
        let out = body(addr);
        Client::connect(addr).expect("connect").shutdown().expect("shutdown");
        let stats = server.join().expect("server thread panicked").expect("serve failed");
        (out, stats)
    })
}

/// Bring `engine` to the point where it has answered its first request
/// (the end of set-up), then run `body` against it.
pub fn session<R>(
    engine: &Engine<'_>,
    inputs: &Inputs,
    service: &ServiceConfig,
    body: impl FnOnce(&Target<'_>) -> R,
) -> (R, Option<ServiceStats>) {
    fn served<E: ServeEngine, R>(
        e: &E,
        service: &ServiceConfig,
        body: impl FnOnce(&Target<'_>) -> R,
    ) -> (R, Option<ServiceStats>) {
        let (out, stats) = serve_and(e, service, |addr| body(&Target::Wire(addr)));
        (out, Some(stats))
    }
    match engine {
        Engine::Lib(idx) => {
            std::hint::black_box(idx.query(inputs.queries.get(0), K));
            (body(&Target::Lib(idx)), None)
        }
        Engine::Mem { engine, .. } => served(engine, service, body),
        Engine::Paged(p) => served(p, service, body),
        Engine::Rw { index, .. } => served(index, service, body),
    }
}

/// One acknowledged insert, kept for the durability check.
pub struct Acked {
    pub oid: u32,
    pub vector: Vec<f32>,
    pub deleted: bool,
}

/// What the engine reported about one traced read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub request_ns: u64,
    pub elapsed_ns: u64,
    pub hash_ns: u64,
    pub count_ns: u64,
    pub verify_ns: u64,
    pub rank_ns: u64,
    pub rounds: u64,
    pub collisions: u64,
    pub verified: u64,
    pub abandoned: u64,
}

/// State a client carries from phase to phase.
#[derive(Default)]
pub struct ClientState {
    /// Far vectors inserted so far (each one is unique).
    inserted: usize,
    /// Indices into `acked` of own live inserts, oldest first.
    live: VecDeque<usize>,
    pub acked: Vec<Acked>,
    /// First answer seen per query; later answers must repeat its ids.
    pub answers: Vec<Option<Vec<Neighbor>>>,
    pub attempted: u64,
    pub failed: u64,
}

/// How a phase is run.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Warm-up passes before the measured ones (cut short after
    /// [`WARMUP_CAP`], but never below one unless zero are asked for).
    pub warmup: usize,
    /// Clients stop after the pass during which this moment comes.
    pub until: Instant,
    /// Ask the engine for timings and record spans.
    pub traced: bool,
}

/// Warm-up stops early once it has taken this long.
const WARMUP_CAP: Duration = Duration::from_secs(2);

/// What one client measured in one phase.
#[derive(Default)]
struct ClientOutcome {
    passes: Vec<Pass>,
    costs: Vec<Cost>,
    recorder: Recorder,
    wall_s: f64,
}

/// What all clients measured in one phase.
#[derive(Default)]
pub struct PhaseResult {
    /// Completed passes, per client.
    pub passes: Vec<Vec<Pass>>,
    /// Engine costs of the traced reads (empty when untraced).
    pub costs: Vec<Cost>,
    pub recorder: Recorder,
    /// The longest client's measured seconds.
    pub wall_s: f64,
}

impl PhaseResult {
    pub fn window(&self) -> WindowStats {
        summarize(&self.passes, self.wall_s)
    }

    /// Add the other half of a window: each client's passes follow its
    /// earlier ones, so the quiet set is chosen over the whole window.
    pub fn append(&mut self, half: PhaseResult) {
        self.passes.resize_with(half.passes.len().max(self.passes.len()), Vec::new);
        for (mine, theirs) in self.passes.iter_mut().zip(half.passes) {
            mine.extend(theirs);
        }
        self.costs.extend(half.costs);
        self.recorder.absorb(half.recorder);
        self.wall_s += half.wall_s;
    }
}

impl ClientState {
    pub fn fresh(clients: usize) -> Vec<ClientState> {
        (0..clients).map(|_| ClientState::default()).collect()
    }
}

enum Caller<'a> {
    Lib { idx: &'a C2lshIndex<'a>, opts: SearchOptions },
    Wire { client: Client, traced: bool },
}

impl Caller<'_> {
    /// The answer and, when traced, its cost; `None` when the op was
    /// refused or failed.
    fn read(&mut self, q: &[f32]) -> Option<(Vec<Neighbor>, Option<Cost>)> {
        match self {
            Caller::Lib { idx, opts } => {
                let (nn, s) = idx.query_with(q, K, opts);
                let cost = opts.timing.then(|| Cost {
                    elapsed_ns: s.elapsed_nanos,
                    hash_ns: s.stage.hash,
                    count_ns: s.stage.count,
                    verify_ns: s.stage.verify,
                    rank_ns: s.stage.rank,
                    rounds: s.rounds.into(),
                    collisions: s.collisions_counted,
                    verified: s.candidates_verified as u64,
                    abandoned: s.candidates_abandoned as u64,
                    ..Cost::default()
                });
                Some((nn, cost))
            }
            Caller::Wire { client, traced } => {
                let mut req = QueryRequest::new(q).k(K as u32);
                if *traced {
                    req = req.with_stats().with_trace();
                }
                match client.search(&req) {
                    Ok(SearchOutcome::Result(r)) => {
                        let cost = r.cost.map(|c| Cost {
                            elapsed_ns: c.elapsed_nanos,
                            hash_ns: c.hash_ns,
                            count_ns: c.count_ns,
                            verify_ns: c.verify_ns,
                            rank_ns: c.rank_ns,
                            rounds: c.rounds.into(),
                            collisions: c.collisions,
                            verified: c.verified,
                            abandoned: c.abandoned,
                            ..Cost::default()
                        });
                        Some((r.neighbors, cost))
                    }
                    // Overloaded, Stale, deadline or an error frame: the
                    // op failed; a closed loop does not retry it.
                    _ => None,
                }
            }
        }
    }
}

/// `k` neighbours in ascending distance with ids of the indexed points.
fn well_formed(nn: &[Neighbor], n: usize) -> bool {
    nn.len() == K
        && nn.windows(2).all(|w| w[0].dist <= w[1].dist)
        && nn.iter().all(|x| (x.id as usize) < n && x.dist.is_finite())
}

struct ClientCtx<'a> {
    client: usize,
    ops: &'a [Op],
    inputs: &'a Inputs,
    state: &'a mut ClientState,
    phase_start: Instant,
}

impl ClientCtx<'_> {
    /// Run the op list once. With `out` the pass is a measured one: its
    /// duration, op latencies, engine costs and spans are recorded there.
    fn pass(&mut self, caller: &mut Caller<'_>, out: Option<&mut ClientOutcome>) {
        let n = self.inputs.data.len();
        let pass_start = Instant::now();
        let mut samples = Vec::with_capacity(self.ops.len());
        let mut costs = Vec::new();
        let mut spans: Vec<(Kind, Instant, Instant, Option<Cost>)> = Vec::new();
        let tracing = out.is_some()
            && match &*caller {
                Caller::Lib { opts, .. } => opts.timing,
                Caller::Wire { traced, .. } => *traced,
            };
        for op in self.ops {
            self.state.attempted += 1;
            let sent = Instant::now();
            match *op {
                Op::Read(q) => {
                    let reply = caller.read(self.inputs.queries.get(q as usize));
                    let done = Instant::now();
                    samples.push((Kind::Read, (done - sent).as_nanos() as u64));
                    let Some((nn, cost)) = reply else {
                        self.state.failed += 1;
                        continue;
                    };
                    let slot = &mut self.state.answers[q as usize];
                    let repeats = slot
                        .as_ref()
                        .is_none_or(|first| first.iter().map(|x| x.id).eq(nn.iter().map(|x| x.id)));
                    if !well_formed(&nn, n) || !repeats {
                        self.state.failed += 1;
                    }
                    if slot.is_none() {
                        *slot = Some(nn);
                    }
                    if let Some(mut c) = cost {
                        c.request_ns = (done - sent).as_nanos() as u64;
                        costs.push(c);
                        if tracing {
                            spans.push((Kind::Read, sent, done, Some(c)));
                        }
                    }
                }
                Op::Insert | Op::DeleteOldest => {
                    let Caller::Wire { client, .. } = caller else {
                        unreachable!("only the served read/write workload schedules writes")
                    };
                    let ok = if *op == Op::Insert {
                        let vector = far_vector(self.client, self.state.inserted);
                        self.state.inserted += 1;
                        match client.insert(&vector) {
                            Ok((oid, _seq)) => {
                                self.state.live.push_back(self.state.acked.len());
                                self.state.acked.push(Acked { oid, vector, deleted: false });
                                true
                            }
                            Err(_) => false,
                        }
                    } else {
                        let victim =
                            self.state.live.pop_front().expect("a delete follows an insert");
                        match client.delete(self.state.acked[victim].oid) {
                            Ok((true, _seq)) => {
                                self.state.acked[victim].deleted = true;
                                true
                            }
                            _ => false,
                        }
                    };
                    let done = Instant::now();
                    samples.push((Kind::Write, (done - sent).as_nanos() as u64));
                    if !ok {
                        self.state.failed += 1;
                    }
                    if tracing {
                        spans.push((Kind::Write, sent, done, None));
                    }
                }
            }
        }
        let dur_ns = pass_start.elapsed().as_nanos() as u64;
        let Some(out) = out else { return };
        out.passes.push(Pass { dur_ns, ops: samples });
        out.costs.extend(costs);
        // Spans go into the recorder after the pass, outside every timed op.
        for (kind, sent, done, cost) in spans {
            let Some(req) = out.recorder.request() else { break };
            let at = |t: Instant| (t - self.phase_start).as_nanos() as u64;
            let (start, end) = (at(sent), at(done));
            match (kind, cost) {
                (Kind::Write, _) => {
                    out.recorder.span(req, None, "write", start, end);
                }
                (Kind::Read, Some(c)) => {
                    let root = out.recorder.span(req, None, "request", start, end);
                    // The engine reports durations, not clock positions: its
                    // span is placed so that it ends when the reply arrived,
                    // and its stages follow one another from its start.
                    let e0 = end.saturating_sub(c.elapsed_ns).max(start);
                    let engine = out.recorder.span(req, Some(root), "engine", e0, end);
                    let mut at = e0;
                    for (name, ns) in [
                        ("hash", c.hash_ns),
                        ("count", c.count_ns),
                        ("verify", c.verify_ns),
                        ("rank", c.rank_ns),
                    ] {
                        let stop = (at + ns).min(end);
                        out.recorder.span(req, Some(engine), name, at, stop);
                        at = stop;
                    }
                }
                (Kind::Read, None) => {}
            }
        }
    }
}

/// Run one phase: every client warms up, then all start their measured
/// passes together and repeat them until `phase.seconds` have passed.
pub fn run_phase(
    target: &Target<'_>,
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    phase: Phase,
    states: &mut [ClientState],
) -> PhaseResult {
    let clients = states.len();
    let barrier = Barrier::new(clients);
    let phase_start = Instant::now();
    let run = |client: usize, state: &mut ClientState| -> ClientOutcome {
        let ops = schedule(seed, client, clients, w.writes());
        if state.answers.is_empty() {
            state.answers = vec![None; inputs.queries.len()];
        }
        let mut caller = match target {
            Target::Lib(idx) => Caller::Lib {
                idx,
                opts: SearchOptions {
                    timing: phase.traced,
                    stage_timing: phase.traced,
                    per_round: phase.traced,
                    ..SearchOptions::default()
                },
            },
            Target::Wire(addr) => Caller::Wire {
                client: Client::connect(addr).expect("connect"),
                traced: phase.traced,
            },
        };
        let mut ctx = ClientCtx { client, ops: &ops, inputs, state, phase_start };
        let warm_start = Instant::now();
        for i in 0..phase.warmup {
            if i > 0 && warm_start.elapsed() >= WARMUP_CAP {
                break;
            }
            ctx.pass(&mut caller, None);
        }
        barrier.wait();
        let mut out = ClientOutcome::default();
        let start = Instant::now();
        loop {
            ctx.pass(&mut caller, Some(&mut out));
            if Instant::now() >= phase.until {
                break;
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out
    };
    let outcomes: Vec<ClientOutcome> = if clients == 1 {
        vec![run(0, &mut states[0])]
    } else {
        std::thread::scope(|s| {
            let run = &run;
            let handles: Vec<_> = states
                .iter_mut()
                .enumerate()
                .map(|(c, state)| s.spawn(move || run(c, state)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        })
    };
    let wall_s = outcomes.iter().map(|c| c.wall_s).fold(0.0, f64::max);
    let mut result = PhaseResult { wall_s, ..PhaseResult::default() };
    for c in outcomes {
        result.passes.push(c.passes);
        result.costs.extend(c.costs);
        result.recorder.absorb(c.recorder);
    }
    result
}

/// Cold-reopen `dir` — what crash recovery does — and count the
/// acknowledged writes it does not honour: every acked insert must be
/// answerable at distance 0, every acked delete must be gone.
pub fn durability_failures(dir: &Path, inputs: &Inputs, states: &[ClientState]) -> u64 {
    let recovered = MutableIndex::open(dir, inputs.data.dim(), inputs.data.len(), &inputs.config)
        .expect("cold reopen of the WAL directory");
    let (snapshot, _seq) = recovered.snapshot();
    let mut lost = 0;
    for w in states.iter().flat_map(|s| &s.acked) {
        let slot = snapshot.slots().get(w.oid as usize).cloned().flatten();
        let honoured = if w.deleted {
            slot.is_none()
        } else {
            slot.as_deref() == Some(&w.vector[..]) && {
                let (nn, _) = recovered.query(&w.vector, 1);
                nn.first().is_some_and(|x| x.id == w.oid && x.dist == 0.0)
            }
        };
        lost += u64::from(!honoured);
    }
    lost
}

/// Copy a WAL directory as a crash would leave it: the files as they
/// are on disk while the server still runs, before a graceful drain
/// folds the log into a checkpoint.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
