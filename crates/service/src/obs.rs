//! The service's live metric registry — the one place its counters are
//! kept — and the Prometheus renderer behind both the
//! [`crate::Request::Metrics`] opcode and the `--metrics-addr` HTTP
//! listener, the one way to read them. The [`crate::ServiceStats`] a
//! drained server returns is read from it too.
//!
//! One [`ServerObs`] lives for the whole service lifetime and is
//! shared (via `Arc`) between the serving core — which feeds it from
//! the flush path — and the scrape listener, which renders it on
//! demand. Everything inside is lock-free or locked off the hot path:
//! counters are relaxed atomics, histograms are atomic bucket arrays,
//! and the slow log's mutex is only taken for queries already known to
//! be slow. What lives outside the registry — collections, the buffer
//! pool, replica lag, a mutable engine's WAL — is read at scrape time
//! through a source the serving layer installs.
//!
//! The cheap monotone counters (requests, the engine's work and stop
//! conditions, the write path) are maintained unconditionally; the
//! per-query histograms, traces and slow log are gated on
//! [`ObsConfig::enabled`] so a service started without observability
//! pays nothing per query.

use crate::collections::CollectionMetricsRow;
use c2lsh::stats::{BatchStats, MutationStats, QueryStats};
use cc_obs::{
    Counter, Histogram, MetricsSource, ObsConfig, PromText, SlowLog, SlowQuery, SpanRecord,
};
use cc_storage::PinnedPoolStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Slow queries the `/slowlog` ring remembers.
const SLOW_LOG_CAPACITY: usize = 64;

/// A traced query's spans, laid out from the rounds the engine recorded:
/// one `round` per level (detail = radius) end to end from 0, then one
/// `rank` (detail = the candidates ranked, verified less abandoned).
/// Empty when no round was recorded.
pub(crate) fn trace_spans(stats: &QueryStats) -> Vec<SpanRecord> {
    let span = |name: &'static str, start_ns, dur_ns, detail| SpanRecord {
        name: name.into(),
        start_ns,
        dur_ns,
        depth: 0,
        detail,
    };
    let mut spans = Vec::new();
    let mut at = 0;
    for r in &stats.per_round {
        spans.push(span("round", at, r.elapsed_nanos, r.radius as u64));
        at += r.elapsed_nanos;
    }
    if !spans.is_empty() {
        let ranked = stats.candidates_verified - stats.candidates_abandoned;
        spans.push(span("rank", at, stats.stage.rank, ranked as u64));
    }
    spans
}

/// A provider of per-collection counter snapshots — the serving layer
/// installs one backed by its collection registry.
pub type CollectionsSource = Box<dyn Fn() -> Vec<CollectionMetricsRow> + Send + Sync>;

/// A provider of buffer-pool snapshots — installed by the serving
/// layer when the engine is the paged disk tier.
pub type BufpoolSource = Box<dyn Fn() -> PinnedPoolStats + Send + Sync>;

/// A provider of per-replica lag rows `(replica, lag_in_seqs)` —
/// installed by the serving layer when this node is a replication
/// primary with at least one subscriber.
pub type ReplicasSource = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

/// A provider of a mutable engine's cumulative write-path counters and
/// its live object count — installed beside the engine by `cc-service
/// --mode dynamic`, so a scrape reads both exact even on a follower
/// whose state only moves through replication.
pub type MutationsSource = Box<dyn Fn() -> (MutationStats, u64) + Send + Sync>;

/// Live metric registry for one service instance.
pub struct ServerObs {
    config: ObsConfig,
    // Index facts mirrored for the scrape path (the listener has no
    // engine reference).
    objects: AtomicU64,
    dim: AtomicU64,
    shards: AtomicU64,
    draining: AtomicBool,
    // Monotone counters.
    /// Queries answered with a top-k response.
    pub queries: Counter,
    /// Engine calls made (one per predicate group of a flush).
    pub batches: Counter,
    /// Requests answered with an error frame.
    pub errors: Counter,
    /// Queries refused at admission.
    pub overloaded: Counter,
    /// Queries expired while queued.
    pub deadline_expired: Counter,
    /// Inserts acknowledged.
    pub inserts: Counter,
    /// Deletes acknowledged (found or not).
    pub deletes: Counter,
    /// Flushes that applied at least one mutation.
    pub mutation_batches: Counter,
    /// WAL-truncating checkpoints written (size-triggered plus the
    /// final one of a graceful drain).
    pub checkpoints: Counter,
    /// Queries that had a span tree captured.
    pub traces: Counter,
    /// Queries recorded in the slow log.
    pub slow_queries: Counter,
    /// Router: per-node sub-queries fanned out (scatter legs issued).
    pub router_fanout: Counter,
    /// Router: queries that fell over to another replica after a node
    /// failed, timed out, or answered stale.
    pub router_failover: Counter,
    /// Router: individual node legs that errored (connect failure,
    /// deadline, stale, or error frame).
    pub router_node_errors: Counter,
    // The engine's work, summed over every engine call.
    max_batch: AtomicU64,
    rounds: Counter,
    collisions: Counter,
    verified: Counter,
    abandoned: Counter,
    filtered: Counter,
    io_reads: Counter,
    t1: Counter,
    t2: Counter,
    exhausted: Counter,
    // Latency histograms, all in nanoseconds.
    queue_wait: Histogram,
    query_total: Histogram,
    stage_hash: Histogram,
    stage_count: Histogram,
    stage_verify: Histogram,
    stage_rank: Histogram,
    wal_apply: Histogram,
    flush_total: Histogram,
    // Unitless.
    batch_size: Histogram,
    slowlog: SlowLog,
    next_trace_id: AtomicU64,
    /// Per-collection snapshot provider; installed by the serving
    /// layer once its registry exists (the mutex is only taken at
    /// install and scrape time, never on the query path).
    collections: Mutex<Option<CollectionsSource>>,
    /// Buffer-pool snapshot provider; installed when the engine is the
    /// paged disk tier (same locking discipline as `collections`).
    bufpool: Mutex<Option<BufpoolSource>>,
    /// Per-replica lag provider; installed when this node ships its
    /// WAL to subscribers (same locking discipline as `collections`).
    replicas: Mutex<Option<ReplicasSource>>,
    /// Write-path provider; installed beside a mutable engine (same
    /// locking discipline as `collections`).
    mutations: Mutex<Option<MutationsSource>>,
}

impl ServerObs {
    /// A registry under `config` (disabled configs still count the
    /// monotone counters; histograms and traces stay untouched).
    pub fn new(config: ObsConfig) -> Self {
        ServerObs {
            config,
            objects: AtomicU64::new(0),
            dim: AtomicU64::new(0),
            shards: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            queries: Counter::new(),
            batches: Counter::new(),
            errors: Counter::new(),
            overloaded: Counter::new(),
            deadline_expired: Counter::new(),
            inserts: Counter::new(),
            deletes: Counter::new(),
            mutation_batches: Counter::new(),
            checkpoints: Counter::new(),
            traces: Counter::new(),
            slow_queries: Counter::new(),
            router_fanout: Counter::new(),
            router_failover: Counter::new(),
            router_node_errors: Counter::new(),
            max_batch: AtomicU64::new(0),
            rounds: Counter::new(),
            collisions: Counter::new(),
            verified: Counter::new(),
            abandoned: Counter::new(),
            filtered: Counter::new(),
            io_reads: Counter::new(),
            t1: Counter::new(),
            t2: Counter::new(),
            exhausted: Counter::new(),
            queue_wait: Histogram::new(),
            query_total: Histogram::new(),
            stage_hash: Histogram::new(),
            stage_count: Histogram::new(),
            stage_verify: Histogram::new(),
            stage_rank: Histogram::new(),
            wal_apply: Histogram::new(),
            flush_total: Histogram::new(),
            batch_size: Histogram::new(),
            slowlog: SlowLog::new(SLOW_LOG_CAPACITY),
            next_trace_id: AtomicU64::new(1),
            collections: Mutex::new(None),
            bufpool: Mutex::new(None),
            replicas: Mutex::new(None),
            mutations: Mutex::new(None),
        }
    }

    /// Install (or replace) the per-collection snapshot provider.
    pub fn set_collections_source(&self, source: CollectionsSource) {
        *self.collections.lock().unwrap() = Some(source);
    }

    /// Install (or replace) the buffer-pool snapshot provider.
    pub fn set_bufpool_source(&self, source: BufpoolSource) {
        *self.bufpool.lock().unwrap() = Some(source);
    }

    /// Install (or replace) the per-replica lag provider.
    pub fn set_replicas_source(&self, source: ReplicasSource) {
        *self.replicas.lock().unwrap() = Some(source);
    }

    /// Install (or replace) the write-path provider.
    pub fn set_mutations_source(&self, source: MutationsSource) {
        *self.mutations.lock().unwrap() = Some(source);
    }

    /// A registry with everything off (the plain [`crate::serve`] path).
    pub fn disabled() -> Self {
        ServerObs::new(ObsConfig::default())
    }

    /// Whether per-query instrumentation (histograms, traces, slow
    /// log) is live.
    pub fn on(&self) -> bool {
        self.config.enabled
    }

    /// The config this registry was built with.
    pub fn config(&self) -> ObsConfig {
        self.config
    }

    /// Mirror the index facts the scrape endpoint reports as gauges.
    pub fn set_index_info(&self, objects: u64, dim: u64, shards: u64) {
        self.objects.store(objects, Ordering::Relaxed);
        self.dim.store(dim, Ordering::Relaxed);
        self.shards.store(shards, Ordering::Relaxed);
    }

    /// Refresh the live-object gauge after mutations.
    pub fn set_objects(&self, objects: u64) {
        self.objects.store(objects, Ordering::Relaxed);
    }

    /// Flip the drain flag (`/healthz` answers 503 from then on).
    pub fn set_draining(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Allocate a fresh nonzero trace id.
    pub fn alloc_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one answered query: queue wait, end-to-end latency and
    /// the per-stage breakdown from the engine's stats. No-op unless
    /// enabled.
    pub fn record_query(&self, queue_wait_ns: u64, total_ns: u64, stage: &c2lsh::StageNanos) {
        if !self.on() {
            return;
        }
        self.queue_wait.record(queue_wait_ns);
        self.query_total.record(total_ns);
        self.stage_hash.record(stage.hash);
        self.stage_count.record(stage.count);
        self.stage_verify.record(stage.verify);
        self.stage_rank.record(stage.rank);
    }

    /// Count one engine call that answered `answered` queries at the
    /// aggregate cost `agg`: the query and batch counters, the engine's
    /// work and stop conditions, the largest batch and — when enabled —
    /// one `cc_batch_size` observation.
    pub(crate) fn record_engine_call(&self, answered: u64, agg: &BatchStats) {
        self.queries.add(answered);
        self.batches.inc();
        self.max_batch.fetch_max(answered, Ordering::Relaxed);
        self.rounds.add(agg.rounds);
        self.collisions.add(agg.collisions);
        self.verified.add(agg.verified);
        self.abandoned.add(agg.abandoned);
        self.filtered.add(agg.filtered);
        self.io_reads.add(agg.io.reads);
        self.t1.add(agg.t1 as u64);
        self.t2.add(agg.t2 as u64);
        self.exhausted.add(agg.exhausted as u64);
        if self.on() {
            self.batch_size.record(answered);
        }
    }

    /// Most queries one engine call answered so far.
    pub(crate) fn max_batch(&self) -> u64 {
        self.max_batch.load(Ordering::Relaxed)
    }

    /// Record one flush: its wall time, and the WAL apply time when the
    /// flush carried mutations. No-op unless enabled.
    pub fn record_flush(&self, flush_ns: u64, wal_ns: Option<u64>) {
        if !self.on() {
            return;
        }
        self.flush_total.record(flush_ns);
        if let Some(ns) = wal_ns {
            self.wal_apply.record(ns);
        }
    }

    /// Consider a query for the slow log, with the spans of `traced`;
    /// returns whether it was retained.
    pub fn maybe_log_slow(
        &self,
        trace_id: u64,
        total_ns: u64,
        k: u32,
        traced: Option<&QueryStats>,
    ) -> bool {
        if !self.on() || self.config.slow_query_ms == 0 {
            return false;
        }
        if total_ns < self.config.slow_query_ms.saturating_mul(1_000_000) {
            return false;
        }
        self.slow_queries.inc();
        let spans = traced.map_or_else(Vec::new, trace_spans);
        self.slowlog.push(SlowQuery { trace_id, total_ns, k, spans });
        true
    }

    /// Render the full Prometheus text exposition document.
    pub fn render_prometheus(&self) -> String {
        let write_path = self.mutations.lock().unwrap().as_ref().map(|source| source());
        let objects = write_path.map_or(self.objects.load(Ordering::Relaxed), |(_, n)| n);
        let mut doc = PromText::new();
        doc.gauge("cc_up", "The service is running.", 1.0);
        doc.gauge(
            "cc_draining",
            "1 once graceful shutdown began.",
            if self.draining.load(Ordering::Relaxed) { 1.0 } else { 0.0 },
        );
        doc.gauge("cc_objects", "Live objects served.", objects as f64);
        doc.gauge("cc_dim", "Dataset dimensionality.", self.dim.load(Ordering::Relaxed) as f64);
        doc.gauge_labeled(
            "cc_kernel_info",
            "SIMD kernel both hot loops dispatch through (value is always 1).",
            "kernel",
            &[(c2lsh::kernels::dispatch().kernel().name().to_string(), 1.0)],
        );
        doc.gauge(
            "cc_shards",
            "Shards behind the engine.",
            self.shards.load(Ordering::Relaxed) as f64,
        );
        doc.gauge(
            "cc_max_batch",
            "Most queries one engine call answered.",
            self.max_batch() as f64,
        );
        let counters: [(&str, &str, &Counter); 20] = [
            ("cc_queries_total", "Queries answered with a top-k response.", &self.queries),
            ("cc_batches_total", "Engine calls (one per predicate group).", &self.batches),
            ("cc_errors_total", "Requests answered with an error frame.", &self.errors),
            ("cc_overloaded_total", "Queries refused at admission.", &self.overloaded),
            (
                "cc_deadline_expired_total",
                "Queries whose deadline expired while queued.",
                &self.deadline_expired,
            ),
            ("cc_inserts_total", "Inserts acknowledged.", &self.inserts),
            ("cc_deletes_total", "Deletes acknowledged (found or not).", &self.deletes),
            (
                "cc_mutation_batches_total",
                "Flushes that applied at least one mutation.",
                &self.mutation_batches,
            ),
            ("cc_checkpoints_total", "WAL-truncating checkpoints written.", &self.checkpoints),
            ("cc_rounds_total", "Virtual-rehashing rounds run across all queries.", &self.rounds),
            (
                "cc_collisions_total",
                "Collision-count increments across all queries.",
                &self.collisions,
            ),
            ("cc_verified_total", "Candidates whose true distance was computed.", &self.verified),
            (
                "cc_abandoned_total",
                "Verified candidates cut short by the early-abandon bound.",
                &self.abandoned,
            ),
            (
                "cc_filtered_candidates_total",
                "Candidates rejected by filter predicates before verification.",
                &self.filtered,
            ),
            ("cc_io_reads_total", "Backend page reads across all queries.", &self.io_reads),
            ("cc_traces_total", "Queries with a captured span tree.", &self.traces),
            ("cc_slow_queries_total", "Queries retained in the slow log.", &self.slow_queries),
            (
                "cc_router_fanout_total",
                "Scatter legs issued by the router (one per node per query).",
                &self.router_fanout,
            ),
            (
                "cc_router_failover_total",
                "Queries that fell over to another replica after a node failure.",
                &self.router_failover,
            ),
            (
                "cc_router_node_errors_total",
                "Individual node legs that errored (connect, deadline, stale, error frame).",
                &self.router_node_errors,
            ),
        ];
        for (name, help, counter) in counters {
            doc.counter(name, help, counter.get());
        }
        let by = [("t1", &self.t1), ("t2", &self.t2), ("exhausted", &self.exhausted)];
        doc.counter_labeled(
            "cc_terminations_total",
            "Queries by what stopped them: T1 (k within c*R), T2 (budget), exhausted windows.",
            "by",
            &by.map(|(cause, counter)| (cause.to_string(), counter.get())),
        );
        let seconds: [(&str, &str, &Histogram); 8] = [
            ("cc_queue_wait_seconds", "Time from admission to engine dispatch.", &self.queue_wait),
            (
                "cc_query_seconds",
                "End-to-end query latency (queue wait + execution).",
                &self.query_total,
            ),
            ("cc_stage_hash_seconds", "Per-query time hashing into table keys.", &self.stage_hash),
            (
                "cc_stage_count_seconds",
                "Per-query time expanding windows and counting collisions.",
                &self.stage_count,
            ),
            (
                "cc_stage_verify_seconds",
                "Per-query time verifying candidate distances.",
                &self.stage_verify,
            ),
            ("cc_stage_rank_seconds", "Per-query time ranking candidates.", &self.stage_rank),
            (
                "cc_wal_apply_seconds",
                "Per-flush time applying mutations durably (WAL append + fsync).",
                &self.wal_apply,
            ),
            (
                "cc_flush_seconds",
                "Wall time of one whole flush (mutations + query batch).",
                &self.flush_total,
            ),
        ];
        for (name, help, hist) in seconds {
            doc.summary_seconds(name, help, &hist.snapshot());
        }
        let batch_size = self.batch_size.snapshot();
        doc.summary_units("cc_batch_size", "Queries answered per engine call.", &batch_size);
        // Write-path families, present only beside a mutable engine.
        if let Some((m, _)) = write_path {
            doc.counter("cc_wal_records_total", "WAL records appended since open.", m.wal_records);
            doc.counter(
                "cc_wal_syncs_total",
                "WAL fsyncs issued since open (one per group commit).",
                m.wal_syncs,
            );
            doc.counter("cc_wal_bytes_total", "Bytes appended to the WAL since open.", m.wal_bytes);
            doc.counter(
                "cc_delete_misses_total",
                "Deletes of an unknown or already deleted id since open.",
                m.delete_misses,
            );
            doc.gauge(
                "cc_applied_seq",
                "Sequence number of the last applied mutation (survives restarts).",
                m.last_seq as f64,
            );
        }
        // Buffer-pool families, present only when the paged disk tier
        // is behind the server.
        if let Some(source) = self.bufpool.lock().unwrap().as_ref() {
            let s = source();
            doc.counter(
                "cc_bufpool_requests_total",
                "Buffer-pool page lookups (hits + misses).",
                s.requests,
            );
            doc.counter(
                "cc_bufpool_hits_total",
                "Buffer-pool lookups served from a resident frame.",
                s.hits,
            );
            doc.counter(
                "cc_bufpool_misses_total",
                "Buffer-pool lookups that read the page from disk.",
                s.misses,
            );
            doc.counter(
                "cc_bufpool_evictions_total",
                "Frames recycled by the clock sweep.",
                s.evictions,
            );
            doc.gauge(
                "cc_bufpool_capacity_pages",
                "Buffer-pool capacity in pages.",
                s.capacity as f64,
            );
            doc.gauge(
                "cc_bufpool_resident_pages",
                "Pages currently resident in the buffer pool.",
                s.resident as f64,
            );
            doc.gauge(
                "cc_bufpool_hit_ratio",
                "Buffer-pool hit ratio since start (hits / requests).",
                s.hit_ratio(),
            );
        }
        // Per-replica lag, labeled `replica="<name>"`. Present once the
        // serving layer installed the board (i.e. this node is a
        // primary) and at least one subscriber has pulled.
        if let Some(source) = self.replicas.lock().unwrap().as_ref() {
            let rows = source();
            if !rows.is_empty() {
                doc.gauge_labeled(
                    "cc_replica_lag_seq",
                    "Sequences the replica still trails the primary by (0 = caught up).",
                    "replica",
                    &rows.iter().map(|(name, lag)| (name.clone(), *lag as f64)).collect::<Vec<_>>(),
                );
            }
        }
        // Per-collection series, labeled `collection="<name>"`. Only
        // present once the serving layer installed its registry and at
        // least one collection exists.
        if let Some(source) = self.collections.lock().unwrap().as_ref() {
            let rows = source();
            let pick = |f: &dyn Fn(&CollectionMetricsRow) -> u64| -> Vec<(String, u64)> {
                rows.iter().map(|r| (r.name.clone(), f(r))).collect()
            };
            doc.gauge_labeled(
                "cc_collection_objects",
                "Live objects per collection.",
                "collection",
                &rows.iter().map(|r| (r.name.clone(), r.objects as f64)).collect::<Vec<_>>(),
            );
            doc.counter_labeled(
                "cc_collection_queries_total",
                "Queries answered per collection.",
                "collection",
                &pick(&|r| r.queries),
            );
            doc.counter_labeled(
                "cc_collection_inserts_total",
                "Inserts acknowledged per collection.",
                "collection",
                &pick(&|r| r.inserts),
            );
            doc.counter_labeled(
                "cc_collection_deletes_total",
                "Deletes acknowledged per collection.",
                "collection",
                &pick(&|r| r.deletes),
            );
            doc.counter_labeled(
                "cc_collection_filtered_candidates_total",
                "Filter-rejected candidates per collection.",
                "collection",
                &pick(&|r| r.filtered),
            );
        }
        doc.finish()
    }
}

impl MetricsSource for ServerObs {
    fn render_metrics(&self) -> String {
        self.render_prometheus()
    }

    fn render_slowlog(&self) -> String {
        self.slowlog.render()
    }

    fn healthy(&self) -> bool {
        !self.draining.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2lsh::StageNanos;
    use cc_obs::sample;

    #[test]
    fn disabled_registry_records_nothing_per_query() {
        let obs = ServerObs::disabled();
        obs.record_query(1_000, 2_000, &StageNanos::default());
        obs.record_engine_call(4, &BatchStats::default());
        obs.record_flush(5_000, Some(100));
        assert!(!obs.maybe_log_slow(1, u64::MAX, 10, None));
        let text = obs.render_prometheus();
        assert!(text.contains("cc_query_seconds_count 0"), "{text}");
        assert!(text.contains("cc_flush_seconds_count 0"), "{text}");
        assert!(text.contains("cc_batch_size_count 0"), "{text}");
        // The counters count regardless.
        assert!(text.contains("cc_batches_total 1"), "{text}");
        assert!(text.contains("cc_max_batch 4"), "{text}");
    }

    #[test]
    fn enabled_registry_feeds_histograms_and_slowlog() {
        let obs =
            ServerObs::new(ObsConfig { enabled: true, slow_query_ms: 1, ..ObsConfig::default() });
        let stage = StageNanos { hash: 100, count: 4_000, verify: 900, rank: 50 };
        obs.record_query(10_000, 5_000_000, &stage);
        obs.record_flush(6_000_000, None);
        assert!(obs.maybe_log_slow(3, 5_000_000, 7, None));
        assert_eq!(obs.slow_queries.get(), 1);
        let text = obs.render_prometheus();
        assert!(text.contains("cc_query_seconds_count 1"), "{text}");
        assert!(text.contains("cc_stage_count_seconds_count 1"), "{text}");
        assert!(text.contains("cc_slow_queries_total 1"), "{text}");
        let kernel = c2lsh::kernels::dispatch().kernel().name();
        assert!(text.contains(&format!("cc_kernel_info{{kernel=\"{kernel}\"}} 1")), "{text}");
        assert!(obs.render_slowlog().contains("trace_id=3"), "{}", obs.render_slowlog());
    }

    #[test]
    fn trace_spans_lay_the_rounds_end_to_end_then_rank() {
        let round = |level, radius, elapsed_nanos| c2lsh::RoundStats {
            level,
            radius,
            collisions: 10,
            verified: 2,
            within_c_r: 0,
            elapsed_nanos,
        };
        let mut stats = QueryStats {
            rounds: 3,
            final_radius: 4,
            candidates_verified: 9,
            candidates_abandoned: 3,
            per_round: vec![round(0, 1, 100), round(1, 2, 250), round(2, 4, 400)],
            stage: StageNanos { rank: 30, ..StageNanos::default() },
            ..QueryStats::new()
        };
        let spans = trace_spans(&stats);
        let laid: Vec<_> =
            spans.iter().map(|s| (&*s.name, s.start_ns, s.dur_ns, s.detail)).collect();
        assert_eq!(
            laid,
            [
                ("round", 0, 100, 1),
                ("round", 100, 250, 2),
                ("round", 350, 400, 4),
                ("rank", 750, 30, 6),
            ]
        );
        assert!(spans.iter().all(|s| s.depth == 0));
        stats.per_round.clear();
        assert!(trace_spans(&stats).is_empty());
    }

    #[test]
    fn trace_ids_are_nonzero_and_unique() {
        let obs = ServerObs::disabled();
        let a = obs.alloc_trace_id();
        let b = obs.alloc_trace_id();
        assert!(a > 0 && b > a);
    }

    #[test]
    fn collection_series_are_labeled_per_collection() {
        let obs = ServerObs::disabled();
        obs.set_collections_source(Box::new(|| {
            vec![
                CollectionMetricsRow {
                    name: "alpha".into(),
                    objects: 10,
                    queries: 3,
                    inserts: 10,
                    deletes: 0,
                    filtered: 7,
                },
                CollectionMetricsRow {
                    name: "beta".into(),
                    objects: 2,
                    queries: 0,
                    inserts: 2,
                    deletes: 1,
                    filtered: 0,
                },
            ]
        }));
        let text = obs.render_prometheus();
        assert!(text.contains("cc_collection_objects{collection=\"alpha\"} 10"), "{text}");
        assert!(text.contains("cc_collection_queries_total{collection=\"alpha\"} 3"), "{text}");
        assert!(text.contains("cc_collection_queries_total{collection=\"beta\"} 0"), "{text}");
        assert!(
            text.contains("cc_collection_filtered_candidates_total{collection=\"alpha\"} 7"),
            "{text}"
        );
        assert_eq!(text.matches("# TYPE cc_collection_queries_total counter").count(), 1);
    }

    #[test]
    fn bufpool_series_appear_once_installed() {
        let obs = ServerObs::disabled();
        let before = obs.render_prometheus();
        assert!(!before.contains("cc_bufpool_"), "{before}");
        obs.set_bufpool_source(Box::new(|| PinnedPoolStats {
            requests: 100,
            hits: 90,
            misses: 10,
            evictions: 4,
            capacity: 64,
            resident: 60,
        }));
        let text = obs.render_prometheus();
        assert!(text.contains("cc_bufpool_requests_total 100"), "{text}");
        assert!(text.contains("cc_bufpool_hits_total 90"), "{text}");
        assert!(text.contains("cc_bufpool_misses_total 10"), "{text}");
        assert!(text.contains("cc_bufpool_evictions_total 4"), "{text}");
        assert!(text.contains("cc_bufpool_capacity_pages 64"), "{text}");
        assert!(text.contains("cc_bufpool_resident_pages 60"), "{text}");
        assert!(text.contains("cc_bufpool_hit_ratio 0.9"), "{text}");
        // An idle pool reads the pool's own ratio: nothing missed yet.
        obs.set_bufpool_source(Box::new(|| PinnedPoolStats { capacity: 64, ..Default::default() }));
        let idle = obs.render_prometheus();
        assert_eq!(sample(&idle, "cc_bufpool_hit_ratio"), Some(1.0), "{idle}");
    }

    #[test]
    fn engine_work_and_write_path_families() {
        let obs = ServerObs::disabled();
        let agg = BatchStats {
            rounds: 9,
            collisions: 700,
            verified: 40,
            abandoned: 12,
            filtered: 5,
            t1: 2,
            t2: 1,
            io: cc_storage::IoStats { reads: 17, writes: 0 },
            ..BatchStats::default()
        };
        obs.record_engine_call(3, &agg);
        obs.record_engine_call(2, &agg);
        let before = obs.render_prometheus();
        assert!(!before.contains("cc_applied_seq"), "{before}");
        obs.set_mutations_source(Box::new(|| {
            let m = MutationStats {
                wal_records: 8,
                wal_syncs: 3,
                wal_bytes: 400,
                ..Default::default()
            };
            (MutationStats { delete_misses: 1, last_seq: 8, ..m }, 77)
        }));
        let text = obs.render_prometheus();
        for series in [
            "cc_batches_total 2",
            "cc_max_batch 3",
            "cc_queries_total 5",
            "cc_rounds_total 18",
            "cc_collisions_total 1400",
            "cc_verified_total 80",
            "cc_abandoned_total 24",
            "cc_filtered_candidates_total 10",
            "cc_io_reads_total 34",
            "cc_terminations_total{by=\"t1\"} 4",
            "cc_terminations_total{by=\"t2\"} 2",
            "cc_terminations_total{by=\"exhausted\"} 0",
            "cc_wal_records_total 8",
            "cc_wal_syncs_total 3",
            "cc_wal_bytes_total 400",
            "cc_delete_misses_total 1",
            "cc_applied_seq 8",
            "cc_objects 77",
        ] {
            assert!(text.lines().any(|l| l == series), "{series} not in:\n{text}");
        }
    }

    #[test]
    fn exposition_has_help_and_type_for_every_series() {
        let obs = ServerObs::new(ObsConfig::all_on());
        obs.set_index_info(1000, 16, 4);
        obs.set_bufpool_source(Box::new(|| PinnedPoolStats {
            requests: 1,
            ..PinnedPoolStats::default()
        }));
        obs.set_mutations_source(Box::new(|| (MutationStats::default(), 1000)));
        let text = obs.render_prometheus();
        // Every non-comment series name must have HELP and TYPE.
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let name = line.split(['{', ' ']).next().unwrap();
            let family =
                name.strip_suffix("_sum").or_else(|| name.strip_suffix("_count")).unwrap_or(name);
            assert!(text.contains(&format!("# HELP {family} ")), "no HELP for {name}");
            assert!(text.contains(&format!("# TYPE {family} ")), "no TYPE for {name}");
        }
        assert!(text.contains("cc_objects 1000"), "{text}");
    }
}
