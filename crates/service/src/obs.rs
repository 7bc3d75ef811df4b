//! The service's live metric registry: counters, stage histograms,
//! the slow-query ring, and the Prometheus renderer behind both the
//! [`crate::Request::Metrics`] opcode and the `--metrics-addr` HTTP
//! listener.
//!
//! One [`ServerObs`] lives for the whole service lifetime and is
//! shared (via `Arc`) between the serving core — which feeds it from
//! the flush path — and the scrape listener, which renders it on
//! demand. Everything inside is lock-free or locked off the hot path:
//! counters are striped atomics, histograms are atomic bucket arrays,
//! and the slow log's mutex is only taken for queries already known to
//! be slow.
//!
//! The cheap monotone counters are maintained unconditionally (they
//! also back the stats frame); the per-query histograms, traces and
//! slow log are gated on [`ObsConfig::enabled`] so a service started
//! without observability pays nothing per query.

use crate::collections::CollectionMetricsRow;
use cc_obs::{Counter, Histogram, MetricsSource, ObsConfig, PromText, SlowLog, SlowQuery};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A provider of per-collection counter snapshots — the serving layer
/// installs one backed by its collection registry.
pub type CollectionsSource = Box<dyn Fn() -> Vec<CollectionMetricsRow> + Send + Sync>;

/// A snapshot of the paged tier's pinned buffer pool — a plain struct
/// (not the storage crate's stats type) so the registry stays free of
/// engine-layer dependencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufpoolSnapshot {
    /// Page lookups served (hits + misses).
    pub requests: u64,
    /// Lookups satisfied from a resident frame.
    pub hits: u64,
    /// Lookups that went to disk.
    pub misses: u64,
    /// Frames recycled by the clock sweep.
    pub evictions: u64,
    /// Pool capacity, in pages.
    pub capacity_pages: u64,
    /// Pages currently resident.
    pub resident_pages: u64,
}

impl BufpoolSnapshot {
    /// Hits over requests; 0 before any traffic.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// A provider of buffer-pool snapshots — installed by the serving
/// layer when the engine is the paged disk tier.
pub type BufpoolSource = Box<dyn Fn() -> BufpoolSnapshot + Send + Sync>;

/// A provider of per-replica lag rows `(replica, lag_in_seqs)` —
/// installed by the serving layer when this node is a replication
/// primary with at least one subscriber.
pub type ReplicasSource = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

/// Live metric registry for one service instance.
pub struct ServerObs {
    config: ObsConfig,
    // Index facts mirrored for the scrape path (the listener has no
    // engine reference).
    objects: AtomicU64,
    dim: AtomicU64,
    shards: AtomicU64,
    draining: AtomicBool,
    // Monotone counters (also visible in the stats frame).
    /// Queries answered with a top-k response.
    pub queries: Counter,
    /// Engine flushes performed.
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
    /// Candidates rejected by filter predicates before verification.
    pub filtered: Counter,
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
            filtered: Counter::new(),
            traces: Counter::new(),
            slow_queries: Counter::new(),
            router_fanout: Counter::new(),
            router_failover: Counter::new(),
            router_node_errors: Counter::new(),
            queue_wait: Histogram::new(),
            query_total: Histogram::new(),
            stage_hash: Histogram::new(),
            stage_count: Histogram::new(),
            stage_verify: Histogram::new(),
            stage_rank: Histogram::new(),
            wal_apply: Histogram::new(),
            flush_total: Histogram::new(),
            batch_size: Histogram::new(),
            slowlog: SlowLog::new(config.slow_log_capacity),
            next_trace_id: AtomicU64::new(1),
            collections: Mutex::new(None),
            bufpool: Mutex::new(None),
            replicas: Mutex::new(None),
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

    /// Record one flush: its wall time, queries coalesced, and the WAL
    /// apply time when the flush carried mutations. No-op unless
    /// enabled.
    pub fn record_flush(&self, flush_ns: u64, batch_len: u64, wal_ns: Option<u64>) {
        if !self.on() {
            return;
        }
        self.flush_total.record(flush_ns);
        self.batch_size.record(batch_len);
        if let Some(ns) = wal_ns {
            self.wal_apply.record(ns);
        }
    }

    /// Consider a query for the slow log; returns whether it was
    /// retained.
    pub fn maybe_log_slow(
        &self,
        trace_id: u64,
        total_ns: u64,
        k: u32,
        spans: &[c2lsh::SpanRecord],
    ) -> bool {
        if !self.on() || self.config.slow_query_ms == 0 {
            return false;
        }
        if total_ns < self.config.slow_query_ms.saturating_mul(1_000_000) {
            return false;
        }
        self.slow_queries.inc();
        self.slowlog.push(SlowQuery { trace_id, total_ns, k, spans: spans.to_vec() });
        true
    }

    /// p50/p99 of end-to-end query latency in nanoseconds (for the
    /// stats frame's `latency` object).
    pub fn query_latency_quantiles(&self) -> (u64, u64) {
        let snap = self.query_total.snapshot();
        (snap.quantile(0.5), snap.quantile(0.99))
    }

    /// Render the full Prometheus text exposition document.
    pub fn render_prometheus(&self) -> String {
        let mut doc = PromText::new();
        doc.gauge("cc_up", "The service is running.", 1.0);
        doc.gauge(
            "cc_draining",
            "1 once graceful shutdown began.",
            if self.draining.load(Ordering::Relaxed) { 1.0 } else { 0.0 },
        );
        doc.gauge(
            "cc_objects",
            "Live objects served.",
            self.objects.load(Ordering::Relaxed) as f64,
        );
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
        doc.counter(
            "cc_queries_total",
            "Queries answered with a top-k response.",
            self.queries.get(),
        );
        doc.counter("cc_batches_total", "Engine flushes performed.", self.batches.get());
        doc.counter("cc_errors_total", "Requests answered with an error frame.", self.errors.get());
        doc.counter("cc_overloaded_total", "Queries refused at admission.", self.overloaded.get());
        doc.counter(
            "cc_deadline_expired_total",
            "Queries whose deadline expired while queued.",
            self.deadline_expired.get(),
        );
        doc.counter("cc_inserts_total", "Inserts acknowledged.", self.inserts.get());
        doc.counter("cc_deletes_total", "Deletes acknowledged (found or not).", self.deletes.get());
        doc.counter(
            "cc_filtered_candidates_total",
            "Candidates rejected by filter predicates before verification.",
            self.filtered.get(),
        );
        doc.counter("cc_traces_total", "Queries with a captured span tree.", self.traces.get());
        doc.counter(
            "cc_slow_queries_total",
            "Queries retained in the slow log.",
            self.slow_queries.get(),
        );
        doc.counter(
            "cc_router_fanout_total",
            "Scatter legs issued by the router (one per node per query).",
            self.router_fanout.get(),
        );
        doc.counter(
            "cc_router_failover_total",
            "Queries that fell over to another replica after a node failure.",
            self.router_failover.get(),
        );
        doc.counter(
            "cc_router_node_errors_total",
            "Individual node legs that errored (connect, deadline, stale, error frame).",
            self.router_node_errors.get(),
        );
        doc.summary_seconds(
            "cc_queue_wait_seconds",
            "Time from admission to engine dispatch.",
            &self.queue_wait.snapshot(),
        );
        doc.summary_seconds(
            "cc_query_seconds",
            "End-to-end query latency (queue wait + execution).",
            &self.query_total.snapshot(),
        );
        doc.summary_seconds(
            "cc_stage_hash_seconds",
            "Per-query time hashing into table keys.",
            &self.stage_hash.snapshot(),
        );
        doc.summary_seconds(
            "cc_stage_count_seconds",
            "Per-query time expanding windows and counting collisions.",
            &self.stage_count.snapshot(),
        );
        doc.summary_seconds(
            "cc_stage_verify_seconds",
            "Per-query time verifying candidate distances.",
            &self.stage_verify.snapshot(),
        );
        doc.summary_seconds(
            "cc_stage_rank_seconds",
            "Per-query time ranking candidates.",
            &self.stage_rank.snapshot(),
        );
        doc.summary_seconds(
            "cc_wal_apply_seconds",
            "Per-flush time applying mutations durably (WAL append + fsync).",
            &self.wal_apply.snapshot(),
        );
        doc.summary_seconds(
            "cc_flush_seconds",
            "Wall time of one whole flush (mutations + query batch).",
            &self.flush_total.snapshot(),
        );
        doc.summary_units(
            "cc_batch_size",
            "Queries coalesced per engine flush.",
            &self.batch_size.snapshot(),
        );
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
                s.capacity_pages as f64,
            );
            doc.gauge(
                "cc_bufpool_resident_pages",
                "Pages currently resident in the buffer pool.",
                s.resident_pages as f64,
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

    #[test]
    fn disabled_registry_records_nothing_per_query() {
        let obs = ServerObs::disabled();
        obs.record_query(1_000, 2_000, &StageNanos::default());
        obs.record_flush(5_000, 4, Some(100));
        assert!(!obs.maybe_log_slow(1, u64::MAX, 10, &[]));
        let text = obs.render_prometheus();
        assert!(text.contains("cc_query_seconds_count 0"), "{text}");
        assert!(text.contains("cc_flush_seconds_count 0"), "{text}");
    }

    #[test]
    fn enabled_registry_feeds_histograms_and_slowlog() {
        let obs =
            ServerObs::new(ObsConfig { enabled: true, slow_query_ms: 1, ..ObsConfig::default() });
        let stage = StageNanos { hash: 100, count: 4_000, verify: 900, rank: 50 };
        obs.record_query(10_000, 5_000_000, &stage);
        obs.record_flush(6_000_000, 1, None);
        assert!(obs.maybe_log_slow(3, 5_000_000, 7, &[]));
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
        obs.set_bufpool_source(Box::new(|| BufpoolSnapshot {
            requests: 100,
            hits: 90,
            misses: 10,
            evictions: 4,
            capacity_pages: 64,
            resident_pages: 60,
        }));
        let text = obs.render_prometheus();
        assert!(text.contains("cc_bufpool_requests_total 100"), "{text}");
        assert!(text.contains("cc_bufpool_hits_total 90"), "{text}");
        assert!(text.contains("cc_bufpool_misses_total 10"), "{text}");
        assert!(text.contains("cc_bufpool_evictions_total 4"), "{text}");
        assert!(text.contains("cc_bufpool_capacity_pages 64"), "{text}");
        assert!(text.contains("cc_bufpool_resident_pages 60"), "{text}");
        assert!(text.contains("cc_bufpool_hit_ratio 0.9"), "{text}");
    }

    #[test]
    fn exposition_has_help_and_type_for_every_series() {
        let obs = ServerObs::new(ObsConfig::all_on());
        obs.set_index_info(1000, 16, 4);
        obs.set_bufpool_source(Box::new(|| BufpoolSnapshot {
            requests: 1,
            ..BufpoolSnapshot::default()
        }));
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
