//! The typed view of the stats frame.
//!
//! The server emits one JSON document shape, marked `"schema": 2` (see
//! `render_stats` in [`crate::server`]), and [`StatsSnapshot::parse`]
//! reads exactly that: a document with any other marker, or none, is
//! refused rather than half-understood. Inside a schema-2 document a
//! missing counter reads as zero and a missing optional object as
//! absent.

use crate::json::JsonValue;

/// Engine-side work counters, folded across all flushes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineSnapshot {
    /// Total virtual-rehashing rounds.
    pub rounds: u64,
    /// Total collision-count increments.
    pub collisions: u64,
    /// Total candidates verified.
    pub verified: u64,
    /// Total candidates cut short by early abandonment.
    pub abandoned: u64,
    /// Total candidates rejected by filter predicates before
    /// verification.
    pub filtered: u64,
    /// Queries that stopped via T1.
    pub t1: u64,
    /// Queries that stopped via T2.
    pub t2: u64,
    /// Queries that exhausted their windows.
    pub exhausted: u64,
    /// Backend page reads.
    pub io_reads: u64,
    /// Engine wall-clock nanoseconds.
    pub elapsed_nanos: u64,
    /// Nanoseconds hashing.
    pub stage_hash_nanos: u64,
    /// Nanoseconds counting collisions.
    pub stage_count_nanos: u64,
    /// Nanoseconds verifying candidates.
    pub stage_verify_nanos: u64,
    /// Nanoseconds ranking.
    pub stage_rank_nanos: u64,
}

/// Cumulative write-path counters (absent for immutable engines).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationSnapshot {
    /// Vectors inserted.
    pub inserts: u64,
    /// Objects deleted.
    pub deletes: u64,
    /// Delete requests whose id was unknown.
    pub delete_misses: u64,
    /// Mutation batches applied.
    pub batches: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL fsyncs issued.
    pub wal_syncs: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Highest acknowledged sequence number.
    pub last_seq: u64,
}

/// Live latency quantiles (present only when the server runs with
/// observability on).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySnapshot {
    /// Median end-to-end query latency, nanoseconds.
    pub query_p50_nanos: u64,
    /// 99th-percentile end-to-end query latency, nanoseconds.
    pub query_p99_nanos: u64,
}

/// One parsed stats document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// The document's schema marker (always [`STATS_SCHEMA`]).
    pub schema: u64,
    /// `"serving"` or `"draining"`.
    pub state: String,
    /// Shards behind the engine.
    pub shards: u64,
    /// Live objects served.
    pub objects: u64,
    /// Dataset dimensionality.
    pub dim: u64,
    /// Queries answered with a top-k response.
    pub queries: u64,
    /// Engine flushes performed.
    pub batches: u64,
    /// Largest number of queries coalesced into one flush.
    pub max_batch: u64,
    /// Queries refused at admission.
    pub overloaded: u64,
    /// Queries whose deadline expired while queued.
    pub deadline_expired: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Inserts acknowledged.
    pub inserts: u64,
    /// Deletes acknowledged.
    pub deletes: u64,
    /// Flushes that applied at least one mutation.
    pub mutation_batches: u64,
    /// WAL-truncating checkpoints written.
    pub checkpoints: u64,
    /// Live named collections.
    pub collections: u64,
    /// Engine-side work counters.
    pub engine: EngineSnapshot,
    /// Write-path counters, when the engine is mutable.
    pub mutations: Option<MutationSnapshot>,
    /// Live latency quantiles, when observability is on.
    pub latency: Option<LatencySnapshot>,
}

/// The one stats schema this crate writes and reads.
pub const STATS_SCHEMA: u64 = 2;

fn u(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

impl StatsSnapshot {
    /// Parse a stats document. Returns `None` when the text is not
    /// valid JSON, not an object, or not marked `"schema": 2`.
    pub fn parse(json: &str) -> Option<StatsSnapshot> {
        let doc = JsonValue::parse(json)?;
        if doc.get("schema").and_then(JsonValue::as_u64) != Some(STATS_SCHEMA) {
            return None;
        }
        let engine = doc.get("engine").map(|e| EngineSnapshot {
            rounds: u(e, "rounds"),
            collisions: u(e, "collisions"),
            verified: u(e, "verified"),
            abandoned: u(e, "abandoned"),
            filtered: u(e, "filtered"),
            t1: u(e, "t1"),
            t2: u(e, "t2"),
            exhausted: u(e, "exhausted"),
            io_reads: u(e, "io_reads"),
            elapsed_nanos: u(e, "elapsed_nanos"),
            stage_hash_nanos: u(e, "stage_hash_nanos"),
            stage_count_nanos: u(e, "stage_count_nanos"),
            stage_verify_nanos: u(e, "stage_verify_nanos"),
            stage_rank_nanos: u(e, "stage_rank_nanos"),
        });
        let mutations = doc.get("mutations").map(|m| MutationSnapshot {
            inserts: u(m, "inserts"),
            deletes: u(m, "deletes"),
            delete_misses: u(m, "delete_misses"),
            batches: u(m, "batches"),
            wal_records: u(m, "wal_records"),
            wal_syncs: u(m, "wal_syncs"),
            wal_bytes: u(m, "wal_bytes"),
            last_seq: u(m, "last_seq"),
        });
        let latency = doc.get("latency").map(|l| LatencySnapshot {
            query_p50_nanos: u(l, "query_p50_nanos"),
            query_p99_nanos: u(l, "query_p99_nanos"),
        });
        Some(StatsSnapshot {
            schema: STATS_SCHEMA,
            state: doc.get("state").and_then(JsonValue::as_str).unwrap_or("").to_string(),
            shards: u(&doc, "shards"),
            objects: u(&doc, "objects"),
            dim: u(&doc, "dim"),
            queries: u(&doc, "queries"),
            batches: u(&doc, "batches"),
            max_batch: u(&doc, "max_batch"),
            overloaded: u(&doc, "overloaded"),
            deadline_expired: u(&doc, "deadline_expired"),
            errors: u(&doc, "errors"),
            inserts: u(&doc, "inserts"),
            deletes: u(&doc, "deletes"),
            mutation_batches: u(&doc, "mutation_batches"),
            checkpoints: u(&doc, "checkpoints"),
            collections: u(&doc, "collections"),
            engine: engine.unwrap_or_default(),
            mutations,
            latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_document_without_the_schema_2_marker_is_refused() {
        // What a server from before the marker emitted, and the same
        // counters under a marker from the future.
        let unmarked = "{\"state\":\"serving\",\"shards\":4,\"objects\":400,\"dim\":8,\
             \"queries\":11,\"engine\":{\"rounds\":30,\"collisions\":900}}";
        assert!(StatsSnapshot::parse(unmarked).is_none(), "no marker");
        let marked = |schema: &str| unmarked.replacen('{', &format!("{{\"schema\":{schema},"), 1);
        assert!(StatsSnapshot::parse(&marked("1")).is_none());
        assert!(StatsSnapshot::parse(&marked("3")).is_none());
        assert!(StatsSnapshot::parse(&marked("\"2\"")).is_none(), "a string is not the marker");
        let s = StatsSnapshot::parse(&marked("2")).unwrap();
        assert_eq!((s.schema, s.queries, s.engine.collisions), (2, 11, 900));
        // Inside schema 2, absent counters and objects read as zero/absent.
        assert_eq!((s.collections, s.engine.stage_hash_nanos), (0, 0));
        assert!(s.mutations.is_none() && s.latency.is_none());
    }

    #[test]
    fn parses_a_document_with_every_optional_object() {
        let doc = "{\"schema\":2,\"state\":\"draining\",\"shards\":1,\"objects\":10,\
             \"dim\":4,\"queries\":5,\"batches\":2,\"max_batch\":3,\"overloaded\":0,\
             \"deadline_expired\":0,\"errors\":0,\"inserts\":7,\"deletes\":1,\
             \"mutation_batches\":2,\"checkpoints\":1,\
             \"engine\":{\"rounds\":9,\"collisions\":100,\"verified\":20,\
             \"abandoned\":0,\"t1\":5,\"t2\":0,\"exhausted\":0,\"io_reads\":3,\
             \"elapsed_nanos\":999,\"stage_hash_nanos\":10,\"stage_count_nanos\":700,\
             \"stage_verify_nanos\":200,\"stage_rank_nanos\":5},\
             \"mutations\":{\"inserts\":7,\"deletes\":1,\"delete_misses\":0,\
             \"batches\":2,\"wal_records\":8,\"wal_syncs\":2,\"wal_bytes\":400,\
             \"last_seq\":8},\
             \"latency\":{\"query_p50_nanos\":50000,\"query_p99_nanos\":900000}}";
        let s = StatsSnapshot::parse(doc).unwrap();
        assert_eq!(s.schema, 2);
        assert_eq!(s.state, "draining");
        assert_eq!(s.engine.stage_count_nanos, 700);
        let m = s.mutations.unwrap();
        assert_eq!(m.wal_records, 8);
        assert_eq!(m.last_seq, 8);
        let l = s.latency.unwrap();
        assert_eq!(l.query_p50_nanos, 50_000);
        assert_eq!(l.query_p99_nanos, 900_000);
    }

    #[test]
    fn rejects_non_objects() {
        assert!(StatsSnapshot::parse("[1,2,3]").is_none());
        assert!(StatsSnapshot::parse("not json").is_none());
    }
}
