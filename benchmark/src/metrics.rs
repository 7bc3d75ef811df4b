//! The metric table: every name the ledger emits, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a unit test holds
//! the two together), and later issues cite them verbatim.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// only end-to-end metrics are gated.
    pub bound: Option<f64>,
    /// The workloads that measure it. A layer's metrics come only from
    /// the workloads that run that layer.
    pub on: On,
}

/// Which workloads measure a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum On {
    All,
    /// The three served workloads.
    Wire,
    Only(Workload),
}

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
    }

    pub fn measured_on(&self, w: Workload) -> bool {
        match self.on {
            On::All => true,
            On::Wire => w != Workload::LibMem,
            On::Only(only) => w == only,
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound: Some(bound), on: On::All }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, on: On) -> Spec {
    Spec { name, unit, better, bound: None, on }
}

use Better::{Higher, Lower};
use On::{All, Wire};
const LIB: On = On::Only(Workload::LibMem);
const MEM: On = On::Only(Workload::WireMem);
const PAGED: On = On::Only(Workload::WirePaged);
const RW: On = On::Only(Workload::WireRw);

/// What a user of the system sees and this machine can gate. Every
/// workload reports every one of these, and none of them can be zero.
/// The bounds come from two interleaved sets of ten runs of this code
/// (README, *Results*): the driver measures a metric's spread across
/// seeds, so a bound has to cover that spread, not only the
/// run-to-run noise of one seed.
pub const END_TO_END: &[Spec] = &[
    // Exact for one seed; 2.0 % across seeds.
    e2e("recall_at_10", "share", Higher, 0.06),
    e2e("overall_ratio", "ratio", Lower, 0.005),
    // Fastest of three spaced set-ups. The contract requires it here and
    // tells the builder to give it the largest bound: in a calm hour two
    // sets' medians were 2 % apart, in an hour with up to 30 % steal 7 %.
    e2e("setup_s", "s", Lower, 0.20),
    // Below 1 % except on `wire-rw`, where a reader still holding the
    // previous snapshot while the next clone is made adds 55 MiB to the
    // high-water mark in two runs of three (11 %).
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    e2e("index_mib", "MiB", Lower, 0.01),
];

/// Single layers, from the window, the traced phase and the probes of a
/// traced run. Never gated.
pub const PER_LAYER: &[Spec] = &[
    // Demoted from end-to-end by the agreement protocol (see the README):
    // across a set of ten runs each of them spreads by more than the
    // 0.10 a timing bound may be, on at least two workloads.
    layer("qps", "1/s", Higher, All),
    layer("read_p50_ms", "ms", Lower, All),
    layer("read_p95_ms", "ms", Lower, All),
    // Per-layer because only `wire-rw` writes, and because a share that
    // is normally zero cannot carry a relative bound.
    layer("write_p50_ms", "ms", Lower, RW),
    layer("write_p95_ms", "ms", Lower, RW),
    layer("failed_share", "share", Lower, All),
    // engine: this workload's traced reads
    layer("engine.elapsed_us_p50", "us", Lower, All),
    layer("engine.hash_us", "us", Lower, All),
    layer("engine.count_us", "us", Lower, All),
    layer("engine.verify_us", "us", Lower, All),
    layer("engine.rank_us", "us", Lower, All),
    layer("engine.unattributed_pct", "%", Lower, All),
    layer("engine.rounds_per_query", "count", Lower, All),
    layer("engine.collisions_per_query", "count", Lower, All),
    layer("engine.verified_per_query", "count", Lower, All),
    layer("engine.abandoned_share", "share", Higher, All),
    layer("engine.t2_share", "share", Lower, All),
    // spans: where a traced read's time went on this workload
    layer("span.engine_pct", "%", Lower, All),
    layer("span.outside_engine_pct", "%", Lower, All),
    layer("span.hash_pct", "%", Lower, All),
    layer("span.count_pct", "%", Lower, All),
    layer("span.verify_pct", "%", Lower, All),
    layer("span.rank_pct", "%", Lower, All),
    // kernels: every workload hashes and verifies
    layer("kernels.hash_ns", "ns", Lower, All),
    layer("kernels.project_batch32_ns_per_hash", "ns", Lower, All),
    layer("kernels.verify_ns_per_cand", "ns", Lower, All),
    // index, sharded: the build inside the workload's own set-up
    layer("index.build_s", "s", Lower, LIB),
    layer("sharded.build_s", "s", Lower, MEM),
    // server
    layer("server.wait_us_mean", "us", Lower, Wire),
    layer("server.flush_us_mean", "us", Lower, Wire),
    layer("server.mean_batch", "count", Higher, Wire),
    layer("server.flushes_per_s", "1/s", Higher, Wire),
    layer("server.overloaded", "count", Lower, Wire),
    layer("server.mutation_batch_mean", "count", Higher, RW),
    layer("server.wal_apply_us_mean", "us", Lower, RW),
    // protocol, client
    layer("protocol.codec_us_per_query", "us", Lower, Wire),
    layer("protocol.request_bytes", "B", Lower, Wire),
    layer("protocol.response_bytes", "B", Lower, Wire),
    layer("client.ping_rtt_us", "us", Lower, Wire),
    layer("client.unattributed_pct", "%", Lower, All),
    layer("client.read_p99_ms", "ms", Lower, All),
    // paged, pool, diskfile, codec
    layer("paged.io_reads_per_query", "count", Lower, PAGED),
    layer("paged.read_p50_ms_pool_all", "ms", Lower, PAGED),
    layer("paged.slowdown_vs_mem", "ratio", Lower, PAGED),
    layer("paged.build_s", "s", Lower, PAGED),
    layer("paged.file_mib", "MiB", Lower, PAGED),
    layer("paged.file_bytes_per_user_byte", "ratio", Lower, PAGED),
    layer("pool.hit_ratio", "share", Higher, PAGED),
    layer("pool.evictions_per_query", "count", Lower, PAGED),
    layer("pool.get_hit_ns", "ns", Lower, PAGED),
    layer("pool.get_miss_us", "us", Lower, PAGED),
    layer("diskfile.read_page_us", "us", Lower, PAGED),
    layer("codec.compression_ratio", "ratio", Higher, PAGED),
    layer("codec.decode_ns_per_id", "ns", Lower, PAGED),
    // mutable, dynamic, wal
    layer("mutable.apply_batch1_ms", "ms", Lower, RW),
    layer("dynamic.clone_ms", "ms", Lower, RW),
    layer("wal.append_sync_us", "us", Lower, RW),
    layer("wal.bytes_per_insert", "B", Lower, RW),
    layer("mutable.checkpoint_ms", "ms", Lower, RW),
    layer("mutable.checkpoint_mib", "MiB", Lower, RW),
    layer("mutable.bulk_load_s", "s", Lower, RW),
    layer("mutable.reopen_s", "s", Lower, RW),
    // router
    layer("router.hop_us_p50", "us", Lower, MEM),
    layer("router.failovers", "count", Lower, MEM),
    // obs
    layer("obs.overhead_pct", "%", Lower, MEM),
    layer("trace.overhead_pct", "%", Lower, All),
    // baselines
    layer("scan.qps", "1/s", Higher, LIB),
    layer("scan.speedup", "ratio", Higher, LIB),
    // the benchmark itself: how noisy the machine was
    layer("window.qps_all", "1/s", Higher, All),
    layer("window.read_p50_all_ms", "ms", Lower, All),
    layer("window.read_p99_all_ms", "ms", Lower, All),
    layer("window.quiet_share", "share", Higher, All),
    layer("window.pass_spread", "ratio", Lower, All),
    layer("window.passes", "count", Higher, All),
    layer("window.steal_pct", "%", Lower, All),
    layer("harness.prep_s", "s", Lower, All),
];

#[cfg(test)]
mod tests {
    use super::*;
    use cc_service::json::JsonValue;
    use std::collections::BTreeSet;

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let JsonValue::Array(items) = doc.get(key).unwrap() else { panic!("{key} is no array") };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` and the metric table name the same metrics with
    /// the same units, directions and bounds, in both directions.
    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<_> = table
                .iter()
                .map(|s| {
                    (s.name.to_string(), s.unit.to_string(), s.better.as_str().to_string(), s.bound)
                })
                .collect();
            assert_eq!(listed(&doc, key), want, "{key} differs from the metric table");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(s.name), "{} is listed twice", s.name);
            assert!(s.name.len() <= 64 && s.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(s.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!s.unit.is_empty() && s.unit.len() <= 16);
            assert!(s.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(s.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s" && s.unit == "s"));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
