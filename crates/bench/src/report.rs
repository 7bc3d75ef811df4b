//! Machine-readable benchmark reports: the `BENCH_<tag>.json` artifact.
//!
//! `bench run` emits one [`BenchReport`] per invocation — dataset shape,
//! parameters, the verification-kernel microbenchmark, and one
//! [`MethodReport`] row per method (qps, latency percentiles, recall,
//! overall ratio, verification/I-O cost, index size). CI's `bench-smoke`
//! job re-reads the checked-in `results/bench_baseline.json` and fails
//! the build when a deterministic quantity regresses
//! ([`check_regression`]): recall, ratio, I/O, index bytes, verified
//! candidates with and without a filter. Throughput and latency are
//! recorded but not gated here — they spread too widely between runs
//! on shared machines; the ledger (`benchmark/`) judges them over
//! alternating pairs.
//!
//! Documents are written and read with the workspace's one JSON codec,
//! [`cc_service::json`].

use cc_service::json::JsonValue;

/// Schema version stamped into every report; bump on breaking changes
/// so the gate can reject incomparable baselines.
pub const SCHEMA_VERSION: u64 = 1;

/// Recall may drop by at most this much against the baseline.
pub const RECALL_TOLERANCE: f64 = 0.02;
/// Overall ratio may rise by at most this much against the baseline.
pub const RATIO_TOLERANCE: f64 = 0.02;
/// The early-abandon kernel must beat the plain kernel by at least this
/// factor on the smoke dataset (the tentpole's acceptance bar).
pub const MIN_VERIFY_SPEEDUP: f64 = 1.3;
/// A method's mean page reads per query may grow by at most this factor
/// over the baseline (skipped when the baseline did no I/O — in-memory
/// methods report zero).
pub const MAX_IO_GROWTH: f64 = 1.5;
/// A method's index bytes may grow by at most this factor over the
/// baseline (skipped when the baseline recorded none).
pub const MAX_INDEX_GROWTH: f64 = 1.25;
/// The paged tier's compressed posting lists must shrink the on-disk
/// bucket layout by at least this factor vs the uncompressed page
/// layout (the tentpole's compression acceptance bar; current-run
/// gate, no baseline needed).
pub const MIN_COMPRESSION_RATIO: f64 = 2.0;

// ---------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------

/// Shape of the dataset a report was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    /// Profile name (e.g. `custom-4000x128`).
    pub name: String,
    /// Base objects.
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
    /// Held-out queries evaluated.
    pub queries: usize,
}

/// The verification-phase microbenchmark: the pre-optimization pipeline
/// (the seed's 4-lane kernel, a fresh candidate buffer per query, a full
/// sort at the end) vs the current one (8-lane early-abandon kernel
/// feeding a live top-k bound, reused scratch) over the same candidate
/// stream — the tentpole's headline number.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyKernelReport {
    /// Nanoseconds per candidate, old verification pipeline.
    pub old_ns_per_cand: f64,
    /// Nanoseconds per candidate, new early-abandon pipeline.
    pub new_ns_per_cand: f64,
    /// `old / new` — the verification-phase speedup.
    pub speedup: f64,
    /// Fraction of candidates the bounded kernel cut short.
    pub abandon_rate: f64,
}

/// One point of the batched-projection sweep: mean cost of one hash
/// (one `m`-row dot product + offset) when `batch` queries are hashed
/// through [`c2lsh::kernels::KernelDispatch::project_batch`] at once.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBatchPoint {
    /// Queries per `project_batch` call.
    pub batch: usize,
    /// Nanoseconds per hash at this batch size (dispatched kernel).
    pub ns_per_hash: f64,
}

/// The SIMD-kernel microbenchmarks: the dispatched kernel vs the scalar
/// oracle on both hot loops (projection hashing and bounded distance),
/// plus the batched-projection sweep. Both kernels produce bit-identical
/// results by contract, so the deltas here are pure speed.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelsReport {
    /// Name of the dispatched kernel (`scalar`, `sse2`, `avx2`, `neon`).
    pub kernel: String,
    /// Nanoseconds per hash, scalar kernel, one query at a time.
    pub scalar_ns_per_hash: f64,
    /// Nanoseconds per hash, dispatched kernel, one query at a time.
    pub dispatched_ns_per_hash: f64,
    /// `scalar / dispatched` projection speedup (1.0 under
    /// `CC_FORCE_SCALAR=1`).
    pub hash_speedup: f64,
    /// Nanoseconds per full-dimension distance, scalar kernel.
    pub scalar_ns_per_cand: f64,
    /// Nanoseconds per full-dimension distance, dispatched kernel.
    pub dispatched_ns_per_cand: f64,
    /// `scalar / dispatched` distance speedup.
    pub cand_speedup: f64,
    /// Dispatched-kernel projection cost vs queries per batch.
    pub batch_sweep: Vec<KernelBatchPoint>,
}

/// A/B measurement of filtered search against its only drop-in
/// alternative: run a selective predicate *inside* the collision loop
/// (rejections happen before any distance computation) vs the naive
/// plan — query unfiltered with `k` inflated until the post-filtered
/// answer reaches at least the filtered arm's recall on the matching
/// subset, then keep only matching points. Equal-or-better recall with
/// strictly fewer verified candidates is the filtered path's acceptance
/// bar, gated by [`check_regression`] (current-run only: the measure
/// is relative within one run, so no baseline is needed).
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredSearchReport {
    /// Fraction of base points matching the predicate.
    pub selectivity: f64,
    /// `k` the post-filter arm had to request to match the filtered
    /// arm's recall.
    pub postfilter_k: usize,
    /// Filtered arm: recall against exact k-NN over the matching
    /// subset.
    pub filtered_recall: f64,
    /// Post-filter arm: recall of the kept top-`k` on the same ground
    /// truth (≥ `filtered_recall` by construction unless it hit `n`).
    pub postfilter_recall: f64,
    /// Mean candidates verified per query, filtered arm.
    pub filtered_verified_per_query: f64,
    /// Mean candidates verified per query, post-filter arm.
    pub postfilter_verified_per_query: f64,
    /// Mean candidates the predicate rejected per query before
    /// verification (filtered arm).
    pub rejected_per_query: f64,
}

/// The paged disk tier's large-profile measurements: streaming ingest
/// into the page file, out-of-core queries through the pinned buffer
/// pool, and a small equal-parameter parity sub-run against the
/// in-memory backend (the recall-drift acceptance bar). Present only on
/// `--profile large` runs; absent (and parsed leniently) everywhere
/// else.
#[derive(Debug, Clone, PartialEq)]
pub struct PagedTierReport {
    /// Points ingested into the page file.
    pub points: usize,
    /// Wall-clock seconds for the streaming build (generate + hash +
    /// spill + merge + write).
    pub ingest_seconds: f64,
    /// Mean *physical* page reads (buffer-pool misses) per query.
    pub io_per_query: f64,
    /// Compressed posting bytes on disk (the index-size metric; the
    /// shared vector segment is excluded, as for every other method).
    pub index_bytes: f64,
    /// Total page-file bytes (vectors + postings + header).
    pub file_bytes: f64,
    /// Buffer-pool capacity, in pages, the query phase ran with.
    pub bufpool_pages: usize,
    /// Buffer-pool hit rate over the query phase, `[0, 1]`.
    pub bufpool_hit_rate: f64,
    /// `uncompressed posting layout bytes / compressed posting bytes`.
    pub compression_ratio: f64,
    /// Peak resident set (VmHWM) after the query phase, bytes.
    pub peak_rss_bytes: f64,
    /// Points in the equal-parameter parity sub-run (0 = skipped).
    pub parity_points: usize,
    /// Paged-backend recall on the parity sub-run.
    pub paged_parity_recall: f64,
    /// In-memory-backend recall on the parity sub-run, same parameters.
    pub mem_parity_recall: f64,
}

/// One method's row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodReport {
    /// Method display name ([`crate::methods::AnnIndex::name`]).
    pub name: String,
    /// Sequential queries per second (wall clock).
    pub qps: f64,
    /// Median query latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile query latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile query latency, milliseconds.
    pub p99_ms: f64,
    /// Mean recall against exact ground truth.
    pub recall: f64,
    /// Mean overall ratio (≥ 1; 1 = exact).
    pub ratio: f64,
    /// Mean candidates verified per query.
    pub verified_per_query: f64,
    /// Mean candidates early-abandoned per query (subset of verified).
    pub abandoned_per_query: f64,
    /// Mean modeled page reads per query.
    pub io_per_query: f64,
    /// Index size in bytes.
    pub index_bytes: f64,
}

/// A full `BENCH_<tag>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Report tag (`smoke`, a dataset name, …) — names the output file.
    pub tag: String,
    /// Dataset shape.
    pub dataset: DatasetInfo,
    /// Neighbors requested per query.
    pub k: usize,
    /// RNG seed every method was built with.
    pub seed: u64,
    /// Kernel microbenchmark (present when the run included it).
    pub verify: Option<VerifyKernelReport>,
    /// SIMD-kernel microbenchmarks (present when the run included
    /// them; absent in baselines written before the kernels existed).
    pub kernels: Option<KernelsReport>,
    /// Filtered-search A/B (present when the run included it; absent
    /// in baselines written before the field existed).
    pub filtered_search: Option<FilteredSearchReport>,
    /// Paged-tier large-profile section (present on `--profile large`
    /// runs; absent in baselines written before the disk tier existed).
    pub paged: Option<PagedTierReport>,
    /// Per-method measurements.
    pub methods: Vec<MethodReport>,
}

impl BenchReport {
    /// Serialize to the canonical pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let dataset = JsonValue::Object(vec![
            ("name".into(), JsonValue::String(self.dataset.name.clone())),
            ("n".into(), JsonValue::number(self.dataset.n as f64)),
            ("d".into(), JsonValue::number(self.dataset.d as f64)),
            ("queries".into(), JsonValue::number(self.dataset.queries as f64)),
        ]);
        let params = JsonValue::Object(vec![
            ("k".into(), JsonValue::number(self.k as f64)),
            ("seed".into(), JsonValue::number(self.seed as f64)),
        ]);
        let verify = match &self.verify {
            None => JsonValue::Null,
            Some(v) => JsonValue::Object(vec![
                ("old_ns_per_cand".into(), JsonValue::number(v.old_ns_per_cand)),
                ("new_ns_per_cand".into(), JsonValue::number(v.new_ns_per_cand)),
                ("speedup".into(), JsonValue::number(v.speedup)),
                ("abandon_rate".into(), JsonValue::number(v.abandon_rate)),
            ]),
        };
        let kernels = match &self.kernels {
            None => JsonValue::Null,
            Some(kr) => JsonValue::Object(vec![
                ("kernel".into(), JsonValue::String(kr.kernel.clone())),
                ("scalar_ns_per_hash".into(), JsonValue::number(kr.scalar_ns_per_hash)),
                ("dispatched_ns_per_hash".into(), JsonValue::number(kr.dispatched_ns_per_hash)),
                ("hash_speedup".into(), JsonValue::number(kr.hash_speedup)),
                ("scalar_ns_per_cand".into(), JsonValue::number(kr.scalar_ns_per_cand)),
                ("dispatched_ns_per_cand".into(), JsonValue::number(kr.dispatched_ns_per_cand)),
                ("cand_speedup".into(), JsonValue::number(kr.cand_speedup)),
                (
                    "batch_sweep".into(),
                    JsonValue::Array(
                        kr.batch_sweep
                            .iter()
                            .map(|p| {
                                JsonValue::Object(vec![
                                    ("batch".into(), JsonValue::number(p.batch as f64)),
                                    ("ns_per_hash".into(), JsonValue::number(p.ns_per_hash)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        let filtered_search = match &self.filtered_search {
            None => JsonValue::Null,
            Some(f) => JsonValue::Object(vec![
                ("selectivity".into(), JsonValue::number(f.selectivity)),
                ("postfilter_k".into(), JsonValue::number(f.postfilter_k as f64)),
                ("filtered_recall".into(), JsonValue::number(f.filtered_recall)),
                ("postfilter_recall".into(), JsonValue::number(f.postfilter_recall)),
                (
                    "filtered_verified_per_query".into(),
                    JsonValue::number(f.filtered_verified_per_query),
                ),
                (
                    "postfilter_verified_per_query".into(),
                    JsonValue::number(f.postfilter_verified_per_query),
                ),
                ("rejected_per_query".into(), JsonValue::number(f.rejected_per_query)),
            ]),
        };
        let paged = match &self.paged {
            None => JsonValue::Null,
            Some(p) => JsonValue::Object(vec![
                ("points".into(), JsonValue::number(p.points as f64)),
                ("ingest_seconds".into(), JsonValue::number(p.ingest_seconds)),
                ("io_per_query".into(), JsonValue::number(p.io_per_query)),
                ("index_bytes".into(), JsonValue::number(p.index_bytes)),
                ("file_bytes".into(), JsonValue::number(p.file_bytes)),
                ("bufpool_pages".into(), JsonValue::number(p.bufpool_pages as f64)),
                ("bufpool_hit_rate".into(), JsonValue::number(p.bufpool_hit_rate)),
                ("compression_ratio".into(), JsonValue::number(p.compression_ratio)),
                ("peak_rss_bytes".into(), JsonValue::number(p.peak_rss_bytes)),
                ("parity_points".into(), JsonValue::number(p.parity_points as f64)),
                ("paged_parity_recall".into(), JsonValue::number(p.paged_parity_recall)),
                ("mem_parity_recall".into(), JsonValue::number(p.mem_parity_recall)),
            ]),
        };
        let methods = JsonValue::Array(
            self.methods
                .iter()
                .map(|m| {
                    JsonValue::Object(vec![
                        ("name".into(), JsonValue::String(m.name.clone())),
                        ("qps".into(), JsonValue::number(m.qps)),
                        ("p50_ms".into(), JsonValue::number(m.p50_ms)),
                        ("p95_ms".into(), JsonValue::number(m.p95_ms)),
                        ("p99_ms".into(), JsonValue::number(m.p99_ms)),
                        ("recall".into(), JsonValue::number(m.recall)),
                        ("ratio".into(), JsonValue::number(m.ratio)),
                        ("verified_per_query".into(), JsonValue::number(m.verified_per_query)),
                        ("abandoned_per_query".into(), JsonValue::number(m.abandoned_per_query)),
                        ("io_per_query".into(), JsonValue::number(m.io_per_query)),
                        ("index_bytes".into(), JsonValue::number(m.index_bytes)),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("schema_version".into(), JsonValue::number(self.schema_version as f64)),
            ("tag".into(), JsonValue::String(self.tag.clone())),
            ("dataset".into(), dataset),
            ("params".into(), params),
            ("verify_kernel".into(), verify),
            ("kernels".into(), kernels),
            ("filtered_search".into(), filtered_search),
            ("paged".into(), paged),
            ("methods".into(), methods),
        ])
        .to_pretty()
    }

    /// Parse a report back from JSON (the inverse of
    /// [`BenchReport::to_json`]; also accepts hand-edited baselines as
    /// long as the required fields are present — sections this version
    /// does not know, such as a retired measurement, are ignored).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = JsonValue::parse(text).ok_or("not a JSON document")?;
        let schema_version = root.num("schema_version").ok_or("missing schema_version")? as u64;
        if schema_version != SCHEMA_VERSION {
            return Err(format!("schema_version {schema_version} != supported {SCHEMA_VERSION}"));
        }
        let tag = root.get("tag").and_then(JsonValue::as_str).ok_or("missing tag")?.to_string();
        let ds = root.get("dataset").ok_or("missing dataset")?;
        let dataset = DatasetInfo {
            name: ds.get("name").and_then(JsonValue::as_str).ok_or("missing dataset.name")?.into(),
            n: ds.num("n").ok_or("missing dataset.n")? as usize,
            d: ds.num("d").ok_or("missing dataset.d")? as usize,
            queries: ds.num("queries").ok_or("missing dataset.queries")? as usize,
        };
        let params = root.get("params").ok_or("missing params")?;
        let k = params.num("k").ok_or("missing params.k")? as usize;
        let seed = params.num("seed").ok_or("missing params.seed")? as u64;
        let verify = match root.get("verify_kernel") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(VerifyKernelReport {
                old_ns_per_cand: v.num("old_ns_per_cand").unwrap_or(0.0),
                new_ns_per_cand: v.num("new_ns_per_cand").unwrap_or(0.0),
                speedup: v.num("speedup").unwrap_or(0.0),
                abandon_rate: v.num("abandon_rate").unwrap_or(0.0),
            }),
        };
        // Absent in pre-SIMD baselines; parse leniently.
        let kernels = match root.get("kernels") {
            None | Some(JsonValue::Null) => None,
            Some(kr) => Some(KernelsReport {
                kernel: kr.get("kernel").and_then(JsonValue::as_str).unwrap_or("scalar").into(),
                scalar_ns_per_hash: kr.num("scalar_ns_per_hash").unwrap_or(0.0),
                dispatched_ns_per_hash: kr.num("dispatched_ns_per_hash").unwrap_or(0.0),
                hash_speedup: kr.num("hash_speedup").unwrap_or(0.0),
                scalar_ns_per_cand: kr.num("scalar_ns_per_cand").unwrap_or(0.0),
                dispatched_ns_per_cand: kr.num("dispatched_ns_per_cand").unwrap_or(0.0),
                cand_speedup: kr.num("cand_speedup").unwrap_or(0.0),
                batch_sweep: kr
                    .get("batch_sweep")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|p| KernelBatchPoint {
                        batch: p.num("batch").unwrap_or(0.0) as usize,
                        ns_per_hash: p.num("ns_per_hash").unwrap_or(0.0),
                    })
                    .collect(),
            }),
        };
        // Absent in pre-filtered-search baselines; parse leniently.
        let filtered_search = match root.get("filtered_search") {
            None | Some(JsonValue::Null) => None,
            Some(f) => Some(FilteredSearchReport {
                selectivity: f.num("selectivity").unwrap_or(0.0),
                postfilter_k: f.num("postfilter_k").unwrap_or(0.0) as usize,
                filtered_recall: f.num("filtered_recall").unwrap_or(0.0),
                postfilter_recall: f.num("postfilter_recall").unwrap_or(0.0),
                filtered_verified_per_query: f.num("filtered_verified_per_query").unwrap_or(0.0),
                postfilter_verified_per_query: f
                    .num("postfilter_verified_per_query")
                    .unwrap_or(0.0),
                rejected_per_query: f.num("rejected_per_query").unwrap_or(0.0),
            }),
        };
        // Absent in pre-disk-tier baselines; parse leniently.
        let paged = match root.get("paged") {
            None | Some(JsonValue::Null) => None,
            Some(p) => Some(PagedTierReport {
                points: p.num("points").unwrap_or(0.0) as usize,
                ingest_seconds: p.num("ingest_seconds").unwrap_or(0.0),
                io_per_query: p.num("io_per_query").unwrap_or(0.0),
                index_bytes: p.num("index_bytes").unwrap_or(0.0),
                file_bytes: p.num("file_bytes").unwrap_or(0.0),
                bufpool_pages: p.num("bufpool_pages").unwrap_or(0.0) as usize,
                bufpool_hit_rate: p.num("bufpool_hit_rate").unwrap_or(0.0),
                compression_ratio: p.num("compression_ratio").unwrap_or(0.0),
                peak_rss_bytes: p.num("peak_rss_bytes").unwrap_or(0.0),
                parity_points: p.num("parity_points").unwrap_or(0.0) as usize,
                paged_parity_recall: p.num("paged_parity_recall").unwrap_or(0.0),
                mem_parity_recall: p.num("mem_parity_recall").unwrap_or(0.0),
            }),
        };
        let methods = root
            .get("methods")
            .and_then(JsonValue::as_array)
            .ok_or("missing methods")?
            .iter()
            .map(|m| -> Result<MethodReport, String> {
                Ok(MethodReport {
                    name: m
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("method missing name")?
                        .into(),
                    qps: m.num("qps").ok_or("method missing qps")?,
                    p50_ms: m.num("p50_ms").unwrap_or(0.0),
                    p95_ms: m.num("p95_ms").unwrap_or(0.0),
                    p99_ms: m.num("p99_ms").unwrap_or(0.0),
                    recall: m.num("recall").ok_or("method missing recall")?,
                    ratio: m.num("ratio").ok_or("method missing ratio")?,
                    verified_per_query: m.num("verified_per_query").unwrap_or(0.0),
                    abandoned_per_query: m.num("abandoned_per_query").unwrap_or(0.0),
                    io_per_query: m.num("io_per_query").unwrap_or(0.0),
                    index_bytes: m.num("index_bytes").unwrap_or(0.0),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version,
            tag,
            dataset,
            k,
            seed,
            verify,
            kernels,
            filtered_search,
            paged,
            methods,
        })
    }

    /// Look up a method row by name.
    pub fn method(&self, name: &str) -> Option<&MethodReport> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// The CI gate: compare `current` against the checked-in `baseline` and
/// return one human-readable line per violation (empty = pass).
///
/// Checked, per baseline method:
/// * the method still exists in `current`,
/// * recall has not dropped by more than [`RECALL_TOLERANCE`],
/// * overall ratio has not risen by more than [`RATIO_TOLERANCE`],
/// * page reads per query and index bytes have not grown past
///   [`MAX_IO_GROWTH`] / [`MAX_INDEX_GROWTH`] × baseline.
///
/// Plus, when both reports carry the kernel microbenchmark: the current
/// early-abandon speedup is at least [`MIN_VERIFY_SPEEDUP`].
///
/// Plus, when the current run carries the filtered-search A/B
/// (current-run only — the measure is relative within one run, so no
/// baseline is needed): the filtered arm must verify
/// strictly fewer candidates than unfiltered + post-filter while the
/// post-filter arm holds equal-or-better recall on the matching
/// subset — otherwise the in-loop predicate would be pointless.
pub fn check_regression(baseline: &BenchReport, current: &BenchReport) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.dataset != current.dataset || baseline.k != current.k {
        violations.push(format!(
            "incomparable runs: baseline {}/n={}/k={} vs current {}/n={}/k={} \
             (refresh the baseline with --write-baseline)",
            baseline.dataset.name,
            baseline.dataset.n,
            baseline.k,
            current.dataset.name,
            current.dataset.n,
            current.k,
        ));
        return violations;
    }
    for base in &baseline.methods {
        let Some(cur) = current.method(&base.name) else {
            violations.push(format!("method {} disappeared from the run", base.name));
            continue;
        };
        if cur.recall < base.recall - RECALL_TOLERANCE {
            violations.push(format!(
                "{}: recall {:.4} fell below baseline {:.4} - {RECALL_TOLERANCE}",
                base.name, cur.recall, base.recall
            ));
        }
        if cur.ratio > base.ratio + RATIO_TOLERANCE {
            violations.push(format!(
                "{}: ratio {:.4} rose above baseline {:.4} + {RATIO_TOLERANCE}",
                base.name, cur.ratio, base.ratio
            ));
        }
        // I/O and index-size gates are skipped for baselines that
        // recorded none (in-memory methods, pre-disk-tier baselines).
        if base.io_per_query > 0.0 && cur.io_per_query > base.io_per_query * MAX_IO_GROWTH {
            violations.push(format!(
                "{}: io/query {:.1} grew past {MAX_IO_GROWTH}x baseline {:.1}",
                base.name, cur.io_per_query, base.io_per_query
            ));
        }
        if base.index_bytes > 0.0 && cur.index_bytes > base.index_bytes * MAX_INDEX_GROWTH {
            violations.push(format!(
                "{}: index bytes {:.0} grew past {MAX_INDEX_GROWTH}x baseline {:.0}",
                base.name, cur.index_bytes, base.index_bytes
            ));
        }
    }
    if let (Some(_), Some(cur)) = (&baseline.verify, &current.verify) {
        if cur.speedup < MIN_VERIFY_SPEEDUP {
            violations.push(format!(
                "verify kernel speedup {:.2}x fell below the {MIN_VERIFY_SPEEDUP}x floor",
                cur.speedup
            ));
        }
    }
    if let Some(fs) = &current.filtered_search {
        if fs.filtered_verified_per_query >= fs.postfilter_verified_per_query {
            violations.push(format!(
                "filtered search verified {:.1} candidates/query, not strictly fewer than \
                 unfiltered + post-filter at k={} ({:.1})",
                fs.filtered_verified_per_query, fs.postfilter_k, fs.postfilter_verified_per_query
            ));
        }
        if fs.postfilter_recall < fs.filtered_recall - RECALL_TOLERANCE {
            violations.push(format!(
                "post-filter arm recall {:.4} never reached the filtered arm's {:.4} - \
                 {RECALL_TOLERANCE} — the verified-candidate comparison is not at equal recall",
                fs.postfilter_recall, fs.filtered_recall
            ));
        }
    }
    // Paged-tier gates are current-run only (the compression ratio and
    // the parity drift are relative measures within one run).
    if let Some(p) = &current.paged {
        if p.compression_ratio < MIN_COMPRESSION_RATIO {
            violations.push(format!(
                "paged tier compression {:.2}x fell below the {MIN_COMPRESSION_RATIO}x floor",
                p.compression_ratio
            ));
        }
        if p.parity_points > 0 && p.paged_parity_recall < p.mem_parity_recall - RECALL_TOLERANCE {
            violations.push(format!(
                "paged backend parity recall {:.4} drifted below the in-memory backend's \
                 {:.4} - {RECALL_TOLERANCE} at equal parameters",
                p.paged_parity_recall, p.mem_parity_recall
            ));
        }
    }
    // When one run measured both disk layouts, the compressed paged
    // index must be at least MIN_COMPRESSION_RATIO smaller than the
    // uncompressed per-entry disk layout.
    if let (Some(paged), Some(disk)) =
        (current.method("C2LSH(paged)"), current.method("C2LSH(disk)"))
    {
        if paged.index_bytes > 0.0
            && disk.index_bytes > 0.0
            && paged.index_bytes * MIN_COMPRESSION_RATIO > disk.index_bytes
        {
            violations.push(format!(
                "paged index {:.0} bytes is not {MIN_COMPRESSION_RATIO}x smaller than the \
                 uncompressed disk layout's {:.0}",
                paged.index_bytes, disk.index_bytes
            ));
        }
    }
    violations
}

/// Latency percentile over raw per-query nanosecond samples
/// (nearest-rank definition; `p` in `[0, 100]`).
pub fn percentile_ms(samples_ns: &[u64], p: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            tag: "smoke".into(),
            dataset: DatasetInfo { name: "custom-4000x128".into(), n: 4000, d: 128, queries: 40 },
            k: 10,
            seed: 42,
            verify: Some(VerifyKernelReport {
                old_ns_per_cand: 100.0,
                new_ns_per_cand: 40.0,
                speedup: 2.5,
                abandon_rate: 0.8,
            }),
            kernels: Some(KernelsReport {
                kernel: "avx2".into(),
                scalar_ns_per_hash: 120.0,
                dispatched_ns_per_hash: 30.0,
                hash_speedup: 4.0,
                scalar_ns_per_cand: 80.0,
                dispatched_ns_per_cand: 25.0,
                cand_speedup: 3.2,
                batch_sweep: vec![
                    KernelBatchPoint { batch: 1, ns_per_hash: 32.0 },
                    KernelBatchPoint { batch: 8, ns_per_hash: 28.0 },
                ],
            }),
            filtered_search: Some(FilteredSearchReport {
                selectivity: 0.33,
                postfilter_k: 30,
                filtered_recall: 0.95,
                postfilter_recall: 0.96,
                filtered_verified_per_query: 60.0,
                postfilter_verified_per_query: 140.0,
                rejected_per_query: 110.0,
            }),
            paged: Some(PagedTierReport {
                points: 1_000_000,
                ingest_seconds: 120.0,
                io_per_query: 85.0,
                index_bytes: 9.0e7,
                file_bytes: 6.0e8,
                bufpool_pages: 4096,
                bufpool_hit_rate: 0.92,
                compression_ratio: 2.6,
                peak_rss_bytes: 3.0e8,
                parity_points: 120_000,
                paged_parity_recall: 0.94,
                mem_parity_recall: 0.95,
            }),
            methods: vec![
                MethodReport {
                    name: "C2LSH".into(),
                    qps: 1000.0,
                    p50_ms: 0.9,
                    p95_ms: 1.5,
                    p99_ms: 2.0,
                    recall: 0.95,
                    ratio: 1.01,
                    verified_per_query: 150.0,
                    abandoned_per_query: 90.0,
                    io_per_query: 30.0,
                    index_bytes: 1.5e6,
                },
                MethodReport {
                    name: "LinearScan".into(),
                    qps: 200.0,
                    p50_ms: 5.0,
                    p95_ms: 5.5,
                    p99_ms: 6.0,
                    recall: 1.0,
                    ratio: 1.0,
                    verified_per_query: 4000.0,
                    abandoned_per_query: 0.0,
                    io_per_query: 500.0,
                    index_bytes: 0.0,
                },
            ],
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = sample_report();
        let text = r.to_json();
        let back = BenchReport::from_json(&text).expect("parse back");
        assert_eq!(back, r);
    }

    #[test]
    fn gate_passes_on_identical_runs() {
        let r = sample_report();
        assert!(check_regression(&r, &r).is_empty());
    }

    #[test]
    fn gate_catches_recall_ratio_and_missing_method() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.methods[0].recall = base.methods[0].recall - RECALL_TOLERANCE - 0.01;
        cur.methods[0].ratio = base.methods[0].ratio + RATIO_TOLERANCE + 0.01;
        cur.methods.pop(); // LinearScan disappears
        let v = check_regression(&base, &cur);
        assert_eq!(v.len(), 3, "violations: {v:?}");
        assert!(v.iter().any(|m| m.contains("recall")));
        assert!(v.iter().any(|m| m.contains("ratio")));
        assert!(v.iter().any(|m| m.contains("disappeared")));
    }

    #[test]
    fn gate_tolerates_jitter_and_does_not_judge_timing() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.methods[0].recall -= RECALL_TOLERANCE / 2.0;
        cur.methods[0].ratio += RATIO_TOLERANCE / 2.0;
        // Throughput and latency are recorded, never gated.
        cur.methods[0].qps *= 0.1;
        cur.methods[0].p99_ms *= 10.0;
        assert!(check_regression(&base, &cur).is_empty());
    }

    #[test]
    fn gate_catches_kernel_speedup_collapse() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.verify.as_mut().unwrap().speedup = 1.0;
        let v = check_regression(&base, &cur);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("speedup"));
    }

    #[test]
    fn kernels_field_is_optional() {
        // A baseline written before the SIMD kernels still parses
        // (kernels -> None).
        let mut base_text = sample_report().to_json();
        let start = base_text.find("\"kernels\"").unwrap();
        let end = base_text[start..].find("]\n  },").unwrap() + start + 6;
        base_text.replace_range(start..end, "\"kernels\": null,");
        let base = BenchReport::from_json(&base_text).expect("legacy baseline parses");
        assert_eq!(base.kernels, None);
        // And a current run without the section is never gated on it.
        let mut cur = sample_report();
        cur.kernels = None;
        assert!(check_regression(&base, &cur).is_empty());
    }

    #[test]
    fn checked_in_baselines_load() {
        // Both still carry the retired `obs_overhead` section (an object
        // in one, `null` in the other): sections this version does not
        // know are ignored, not an error.
        for (text, paged) in [
            (include_str!("../../../results/bench_baseline.json"), false),
            (include_str!("../../../results/bench_baseline_large.json"), true),
        ] {
            assert!(text.contains("\"obs_overhead\""));
            let baseline = BenchReport::from_json(text).expect("baseline parses");
            assert_eq!(baseline.paged.is_some(), paged);
            assert!(baseline.method("C2LSH(paged)").is_some());
            assert!(check_regression(&baseline, &baseline).is_empty());
        }
    }

    #[test]
    fn gate_catches_filtered_search_not_cheaper() {
        let base = sample_report();
        let mut cur = sample_report();
        // Filtered arm verifying as much as the post-filter arm defeats
        // the in-loop predicate.
        cur.filtered_search.as_mut().unwrap().filtered_verified_per_query = 140.0;
        let v = check_regression(&base, &cur);
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("not strictly fewer"));
    }

    #[test]
    fn gate_catches_filtered_search_recall_mismatch() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.filtered_search.as_mut().unwrap().postfilter_recall = 0.95 - RECALL_TOLERANCE - 0.01;
        let v = check_regression(&base, &cur);
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("equal recall"));
    }

    #[test]
    fn filtered_search_field_is_optional() {
        // A baseline written before the field existed still parses
        // (filtered_search -> None) and does not gate anything.
        let mut base_text = sample_report().to_json();
        let start = base_text.find("\"filtered_search\"").unwrap();
        let end = base_text[start..].find("},").unwrap() + start + 2;
        base_text.replace_range(start..end, "\"filtered_search\": null,");
        let base = BenchReport::from_json(&base_text).expect("legacy baseline parses");
        assert_eq!(base.filtered_search, None);
        assert!(check_regression(&base, &sample_report()).is_empty());

        // A current run without the A/B is not penalized either.
        let mut cur = sample_report();
        cur.filtered_search = None;
        assert!(check_regression(&base, &cur).is_empty());
    }

    #[test]
    fn gate_catches_io_and_index_growth() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.methods[0].io_per_query = base.methods[0].io_per_query * MAX_IO_GROWTH * 1.1;
        cur.methods[0].index_bytes = base.methods[0].index_bytes * MAX_INDEX_GROWTH * 1.1;
        let v = check_regression(&base, &cur);
        assert_eq!(v.len(), 2, "violations: {v:?}");
        assert!(v.iter().any(|m| m.contains("io/query")));
        assert!(v.iter().any(|m| m.contains("index bytes")));
        // Zero-valued baseline fields (in-memory methods, legacy
        // baselines) never gate.
        let mut cur = sample_report();
        cur.methods[1].io_per_query = 1.0e9;
        cur.methods[1].index_bytes = 1.0e9;
        let mut base = sample_report();
        base.methods[1].io_per_query = 0.0;
        assert!(check_regression(&base, &cur).is_empty());
    }

    #[test]
    fn gate_catches_paged_compression_and_parity_drift() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.paged.as_mut().unwrap().compression_ratio = MIN_COMPRESSION_RATIO - 0.3;
        cur.paged.as_mut().unwrap().paged_parity_recall =
            cur.paged.as_ref().unwrap().mem_parity_recall - RECALL_TOLERANCE - 0.01;
        let v = check_regression(&base, &cur);
        assert_eq!(v.len(), 2, "violations: {v:?}");
        assert!(v.iter().any(|m| m.contains("compression")));
        assert!(v.iter().any(|m| m.contains("parity recall")));
        // A skipped parity sub-run (parity_points = 0) does not gate.
        let mut cur = sample_report();
        cur.paged.as_mut().unwrap().parity_points = 0;
        cur.paged.as_mut().unwrap().paged_parity_recall = 0.0;
        assert!(check_regression(&base, &cur).is_empty());
    }

    #[test]
    fn gate_compares_paged_vs_disk_index_bytes_when_both_present() {
        let base = sample_report();
        let mut cur = sample_report();
        let mut paged_row = cur.methods[0].clone();
        paged_row.name = "C2LSH(paged)".into();
        paged_row.index_bytes = 1.0e6;
        let mut disk_row = cur.methods[0].clone();
        disk_row.name = "C2LSH(disk)".into();
        disk_row.index_bytes = 3.0e6; // 3x larger: passes the 2x bar
        cur.methods.push(paged_row);
        cur.methods.push(disk_row);
        assert!(check_regression(&base, &cur).is_empty());
        cur.methods.last_mut().unwrap().index_bytes = 1.5e6; // only 1.5x
        let v = check_regression(&base, &cur);
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("not 2x smaller"));
    }

    #[test]
    fn paged_field_is_optional() {
        // A baseline written before the disk tier still parses
        // (paged -> None) and does not gate anything.
        let mut base_text = sample_report().to_json();
        let start = base_text.find("\"paged\"").unwrap();
        let end = base_text[start..].find("},").unwrap() + start + 2;
        base_text.replace_range(start..end, "\"paged\": null,");
        let base = BenchReport::from_json(&base_text).expect("legacy baseline parses");
        assert_eq!(base.paged, None);
        assert!(check_regression(&base, &sample_report()).is_empty());

        // A current run without the large profile is not penalized.
        let mut cur = sample_report();
        cur.paged = None;
        assert!(check_regression(&base, &cur).is_empty());
    }

    #[test]
    fn gate_rejects_incomparable_datasets() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.dataset.n = 9999;
        let v = check_regression(&base, &cur);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("incomparable"));
    }

    #[test]
    fn schema_version_mismatch_is_an_error() {
        let mut text = sample_report().to_json();
        text = text.replace("\"schema_version\": 1", "\"schema_version\": 999");
        assert!(BenchReport::from_json(&text).is_err());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect(); // 1..=100 ms
        assert_eq!(percentile_ms(&ns, 50.0), 50.0);
        assert_eq!(percentile_ms(&ns, 95.0), 95.0);
        assert_eq!(percentile_ms(&ns, 99.0), 99.0);
        assert_eq!(percentile_ms(&ns, 100.0), 100.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
        assert_eq!(percentile_ms(&[7_000_000], 99.0), 7.0);
    }
}
