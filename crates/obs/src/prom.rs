//! Prometheus text-format exposition.
//!
//! [`PromText`] builds a `text/plain; version=0.0.4` document: every
//! metric family gets exactly one `# HELP` and `# TYPE` line, duplicate
//! family names are rejected (debug assert + silent skip in release,
//! so a scrape never serves an invalid document), and histograms are
//! exposed as summaries with precomputed quantiles — the natural fit
//! for the log-linear [`Histogram`](crate::Histogram), which knows its
//! quantiles but not client-chosen bucket boundaries.

use crate::hist::HistSnapshot;
use std::collections::BTreeSet;
use std::fmt::Write;

/// Quantiles every histogram family exports.
pub(crate) const QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Builder for one exposition document.
#[derive(Default)]
pub struct PromText {
    out: String,
    seen: BTreeSet<String>,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if a family named `name` was already emitted; registers it
    /// otherwise. Guards every emit below.
    fn register(&mut self, name: &str) -> bool {
        let dup = !self.seen.insert(name.to_string());
        debug_assert!(!dup, "duplicate metric family {name:?}");
        dup
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emit a monotone counter. By convention `name` ends in `_total`.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        if self.register(name) {
            return;
        }
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Emit a gauge (a value that can go both ways).
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        if self.register(name) {
            return;
        }
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Escape a label value per the exposition format (backslash,
    /// double-quote, newline).
    fn escape_label(value: &str) -> String {
        value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
    }

    /// Emit one counter family with a label dimension: one `# HELP` /
    /// `# TYPE` header, then one series per `(label value, count)`
    /// pair. An empty series list emits nothing — an exposition must
    /// not carry a header without samples.
    pub fn counter_labeled(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        series: &[(String, u64)],
    ) {
        if series.is_empty() || self.register(name) {
            return;
        }
        self.header(name, help, "counter");
        for (value, count) in series {
            let v = Self::escape_label(value);
            let _ = writeln!(self.out, "{name}{{{label}=\"{v}\"}} {count}");
        }
    }

    /// Emit one gauge family with a label dimension (see
    /// [`PromText::counter_labeled`]).
    pub fn gauge_labeled(&mut self, name: &str, help: &str, label: &str, series: &[(String, f64)]) {
        if series.is_empty() || self.register(name) {
            return;
        }
        self.header(name, help, "gauge");
        for (value, gauge) in series {
            let v = Self::escape_label(value);
            let _ = writeln!(self.out, "{name}{{{label}=\"{v}\"}} {gauge}");
        }
    }

    /// Emit a nanosecond-valued histogram snapshot as a summary in
    /// seconds: `{quantile="…"}` series plus `_sum` / `_count`.
    /// `name` should end in `_seconds`.
    pub fn summary_seconds(&mut self, name: &str, help: &str, snap: &HistSnapshot) {
        if self.register(name) {
            return;
        }
        self.header(name, help, "summary");
        for (q, label) in QUANTILES {
            let secs = snap.quantile(q) as f64 / 1e9;
            let _ = writeln!(self.out, "{name}{{quantile=\"{label}\"}} {secs:e}");
        }
        let _ = writeln!(self.out, "{name}_sum {:e}", snap.sum as f64 / 1e9);
        let _ = writeln!(self.out, "{name}_count {}", snap.count);
    }

    /// Emit a unitless histogram snapshot (batch sizes, candidate
    /// counts) as a summary over raw values.
    pub fn summary_units(&mut self, name: &str, help: &str, snap: &HistSnapshot) {
        if self.register(name) {
            return;
        }
        self.header(name, help, "summary");
        for (q, label) in QUANTILES {
            let _ = writeln!(self.out, "{name}{{quantile=\"{label}\"}} {}", snap.quantile(q));
        }
        let _ = writeln!(self.out, "{name}_sum {}", snap.sum);
        let _ = writeln!(self.out, "{name}_count {}", snap.count);
    }

    /// Finish the document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// The value of one series in an exposition document: `series` is the
/// whole sample name, labels included (`cc_queries_total`,
/// `cc_query_seconds{quantile="0.5"}`). `None` when no sample line
/// carries exactly that name.
pub fn sample(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn families_have_help_type_and_no_duplicates() {
        let hist = Histogram::new();
        for v in [1_000u64, 2_000, 1_000_000] {
            hist.record(v);
        }
        let mut doc = PromText::new();
        doc.counter("cc_queries_total", "Queries served.", 7);
        doc.gauge("cc_objects", "Indexed objects.", 123.0);
        doc.summary_seconds("cc_query_seconds", "End-to-end latency.", &hist.snapshot());
        let text = doc.finish();

        assert!(text.contains("# HELP cc_queries_total Queries served."), "{text}");
        assert!(text.contains("# TYPE cc_queries_total counter"), "{text}");
        assert!(text.contains("cc_queries_total 7"), "{text}");
        assert!(text.contains("# TYPE cc_query_seconds summary"), "{text}");
        assert!(text.contains("cc_query_seconds{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("cc_query_seconds_count 3"), "{text}");

        // Exactly one HELP/TYPE per family.
        for family in ["cc_queries_total", "cc_objects", "cc_query_seconds"] {
            let helps = text.matches(&format!("# HELP {family} ")).count();
            assert_eq!(helps, 1, "family {family} must have exactly one HELP");
        }
    }

    #[test]
    fn labeled_families_escape_values_and_share_one_header() {
        let mut doc = PromText::new();
        doc.counter_labeled(
            "cc_collection_queries_total",
            "Queries per collection.",
            "collection",
            &[("alpha".into(), 3), ("we\"ird\\n".into(), 9)],
        );
        doc.gauge_labeled(
            "cc_collection_objects",
            "Objects per collection.",
            "collection",
            &[("alpha".into(), 12.0)],
        );
        doc.counter_labeled("cc_empty_total", "Never emitted.", "collection", &[]);
        let text = doc.finish();
        assert!(text.contains("cc_collection_queries_total{collection=\"alpha\"} 3"), "{text}");
        assert!(
            text.contains("cc_collection_queries_total{collection=\"we\\\"ird\\\\n\"} 9"),
            "{text}"
        );
        assert!(text.contains("cc_collection_objects{collection=\"alpha\"} 12"), "{text}");
        assert_eq!(
            text.matches("# HELP cc_collection_queries_total ").count(),
            1,
            "one header per family: {text}"
        );
        assert!(!text.contains("cc_empty_total"), "empty family must emit nothing: {text}");
    }

    #[test]
    fn sample_reads_exactly_the_named_series() {
        let hist = Histogram::new();
        for v in [1_000u64, 2_000, 3_000] {
            hist.record(v);
        }
        let mut doc = PromText::new();
        doc.counter_labeled(
            "cc_collection_queries_total",
            "Queries per collection.",
            "collection",
            &[("alpha".into(), 3), ("beta".into(), 9)],
        );
        doc.summary_seconds("cc_query_seconds", "End-to-end latency.", &hist.snapshot());
        let text = doc.finish();
        assert_eq!(sample(&text, "cc_collection_queries_total{collection=\"beta\"}"), Some(9.0));
        assert_eq!(sample(&text, "cc_collection_queries_total"), None, "labels are part of it");
        assert_eq!(sample(&text, "cc_missing_total"), None);
        // A family name that prefixes another's reads neither.
        assert_eq!(sample(&text, "cc_query_seconds_count"), Some(3.0));
        assert_eq!(sample(&text, "cc_query_seconds"), None);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "duplicate metric family"))]
    fn duplicate_family_is_rejected() {
        let mut doc = PromText::new();
        doc.counter("cc_x_total", "x", 1);
        doc.counter("cc_x_total", "x again", 2);
        // Release builds skip the duplicate instead of panicking.
        let text = doc.finish();
        let values = text.lines().filter(|l| l.starts_with("cc_x_total ")).count();
        assert_eq!(values, 1, "{text}");
    }
}
