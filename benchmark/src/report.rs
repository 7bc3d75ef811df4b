//! The report of one run: header, verdict and every metric by name and
//! unit. Serialised with `cc_service::json` (the workspace is offline,
//! so no serde); `from_json` reads back what `to_json` wrote, which is
//! all `ledger compare` needs.

use crate::metrics::{Spec, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use cc_service::json::{JsonObject, JsonValue};
use std::collections::BTreeMap;

/// Machine facts printed at the top of every report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Header {
    pub nproc: u64,
    pub kernel: String,
    pub rustc: String,
    pub git_sha: String,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub header: Header,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// `--quick` runs use a tenth of the data and are not comparable
    /// with full runs.
    pub comparable: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → value; units come from [`crate::metrics`].
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    Spec::find(name).map_or("", |s| s.unit)
}

fn metric_object<'a>(values: impl Iterator<Item = (&'a str, f64)>) -> String {
    let mut obj = JsonObject::new();
    for (name, value) in values {
        let entry =
            JsonObject::new().field_f64("value", value).field_str("unit", unit_of(name)).finish();
        obj = obj.field_obj(name, &entry);
    }
    obj.finish()
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = Spec::find(name).unwrap_or_else(|| panic!("metric {name} is not in the table"));
        let w = Workload::parse(&self.workload).expect("a report names its workload");
        assert!(spec.measured_on(w), "{} does not measure {name}", self.workload);
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The one-line result the contract asks for as the last line of
    /// standard output: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one. The contract wants every
    /// listed name on every workload, as a number: a metric of a layer
    /// this workload does not run reads 0 in this line (the layer did no
    /// work here), and appears nowhere else in the report.
    pub fn contract_line(&self) -> String {
        let list = if self.traced { PER_LAYER } else { END_TO_END };
        let w = Workload::parse(&self.workload).expect("a report names its workload");
        let values = list.iter().map(|spec| match self.get(spec.name) {
            Some(value) => (spec.name, value),
            None if !spec.measured_on(w) => (spec.name, 0.0),
            None => panic!("{} did not measure {}", self.workload, spec.name),
        });
        JsonObject::new()
            .field_obj("correct", if self.correct { "true" } else { "false" })
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_obj("metrics", &metric_object(values))
            .finish()
    }

    pub fn to_json(&self) -> String {
        let header = JsonObject::new()
            .field_u64("nproc", self.header.nproc)
            .field_str("kernel", &self.header.kernel)
            .field_str("rustc", &self.header.rustc)
            .field_str("git_sha", &self.header.git_sha)
            .finish();
        let notes: Vec<String> =
            self.notes.iter().map(|n| JsonObject::new().field_str("note", n).finish()).collect();
        let flag = |b: bool| if b { "true" } else { "false" };
        JsonObject::new()
            .field_obj("header", &header)
            .field_str("workload", &self.workload)
            .field_u64("seed", self.seed)
            .field_u64("seconds", self.seconds)
            .field_obj("traced", flag(self.traced))
            .field_obj("comparable", flag(self.comparable))
            .field_obj("correct", flag(self.correct))
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_obj(
                "metrics",
                &metric_object(self.metrics.iter().map(|(k, v)| (k.as_str(), *v))),
            )
            .field_obj("notes", &format!("[{}]", notes.join(",")))
            // The benchmark is the instrument, not a change: it claims no gain.
            .field_obj("claim", "null")
            .finish()
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc = JsonValue::parse(text).ok_or("not a JSON document")?;
        let field = |k: &str| doc.get(k).ok_or(format!("missing field {k}"));
        let text_of = |v: &JsonValue, k: &str| -> Result<String, String> {
            Ok(v.get(k).and_then(JsonValue::as_str).ok_or(format!("missing string {k}"))?.into())
        };
        let num = |k: &str| field(k)?.as_u64().ok_or(format!("{k} is not a whole number"));
        let flag = |k: &str| match field(k)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("{k} is not a boolean")),
        };
        let h = field("header")?;
        let mut metrics = BTreeMap::new();
        if let JsonValue::Object(members) = field("metrics")? {
            for (name, entry) in members {
                let value = entry.get("value").and_then(JsonValue::as_f64);
                metrics.insert(name.clone(), value.ok_or(format!("metric {name} has no value"))?);
            }
        }
        let mut notes = Vec::new();
        if let JsonValue::Array(items) = field("notes")? {
            for item in items {
                notes.push(text_of(item, "note")?);
            }
        }
        Ok(Report {
            header: Header {
                nproc: h.get("nproc").and_then(JsonValue::as_u64).ok_or("missing nproc")?,
                kernel: text_of(h, "kernel")?,
                rustc: text_of(h, "rustc")?,
                git_sha: text_of(h, "git_sha")?,
            },
            workload: text_of(&doc, "workload")?,
            seed: num("seed")?,
            seconds: num("seconds")?,
            traced: flag("traced")?,
            comparable: flag("comparable")?,
            correct: flag("correct")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            metrics,
            notes,
        })
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "ledger  workload {}  seed {}  {} s  {}{}\n  nproc {}  kernel {}  {}  git {}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" },
            if self.comparable { "" } else { "  [--quick: NOT COMPARABLE with full runs]" },
            self.header.nproc,
            self.header.kernel,
            self.header.rustc,
            self.header.git_sha,
        );
        for (name, value) in &self.metrics {
            out += &format!("  {name:<36} {value:>16.6} {}\n", unit_of(name));
        }
        for note in &self.notes {
            out += &format!("  note: {note}\n");
        }
        out += &format!(
            "  attempted {}  failed {}  correct {}\n",
            self.attempted, self.failed, self.correct
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            header: Header {
                nproc: 2,
                kernel: "avx2".into(),
                rustc: "rustc 1.95.0".into(),
                git_sha: "unknown".into(),
            },
            workload: "lib-mem".into(),
            seed: 42,
            seconds: 12,
            traced: false,
            comparable: true,
            correct: true,
            attempted: 8000,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: vec!["a \"quoted\" note".into()],
        };
        for (i, spec) in END_TO_END.iter().enumerate() {
            r.set(spec.name, 1.0 / (i as f64 + 3.0));
        }
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let text = r.to_json();
        assert!(text.ends_with("\"claim\":null}"));
        assert_eq!(Report::from_json(&text).unwrap(), r);
    }

    /// A traced line carries every per-layer name: what the workload
    /// measured, and 0 for the layers it does not run.
    #[test]
    fn traced_line_reads_zero_for_layers_the_workload_does_not_run() {
        let mut r = sample();
        r.traced = true;
        let w = Workload::parse(&r.workload).unwrap();
        for spec in PER_LAYER.iter().filter(|s| s.measured_on(w)) {
            r.set(spec.name, 2.5);
        }
        let doc = JsonValue::parse(&r.contract_line()).unwrap();
        let value = |name: &str| doc.get("metrics")?.get(name)?.get("value")?.as_f64();
        assert_eq!(value("engine.hash_us"), Some(2.5));
        assert_eq!(value("server.wait_us_mean"), Some(0.0));
        assert_eq!(value("write_p50_ms"), Some(0.0));
        assert!(r.to_json().contains("engine.hash_us") && !r.to_json().contains("server."));
    }

    #[test]
    #[should_panic(expected = "does not measure")]
    fn a_workload_cannot_report_a_layer_it_does_not_run() {
        sample().set("server.wait_us_mean", 1.0);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = sample().contract_line();
        let doc = JsonValue::parse(&line).unwrap();
        let JsonValue::Object(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Object(metrics) = doc.get("metrics").unwrap() else { panic!() };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }
}
