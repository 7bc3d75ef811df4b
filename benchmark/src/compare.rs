//! `ledger compare <dirA> <dirB>`: do two sets of runs of the same code
//! agree within the benchmark's own bounds? Per workload and end-to-end
//! metric it prints both medians, both pairs of quartiles, the spread,
//! the relative difference and the bound, and it fails on any
//! disagreement: medians further apart than the bound, or a spread
//! within either set above it. The demoted timing metrics are printed
//! too, trimmed beside untrimmed, without a verdict.

use crate::estimators::median;
use crate::metrics::{Better, Spec, END_TO_END};
use crate::report::Report;
use crate::workloads::Workload;
use std::path::Path;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the numbers match the driver's.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    Some(out)
}

fn load(dir: &Path) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("report-") && name.ends_with(".json") {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
            let report = Report::from_json(&text).map_err(|e| format!("{name}: {e}"))?;
            if !report.traced {
                reports.push(report);
            }
        }
    }
    Ok(reports)
}

/// Timing metrics the agreement protocol demoted, trimmed beside
/// untrimmed: printed for the record, never part of the verdict.
const UNGATED: [&str; 7] = [
    "qps",
    "window.qps_all",
    "read_p50_ms",
    "window.read_p50_all_ms",
    "read_p95_ms",
    "write_p50_ms",
    "window.quiet_share",
];

/// Compare two directories of untraced reports; `Ok(true)` when every
/// end-to-end metric of every workload agrees.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let comparable = a.iter().chain(&b).all(|r| r.comparable);
    let mut agree = true;
    println!(
        "{:<11} {:<23} {:>10} {:>21} {:>10} {:>21} {:>7} {:>7} {:>6}",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "spread",
        "diff",
        "bound"
    );
    let ungated = UNGATED.iter().map(|name| Spec::find(name).expect("a listed metric"));
    for w in Workload::ALL {
        for spec in END_TO_END.iter().chain(ungated.clone()).filter(|s| s.measured_on(w)) {
            let values = |set: &[Report]| -> Vec<f64> {
                set.iter()
                    .filter(|r| r.workload == w.name())
                    .filter_map(|r| r.get(spec.name))
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{}: no untraced report in one of the sets", w.name()));
            }
            // A set of one run has no quartiles: its value stands for all three.
            let of = |v: &[f64]| quartiles(v).unwrap_or([v[0]; 3]);
            let (qa, qb) = (of(&va), of(&vb));
            let (ma, mb) = (median(&va), median(&vb));
            // Positive when B is worse than A.
            let worse = match spec.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = ((qa[2] - qa[0]) / ma).max((qb[2] - qb[0]) / mb);
            let mut verdict = String::new();
            // `--quick` sets are too small to time: a set-up takes 0.1 s
            // there. Their counts and answer quality are still judged.
            let judged = comparable || spec.unit != "s";
            let bound = match spec.bound {
                Some(bound) if judged => {
                    if worse.abs() > bound {
                        verdict += "  MEDIANS DISAGREE";
                    }
                    if spread > bound {
                        verdict += "  SPREAD ABOVE BOUND";
                    }
                    format!("{:.1}%", 100.0 * bound)
                }
                _ => "-".into(),
            };
            agree &= verdict.is_empty();
            println!(
                "{:<11} {:<23} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>6.1}% {:>+6.1}% {:>6}{}",
                w.name(), spec.name, ma, qa[0], qa[2], mb, qb[0], qb[2],
                100.0 * spread, 100.0 * worse, bound, verdict
            );
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
