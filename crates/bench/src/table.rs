//! Aligned console tables + CSV output.
//!
//! Every experiment prints its table and mirrors it as CSV under
//! `results/` so `EXPERIMENTS.md` can reference stable files.

use std::fs;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data row was added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// CSV serialization (headers + rows, comma-separated, quotes around
    /// cells containing commas).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV next to the repo under `results/<name>.csv`.
    pub fn save_csv(&self, name: &str) {
        let dir = Path::new("results");
        if fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = fs::write(&path, self.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
    }
}

/// Format an `f64` with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format an `f64` with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Push a standard [`crate::eval::EvalRow`] into a table with the
/// canonical column set.
pub fn push_eval_row(t: &mut Table, dataset: &str, row: &crate::eval::EvalRow) {
    t.row(vec![
        dataset.to_string(),
        row.method.clone(),
        row.k.to_string(),
        f3(row.recall),
        f3(row.ratio),
        f1(row.verified),
        f1(row.io_reads),
        f3(row.time_ms),
        f1(row.index_mib),
    ]);
}

/// The canonical headers matching [`push_eval_row`].
pub const EVAL_HEADERS: [&str; 9] =
    ["dataset", "method", "k", "recall", "ratio", "verified", "io", "ms", "MiB"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long_header"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["v"]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
