//! The span record: one named interval of a traced operation, as the
//! slow log prints it and the wire carries it.

use std::borrow::Cow;

/// One closed span: a named interval relative to the operation's start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `"round"`); part of the span taxonomy documented
    /// in DESIGN.md §10. Borrowed where it is laid out, owned where a
    /// client decoded it off the wire.
    pub name: Cow<'static, str>,
    /// Start offset from the operation's start, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth (root spans are depth 0).
    pub depth: u8,
    /// Free-form payload — a radius, a candidate count, a byte count;
    /// `0` when unused. Interpreted per span name.
    pub detail: u64,
}

impl SpanRecord {
    /// Render one record as an indented text line (for slow-query logs).
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "{:indent$}{} +{:.3}ms {:.3}ms detail={}",
            "",
            self.name,
            self.start_ns as f64 / 1e6,
            self.dur_ns as f64 / 1e6,
            self.detail,
            indent = self.depth as usize * 2,
        );
    }
}
