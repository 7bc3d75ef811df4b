//! Fixed-capacity ring buffer of slow queries.
//!
//! When a query's end-to-end latency crosses the configured threshold
//! the service pushes a [`SlowQuery`] — latency, shape, and whatever
//! span tree was captured — into the ring. The newest entries win;
//! the buffer never grows. Rendered as plain text at `/slowlog`.

use crate::span::SpanRecord;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One slow query as remembered by the ring log.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Trace id the client saw (0 when the query was not traced).
    pub trace_id: u64,
    /// End-to-end latency, nanoseconds (queue wait + execution).
    pub total_ns: u64,
    /// Requested neighbour count.
    pub k: u32,
    /// Captured span tree (may be empty when the query was not in the
    /// trace sample).
    pub spans: Vec<SpanRecord>,
}

/// Thread-safe ring buffer of the most recent slow queries. The lock
/// is only taken for queries already known to be slow, so it is never
/// on the hot path.
pub struct SlowLog {
    ring: Mutex<VecDeque<SlowQuery>>,
    capacity: usize,
}

impl SlowLog {
    /// A ring remembering at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        SlowLog { ring: Mutex::new(VecDeque::new()), capacity: capacity.max(1) }
    }

    /// Record a slow query, evicting the oldest entry when full.
    pub fn push(&self, entry: SlowQuery) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// True when nothing slow has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the ring (oldest first) as indented plain text.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let ring = self.ring.lock().unwrap();
        let mut out = String::new();
        let _ = writeln!(out, "# slow queries: {} retained (cap {})", ring.len(), self.capacity);
        for q in ring.iter() {
            let _ = writeln!(
                out,
                "query trace_id={} total={:.3}ms k={} spans={}",
                q.trace_id,
                q.total_ns as f64 / 1e6,
                q.k,
                q.spans.len(),
            );
            for span in &q.spans {
                span.render(&mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> SlowQuery {
        SlowQuery { trace_id: id, total_ns: id * 1_000_000, k: 10, spans: Vec::new() }
    }

    #[test]
    fn ring_evicts_oldest() {
        let log = SlowLog::new(3);
        for id in 1..=5 {
            log.push(entry(id));
        }
        assert_eq!(log.len(), 3);
        let text = log.render();
        assert!(!text.contains("trace_id=1 "), "{text}");
        assert!(!text.contains("trace_id=2 "), "{text}");
        assert!(text.contains("trace_id=3 "), "{text}");
        assert!(text.contains("trace_id=5 "), "{text}");
    }

    #[test]
    fn render_includes_spans() {
        let log = SlowLog::new(2);
        log.push(SlowQuery {
            trace_id: 9,
            total_ns: 5_000_000,
            k: 3,
            spans: vec![SpanRecord {
                name: "verify".into(),
                start_ns: 100,
                dur_ns: 200,
                depth: 1,
                detail: 7,
            }],
        });
        let text = log.render();
        assert!(text.contains("verify"), "{text}");
        assert!(text.contains("detail=7"), "{text}");
    }
}
