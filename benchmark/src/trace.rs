//! Spans recorded by the harness around its own calls into each layer.
//!
//! Each span has a name, a start, an end, the span that caused it and
//! the id of the request it belongs to. They are kept in memory and
//! written out once, when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use cc_service::json::JsonObject;
use std::collections::BTreeMap;

/// One recorded span. Times are nanoseconds since the traced phase began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub request: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Requests whose spans are kept; later requests still feed the
/// aggregates but not the file, which stays a few megabytes.
pub const MAX_TRACED_REQUESTS: u32 = 4000;

#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
    next_request: u32,
}

impl Recorder {
    /// Start a request: returns its id, or `None` once the file is full.
    pub fn request(&mut self) -> Option<u32> {
        (self.next_request < MAX_TRACED_REQUESTS).then(|| {
            self.next_request += 1;
            self.next_request - 1
        })
    }

    pub fn span(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { id, request, parent, name, start_ns, end_ns: end_ns.max(start_ns) });
        id
    }

    /// Merge another thread's recorder (ids are re-based).
    pub fn absorb(&mut self, other: Recorder) {
        let (span_base, req_base) = (self.spans.len() as u32, self.next_request);
        for s in other.spans {
            self.spans.push(Span {
                id: s.id + span_base,
                request: s.request + req_base,
                parent: s.parent.map(|p| p + span_base),
                ..s
            });
        }
        self.next_request += other.next_request;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let o = JsonObject::new()
                    .field_u64("id", s.id.into())
                    .field_u64("request", s.request.into())
                    .field_str("name", s.name)
                    .field_u64("start_ns", s.start_ns)
                    .field_u64("end_ns", s.end_ns);
                match s.parent {
                    Some(p) => o.field_u64("parent", p.into()),
                    None => o.field_obj("parent", "null"),
                }
                .finish()
            })
            .collect();
        JsonObject::new()
            .field_str("workload", workload)
            .field_obj("spans", &format!("[\n{}\n]", rows.join(",\n")))
            .finish()
    }
}

/// Total and self nanoseconds per span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Times {
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// Self time per name: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Times> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Times> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.total_ns += dur;
        t.self_ns += dur - covered;
        t.count += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let mut r = Recorder::default();
        let req = r.request().unwrap();
        let root = r.span(req, None, "request", 0, 100);
        let engine = r.span(req, Some(root), "engine", 20, 90);
        r.span(req, Some(engine), "hash", 20, 30);
        // overlapping children are not double counted
        r.span(req, Some(engine), "count", 30, 70);
        r.span(req, Some(engine), "verify", 60, 80);
        let t = self_times(r.spans());
        assert_eq!(t["request"].self_ns, 30);
        assert_eq!(t["engine"].self_ns, 70 - 60);
        assert_eq!(t["engine"].total_ns, 70);
        assert_eq!(t["verify"].self_ns, 20);
    }

    #[test]
    fn absorb_rebases_ids() {
        let mut a = Recorder::default();
        let ra = a.request().unwrap();
        a.span(ra, None, "request", 0, 10);
        let mut b = Recorder::default();
        let rb = b.request().unwrap();
        let root = b.span(rb, None, "request", 5, 9);
        b.span(rb, Some(root), "engine", 6, 8);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].request, 1);
        assert!(cc_service::json::JsonValue::parse(&a.to_json("t")).is_some());
    }
}
