//! Wall-clock spans recorded from the benchmark's own files around each
//! call into a layer, kept in memory and written out when the
//! benchmark ends.

use std::time::Instant;

use serde::json::Value;
use serde::Serialize;

use crate::json_object;

/// One timed interval. `parent` is the span that caused it (`None` for
/// a root); spans of one cell share its `cell` index. `count` is the
/// number of operations the interval covered (1 for a plain call).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub workload: String,
    pub cell: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json_value(&self) -> Value {
        json_object(vec![
            ("id", self.id.to_json()),
            ("parent", self.parent.to_json()),
            ("workload", self.workload.to_json()),
            ("cell", self.cell.to_json()),
            ("name", self.name.to_json()),
            ("start_ns", self.start_ns.to_json()),
            ("end_ns", self.end_ns.to_json()),
            ("count", self.count.to_json()),
        ])
    }

    pub fn from_json_value(v: &Value) -> Option<Span> {
        Some(Span {
            id: v.get("id")?.as_u64()? as u32,
            parent: v.get("parent")?.as_u64().map(|p| p as u32),
            workload: v.get("workload")?.as_str()?.to_string(),
            cell: v.get("cell")?.as_u64()? as u32,
            name: v.get("name")?.as_str()?.to_string(),
            start_ns: v.get("start_ns")?.as_u64()?,
            end_ns: v.get("end_ns")?.as_u64()?,
            count: v.get("count")?.as_u64()?,
        })
    }
}

/// In-memory span recorder. Disabled, it still runs the closures but
/// records nothing, so the timed pass and the traced pass execute the
/// same calls and differ only in the recording.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: String,
    cell: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, workload: &str) -> Tracer {
        Tracer {
            enabled,
            origin,
            workload: workload.to_string(),
            cell: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from now on belong to `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Run `f` inside a span named `name` (a child of the span that is
    /// open now) and return its result with its wall time in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        self.span_counted(name, |t| (f(t), 1))
    }

    /// Like [`Tracer::span`] for a closure that also reports how many
    /// operations it performed.
    pub fn span_counted<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> (R, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let (out, _) = f(self);
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            workload: self.workload.clone(),
            cell: self.cell,
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            count: 0,
        });
        self.stack.push(id);
        let t0 = Instant::now();
        let (out, count) = f(self);
        let t1 = Instant::now();
        self.stack.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = (t0 - self.origin).as_nanos() as u64;
        span.end_ns = (t1 - self.origin).as_nanos() as u64;
        span.count = count;
        (out, (t1 - t0).as_secs_f64())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover. Children may overlap each other; the covered part is
/// the union of their intervals clipped to the parent.
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let Some(parent) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// Append the spans of another pass, renumbering them so that ids stay
/// unique and parents keep pointing at the right span.
pub fn append_spans(all: &mut Vec<Span>, more: Vec<Span>) {
    let offset = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        s.id += offset;
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Total seconds spent in spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Write `spans` as `trace.json`: one object per span plus its self
/// time, in recording order.
pub fn write_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let doc = json_object(vec![
        ("schema", "irn-benchmark-trace-v1".to_json()),
        (
            "spans",
            Value::Array(
                spans
                    .iter()
                    .map(|s| {
                        let Value::Object(mut fields) = s.to_json_value() else {
                            unreachable!("a span serializes as an object")
                        };
                        fields.push(("self_ns".to_string(), self_time_ns(spans, s.id).to_json()));
                        Value::Object(fields)
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = serde::json::to_string_pretty(&doc);
    text.push('\n');
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            workload: "w".into(),
            cell: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50), // overlaps span 1
            span(3, Some(0), 70, 80),
            span(4, Some(3), 72, 78),  // a grandchild does not count twice
            span(5, Some(0), 90, 120), // clipped to the parent
        ];
        // Covered: [10,50) + [70,80) + [90,100) = 60.
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 3), 4);
        assert_eq!(self_time_ns(&spans, 4), 6);
        assert_eq!(self_time_ns(&spans, 99), 0);
    }

    #[test]
    fn tracer_nests_and_counts() {
        let mut t = Tracer::new(true, Instant::now(), "w");
        t.set_cell(3);
        let (v, secs) = t.span("outer", |t| {
            t.span_counted("inner", |_| ((), 42));
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent),
            ("inner", Some(0))
        );
        assert_eq!((spans[1].count, spans[1].cell), (42, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(self_time_ns(&spans, 0) <= spans[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs() {
        let mut t = Tracer::new(false, Instant::now(), "w");
        let (v, _) = t.span("x", |_| 5);
        assert_eq!(v, 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn appended_spans_keep_unique_ids_and_their_parents() {
        let mut all = vec![span(0, None, 0, 10), span(1, Some(0), 2, 4)];
        append_spans(&mut all, vec![span(0, None, 0, 8), span(1, Some(0), 1, 3)]);
        let ids: Vec<(u32, Option<u32>)> = all.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, [(0, None), (1, Some(0)), (2, None), (3, Some(2))]);
        assert_eq!(self_time_ns(&all, 2), 6);
    }

    #[test]
    fn spans_round_trip_through_json() {
        let s = span(4, Some(1), 5, 9);
        assert_eq!(Span::from_json_value(&s.to_json_value()), Some(s));
        let root = span(0, None, 0, 1);
        assert_eq!(Span::from_json_value(&root.to_json_value()), Some(root));
    }
}
