//! # irn-telemetry — the structured trace sink ("flight recorder")
//!
//! A bounded ring buffer of `trace-v1` NDJSON event lines, fed by cheap
//! [`trace!`] call sites across the simulation vertical (packet
//! tx/rx/drop, PFC pause/resume, ECN marks, NACKs, retransmissions,
//! timer lifecycle, cwnd changes — see `docs/TRACING.md` for the event
//! reference).
//!
//! The design constraints, in priority order:
//!
//! 1. **Zero cost when off.** Every call site is guarded by
//!    [`enabled`], a single thread-local load — priced, like any
//!    hot-path change, by the repo benchmark's `run_ns_per_pkt`.
//! 2. **Determinism.** Events carry *virtual* time and simulation
//!    identifiers only — never wall clock, never addresses — so a
//!    deterministic run produces byte-identical trace lines on any
//!    thread, process, or machine. The sink is thread-local and scoped
//!    to one cell ([`capture`]), which is what lets a multi-worker
//!    fleet reassemble per-cell traces in submission order and emit a
//!    file byte-identical to a serial in-process run.
//! 3. **No dependencies.** Lines are flat JSON objects of numbers,
//!    booleans, and static strings, formatted locally; every crate in
//!    the workspace (including `irn-sim` at the very bottom) can depend
//!    on this one.
//!
//! The buffer is a flight recorder: when an unfiltered run exceeds the
//! capacity, the *oldest* lines are discarded (the interesting part of
//! a pathological run is usually its tail) and the chunk ends with a
//! `trace.truncated` marker carrying the discarded count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// The schema identifier of a trace file header line.
pub const TRACE_SCHEMA: &str = "trace-v1";

/// Default flight-recorder capacity, in events per cell.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

/// True when the current thread is inside a [`capture`] scope.
///
/// This is the *only* check on the hot path: one thread-local load.
#[inline(always)]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// One typed field value in a trace event.
///
/// Kept to the shapes a deterministic simulator produces: integers,
/// floats with shortest-round-trip formatting (Rust's `Display` for
/// `f64`), booleans, and `'static` labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (ids, sequence numbers, byte counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (e.g. a fractional cwnd); formatted shortest-round-trip.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static label (packet kinds, drop causes).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<u16> for FieldValue {
    fn from(v: u16) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => {
                if v.is_finite() {
                    // Rust's Display for f64 is shortest-round-trip,
                    // the same property the vendored serde relies on.
                    let _ = write!(out, "{v}");
                    if v.fract() == 0.0 && v.abs() < 1e15 && !out.ends_with('0') {
                        // `1` would read back as an integer; keep floats
                        // visibly floats, matching serde's `1.0`.
                        let _ = write!(out, ".0");
                    }
                } else {
                    let _ = write!(out, "null");
                }
            }
            FieldValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Str(v) => write_json_str(out, v),
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------

/// A parsed `--trace-filter` expression.
///
/// Grammar: comma-separated `key=value` clauses over the keys `kind`,
/// `flow`, and `host`. Clauses with the *same* key OR together; groups
/// of different keys AND together. A `kind` value ending in `*` is a
/// prefix match. The empty string matches everything.
///
/// `kind=pkt.*,kind=pfc.pause,flow=3` ⇒ (kind starts with `pkt.` OR
/// kind is `pfc.pause`) AND (flow is 3). `host` matches an event's
/// `host`, `src`, or `dst` field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFilter {
    kinds: Vec<String>,
    flows: Vec<u64>,
    hosts: Vec<u64>,
}

impl TraceFilter {
    /// The match-everything filter.
    pub fn all() -> TraceFilter {
        TraceFilter::default()
    }

    /// Parse a filter expression (see the type docs for the grammar).
    pub fn parse(expr: &str) -> Result<TraceFilter, String> {
        let mut f = TraceFilter::default();
        for clause in expr.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((key, value)) = clause.split_once('=') else {
                return Err(format!(
                    "filter clause '{clause}' is not key=value (keys: kind, flow, host)"
                ));
            };
            match key.trim() {
                "kind" => f.kinds.push(value.trim().to_string()),
                "flow" => f.flows.push(parse_id("flow", value)?),
                "host" => f.hosts.push(parse_id("host", value)?),
                other => {
                    return Err(format!(
                        "unknown filter key '{other}' (keys: kind, flow, host)"
                    ))
                }
            }
        }
        Ok(f)
    }

    /// True when the filter has no clauses (matches everything).
    pub fn is_all(&self) -> bool {
        self.kinds.is_empty() && self.flows.is_empty() && self.hosts.is_empty()
    }

    fn kind_matches(&self, kind: &str) -> bool {
        self.kinds.is_empty()
            || self.kinds.iter().any(|k| match k.strip_suffix('*') {
                Some(prefix) => kind.starts_with(prefix),
                None => k == kind,
            })
    }

    fn matches(&self, kind: &str, fields: &[(&'static str, FieldValue)]) -> bool {
        if !self.kind_matches(kind) {
            return false;
        }
        let field_in = |names: &[&str], wanted: &[u64]| {
            wanted.is_empty()
                || fields.iter().any(|(n, v)| {
                    names.contains(n) && v.as_u64().is_some_and(|v| wanted.contains(&v))
                })
        };
        field_in(&["flow"], &self.flows) && field_in(&["host", "src", "dst"], &self.hosts)
    }
}

fn parse_id(key: &str, value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("filter '{key}' needs a numeric id, got '{value}'"))
}

// ---------------------------------------------------------------------
// Capture scope and sink
// ---------------------------------------------------------------------

/// What a coordinator asks a worker (or the in-process executor) to
/// capture: the raw filter expression plus the per-cell buffer
/// capacity. The filter travels unparsed so it round-trips the wire
/// protocol verbatim; both executors validate it before running.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Raw `--trace-filter` expression (empty: capture everything).
    pub filter: String,
    /// Flight-recorder capacity in events per cell.
    pub capacity: usize,
}

impl Default for TraceSpec {
    fn default() -> TraceSpec {
        TraceSpec {
            filter: String::new(),
            capacity: DEFAULT_CAPACITY,
        }
    }
}

/// One cell's captured trace: `trace-v1` event lines in emission order
/// plus the count of lines the flight recorder had to discard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceChunk {
    /// NDJSON event lines (no trailing newlines).
    pub lines: Vec<String>,
    /// Events discarded when the buffer wrapped (oldest first).
    pub dropped: u64,
}

struct Sink {
    cell: u64,
    filter: TraceFilter,
    capacity: usize,
    lines: VecDeque<String>,
    dropped: u64,
    last_t: u64,
}

/// Run `f` with tracing enabled on this thread, recording events into a
/// fresh flight recorder tagged with `cell` (the cell's submission
/// index — it leads every line, so per-cell chunks concatenate into a
/// batch-wide file without rewriting).
///
/// Nested captures are a logic error (cells are the unit of capture)
/// and panic. The scope is panic-safe: tracing is disabled again even
/// if `f` unwinds.
pub fn capture<R>(
    cell: u64,
    filter: TraceFilter,
    capacity: usize,
    f: impl FnOnce() -> R,
) -> (R, TraceChunk) {
    assert!(!enabled(), "nested trace capture (cells are the unit)");
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(false));
            SINK.with(|s| s.borrow_mut().take());
        }
    }
    SINK.with(|s| {
        *s.borrow_mut() = Some(Sink {
            cell,
            filter,
            capacity: capacity.max(1),
            lines: VecDeque::new(),
            dropped: 0,
            last_t: 0,
        })
    });
    let guard = Guard;
    ACTIVE.with(|a| a.set(true));
    let out = f();
    ACTIVE.with(|a| a.set(false));
    let sink = SINK.with(|s| s.borrow_mut().take()).expect("sink in scope");
    drop(guard);
    let mut chunk = TraceChunk {
        lines: sink.lines.into(),
        dropped: sink.dropped,
    };
    if chunk.dropped > 0 {
        chunk.lines.push(format!(
            "{{\"cell\":{},\"t\":{},\"kind\":\"trace.truncated\",\"dropped\":{}}}",
            sink.cell, sink.last_t, chunk.dropped
        ));
    }
    (out, chunk)
}

/// Record one event. Callers go through the [`trace!`] macro, which
/// guards this behind [`enabled`]; calling it outside a capture scope
/// is a silent no-op (the macro's guard makes that unreachable anyway).
pub fn record(kind: &'static str, t: u64, fields: &[(&'static str, FieldValue)]) {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        let Some(sink) = s.as_mut() else {
            return;
        };
        if !sink.filter.matches(kind, fields) {
            return;
        }
        sink.last_t = t;
        let mut line = String::with_capacity(64);
        let _ = write!(line, "{{\"cell\":{},\"t\":{t},\"kind\":", sink.cell);
        write_json_str(&mut line, kind);
        for (name, value) in fields {
            let _ = write!(line, ",\"{name}\":");
            value.write_json(&mut line);
        }
        line.push('}');
        if sink.lines.len() >= sink.capacity {
            sink.lines.pop_front();
            sink.dropped += 1;
        }
        sink.lines.push_back(line);
    });
}

/// Record a structured trace event, compiled/checked away when tracing
/// is off.
///
/// ```
/// # let now_ns = 42u64;
/// irn_telemetry::trace!("pkt.tx", t = now_ns, flow = 3u32, src = 0u32, retx = false);
/// ```
///
/// `t` (virtual-time nanoseconds) is mandatory and leads; the remaining
/// `key = value` fields become the event's JSON fields in order. Values
/// must convert into [`FieldValue`] — integers, floats, booleans, or
/// `'static` strings. **Never** pass wall-clock or host-environment
/// values: trace bytes must be a pure function of the simulated cell.
#[macro_export]
macro_rules! trace {
    ($kind:expr, t = $t:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::record(
                $kind,
                $t,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_records_nothing() {
        assert!(!enabled());
        record("pkt.tx", 5, &[("flow", FieldValue::U64(1))]);
        // No sink: nothing to observe, and nothing panicked.
    }

    #[test]
    fn capture_scopes_enablement_and_formats_lines() {
        let ((), chunk) = capture(7, TraceFilter::all(), 16, || {
            assert!(enabled());
            trace!("pkt.tx", t = 100, flow = 3u32, retx = false, kind2 = "data");
            trace!("cc.cwnd", t = 200, flow = 3u32, cwnd = 1.5f64);
        });
        assert!(!enabled());
        assert_eq!(
            chunk.lines,
            vec![
                r#"{"cell":7,"t":100,"kind":"pkt.tx","flow":3,"retx":false,"kind2":"data"}"#,
                r#"{"cell":7,"t":200,"kind":"cc.cwnd","flow":3,"cwnd":1.5}"#,
            ]
        );
        assert_eq!(chunk.dropped, 0);
    }

    #[test]
    fn whole_floats_stay_floats() {
        let mut s = String::new();
        FieldValue::F64(2.0).write_json(&mut s);
        assert_eq!(s, "2.0");
        let mut s = String::new();
        FieldValue::F64(0.5).write_json(&mut s);
        assert_eq!(s, "0.5");
    }

    #[test]
    fn ring_buffer_drops_oldest_and_marks_truncation() {
        let ((), chunk) = capture(0, TraceFilter::all(), 2, || {
            for i in 0..5u64 {
                trace!("e", t = i);
            }
        });
        assert_eq!(chunk.dropped, 3);
        assert_eq!(chunk.lines.len(), 3, "2 kept + truncation marker");
        assert!(chunk.lines[0].contains("\"t\":3"));
        assert!(chunk.lines[1].contains("\"t\":4"));
        assert!(chunk.lines[2].contains("trace.truncated"));
        assert!(chunk.lines[2].contains("\"dropped\":3"));
    }

    #[test]
    fn filter_grammar_parses_and_matches() {
        let f = TraceFilter::parse("kind=pkt.*, kind=pfc.pause, flow=3, host=1").unwrap();
        assert!(f.matches(
            "pkt.tx",
            &[("flow", FieldValue::U64(3)), ("src", FieldValue::U64(1))]
        ));
        assert!(f.matches(
            "pfc.pause",
            &[("flow", FieldValue::U64(3)), ("host", FieldValue::U64(1))]
        ));
        // Wrong kind.
        assert!(!f.matches("timer.arm", &[("flow", FieldValue::U64(3))]));
        // Right kind, wrong flow.
        assert!(!f.matches(
            "pkt.tx",
            &[("flow", FieldValue::U64(4)), ("dst", FieldValue::U64(1))]
        ));
        // Right kind and flow, no matching host field.
        assert!(!f.matches("pkt.tx", &[("flow", FieldValue::U64(3))]));

        assert!(TraceFilter::parse("").unwrap().is_all());
        assert!(TraceFilter::parse("flow").is_err());
        assert!(TraceFilter::parse("color=red").is_err());
        assert!(TraceFilter::parse("flow=abc").is_err());
    }

    #[test]
    fn capture_applies_the_filter() {
        let f = TraceFilter::parse("kind=keep").unwrap();
        let ((), chunk) = capture(1, f, 16, || {
            trace!("keep", t = 1);
            trace!("discard", t = 2);
            trace!("keep", t = 3);
        });
        assert_eq!(chunk.lines.len(), 2);
        assert!(chunk.lines.iter().all(|l| l.contains("\"kind\":\"keep\"")));
    }

    #[test]
    fn strings_escape_cleanly() {
        let mut s = String::new();
        write_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }
}
