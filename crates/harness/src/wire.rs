//! The `work-v1` wire protocol: newline-delimited JSON frames between a
//! coordinator and its workers.
//!
//! Three frame kinds flow over a worker connection (stdin/stdout of a
//! spawned `repro worker`, or a TCP stream to a listening one):
//!
//! ```text
//! coordinator → worker   {"frame":"work-v1","id":N,"scenario":{…scenario-v1…}}
//! worker → coordinator   {"frame":"result-v1","id":N,"wall_s":S,"result":{…}}
//! worker → coordinator   {"frame":"error-v1","id":N|null,"error":"…"}
//! ```
//!
//! One frame per line, compact JSON (no unescaped newlines can occur).
//! The `id` is the cell's submission index in the coordinator's batch;
//! echoing it back is what lets results arrive over any connection in
//! any order and still assemble in submission order. The `result`
//! payload is the full [`RunResult`] in its schema-v2 wire form, which
//! round-trips **bit-exactly** — the byte-identity guarantee of the
//! distributed executor rests on that. `wall_s` is the worker-side
//! wall-clock seconds for the cell (wall clock, never in result bytes:
//! it feeds stderr/bench-trajectory reporting).
//!
//! The work and result frames are derived structs, so [`decode`] reads
//! them as strictly as every other machine-written format here; the
//! error frame alone is written by hand, because its `"id":null` must
//! be spelled out. The full frame reference lives in `docs/SCHEMA.md`.

use irn_core::{RunResult, Scenario};
use irn_telemetry::{TraceChunk, TraceSpec};
use serde::json::{self, Value};
use serde::{de_field, de_object, DeError, Deserialize, Serialize};

/// The protocol identifier carried by every work frame.
pub const WORK_SCHEMA: &str = "work-v1";
/// The frame tag of a successful result.
pub const RESULT_SCHEMA: &str = "result-v1";
/// The frame tag of a worker-reported error.
pub const ERROR_SCHEMA: &str = "error-v1";

/// One parsed protocol frame.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Coordinator → worker: run this scenario.
    Work {
        /// Submission index of the cell in the coordinator's batch.
        id: u64,
        /// The cell's full scenario (validated on parse).
        scenario: Scenario,
        /// Flight-recorder request: capture a trace-v1 chunk for this
        /// cell. Absent (the pre-trace wire form) means no tracing —
        /// old coordinators and workers interoperate unchanged.
        trace: Option<TraceSpec>,
    },
    /// Worker → coordinator: the cell's result.
    Result {
        /// Echo of the work frame's id.
        id: u64,
        /// Worker-side wall-clock seconds for the run (wall clock, never
        /// in result bytes).
        wall_s: f64,
        /// The bit-exact run result.
        result: Box<RunResult>,
        /// The cell's trace-v1 chunk, echoed when the work frame asked
        /// for one.
        trace: Option<TraceChunk>,
    },
    /// Worker → coordinator: the referenced work frame failed.
    Error {
        /// Echo of the offending frame's id, when it could be read.
        id: Option<u64>,
        /// What went wrong.
        message: String,
    },
}

/// A frame that could not be decoded.
///
/// Carries the frame `id` when it was readable, so a worker can report
/// the failure back against the right cell instead of a bare protocol
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// The offending frame's id, when the envelope was intact enough
    /// to read it.
    pub id: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.id {
            Some(id) => write!(f, "frame id {id}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    fn new(id: Option<u64>, message: impl Into<String>) -> FrameError {
        FrameError {
            id,
            message: message.into(),
        }
    }
}

/// The `work-v1` frame as it travels: `S` is `&Scenario` on the way
/// out and `Scenario` (validated on parse) on the way in.
#[derive(Serialize, Deserialize)]
struct WorkFrame<S> {
    frame: String,
    id: u64,
    scenario: S,
    trace: Option<TraceRequest>,
}

/// A [`TraceSpec`] on the wire.
#[derive(Serialize, Deserialize)]
struct TraceRequest {
    filter: String,
    capacity: usize,
}

/// The `result-v1` frame as it travels: `R` is `&RunResult` out and
/// `RunResult` in, `L` the chunk's lines as `&[String]` / `Vec<String>`.
#[derive(Serialize, Deserialize)]
struct ResultFrame<R, L> {
    frame: String,
    id: u64,
    wall_s: f64,
    result: R,
    trace: Option<TraceEcho<L>>,
}

/// A [`TraceChunk`] on the wire.
#[derive(Serialize, Deserialize)]
struct TraceEcho<L> {
    dropped: u64,
    lines: L,
}

/// Encode a work frame as one compact JSON line (no trailing newline).
/// `trace` adds the optional flight-recorder request; `None` produces
/// the pre-trace wire form byte-for-byte.
pub fn encode_work(id: u64, scenario: &Scenario, trace: Option<&TraceSpec>) -> String {
    json::to_string(&WorkFrame {
        frame: WORK_SCHEMA.to_string(),
        id,
        scenario,
        trace: trace.map(|spec| TraceRequest {
            filter: spec.filter.clone(),
            capacity: spec.capacity,
        }),
    })
}

/// Encode a result frame as one compact JSON line (no trailing newline).
/// `trace` echoes the captured chunk when the work frame asked for one.
pub fn encode_result(
    id: u64,
    wall_s: f64,
    result: &RunResult,
    trace: Option<&TraceChunk>,
) -> String {
    json::to_string(&ResultFrame {
        frame: RESULT_SCHEMA.to_string(),
        id,
        wall_s,
        result,
        trace: trace.map(|chunk| TraceEcho {
            dropped: chunk.dropped,
            lines: chunk.lines.as_slice(),
        }),
    })
}

/// Encode an error frame as one compact JSON line (no trailing newline).
pub fn encode_error(id: Option<u64>, message: &str) -> String {
    json::to_string(&Value::Object(vec![
        ("frame".to_string(), ERROR_SCHEMA.to_json()),
        ("id".to_string(), id.to_json()),
        ("error".to_string(), message.to_json()),
    ]))
}

/// Decode one protocol line into a [`Frame`].
///
/// Strict, like every derived format: an unknown or repeated key, a
/// missing member and a member of the wrong type — at the top level or
/// inside `trace`, `scenario` and `result` — are all errors naming the
/// dotted path, carrying the frame id when it was readable, so a worker
/// answers `error-v1` against the right cell instead of running
/// something other than what was asked. The optional members are the
/// `trace` objects (absent: no tracing) and an error frame's text. A
/// result's `wall_s` must be seconds a `std::time::Duration` holds:
/// finite, non-negative and below about 1.8e19.
pub fn decode(line: &str) -> Result<Frame, FrameError> {
    let v = json::from_str(line).map_err(|e| FrameError::new(None, format!("bad JSON: {e}")))?;
    // The id comes first, to attribute every later error to its cell;
    // then the tag, which says which shape to expect.
    let id: Option<u64> = de_field(&v, "id").map_err(|e| FrameError::new(None, e.to_string()))?;
    // An error about the id itself (repeated, missing): none is reported.
    let fail = |e: DeError| FrameError::new(id.filter(|_| e.path != "id"), e.to_string());
    let tag: String = de_field(&v, "frame").map_err(fail)?;
    match tag.as_str() {
        WORK_SCHEMA => {
            let f = WorkFrame::<Scenario>::from_json(&v).map_err(fail)?;
            Ok(Frame::Work {
                id: f.id,
                scenario: f.scenario,
                trace: f.trace.map(|t| TraceSpec {
                    filter: t.filter,
                    capacity: t.capacity,
                }),
            })
        }
        RESULT_SCHEMA => {
            let f = ResultFrame::<RunResult, Vec<String>>::from_json(&v).map_err(fail)?;
            // The coordinator turns it into a `Duration`.
            if std::time::Duration::try_from_secs_f64(f.wall_s).is_err() {
                let e = format!("at wall_s: {} s does not fit a Duration", f.wall_s);
                return Err(FrameError::new(id, e));
            }
            Ok(Frame::Result {
                id: f.id,
                wall_s: f.wall_s,
                result: Box::new(f.result),
                trace: f.trace.map(|t| TraceChunk {
                    lines: t.lines,
                    dropped: t.dropped,
                }),
            })
        }
        // Hand-read as it is hand-written: `"id": null` is how an error
        // frame says "id unreadable".
        ERROR_SCHEMA => {
            de_object(&v, &["frame", "id", "error"]).map_err(fail)?;
            let message: Option<String> = de_field(&v, "error").map_err(fail)?;
            let message = message.unwrap_or_else(|| "unspecified worker error".to_string());
            Ok(Frame::Error { id, message })
        }
        other => Err(FrameError::new(id, format!("unknown frame tag '{other}'"))),
    }
}

/// The longest `work-v1` frame a worker reads, 64 MiB: a scenario, so
/// its size does not depend on tracing. An explicit flow list of about
/// a million flows fits.
pub(crate) const MAX_WORK_LINE: usize = 64 << 20;

/// Room in a `result-v1` frame for everything but the trace: the result
/// is fixed-size per cell (each histogram holds at most
/// `irn_metrics::MAX_BUCKETS` buckets).
const RESULT_BASE_BYTES: usize = 4 << 20;

/// Room per echoed trace line: an event is a handful of numeric fields,
/// under 300 bytes once escaped into the frame.
const TRACE_LINE_BYTES: usize = 512;

/// The longest `result-v1` frame a coordinator reads for a batch traced
/// as `trace` asks: the result, plus room for every line the flight
/// recorder can keep and its truncation marker.
pub fn max_result_line(trace: Option<&TraceSpec>) -> usize {
    let lines = trace.map_or(0, |t| t.capacity.saturating_add(1));
    RESULT_BASE_BYTES.saturating_add(lines.saturating_mul(TRACE_LINE_BYTES))
}

/// The lines of a `work-v1` stream, blank ones skipped, read the same
/// way by both ends of a connection, none longer than `max` bytes.
///
/// Lines are read as bytes, so a line that is not UTF-8 is one bad
/// frame (a [`FrameError`] with no id), not a broken stream: a worker
/// answers it with `error-v1` and a coordinator drops the worker as
/// garbage. A longer line is one bad frame too, reported after `max + 1`
/// bytes; the rest of it is skipped unbuffered when the next line is
/// asked for, so a frame that never ends costs no memory and is
/// reported at once. Only an I/O failure is an `Err`; the stream ends
/// at EOF.
pub(crate) fn lines(
    mut input: impl std::io::BufRead,
    max: usize,
) -> impl Iterator<Item = std::io::Result<Result<String, FrameError>>> {
    use std::io::{BufRead, Read};
    let mut skip = false;
    std::iter::from_fn(move || loop {
        if std::mem::take(&mut skip) {
            if let Err(e) = skip_line(&mut input) {
                return Some(Err(e));
            }
        }
        let mut buf = Vec::new();
        let limit = max.saturating_add(1) as u64;
        match input.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => return None,
            Ok(_) => {}
            Err(e) => return Some(Err(e)),
        }
        if buf.ends_with(b"\n") {
            buf.pop();
            if buf.ends_with(b"\r") {
                buf.pop();
            }
        } else if buf.len() > max {
            skip = true;
            let message = format!("line longer than {max} bytes");
            return Some(Ok(Err(FrameError::new(None, message))));
        }
        let line = match String::from_utf8(buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => Ok(line),
            Err(e) => {
                let e = e.utf8_error();
                Err(FrameError::new(None, format!("line is not UTF-8: {e}")))
            }
        };
        return Some(Ok(line));
    })
}

/// Consume `input` through the next newline or to EOF, holding no more
/// than the reader's own buffer.
fn skip_line(input: &mut impl std::io::BufRead) -> std::io::Result<()> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                input.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                input.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_core::{ExperimentConfig, TopologySpec, TrafficModel};

    fn scenario() -> Scenario {
        Scenario::from_config(
            "wire test",
            ExperimentConfig {
                topology: TopologySpec::SingleSwitch(4),
                traffic: TrafficModel::Poisson {
                    load: 0.5,
                    sizes: irn_core::workload::SizeDistribution::HeavyTailed,
                    flow_count: 30,
                },
                ..ExperimentConfig::paper_default(30)
            },
        )
        .unwrap()
    }

    #[test]
    fn work_frame_round_trips_on_one_line() {
        let line = encode_work(7, &scenario(), None);
        assert!(!line.contains('\n'), "frames must be single lines");
        match decode(&line).unwrap() {
            Frame::Work {
                id,
                scenario: s,
                trace,
            } => {
                assert_eq!(id, 7);
                assert_eq!(s, scenario());
                assert_eq!(trace, None);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    /// The trace request and chunk ride the existing frames as optional
    /// fields: round-trip both, and confirm `None` keeps the pre-trace
    /// wire form (no `trace` key at all).
    #[test]
    fn trace_fields_round_trip_and_stay_optional() {
        let spec = TraceSpec {
            filter: "kind=pfc.*,flow=3".to_string(),
            capacity: 4096,
        };
        let line = encode_work(2, &scenario(), Some(&spec));
        match decode(&line).unwrap() {
            Frame::Work { trace, .. } => assert_eq!(trace, Some(spec)),
            other => panic!("wrong frame: {other:?}"),
        }
        assert!(!encode_work(2, &scenario(), None).contains("\"trace\""));

        let result = irn_core::Simulation::new(scenario().config().clone()).run();
        let chunk = TraceChunk {
            lines: vec![
                r#"{"cell":2,"t":0,"kind":"flow.start","flow":0}"#.to_string(),
                r#"{"cell":2,"t":9,"kind":"flow.done","flow":0}"#.to_string(),
            ],
            dropped: 5,
        };
        let line = encode_result(2, 0.1, &result, Some(&chunk));
        assert!(!line.contains('\n'));
        match decode(&line).unwrap() {
            Frame::Result { trace, .. } => assert_eq!(trace, Some(chunk)),
            other => panic!("wrong frame: {other:?}"),
        }
        assert!(!encode_result(2, 0.1, &result, None).contains("\"trace\""));
    }

    /// The load-bearing property of the whole distributed design: a
    /// real simulation result survives encode → decode **bit-exactly**,
    /// floats included.
    #[test]
    fn result_frame_round_trips_bit_exactly() {
        let result = irn_core::Simulation::new(scenario().config().clone()).run();
        let line = encode_result(3, 0.25, &result, None);
        assert!(!line.contains('\n'));
        match decode(&line).unwrap() {
            Frame::Result {
                id,
                wall_s,
                result: back,
                ..
            } => {
                assert_eq!(id, 3);
                assert!((wall_s - 0.25).abs() < 1e-12);
                // Bit-exactness via the serialized form: identical trees.
                assert_eq!(back.to_json(), result.to_json());
                assert_eq!(
                    back.summary.avg_slowdown.to_bits(),
                    result.summary.avg_slowdown.to_bits()
                );
                assert_eq!(back.summary.avg_fct, result.summary.avg_fct);
                assert_eq!(back.events, result.events);
                assert_eq!(back.fabric, result.fabric);
                assert_eq!(back.sched, result.sched);
                assert_eq!(back.finished_at, result.finished_at);
                assert_eq!(back.metrics, result.metrics);
                assert_eq!(back.memory, result.memory);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn error_frames_and_garbage_decode_sanely() {
        match decode(&encode_error(Some(9), "boom")).unwrap() {
            Frame::Error { id, message } => {
                assert_eq!(id, Some(9));
                assert_eq!(message, "boom");
            }
            other => panic!("wrong frame: {other:?}"),
        }
        match decode(&encode_error(None, "x")).unwrap() {
            Frame::Error { id, .. } => assert_eq!(id, None),
            other => panic!("wrong frame: {other:?}"),
        }
        assert!(decode("not json").is_err());
        assert!(decode(r#"{"frame":"nope-v9","id":1}"#).is_err());
        // A work frame with an invalid scenario keeps its id so the
        // worker can report the failure against the right cell.
        let err = decode(r#"{"frame":"work-v1","id":5,"scenario":{"bad":true}}"#).unwrap_err();
        assert_eq!(err.id, Some(5));
    }

    /// `base` with `members` spliced in before its closing brace.
    fn with(base: &str, members: &str) -> String {
        format!("{},{members}}}", base.strip_suffix('}').unwrap())
    }

    /// `decode` must fail on `line`, naming `what`, against frame `id`.
    fn rejects(line: &str, id: Option<u64>, what: &str) {
        let err = decode(line).expect_err(line);
        assert_eq!(err.id, id, "{err}");
        assert!(err.message.contains(what), "{err}");
    }

    /// A member that is present must have the right type: the old
    /// decoder swapped each of these for a default and ran (or
    /// accepted) something other than what the frame said.
    #[test]
    fn mistyped_members_are_errors_not_defaults() {
        let work = encode_work(5, &scenario(), None);
        let line = with(&work, r#""trace":{"filter":5,"capacity":"x"}"#);
        rejects(&line, Some(5), "at trace.filter: expected a string");
        let line = with(&work, r#""trace":{"filter":"","capacity":"x"}"#);
        rejects(
            &line,
            Some(5),
            "at trace.capacity: expected a non-negative integer",
        );
        let line = with(&work, r#""trace":7"#);
        rejects(&line, Some(5), "at trace: expected an object");
        let line = r#"{"frame":"work-v1","id":"5","scenario":{}}"#;
        rejects(line, None, "at id: expected a non-negative integer");

        let run = irn_core::Simulation::new(scenario().config().clone()).run();
        let result = encode_result(6, 0.5, &run, None);
        let line = result.replace(r#""wall_s":0.5"#, r#""wall_s":"fast""#);
        rejects(&line, Some(6), "at wall_s: expected a number");
        // A number, but not one a `Duration` holds: negative, or past
        // its range (about 1.8e19 s).
        for lie in ["-1.0", "1e20", "1e400"] {
            let line = result.replace(r#""wall_s":0.5"#, &format!(r#""wall_s":{lie}"#));
            rejects(&line, Some(6), "s does not fit a Duration");
        }
        let line = with(&result, r#""trace":{"dropped":"many","lines":[]}"#);
        rejects(
            &line,
            Some(6),
            "at trace.dropped: expected a non-negative integer",
        );
        let line = with(&result, r#""trace":{"dropped":0,"lines":["ok",3]}"#);
        rejects(&line, Some(6), "at trace.lines.[1]: expected a string");
        let line = r#"{"frame":"error-v1","id":4,"error":{"code":1}}"#;
        rejects(line, Some(4), "at error: expected a string");
    }

    #[test]
    fn trace_objects_missing_required_members_are_errors() {
        let work = encode_work(5, &scenario(), None);
        let line = with(&work, r#""trace":{"capacity":16}"#);
        rejects(
            &line,
            Some(5),
            "at trace.filter: expected a string, got null",
        );
        let line = with(&work, r#""trace":{"filter":""}"#);
        rejects(
            &line,
            Some(5),
            "at trace.capacity: expected a non-negative integer, got null",
        );
        let run = irn_core::Simulation::new(scenario().config().clone()).run();
        let line = with(
            &encode_result(6, 0.5, &run, None),
            r#""trace":{"dropped":0}"#,
        );
        rejects(
            &line,
            Some(6),
            "at trace.lines: expected an array, got null",
        );
    }

    #[test]
    fn duplicate_top_level_keys_are_errors() {
        let work = encode_work(5, &scenario(), None);
        // A second id: neither copy can be trusted, so none is reported.
        rejects(&with(&work, r#""id":6"#), None, "at id: duplicate field");
        // Any other repeated key keeps the (single) id.
        let line = with(&work, r#""frame":"work-v1""#);
        rejects(&line, Some(5), "at frame: duplicate field");
        let trace = r#""trace":{"filter":"","capacity":8}"#;
        let traced = with(&work, trace);
        assert!(decode(&traced).is_ok());
        rejects(&with(&traced, trace), Some(5), "at trace: duplicate field");
        let line = r#"{"frame":"error-v1","id":4,"error":"a","error":"b"}"#;
        rejects(line, Some(4), "at error: duplicate field");
    }

    /// A key the frame does not declare is an error wherever it sits —
    /// the old decoder ran such a frame as if the key were not there —
    /// and so is a repeated key below the top level.
    #[test]
    fn unknown_keys_and_nested_duplicates_are_errors() {
        let work = encode_work(3, &scenario(), None);
        rejects(
            &with(&work, r#""bogus":1"#),
            Some(3),
            "at bogus: unknown field",
        );
        let line = with(&work, r#""trace":{"filter":"","capacity":8,"depth":2}"#);
        rejects(&line, Some(3), "at trace.depth: unknown field");
        let line = with(&work, r#""trace":{"filter":"","capacity":8,"filter":"x"}"#);
        rejects(&line, Some(3), "at trace.filter: duplicate field");
        let line = work.replace(r#""scenario":{"#, r#""scenario":{"stray":0,"#);
        rejects(&line, Some(3), "at scenario: unknown field 'stray'");
        let run = irn_core::Simulation::new(scenario().config().clone()).run();
        let result = encode_result(6, 0.5, &run, None);
        rejects(
            &with(&result, r#""bogus":1"#),
            Some(6),
            "at bogus: unknown field",
        );
        let line = result.replace(r#""fabric":{"#, r#""fabric":{"stray":0,"#);
        rejects(&line, Some(6), "at result.fabric.stray: unknown field");
        let line = r#"{"frame":"error-v1","id":4,"error":"a","code":7}"#;
        rejects(line, Some(4), "at code: unknown field");
    }

    /// What may be absent: a `trace` object (no tracing), a result's
    /// `incast_metrics` / `app`, an error frame's text. Every other
    /// member is required.
    #[test]
    fn absent_optional_members_keep_their_defaults() {
        let run = irn_core::Simulation::new(scenario().config().clone()).run();
        let result = encode_result(6, 0.5, &run, None);
        for absent in ["\"trace\"", "\"incast_metrics\"", "\"app\"", "null"] {
            assert!(!result.contains(absent), "{absent} in {result}");
        }
        match decode(&result).unwrap() {
            Frame::Result { trace, result, .. } => {
                assert_eq!(trace, None);
                assert!(result.incast_metrics.is_none() && result.app.is_none());
            }
            other => panic!("wrong frame: {other:?}"),
        }
        // The parent build spelled the two out as `null`: reads the same.
        let spelled = result.replace(
            r#""fabric":{"#,
            r#""incast_metrics":null,"app":null,"fabric":{"#,
        );
        assert!(matches!(decode(&spelled), Ok(Frame::Result { .. })));
        let line = result.replace(r#""wall_s":0.5,"#, "");
        rejects(&line, Some(6), "at wall_s: expected a number, got null");
        let line = with(&result, r#""trace":{"lines":[]}"#);
        rejects(
            &line,
            Some(6),
            "at trace.dropped: expected a non-negative integer, got null",
        );
        let line = result.replace(r#""events":"#, r#""evts":"#);
        rejects(&line, Some(6), "at result.evts: unknown field");
        rejects(
            r#"{"frame":"work-v1","scenario":{}}"#,
            None,
            "at id: expected a non-negative integer, got null",
        );
        match decode(r#"{"frame":"error-v1","id":null}"#).unwrap() {
            Frame::Error { id, message } => {
                assert_eq!(id, None);
                assert_eq!(message, "unspecified worker error");
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn lines_longer_than_the_bound_are_bad_frames_and_reading_goes_on() {
        let read = |input: &str, max| -> Vec<Result<String, String>> {
            lines(input.as_bytes(), max)
                .map(|l| l.unwrap().map_err(|e| e.message))
                .collect()
        };
        let long = "x".repeat(9);
        let too_long = Err("line longer than 8 bytes".to_string());
        assert_eq!(
            read(&format!("12345678\n{long}\nok\r\n"), 8),
            vec![
                Ok("12345678".to_string()),
                too_long.clone(),
                Ok("ok".to_string())
            ]
        );
        // A frame that never ends is cut at the bound, and its tail is
        // skipped to EOF.
        let endless = "y".repeat(10_000);
        assert_eq!(read(&format!("ok\n{endless}"), 8)[1..], [too_long]);
        assert_eq!(read("short tail", 16), vec![Ok("short tail".to_string())]);
    }

    /// The coordinator's bound holds a real result frame whose flight
    /// recorder overflowed: every line it kept plus the truncation
    /// marker.
    #[test]
    fn a_full_trace_fits_the_result_bound() {
        let spec = TraceSpec {
            filter: String::new(),
            capacity: 2_000,
        };
        let trace = crate::exec::parse_trace(Some(&spec)).unwrap();
        let out = crate::exec::run_cell(1, scenario().config().clone(), trace).unwrap();
        let chunk = out.trace.unwrap();
        assert!(chunk.dropped > 0, "the recorder must overflow");
        assert_eq!(chunk.lines.len(), spec.capacity + 1);
        let line = encode_result(1, 0.5, &out.result, Some(&chunk));
        assert!(
            line.len() <= max_result_line(Some(&spec)),
            "{} B",
            line.len()
        );
        assert!(encode_result(1, 0.5, &out.result, None).len() <= max_result_line(None));
        let widest = chunk.lines.iter().map(|l| json::to_string(l).len()).max();
        assert!(widest.unwrap() <= TRACE_LINE_BYTES, "{widest:?}");
        assert!(max_result_line(Some(&spec)) > max_result_line(None));
    }
}
