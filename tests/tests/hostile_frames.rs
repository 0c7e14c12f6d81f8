//! Hostile `work-v1` input ends in a typed error, never a panic or a
//! silent worker: `wire::decode` over mutated valid frames — a member
//! dropped, repeated, retyped or added, at the top level or inside
//! `trace`, or the line cut short — returns `Ok` or `Err`, and
//! `worker::serve` answers every non-blank line with exactly one frame.
//! The mutations start from one valid frame of each kind and from the
//! committed hostile lines CI pipes into `repro worker` (that each of
//! those gets one `error-v1` is checked on the built binary, in
//! `crates/experiments/tests/formats.rs`).

use std::sync::OnceLock;

use irn_core::{ExperimentConfig, Scenario, TopologySpec, TrafficModel};
use irn_harness::wire::{self, Frame};
use irn_harness::{worker, WorkerOptions};
use irn_telemetry::{TraceChunk, TraceSpec};
use proptest::prelude::*;
use serde::json::{self, Number, Value};

const HOSTILE: &str = include_str!("../../crates/experiments/tests/fixtures/hostile-frames.ndjson");

/// The lines mutations start from. The work frames describe a cell of
/// a few packets, so a mutation that leaves one valid costs nothing.
fn bases() -> &'static [String] {
    static BASES: OnceLock<Vec<String>> = OnceLock::new();
    BASES.get_or_init(|| {
        let cfg = ExperimentConfig {
            topology: TopologySpec::SingleSwitch(4),
            traffic: TrafficModel::Incast {
                m: 2,
                total_bytes: 20_000,
            },
            ..ExperimentConfig::paper_default(2)
        };
        let scenario = Scenario::from_config("hostile", cfg).unwrap();
        let spec = TraceSpec {
            filter: "kind=flow.*".to_string(),
            capacity: 8,
        };
        let chunk = TraceChunk {
            lines: vec![r#"{"cell":3,"t":0,"kind":"flow.start","flow":0}"#.to_string()],
            dropped: 2,
        };
        let run = irn_integration::run(scenario.config().clone());
        let mut bases = vec![
            wire::encode_work(1, &scenario, None),
            wire::encode_work(2, &scenario, Some(&spec)),
            wire::encode_result(3, 0.5, &run, Some(&chunk)),
            wire::encode_error(Some(4), "boom"),
        ];
        bases.extend(HOSTILE.lines().map(str::to_string));
        bases
    })
}

/// One mutation of `line`: `kind` picks it, `nested` aims it inside the
/// frame's `trace` object when there is one, `pick` chooses the member
/// and `cut` the truncation point or the replacement value.
fn mutate(line: &str, kind: u32, nested: bool, pick: usize, cut: usize) -> String {
    let truncated = || {
        let mut n = cut % (line.len() + 1);
        while !line.is_char_boundary(n) {
            n -= 1;
        }
        line[..n].to_string()
    };
    let Ok(Value::Object(mut top)) = json::from_str(line) else {
        return truncated();
    };
    let trace = top
        .iter()
        .position(|(k, v)| nested && k == "trace" && v.is_object());
    let target = match trace.map(|i| &mut top[i].1) {
        Some(Value::Object(inner)) => inner,
        _ => &mut top,
    };
    let i = pick % target.len();
    match kind {
        0 => drop(target.remove(i)),
        1 => target.push(target[i].clone()),
        2 => {
            target[i].1 = [
                Value::Null,
                Value::Bool(true),
                Value::Number(Number::U64(7)),
                Value::String("x".to_string()),
                Value::Array(Vec::new()),
                Value::Object(Vec::new()),
            ][cut % 6]
                .clone()
        }
        3 => target.insert(i, ("stray".to_string(), Value::Null)),
        _ => return truncated(),
    }
    json::to_string(&Value::Object(top))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_frames_never_panic_and_always_get_exactly_one_reply(
        base in 0usize..64,
        kind in 0u32..5,
        nested in prop::bool::ANY,
        pick in 0usize..64,
        cut in 0usize..100_000,
    ) {
        let bases = bases();
        let line = mutate(&bases[base % bases.len()], kind, nested, pick, cut);
        // Ok or Err — returning at all is the property.
        let _ = wire::decode(&line);
        let mut out = Vec::new();
        let input = format!("{line}\n");
        let summary = worker::serve(input.as_bytes(), &mut out, WorkerOptions::default()).unwrap();
        let replies = String::from_utf8(out).unwrap();
        let expected = usize::from(!line.trim().is_empty());
        prop_assert_eq!(replies.lines().count(), expected, "{}", replies);
        prop_assert_eq!(summary.answered + summary.errors, expected);
        for reply in replies.lines() {
            let frame = wire::decode(reply);
            prop_assert!(
                matches!(frame, Ok(Frame::Result { .. } | Frame::Error { .. })),
                "not a reply frame: {}",
                reply
            );
        }
    }
}
