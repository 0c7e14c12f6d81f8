//! The worker side of the `work-v1` protocol: a serve loop that reads
//! work frames, runs each scenario, and streams result frames back.
//!
//! This is transport-agnostic — `repro worker` wires it to
//! stdin/stdout when spawned by a coordinator, or to an accepted TCP
//! stream when listening — and deliberately stateless: every work
//! frame carries its full scenario, so a worker can join or rejoin a
//! fleet at any time and any cell can be reassigned to any worker
//! without coordination.

use std::io::{BufRead, Write};

use crate::exec::{parse_trace, run_cell};
use crate::wire::{self, Frame};

/// Worker behavior knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerOptions {
    /// Testing hook for the coordinator's reassignment path: after
    /// answering this many work frames, read one more and exit
    /// **without responding** — simulating a worker dying mid-cell.
    /// `None` (the default) serves until EOF.
    pub exit_after: Option<usize>,
}

/// What a finished serve loop did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Work frames answered with a result frame.
    pub answered: usize,
    /// Frames answered with an error frame (bad scenario, protocol
    /// misuse, garbage lines, a run that cannot finish).
    pub errors: usize,
    /// True when the loop ended via the [`WorkerOptions::exit_after`]
    /// hook rather than EOF.
    pub aborted: bool,
}

/// Serve the `work-v1` protocol until `input` reaches EOF: one result
/// (or error) frame per incoming line, flushed after every frame so a
/// pipelined coordinator never stalls.
///
/// Malformed lines, invalid scenarios and runs that cannot finish are
/// answered with error frames — the worker stays up; killing it is the
/// coordinator's decision. I/O failure on either side ends the loop
/// with the error.
pub fn serve(
    input: impl BufRead,
    mut output: impl Write,
    opts: WorkerOptions,
) -> std::io::Result<ServeSummary> {
    let mut summary = ServeSummary {
        answered: 0,
        errors: 0,
        aborted: false,
    };
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = match wire::decode(&line) {
            Ok(Frame::Work {
                id,
                scenario,
                trace,
            }) => {
                if opts.exit_after == Some(summary.answered) {
                    // Simulated mid-cell death: the frame is consumed
                    // and never answered, so the coordinator must
                    // detect the EOF and reassign cell `id`.
                    summary.aborted = true;
                    return Ok(summary);
                }
                // The frame id is the cell's submission index in the
                // coordinator's batch, so chunks captured anywhere in
                // the fleet stamp the same cell numbers.
                let outcome = parse_trace(trace.as_ref())
                    .map_err(|e| e.to_string())
                    .and_then(|trace| {
                        run_cell(id, scenario.into_config(), trace).map_err(|e| e.to_string())
                    });
                match outcome {
                    Err(message) => {
                        summary.errors += 1;
                        wire::encode_error(Some(id), &message)
                    }
                    Ok(out) => {
                        summary.answered += 1;
                        wire::encode_result(
                            id,
                            out.wall.as_secs_f64(),
                            &out.result,
                            out.trace.as_ref(),
                        )
                    }
                }
            }
            Ok(Frame::Result { id, .. }) => {
                summary.errors += 1;
                wire::encode_error(Some(id), "workers expect work frames, got a result frame")
            }
            Ok(Frame::Error { id, message }) => {
                summary.errors += 1;
                wire::encode_error(
                    id,
                    &format!("workers expect work frames, got error: {message}"),
                )
            }
            Err(e) => {
                summary.errors += 1;
                wire::encode_error(e.id, &e.message)
            }
        };
        output.write_all(reply.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_core::{ExperimentConfig, Scenario, TopologySpec, TrafficModel};
    use serde::Serialize;

    fn scenario(seed: u64) -> Scenario {
        Scenario::from_config(
            "serve test",
            ExperimentConfig {
                topology: TopologySpec::SingleSwitch(4),
                traffic: TrafficModel::Incast {
                    m: 2,
                    total_bytes: 200_000,
                },
                ..ExperimentConfig::paper_default(2)
            }
            .with_seed(seed),
        )
        .unwrap()
    }

    #[test]
    fn serves_work_frames_and_matches_in_process_results() {
        let input = format!(
            "{}\n\n{}\n",
            wire::encode_work(0, &scenario(1), None),
            wire::encode_work(1, &scenario(2), None),
        );
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, WorkerOptions::default()).unwrap();
        assert_eq!(summary.answered, 2);
        assert_eq!(summary.errors, 0);
        assert!(!summary.aborted);

        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            match wire::decode(line).unwrap() {
                Frame::Result { id, result, .. } => {
                    assert_eq!(id, i as u64);
                    let local = irn_core::run(scenario(i as u64 + 1).into_config());
                    assert_eq!(
                        result.to_json(),
                        local.to_json(),
                        "worker must be bit-exact"
                    );
                }
                other => panic!("wrong frame: {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_and_misdirected_frames_get_error_replies() {
        let input = format!(
            "garbage\n{}\n{}\n",
            wire::encode_error(Some(4), "oops"),
            r#"{"frame":"work-v1","id":9,"scenario":{"nope":1}}"#,
        );
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, WorkerOptions::default()).unwrap();
        assert_eq!(summary.answered, 0);
        assert_eq!(summary.errors, 3);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        // The bad-scenario reply keeps the cell id.
        match wire::decode(lines[2]).unwrap() {
            Frame::Error { id, .. } => assert_eq!(id, Some(9)),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    /// A trace request the worker cannot read as asked is refused
    /// against its cell — never run with a default filter or capacity.
    #[test]
    fn mistyped_trace_request_gets_an_error_reply_with_the_id() {
        let work = wire::encode_work(3, &scenario(1), None);
        let body = work.strip_suffix('}').unwrap();
        let input = format!(
            "{body},\"trace\":{{\"filter\":5,\"capacity\":\"x\"}}}}\n{body},\"trace\":7}}\n"
        );
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, WorkerOptions::default()).unwrap();
        assert_eq!((summary.answered, summary.errors), (0, 2));
        for line in std::str::from_utf8(&out).unwrap().lines() {
            match wire::decode(line).unwrap() {
                Frame::Error { id, message } => {
                    assert_eq!(id, Some(3));
                    assert!(message.contains("at trace"), "{message}");
                }
                other => panic!("wrong frame: {other:?}"),
            }
        }
    }

    #[test]
    fn exit_after_drops_the_fatal_frame_silently() {
        let input = format!(
            "{}\n{}\n",
            wire::encode_work(0, &scenario(1), None),
            wire::encode_work(1, &scenario(2), None),
        );
        let mut out = Vec::new();
        let summary = serve(
            input.as_bytes(),
            &mut out,
            WorkerOptions {
                exit_after: Some(1),
            },
        )
        .unwrap();
        assert!(summary.aborted);
        assert_eq!(summary.answered, 1);
        // Exactly one reply: frame 1 was consumed but never answered.
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 1);
    }
}
