//! Telemetry invariants across the vertical (see `docs/TRACING.md`):
//!
//! 1. **Tracing is an observer.** Running a cell with the flight
//!    recorder on must produce a `RunResult` bit-identical to the same
//!    cell with tracing off — the trace is derived *from* the run, it
//!    never steers it.
//! 2. **Trace bytes are deterministic.** For a deterministic batch the
//!    concatenated per-cell trace chunks are byte-identical at any
//!    `--jobs` level (the fleet-level equivalent lives in the
//!    worker-pool suite and CI's trace job).
//! 3. **Counter partitions.** The unified `telemetry` block is a pure
//!    sum of `RunResult` counters: drops partition into
//!    buffer + injected, and the per-transport-kind rows sum to the
//!    batch totals.

use irn_core::transport::config::TransportKind;
use irn_core::{ExperimentConfig, Scenario};
use irn_experiments::TelemetrySummary;
use irn_harness::{Executor, Harness, ThreadExecutor};
use irn_telemetry::{TraceFilter, TraceSpec};
use serde::{Deserialize, Serialize};

/// A small mixed batch: cheap cells over several transports, PFC on and
/// off, so the trace exercises pause/resume, marks, and drops. Cells
/// are kept well under the default flight-recorder capacity so the
/// *unfiltered* traces here are never truncated (truncation gets its
/// own dedicated test below).
fn batch() -> Vec<Scenario> {
    let kinds = [
        TransportKind::Irn,
        TransportKind::Roce,
        TransportKind::IrnGoBackN,
        TransportKind::Irn,
    ];
    kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let mut cfg = ExperimentConfig::quick(10 + i)
                .with_seed(i as u64 + 1)
                .with_pfc(i % 2 == 0);
            cfg.transport = *kind;
            Scenario::from_config(format!("cell{i}"), cfg).unwrap()
        })
        .collect()
}

/// Concatenate per-cell chunks in submission order — the same
/// reassembly `repro --trace` performs before writing the file.
fn trace_bytes(outcomes: &[irn_harness::CellOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let chunk = o.trace.as_ref().expect("traced outcome carries a chunk");
        for line in &chunk.lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn tracing_on_does_not_change_run_results() {
    let cells = batch();
    let spec = TraceSpec::default();
    let plain = ThreadExecutor::new(2).run_cells(&cells, None).unwrap();
    let traced = ThreadExecutor::new(2)
        .run_cells(&cells, Some(&spec))
        .unwrap();
    assert_eq!(plain.len(), traced.len());
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(
            p.result.to_json(),
            t.result.to_json(),
            "flight recorder changed a RunResult"
        );
        assert!(p.trace.is_none(), "untraced run grew a chunk");
        let chunk = t.trace.as_ref().expect("traced run missing its chunk");
        assert!(
            !chunk.lines.is_empty(),
            "a quick cell still emits flow/packet events"
        );
    }
}

#[test]
fn trace_bytes_identical_at_jobs_1_and_8() {
    let cells = batch();
    let spec = TraceSpec::default();
    let serial = ThreadExecutor::new(1)
        .run_cells(&cells, Some(&spec))
        .unwrap();
    let parallel = ThreadExecutor::new(8)
        .run_cells(&cells, Some(&spec))
        .unwrap();
    let a = trace_bytes(&serial);
    let b = trace_bytes(&parallel);
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace bytes depend on --jobs");
}

#[test]
fn trace_bytes_identical_through_the_harness_seam() {
    // `Harness::try_run` is the path `repro run --trace` takes;
    // it must agree byte-for-byte with the raw executor.
    let cells = batch();
    let spec = TraceSpec::default();
    let via_harness = Harness::with_executor(std::sync::Arc::new(ThreadExecutor::new(4)))
        .try_run(&cells, Some(&spec))
        .unwrap();
    let direct = ThreadExecutor::new(1)
        .run_cells(&cells, Some(&spec))
        .unwrap();
    assert_eq!(trace_bytes(&via_harness), trace_bytes(&direct));
}

#[test]
fn filtered_trace_is_a_subset_and_results_still_match() {
    let cells = batch();
    let filtered = TraceSpec {
        filter: "kind=pfc.*,kind=pkt.drop".to_string(),
        ..TraceSpec::default()
    };
    let full = ThreadExecutor::new(2)
        .run_cells(&cells, Some(&TraceSpec::default()))
        .unwrap();
    let narrow = ThreadExecutor::new(2)
        .run_cells(&cells, Some(&filtered))
        .unwrap();
    for (f, n) in full.iter().zip(&narrow) {
        assert_eq!(f.result.to_json(), n.result.to_json());
        assert_eq!(f.trace.as_ref().unwrap().dropped, 0);
        let full_lines = &f.trace.as_ref().unwrap().lines;
        let narrow_lines = &n.trace.as_ref().unwrap().lines;
        assert!(narrow_lines.len() < full_lines.len());
        // Every filtered line exists verbatim in the unfiltered trace,
        // in the same relative order (the filter drops, never rewrites).
        let mut cursor = full_lines.iter();
        for line in narrow_lines {
            assert!(
                cursor.any(|l| l == line),
                "filtered line absent from full trace: {line}"
            );
            assert!(
                line.contains("\"kind\":\"pfc.") || line.contains("\"kind\":\"pkt.drop\""),
                "filter leaked a foreign kind: {line}"
            );
        }
    }
}

#[test]
fn trace_filter_grammar_round_trips() {
    assert!(TraceFilter::parse("").unwrap().is_all());
    assert!(TraceFilter::parse("kind=pkt.*,flow=3,host=1").is_ok());
    assert!(TraceFilter::parse("kind=pfc.pause,kind=pfc.resume").is_ok());
    assert!(TraceFilter::parse("flow=abc").is_err());
    assert!(TraceFilter::parse("color=red").is_err());
    assert!(TraceFilter::parse("pkt.tx").is_err());
}

#[test]
fn telemetry_summary_partitions_hold_over_a_real_batch() {
    let cells = batch();
    let outcomes = Harness::serial().try_run(&cells, None).unwrap();
    let results: Vec<_> = outcomes.into_iter().map(|o| o.result).collect();
    let mut summary = TelemetrySummary::default();
    for (cell, r) in cells.iter().zip(&results) {
        summary.add(cell.config().transport, r);
    }

    // The block is a pure sum of the per-cell counters.
    assert_eq!(summary.cells, cells.len() as u64);
    assert_eq!(
        summary.events,
        results.iter().map(|r| r.events).sum::<u64>()
    );
    assert_eq!(
        summary.fabric.delivered_pkts,
        results.iter().map(|r| r.fabric.delivered_pkts).sum::<u64>()
    );
    assert_eq!(
        summary.transport.total.sent,
        results.iter().map(|r| r.transport.sent).sum::<u64>()
    );

    // Every drops object partitions and the per-kind rows partition the
    // batch totals exactly — in the struct and in the serialized block.
    summary.check_partitions().unwrap();
    let block = TelemetrySummary::from_json(&summary.to_json()).unwrap();
    assert_eq!(block, summary);

    // Three distinct kinds in the batch, first-appearance order.
    let rows = &summary.transport.by_kind;
    let kinds: Vec<&str> = rows.iter().map(|c| c.kind.as_str()).collect();
    assert_eq!(kinds, ["irn", "roce", "irn_go_back_n"]);
    assert_eq!(rows[0].cells, 2, "both IRN cells charged to one row");
}

#[test]
fn flight_recorder_truncates_oldest_and_reports_drop_count() {
    let cells = batch();
    let tiny = TraceSpec {
        filter: String::new(),
        capacity: 16,
    };
    let full = ThreadExecutor::new(1)
        .run_cells(&cells, Some(&TraceSpec::default()))
        .unwrap();
    let clipped = ThreadExecutor::new(1)
        .run_cells(&cells, Some(&tiny))
        .unwrap();
    for (f, c) in full.iter().zip(&clipped) {
        assert_eq!(f.result.to_json(), c.result.to_json());
        let full_chunk = f.trace.as_ref().unwrap();
        assert_eq!(full_chunk.dropped, 0, "reference trace must not wrap");
        let clip = c.trace.as_ref().unwrap();
        assert_eq!(clip.lines.len(), 16 + 1, "16 kept + trace.truncated");
        assert_eq!(
            clip.dropped,
            full_chunk.lines.len() as u64 - 16,
            "dropped count accounts for every discarded line"
        );
        // The recorder keeps the *tail* of the run.
        let marker = clip.lines.last().unwrap();
        assert!(marker.contains("\"kind\":\"trace.truncated\""));
        assert!(marker.contains(&format!("\"dropped\":{}", clip.dropped)));
        assert_eq!(
            clip.lines[..16],
            full_chunk.lines[full_chunk.lines.len() - 16..],
            "truncation discarded the newest lines instead of the oldest"
        );
    }
}
