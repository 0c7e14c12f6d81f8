//! The machine-written formats, pinned two ways.
//!
//! **Golden bytes.** Every file below `fixtures/` was written by the
//! hand-paired writers this crate had before its formats became derived
//! structs (captured at the parent commit, where these tests passed
//! unchanged): an artifact envelope and a scenario envelope with their
//! `telemetry` blocks, `bench-trajectory-v1` with
//! and without a fleet, a `work-v1` frame with and without a trace
//! request, an error frame whose id is unreadable, and the `trace-v1`
//! header line. The inputs are canned — a stub executor hands out one
//! tiny real run with its counters overwritten — so the bytes depend on
//! the writers alone.
//!
//! **Strict at every depth.** A `result-v1` frame whose `irn-metrics`
//! members lie (an unknown or repeated key, a member beside an empty
//! form, a histogram that disagrees with itself) fails to decode with
//! the member's dotted path from the frame's root.
//!
//! **docs/SCHEMA.md.** Every key of every format must be spelled,
//! back-ticked, in the section that documents it, the way
//! `docs/SCENARIOS.md` is checked against the scenario tables.
//!
//! **The built binary** fails each once-lenient input by name:
//! `--verify-json` exits 1, and `repro worker`
//! answers every line of `fixtures/hostile-frames.ndjson` with exactly
//! one `error-v1` (CI's `worker-fanout` job pipes the same file).

use std::sync::OnceLock;
use std::time::Duration;

use irn_core::metrics::{AppMetrics, FlowRecord, MetricsCollector};
use irn_core::net::FabricStats;
use irn_core::sim::Time;
use irn_core::transport::config::TransportKind;
use irn_core::{
    ExperimentConfig, MemoryStats, RunResult, Scenario, SchedCounters, TransportTotals,
};
use irn_experiments::artifacts::{self, BatchRun, TraceHeader};
use irn_experiments::{scenario_json, Group, Plan, Report, Row, Scale};
use irn_harness::{wire, CellOutcome, Executor, HarnessError, WorkerStats};
use irn_telemetry::{TraceChunk, TraceSpec};
use serde::json::{self, Value};

/// One tiny real run whose every counter the formats read is replaced
/// by a value derived from `salt` (distinct per field, so a swapped
/// pair of keys shows up in the bytes).
fn canned(salt: u64) -> RunResult {
    static RUN: OnceLock<RunResult> = OnceLock::new();
    let mut r = RUN
        .get_or_init(|| irn_core::Simulation::new(ExperimentConfig::quick(4)).run())
        .clone();
    r.events = 1000 + salt;
    r.sched = SchedCounters {
        flow_arrivals: 10 + salt,
        fabric_events: 20 + salt,
        qp_timer_events: 30 + salt,
        nic_wake_events: 40 + salt,
        timer_arms: 50 + salt,
        timer_cancels: 60 + salt,
        stale_timer_reclaims: 70 + salt,
        stale_timer_events: 80 + salt,
        past_clamps: 90 + salt,
    };
    r.fabric = FabricStats {
        buffer_drops: 100 + salt,
        injected_drops: 110 + salt,
        pauses: 120 + salt,
        resumes: 130 + salt,
        ecn_marked: 140 + salt,
        delivered_pkts: 150 + salt,
        delivered_bytes: 160 + salt,
    };
    r.transport = TransportTotals {
        sent: 200 + salt,
        retransmitted: 210 + salt,
        nacks: 220 + salt,
        timeouts: 230 + salt,
        cnps: 240 + salt,
    };
    r.memory = MemoryStats {
        peak_flow_state_bytes: 300 + 7 * salt,
        metrics_bytes: 310 + salt,
        flows: 3 + salt,
        hist_buckets: 330 + salt,
        pkt_pool_bytes: 340 + salt,
        pkt_pool_pkts: 350 + salt,
    };
    r
}

/// Hands every cell `canned(index)` and a fixed wall time.
struct Canned;

impl Executor for Canned {
    fn run_cells(
        &mut self,
        cells: &[Scenario],
        _trace: Option<&TraceSpec>,
    ) -> Result<Vec<CellOutcome>, HarnessError> {
        Ok((0..cells.len() as u64)
            .map(|i| CellOutcome {
                result: canned(i),
                wall: Duration::from_millis(250 * (i + 1)),
                trace: None,
            })
            .collect())
    }

    fn concurrency(&self) -> usize {
        1
    }
}

fn scenario() -> Scenario {
    Scenario::from_config("Golden Run", ExperimentConfig::quick(4)).unwrap()
}

/// A plan of one cell per transport in `kinds` (one group, one
/// replicate), reporting one row.
fn plan(kinds: &[TransportKind]) -> Plan {
    let cells = kinds
        .iter()
        .map(|k| Scenario::from_config("c", ExperimentConfig::quick(4).with_transport(*k)).unwrap())
        .collect();
    Plan {
        report: Report::new("Figure G", "golden", "none"),
        groups: vec![Group {
            label: "IRN".to_string(),
            cells,
            fold: |label, runs| {
                vec![Row::new(label)
                    .push("cells", runs.len() as f64)
                    .push("m", 2.5)
                    .push("m_ci95", 0.125)]
            },
        }],
        reps: 1,
    }
}

/// Three items through the real batch runner on the stub executor: two
/// that ran cells (three transports between them, `irn` twice) and a
/// zero-cell one, which must leave no telemetry and no gauge row.
fn batch() -> BatchRun {
    use TransportKind::{Irn, IrnGoBackN, Roce};
    let items = [
        ("fig1".to_string(), plan(&[Irn, Roce, Irn])),
        ("golden-run".to_string(), plan(&[IrnGoBackN, Roce])),
        ("state-budget".to_string(), plan(&[])),
    ];
    let mut batch = artifacts::run_batch(&items, &mut Canned, None).unwrap();
    batch.batch_time = Duration::from_millis(1500);
    batch
}

fn scale() -> Scale {
    Scale::quick().with_seeds(3)
}

fn fleet() -> Vec<WorkerStats> {
    vec![
        WorkerStats {
            name: "spawn#0".to_string(),
            cells: 4,
            cell_wall_s: 2.25,
            failures: 0,
            alive: true,
            last_error: None,
        },
        WorkerStats {
            name: "127.0.0.1:7401".to_string(),
            cells: 1,
            cell_wall_s: 0.5,
            failures: 2,
            alive: false,
            last_error: Some("connection closed".to_string()),
        },
    ]
}

fn work_frames() -> String {
    let spec = TraceSpec {
        filter: "kind=pfc.*,flow=3".to_string(),
        capacity: 4096,
    };
    format!(
        "{}\n{}\n",
        wire::encode_work(3, &scenario(), None),
        wire::encode_work(4, &scenario(), Some(&spec)),
    )
}

#[test]
fn envelopes_with_telemetry_keep_the_parent_bytes() {
    let b = batch();
    let fig1 = artifacts::find("fig1").unwrap().plan(scale());
    let [fig1_run, golden, budget] = &b.items[..] else {
        panic!("three items");
    };
    assert_eq!(
        artifacts::artifact_json(
            "fig1",
            &scale(),
            &fig1,
            &fig1_run.report,
            fig1_run.telemetry.as_ref()
        ),
        include_str!("fixtures/envelope-artifact.json")
    );
    assert_eq!(
        scenario_json(&scenario(), 3, &golden.report, golden.telemetry.as_ref()),
        include_str!("fixtures/envelope-scenario.json")
    );
    assert_eq!(budget.telemetry, None);
}

#[test]
fn bench_trajectory_keeps_the_parent_bytes_with_and_without_a_fleet() {
    let b = batch();
    assert_eq!(
        artifacts::timing_json(&b, &scale(), 4, &[]),
        include_str!("fixtures/bench-trajectory.json")
    );
    assert_eq!(
        artifacts::timing_json(&b, &scale(), 2, &fleet()),
        include_str!("fixtures/bench-trajectory-fleet.json")
    );
}

#[test]
fn work_and_error_frames_keep_the_parent_bytes() {
    assert_eq!(work_frames(), include_str!("fixtures/work-frames.ndjson"));
    assert_eq!(
        wire::encode_error(None, "bad \"frame\""),
        r#"{"frame":"error-v1","id":null,"error":"bad \"frame\""}"#
    );
    assert_eq!(
        wire::encode_error(Some(9), "boom"),
        r#"{"frame":"error-v1","id":9,"error":"boom"}"#
    );
}

#[test]
fn trace_header_keeps_the_parent_bytes_and_reads_strictly() {
    let header = |source: &str, filter: &str, cells| TraceHeader {
        schema: irn_telemetry::TRACE_SCHEMA.to_string(),
        source: source.to_string(),
        filter: filter.to_string(),
        cells,
    };
    for (h, bytes) in [
        (
            header("fig1,fig4", "kind=pkt.*,flow=3", 12),
            r#"{"schema":"trace-v1","source":"fig1,fig4","filter":"kind=pkt.*,flow=3","cells":12}"#,
        ),
        (
            header("a\"b\\c\nd\te\r\u{1}f\u{1f}é", "", 0),
            r#"{"schema":"trace-v1","source":"a\"b\\c\nd\te\r\u0001f\u001fé","filter":"","cells":0}"#,
        ),
    ] {
        assert_eq!(json::to_string(&h), bytes);
        assert_eq!(serde::from_json_str::<TraceHeader>(bytes), Ok(h));
    }
    for (text, said) in [
        (
            r#"{"schema":"trace-v1","source":"s","filter":"","cells":1,"x":1}"#,
            "at x: unknown field",
        ),
        (
            r#"{"schema":"trace-v1","source":"s","filter":""}"#,
            "at cells: expected a non-negative integer, got null",
        ),
    ] {
        let err = serde::from_json_str::<TraceHeader>(text).unwrap_err();
        assert_eq!(err.to_string(), said, "{text}");
    }
}

/// A `result-v1` frame for cell 5 carrying `r`, with `from` replaced
/// by `to` once.
fn doctored_result(r: &RunResult, from: &str, to: &str) -> String {
    let frame = wire::encode_result(5, 0.25, r, None);
    let doctored = frame.replacen(from, to, 1);
    assert_ne!(doctored, frame, "{from} is not in the frame");
    doctored
}

#[test]
fn result_frames_with_lying_metrics_fail_by_path_at_every_depth() {
    let mut empty = canned(0);
    empty.metrics = MetricsCollector::new();
    empty.incast_metrics = None;
    let mut app = AppMetrics::default();
    app.record_phase();
    app.record_phase();
    empty.app = Some(app);
    let mut one = canned(0);
    one.metrics = MetricsCollector::new();
    one.metrics.record(FlowRecord {
        flow: 0,
        bytes: 2000,
        packets: 2,
        start: Time::ZERO,
        finish: Time::ZERO + irn_core::sim::Duration::micros(40),
        ideal: irn_core::sim::Duration::micros(10),
    });
    one.incast_metrics = None;
    let hist = r#""fct_hist":{"total":1,"buckets":[[654,1]]}"#;
    let cases = [
        (
            doctored_result(
                &empty,
                r#""metrics":{"flows":0}"#,
                r#""metrics":{"flows":0,"bogus":1}"#,
            ),
            "at result.metrics.bogus: unknown field",
        ),
        (
            doctored_result(
                &empty,
                r#""metrics":{"flows":0}"#,
                r#""metrics":{"flows":0,"fct_sum_ns":99}"#,
            ),
            "at result.metrics.fct_sum_ns: not allowed; the count is zero",
        ),
        (
            doctored_result(
                &empty,
                r#""app":{"ops":0,"phases":2}"#,
                r#""app":{"ops":0,"phases":2,"x":1}"#,
            ),
            "at result.app.x: unknown field",
        ),
        (
            doctored_result(
                &one,
                hist,
                r#""fct_hist":{"total":1,"buckets":[[654,1]],"x":true}"#,
            ),
            "at result.metrics.fct_hist.x: unknown field",
        ),
        (
            doctored_result(
                &one,
                hist,
                r#""fct_hist":{"total":1,"total":1,"buckets":[[654,1]]}"#,
            ),
            "at result.metrics.fct_hist.total: duplicate field",
        ),
        (
            doctored_result(
                &one,
                r#""metrics":{"flows":1,"#,
                r#""metrics":{"flows":1,"extra":1,"#,
            ),
            "at result.metrics.extra: unknown field",
        ),
        // Extremes out of order: accepted by the hand reader, then a
        // panic in the coordinator's first percentile.
        (
            doctored_result(&one, r#""min_fct_ns":40000"#, r#""min_fct_ns":40001"#),
            "at result.metrics.min_fct_ns: above its upper bound",
        ),
        // The rejections the hand reader already made, now by index.
        (
            doctored_result(
                &one,
                hist,
                r#""fct_hist":{"total":1,"buckets":[[99999,1]]}"#,
            ),
            "at result.metrics.fct_hist.buckets.[0]: bucket index out of range",
        ),
        (
            doctored_result(&one, hist, r#""fct_hist":{"total":1,"buckets":[[654,0]]}"#),
            "at result.metrics.fct_hist.buckets.[0]: bucket count must be positive",
        ),
        (
            doctored_result(
                &one,
                hist,
                r#""fct_hist":{"total":2,"buckets":[[654,1],[654,1]]}"#,
            ),
            "at result.metrics.fct_hist.buckets.[1]: duplicate bucket index",
        ),
        (
            doctored_result(&one, hist, r#""fct_hist":{"total":2,"buckets":[[654,1]]}"#),
            "at result.metrics.fct_hist.total: bucket counts do not sum to total",
        ),
    ];
    for (frame, said) in cases {
        match wire::decode(&frame) {
            Err(e) => assert!(e.to_string().contains(said), "{e} (want {said})"),
            Ok(f) => panic!("accepted: {f:?} (want {said})"),
        }
    }
}

/// Every object key in `v`, at any depth, except below the `opaque`
/// members (documented elsewhere: `scenario-v1`, the `RunResult`).
fn keys(v: &Value, opaque: &[&str], out: &mut Vec<String>) {
    match v {
        Value::Object(pairs) => {
            for (key, member) in pairs {
                out.push(key.clone());
                if !opaque.contains(&key.as_str()) {
                    keys(member, opaque, out);
                }
            }
        }
        Value::Array(items) => items.iter().for_each(|item| keys(item, opaque, out)),
        _ => {}
    }
}

/// `docs/SCHEMA.md` spells every key of every format here, back-ticked
/// (alone or in a path like `rows[].label`), between the heading of
/// the section that documents it and the next heading.
#[test]
fn schema_md_documents_every_key_in_its_section() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCHEMA.md");
    let docs = std::fs::read_to_string(path).unwrap();
    let b = batch();
    let chunk = TraceChunk {
        lines: vec![r#"{"cell":5,"t":0,"kind":"flow.start","flow":0}"#.to_string()],
        dropped: 1,
    };
    let frames = format!(
        "[{},{},{}]",
        work_frames().lines().last().unwrap(),
        wire::encode_result(5, 0.25, &canned(0), Some(&chunk)),
        wire::encode_error(None, "x"),
    );
    let parse = |text: String| json::from_str(&text).unwrap();
    let envelope = parse(scenario_json(
        &scenario(),
        3,
        &b.items[1].report,
        b.items[1].telemetry.as_ref(),
    ));
    let block = envelope.get("telemetry").unwrap().clone();
    // (section heading, sample document, members documented elsewhere)
    let samples: [(&str, Value, &[&str]); 4] = [
        (
            "## Field-by-field reference",
            envelope,
            &["scenario", "telemetry"],
        ),
        ("## The `telemetry` envelope block", block, &[]),
        (
            "### The executor's side file (`bench-trajectory-v1`)",
            parse(artifacts::timing_json(&b, &scale(), 2, &fleet())),
            &[],
        ),
        (
            "## The `work-v1` worker protocol",
            parse(frames),
            &["scenario", "result"],
        ),
    ];
    for (heading, sample, opaque) in samples {
        let mut found = Vec::new();
        keys(&sample, opaque, &mut found);
        let start = docs
            .find(&format!("\n{heading}\n"))
            .unwrap_or_else(|| panic!("no section '{heading}'"));
        let body = &docs[start + heading.len() + 2..];
        let body = &body[..body.find("\n#").unwrap_or(body.len())];
        // Prose only: a key inside a fenced sample is shown, not documented.
        let mut fenced = false;
        let prose: Vec<&str> = body
            .lines()
            .filter(|line| {
                let fence = line.trim_start().starts_with("```");
                fenced ^= fence;
                !fenced && !fence
            })
            .collect();
        let prose = prose.join("\n");
        // The words inside back-ticked spans (odd pieces of the split).
        let ticked: Vec<&str> = prose
            .split('`')
            .skip(1)
            .step_by(2)
            .flat_map(|span| span.split(|c: char| !c.is_alphanumeric() && c != '_'))
            .collect();
        assert!(found.len() >= 3, "{heading}: sample has no keys");
        for key in found {
            assert!(
                ticked.contains(&key.as_str()),
                "docs/SCHEMA.md, section '{heading}': key `{key}` is not documented"
            );
        }
    }
}

fn repro(args: &[&str], stdin: Option<&str>) -> std::process::Output {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    let mut pipe = child.stdin.take().unwrap();
    pipe.write_all(stdin.unwrap_or_default().as_bytes())
        .unwrap();
    drop(pipe);
    child.wait_with_output().unwrap()
}

#[test]
fn cli_worker_answers_every_hostile_frame_with_one_error_frame() {
    let hostile = include_str!("fixtures/hostile-frames.ndjson");
    let out = repro(&["worker"], Some(hostile));
    assert!(out.status.success());
    let replies = String::from_utf8(out.stdout).unwrap();
    assert_eq!(replies.lines().count(), hostile.lines().count());
    let ids: Vec<Option<u64>> = replies
        .lines()
        .map(|line| match wire::decode(line) {
            Ok(wire::Frame::Error { id, .. }) => id,
            other => panic!("not an error frame: {line} ({other:?})"),
        })
        .collect();
    // Stray key, stray key in `trace`, repeated key, mistyped member,
    // truncated JSON (no id to read), unknown tag.
    assert_eq!(ids, [Some(3), Some(4), Some(5), Some(6), None, Some(8)]);
    assert!(replies.starts_with(r#"{"frame":"error-v1","id":3,"error":"at bogus: unknown field"}"#));
}

#[test]
fn cli_verify_json_fails_doctored_files_by_path() {
    let dir = std::env::temp_dir().join(format!("irn-formats-{}", std::process::id()));
    let b = batch();
    let fig1 = artifacts::find("fig1").unwrap().plan(scale());
    let telemetry = b.items[0].telemetry.as_ref();
    let envelope = artifacts::artifact_json("fig1", &scale(), &fig1, &b.items[0].report, telemetry);
    let check = |sub: &str, file: &str, text: String, args: &[&str], code: i32, what: &str| {
        let sub = dir.join(sub);
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(sub.join(file), text).unwrap();
        let args: Vec<String> = args
            .iter()
            .map(|a| a.replace("DIR", sub.to_str().unwrap()))
            .collect();
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = repro(&args, None);
        let said = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(code), "{sub:?}: {said}");
        assert!(said.contains(what), "{sub:?}: {said}");
        assert!(code == 0 || said.contains("docs/SCHEMA.md"), "{said}");
    };
    let verify = ["--verify-json", "DIR"];
    let values = envelope.find("\"values\": [").unwrap();
    let end = values + envelope[values..].find("\n        ]").unwrap() + "\n        ]".len();
    check("ok", "fig1.json", envelope.clone(), &verify, 0, "ok ");
    check(
        "stray",
        "fig1.json",
        envelope.replace("\"seeds\"", "\"stray\": 1,\n  \"seeds\""),
        &verify,
        1,
        "at stray: unknown field",
    );
    check(
        "values",
        "fig1.json",
        format!("{}\"values\": 7{}", &envelope[..values], &envelope[end..]),
        &verify,
        1,
        "at report.rows.[0].values: expected an array, got a number",
    );
    check(
        "partition",
        "fig1.json",
        envelope.replace("\"buffer\": 202", "\"buffer\": 207"),
        &verify,
        1,
        "at telemetry.transport.by_kind.[0].drops: total 424 != buffer 207 + injected 222",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
