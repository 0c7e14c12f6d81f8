//! The artifact registry's machinery: what an [`Artifact`] is, how a
//! selection of plans runs as one batch, and the JSON envelope each
//! report is written in and verified against.
//!
//! One source of truth for artifact names — [`ARTIFACTS`], the table in
//! [`crate::figures`] — keeps the CLI, the JSON emitter, the CI
//! verifier, and the determinism tests agreeing on what exists: a
//! misspelled name is a hard error everywhere instead of silent empty
//! output. Everything else the registry reports about an artifact
//! (class, workload, seeds, cells) is derived from its [`Plan`].
//!
//! Every artifact is a [`Plan`] (the analytical `state-budget` plans
//! zero cells), which is what lets [`run_batch`] splice every requested
//! artifact's cells into **one** globally interleaved batch: the worker
//! pool never drains between artifacts, so a small artifact queued
//! after a big one no longer waits for a fresh batch. Output stays
//! byte-identical to sequential runs at any job count because results
//! come back in submission order and each fold is pure.

use irn_core::{RunResult, Scenario};
use irn_harness::{Executor, HarnessError, WorkerStats};
use irn_telemetry::TraceSpec;
use serde::json;
use serde::{de_field, Deserialize, Serialize};

pub use crate::figures::ARTIFACTS;
use crate::plan::{Group, Plan};
use crate::report::Report;
use crate::scale::Scale;
use crate::telemetry::TelemetrySummary;

/// Version stamp of the JSON artifact envelope. Version 2 added the
/// `seeds` and `determinism` fields and the `<metric>_ci95` row
/// columns; see `docs/SCHEMA.md` for the field-by-field reference and
/// the v1 → v2 migration table.
pub const SCHEMA_VERSION: u64 = 2;

/// One reproducible evaluation artifact (a figure or table): a row of
/// [`ARTIFACTS`].
pub struct Artifact {
    /// CLI name and JSON file stem, e.g. `"fig1"`.
    pub name: &'static str,
    /// Report id, e.g. `"Figure 1"`.
    pub id: &'static str,
    /// Report title.
    pub title: &'static str,
    /// What the paper found (printed beside the rows).
    pub paper: &'static str,
    /// Seed replicates per cell at a scale: [`Scale::seeds`], or
    /// [`Scale::incast_reps`] for the incast figure.
    pub reps: fn(&Scale) -> usize,
    /// The logical cells at a scale, grouped by the rows they fold into
    /// (no cells for analytical artifacts).
    pub groups: fn(&Scale) -> Vec<Group>,
}

impl Artifact {
    /// The artifact's schedulable plan at `scale`.
    pub fn plan(&self, scale: Scale) -> Plan {
        Plan {
            report: Report::new(self.id, self.title, self.paper),
            groups: (self.groups)(&scale),
            reps: (self.reps)(&scale),
        }
    }
}

/// Look an artifact up by CLI name.
pub fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// The names from `wanted` that name no artifact (and are not `all`).
pub fn unknown_names<'a>(wanted: &[&'a str]) -> Vec<&'a str> {
    wanted
        .iter()
        .filter(|n| **n != "all" && find(n).is_none())
        .copied()
        .collect()
}

/// An artifact's logical cells as `repro emit-scenario` writes them,
/// each renamed uniquely (artifact + cell index + label): several cells
/// of one artifact may share a display label (fig9's are all
/// `"incast"`), and `repro run` rejects scenario-name collisions —
/// emitted sets must run back as a batch unedited. The file stem is the
/// new name's slug.
pub fn emitted_scenarios<'a>(
    artifact: &'a str,
    plan: &'a Plan,
) -> impl Iterator<Item = Scenario> + 'a {
    plan.logical_cells().enumerate().map(move |(i, cell)| {
        cell.with_name(format!("{artifact}-{i:02} {}", cell.name()))
            .expect("artifact names are nonempty")
    })
}

/// Per-artifact throughput observations from a batched run — one
/// `artifacts` row of the bench-trajectory JSON. The wall times are
/// executor bookkeeping — reported on stderr and in that side file,
/// never in the schema-v2 artifact envelopes.
#[derive(Debug, Clone, Serialize)]
pub struct ArtifactTiming {
    /// Artifact name (registry key), or a scenario slug for `repro run`
    /// batches.
    pub artifact: String,
    /// Simulation cells the artifact contributed to the batch (0 for
    /// analytical artifacts).
    pub cells: usize,
    /// Simulation events processed across those cells (deterministic).
    pub events: u64,
    /// Summed per-cell wall-clock execution seconds on the workers.
    /// With more jobs than cores this includes time-sharing wait, so
    /// compare runs at equal `jobs` (recorded alongside it in the
    /// timing JSON).
    pub cell_wall_s: f64,
    /// Events per summed cell-second across this artifact's cells
    /// (jobs-sensitive; see [`ArtifactTiming::cell_wall_s`]).
    pub events_per_sec: f64,
}

/// `events / wall`, or 0 for a batch that took no measurable time.
fn per_sec(events: u64, wall: std::time::Duration) -> f64 {
    let s = wall.as_secs_f64();
    if s > 0.0 {
        events as f64 / s
    } else {
        0.0
    }
}

/// The flight-recorder output of a traced batch: every cell's trace
/// lines concatenated in submission order. Because each line stamps its
/// cell's global submission index and each cell's capture is
/// independent, these bytes are identical at any `--jobs` and across
/// any worker fleet (see `docs/TRACING.md`).
pub struct BatchTrace {
    /// `trace-v1` NDJSON lines in `(cell, emission)` order, without the
    /// header line (a [`TraceHeader`] is prepended at write-out, since
    /// only the CLI knows the source description).
    pub lines: Vec<String>,
    /// Events discarded by ring-buffer overflow, summed over cells
    /// (each overflowing cell also carries an inline `trace.truncated`
    /// marker line).
    pub dropped: u64,
}

/// The first line of a `trace-v1` file, written by `repro --trace` and
/// read back strictly by `repro trace-summarize`. Deterministic: every
/// member is part of the run's identity, never of its host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Always [`irn_telemetry::TRACE_SCHEMA`].
    pub schema: String,
    /// What ran: the artifact list or the scenario slugs.
    pub source: String,
    /// The `--trace-filter` expression (empty for everything).
    pub filter: String,
    /// Cells in the batch.
    pub cells: u64,
}

/// One item of a [`run_batch`]: its report and what the batch observed
/// running the item's cells. The item's name is its timing row's
/// `artifact`.
pub struct ItemRun {
    /// The item's report, folded from its slice of the batch.
    pub report: Report,
    /// Cell, event and CPU-time observations.
    pub timing: ArtifactTiming,
    /// The unified counters (`None` for an item that ran no cells).
    /// Deterministic — these feed the envelope's `telemetry` block.
    pub telemetry: Option<TelemetrySummary>,
}

/// The outcome of [`run_batch`].
pub struct BatchRun {
    /// One row per item, in selection order.
    pub items: Vec<ItemRun>,
    /// Cells the global batch submitted to the executor.
    pub cell_count: usize,
    /// Wall-clock time of the executor pass alone (report assembly
    /// excluded), so this is the number to judge `--jobs` scaling
    /// against.
    pub batch_time: std::time::Duration,
    /// Simulation events processed across the whole batch.
    pub total_events: u64,
    /// Captured trace lines when the batch ran with a
    /// [`TraceSpec`]; `None` on untraced runs.
    pub trace: Option<BatchTrace>,
}

impl BatchRun {
    /// Batch-wide events per wall-clock second (all workers combined).
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.total_events, self.batch_time)
    }
}

/// The one global-batch runner (beneath `repro <artifact>...` and
/// `repro run`): concatenate every item's planned cells into one
/// submission-ordered batch, run it once on `exec`, then demux each
/// item's slice back through its plan. An item that planned no cells
/// has no `telemetry`.
///
/// The reports are byte-identical to running each plan alone, at any
/// job count: the executor returns results in submission order, each
/// cell is a pure function of its config, and each fold is a pure
/// function of its result slice.
///
/// When `trace` is `Some`, every cell runs under the flight recorder
/// and the per-cell chunks are concatenated — in submission order, which
/// is also cell-id order — into [`BatchRun::trace`]. A batch the
/// executor cannot finish (a run that failed, every worker lost)
/// surfaces as its typed [`HarnessError`], carrying completed/total
/// cell counts.
pub fn run_batch(
    items: &[(String, Plan)],
    exec: &mut dyn Executor,
    trace: Option<&TraceSpec>,
) -> Result<BatchRun, HarnessError> {
    let batch: Vec<Scenario> = items.iter().flat_map(|(_, plan)| plan.cells()).collect();
    let t = std::time::Instant::now();
    let outcomes = exec.run_cells(&batch, trace)?;
    let batch_time = t.elapsed();
    let batch_trace = trace.map(|_| {
        let mut lines = Vec::new();
        let mut dropped = 0u64;
        for o in &outcomes {
            if let Some(chunk) = &o.trace {
                lines.extend_from_slice(&chunk.lines);
                dropped += chunk.dropped;
            }
        }
        BatchTrace { lines, dropped }
    });
    let mut results = outcomes.into_iter().zip(&batch);
    let rows: Vec<ItemRun> = items
        .iter()
        .map(|(name, plan)| {
            let n = plan.cell_count();
            let mut events = 0u64;
            let mut cell_wall = std::time::Duration::ZERO;
            let mut summary = TelemetrySummary::default();
            let slice: Vec<RunResult> = results
                .by_ref()
                .take(n)
                .map(|(o, cell)| {
                    events += o.result.events;
                    cell_wall += o.wall;
                    // Counters are charged to the cell's transport kind.
                    summary.add(cell.config().transport, &o.result);
                    o.result
                })
                .collect();
            ItemRun {
                report: plan.assemble(&slice),
                timing: ArtifactTiming {
                    artifact: name.clone(),
                    cells: n,
                    events,
                    cell_wall_s: cell_wall.as_secs_f64(),
                    events_per_sec: per_sec(events, cell_wall),
                },
                telemetry: (n > 0).then_some(summary),
            }
        })
        .collect();
    Ok(BatchRun {
        total_events: rows.iter().map(|row| row.timing.events).sum(),
        items: rows,
        cell_count: batch.len(),
        batch_time,
        trace: batch_trace,
    })
}

/// The on-disk form of every JSON file `repro` writes: pretty-printed,
/// trailing newline.
pub(crate) fn pretty(value: &impl Serialize) -> String {
    let mut text = json::to_string_pretty(value);
    text.push('\n');
    text
}

/// The `bench-trajectory-v1` side file.
#[derive(Serialize)]
struct Trajectory<'a> {
    schema: &'a str,
    determinism: &'a str,
    scale: &'a str,
    seeds: usize,
    jobs: usize,
    cells: usize,
    total_events: u64,
    batch_wall_s: f64,
    events_per_sec: f64,
    artifacts: Vec<&'a ArtifactTiming>,
    workers: Option<Vec<WorkerRow<'a>>>,
}

/// One `workers` row of the side file.
#[derive(Serialize)]
struct WorkerRow<'a> {
    worker: &'a str,
    cells: usize,
    cell_wall_s: f64,
    failures: usize,
    alive: bool,
}

/// Serialize a batch's throughput observations as the
/// `bench-trajectory` JSON (pretty-printed, trailing newline): one
/// record per artifact (cells, events, summed per-cell wall seconds,
/// events/sec) plus batch-wide totals. This is the executor's side
/// file (its `determinism` tag reads `"timing"`): the seconds vary run
/// to run, which is exactly why it is separate from the schema-v2
/// artifact envelopes (and why `--verify-json` ignores it). It is not a
/// benchmark — perf claims cite the `BENCHMARK.json` command, whose
/// `repro-fleet-batch` workload reads this file for cell counts and
/// executor overhead.
///
/// `workers` is the distributed backend's per-worker breakdown
/// ([`irn_harness::WorkerPool::worker_stats`]); in-process runs pass
/// `&[]` and the `workers` array is omitted.
pub fn timing_json(
    batch: &BatchRun,
    scale: &Scale,
    jobs: usize,
    workers: &[WorkerStats],
) -> String {
    let rows: Vec<WorkerRow> = workers
        .iter()
        .map(|w| WorkerRow {
            worker: &w.name,
            cells: w.cells,
            cell_wall_s: w.cell_wall_s,
            failures: w.failures,
            alive: w.alive,
        })
        .collect();
    pretty(&Trajectory {
        schema: "bench-trajectory-v1",
        determinism: "timing",
        scale: scale.label(),
        seeds: scale.seeds,
        jobs,
        cells: batch.cell_count,
        total_events: batch.total_events,
        batch_wall_s: batch.batch_time.as_secs_f64(),
        events_per_sec: batch.events_per_sec(),
        artifacts: batch.items.iter().map(|item| &item.timing).collect(),
        workers: (!rows.is_empty()).then_some(rows),
    })
}

/// The schema-v2 envelope: the one shape [`artifact_json`] and
/// [`crate::scenario_json`] write and [`verify_artifact_json`] reads
/// (field-by-field reference: `docs/SCHEMA.md`). It deliberately
/// excludes job counts and timings, so the bytes depend only on
/// `(artifact, scale, report, telemetry)` — `--jobs 1` and `--jobs 64`
/// must emit identical files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Registry name or scenario slug; always the file stem.
    pub artifact: String,
    /// [`Scale::label`], or `"scenario"` for a scenario run.
    pub scale: String,
    /// Seed replicates behind every reported value (at least 1).
    pub seeds: u64,
    /// [`Plan::determinism`].
    pub determinism: String,
    /// The executed `scenario-v1` document (scenario runs only), so a
    /// result file is self-describing and replayable.
    pub scenario: Option<Scenario>,
    /// The rows.
    pub report: Report,
    /// The unified counters ([`ItemRun::telemetry`]); absent for an
    /// artifact that ran no cells.
    pub telemetry: Option<TelemetrySummary>,
}

/// Serialize one artifact as its JSON [`Envelope`] (pretty-printed,
/// with a trailing newline). The seed count and determinism class are
/// read from the `plan` the report came from.
pub fn artifact_json(
    name: &str,
    scale: &Scale,
    plan: &Plan,
    report: &Report,
    telemetry: Option<&TelemetrySummary>,
) -> String {
    pretty(&Envelope {
        schema_version: SCHEMA_VERSION,
        artifact: name.to_string(),
        scale: scale.label().to_string(),
        seeds: plan.seeds() as u64,
        determinism: plan.determinism().to_string(),
        scenario: None,
        report: report.clone(),
        telemetry: telemetry.cloned(),
    })
}

/// Validate one artifact's JSON text: the strict typed read of an
/// [`Envelope`] (unknown, repeated, missing and mistyped members fail
/// naming their path), then what the types cannot say. Returns a
/// human-readable error — referencing `docs/SCHEMA.md` — on failure.
pub fn verify_artifact_json(name: &str, text: &str) -> Result<(), String> {
    check_envelope(name, text).map_err(|msg| format!("{name}: {msg} (see docs/SCHEMA.md)"))
}

fn check_envelope(name: &str, text: &str) -> Result<(), String> {
    let v = json::from_str(text).map_err(|e| e.to_string())?;
    // The version says which shape to expect, so it is read first.
    let version: u64 = de_field(&v, "schema_version").map_err(|e| e.to_string())?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version}, expected {SCHEMA_VERSION} — \
             v1 envelopes predate seed metadata; regenerate or migrate"
        ));
    }
    let env = Envelope::from_json(&v).map_err(|e| e.to_string())?;
    if env.artifact != name {
        return Err("'artifact' field does not match file name".to_string());
    }
    if env.seeds == 0 {
        return Err("'seeds' must be >= 1".to_string());
    }
    let class = env.determinism.as_str();
    if !["replicated", "deterministic"].contains(&class) {
        return Err(format!("unknown determinism '{class}'"));
    }
    // Scenario-run envelopes (marked by the embedded scenario document
    // and `scale: "scenario"`) are named after the *scenario*, so a
    // name that happens to match a registry artifact must not be held
    // to that artifact's determinism class.
    let is_scenario_envelope = env.scenario.is_some() && env.scale == "scenario";
    if let Some(artifact) = find(name).filter(|_| !is_scenario_envelope) {
        // Whether an artifact simulates anything does not depend on the
        // scale, so any scale's plan names its class.
        let expected = artifact.plan(Scale::quick()).determinism();
        if class != expected {
            return Err(format!(
                "determinism '{class}' does not match the registry's '{expected}'"
            ));
        }
    }
    if env.report.rows.is_empty() {
        return Err("report has zero rows".to_string());
    }
    // ci95 semantics: every `<metric>_ci95` column must accompany its
    // `<metric>` mean in the same row.
    for row in &env.report.rows {
        for (n, _) in &row.values {
            let orphan = n
                .strip_suffix("_ci95")
                .filter(|base| !row.values.iter().any(|(m, _)| m == base));
            if let Some(base) = orphan {
                return Err(format!("row has '{n}' without its '{base}' mean"));
            }
        }
    }
    env.telemetry.map_or(Ok(()), |t| t.check_partitions())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Row;
    use irn_harness::{CellOutcome, ThreadExecutor};

    #[test]
    fn registry_names_are_unique_and_findable() {
        for a in ARTIFACTS {
            assert!(std::ptr::eq(find(a.name).unwrap(), a));
        }
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len());
    }

    #[test]
    fn unknown_names_flags_only_misspellings() {
        assert!(unknown_names(&["fig1", "all", "table9"]).is_empty());
        assert_eq!(
            unknown_names(&["fig13", "fig1", "tabel3"]),
            ["fig13", "tabel3"]
        );
    }

    #[test]
    fn seed_counts_follow_the_scale() {
        let scale = Scale::quick().with_seeds(7);
        let seeds = |name| find(name).unwrap().plan(scale).seeds();
        assert_eq!(seeds("fig1"), 7);
        assert_eq!(seeds("table3"), 7);
        assert_eq!(
            seeds("fig9"),
            scale.incast_reps,
            "fig9 keeps its incast repetition count"
        );
        assert_eq!(seeds("state-budget"), 1);
    }

    /// What `repro --list` prints and `repro emit-scenario all` writes,
    /// rebuilt from the table at both scales and held to the output of
    /// the binary that still kept these facts by hand (fixtures
    /// captured at ISSUE 20's parent commit).
    #[test]
    fn the_table_derives_the_registry_listing_and_the_emitted_names() {
        for (scale, listing, emitted) in [
            (
                Scale::quick(),
                include_str!("../tests/fixtures/registry-quick.txt"),
                include_str!("../tests/fixtures/emit-names-quick.txt"),
            ),
            (
                Scale::full(),
                include_str!("../tests/fixtures/registry-full.txt"),
                include_str!("../tests/fixtures/emit-names-full.txt"),
            ),
        ] {
            let plans: Vec<Plan> = ARTIFACTS.iter().map(|a| a.plan(scale)).collect();
            // name, class, workload, seeds, cells — the header line aside.
            let listed: Vec<Vec<&str>> = listing
                .lines()
                .skip(1)
                .map(|l| l.split_whitespace().collect())
                .collect();
            let derived: Vec<Vec<String>> = ARTIFACTS
                .iter()
                .zip(&plans)
                .map(|(a, p)| {
                    vec![
                        a.name.to_string(),
                        p.determinism().to_string(),
                        p.workload().to_string(),
                        p.seeds().to_string(),
                        p.cell_count().to_string(),
                    ]
                })
                .collect();
            assert_eq!(derived, listed, "{} scale", scale.label());
            let mut names: Vec<String> = ARTIFACTS
                .iter()
                .zip(&plans)
                .flat_map(|(a, p)| {
                    emitted_scenarios(a.name, p).map(|s| format!("{}.json", s.slug()))
                })
                .collect();
            names.sort();
            assert_eq!(names, emitted.lines().collect::<Vec<_>>());
        }
    }

    /// `state-budget` rides the batch as a zero-cell plan: no cells, no
    /// `telemetry` block, and the envelope bytes it had as an inline
    /// artifact (literal captured at the parent commit).
    #[test]
    fn state_budget_is_a_zero_cell_plan_with_the_inline_era_envelope() {
        let scale = Scale::quick().with_seeds(3);
        let items = [(
            "state-budget".to_string(),
            find("state-budget").unwrap().plan(scale),
        )];
        let plan = &items[0].1;
        assert_eq!(plan.cell_count(), 0);
        let batch = run_batch(&items, &mut ThreadExecutor::new(1), None).unwrap();
        assert_eq!(batch.cell_count, 0);
        let item = &batch.items[0];
        assert_eq!(item.telemetry, None);
        let text = artifact_json("state-budget", &scale, plan, &item.report, None);
        assert_eq!(text, include_str!("../tests/fixtures/state-budget.json"));
        verify_artifact_json("state-budget", &text).unwrap();
    }

    #[test]
    fn envelope_round_trips_and_verifies() {
        let scale = Scale::quick();
        let mut rep = Report::new("Figure 1", "t", "p");
        rep.add(Row::new("IRN").push("avg_slowdown", 2.5));
        let fig1 = find("fig1").unwrap().plan(scale);
        let text = artifact_json("fig1", &scale, &fig1, &rep, None);
        verify_artifact_json("fig1", &text).unwrap();
        // Round-trip through the type: read → re-render is the same file.
        let env: Envelope = serde::from_json_str(&text).unwrap();
        assert_eq!(pretty(&env), text);
        assert_eq!(env.schema_version, 2);
        assert_eq!(env.seeds, scale.seeds as u64);
        assert_eq!(env.determinism, "replicated");
        assert_eq!((env.scenario, env.telemetry), (None, None));
        // Mismatched name, broken text, empty rows all fail, and the
        // errors point at the schema reference.
        assert!(verify_artifact_json("fig2", &text).is_err());
        assert!(verify_artifact_json("fig1", "{").is_err());
        let empty = artifact_json("fig1", &scale, &fig1, &Report::new("f", "t", "p"), None);
        let err = verify_artifact_json("fig1", &empty).unwrap_err();
        assert!(
            err.contains("docs/SCHEMA.md"),
            "error must cite the schema doc: {err}"
        );
    }

    /// The envelopes the hand-walked verifier used to wave through:
    /// each now fails naming the member's dotted path.
    #[test]
    fn verifier_reads_strictly_and_checks_every_partition() {
        let scale = Scale::quick();
        let fig1 = find("fig1").unwrap().plan(scale);
        let mut rep = Report::new("Figure 1", "t", "p");
        rep.add(Row::new("IRN").push("avg_slowdown", 2.5));
        let kind = irn_core::transport::config::TransportKind::Irn;
        let run =
            irn_core::Simulation::new(irn_core::ExperimentConfig::quick(8).with_transport(kind))
                .run();
        let mut telemetry = TelemetrySummary::default();
        telemetry.add(kind, &run);
        let text = artifact_json("fig1", &scale, &fig1, &rep, Some(&telemetry));
        verify_artifact_json("fig1", &text).unwrap();
        let rejects = |doctored: String, what: &str| {
            assert_ne!(doctored, text, "{what}: the edit did not apply");
            let err = verify_artifact_json("fig1", &doctored).unwrap_err();
            assert!(err.contains(what), "{err}");
            assert!(err.contains("docs/SCHEMA.md"), "{err}");
        };
        rejects(
            text.replace("\"seeds\"", "\"stray\": 1,\n  \"seeds\""),
            "at stray: unknown field",
        );
        rejects(
            text.replace("\"scale\"", "\"seeds\": 5,\n  \"scale\""),
            "at seeds: duplicate field",
        );
        let values = text.find("\"values\": [").unwrap();
        let end = values + text[values..].find("\n        ]").unwrap() + "\n        ]".len();
        rejects(
            format!("{}\"values\": 7{}", &text[..values], &text[end..]),
            "at report.rows.[0].values: expected an array, got a number",
        );
        rejects(
            text.replace("2.5", "null"),
            "at report.rows.[0].values.[0].[1]: expected a number, got null",
        );
        rejects(
            text.replace("\"title\": \"t\",\n", ""),
            "at report.title: expected a string, got null",
        );
        rejects(
            text.replace("\"past_clamps\"", "\"past_clamp\""),
            "at telemetry.sched.past_clamp: unknown field",
        );
        // A by_kind row whose drops do not partition, and one whose
        // counter no longer sums to `transport.total`.
        let broken = |edit: fn(&mut TelemetrySummary)| {
            let mut t = telemetry.clone();
            edit(&mut t);
            artifact_json("fig1", &scale, &fig1, &rep, Some(&t))
        };
        rejects(
            broken(|t| t.transport.by_kind[0].drops.buffer += 5),
            "at telemetry.transport.by_kind.[0].drops: total",
        );
        rejects(
            broken(|t| t.transport.by_kind[0].nacks += 1),
            "at telemetry.transport.by_kind: the rows' 'nacks' sum to",
        );
    }

    #[test]
    fn verifier_rejects_v1_envelopes_and_orphan_ci95() {
        // A v1-shaped envelope (no seeds/determinism, old version).
        let v1 = r#"{"schema_version": 1, "artifact": "fig1", "scale": "quick",
                     "report": {"id": "f", "title": "t", "paper_expectation": "p",
                                "rows": [{"label": "IRN", "values": [["m", 1.0]]}]}}"#;
        let err = verify_artifact_json("fig1", v1).unwrap_err();
        assert!(err.contains("schema_version 1"), "{err}");
        assert!(err.contains("docs/SCHEMA.md"), "{err}");
        // ci95 column without its mean.
        let orphan = format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "artifact": "fig1", "scale": "quick",
                "seeds": 5, "determinism": "replicated",
                "report": {{"id": "f", "title": "t", "paper_expectation": "p",
                            "rows": [{{"label": "IRN", "values": [["m_ci95", 0.1]]}}]}}}}"#
        );
        let err = verify_artifact_json("fig1", &orphan).unwrap_err();
        assert!(err.contains("without its"), "{err}");
        // Determinism contradicting the registry, and the retired
        // wall-clock class, which no envelope may carry any more.
        let with_class = |class: &str| {
            format!(
                r#"{{"schema_version": {SCHEMA_VERSION}, "artifact": "fig1", "scale": "quick",
                    "seeds": 5, "determinism": "{class}",
                    "report": {{"id": "f", "title": "t", "paper_expectation": "p",
                                "rows": [{{"label": "IRN", "values": [["m", 1.0]]}}]}}}}"#
            )
        };
        verify_artifact_json("fig1", &with_class("replicated")).unwrap();
        let err = verify_artifact_json("fig1", &with_class("deterministic")).unwrap_err();
        assert!(err.contains("does not match the registry"), "{err}");
        let err = verify_artifact_json("fig1", &with_class("timing")).unwrap_err();
        assert!(err.contains("unknown determinism 'timing'"), "{err}");
    }

    /// A custom backend plugs in through the trait seam, and the error
    /// it returns is `run_batch`'s: no report is assembled.
    #[test]
    fn custom_executor_errors_surface_through_run_batch() {
        struct Failing;
        impl Executor for Failing {
            fn run_cells(
                &mut self,
                _: &[Scenario],
                _: Option<&TraceSpec>,
            ) -> Result<Vec<CellOutcome>, HarnessError> {
                Err(HarnessError::FleetLost {
                    completed: 0,
                    total: 0,
                })
            }
            fn concurrency(&self) -> usize {
                3
            }
        }
        let items = [(
            "fig1".to_string(),
            find("fig1").unwrap().plan(Scale::quick()),
        )];
        let err = run_batch(&items, &mut Failing, None).err();
        assert!(matches!(err, Some(HarnessError::FleetLost { .. })));
    }
}
