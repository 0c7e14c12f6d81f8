//! Seed-count sensitivity and global-scheduler equivalence.
//!
//! Two promises of seed replication and the global batch are pinned here:
//!
//! 1. **Seed semantics.** Raising `--seeds` on a Poisson artifact adds
//!    `<metric>_ci95` columns with genuinely nonzero run-to-run
//!    variance, while seed-independent artifacts (and the single-seed
//!    shape of every artifact) are completely unaffected.
//! 2. **Scheduling is invisible.** `repro all`'s global interleaved
//!    batch produces byte-identical reports to running each artifact
//!    sequentially, at any job count.

use irn_experiments::artifacts::{self, Artifact, BatchRun};
use irn_experiments::{Plan, Scale};
use irn_harness::ThreadExecutor;
use irn_integration::{fnv_hex, report_alone};

/// Debug-profile-friendly scale (CI runs these tests unoptimized too).
fn tiny() -> Scale {
    Scale {
        fat_tree_k: 4,
        flows: 120,
        incast_reps: 2,
        incast_bytes: 2_000_000,
        seeds: 1,
    }
}

fn select(names: &[&str]) -> Vec<&'static Artifact> {
    names
        .iter()
        .map(|n| artifacts::find(n).expect("known artifact"))
        .collect()
}

/// Each selected artifact's name and plan — the items of one global
/// batch, as `repro` builds them.
fn plans(selected: &[&Artifact], scale: Scale) -> Vec<(String, Plan)> {
    selected
        .iter()
        .map(|a| (a.name.to_string(), a.plan(scale)))
        .collect()
}

fn run_batch(items: &[(String, Plan)], jobs: usize) -> BatchRun {
    let mut exec = ThreadExecutor::new(jobs);
    artifacts::run_batch(items, &mut exec, None).expect("in-process executor")
}

/// fig1 at `--seeds 1` has the classic single-value rows (no ci95
/// columns); at `--seeds 5` every metric gains a ci95 companion that is
/// nonzero — Poisson workload realizations genuinely differ by seed.
/// The per-metric *means* move between the two seed counts (they
/// average different run sets), but the row labels and metric names
/// stay fixed.
#[test]
fn poisson_artifact_gains_nonzero_ci95_with_seeds() {
    let fig1 = artifacts::find("fig1").unwrap();
    let one = report_alone(&fig1.plan(tiny()), 4);
    let five = report_alone(&fig1.plan(tiny().with_seeds(5)), 4);

    assert_eq!(one.rows.len(), five.rows.len());
    for (r1, r5) in one.rows.iter().zip(&five.rows) {
        assert_eq!(r1.label, r5.label);
        // seeds=1: no ci95 columns at all.
        assert!(
            r1.values.iter().all(|(n, _)| !n.ends_with("_ci95")),
            "single-seed rows must not carry ci95 columns: {r1:?}"
        );
        // seeds=5: every metric has a ci95 companion, and at least one
        // is strictly positive (Poisson noise exists).
        for (name, _) in &r1.values {
            assert!(
                r5.values.iter().any(|(n, _)| n == &format!("{name}_ci95")),
                "metric {name} lost its ci95 companion at seeds=5"
            );
        }
        let max_ci = r5
            .values
            .iter()
            .filter(|(n, _)| n.ends_with("_ci95"))
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max);
        assert!(
            max_ci > 0.0,
            "row '{}' reports zero variance over 5 Poisson seeds",
            r5.label
        );
    }
}

/// The replicated mean over N seeds includes the seed-1 run: at
/// `--seeds 1` the mean *is* that run's value, so the two seed counts
/// agree only when the artifact is seed-independent. state-budget is —
/// its bytes must not move at all.
#[test]
fn deterministic_artifact_is_seed_count_invariant() {
    let budget = artifacts::find("state-budget").unwrap();
    let one = report_alone(&budget.plan(tiny()), 2).render();
    let five = report_alone(&budget.plan(tiny().with_seeds(5)), 2).render();
    assert_eq!(one, five, "state-budget must ignore --seeds entirely");
}

/// The global interleaved batch is pure scheduling: for a mixed
/// selection (small figures, an appendix table, an inline artifact),
/// `run_batch` must render byte-identically to one-artifact-at-a-time
/// runs, and byte-identically between jobs=1 and jobs=8.
#[test]
fn global_batch_matches_sequential_at_any_job_count() {
    let scale = tiny().with_seeds(2);
    let names = ["fig1", "fig3", "table9", "state-budget"];
    let items = plans(&select(&names), scale);

    let render_all = |reports: Vec<irn_experiments::Report>| -> String {
        reports
            .iter()
            .map(|r| r.render())
            .collect::<Vec<_>>()
            .join("\n")
    };

    // Sequential baseline: each artifact runs alone on one thread.
    let sequential: String = render_all(
        items
            .iter()
            .map(|(_, plan)| report_alone(plan, 1))
            .collect(),
    );
    let batched = |jobs| {
        let batch = run_batch(&items, jobs);
        render_all(batch.items.into_iter().map(|item| item.report).collect())
    };
    let (batched_serial, batched_parallel) = (batched(1), batched(8));

    assert_eq!(
        sequential, batched_serial,
        "global batching at jobs=1 must be invisible in the output"
    );
    assert_eq!(
        batched_serial, batched_parallel,
        "global batch output must be byte-identical at jobs=1 vs jobs=8"
    );
}

/// The batch really is global: the cell count `run_batch` reports is
/// the sum of the per-artifact plans, and demux hands every artifact
/// exactly its own slice (spot-checked by comparing against the
/// single-artifact path above).
#[test]
fn batch_cell_count_sums_per_artifact_plans() {
    let scale = tiny().with_seeds(2);
    let names = ["fig1", "fig2", "fig9", "state-budget"];
    let items = plans(&select(&names), scale);
    let batch = run_batch(&items, 8);
    assert_eq!(batch.items.len(), items.len());
    let total = batch.cell_count;
    let per_artifact: usize = items.iter().map(|(_, plan)| plan.cell_count()).sum();
    assert_eq!(total, per_artifact);
    // fig1 = 2 variants × 2 seeds, fig2 likewise; fig9 = 3cc × 3M × 2
    // transports × 2 reps; state-budget contributes nothing.
    assert_eq!(total, 4 + 4 + 36);
}

/// The scheduler-swap pin: **every** registered artifact — the full
/// `repro all` surface, no carve-out — renders byte-identical stdout
/// and byte-identical schema-v2 JSON at jobs=1 vs jobs=8, through the
/// global batch, and its jobs=1 bytes match the committed
/// `registry-digests.txt` (one line per artifact: name, FNV-1a of the
/// render, FNV-1a of the JSON). This is the acceptance gate that lets
/// the engine change underneath the artifacts: any drift in event
/// order (tie-breaks, timer delivery, arrival streaming) or in a
/// simulated byte shows up here as a moved digest, and so would an
/// artifact that read a clock.
///
/// The serial pass also pins every report's *shape* — row labels ×
/// column names, per artifact — against `report-shapes.txt`, captured
/// from the hand-written runners at ISSUE 20's parent commit: a table
/// row that groups or folds its cells differently fails here by name.
#[test]
fn every_deterministic_artifact_is_byte_stable_across_job_counts() {
    // Debug-profile budget: this runs the whole registry twice,
    // so the scale is the smallest that still exercises every
    // artifact's full cell matrix.
    let scale = Scale {
        flows: 60,
        incast_bytes: 1_000_000,
        ..tiny()
    };
    let selected: Vec<&'static Artifact> = artifacts::ARTIFACTS.iter().collect();
    assert!(selected.len() >= 20, "registry unexpectedly shrank");
    let items = plans(&selected, scale);

    let render = |batch: &BatchRun| -> Vec<(String, String)> {
        items
            .iter()
            .zip(&batch.items)
            .map(|((name, plan), item)| {
                let telemetry = item.telemetry.as_ref();
                let json = artifacts::artifact_json(name, &scale, plan, &item.report, telemetry);
                artifacts::verify_artifact_json(name, &json).unwrap();
                (item.report.render(), json)
            })
            .collect()
    };
    let serial_batch = run_batch(&items, 1);
    let mut shapes = String::new();
    for ((name, _), item) in items.iter().zip(&serial_batch.items) {
        for row in &item.report.rows {
            let cols: Vec<&str> = row.values.iter().map(|(n, _)| n.as_str()).collect();
            shapes.push_str(&format!("{name}\t{}\t{}\n", row.label, cols.join(" ")));
        }
    }
    assert_eq!(
        shapes,
        include_str!("../../crates/experiments/tests/fixtures/report-shapes.txt"),
        "artifact, row label, column names"
    );

    let serial = render(&serial_batch);
    let digests: String = items
        .iter()
        .zip(&serial)
        .map(|((name, _), (txt, json))| format!("{name} {} {}\n", fnv_hex([txt]), fnv_hex([json])))
        .collect();
    let path = format!(
        "{}/tests/fixtures/registry-digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (got, pinned) in digests.lines().zip(want.lines()) {
        assert_eq!(got, pinned, "artifact, render digest, JSON digest");
    }
    assert_eq!(
        digests.lines().count(),
        want.lines().count(),
        "artifact count"
    );

    let other = render(&run_batch(&items, 8));
    for (((name, _), (s_txt, s_json)), (o_txt, o_json)) in items.iter().zip(&serial).zip(&other) {
        assert_eq!(s_txt, o_txt, "{name}: stdout differs jobs=1 vs jobs=8");
        assert_eq!(s_json, o_json, "{name}: JSON differs jobs=1 vs jobs=8");
    }
}

/// `--seeds` flows through the JSON envelope: the `seeds` field tracks
/// the override while the scale label stays a preset name.
#[test]
fn seeds_override_lands_in_envelope_not_scale_label() {
    let scale = Scale::quick().with_seeds(3);
    assert_eq!(scale.label(), "quick");
    let fig1 = artifacts::find("fig1").unwrap().plan(scale);
    let mut rep = irn_experiments::Report::new("Figure 1", "t", "p");
    rep.add(irn_experiments::Row::new("IRN").push("avg_slowdown", 1.0));
    let text = artifacts::artifact_json("fig1", &scale, &fig1, &rep, None);
    let v = serde::json::from_str(&text).unwrap();
    assert_eq!(v.get("seeds").and_then(serde::json::Value::as_u64), Some(3));
    assert_eq!(
        v.get("scale").and_then(serde::json::Value::as_str),
        Some("quick")
    );
}
