//! Determinism suite for the `irn-harness` orchestration layer.
//!
//! The tentpole guarantee: a report assembled from a harness batch —
//! and the JSON artifact serialized from it — is **byte-identical** at
//! any `--jobs` value. These tests run a deliberately small scale (the
//! point is scheduling, not statistics).

use irn_experiments::artifacts;
use irn_experiments::Scale;
use irn_integration::report_alone;
use serde::json;
use serde::Serialize;

/// Smaller than `Scale::quick()`: these tests also run under the debug
/// profile in CI, where the simulator is ~10x slower. Two seed
/// replicates keep the multi-seed machinery engaged without doubling
/// the runtime again.
fn tiny() -> Scale {
    Scale {
        fat_tree_k: 4,
        flows: 120,
        incast_reps: 2,
        incast_bytes: 2_000_000,
        seeds: 2,
    }
}

/// The representative figure: fig4 exercises the grid (variants × cc),
/// seed replication, batched submission, and metrics-row assembly. It
/// is planned through the registry, and its plan must derive the
/// replicated class — that class is the registry's promise this
/// byte-identity test relies on.
#[test]
fn report_render_is_byte_identical_across_job_counts() {
    let plan = artifacts::find("fig4").unwrap().plan(tiny());
    assert_eq!(
        plan.determinism(),
        "replicated",
        "fig4 must be a replicated simulation artifact"
    );
    let serial = report_alone(&plan, 1);
    let parallel = report_alone(&plan, 8);
    assert_eq!(
        serial.render(),
        parallel.render(),
        "jobs=1 and jobs=8 must render byte-identically"
    );
}

/// The JSON artifact path must be byte-stable across job counts too,
/// and the emitted text must satisfy the CI verifier (schema v2:
/// seeds + determinism metadata alongside the report).
#[test]
fn json_artifact_is_byte_identical_across_job_counts() {
    let scale = tiny();
    let fig4 = artifacts::find("fig4").unwrap().plan(scale);
    let json = |jobs| {
        let report = report_alone(&fig4, jobs);
        artifacts::artifact_json("fig4", &scale, &fig4, &report, None)
    };
    let (serial, parallel) = (json(1), json(8));
    assert_eq!(serial, parallel);
    artifacts::verify_artifact_json("fig4", &serial).unwrap();
    // Full value-level round-trip through the vendored serde.
    let v = json::from_str(&serial).unwrap();
    assert_eq!(json::from_str(&json::to_string(&v)).unwrap(), v);
    assert_eq!(
        v.get("schema_version").and_then(json::Value::as_u64),
        Some(artifacts::SCHEMA_VERSION)
    );
    assert_eq!(
        v.get("seeds").and_then(json::Value::as_u64),
        Some(tiny().seeds as u64)
    );
}

/// A full RunResult round-trips through the vendored serde at the
/// JSON-value level.
#[test]
fn run_result_round_trips_through_serde() {
    let r = irn_integration::run(irn_core::ExperimentConfig::quick(40));
    let v = r.to_json();
    let text = json::to_string(&v);
    let parsed = json::from_str(&text).unwrap();
    assert_eq!(parsed, v);
    // Spot-check the wire shape: summary metrics and fabric counters.
    assert_eq!(
        parsed
            .get("summary")
            .and_then(|s| s.get("flows"))
            .and_then(json::Value::as_u64),
        Some(40)
    );
    assert!(parsed.get("fabric").is_some_and(json::Value::is_object));
    assert_eq!(
        parsed.get("events").and_then(json::Value::as_u64),
        Some(r.events)
    );
    // The scheduler counters ride along, each under its own name.
    let sched = parsed.get("sched").expect("sched counters serialized");
    for (key, want) in [
        ("flow_arrivals", r.sched.flow_arrivals),
        ("fabric_events", r.sched.fabric_events),
        ("qp_timer_events", r.sched.qp_timer_events),
        ("nic_wake_events", r.sched.nic_wake_events),
        ("past_clamps", r.sched.past_clamps),
    ] {
        assert_eq!(
            sched.get(key).and_then(json::Value::as_u64),
            Some(want),
            "{key}"
        );
    }
}

/// The registry drives the repro CLI: every simulation-backed artifact
/// must be discoverable, and misspellings must be rejected.
#[test]
fn artifact_registry_rejects_unknown_names() {
    assert!(artifacts::find("fig9").is_some());
    assert!(artifacts::find("fig13").is_none());
    assert_eq!(artifacts::unknown_names(&["all", "fig1"]), [""; 0]);
    assert_eq!(artifacts::unknown_names(&["fig13"]), ["fig13"]);
}
