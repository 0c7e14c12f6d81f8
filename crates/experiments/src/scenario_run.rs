//! Executing user `scenario-v1` files through the experiment machinery.
//!
//! `repro run FILE...` is the consumer of the declarative
//! [`Scenario`] API: each file parses into a validated scenario, fans
//! out over seed replicates exactly like the registry's Poisson
//! artifacts (strided seeds, mean ± ci95 aggregation), and joins the
//! same global submission-ordered batch executor — so `--jobs`,
//! `--seeds`, `--json`, and `--timing-json` all compose with scenario
//! runs just as they do with registry artifacts.

use irn_core::Scenario;

use crate::artifacts::{pretty, Envelope, SCHEMA_VERSION};
use crate::figures::{app_row, fct_row, incast_row};
use crate::plan::{Group, Plan};
use crate::report::Report;

/// The plan for one scenario: its cell fanned out over `seeds` strided
/// replicates (base = the scenario's own seed), assembled into a
/// one-row report of the headline metrics — per-operation latency for
/// closed-loop traffic, incast RCT when the traffic has an incast
/// population, plain FCT otherwise.
pub fn scenario_plan(scenario: &Scenario, seeds: usize) -> Plan {
    let traffic = &scenario.config().traffic;
    let fold = if traffic.is_closed_loop() {
        app_row
    } else if traffic.has_incast_population() {
        incast_row
    } else {
        fct_row
    };
    Plan {
        report: Report::new(
            scenario.name(),
            "user scenario (scenario-v1)",
            "user-defined scenario; no paper counterpart",
        ),
        groups: vec![Group::of(scenario.clone(), fold)],
        reps: seeds,
    }
}

/// Serialize a scenario run as a schema-v2 [`Envelope`] (pretty-printed,
/// trailing newline). Shape matches the registry artifacts' envelopes —
/// `repro --verify-json` accepts it — with the executed scenario
/// document embedded under `scenario` so a result file is
/// self-describing and replayable. `telemetry` is the run's
/// unified-counters block (see `docs/SCHEMA.md`); pass `None` to omit
/// the key.
pub fn scenario_json(
    scenario: &Scenario,
    seeds: usize,
    report: &Report,
    telemetry: Option<&crate::telemetry::TelemetrySummary>,
) -> String {
    pretty(&Envelope {
        schema_version: SCHEMA_VERSION,
        artifact: scenario.slug(),
        scale: "scenario".to_string(),
        seeds: seeds as u64,
        determinism: "replicated".to_string(),
        scenario: Some(scenario.clone()),
        report: report.clone(),
        telemetry: telemetry.cloned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts;
    use irn_core::{TopologySpec, TrafficModel};
    use irn_harness::Harness;

    fn tiny_scenario(seed: u64) -> Scenario {
        Scenario::builder("tiny incast")
            .topology(TopologySpec::SingleSwitch(8))
            .traffic(TrafficModel::Incast {
                m: 4,
                total_bytes: 400_000,
            })
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn scenario_plan_replicates_and_reports_incast_metrics() {
        let s = tiny_scenario(5);
        let plan = scenario_plan(&s, 3);
        assert_eq!(plan.cell_count(), 3, "three seed replicates");
        let rep = plan.run(&Harness::new(2)).unwrap();
        assert_eq!(rep.rows.len(), 1);
        let row = &rep.rows[0];
        assert_eq!(row.label, "tiny incast");
        assert!(row.values.iter().any(|(n, _)| n == "incast_rct_ms"));
        assert!(row.values.iter().any(|(n, _)| n == "incast_rct_ms_ci95"));
    }

    /// A `scenario-v1` seed within the fan-out's reach of `u64::MAX`
    /// (a debug build used to panic on the add, a release build wrapped
    /// and then re-sorted the file's own seed out of first place): the
    /// doctored example replicates by wrapping and runs to a report.
    #[test]
    fn a_seed_at_u64_max_replicates_by_wrapping() {
        let text = include_str!("../../../examples/poisson-quick.json");
        let doctored = text.replace("\"seed\": 1", "\"seed\": 18446744073709551615");
        assert_ne!(doctored, text, "the edit did not apply");
        let plan = scenario_plan(&Scenario::from_json_str(&doctored).unwrap(), 2);
        let seeds: Vec<u64> = plan.cells().iter().map(|c| c.config().seed).collect();
        assert_eq!(seeds, [u64::MAX, 100]);
        let rep = plan.run(&Harness::new(2)).unwrap();
        assert!(rep.rows[0].get("avg_slowdown_ci95") > 0.0);
    }

    /// An Incast-*shaped* part declared `primary` has no incast metric
    /// population: the plan must select the plain FCT metrics and run
    /// without panicking (this is a valid user scenario).
    #[test]
    fn incast_model_in_primary_population_uses_fct_metrics() {
        let s = Scenario::builder("primary-population incast")
            .topology(TopologySpec::SingleSwitch(8))
            .traffic(TrafficModel::Compose(vec![irn_core::Component {
                model: TrafficModel::Incast {
                    m: 4,
                    total_bytes: 400_000,
                },
                population: irn_core::Population::Primary,
                seed_salt: 0,
                start: irn_core::Start::Zero,
            }]))
            .build()
            .unwrap();
        let rep = scenario_plan(&s, 1).run(&Harness::new(1)).unwrap();
        let row = &rep.rows[0];
        assert!(row.values.iter().any(|(n, _)| n == "avg_fct_ms"));
        assert!(!row.values.iter().any(|(n, _)| n == "incast_rct_ms"));
    }

    /// Closed-loop scenarios report the per-operation metric set.
    #[test]
    fn closed_loop_scenario_reports_op_metrics() {
        let s = Scenario::builder("tiny rpc")
            .topology(TopologySpec::SingleSwitch(6))
            .traffic(TrafficModel::RpcClosedLoop {
                clients: 2,
                ops_per_client: 4,
                window: 1,
                request_bytes: 8_000,
                response_bytes: 500,
                think: irn_core::sim::Duration::micros(20),
                fanout: 1,
            })
            .build()
            .unwrap();
        let rep = scenario_plan(&s, 2).run(&Harness::new(2)).unwrap();
        let row = &rep.rows[0];
        assert!(row.values.iter().any(|(n, _)| n == "op_p99_ms"));
        assert!(!row.values.iter().any(|(n, _)| n == "avg_fct_ms"));
        let ops = row.values.iter().find(|(n, _)| n == "ops").unwrap().1;
        assert_eq!(ops, 8.0, "2 clients x 4 ops, identical over seeds");
    }

    #[test]
    fn scenario_runs_are_deterministic_across_job_counts() {
        let s = tiny_scenario(7);
        let a = scenario_plan(&s, 2).run(&Harness::new(1)).unwrap();
        let b = scenario_plan(&s, 2).run(&Harness::new(8)).unwrap();
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn scenario_envelope_passes_the_artifact_verifier() {
        let s = tiny_scenario(5);
        let rep = scenario_plan(&s, 2).run(&Harness::new(2)).unwrap();
        let text = scenario_json(&s, 2, &rep, None);
        artifacts::verify_artifact_json(&s.slug(), &text).unwrap();
        // The embedded scenario document round-trips.
        let env: Envelope = serde::from_json_str(&text).unwrap();
        assert_eq!(env.scenario, Some(s));
    }

    /// A scenario whose slug collides with a registry artifact of a
    /// different determinism class must still verify: scenario
    /// envelopes are named after the scenario, not held to the
    /// registry's class table.
    #[test]
    fn registry_colliding_scenario_name_still_verifies() {
        let s = tiny_scenario(5).with_name("state budget").unwrap();
        assert_eq!(s.slug(), "state-budget", "collides with the registry");
        let rep = scenario_plan(&s, 1).run(&Harness::new(1)).unwrap();
        let text = scenario_json(&s, 1, &rep, None);
        artifacts::verify_artifact_json("state-budget", &text).unwrap();
    }
}
