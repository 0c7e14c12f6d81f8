//! Determinism guard for the closed-loop application layer: flows
//! spawned *in reaction to* completion events must not perturb the
//! byte-identical-output contract. The driver seam runs inside the
//! event loop, so any hidden ordering dependency (batch boundaries,
//! job counts, wall clock) would show up here as diverging bytes.

use irn_core::sim::Duration;
use irn_core::transport::config::TransportKind;
use irn_core::{run, RunResult, Scenario, TopologySpec, TrafficModel};
use irn_experiments::{scenario_plan, Harness};
use serde::json;
use serde::{Deserialize, Serialize};

/// The three models, sized for debug-profile test budgets.
fn models() -> Vec<(&'static str, TrafficModel)> {
    vec![
        (
            "rpc",
            TrafficModel::RpcClosedLoop {
                clients: 3,
                ops_per_client: 6,
                window: 2,
                request_bytes: 20_000,
                response_bytes: 1_000,
                think: Duration::micros(40),
                fanout: 2,
            },
        ),
        (
            "allreduce",
            TrafficModel::Allreduce {
                algorithm: irn_core::AllreduceAlgo::Ring,
                participants: 6,
                bytes: 200_000,
                iterations: 2,
            },
        ),
        (
            "replicate",
            TrafficModel::LeaderReplicate {
                clients: 2,
                followers: 3,
                quorum: 2,
                ops_per_client: 5,
                request_bytes: 10_000,
                ack_bytes: 64,
                think: Duration::micros(20),
            },
        ),
    ]
}

fn scenario(name: &str, traffic: TrafficModel) -> Scenario {
    Scenario::builder(name)
        .topology(TopologySpec::SingleSwitch(8))
        .traffic(traffic)
        .seed(9)
        .build()
        .unwrap()
}

/// Full-result bit-identity through the serialized form (the same
/// equality the artifact envelopes and the work-v1 protocol rely on).
fn run_json(r: &RunResult) -> String {
    json::to_string(&r.to_json())
}

/// Two in-process runs of each closed-loop model are bit-identical,
/// including the app-metrics block.
#[test]
fn closed_loop_runs_are_bit_identical() {
    for (name, traffic) in models() {
        let s = scenario(name, traffic);
        let a = run(s.config().clone());
        let b = run(s.config().clone());
        assert_eq!(run_json(&a), run_json(&b), "{name} diverged run-to-run");
        let app = a.app.expect("closed-loop runs report app metrics");
        assert!(app.ops() > 0, "{name} completed no ops");
    }
}

/// The executor contract at the report level: a closed-loop scenario
/// plan renders byte-identical reports at `--jobs` 1 and 8.
#[test]
fn closed_loop_reports_are_byte_identical_at_jobs_1_vs_8() {
    for (name, traffic) in models() {
        let s = scenario(name, traffic);
        let a = scenario_plan(&s, 2).run(&Harness::new(1)).unwrap();
        let b = scenario_plan(&s, 2).run(&Harness::new(8)).unwrap();
        assert_eq!(
            a.render(),
            b.render(),
            "{name} report diverged between --jobs 1 and --jobs 8"
        );
    }
}

/// The closed-vs-open-loop divergence the rpc-loss artifact tables
/// rest on: under loss, RoCE's go-back-N recovery stalls the RPC
/// window and op latency diverges from IRN's selective repeat.
#[test]
fn transport_choice_moves_closed_loop_op_latency_under_loss() {
    let mk = |transport: TransportKind, pfc: bool| {
        let mut cfg = scenario("rpc-divergence", models()[0].1.clone())
            .config()
            .clone();
        cfg.loss_injection = 0.02;
        let r = run(cfg.with_transport(transport).with_pfc(pfc));
        r.app.expect("app metrics").mean_latency()
    };
    let irn = mk(TransportKind::Irn, false);
    let roce = mk(TransportKind::Roce, false);
    assert!(
        irn != roce,
        "transports must produce distinguishable op latency under loss"
    );
}

/// Closed-loop app metrics survive the work-v1 wire format: the
/// serialized RunResult round-trips bit-exactly, app block included.
#[test]
fn closed_loop_results_round_trip_the_wire_format() {
    let (name, traffic) = models().remove(0);
    let s = scenario(name, traffic);
    let r = run(s.config().clone());
    let text = run_json(&r);
    let v = json::from_str(&text).unwrap();
    let back = RunResult::from_json(&v).unwrap();
    assert_eq!(run_json(&back), text, "wire round trip must be bit-exact");
    assert_eq!(back.app.unwrap().ops(), r.app.unwrap().ops());
}
