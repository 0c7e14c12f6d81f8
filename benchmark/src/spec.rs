//! The benchmark's contract in one place: every metric's name, unit,
//! direction and regression bound, and the `BENCHMARK.json` manifest
//! built from these tables (a test holds the committed file to it).

use serde::json::Value;
use serde::Serialize;

use crate::json_object;
use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 12;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark prints.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the simulator sees, per workload. All host time.
///
/// * `run_ns_per_pkt` — host wall time inside `Simulation::run`, summed
///   over the workload's cells, per simulated data packet the workload
///   delivers (first transmissions only: a number the input fixes, that
///   no model or engine change can shrink). The fleet workload divides
///   the wall time of the `repro` process instead.
/// * `setup_s` — child start to first `Simulation::run`: scenario read,
///   parse and `Simulation::new`, summed over cells, routing-table cache
///   cold. The fleet workload reports process wall minus batch wall.
/// * `peak_rss_mb` — `VmHWM` of the child process (fleet: coordinator).
pub const END_TO_END: [Metric; 3] = [
    e2e("run_ns_per_pkt", "ns/pkt", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// The per-layer ledger. Layers are the workspace crates.
pub const PER_LAYER: [Metric; 78] = [
    // sim — Scheduler
    lo("sim.events", "count"),
    lo("sim.timer_arms", "count"),
    lo("sim.timer_cancels", "count"),
    lo("sim.stale_reclaims", "count"),
    lo("sim.past_clamps", "count"),
    lo("sim.hold_ns_per_op", "ns"),
    lo("sim.timer_ns_per_op", "ns"),
    lo("sim.est_share", "ratio"),
    // net — Fabric, SwitchState, PacketArena, NetTables
    lo("net.fabric_events", "count"),
    hi("net.delivered_pkts", "count"),
    lo("net.pkt_allocs", "count"),
    lo("net.pkt_pool_peak", "count"),
    lo("net.buffer_drops", "count"),
    lo("net.injected_drops", "count"),
    lo("net.drop_ratio", "ratio"),
    lo("net.pauses", "count"),
    lo("net.ecn_marks", "count"),
    lo("net.hop_ns", "ns"),
    lo("net.hop_congested_ns", "ns"),
    lo("net.tables_build_s", "s"),
    lo("net.est_share", "ratio"),
    // transport — SenderQp, ReceiverQp, HostNic, CcState
    lo("transport.sent", "count"),
    lo("transport.retransmitted", "count"),
    hi("transport.useful_ratio", "ratio"),
    lo("transport.nacks", "count"),
    lo("transport.timeouts", "count"),
    lo("transport.cnps", "count"),
    lo("transport.clean_ns_per_pkt", "ns"),
    lo("transport.lossy_sr_ns_per_pkt", "ns"),
    lo("transport.lossy_gbn_ns_per_pkt", "ns"),
    lo("transport.qp_setup_ns", "ns"),
    lo("transport.cc_ns_per_ack", "ns"),
    lo("transport.est_share", "ratio"),
    // rdma — the Table 2 modules the lossy path leans on
    lo("rdma.bitmap_ns_per_op", "ns"),
    lo("rdma.receive_data_ns", "ns"),
    // metrics
    lo("metrics.record_ns_per_flow", "ns"),
    lo("metrics.summary_us", "us"),
    lo("metrics.hist_buckets", "count"),
    lo("metrics.heap_bytes", "B"),
    lo("metrics.est_share", "ratio"),
    // workload
    hi("workload.flows", "count"),
    hi("workload.app_ops", "count"),
    lo("workload.generate_s", "s"),
    lo("workload.driver_ns_per_retire", "ns"),
    lo("workload.est_share", "ratio"),
    // core — the engine that ties the layers together
    lo("core.scenario_parse_us", "us"),
    lo("core.sim_new_s", "s"),
    lo("core.sim_run_s", "s"),
    hi("core.events_per_s", "1/s"),
    lo("core.ns_per_event", "ns"),
    lo("core.flow_arrivals", "count"),
    lo("core.qp_timer_events", "count"),
    lo("core.nic_wake_events", "count"),
    lo("core.peak_flow_state_bytes", "B"),
    lo("core.bytes_per_flow", "B"),
    hi("core.sim_digest_pinned_match", "ratio"),
    lo("core.sim_irn_over_roce_slowdown", "ratio"),
    hi("core.sim_op_p99_roce_over_irn", "ratio"),
    lo("core.unattributed_share", "ratio"),
    // harness — wire protocol and executors
    lo("harness.encode_work_us", "us"),
    lo("harness.encode_result_us", "us"),
    lo("harness.decode_result_us", "us"),
    lo("harness.result_frame_bytes", "B"),
    lo("harness.thread_exec_overhead_share", "ratio"),
    lo("harness.pool_overhead_share", "ratio"),
    lo("harness.pool_idle_tail_s", "s"),
    lo("harness.retries", "count"),
    // experiments — the repro CLI around the batch
    hi("experiments.cells", "count"),
    lo("experiments.batch_wall_s", "s"),
    lo("experiments.plan_report_s", "s"),
    lo("experiments.envelope_bytes", "B"),
    lo("experiments.verify_json_s", "s"),
    // telemetry — the flight recorder
    lo("telemetry.capture_slowdown_x", "ratio"),
    lo("telemetry.events_recorded", "count"),
    lo("telemetry.events_dropped", "count"),
    // bench — this benchmark's own overhead
    lo("bench.trace_overhead_share", "ratio"),
    lo("bench.calib_ns", "ns"),
    lo("bench.spans", "count"),
];

fn metric_json(m: &Metric) -> Value {
    let mut pairs = vec![
        ("name", m.name.to_json()),
        ("unit", m.unit.to_json()),
        ("better", m.better.label().to_json()),
    ];
    if let Some(b) = m.bound {
        pairs.push(("bound", b.to_json()));
    }
    json_object(pairs)
}

/// The `BENCHMARK.json` document these tables define.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let doc = json_object(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| s.to_json()).collect()),
        ),
        ("paths", Value::Array(vec!["benchmark".to_json()])),
        ("run_seconds", RUN_SECONDS.to_json()),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        json_object(vec![("name", w.name.to_json()), ("why", w.why.to_json())])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ]);
    let mut text = serde::json::to_string_pretty(&doc);
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The names the benchmark prints are the names BENCHMARK.json
    /// lists: the committed file is exactly what the tables generate.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `irn-benchmark manifest`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(m.name), "bad metric name {}", m.name);
            assert!(ok_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for w in WORKLOADS.iter() {
            assert!(ok_name(w.name), "bad workload name {}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest().len() <= 64 * 1024);
    }
}
