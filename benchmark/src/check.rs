//! Output checks run on every cell before any number is printed, and
//! the digest of a cell's simulated statistics.

use irn_core::{ExperimentConfig, RunResult, TrafficModel};
use serde::json;
use serde::Serialize;

use crate::json_object;

/// Flows and application operations a traffic model must complete,
/// worked out from the scenario alone.
pub fn expected_counts(traffic: &TrafficModel, hosts: usize) -> (u64, u64) {
    match traffic {
        TrafficModel::Poisson { flow_count, .. }
        | TrafficModel::BurstyPoisson { flow_count, .. } => (*flow_count as u64, 0),
        TrafficModel::Incast { m, .. } => (*m as u64, 0),
        TrafficModel::Shuffle { rounds, .. } => ((hosts * rounds) as u64, 0),
        TrafficModel::Explicit(flows) => (flows.len() as u64, 0),
        TrafficModel::RpcClosedLoop {
            clients,
            ops_per_client,
            fanout,
            ..
        } => {
            let ops = *clients as u64 * *ops_per_client as u64;
            (ops * *fanout as u64 * 2, ops)
        }
        TrafficModel::Compose(parts) => parts
            .iter()
            .map(|p| expected_counts(&p.model, hosts))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
        TrafficModel::Allreduce { .. } | TrafficModel::LeaderReplicate { .. } => {
            unreachable!("no benchmark workload uses this model")
        }
    }
}

/// Everything wrong with a finished cell; empty when it passes.
///
/// A cell fails on incomplete flows or operations, a scheduler
/// invariant violation (`past_clamps`, `stale_timer_events`), or a
/// broken drop partition: buffer drops on a lossless (PFC) fabric,
/// injected drops without fault injection, retransmissions on a run
/// that lost nothing, or fewer packets delivered than the flows hold.
pub fn check_cell(cfg: &ExperimentConfig, r: &RunResult) -> Vec<String> {
    let mut bad = Vec::new();
    let (flows, ops) = expected_counts(&cfg.traffic, cfg.topology.hosts());
    let measured = r.metrics.len() as u64
        + match (&r.incast_metrics, cfg.traffic.has_incast_population()) {
            // A pure incast reports one population under both names.
            (Some(m), true) if !matches!(cfg.traffic, TrafficModel::Incast { .. }) => {
                m.len() as u64
            }
            _ => 0,
        };
    if r.memory.flows != flows || measured != flows {
        bad.push(format!(
            "flows: expected {flows}, ran {}, measured {measured}",
            r.memory.flows
        ));
    }
    let done_ops = r.app.as_ref().map_or(0, |a| a.ops());
    if done_ops != ops {
        bad.push(format!("ops: expected {ops}, completed {done_ops}"));
    }
    if r.sched.past_clamps != 0 {
        bad.push(format!("past_clamps = {}", r.sched.past_clamps));
    }
    if r.sched.stale_timer_events != 0 {
        bad.push(format!(
            "stale_timer_events = {}",
            r.sched.stale_timer_events
        ));
    }
    if cfg.pfc && r.fabric.buffer_drops != 0 {
        bad.push(format!(
            "{} buffer drops on a lossless fabric",
            r.fabric.buffer_drops
        ));
    }
    if cfg.loss_injection == 0.0 && r.fabric.injected_drops != 0 {
        bad.push(format!(
            "{} injected drops without fault injection",
            r.fabric.injected_drops
        ));
    }
    let drops = r.fabric.buffer_drops + r.fabric.injected_drops;
    if drops == 0 && r.transport.timeouts == 0 && r.transport.retransmitted != 0 {
        bad.push(format!(
            "{} retransmissions with no loss and no timeout",
            r.transport.retransmitted
        ));
    }
    if r.fabric.delivered_pkts < data_packets(r) {
        bad.push(format!(
            "delivered {} packets, flows hold {}",
            r.fabric.delivered_pkts,
            data_packets(r)
        ));
    }
    bad
}

/// Data packets the cell's flows hold: first transmissions only. Every
/// flow completed, so each of its packets was first-sent exactly once;
/// the count depends on the input alone, not on how the model recovers
/// from loss or how many events the engine spends.
pub fn data_packets(r: &RunResult) -> u64 {
    r.transport.sent - r.transport.retransmitted
}

/// FNV-1a 64 over `bytes`, as 16 hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of the cell's *simulated* statistics: FCT/slowdown/RCT/op
/// latency collectors, fabric and transport counters, finish time.
/// Host-side quantities (event count, scheduler counters, the memory
/// gauge) stay out, so a change that only makes the simulator faster —
/// even one that removes events — leaves every digest unmoved.
pub fn sim_digest(r: &RunResult) -> String {
    let doc = json_object(vec![
        ("summary", r.summary.to_json()),
        ("metrics", r.metrics.to_json()),
        ("incast_metrics", r.incast_metrics.to_json()),
        ("app", r.app.to_json()),
        ("fabric", r.fabric.to_json()),
        ("transport", r.transport.to_json()),
        ("finished_at", r.finished_at.to_json()),
    ]);
    fnv1a_hex(json::to_string(&doc).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_core::{Simulation, TopologySpec};

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologySpec::SingleSwitch(4),
            ..ExperimentConfig::quick(40)
        }
    }

    #[test]
    fn a_clean_cell_passes_and_digests_repeat() {
        let cfg = tiny();
        let a = Simulation::new(cfg.clone()).run();
        let b = Simulation::new(cfg.clone()).run();
        assert_eq!(check_cell(&cfg, &a), Vec::<String>::new());
        assert_eq!(sim_digest(&a), sim_digest(&b));
        assert_ne!(
            sim_digest(&a),
            sim_digest(&Simulation::new(cfg.with_seed(9)).run())
        );
    }

    #[test]
    fn each_violation_is_reported() {
        let cfg = tiny().with_pfc(true);
        let mut r = Simulation::new(cfg.clone()).run();
        r.sched.past_clamps = 1;
        r.sched.stale_timer_events = 2;
        r.fabric.buffer_drops = 3;
        r.fabric.injected_drops = 4;
        r.memory.flows += 1;
        let bad = check_cell(&cfg, &r);
        assert_eq!(bad.len(), 5, "{bad:?}");
    }

    #[test]
    fn digest_ignores_host_side_counters() {
        let mut r = Simulation::new(tiny()).run();
        let before = sim_digest(&r);
        r.events += 1;
        r.sched.timer_arms += 1;
        r.memory.pkt_pool_pkts += 1;
        assert_eq!(sim_digest(&r), before);
        r.transport.sent += 1;
        assert_ne!(sim_digest(&r), before);
    }

    #[test]
    fn fnv_reference_vector() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
