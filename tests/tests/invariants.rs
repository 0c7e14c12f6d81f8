//! Cross-crate invariants: recovery under injected faults, counter
//! meanings, determinism. The conservation laws themselves are audited
//! inside every run (`irn_core::audit`).

use irn_core::net::LoadBalancing;
use irn_core::sim::Duration;
use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{Simulation, TopologySpec, TrafficModel};
use irn_integration::{quick_cfg, run, run_cell};
use irn_telemetry::TraceFilter;

/// PFC's losslessness is a law every run is audited against; these
/// cells put each transport under PFC at a load that pauses.
#[test]
fn pfc_is_lossless_for_every_transport() {
    for t in [
        TransportKind::Irn,
        TransportKind::Roce,
        TransportKind::IrnGoBackN,
        TransportKind::IwarpTcp,
    ] {
        let r = run_cell(250, t, true, CcKind::None);
        assert!(
            r.fabric.pauses > 0,
            "{t:?}: need pauses for this test to bite"
        );
    }
}

/// Every X-OFF is eventually matched by an X-ON (no stuck ports). The
/// audit holds a closed-loop drain to this; an open-loop run stops at
/// its last completion, where a sprayed cell may still hold a pause, so
/// this ECMP cell is checked here.
#[test]
fn every_pause_is_resumed() {
    let r = run_cell(300, TransportKind::Roce, true, CcKind::None);
    assert!(r.fabric.pauses > 0, "need pauses for this test to bite");
    assert_eq!(
        r.fabric.pauses, r.fabric.resumes,
        "every X-OFF must eventually X-ON (no stuck ports)"
    );
}

#[test]
fn all_flows_complete_under_heavy_fault_injection() {
    // 1% random per-hop loss on top of congestion: loss recovery must
    // still deliver everything (the MELO/§7 robustness scenario).
    let mut cfg = quick_cfg(200);
    cfg.loss_injection = 0.01;
    let r = run(cfg
        .with_transport(TransportKind::Irn)
        .with_pfc(false)
        .with_cc(CcKind::None));
    assert_eq!(r.summary.flows, 200);
    assert!(r.fabric.injected_drops > 0, "injector must have fired");
    assert!(r.transport.retransmitted >= r.fabric.injected_drops / 2);
}

#[test]
fn fault_injection_with_pfc_still_completes() {
    // PFC prevents congestion drops but not injected (failure) losses:
    // IRN's recovery must handle the random-loss regime too.
    let mut cfg = quick_cfg(150);
    cfg.loss_injection = 0.005;
    let r = run(cfg.with_transport(TransportKind::Irn).with_pfc(true));
    assert_eq!(r.summary.flows, 150);
    assert!(r.fabric.injected_drops > 0);
}

#[test]
fn go_back_n_survives_fault_injection() {
    let mut cfg = quick_cfg(100);
    cfg.loss_injection = 0.005;
    let r = run(cfg.with_transport(TransportKind::Roce).with_pfc(false));
    assert_eq!(r.summary.flows, 100);
    assert!(
        r.transport.retransmitted > r.fabric.injected_drops,
        "go-back-N must resend more than was lost"
    );
}

#[test]
fn tcp_survives_fault_injection() {
    let mut cfg = quick_cfg(100);
    cfg.loss_injection = 0.005;
    let r = run(cfg.with_transport(TransportKind::IwarpTcp).with_pfc(false));
    assert_eq!(r.summary.flows, 100);
}

/// `retransmitted` means one thing for every transport: data packets
/// put on the wire marked `is_retx`, which is what the fabric traces as
/// `pkt.retx`. (The TCP stack used to report fast-retransmit *events*
/// here, a quarter of its retransmitted packets under loss.) That what
/// is left of `sent` is each flow's packets, first-sent once, is a law
/// every run is audited against.
#[test]
fn retransmitted_counts_the_traced_retx_packets_for_every_transport() {
    for t in [
        TransportKind::Irn,
        TransportKind::Roce,
        TransportKind::IrnGoBackN,
        TransportKind::IrnNoBdpFc,
        TransportKind::IwarpTcp,
    ] {
        for loss in [0.0, 0.01] {
            let mut cfg = quick_cfg(60).with_transport(t).with_seed(3);
            cfg.loss_injection = loss;
            // A one-line recorder: the count is the line it kept plus
            // those it dropped, so a go-back-N storm costs no memory.
            let only_retx = TraceFilter::parse("kind=pkt.retx").unwrap();
            let (r, chunk) = irn_telemetry::capture(0, only_retx, 1, || run(cfg));
            let kept = chunk.lines.iter().filter(|l| l.contains("\"pkt.retx\""));
            let traced = kept.count() as u64 + chunk.dropped;
            let what = format!("{t:?} at loss {loss}");
            assert_eq!(r.summary.flows, 60, "{what}");
            assert_eq!(r.transport.retransmitted, traced, "{what}");
            assert_eq!(loss > 0.0, r.fabric.injected_drops > 0, "{what}");
        }
    }
}

/// Retransmission without a drop or a timeout is not a conservation
/// law, and this cell is why: under packet spraying, PFC loses nothing,
/// yet reordered arrivals make receivers NACK and senders resend. The
/// audit passes it.
#[test]
fn a_sprayed_pfc_cell_retransmits_without_loss_and_passes_the_audit() {
    let mut cfg = quick_cfg(400).with_pfc(true).with_seed(1);
    cfg.load_balancing = LoadBalancing::PacketSpray;
    cfg.traffic = TrafficModel::Poisson {
        load: 0.5,
        sizes: SizeDistribution::HeavyTailed,
        flow_count: 400,
    };
    let r = Simulation::new(cfg).try_run().expect("the audit passes");
    let drops = r.fabric.buffer_drops + r.fabric.injected_drops;
    assert_eq!(drops, 0, "PFC and no fault injection: nothing is lost");
    assert!(
        r.transport.retransmitted > 0,
        "reordering alone retransmits ({} timeouts)",
        r.transport.timeouts
    );
}

#[test]
fn slowdowns_are_at_least_one() {
    // The ideal-FCT denominator must be a true lower bound. The
    // collector's minimum slowdown is exact (not bucketed), so this
    // still checks every flow.
    for t in [TransportKind::Irn, TransportKind::Roce] {
        let r = run_cell(200, t, t == TransportKind::Roce, CcKind::None);
        let min = r.metrics.percentile_slowdown(0.0);
        assert!(
            min >= 0.999,
            "{t:?}: min slowdown {min:.4} < 1 — ideal FCT overestimates",
        );
    }
}

#[test]
fn determinism_across_transports_and_cc() {
    for (t, cc) in [
        (TransportKind::Irn, CcKind::Dcqcn),
        (TransportKind::Roce, CcKind::Timely),
        (TransportKind::IwarpTcp, CcKind::None),
    ] {
        let a = run_cell(150, t, false, cc);
        let b = run_cell(150, t, false, cc);
        assert_eq!(a.events, b.events, "{t:?}/{cc:?} must be deterministic");
        assert_eq!(a.summary.avg_fct, b.summary.avg_fct);
        assert_eq!(a.fabric, b.fabric);
    }
}

#[test]
fn seeds_change_results() {
    let a = run(quick_cfg(150).with_seed(1));
    let b = run(quick_cfg(150).with_seed(2));
    assert_ne!(
        a.summary.avg_fct, b.summary.avg_fct,
        "different seeds must explore different workloads"
    );
}

#[test]
fn dcqcn_generates_cnps_under_congestion() {
    let r = run_cell(300, TransportKind::Irn, false, CcKind::Dcqcn);
    assert!(r.fabric.ecn_marked > 0, "ECN must mark under load");
    assert!(r.transport.cnps > 0, "marked packets must become CNPs");
}

#[test]
fn single_switch_and_dumbbell_topologies_work() {
    for topo in [TopologySpec::SingleSwitch(6), TopologySpec::Dumbbell(3, 3)] {
        let mut cfg = quick_cfg(100);
        cfg.topology = topo;
        let r = run(cfg);
        assert_eq!(r.summary.flows, 100, "{topo:?}");
    }
}

#[test]
fn uniform_workload_completes_on_all_transports() {
    for t in [TransportKind::Irn, TransportKind::Roce] {
        let mut cfg = quick_cfg(40);
        cfg.traffic = TrafficModel::Poisson {
            load: 0.6,
            sizes: SizeDistribution::Uniform500KbTo5Mb,
            flow_count: 40,
        };
        let r = run(cfg.with_transport(t).with_pfc(true));
        assert_eq!(r.summary.flows, 40);
        // Multi-MB flows: FCT must be at least the line-rate bound.
        assert!(r.summary.avg_fct > Duration::micros(100));
    }
}

#[test]
fn incast_with_cross_traffic_separates_populations() {
    let mut cfg = quick_cfg(100);
    cfg.traffic =
        TrafficModel::incast_with_cross(6, 6_000_000, 0.5, SizeDistribution::HeavyTailed, 100);
    let r = run(cfg);
    assert_eq!(r.summary.flows, 100, "background population");
    let incast = r.incast_metrics.as_ref().expect("incast population");
    assert_eq!(incast.len(), 6);
    assert!(r.rct() > Duration::micros(100));
}

#[test]
fn rto_high_trends_insensitive() {
    // Table 8's claim: multiplying RTO_high by 4 barely moves results.
    let base = run(quick_cfg(300));
    let mut cfg = quick_cfg(300);
    cfg.rto_high = Some(Duration::micros(1280));
    let big = run(cfg);
    let ratio = big.summary.avg_fct / base.summary.avg_fct;
    assert!(
        (0.8..1.35).contains(&ratio),
        "RTO_high x4 should change avg FCT little, ratio {ratio:.3}"
    );
}
