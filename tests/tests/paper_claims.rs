//! The paper's key claims, asserted directionally on CI-sized runs.
//!
//! These are the §4.2 takeaways: (1) IRN without PFC beats RoCE with
//! PFC; (2) IRN does not require PFC; (3) RoCE requires PFC — plus the
//! §4.3 factor analysis, §4.5/§4.6 comparisons and §6.3 overhead check.
//! Absolute factors differ from the paper (different substrate and
//! workload CDF); the *orderings* are what must hold.

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_integration::run_cell;

const FLOWS: usize = 400;

#[test]
fn takeaway_1_irn_beats_roce_with_pfc() {
    let irn = run_cell(FLOWS, TransportKind::Irn, false, CcKind::None);
    let roce = run_cell(FLOWS, TransportKind::Roce, true, CcKind::None);
    assert!(
        irn.summary.avg_slowdown < roce.summary.avg_slowdown,
        "IRN slowdown {} must beat RoCE+PFC {}",
        irn.summary.avg_slowdown,
        roce.summary.avg_slowdown
    );
    assert!(irn.summary.avg_fct < roce.summary.avg_fct);
    assert!(irn.summary.p99_fct < roce.summary.p99_fct);
}

#[test]
fn takeaway_2_irn_does_not_require_pfc() {
    // Enabling PFC must not *improve* IRN appreciably (the paper found
    // it actively hurts; at minimum it must not be required).
    let bare = run_cell(FLOWS, TransportKind::Irn, false, CcKind::None);
    let pfc = run_cell(FLOWS, TransportKind::Irn, true, CcKind::None);
    let gain = bare.summary.avg_fct / pfc.summary.avg_fct;
    assert!(
        gain < 1.15,
        "PFC should buy IRN little: IRN/IRN+PFC avg-FCT ratio {gain:.3}"
    );
    // And IRN's loss recovery genuinely runs without PFC:
    assert!(bare.fabric.buffer_drops > 0, "no-PFC congestion must drop");
    assert!(bare.transport.retransmitted > 0);
}

#[test]
fn takeaway_3_roce_requires_pfc() {
    let with = run_cell(FLOWS, TransportKind::Roce, true, CcKind::None);
    let without = run_cell(FLOWS, TransportKind::Roce, false, CcKind::None);
    assert!(
        without.summary.avg_fct > with.summary.avg_fct * 15 / 10,
        "go-back-N without PFC must degrade ≥1.5x (paper: 1.5-3x): {} vs {}",
        without.summary.avg_fct,
        with.summary.avg_fct
    );
    assert!(
        without.transport.retransmission_rate() > 0.05,
        "redundant go-back-N retransmissions are the mechanism"
    );
}

#[test]
fn factor_analysis_both_changes_matter() {
    // Figure 7: removing either IRN ingredient hurts average FCT.
    let irn = run_cell(FLOWS, TransportKind::Irn, false, CcKind::None);
    let gbn = run_cell(FLOWS, TransportKind::IrnGoBackN, false, CcKind::None);
    let nofc = run_cell(FLOWS, TransportKind::IrnNoBdpFc, false, CcKind::None);
    assert!(
        gbn.summary.avg_fct > irn.summary.avg_fct,
        "go-back-N must cost FCT: {} vs {}",
        gbn.summary.avg_fct,
        irn.summary.avg_fct
    );
    assert!(
        nofc.summary.avg_fct > irn.summary.avg_fct,
        "dropping BDP-FC must cost FCT: {} vs {}",
        nofc.summary.avg_fct,
        irn.summary.avg_fct
    );
    // Go-back-N wastes bandwidth on redundant retransmissions (§4.3).
    assert!(gbn.transport.retransmitted > irn.transport.retransmitted);
}

#[test]
fn irn_beats_roce_under_dcqcn() {
    // Figure 4 (DCQCN panel).
    let irn = run_cell(FLOWS, TransportKind::Irn, false, CcKind::Dcqcn);
    let roce = run_cell(FLOWS, TransportKind::Roce, true, CcKind::Dcqcn);
    assert!(irn.summary.avg_fct < roce.summary.avg_fct);
    assert!(irn.summary.avg_slowdown < roce.summary.avg_slowdown);
}

#[test]
fn pfc_matters_little_for_irn_under_cc() {
    // Figure 5: with explicit CC, PFC on/off is near-neutral for IRN.
    for cc in [CcKind::Timely, CcKind::Dcqcn] {
        let bare = run_cell(FLOWS, TransportKind::Irn, false, cc);
        let pfc = run_cell(FLOWS, TransportKind::Irn, true, cc);
        let ratio = bare.summary.avg_fct / pfc.summary.avg_fct;
        assert!(
            (0.7..1.3).contains(&ratio),
            "{cc:?}: IRN/IRN+PFC avg-FCT ratio {ratio:.3} should be ≈1"
        );
    }
}

#[test]
fn irn_beats_resilient_roce() {
    // Figure 10: Resilient RoCE = RoCE + DCQCN without PFC.
    let resilient = run_cell(FLOWS, TransportKind::Roce, false, CcKind::Dcqcn);
    let irn = run_cell(FLOWS, TransportKind::Irn, false, CcKind::None);
    assert!(irn.summary.avg_slowdown < resilient.summary.avg_slowdown);
    assert!(irn.summary.avg_fct < resilient.summary.avg_fct);
}

#[test]
fn irn_beats_iwarp_tcp_on_slowdown() {
    // Figure 11: no slow start (BDP-FC instead) helps short flows.
    let iwarp = run_cell(FLOWS, TransportKind::IwarpTcp, false, CcKind::None);
    let irn = run_cell(FLOWS, TransportKind::Irn, false, CcKind::None);
    assert!(
        irn.summary.avg_slowdown < iwarp.summary.avg_slowdown,
        "IRN slowdown {} must beat iWARP's TCP {}",
        irn.summary.avg_slowdown,
        iwarp.summary.avg_slowdown
    );
    // iWARP must have actually exercised slow start / TCP recovery.
    assert!(iwarp.summary.flows == FLOWS);
}

#[test]
fn worst_case_overheads_are_small() {
    // Figure 12: +16 B headers and 2 µs retransmission fetch cost only a
    // few percent (paper: 4-7%).
    let plain = run_cell(FLOWS, TransportKind::Irn, false, CcKind::None);
    let mut cfg = irn_integration::quick_cfg(FLOWS)
        .with_transport(TransportKind::Irn)
        .with_pfc(false);
    cfg.extra_header = 16;
    cfg.retx_fetch_delay = irn_core::sim::Duration::micros(2);
    let worst = irn_integration::run(cfg);
    let ratio = worst.summary.avg_fct / plain.summary.avg_fct;
    assert!(
        (0.95..1.25).contains(&ratio),
        "worst-case overheads should cost only a few %, got ratio {ratio:.3}"
    );
    // And still beat RoCE with PFC (§6.3: 35-63% better).
    let roce = run_cell(FLOWS, TransportKind::Roce, true, CcKind::None);
    assert!(worst.summary.avg_fct < roce.summary.avg_fct);
}

#[test]
fn incast_parity_without_cross_traffic() {
    // Figure 9: PFC's best case — IRN must stay within a few percent.
    use irn_core::TrafficModel;
    let workload = TrafficModel::Incast {
        m: 8,
        total_bytes: 16_000_000,
    };
    let irn = irn_integration::run(
        irn_integration::quick_cfg(8)
            .with_traffic(workload.clone())
            .with_transport(TransportKind::Irn)
            .with_pfc(false),
    );
    let roce = irn_integration::run(
        irn_integration::quick_cfg(8)
            .with_traffic(workload)
            .with_transport(TransportKind::Roce)
            .with_pfc(true),
    );
    let ratio = irn.rct().as_nanos() as f64 / roce.rct().as_nanos() as f64;
    assert!(
        (0.9..1.1).contains(&ratio),
        "incast RCT ratio {ratio:.3} should be ≈1 (paper: within 2.5%)"
    );
}

#[test]
fn single_packet_tail_is_best_for_irn() {
    // Figure 8: IRN's RTO_low keeps the single-packet tail short.
    let irn = run_cell(600, TransportKind::Irn, false, CcKind::None);
    let roce = run_cell(600, TransportKind::Roce, true, CcKind::None);
    let irn_tail = irn.metrics.single_packet_messages().percentile(0.999);
    let roce_tail = roce.metrics.single_packet_messages().percentile(0.999);
    assert!(
        irn_tail < roce_tail,
        "IRN p99.9 {irn_tail} must beat RoCE+PFC {roce_tail}"
    );
}
