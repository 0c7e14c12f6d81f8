//! §7 extensions: packet-spray load balancing and the NACK threshold.
//!
//! "IRN's OOO packet delivery support also allows for other load
//! balancing schemes that may cause packet reordering within a flow.
//! IRN's loss recovery mechanism can be made more robust to reordering
//! by triggering loss recovery only after a certain threshold of NACKs
//! are received."

use irn_core::net::LoadBalancing;
use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::RunResult;
use irn_integration::{quick_cfg, run};

fn spray_cell(t: TransportKind, nack_threshold: u32) -> RunResult {
    let mut cfg = quick_cfg(250)
        .with_transport(t)
        .with_pfc(false)
        .with_cc(CcKind::None);
    cfg.load_balancing = LoadBalancing::PacketSpray;
    cfg.nack_threshold = nack_threshold;
    run(cfg)
}

#[test]
fn spraying_reorders_and_irn_still_completes() {
    let r = spray_cell(TransportKind::Irn, 1);
    assert_eq!(r.summary.flows, 250, "all flows must complete");
    // Reordering manifests as NACK traffic even where nothing dropped.
    assert!(
        r.transport.nacks > 0,
        "per-packet spraying must produce out-of-order NACKs"
    );
}

#[test]
fn nack_threshold_cuts_spurious_retransmissions() {
    let naive = spray_cell(TransportKind::Irn, 1);
    let robust = spray_cell(TransportKind::Irn, 5);
    assert_eq!(robust.summary.flows, 250);
    assert!(
        robust.transport.retransmitted < naive.transport.retransmitted,
        "threshold 5 must retransmit less than threshold 1 under spraying \
         ({} vs {})",
        robust.transport.retransmitted,
        naive.transport.retransmitted
    );
}

#[test]
fn irn_handles_spraying_better_than_go_back_n() {
    // A RoCE-style receiver discards every reordered packet; spraying is
    // pathological for it. IRN's OOO support is the enabler (§7).
    let irn = spray_cell(TransportKind::Irn, 5);
    let gbn = spray_cell(TransportKind::IrnGoBackN, 1);
    assert!(
        irn.summary.avg_fct < gbn.summary.avg_fct,
        "IRN under spraying {} must beat go-back-N {}",
        irn.summary.avg_fct,
        gbn.summary.avg_fct
    );
    assert!(irn.transport.retransmission_rate() < gbn.transport.retransmission_rate(),);
}

#[test]
fn spraying_with_ecmp_fallback_is_default() {
    // The default config must stay per-flow ECMP (no reordering).
    let cfg = quick_cfg(50);
    assert_eq!(cfg.load_balancing, LoadBalancing::EcmpPerFlow);
    assert_eq!(cfg.nack_threshold, 1);
    let r = run(cfg.with_transport(TransportKind::Irn).with_pfc(true));
    assert_eq!(
        r.transport.nacks, 0,
        "per-flow ECMP with PFC must never reorder or drop"
    );
}

#[test]
fn threshold_does_not_break_real_loss_recovery() {
    // With genuine drops (no PFC, ECMP), a threshold of 3 must still
    // recover everything — only the trigger is delayed.
    let mut cfg = quick_cfg(250)
        .with_transport(TransportKind::Irn)
        .with_pfc(false);
    cfg.nack_threshold = 3;
    let r = run(cfg);
    assert_eq!(r.summary.flows, 250);
    assert!(r.fabric.buffer_drops > 0);
    assert!(r.transport.retransmitted > 0);
}
