//! Cells that put several concurrent senders on every host and drive
//! each kind of sender feed across them while they wait.
//!
//! The engine answers for a sender that reported `Blocked` without
//! polling it again until something is fed to it (`FlowSlab::poll_sender`
//! in `crates/core/src/engine.rs`). In debug builds every such skipped
//! poll is still made and asserted to be `Blocked`, so this grid is the
//! oracle for the contract on `SenderPoll::Blocked`: pacing and
//! fetch-delay gates (`Wait`, never parked), NACK rewinds, RTO fires and
//! CNPs all reach senders that are parked at the time. In release builds
//! it is a completion test.

use irn_core::sim::Time;
use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::workload::{FlowSpec, SizeDistribution};
use irn_core::{ExperimentConfig, RunResult, TopologySpec, TrafficModel, TransportTotals};
use irn_integration::run;

const MICE: usize = 2_000;

/// k=4 fat-tree, ≥ 2 000 single-packet flows at 50 % load: a dozen
/// senders per host wait for their ACK at any instant.
fn mice() -> (TopologySpec, TrafficModel, usize) {
    let traffic = TrafficModel::Poisson {
        load: 0.5,
        sizes: SizeDistribution::Fixed(1_000),
        flow_count: MICE,
    };
    (TopologySpec::FatTree(4), traffic, MICE)
}

/// One switch, eight hosts, two waves of four 100 KB flows per host:
/// two to its neighbours and one to each of hosts 0 and 1, which are
/// therefore oversubscribed (queues, ECN marks, drops or pauses). The
/// one-switch BDP is ~38 packets, so every windowed sender is
/// window-limited, and every host arbitrates four of them.
fn windowed() -> (TopologySpec, TrafficModel, usize) {
    let hosts = 8u32;
    let mut flows = Vec::new();
    for wave in 0..2u64 {
        for src in 0..hosts {
            for k in 1..=4 {
                let dst = match k {
                    1 | 2 => (src + k) % hosts,
                    _ if src == k - 3 => src + 4,
                    _ => k - 3,
                };
                flows.push(FlowSpec {
                    src,
                    dst,
                    bytes: 100_000,
                    at: Time::from_nanos(wave * 40_000),
                });
            }
        }
    }
    let n = flows.len();
    (
        TopologySpec::SingleSwitch(hosts as usize),
        TrafficModel::Explicit(flows),
        n,
    )
}

fn cell(
    shape: fn() -> (TopologySpec, TrafficModel, usize),
    transport: TransportKind,
    cc: CcKind,
    loss: f64,
    pfc: bool,
) -> RunResult {
    let (topology, traffic, flows) = shape();
    let mut cfg = ExperimentConfig::quick(flows)
        .with_traffic(traffic)
        .with_transport(transport)
        .with_cc(cc)
        .with_pfc(pfc);
    cfg.topology = topology;
    cfg.loss_injection = loss;
    let r = run(cfg);
    assert_eq!(
        r.summary.flows, flows,
        "{transport:?} {cc:?} loss {loss} pfc {pfc}"
    );
    r
}

/// Every CC × loss × PFC cell of both shapes for one transport, after
/// checking that the grid bit: somewhere in it a loss was recovered and
/// an RTO fired.
fn grid(transport: TransportKind) -> Vec<TransportTotals> {
    let mut cells = Vec::new();
    for shape in [mice, windowed] {
        for cc in [CcKind::None, CcKind::Dcqcn, CcKind::Timely, CcKind::Aimd] {
            for loss in [0.0, 0.01] {
                for pfc in [false, true] {
                    // RoCE with PFC runs without timeouts (§4.1), so an
                    // injected loss of a flow's last packet is never
                    // recovered: not a cell the model supports.
                    if transport == TransportKind::Roce && pfc && loss > 0.0 {
                        continue;
                    }
                    cells.push(cell(shape, transport, cc, loss, pfc).transport);
                }
            }
        }
    }
    assert!(cells.iter().any(|t| t.retransmitted > 0), "{transport:?}");
    assert!(cells.iter().any(|t| t.timeouts > 0), "{transport:?}");
    cells
}

/// The RDMA transports also see NACKs and (under DCQCN) CNPs.
fn rdma_grid(transport: TransportKind) {
    let cells = grid(transport);
    assert!(cells.iter().any(|t| t.nacks > 0), "{transport:?}");
    assert!(cells.iter().any(|t| t.cnps > 0), "{transport:?}");
}

#[test]
fn irn_cells_cross_parked_senders() {
    rdma_grid(TransportKind::Irn);
}

#[test]
fn roce_cells_cross_parked_senders() {
    rdma_grid(TransportKind::Roce);
}

#[test]
fn irn_go_back_n_cells_cross_parked_senders() {
    rdma_grid(TransportKind::IrnGoBackN);
}

#[test]
fn irn_no_bdp_fc_cells_cross_parked_senders() {
    rdma_grid(TransportKind::IrnNoBdpFc);
}

#[test]
fn iwarp_tcp_cells_cross_parked_senders() {
    // The TCP stack keeps its own congestion state: no NACKs, no CNPs.
    grid(TransportKind::IwarpTcp);
}
