//! # irn-integration — workspace-level integration tests
//!
//! The tests live in `tests/tests/*.rs` and span every crate: paper-claim
//! assertions over full simulations, losslessness invariants, RDMA
//! semantic checks under adversarial channels, and determinism sweeps.
//! This library hosts the shared helpers, including the binary-heap
//! [`EventQueue`] and [`TimerSlot`] reference models the production
//! scheduler is differentially tested against.

#![forbid(unsafe_code)]

mod event_queue;
mod timer;

pub use event_queue::EventQueue;
pub use timer::TimerSlot;

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::workload::SizeDistribution;
use irn_core::{ExperimentConfig, RunResult, TopologySpec, TrafficModel};

/// A small fat-tree scenario sized for CI: 16 hosts, heavy-tailed flows.
pub fn quick_cfg(flows: usize) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologySpec::FatTree(4),
        traffic: TrafficModel::Poisson {
            load: 0.7,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: flows,
        },
        ..ExperimentConfig::paper_default(flows)
    }
}

/// Run a (transport, pfc, cc) cell on the quick scenario.
pub fn run_cell(flows: usize, t: TransportKind, pfc: bool, cc: CcKind) -> RunResult {
    irn_core::run(quick_cfg(flows).with_transport(t).with_pfc(pfc).with_cc(cc))
}
