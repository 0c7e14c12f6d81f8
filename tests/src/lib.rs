//! # irn-integration — workspace-level integration tests
//!
//! The tests live in `tests/tests/*.rs` and span every crate: paper-claim
//! assertions over full simulations, losslessness invariants, RDMA
//! semantic checks under adversarial channels, and determinism sweeps.
//! This library hosts the shared helpers and the reference models that
//! no production crate needs: the binary-heap [`EventQueue`] and
//! [`TimerSlot`] the production scheduler is differentially tested
//! against, and the §5 / Appendix B verbs-layer protocol oracle —
//! [`verbs`] (operations, WQEs, CQEs), [`qp`] (requester and responder
//! state machines over `irn_rdma`'s bitmaps and packet-processing
//! modules), [`srq`] (shared receive queues) and [`credits`]
//! (end-to-end credits and RNR rules) — which `tests/rdma_semantics.rs`
//! drives through lossy, reordering channels.

#![forbid(unsafe_code)]

pub mod credits;
mod event_queue;
pub mod qp;
pub mod srq;
mod timer;
pub mod verbs;

pub use event_queue::EventQueue;
pub use timer::TimerSlot;

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::{ExperimentConfig, RunResult};

/// A small fat-tree scenario sized for CI: 16 hosts, heavy-tailed flows.
pub fn quick_cfg(flows: usize) -> ExperimentConfig {
    ExperimentConfig::quick(flows)
}

/// Run a (transport, pfc, cc) cell on the quick scenario.
pub fn run_cell(flows: usize, t: TransportKind, pfc: bool, cc: CcKind) -> RunResult {
    irn_core::run(quick_cfg(flows).with_transport(t).with_pfc(pfc).with_cc(cc))
}
