//! # irn-integration — workspace-level integration tests
//!
//! The tests live in `tests/tests/*.rs` and span every crate: paper-claim
//! assertions over full simulations, losslessness invariants, fixtures
//! that pin simulated bytes, and determinism sweeps. This library hosts
//! the shared helpers (among them [`report_alone`], one plan through the
//! batch path `repro` takes) and the two reference models no production crate
//! needs: the binary-heap [`EventQueue`] and the [`TimerSlot`] that the
//! production scheduler is differentially tested against in
//! `tests/scheduler.rs`.
//!
//! The simulator does not model verbs (WQEs, CQEs, shared receive
//! queues, credits), so no verbs-layer model lives here either; one
//! returns only together with a differential client that compares it
//! against the simulator's transport.

#![forbid(unsafe_code)]

mod event_queue;
mod timer;

pub use event_queue::EventQueue;
pub use timer::TimerSlot;

use irn_core::transport::cc::CcKind;
use irn_core::transport::config::TransportKind;
use irn_core::{ExperimentConfig, RunResult, Simulation};
use irn_experiments::{artifacts, Plan, Report};
use irn_harness::ThreadExecutor;

/// A small fat-tree scenario sized for CI: 16 hosts, heavy-tailed flows.
pub fn quick_cfg(flows: usize) -> ExperimentConfig {
    ExperimentConfig::quick(flows)
}

/// Run one experiment to completion (panics on a run that cannot
/// finish; production callers use `Simulation::try_run`).
pub fn run(cfg: ExperimentConfig) -> RunResult {
    Simulation::new(cfg).run()
}

/// Run a (transport, pfc, cc) cell on the quick scenario.
pub fn run_cell(flows: usize, t: TransportKind, pfc: bool, cc: CcKind) -> RunResult {
    run(quick_cfg(flows).with_transport(t).with_pfc(pfc).with_cc(cc))
}

/// `plan` alone through [`artifacts::run_batch`] on `jobs` threads — the
/// path `repro` takes — and its report.
pub fn report_alone(plan: &Plan, jobs: usize) -> Report {
    let items = [(String::new(), plan.clone())];
    let mut exec = ThreadExecutor::new(jobs);
    let mut batch = artifacts::run_batch(&items, &mut exec, None).expect("in-process executor");
    batch.items.remove(0).report
}
