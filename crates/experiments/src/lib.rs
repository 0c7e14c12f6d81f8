//! # irn-experiments — regenerating every figure and table of the paper
//!
//! Every evaluation artifact of "Revisiting Network Support for RDMA"
//! (SIGCOMM 2018) is one row of a table ([`ARTIFACTS`], in
//! [`figures`]): its report header and the logical cells it compares,
//! grouped by the rows they produce. A row evaluates, at a [`Scale`],
//! into a [`Plan`] — plain data, and the only place that knows how a
//! figure becomes a batch: it fans every cell out over the seed
//! replicates, flattens the batch, demuxes the results and folds them
//! into a [`Report`] that prints rows shaped like the paper's (and that
//! tests can assert directional claims against). Each reported metric
//! carries a mean and a `<metric>_ci95` confidence half-width.
//!
//! `repro` splices the plans of every requested artifact into **one**
//! globally interleaved batch ([`artifacts::run_batch`]): independent
//! cells run in parallel across artifacts while reports render
//! byte-identically at any job count.
//!
//! Run them through the `repro` binary:
//!
//! ```text
//! repro fig1                     # quick scale (k=4 fat-tree, 16 hosts)
//! repro --full fig1              # paper scale (k=6 fat-tree, 54 hosts)
//! repro all --jobs 8             # everything, one global batch, 8 workers
//! repro all --seeds 3            # 3 seed replicates per Poisson cell
//! repro all --json out/          # also persist one JSON file per artifact
//! repro --list                   # name, class, workload, seeds, cells
//! repro --verify-json out/       # validate a previously emitted JSON dir
//! ```
//!
//! Absolute numbers will not match the paper — the substrate is a clean
//! reimplementation and the exact flow-size CDF of \[19\] is not public —
//! but the *shape* of each comparison (who wins, roughly by how much,
//! how trends move across sweeps) is the reproduction target; every
//! report carries the paper's finding beside its rows
//! (`paper_expectation`), and `tests/tests/paper_claims.rs` asserts the
//! directions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod figures;
pub mod plan;
pub mod report;
pub mod scale;
pub mod scenario_run;
pub mod telemetry;

pub use artifacts::{Artifact, Envelope, ARTIFACTS};
pub use plan::{Group, Plan};
pub use report::{Report, Row};
pub use scale::Scale;
pub use scenario_run::{scenario_json, scenario_plan};
pub use telemetry::TelemetrySummary;

#[cfg(test)]
/// Test support: `plan` alone through [`artifacts::run_batch`] on `jobs`
/// threads, the path `repro` takes; its report.
pub(crate) fn report_alone(plan: &Plan, jobs: usize) -> Report {
    let items = [(String::new(), plan.clone())];
    let mut exec = irn_harness::ThreadExecutor::new(jobs);
    let mut batch = artifacts::run_batch(&items, &mut exec, None).expect("in-process executor");
    batch.items.remove(0).report
}
