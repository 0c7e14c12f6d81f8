//! # irn-harness — parallel batch execution of simulation cells
//!
//! The paper's evaluation (§4) is a large matrix of *independent*
//! simulation cells — transports × {PFC on/off} × CC schemes ×
//! workloads, with incast numbers averaged over many repetitions. The
//! engine is a pure function of its [`irn_core::ExperimentConfig`],
//! which makes that matrix embarrassingly parallel. This crate owns the
//! execution layer that exploits it. A cell is an
//! [`irn_core::Scenario`] — a named, validated, JSON-round-trippable
//! config: its name is the display label, and because the scenario
//! fully determines the simulation it is also the serializable work
//! unit a remote worker runs to bit-identical results. Which cells a
//! figure needs, and how their results fold into rows, is
//! `irn-experiments`' business (`Plan`).
//!
//! - [`Executor`] — the pluggable backend seam: run a batch of cells,
//!   return one outcome per cell **in submission order**. Two backends
//!   ship: the in-process [`ThreadExecutor`] (`std::thread` + channels,
//!   no external deps) and the multi-process [`WorkerPool`] coordinator,
//!   which shards a batch across spawned or remote `work-v1` workers
//!   with per-cell timeouts and bounded reassignment of lost cells. A
//!   run that cannot finish fails the batch once, in the same words on
//!   every backend. Because cells are pure functions of their
//!   scenarios, downstream reports render byte-identically at any job
//!   count on any backend.
//! - [`Harness`] — the cheap clonable handle over an executor that the
//!   rest of the workspace passes around.
//! - [`Stats`] — mean / std-dev / 95% CI over replicate samples,
//!   independent of sample order.
//!
//! ```
//! use irn_core::{ExperimentConfig, Scenario};
//! use irn_harness::Harness;
//!
//! let base = ExperimentConfig::quick(60);
//! let cells = vec![
//!     Scenario::from_config("irn", base.clone().with_pfc(false)).unwrap(),
//!     Scenario::from_config("irn+pfc", base.with_pfc(true)).unwrap(),
//! ];
//! let outcomes = Harness::new(2).try_run(&cells, None).unwrap();
//! assert_eq!(outcomes.len(), 2); // outcomes[i] belongs to cells[i]
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod exec;
pub mod pool;
pub mod stats;
pub mod wire;
pub mod worker;

pub use error::HarnessError;
pub use exec::{CellOutcome, Executor, Harness, ThreadExecutor};
pub use pool::{PoolConfig, WorkerPool, WorkerSpec, WorkerStats};
pub use stats::Stats;
pub use worker::{ServeSummary, WorkerOptions};
