//! # irn-harness — parallel, sweep-oriented experiment orchestration
//!
//! The paper's evaluation (§4) is a large matrix of *independent*
//! simulation cells — transports × {PFC on/off} × CC schemes ×
//! workloads, with incast numbers averaged over many repetitions. The
//! engine is a pure function of its [`irn_core::ExperimentConfig`],
//! which makes that matrix embarrassingly parallel. This crate owns the
//! orchestration layer that exploits it:
//!
//! - [`Cell`] — one labeled experiment configuration (one bar of a
//!   figure, one line of a table).
//! - [`SweepGrid`] — a builder for cartesian parameter sweeps
//!   (transport/PFC variants × CC schemes) that expands into an ordered
//!   batch of cells.
//! - [`Executor`] — the pluggable backend seam: run a batch of cells,
//!   return one outcome per cell **in submission order**. Two backends
//!   ship: the in-process [`ThreadExecutor`] (`std::thread` + channels,
//!   no external deps) and the multi-process [`WorkerPool`] coordinator,
//!   which shards a batch across spawned or remote `work-v1` workers
//!   with per-cell timeouts, bounded retry/reassignment, and quorum
//!   tracking. Because cells are pure functions of their scenarios,
//!   downstream reports render byte-identically at any job count on
//!   any backend.
//! - [`Harness`] — the cheap clonable handle over an executor that the
//!   rest of the workspace passes around.
//! - [`Replicate`] — fans one cell out over N seeds and aggregates
//!   mean / std-dev / 95% CI, independent of seed order.
//! - [`ReplicateSet`] — flattens many replicates into **one** batch
//!   (no per-replicate barrier) and demuxes the flat result vector back
//!   per replicate; the building block for multi-seed figures and for
//!   splicing several artifacts' cells into one global batch.
//!
//! ```
//! use irn_core::ExperimentConfig;
//! use irn_harness::{Cell, Harness};
//!
//! let base = ExperimentConfig::quick(60);
//! let cells = vec![
//!     Cell::new("irn", base.clone().with_pfc(false)),
//!     Cell::new("irn+pfc", base.with_pfc(true)),
//! ];
//! let results = Harness::new(2).run(&cells);
//! assert_eq!(results.len(), 2); // results[i] belongs to cells[i]
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cell;
pub mod error;
pub mod exec;
pub mod pool;
pub mod replicate;
pub mod stats;
pub mod sweep;
pub mod wire;
pub mod worker;

pub use cell::Cell;
pub use error::HarnessError;
pub use exec::{CellOutcome, Executor, Harness, ThreadExecutor};
pub use pool::{PoolConfig, WorkerPool, WorkerSpec, WorkerStats};
pub use replicate::{Replicate, ReplicateResult, ReplicateSet};
pub use stats::Stats;
pub use sweep::{SweepGrid, Variant};
pub use worker::{ServeSummary, WorkerOptions};
