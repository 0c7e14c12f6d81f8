//! The executor seam: one trait every batch runs through, with the
//! in-process thread pool as its reference implementation.
//!
//! [`Executor`] is the pluggable backend API: give it cells, get one
//! [`CellOutcome`] per cell **in submission order**. Everything above
//! this seam (plans, the seed fan-out, the global cross-artifact batch) is
//! backend-agnostic — the same code runs on the in-process
//! [`ThreadExecutor`] or on a multi-process [`crate::WorkerPool`], and
//! because every cell is a pure function of its scenario, the rendered
//! output is byte-identical across backends and parallelism levels.
//!
//! A caller builds one executor and runs its batches on it through
//! `&mut dyn Executor`: there is no shared handle, so a backend keeps
//! what it observes about a batch in plain fields. The channel/ordering
//! plumbing lives in exactly one place — `ThreadExecutor::run_indexed`
//! — and `jobs = 1` bypasses the pool entirely and runs inline, so
//! serial output is the definitional baseline every backend must match.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use irn_core::{ExperimentConfig, RunError, RunResult, Scenario, Simulation};
use irn_telemetry::{TraceChunk, TraceFilter, TraceSpec};

use crate::error::HarnessError;

/// One executed cell: its result plus the wall-clock time it took on
/// whatever worker ran it.
///
/// The result is deterministic (a pure function of the cell's
/// scenario); the duration is instrumentation — wall clock, never in
/// result bytes — and must never feed back into deterministic output. The
/// trace chunk, when requested, is deterministic too: every line is
/// stamped with the cell's submission index and virtual time only, so
/// chunks concatenate into byte-identical files at any parallelism.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The simulation's result.
    pub result: RunResult,
    /// Wall-clock execution time on the worker that ran the cell
    /// (includes time-sharing wait when workers oversubscribe cores,
    /// and excludes queueing/transfer time in distributed backends).
    pub wall: std::time::Duration,
    /// The cell's trace-v1 chunk, when the batch ran with tracing.
    pub trace: Option<TraceChunk>,
}

/// The flight-recorder filter and capacity `trace` asks for, parsed
/// before any runtime is spent on a cell.
pub(crate) fn parse_trace(
    trace: Option<&TraceSpec>,
) -> Result<Option<(TraceFilter, usize)>, HarnessError> {
    let parse = |t: &TraceSpec| TraceFilter::parse(&t.filter).map(|f| (f, t.capacity));
    let filter = trace.map(parse).transpose();
    filter.map_err(|detail| HarnessError::BadTraceFilter { detail })
}

/// Run one cell where the caller stands — a pool thread or a worker
/// process: start the clock, run — capturing the flight recorder when
/// asked to, every line stamped with `id`, the cell's submission index
/// in its batch — and build the outcome, or return why the run could
/// not finish.
pub(crate) fn run_cell(
    id: u64,
    cfg: ExperimentConfig,
    trace: Option<(TraceFilter, usize)>,
) -> Result<CellOutcome, RunError> {
    let start = std::time::Instant::now();
    let run = || Simulation::new(cfg).try_run();
    let (result, trace) = match trace {
        None => (run(), None),
        Some((filter, capacity)) => {
            let (result, chunk) = irn_telemetry::capture(id, filter, capacity, run);
            (result, Some(chunk))
        }
    };
    Ok(CellOutcome {
        result: result?,
        wall: start.elapsed(),
        trace,
    })
}

/// A batch executor backend.
///
/// The contract every implementation must honor:
///
/// 1. **Submission order.** `run_cells(cells)` returns exactly
///    `cells.len()` outcomes with `outcomes[i]` belonging to
///    `cells[i]`, regardless of completion order.
/// 2. **Purity.** Each cell's result depends only on its scenario, so
///    *where* and *when* a cell runs — and whether it was reassigned —
///    cannot change any result byte.
/// 3. **Fail loudly.** A backend that cannot produce every outcome
///    (a cell's run failed, every worker lost) returns a typed
///    [`HarnessError`] instead of a partial vector. A failed run is
///    reported once, for the lowest failing index the backend saw; it
///    is never retried, since by 2. a rerun fails the same way.
pub trait Executor {
    /// Run every cell; outcomes in submission order. When `trace` is
    /// `Some`, each outcome carries the cell's flight-recorder chunk
    /// (lines stamped with the cell's submission index), filtered and
    /// bounded per the spec. Tracing must never change result bytes.
    /// Each outcome also carries the wall-clock time the cell took on
    /// its worker: observed, never fed back. With more jobs than cores
    /// the workers time-share, so a cell's duration includes preemption
    /// wait — compare throughput across runs at equal concurrency.
    fn run_cells(
        &mut self,
        cells: &[Scenario],
        trace: Option<&TraceSpec>,
    ) -> Result<Vec<CellOutcome>, HarnessError>;

    /// How many cells this backend works on concurrently (worker
    /// threads in-process, worker processes distributed). Reported in
    /// timing output; never affects result bytes.
    fn concurrency(&self) -> usize;
}

/// The in-process reference executor: a self-scheduling worker pool
/// over `std::thread` + channels.
///
/// Workers pull the next unclaimed index from a shared atomic cursor
/// (work-stealing degenerates to this when every task lives in one
/// shared queue), ship `(index, value)` pairs back over an mpsc
/// channel, and the collector reassembles them in submission order.
#[derive(Debug, Clone, Copy)]
pub struct ThreadExecutor {
    jobs: usize,
}

impl ThreadExecutor {
    /// An executor with `jobs` worker threads (0 is clamped to 1; the
    /// CLI rejects `--jobs 0` at parse time, so the clamp only guards
    /// library callers).
    pub fn new(jobs: usize) -> ThreadExecutor {
        ThreadExecutor { jobs: jobs.max(1) }
    }

    /// The underlying primitive: evaluate `f(0..n)` across the pool and
    /// return the outputs in index order. `f` must be a pure function
    /// of its index for the order guarantee to be meaningful.
    ///
    /// This is the **only** copy of the channel/ordering plumbing; the
    /// trait method is a thin wrapper over it.
    fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }

        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // The collector outlives the workers; a send can
                    // only fail if it panicked, in which case the scope
                    // is already unwinding.
                    if tx.send((i, f(i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, v) in rx {
                debug_assert!(slots[i].is_none(), "index {i} delivered twice");
                slots[i] = Some(v);
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("cell {i} produced no result")))
            .collect()
    }
}

impl Executor for ThreadExecutor {
    /// Run every cell on the thread pool, then report the lowest
    /// failing index: every cell ran, so the error (and its completed
    /// count) is the same at any `jobs`.
    fn run_cells(
        &mut self,
        cells: &[Scenario],
        trace: Option<&TraceSpec>,
    ) -> Result<Vec<CellOutcome>, HarnessError> {
        let trace = parse_trace(trace)?;
        let outcomes = self.run_indexed(cells.len(), |i| {
            run_cell(i as u64, cells[i].config().clone(), trace.clone())
        });
        let completed = outcomes.iter().filter(|o| o.is_ok()).count();
        (outcomes.into_iter().enumerate())
            .map(|(index, outcome)| {
                outcome.map_err(|e| HarnessError::CellFailed {
                    index,
                    label: cells[index].name().to_string(),
                    attempts: 1,
                    detail: e.to_string(),
                    completed,
                    total: cells.len(),
                })
            })
            .collect()
    }

    fn concurrency(&self) -> usize {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Skewed work so completion order differs from submission order.
        let out = ThreadExecutor::new(4).run_indexed(64, |i| {
            let spins = if i % 7 == 0 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        assert_eq!(
            ThreadExecutor::new(1).run_indexed(33, f),
            ThreadExecutor::new(8).run_indexed(33, f)
        );
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(ThreadExecutor::new(0).concurrency(), 1);
        assert_eq!(ThreadExecutor::new(0).run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<usize> = ThreadExecutor::new(4).run_indexed(0, |i| i);
        assert!(out.is_empty());
        assert!(ThreadExecutor::new(4)
            .run_cells(&[], None)
            .unwrap()
            .is_empty());
    }
}
