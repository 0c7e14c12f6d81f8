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
//! [`Harness`] is the handle the rest of the workspace holds: a cheap
//! clonable wrapper over an `Arc<dyn Executor>` with one fallible,
//! optionally-traced entry, [`Harness::try_run`]. The channel/ordering
//! plumbing lives in exactly one place — [`ThreadExecutor::run_indexed`]
//! — and `jobs = 1` bypasses the pool entirely and runs inline, so
//! serial output is the definitional baseline every backend must match.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use irn_core::{ExperimentConfig, RunResult, Scenario};
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

/// Run one cell where the caller stands — a pool thread or a worker
/// process: parse the trace filter (before any runtime is spent on the
/// cell), start the clock, run — capturing the flight recorder when
/// asked to, every line stamped with `id`, the cell's submission index
/// in its batch — and build the outcome. The error is the filter
/// parser's detail.
pub(crate) fn run_cell(
    id: u64,
    cfg: ExperimentConfig,
    trace: Option<&TraceSpec>,
) -> Result<CellOutcome, String> {
    let filter = trace
        .map(|t| TraceFilter::parse(&t.filter).map(|f| (f, t.capacity)))
        .transpose()?;
    let start = std::time::Instant::now();
    let (result, trace) = match filter {
        None => (irn_core::run(cfg), None),
        Some((filter, capacity)) => {
            let (result, chunk) =
                irn_telemetry::capture(id, filter, capacity, || irn_core::run(cfg));
            (result, Some(chunk))
        }
    };
    Ok(CellOutcome {
        result,
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
///    *where* and *when* a cell runs — and whether it was retried —
///    cannot change any result byte.
/// 3. **Fail loudly.** A backend that cannot produce every outcome
///    (worker fleet degraded, cell permanently failing) returns a
///    typed [`HarnessError`] instead of a partial vector.
pub trait Executor: Send + Sync {
    /// Run every cell; outcomes in submission order. When `trace` is
    /// `Some`, each outcome carries the cell's flight-recorder chunk
    /// (lines stamped with the cell's submission index), filtered and
    /// bounded per the spec. Tracing must never change result bytes.
    fn run_cells(
        &self,
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
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
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
    /// Run every cell on the thread pool. The only failure mode is a
    /// malformed trace filter — the in-process backend has no workers
    /// to lose.
    fn run_cells(
        &self,
        cells: &[Scenario],
        trace: Option<&TraceSpec>,
    ) -> Result<Vec<CellOutcome>, HarnessError> {
        self.run_indexed(cells.len(), |i| {
            run_cell(i as u64, cells[i].config().clone(), trace)
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|detail| HarnessError::BadTraceFilter { detail })
    }

    fn concurrency(&self) -> usize {
        self.jobs
    }
}

/// The executor handle the workspace passes around: a cheap clonable
/// wrapper over a shared [`Executor`] backend.
///
/// `Harness::new(jobs)` keeps its historical meaning (an in-process
/// [`ThreadExecutor`]); [`Harness::with_executor`] plugs in any other
/// backend — notably the [`crate::WorkerPool`] coordinator — without
/// changing a line above the seam.
#[derive(Clone)]
pub struct Harness {
    exec: Arc<dyn Executor>,
}

impl Harness {
    /// An in-process executor with `jobs` worker threads (0 is clamped
    /// to 1).
    pub fn new(jobs: usize) -> Harness {
        Harness::with_executor(Arc::new(ThreadExecutor::new(jobs)))
    }

    /// A serial in-process executor (`jobs = 1`).
    pub fn serial() -> Harness {
        Harness::new(1)
    }

    /// One in-process worker per available core.
    pub fn auto() -> Harness {
        Harness::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// A harness over an arbitrary executor backend.
    pub fn with_executor(exec: Arc<dyn Executor>) -> Harness {
        Harness { exec }
    }

    /// The backend's concurrency (thread count in-process, worker count
    /// distributed). Kept under the historical name — it is what the
    /// CLI reports as `jobs=` and records in timing JSON.
    pub fn jobs(&self) -> usize {
        self.exec.concurrency()
    }

    /// Run every cell and return results in submission order:
    /// `results[i]` belongs to `cells[i]`, at any parallelism.
    /// Panics if the backend fails (the in-process one never does); use
    /// [`Harness::try_run`] where a distributed backend can degrade.
    pub fn run(&self, cells: &[Scenario]) -> Vec<RunResult> {
        let outcomes = self.try_run(cells, None);
        let outcomes = outcomes.unwrap_or_else(|e| panic!("executor failed: {e}"));
        outcomes.into_iter().map(|o| o.result).collect()
    }

    /// The one fallible entry: every outcome (result, wall-clock time on
    /// its worker, and — when `trace` is `Some` — its trace-v1 chunk) in
    /// submission order, or the backend's typed error (worker fleet
    /// degraded, cell permanently failing). Results are bit-identical
    /// with and without tracing, at any parallelism; timing is observed,
    /// never fed back. With more jobs than cores the workers time-share,
    /// so a cell's duration includes preemption wait — consumers
    /// comparing throughput across runs should hold `jobs` constant.
    pub fn try_run(
        &self,
        cells: &[Scenario],
        trace: Option<&TraceSpec>,
    ) -> Result<Vec<CellOutcome>, HarnessError> {
        self.exec.run_cells(cells, trace)
    }
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("concurrency", &self.jobs())
            .finish_non_exhaustive()
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
        assert_eq!(Harness::new(0).jobs(), 1);
        assert_eq!(ThreadExecutor::new(0).run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<usize> = ThreadExecutor::new(4).run_indexed(0, |i| i);
        assert!(out.is_empty());
        assert!(Harness::new(4).run(&[]).is_empty());
    }

    /// A custom backend plugs in through the trait seam: `Harness::run`
    /// observes its outcomes (here: a stub that fails), proving the
    /// forwarding shims really delegate.
    #[test]
    fn custom_executor_errors_surface_through_try_run() {
        struct Failing;
        impl Executor for Failing {
            fn run_cells(
                &self,
                _: &[Scenario],
                _: Option<&TraceSpec>,
            ) -> Result<Vec<CellOutcome>, HarnessError> {
                Err(HarnessError::QuorumLost {
                    live: 0,
                    quorum: 1,
                    completed: 0,
                    total: 0,
                })
            }
            fn concurrency(&self) -> usize {
                3
            }
        }
        let h = Harness::with_executor(Arc::new(Failing));
        assert_eq!(h.jobs(), 3);
        let err = h.try_run(&[], None).unwrap_err();
        assert!(matches!(err, HarnessError::QuorumLost { .. }));
    }
}
