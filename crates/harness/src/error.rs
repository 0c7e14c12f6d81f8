//! The typed error surface of the orchestration layer.
//!
//! Everything a degraded worker fleet can do — and every request the
//! executor cannot honour — funnels into one [`HarnessError`] enum, so the CLI
//! can map every failure onto its documented exit(2) path with a
//! message that says what actually happened (which cell, which worker,
//! how much of the batch completed) instead of a panic backtrace.

/// An orchestration failure: a batch that could not be started as asked
/// or could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// A worker process could not be spawned or a worker address could
    /// not be connected to.
    WorkerUnavailable {
        /// The worker's display name (`spawn[i]`/`connect addr`).
        worker: String,
        /// The underlying I/O error text.
        detail: String,
    },
    /// One cell failed on every attempt it was allowed (worker deaths,
    /// timeouts, or worker-reported errors), so the batch cannot be
    /// assembled.
    CellFailed {
        /// Submission index of the cell in the batch.
        index: usize,
        /// The cell's display label.
        label: String,
        /// Attempts consumed (== the pool's `max_attempts`).
        attempts: usize,
        /// The last failure's description.
        detail: String,
        /// Cells that did complete before the batch was abandoned.
        completed: usize,
        /// Total cells in the batch.
        total: usize,
    },
    /// A trace filter expression could not be parsed (see
    /// `irn_telemetry::TraceFilter::parse` for the grammar).
    BadTraceFilter {
        /// What was wrong with the expression.
        detail: String,
    },
    /// The fleet progress JSON file could not be created.
    ProgressUnavailable {
        /// The requested path.
        path: String,
        /// The underlying I/O error text.
        detail: String,
    },
    /// Live workers dropped below the pool's quorum while work
    /// remained, so the batch was abandoned.
    QuorumLost {
        /// Workers still alive when the batch was abandoned.
        live: usize,
        /// The configured minimum.
        quorum: usize,
        /// Cells that completed before the fleet degraded.
        completed: usize,
        /// Total cells in the batch.
        total: usize,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::WorkerUnavailable { worker, detail } => {
                write!(f, "worker {worker} unavailable: {detail}")
            }
            HarnessError::CellFailed {
                index,
                label,
                attempts,
                detail,
                completed,
                total,
            } => write!(
                f,
                "cell #{index} '{label}' failed on all {attempts} attempt(s): {detail} \
                 [{completed}/{total} cells completed]"
            ),
            HarnessError::BadTraceFilter { detail } => {
                write!(f, "bad trace filter: {detail}")
            }
            HarnessError::ProgressUnavailable { path, detail } => {
                write!(f, "cannot write progress JSON to {path}: {detail}")
            }
            HarnessError::QuorumLost {
                live,
                quorum,
                completed,
                total,
            } => write!(
                f,
                "worker fleet degraded below quorum ({live} live < {quorum} required) \
                 with work remaining [{completed}/{total} cells completed]"
            ),
        }
    }
}

impl std::error::Error for HarnessError {}

impl HarnessError {
    /// `(completed, total)` cells of the abandoned batch, when this
    /// error describes one — the partial-results report the CLI prints
    /// before its exit(2).
    pub fn partial_progress(&self) -> Option<(usize, usize)> {
        match self {
            HarnessError::CellFailed {
                completed, total, ..
            }
            | HarnessError::QuorumLost {
                completed, total, ..
            } => Some((*completed, *total)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_failure_site() {
        let e = HarnessError::WorkerUnavailable {
            worker: "spawn#1".into(),
            detail: "no such file".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("spawn#1") && msg.contains("no such file"),
            "{msg}"
        );
        assert_eq!(e.partial_progress(), None);

        let e = HarnessError::QuorumLost {
            live: 0,
            quorum: 1,
            completed: 7,
            total: 36,
        };
        assert!(e.to_string().contains("7/36"), "{e}");
        assert_eq!(e.partial_progress(), Some((7, 36)));
    }
}
