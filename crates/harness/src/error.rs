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
    /// One cell cannot produce an outcome, so the batch cannot be
    /// assembled: its run failed (a [`irn_core::RunError`], or a
    /// worker's answer to a frame it refused), or workers were lost on
    /// every attempt the pool allows it.
    CellFailed {
        /// Submission index of the cell in the batch.
        index: usize,
        /// The cell's display label.
        label: String,
        /// Attempts made. An answer is final, so a failed run ends on
        /// its first answered attempt (1 unless workers were lost).
        attempts: usize,
        /// The failure: the answer's text (for a failed run, the
        /// `RunError`'s), or the lost attempts with the last cause.
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
    /// Every worker was lost while work remained, so the batch was
    /// abandoned.
    FleetLost {
        /// Cells that completed before the last worker was lost.
        completed: usize,
        /// Total cells in the batch.
        total: usize,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::CellFailed {
                index,
                label,
                detail,
                completed,
                total,
                ..
            } => write!(
                f,
                "cell #{index} '{label}' failed: {detail} [{completed}/{total} cells completed]"
            ),
            HarnessError::BadTraceFilter { detail } => {
                write!(f, "bad trace filter: {detail}")
            }
            HarnessError::ProgressUnavailable { path, detail } => {
                write!(f, "cannot write progress JSON to {path}: {detail}")
            }
            HarnessError::FleetLost { completed, total } => write!(
                f,
                "every worker was lost with work remaining [{completed}/{total} cells completed]"
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
            | HarnessError::FleetLost { completed, total } => Some((*completed, *total)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_failure_site() {
        let e = HarnessError::ProgressUnavailable {
            path: "out/progress.ndjson".into(),
            detail: "no such file".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("out/progress.ndjson") && msg.contains("no such file"),
            "{msg}"
        );
        assert_eq!(e.partial_progress(), None);

        let e = HarnessError::FleetLost {
            completed: 7,
            total: 36,
        };
        assert!(e.to_string().contains("7/36"), "{e}");
        assert_eq!(e.partial_progress(), Some((7, 36)));
    }
}
