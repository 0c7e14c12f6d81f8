//! A figure as plain data: the *logical* cells it compares, grouped by
//! the report rows they produce, plus a replicate count.
//!
//! [`Plan`] is the only place that knows how a figure becomes a batch.
//! From its groups and `reps` it derives the seed fan-out, the flat
//! submission-ordered batch, the demux of the results, the report, and
//! the facts the registry reports about an artifact (cell count, seed
//! count, determinism class, workload class) — nothing is stored twice,
//! so nothing has to be kept in step.
//!
//! That is also what enables cross-artifact scheduling: `repro all`
//! concatenates the batches of every requested plan into **one**
//! submission-ordered batch, runs it on the executor once, and hands
//! each plan back its own slice of the results. Because the executor
//! returns results in submission order and every fold is a pure
//! function of its slice, the rendered output is byte-identical to
//! running the artifacts sequentially — at any `--jobs` value — while
//! the worker pool never drains between artifacts.

use irn_core::{RunResult, Scenario};

use crate::report::{Report, Row};

/// Seed stride between replicates of one cell. Strided (rather than
/// consecutive) seeds keep replicate seed sets disjoint from the small
/// integers used as explicit seeds elsewhere.
pub const SEED_STRIDE: u64 = 101;

/// Folds one group's results into its report rows. `runs[c][i]` is the
/// result of the group's cell `c` at replicate `i`, so ratio rows pair
/// two cells seed by seed. A function pointer rather than a closure:
/// a fold may depend on nothing but its arguments, which is what keeps
/// a plan comparable, printable data and every report a pure function
/// of the results.
pub type Fold = fn(&str, &[&[RunResult]]) -> Vec<Row>;

/// The cells behind one or more report rows, and the fold that turns
/// their results into those rows.
#[derive(Debug, Clone)]
pub struct Group {
    /// Handed to the fold; the row label, or the stem its labels share.
    pub label: String,
    /// The logical cells (one per compared configuration, before the
    /// seed fan-out). A cell is a [`Scenario`]: validated, named, and
    /// serializable, so the same value is submitted to an executor,
    /// shipped to a worker and written out by `repro emit-scenario`.
    pub cells: Vec<Scenario>,
    /// Results → rows.
    pub fold: Fold,
}

impl Group {
    /// The common shape: one cell producing the rows labelled by its
    /// own name.
    pub fn of(cell: Scenario, fold: Fold) -> Group {
        Group {
            label: cell.name().to_string(),
            cells: vec![cell],
            fold,
        }
    }
}

/// One artifact (or one user scenario), ready to schedule.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The report header (id, title, paper expectation; no rows yet).
    pub report: Report,
    /// The logical cells, grouped by the rows they produce.
    pub groups: Vec<Group>,
    /// Seed replicates per logical cell (at least 1).
    pub reps: usize,
}

impl Plan {
    /// The logical cells, in group order.
    pub fn logical_cells(&self) -> impl Iterator<Item = &Scenario> {
        self.groups.iter().flat_map(|g| &g.cells)
    }

    /// The batch to submit: every logical cell fanned out over `reps`
    /// seeds, ordered groups → cells → seeds. Replicate `i` of a cell
    /// runs at the cell's own seed plus `i·`[`SEED_STRIDE`]; the sum
    /// wraps, so a scenario whose seed sits near `u64::MAX` replicates
    /// like any other and its own seed is always the first replicate.
    pub fn cells(&self) -> Vec<Scenario> {
        self.logical_cells()
            .flat_map(|cell| {
                let own = cell.config().seed;
                (0..self.reps as u64)
                    .map(move |i| cell.with_seed(own.wrapping_add(i.wrapping_mul(SEED_STRIDE))))
            })
            .collect()
    }

    /// How many cells this plan contributes to a batch.
    pub fn cell_count(&self) -> usize {
        self.logical_cells().count() * self.reps
    }

    /// Does this plan simulate anything? (`state-budget` does not.)
    fn simulates(&self) -> bool {
        self.logical_cells().next().is_some()
    }

    /// Seed replicates behind each reported value: `reps`, or 1 when
    /// nothing is simulated.
    pub fn seeds(&self) -> usize {
        if self.simulates() {
            self.reps
        } else {
            1
        }
    }

    /// The determinism class (`--list`, the envelope's `determinism`):
    /// `"deterministic"` for a plan that simulates nothing — a pure
    /// function of the config, unaffected by `--seeds` — and
    /// `"replicated"` otherwise (rows report mean ± ci95 over the seed
    /// fan-out). Both are byte-reproducible run to run.
    pub fn determinism(&self) -> &'static str {
        if self.simulates() {
            "replicated"
        } else {
            "deterministic"
        }
    }

    /// The workload class `--list` prints: `"closed-loop"` when a cell
    /// spawns flows in reaction to completions (a slow fabric slows the
    /// offered load itself), `"open-loop"` when arrivals are fixed up
    /// front, `"deterministic"` when there is no flow workload at all.
    pub fn workload(&self) -> &'static str {
        let closed_loop = |c: &Scenario| c.config().traffic.is_closed_loop();
        if !self.simulates() {
            "deterministic"
        } else if self.logical_cells().any(closed_loop) {
            "closed-loop"
        } else {
            "open-loop"
        }
    }

    /// Fold externally-run results (one per cell, in [`Plan::cells`]
    /// order) into the report.
    pub fn assemble(&self, results: &[RunResult]) -> Report {
        assert_eq!(
            results.len(),
            self.cell_count(),
            "plan needs one result per cell"
        );
        let mut report = self.report.clone();
        let mut per_cell = results.chunks_exact(self.reps);
        for group in &self.groups {
            let runs: Vec<&[RunResult]> = per_cell.by_ref().take(group.cells.len()).collect();
            report.rows.extend((group.fold)(&group.label, &runs));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report_alone;
    use irn_core::ExperimentConfig;
    use irn_harness::{Executor, ThreadExecutor};

    fn cell(name: &str, seed: u64) -> Scenario {
        Scenario::from_config(name, ExperimentConfig::quick(30).with_seed(seed)).unwrap()
    }

    /// One row per cell of the group: its label and event count.
    fn events_rows(label: &str, runs: &[&[RunResult]]) -> Vec<Row> {
        runs.iter()
            .map(|seeds| {
                let events: u64 = seeds.iter().map(|r| r.events).sum();
                Row::new(label).push("events", events as f64)
            })
            .collect()
    }

    fn toy_plan(groups: Vec<Group>, reps: usize) -> Plan {
        Plan {
            report: Report::new("toy", "t", "p"),
            groups,
            reps,
        }
    }

    #[test]
    fn cells_fan_out_over_strided_seeds() {
        let plan = toy_plan(vec![Group::of(cell("incast", 100), events_rows)], 3);
        let seeds: Vec<u64> = plan.cells().iter().map(|c| c.config().seed).collect();
        assert_eq!(seeds, [100, 201, 302]);
        assert_eq!((plan.cell_count(), plan.seeds()), (3, 3));
    }

    /// Demuxing one flat batch must agree with running each group on
    /// its own.
    #[test]
    fn batched_groups_assemble_like_each_group_alone() {
        let first = Group {
            label: "pair".to_string(),
            cells: vec![cell("a", 1), cell("b", 10)],
            fold: events_rows,
        };
        let second = Group::of(cell("c", 20), events_rows);
        let both = toy_plan(vec![first.clone(), second.clone()], 2);
        assert_eq!(both.cell_count(), 6);
        let seeds: Vec<u64> = both.cells().iter().map(|c| c.config().seed).collect();
        assert_eq!(seeds, [1, 102, 10, 111, 20, 121]);
        let merged = report_alone(&both, 2);
        let mut solo = report_alone(&toy_plan(vec![first], 2), 2);
        solo.rows
            .extend(report_alone(&toy_plan(vec![second], 2), 2).rows);
        assert_eq!(merged, solo);
        assert_eq!(merged.rows.len(), 3);
    }

    #[test]
    fn facts_are_derived_from_the_cells() {
        let open = toy_plan(vec![Group::of(cell("a", 1), events_rows)], 4);
        assert_eq!(
            (open.determinism(), open.workload(), open.seeds()),
            ("replicated", "open-loop", 4)
        );
        let none = toy_plan(
            vec![Group {
                label: String::new(),
                cells: Vec::new(),
                fold: |_, _| vec![Row::new("constant").push("v", 1.0)],
            }],
            4,
        );
        assert_eq!(
            (none.determinism(), none.workload(), none.seeds()),
            ("deterministic", "deterministic", 1)
        );
        assert_eq!(report_alone(&none, 1).rows.len(), 1);
    }

    #[test]
    fn run_equals_manual_assemble() {
        let plan = toy_plan(
            (0..3)
                .map(|i| Group::of(cell(&format!("c{i}"), i), events_rows))
                .collect(),
            1,
        );
        let a = report_alone(&plan, 2);
        let outcomes = ThreadExecutor::new(2)
            .run_cells(&plan.cells(), None)
            .unwrap();
        let b = plan.assemble(&outcomes.into_iter().map(|o| o.result).collect::<Vec<_>>());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    #[should_panic(expected = "one result per cell")]
    fn assemble_rejects_wrong_arity() {
        let plan = toy_plan(vec![Group::of(cell("c", 0), events_rows)], 2);
        let _ = plan.assemble(&[]);
    }
}
