//! Multi-seed replication: fan one cell out over N seeds, aggregate.
//!
//! The paper averages incast results over up to 100 repetitions; this
//! layer makes that a first-class operation. Seeds are canonicalized
//! (sorted, deduplicated) at construction, so the per-seed runs — and
//! every aggregate computed from them — are **independent of the order
//! the seeds were supplied or the runs completed in**.

use irn_core::RunResult;

use crate::cell::Cell;
use crate::exec::Harness;
use crate::stats::Stats;

/// One cell fanned out over a set of seeds.
#[derive(Debug, Clone)]
pub struct Replicate {
    cell: Cell,
    seeds: Vec<u64>,
}

impl Replicate {
    /// Replicate `cell` over `seeds` (sorted and deduplicated; the
    /// cell's own seed is ignored in favor of the explicit set).
    pub fn new(cell: Cell, seeds: impl IntoIterator<Item = u64>) -> Replicate {
        let mut seeds: Vec<u64> = seeds.into_iter().collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert!(!seeds.is_empty(), "replicate needs at least one seed");
        Replicate { cell, seeds }
    }

    /// Replicate over `n` strided seeds: `base_seed + i·stride`.
    pub fn strided(cell: Cell, base_seed: u64, n: usize, stride: u64) -> Replicate {
        Replicate::new(cell, (0..n as u64).map(|i| base_seed + i * stride))
    }

    /// The canonical (sorted) seed set.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The per-seed cells, in canonical seed order. Use this to merge
    /// several replicates into one flat harness batch (maximum
    /// parallelism), then rebuild results with
    /// [`Replicate::collect`].
    pub fn cells(&self) -> Vec<Cell> {
        self.seeds.iter().map(|&s| self.cell.with_seed(s)).collect()
    }

    /// Run the whole fan-out on `harness`.
    pub fn run(&self, harness: &Harness) -> ReplicateResult {
        self.collect(harness.run(&self.cells()))
    }

    /// Pair externally-run results (in [`Replicate::cells`] order) back
    /// with their seeds.
    pub fn collect(&self, runs: Vec<RunResult>) -> ReplicateResult {
        assert_eq!(runs.len(), self.seeds.len(), "one result per seed");
        ReplicateResult {
            label: self.cell.label().to_string(),
            runs: self.seeds.iter().copied().zip(runs).collect(),
        }
    }
}

/// The outcome of a replicated cell: per-seed runs in canonical seed
/// order, plus aggregate queries.
#[derive(Debug, Clone)]
pub struct ReplicateResult {
    /// The replicated cell's label.
    pub label: String,
    /// `(seed, result)` pairs, sorted by seed.
    pub runs: Vec<(u64, RunResult)>,
}

impl ReplicateResult {
    /// Aggregate `metric` over every run. Because runs are held in
    /// canonical seed order and [`Stats`] sorts its samples, the result
    /// does not depend on seed supply order or completion order.
    pub fn stats(&self, metric: impl Fn(&RunResult) -> f64) -> Stats {
        let values: Vec<f64> = self.runs.iter().map(|(_, r)| metric(r)).collect();
        Stats::from_values(&values)
    }
}

/// Many [`Replicate`]s flattened into **one** harness batch.
///
/// This is the demux layer behind multi-seed figures: every per-seed
/// cell of every replicate is submitted in one flat batch (maximum
/// parallelism — no per-replicate barrier), and the results are sliced
/// back into one [`ReplicateResult`] per replicate, in the order the
/// replicates were supplied. Because the executor returns results in
/// submission order, the demux — and everything rendered from it — is
/// independent of the job count.
#[derive(Debug, Clone)]
pub struct ReplicateSet {
    reps: Vec<Replicate>,
}

impl ReplicateSet {
    /// Bundle `reps` into one schedulable set.
    pub fn new(reps: Vec<Replicate>) -> ReplicateSet {
        ReplicateSet { reps }
    }

    /// The replicates, in supply order.
    pub fn replicates(&self) -> &[Replicate] {
        &self.reps
    }

    /// Total cell count across every replicate.
    pub fn cell_count(&self) -> usize {
        self.reps.iter().map(|r| r.seeds.len()).sum()
    }

    /// Every per-seed cell of every replicate, concatenated in
    /// replicate-supply order (each replicate's cells in canonical seed
    /// order). Submit this to a [`Harness`] — or splice it into a
    /// larger cross-artifact batch — then demux with
    /// [`ReplicateSet::collect`].
    pub fn cells(&self) -> Vec<Cell> {
        self.reps.iter().flat_map(|r| r.cells()).collect()
    }

    /// Slice a flat result vector (in [`ReplicateSet::cells`] order)
    /// back into one [`ReplicateResult`] per replicate.
    pub fn collect(&self, runs: Vec<RunResult>) -> Vec<ReplicateResult> {
        assert_eq!(runs.len(), self.cell_count(), "one result per cell");
        let mut it = runs.into_iter();
        self.reps
            .iter()
            .map(|r| r.collect(it.by_ref().take(r.seeds.len()).collect()))
            .collect()
    }

    /// Run the whole set on `harness` as one flat batch.
    pub fn run(&self, harness: &Harness) -> Vec<ReplicateResult> {
        self.collect(harness.run(&self.cells()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_core::ExperimentConfig;

    fn cell() -> Cell {
        Cell::new("incast", ExperimentConfig::quick(40))
    }

    #[test]
    fn seeds_are_canonicalized() {
        let r = Replicate::new(cell(), [9, 3, 3, 7]);
        assert_eq!(r.seeds(), &[3, 7, 9]);
        let cells = r.cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].config().seed, 3);
        assert_eq!(cells[2].config().seed, 9);
    }

    #[test]
    fn strided_seeds() {
        let r = Replicate::strided(cell(), 100, 3, 101);
        assert_eq!(r.seeds(), &[100, 201, 302]);
    }

    #[test]
    fn replicate_set_demuxes_by_replicate() {
        let set = ReplicateSet::new(vec![
            Replicate::new(cell(), [1, 2]),
            Replicate::new(cell(), [10, 20, 30]),
        ]);
        assert_eq!(set.cell_count(), 5);
        let cells = set.cells();
        assert_eq!(cells.len(), 5);
        assert_eq!(cells[1].config().seed, 2);
        assert_eq!(cells[4].config().seed, 30);
        // Demuxing a flat batch must agree with running each replicate
        // on its own.
        let h = Harness::new(2);
        let merged = set.run(&h);
        assert_eq!(merged.len(), 2);
        let solo = set.replicates()[1].run(&h);
        assert_eq!(merged[1].runs.len(), 3);
        for ((sa, a), (sb, b)) in merged[1].runs.iter().zip(&solo.runs) {
            assert_eq!(sa, sb);
            assert_eq!(a.events, b.events);
            assert_eq!(a.finished_at, b.finished_at);
        }
    }

    #[test]
    fn aggregation_ignores_seed_supply_order() {
        // Tiny real runs: the same seed set supplied in opposite orders
        // must aggregate to bit-identical statistics.
        let h = Harness::new(2);
        let a = Replicate::new(cell(), [11, 5, 8]).run(&h);
        let b = Replicate::new(cell(), [8, 11, 5]).run(&h);
        let (sa, sb) = (
            a.stats(|r| r.summary.avg_slowdown),
            b.stats(|r| r.summary.avg_slowdown),
        );
        assert_eq!(sa.mean.to_bits(), sb.mean.to_bits());
        assert_eq!(sa.ci95.to_bits(), sb.ci95.to_bits());
        let seeds: Vec<u64> = a.runs.iter().map(|(s, _)| *s).collect();
        assert_eq!(seeds, [5, 8, 11]);
    }
}
