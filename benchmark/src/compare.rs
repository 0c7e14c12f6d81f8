//! `irn-benchmark compare A.json B.json`: one row per workload and
//! end-to-end metric, never pooled — both medians, their ratio with its
//! base, the bound, and a verdict.
//!
//! Pass `j` of a run measures input set `j` of the seed, so two result
//! sets of one seed pair up pass by pass. The ratio a row reports is the
//! median of those per-pass ratios: what the inputs contribute cancels,
//! what is left is the machine's noise. The row's spread is the
//! run-to-run spread of that median, estimated from the ratios' own
//! interquartile distance (see [`median_spread`]).

use crate::results::{ResultSet, WorkloadResult};
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than the spread of the median ratio.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The two agree within the bound.
    Within,
    /// The median ratio's spread is wider than the bound, or a run was
    /// marked noisy: the row cannot show a regression or its absence.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of the median of `ratios`, as a share of it. The
/// median of `n` samples scatters about `1.25 / sqrt(n)` as widely as
/// the samples themselves do; the same factor carries their
/// interquartile distance over to the median's.
pub fn median_spread(ratios: &[f64]) -> f64 {
    spread(ratios) * 1.25 / (ratios.len() as f64).sqrt()
}

/// Judge B against baseline A from the per-pass ratios `b / a`.
pub fn verdict(ratios: &[f64], better: Better, bound: f64, noisy: bool) -> Verdict {
    let width = median_spread(ratios);
    if noisy || width > bound {
        return Verdict::Unresolved;
    }
    // Positive = B is worse, as a share of A.
    let worse_by = match better {
        Better::Lower => median(ratios) - 1.0,
        Better::Higher => 1.0 - median(ratios),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > width {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// Median of the per-pass ratios `b / a`; its base is A.
    pub ratio: f64,
    /// Run-to-run spread of `ratio` ([`median_spread`]).
    pub ratio_spread: f64,
    pub pairs: usize,
    pub bound: f64,
    pub verdict: Verdict,
}

fn samples<'a>(w: &'a WorkloadResult, metric: &str) -> Option<&'a [f64]> {
    w.end_to_end
        .iter()
        .find(|(n, _)| n == metric)
        .map(|(_, values)| values.as_slice())
}

/// Compare two result sets of the same seed. The notes list every
/// workload whose `sim_digest`s, failed cells or exact counts differ: a
/// change that only makes the simulator faster moves none of them.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<(Vec<Row>, Vec<String>), String> {
    if a.seed != b.seed {
        return Err(format!(
            "result sets use different seeds ({} and {}): their inputs differ, so their times do not compare",
            a.seed, b.seed
        ));
    }
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            notes.push(format!("{}: missing from the second set", wa.name));
            continue;
        };
        if wa.digests != wb.digests {
            notes.push(format!(
                "{}: sim_digest differs ({:?} vs {:?})",
                wa.name, wa.digests, wb.digests
            ));
        }
        if wa.failed + wb.failed > 0 {
            notes.push(format!(
                "{}: failed cells ({} and {})",
                wa.name, wa.failed, wb.failed
            ));
        }
        for (name, va) in &wa.per_layer {
            let exact = PER_LAYER
                .iter()
                .any(|m| m.name == name && m.unit == "count");
            let vb = wb.per_layer.iter().find(|(n, _)| n == name).map(|(_, v)| v);
            if exact && vb != Some(va) {
                notes.push(format!("{}: {name} differs ({va} vs {vb:?})", wa.name));
            }
        }
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (samples(wa, m.name), samples(wb, m.name)) else {
                notes.push(format!("{}: {} missing from a set", wa.name, m.name));
                continue;
            };
            let ratios: Vec<f64> = sa.iter().zip(sb).map(|(a, b)| b / a).collect();
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            rows.push(Row {
                workload: wa.name.clone(),
                metric: m.name,
                unit: m.unit,
                a: median(sa),
                b: median(sb),
                ratio: median(&ratios),
                ratio_spread: median_spread(&ratios),
                pairs: ratios.len(),
                bound,
                verdict: verdict(&ratios, m.better, bound, wa.noisy || wb.noisy),
            });
        }
    }
    Ok((rows, notes))
}

/// The table `compare` prints.
pub fn render(rows: &[Row], notes: &[String]) -> String {
    let mut out = format!(
        "{:<18} {:<15} {:>12} {:>12} {:<7} {:>13} {:>7} {:>5} {:>6}  {}\n",
        "workload",
        "metric",
        "A median",
        "B median",
        "unit",
        "B/A (base A)",
        "spread",
        "pairs",
        "bound",
        "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<15} {:>12.5} {:>12.5} {:<7} {:>13.4} {:>6.1}% {:>5} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            r.ratio,
            r.ratio_spread * 100.0,
            r.pairs,
            r.bound * 100.0,
            r.verdict.label()
        ));
    }
    for n in notes {
        out.push_str(&format!("note: {n}\n"));
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} rows: {} better, {} within bound, {} worse, {} unresolved\n",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::tests::row;

    #[test]
    fn verdicts_on_synthetic_ratios() {
        let lower = Better::Lower;
        // The same speed, give or take a percent: within the bound.
        let same = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(verdict(&same, lower, 0.05, false), Verdict::Within);
        // 3% slower with a 5% bound: still within.
        let slower3 = [1.03, 1.04, 1.02, 1.03];
        assert_eq!(verdict(&slower3, lower, 0.05, false), Verdict::Within);
        // 8% slower: worse.
        let slower8 = [1.08, 1.09, 1.07, 1.08];
        assert_eq!(verdict(&slower8, lower, 0.05, false), Verdict::Worse);
        // 4% faster, the median good to about 1%: better.
        let faster = [0.96, 0.97, 0.95, 0.96];
        assert_eq!(verdict(&faster, lower, 0.05, false), Verdict::Better);
        // Half a percent faster, inside the median's own spread: within.
        let hair = [0.995, 1.005, 0.985, 0.995];
        assert_eq!(verdict(&hair, lower, 0.05, false), Verdict::Within);
        // A median good to 20% against a 5% bound: unresolved.
        let wild = [0.8, 1.2, 0.9, 1.1];
        assert!((median_spread(&wild) - 0.35 * 1.25 / 2.0).abs() < 1e-12);
        assert_eq!(verdict(&wild, lower, 0.05, false), Verdict::Unresolved);
        // The same scatter over sixteen passes pins the median well
        // enough for a 25% bound.
        let many: Vec<f64> = wild.iter().cycle().take(16).copied().collect();
        assert_eq!(verdict(&many, lower, 0.25, false), Verdict::Within);
        // A noisy run resolves nothing, whatever the numbers.
        assert_eq!(verdict(&slower8, lower, 0.05, true), Verdict::Unresolved);
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&slower8, Better::Higher, 0.05, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(&faster, Better::Higher, 0.05, false),
            Verdict::Within
        );
    }

    fn set(seed: u64, rows: Vec<WorkloadResult>) -> ResultSet {
        ResultSet {
            seed,
            nproc: 2,
            cpu_model: "test".to_string(),
            workloads: rows,
        }
    }

    #[test]
    fn rows_are_per_workload_paired_by_pass_and_seeds_must_match() {
        // Passes differ fourfold in size; pass by pass B equals A.
        let a = set(
            1,
            vec![row("w1", &[10.0, 40.0, 20.0]), row("w2", &[50.0, 50.0])],
        );
        let mut slow = row("w2", &[70.0, 70.0]);
        slow.digests = vec!["beef".to_string()];
        slow.per_layer[0].1 += 1.0;
        let b = set(1, vec![row("w1", &[10.0, 40.0, 20.0, 30.0]), slow]);
        let (rows, notes) = compare(&a, &b).unwrap();
        // One row per workload for the one metric the fixtures carry;
        // the two missing metrics are noted, not invented.
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].verdict, rows[0].pairs),
            ("w1", Verdict::Within, 3)
        );
        assert_eq!((rows[0].ratio, rows[0].ratio_spread), (1.0, 0.0));
        assert_eq!(
            (rows[1].workload.as_str(), rows[1].verdict),
            ("w2", Verdict::Worse)
        );
        assert!(notes.iter().any(|n| n.contains("w2: sim_digest differs")));
        assert!(notes.iter().any(|n| n.contains("w2: sim.events differs")));
        assert!(!notes.iter().any(|n| n.starts_with("w1: sim")));
        let text = render(&rows, &notes);
        assert!(text.contains("1 within bound, 1 worse"));

        let other_seed = set(2, vec![]);
        assert!(compare(&a, &other_seed)
            .unwrap_err()
            .contains("different seeds"));
    }

    #[test]
    fn a_noisy_side_makes_its_rows_unresolved() {
        let a = set(1, vec![row("w1", &[10.0, 10.0])]);
        let mut noisy = row("w1", &[10.0, 10.0]);
        noisy.noisy = true;
        let (rows, _) = compare(&a, &set(1, vec![noisy])).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
    }
}
