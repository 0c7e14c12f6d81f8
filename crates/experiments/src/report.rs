//! Report structures: rows of named values, printed like the paper's
//! tables and consumable by tests.

use irn_harness::Stats;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One labelled result row (one bar of a figure / one line of a table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Configuration label, e.g. `"IRN"` or `"RoCE + PFC, Timely"`.
    pub label: String,
    /// `(metric name, value)` pairs in display order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Build a row.
    pub fn new(label: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Append a metric.
    pub fn push(mut self, name: &str, value: f64) -> Row {
        self.values.push((name.to_string(), value));
        self
    }

    /// Append a replicated metric: the mean under `name`, and — when
    /// the aggregate spans more than one seed — the 95% confidence
    /// half-width under `<name>_ci95`. Single-seed runs get no ci95
    /// column, so their rows keep the pre-replication shape.
    pub fn push_stats(mut self, name: &str, stats: &Stats) -> Row {
        self = self.push(name, stats.mean);
        if stats.n > 1 {
            self = self.push(&format!("{name}_ci95"), stats.ci95);
        }
        self
    }

    /// Look up a metric by name (panics if absent — report bugs are
    /// test failures).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("row '{}' has no metric '{name}'", self.label))
            .1
    }
}

/// A full experiment report (one figure or table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Artifact id, e.g. `"Figure 1"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper found (for side-by-side reading).
    pub paper_expectation: String,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Build an empty report.
    pub fn new(id: &str, title: &str, paper_expectation: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            paper_expectation: paper_expectation.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn add(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Row lookup by label.
    pub fn row(&self, label: &str) -> &Row {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("{} has no row '{label}'", self.id))
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let _ = writeln!(out, "   paper: {}", self.paper_expectation);
        if self.rows.is_empty() {
            let _ = writeln!(out, "   (no rows)");
            return out;
        }
        // Column set = union of metric names, first-seen order.
        let mut cols: Vec<String> = Vec::new();
        for row in &self.rows {
            for (name, _) in &row.values {
                if !cols.iter().any(|c| c == name) {
                    cols.push(name.clone());
                }
            }
        }
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = write!(out, "   {:label_w$}", "config");
        for c in &cols {
            let _ = write!(out, "  {c:>14}");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "   {:label_w$}", row.label);
            for c in &cols {
                match row.values.iter().find(|(n, _)| n == c) {
                    Some((_, v)) => {
                        let _ = write!(out, "  {:>14}", format_value(*v));
                    }
                    None => {
                        let _ = write!(out, "  {:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Human formatting: small numbers get decimals, large get separators.
fn format_value(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_roundtrip() {
        let r = Row::new("IRN").push("slowdown", 2.5).push("fct_ms", 0.9);
        assert_eq!(r.get("slowdown"), 2.5);
        assert_eq!(r.get("fct_ms"), 0.9);
    }

    #[test]
    #[should_panic]
    fn missing_metric_panics() {
        Row::new("IRN").push("a", 1.0).get("b");
    }

    #[test]
    fn render_has_all_labels_and_columns() {
        let mut rep = Report::new("Figure 1", "IRN vs RoCE", "IRN wins");
        rep.add(Row::new("IRN").push("slowdown", 2.5));
        rep.add(
            Row::new("RoCE + PFC")
                .push("slowdown", 5.1)
                .push("p99", 42.0),
        );
        let text = rep.render();
        assert!(text.contains("Figure 1"));
        assert!(text.contains("IRN"));
        assert!(text.contains("RoCE + PFC"));
        assert!(text.contains("slowdown"));
        assert!(text.contains("p99"));
        assert!(text.contains("2.5"));
    }

    #[test]
    fn row_lookup_by_label() {
        let mut rep = Report::new("T", "t", "p");
        rep.add(Row::new("a").push("m", 1.0));
        assert_eq!(rep.row("a").get("m"), 1.0);
    }
}
