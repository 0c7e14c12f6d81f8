//! The result set `irn-benchmark all` writes and `compare` reads: per
//! workload, every end-to-end metric with its per-pass samples and
//! every per-layer value, stamped with the seed and the machine.

use serde::json::{self, Value};
use serde::Serialize;

use crate::bench::Report;
use crate::json_object;
use crate::spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, quartiles};

const RESULTS_SCHEMA: &str = "irn-benchmark-results-v1";

/// One workload's row of a result set.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub noisy: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digests: Vec<String>,
    /// Per end-to-end metric, the run's samples in pass order.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    pub per_layer: Vec<(String, f64)>,
}

/// A whole result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub seed: u64,
    pub nproc: u64,
    pub cpu_model: String,
    pub workloads: Vec<WorkloadResult>,
}

impl WorkloadResult {
    /// Fold a workload's untraced run (end-to-end samples) and traced
    /// run (per-layer values) into one row.
    pub fn from_reports(e2e: &Report, layer: &Report) -> WorkloadResult {
        WorkloadResult {
            name: e2e.workload.to_string(),
            noisy: e2e.noisy(),
            attempted: e2e.attempted + layer.attempted,
            failed: e2e.failed + layer.failed,
            digests: e2e.digests.clone(),
            end_to_end: e2e
                .samples
                .iter()
                .map(|(name, values)| (name.to_string(), values.clone()))
                .collect(),
            per_layer: layer
                .metrics()
                .into_iter()
                .map(|(name, value, _)| (name.to_string(), value))
                .collect(),
        }
    }

    fn to_json_value(&self) -> Value {
        let unit = |table: &[Metric], name: &str| {
            table
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit)
                .to_json()
        };
        json_object(vec![
            ("name", self.name.to_json()),
            ("noisy", self.noisy.to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("digests", self.digests.to_json()),
            (
                "end_to_end",
                Value::Object(
                    self.end_to_end
                        .iter()
                        .map(|(name, values)| {
                            let (q1, q3) = quartiles(values);
                            let v = json_object(vec![
                                ("unit", unit(&END_TO_END, name)),
                                ("median", median(values).to_json()),
                                ("q1", q1.to_json()),
                                ("q3", q3.to_json()),
                                ("values", values.to_json()),
                            ]);
                            (name.clone(), v)
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Object(
                    self.per_layer
                        .iter()
                        .map(|(name, value)| {
                            let v = json_object(vec![
                                ("value", value.to_json()),
                                ("unit", unit(&PER_LAYER, name)),
                            ]);
                            (name.clone(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json_value(v: &Value) -> Option<WorkloadResult> {
        let Value::Object(e2e) = v.get("end_to_end")? else {
            return None;
        };
        let Value::Object(layer) = v.get("per_layer")? else {
            return None;
        };
        Some(WorkloadResult {
            name: v.get("name")?.as_str()?.to_string(),
            noisy: matches!(v.get("noisy")?, Value::Bool(true)),
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            digests: v
                .get("digests")?
                .as_array()?
                .iter()
                .filter_map(|d| d.as_str().map(str::to_string))
                .collect(),
            end_to_end: e2e
                .iter()
                .map(|(name, s)| {
                    let values = s
                        .get("values")?
                        .as_array()?
                        .iter()
                        .filter_map(Value::as_f64)
                        .collect::<Vec<_>>();
                    (!values.is_empty()).then(|| (name.clone(), values))
                })
                .collect::<Option<_>>()?,
            per_layer: layer
                .iter()
                .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

impl ResultSet {
    /// A result set for this machine, workloads to be added.
    pub fn for_this_machine(seed: u64) -> ResultSet {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
            .unwrap_or_else(|| "unknown".to_string());
        ResultSet {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
            workloads: Vec::new(),
        }
    }

    pub fn to_json_string(&self) -> String {
        let doc = json_object(vec![
            ("schema", RESULTS_SCHEMA.to_json()),
            ("seed", self.seed.to_json()),
            ("run_seconds", RUN_SECONDS.to_json()),
            ("nproc", self.nproc.to_json()),
            ("cpu_model", self.cpu_model.to_json()),
            (
                "workloads",
                Value::Array(
                    self.workloads
                        .iter()
                        .map(WorkloadResult::to_json_value)
                        .collect(),
                ),
            ),
        ]);
        let mut text = json::to_string_pretty(&doc);
        text.push('\n');
        text
    }

    pub fn from_json_str(text: &str) -> Result<ResultSet, String> {
        let v = json::from_str(text).map_err(|e| e.to_string())?;
        if v.get("schema").and_then(Value::as_str) != Some(RESULTS_SCHEMA) {
            return Err(format!("not a {RESULTS_SCHEMA} document"));
        }
        let parse = || {
            Some(ResultSet {
                seed: v.get("seed")?.as_u64()?,
                nproc: v.get("nproc")?.as_u64()?,
                cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
                workloads: v
                    .get("workloads")?
                    .as_array()?
                    .iter()
                    .map(WorkloadResult::from_json_value)
                    .collect::<Option<_>>()?,
            })
        };
        parse().ok_or_else(|| "malformed result set".to_string())
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn row(name: &str, run: &[f64]) -> WorkloadResult {
        WorkloadResult {
            name: name.to_string(),
            noisy: false,
            attempted: 8,
            failed: 0,
            digests: vec!["00ff".to_string()],
            end_to_end: vec![("run_ns_per_pkt".to_string(), run.to_vec())],
            per_layer: vec![("sim.events".to_string(), 12.0)],
        }
    }

    #[test]
    fn result_sets_round_trip() {
        let set = ResultSet {
            seed: 2,
            nproc: 2,
            cpu_model: "test cpu".to_string(),
            workloads: vec![row("a", &[1.0, 2.0, 3.5]), row("b", &[4.0])],
        };
        assert_eq!(ResultSet::from_json_str(&set.to_json_string()), Ok(set));
        assert!(ResultSet::from_json_str("{}").is_err());
        assert!(ResultSet::from_json_str("not json").is_err());
    }
}
