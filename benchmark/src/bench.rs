//! One benchmark run: generate the workload's inputs from the seed,
//! sample set-up time, repeat timed passes for the measuring window,
//! check every output, and report medians.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use serde::json::{self, Value};
use serde::Serialize;

use crate::child::Mode;
use crate::proc::{child_deadline, run_to_files};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{append_spans, Span};
use crate::workloads::Workload;
use crate::{fleet, json_object, repo_root};

/// Every process a run starts must be gone before this much of the run
/// has passed: the contract allows 180 s in all.
const RUN_BUDGET: Duration = Duration::from_secs(165);
/// Cold set-up samples taken before the measuring window.
const SETUP_PROBES: usize = 9;

/// What the command line asks of one run.
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One timed pass over the workload.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    pub setup_s: f64,
    pub run_s: f64,
    pub data_pkts: u64,
    pub peak_rss_mb: f64,
    pub cells: u64,
    pub digests: Vec<String>,
    pub failures: Vec<String>,
    /// Per-layer values of a traced pass, by metric name.
    pub layer: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Pass {
    /// A pass that produced nothing usable: all its cells failed.
    pub fn failed(cells: u64, why: String) -> Pass {
        Pass {
            cells,
            failures: vec![why],
            ..Pass::default()
        }
    }

    pub fn run_ns_per_pkt(&self) -> f64 {
        self.run_s * 1e9 / self.data_pkts as f64
    }
}

/// Everything one run measured.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per end-to-end metric, one sample per pass (set-up time also
    /// has the cold probes).
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Per-layer medians over the traced passes (`--trace 1` only).
    pub layer: Vec<(String, f64)>,
    pub digests: Vec<String>,
    /// Calibration loop before and after the passes, ns per step.
    pub calib_ns: (f64, f64),
    pub spans: Vec<Span>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The two calibration loops disagree by more than a tenth: the
    /// machine's speed moved under the run.
    pub fn noisy(&self) -> bool {
        let (a, b) = self.calib_ns;
        (a - b).abs() / a.min(b) > 0.10
    }

    /// The metrics this run reports: every end-to-end metric without
    /// tracing, every per-layer metric with it.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = self.layer.iter().find(|(n, _)| n == m.name);
                    (m.name, v.map_or(0.0, |(_, v)| *v), m.unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let (_, s) = self
                        .samples
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .expect("every end-to-end metric is sampled");
                    (m.name, median(s), m.unit)
                })
                .collect()
        }
    }

    /// The line the benchmark driver reads: the last line of standard
    /// output.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics()
            .into_iter()
            .map(|(name, value, unit)| {
                let v = json_object(vec![("value", value.to_json()), ("unit", unit.to_json())]);
                (name.to_string(), v)
            })
            .collect();
        json::to_string(&json_object(vec![
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.max(1).to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Value::Object(metrics)),
        ]))
    }
}

/// A fixed integer loop of about 0.3 s: its speed before and after the
/// passes tells whether the machine changed under the run.
pub fn calibrate() -> f64 {
    const STEPS: u64 = 150_000_000;
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let t0 = Instant::now();
    for i in 0..STEPS {
        // xorshift with a data dependency on every step.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= (x << 17).wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e9 / STEPS as f64
}

/// Where a workload's generated inputs and outputs live.
fn out_dir(workload: &str) -> PathBuf {
    repo_root().join("benchmark/out").join(workload)
}

/// Write the scenario documents of input set `pass` of `seed`,
/// replacing the set before it; returns their paths in cell order.
pub fn write_scenarios(
    w: &Workload,
    seed: u64,
    pass: u64,
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    let scen_dir = dir.join("scenarios");
    if scen_dir.exists() {
        std::fs::remove_dir_all(&scen_dir)?;
    }
    std::fs::create_dir_all(&scen_dir)?;
    w.scenarios(seed, pass)
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let path = scen_dir.join(format!("{i:02}-{}.json", s.slug()));
            std::fs::write(&path, s.to_json_string())?;
            Ok(path)
        })
        .collect()
}

/// A command for `exe` held on the machine's last core, away from the
/// coordinator and most interrupt handling, when `taskset` is there to
/// hold it. A single-threaded pass that the kernel moves between cores
/// loses its caches each time: pinned, pass-to-pass spread on this
/// 2-core box fell from 3.9 % to 1.7 % of the median.
fn pinned(exe: &Path) -> Command {
    const TASKSET: &str = "/usr/bin/taskset";
    if !Path::new(TASKSET).exists() {
        return Command::new(exe);
    }
    let last = std::thread::available_parallelism().map_or(0, |n| n.get() - 1);
    let mut cmd = Command::new(TASKSET);
    cmd.arg("-c").arg(last.to_string()).arg(exe);
    cmd
}

/// Spawn this executable as a child pass and parse the JSON line it
/// prints.
fn child_pass(
    w: &Workload,
    mode: Mode,
    files: &[PathBuf],
    dir: &Path,
    deadline: Instant,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = pinned(&exe);
    cmd.arg("child")
        .args(["--workload", w.name, "--mode", mode.label()])
        .args(files);
    let (out, err) = (dir.join("child.stdout"), dir.join("child.stderr"));
    let done =
        run_to_files(cmd, &out, &err, child_deadline(deadline)).map_err(|e| e.to_string())?;
    if done.timed_out {
        return Err(format!("{} pass timed out", mode.label()));
    }
    if !done.ok() {
        let why = std::fs::read_to_string(&err).unwrap_or_default();
        let why = why.lines().last().unwrap_or("no message");
        return Err(format!(
            "{} pass exited with {:?}: {why}",
            mode.label(),
            done.code
        ));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
    let line = text.lines().last().ok_or("child printed nothing")?;
    json::from_str(line).map_err(|e| format!("child output: {e}"))
}

fn f64_of(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child output lacks '{key}'"))
}

/// Turn a timed or traced child's JSON into a [`Pass`].
fn parse_pass(v: &Value) -> Result<Pass, String> {
    let cells = v
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("child output lacks 'cells'")?;
    let mut pass = Pass {
        setup_s: f64_of(v, "setup_s")?,
        peak_rss_mb: f64_of(v, "vm_hwm_kb")? / 1024.0,
        cells: cells.len() as u64,
        ..Pass::default()
    };
    for c in cells {
        let name = c.get("name").and_then(Value::as_str).unwrap_or("?");
        pass.run_s += f64_of(c, "run_s")?;
        pass.data_pkts += c
            .get("data_pkts")
            .and_then(Value::as_u64)
            .ok_or("cell lacks 'data_pkts'")?;
        pass.digests.push(
            c.get("digest")
                .and_then(Value::as_str)
                .ok_or("cell lacks 'digest'")?
                .to_string(),
        );
        for f in c.get("failures").and_then(Value::as_array).unwrap_or(&[]) {
            pass.failures
                .push(format!("{name}: {}", f.as_str().unwrap_or("?")));
        }
    }
    if let Some(Value::Object(layer)) = v.get("layer") {
        pass.layer = layer
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect();
    }
    if let Some(spans) = v.get("spans").and_then(Value::as_array) {
        pass.spans = spans.iter().filter_map(Span::from_json_value).collect();
    }
    Ok(pass)
}

/// What runs one pass of a workload: the in-process simulations of
/// W1–W5 in a child of this executable, or the `repro` fleet.
pub trait PassRunner {
    /// Write input set `pass` of the seed and use it from now on.
    fn load(&mut self, pass: u64) -> Result<(), String>;
    /// Cold set-up samples taken before the measuring window, seconds.
    fn setup_probes(&mut self, deadline: Instant) -> Result<Vec<f64>, String>;
    /// One timed pass.
    fn timed(&mut self, deadline: Instant) -> Pass;
    /// One traced pass, with its per-layer values and spans.
    fn traced(&mut self, deadline: Instant) -> Pass;
    /// Cells one pass attempts.
    fn cells(&self) -> u64;
}

struct SimRunner {
    workload: &'static Workload,
    seed: u64,
    dir: PathBuf,
    files: Vec<PathBuf>,
}

impl SimRunner {
    fn pass(&self, mode: Mode, deadline: Instant) -> Pass {
        child_pass(self.workload, mode, &self.files, &self.dir, deadline)
            .and_then(|v| parse_pass(&v))
            .unwrap_or_else(|why| Pass::failed(self.cells(), why))
    }
}

impl PassRunner for SimRunner {
    fn load(&mut self, pass: u64) -> Result<(), String> {
        self.files = write_scenarios(self.workload, self.seed, pass, &self.dir)
            .map_err(|e| format!("{}: {e}", self.dir.display()))?;
        Ok(())
    }

    fn setup_probes(&mut self, deadline: Instant) -> Result<Vec<f64>, String> {
        (0..SETUP_PROBES)
            .map(|_| {
                let v = child_pass(self.workload, Mode::Setup, &self.files, &self.dir, deadline)?;
                f64_of(&v, "setup_s")
            })
            .collect()
    }

    fn timed(&mut self, deadline: Instant) -> Pass {
        self.pass(Mode::Timed, deadline)
    }

    fn traced(&mut self, deadline: Instant) -> Pass {
        self.pass(Mode::Traced, deadline)
    }

    fn cells(&self) -> u64 {
        self.files.len() as u64
    }
}

/// Median of each per-layer value over the traced passes.
fn layer_medians(traced: &[Pass]) -> Vec<(String, f64)> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    first
        .layer
        .iter()
        .map(|(name, _)| {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|p| p.layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            (name.clone(), median(&values))
        })
        .collect()
}

/// Digests pinned for this seed and workload in
/// `benchmark/expected_digests.json`, if any.
fn pinned_digests(seed: u64, workload: &str) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(repo_root().join("benchmark/expected_digests.json")).ok()?;
    let doc = json::from_str(&text).ok()?;
    let list = doc.get(&seed.to_string())?.get(workload)?.as_array()?;
    Some(
        list.iter()
            .filter_map(|d| d.as_str().map(str::to_string))
            .collect(),
    )
}

/// Share of the cells whose digest equals the pinned one. A mismatch is
/// a warning, not a failure: a later model fix moves digests on
/// purpose, and must show rather than be refused.
fn pinned_match(seed: u64, workload: &str, digests: &[String]) -> f64 {
    match pinned_digests(seed, workload) {
        Some(pinned) if pinned == digests => 1.0,
        Some(pinned) => {
            eprintln!(
                "warning: {workload} seed {seed}: sim_digest {digests:?} differs from the pinned {pinned:?} (a model change?)"
            );
            let same = pinned.iter().zip(digests).filter(|(a, b)| a == b).count();
            same as f64 / pinned.len().max(digests.len()).max(1) as f64
        }
        None => {
            eprintln!(
                "note: {workload} seed {seed}: no digest pinned in benchmark/expected_digests.json"
            );
            0.0
        }
    }
}

/// Cells attempted and failed over `passes`, and what failed. A failed
/// check fails its cell; a pass that died fails all of its cells.
fn tally<'a>(passes: impl Iterator<Item = &'a Pass>) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    for pass in passes {
        attempted += pass.cells;
        if !pass.failures.is_empty() {
            failed += (pass.failures.len() as u64).min(pass.cells).max(1);
            failures.extend(pass.failures.iter().cloned());
        }
    }
    (attempted, failed, failures)
}

/// Run the benchmark once.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let start = Instant::now();
    let deadline = start + RUN_BUDGET;
    let w = args.workload;
    let dir = out_dir(w.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runner: Box<dyn PassRunner> = if w.fleet_seeds.is_some() {
        Box::new(fleet::FleetRunner::new(w, args.seed, dir, deadline)?)
    } else {
        Box::new(SimRunner {
            workload: w,
            seed: args.seed,
            dir,
            files: Vec::new(),
        })
    };
    runner.load(0)?;

    let calib_before = calibrate();
    let mut setup_samples = runner.setup_probes(deadline)?;

    // The measuring window: whole passes until `--seconds` have gone.
    // Untraced, pass `j` runs the seed's `j`-th input set. Traced, every
    // pass dissects input set 0 — counts repeat exactly and every
    // digest must agree — and timed and traced passes alternate, so
    // their difference is taken between neighbours in time.
    let mut timed = Vec::new();
    let mut traced = Vec::new();
    let window = Instant::now();
    while timed.is_empty()
        || (window.elapsed().as_secs_f64() < args.seconds && Instant::now() < deadline)
    {
        if !args.trace && !timed.is_empty() {
            runner.load(timed.len() as u64)?;
        }
        timed.push(runner.timed(deadline));
        if args.trace {
            traced.push(runner.traced(deadline));
        }
    }
    let calib_after = calibrate();

    let (attempted, mut failed, mut failures) = tally(timed.iter().chain(&traced));
    // Input set 0's digests are the ones reported and pinned. A traced
    // run gives every pass that set: the same inputs must then give
    // the same simulated statistics on every pass, traced or not.
    let digests = timed[0].digests.clone();
    if args.trace {
        let mut good = timed
            .iter()
            .chain(&traced)
            .filter(|p| p.failures.is_empty());
        if let Some(odd) = good.find(|p| p.digests != digests) {
            failed += runner.cells();
            failures.push(format!(
                "sim_digest differs between passes: {:?} vs {:?}",
                digests, odd.digests
            ));
        }
    }

    let clean: Vec<&Pass> = timed.iter().filter(|p| p.failures.is_empty()).collect();
    if clean.is_empty() {
        return Err(format!("no pass succeeded: {}", failures.join("; ")));
    }
    setup_samples.extend(clean.iter().map(|p| p.setup_s));
    let samples = vec![
        (
            "run_ns_per_pkt",
            clean.iter().map(|p| p.run_ns_per_pkt()).collect(),
        ),
        ("setup_s", setup_samples),
        ("peak_rss_mb", clean.iter().map(|p| p.peak_rss_mb).collect()),
    ];

    let pinned_match = pinned_match(args.seed, w.name, &digests);
    let mut layer = layer_medians(&traced);
    if args.trace {
        let overheads: Vec<f64> = timed
            .iter()
            .zip(&traced)
            .filter(|(a, b)| a.failures.is_empty() && b.failures.is_empty())
            .map(|(a, b)| (b.run_s - a.run_s) / a.run_s)
            .collect();
        if !overheads.is_empty() {
            layer.push(("bench.trace_overhead_share".to_string(), median(&overheads)));
        }
        let calib = (calib_before + calib_after) / 2.0;
        layer.push(("bench.calib_ns".to_string(), calib));
        layer.push(("core.sim_digest_pinned_match".to_string(), pinned_match));
    }

    let mut spans = Vec::new();
    for pass in traced {
        append_spans(&mut spans, pass.spans);
    }
    Ok(Report {
        workload: w.name,
        seed: args.seed,
        trace: args.trace,
        attempted,
        failed,
        failures,
        samples,
        layer,
        digests,
        calib_ns: (calib_before, calib_after),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(trace: bool) -> Report {
        Report {
            workload: "w",
            seed: 1,
            trace,
            attempted: 4,
            failed: 0,
            failures: Vec::new(),
            samples: vec![
                ("run_ns_per_pkt", vec![3.0, 1.0, 2.0]),
                ("setup_s", vec![0.5]),
                ("peak_rss_mb", vec![10.0, 12.0]),
            ],
            layer: vec![("sim.events".to_string(), 7.0)],
            digests: Vec::new(),
            calib_ns: (2.0, 2.1),
            spans: Vec::new(),
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`; every end-to-end metric untraced, every per-layer
    /// metric traced, each as `{value, unit}`.
    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let v = json::from_str(&report(trace).result_line()).unwrap();
            let Value::Object(top) = &v else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Value::Object(metrics)) = v.get("metrics") else {
                panic!("metrics is not an object")
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            for (m, (_, value)) in table.iter().zip(metrics) {
                assert_eq!(value.get("unit").and_then(Value::as_str), Some(m.unit));
                assert!(value.get("value").and_then(Value::as_f64).is_some());
            }
        }
        let v = json::from_str(&report(false).result_line()).unwrap();
        let median_run = v.get("metrics").unwrap().get("run_ns_per_pkt").unwrap();
        assert_eq!(median_run.get("value").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn a_failure_makes_the_report_incorrect() {
        let mut r = report(false);
        assert!(r.correct() && !r.noisy());
        r.calib_ns = (2.0, 2.3);
        assert!(r.noisy(), "15% disagreement between the calibration loops");
        r.failed = 1;
        assert!(!r.correct());
    }

    #[test]
    fn layer_medians_are_per_name_over_traced_passes() {
        let pass = |a: f64, b: f64| Pass {
            layer: vec![("x".to_string(), a), ("y".to_string(), b)],
            ..Pass::default()
        };
        let m = layer_medians(&[pass(1.0, 10.0), pass(3.0, 30.0), pass(2.0, 20.0)]);
        assert_eq!(m, [("x".to_string(), 2.0), ("y".to_string(), 20.0)]);
        assert!(layer_medians(&[]).is_empty());
    }
}
