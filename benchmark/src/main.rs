//! `irn-benchmark` — the repo benchmark.
//!
//! ```text
//! irn-benchmark run --workload NAME --seed N --seconds S --trace 0|1
//! irn-benchmark all [--seed N] [--seconds S] [--out FILE]
//! irn-benchmark compare A.json B.json
//! irn-benchmark manifest
//! ```
//!
//! `run` is what `BENCHMARK.json` names: one workload, one seed, and as
//! the last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `all` runs every workload
//! untraced and traced, prints every metric with its unit, direction
//! and bound, and writes a result set that `compare` reads. See
//! `benchmark/README.md`.

mod bench;
mod check;
mod child;
mod compare;
mod fleet;
mod kernels;
mod proc;
mod results;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bench::{Report, RunArgs};
use results::{ResultSet, WorkloadResult};
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{median, quartiles, spread};

/// A JSON object from `(key, value)` pairs, in order.
pub fn json_object(pairs: Vec<(&str, serde::json::Value)>) -> serde::json::Value {
    serde::json::Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package has a parent directory")
}

const USAGE: &str = "usage:
  irn-benchmark run --workload NAME --seed N --seconds S --trace 0|1
  irn-benchmark all [--seed N] [--seconds S] [--out FILE]
  irn-benchmark compare A.json B.json
  irn-benchmark manifest";

/// `--flag value` pairs and positional arguments, in order.
struct Cli {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                    cli.flags.push((flag.to_string(), value.clone()));
                }
                None => cli.positional.push(a.clone()),
            }
        }
        Ok(cli)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: '{v}' is not a valid number")),
        }
    }

    /// Reject flags the subcommand does not take: a typo must not fall
    /// back to a default silently.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }
}

fn workload_arg(cli: &Cli) -> Result<&'static workloads::Workload, String> {
    let name = cli.get("workload").ok_or("--workload is required")?;
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })
}

fn trace_path() -> PathBuf {
    repo_root().join("benchmark/out/trace.json")
}

/// Print what a run found wrong, to standard error.
fn report_failures(r: &Report) {
    for f in &r.failures {
        eprintln!("FAILED {} seed {}: {f}", r.workload, r.seed);
    }
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    cli.only(&["workload", "seed", "seconds", "trace"])?;
    let args = RunArgs {
        workload: workload_arg(cli)?,
        seed: cli.number("seed", 1u64)?,
        seconds: cli.number("seconds", RUN_SECONDS as f64)?,
        trace: match cli.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
    };
    let report = bench::run(&args)?;
    report_failures(&report);
    eprintln!(
        "{} seed {}: digests {:?}, calibration {:.3}/{:.3} ns{}",
        report.workload,
        report.seed,
        report.digests,
        report.calib_ns.0,
        report.calib_ns.1,
        if report.noisy() { " (noisy)" } else { "" }
    );
    for (name, values) in &report.samples {
        eprintln!(
            "  {name}: median {:.5}, spread {:.1}% over {} samples {:?}",
            median(values),
            spread(values) * 100.0,
            values.len(),
            values
        );
    }
    if args.trace {
        trace::write_trace(&trace_path(), &report.spans).map_err(|e| e.to_string())?;
    }
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Print one workload's metrics by name, with unit, direction and bound.
fn print_workload(row: &WorkloadResult) {
    println!(
        "\n== {} — {} of {} cells failed{}",
        row.name,
        row.failed,
        row.attempted,
        if row.noisy { ", NOISY" } else { "" }
    );
    println!("   sim_digest {}", row.digests.join(" "));
    for m in &END_TO_END {
        let Some((_, values)) = row.end_to_end.iter().find(|(n, _)| n == m.name) else {
            continue;
        };
        let (q1, q3) = quartiles(values);
        println!(
            "   {:<34} {:>14.5} {:<7} {} is better, bound {:.0}%; q1 {:.5} q3 {:.5}, spread {:.1}%, n={}",
            m.name,
            median(values),
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0) * 100.0,
            q1,
            q3,
            spread(values) * 100.0,
            values.len()
        );
    }
    for m in &PER_LAYER {
        let Some((_, v)) = row.per_layer.iter().find(|(n, _)| n == m.name) else {
            continue;
        };
        println!(
            "   {:<34} {:>14.5} {:<7} {} is better",
            m.name,
            v,
            m.unit,
            m.better.label()
        );
    }
}

fn cmd_all(cli: &Cli) -> Result<ExitCode, String> {
    cli.only(&["seed", "seconds", "out"])?;
    let seed = cli.number("seed", 1u64)?;
    let seconds = cli.number("seconds", RUN_SECONDS as f64)?;
    let out = cli.get("out").map_or_else(
        || repo_root().join(format!("benchmark/out/results-seed{seed}.json")),
        PathBuf::from,
    );
    let mut set = ResultSet::for_this_machine(seed);
    let mut spans = Vec::new();
    let mut correct = true;
    println!(
        "irn-benchmark: seed {seed}, {seconds} s per run, {} cores, {}",
        set.nproc, set.cpu_model
    );
    println!("simulated statistics are unvalidated (the repo holds no reference results): no error figure is given; sim_digest pins them instead");
    for workload in workloads::WORKLOADS.iter() {
        let mut run = |trace| {
            let report = bench::run(&RunArgs {
                workload,
                seed,
                seconds,
                trace,
            })?;
            report_failures(&report);
            correct &= report.correct();
            Ok::<Report, String>(report)
        };
        let e2e = run(false)?;
        let mut layer = run(true)?;
        trace::append_spans(&mut spans, std::mem::take(&mut layer.spans));
        let row = WorkloadResult::from_reports(&e2e, &layer);
        print_workload(&row);
        set.workloads.push(row);
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, set.to_json_string()).map_err(|e| format!("{}: {e}", out.display()))?;
    trace::write_trace(&trace_path(), &spans).map_err(|e| e.to_string())?;
    println!(
        "\nresult set: {}\nspans: {}",
        out.display(),
        trace_path().display()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("an output check failed");
        ExitCode::FAILURE
    })
}

fn cmd_compare(cli: &Cli) -> Result<ExitCode, String> {
    cli.only(&[])?;
    let [a, b] = cli.positional.as_slice() else {
        return Err("compare takes two result-set files".to_string());
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        ResultSet::from_json_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (rows, notes) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows, &notes));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_child(origin: Instant, cli: &Cli) -> Result<ExitCode, String> {
    cli.only(&["workload", "mode"])?;
    let workload = cli.get("workload").ok_or("--workload is required")?;
    let mode = cli
        .get("mode")
        .and_then(child::Mode::parse)
        .ok_or("--mode takes setup, timed or traced")?;
    let files: Vec<PathBuf> = cli.positional.iter().map(PathBuf::from).collect();
    child::run(origin, workload, mode, &files)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = Cli::parse(rest).and_then(|cli| match cmd.as_str() {
        "run" => cmd_run(&cli),
        "all" => cmd_all(&cli),
        "compare" => cmd_compare(&cli),
        "manifest" => {
            print!("{}", spec::manifest());
            Ok(ExitCode::SUCCESS)
        }
        // Not in the usage text: the coordinator spawns it.
        "child" => cmd_child(origin, &cli),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("irn-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
