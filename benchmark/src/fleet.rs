//! The fleet workload: the real `repro` CLI as a subprocess, sharding
//! seed-generated scenario files over two worker processes, then
//! verifying the envelopes it wrote.
//!
//! Everything is measured from outside: the wall time of the `repro`
//! process, its peak resident set polled from `/proc`, and the
//! `--timing-json` and envelope files it leaves behind.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use serde::json::{self, Value};

use crate::bench::{write_scenarios, Pass, PassRunner};
use crate::check::fnv1a_hex;
use crate::proc::{child_deadline, run_to_files, Finished};
use crate::repo_root;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Worker processes the batch is sharded over (the machine's cores).
const WORKERS: usize = 2;

pub struct FleetRunner {
    workload: &'static Workload,
    /// `--seeds` given to `repro run`: replicates per scenario file.
    seeds: usize,
    seed: u64,
    dir: PathBuf,
    files: Vec<PathBuf>,
    repro: PathBuf,
}

/// Where cargo puts build output: `CARGO_TARGET_DIR` as the outer
/// `cargo run` resolved it (against the working directory), or the
/// root workspace's `target/`.
fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map(|cwd| cwd.join(&dir))
            .unwrap_or_else(|_| PathBuf::from(dir)),
        None => repo_root().join("target"),
    }
}

fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

impl FleetRunner {
    /// Build `repro` from the root workspace and start it once, so the
    /// first timed pass does not pay for paging the executable in.
    pub fn new(
        workload: &'static Workload,
        seed: u64,
        dir: PathBuf,
        deadline: Instant,
    ) -> Result<FleetRunner, String> {
        let target = target_dir();
        let mut build = Command::new("cargo");
        build
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "irn-experiments", "--bin", "repro"])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(repo_root());
        let (out, err) = (dir.join("build.stdout"), dir.join("build.stderr"));
        let built = run_to_files(build, &out, &err, deadline).map_err(|e| e.to_string())?;
        if !built.ok() {
            let why = std::fs::read_to_string(&err).unwrap_or_default();
            return Err(format!("building repro failed: {why}"));
        }
        let runner = FleetRunner {
            workload,
            seeds: workload.fleet_seeds.ok_or("not a fleet workload")?,
            seed,
            dir,
            files: Vec::new(),
            repro: target.join("release/repro"),
        };
        let mut warm = Command::new(&runner.repro);
        warm.arg("--list");
        runner.spawn(warm, "warmup", deadline)?;
        Ok(runner)
    }

    fn spawn(&self, cmd: Command, tag: &str, deadline: Instant) -> Result<Finished, String> {
        let out = self.dir.join(format!("{tag}.stdout"));
        let err = self.dir.join(format!("{tag}.stderr"));
        run_to_files(cmd, &out, &err, child_deadline(deadline)).map_err(|e| format!("{tag}: {e}"))
    }

    /// `repro run` over the scenario files on the given executor
    /// (`--workers N` or `--jobs N`), envelopes and timing into `dir`.
    fn repro_run(
        &self,
        executor: [&str; 2],
        tag: &str,
        deadline: Instant,
    ) -> Result<Batch, String> {
        let envelopes = self.dir.join(format!("{tag}-envelopes"));
        if envelopes.exists() {
            std::fs::remove_dir_all(&envelopes).map_err(|e| e.to_string())?;
        }
        let timing = self.dir.join(format!("{tag}-timing.json"));
        let mut cmd = Command::new(&self.repro);
        cmd.arg("run")
            .args(&self.files)
            .args(["--seeds", &self.seeds.to_string()])
            .args(executor)
            .arg("--json")
            .arg(&envelopes)
            .arg("--timing-json")
            .arg(&timing);
        let done = self.spawn(cmd, tag, deadline)?;
        if !done.ok() {
            return Err(format!("repro run exited with {:?}", done.code));
        }
        let text = std::fs::read_to_string(&timing).map_err(|e| format!("timing json: {e}"))?;
        let timing = json::from_str(&text).map_err(|e| format!("timing json: {e}"))?;
        Ok(Batch {
            done,
            timing,
            envelopes,
        })
    }

    fn verify(&self, envelopes: &Path, deadline: Instant) -> Result<Finished, String> {
        let mut cmd = Command::new(&self.repro);
        cmd.arg("--verify-json").arg(envelopes);
        let done = self.spawn(cmd, "verify", deadline)?;
        if !done.ok() {
            return Err(format!("repro --verify-json exited with {:?}", done.code));
        }
        Ok(done)
    }

    fn pass(&self, traced: bool, deadline: Instant) -> Result<Pass, String> {
        let mut tracer = Tracer::new(traced, Instant::now(), self.workload.name);
        let workers = WORKERS.to_string();
        let (batch, _) = tracer.span_counted("experiments.repro_run", |_| {
            let b = self.repro_run(["--workers", &workers], "fleet", deadline);
            let cells = b.as_ref().map_or(0, |b| num(&b.timing, &["cells"]) as u64);
            (b, cells)
        });
        let batch = batch?;
        let (verified, _) = tracer.span("experiments.verify_json", |_| {
            self.verify(&batch.envelopes, deadline)
        });
        let verified = verified?;
        let envelopes = Envelopes::read(&batch.envelopes)?;

        let wall = batch.done.wall_s;
        let batch_wall = num(&batch.timing, &["batch_wall_s"]);
        let mut pass = Pass {
            setup_s: wall - batch_wall,
            run_s: wall,
            data_pkts: envelopes.data_pkts(),
            peak_rss_mb: batch.done.peak_rss_kb as f64 / 1024.0,
            cells: num(&batch.timing, &["cells"]) as u64,
            digests: vec![envelopes.digest.clone()],
            ..Pass::default()
        };
        if pass.cells != self.cells() {
            pass.failures.push(format!(
                "batch ran {} cells, planned {}",
                pass.cells,
                self.cells()
            ));
        }
        if traced {
            // The same batch on the in-process thread executor, for the
            // executor-overhead comparison.
            let jobs = WORKERS.to_string();
            let (threads, _) = tracer.span("experiments.repro_run_threads", |_| {
                self.repro_run(["--jobs", &jobs], "threads", deadline)
            });
            let threads = threads?;
            if Envelopes::read(&threads.envelopes)?.digest != envelopes.digest {
                pass.failures
                    .push("thread and fleet executors wrote different envelopes".to_string());
            }
            pass.spans = tracer.into_spans();
            pass.layer = fleet_ledger(&batch, &threads, &envelopes, &verified, pass.spans.len());
        }
        Ok(pass)
    }
}

impl PassRunner for FleetRunner {
    fn load(&mut self, pass: u64) -> Result<(), String> {
        self.files = write_scenarios(self.workload, self.seed, pass, &self.dir)
            .map_err(|e| format!("{}: {e}", self.dir.display()))?;
        Ok(())
    }

    /// The fleet has no separate cold probe: every pass is a fresh
    /// `repro` process and yields its own set-up sample.
    fn setup_probes(&mut self, _deadline: Instant) -> Result<Vec<f64>, String> {
        Ok(Vec::new())
    }

    fn timed(&mut self, deadline: Instant) -> Pass {
        self.pass(false, deadline)
            .unwrap_or_else(|why| Pass::failed(self.cells(), why))
    }

    fn traced(&mut self, deadline: Instant) -> Pass {
        self.pass(true, deadline)
            .unwrap_or_else(|why| Pass::failed(self.cells(), why))
    }

    fn cells(&self) -> u64 {
        (self.files.len() * self.seeds) as u64
    }
}

/// One finished `repro run`.
struct Batch {
    done: Finished,
    timing: Value,
    envelopes: PathBuf,
}

impl Batch {
    /// Sum of per-cell wall time over the batch, seconds.
    fn cell_wall_s(&self) -> f64 {
        self.timing
            .get("artifacts")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|a| num(a, &["cell_wall_s"]))
            .sum()
    }

    /// Share of the batch's wall time its executor did not spend
    /// running cells, were the cells spread evenly over its lanes.
    fn overhead_share(&self) -> f64 {
        1.0 - self.cell_wall_s() / WORKERS as f64 / num(&self.timing, &["batch_wall_s"])
    }
}

/// The envelope files of one batch: their `telemetry` blocks, total
/// size, and one digest over all of them in file-name order.
struct Envelopes {
    telemetry: Vec<Value>,
    bytes: u64,
    digest: String,
}

impl Envelopes {
    fn read(dir: &Path) -> Result<Envelopes, String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let mut all = Vec::new();
        let mut telemetry = Vec::new();
        for p in &paths {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let doc = json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            telemetry.push(doc.get("telemetry").cloned().unwrap_or(Value::Null));
            all.extend_from_slice(text.as_bytes());
        }
        Ok(Envelopes {
            telemetry,
            bytes: all.len() as u64,
            digest: fnv1a_hex(&all),
        })
    }

    fn sum(&self, path: &[&str]) -> f64 {
        self.telemetry.iter().map(|t| num(t, path)).sum()
    }

    /// First transmissions over the whole batch (see
    /// [`crate::check::data_packets`]).
    fn data_pkts(&self) -> u64 {
        (self.sum(&["transport", "total", "sent"])
            - self.sum(&["transport", "total", "retransmitted"])) as u64
    }
}

/// The fleet's per-layer values: counts from the envelopes' telemetry
/// blocks, executor and CLI overheads from the two timing files. No
/// replay kernels run here, so no layer claims a share of the run and
/// the whole of it is reported unattributed.
fn fleet_ledger(
    fleet: &Batch,
    threads: &Batch,
    env: &Envelopes,
    verified: &Finished,
    spans: usize,
) -> Vec<(String, f64)> {
    let workers = fleet
        .timing
        .get("workers")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let batch_wall = num(&fleet.timing, &["batch_wall_s"]);
    let least_busy = workers
        .iter()
        .map(|w| num(w, &["cell_wall_s"]))
        .fold(f64::INFINITY, f64::min);
    let events = env.sum(&["events"]);
    let sent = env.sum(&["transport", "total", "sent"]);
    let retx = env.sum(&["transport", "total", "retransmitted"]);
    let drops = env.sum(&["fabric", "drops", "total"]);
    let cell_wall = fleet.cell_wall_s();
    let pairs: Vec<(&str, f64)> = vec![
        ("sim.events", events),
        ("sim.timer_arms", env.sum(&["sched", "timer_arms"])),
        ("sim.timer_cancels", env.sum(&["sched", "timer_cancels"])),
        (
            "sim.stale_reclaims",
            env.sum(&["sched", "stale_timer_reclaims"]),
        ),
        ("sim.past_clamps", env.sum(&["sched", "past_clamps"])),
        ("net.fabric_events", env.sum(&["sched", "fabric_events"])),
        ("net.delivered_pkts", env.sum(&["fabric", "delivered_pkts"])),
        (
            "net.pkt_allocs",
            env.sum(&["fabric", "delivered_pkts"]) + drops,
        ),
        ("net.buffer_drops", env.sum(&["fabric", "drops", "buffer"])),
        (
            "net.injected_drops",
            env.sum(&["fabric", "drops", "injected"]),
        ),
        ("net.drop_ratio", drops / sent),
        ("net.pauses", env.sum(&["fabric", "pauses"])),
        ("net.ecn_marks", env.sum(&["fabric", "ecn_marked"])),
        ("transport.sent", sent),
        ("transport.retransmitted", retx),
        ("transport.useful_ratio", (sent - retx) / sent),
        ("transport.nacks", env.sum(&["transport", "total", "nacks"])),
        (
            "transport.timeouts",
            env.sum(&["transport", "total", "timeouts"]),
        ),
        ("transport.cnps", env.sum(&["transport", "total", "cnps"])),
        ("workload.flows", env.sum(&["sched", "flow_arrivals"])),
        ("core.sim_run_s", cell_wall),
        ("core.events_per_s", events / cell_wall),
        ("core.ns_per_event", cell_wall * 1e9 / events),
        ("core.flow_arrivals", env.sum(&["sched", "flow_arrivals"])),
        (
            "core.qp_timer_events",
            env.sum(&["sched", "qp_timer_events"]),
        ),
        (
            "core.nic_wake_events",
            env.sum(&["sched", "nic_wake_events"]),
        ),
        ("core.unattributed_share", 1.0),
        (
            "harness.thread_exec_overhead_share",
            threads.overhead_share(),
        ),
        ("harness.pool_overhead_share", fleet.overhead_share()),
        ("harness.pool_idle_tail_s", batch_wall - least_busy),
        (
            "harness.retries",
            workers.iter().map(|w| num(w, &["failures"])).sum(),
        ),
        ("experiments.cells", num(&fleet.timing, &["cells"])),
        ("experiments.batch_wall_s", batch_wall),
        ("experiments.plan_report_s", fleet.done.wall_s - batch_wall),
        ("experiments.envelope_bytes", env.bytes as f64),
        ("experiments.verify_json_s", verified.wall_s),
        ("bench.spans", spans as f64),
    ];
    pairs.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    fn batch(timing: &str, wall_s: f64) -> Batch {
        Batch {
            done: Finished {
                code: Some(0),
                wall_s,
                peak_rss_kb: 6_000,
                timed_out: false,
            },
            timing: json::from_str(timing).unwrap(),
            envelopes: PathBuf::new(),
        }
    }

    #[test]
    fn fleet_ledger_reads_timing_and_telemetry() {
        let fleet = batch(
            r#"{"cells": 6, "batch_wall_s": 2.0,
                "artifacts": [{"cell_wall_s": 1.5}, {"cell_wall_s": 1.7}],
                "workers": [{"cell_wall_s": 1.9, "failures": 1},
                            {"cell_wall_s": 1.3, "failures": 0}]}"#,
            2.25,
        );
        let threads = batch(
            r#"{"cells": 6, "batch_wall_s": 1.75,
                "artifacts": [{"cell_wall_s": 1.5}, {"cell_wall_s": 1.7}]}"#,
            1.9,
        );
        let block = r#"{"events": 1000, "sched": {"flow_arrivals": 40, "timer_arms": 7},
            "fabric": {"delivered_pkts": 90, "drops": {"total": 10, "buffer": 4, "injected": 6}},
            "transport": {"total": {"sent": 100, "retransmitted": 20}}}"#;
        let env = Envelopes {
            telemetry: vec![
                json::from_str(block).unwrap(),
                json::from_str(block).unwrap(),
            ],
            bytes: 4_096,
            digest: "0".repeat(16),
        };
        assert_eq!(env.data_pkts(), 160);
        let verified = batch("{}", 0.05).done;
        let layer = fleet_ledger(&fleet, &threads, &env, &verified, 3);
        let get = |name: &str| layer.iter().find(|(n, _)| n == name).unwrap().1;
        for (name, value) in &layer {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not in BENCHMARK.json"
            );
            assert!(value.is_finite(), "{name} = {value}");
        }
        assert_eq!(get("sim.events"), 2_000.0);
        assert_eq!(get("net.pkt_allocs"), 200.0);
        assert_eq!(get("transport.useful_ratio"), 0.8);
        assert_eq!(get("net.drop_ratio"), 0.1);
        // 3.2 s of cells over two lanes is 1.6 s of a 2.0 s batch.
        assert!((get("harness.pool_overhead_share") - 0.2).abs() < 1e-12);
        assert!((get("harness.thread_exec_overhead_share") - (1.0 - 1.6 / 1.75)).abs() < 1e-12);
        assert!((get("harness.pool_idle_tail_s") - 0.7).abs() < 1e-12);
        assert_eq!(get("harness.retries"), 1.0);
        assert_eq!(get("experiments.plan_report_s"), 0.25);
        assert_eq!(get("experiments.envelope_bytes"), 4_096.0);
        assert_eq!(get("core.unattributed_share"), 1.0);
    }
}
