//! Differential tests for the distributed executor: the worker-pool
//! backend must be **byte-identical** to the in-process executor at any
//! fleet size — including across worker death, reassignment, and
//! timeout — and every degradation must surface as the documented
//! typed-error/exit(2) path, never as silent partial output.
//!
//! Library-level tests drive [`WorkerPool`] directly over spawned
//! `repro worker` processes; CLI-level tests run the full coordinator
//! binary and diff its bytes. Both keep cells tiny (quick-scale fig1 or
//! `ExperimentConfig::quick`) so the suite fits the debug-profile test
//! budget; the full `repro all --seeds 2` three-worker differential —
//! same invariant at paper batch size — runs in CI's release-profile
//! worker-fanout job.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use irn_core::{ExperimentConfig, Scenario};
use irn_harness::{
    Executor, Harness, HarnessError, PoolConfig, ThreadExecutor, WorkerPool, WorkerSpec,
};
use serde::Serialize;

/// The compiled `repro` binary under test.
fn repro_exe() -> String {
    env!("CARGO_BIN_EXE_repro").to_string()
}

/// A spawn spec for one stdio worker, with extra CLI args.
fn spawn_spec(extra: &[&str]) -> WorkerSpec {
    let mut argv = vec![repro_exe(), "worker".to_string()];
    argv.extend(extra.iter().map(|s| s.to_string()));
    WorkerSpec::Spawn { argv }
}

/// A small mixed batch: cheap cells, several distinct scenarios.
fn batch(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|i| {
            Scenario::from_config(
                format!("cell{i}"),
                ExperimentConfig::quick(30 + i)
                    .with_seed(i as u64 + 1)
                    .with_pfc(i % 2 == 0),
            )
            .unwrap()
        })
        .collect()
}

/// Serialize outcomes for bit-exact comparison (JSON tree equality is
/// the same equality the artifact envelopes are built from).
fn result_trees(outcomes: &[irn_harness::CellOutcome]) -> Vec<serde::json::Value> {
    outcomes.iter().map(|o| o.result.to_json()).collect()
}

#[test]
fn worker_pool_matches_in_process_at_1_2_4_workers() {
    let cells = batch(6);
    let reference = ThreadExecutor::new(2).run_cells(&cells, None).unwrap();
    for fleet in [1, 2, 4] {
        let pool = WorkerPool::new(PoolConfig::new(
            (0..fleet).map(|_| spawn_spec(&[])).collect(),
        ));
        let got = pool.run_cells(&cells, None).unwrap();
        assert_eq!(
            result_trees(&got),
            result_trees(&reference),
            "fleet of {fleet} diverged from in-process results"
        );
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), fleet);
        assert_eq!(stats.iter().map(|s| s.cells).sum::<usize>(), cells.len());
        assert!(stats.iter().all(|s| s.alive && s.failures == 0));
    }
}

#[test]
fn killed_worker_mid_batch_reassigns_and_stays_byte_identical() {
    let cells = batch(5);
    let reference = ThreadExecutor::new(2).run_cells(&cells, None).unwrap();
    // One healthy worker plus one that answers a single cell, then
    // consumes the next work frame and dies without responding — the
    // coordinator must notice the EOF and reassign that cell.
    let pool = WorkerPool::new(PoolConfig::new(vec![
        spawn_spec(&[]),
        spawn_spec(&["--exit-after", "1"]),
    ]));
    let got = pool.run_cells(&cells, None).unwrap();
    assert_eq!(
        result_trees(&got),
        result_trees(&reference),
        "reassignment after worker death changed result bytes"
    );
    let stats = pool.worker_stats();
    let dead: Vec<_> = stats.iter().filter(|s| !s.alive).collect();
    assert_eq!(dead.len(), 1, "exactly the faulty worker drops: {stats:?}");
    assert_eq!(dead[0].failures, 1);
    assert!(dead[0].last_error.is_some());
    // The survivor picked up the slack: all cells accounted for.
    assert_eq!(stats.iter().map(|s| s.cells).sum::<usize>(), cells.len());
}

/// Closed-loop cells over a 3-worker fleet with one rigged death:
/// driver-spawned flows are generated *inside* each worker's event
/// loop, so this pins that reactive workloads ship the same bytes as
/// the in-process executor — app metrics included — even across
/// reassignment after a worker dies.
#[test]
fn closed_loop_fleet_with_rigged_death_is_byte_identical() {
    use irn_core::sim::Duration;
    use irn_core::{TopologySpec, TrafficModel};
    let mk = |traffic: TrafficModel, seed: u64| {
        ExperimentConfig {
            topology: TopologySpec::SingleSwitch(8),
            traffic,
            ..ExperimentConfig::paper_default(1)
        }
        .with_seed(seed)
    };
    let cells: Vec<Scenario> = vec![
        Scenario::from_config(
            "rpc",
            mk(
                TrafficModel::RpcClosedLoop {
                    clients: 3,
                    ops_per_client: 5,
                    window: 2,
                    request_bytes: 15_000,
                    response_bytes: 800,
                    think: Duration::micros(30),
                    fanout: 2,
                },
                11,
            ),
        )
        .unwrap(),
        Scenario::from_config(
            "allreduce",
            mk(
                TrafficModel::Allreduce {
                    algorithm: irn_core::AllreduceAlgo::Ring,
                    participants: 6,
                    bytes: 150_000,
                    iterations: 2,
                },
                12,
            ),
        )
        .unwrap(),
        Scenario::from_config(
            "replicate",
            mk(
                TrafficModel::LeaderReplicate {
                    clients: 2,
                    followers: 3,
                    quorum: 2,
                    ops_per_client: 4,
                    request_bytes: 9_000,
                    ack_bytes: 64,
                    think: Duration::micros(20),
                },
                13,
            ),
        )
        .unwrap(),
        // One open-loop cell mixed in: reassignment order must not
        // depend on workload class.
        Scenario::from_config("poisson", ExperimentConfig::quick(30).with_seed(14)).unwrap(),
    ];
    let reference = ThreadExecutor::new(2).run_cells(&cells, None).unwrap();
    for (_, wall) in reference.iter().map(|o| (&o.result, o.wall)) {
        assert!(wall.as_nanos() > 0);
    }
    let pool = WorkerPool::new(PoolConfig::new(vec![
        spawn_spec(&[]),
        spawn_spec(&[]),
        spawn_spec(&["--exit-after", "0"]),
    ]));
    let got = pool.run_cells(&cells, None).unwrap();
    assert_eq!(
        result_trees(&got),
        result_trees(&reference),
        "closed-loop fleet diverged from in-process results"
    );
    // The app-metrics block crossed the wire for the closed-loop cells.
    for (o, label) in got.iter().zip(["rpc", "allreduce", "replicate"]) {
        assert!(
            o.result.app.is_some(),
            "{label} cell lost its app metrics over the wire"
        );
    }
    let stats = pool.worker_stats();
    assert_eq!(
        stats.iter().filter(|s| !s.alive).count(),
        1,
        "the rigged worker died: {stats:?}"
    );
    assert_eq!(stats.iter().map(|s| s.cells).sum::<usize>(), cells.len());
}

#[test]
fn fleet_trace_with_rigged_death_matches_in_process_bytes() {
    // The load-bearing trace invariant at fleet scope: a 3-worker pool
    // with one worker rigged to die on its very first cell must still
    // reassemble per-cell trace chunks into bytes identical to the
    // in-process executor — reassignment may not duplicate, drop, or
    // reorder a single line. (`--exit-after 0` rather than 1: every
    // worker is guaranteed a first cell, but with fewer cells than can
    // drain before the rigged worker asks again, a *second* frame may
    // never arrive and the death this test depends on would be racy.)
    let cells = batch(5);
    let spec = irn_telemetry::TraceSpec::default();
    let reference = ThreadExecutor::new(2)
        .run_cells(&cells, Some(&spec))
        .unwrap();
    let pool = WorkerPool::new(PoolConfig::new(vec![
        spawn_spec(&[]),
        spawn_spec(&[]),
        spawn_spec(&["--exit-after", "0"]),
    ]));
    let got = pool.run_cells(&cells, Some(&spec)).unwrap();
    assert_eq!(
        result_trees(&got),
        result_trees(&reference),
        "traced fleet diverged on results"
    );
    let lines = |outcomes: &[irn_harness::CellOutcome]| -> Vec<String> {
        outcomes
            .iter()
            .flat_map(|o| o.trace.as_ref().expect("chunk per cell").lines.clone())
            .collect()
    };
    assert_eq!(
        lines(&got),
        lines(&reference),
        "fleet trace bytes diverged from in-process run"
    );
    let stats = pool.worker_stats();
    assert_eq!(
        stats.iter().filter(|s| !s.alive).count(),
        1,
        "the rigged worker died: {stats:?}"
    );
    assert_eq!(stats.iter().map(|s| s.cells).sum::<usize>(), cells.len());
}

#[test]
fn hung_worker_times_out_and_batch_completes() {
    // A listener that accepts but never answers stands in for a hung
    // worker; the per-cell timeout must forfeit its cell to the healthy
    // one instead of stalling the batch.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        let conns: Vec<_> = listener.incoming().take(1).collect();
        std::thread::sleep(std::time::Duration::from_secs(20));
        drop(conns);
    });

    let cells = batch(3);
    let reference = ThreadExecutor::new(1).run_cells(&cells, None).unwrap();
    let mut cfg = PoolConfig::new(vec![spawn_spec(&[]), WorkerSpec::Connect { addr }]);
    cfg.cell_timeout = std::time::Duration::from_secs(2);
    let pool = WorkerPool::new(cfg);
    let got = pool.run_cells(&cells, None).unwrap();
    assert_eq!(result_trees(&got), result_trees(&reference));
    let stats = pool.worker_stats();
    let hung = stats
        .iter()
        .find(|s| !s.alive)
        .expect("hung worker dropped");
    assert!(
        hung.last_error
            .as_deref()
            .unwrap_or("")
            .contains("timed out"),
        "{stats:?}"
    );
    drop(pool); // closes the held connection so the holder thread can end
    hold.join().unwrap();
}

#[test]
fn an_answered_error_is_final() {
    // An in-test "worker" that answers every work frame with an error
    // frame: the connection stays healthy and the answer is final, so
    // the pool sends the cell once, keeps the worker, and fails the
    // batch with CellFailed. The server counts the work frames it saw.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = stream;
        let mut frames = 0;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            frames += 1;
            let id = serde::json::from_str(&line)
                .ok()
                .and_then(|v| v.get("id").and_then(serde::json::Value::as_u64));
            let reply = format!(
                "{{\"frame\":\"error-v1\",\"id\":{},\"error\":\"synthetic refusal\"}}\n",
                id.map_or("null".to_string(), |i| i.to_string())
            );
            if out.write_all(reply.as_bytes()).is_err() {
                break;
            }
        }
        frames
    });

    let pool = WorkerPool::new(PoolConfig::new(vec![WorkerSpec::Connect { addr }]));
    let err = pool.run_cells(&batch(1), None).unwrap_err();
    match &err {
        HarnessError::CellFailed {
            index,
            attempts,
            detail,
            completed,
            total,
            ..
        } => {
            assert_eq!((*index, *attempts), (0, 1));
            assert_eq!(detail, "synthetic refusal", "{err}");
            assert_eq!((*completed, *total), (0, 1));
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(err.partial_progress(), Some((0, 1)));
    let stats = pool.worker_stats();
    assert!(stats[0].alive, "an answering worker stays in the fleet");
    drop(pool);
    assert_eq!(server.join().unwrap(), 1, "the cell was sent once");
}

#[test]
fn pool_plugs_into_harness_and_replicate_layers() {
    // The whole orchestration stack above the seam — Harness, batches —
    // runs unchanged on the distributed backend.
    let pool = Arc::new(WorkerPool::new(PoolConfig::new(vec![
        spawn_spec(&[]),
        spawn_spec(&[]),
    ])));
    let distributed = Harness::with_executor(pool);
    let cells = batch(4);
    let a = distributed.try_run(&cells, None).unwrap();
    let b = Harness::serial().try_run(&cells, None).unwrap();
    assert_eq!(result_trees(&a), result_trees(&b));
}

// ---------------------------------------------------------------------
// CLI-level differentials: the full coordinator binary, diffed by byte
// ---------------------------------------------------------------------

struct CliRun {
    stdout: Vec<u8>,
    json: Vec<u8>,
    status: std::process::ExitStatus,
}

/// Run `repro fig1 --seeds 2 --json <tmp>` with extra args; capture
/// stdout bytes and the emitted envelope bytes.
fn run_fig1(tag: &str, extra: &[&str]) -> CliRun {
    let dir = std::env::temp_dir().join(format!("irn-worker-test-{tag}-{}", std::process::id()));
    let out = Command::new(repro_exe())
        .args(["fig1", "--seeds", "2", "--json"])
        .arg(&dir)
        .args(extra)
        .output()
        .expect("repro runs");
    let json = std::fs::read(dir.join("fig1.json")).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    CliRun {
        stdout: out.stdout,
        json,
        status: out.status,
    }
}

#[test]
fn cli_worker_mode_is_byte_identical_at_1_2_4_workers() {
    let reference = run_fig1("ref", &["--jobs", "2"]);
    assert!(reference.status.success());
    assert!(!reference.stdout.is_empty() && !reference.json.is_empty());
    for fleet in ["1", "2", "4"] {
        let got = run_fig1(&format!("w{fleet}"), &["--workers", fleet]);
        assert!(got.status.success(), "fleet of {fleet} failed");
        assert_eq!(
            got.stdout, reference.stdout,
            "stdout diverged at --workers {fleet}"
        );
        assert_eq!(
            got.json, reference.json,
            "JSON envelope diverged at --workers {fleet}"
        );
    }
}

#[test]
fn cli_coordinator_survives_worker_killed_mid_batch() {
    // A TCP worker rigged to die on its first cell, fronted by one
    // healthy spawned worker: the coordinator must finish the batch via
    // reassignment with byte-identical output.
    let mut victim = Command::new(repro_exe())
        .args(["worker", "--listen", "127.0.0.1:0", "--exit-after", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim worker starts");
    let addr = read_listen_addr(&mut victim);

    let reference = run_fig1("kref", &["--jobs", "1"]);
    let got = run_fig1("kill", &["--workers", "1", "--connect", &addr]);
    let _ = victim.wait();
    assert!(
        got.status.success(),
        "coordinator failed after worker death"
    );
    assert_eq!(
        got.stdout, reference.stdout,
        "stdout changed after reassignment"
    );
    assert_eq!(
        got.json, reference.json,
        "envelope changed after reassignment"
    );
}

#[test]
fn cli_quorum_loss_exits_2_with_partial_report() {
    // Port 1 refuses connections: the whole (single-worker) fleet is
    // gone before the first cell, which must be the typed exit(2) path
    // (the batch ends when no worker is left).
    let out = Command::new(repro_exe())
        .args(["fig1", "--seeds", "2", "--connect", "127.0.0.1:1"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no partial report rows on stdout");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("every worker was lost"), "{err}");
    assert!(err.contains("0/4 cells"), "partial progress missing: {err}");
}

#[test]
fn cli_memory_json_gauge_validates_and_is_jobs_invariant() {
    // The memory-v1 gauge is determinism-class deterministic: the same
    // batch at --jobs 1 and --jobs 2 must write byte-identical files,
    // and the file must pass the diff-memory validator (self-diff shows
    // zero drift, exit 0, no warning annotations).
    let dir = std::env::temp_dir().join(format!("irn-memgauge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gauge = |jobs: &str| -> Vec<u8> {
        let path = dir.join(format!("mem-j{jobs}.json"));
        let out = Command::new(repro_exe())
            .args(["fig1", "--seeds", "2", "--jobs", jobs, "--memory-json"])
            .arg(&path)
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "--jobs {jobs} run failed");
        std::fs::read(&path).expect("gauge file written")
    };
    let j1 = gauge("1");
    let j2 = gauge("2");
    assert_eq!(j1, j2, "memory gauge bytes depend on --jobs");

    let path = dir.join("mem-j1.json");
    let out = Command::new(repro_exe())
        .args(["diff-memory"])
        .arg(&path)
        .arg(&path)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(0), "self-diff must validate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fig1"), "gauge row missing: {text}");
    assert!(
        !text.contains("::warning"),
        "self-diff produced drift warnings: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_memory_json_malformed_path_exits_2() {
    // A directory where a file is needed must die before the batch
    // runs, on the input-error path (exit 2, nothing on stdout).
    let out = Command::new(repro_exe())
        .args(["fig1", "--seeds", "2", "--memory-json"])
        .arg(std::env::temp_dir())
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no report rows before the failure");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--memory-json"), "{err}");
}

#[test]
fn cli_diff_memory_rejects_non_gauge_files() {
    let path = std::env::temp_dir().join(format!("irn-notgauge-{}.json", std::process::id()));
    std::fs::write(&path, "{\"schema\":\"bench-trajectory-v1\"}").unwrap();
    let out = Command::new(repro_exe())
        .args(["diff-memory"])
        .arg(&path)
        .arg(&path)
        .output()
        .expect("repro runs");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("memory-v1"), "{err}");
}

/// The measuring options this registry no longer has are not quietly
/// accepted: each is a usage error naming the unknown artifact or flag.
#[test]
fn cli_retired_measuring_options_exit_2_by_name() {
    let exits_2 = |argv: &[&str], needle: &str| {
        let out = Command::new(repro_exe()).args(argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} printed a report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{argv:?}: {err}");
    };
    exits_2(&["diff-timing", "a", "b"], "unknown artifact 'diff-timing'");
    exits_2(&["fig1", "--drift-pct", "5"], "unknown flag '--drift-pct'");
    let argv = ["diff-memory", "a", "b", "--fail-on-drift"];
    exits_2(&argv, "unknown flag '--fail-on-drift'");
    exits_2(&["table1"], "unknown artifact 'table1'");
    // Scenario files are positional; the flag that also spelled them is gone.
    let argv = ["run", "--scenario", "examples/kv-rpc.json"];
    exits_2(&argv, "unknown flag '--scenario'");
    // The batch ends when no worker is left; there is no quorum to set.
    exits_2(&["fig1", "--quorum", "2"], "unknown flag '--quorum'");
}

/// Read the `listening HOST:PORT` line a `--listen 127.0.0.1:0` worker
/// prints once bound.
fn read_listen_addr(worker: &mut Child) -> String {
    let stdout = worker.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
        .trim()
        .to_string();
    assert!(addr.contains(':'), "{addr}");
    addr
}
