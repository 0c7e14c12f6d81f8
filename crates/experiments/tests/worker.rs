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

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};

use irn_core::{ExperimentConfig, Scenario};
use irn_experiments::{artifacts, scenario_plan};
use irn_harness::{Executor, HarnessError, PoolConfig, ThreadExecutor, WorkerPool, WorkerSpec};
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
        let mut pool = WorkerPool::new(PoolConfig::new(
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
    let mut pool = WorkerPool::new(PoolConfig::new(vec![
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

/// Copy `from` into `to` until either side closes, passing each read on
/// at once. (`std::io::copy` may splice a socket into a pipe, and was
/// seen to hold a work frame back from the worker waiting for it.)
fn pump(mut from: impl Read, mut to: impl Write) {
    let mut buf = [0u8; 64 * 1024];
    while let Ok(n @ 1..) = from.read(&mut buf) {
        if to.write_all(&buf[..n]).and_then(|()| to.flush()).is_err() {
            break;
        }
    }
}

/// A real `repro worker` (with `extra` arguments) behind a local port.
/// It starts once the coordinator has connected and `before` has
/// returned; two pumps then carry frames between the connection and the
/// worker's pipes, and the connection goes down when the worker exits,
/// after which `after` runs. The thread ends with the worker: when it
/// dies, or when the coordinator closes the connection.
fn worker_behind_port(
    extra: &'static [&'static str],
    before: impl FnOnce() + Send + 'static,
    after: impl FnOnce() + Send + 'static,
) -> (WorkerSpec, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        before();
        let mut worker = Command::new(repro_exe())
            .arg("worker")
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("worker starts");
        let (stdin, stdout) = (worker.stdin.take().unwrap(), worker.stdout.take().unwrap());
        let inbound = stream.try_clone().unwrap();
        let frames_in = std::thread::spawn(move || pump(inbound, stdin));
        pump(stdout, &stream);
        let _ = stream.shutdown(std::net::Shutdown::Both);
        worker.wait().unwrap();
        after();
        frames_in.join().unwrap();
    });
    (WorkerSpec::Connect { addr }, server)
}

/// Three real workers, the third rigged to die on its first cell
/// (`--exit-after 0`) and sure to be handed one: the two healthy workers
/// start only once it has died, so neither can finish a cell, let alone
/// the batch, before it has taken its own.
fn fleet_with_a_rigged_death() -> (PoolConfig, Vec<std::thread::JoinHandle<()>>) {
    let died = Arc::new(Barrier::new(3));
    let wait = |died: &Arc<Barrier>| {
        let died = died.clone();
        move || {
            died.wait();
        }
    };
    let (first, serving_first) = worker_behind_port(&[], wait(&died), || {});
    let (second, serving_second) = worker_behind_port(&[], wait(&died), || {});
    let (rigged, serving_rigged) = worker_behind_port(&["--exit-after", "0"], || {}, wait(&died));
    let cfg = PoolConfig::new(vec![first, second, rigged]);
    (cfg, vec![serving_first, serving_second, serving_rigged])
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
    let (cfg, serving) = fleet_with_a_rigged_death();
    let (outcome, stats, _) = run_bounded(cfg, cells.clone());
    for server in serving {
        server.join().unwrap();
    }
    let got = outcome.unwrap();
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
    // reorder a single line. (The healthy workers start only once the
    // rigged one has died on its first cell: otherwise they could drain
    // the batch before it is handed one.)
    let cells = batch(5);
    let spec = irn_telemetry::TraceSpec::default();
    let reference = ThreadExecutor::new(2)
        .run_cells(&cells, Some(&spec))
        .unwrap();
    let (cfg, serving) = fleet_with_a_rigged_death();
    let mut pool = WorkerPool::new(cfg);
    let got = pool.run_cells(&cells, Some(&spec)).unwrap();
    for server in serving {
        server.join().unwrap();
    }
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
    let mut pool = WorkerPool::new(cfg);
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

    let mut pool = WorkerPool::new(PoolConfig::new(vec![WorkerSpec::Connect { addr }]));
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
fn a_worker_lying_about_wall_time_is_dropped_not_fatal() {
    // An in-test "worker" that runs each cell for real but reports 1e20
    // seconds, more than a `Duration` holds. The frame is garbage: the
    // liar is dropped and, as the only worker, the batch ends with a
    // typed FleetLost — no panicked dispatcher, no supervisor waiting
    // forever. The pool runs on its own thread so a hang fails the test.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let cells = batch(1);
    let run = irn_core::Simulation::new(cells[0].config().clone()).run();
    let liar = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = stream;
        let mut work = String::new();
        while reader.read_line(&mut work).is_ok_and(|n| n > 0) {
            let reply = irn_harness::wire::encode_result(0, 1e20, &run, None);
            if writeln!(out, "{reply}").is_err() {
                break;
            }
            work.clear();
        }
    });

    let (tx, rx) = std::sync::mpsc::channel();
    let coordinator = std::thread::spawn(move || {
        let mut pool = WorkerPool::new(PoolConfig::new(vec![WorkerSpec::Connect { addr }]));
        let outcome = pool.run_cells(&cells, None).map(|_| ());
        let _ = tx.send((outcome, pool.worker_stats().to_vec()));
    });
    let (outcome, stats) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the batch hung: no outcome within 60 s");
    coordinator.join().unwrap();
    liar.join().unwrap(); // the dropped connection ends its loop
    assert_eq!(
        outcome,
        Err(HarnessError::FleetLost {
            completed: 0,
            total: 1
        })
    );
    assert!(!stats[0].alive, "{stats:?}");
    let said = stats[0].last_error.as_deref().unwrap_or("");
    assert!(said.contains("at wall_s"), "{said}");
}

/// An in-test "worker" on a local port: it accepts one connection and
/// sends back, for each incoming line, the lines `reply` returns (none
/// for a worker that hangs). The thread ends when the coordinator closes
/// the connection.
fn fake_worker(
    reply: impl Fn(&str) -> Vec<String> + Send + 'static,
) -> (WorkerSpec, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = stream;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if reply(&line).iter().any(|r| writeln!(out, "{r}").is_err()) {
                break;
            }
        }
    });
    (WorkerSpec::Connect { addr }, server)
}

/// The id of a work frame, as a fake worker reads it.
fn work_id(line: &str) -> u64 {
    match irn_harness::wire::decode(line) {
        Ok(irn_harness::wire::Frame::Work { id, .. }) => id,
        other => panic!("a fake worker got {other:?}"),
    }
}

/// A batch's outcome, the pool's worker stats and how long it took.
type Ran = (
    Result<Vec<irn_harness::CellOutcome>, HarnessError>,
    Vec<irn_harness::WorkerStats>,
    std::time::Duration,
);

/// Run a batch on its own thread, so a hang fails the test at 60 s
/// instead of stalling the suite.
fn run_bounded(cfg: PoolConfig, cells: Vec<Scenario>) -> Ran {
    let (tx, rx) = std::sync::mpsc::channel();
    let coordinator = std::thread::spawn(move || {
        let mut pool = WorkerPool::new(cfg);
        let start = std::time::Instant::now();
        let outcome = pool.run_cells(&cells, None);
        let _ = tx.send((outcome, pool.worker_stats().to_vec(), start.elapsed()));
    });
    let ran = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the batch hung: no outcome within 60 s");
    coordinator.join().unwrap();
    ran
}

#[test]
fn a_failed_batch_does_not_wait_for_a_hung_peer() {
    // One worker refuses every cell; the other accepts the connection
    // and never answers. The refusal is final, so the batch fails at
    // once: the hung peer's cell is abandoned with its connection, not
    // waited out for the 60 s cell timeout, and it is never reported as
    // reassigned.
    let (refuser, refusing) = fake_worker(|line| {
        let id = work_id(line);
        vec![irn_harness::wire::encode_error(
            Some(id),
            "synthetic refusal",
        )]
    });
    let (hung, hanging) = fake_worker(|_| Vec::new());
    let json = std::env::temp_dir().join(format!("irn-hung-peer-{}.ndjson", std::process::id()));
    let mut cfg = PoolConfig::new(vec![refuser, hung]);
    cfg.cell_timeout = std::time::Duration::from_secs(60);
    cfg.progress_json = Some(json.clone());
    let (outcome, stats, took) = run_bounded(cfg, batch(2));
    refusing.join().unwrap();
    hanging.join().unwrap(); // the coordinator closed its connection
    match outcome {
        Err(HarnessError::CellFailed {
            attempts, detail, ..
        }) => {
            assert_eq!(attempts, 1);
            assert_eq!(detail, "synthetic refusal");
        }
        other => panic!("wrong outcome: {other:?}"),
    }
    assert!(took < std::time::Duration::from_secs(10), "took {took:?}");
    assert!(stats[0].alive, "an answering worker stays: {stats:?}");
    let events = std::fs::read_to_string(&json).unwrap();
    let _ = std::fs::remove_file(&json);
    assert!(
        !events.contains(r#""exhausted":false"#),
        "a cell was reassigned after the batch failed: {events}"
    );
    assert!(events.contains(r#""ok":false"#), "{events}");
}

/// A worker that answers with a result for a cell it was not given is
/// lying: it is dropped as garbage, the cell goes to the healthy worker
/// beside it, and the bytes are the in-process executor's.
#[test]
fn a_result_for_a_cell_never_sent_drops_the_liar() {
    let cells = batch(6);
    let reference = ThreadExecutor::new(2).run_cells(&cells, None).unwrap();
    let results: Vec<_> = reference.iter().map(|o| o.result.clone()).collect();
    let (liar, lying) = fake_worker(move |line| {
        let id = work_id(line);
        let other = &results[id as usize];
        vec![irn_harness::wire::encode_result(
            id + 1000,
            0.01,
            other,
            None,
        )]
    });
    let cfg = PoolConfig::new(vec![spawn_spec(&[]), liar]);
    let (outcome, stats, _) = run_bounded(cfg, cells);
    lying.join().unwrap();
    assert_eq!(result_trees(&outcome.unwrap()), result_trees(&reference));
    assert!(stats[0].alive && !stats[1].alive, "{stats:?}");
    let said = stats[1].last_error.as_deref().unwrap_or("");
    assert!(
        said.contains("unexpected result-v1 frame for cell 100"),
        "{said}"
    );
}

/// A worker that answers one cell twice is lying too: the first answer
/// counts, the second arrives while its next cell is in flight and
/// drops it, and that cell goes to the healthy worker.
#[test]
fn the_same_cell_answered_twice_drops_the_liar() {
    let cells = batch(6);
    let reference = ThreadExecutor::new(2).run_cells(&cells, None).unwrap();
    let results: Vec<_> = reference.iter().map(|o| o.result.clone()).collect();
    let (liar, lying) = fake_worker(move |line| {
        let id = work_id(line);
        let answer = irn_harness::wire::encode_result(id, 0.01, &results[id as usize], None);
        vec![answer.clone(), answer]
    });
    let cfg = PoolConfig::new(vec![spawn_spec(&[]), liar]);
    let (outcome, stats, _) = run_bounded(cfg, cells);
    lying.join().unwrap();
    assert_eq!(result_trees(&outcome.unwrap()), result_trees(&reference));
    assert!(stats[0].alive && !stats[1].alive, "{stats:?}");
    assert_eq!(stats[1].cells, 1, "the first answer counts: {stats:?}");
    let said = stats[1].last_error.as_deref().unwrap_or("");
    assert!(
        said.contains("unexpected result-v1 frame for cell"),
        "{said}"
    );
}

#[test]
fn pool_plugs_into_harness_and_replicate_layers() {
    // The whole orchestration stack above the seam — the global batch,
    // the seed fan-out, the folds — runs unchanged on the distributed
    // backend.
    let items: Vec<_> = (batch(2).iter())
        .map(|cell| (cell.slug(), scenario_plan(cell, 2)))
        .collect();
    let rendered = |exec: &mut dyn Executor| -> Vec<String> {
        let run = artifacts::run_batch(&items, exec, None).unwrap();
        run.items.iter().map(|item| item.report.render()).collect()
    };
    let mut pool = WorkerPool::new(PoolConfig::new(vec![spawn_spec(&[]), spawn_spec(&[])]));
    let distributed = rendered(&mut pool);
    assert_eq!(distributed, rendered(&mut ThreadExecutor::new(1)));
    assert_eq!(
        pool.worker_stats().iter().map(|s| s.cells).sum::<usize>(),
        4
    );
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
    // Peak memory is the benchmark's `peak_rss_mb` and the counting-
    // allocator tests'; there is no analytic gauge file to write or diff.
    exits_2(&["diff-memory", "a", "b"], "unknown artifact 'diff-memory'");
    let argv = ["fig1", "--memory-json", "f"];
    exits_2(&argv, "unknown flag '--memory-json'");
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

/// Run two cells on a spawned worker beside `peer`, a worker whose
/// every reply is garbage, and check the peer is dropped as garbage,
/// its cell reassigned, and the bytes are the in-process executor's.
fn a_garbage_peer_is_dropped(peer: WorkerSpec, tag: &str) -> String {
    let cells = batch(2);
    let reference = ThreadExecutor::new(2).run_cells(&cells, None).unwrap();
    let json = std::env::temp_dir().join(format!("irn-{tag}-{}.ndjson", std::process::id()));
    let mut cfg = PoolConfig::new(vec![spawn_spec(&[]), peer]);
    cfg.progress_json = Some(json.clone());
    let (outcome, stats, _) = run_bounded(cfg, cells);
    assert_eq!(result_trees(&outcome.unwrap()), result_trees(&reference));
    assert!(stats[0].alive && !stats[1].alive, "{stats:?}");
    assert_eq!(stats[1].cells, 0, "{stats:?}");
    let events = std::fs::read_to_string(&json).unwrap();
    let _ = std::fs::remove_file(&json);
    assert!(
        events.contains(r#""reason":"garbage","attempt":1,"max_attempts":3"#)
            && events.contains(r#""exhausted":false"#),
        "the cell must be reassigned: {events}"
    );
    stats[1].last_error.clone().unwrap_or_default()
}

#[test]
fn a_reply_longer_than_the_bound_drops_the_worker() {
    // One byte past what a result frame of an untraced batch may hold,
    // newline-terminated.
    let long = "x".repeat(irn_harness::wire::max_result_line(None) + 1);
    let (peer, serving) = fake_worker(move |_| vec![long.clone()]);
    let said = a_garbage_peer_is_dropped(peer, "long-line");
    serving.join().unwrap();
    assert!(said.contains("line longer than"), "{said}");
}

#[test]
fn a_reply_that_never_ends_drops_the_worker() {
    // The peer answers its first work frame with bytes and no newline,
    // until the coordinator closes the connection: the frame is
    // reported at the bound, not read until memory runs out.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let endless = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = stream;
        let mut work = String::new();
        if reader.read_line(&mut work).is_ok_and(|n| n > 0) {
            let chunk = [b'z'; 64 * 1024];
            while out.write_all(&chunk).is_ok() {}
        }
    });
    let said = a_garbage_peer_is_dropped(WorkerSpec::Connect { addr }, "endless");
    endless.join().unwrap(); // the closed connection fails its writes
    assert!(said.contains("line longer than"), "{said}");
}

/// A worker that answers each cell with its true result, doctored by
/// `lie` into a well-formed `result-v1` frame whose metrics do not
/// read: dropped as garbage, naming the member's path.
fn a_lying_result_drops_the_worker(lie: fn(String) -> String, tag: &str) -> String {
    let reference = ThreadExecutor::new(2).run_cells(&batch(2), None).unwrap();
    let results: Vec<_> = reference.into_iter().map(|o| o.result).collect();
    let (liar, lying) = fake_worker(move |line| {
        let id = work_id(line);
        let frame = irn_harness::wire::encode_result(id, 0.01, &results[id as usize], None);
        let doctored = lie(frame.clone());
        assert_ne!(doctored, frame, "the lie changed nothing");
        vec![doctored]
    });
    let said = a_garbage_peer_is_dropped(liar, tag);
    lying.join().unwrap();
    said
}

#[test]
fn a_result_with_an_unknown_metrics_key_drops_the_worker() {
    let said = a_lying_result_drops_the_worker(
        |frame| frame.replacen(r#""metrics":{"#, r#""metrics":{"bogus":1,"#, 1),
        "unknown-metrics-key",
    );
    assert!(
        said.contains("at result.metrics.bogus: unknown field"),
        "{said}"
    );
}

#[test]
fn a_result_repeating_a_histogram_total_drops_the_worker() {
    let said = a_lying_result_drops_the_worker(
        |frame| {
            let at = frame.find(r#""fct_hist":{"#).unwrap() + r#""fct_hist":{"#.len();
            let total = &frame[at..at + frame[at..].find(',').unwrap()];
            format!("{}{total},{}", &frame[..at], &frame[at..])
        },
        "repeated-hist-total",
    );
    assert!(
        said.contains("at result.metrics.fct_hist.total: duplicate field"),
        "{said}"
    );
}
