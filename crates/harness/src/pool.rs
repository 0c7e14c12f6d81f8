//! The distributed executor backend: a coordinator sharding one batch
//! across worker *processes* (spawned children or TCP peers) speaking
//! the `work-v1` protocol.
//!
//! The design follows the centralized-coordinator shape of RDMA
//! control planes (RDMAvisor): one coordinator owns the submission
//! queue; workers are stateless and interchangeable. Each worker
//! connection is driven by one dispatcher thread that pulls the next
//! unclaimed cell, ships it as a work frame, and waits (bounded) for
//! the matching result frame. Results land in submission-indexed slots,
//! so the assembled output is **byte-identical to the in-process
//! executor at any worker count** — the same guarantee, one seam up.
//!
//! Robustness is first-class, not best-effort:
//!
//! - **Per-cell timeout** — a hung worker forfeits its cell.
//! - **An answer is final** — an `error-v1` answer (the run cannot
//!   finish, or the frame was refused) fails the batch at once with
//!   [`HarnessError::CellFailed`]; the worker stays in the fleet.
//! - **Bounded reassignment** — a cell lost to a worker death, timeout
//!   or garbage goes to the front of the queue for the next live
//!   worker, three attempts in all; the worker is dropped. When none is
//!   left with work remaining, the batch fails with
//!   [`HarnessError::FleetLost`] and its completed/total counts.
//!
//! Cells are pure functions of their scenarios: a rerun of an answered
//! cell would fail the same way, and a reassigned cell cannot change
//! any byte (duplicated late results are dropped first-write-wins).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use irn_core::Scenario;
use irn_telemetry::TraceSpec;
use serde::json::{self, Value};
use serde::Serialize;

use crate::error::HarnessError;
use crate::exec::{parse_trace, CellOutcome, Executor};
use crate::wire::{self, Frame};

/// How to reach one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerSpec {
    /// Spawn a local worker process speaking `work-v1` on its
    /// stdin/stdout (e.g. `repro worker`). `argv[0]` is the program.
    Spawn {
        /// Program and arguments.
        argv: Vec<String>,
    },
    /// Connect to a listening worker (`repro worker --listen ADDR`).
    Connect {
        /// `host:port` of the listener.
        addr: String,
    },
}

impl WorkerSpec {
    fn label(&self, index: usize) -> String {
        match self {
            WorkerSpec::Spawn { .. } => format!("spawn#{index}"),
            WorkerSpec::Connect { addr } => addr.clone(),
        }
    }
}

/// Coordinator policy knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// The fleet, one spec per worker.
    pub specs: Vec<WorkerSpec>,
    /// Per-cell wall-clock budget on a worker; past it the cell is
    /// forfeited and reassigned (and the worker is presumed hung and
    /// dropped from the fleet).
    pub cell_timeout: Duration,
    /// Emit live per-cell progress lines on stderr (`[pool] …`).
    /// Retry/reassignment and worker-drop warnings are printed
    /// regardless — failures are never silent.
    pub progress: bool,
    /// Mirror every fleet event (cell completions, retries, worker
    /// drops, the batch summary) as NDJSON (`fleet-progress-v1`) to
    /// this file. Timing class: wall clocks and worker assignment are
    /// nondeterministic; nothing here feeds result bytes.
    pub progress_json: Option<PathBuf>,
}

impl PoolConfig {
    /// A config with the default policy: 300 s per cell, progress lines
    /// off.
    pub fn new(specs: Vec<WorkerSpec>) -> PoolConfig {
        PoolConfig {
            specs,
            cell_timeout: Duration::from_secs(300),
            progress: false,
            progress_json: None,
        }
    }
}

/// Why one attempt on one worker failed — the retry/reassignment
/// reason logged with the worker id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The connection died: write/read failure or EOF (worker process
    /// death, socket closed).
    Death,
    /// The cell overran [`PoolConfig::cell_timeout`]; the worker is
    /// presumed hung.
    Timeout,
    /// The worker sent something undecodable or protocol-violating.
    Garbage,
    /// The worker stayed healthy but answered with an error frame:
    /// final for the cell.
    ErrorFrame,
}

impl FailReason {
    /// Stable lowercase label used in stderr lines and progress JSON.
    pub fn label(self) -> &'static str {
        match self {
            FailReason::Death => "death",
            FailReason::Timeout => "timeout",
            FailReason::Garbage => "garbage",
            FailReason::ErrorFrame => "error-frame",
        }
    }
}

/// Attempts a cell gets when workers are lost running it (deaths,
/// timeouts, garbage). An answered error gets one.
const MAX_ATTEMPTS: usize = 3;

/// Per-worker observations from the last batch (wall clock, never in
/// result bytes: reported on stderr and in the bench-trajectory JSON,
/// never in artifact envelopes).
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Display name (`spawn#i` or the connect address).
    pub name: String,
    /// Cells this worker completed.
    pub cells: usize,
    /// Summed worker-side wall-clock seconds over those cells.
    pub cell_wall_s: f64,
    /// Failed attempts charged to this worker (timeouts, deaths,
    /// worker-reported errors).
    pub failures: usize,
    /// False once the coordinator dropped the worker from the fleet.
    pub alive: bool,
    /// The last failure's description, if any.
    pub last_error: Option<String>,
}

impl WorkerStats {
    fn new(name: String) -> WorkerStats {
        WorkerStats {
            name,
            cells: 0,
            cell_wall_s: 0.0,
            failures: 0,
            alive: true,
            last_error: None,
        }
    }

    /// Zeroed counters for each worker of a fleet.
    fn fresh(specs: &[WorkerSpec]) -> Vec<WorkerStats> {
        let named = specs.iter().enumerate();
        named.map(|(i, s)| WorkerStats::new(s.label(i))).collect()
    }
}

/// The distributed [`Executor`]: shards each batch across the
/// configured worker fleet.
pub struct WorkerPool {
    cfg: PoolConfig,
    stats: Mutex<Vec<WorkerStats>>,
}

impl WorkerPool {
    /// Build a pool. Panics on an empty fleet — a caller (CLI-layer)
    /// validation bug, not a runtime condition.
    pub fn new(cfg: PoolConfig) -> WorkerPool {
        assert!(
            !cfg.specs.is_empty(),
            "worker pool needs at least one worker"
        );
        WorkerPool {
            stats: Mutex::new(WorkerStats::fresh(&cfg.specs)),
            cfg,
        }
    }

    /// Per-worker observations from the most recent batch (zeroed
    /// counters before the first).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.stats.lock().expect("stats lock").clone()
    }
}

// ---------------------------------------------------------------------
// One worker connection
// ---------------------------------------------------------------------

/// A live connection to one worker: a writer for work frames, a
/// channel of incoming lines (pumped by a detached reader thread — it
/// exits on EOF, which killing the connection forces), and the handle
/// needed to force that EOF.
struct Conn {
    writer: Box<dyn Write + Send>,
    lines: Receiver<std::io::Result<String>>,
    child: Option<Child>,
    tcp: Option<TcpStream>,
}

impl Conn {
    fn open(spec: &WorkerSpec) -> std::io::Result<Conn> {
        match spec {
            WorkerSpec::Spawn { argv } => {
                let (prog, rest) = argv.split_first().ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty spawn argv")
                })?;
                let mut child = Command::new(prog)
                    .args(rest)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()?;
                let stdin = child.stdin.take().expect("piped stdin");
                let stdout = child.stdout.take().expect("piped stdout");
                Ok(Conn {
                    writer: Box::new(stdin),
                    lines: spawn_reader(BufReader::new(stdout)),
                    child: Some(child),
                    tcp: None,
                })
            }
            WorkerSpec::Connect { addr } => {
                let stream = TcpStream::connect(addr)?;
                let reader = stream.try_clone()?;
                Ok(Conn {
                    writer: Box::new(stream.try_clone()?),
                    lines: spawn_reader(BufReader::new(reader)),
                    child: None,
                    tcp: Some(stream),
                })
            }
        }
    }

    /// Force the connection down: kill the child / shut the socket.
    /// The reader thread sees EOF and exits; any blocked receive gets
    /// a disconnect. Also reaps a killed child so no zombie outlives
    /// the batch.
    fn kill(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(tcp) = &self.tcp {
            let _ = tcp.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Pump lines off a reader into a channel from a detached thread, so
/// dispatchers can wait with a timeout. The thread exits at EOF or
/// when the receiver is dropped.
fn spawn_reader(reader: impl BufRead + Send + 'static) -> Receiver<std::io::Result<String>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in reader.lines() {
            let stop = line.is_err();
            if tx.send(line).is_err() || stop {
                break;
            }
        }
    });
    rx
}

/// Why one attempt failed, classified for retry logging and fleet
/// policy (a dead connection drops the worker from the fleet).
struct AttemptError {
    detail: String,
    reason: FailReason,
}

/// Run one cell on one worker: ship the work frame, wait (bounded) for
/// the matching result.
fn attempt(
    conn: &mut Conn,
    id: usize,
    cell: &Scenario,
    timeout: Duration,
    trace: Option<&TraceSpec>,
) -> Result<CellOutcome, AttemptError> {
    let fail = |reason: FailReason, detail: String| AttemptError { detail, reason };
    let frame = wire::encode_work(id as u64, cell, trace);
    conn.writer
        .write_all(frame.as_bytes())
        .and_then(|()| conn.writer.write_all(b"\n"))
        .and_then(|()| conn.writer.flush())
        .map_err(|e| fail(FailReason::Death, format!("write failed: {e}")))?;

    // Counted down from the send, never added to a clock: a timeout no
    // instant can represent just waits (`recv_timeout` takes any length).
    let sent = Instant::now();
    loop {
        let remaining = timeout.saturating_sub(sent.elapsed());
        let line = match conn.lines.recv_timeout(remaining) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(fail(FailReason::Death, format!("read failed: {e}"))),
            Err(RecvTimeoutError::Timeout) => {
                return Err(fail(
                    FailReason::Timeout,
                    format!("timed out after {timeout:.1?}"),
                ))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(fail(
                    FailReason::Death,
                    "worker connection closed".to_string(),
                ))
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match wire::decode(&line) {
            Ok(Frame::Result {
                id: rid,
                wall_s,
                result,
                trace: chunk,
            }) if rid == id as u64 => {
                return Ok(CellOutcome {
                    result: *result,
                    // `wire::decode` admits only a `wall_s` that fits.
                    wall: Duration::from_secs_f64(wall_s),
                    trace: chunk,
                });
            }
            Ok(Frame::Error { id: eid, message }) if eid.is_none() || eid == Some(id as u64) => {
                // The worker answered: the connection is healthy, the
                // cell (or our frame) is the problem.
                return Err(fail(FailReason::ErrorFrame, message));
            }
            Ok(other) => {
                return Err(fail(
                    FailReason::Garbage,
                    format!(
                        "protocol violation: unexpected frame {other:?} while cell {id} in flight"
                    ),
                ))
            }
            Err(e) => return Err(fail(FailReason::Garbage, format!("undecodable frame: {e}"))),
        }
    }
}

// ---------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------

/// The schema tag written as the first field of every progress line.
pub const PROGRESS_SCHEMA: &str = "fleet-progress-v1";

/// Fleet progress sink shared by every dispatcher thread: optional
/// human lines on stderr, optional NDJSON mirror. Failure/warning
/// lines print regardless of the `progress` knob; the JSON mirror gets
/// every event. All of it is wall clock, never in result bytes.
struct Progress {
    stderr: bool,
    json: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
}

impl Progress {
    fn open(cfg: &PoolConfig) -> Result<Progress, HarnessError> {
        let json = match &cfg.progress_json {
            None => None,
            Some(path) => Some(std::io::BufWriter::new(
                std::fs::File::create(path).map_err(|e| HarnessError::ProgressUnavailable {
                    path: path.display().to_string(),
                    detail: e.to_string(),
                })?,
            )),
        };
        Ok(Progress {
            stderr: cfg.progress,
            json: Mutex::new(json),
        })
    }

    /// Emit one event. `always` forces the stderr line even with
    /// progress lines off (used for warnings and failures). `fields`
    /// follow the `schema` and `event` keys in the JSON mirror.
    fn emit(&self, always: bool, event: &str, human: &str, fields: Vec<(String, Value)>) {
        if self.stderr || always {
            eprintln!("{human}");
        }
        if let Some(w) = self.json.lock().expect("progress sink").as_mut() {
            let mut obj = vec![
                ("schema".to_string(), PROGRESS_SCHEMA.to_json()),
                ("event".to_string(), event.to_json()),
            ];
            obj.extend(fields);
            let _ = writeln!(w, "{}", json::to_string(&Value::Object(obj)));
            let _ = w.flush();
        }
    }
}

/// Shared batch state behind one mutex; the condvar wakes dispatchers
/// on new pending work and the supervisor on completion/failure.
struct BatchState {
    pending: VecDeque<usize>,
    attempts: Vec<usize>,
    slots: Vec<Option<CellOutcome>>,
    done: usize,
    live: usize,
    fatal: Option<HarnessError>,
}

impl Executor for WorkerPool {
    fn run_cells(
        &self,
        cells: &[Scenario],
        trace: Option<&TraceSpec>,
    ) -> Result<Vec<CellOutcome>, HarnessError> {
        // Fail fast on a malformed filter instead of letting every
        // worker report it back per-cell.
        parse_trace(trace)?;
        let progress = Progress::open(&self.cfg)?;
        let total = cells.len();
        if total == 0 {
            *self.stats.lock().expect("stats lock") = WorkerStats::fresh(&self.cfg.specs);
            return Ok(Vec::new());
        }

        let state = Mutex::new(BatchState {
            pending: (0..total).collect(),
            attempts: vec![0; total],
            slots: (0..total).map(|_| None).collect(),
            done: 0,
            live: self.cfg.specs.len(),
            fatal: None,
        });
        let cvar = Condvar::new();

        let run_stats = std::thread::scope(|scope| {
            let (state, cvar, cfg, progress) = (&state, &cvar, &self.cfg, &progress);
            let dispatchers: Vec<_> = cfg
                .specs
                .iter()
                .enumerate()
                .map(|(w, spec)| {
                    scope.spawn(move || dispatch(w, spec, cells, cfg, state, cvar, progress, trace))
                })
                .collect();
            // Supervise: wake on every completion or fleet change.
            let mut st = state.lock().expect("state lock");
            while st.fatal.is_none() && st.done < total {
                st = cvar.wait(st).expect("state lock");
            }
            // On failure, dispatchers blocked on a slow cell would
            // otherwise run out their full timeout; fatal is already
            // set, so they exit at their next state check. Nothing to
            // force here — their connections die with their Conn drop.
            drop(st);
            // Each dispatcher returns its worker's stats; a panic in one
            // is re-raised here, as the scope would raise it.
            dispatchers
                .into_iter()
                .map(|d| d.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        *self.stats.lock().expect("stats lock") = run_stats;

        let mut st = state.into_inner().expect("state lock");
        let ok = st.fatal.is_none();
        progress.emit(
            false,
            "batch",
            &format!(
                "[pool] batch {}: {}/{} cells",
                if ok { "complete" } else { "abandoned" },
                st.done,
                total
            ),
            vec![
                ("done".to_string(), (st.done as u64).to_json()),
                ("total".to_string(), (total as u64).to_json()),
                ("ok".to_string(), ok.to_json()),
            ],
        );
        if let Some(fatal) = st.fatal.take() {
            return Err(fatal);
        }
        Ok(st
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("cell {i} has no outcome")))
            .collect())
    }

    fn concurrency(&self) -> usize {
        self.cfg.specs.len()
    }
}

/// One worker's dispatcher loop: connect, then pull-ship-collect until
/// the batch finishes, the fleet fails, or this worker dies.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    w: usize,
    spec: &WorkerSpec,
    cells: &[Scenario],
    cfg: &PoolConfig,
    state: &Mutex<BatchState>,
    cvar: &Condvar,
    progress: &Progress,
    trace: Option<&TraceSpec>,
) -> WorkerStats {
    let total = cells.len();
    let mut stats = WorkerStats::new(spec.label(w));

    /// Drop this worker from the fleet, failing the batch if it was the
    /// last one with work left.
    fn retire(st: &mut BatchState, total: usize) {
        st.live -= 1;
        if st.live == 0 && st.done < total && st.fatal.is_none() {
            st.fatal = Some(HarnessError::FleetLost {
                completed: st.done,
                total,
            });
        }
    }

    let mut conn = match Conn::open(spec) {
        Ok(conn) => conn,
        Err(e) => {
            stats.alive = false;
            stats.last_error = Some(format!("unavailable: {e}"));
            let mut st = state.lock().expect("state lock");
            retire(&mut st, total);
            cvar.notify_all();
            drop(st);
            progress.emit(
                true,
                "worker-dropped",
                &format!("[pool] worker {}: unavailable: {e}", stats.name),
                vec![
                    ("worker".to_string(), stats.name.to_json()),
                    ("reason".to_string(), "unavailable".to_json()),
                    ("detail".to_string(), e.to_string().to_json()),
                ],
            );
            return stats;
        }
    };

    loop {
        // Claim the next cell, or wait for one to be reassigned.
        let idx = {
            let mut st = state.lock().expect("state lock");
            loop {
                if st.fatal.is_some() || st.done == total {
                    return stats;
                }
                if let Some(idx) = st.pending.pop_front() {
                    break idx;
                }
                st = cvar.wait(st).expect("state lock");
            }
        };

        match attempt(&mut conn, idx, &cells[idx], cfg.cell_timeout, trace) {
            Ok(outcome) => {
                stats.cells += 1;
                stats.cell_wall_s += outcome.wall.as_secs_f64();
                let wall_s = outcome.wall.as_secs_f64();
                let slow = outcome.wall.saturating_mul(2) >= cfg.cell_timeout;
                let mut st = state.lock().expect("state lock");
                // First write wins: a reassigned twin of this cell may
                // already have landed; results are identical anyway.
                if st.slots[idx].is_none() {
                    st.slots[idx] = Some(outcome);
                    st.done += 1;
                }
                let done = st.done;
                drop(st);
                cvar.notify_all();
                progress.emit(
                    false,
                    "cell",
                    &format!(
                        "[pool] {}: cell #{idx} '{}' done in {wall_s:.2}s [{done}/{total}]",
                        stats.name,
                        cells[idx].name()
                    ),
                    vec![
                        ("worker".to_string(), stats.name.to_json()),
                        ("cell".to_string(), (idx as u64).to_json()),
                        ("label".to_string(), cells[idx].name().to_json()),
                        ("wall_s".to_string(), wall_s.to_json()),
                        ("done".to_string(), (done as u64).to_json()),
                        ("total".to_string(), (total as u64).to_json()),
                    ],
                );
                if slow {
                    progress.emit(
                        true,
                        "slow-cell",
                        &format!(
                            "[pool] {}: slow cell #{idx} '{}': {wall_s:.2}s is over half \
                             the {:.0?} timeout — a reassignment of this cell would be \
                             expensive",
                            stats.name,
                            cells[idx].name(),
                            cfg.cell_timeout
                        ),
                        vec![
                            ("worker".to_string(), stats.name.to_json()),
                            ("cell".to_string(), (idx as u64).to_json()),
                            ("label".to_string(), cells[idx].name().to_json()),
                            ("wall_s".to_string(), wall_s.to_json()),
                            (
                                "timeout_s".to_string(),
                                cfg.cell_timeout.as_secs_f64().to_json(),
                            ),
                        ],
                    );
                }
            }
            Err(err) => {
                stats.failures += 1;
                stats.last_error = Some(err.detail.clone());
                // Only an answer leaves the connection fit for more work.
                let (reason, conn_dead) = (err.reason, err.reason != FailReason::ErrorFrame);
                let mut st = state.lock().expect("state lock");
                st.attempts[idx] += 1;
                let attempt_no = st.attempts[idx];
                // An answer is final; a lost cell gets MAX_ATTEMPTS.
                let exhausted = !conn_dead || attempt_no >= MAX_ATTEMPTS;
                if !exhausted {
                    // Reassign at the front so a live worker picks the
                    // orphan up before new work.
                    st.pending.push_front(idx);
                } else if st.fatal.is_none() {
                    st.fatal = Some(HarnessError::CellFailed {
                        index: idx,
                        label: cells[idx].name().to_string(),
                        attempts: attempt_no,
                        detail: if conn_dead {
                            format!(
                                "lost on all {attempt_no} attempts, the last: {}",
                                err.detail
                            )
                        } else {
                            err.detail.clone()
                        },
                        completed: st.done,
                        total,
                    });
                }
                if conn_dead {
                    stats.alive = false;
                    retire(&mut st, total);
                }
                cvar.notify_all();
                drop(st);
                progress.emit(
                    true,
                    "retry",
                    &format!(
                        "[pool] worker {}: cell #{idx} '{}' attempt {attempt_no}/{MAX_ATTEMPTS} \
                         failed (reason: {}): {}{}",
                        stats.name,
                        cells[idx].name(),
                        reason.label(),
                        err.detail,
                        if exhausted {
                            "; batch fails"
                        } else {
                            "; reassigning to the next live worker"
                        },
                    ),
                    vec![
                        ("worker".to_string(), stats.name.to_json()),
                        ("cell".to_string(), (idx as u64).to_json()),
                        ("label".to_string(), cells[idx].name().to_json()),
                        ("reason".to_string(), reason.label().to_json()),
                        ("attempt".to_string(), (attempt_no as u64).to_json()),
                        ("max_attempts".to_string(), (MAX_ATTEMPTS as u64).to_json()),
                        ("detail".to_string(), err.detail.to_json()),
                        ("exhausted".to_string(), exhausted.to_json()),
                    ],
                );
                if conn_dead {
                    progress.emit(
                        true,
                        "worker-dropped",
                        &format!(
                            "[pool] worker {}: dropped from the fleet (reason: {})",
                            stats.name,
                            reason.label()
                        ),
                        vec![
                            ("worker".to_string(), stats.name.to_json()),
                            ("reason".to_string(), reason.label().to_json()),
                        ],
                    );
                    conn.kill();
                    return stats;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_label_spawn_and_connect_differently() {
        let s = WorkerSpec::Spawn {
            argv: vec!["repro".into(), "worker".into()],
        };
        assert_eq!(s.label(2), "spawn#2");
        let c = WorkerSpec::Connect {
            addr: "127.0.0.1:7401".into(),
        };
        assert_eq!(c.label(0), "127.0.0.1:7401");
    }

    #[test]
    fn unspawnable_fleet_fails_with_quorum_loss_not_hang() {
        let pool = WorkerPool::new(PoolConfig::new(vec![
            WorkerSpec::Spawn {
                argv: vec!["/nonexistent/worker-binary".into()],
            },
            WorkerSpec::Connect {
                // Reserved port on localhost that nothing listens on —
                // connect fails fast.
                addr: "127.0.0.1:1".into(),
            },
        ]));
        let cfg = irn_core::ExperimentConfig::quick(10);
        let cells = vec![Scenario::from_config("unreachable", cfg).unwrap()];
        let err = pool.run_cells(&cells, None).unwrap_err();
        assert_eq!(
            err,
            HarnessError::FleetLost {
                completed: 0,
                total: 1
            }
        );
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| !s.alive));
        assert!(stats.iter().all(|s| s.last_error.is_some()));
    }

    #[test]
    fn empty_batch_never_contacts_the_fleet() {
        let pool = WorkerPool::new(PoolConfig::new(vec![WorkerSpec::Connect {
            addr: "127.0.0.1:1".into(),
        }]));
        assert!(pool.run_cells(&[], None).unwrap().is_empty());
        assert!(pool.worker_stats().iter().all(|s| s.alive));
    }
}
