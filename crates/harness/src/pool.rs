//! The distributed executor backend: a coordinator sharding one batch
//! across worker *processes* (spawned children or TCP peers) speaking
//! the `work-v1` protocol.
//!
//! The design follows the centralized-coordinator shape of RDMA
//! control planes (RDMAvisor): one coordinator owns the submission
//! queue; workers are stateless and interchangeable. The pool runs one
//! batch at a time (`run_cells` takes `&mut self`), and the calling
//! thread supervises it: it owns the queue, attempts, result slots,
//! per-worker stats and progress sink, and makes every decision.
//! Nothing is shared, so nothing is locked. Each worker connection has
//! one dispatcher thread that only moves frames: it ships each cell the
//! supervisor hands it and reports the answer back over a channel.
//! Results land in submission-indexed slots, so the assembled output is
//! **byte-identical to the in-process executor at any worker count** —
//! the same guarantee, one seam up.
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
//! - **Nothing outlives the batch** — when it ends, complete or failed,
//!   the supervisor kills every connection, so a failed batch never
//!   waits out a hung peer; a dispatcher that exits, by return or
//!   unwind, is reported by its drop guard.
//!
//! Cells are pure functions of their scenarios: a rerun of an answered
//! cell would fail the same way, and a reassigned cell cannot change
//! any byte.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use irn_core::Scenario;
use irn_telemetry::TraceSpec;
use serde::json::{self, Value};
use serde::Serialize;

use crate::error::HarnessError;
use crate::exec::{parse_trace, CellOutcome, Executor};
use crate::wire::{self, Frame, FrameError};

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
    /// Mirror every fleet event (cell completions, retries, worker
    /// drops, the batch summary), each also a `[pool] …` line on
    /// stderr, as NDJSON (`fleet-progress-v1`) to this file. Timing
    /// class: wall clocks and worker assignment are nondeterministic;
    /// nothing here feeds result bytes.
    pub progress_json: Option<PathBuf>,
}

impl PoolConfig {
    /// A config with the default policy: 300 s per cell, no JSON
    /// mirror.
    pub fn new(specs: Vec<WorkerSpec>) -> PoolConfig {
        PoolConfig {
            specs,
            cell_timeout: Duration::from_secs(300),
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
    stats: Vec<WorkerStats>,
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
            stats: WorkerStats::fresh(&cfg.specs),
            cfg,
        }
    }

    /// Per-worker observations from the most recent batch (zeroed
    /// counters before the first).
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.stats
    }
}

// ---------------------------------------------------------------------
// One worker connection
// ---------------------------------------------------------------------

/// One item off a worker's stream: a line, one that is not UTF-8, or a
/// read failure.
type Incoming = std::io::Result<Result<String, FrameError>>;

/// The dispatcher's half of a live connection to one worker: a writer
/// for work frames and a channel of incoming lines, pumped by a
/// detached reader thread that exits on EOF.
struct Conn {
    writer: Box<dyn Write + Send>,
    lines: Receiver<Incoming>,
}

/// The supervisor's half of a connection. Dropping it forces the
/// connection down — it kills and reaps the child, or shuts the socket —
/// so the reader thread sees EOF and a dispatcher waiting on the worker
/// gets a disconnect.
enum KillSwitch {
    Child(Child),
    Tcp(TcpStream),
}

impl Drop for KillSwitch {
    fn drop(&mut self) {
        match self {
            KillSwitch::Child(child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            KillSwitch::Tcp(tcp) => {
                let _ = tcp.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Conn {
    /// Connect to a worker whose replies may be up to `max_line` bytes.
    fn open(spec: &WorkerSpec, max_line: usize) -> std::io::Result<(Conn, KillSwitch)> {
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
                let conn = Conn {
                    writer: Box::new(stdin),
                    lines: spawn_reader(BufReader::new(stdout), max_line),
                };
                Ok((conn, KillSwitch::Child(child)))
            }
            WorkerSpec::Connect { addr } => {
                let stream = TcpStream::connect(addr)?;
                let conn = Conn {
                    writer: Box::new(stream.try_clone()?),
                    lines: spawn_reader(BufReader::new(stream.try_clone()?), max_line),
                };
                Ok((conn, KillSwitch::Tcp(stream)))
            }
        }
    }
}

/// Pump lines of at most `max_line` bytes off a worker's stream into a
/// channel from a detached thread, so a dispatcher can wait with a
/// timeout. The thread exits at EOF, on a read failure, after a line
/// that is not a frame (the worker is dropped for it, so nothing after
/// it is read), or when the receiver is dropped.
fn spawn_reader(reader: impl BufRead + Send + 'static, max_line: usize) -> Receiver<Incoming> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in wire::lines(reader, max_line) {
            let stop = !matches!(line, Ok(Ok(_)));
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

    // One wait, never added to a clock: a timeout no instant can
    // represent just waits (`recv_timeout` takes any length).
    let line = match conn.lines.recv_timeout(timeout) {
        Ok(Ok(line)) => line,
        Ok(Err(e)) => return Err(fail(FailReason::Death, format!("read failed: {e}"))),
        Err(RecvTimeoutError::Timeout) => {
            let detail = format!("timed out after {timeout:.1?}");
            return Err(fail(FailReason::Timeout, detail));
        }
        Err(RecvTimeoutError::Disconnected) => {
            return Err(fail(FailReason::Death, "worker connection closed".into()))
        }
    };
    match line.and_then(|line| wire::decode(&line)) {
        Ok(Frame::Result {
            id: rid,
            wall_s,
            result,
            trace: chunk,
        }) if rid == id as u64 => Ok(CellOutcome {
            result: *result,
            // `wire::decode` admits only a `wall_s` that fits.
            wall: Duration::from_secs_f64(wall_s),
            trace: chunk,
        }),
        // The worker answered: the connection is healthy, the cell (or
        // our frame) is the problem.
        Ok(Frame::Error { id: eid, message }) if eid.is_none() || eid == Some(id as u64) => {
            Err(fail(FailReason::ErrorFrame, message))
        }
        Ok(other) => {
            let what = match other {
                Frame::Result { id, .. } => format!("{} frame for cell {id}", wire::RESULT_SCHEMA),
                Frame::Work { id, .. } => format!("{} frame for cell {id}", wire::WORK_SCHEMA),
                Frame::Error { .. } => format!("{} frame for another cell", wire::ERROR_SCHEMA),
            };
            let detail = format!("protocol violation: unexpected {what} while cell {id} in flight");
            Err(fail(FailReason::Garbage, detail))
        }
        Err(e) => Err(fail(FailReason::Garbage, format!("undecodable frame: {e}"))),
    }
}

// ---------------------------------------------------------------------
// The coordinator: dispatchers move frames, the supervisor decides
// ---------------------------------------------------------------------

/// What a dispatcher tells the supervisor about its worker.
enum Report {
    /// Connected: the channel that hands this worker cells, and the
    /// switch that forces its connection down.
    Up(Sender<usize>, KillSwitch),
    /// The connection could not be opened.
    Unavailable(String),
    /// The attempt at this cell ended, with its outcome or why it failed.
    Done(usize, Box<Result<CellOutcome, AttemptError>>),
    /// The dispatcher has returned or unwound.
    Gone,
}

/// A dispatcher's line to the supervisor, tagged with its worker's
/// index. Dropping it sends [`Report::Gone`], so a return and an unwind
/// alike reach the supervisor.
struct Reporter(usize, Sender<(usize, Report)>);

impl Reporter {
    /// False once the supervisor has stopped listening.
    fn send(&self, report: Report) -> bool {
        self.1.send((self.0, report)).is_ok()
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.send(Report::Gone);
    }
}

/// One worker's dispatcher: connect, then ship each cell the supervisor
/// hands over and report how it ended, until the supervisor closes the
/// work channel or stops listening.
fn dispatch(
    spec: &WorkerSpec,
    cells: &[Scenario],
    timeout: Duration,
    trace: Option<&TraceSpec>,
    reporter: Reporter,
) {
    let (mut conn, kill) = match Conn::open(spec, wire::max_result_line(trace)) {
        Ok(opened) => opened,
        Err(e) => {
            reporter.send(Report::Unavailable(e.to_string()));
            return;
        }
    };
    let (work, assigned) = mpsc::channel();
    if !reporter.send(Report::Up(work, kill)) {
        return;
    }
    for idx in assigned {
        let outcome = attempt(&mut conn, idx, &cells[idx], timeout, trace);
        if !reporter.send(Report::Done(idx, Box::new(outcome))) {
            return;
        }
    }
}

/// The schema tag written as the first field of every progress line.
pub const PROGRESS_SCHEMA: &str = "fleet-progress-v1";

/// Fleet progress sink, owned by the supervisor: one human line on
/// stderr per event, and the optional NDJSON mirror. All of it is wall
/// clock, never in result bytes.
struct Progress {
    json: Option<std::io::BufWriter<std::fs::File>>,
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
        Ok(Progress { json })
    }

    /// Emit one event. `fields` follow the `schema` and `event` keys in
    /// the JSON mirror.
    fn emit(&mut self, event: &str, human: &str, fields: Vec<(&str, Value)>) {
        eprintln!("{human}");
        if let Some(w) = self.json.as_mut() {
            let mut obj = vec![
                ("schema".to_string(), PROGRESS_SCHEMA.to_json()),
                ("event".to_string(), event.to_json()),
            ];
            obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            let _ = writeln!(w, "{}", json::to_string(&Value::Object(obj)));
            let _ = w.flush();
        }
    }
}

/// One worker as the supervisor sees it.
struct Seat {
    stats: WorkerStats,
    /// The work channel and kill switch, from `Up` until the worker is
    /// dropped or the batch ends.
    link: Option<(Sender<usize>, KillSwitch)>,
    /// The cell this worker is running.
    cell: Option<usize>,
}

/// Everything one batch decides, owned by the supervisor's thread.
struct Batch<'a> {
    cells: &'a [Scenario],
    cfg: &'a PoolConfig,
    progress: Progress,
    pending: VecDeque<usize>,
    attempts: Vec<usize>,
    slots: Vec<Option<CellOutcome>>,
    done: usize,
    seats: Vec<Seat>,
}

impl Executor for WorkerPool {
    fn run_cells(
        &mut self,
        cells: &[Scenario],
        trace: Option<&TraceSpec>,
    ) -> Result<Vec<CellOutcome>, HarnessError> {
        // Fail fast on a malformed filter instead of letting every
        // worker report it back per-cell.
        parse_trace(trace)?;
        let total = cells.len();
        let mut batch = Batch {
            cells,
            cfg: &self.cfg,
            progress: Progress::open(&self.cfg)?,
            pending: (0..total).collect(),
            attempts: vec![0; total],
            slots: (0..total).map(|_| None).collect(),
            done: 0,
            seats: WorkerStats::fresh(&self.cfg.specs)
                .into_iter()
                .map(|stats| Seat {
                    stats,
                    link: None,
                    cell: None,
                })
                .collect(),
        };
        let ended = match total {
            0 => Ok(()),
            _ => batch.supervise(trace),
        };
        self.stats = batch.seats.into_iter().map(|seat| seat.stats).collect();
        ended?;
        Ok(batch
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

impl Batch<'_> {
    /// Run the batch: one dispatcher per worker, supervised until every
    /// cell has an outcome or the batch fails. Then the report channel
    /// closes (a late `Up` goes with it) and every link is dropped, which
    /// kills each connection: no dispatcher outlives the batch.
    fn supervise(&mut self, trace: Option<&TraceSpec>) -> Result<(), HarnessError> {
        let (cells, cfg, timeout) = (self.cells, self.cfg, self.cfg.cell_timeout);
        let (tx, reports) = mpsc::channel();
        let ended = std::thread::scope(|scope| {
            for (w, spec) in cfg.specs.iter().enumerate() {
                let reporter = Reporter(w, tx.clone());
                scope.spawn(move || dispatch(spec, cells, timeout, trace, reporter));
            }
            drop(tx);
            let ended = self.run(&reports);
            drop(reports);
            for seat in &mut self.seats {
                seat.link = None;
            }
            ended
        });
        let ok = ended.is_ok();
        let (done, total) = (self.done, cells.len());
        self.progress.emit(
            "batch",
            &format!(
                "[pool] batch {}: {done}/{total} cells",
                if ok { "complete" } else { "abandoned" },
            ),
            vec![
                ("done", (done as u64).to_json()),
                ("total", (total as u64).to_json()),
                ("ok", ok.to_json()),
            ],
        );
        ended
    }

    /// Hand pending cells to idle workers, then act on the next report,
    /// until every cell has an outcome or the batch fails.
    fn run(&mut self, reports: &Receiver<(usize, Report)>) -> Result<(), HarnessError> {
        let total = self.cells.len();
        loop {
            self.assign();
            if self.done == total {
                return Ok(());
            }
            // A dispatcher's `Gone` is queued before its sender drops, so
            // the channel closes only after the last worker is dropped.
            let fleet = self.seats.iter().any(|seat| seat.stats.alive);
            let Some((w, report)) = fleet.then(|| reports.recv().ok()).flatten() else {
                let completed = self.done;
                return Err(HarnessError::FleetLost { completed, total });
            };
            match report {
                Report::Up(work, kill) => self.seats[w].link = Some((work, kill)),
                Report::Unavailable(detail) => {
                    let stats = &mut self.seats[w].stats;
                    stats.alive = false;
                    stats.last_error = Some(format!("unavailable: {detail}"));
                    self.progress.emit(
                        "worker-dropped",
                        &format!("[pool] worker {}: unavailable: {detail}", stats.name),
                        vec![
                            ("worker", stats.name.to_json()),
                            ("reason", "unavailable".to_json()),
                            ("detail", detail.to_json()),
                        ],
                    );
                }
                Report::Done(idx, outcome) => {
                    self.seats[w].cell = None;
                    match *outcome {
                        Ok(outcome) => self.complete(w, idx, outcome),
                        Err(err) => self.lose(w, idx, err)?,
                    }
                }
                // A dispatcher still in the fleet exited on its own: the
                // cell it held, if any, is lost with it.
                Report::Gone if self.seats[w].stats.alive => {
                    let (detail, reason) = ("dispatcher exited".to_string(), FailReason::Death);
                    self.seats[w].stats.last_error = Some(detail.clone());
                    match self.seats[w].cell.take() {
                        Some(idx) => self.lose(w, idx, AttemptError { detail, reason })?,
                        None => self.drop_worker(w, reason),
                    }
                }
                Report::Gone => {}
            }
        }
    }

    /// Hand pending cells, front first, to every connected idle worker.
    fn assign(&mut self) {
        for seat in &mut self.seats {
            let (Some((work, _)), None) = (&seat.link, seat.cell) else {
                continue;
            };
            let Some(idx) = self.pending.pop_front() else {
                return;
            };
            // A dispatcher that has exited takes nothing; `Gone` is on its way.
            match work.send(idx) {
                Ok(()) => seat.cell = Some(idx),
                Err(mpsc::SendError(idx)) => self.pending.push_front(idx),
            }
        }
    }

    /// Worker `w` answered cell `idx`.
    fn complete(&mut self, w: usize, idx: usize, outcome: CellOutcome) {
        let (total, timeout) = (self.cells.len(), self.cfg.cell_timeout);
        let label = self.cells[idx].name();
        let wall_s = outcome.wall.as_secs_f64();
        let slow = outcome.wall.saturating_mul(2) >= timeout;
        let stats = &mut self.seats[w].stats;
        stats.cells += 1;
        stats.cell_wall_s += wall_s;
        self.slots[idx] = Some(outcome);
        self.done += 1;
        let done = self.done;
        self.progress.emit(
            "cell",
            &format!(
                "[pool] {}: cell #{idx} '{label}' done in {wall_s:.2}s [{done}/{total}]",
                stats.name,
            ),
            vec![
                ("worker", stats.name.to_json()),
                ("cell", (idx as u64).to_json()),
                ("label", label.to_json()),
                ("wall_s", wall_s.to_json()),
                ("done", (done as u64).to_json()),
                ("total", (total as u64).to_json()),
            ],
        );
        if slow {
            self.progress.emit(
                "slow-cell",
                &format!(
                    "[pool] {}: slow cell #{idx} '{label}': {wall_s:.2}s is over half \
                     the {timeout:.0?} timeout — a reassignment of this cell would be \
                     expensive",
                    stats.name,
                ),
                vec![
                    ("worker", stats.name.to_json()),
                    ("cell", (idx as u64).to_json()),
                    ("label", label.to_json()),
                    ("wall_s", wall_s.to_json()),
                    ("timeout_s", timeout.as_secs_f64().to_json()),
                ],
            );
        }
    }

    /// An attempt at cell `idx` on worker `w` failed. An answer is final;
    /// a lost cell goes back to the front of the queue until its
    /// attempts run out, and the worker that lost it is dropped.
    fn lose(&mut self, w: usize, idx: usize, err: AttemptError) -> Result<(), HarnessError> {
        let total = self.cells.len();
        let label = self.cells[idx].name();
        let stats = &mut self.seats[w].stats;
        stats.failures += 1;
        stats.last_error = Some(err.detail.clone());
        self.attempts[idx] += 1;
        let attempt_no = self.attempts[idx];
        // Only an answer leaves the connection fit for more work.
        let (reason, conn_dead) = (err.reason, err.reason != FailReason::ErrorFrame);
        let exhausted = !conn_dead || attempt_no >= MAX_ATTEMPTS;
        self.progress.emit(
            "retry",
            &format!(
                "[pool] worker {}: cell #{idx} '{label}' attempt {attempt_no}/{MAX_ATTEMPTS} \
                 failed (reason: {}): {}{}",
                stats.name,
                reason.label(),
                err.detail,
                if exhausted {
                    "; batch fails"
                } else {
                    "; reassigning to the next live worker"
                },
            ),
            vec![
                ("worker", stats.name.to_json()),
                ("cell", (idx as u64).to_json()),
                ("label", label.to_json()),
                ("reason", reason.label().to_json()),
                ("attempt", (attempt_no as u64).to_json()),
                ("max_attempts", (MAX_ATTEMPTS as u64).to_json()),
                ("detail", err.detail.to_json()),
                ("exhausted", exhausted.to_json()),
            ],
        );
        if conn_dead {
            self.drop_worker(w, reason);
        }
        if !exhausted {
            // The front, so a live worker picks the orphan up first.
            self.pending.push_front(idx);
            return Ok(());
        }
        Err(HarnessError::CellFailed {
            index: idx,
            label: label.to_string(),
            attempts: attempt_no,
            detail: match err.detail {
                last if conn_dead => format!("lost on all {attempt_no} attempts, the last: {last}"),
                answer => answer,
            },
            completed: self.done,
            total,
        })
    }

    /// Drop worker `w` from the fleet. Its link goes with it, which
    /// closes its work channel and kills its connection.
    fn drop_worker(&mut self, w: usize, reason: FailReason) {
        let seat = &mut self.seats[w];
        seat.stats.alive = false;
        seat.link = None;
        self.progress.emit(
            "worker-dropped",
            &format!(
                "[pool] worker {}: dropped from the fleet (reason: {})",
                seat.stats.name,
                reason.label()
            ),
            vec![
                ("worker", seat.stats.name.to_json()),
                ("reason", reason.label().to_json()),
            ],
        );
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
        let mut pool = WorkerPool::new(PoolConfig::new(vec![
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

    /// A worker line that is not UTF-8 is garbage, like any other bad
    /// frame: the worker is dropped and the cell is lost, not the stream
    /// read as a dead connection.
    #[test]
    fn a_non_utf8_line_drops_the_worker_as_garbage() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(b"\xff\n").unwrap();
            // Hold the connection until the coordinator closes it.
            let _ = std::io::Read::read_to_end(&mut stream, &mut Vec::new());
        });
        let json =
            std::env::temp_dir().join(format!("irn-pool-utf8-{}.ndjson", std::process::id()));
        let mut cfg = PoolConfig::new(vec![WorkerSpec::Connect { addr }]);
        cfg.progress_json = Some(json.clone());
        let mut pool = WorkerPool::new(cfg);
        let cells =
            vec![Scenario::from_config("c", irn_core::ExperimentConfig::quick(10)).unwrap()];
        let err = pool.run_cells(&cells, None).unwrap_err();
        assert_eq!(
            err,
            HarnessError::FleetLost {
                completed: 0,
                total: 1
            }
        );
        server.join().unwrap();
        let stats = pool.worker_stats();
        assert!(!stats[0].alive, "{stats:?}");
        let said = stats[0].last_error.as_deref().unwrap_or("");
        assert!(said.contains("not UTF-8"), "{said}");
        let events = std::fs::read_to_string(&json).unwrap();
        let _ = std::fs::remove_file(&json);
        assert!(
            events
                .lines()
                .any(|l| l.contains(r#""event":"worker-dropped""#)
                    && l.contains(r#""reason":"garbage""#)),
            "{events}"
        );
    }

    #[test]
    fn empty_batch_never_contacts_the_fleet() {
        let mut pool = WorkerPool::new(PoolConfig::new(vec![WorkerSpec::Connect {
            addr: "127.0.0.1:1".into(),
        }]));
        assert!(pool.run_cells(&[], None).unwrap().is_empty());
        assert!(pool.worker_stats().iter().all(|s| s.alive));
    }
}
