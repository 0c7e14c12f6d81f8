//! `repro` — regenerate the paper's figures and tables, and run
//! arbitrary user scenarios.
//!
//! ```text
//! repro [flags] <artifact>... | all        regenerate registry artifacts
//! repro run [flags] FILE...                execute scenario-v1 files
//! repro worker [--listen ADDR]             serve work-v1 frames for a
//!                                          coordinator (stdin/stdout or TCP)
//! repro emit-scenario [--full] <artifact>... --json DIR
//!                                          dump an artifact's logical cells
//!                                          as editable scenario files
//! repro trace-summarize FILE               aggregate a trace-v1 file into
//!                                          per-kind / per-flow / per-op tables
//! repro [--full] [--seeds N] --list        registry: name, class, workload,
//!                                          seeds, cells
//! repro --verify-json DIR                  validate an emitted JSON directory
//! ```
//!
//! `--trace FILE` turns the flight recorder on for every cell of the
//! batch and writes one `trace-v1` NDJSON file (`--trace-filter`
//! selects events; grammar and event-kind reference: docs/TRACING.md).
//! Trace bytes are a pure function of the configs — byte-identical at
//! any `--jobs` and across any worker fleet.
//!
//! Quick scale runs a k=4 fat-tree (16 hosts) with hundreds of flows —
//! seconds per artifact. `--full` runs the paper's k=6/54-host default
//! with thousands of flows. Poisson-workload artifacts and scenario
//! runs replicate every cell over `--seeds` seeds (default 5) and
//! report mean ± ci95.
//!
//! All requested artifacts (or scenarios) are scheduled as **one global
//! batch**: every simulation cell goes to the `--jobs` workers
//! (default: all cores) in a single submission-ordered queue, so the
//! pool never drains between artifacts. Reports still print in
//! presentation order and are byte-identical at any job count.
//!
//! The batch can also be sharded across worker *processes*:
//! `--workers N` spawns N local `repro worker` children, `--connect
//! HOST:PORT` (repeatable) adds remote workers started with `repro
//! worker --listen ADDR`, and the two compose. Results assemble in
//! submission order, so coordinator output is **byte-identical** to the
//! in-process executor at any fleet size — even when a worker dies
//! mid-batch and its cells are reassigned (`--cell-timeout` bounds a
//! hung worker). A run that cannot finish (event budget, deadlock)
//! fails the batch once, with one `error:` line on every executor, as
//! does losing every worker; both report partial progress and exit 2.
//! `--json DIR` additionally writes one schema-versioned JSON file per
//! artifact or scenario (format: docs/SCHEMA.md; scenario files:
//! docs/SCENARIOS.md).
//!
//! Every byte on stdout and in `--json DIR` is a pure function of the
//! config. Wall time stays out: per-artifact and batch-wide events/sec
//! go to **stderr**, and `--timing-json FILE` writes the executor's
//! observations (cells, per-worker shares, batch seconds) as a
//! `bench-trajectory-v1` side file. Neither is a benchmark — perf
//! claims cite the `BENCHMARK.json` command (benchmark/README.md).
//!
//! Exit codes: 0 success, 1 verification failure (or an output write
//! failing after the batch), 2 usage error or a batch that cannot
//! finish — including unknown artifact names, unknown flags, invalid
//! scenario files (every user-reachable config mistake is a typed
//! `ScenarioError`, never a panic), and an output path that cannot be
//! written: every `--json`, `--timing-json`, `--trace` and
//! `--progress-json` destination is checked before any cell runs.
//!
//! The usage text, flag parsing, mode dispatch and flag applicability
//! all derive from one [`FLAGS`] table and one [`MODES`] table: the
//! first positional word picks the mode (a subcommand, else artifact
//! names), `--list` / `--verify-json` pick it when there are no
//! positionals, and a supplied flag whose `modes` column does not name
//! the active mode is a usage error — never silently ignored (a
//! dropped `--timing-json` would read as "timing was captured" when it
//! wasn't).

use irn_core::Scenario;
use irn_experiments::artifacts::{self, BatchRun, ItemRun, TraceHeader, ARTIFACTS};
use irn_experiments::{scenario_json, scenario_plan, Plan, Scale};
use irn_harness::{
    worker, Executor, HarnessError, PoolConfig, ThreadExecutor, WorkerOptions, WorkerPool,
    WorkerSpec, WorkerStats,
};
use irn_telemetry::{TraceFilter, TraceSpec};
use serde::json::{self, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// The mode and flag tables: single source for usage text, parsing,
// dispatch, and errors
// ---------------------------------------------------------------------

/// One way to invoke `repro`: the word that selects it (a subcommand,
/// or `--list` / `--verify-json` themselves), its usage line, and its
/// entry point.
struct Mode {
    word: &'static str,
    synopsis: &'static str,
    what: &'static str,
    run: fn(&Args),
}

/// The default mode (artifact names, no subcommand word) comes first.
const MODES: &[Mode] = &[
    Mode {
        word: "artifact",
        synopsis: "repro [flags] <artifact>... | all",
        what: "regenerate registry artifacts",
        run: artifact_mode,
    },
    Mode {
        word: "run",
        synopsis: "repro run [flags] FILE...",
        what: "execute scenario-v1 files",
        run: run_scenarios_mode,
    },
    Mode {
        word: "worker",
        synopsis: "repro worker [--listen ADDR]",
        what: "serve work-v1 frames for a coordinator (stdin/stdout or TCP)",
        run: worker_mode,
    },
    Mode {
        word: "emit-scenario",
        synopsis: "repro emit-scenario <artifact>... --json DIR",
        what: "dump an artifact's logical cells as editable scenario files",
        run: emit_scenario_mode,
    },
    Mode {
        word: "trace-summarize",
        synopsis: "repro trace-summarize FILE",
        what: "aggregate a trace-v1 file into per-kind / per-flow / per-op tables",
        run: trace_summarize_mode,
    },
    Mode {
        word: "--list",
        synopsis: "repro [--full] [--seeds N] --list",
        what: "print the artifact registry: name, class, workload, seeds, cells",
        run: list_mode,
    },
    Mode {
        word: "--verify-json",
        synopsis: "repro --verify-json DIR",
        what: "validate every *.json envelope in DIR",
        run: verify_json_mode,
    },
];

/// One command-line flag: its spelling, how it sets [`Args`], help
/// line, and the modes (by [`Mode::word`]) it applies to.
struct FlagSpec {
    name: &'static str,
    takes: Takes,
    help: &'static str,
    modes: &'static [&'static str],
}

/// How a flag sets [`Args`]: on its own, or from the next word (named by
/// the metavar in the usage text), which it checks as it parses — a bad
/// value dies here, before anything is planned. The value setter gets
/// the flag's name for its messages.
enum Takes {
    Nothing(fn(&mut Args)),
    Value(&'static str, fn(&mut Args, &str, String)),
}

/// The two modes that run a batch.
const BATCH: &[&str] = &["artifact", "run"];

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--full",
        takes: Takes::Nothing(|a| a.full = true),
        help: "paper scale (k=6 fat-tree, 54 hosts) instead of quick",
        modes: &["artifact", "run", "emit-scenario", "--list"],
    },
    FlagSpec {
        name: "--seeds",
        takes: Takes::Value("N", |a, flag, v| {
            a.seeds = Some(positive_int(flag, &v, 1_000))
        }),
        help: "seed replicates per Poisson/scenario cell (default 5, at most 1000)",
        modes: &["artifact", "run", "--list"],
    },
    FlagSpec {
        name: "--jobs",
        // Unbounded: the thread pool never starts more threads than the
        // batch has cells.
        takes: Takes::Value("N", |a, flag, v| {
            a.jobs = Some(positive_int(flag, &v, usize::MAX))
        }),
        help: "worker threads for the global batch (default: all cores)",
        modes: BATCH,
    },
    FlagSpec {
        name: "--workers",
        takes: Takes::Value("N", |a, flag, v| {
            a.workers = Some(positive_int(flag, &v, 256))
        }),
        help: "shard the batch across N spawned 'repro worker' processes (at most 256)",
        modes: BATCH,
    },
    FlagSpec {
        name: "--connect",
        takes: Takes::Value("ADDR", |a, flag, addr| {
            // A portless address would otherwise surface later as a
            // confusing connection failure mid-coordinator-start.
            if !addr.contains(':') {
                fail(format_args!("{flag} needs HOST:PORT, got '{addr}'"));
            }
            a.connect.push(addr);
        }),
        help: "add a listening worker at HOST:PORT to the fleet; repeatable",
        modes: BATCH,
    },
    FlagSpec {
        name: "--cell-timeout",
        takes: Takes::Value("SECS", |a, flag, v| {
            a.cell_timeout = Some(positive_int(flag, &v, usize::MAX) as u64)
        }),
        help: "per-cell worker timeout before reassignment (default 300)",
        modes: BATCH,
    },
    FlagSpec {
        name: "--listen",
        takes: Takes::Value("ADDR", |a, _, v| a.listen = Some(v)),
        help: "serve coordinators over TCP instead of stdin",
        modes: &["worker"],
    },
    FlagSpec {
        name: "--exit-after",
        // 0 is meaningful here (die on the very first cell), so this is
        // the one numeric flag that admits it.
        takes: Takes::Value("N", |a, flag, v| {
            a.exit_after = Some(v.parse::<usize>().unwrap_or_else(|_| {
                fail(format_args!(
                    "{flag} needs a non-negative integer, got '{v}'"
                ))
            }))
        }),
        help: "die mid-cell after N answers (fault-injection)",
        modes: &["worker"],
    },
    FlagSpec {
        name: "--json",
        takes: Takes::Value("DIR", |a, _, v| a.json_dir = Some(v.into())),
        help: "write one schema-v2 JSON envelope per report into DIR",
        modes: &["artifact", "run", "emit-scenario"],
    },
    FlagSpec {
        name: "--timing-json",
        takes: Takes::Value("FILE", |a, _, v| a.timing_json = Some(v.into())),
        help: "write the executor's bench-trajectory-v1 side file to FILE",
        modes: BATCH,
    },
    FlagSpec {
        name: "--trace",
        takes: Takes::Value("FILE", |a, _, v| a.trace = Some(v.into())),
        help: "record a trace-v1 NDJSON flight-recorder file of the batch",
        modes: BATCH,
    },
    FlagSpec {
        name: "--trace-filter",
        takes: Takes::Value("SPEC", |a, flag, expr| {
            if let Err(e) = TraceFilter::parse(&expr) {
                fail(format_args!("{flag}: {e}"));
            }
            a.trace_filter = Some(expr);
        }),
        help: "event selection for --trace, e.g. kind=pfc.*,flow=3 (docs/TRACING.md)",
        modes: BATCH,
    },
    FlagSpec {
        name: "--progress-json",
        takes: Takes::Value("FILE", |a, _, v| a.progress_json = Some(v.into())),
        help: "write fleet-progress-v1 NDJSON events (needs --workers/--connect)",
        modes: BATCH,
    },
    FlagSpec {
        name: "--list",
        takes: Takes::Nothing(|_| {}),
        help: "print the artifact registry and exit",
        modes: &["--list"],
    },
    FlagSpec {
        name: "--verify-json",
        takes: Takes::Value("DIR", |a, _, v| a.verify_dir = Some(v.into())),
        help: "validate every *.json envelope in DIR and exit",
        modes: &["--verify-json"],
    },
];

fn usage() -> ! {
    eprintln!("usage:");
    for m in MODES {
        eprintln!("  {:<44} {}", m.synopsis, m.what);
    }
    eprintln!("flags (and the modes each applies to):");
    for f in FLAGS {
        let head = match f.takes {
            Takes::Value(metavar, _) => format!("{} {metavar}", f.name),
            Takes::Nothing(_) => f.name.to_string(),
        };
        eprintln!("  {head:<20} {} [{}]", f.help, f.modes.join(" "));
    }
    eprintln!("artifacts:");
    for chunk in ARTIFACTS.chunks(8) {
        let names: Vec<&str> = chunk.iter().map(|a| a.name).collect();
        eprintln!("  {}", names.join(" "));
    }
    std::process::exit(2);
}

/// Every malformed-flag path funnels through here: message, usage,
/// exit(2).
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    usage();
}

/// A user-input error where repeating the usage text would bury the
/// message (bad scenario file, unreadable input): message, exit(2).
fn fail_input(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The one writer to stdout. A reader that closed early (`repro all |
/// head`) ends the process quietly with exit 0, as SIGPIPE would end a
/// filter; any other stdout error is exit 2 with the message.
fn emit(text: std::fmt::Arguments) {
    use std::io::{ErrorKind, Write as _};
    match std::io::stdout().write_fmt(text) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail_input(format_args!("cannot write to stdout: {e}")),
    }
}

/// `println!` for this binary: through [`emit`].
macro_rules! outln {
    () => { emit(format_args!("\n")) };
    ($($t:tt)*) => { emit(format_args!("{}\n", format_args!($($t)*))) };
}

#[derive(Default)]
struct Args {
    full: bool,
    seeds: Option<usize>,
    jobs: Option<usize>,
    workers: Option<usize>,
    connect: Vec<String>,
    cell_timeout: Option<u64>,
    listen: Option<String>,
    exit_after: Option<usize>,
    json_dir: Option<PathBuf>,
    timing_json: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_filter: Option<String>,
    progress_json: Option<PathBuf>,
    verify_dir: Option<PathBuf>,
    positionals: Vec<String>,
    /// The flags actually supplied, in command-line order.
    supplied: Vec<&'static FlagSpec>,
}

impl Args {
    /// The mode this command line selects: the first positional word
    /// when there is one (a subcommand, else artifact names), otherwise
    /// the first supplied flag that is itself a mode.
    fn mode(&self) -> &'static Mode {
        let by_word = |word: &str| MODES.iter().find(|m| m.word == word);
        match self.positionals.first() {
            Some(word) => by_word(word),
            None => self.supplied.iter().find_map(|f| by_word(f.name)),
        }
        .unwrap_or(&MODES[0])
    }

    /// Reject every supplied flag whose `modes` column does not name
    /// `mode`.
    fn restrict_flags(&self, mode: &str) {
        for f in &self.supplied {
            if !f.modes.contains(&mode) {
                fail(format_args!(
                    "{} does not apply to the '{mode}' mode",
                    f.name
                ));
            }
        }
    }

    /// The experiment scale `--full` and `--seeds` select.
    fn scale(&self) -> Scale {
        let scale = if self.full {
            Scale::full()
        } else {
            Scale::quick()
        };
        self.seeds.map_or(scale, |seeds| scale.with_seeds(seeds))
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            args.positionals.push(arg);
            continue;
        }
        let Some(spec) = FLAGS.iter().find(|f| f.name == arg) else {
            fail(format_args!("unknown flag '{arg}'"));
        };
        args.supplied.push(spec);
        match spec.takes {
            Takes::Nothing(set) => set(&mut args),
            Takes::Value(metavar, set) => {
                let Some(value) = it.next() else {
                    fail(format_args!("{} needs {metavar}", spec.name));
                };
                set(&mut args, spec.name, value);
            }
        }
    }
    args
}

/// `v` as an integer in `1..=max`; anything else exits 2 naming `flag`.
fn positive_int(flag: &str, v: &str, max: usize) -> usize {
    let n = v
        .parse::<usize>()
        .ok()
        .filter(|n| *n >= 1)
        .unwrap_or_else(|| fail(format_args!("{flag} needs a positive integer, got '{v}'")));
    if n > max {
        fail(format_args!("{flag} takes at most {max}, got {n}"));
    }
    n
}

// ---------------------------------------------------------------------
// Executor backend selection
// ---------------------------------------------------------------------

/// The executor the batch modes run on: the in-process thread pool by
/// default, or a [`WorkerPool`] coordinator when `--workers`/`--connect`
/// ask for one (which also reports per-worker timing).
enum Backend {
    Threads(ThreadExecutor),
    Fleet(WorkerPool),
}

impl Backend {
    fn executor(&mut self) -> &mut dyn Executor {
        match self {
            Backend::Threads(threads) => threads,
            Backend::Fleet(pool) => pool,
        }
    }

    /// Per-worker stats for the timing JSON (empty in-process).
    fn worker_stats(&self) -> &[WorkerStats] {
        match self {
            Backend::Threads(_) => &[],
            Backend::Fleet(pool) => pool.worker_stats(),
        }
    }
}

fn build_backend(args: &Args) -> Backend {
    if args.workers.is_none() && args.connect.is_empty() {
        for f in ["--cell-timeout", "--progress-json"] {
            if args.supplied.iter().any(|s| s.name == f) {
                fail(format_args!(
                    "{f} needs a worker fleet (--workers/--connect)"
                ));
            }
        }
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        return Backend::Threads(ThreadExecutor::new(args.jobs.unwrap_or_else(cores)));
    }
    if args.jobs.is_some() {
        fail("--jobs sizes the in-process thread pool; with --workers/--connect the fleet size is the parallelism — use one or the other");
    }
    let mut specs: Vec<WorkerSpec> = args
        .connect
        .iter()
        .map(|addr| WorkerSpec::Connect { addr: addr.clone() })
        .collect();
    if let Some(n) = args.workers {
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| fail_input(format_args!("cannot locate own executable: {e}")));
        let exe = exe.to_string_lossy().into_owned();
        specs.extend((0..n).map(|_| WorkerSpec::Spawn {
            argv: vec![exe.clone(), "worker".to_string()],
        }));
    }
    let mut cfg = PoolConfig::new(specs);
    cfg.progress_json = args.progress_json.clone();
    if let Some(secs) = args.cell_timeout {
        cfg.cell_timeout = std::time::Duration::from_secs(secs);
    }
    Backend::Fleet(WorkerPool::new(cfg))
}

/// A batch the executor could not finish: the typed error, the partial
/// progress, exit(2). Artifact envelopes are all-or-nothing — nothing
/// was written.
fn fail_batch(e: HarnessError) -> ! {
    eprintln!("error: {e}");
    if let Some((completed, total)) = e.partial_progress() {
        eprintln!(
            "partial results: {completed}/{total} cells finished before the batch was abandoned; \
             no reports or JSON envelopes were written"
        );
    }
    std::process::exit(2);
}

// ---------------------------------------------------------------------
// Shared output plumbing
// ---------------------------------------------------------------------

/// Check every output path **before** the batch runs, and create the
/// directories they need: a destination found unwritable only after a
/// paper-scale batch would throw the whole computation away. A bad path
/// is an input error naming its flag (exit 2).
fn prepare_output_paths(args: &Args) {
    // (flag, path, whether the path is itself a directory)
    let outputs = [
        ("--json", &args.json_dir, true),
        ("--timing-json", &args.timing_json, false),
        ("--trace", &args.trace, false),
        ("--progress-json", &args.progress_json, false),
    ];
    for (flag, path, is_dir) in outputs {
        let Some(path) = path else {
            continue;
        };
        if !is_dir && path.is_dir() {
            fail_input(format_args!(
                "{flag} needs a file path, {} is a directory",
                path.display()
            ));
        }
        let dir = if is_dir {
            Some(path.as_path())
        } else {
            path.parent().filter(|d| !d.as_os_str().is_empty())
        };
        if let Some(dir) = dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                fail_input(format_args!("{flag}: cannot create {}: {e}", dir.display()));
            }
        }
    }
}

/// The batch's [`TraceSpec`] from `--trace`/`--trace-filter`, or `None`
/// when tracing is off. `--trace-filter` without `--trace` is a usage
/// error: the filter would silently select nothing.
fn trace_spec(args: &Args) -> Option<TraceSpec> {
    if args.trace.is_none() && args.trace_filter.is_some() {
        fail("--trace-filter needs --trace FILE");
    }
    args.trace.as_ref().map(|_| TraceSpec {
        filter: args.trace_filter.clone().unwrap_or_default(),
        ..TraceSpec::default()
    })
}

/// Write the batch's `trace-v1` file: header line (source, filter,
/// cell count) then every captured line in `(cell, emission)` order.
/// The bytes depend only on the configs and the filter — never on
/// `--jobs` or the fleet shape.
fn write_trace(args: &Args, source: &str, batch: &BatchRun) {
    let (Some(path), Some(trace)) = (&args.trace, &batch.trace) else {
        return;
    };
    let filter = args.trace_filter.as_deref().unwrap_or("");
    let mut text = json::to_string(&TraceHeader {
        schema: irn_telemetry::TRACE_SCHEMA.to_string(),
        source: source.to_string(),
        filter: filter.to_string(),
        cells: batch.cell_count as u64,
    });
    text.push('\n');
    for line in &trace.lines {
        text.push_str(line);
        text.push('\n');
    }
    write_file(path, &text);
    eprintln!(
        "   [trace: {} event(s) -> {}{}]",
        trace.lines.len(),
        path.display(),
        if trace.dropped > 0 {
            format!(", {} dropped by ring-buffer overflow", trace.dropped)
        } else {
            String::new()
        },
    );
}

/// Write one output file; its directory exists ([`prepare_output_paths`]).
fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The global-batch stderr summary line plus the optional
/// bench-trajectory JSON file.
fn report_batch_timing(
    batch: &BatchRun,
    what: &str,
    count: usize,
    started: std::time::Instant,
    backend: &mut Backend,
    scale: &Scale,
    timing_json: Option<&Path>,
) {
    let jobs = backend.executor().concurrency();
    eprintln!(
        "   [global batch: {} cells across {} {what}: batch {:.1?}, total {:.1?}, jobs={}, \
         {} events, {:.2} Mev/s]",
        batch.cell_count,
        count,
        batch.batch_time,
        started.elapsed(),
        jobs,
        batch.total_events,
        batch.events_per_sec() / 1e6,
    );
    let workers = backend.worker_stats();
    for w in workers {
        eprintln!(
            "   [worker {}: {} cells, {:.1}s cell time, {} failure(s){}]",
            w.name,
            w.cells,
            w.cell_wall_s,
            w.failures,
            if w.alive { "" } else { ", dropped" },
        );
    }
    if let Some(file) = timing_json {
        write_file(file, &artifacts::timing_json(batch, scale, jobs, workers));
    }
}

fn per_report_stderr(name: &str, plan: &Plan, item: &ItemRun) {
    let (class, seeds, timing) = (plan.determinism(), plan.seeds(), &item.timing);
    if timing.cells > 0 {
        // Stale-timer skips ride along when nonzero: reclaiming a
        // superseded deadline is benign, but a sudden jump is the first
        // symptom of a scheduling bug.
        let sched = item
            .telemetry
            .as_ref()
            .map(|t| t.sched.stale_timer_reclaims)
            .filter(|&n| n > 0)
            .map(|n| format!("; {n} stale-timer skip(s)"))
            .unwrap_or_default();
        eprintln!(
            "   [{name}: {class} over {seeds} seed(s); {} cells, {} events, {:.2} Mev/s{sched}]",
            timing.cells,
            timing.events,
            timing.events_per_sec / 1e6,
        );
    } else {
        eprintln!("   [{name}: {class} over {seeds} seed(s)]");
    }
}

/// The shared tail of the two batch modes: pick the backend, check the
/// output paths, run `items` — each report's name (stderr, trace
/// source, envelope file stem) with its plan — as the one global batch,
/// then report timing and trace, and print every report — with
/// its envelope from `envelope(index, item)` when `--json` asked for
/// one.
fn run_and_report(
    args: &Args,
    scale: &Scale,
    what: &str,
    items: &[(String, Plan)],
    envelope: impl Fn(usize, &ItemRun) -> String,
) {
    let mut backend = build_backend(args);
    let spec = trace_spec(args);
    prepare_output_paths(args);

    // One global batch: all simulation cells interleave on the worker
    // pool, then reports assemble and print in presentation order
    // (byte-identical to sequential runs).
    let t = std::time::Instant::now();
    let batch = artifacts::run_batch(items, backend.executor(), spec.as_ref())
        .unwrap_or_else(|e| fail_batch(e));
    report_batch_timing(
        &batch,
        what,
        items.len(),
        t,
        &mut backend,
        scale,
        args.timing_json.as_deref(),
    );
    let source: Vec<&str> = items.iter().map(|(name, _)| name.as_str()).collect();
    write_trace(args, &source.join(","), &batch);

    // Every envelope before the first report: a stdout reader that
    // closes early ends the process (see `emit`) and must not cost a file.
    if let Some(dir) = &args.json_dir {
        for (i, ((name, _), item)) in items.iter().zip(&batch.items).enumerate() {
            write_file(&dir.join(format!("{name}.json")), &envelope(i, item));
        }
    }
    for ((name, plan), item) in items.iter().zip(&batch.items) {
        // Reports go to stdout; progress/timing to stderr so stdout
        // stays byte-identical run to run.
        outln!("{}", item.report.render());
        per_report_stderr(name, plan, item);
    }
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

/// `repro --verify-json DIR`: validate every `*.json` file in DIR
/// (registry artifacts and scenario-run envelopes alike). Prints one
/// line per file; failure messages reference docs/SCHEMA.md; exit 1 on
/// any failure.
fn verify_json_mode(args: &Args) {
    let dir = args.verify_dir.as_deref().expect("mode flag supplied");
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", dir.display());
        std::process::exit(1);
    });
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("error: no .json files in {}", dir.display());
        std::process::exit(1);
    }
    let mut failures = 0;
    for path in &paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let outcome = match std::fs::read_to_string(path) {
            Err(e) => Err(format!("{name}: cannot read {}: {e}", path.display())),
            Ok(text) => artifacts::verify_artifact_json(&name, &text),
        };
        match outcome {
            Ok(()) => outln!("ok   {}", path.display()),
            Err(msg) => {
                outln!("FAIL {msg}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures} file(s) unparsable or schema-mismatched in {} \
             (schema reference: docs/SCHEMA.md)",
            dir.display()
        );
        std::process::exit(1);
    }
}

/// `repro --list`: the registry as a table — name, determinism class,
/// workload class, seed count, and batch cell count at the active
/// scale, every column but the first read from the artifact's plan.
fn list_mode(args: &Args) {
    let scale = args.scale();
    outln!(
        "{:<16} {:<14} {:<12} {:>5}  {:>6}   (scale: {})",
        "artifact",
        "class",
        "workload",
        "seeds",
        "cells",
        scale.label()
    );
    for a in ARTIFACTS {
        let plan = a.plan(scale);
        outln!(
            "{:<16} {:<14} {:<12} {:>5}  {:>6}",
            a.name,
            plan.determinism(),
            plan.workload(),
            plan.seeds(),
            plan.cell_count()
        );
    }
}

/// The registry artifacts `names` select (`all` selects every one), in
/// presentation order. Misspelled names fail loudly — each is reported,
/// then usage, exit(2) — instead of silently printing nothing.
fn select_artifacts(names: &[String]) -> Vec<&'static artifacts::Artifact> {
    let wanted: Vec<&str> = names.iter().map(String::as_str).collect();
    let unknown = artifacts::unknown_names(&wanted);
    if !unknown.is_empty() {
        for name in &unknown {
            eprintln!("error: unknown artifact '{name}'");
        }
        usage();
    }
    let all = wanted.contains(&"all");
    ARTIFACTS
        .iter()
        .filter(|a| all || wanted.contains(&a.name))
        .collect()
}

/// Registry-artifact mode: the classic `repro <artifact>... | all`.
fn artifact_mode(args: &Args) {
    if args.positionals.is_empty() {
        usage();
    }
    let scale = args.scale();
    let items: Vec<(String, Plan)> = select_artifacts(&args.positionals)
        .iter()
        .map(|a| (a.name.to_string(), a.plan(scale)))
        .collect();
    run_and_report(args, &scale, "artifact(s)", &items, |i, item| {
        let (name, plan) = &items[i];
        artifacts::artifact_json(name, &scale, plan, &item.report, item.telemetry.as_ref())
    });
}

/// `repro run FILE...`: execute user scenarios through the same global
/// batch executor the registry uses.
fn run_scenarios_mode(args: &Args) {
    let files: Vec<PathBuf> = args.positionals[1..].iter().map(PathBuf::from).collect();
    if files.is_empty() {
        fail("run mode needs at least one scenario file");
    }

    let scale = args.scale();
    let seeds = scale.seeds;
    let mut scenarios = Vec::with_capacity(files.len());
    let mut items: Vec<(String, Plan)> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| fail_input(format_args!("cannot read {}: {e}", file.display())));
        let scenario = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| fail_input(format_args!("{}: {e}", file.display())));
        let slug = scenario.slug();
        if items.iter().any(|(name, _)| *name == slug) {
            fail_input(format_args!(
                "{}: scenario name '{}' collides with an earlier file (slug '{slug}')",
                file.display(),
                scenario.name()
            ));
        }
        items.push((slug, scenario_plan(&scenario, seeds)));
        scenarios.push(scenario);
    }

    run_and_report(args, &scale, "scenario(s)", &items, |i, item| {
        scenario_json(&scenarios[i], seeds, &item.report, item.telemetry.as_ref())
    });
}

/// `repro worker`: serve the `work-v1` protocol for a coordinator —
/// over stdin/stdout when spawned (`--workers N` does this), or over
/// TCP with `--listen ADDR` (one coordinator at a time; the accept
/// loop serves connections serially and runs until killed).
///
/// `--exit-after N` is the fault-injection hook behind the
/// kill-a-worker tests and the CI retry job: the worker consumes its
/// N+1th cell and dies without answering, forcing the coordinator down
/// the reassignment path.
fn worker_mode(args: &Args) {
    if args.positionals.len() > 1 {
        fail(format_args!(
            "worker mode takes no positional arguments, got '{}'",
            args.positionals[1]
        ));
    }
    let opts = WorkerOptions {
        exit_after: args.exit_after,
    };
    let Some(addr) = &args.listen else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let summary = worker::serve(stdin.lock(), stdout.lock(), opts)
            .unwrap_or_else(|e| fail_input(format_args!("worker I/O error: {e}")));
        eprintln!(
            "   [worker: answered {}, {} error frame(s){}]",
            summary.answered,
            summary.errors,
            if summary.aborted { ", aborted" } else { "" }
        );
        return;
    };
    let listener = std::net::TcpListener::bind(addr)
        .unwrap_or_else(|e| fail_input(format_args!("cannot listen on {addr}: {e}")));
    let local = listener
        .local_addr()
        .map_or_else(|_| addr.clone(), |a| a.to_string());
    // In listen mode stdout carries no protocol frames, so announce the
    // bound address there — scripts bind port 0 and read the real port.
    outln!("listening {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("   [worker {local}: accept failed: {e}]");
                continue;
            }
        };
        let reader = match stream.try_clone() {
            Ok(r) => std::io::BufReader::new(r),
            Err(e) => {
                eprintln!("   [worker {local}: cannot clone stream: {e}]");
                continue;
            }
        };
        match worker::serve(reader, &stream, opts) {
            Ok(summary) => {
                eprintln!(
                    "   [worker {local}: answered {}, {} error frame(s){}]",
                    summary.answered,
                    summary.errors,
                    if summary.aborted { ", aborted" } else { "" }
                );
                if summary.aborted {
                    // Simulated death must take the whole worker down,
                    // not just this connection.
                    std::process::exit(0);
                }
            }
            // A coordinator vanishing mid-connection is its failure,
            // not ours: keep serving the next one.
            Err(e) => eprintln!("   [worker {local}: connection error: {e}]"),
        }
    }
}

/// `repro emit-scenario <artifact>... --json DIR`: dump each selected
/// artifact's logical cells (before the seed fan-out) as editable
/// scenario-v1 files.
fn emit_scenario_mode(args: &Args) {
    if args.positionals.len() < 2 {
        fail("emit-scenario needs artifact names (or 'all')");
    }
    let selected = select_artifacts(&args.positionals[1..]);
    let Some(dir) = &args.json_dir else {
        fail("emit-scenario needs --json DIR for the output directory");
    };
    prepare_output_paths(args);

    let scale = args.scale();
    for artifact in selected {
        let plan = artifact.plan(scale);
        let mut written = 0;
        for scenario in artifacts::emitted_scenarios(artifact.name, &plan) {
            let path = dir.join(format!("{}.json", scenario.slug()));
            write_file(&path, &scenario.to_json_string());
            written += 1;
        }
        eprintln!(
            "   [{}: wrote {written} scenario file(s) to {}]",
            artifact.name,
            dir.display()
        );
    }
}

/// A completed application operation: `(cell, op, client, latency_ns)`.
type Op = (u64, u64, u64, u64);

/// Slowest operations `trace-summarize` lists.
const SLOWEST_OPS: usize = 10;

/// `repro trace-summarize FILE`: aggregate a `trace-v1` NDJSON file
/// into a per-kind table and a per-flow table (events by kind, sorted
/// by volume). Doubles as the CI's schema validator: a header that is
/// not a [`TraceHeader`] or names another schema, an unparsable line,
/// or an event missing its mandatory fields exits 2. The file streams
/// through line by line: memory holds one count per kind and per flow
/// and the [`SLOWEST_OPS`] slowest operations, never the file.
fn trace_summarize_mode(args: &Args) {
    let rest = &args.positionals[1..];
    if rest.len() != 1 {
        fail("trace-summarize needs exactly one trace-v1 file");
    }
    let path = &rest[0];
    let file = std::fs::File::open(path)
        .unwrap_or_else(|e| fail_input(format_args!("cannot read {path}: {e}")));
    let mut lines = BufReader::new(file)
        .lines()
        .map(|line| line.unwrap_or_else(|e| fail_input(format_args!("cannot read {path}: {e}"))))
        .enumerate();
    // Line 1 is the header: schema tag, source, filter, cell count.
    let Some((_, header)) = lines.next() else {
        fail_input(format_args!(
            "{path}: empty file, expected a trace-v1 header"
        ));
    };
    let header: TraceHeader = serde::from_json_str(&header)
        .unwrap_or_else(|e| fail_input(format_args!("{path}:1: bad header: {e}")));
    if header.schema != irn_telemetry::TRACE_SCHEMA {
        fail_input(format_args!(
            "{path}: not a {} file (see docs/TRACING.md)",
            irn_telemetry::TRACE_SCHEMA
        ));
    }

    let mut by_kind: HashMap<String, u64> = HashMap::new();
    let mut by_flow: HashMap<u64, u64> = HashMap::new();
    // Operations harvested from `app.op.done` lines (closed-loop runs
    // only): the slowest in print order — latency descending, then
    // `(cell, op)` ascending, then arrival, as a stable sort left them —
    // plus a count and a sum.
    let mut slowest: Vec<Op> = Vec::with_capacity(SLOWEST_OPS + 1);
    let print_order = |o: &Op| (std::cmp::Reverse(o.3), o.0, o.1);
    let (mut ops, mut op_latency_sum) = (0u64, 0u128);
    let mut phases = 0u64;
    let mut events = 0u64;
    let mut truncated = 0u64;
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let v = json::from_str(&line)
            .unwrap_or_else(|e| fail_input(format_args!("{path}:{n}: bad event line: {e}")));
        let Some(kind) = v.get("kind").and_then(Value::as_str) else {
            fail_input(format_args!("{path}:{n}: event without a 'kind'"));
        };
        let field = |key| v.get(key).and_then(Value::as_u64);
        if field("cell").is_none() || field("t").is_none() {
            fail_input(format_args!(
                "{path}:{n}: event without numeric 'cell'/'t' fields"
            ));
        }
        events += 1;
        if kind == "trace.truncated" {
            truncated += field("dropped").unwrap_or(0);
        }
        if kind == "app.op.done" {
            let num = |key| field(key).unwrap_or(0);
            let op = (num("cell"), num("op"), num("client"), num("latency_ns"));
            ops += 1;
            op_latency_sum += u128::from(op.3);
            let at = slowest.partition_point(|o| print_order(o) <= print_order(&op));
            slowest.insert(at, op);
            slowest.truncate(SLOWEST_OPS);
        }
        if kind == "app.phase" {
            phases += 1;
        }
        *by_kind.entry(kind.to_string()).or_insert(0) += 1;
        if let Some(flow) = field("flow") {
            *by_flow.entry(flow).or_insert(0) += 1;
        }
    }

    outln!(
        "trace {path}: {events} event(s) across {} cell(s), filter '{}'{}",
        header.cells,
        header.filter,
        if truncated > 0 {
            format!(", {truncated} dropped by ring-buffer overflow")
        } else {
            String::new()
        },
    );
    outln!();
    outln!("{:<16} {:>10} {:>8}", "kind", "events", "share");
    let mut by_kind: Vec<(String, u64)> = by_kind.into_iter().collect();
    by_kind.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (kind, count) in &by_kind {
        outln!(
            "{kind:<16} {count:>10} {:>7.1}%",
            *count as f64 / events.max(1) as f64 * 100.0
        );
    }
    outln!();
    outln!("{:<8} {:>10}   top flows by event volume", "flow", "events");
    let mut by_flow: Vec<(u64, u64)> = by_flow.into_iter().collect();
    by_flow.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (flow, count) in by_flow.iter().take(20) {
        outln!("{flow:<8} {count:>10}");
    }
    if by_flow.len() > 20 {
        outln!("... and {} more flow(s)", by_flow.len() - 20);
    }

    // Per-operation view: only printed when the trace carries
    // closed-loop `app.op.done` events (see docs/TRACING.md).
    if ops > 0 {
        let mean_ns = (op_latency_sum / u128::from(ops)) as u64;
        outln!();
        outln!(
            "operations: {ops} completed, {phases} phase barrier(s), mean latency {:.3} ms",
            mean_ns as f64 / 1e6
        );
        outln!(
            "{:<6} {:<8} {:<8} {:>12}   slowest operations",
            "cell",
            "op",
            "client",
            "latency_ms"
        );
        for (cell, op, client, latency_ns) in &slowest {
            outln!(
                "{cell:<6} {op:<8} {client:<8} {:>12.3}",
                *latency_ns as f64 / 1e6
            );
        }
        if ops > SLOWEST_OPS as u64 {
            outln!("... and {} more operation(s)", ops - SLOWEST_OPS as u64);
        }
    }
}

fn main() {
    let args = parse_args();
    let mode = args.mode();
    args.restrict_flags(mode.word);
    (mode.run)(&args);
}
