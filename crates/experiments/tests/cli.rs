//! The `repro` command line, driven the way users drive it.
//!
//! **Flag applicability is one table.** The usage text prints, per flag,
//! the modes it applies to; this suite reads that table back and tries
//! every (flag, mode) pair on the built binary: outside the flag's modes
//! the run exits 2 naming the flag and the mode and writes nothing,
//! inside them it never says so. The six command lines ISSUE 20 showed
//! exiting 0 with their output silently dropped are pinned by name.
//!
//! **Output paths are checked before the batch**: a destination that
//! cannot be written is one `error:` line naming its flag and exit 2,
//! before any cell runs.
//!
//! **Emitted scenario sets run back unedited**: `emit-scenario` → `run`
//! → `--verify-json`, with the emitted file names held to the fixture
//! the library test rebuilds from the artifact table.
//!
//! **`trace-summarize` output is pinned**, on a small traced run and on
//! a synthetic trace of tied operations, and its header read is strict.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn repro<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("repro runs")
}

/// A scratch path no test shares (never created here).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("irn-cli-test-{tag}-{}", std::process::id()))
}

/// Per mode word, a command line that selects the mode, passes the flag
/// check when the flag applies, and then stops before any work: an
/// unknown artifact, a missing operand, a stray positional, a directory
/// that does not exist. `DIR` stands for a path under the scratch
/// directory.
const MODE_ARGV: &[(&str, &[&str])] = &[
    ("artifact", &["no-such-artifact"]),
    ("run", &["run"]),
    ("worker", &["worker", "stray"]),
    ("emit-scenario", &["emit-scenario"]),
    ("trace-summarize", &["trace-summarize"]),
    ("--list", &["--list"]),
    ("--verify-json", &["--verify-json", "DIR/envelopes"]),
];

/// A well-formed value for a flag's metavar.
fn value_for(metavar: &str) -> &'static str {
    match metavar {
        "N" | "SECS" => "1",
        "ADDR" => "127.0.0.1:1",
        "SPEC" => "kind=pfc.*",
        "DIR" | "FILE" => "DIR/out",
        other => panic!("no sample value for metavar {other}"),
    }
}

/// `(flag, metavar, modes)` per row of the usage text's flag table.
fn flag_table() -> Vec<(String, Option<String>, Vec<String>)> {
    let out = repro::<&str>(&[]);
    assert_eq!(out.status.code(), Some(2), "bare `repro` prints usage");
    let usage = String::from_utf8(out.stderr).unwrap();
    let rows: Vec<_> = usage
        .lines()
        .skip_while(|l| !l.starts_with("flags"))
        .skip(1)
        .take_while(|l| l.starts_with("  --"))
        .map(|line| {
            let mut words = line.split_whitespace();
            let flag = words.next().unwrap().to_string();
            let metavar = words
                .next()
                .filter(|w| w.chars().all(|c| c.is_ascii_uppercase()))
                .map(str::to_string);
            let (open, close) = (line.rfind('[').unwrap(), line.rfind(']').unwrap());
            let modes = line[open + 1..close]
                .split(' ')
                .map(str::to_string)
                .collect();
            (flag, metavar, modes)
        })
        .collect();
    assert!(rows.len() >= 15, "flag table not found in:\n{usage}");
    rows
}

#[test]
fn every_flag_is_rejected_outside_its_modes_and_only_there() {
    let dir = scratch("flags");
    let at = |arg: &str| arg.replace("DIR", dir.to_str().unwrap());
    for (flag, metavar, modes) in flag_table() {
        for mode in &modes {
            assert!(
                MODE_ARGV.iter().any(|(word, _)| word == mode),
                "{flag} names a mode this suite has no command line for: {mode}"
            );
        }
        for (mode, base) in MODE_ARGV {
            let mut argv: Vec<String> = base.iter().map(|a| at(a)).collect();
            argv.push(flag.clone());
            argv.extend(metavar.as_deref().map(|m| at(value_for(m))));
            let out = repro(&argv);
            let said = String::from_utf8_lossy(&out.stderr).into_owned();
            let stray = format!("error: {flag} does not apply to the '{mode}' mode");
            if modes.iter().any(|m| m == mode) {
                assert!(!said.contains("does not apply"), "{argv:?}: {said}");
            } else {
                assert_eq!(out.status.code(), Some(2), "{argv:?}: {said}");
                assert!(said.contains(&stray), "{argv:?}: {said}");
                assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
            }
        }
    }
    assert!(!dir.exists(), "a rejected command line wrote something");
}

/// The command lines that used to exit 0 having dropped a flag (or,
/// the last two, named the mode wrongly): each now fails naming the
/// flag and the mode.
#[test]
fn the_silently_dropped_flags_of_issue_20_fail_by_name() {
    let dir = scratch("exhibits");
    let at = |arg: &str| arg.replace("DIR", dir.to_str().unwrap());
    let exhibits: &[(&[&str], &str)] = &[
        (
            &["--list", "--json", "DIR"],
            "--json does not apply to the '--list' mode",
        ),
        (
            &["--list", "--trace", "DIR/t.ndjson", "--workers", "3"],
            "--trace does not apply to the '--list' mode",
        ),
        (
            &["--verify-json", "DIR", "--seeds", "3"],
            "--seeds does not apply to the '--verify-json' mode",
        ),
        (
            &["--list", "--timing-json", "DIR/t.json"],
            "--timing-json does not apply to the '--list' mode",
        ),
        (
            &["fig1", "--exit-after", "3"],
            "--exit-after does not apply to the 'artifact' mode",
        ),
        (
            &["emit-scenario", "fig1", "--json", "DIR", "--seeds", "9"],
            "--seeds does not apply to the 'emit-scenario' mode",
        ),
    ];
    for (argv, message) in exhibits {
        let argv: Vec<String> = argv.iter().map(|a| at(a)).collect();
        let out = repro(&argv);
        let said = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {said}");
        assert!(said.contains(message), "{argv:?}: {said}");
        assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
    }
    assert!(!dir.exists(), "a rejected command line wrote something");
}

/// Every output flag, given a path it cannot write — a directory where
/// a file is needed, a file where a directory is needed, a file under a
/// file — fails before any cell runs: one `error:` line naming the
/// flag, exit 2, nothing on stdout and no batch line on stderr.
#[test]
fn unwritable_output_paths_exit_2_naming_the_flag_before_the_batch() {
    let dir = scratch("bad-paths");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("a-file");
    std::fs::write(&file, "kept").unwrap();
    let scenario = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/poisson-quick.json");
    let run = |extra: &[&str]| -> Vec<std::ffi::OsString> {
        let mut argv = vec![
            "run".into(),
            scenario.clone().into(),
            "--seeds".into(),
            "1".into(),
        ];
        argv.extend(extra.iter().map(Into::into));
        argv
    };
    let under_file = file.join("out.json");
    let cases: Vec<(Vec<std::ffi::OsString>, &str, &Path)> = vec![
        (run(&[]), "--timing-json", &dir),
        (run(&[]), "--timing-json", &under_file),
        (run(&[]), "--trace", &dir),
        (run(&["--workers", "1"]), "--progress-json", &dir),
        (run(&[]), "--json", &file),
        (vec!["emit-scenario".into(), "fig1".into()], "--json", &file),
    ];
    for (mut argv, flag, path) in cases {
        argv.extend([flag.into(), path.as_os_str().to_owned()]);
        let out = repro(&argv);
        let said = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {said}");
        assert!(out.stdout.is_empty(), "{argv:?} printed a report");
        let errors: Vec<&str> = said.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{argv:?}: {said}");
        assert!(
            errors[0].starts_with(&format!("error: {flag}")),
            "{argv:?}: {said}"
        );
        for ran in ["[global batch", "[pool]", "wrote"] {
            assert!(!said.contains(ran), "{argv:?} ran before failing: {said}");
        }
    }
    assert_eq!(std::fs::read_to_string(&file).unwrap(), "kept");
    let _ = std::fs::remove_dir_all(&dir);
}

fn json_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn emitted_scenario_sets_run_back_unedited() {
    let dir = scratch("emit");
    let (emitted, envelopes) = (dir.join("emitted"), dir.join("envelopes"));
    let out = repro(&[
        "emit-scenario".as_ref(),
        "fig1".as_ref(),
        "fig9".as_ref(),
        "table3".as_ref(),
        "--json".as_ref(),
        emitted.as_os_str(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let names = json_names(&emitted);
    let expected: Vec<&str> = include_str!("fixtures/emit-names-quick.txt")
        .lines()
        .filter(|n| {
            ["fig1-", "fig9-", "table3-"]
                .iter()
                .any(|p| n.starts_with(p))
        })
        .collect();
    assert_eq!(names, expected);

    let mut run = vec!["run".into()];
    run.extend(names.iter().map(|n| emitted.join(n).into_os_string()));
    run.extend(["--seeds".into(), "1".into(), "--json".into()]);
    run.push(envelopes.clone().into_os_string());
    let out = repro(&run);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stems = |names: Vec<String>| -> Vec<String> {
        names.iter().map(|n| n.replace(".json", "")).collect()
    };
    assert_eq!(stems(json_names(&envelopes)), stems(names));
    let out = repro(&["--verify-json".as_ref(), envelopes.as_os_str()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario times past the virtual-time horizon (2^50 ns), zero RTOs, a
/// buffer smaller than one frame and, under PFC, one the pause headroom
/// does not fit under: each used to run — wrapping time, clamping events
/// into the past, never finishing or panicking in the switch — and is
/// now a typed error, exit 2, with one `error:` line naming the field
/// and nothing on stdout, in-process and on a worker fleet.
#[test]
fn hostile_times_and_knobs_exit_2_naming_the_field() {
    let dir = scratch("hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let poisson = r#"{"poisson": {"load": 0.7, "sizes": "heavy_tailed", "flows": 300}}"#;
    let probes: &[(&str, String, &str)] = &[
        (
            "shuffle",
            r#""traffic": {"shuffle": {"flow_bytes": 1000, "rounds": 3,
                "round_gap_ns": 9223372036854775808}}"#
                .into(),
            "round_gap_ns",
        ),
        (
            "explicit",
            r#""traffic": {"explicit": [{"src": 0, "dst": 1, "bytes": 1000,
                "at_ns": 18446744073709551000}]}"#
                .into(),
            "at_ns",
        ),
        (
            "compose",
            format!(
                r#""traffic": {{"compose": [{{"traffic": {poisson}}},
                {{"traffic": {{"incast": {{"m": 4, "total_bytes": 100000}}}},
                "population": "incast", "start": {{"at_ns": 18446744073709551000}}}}]}}"#
            ),
            "start.at_ns",
        ),
        (
            "load",
            r#""traffic": {"poisson": {"load": 1e-12, "sizes": "heavy_tailed", "flows": 300}}"#
                .into(),
            "flows at load",
        ),
        (
            "prop",
            format!(r#""traffic": {poisson}, "prop_delay_ns": 18446744073709551000"#),
            "prop_delay_ns",
        ),
        (
            "rto-high",
            format!(r#""traffic": {poisson}, "rto_high_ns": 0"#),
            "rto_high_ns",
        ),
        (
            "rto-low",
            format!(r#""traffic": {poisson}, "rto_low_ns": 0"#),
            "rto_low_ns",
        ),
        (
            "buffer",
            format!(r#""traffic": {poisson}, "buffer_bytes": 1"#),
            "buffer_bytes",
        ),
        (
            // 40 Gbps × 2 × 50 µs + 2 frames = 502 096 B of headroom
            // over the 240 000 B default buffer.
            "pfc-headroom",
            format!(r#""traffic": {poisson}, "pfc": true, "prop_delay_ns": 50000"#),
            "buffer_bytes 240000 must exceed the PFC headroom of 502096 bytes",
        ),
    ];
    for (name, fields, field) in probes {
        let path = dir.join(format!("{name}.json"));
        let doc = format!(
            r#"{{"schema": "scenario-v1", "name": "{name}",
                "topology": {{"fat_tree": {{"k": 4}}}}, {fields}}}"#
        );
        std::fs::write(&path, doc).unwrap();
        // Validation runs before any executor starts, so a fleet ends
        // the same way as one thread.
        for executor in [["--jobs", "1"], ["--workers", "2"]] {
            let mut argv = vec!["run".as_ref(), path.as_os_str(), "--seeds".as_ref()];
            argv.extend(["1"].iter().chain(&executor).map(std::ffi::OsStr::new));
            let out = repro(&argv);
            let said = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {executor:?}: {said}");
            assert!(said.contains(field), "{name}: {said}");
            assert_eq!(said.matches("error:").count(), 1, "{name}: {said}");
            assert!(!said.contains("panicked"), "{name}: {said}");
            assert!(out.stdout.is_empty(), "{name} printed to stdout");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Count flags past their bound. `--seeds` near `usize::MAX` died on a
/// capacity overflow (exit 101), `--seeds 100000000000` aborted on an
/// allocation failure (exit 134), `--workers` near `usize::MAX` overflowed
/// too and `--workers 100000` went on spawning. Each is now one `error:`
/// line naming the flag and its bound, exit 2, before anything is planned
/// or spawned. `--jobs` needs no bound — the thread pool never starts
/// more threads than the batch has cells — so its largest value runs.
#[test]
fn count_flags_past_their_bound_exit_2_naming_it() {
    let quick = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/poisson-quick.json");
    let quick = quick.to_str().unwrap();
    let max = "18446744073709551615";
    let probes: &[(&[&str], &str)] = &[
        (&["fig1", "--seeds", max], "--seeds takes at most 1000"),
        (
            &["run", quick, "--seeds", max],
            "--seeds takes at most 1000",
        ),
        (
            &["run", quick, "--seeds", "100000000000"],
            "--seeds takes at most 1000",
        ),
        (&["--list", "--seeds", "1001"], "--seeds takes at most 1000"),
        (
            &["run", quick, "--workers", max],
            "--workers takes at most 256",
        ),
        (
            &["run", quick, "--workers", "100000"],
            "--workers takes at most 256",
        ),
        (&["fig1", "--workers", "257"], "--workers takes at most 256"),
    ];
    for (argv, message) in probes {
        let out = repro(argv);
        let said = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {said}");
        assert!(said.contains(message), "{argv:?}: {said}");
        assert_eq!(said.matches("error:").count(), 1, "{argv:?}: {said}");
        assert!(!said.contains("panicked"), "{argv:?}: {said}");
        assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
    }
    let out = repro(&["run", quick, "--seeds", "1", "--jobs", max]);
    let said = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "--jobs {max}: {said}");
    assert!(!out.stdout.is_empty(), "--jobs {max} printed no report");
}

/// The committed regression inputs: scenarios that validate but whose
/// run cannot finish. Each is one failure, reported once, in the same
/// words at any `--jobs` and on a worker fleet: exit 2, nothing on
/// stdout, the cell and the cause named, no panic, no worker dropped.
#[test]
fn runs_that_cannot_finish_exit_2_naming_cell_and_cause() {
    let regressions = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/regressions");
    let cases = [
        ("event-budget", "event budget exceeded at"),
        (
            "roce-pfc-loss-deadlock",
            "simulation deadlocked: 17/20 flows",
        ),
    ];
    for (name, cause) in cases {
        let file = regressions.join(format!("{name}.json"));
        let mut error_lines = Vec::new();
        // In pairs that must print the same `error:` line.
        for executor in [
            &["--jobs", "1", "--seeds", "1"][..],
            &["--workers", "2", "--seeds", "1"],
            &["--jobs", "1", "--seeds", "2"],
            &["--jobs", "4", "--seeds", "2"],
        ] {
            let mut argv = vec!["run".as_ref(), file.as_os_str()];
            argv.extend(executor.iter().map(std::ffi::OsStr::new));
            let out = repro(&argv);
            let said = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {executor:?}: {said}");
            assert!(
                out.stdout.is_empty(),
                "{name} {executor:?} printed a report"
            );
            let error = said
                .lines()
                .find(|l| l.starts_with("error: "))
                .unwrap_or("");
            assert!(error.contains(&format!("cell #0 '{name}'")), "{said}");
            assert!(error.contains(cause), "{name} {executor:?}: {said}");
            assert!(!said.contains("panicked"), "{name} {executor:?}: {said}");
            assert!(!said.contains("dropped from the fleet"), "{said}");
            error_lines.push(error.to_string());
        }
        for pair in error_lines.chunks(2) {
            assert_eq!(pair[0], pair[1], "one message per cause");
        }
    }

    // Next to a healthy cell on three workers: one attempt, no worker lost.
    let progress = scratch("regression-progress.ndjson");
    let out = repro(&[
        "run".as_ref(),
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/poisson-quick.json")
            .as_os_str(),
        regressions.join("event-budget.json").as_os_str(),
        "--seeds".as_ref(),
        "1".as_ref(),
        "--workers".as_ref(),
        "3".as_ref(),
        "--progress-json".as_ref(),
        progress.as_os_str(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let events = std::fs::read_to_string(&progress).unwrap();
    let _ = std::fs::remove_file(&progress);
    let retries: Vec<&str> = events
        .lines()
        .filter(|l| l.contains(r#""event":"retry""#))
        .collect();
    assert_eq!(retries.len(), 1, "{events}");
    assert!(retries[0].contains(r#""attempt":1,"#), "{events}");
    assert!(retries[0].contains(r#""exhausted":true"#), "{events}");
    assert!(!events.contains(r#""event":"worker-dropped""#), "{events}");
}

/// The committed inputs whose set-up state is past its bound (a
/// 50 000-port switch: 2.5 × 10⁹ VOQs; a k=128 fat-tree) are rejected
/// at validation, before any table or queue is allocated: exit 2 within
/// a second, one `error:` line naming the file and the state, no panic,
/// at `--jobs 1` and on a fleet.
#[test]
fn topologies_past_the_setup_bound_exit_2_before_building() {
    let regressions = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/regressions");
    for name in ["single-switch-50k-hosts", "fat-tree-k128"] {
        let file = regressions.join(format!("{name}.json"));
        for executor in [["--jobs", "1"], ["--workers", "2"]] {
            let mut argv = vec!["run".as_ref(), file.as_os_str()];
            argv.extend(executor.iter().map(std::ffi::OsStr::new));
            let start = std::time::Instant::now();
            let out = repro(&argv);
            let took = start.elapsed();
            let said = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {executor:?}: {said}");
            assert!(
                out.stdout.is_empty(),
                "{name} {executor:?} printed a report"
            );
            assert_eq!(said.matches("error:").count(), 1, "{said}");
            assert!(said.contains(&format!("{name}.json")), "{said}");
            assert!(said.contains("bytes of routing and queue state"), "{said}");
            assert!(!said.contains("panicked"), "{said}");
            assert!(
                took.as_secs_f64() < 1.0,
                "{name} {executor:?} took {took:?}"
            );
        }
    }
}

/// `repro … | head`: the reader is gone before the reports are printed
/// (the batch runs first, and the read end is dropped while it does), so
/// the first line written meets a broken pipe. The process ends quietly
/// with exit 0 — no panic — and every envelope is already on disk. A
/// stdout that fails any other way is exit 2 with the message.
#[test]
fn stdout_closing_early_is_quiet_and_any_other_stdout_error_exits_2() {
    let dir = scratch("pipe");
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "state-budget", "--seeds", "1", "--json"])
        .arg(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
        "{stderr}"
    );
    assert_eq!(json_names(&dir), ["fig1.json", "state-budget.json"]);
    let _ = std::fs::remove_dir_all(&dir);

    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--list")
            .stdin(Stdio::null())
            .stdout(full)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("cannot write to stdout"), "{stderr}");
    }
}

/// `repro trace-summarize PATH`'s stdout, with the path spelled `TRACE`.
fn summary_of(path: &str) -> String {
    let out = repro(&["trace-summarize", path]);
    let said = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{said}");
    said.replace(path, "TRACE")
}

/// The summary of a small traced run and of a synthetic trace whose
/// operations tie on latency and on `(cell, op)` are pinned to the
/// bytes the whole-file summarizer printed; a header that is not a
/// `TraceHeader` of schema `trace-v1` exits 2 naming what is wrong.
#[test]
fn trace_summaries_are_pinned_and_the_header_reads_strictly() {
    let dir = scratch("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("kv.ndjson").to_str().unwrap().to_string();
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/kv-rpc.json");
    let filter = "kind=app.*,kind=flow.*";
    let out = repro(&[
        "run",
        example,
        "--seeds",
        "1",
        "--trace",
        &trace,
        "--trace-filter",
        filter,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        summary_of(&trace),
        include_str!("fixtures/trace-kv-rpc.summary.txt")
    );
    let ties = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/trace-ties.ndjson"
    );
    assert_eq!(
        summary_of(ties),
        include_str!("fixtures/trace-ties.summary.txt")
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let (header, events) = text.split_once('\n').unwrap();
    assert_eq!(
        header,
        r#"{"schema":"trace-v1","source":"kv-rpc","filter":"kind=app.*,kind=flow.*","cells":1}"#
    );
    for (tag, doctored, said) in [
        (
            "unknown-key",
            header.replacen(r#""cells":"#, r#""x":1,"cells":"#, 1),
            "bad header: at x: unknown field",
        ),
        (
            "no-cells",
            header.replacen(r#","cells":1"#, "", 1),
            "bad header: at cells: expected a non-negative integer, got null",
        ),
        (
            "wrong-schema",
            header.replacen("trace-v1", "trace-v2", 1),
            "not a trace-v1 file",
        ),
    ] {
        assert_ne!(doctored, header, "{tag}");
        let path = dir.join(format!("{tag}.ndjson"));
        std::fs::write(&path, format!("{doctored}\n{events}")).unwrap();
        let out = repro(&["trace-summarize", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {err}");
        assert!(err.contains(said), "{tag}: {err}");
        assert!(out.stdout.is_empty(), "{tag}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
