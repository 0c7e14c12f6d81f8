//! Child processes: every one the benchmark starts is waited for, and
//! killed first if it outlives its deadline.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// No single child may take longer than this.
const CHILD_BUDGET: Duration = Duration::from_secs(90);

/// The deadline of a child started now in a run that must end by
/// `run_deadline`.
pub fn child_deadline(run_deadline: Instant) -> Instant {
    run_deadline.min(Instant::now() + CHILD_BUDGET)
}

/// Peak resident set (`VmHWM`) of process `pid` so far, in kB.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// A finished child.
pub struct Finished {
    /// Exit code; `None` when the child was killed by a signal or by
    /// the deadline.
    pub code: Option<i32>,
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Highest `VmHWM` seen while polling `/proc/<pid>/status`, kB.
    pub peak_rss_kb: u64,
    /// True when the deadline expired and the child was killed.
    pub timed_out: bool,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Run `cmd` to completion with its standard output and error written
/// to the two files, polling its peak resident set while it runs. The
/// child is killed at `deadline`; either way it has been waited for
/// when this returns.
pub fn run_to_files(
    mut cmd: Command,
    stdout: &Path,
    stderr: &Path,
    deadline: Instant,
) -> std::io::Result<Finished> {
    cmd.stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?);
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id().to_string();
    let mut peak_rss_kb = 0;
    let mut timed_out = false;
    let status = loop {
        // The status file is gone once the child is reaped, so sample
        // before asking whether it has exited.
        if let Some(kb) = vm_hwm_kb(&pid) {
            peak_rss_kb = peak_rss_kb.max(kb);
        }
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if Instant::now() >= deadline {
            timed_out = true;
            child.kill()?;
            break child.wait()?;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    Ok(Finished {
        code: if timed_out { None } else { status.code() },
        wall_s: t0.elapsed().as_secs_f64(),
        peak_rss_kb,
        timed_out,
    })
}
