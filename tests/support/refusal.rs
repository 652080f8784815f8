//! Shared by the workspace's command-line tests: run a binary in a
//! fresh, empty working directory under a deadline, and check that it
//! refused its arguments before doing anything — exit 2, the offending
//! token named on stderr, nothing left in the directory — and that the
//! `//! Usage:` docs of its source match the usage line it printed.
//! Included by each test crate with `#[path]`; the binaries live in
//! different packages, so each test crate reaches its own binaries
//! through `CARGO_BIN_EXE_*`.

#![allow(dead_code)] // each test crate uses its own subset

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one run printed and left behind.
pub struct Run {
    /// Exit code; `None` when the deadline killed it.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// The names the run left in its working directory.
    pub left: Vec<String>,
}

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("wcms-refusal-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `bin args` in a fresh empty directory. A binary that does not
/// refuse may start a whole sweep or serve forever, so the run is
/// killed after 20 s: the test fails instead of hanging.
pub fn run_in_empty_dir(bin: &str, args: &[&str]) -> Run {
    let dir = scratch_dir();
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (mut stdout, mut stderr) = (String::new(), String::new());
    child.stdout.take().unwrap().read_to_string(&mut stdout).ok();
    child.stderr.take().unwrap().read_to_string(&mut stderr).ok();
    let left = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    Run { code: status.and_then(|s| s.code()), stdout, stderr, left }
}

/// Assert that `bin args` was refused as a usage error naming `token`
/// before any side effect.
pub fn assert_refused(bin: &str, args: &[&str], token: &str) -> Run {
    let run = run_in_empty_dir(bin, args);
    assert_eq!(run.code, Some(2), "{bin} {args:?}: exit {:?}, stderr:\n{}", run.code, run.stderr);
    assert!(run.stderr.contains(token), "{bin} {args:?} must name {token}:\n{}", run.stderr);
    assert!(run.left.is_empty(), "{bin} {args:?} left {:?} behind", run.left);
    run
}

/// Assert that every usage line `run` printed appears in the `//!`
/// docs of `source` (whitespace collapsed, backticks dropped), and that
/// it printed at least one.
pub fn assert_documented(source: &str, run: &Run) {
    let docs: String = source
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("//!"))
        .collect::<Vec<_>>()
        .join(" ")
        .replace('`', "");
    let docs = docs.split_whitespace().collect::<Vec<_>>().join(" ");
    let usage: Vec<&str> = run.stderr.lines().filter_map(|l| l.strip_prefix("usage: ")).collect();
    assert!(!usage.is_empty(), "no usage line printed:\n{}", run.stderr);
    for line in usage {
        assert!(docs.contains(line), "the source's usage docs must read `{line}`");
    }
}
