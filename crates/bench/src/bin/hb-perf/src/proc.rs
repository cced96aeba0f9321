//! What the benchmark reads from the operating system: CPU time, memory
//! high-water mark, machine identity, and the child process that runs one
//! workload under a deadline.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// On-CPU nanoseconds of every live thread of this process, summed from
/// `/proc/self/task/*/schedstat` (the kernel's own nanosecond accounting;
/// `utime`/`stime` only resolve to 10 ms). A thread's time leaves the sum
/// when it exits, so windows must not span a thread's exit; every thread
/// the benchmark measures outlives the measured windows.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_ascii_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// On-CPU nanoseconds of the calling thread (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The commit of the checkout in the current directory, read from `.git`
/// directly so nothing outside the checkout is consulted; `unknown` in an
/// exported tree.
pub fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|sha| sha.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// How one child ended.
pub enum ChildEnd {
    /// Exit code and everything it wrote to standard output.
    Exited(i32, String),
    /// Killed at the deadline.
    TimedOut,
    /// Could not be started or waited for.
    Failed(String),
}

/// Runs this executable again with `args`, captures its standard output and
/// kills it at `deadline`. The child is always waited for before returning.
pub fn run_child(args: &[String], deadline: Duration) -> ChildEnd {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => return ChildEnd::Failed(format!("current_exe: {err}")),
    };
    let mut child = match Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(err) => return ChildEnd::Failed(format!("spawn: {err}")),
    };
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // Drained on its own thread so a chatty child never blocks on a full
    // pipe while the deadline loop sleeps.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let end = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status.code().unwrap_or(-1)),
            Ok(None) if started.elapsed() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(ChildEnd::TimedOut);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(err) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(ChildEnd::Failed(format!("wait: {err}")));
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    match end {
        Ok(code) => ChildEnd::Exited(code, text),
        Err(end) => end,
    }
}
