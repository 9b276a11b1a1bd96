//! Run metadata and the shared-host noise diagnostic (not gated): core
//! count, git revision, CPU time and scheduler wait, peak RSS.

use std::path::Path;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// Linux).
const USER_HZ: f64 = 100.0;

/// Cores the process may run on.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Git revision of the checkout, or `"unknown"` when it is not a git
/// repository (the benchmark may run from an exported tree).
pub(crate) fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Process CPU time (user + system) so far, in seconds.
pub(crate) fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Time the calling thread has spent runnable but waiting for a CPU, in
/// milliseconds (`/proc/thread-self/schedstat`, second field).
pub(crate) fn sched_wait_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e6)
}

/// Peak resident set size of the process, in MB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time and scheduler wait at one instant, for deltas over a phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Usage {
    cpu_s: f64,
    wait_ms: f64,
}

impl Usage {
    /// Sample now.
    pub(crate) fn now() -> Self {
        Self {
            cpu_s: cpu_s(),
            wait_ms: sched_wait_ms(),
        }
    }

    /// `(cpu seconds, scheduler wait ms)` since `self`.
    pub(crate) fn since(&self) -> (f64, f64) {
        let now = Self::now();
        (now.cpu_s - self.cpu_s, now.wait_ms - self.wait_ms)
    }
}

/// Move the main thread to the next CPU, round robin, with `taskset`.
///
/// Other tenants of a shared host slow one CPU at a time for stretches of
/// tens of seconds, and the scheduler keeps a busy thread where it is, so
/// a run pinned by chance to the slowed CPU is slow throughout. Calling
/// this between passes spreads a run's passes over every CPU, and the
/// quietest-quarter summary then finds the quiet ones. Best effort: does
/// nothing where `taskset` is missing or refuses.
pub(crate) fn next_cpu(pass: usize) {
    let cpu = pass % nproc();
    let _ = std::process::Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}
