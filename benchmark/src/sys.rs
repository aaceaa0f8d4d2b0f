//! Host facts and process memory, read without side effects.

use std::path::Path;

/// A `kB` field of `/proc/<pid>/status`, in MiB.
fn status_field_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Current resident set of this process, MiB (0 where unavailable).
pub fn rss_mb() -> f64 {
    status_field_mb("self", "VmRSS:").unwrap_or(0.0)
}

/// High-water resident set of this process, MiB (0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    status_field_mb("self", "VmHWM:").unwrap_or(0.0)
}

/// CPU time this process's threads have used, user plus system, in
/// seconds (10 ms resolution; 0 where unavailable). Time the host
/// steals from the virtual CPUs is not charged here, which makes it the
/// steadier cost measure on a shared machine.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Hardware threads available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit the working directory is checked out at, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    read_revision(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_revision(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

/// Hands the allocator's free heap back to the operating system, so
/// memory a torn-down set-up freed does not stay resident and count
/// towards the next set-up's peak. A no-op off glibc.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free heap pages; it reads no
        // caller memory and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}
