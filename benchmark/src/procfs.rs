//! What the kernel says about this process and its host: CPU time, memory,
//! stolen time, and the environment stamp.

use std::fs;
use std::path::Path;

/// `USER_HZ`: the unit of the CPU times in `/proc/*/stat`. It has been 100 on
/// every Linux architecture this code can meet, and the standard library has
/// no `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

/// Parses `utime + stime` (fields 14 and 15) and the command name out of a
/// `/proc/<pid>/stat` line. The name is in parentheses and may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat(line: &str) -> Option<(String, f64)> {
    let (open, close) = (line.find('(')?, line.rfind(')')?);
    let mut rest = line[close + 1..].split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((line[open + 1..close].to_string(), (utime + stime) as f64 / TICKS_PER_SECOND))
}

/// User plus system CPU seconds this process (all threads, every replica and
/// the generator) has used.
pub fn process_cpu_s() -> f64 {
    let line = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat(&line).expect("/proc/self/stat has the documented layout").1
}

/// User plus system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    let line =
        fs::read_to_string("/proc/thread-self/stat").expect("/proc/thread-self/stat is readable");
    parse_stat(&line).expect("/proc/thread-self/stat has the documented layout").1
}

/// One thread's identity and CPU seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u64,
    /// Thread name (`zab-wire-<id>` for transport threads).
    pub name: String,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
}

/// CPU seconds of every live thread of this process.
pub fn threads_cpu() -> Vec<ThreadCpu> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            // A thread may exit between the listing and the read.
            let (name, cpu_s) = parse_stat(&fs::read_to_string(entry.path().join("stat")).ok()?)?;
            Some(ThreadCpu { tid, name, cpu_s })
        })
        .collect()
}

/// The calling thread's kernel id, from the `/proc/thread-self` link.
pub fn current_tid() -> Option<u64> {
    fs::read_link("/proc/thread-self").ok()?.file_name()?.to_str()?.parse().ok()
}

/// Host-wide CPU time since boot, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCpu {
    /// All accounted time, idle included.
    pub total: u64,
    /// Time a hypervisor gave to someone else while this guest wanted to run.
    pub steal: u64,
}

fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user.
    Some(HostCpu { total: fields.iter().take(8).sum(), steal: *fields.get(7)? })
}

/// Reads `/proc/stat`.
pub fn host_cpu() -> HostCpu {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    parse_host_cpu(&stat).expect("/proc/stat starts with the aggregate cpu line")
}

/// Share of host CPU time stolen between two readings.
pub fn steal_share(before: HostCpu, after: HostCpu) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

fn status_mb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} line"));
    kb / 1024.0
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Filesystem type holding `path`: the longest mount point that is a prefix
/// of it. Decides what a `sync_data` in the file workloads costs.
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (point, fstype) = (f.nth(1)?, f.next()?);
            path.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// Kernel release.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_thread_name() {
        let line = "42 (zab (wire) 1) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 9 0 100 0 0";
        assert_eq!(parse_stat(line), Some(("zab (wire) 1".to_string(), 3.0)));
        assert_eq!(parse_stat("42 (short) S 1"), None);
    }

    #[test]
    fn steal_is_a_share_of_all_host_time() {
        let a = parse_host_cpu("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n").expect("parses");
        assert_eq!(a, HostCpu { total: 1000, steal: 35 });
        let b = HostCpu { total: 2000, steal: 60 };
        assert_eq!(steal_share(a, b), 0.025);
        assert_eq!(steal_share(a, a), 0.0);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
        assert!(rss_mb() > 0.0);
        let tid = current_tid().expect("/proc/thread-self");
        assert!(threads_cpu().iter().any(|t| t.tid == tid));
        assert!(process_cpu_s() >= 0.0);

        assert_ne!(filesystem_of(Path::new("/proc")), "unknown");
    }
}
