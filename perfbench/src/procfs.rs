//! Counters read from `/proc`: process and per-thread CPU, run-queue
//! wait, peak RSS and the host's CPU steal.

use std::collections::BTreeMap;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (the
/// `USER_HZ` every Linux ABI fixes at 100).
const TICKS_PER_SEC: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU time of the whole process — every thread, including threads that
/// have already exited — in microseconds.
pub fn process_cpu_us() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC * 1e6
}

/// CPU nanoseconds of the calling thread.
pub fn thread_self_cpu_ns() -> u64 {
    parse_schedstat(&read("/proc/thread-self/schedstat")).0
}

fn parse_schedstat(s: &str) -> (u64, u64) {
    let mut it = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Per-thread `(name, cpu_ns, runq_ns)` of every live thread, keyed by
/// thread id.
pub fn threads() -> BTreeMap<u64, (String, u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let base = entry.path();
        let name = std::fs::read_to_string(base.join("comm")).unwrap_or_default();
        let sched = std::fs::read_to_string(base.join("schedstat")).unwrap_or_default();
        let (cpu, runq) = parse_schedstat(&sched);
        out.insert(tid, (name.trim().to_string(), cpu, runq));
    }
    out
}

/// CPU and run-queue nanoseconds spent between two [`threads`] samples
/// by threads whose name starts with `prefix`. Thread names are cut to 15
/// bytes by the kernel, so prefixes must be shorter than that.
pub fn thread_delta(
    before: &BTreeMap<u64, (String, u64, u64)>,
    after: &BTreeMap<u64, (String, u64, u64)>,
    prefix: &str,
) -> (u64, u64) {
    let mut cpu = 0;
    let mut runq = 0;
    for (tid, (name, c1, r1)) in after {
        if !name.starts_with(prefix) {
            continue;
        }
        let (c0, r0) = before.get(tid).map_or((0, 0), |(_, c, r)| (*c, *r));
        cpu += c1.saturating_sub(c0);
        runq += r1.saturating_sub(r0);
    }
    (cpu, runq)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU tick counters `(steal, total)` from `/proc/stat`.
pub fn host_steal() -> (u64, u64) {
    let stat = read("/proc/stat");
    let line = stat.lines().next().unwrap_or("");
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    (vals.get(7).copied().unwrap_or(0), vals.iter().sum())
}
