//! Process and host counters read from `/proc`: on-CPU time, peak
//! resident memory, and the two kinds of waiting that mark a contended
//! run (hypervisor steal, run-queue wait).

use std::time::Duration;

/// Clock ticks per second of `/proc` tick counters (`USER_HZ`, 100 on
/// every Linux architecture this benchmark builds for).
const TICKS_PER_SEC: f64 = 100.0;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// User + system CPU time of the whole process, all threads including
/// exited ones (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu() -> Duration {
    let stat = read("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k − 3.
    let tick = |k: usize| fields.get(k - 3).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    Duration::from_secs_f64((tick(14) + tick(15)) as f64 / TICKS_PER_SEC)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = read("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A reading of the host's waiting counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    steal_ticks: u64,
    runq_wait_ns: u64,
}

impl HostSample {
    /// Reads steal time summed over all CPUs (`/proc/stat`) and this
    /// thread's run-queue wait (`/proc/thread-self/schedstat`).
    pub fn now() -> HostSample {
        let steal_ticks = read("/proc/stat")
            .and_then(|s| {
                let cpu = s.lines().next()?.strip_prefix("cpu ")?.to_string();
                cpu.split_whitespace().nth(7)?.parse().ok()
            })
            .unwrap_or(0);
        let runq_wait_ns = read("/proc/thread-self/schedstat")
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
            .unwrap_or(0);
        HostSample { steal_ticks, runq_wait_ns }
    }

    /// `(steal_ms, runq_wait_ms)` accumulated since `earlier`.
    pub fn since(&self, earlier: &HostSample) -> (f64, f64) {
        let steal = self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64;
        let wait = self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns) as f64;
        (steal * 1e3 / TICKS_PER_SEC, wait / 1e6)
    }
}
