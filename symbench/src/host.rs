//! Host diagnostics read from `/proc`, so that an outlying run can be
//! blamed on the machine rather than the code.

use std::time::Instant;

/// Scheduler counters of the calling thread at one instant.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    on_cpu_ns: u64,
    runq_wait_ns: u64,
}

impl HostSample {
    /// Reads `/proc/thread-self/schedstat` (zeros where it is missing).
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        HostSample {
            at: Instant::now(),
            on_cpu_ns: fields.next().unwrap_or(0),
            runq_wait_ns: fields.next().unwrap_or(0),
        }
    }

    /// Wall, on-CPU and run-queue-wait seconds elapsed since `self`.
    pub fn since(&self) -> HostTimes {
        let now = HostSample::now();
        HostTimes {
            wall_s: now.at.duration_since(self.at).as_secs_f64(),
            cpu_s: now.on_cpu_ns.saturating_sub(self.on_cpu_ns) as f64 / 1e9,
            runq_wait_s: now.runq_wait_ns.saturating_sub(self.runq_wait_ns) as f64 / 1e9,
        }
    }
}

/// What the host did over an interval.
#[derive(Debug, Clone, Copy)]
pub struct HostTimes {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub runq_wait_s: f64,
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
