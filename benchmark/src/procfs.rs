//! Process-level readings from `/proc/self` (Linux only; every reading
//! degrades to zero elsewhere rather than failing the run).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Cumulative CPU time and context switches of the whole process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches, summed over the threads
    /// alive at the time of reading.
    pub ctx_switches: f64,
}

impl Usage {
    /// The current cumulative readings.
    pub fn now() -> Usage {
        Usage {
            cpu_s: cpu_seconds(),
            ctx_switches: context_switches(),
        }
    }

    /// The readings accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: (self.cpu_s - earlier.cpu_s).max(0.0),
            ctx_switches: (self.ctx_switches - earlier.ctx_switches).max(0.0),
        }
    }
}

fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn context_switches() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches").unwrap_or(0.0)
                + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0.0)
        })
        .sum()
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set size of the process, in MiB.
pub fn rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmRSS"))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads currently alive in the process.
pub fn threads() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "Threads"))
        .unwrap_or(0.0)
}
