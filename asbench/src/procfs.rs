//! Process and host readings from `/proc`: CPU time, context switches,
//! peak memory and CPU steal. Each reads 0 where the file is missing.

use std::fs;

fn tasks() -> Vec<std::path::PathBuf> {
    fs::read_dir("/proc/self/task")
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

/// CPU time of every live thread of this process, nanoseconds (first field
/// of each `/proc/self/task/*/schedstat`).
pub fn cpu_ns() -> u64 {
    tasks()
        .iter()
        .filter_map(|t| fs::read_to_string(t.join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Live threads of this process.
pub fn threads() -> usize {
    tasks().len()
}

/// Voluntary plus involuntary context switches of every live thread.
pub fn ctx_switches() -> u64 {
    tasks()
        .iter()
        .filter_map(|t| fs::read_to_string(t.join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// Peak resident set size (`VmHWM`), kilobytes.
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .unwrap_or(0)
}

/// Host-wide CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

pub fn host_cpu() -> HostCpu {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    HostCpu {
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: HostCpu, after: HostCpu) -> f64 {
    crate::stats::ratio(
        after.steal.saturating_sub(before.steal) as f64,
        after.total.saturating_sub(before.total) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parsing() {
        let s = "Name:\tx\nVmHWM:\t  1624 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(s, "VmHWM:"), Some(1624));
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), Some(12));
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches:"), None);
    }

    #[test]
    fn readings_move_forward() {
        let c0 = cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ns() >= c0);
        assert!(peak_rss_kb() > 0);
        let h = host_cpu();
        assert!(h.total >= h.steal);
    }
}
