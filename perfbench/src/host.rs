//! How much CPU the virtual machine's host withheld while a measurement
//! ran, from the system-wide counters in `/proc/stat`.
//!
//! On a shared virtual machine a runnable virtual CPU can be descheduled
//! by the host; Linux counts that time as *steal*. It inflates every
//! wall-clock the benchmark reads, independently of the code under test,
//! so runs record it next to their timings.

/// Cumulative system-wide CPU ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks spent running anything (user, nice, system, irq, softirq).
    pub busy: u64,
    /// Ticks a virtual CPU was runnable but the host ran something else.
    pub steal: u64,
}

impl CpuTicks {
    /// Reads the counters; zeros where `/proc/stat` is unavailable.
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(parse))
            .unwrap_or_default()
    }

    /// Share of runnable CPU time the host stole between `self` and a
    /// later reading: `steal / (busy + steal)`, 0 when nothing ran.
    pub fn steal_share_until(&self, later: &CpuTicks) -> f64 {
        let busy = later.busy.saturating_sub(self.busy);
        let steal = later.steal.saturating_sub(self.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// Parses the aggregate `cpu` line: user nice system idle iowait irq
/// softirq steal ...
fn parse(line: &str) -> CpuTicks {
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    CpuTicks {
        busy: at(0) + at(1) + at(2) + at(5) + at(6),
        steal: at(7),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_counts_stolen_runnable_time() {
        let a = parse("cpu  100 0 20 500 1 0 5 25 0 0");
        assert_eq!(
            a,
            CpuTicks {
                busy: 125,
                steal: 25
            }
        );
        let b = parse("cpu  160 0 30 900 1 0 5 45 0 0");
        assert!((a.steal_share_until(&b) - 20.0 / 90.0).abs() < 1e-12);
        assert_eq!(a.steal_share_until(&a), 0.0);
    }
}
