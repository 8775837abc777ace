//! Runtime statistics: everything the evaluation harness reads.

use vampos_sim::Nanos;

/// One component's exact work counters, bumped where the runtime narrates
/// the same transitions to its telemetry collector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentCounters {
    /// Cross-component calls delivered to the component.
    pub hops: u64,
    /// Recoveries begun on it — reboots (once per composite member),
    /// version swaps and updates, aborted ones included.
    pub recoveries: u64,
    /// Summed length of its completed reboot windows. A composite's window
    /// is charged to every member.
    pub downtime: Nanos,
    /// Its longest completed reboot window.
    pub longest_downtime: Nanos,
}

impl ComponentCounters {
    /// Charges one completed reboot window.
    pub(crate) fn charge(&mut self, window: Nanos) {
        self.downtime += window;
        self.longest_downtime = self.longest_downtime.max(window);
    }
}

/// Counters and timings collected by a running [`System`](crate::System).
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// Message hops performed (push + pull pairs).
    pub msg_hops: u64,
    /// Context switches charged by the scheduler.
    pub ctx_switches: u64,
    /// PKRU writes (protection-domain switches).
    pub mpk_switches: u64,
    /// Accesses the MPK check denied.
    pub mpk_violations: u64,
    /// Dependency-aware dispatches whose target was *not* in the caller's
    /// declared dependency set (the scheduler falls back to a full scan).
    pub das_mispredicts: u64,
    /// Log entries appended across all components.
    pub log_appended: u64,
    /// Log entries removed by shrinking across all components.
    pub log_removed: u64,
    /// Component failures detected.
    pub failures: u64,
    /// Component reboots performed.
    pub component_reboots: u64,
    /// Full (whole-application) reboots performed.
    pub full_reboots: u64,
    /// Log entries replayed during restorations.
    pub replayed_entries: u64,
    /// Summed length of every downtime window, component and full
    /// reboots alike; read through [`SystemStats::total_downtime`]. Kept
    /// as a total so the bookkeeping does not grow with the run.
    pub(crate) downtime: Nanos,
    /// The longest full-reboot window.
    pub(crate) longest_full_reboot: Nanos,
    /// Calls that were retried after an in-line recovery.
    pub recovered_calls: u64,
    /// Failures the detector observed but did not act on (false-negative
    /// windows armed by chaos fault injection).
    pub missed_detections: u64,
    /// Detector firings with no underlying failure (false positives armed
    /// by chaos fault injection); each one triggers a needless reboot.
    pub spurious_detections: u64,
    /// Multi-version swaps performed after recurring failures.
    pub version_swaps: u64,
    /// Live component updates performed.
    pub component_updates: u64,
}

impl SystemStats {
    /// Total downtime across all windows.
    pub fn total_downtime(&self) -> Nanos {
        self.downtime
    }

    /// The longest full-reboot window ([`Nanos::ZERO`] before the first).
    pub fn longest_full_reboot(&self) -> Nanos {
        self.longest_full_reboot
    }

    /// Books one component-reboot window.
    pub(crate) fn charge_component_reboot(&mut self, window: Nanos) {
        self.component_reboots += 1;
        self.downtime += window;
    }

    /// Books one full-reboot window.
    pub(crate) fn charge_full_reboot(&mut self, window: Nanos) {
        self.full_reboots += 1;
        self.downtime += window;
        self.longest_full_reboot = self.longest_full_reboot.max(window);
    }

    /// Net live log entries (appended − removed).
    pub fn live_log_entries(&self) -> i64 {
        self.log_appended as i64 - self.log_removed as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downtime_sums_windows() {
        let mut s = SystemStats::default();
        s.charge_component_reboot(Nanos::from_millis(5));
        s.charge_full_reboot(Nanos::from_millis(300));
        s.charge_full_reboot(Nanos::from_millis(200));
        assert_eq!(s.total_downtime(), Nanos::from_millis(505));
        assert_eq!(s.longest_full_reboot(), Nanos::from_millis(300));
        assert_eq!((s.component_reboots, s.full_reboots), (1, 2));
    }

    #[test]
    fn component_counters_keep_the_sum_and_the_longest() {
        let mut c = ComponentCounters::default();
        for ms in [4, 9, 2] {
            c.charge(Nanos::from_millis(ms));
        }
        assert_eq!(c.downtime, Nanos::from_millis(15));
        assert_eq!(c.longest_downtime, Nanos::from_millis(9));
    }

    #[test]
    fn live_log_entries_subtracts_removed() {
        let s = SystemStats {
            log_appended: 10,
            log_removed: 4,
            ..SystemStats::default()
        };
        assert_eq!(s.live_log_entries(), 6);
    }
}
