//! Fleet-level aggregation of per-instance load reports.

use vampos_sim::{Histogram, Nanos, Summary};
use vampos_workloads::LoadReport;

/// Outcome of one [`crate::Fleet::run`]: every instance's
/// [`LoadReport`] plus fleet-level counters, with aggregate views built by
/// merging the per-instance statistics ([`Summary::merge`],
/// [`Histogram::merge`]) rather than re-walking the raw records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetRunReport {
    /// One load report per instance, indexed by instance id.
    pub per_instance: Vec<LoadReport>,
    /// Requests re-issued through the balancer after a dead connection.
    pub retried: u64,
    /// Proactive migrations the policy ordered (drain or load triggered).
    pub redirects: u64,
    /// Arrival events dispatched by the drive loop (excludes the in-line
    /// retries counted by `retried`).
    pub issued: u64,
    /// Completion events observed; the engine drains its heap before
    /// returning, so a finished run always has `completed == issued` —
    /// the closed-loop conservation invariant.
    pub completed: u64,
    /// Component reboots performed across the fleet during the run.
    pub component_reboots: u64,
    /// Full reboots performed across the fleet during the run.
    pub full_reboots: u64,
    /// Virtual time the run covered.
    pub duration: Nanos,
}

impl FleetRunReport {
    /// Stamps the virtual time the run covered on the fleet report and on
    /// every per-instance report. A caller whose run outlasts the front
    /// tier's (the mesh draining straggler backend maintenance) re-stamps.
    pub fn stamp_duration(&mut self, duration: Nanos) {
        self.duration = duration;
        for report in &mut self.per_instance {
            report.duration = duration;
        }
    }

    /// Total requests recorded (including retried ones).
    pub fn requests(&self) -> usize {
        self.per_instance.iter().map(|r| r.records.len()).sum()
    }

    /// Requests answered with a valid response inside the client timeout.
    pub fn successes(&self) -> usize {
        self.per_instance.iter().map(LoadReport::successes).sum()
    }

    /// Requests lost (connection errors or timeouts).
    pub fn failures(&self) -> usize {
        self.per_instance.iter().map(LoadReport::failures).sum()
    }

    /// Success rate in percent; 100 for an empty run.
    pub fn success_pct(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            return 100.0;
        }
        self.successes() as f64 * 100.0 / total as f64
    }

    /// Connections that had to be re-established.
    pub fn reconnects(&self) -> u64 {
        self.per_instance.iter().map(|r| r.reconnects).sum()
    }

    /// Merged latency histogram (microseconds, successful requests).
    pub fn latency_histogram(&self) -> Histogram {
        let mut merged = Histogram::new();
        for report in &self.per_instance {
            merged.merge(&report.latency_histogram());
        }
        merged
    }

    /// Merged latency summary (microseconds, successful requests).
    pub fn latency_summary(&self) -> Summary {
        let mut merged = Summary::new();
        for report in &self.per_instance {
            let mut s = Summary::new();
            for r in report.records.iter().filter(|r| r.ok) {
                s.record_nanos(r.latency());
            }
            merged.merge(&s);
        }
        merged
    }

    /// Median latency in microseconds over successful requests.
    pub fn p50_us(&self) -> f64 {
        self.latency_histogram().percentile(50.0)
    }

    /// 99th-percentile latency in microseconds over successful requests.
    pub fn p99_us(&self) -> f64 {
        self.latency_histogram().percentile(99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_workloads::RequestRecord;

    fn record(start_us: u64, end_us: u64, ok: bool) -> RequestRecord {
        RequestRecord {
            start: Nanos::from_micros(start_us),
            end: Nanos::from_micros(end_us),
            ok,
        }
    }

    fn shard(records: Vec<RequestRecord>) -> LoadReport {
        LoadReport {
            records,
            reconnects: 1,
            duration: Nanos::from_secs(1),
        }
    }

    #[test]
    fn aggregates_match_the_pooled_records() {
        let report = FleetRunReport {
            per_instance: vec![
                shard(vec![record(0, 100, true), record(0, 300, false)]),
                shard(vec![record(0, 200, true), record(0, 400, true)]),
            ],
            retried: 1,
            ..FleetRunReport::default()
        };
        assert_eq!(report.requests(), 4);
        assert_eq!(report.successes(), 3);
        assert_eq!(report.failures(), 1);
        assert_eq!(report.reconnects(), 2);
        assert!((report.success_pct() - 75.0).abs() < 1e-9);

        let merged = report.latency_summary();
        let mut pooled = Summary::new();
        for us in [100.0, 200.0, 400.0] {
            pooled.record(us);
        }
        assert_eq!(merged.count(), pooled.count());
        assert!((merged.mean() - pooled.mean()).abs() < 1e-9);
        assert!((merged.max() - pooled.max()).abs() < 1e-9);

        let mut h = report.latency_histogram();
        assert_eq!(h.len(), 3);
        assert!((h.percentile(50.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_benign() {
        let report = FleetRunReport::default();
        assert_eq!(report.requests(), 0);
        assert_eq!(report.success_pct(), 100.0);
        assert_eq!(report.latency_summary().count(), 0);
    }
}
