//! Mesh run reports: the front tier's [`FleetRunReport`] plus per-stage
//! hop records and end-to-end journey outcomes.
//!
//! Everything here derives `PartialEq + Eq` so whole reports can be
//! compared bit-for-bit — the determinism harness and the chaos twin
//! oracle both diff entire [`MeshRunReport`] values.

use vampos_cluster::{FleetRunReport, HopCost};
use vampos_sim::{Histogram, Nanos};

/// One pipeline hop's booked outcome (the winning attempt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Journey id the hop belongs to.
    pub journey: u64,
    /// When the router issued the hop (first attempt's due time).
    pub start: Nanos,
    /// When the winning response was observed (or the final deadline
    /// expired, for failed hops).
    pub end: Nanos,
    /// Whether any attempt beat its deadline.
    pub ok: bool,
    /// Attempts issued (1 = first try succeeded).
    pub attempts: u32,
    /// Whether a hedge was raced on any attempt.
    pub hedged: bool,
    /// Latency decomposition of the winning attempt (zero for failed
    /// hops).
    pub cost: HopCost,
    /// Winning attempt was an idempotency-table replay.
    pub cached: bool,
}

impl StageRecord {
    /// Hop latency from first issue to winning response.
    pub fn latency(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// All hop records for one pipeline stage, journey order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage label (`kv:put`).
    pub label: String,
    /// One record per journey that reached this stage.
    pub records: Vec<StageRecord>,
}

impl StageReport {
    /// Latency histogram (microseconds) over successful hops.
    pub fn latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in self.records.iter().filter(|r| r.ok) {
            h.record_nanos(r.latency());
        }
        h
    }

    /// Median hop latency, microseconds.
    pub fn p50_us(&self) -> f64 {
        self.latency_histogram().percentile(50.0)
    }

    /// 99th-percentile hop latency, microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency_histogram().percentile(99.0)
    }

    /// Attempts issued beyond the first, summed over all hops.
    pub fn retries(&self) -> u64 {
        self.records
            .iter()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum()
    }

    /// Hops that raced a hedge.
    pub fn hedges(&self) -> u64 {
        self.records.iter().filter(|r| r.hedged).count() as u64
    }
}

/// One ingress request's end-to-end outcome across the whole pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JourneyOutcome {
    /// Journey id (the front drive's issue counter, 1-based).
    pub journey: u64,
    /// Ingress due time.
    pub start: Nanos,
    /// When the client got the final acknowledgment (or gave up).
    pub end: Nanos,
    /// Whether the whole pipeline completed — only acked journeys make
    /// durability promises.
    pub acked: bool,
    /// FNV-1a digest over the winning response bytes of every stage, the
    /// value the pipeline-equivalence oracle compares against the
    /// fault-free twin.
    pub digest: u64,
}

impl JourneyOutcome {
    /// End-to-end latency.
    pub fn latency(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// Outcome of one [`crate::Mesh::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshRunReport {
    /// The front tier's own report (ingress records, reboot counters).
    pub front: FleetRunReport,
    /// Per-stage hop records, pipeline order.
    pub stages: Vec<StageReport>,
    /// End-to-end journey outcomes, journey order.
    pub journeys: Vec<JourneyOutcome>,
    /// Total retry attempts across all stages.
    pub retries: u64,
    /// Total hedges raced across all stages.
    pub hedges: u64,
}

impl MeshRunReport {
    /// Journeys that completed the whole pipeline.
    pub fn acked(&self) -> usize {
        self.journeys.iter().filter(|j| j.acked).count()
    }

    /// End-to-end success rate in percent; 100 for an empty run.
    pub fn success_pct(&self) -> f64 {
        if self.journeys.is_empty() {
            return 100.0;
        }
        self.acked() as f64 * 100.0 / self.journeys.len() as f64
    }

    /// End-to-end latency histogram (microseconds) over acked journeys.
    pub fn e2e_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for j in self.journeys.iter().filter(|j| j.acked) {
            h.record_nanos(j.latency());
        }
        h
    }

    /// Median end-to-end latency, microseconds.
    pub fn e2e_p50_us(&self) -> f64 {
        self.e2e_histogram().percentile(50.0)
    }

    /// 99th-percentile end-to-end latency, microseconds.
    pub fn e2e_p99_us(&self) -> f64 {
        self.e2e_histogram().percentile(99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(journey: u64, start_us: u64, end_us: u64, ok: bool, attempts: u32) -> StageRecord {
        StageRecord {
            journey,
            start: Nanos::from_micros(start_us),
            end: Nanos::from_micros(end_us),
            ok,
            attempts,
            hedged: false,
            cost: HopCost::default(),
            cached: false,
        }
    }

    #[test]
    fn stage_retry_and_hedge_counters_sum_over_records() {
        let mut hedged = rec(2, 10, 40, true, 3);
        hedged.hedged = true;
        let stage = StageReport {
            label: "kv:put".into(),
            records: vec![rec(1, 0, 30, true, 1), hedged, rec(3, 20, 90, false, 4)],
        };
        assert_eq!(stage.retries(), 2 + 3);
        assert_eq!(stage.hedges(), 1);
        // Failed hops stay out of the latency histogram.
        assert_eq!(stage.latency_histogram().len(), 2);
    }

    #[test]
    fn success_pct_counts_acked_journeys() {
        let journeys = vec![
            JourneyOutcome {
                journey: 1,
                start: Nanos::ZERO,
                end: Nanos::from_micros(100),
                acked: true,
                digest: 7,
            },
            JourneyOutcome {
                journey: 2,
                start: Nanos::ZERO,
                end: Nanos::from_micros(50),
                acked: false,
                digest: 0,
            },
        ];
        let report = MeshRunReport {
            front: FleetRunReport::default(),
            stages: Vec::new(),
            journeys,
            retries: 0,
            hedges: 0,
        };
        assert_eq!(report.acked(), 1);
        assert!((report.success_pct() - 50.0).abs() < 1e-9);
        assert_eq!(report.e2e_histogram().len(), 1);
    }
}
