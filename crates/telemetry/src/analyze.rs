//! Critical-path analysis over a run's span store.
//!
//! The analyzer consumes the per-process [`SpanRecord`] exports of a run
//! (one entry per fleet instance plus the fleet-level hub) and reduces them
//! to the three forensic views the paper's evaluation needs:
//!
//! * **per-recovery phase breakdown** — for every recovery span, how its
//!   downtime splits across `failure_detect` / `checkpoint_restore` /
//!   `log_replay` / `resume`, and which phase dominated;
//! * **per-journey latency decomposition** — wire vs queue vs
//!   recovery-induced stall vs service, summed from the journey hop spans
//!   the fleet balancer emits, plus end-to-end latency percentiles;
//! * **fleet-level downtime-per-rung** — p50/p99/max downtime for every
//!   escalation rung, attributed via the `rung:<rung>:<reason>` trigger
//!   convention of the fleet supervisor.
//!
//! Everything is integer virtual-clock nanoseconds with nearest-rank
//! percentiles — no floats — so both [`Analysis::render`] and
//! [`Analysis::to_json`] are byte-identical across same-seed runs.

use std::collections::BTreeMap;

use crate::hub::{AttrValue, SpanKind, SpanRecord};
use crate::text::escape;

/// Recovery phase names in pipeline order; indexes [`RecoveryBreakdown::phase_ns`].
pub const PHASES: [&str; 4] = [
    "failure_detect",
    "checkpoint_restore",
    "log_replay",
    "resume",
];

/// Nearest-rank percentile over an already-sorted slice of nanosecond
/// values: `percentile(xs, 99)` is the smallest element ≥ 99% of the
/// distribution. Returns 0 for an empty slice. Integer-only, so the same
/// inputs always give the same byte.
pub fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (q * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// p50/p99/max summary of a nanosecond distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Median (nearest-rank).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Maximum observed value.
    pub max: u64,
}

impl Percentiles {
    fn of(values: &mut [u64]) -> Percentiles {
        values.sort_unstable();
        Percentiles {
            p50: percentile(values, 50),
            p99: percentile(values, 99),
            max: values.last().copied().unwrap_or(0),
        }
    }
}

/// One recovery span decomposed into the paper's four phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryBreakdown {
    /// Process (instance / fleet hub) the recovery was recorded on.
    pub process: String,
    /// Component track the recovery ran on (`*` for full reboots).
    pub track: String,
    /// Trigger attribute (`panic`, `rung:instance:deadline`, ...).
    pub trigger: String,
    /// Recovery start in virtual nanoseconds.
    pub start_ns: u64,
    /// Total downtime (span duration) in virtual nanoseconds.
    pub downtime_ns: u64,
    /// Nanoseconds spent in each phase, indexed like [`PHASES`].
    pub phase_ns: [u64; 4],
    /// Name of the costliest phase (earliest wins ties; `none` when no
    /// phase spans were recorded, e.g. fleet-level bookkeeping spans).
    pub dominant: &'static str,
}

/// Aggregate journey statistics for a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JourneyStats {
    /// Journey roots observed.
    pub journeys: u64,
    /// Journeys that completed within their deadline.
    pub served: u64,
    /// Journeys that failed (dead connection or missed deadline).
    pub failed: u64,
    /// Journeys with any recovery-induced stall on some hop.
    pub stalled: u64,
    /// Total wire time across all hops, nanoseconds.
    pub wire_ns: u64,
    /// Total queueing delay across all hops, nanoseconds.
    pub queue_ns: u64,
    /// Total recovery-induced stall across all hops, nanoseconds
    /// (a subset of the queueing delay).
    pub stall_ns: u64,
    /// Total service time across all hops, nanoseconds.
    pub service_ns: u64,
    /// End-to-end journey latency distribution.
    pub latency: Percentiles,
}

/// Downtime distribution for one escalation rung.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungStats {
    /// Rung name (`component`, `instance`, `fleet`, ...).
    pub rung: String,
    /// Recoveries attributed to this rung.
    pub count: u64,
    /// Downtime distribution in nanoseconds.
    pub downtime: Percentiles,
}

/// The full forensic reduction of one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Analysis {
    /// Every recovery, ordered by `(start_ns, process index, span id)`.
    pub recoveries: Vec<RecoveryBreakdown>,
    /// How many recoveries each phase dominated (phase name → count).
    pub dominant_counts: BTreeMap<&'static str, u64>,
    /// Aggregate journey statistics.
    pub journeys: JourneyStats,
    /// Per-rung downtime distributions, sorted by rung name.
    pub rungs: Vec<RungStats>,
}

fn attr<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a AttrValue> {
    span.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn attr_u64(span: &SpanRecord, key: &str) -> u64 {
    attr(span, key).and_then(AttrValue::as_u64).unwrap_or(0)
}

/// Parses the rung name out of a `rung:<rung>:<reason>` trigger.
fn rung_of(trigger: &str) -> Option<&str> {
    let rest = trigger.strip_prefix("rung:")?;
    Some(rest.split(':').next().unwrap_or(rest))
}

/// Reduces the per-process span exports of a run to an [`Analysis`].
///
/// `processes` pairs a stable process label (instance label or `fleet`)
/// with that hub's spans; span ids are only unique within a process, so the
/// phase→recovery parent linkage is resolved per process. Input order is
/// preserved for tie-breaking, so a deterministic caller gets a
/// byte-identical analysis.
pub fn analyze(processes: &[(String, Vec<SpanRecord>)]) -> Analysis {
    let mut recoveries: Vec<(u64, usize, u64, RecoveryBreakdown)> = Vec::new();
    let mut dominant_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut journeys = JourneyStats::default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut stall_by_journey: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rung_downtimes: BTreeMap<String, Vec<u64>> = BTreeMap::new();

    // First pass: hop decompositions, so journey roots (which sort before
    // their hops in export order) can see their accumulated stall.
    for (_, spans) in processes {
        for s in spans {
            if s.kind() == SpanKind::Journey && s.name() == "hop" {
                journeys.wire_ns += attr_u64(s, "wire_ns");
                journeys.queue_ns += attr_u64(s, "queue_ns");
                journeys.service_ns += attr_u64(s, "service_ns");
                let stall = attr_u64(s, "stall_ns");
                journeys.stall_ns += stall;
                if let Some(j) = attr(s, "journey").and_then(AttrValue::as_u64) {
                    *stall_by_journey.entry(j).or_insert(0) += stall;
                }
            }
        }
    }

    for (pidx, (process, spans)) in processes.iter().enumerate() {
        // Phase spans attach to their recovery via `parent`.
        let mut phases_of: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
        for s in spans {
            if s.kind() != SpanKind::Phase {
                continue;
            }
            let Some(parent) = s.parent() else { continue };
            let Some(idx) = PHASES.iter().position(|p| **p == *s.name()) else {
                continue;
            };
            phases_of.entry(parent).or_default()[idx] += s.duration().as_nanos();
        }
        for s in spans {
            match s.kind() {
                SpanKind::Recovery => {
                    let phase_ns = phases_of.get(&s.id).copied().unwrap_or_default();
                    let dominant = if phase_ns.iter().all(|&ns| ns == 0) {
                        "none"
                    } else {
                        let best = (0..4).max_by_key(|&i| (phase_ns[i], 3 - i)).unwrap();
                        PHASES[best]
                    };
                    *dominant_counts.entry(dominant).or_insert(0) += 1;
                    let trigger = attr(s, "trigger").map_or_else(String::new, ToString::to_string);
                    if let Some(rung) = rung_of(&trigger) {
                        rung_downtimes
                            .entry(rung.to_owned())
                            .or_default()
                            .push(s.duration().as_nanos());
                    }
                    recoveries.push((
                        s.start.as_nanos(),
                        pidx,
                        s.id,
                        RecoveryBreakdown {
                            process: process.clone(),
                            track: s.track().to_string(),
                            trigger,
                            start_ns: s.start.as_nanos(),
                            downtime_ns: s.duration().as_nanos(),
                            phase_ns,
                            dominant,
                        },
                    ));
                }
                SpanKind::Journey if s.name() == "journey" => {
                    journeys.journeys += 1;
                    if matches!(attr(s, "ok"), Some(AttrValue::Bool(true))) {
                        journeys.served += 1;
                    } else {
                        journeys.failed += 1;
                    }
                    latencies.push(s.duration().as_nanos());
                    if let Some(j) = attr(s, "journey").and_then(AttrValue::as_u64) {
                        if stall_by_journey.get(&j).copied().unwrap_or(0) > 0 {
                            journeys.stalled += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    recoveries.sort_by_key(|a| (a.0, a.1, a.2));
    journeys.latency = Percentiles::of(&mut latencies);
    let rungs = rung_downtimes
        .into_iter()
        .map(|(rung, mut values)| RungStats {
            rung,
            count: values.len() as u64,
            downtime: Percentiles::of(&mut values),
        })
        .collect();

    Analysis {
        recoveries: recoveries.into_iter().map(|(_, _, _, r)| r).collect(),
        dominant_counts,
        journeys,
        rungs,
    }
}

impl Analysis {
    /// Largest single-recovery time spent in each phase, indexed like
    /// [`PHASES`] — the numbers audited against per-phase SLO budgets.
    pub fn phase_max_ns(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for r in &self.recoveries {
            for (slot, ns) in out.iter_mut().zip(r.phase_ns) {
                *slot = (*slot).max(ns);
            }
        }
        out
    }

    /// Renders the analysis as a stable human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== recovery forensics ==\n");
        out.push_str(&format!("recoveries: {}\n", self.recoveries.len()));
        for r in &self.recoveries {
            out.push_str(&format!(
                "  {}/{} @{}ns trigger={} downtime={}ns dominant={}",
                r.process,
                r.track,
                r.start_ns,
                if r.trigger.is_empty() {
                    "-"
                } else {
                    &r.trigger
                },
                r.downtime_ns,
                r.dominant
            ));
            if r.phase_ns.iter().any(|&ns| ns > 0) {
                out.push_str(" phases:");
                for (name, ns) in PHASES.iter().zip(r.phase_ns) {
                    out.push_str(&format!(" {}={}ns", name, ns));
                }
            }
            out.push('\n');
        }
        out.push_str("dominant phases:");
        for (phase, count) in &self.dominant_counts {
            out.push_str(&format!(" {}={}", phase, count));
        }
        out.push('\n');
        let j = &self.journeys;
        out.push_str(&format!(
            "journeys: total={} served={} failed={} stalled={}\n",
            j.journeys, j.served, j.failed, j.stalled
        ));
        out.push_str(&format!(
            "  decomposition: wire={}ns queue={}ns stall={}ns service={}ns\n",
            j.wire_ns, j.queue_ns, j.stall_ns, j.service_ns
        ));
        out.push_str(&format!(
            "  latency: p50={}ns p99={}ns max={}ns\n",
            j.latency.p50, j.latency.p99, j.latency.max
        ));
        out.push_str("downtime per rung:\n");
        for r in &self.rungs {
            out.push_str(&format!(
                "  {}: count={} p50={}ns p99={}ns max={}ns\n",
                r.rung, r.count, r.downtime.p50, r.downtime.p99, r.downtime.max
            ));
        }
        out
    }

    /// Renders the analysis as deterministic JSON (hand-rolled; integers
    /// only, keys in fixed order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"recoveries\": [");
        for (i, r) in self.recoveries.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "{{ \"process\": \"{}\", \"track\": \"{}\", \"trigger\": \"{}\", \
                 \"start_ns\": {}, \"downtime_ns\": {}, \"dominant\": \"{}\", \"phases\": {{ ",
                escape(&r.process),
                escape(&r.track),
                escape(&r.trigger),
                r.start_ns,
                r.downtime_ns,
                r.dominant
            ));
            for (n, (name, ns)) in PHASES.iter().zip(r.phase_ns).enumerate() {
                if n > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", name, ns));
            }
            out.push_str(" } }");
        }
        out.push_str("\n  ],\n  \"dominant_phase_counts\": {");
        for (i, (phase, count)) in self.dominant_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(" \"{}\": {}", phase, count));
        }
        out.push_str(" },\n");
        let j = &self.journeys;
        out.push_str(&format!(
            "  \"journeys\": {{ \"total\": {}, \"served\": {}, \"failed\": {}, \
             \"stalled\": {}, \"wire_ns\": {}, \"queue_ns\": {}, \"stall_ns\": {}, \
             \"service_ns\": {}, \"latency_ns\": {{ \"p50\": {}, \"p99\": {}, \"max\": {} }} }},\n",
            j.journeys,
            j.served,
            j.failed,
            j.stalled,
            j.wire_ns,
            j.queue_ns,
            j.stall_ns,
            j.service_ns,
            j.latency.p50,
            j.latency.p99,
            j.latency.max
        ));
        out.push_str("  \"rungs\": [");
        for (i, r) in self.rungs.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "{{ \"rung\": \"{}\", \"count\": {}, \"downtime_ns\": \
                 {{ \"p50\": {}, \"p99\": {}, \"max\": {} }} }}",
                escape(&r.rung),
                r.count,
                r.downtime.p50,
                r.downtime.p99,
                r.downtime.max
            ));
        }
        if self.rungs.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::{parent_id, SpanSite};
    use vampos_sim::Nanos;

    fn text(s: &str) -> AttrValue {
        s.into()
    }

    #[allow(clippy::too_many_arguments)]
    fn span(
        id: u64,
        parent: Option<u64>,
        track: &str,
        name: &str,
        kind: SpanKind,
        start: u64,
        end: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent: parent_id(parent),
            site: SpanSite::new(track, name, kind),
            start: Nanos::from_nanos(start),
            end: Nanos::from_nanos(end),
            attrs: attrs.into_iter().collect(),
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [10u64, 20, 30, 40];
        assert_eq!(percentile(&xs, 50), 20);
        assert_eq!(percentile(&xs, 99), 40);
        assert_eq!(percentile(&xs, 100), 40);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn recovery_breakdown_finds_the_dominant_phase() {
        let spans = vec![
            span(
                0,
                None,
                "9pfs",
                "recovery",
                SpanKind::Recovery,
                100,
                1_100,
                vec![("trigger", text("panic"))],
            ),
            span(
                1,
                Some(0),
                "9pfs",
                "failure_detect",
                SpanKind::Phase,
                100,
                200,
                Vec::new(),
            ),
            span(
                2,
                Some(0),
                "9pfs",
                "log_replay",
                SpanKind::Phase,
                200,
                900,
                Vec::new(),
            ),
            span(
                3,
                Some(0),
                "9pfs",
                "resume",
                SpanKind::Phase,
                900,
                1_100,
                Vec::new(),
            ),
        ];
        let a = analyze(&[("instance-00".to_owned(), spans)]);
        assert_eq!(a.recoveries.len(), 1);
        let r = &a.recoveries[0];
        assert_eq!(r.dominant, "log_replay");
        assert_eq!(r.phase_ns, [100, 0, 700, 200]);
        assert_eq!(r.downtime_ns, 1_000);
        assert_eq!(a.dominant_counts.get("log_replay"), Some(&1));
        assert_eq!(a.phase_max_ns(), [100, 0, 700, 200]);
    }

    #[test]
    fn dominant_ties_break_toward_the_earlier_phase() {
        let spans = vec![
            span(
                0,
                None,
                "vfs",
                "recovery",
                SpanKind::Recovery,
                0,
                200,
                Vec::new(),
            ),
            span(
                1,
                Some(0),
                "vfs",
                "checkpoint_restore",
                SpanKind::Phase,
                0,
                100,
                Vec::new(),
            ),
            span(
                2,
                Some(0),
                "vfs",
                "resume",
                SpanKind::Phase,
                100,
                200,
                Vec::new(),
            ),
        ];
        let a = analyze(&[("i".to_owned(), spans)]);
        assert_eq!(a.recoveries[0].dominant, "checkpoint_restore");
    }

    #[test]
    fn journeys_aggregate_hops_and_rungs_attribute_downtime() {
        let fleet = vec![
            span(
                0,
                None,
                "journeys",
                "journey",
                SpanKind::Journey,
                0,
                1_000,
                vec![
                    ("journey", AttrValue::U64(1)),
                    ("ok", AttrValue::Bool(true)),
                    ("hops", AttrValue::U64(1)),
                ],
            ),
            span(
                1,
                Some(0),
                "journeys",
                "hop",
                SpanKind::Journey,
                0,
                1_000,
                vec![
                    ("journey", AttrValue::U64(1)),
                    ("wire_ns", AttrValue::U64(200)),
                    ("queue_ns", AttrValue::U64(300)),
                    ("stall_ns", AttrValue::U64(250)),
                    ("service_ns", AttrValue::U64(500)),
                ],
            ),
            span(
                2,
                None,
                "journeys",
                "journey",
                SpanKind::Journey,
                50,
                250,
                vec![
                    ("journey", AttrValue::U64(2)),
                    ("ok", AttrValue::Bool(false)),
                ],
            ),
            span(
                3,
                None,
                "instance-00",
                "recovery",
                SpanKind::Recovery,
                10,
                400,
                vec![("trigger", text("rung:instance:deadline"))],
            ),
            span(
                4,
                None,
                "instance-01",
                "recovery",
                SpanKind::Recovery,
                20,
                620,
                vec![("trigger", text("rung:instance:deadline"))],
            ),
            span(
                5,
                None,
                "instance-00",
                "recovery",
                SpanKind::Recovery,
                30,
                31,
                vec![("trigger", text("rung:component:panic"))],
            ),
        ];
        let a = analyze(&[("fleet".to_owned(), fleet)]);
        let j = &a.journeys;
        assert_eq!(
            (j.journeys, j.served, j.failed, j.stalled),
            (2, 1, 1, 1),
            "one stalled served journey, one failed"
        );
        assert_eq!(
            (j.wire_ns, j.queue_ns, j.stall_ns, j.service_ns),
            (200, 300, 250, 500)
        );
        assert_eq!(j.latency.max, 1_000);
        assert_eq!(a.rungs.len(), 2);
        assert_eq!(a.rungs[0].rung, "component");
        assert_eq!(a.rungs[0].count, 1);
        assert_eq!(a.rungs[1].rung, "instance");
        assert_eq!(a.rungs[1].count, 2);
        assert_eq!(a.rungs[1].downtime.max, 600);
        // Bookkeeping recoveries with no phase spans dominate as "none".
        assert_eq!(a.dominant_counts.get("none"), Some(&3));
    }

    #[test]
    fn reports_are_deterministic() {
        let spans = vec![span(
            0,
            None,
            "9pfs",
            "recovery",
            SpanKind::Recovery,
            5,
            15,
            vec![("trigger", text("rung:component:panic"))],
        )];
        let procs = vec![("i".to_owned(), spans)];
        let a = analyze(&procs);
        let b = analyze(&procs);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"rung\": \"component\""));
        // Empty analysis still renders valid JSON scaffolding.
        let empty = analyze(&[]);
        assert!(empty.to_json().ends_with("\"rungs\": []\n}\n"));
    }
}
