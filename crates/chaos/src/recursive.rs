//! Recursive-recovery sweeps: the chaos harness around
//! [`vampos_cluster::run_recursive_campaign`].
//!
//! The cluster crate owns the campaign itself (fault arming, the
//! escalation ladder, the three oracles); this module owns everything a
//! chaos *family* needs on top: independently seeded sweeps fanned out
//! over workers with byte-identical sequential/parallel output, per-class
//! aggregation (success rate and rung histogram), greedy reproducer
//! shrinking, a stable JSON reproducer format, and the planted self-test
//! battery behind `vampos-chaos --family recursive --plant`.

use std::collections::BTreeSet;

use vampos_bench::parallel_map;
use vampos_cluster::{
    generate_recursive_spec, run_recursive_campaign, run_recursive_campaign_forensics, FaultClass,
    PlantKind, RecursiveCampaignReport, RecursiveCampaignSpec, RecursiveViolation, Rung,
};
use vampos_sim::derive_seed;
use vampos_telemetry::SpanDump;
use vampos_ukernel::OsError;

use crate::json::{escape, parse_value, splice_tail};

/// Executions the shrinker may spend per failing recursive campaign (each
/// one is a whole supervised fleet run — pricier than a component
/// campaign, so the budget is tighter than [`crate::engine`]'s).
const SHRINK_BUDGET: usize = 60;

/// Telemetry spans embedded in a failing campaign's reproducer.
const SPAN_TAIL: usize = 24;

/// Configuration of a recursive sweep.
#[derive(Debug, Clone)]
pub struct RecursiveSweepConfig {
    /// Base seed; campaign seeds are derived per (class, index).
    pub seed: u64,
    /// Campaigns per fault class.
    pub campaigns: u64,
    /// Fault classes under test.
    pub classes: Vec<FaultClass>,
    /// Run campaigns on the calling thread, in order (debugging aid).
    pub sequential: bool,
}

impl Default for RecursiveSweepConfig {
    fn default() -> Self {
        RecursiveSweepConfig {
            seed: 42,
            campaigns: 10,
            classes: FaultClass::ALL.to_vec(),
            sequential: false,
        }
    }
}

/// Outcome of one recursive campaign run end to end by the sweep:
/// the campaign report plus shrinking artifacts on failure.
#[derive(Debug, Clone)]
pub struct RecursiveOutcome {
    /// The campaign's report (spec, violations, rung accounting).
    pub report: RecursiveCampaignReport,
    /// The minimized reproducer, when the campaign failed.
    pub shrunk: Option<RecursiveCampaignSpec>,
    /// Executions the shrinker spent.
    pub shrink_runs: usize,
    /// Trailing runtime telemetry spans of the shrunk faulted run (empty
    /// for passing campaigns).
    pub span_tail: Vec<SpanDump>,
    /// Trailing request-journey spans of the shrunk faulted run (empty for
    /// passing campaigns).
    pub journey_tail: Vec<SpanDump>,
}

impl RecursiveOutcome {
    /// Whether every oracle was silent.
    pub fn passed(&self) -> bool {
        self.report.violations.is_empty()
    }

    /// The minimized reproducer serialized as JSON (failing campaigns
    /// only), with the shrunk run's trailing span window embedded.
    pub fn reproducer_json(&self) -> Option<String> {
        self.shrunk
            .as_ref()
            .map(|s| recursive_reproducer_to_json(s, &self.span_tail, &self.journey_tail))
    }

    /// The stable one-line summary the sweep prints.
    pub fn summary_line(&self) -> String {
        let spec = &self.report.spec;
        let rungs: Vec<&str> = self.report.rungs.iter().map(|r| r.name()).collect();
        if self.passed() {
            format!(
                "PASS {} #{} seed={:#018x} rungs=[{}] condemned={}",
                spec.class.name(),
                spec.campaign,
                spec.seed,
                rungs.join(","),
                self.report.condemned,
            )
        } else {
            let mut kinds: Vec<&str> = self.report.violations.iter().map(violation_kind).collect();
            kinds.sort_unstable();
            kinds.dedup();
            format!(
                "FAIL {} #{} seed={:#018x} oracles=[{}] rungs=[{}] shrunk in {} run(s)",
                spec.class.name(),
                spec.campaign,
                spec.seed,
                kinds.join(","),
                rungs.join(","),
                self.shrink_runs,
            )
        }
    }
}

/// Runs one recursive campaign end to end, shrinking on failure and
/// harvesting the shrunk run's span tail for the reproducer.
///
/// # Errors
///
/// Propagates simulation errors of the *original* spec (a fleet that
/// could not boot or serve its pre-fault probe); erroring shrink
/// candidates merely count as non-reproducing.
pub fn run_recursive_outcome(spec: &RecursiveCampaignSpec) -> Result<RecursiveOutcome, OsError> {
    let report = run_recursive_campaign(spec)?;
    if report.violations.is_empty() {
        return Ok(RecursiveOutcome {
            report,
            shrunk: None,
            shrink_runs: 0,
            span_tail: Vec::new(),
            journey_tail: Vec::new(),
        });
    }
    let out = shrink_recursive(spec, &report.violations, SHRINK_BUDGET, |candidate| {
        run_recursive_campaign(candidate).map_or_else(|_| Vec::new(), |r| r.violations)
    });
    let (span_tail, journey_tail) = run_recursive_campaign_forensics(&out.spec, SPAN_TAIL)
        .map(|f| (f.span_tail, f.journey_tail))
        .unwrap_or_default();
    Ok(RecursiveOutcome {
        report,
        shrunk: Some(out.spec),
        shrink_runs: out.runs,
        span_tail,
        journey_tail,
    })
}

/// Aggregated outcome of a recursive sweep, in campaign order.
#[derive(Debug)]
pub struct RecursiveSweepReport {
    /// Every campaign's outcome, grouped by class in [`FaultClass::ALL`]
    /// order (the generation order).
    pub outcomes: Vec<RecursiveOutcome>,
}

/// Per-class aggregation: how often the ladder held and which rungs it
/// climbed on the faulted instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSummary {
    /// The fault class.
    pub class: FaultClass,
    /// Campaigns run.
    pub runs: usize,
    /// Campaigns with zero oracle violations.
    pub passed: usize,
    /// Rung firings against the faulted instance:
    /// `[component, instance, fleet]`.
    pub rung_counts: [usize; 3],
    /// Instances condemned (fleet failovers) across the class.
    pub condemned: usize,
}

impl RecursiveSweepReport {
    /// Campaigns that violated at least one oracle.
    pub fn failures(&self) -> impl Iterator<Item = &RecursiveOutcome> {
        self.outcomes.iter().filter(|o| !o.passed())
    }

    /// Per-class success rate and rung histogram, in first-seen order.
    pub fn class_summaries(&self) -> Vec<ClassSummary> {
        let mut summaries: Vec<ClassSummary> = Vec::new();
        for outcome in self.outcomes.iter().map(|o| &o.report) {
            let class = outcome.spec.class;
            let entry = match summaries.iter_mut().find(|s| s.class == class) {
                Some(entry) => entry,
                None => {
                    summaries.push(ClassSummary {
                        class,
                        runs: 0,
                        passed: 0,
                        rung_counts: [0; 3],
                        condemned: 0,
                    });
                    summaries.last_mut().expect("just pushed")
                }
            };
            entry.runs += 1;
            if outcome.violations.is_empty() {
                entry.passed += 1;
            }
            for rung in &outcome.rungs {
                let slot = match rung {
                    Rung::Component => 0,
                    Rung::Instance => 1,
                    Rung::Fleet => 2,
                };
                entry.rung_counts[slot] += 1;
            }
            entry.condemned += outcome.condemned;
        }
        summaries
    }

    /// The full, deterministic text report: one line per campaign, the
    /// violations under it, the per-class success/rung-histogram table,
    /// and a trailer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for outcome in &self.outcomes {
            out.push_str(&outcome.summary_line());
            out.push('\n');
            for v in &outcome.report.violations {
                out.push_str(&format!("  {}: {v:?}\n", violation_kind(v)));
            }
        }
        out.push_str(&format!(
            "\n{:<24} {:>5} {:>5}  {:>24}  {:>9}\n",
            "class", "runs", "pass", "rungs (comp/inst/fleet)", "condemned"
        ));
        for s in self.class_summaries() {
            out.push_str(&format!(
                "{:<24} {:>5} {:>5}  {:>24}  {:>9}\n",
                s.class.name(),
                s.runs,
                s.passed,
                format!(
                    "{}/{}/{}",
                    s.rung_counts[0], s.rung_counts[1], s.rung_counts[2]
                ),
                s.condemned,
            ));
        }
        let failed = self.failures().count();
        out.push_str(&format!(
            "\n{} campaign(s), {} passed, {} failed\n",
            self.outcomes.len(),
            self.outcomes.len() - failed,
            failed,
        ));
        out
    }
}

/// Runs `cfg.campaigns` campaigns for every class in `cfg.classes`,
/// fanned out over workers and reported in generation order (so the
/// rendered report is byte-identical to a sequential run).
///
/// # Errors
///
/// Propagates the first simulation error of any campaign (a fleet that
/// could not even boot or serve its pre-fault probe).
pub fn run_recursive_sweep(cfg: &RecursiveSweepConfig) -> Result<RecursiveSweepReport, OsError> {
    let specs: Vec<RecursiveCampaignSpec> = cfg
        .classes
        .iter()
        .enumerate()
        .flat_map(|(ci, &class)| {
            (0..cfg.campaigns).map(move |c| {
                let idx = ci as u64 * cfg.campaigns + c;
                generate_recursive_spec(derive_seed(cfg.seed, idx), idx, class, PlantKind::None)
            })
        })
        .collect();
    let outcomes = if cfg.sequential {
        specs
            .iter()
            .map(run_recursive_outcome)
            .collect::<Result<Vec<_>, _>>()?
    } else {
        parallel_map(specs, |spec| run_recursive_outcome(&spec))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
    };
    Ok(RecursiveSweepReport { outcomes })
}

/// Outcome of one planted self-test.
#[derive(Debug, Clone)]
pub struct PlantCheck {
    /// The plant that ran.
    pub plant: PlantKind,
    /// Whether exactly the targeted oracle fired.
    pub ok: bool,
    /// What actually fired, for the failure report.
    pub detail: String,
}

fn violation_kind(v: &RecursiveViolation) -> &'static str {
    match v {
        RecursiveViolation::LadderDiverged { .. } => "ladder-diverged",
        RecursiveViolation::AckedLoss { .. } => "acked-loss",
        RecursiveViolation::RungMisattributed { .. } => "rung-misattributed",
    }
}

fn violation_kinds(violations: &[RecursiveViolation]) -> BTreeSet<&'static str> {
    violations.iter().map(violation_kind).collect()
}

/// Runs the three planted self-tests and checks that each flips exactly
/// the oracle it targets — the proof that a clean sweep means "the ladder
/// held", not "the oracles slept".
///
/// # Errors
///
/// Propagates simulation errors; a plant whose oracles misfire is an
/// `ok: false` check, not an error.
pub fn run_recursive_plants(seed: u64) -> Result<Vec<PlantCheck>, OsError> {
    let plants = [
        (PlantKind::LadderStall, "ladder-diverged"),
        (PlantKind::AckedLoss, "acked-loss"),
        (PlantKind::MisattributedRung, "rung-misattributed"),
    ];
    let mut checks = Vec::new();
    for (i, (plant, expected)) in plants.into_iter().enumerate() {
        let spec = generate_recursive_spec(
            derive_seed(seed, i as u64),
            i as u64,
            FaultClass::NinepCorrupt,
            plant,
        );
        let report = run_recursive_campaign(&spec)?;
        let kinds = violation_kinds(&report.violations);
        // The stall plant's diverged ladder may drag other accounting
        // sideways; the targeted oracle must fire and the other two
        // *planted* signatures must not. The cheaper plants are strict:
        // exactly one oracle.
        let ok = match plant {
            PlantKind::LadderStall => kinds.contains(expected),
            _ => kinds.len() == 1 && kinds.contains(expected),
        };
        checks.push(PlantCheck {
            plant,
            ok,
            detail: format!("expected [{expected}], observed {kinds:?}"),
        });
    }
    Ok(checks)
}

/// Shrink outcome: the smallest accepted spec and the executions spent.
#[derive(Debug, Clone)]
pub struct RecursiveShrinkOutcome {
    /// The minimized spec (the original if nothing smaller reproduced).
    pub spec: RecursiveCampaignSpec,
    /// Executions spent.
    pub runs: usize,
}

/// Minimizes a failing recursive spec under `budget` executions.
///
/// A recursive spec is already structurally minimal (one fault, one
/// target), so shrinking reduces *magnitudes* greedily to a fixpoint:
/// halve the fault arming time, the per-client request count, and the
/// corruption windows. Acceptance requires the candidate's violation
/// kinds to intersect the original's — same rule as
/// [`crate::shrink::shrink`], for the same reason: a shrink that walks
/// onto a different oracle no longer reproduces the bug of interest.
pub fn shrink_recursive<F>(
    spec: &RecursiveCampaignSpec,
    original: &[RecursiveViolation],
    budget: usize,
    mut execute: F,
) -> RecursiveShrinkOutcome
where
    F: FnMut(&RecursiveCampaignSpec) -> Vec<RecursiveViolation>,
{
    let target = violation_kinds(original);
    let mut best = spec.clone();
    let mut runs = 0usize;
    if target.is_empty() {
        return RecursiveShrinkOutcome { spec: best, runs };
    }
    let mut reproduces = |candidate: &RecursiveCampaignSpec, runs: &mut usize| -> bool {
        *runs += 1;
        !violation_kinds(&execute(candidate)).is_disjoint(&target)
    };
    loop {
        let mut improved = false;
        for mutate in [
            (|s: &mut RecursiveCampaignSpec| {
                if s.at_ns > 1 {
                    s.at_ns /= 2;
                    true
                } else {
                    false
                }
            }) as fn(&mut RecursiveCampaignSpec) -> bool,
            |s| {
                if s.requests_per_client > 4 {
                    s.requests_per_client = (s.requests_per_client / 2).max(4);
                    true
                } else {
                    false
                }
            },
            |s| {
                if s.glitch_count > 1 {
                    s.glitch_count = (s.glitch_count / 2).max(1);
                    true
                } else {
                    false
                }
            },
            |s| {
                if s.silent_count > 1 {
                    s.silent_count = (s.silent_count / 2).max(1);
                    true
                } else {
                    false
                }
            },
        ] {
            if runs >= budget {
                return RecursiveShrinkOutcome { spec: best, runs };
            }
            let mut candidate = best.clone();
            if mutate(&mut candidate) && reproduces(&candidate, &mut runs) {
                best = candidate;
                improved = true;
            }
        }
        if !improved || runs >= budget {
            return RecursiveShrinkOutcome { spec: best, runs };
        }
    }
}

/// Serializes a recursive spec as pretty-printed JSON (stable field order
/// — reproducer artifacts must be byte-identical across runs). The
/// `"family"` discriminator keeps recursive reproducers from parsing as
/// component-family ones and vice versa.
pub fn recursive_to_json(spec: &RecursiveCampaignSpec) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"family\": \"recursive\",\n");
    out.push_str(&format!("  \"seed\": {},\n", spec.seed));
    out.push_str(&format!("  \"campaign\": {},\n", spec.campaign));
    out.push_str(&format!("  \"instances\": {},\n", spec.instances));
    out.push_str(&format!("  \"clients\": {},\n", spec.clients));
    out.push_str(&format!(
        "  \"requests_per_client\": {},\n",
        spec.requests_per_client
    ));
    out.push_str(&format!("  \"class\": \"{}\",\n", spec.class.name()));
    out.push_str(&format!("  \"target\": {},\n", spec.target));
    out.push_str(&format!("  \"at_ns\": {},\n", spec.at_ns));
    out.push_str("  \"component\": ");
    escape(&spec.component, &mut out);
    out.push_str(",\n");
    out.push_str(&format!("  \"glitch_count\": {},\n", spec.glitch_count));
    out.push_str(&format!("  \"silent_count\": {},\n", spec.silent_count));
    out.push_str(&format!("  \"plant\": \"{}\"\n", spec.plant.name()));
    out.push_str("}\n");
    out
}

/// Serializes a recursive reproducer: the spec plus the failing run's
/// trailing runtime spans and the request journeys in flight when it
/// failed. [`recursive_from_json`] ignores the extra keys, so reproducers
/// with embedded spans replay unchanged.
pub fn recursive_reproducer_to_json(
    spec: &RecursiveCampaignSpec,
    tail: &[SpanDump],
    journeys: &[SpanDump],
) -> String {
    let mut out = recursive_to_json(spec);
    splice_tail(&mut out, "span_tail", tail);
    splice_tail(&mut out, "journey_tail", journeys);
    out
}

/// Parses a recursive reproducer back into a spec.
///
/// # Errors
///
/// A description of the first syntax or schema error, including a
/// missing or non-`"recursive"` `"family"` discriminator.
pub fn recursive_from_json(text: &str) -> Result<RecursiveCampaignSpec, String> {
    let v = parse_value(text)?;
    let family = v.get("family")?.as_str()?;
    if family != "recursive" {
        return Err(format!("not a recursive reproducer: family {family:?}"));
    }
    let class = v.get("class")?.as_str()?;
    let class =
        FaultClass::from_name(class).ok_or_else(|| format!("unknown fault class {class:?}"))?;
    let plant = v.get("plant")?.as_str()?;
    let plant = PlantKind::from_name(plant).ok_or_else(|| format!("unknown plant {plant:?}"))?;
    let instances = v.get("instances")?.as_u64()? as usize;
    let target = v.get("target")?.as_u64()? as usize;
    if target >= instances {
        return Err(format!(
            "target {target} out of range for {instances} instance(s)"
        ));
    }
    Ok(RecursiveCampaignSpec {
        instances,
        seed: v.get("seed")?.as_u64()?,
        campaign: v.get("campaign")?.as_u64()?,
        clients: v.get("clients")?.as_u64()? as usize,
        requests_per_client: v.get("requests_per_client")?.as_u64()? as usize,
        class,
        target,
        at_ns: v.get("at_ns")?.as_u64()?,
        component: v.get("component")?.as_str()?.to_owned(),
        glitch_count: v.get("glitch_count")?.as_u64()? as u32,
        silent_count: v.get("silent_count")?.as_u64()? as u32,
        plant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{journey_tail_from_json, span_tail_from_json};

    #[test]
    fn every_class_and_plant_round_trips_through_json() {
        for (i, class) in FaultClass::ALL.into_iter().enumerate() {
            for plant in [
                PlantKind::None,
                PlantKind::LadderStall,
                PlantKind::AckedLoss,
                PlantKind::MisattributedRung,
            ] {
                let spec =
                    generate_recursive_spec(derive_seed(9, i as u64), i as u64, class, plant);
                let text = recursive_to_json(&spec);
                assert_eq!(recursive_from_json(&text).unwrap(), spec, "{text}");
                assert_eq!(text, recursive_to_json(&spec), "serialization is stable");
            }
        }
    }

    #[test]
    fn component_family_documents_are_rejected() {
        let spec = crate::generate_spec(crate::WorkloadKind::Kv, 7, 0, 2, false);
        assert!(recursive_from_json(&crate::to_json(&spec)).is_err());
        // So is a target the fleet does not have.
        let mut spec = generate_recursive_spec(7, 0, FaultClass::NinepStall, PlantKind::None);
        spec.target = spec.instances;
        let err = recursive_from_json(&recursive_to_json(&spec)).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn reproducers_embed_and_recover_span_and_journey_tails() {
        let spec = generate_recursive_spec(1, 0, FaultClass::NinepStall, PlantKind::None);
        let tail = vec![SpanDump {
            track: "fleet".into(),
            name: "rung:instance:request not served".into(),
            start_ns: 10,
            dur_ns: 20,
            depth: 0,
        }];
        let journeys = vec![SpanDump {
            track: "journeys".into(),
            name: "journey".into(),
            start_ns: 5,
            dur_ns: 40,
            depth: 0,
        }];
        let text = recursive_reproducer_to_json(&spec, &tail, &journeys);
        assert_eq!(recursive_from_json(&text).unwrap(), spec);
        assert_eq!(span_tail_from_json(&text).unwrap(), tail);
        assert_eq!(journey_tail_from_json(&text).unwrap(), journeys);
        assert_eq!(
            recursive_reproducer_to_json(&spec, &[], &[]),
            recursive_to_json(&spec)
        );
        // A journey tail can ride without a runtime tail and vice versa.
        let only_journeys = recursive_reproducer_to_json(&spec, &[], &journeys);
        assert_eq!(span_tail_from_json(&only_journeys).unwrap(), Vec::new());
        assert_eq!(journey_tail_from_json(&only_journeys).unwrap(), journeys);
    }

    #[test]
    fn a_small_sweep_passes_and_reruns_identically() {
        let cfg = RecursiveSweepConfig {
            seed: 42,
            campaigns: 1,
            classes: vec![FaultClass::NinepCorrupt, FaultClass::DetectorFalsePositive],
            sequential: false,
        };
        let a = run_recursive_sweep(&cfg).expect("sweep");
        assert_eq!(a.outcomes.len(), 2);
        assert_eq!(a.failures().count(), 0, "{:?}", a.outcomes);
        let b = run_recursive_sweep(&cfg).expect("sweep");
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.report.spec, y.report.spec);
            assert_eq!(x.report.rungs, y.report.rungs);
            assert_eq!(x.report.violations, y.report.violations);
            assert_eq!(x.report.requests, y.report.requests);
        }
        let mut seq = cfg.clone();
        seq.sequential = true;
        assert_eq!(
            run_recursive_sweep(&seq).expect("sweep").render(),
            a.render(),
            "parallel vs sequential"
        );
    }

    #[test]
    fn class_summaries_histogram_the_target_rungs() {
        let cfg = RecursiveSweepConfig {
            seed: 42,
            campaigns: 2,
            classes: vec![FaultClass::NinepCorrupt],
            sequential: false,
        };
        let report = run_recursive_sweep(&cfg).expect("sweep");
        let summaries = report.class_summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].class, FaultClass::NinepCorrupt);
        assert_eq!(summaries[0].runs, 2);
        assert_eq!(summaries[0].passed, 2);
        assert!(summaries[0].rung_counts[0] > 0, "{summaries:?}");
        assert_eq!(summaries[0].rung_counts[2], 0);
    }

    #[test]
    fn the_plant_battery_reports_all_three_awake() {
        let checks = run_recursive_plants(42).expect("plants");
        assert_eq!(checks.len(), 3);
        for check in &checks {
            assert!(check.ok, "{}: {}", check.plant.name(), check.detail);
        }
    }

    #[test]
    fn shrinking_preserves_the_violation_kind() {
        let spec = generate_recursive_spec(5, 0, FaultClass::NinepCorrupt, PlantKind::None);
        let original = vec![RecursiveViolation::AckedLoss {
            acked_bad: 3,
            probe_mismatch: false,
        }];
        // Synthetic bug: reproduces while the corruption window stays wide.
        let out = shrink_recursive(&spec, &original, 100, |candidate| {
            if candidate.glitch_count >= 4 {
                vec![RecursiveViolation::AckedLoss {
                    acked_bad: 1,
                    probe_mismatch: false,
                }]
            } else {
                vec![RecursiveViolation::LadderDiverged {
                    rungs_fired: 9,
                    unserved: vec![0],
                }]
            }
        });
        // Halving stops at the last reproducing value: 4 <= count < 8.
        assert!((4..8).contains(&out.spec.glitch_count), "{:?}", out.spec);
        assert_eq!(out.spec.at_ns, 1);
        assert_eq!(out.spec.requests_per_client, 4);
        assert!(out.runs <= 100);
    }

    #[test]
    fn a_passing_spec_is_left_alone() {
        let spec = generate_recursive_spec(5, 0, FaultClass::NinepCorrupt, PlantKind::None);
        let out = shrink_recursive(&spec, &[], 100, |_| Vec::new());
        assert_eq!(out.runs, 0);
        assert_eq!(out.spec, spec);
    }
}
