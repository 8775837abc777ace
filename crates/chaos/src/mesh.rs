//! Mesh pipeline sweeps: the chaos harness around
//! [`vampos_mesh::run_mesh_campaign`].
//!
//! The mesh crate owns the campaign itself (the faulted pipeline run, the
//! fault-free twin, and the three oracles — pipeline equivalence, no
//! acknowledged loss, retry budgets); this module owns the chaos *family*
//! machinery on top: independently seeded sweeps fanned out over workers
//! with byte-identical sequential/parallel output, per-class aggregation
//! (ack rate, retry and hedge volume), greedy reproducer shrinking, a
//! stable JSON reproducer format, and the planted self-test battery
//! behind `vampos-chaos --family mesh --plant`.

use std::collections::BTreeSet;

use vampos_bench::parallel_map;
use vampos_mesh::{
    generate_mesh_spec, run_mesh_campaign, run_mesh_campaign_forensics, MeshCampaignReport,
    MeshChaosSpec, MeshFaultClass, MeshPlantKind, MeshViolation, FRONT_INSTANCES,
};
use vampos_sim::derive_seed;
use vampos_telemetry::SpanDump;
use vampos_ukernel::OsError;

use crate::json::{escape, parse_value, splice_tail};

/// Executions the shrinker may spend per failing mesh campaign. Every
/// execution is *two* full mesh runs (faulted plus twin), so the budget
/// sits below the recursive family's.
const SHRINK_BUDGET: usize = 40;

/// Telemetry spans embedded in a failing campaign's reproducer.
const SPAN_TAIL: usize = 24;

/// Configuration of a mesh sweep.
#[derive(Debug, Clone)]
pub struct MeshSweepConfig {
    /// Base seed; campaign seeds are derived per (class, index).
    pub seed: u64,
    /// Campaigns per fault class.
    pub campaigns: u64,
    /// Fault classes under test.
    pub classes: Vec<MeshFaultClass>,
    /// Run campaigns on the calling thread, in order (debugging aid).
    pub sequential: bool,
}

impl Default for MeshSweepConfig {
    fn default() -> Self {
        MeshSweepConfig {
            seed: 42,
            campaigns: 4,
            classes: MeshFaultClass::ALL.to_vec(),
            sequential: false,
        }
    }
}

/// Outcome of one mesh campaign run end to end by the sweep: the campaign
/// report plus shrinking artifacts on failure.
#[derive(Debug, Clone)]
pub struct MeshOutcome {
    /// The campaign's report (spec, violations, journey accounting).
    pub report: MeshCampaignReport,
    /// The minimized reproducer, when the campaign failed.
    pub shrunk: Option<MeshChaosSpec>,
    /// Executions the shrinker spent.
    pub shrink_runs: usize,
    /// Trailing runtime telemetry spans of the shrunk faulted run (empty
    /// for passing campaigns).
    pub span_tail: Vec<SpanDump>,
    /// Trailing journey spans (front journeys and mesh pipelines) of the
    /// shrunk faulted run (empty for passing campaigns).
    pub journey_tail: Vec<SpanDump>,
}

impl MeshOutcome {
    /// Whether every oracle was silent.
    pub fn passed(&self) -> bool {
        self.report.violations.is_empty()
    }

    /// The minimized reproducer serialized as JSON (failing campaigns
    /// only), with the shrunk run's trailing span window embedded.
    pub fn reproducer_json(&self) -> Option<String> {
        self.shrunk
            .as_ref()
            .map(|s| mesh_reproducer_to_json(s, &self.span_tail, &self.journey_tail))
    }

    /// The stable one-line summary the sweep prints.
    pub fn summary_line(&self) -> String {
        let spec = &self.report.spec;
        if self.passed() {
            format!(
                "PASS {} #{} seed={:#018x} acked={}/{} retries={} hedges={}",
                spec.class.name(),
                spec.campaign,
                spec.seed,
                self.report.acked,
                self.report.journeys,
                self.report.retries,
                self.report.hedges,
            )
        } else {
            let mut kinds: Vec<&str> = self.report.violations.iter().map(violation_kind).collect();
            kinds.sort_unstable();
            kinds.dedup();
            format!(
                "FAIL {} #{} seed={:#018x} oracles=[{}] acked={}/{} shrunk in {} run(s)",
                spec.class.name(),
                spec.campaign,
                spec.seed,
                kinds.join(","),
                self.report.acked,
                self.report.journeys,
                self.shrink_runs,
            )
        }
    }
}

/// Runs one mesh campaign end to end, shrinking on failure and harvesting
/// the shrunk run's span tail for the reproducer.
///
/// # Errors
///
/// Propagates simulation errors of the *original* spec (a mesh that could
/// not boot); erroring shrink candidates merely count as non-reproducing.
pub fn run_mesh_outcome(spec: &MeshChaosSpec) -> Result<MeshOutcome, OsError> {
    let report = run_mesh_campaign(spec)?;
    if report.violations.is_empty() {
        return Ok(MeshOutcome {
            report,
            shrunk: None,
            shrink_runs: 0,
            span_tail: Vec::new(),
            journey_tail: Vec::new(),
        });
    }
    let out = shrink_mesh(spec, &report.violations, SHRINK_BUDGET, |candidate| {
        run_mesh_campaign(candidate).map_or_else(|_| Vec::new(), |r| r.violations)
    });
    let (span_tail, journey_tail) = run_mesh_campaign_forensics(&out.spec, SPAN_TAIL)
        .map(|f| (f.span_tail, f.journey_tail))
        .unwrap_or_default();
    Ok(MeshOutcome {
        report,
        shrunk: Some(out.spec),
        shrink_runs: out.runs,
        span_tail,
        journey_tail,
    })
}

/// Aggregated outcome of a mesh sweep, in campaign order.
#[derive(Debug)]
pub struct MeshSweepReport {
    /// Every campaign's outcome, grouped by class in
    /// [`MeshFaultClass::ALL`] order (the generation order).
    pub outcomes: Vec<MeshOutcome>,
}

/// Per-class aggregation: ack rate and recovery-policy workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshClassSummary {
    /// The fault class.
    pub class: MeshFaultClass,
    /// Campaigns run.
    pub runs: usize,
    /// Campaigns with zero oracle violations.
    pub passed: usize,
    /// Journeys acked across the class.
    pub acked: usize,
    /// Journeys issued across the class.
    pub journeys: usize,
    /// Retry attempts across the class.
    pub retries: u64,
    /// Hedges raced across the class.
    pub hedges: u64,
}

impl MeshSweepReport {
    /// Campaigns that violated at least one oracle.
    pub fn failures(&self) -> impl Iterator<Item = &MeshOutcome> {
        self.outcomes.iter().filter(|o| !o.passed())
    }

    /// Per-class ack rate and retry/hedge volume, in first-seen order.
    pub fn class_summaries(&self) -> Vec<MeshClassSummary> {
        let mut summaries: Vec<MeshClassSummary> = Vec::new();
        for outcome in &self.outcomes {
            let class = outcome.report.spec.class;
            let entry = match summaries.iter_mut().find(|s| s.class == class) {
                Some(entry) => entry,
                None => {
                    summaries.push(MeshClassSummary {
                        class,
                        runs: 0,
                        passed: 0,
                        acked: 0,
                        journeys: 0,
                        retries: 0,
                        hedges: 0,
                    });
                    summaries.last_mut().expect("just pushed")
                }
            };
            entry.runs += 1;
            if outcome.passed() {
                entry.passed += 1;
            }
            entry.acked += outcome.report.acked;
            entry.journeys += outcome.report.journeys;
            entry.retries += outcome.report.retries;
            entry.hedges += outcome.report.hedges;
        }
        summaries
    }

    /// The full, deterministic text report: one line per campaign, the
    /// violations under it, the per-class table, and a trailer.
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
            "\n{:<18} {:>5} {:>5}  {:>15}  {:>8} {:>7}\n",
            "class", "runs", "pass", "acked/journeys", "retries", "hedges"
        ));
        for s in self.class_summaries() {
            out.push_str(&format!(
                "{:<18} {:>5} {:>5}  {:>15}  {:>8} {:>7}\n",
                s.class.name(),
                s.runs,
                s.passed,
                format!("{}/{}", s.acked, s.journeys),
                s.retries,
                s.hedges,
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
/// Propagates the first simulation error of any campaign (a mesh that
/// could not even boot).
pub fn run_mesh_sweep(cfg: &MeshSweepConfig) -> Result<MeshSweepReport, OsError> {
    let specs: Vec<MeshChaosSpec> = cfg
        .classes
        .iter()
        .enumerate()
        .flat_map(|(ci, &class)| {
            (0..cfg.campaigns).map(move |c| {
                let idx = ci as u64 * cfg.campaigns + c;
                generate_mesh_spec(derive_seed(cfg.seed, idx), idx, class, None)
            })
        })
        .collect();
    let outcomes = if cfg.sequential {
        specs
            .iter()
            .map(run_mesh_outcome)
            .collect::<Result<Vec<_>, _>>()?
    } else {
        parallel_map(specs, |spec| run_mesh_outcome(&spec))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
    };
    Ok(MeshSweepReport { outcomes })
}

/// Outcome of one planted mesh self-test.
#[derive(Debug, Clone)]
pub struct MeshPlantCheck {
    /// The plant that ran.
    pub plant: MeshPlantKind,
    /// Whether exactly the targeted oracle fired.
    pub ok: bool,
    /// What actually fired, for the failure report.
    pub detail: String,
}

fn violation_kind(v: &MeshViolation) -> &'static str {
    match v {
        MeshViolation::PipelineDivergence { .. } => "pipeline-divergence",
        MeshViolation::AckedLoss { .. } => "acked-loss",
        MeshViolation::RetryBudget { .. } => "retry-budget",
    }
}

fn violation_kinds(violations: &[MeshViolation]) -> BTreeSet<&'static str> {
    violations.iter().map(violation_kind).collect()
}

/// Runs the three planted self-tests and checks that each flips exactly
/// the oracle it targets — the proof that a clean sweep means "the
/// pipeline held", not "the oracles slept".
///
/// # Errors
///
/// Propagates simulation errors; a plant whose oracles misfire is an
/// `ok: false` check, not an error.
pub fn run_mesh_plants(seed: u64) -> Result<Vec<MeshPlantCheck>, OsError> {
    let plants = [
        (MeshPlantKind::WrongValue, "pipeline-divergence"),
        (MeshPlantKind::AckedLoss, "acked-loss"),
        (MeshPlantKind::RetryStorm, "retry-budget"),
    ];
    let mut checks = Vec::new();
    for (i, (plant, expected)) in plants.into_iter().enumerate() {
        let spec = generate_mesh_spec(
            derive_seed(seed, i as u64),
            i as u64,
            MeshFaultClass::KvRejuvenate,
            Some(plant),
        );
        let report = run_mesh_campaign(&spec)?;
        let kinds = violation_kinds(&report.violations);
        let ok = kinds.len() == 1 && kinds.contains(expected);
        checks.push(MeshPlantCheck {
            plant,
            ok,
            detail: format!("expected [{expected}], observed {kinds:?}"),
        });
    }
    Ok(checks)
}

/// Shrink outcome: the smallest accepted spec and the executions spent.
#[derive(Debug, Clone)]
pub struct MeshShrinkOutcome {
    /// The minimized spec (the original if nothing smaller reproduced).
    pub spec: MeshChaosSpec,
    /// Executions spent.
    pub runs: usize,
}

/// Minimizes a failing mesh spec under `budget` executions.
///
/// A mesh spec is already structurally minimal (one fault, one target),
/// so shrinking reduces *magnitudes* greedily to a fixpoint: halve the
/// fault arming time, the per-client request count, and the client
/// population. Acceptance requires the candidate's violation kinds to
/// intersect the original's — a shrink that walks onto a different oracle
/// no longer reproduces the bug of interest.
pub fn shrink_mesh<F>(
    spec: &MeshChaosSpec,
    original: &[MeshViolation],
    budget: usize,
    mut execute: F,
) -> MeshShrinkOutcome
where
    F: FnMut(&MeshChaosSpec) -> Vec<MeshViolation>,
{
    let target = violation_kinds(original);
    let mut best = spec.clone();
    let mut runs = 0usize;
    if target.is_empty() {
        return MeshShrinkOutcome { spec: best, runs };
    }
    let mut reproduces = |candidate: &MeshChaosSpec, runs: &mut usize| -> bool {
        *runs += 1;
        !violation_kinds(&execute(candidate)).is_disjoint(&target)
    };
    loop {
        let mut improved = false;
        for mutate in [
            (|s: &mut MeshChaosSpec| {
                if s.at_ns > 1 {
                    s.at_ns /= 2;
                    true
                } else {
                    false
                }
            }) as fn(&mut MeshChaosSpec) -> bool,
            |s| {
                if s.requests_per_client > 4 {
                    s.requests_per_client = (s.requests_per_client / 2).max(4);
                    true
                } else {
                    false
                }
            },
            |s| {
                if s.clients > 2 {
                    s.clients = (s.clients / 2).max(2);
                    true
                } else {
                    false
                }
            },
        ] {
            if runs >= budget {
                return MeshShrinkOutcome { spec: best, runs };
            }
            let mut candidate = best.clone();
            if mutate(&mut candidate) && reproduces(&candidate, &mut runs) {
                best = candidate;
                improved = true;
            }
        }
        if !improved || runs >= budget {
            return MeshShrinkOutcome { spec: best, runs };
        }
    }
}

/// Serializes a mesh spec as pretty-printed JSON (stable field order —
/// reproducer artifacts must be byte-identical across runs). The
/// `"family"` discriminator keeps mesh reproducers from parsing as
/// component, fleet, or recursive ones and vice versa.
pub fn mesh_to_json(spec: &MeshChaosSpec) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"family\": \"mesh\",\n");
    out.push_str(&format!("  \"seed\": {},\n", spec.seed));
    out.push_str(&format!("  \"campaign\": {},\n", spec.campaign));
    out.push_str(&format!("  \"class\": \"{}\",\n", spec.class.name()));
    out.push_str(&format!(
        "  \"plant\": \"{}\",\n",
        spec.plant.map_or("none", MeshPlantKind::name)
    ));
    out.push_str(&format!("  \"plant_journey\": {},\n", spec.plant_journey));
    out.push_str(&format!("  \"replicas\": {},\n", spec.replicas));
    out.push_str(&format!("  \"clients\": {},\n", spec.clients));
    out.push_str(&format!(
        "  \"requests_per_client\": {},\n",
        spec.requests_per_client
    ));
    out.push_str(&format!("  \"at_ns\": {},\n", spec.at_ns));
    out.push_str(&format!("  \"target_replica\": {},\n", spec.target_replica));
    out.push_str(&format!("  \"target_front\": {},\n", spec.target_front));
    out.push_str("  \"component\": ");
    escape(&spec.component, &mut out);
    out.push('\n');
    out.push_str("}\n");
    out
}

/// Serializes a mesh reproducer: the spec plus the failing run's trailing
/// runtime spans and the journeys in flight when it failed.
/// [`mesh_from_json`] ignores the extra keys, so reproducers with
/// embedded spans replay unchanged.
pub fn mesh_reproducer_to_json(
    spec: &MeshChaosSpec,
    tail: &[SpanDump],
    journeys: &[SpanDump],
) -> String {
    let mut out = mesh_to_json(spec);
    splice_tail(&mut out, "span_tail", tail);
    splice_tail(&mut out, "journey_tail", journeys);
    out
}

/// Parses a mesh reproducer back into a spec.
///
/// # Errors
///
/// A description of the first syntax or schema error, including a missing
/// or non-`"mesh"` `"family"` discriminator.
pub fn mesh_from_json(text: &str) -> Result<MeshChaosSpec, String> {
    let v = parse_value(text)?;
    let family = v.get("family")?.as_str()?;
    if family != "mesh" {
        return Err(format!("not a mesh reproducer: family {family:?}"));
    }
    let class = v.get("class")?.as_str()?;
    let class =
        MeshFaultClass::from_name(class).ok_or_else(|| format!("unknown fault class {class:?}"))?;
    let plant = v.get("plant")?.as_str()?;
    let plant = match plant {
        "none" => None,
        name => {
            Some(MeshPlantKind::from_name(name).ok_or_else(|| format!("unknown plant {name:?}"))?)
        }
    };
    let replicas = v.get("replicas")?.as_u64()? as usize;
    let target_replica = v.get("target_replica")?.as_u64()? as usize;
    if target_replica >= replicas {
        return Err(format!(
            "target_replica {target_replica} out of range for {replicas} replica(s)"
        ));
    }
    let target_front = v.get("target_front")?.as_u64()? as usize;
    if target_front >= FRONT_INSTANCES {
        return Err(format!(
            "target_front {target_front} out of range for {FRONT_INSTANCES} front instance(s)"
        ));
    }
    Ok(MeshChaosSpec {
        seed: v.get("seed")?.as_u64()?,
        campaign: v.get("campaign")?.as_u64()?,
        class,
        plant,
        plant_journey: v.get("plant_journey")?.as_u64()?,
        replicas,
        clients: v.get("clients")?.as_u64()? as usize,
        requests_per_client: v.get("requests_per_client")?.as_u64()? as usize,
        at_ns: v.get("at_ns")?.as_u64()?,
        target_replica,
        target_front,
        component: v.get("component")?.as_str()?.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{journey_tail_from_json, span_tail_from_json};

    #[test]
    fn every_class_and_plant_round_trips_through_json() {
        for (i, class) in MeshFaultClass::ALL.into_iter().enumerate() {
            for plant in [
                None,
                Some(MeshPlantKind::WrongValue),
                Some(MeshPlantKind::AckedLoss),
                Some(MeshPlantKind::RetryStorm),
            ] {
                let spec = generate_mesh_spec(derive_seed(9, i as u64), i as u64, class, plant);
                let text = mesh_to_json(&spec);
                assert_eq!(mesh_from_json(&text).unwrap(), spec, "{text}");
                assert_eq!(text, mesh_to_json(&spec), "serialization is stable");
            }
        }
    }

    #[test]
    fn foreign_family_documents_are_rejected() {
        let spec = crate::generate_spec(crate::WorkloadKind::Kv, 7, 0, 2, false);
        assert!(mesh_from_json(&crate::to_json(&spec)).is_err());
        let recursive = vampos_cluster::generate_recursive_spec(
            7,
            0,
            vampos_cluster::FaultClass::NinepStall,
            vampos_cluster::PlantKind::None,
        );
        assert!(mesh_from_json(&crate::recursive_to_json(&recursive)).is_err());
        let mesh = generate_mesh_spec(7, 0, MeshFaultClass::KvReboot, None);
        assert!(crate::recursive_from_json(&mesh_to_json(&mesh)).is_err());
        // So are targets the mesh does not have.
        let replica = MeshChaosSpec {
            target_replica: mesh.replicas,
            ..mesh.clone()
        };
        let err = mesh_from_json(&mesh_to_json(&replica)).unwrap_err();
        assert!(err.contains("target_replica"), "{err}");
        let front = MeshChaosSpec {
            target_front: FRONT_INSTANCES,
            ..mesh
        };
        let err = mesh_from_json(&mesh_to_json(&front)).unwrap_err();
        assert!(err.contains("target_front"), "{err}");
    }

    #[test]
    fn reproducers_embed_and_recover_span_and_journey_tails() {
        let spec = generate_mesh_spec(1, 0, MeshFaultClass::KvReboot, None);
        let tail = vec![SpanDump {
            track: "mesh".into(),
            name: "backend_op".into(),
            start_ns: 10,
            dur_ns: 20,
            depth: 0,
        }];
        let journeys = vec![SpanDump {
            track: "mesh".into(),
            name: "pipeline".into(),
            start_ns: 5,
            dur_ns: 40,
            depth: 0,
        }];
        let text = mesh_reproducer_to_json(&spec, &tail, &journeys);
        assert_eq!(mesh_from_json(&text).unwrap(), spec);
        assert_eq!(span_tail_from_json(&text).unwrap(), tail);
        assert_eq!(journey_tail_from_json(&text).unwrap(), journeys);
        assert_eq!(
            mesh_reproducer_to_json(&spec, &[], &[]),
            mesh_to_json(&spec)
        );
    }

    #[test]
    fn a_small_sweep_passes_and_reruns_identically() {
        let cfg = MeshSweepConfig {
            seed: 42,
            campaigns: 1,
            classes: vec![MeshFaultClass::KvRejuvenate, MeshFaultClass::AuthRejuvenate],
            sequential: false,
        };
        let a = run_mesh_sweep(&cfg).expect("sweep");
        assert_eq!(a.outcomes.len(), 2);
        assert_eq!(a.failures().count(), 0, "{:?}", a.outcomes);
        let b = run_mesh_sweep(&cfg).expect("sweep");
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.report.spec, y.report.spec);
            assert_eq!(x.report.violations, y.report.violations);
            assert_eq!(x.report.acked, y.report.acked);
            assert_eq!(x.report.retries, y.report.retries);
        }
        let mut seq = cfg.clone();
        seq.sequential = true;
        assert_eq!(
            run_mesh_sweep(&seq).expect("sweep").render(),
            a.render(),
            "parallel vs sequential"
        );
    }

    #[test]
    fn the_plant_battery_reports_all_three_awake() {
        let checks = run_mesh_plants(42).expect("plants");
        assert_eq!(checks.len(), 3);
        for check in &checks {
            assert!(check.ok, "{}: {}", check.plant.name(), check.detail);
        }
    }

    #[test]
    fn shrinking_preserves_the_violation_kind() {
        let spec = generate_mesh_spec(5, 0, MeshFaultClass::KvReboot, None);
        let original = vec![MeshViolation::AckedLoss {
            journey: 3,
            stage: "kv:put".into(),
        }];
        // Synthetic bug: reproduces while the load stays heavy enough.
        let out = shrink_mesh(&spec, &original, 100, |candidate| {
            if candidate.requests_per_client >= 8 {
                vec![MeshViolation::AckedLoss {
                    journey: 1,
                    stage: "kv:put".into(),
                }]
            } else {
                vec![MeshViolation::RetryBudget {
                    journey: 1,
                    stage: "kv:get".into(),
                    attempts: 9,
                    budget: 4,
                }]
            }
        });
        // Halving stops at the last reproducing value: 8 <= rpc < 16.
        assert!(
            (8..16).contains(&out.spec.requests_per_client),
            "{:?}",
            out.spec
        );
        assert_eq!(out.spec.at_ns, 1);
        assert!(out.runs <= 100);
    }

    #[test]
    fn a_passing_spec_is_left_alone() {
        let spec = generate_mesh_spec(5, 0, MeshFaultClass::KvReboot, None);
        let out = shrink_mesh(&spec, &[], 100, |_| Vec::new());
        assert_eq!(out.runs, 0);
        assert_eq!(out.spec, spec);
    }
}
