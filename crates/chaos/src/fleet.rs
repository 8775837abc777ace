//! Fleet-level chaos campaigns: instance-scoped fault schedules against a
//! multi-instance cluster, checked with the fleet oracles.
//!
//! A fleet campaign injects component-level panics into *individual
//! instances* of a [`Fleet`] while an open-loop client population runs
//! through the balancer, then checks two things:
//!
//! * **equivalence** — every instance ends in the same component and
//!   application state as a fault-free twin fleet that served the identical
//!   request stream (component-level recovery is invisible at the fleet
//!   boundary), and
//! * **liveness** — every armed fault fired, the request accounting
//!   balances, and every instance still answers a probe.
//!
//! Soundness mirrors the single-system generator ([`crate::gen`]): faults
//! target only the file-path components (`vfs`, `9pfs`) — every request
//! exercises them, their recovery preserves connections, and a panic there
//! indicts the recovery machinery rather than the schedule — and at most
//! one fault is aimed at any instance, so no recovery ever nests. The
//! routing policy is round-robin, the only one whose decisions are
//! independent of recovery timing, which keeps the faulted and twin fleets
//! serving identical per-instance streams.

use vampos_cluster::{
    check_equivalence, check_liveness, Fleet, FleetConfig, FleetLoad, FleetOpKind, FleetPlan,
    FleetViolation, Policy,
};
use vampos_core::InjectedFault;
use vampos_sim::{derive_seed, Nanos, SimRng};
use vampos_ukernel::OsError;

use crate::family::{Family, Outcome, Plant, Traced};
use crate::json::{
    array, clients_and_requests, index, inline, list, num, object, population, quote, text, Json,
};
use crate::shrink::{halve, Shrinker};

/// One instance-scoped fault: a one-shot panic armed against `component`
/// on `instance` at `at_ns` (relative to run start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceFault {
    /// Arming time, nanoseconds from run start.
    pub at_ns: u64,
    /// Target instance.
    pub instance: usize,
    /// Target component.
    pub component: String,
}

/// A fully self-contained fleet campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCampaignSpec {
    /// Fleet size.
    pub instances: usize,
    /// The per-campaign seed (already derived).
    pub seed: u64,
    /// Index within its sweep (labeling only).
    pub campaign: u64,
    /// Open-loop clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// The instance-scoped fault schedule.
    pub faults: Vec<InstanceFault>,
    /// Self-test: perturb the faulted fleet after the run so the
    /// equivalence oracle *must* flag a divergence.
    pub plant: bool,
}

/// What one fleet campaign reports.
#[derive(Debug, Clone)]
pub struct FleetCampaignReport {
    /// Oracle violations (empty = recovery was fleet-transparent).
    pub violations: Vec<FleetViolation>,
    /// Component reboots the faults triggered across the fleet.
    pub recovery_reboots: u64,
}

/// Components a fleet campaign may panic (see module docs).
const TARGETS: [&str; 2] = ["vfs", "9pfs"];

/// Generates one fleet campaign spec — a pure function of its arguments.
///
/// `budget` caps the number of faults; at most one lands on any instance.
pub fn generate_fleet_spec(
    seed: u64,
    campaign: u64,
    instances: usize,
    budget: usize,
) -> FleetCampaignSpec {
    let mut rng = SimRng::seed_from(seed);
    let clients = 2 * instances.max(1);
    let requests_per_client = rng.gen_between(24, 48) as usize;
    let mut spec = FleetCampaignSpec {
        instances,
        seed,
        campaign,
        clients,
        requests_per_client,
        faults: Vec::new(),
        plant: false,
    };
    // The open-loop arrival grid is fixed, so the span of the clean run is
    // known without a probe; faults land in its first 80% so the remaining
    // requests trigger any armed fault before the run ends.
    let span_ns = FleetLoad::default().think_time.as_nanos() * requests_per_client as u64;
    let window_ns = (span_ns * 4 / 5).max(1);
    let mut unfaulted: Vec<usize> = (0..instances).collect();
    for _ in 0..budget.min(instances) {
        let pick = rng.gen_range(unfaulted.len() as u64) as usize;
        let instance = unfaulted.swap_remove(pick);
        spec.faults.push(InstanceFault {
            at_ns: rng.gen_between(1, window_ns + 1),
            instance,
            component: TARGETS[rng.gen_range(TARGETS.len() as u64) as usize].to_owned(),
        });
    }
    spec.faults.sort_by_key(|f| (f.at_ns, f.instance));
    spec
}

impl FleetCampaignSpec {
    fn plan(&self) -> FleetPlan {
        let mut plan = FleetPlan::none();
        for fault in &self.faults {
            plan = plan.with(
                Nanos::from_nanos(fault.at_ns),
                fault.instance,
                FleetOpKind::Inject(InjectedFault::panic_next(&fault.component)),
            );
        }
        plan
    }

    fn load(&self) -> FleetLoad {
        FleetLoad {
            clients: self.clients,
            requests_per_client: self.requests_per_client,
            ..FleetLoad::default()
        }
    }

    fn config(&self) -> FleetConfig {
        FleetConfig {
            instances: self.instances,
            seed: self.seed,
            ..FleetConfig::default()
        }
    }
}

/// Boots and runs the faulted fleet, traced or not.
fn run_faulted(
    spec: &FleetCampaignSpec,
    telemetry: bool,
) -> Result<(Fleet, vampos_cluster::FleetRunReport), OsError> {
    let mut faulted = Fleet::new(FleetConfig {
        telemetry,
        ..spec.config()
    })?;
    let report = faulted.run(&spec.load(), Policy::RoundRobin, spec.plan())?;
    Ok((faulted, report))
}

/// The fleet family: `instances`-strong clusters with at most `budget`
/// instance-scoped faults per campaign.
#[derive(Debug, Clone)]
pub struct FleetFamily {
    /// Fleet size.
    pub instances: usize,
    /// Max faults per campaign (at most one per instance).
    pub budget: usize,
}

impl Family for FleetFamily {
    const NAME: &'static str = "fleet";
    const ORACLES: &'static str = "both";
    /// Every execution boots two fleets; same budget as the mesh family.
    const SHRINK_BUDGET: usize = 40;

    type Spec = FleetCampaignSpec;
    type Report = FleetCampaignReport;
    type Violation = FleetViolation;

    fn specs(&self, seed: u64, campaigns: u64) -> Vec<FleetCampaignSpec> {
        (0..campaigns)
            .map(|c| generate_fleet_spec(derive_seed(seed, c), c, self.instances, self.budget))
            .collect()
    }

    fn plants(&self) -> Vec<Plant<Self>> {
        let (instances, budget) = (self.instances, self.budget);
        // The extra request lands on one instance and moves the digest of
        // every component it crossed, so several equivalence findings fire.
        vec![Plant {
            name: "divergence",
            expected: "app-divergence",
            strict: false,
            spec: Box::new(move |seed, campaign| FleetCampaignSpec {
                plant: true,
                ..generate_fleet_spec(seed, campaign, instances, budget)
            }),
        }]
    }

    /// Faulted fleet vs fault-free twin under the identical client
    /// population, equivalence checked before the (state perturbing)
    /// liveness probe.
    fn execute(spec: &FleetCampaignSpec) -> Result<FleetCampaignReport, OsError> {
        let load = spec.load();
        let (mut faulted, report) = run_faulted(spec, false)?;
        let mut twin = Fleet::new(spec.config())?;
        twin.run(&load, Policy::RoundRobin, FleetPlan::none())?;

        if spec.plant {
            // Self-test: one extra request against the faulted fleet only — a
            // deliberate state divergence the equivalence oracle must catch.
            faulted.probe(&load.path)?;
        }

        let mut violations = check_equivalence(&faulted, &twin);
        violations.extend(check_liveness(&mut faulted, &load, &report)?);
        let reboots = faulted.instances().iter();
        Ok(FleetCampaignReport {
            violations,
            recovery_reboots: reboots.map(|i| i.sys.stats().component_reboots).sum(),
        })
    }

    fn traced(spec: &FleetCampaignSpec) -> Result<Traced, OsError> {
        run_faulted(spec, true).map(|(faulted, _)| Traced::of_fleet(&faulted))
    }

    fn violations(report: &FleetCampaignReport) -> &[FleetViolation] {
        &report.violations
    }

    fn kind(violation: &FleetViolation) -> &'static str {
        match violation {
            FleetViolation::ArmedFaultLeft { .. } => "armed-fault-left",
            FleetViolation::RequestCountMismatch { .. } => "request-count-mismatch",
            FleetViolation::InstanceUnresponsive { .. } => "instance-unresponsive",
            FleetViolation::DigestMismatch { .. } => "digest-mismatch",
            FleetViolation::AppDivergence { .. } => "app-divergence",
        }
    }

    /// Drop one fault at a time; halve every arming time, the per-client
    /// request count and the client population.
    fn shrink_pass(shrinker: &mut Shrinker<'_, FleetCampaignSpec>) {
        shrinker.drop_each(|spec| &mut spec.faults);
        shrinker.halve_each(&[
            |s| {
                let mut moved = false;
                for fault in &mut s.faults {
                    moved |= halve(&mut fault.at_ns, 1);
                }
                moved
            },
            |s| halve(&mut s.requests_per_client, 4),
            |s| halve(&mut s.clients, 2),
        ]);
    }

    fn write_spec(spec: &FleetCampaignSpec) -> String {
        let faults = spec.faults.iter().map(|fault| {
            inline(&[
                ("at_ns", fault.at_ns.to_string()),
                ("instance", fault.instance.to_string()),
                ("component", quote(&fault.component)),
            ])
        });
        object(&[
            ("family", quote(Self::NAME)),
            ("seed", spec.seed.to_string()),
            ("campaign", spec.campaign.to_string()),
            ("instances", spec.instances.to_string()),
            ("clients", spec.clients.to_string()),
            ("requests_per_client", spec.requests_per_client.to_string()),
            ("plant", spec.plant.to_string()),
            ("faults", array(faults)),
        ])
    }

    fn read_spec(doc: &Json) -> Result<FleetCampaignSpec, String> {
        let instances = population(doc, "instances")?;
        if instances == 0 {
            return Err("instances must be at least 1".to_owned());
        }
        let (clients, requests_per_client) = clients_and_requests(doc)?;
        let fault = |v: &Json| {
            Ok(InstanceFault {
                at_ns: num(v, "at_ns")?,
                instance: index(v, "instance", instances)?,
                component: text(v, "component")?,
            })
        };
        Ok(FleetCampaignSpec {
            instances,
            seed: num(doc, "seed")?,
            campaign: num(doc, "campaign")?,
            clients,
            requests_per_client,
            faults: list(doc, "faults", fault)?,
            plant: doc.get("plant")?.as_bool()?,
        })
    }

    fn summary_line(outcome: &Outcome<Self>) -> String {
        let spec = &outcome.spec;
        let head = format!("fleet #{} seed={:#018x}", spec.campaign, spec.seed);
        if outcome.passed() {
            format!(
                "PASS {head} faults={} reboots={}",
                spec.faults.len(),
                outcome.report.recovery_reboots
            )
        } else {
            format!(
                "FAIL {head} oracles=[{}] faults={} shrunk in {} run(s)",
                outcome.oracles(),
                spec.faults.len(),
                outcome.shrink_runs
            )
        }
    }

    fn repro_file_name(spec: &FleetCampaignSpec) -> String {
        format!("chaos-fleet-{}.json", spec.campaign)
    }

    fn banner(spec: &FleetCampaignSpec) -> String {
        format!(
            "replaying fleet campaign #{} (seed {:#018x}, {} instance(s), {} fault(s), plant {})",
            spec.campaign,
            spec.seed,
            spec.instances,
            spec.faults.len(),
            spec.plant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{kinds, run_outcome, sweep};
    use crate::laws::{laws, read as from_json, Lab};

    laws!(FleetFamily:
        every_class_and_plant_round_trips_through_json,
        traced_reruns_agree_and_a_plant_leaves_tails,
        a_small_sweep_passes_and_reruns_identically,
        the_plant_battery_reports_every_plant_awake,
        a_passing_spec_is_left_alone,
        shrinking_preserves_the_violation_kind,
        respects_the_run_budget,
    );

    #[test]
    fn foreign_family_documents_are_rejected() {
        crate::laws::foreign_family_documents_are_rejected::<FleetFamily>();
        // So are a fault on an instance the fleet does not have, a fleet
        // of none, and a population no experiment drives.
        let spec = generate_fleet_spec(7, 0, 3, 2);
        let text = FleetFamily::write_spec(&spec);
        for (from, to, complaint) in [
            ("\"instance\": ", "\"instance\": 9", "instance 9"),
            ("\"instances\": 3", "\"instances\": 0", "at least 1"),
            (
                "\"instances\": 3",
                "\"instances\": 65537",
                "instances 65537",
            ),
            (
                "\"clients\": 6",
                "\"clients\": 4294967296",
                "clients 4294967296",
            ),
        ] {
            let err = from_json::<FleetFamily>(&text.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(complaint), "{err}");
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a = generate_fleet_spec(42, 0, 4, 2);
        let b = generate_fleet_spec(42, 0, 4, 2);
        assert_eq!(a, b);
        let c = generate_fleet_spec(43, 0, 4, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn schedules_respect_the_soundness_rules() {
        for seed in 0..30u64 {
            let spec = generate_fleet_spec(seed, 0, 4, 3);
            assert!(spec.faults.len() <= 3);
            let mut hit: Vec<usize> = spec.faults.iter().map(|f| f.instance).collect();
            let total = hit.len();
            hit.sort_unstable();
            hit.dedup();
            assert_eq!(total, hit.len(), "two faults on one instance: {spec:?}");
            for fault in &spec.faults {
                assert!(TARGETS.contains(&fault.component.as_str()), "{spec:?}");
                assert!(fault.instance < 4, "{spec:?}");
            }
        }
    }

    #[test]
    fn a_small_sweep_passes_every_oracle() {
        let report = sweep(&FleetFamily::family(), 7, 3, false).expect("sweep");
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.failures().count(), 0, "{}", report.render());
        let recoveries: u64 = report
            .outcomes
            .iter()
            .map(|o| o.report.recovery_reboots)
            .sum();
        assert!(recoveries > 0, "the sweep never triggered a recovery");
    }

    #[test]
    fn a_planted_divergence_is_caught() {
        let plant = FleetFamily::family().plants().remove(0);
        let outcome = run_outcome::<FleetFamily>((plant.spec)(derive_seed(7, 0), 0)).expect("run");
        assert!(
            kinds::<FleetFamily>(&outcome.report).contains(plant.expected),
            "the oracles missed a planted divergence"
        );

        // The failure shrinks to a reproducer that names its family, reads
        // back as the shrunk spec, and still diverges when replayed.
        let shrunk = outcome.shrunk.clone().expect("failures shrink");
        assert!(
            shrunk.faults.is_empty(),
            "the plant needs no fault: {shrunk:?}"
        );
        let json = outcome
            .reproducer_json()
            .expect("failures carry a reproducer");
        assert!(json.starts_with("{\n  \"family\": \"fleet\",\n"), "{json}");
        assert_eq!(from_json::<FleetFamily>(&json), Ok(shrunk.clone()));
        let replayed = FleetFamily::execute(&shrunk).expect("replay");
        assert!(kinds::<FleetFamily>(&replayed).contains(plant.expected));
    }
}
