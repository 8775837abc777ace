//! Mesh chaos campaigns: a faulted pipeline run judged against a
//! fault-free twin of the same spec.
//!
//! Three oracles:
//!
//! 1. **Pipeline equivalence** — every journey the faulted run acked must
//!    carry the same response digest the fault-free twin computed for that
//!    journey id. Responses are pure value functions of the journey id, so
//!    reboots may slow journeys down or fail them, but an *acked* journey
//!    that answered differently is a correctness bug.
//! 2. **No acknowledged loss** — every acked journey's durable writes
//!    (the kv key, the sql row) must actually be present in post-run
//!    backend state.
//! 3. **Retry budget** — no hop may book more attempts than its policy
//!    allows (and hedges are structurally capped at one per attempt).
//!
//! Each oracle has a plant ([`MeshPlantKind`]) that deliberately breaks it
//! and nothing else — the self-test the chaos CLI's `--plant` battery
//! runs.

use vampos_cluster::{FleetConfig, FleetLoad, FleetOpKind, FleetPlan, Policy};
use vampos_sim::{Nanos, SimRng};
use vampos_ukernel::OsError;

use crate::mesh::{BackendOpKind, Mesh, MeshConfig, MeshPlan, MeshPlant, MeshPlantKind};
use crate::report::MeshRunReport;
use crate::topology::{MeshTopology, SVC_AUTH, SVC_KV, SVC_SQL};

/// Front-tier instances every campaign boots.
pub const FRONT_INSTANCES: usize = 3;

/// Components a spurious detection may accuse on a kv replica.
const MISFIRE_COMPONENTS: [&str; 2] = ["lwip", "vfs"];

/// The recovery scenario a mesh campaign subjects the pipeline to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshFaultClass {
    /// Full reboot of one front-tier instance mid-run.
    FrontReboot,
    /// Component rejuvenation of one front-tier instance.
    FrontRejuvenate,
    /// Rolling component rejuvenation across the whole front tier.
    RollingFront,
    /// Component rejuvenation of the pinned kv replica.
    KvRejuvenate,
    /// Full reboot of a kv replica (AOF replays the store).
    KvReboot,
    /// Full reboot of the sql backend (the database file survives).
    SqlReboot,
    /// Component rejuvenation of an auth replica (hedging territory).
    AuthRejuvenate,
    /// The recovery plane misfires: a spurious detection needlessly
    /// reboots a healthy component on a kv replica.
    DetectorMisfire,
}

impl MeshFaultClass {
    /// Every class, sweep order.
    pub const ALL: [MeshFaultClass; 8] = [
        MeshFaultClass::FrontReboot,
        MeshFaultClass::FrontRejuvenate,
        MeshFaultClass::RollingFront,
        MeshFaultClass::KvRejuvenate,
        MeshFaultClass::KvReboot,
        MeshFaultClass::SqlReboot,
        MeshFaultClass::AuthRejuvenate,
        MeshFaultClass::DetectorMisfire,
    ];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            MeshFaultClass::FrontReboot => "front-reboot",
            MeshFaultClass::FrontRejuvenate => "front-rejuvenate",
            MeshFaultClass::RollingFront => "rolling-front",
            MeshFaultClass::KvRejuvenate => "kv-rejuvenate",
            MeshFaultClass::KvReboot => "kv-reboot",
            MeshFaultClass::SqlReboot => "sql-reboot",
            MeshFaultClass::AuthRejuvenate => "auth-rejuvenate",
            MeshFaultClass::DetectorMisfire => "detector-misfire",
        }
    }

    /// Parses a [`MeshFaultClass::name`].
    pub fn from_name(name: &str) -> Option<MeshFaultClass> {
        MeshFaultClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// A fully self-contained mesh campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshChaosSpec {
    /// The per-campaign seed (already derived).
    pub seed: u64,
    /// Index within its sweep (labeling only).
    pub campaign: u64,
    /// The recovery scenario under test.
    pub class: MeshFaultClass,
    /// Planted self-test, if any (plants run fault-free).
    pub plant: Option<MeshPlantKind>,
    /// Journey the plant targets.
    pub plant_journey: u64,
    /// Replicas per replicated backend service.
    pub replicas: usize,
    /// Open-loop front clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Fault firing time, nanoseconds from run start.
    pub at_ns: u64,
    /// Backend replica the fault targets.
    pub target_replica: usize,
    /// Front instance the fault targets.
    pub target_front: usize,
    /// Component a [`MeshFaultClass::DetectorMisfire`] accuses.
    pub component: String,
}

/// Generates one mesh campaign spec — a pure function of its arguments.
pub fn generate_mesh_spec(
    seed: u64,
    campaign: u64,
    class: MeshFaultClass,
    plant: Option<MeshPlantKind>,
) -> MeshChaosSpec {
    let mut rng = SimRng::seed_from(seed);
    let replicas = 2;
    let clients = 6;
    let requests_per_client = rng.gen_between(24, 40) as usize;
    // The open-loop grid fixes the span; the fault lands between 20% and
    // 50% of it, late enough that pipelines are in flight and early
    // enough that plenty of journeys cross the recovery window.
    let span_ns = FleetLoad::default().think_time.as_nanos() * requests_per_client as u64;
    let at_ns = rng.gen_between(span_ns / 5, span_ns / 2);
    let total = (clients * requests_per_client) as u64;
    MeshChaosSpec {
        seed,
        campaign,
        class,
        plant,
        plant_journey: rng.gen_between(2, total.saturating_sub(1).max(3)),
        replicas,
        clients,
        requests_per_client,
        at_ns,
        target_replica: rng.gen_range(replicas as u64) as usize,
        target_front: rng.gen_range(FRONT_INSTANCES as u64) as usize,
        component: MISFIRE_COMPONENTS[rng.gen_range(MISFIRE_COMPONENTS.len() as u64) as usize]
            .to_owned(),
    }
}

impl MeshChaosSpec {
    /// The mesh configuration this campaign boots (armed policies).
    pub fn config(&self) -> MeshConfig {
        MeshConfig {
            front: FleetConfig {
                instances: FRONT_INSTANCES,
                seed: self.seed,
                ..FleetConfig::default()
            },
            topology: MeshTopology::standard(self.replicas, true),
        }
    }

    /// The front load.
    pub fn load(&self) -> FleetLoad {
        FleetLoad {
            clients: self.clients,
            requests_per_client: self.requests_per_client,
            ..FleetLoad::default()
        }
    }

    /// The maintenance plan arming the class's fault. Planted campaigns
    /// run fault-free — the plant itself is the only anomaly, so exactly
    /// one oracle can fire.
    pub fn plan(&self) -> MeshPlan {
        if self.plant.is_some() {
            return MeshPlan::none();
        }
        let at = Nanos::from_nanos(self.at_ns);
        let mut plan = MeshPlan::none();
        match self.class {
            MeshFaultClass::FrontReboot => {
                plan.front
                    .push(at, self.target_front, FleetOpKind::FullReboot);
            }
            MeshFaultClass::FrontRejuvenate => {
                plan.front
                    .push(at, self.target_front, FleetOpKind::RejuvenateComponents);
            }
            MeshFaultClass::RollingFront => {
                plan.front = FleetPlan::rolling_rejuvenation(
                    FRONT_INSTANCES,
                    at,
                    Nanos::from_millis(4),
                    Nanos::from_millis(2),
                );
            }
            MeshFaultClass::KvRejuvenate => {
                plan.push_backend(at, SVC_KV, self.target_replica, BackendOpKind::Rejuvenate);
            }
            MeshFaultClass::KvReboot => {
                plan.push_backend(at, SVC_KV, self.target_replica, BackendOpKind::FullReboot);
            }
            MeshFaultClass::SqlReboot => {
                plan.push_backend(at, SVC_SQL, 0, BackendOpKind::FullReboot);
            }
            MeshFaultClass::AuthRejuvenate => {
                plan.push_backend(at, SVC_AUTH, self.target_replica, BackendOpKind::Rejuvenate);
            }
            MeshFaultClass::DetectorMisfire => {
                plan.push_backend(
                    at,
                    SVC_KV,
                    self.target_replica,
                    BackendOpKind::SpuriousReboot {
                        component: self.component.clone(),
                    },
                );
            }
        }
        plan
    }
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshViolation {
    /// Pipeline equivalence: an acked journey answered differently than
    /// the fault-free twin.
    PipelineDivergence {
        /// The diverging journey.
        journey: u64,
        /// Digest the faulted run acked.
        got: u64,
        /// Digest the twin computed.
        want: u64,
    },
    /// No acknowledged loss: an acked journey's durable write is missing
    /// from post-run backend state.
    AckedLoss {
        /// The journey whose write is gone.
        journey: u64,
        /// The write stage whose state is missing (`kv:put`).
        stage: String,
    },
    /// Retry budget: a hop booked more attempts than its policy allows.
    RetryBudget {
        /// The over-retried journey.
        journey: u64,
        /// The hop's stage label.
        stage: String,
        /// Attempts booked.
        attempts: u32,
        /// The policy's budget.
        budget: u32,
    },
}

/// Outcome of one mesh campaign.
#[derive(Debug, Clone)]
pub struct MeshCampaignReport {
    /// The spec that ran.
    pub spec: MeshChaosSpec,
    /// Oracle violations (empty = the pipeline held).
    pub violations: Vec<MeshViolation>,
    /// Journeys issued.
    pub journeys: usize,
    /// Journeys acked end-to-end.
    pub acked: usize,
    /// Retry attempts across all stages.
    pub retries: u64,
    /// Hedges raced across all stages.
    pub hedges: u64,
}

/// Runs one mesh campaign and evaluates the three oracles against a
/// fault-free twin.
///
/// # Errors
///
/// Propagates boot failures and unrecovered system failures — both mean
/// the campaign never became meaningful, not that an oracle fired.
pub fn run_mesh_campaign(spec: &MeshChaosSpec) -> Result<MeshCampaignReport, OsError> {
    run_campaign(spec, false).map(|(report, _)| report)
}

/// [`run_mesh_campaign`] with telemetry attached to the faulted mesh,
/// handing that mesh back for its front fleet's `fleet_telemetry()` /
/// `span_processes()` / `chrome_trace_json()` / `merged_metrics()`.
/// Telemetry only records: the simulation is byte-identical to the
/// untraced run.
///
/// # Errors
///
/// Same conditions as [`run_mesh_campaign`].
pub fn run_mesh_campaign_traced(
    spec: &MeshChaosSpec,
) -> Result<(MeshCampaignReport, Mesh), OsError> {
    run_campaign(spec, true)
}

fn run_campaign(
    spec: &MeshChaosSpec,
    telemetry: bool,
) -> Result<(MeshCampaignReport, Mesh), OsError> {
    let load = spec.load();
    let mut cfg = spec.config();
    cfg.front.telemetry = telemetry;
    let mut mesh = Mesh::new(cfg)?;
    let report = match spec.plant {
        Some(kind) => mesh.run_planted(
            &load,
            Policy::RoundRobin,
            spec.plan(),
            MeshPlant {
                kind,
                journey: spec.plant_journey,
            },
        )?,
        None => mesh.run(&load, Policy::RoundRobin, spec.plan())?,
    };

    // The fault-free twin: same spec, empty plan, no plant, no telemetry.
    let mut twin = Mesh::new(spec.config())?;
    let twin_report = twin.run(&load, Policy::RoundRobin, MeshPlan::none())?;

    let violations = judge(spec, &mut mesh, &report, &twin_report);

    Ok((
        MeshCampaignReport {
            spec: spec.clone(),
            violations,
            journeys: report.journeys.len(),
            acked: report.acked(),
            retries: report.retries,
            hedges: report.hedges,
        },
        mesh,
    ))
}

/// Evaluates the three oracles. Pure over the two reports except for the
/// post-run state probes oracle 2 sends through `mesh`.
fn judge(
    spec: &MeshChaosSpec,
    mesh: &mut Mesh,
    report: &MeshRunReport,
    twin: &MeshRunReport,
) -> Vec<MeshViolation> {
    let mut violations = Vec::new();

    // Oracle 1: pipeline equivalence for acked journeys. Journey ids are
    // the 1-based issue order, identical on both sides.
    for j in report.journeys.iter().filter(|j| j.acked) {
        let Some(t) = twin
            .journeys
            .iter()
            .find(|t| t.journey == j.journey && t.acked)
        else {
            continue;
        };
        if t.digest != j.digest {
            violations.push(MeshViolation::PipelineDivergence {
                journey: j.journey,
                got: j.digest,
                want: t.digest,
            });
        }
    }

    // Oracle 2: every acked journey's durable writes are present.
    for j in report.journeys.iter().filter(|j| j.acked) {
        for (stage, present) in mesh.write_state_present(j.journey) {
            if !present {
                violations.push(MeshViolation::AckedLoss {
                    journey: j.journey,
                    stage,
                });
            }
        }
    }

    // Oracle 3: retry budgets. The budget comes from the topology the
    // campaign armed, per stage.
    for (si, stage_report) in report.stages.iter().enumerate() {
        let budget = spec.config().topology.stages[si].policy.max_attempts.max(1);
        for rec in &stage_report.records {
            if rec.attempts > budget {
                violations.push(MeshViolation::RetryBudget {
                    journey: rec.journey,
                    stage: stage_report.label.clone(),
                    attempts: rec.attempts,
                    budget,
                });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a = generate_mesh_spec(42, 0, MeshFaultClass::KvReboot, None);
        let b = generate_mesh_spec(42, 0, MeshFaultClass::KvReboot, None);
        assert_eq!(a, b);
        let c = generate_mesh_spec(43, 0, MeshFaultClass::KvReboot, None);
        assert_ne!(a, c);
    }

    #[test]
    fn planted_specs_run_fault_free() {
        let spec = generate_mesh_spec(
            7,
            0,
            MeshFaultClass::KvReboot,
            Some(MeshPlantKind::WrongValue),
        );
        let plan = spec.plan();
        assert!(plan.front.is_empty());
        assert!(plan.backend.is_empty());
    }

    #[test]
    fn every_class_arms_something() {
        for (i, class) in MeshFaultClass::ALL.into_iter().enumerate() {
            let spec = generate_mesh_spec(100 + i as u64, 0, class, None);
            let plan = spec.plan();
            assert!(
                !plan.front.is_empty() || !plan.backend.is_empty(),
                "{} arms nothing",
                class.name()
            );
        }
    }

    #[test]
    fn class_names_round_trip() {
        for class in MeshFaultClass::ALL {
            assert_eq!(MeshFaultClass::from_name(class.name()), Some(class));
        }
        assert_eq!(MeshFaultClass::from_name("nope"), None);
    }

    #[test]
    fn a_fault_free_campaign_has_no_violations() {
        let mut spec = generate_mesh_spec(42, 0, MeshFaultClass::KvRejuvenate, None);
        spec.requests_per_client = 6;
        spec.at_ns = u64::MAX / 2; // effectively never fires mid-run
        let report = run_mesh_campaign(&spec).expect("campaign");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.acked, report.journeys);
    }

    #[test]
    fn every_class_holds_its_oracles_under_honest_recovery() {
        for (i, class) in MeshFaultClass::ALL.into_iter().enumerate() {
            let mut spec =
                generate_mesh_spec(vampos_sim::derive_seed(42, i as u64), i as u64, class, None);
            spec.requests_per_client = spec.requests_per_client.min(12);
            let report = run_mesh_campaign(&spec).expect("campaign");
            assert!(
                report.violations.is_empty(),
                "{}: {:?}",
                class.name(),
                report.violations
            );
        }
    }

    #[test]
    fn each_plant_fires_exactly_its_oracle() {
        for (plant, check) in [
            (
                MeshPlantKind::WrongValue,
                (&|v: &MeshViolation| matches!(v, MeshViolation::PipelineDivergence { .. }))
                    as &dyn Fn(&MeshViolation) -> bool,
            ),
            (MeshPlantKind::AckedLoss, &|v: &MeshViolation| {
                matches!(v, MeshViolation::AckedLoss { .. })
            }),
            (MeshPlantKind::RetryStorm, &|v: &MeshViolation| {
                matches!(v, MeshViolation::RetryBudget { .. })
            }),
        ] {
            let mut spec = generate_mesh_spec(1337, 0, MeshFaultClass::KvRejuvenate, Some(plant));
            spec.requests_per_client = 8;
            spec.plant_journey = 5;
            let report = run_mesh_campaign(&spec).expect("campaign");
            assert!(
                !report.violations.is_empty(),
                "{} fired no oracle",
                plant.name()
            );
            assert!(
                report.violations.iter().all(check),
                "{} fired a foreign oracle: {:?}",
                plant.name(),
                report.violations
            );
        }
    }
}
