//! The mesh family: request pipelines under front and backend recovery,
//! the chaos harness around [`vampos_mesh::run_mesh_campaign`].
//!
//! The mesh crate owns the campaign (the faulted pipeline run, the
//! fault-free twin, and the three oracles — pipeline equivalence, no
//! acknowledged loss, retry budgets); [`crate::family`] owns the sweep,
//! the shrinker and the reproducer. What is left for this module is what
//! is the mesh family's alone: flat per-(class, index) seeds, the
//! magnitudes a spec shrinks by, the ack/retry/hedge columns of its
//! report, its JSON fields and its three plants.

use vampos_mesh::{
    generate_mesh_spec, run_mesh_campaign, run_mesh_campaign_traced, MeshCampaignReport,
    MeshChaosSpec, MeshFaultClass, MeshPlantKind, MeshViolation, FRONT_INSTANCES,
};
use vampos_ukernel::OsError;

use crate::family::{per_class, Family, Outcome, Plant, SweepReport, Traced};
use crate::json::{clients_and_requests, index, num, object, population, quote, text, Json};
use crate::shrink::{halve, Shrinker};

/// The mesh family and the recovery scenarios its sweeps cover.
#[derive(Debug, Clone)]
pub struct MeshFamily {
    /// Fault classes under test, `campaigns` specs each.
    pub classes: Vec<MeshFaultClass>,
}

impl Family for MeshFamily {
    const NAME: &'static str = "mesh";
    const ORACLES: &'static str = "all three";
    /// Every execution is *two* full mesh runs (faulted plus twin), so
    /// the budget sits below the recursive family's.
    const SHRINK_BUDGET: usize = 40;

    type Spec = MeshChaosSpec;
    type Report = MeshCampaignReport;
    type Violation = MeshViolation;

    fn specs(&self, seed: u64, campaigns: u64) -> Vec<MeshChaosSpec> {
        per_class(&self.classes, seed, campaigns, |seed, idx, class| {
            generate_mesh_spec(seed, idx, class, None)
        })
    }

    fn plants(&self) -> Vec<Plant<Self>> {
        [
            (MeshPlantKind::WrongValue, "pipeline-divergence"),
            (MeshPlantKind::AckedLoss, "acked-loss"),
            (MeshPlantKind::RetryStorm, "retry-budget"),
        ]
        .into_iter()
        .map(|(plant, expected)| Plant {
            name: plant.name(),
            expected,
            strict: true,
            spec: Box::new(move |seed, campaign| {
                generate_mesh_spec(seed, campaign, MeshFaultClass::KvRejuvenate, Some(plant))
            }),
        })
        .collect()
    }

    fn execute(spec: &MeshChaosSpec) -> Result<MeshCampaignReport, OsError> {
        run_mesh_campaign(spec)
    }

    /// The front fleet's telemetry: backends carry no sink.
    fn traced(spec: &MeshChaosSpec) -> Result<Traced, OsError> {
        run_mesh_campaign_traced(spec).map(|(_, mesh)| Traced::of_fleet(mesh.fleet()))
    }

    fn violations(report: &MeshCampaignReport) -> &[MeshViolation] {
        &report.violations
    }

    fn kind(violation: &MeshViolation) -> &'static str {
        match violation {
            MeshViolation::PipelineDivergence { .. } => "pipeline-divergence",
            MeshViolation::AckedLoss { .. } => "acked-loss",
            MeshViolation::RetryBudget { .. } => "retry-budget",
        }
    }

    fn sweep_line(violation: &MeshViolation) -> String {
        format!("{}: {violation:?}", Self::kind(violation))
    }

    /// A mesh spec is already structurally minimal (one fault, one
    /// target), so shrinking reduces *magnitudes*: the fault arming time,
    /// the per-client request count, and the client population.
    fn shrink_pass(shrinker: &mut Shrinker<'_, MeshChaosSpec>) {
        shrinker.halve_each(&[
            |s| halve(&mut s.at_ns, 1),
            |s| halve(&mut s.requests_per_client, 4),
            |s| halve(&mut s.clients, 2),
        ]);
    }

    fn write_spec(spec: &MeshChaosSpec) -> String {
        object(&[
            ("family", quote(Self::NAME)),
            ("seed", spec.seed.to_string()),
            ("campaign", spec.campaign.to_string()),
            ("class", quote(spec.class.name())),
            ("plant", quote(spec.plant.map_or("none", |p| p.name()))),
            ("plant_journey", spec.plant_journey.to_string()),
            ("replicas", spec.replicas.to_string()),
            ("clients", spec.clients.to_string()),
            ("requests_per_client", spec.requests_per_client.to_string()),
            ("at_ns", spec.at_ns.to_string()),
            ("target_replica", spec.target_replica.to_string()),
            ("target_front", spec.target_front.to_string()),
            ("component", quote(&spec.component)),
        ])
    }

    fn read_spec(doc: &Json) -> Result<MeshChaosSpec, String> {
        let class = doc.get("class")?.as_str()?;
        let class = MeshFaultClass::from_name(class)
            .ok_or_else(|| format!("unknown fault class {class:?}"))?;
        let plant = match doc.get("plant")?.as_str()? {
            "none" => None,
            name => Some(
                MeshPlantKind::from_name(name).ok_or_else(|| format!("unknown plant {name:?}"))?,
            ),
        };
        let replicas = population(doc, "replicas")?;
        let (clients, requests_per_client) = clients_and_requests(doc)?;
        Ok(MeshChaosSpec {
            seed: num(doc, "seed")?,
            campaign: num(doc, "campaign")?,
            class,
            plant,
            plant_journey: num(doc, "plant_journey")?,
            replicas,
            clients,
            requests_per_client,
            at_ns: num(doc, "at_ns")?,
            target_replica: index(doc, "target_replica", replicas)?,
            target_front: index(doc, "target_front", FRONT_INSTANCES)?,
            component: text(doc, "component")?,
        })
    }

    fn summary_line(outcome: &Outcome<Self>) -> String {
        let (spec, report) = (&outcome.spec, &outcome.report);
        let head = format!(
            "{} #{} seed={:#018x}",
            spec.class.name(),
            spec.campaign,
            spec.seed
        );
        let acked = format!("acked={}/{}", report.acked, report.journeys);
        if outcome.passed() {
            format!(
                "PASS {head} {acked} retries={} hedges={}",
                report.retries, report.hedges
            )
        } else {
            format!(
                "FAIL {head} oracles=[{}] {acked} shrunk in {} run(s)",
                outcome.oracles(),
                outcome.shrink_runs
            )
        }
    }

    /// Ack rate and recovery-policy workload.
    fn class_table(report: &SweepReport<Self>) -> Option<String> {
        let mut out = format!(
            "{:<18} {:>5} {:>5}  {:>15}  {:>8} {:>7}\n",
            "class", "runs", "pass", "acked/journeys", "retries", "hedges"
        );
        for (class, outcomes) in report.by_class(|spec| spec.class.name()) {
            let reports = || outcomes.iter().map(|o| &o.report);
            let acked: usize = reports().map(|r| r.acked).sum();
            let journeys: usize = reports().map(|r| r.journeys).sum();
            out += &format!(
                "{class:<18} {:>5} {:>5}  {:>15}  {:>8} {:>7}\n",
                outcomes.len(),
                outcomes.iter().filter(|o| o.passed()).count(),
                format!("{acked}/{journeys}"),
                reports().map(|r| r.retries).sum::<u64>(),
                reports().map(|r| r.hedges).sum::<u64>(),
            );
        }
        Some(out)
    }

    fn repro_file_name(spec: &MeshChaosSpec) -> String {
        format!("chaos-mesh-{}-{}.json", spec.class.name(), spec.campaign)
    }

    fn banner(spec: &MeshChaosSpec) -> String {
        format!(
            "replaying mesh {} campaign #{} (seed {:#018x}, {} client(s) x {} request(s), plant {})",
            spec.class.name(),
            spec.campaign,
            spec.seed,
            spec.clients,
            spec.requests_per_client,
            spec.plant.map_or("none", |p| p.name()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{self, laws, read as from_json};

    laws!(MeshFamily:
        every_class_and_plant_round_trips_through_json,
        traced_reruns_agree_and_a_plant_leaves_tails,
        a_small_sweep_passes_and_reruns_identically,
        a_passing_spec_is_left_alone,
        shrinking_preserves_the_violation_kind,
        respects_the_run_budget,
    );

    #[test]
    fn the_plant_battery_reports_all_three_awake() {
        laws::the_plant_battery_reports_every_plant_awake::<MeshFamily>();
    }

    #[test]
    fn foreign_family_documents_are_rejected() {
        laws::foreign_family_documents_are_rejected::<MeshFamily>();
        // So are targets the mesh does not have, and a replica set no
        // experiment drives.
        let mesh = generate_mesh_spec(7, 0, MeshFaultClass::KvReboot, None);
        let hostile = |spec: MeshChaosSpec| {
            from_json::<MeshFamily>(&MeshFamily::write_spec(&spec)).unwrap_err()
        };
        let err = hostile(MeshChaosSpec {
            target_replica: mesh.replicas,
            ..mesh.clone()
        });
        assert!(err.contains("target_replica"), "{err}");
        let err = hostile(MeshChaosSpec {
            target_front: FRONT_INSTANCES,
            ..mesh.clone()
        });
        assert!(err.contains("target_front"), "{err}");
        let err = hostile(MeshChaosSpec {
            replicas: 1 << 32,
            ..mesh
        });
        assert!(err.contains("replicas 4294967296"), "{err}");
    }
}
