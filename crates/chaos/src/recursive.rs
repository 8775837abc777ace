//! The recursive family: faults aimed at the recovery machinery itself,
//! the chaos harness around [`vampos_cluster::run_recursive_campaign`].
//!
//! The cluster crate owns the campaign (fault arming, the escalation
//! ladder, the three oracles); [`crate::family`] owns the sweep, the
//! shrinker and the reproducer. What is left for this module is what is
//! the recursive family's alone: flat per-(class, index) seeds, the
//! magnitudes a spec shrinks by, the rung columns of its report, its JSON
//! fields and its three plants.

use vampos_cluster::{
    generate_recursive_spec, run_recursive_campaign, run_recursive_campaign_traced, FaultClass,
    PlantKind, RecursiveCampaignReport, RecursiveCampaignSpec, RecursiveViolation, Rung,
};
use vampos_ukernel::OsError;

use crate::family::{per_class, Family, Outcome, Plant, SweepReport, Traced};
use crate::json::{clients_and_requests, index, num, object, population, quote, text, Json};
use crate::shrink::{halve, Shrinker};

/// The recursive family and the fault classes its sweeps cover.
#[derive(Debug, Clone)]
pub struct RecursiveFamily {
    /// Fault classes under test, `campaigns` specs each.
    pub classes: Vec<FaultClass>,
}

impl Family for RecursiveFamily {
    const NAME: &'static str = "recursive";
    const ORACLES: &'static str = "all three";
    /// Each execution is a whole supervised fleet run — pricier than a
    /// component campaign, so the budget is tighter.
    const SHRINK_BUDGET: usize = 60;

    type Spec = RecursiveCampaignSpec;
    type Report = RecursiveCampaignReport;
    type Violation = RecursiveViolation;

    fn specs(&self, seed: u64, campaigns: u64) -> Vec<RecursiveCampaignSpec> {
        per_class(&self.classes, seed, campaigns, |seed, idx, class| {
            generate_recursive_spec(seed, idx, class, PlantKind::None)
        })
    }

    fn plants(&self) -> Vec<Plant<Self>> {
        [
            (PlantKind::LadderStall, "ladder-diverged", false),
            (PlantKind::AckedLoss, "acked-loss", true),
            (PlantKind::MisattributedRung, "rung-misattributed", true),
        ]
        .into_iter()
        .map(|(plant, expected, strict)| Plant {
            name: plant.name(),
            expected,
            strict,
            spec: Box::new(move |seed, campaign| {
                generate_recursive_spec(seed, campaign, FaultClass::NinepCorrupt, plant)
            }),
        })
        .collect()
    }

    fn execute(spec: &RecursiveCampaignSpec) -> Result<RecursiveCampaignReport, OsError> {
        run_recursive_campaign(spec)
    }

    fn traced(spec: &RecursiveCampaignSpec) -> Result<Traced, OsError> {
        run_recursive_campaign_traced(spec).map(|(_, fleet)| Traced::of_fleet(&fleet))
    }

    fn violations(report: &RecursiveCampaignReport) -> &[RecursiveViolation] {
        &report.violations
    }

    fn kind(violation: &RecursiveViolation) -> &'static str {
        match violation {
            RecursiveViolation::LadderDiverged { .. } => "ladder-diverged",
            RecursiveViolation::AckedLoss { .. } => "acked-loss",
            RecursiveViolation::RungMisattributed { .. } => "rung-misattributed",
        }
    }

    fn sweep_line(violation: &RecursiveViolation) -> String {
        format!("{}: {violation:?}", Self::kind(violation))
    }

    /// A recursive spec is already structurally minimal (one fault, one
    /// target), so shrinking reduces *magnitudes*: the fault arming time,
    /// the per-client request count, and the corruption windows.
    fn shrink_pass(shrinker: &mut Shrinker<'_, RecursiveCampaignSpec>) {
        shrinker.halve_each(&[
            |s| halve(&mut s.at_ns, 1),
            |s| halve(&mut s.requests_per_client, 4),
            |s| halve(&mut s.glitch_count, 1),
            |s| halve(&mut s.silent_count, 1),
        ]);
    }

    fn write_spec(spec: &RecursiveCampaignSpec) -> String {
        object(&[
            ("family", quote(Self::NAME)),
            ("seed", spec.seed.to_string()),
            ("campaign", spec.campaign.to_string()),
            ("instances", spec.instances.to_string()),
            ("clients", spec.clients.to_string()),
            ("requests_per_client", spec.requests_per_client.to_string()),
            ("class", quote(spec.class.name())),
            ("target", spec.target.to_string()),
            ("at_ns", spec.at_ns.to_string()),
            ("component", quote(&spec.component)),
            ("glitch_count", spec.glitch_count.to_string()),
            ("silent_count", spec.silent_count.to_string()),
            ("plant", quote(spec.plant.name())),
        ])
    }

    fn read_spec(doc: &Json) -> Result<RecursiveCampaignSpec, String> {
        let class = doc.get("class")?.as_str()?;
        let class =
            FaultClass::from_name(class).ok_or_else(|| format!("unknown fault class {class:?}"))?;
        let plant = doc.get("plant")?.as_str()?;
        let plant =
            PlantKind::from_name(plant).ok_or_else(|| format!("unknown plant {plant:?}"))?;
        let instances = population(doc, "instances")?;
        let (clients, requests_per_client) = clients_and_requests(doc)?;
        Ok(RecursiveCampaignSpec {
            instances,
            seed: num(doc, "seed")?,
            campaign: num(doc, "campaign")?,
            clients,
            requests_per_client,
            class,
            target: index(doc, "target", instances)?,
            at_ns: num(doc, "at_ns")?,
            component: text(doc, "component")?,
            glitch_count: num(doc, "glitch_count")?,
            silent_count: num(doc, "silent_count")?,
            plant,
        })
    }

    fn summary_line(outcome: &Outcome<Self>) -> String {
        let spec = &outcome.spec;
        let head = format!(
            "{} #{} seed={:#018x}",
            spec.class.name(),
            spec.campaign,
            spec.seed
        );
        let rungs: Vec<&str> = outcome.report.rungs.iter().map(|r| r.name()).collect();
        let rungs = rungs.join(",");
        if outcome.passed() {
            format!(
                "PASS {head} rungs=[{rungs}] condemned={}",
                outcome.report.condemned
            )
        } else {
            format!(
                "FAIL {head} oracles=[{}] rungs=[{rungs}] shrunk in {} run(s)",
                outcome.oracles(),
                outcome.shrink_runs
            )
        }
    }

    /// How often the ladder held, which rungs it climbed on the faulted
    /// instance, and how many instances it gave up on.
    fn class_table(report: &SweepReport<Self>) -> Option<String> {
        let mut out = format!(
            "{:<24} {:>5} {:>5}  {:>24}  {:>9}\n",
            "class", "runs", "pass", "rungs (comp/inst/fleet)", "condemned"
        );
        for (class, outcomes) in report.by_class(|spec| spec.class.name()) {
            let reports = || outcomes.iter().map(|o| &o.report);
            let rungs = || reports().flat_map(|r| &r.rungs);
            let climbed = |rung| rungs().filter(|r| **r == rung).count();
            out += &format!(
                "{class:<24} {:>5} {:>5}  {:>24}  {:>9}\n",
                outcomes.len(),
                outcomes.iter().filter(|o| o.passed()).count(),
                format!(
                    "{}/{}/{}",
                    climbed(Rung::Component),
                    climbed(Rung::Instance),
                    climbed(Rung::Fleet)
                ),
                reports().map(|r| r.condemned).sum::<usize>(),
            );
        }
        Some(out)
    }

    fn repro_file_name(spec: &RecursiveCampaignSpec) -> String {
        format!(
            "chaos-recursive-{}-{}.json",
            spec.class.name(),
            spec.campaign
        )
    }

    fn banner(spec: &RecursiveCampaignSpec) -> String {
        format!(
            "replaying recursive {} campaign #{} (seed {:#018x}, target {}, plant {})",
            spec.class.name(),
            spec.campaign,
            spec.seed,
            spec.target,
            spec.plant.name(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::sweep;
    use crate::laws::{self, laws, read as from_json};

    laws!(RecursiveFamily:
        every_class_and_plant_round_trips_through_json,
        traced_reruns_agree_and_a_plant_leaves_tails,
        a_small_sweep_passes_and_reruns_identically,
        a_passing_spec_is_left_alone,
        shrinking_preserves_the_violation_kind,
        respects_the_run_budget,
    );

    #[test]
    fn the_plant_battery_reports_all_three_awake() {
        laws::the_plant_battery_reports_every_plant_awake::<RecursiveFamily>();
    }

    #[test]
    fn component_family_documents_are_rejected() {
        laws::foreign_family_documents_are_rejected::<RecursiveFamily>();
        // So are a target the fleet does not have, a fleet no experiment
        // drives, and counts that only fit after truncation.
        let spec = generate_recursive_spec(7, 0, FaultClass::NinepStall, PlantKind::None);
        let text = RecursiveFamily::write_spec(&spec);
        let hostile = |from: &str, to: &str| {
            assert!(text.contains(from), "{text}");
            from_json::<RecursiveFamily>(&text.replacen(from, to, 1)).unwrap_err()
        };
        let target = format!("\"target\": {}", spec.target);
        let err = hostile(&target, "\"target\": 3");
        assert!(err.contains("out of range"), "{err}");
        let err = hostile("\"instances\": 3", "\"instances\": 18446744073709551615");
        assert!(err.contains("instances 18446744073709551615"), "{err}");
        let glitches = format!("\"glitch_count\": {}", spec.glitch_count);
        let err = hostile(&glitches, "\"glitch_count\": 4294967297");
        assert!(err.contains("glitch_count 4294967297"), "{err}");
        let silent = format!("\"silent_count\": {}", spec.silent_count);
        let err = hostile(&silent, "\"silent_count\": 4294967296");
        assert!(err.contains("silent_count 4294967296"), "{err}");
    }

    #[test]
    fn class_summaries_histogram_the_target_rungs() {
        let family = RecursiveFamily {
            classes: vec![FaultClass::NinepCorrupt],
        };
        let text = sweep(&family, 42, 2, false).expect("sweep").render();
        // Two campaigns, both passing, each climbing the component rung once
        // and nothing above it; nobody condemned.
        let row: Vec<&str> = text
            .lines()
            .nth(4)
            .expect("the class row")
            .split_whitespace()
            .collect();
        assert_eq!(row, ["ninep-corrupt", "2", "2", "2/0/0", "0"], "{text}");
    }
}
