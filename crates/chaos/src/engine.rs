//! The component family: single-system fault schedules (panics, hangs,
//! leaks, bit flips, timed reboots) against a fault-free twin issuing the
//! identical request stream, judged by the four oracles of
//! [`crate::oracle`].
//!
//! Everything here is deterministic for a given configuration: campaign
//! seeds are pure derivations of `(base seed, workload, index)` and each
//! campaign builds its own simulated system, which is what lets
//! [`crate::sweep`] fan campaigns out over worker threads and still render
//! a byte-identical report.

use vampos_core::FaultKind;
use vampos_sim::{derive_seed, Nanos};
use vampos_telemetry::TelemetrySink;
use vampos_ukernel::OsError;
use vampos_workloads::{Disruption, DisruptionKind};

use crate::family::{Family, Outcome, Traced};
use crate::gen::generate_spec;
use crate::json::{array, inline, list, num, object, population, quote, text, Json};
use crate::oracle::{self, Violation};
use crate::shrink::{halve, Shrinker};
use crate::spec::{inject, CampaignSpec, WorkloadKind};

/// The component family and the shape of its sweeps (mirrors the
/// `vampos-chaos` CLI).
#[derive(Debug, Clone)]
pub struct ComponentFamily {
    /// Workloads to sweep, `campaigns` specs each.
    pub workloads: Vec<WorkloadKind>,
    /// Max scheduled events per campaign.
    pub budget: usize,
    /// Plant a deliberate state divergence in every campaign (pipeline
    /// self-test: all campaigns must then fail and shrink).
    pub plant: bool,
}

impl Default for ComponentFamily {
    fn default() -> Self {
        ComponentFamily {
            workloads: vec![WorkloadKind::Kv],
            budget: 4,
            plant: false,
        }
    }
}

/// Halves an event's firing time, its `after` countdown and a bit-flip
/// offset, all in one candidate; whether anything moved.
fn halve_event(event: &mut Disruption) -> bool {
    let mut at_ns = event.at.as_nanos();
    let mut changed = halve(&mut at_ns, 1);
    event.at = Nanos::from_nanos(at_ns);
    if let DisruptionKind::Inject(fault) = &mut event.kind {
        changed |= halve(&mut fault.after_calls, 0);
        if let FaultKind::BitFlip { offset, .. } = &mut fault.kind {
            changed |= halve(offset, 0);
        }
    }
    changed
}

impl Family for ComponentFamily {
    const NAME: &'static str = "component";
    const ORACLES: &'static str = "all four";
    const SHRINK_BUDGET: usize = 150;

    type Spec = CampaignSpec;
    type Report = Vec<Violation>;
    type Violation = Violation;

    fn specs(&self, seed: u64, campaigns: u64) -> Vec<CampaignSpec> {
        let mut specs = Vec::new();
        for workload in &self.workloads {
            // Two-level derivation: workload stream, then campaign stream —
            // adding a workload to the sweep never perturbs another's seeds.
            let stream = derive_seed(seed, workload.id());
            for campaign in 0..campaigns {
                let seed = derive_seed(stream, campaign);
                specs.push(generate_spec(
                    *workload,
                    seed,
                    campaign,
                    self.budget,
                    self.plant,
                ));
            }
        }
        specs
    }

    /// Faulted run, fault-free twin, all four oracles; never errors.
    fn execute(spec: &CampaignSpec) -> Result<Vec<Violation>, OsError> {
        let faulted = crate::drive::run(spec, true);
        let twin = crate::drive::run(spec, false);
        Ok(oracle::check(spec, &faulted, &twin))
    }

    /// The faulted run once more, its one system's hub attached.
    fn traced(spec: &CampaignSpec) -> Result<Traced, OsError> {
        let sink = TelemetrySink::default();
        crate::drive::run_with_sink(spec, true, Some(&sink));
        let (trace, metrics) = sink.with(|hub| (hub.chrome_trace_json(), hub.metrics().clone()));
        Ok(Traced {
            hub: sink,
            trace,
            metrics,
        })
    }

    fn violations(report: &Vec<Violation>) -> &[Violation] {
        report
    }

    fn kind(violation: &Violation) -> &'static str {
        violation.kind.name()
    }

    fn describe(violation: &Violation) -> String {
        format!("{}: {}", violation.kind.name(), violation.detail)
    }

    /// Drop one scheduled event at a time; halve each event's time and
    /// numeric payloads; halve the request count until a halving fails,
    /// then decrement it.
    fn shrink_pass(shrinker: &mut Shrinker<'_, CampaignSpec>) {
        shrinker.drop_each(|spec| &mut spec.events);
        for i in 0..shrinker.best.events.len() {
            let mut candidate = shrinker.best.clone();
            if halve_event(&mut candidate.events[i]) && shrinker.attempt(candidate).is_none() {
                return;
            }
        }
        for step in [|ops: usize| ops / 2, |ops: usize| ops - 1] {
            while shrinker.best.ops > 1 {
                let mut candidate = shrinker.best.clone();
                candidate.ops = step(candidate.ops).max(1);
                if shrinker.attempt(candidate) != Some(true) {
                    break;
                }
            }
        }
    }

    fn write_spec(spec: &CampaignSpec) -> String {
        object(&[
            ("workload", quote(spec.workload.name())),
            ("seed", spec.seed.to_string()),
            ("campaign", spec.campaign.to_string()),
            ("ops", spec.ops.to_string()),
            ("tail", spec.tail.to_string()),
            ("aof", spec.aof.to_string()),
            ("plant", spec.plant.to_string()),
            ("events", array(spec.events.iter().map(write_event))),
        ])
    }

    fn read_spec(doc: &Json) -> Result<CampaignSpec, String> {
        let workload = doc.get("workload")?.as_str()?;
        let workload = WorkloadKind::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        Ok(CampaignSpec {
            workload,
            seed: num(doc, "seed")?,
            campaign: num(doc, "campaign")?,
            ops: population(doc, "ops")?,
            tail: population(doc, "tail")?,
            aof: doc.get("aof")?.as_bool()?,
            plant: doc.get("plant")?.as_bool()?,
            events: list(doc, "events", read_event)?,
        })
    }

    fn summary_line(outcome: &Outcome<Self>) -> String {
        let spec = &outcome.spec;
        let head = format!(
            "{} #{} seed={:#018x}",
            spec.workload.name(),
            spec.campaign,
            spec.seed
        );
        match &outcome.shrunk {
            None => format!("PASS {head} events={} ops={}", spec.events.len(), spec.ops),
            Some(shrunk) => format!(
                "FAIL {head} oracles=[{}] shrunk to {} event(s), {} op(s) in {} run(s)",
                outcome.oracles(),
                shrunk.events.len(),
                shrunk.ops,
                outcome.shrink_runs,
            ),
        }
    }

    fn repro_file_name(spec: &CampaignSpec) -> String {
        format!(
            "chaos-repro-{}-{}.json",
            spec.workload.name(),
            spec.campaign
        )
    }

    fn banner(spec: &CampaignSpec) -> String {
        format!(
            "replaying {} campaign #{} (seed {:#018x}, {} event(s), {} op(s))",
            spec.workload.name(),
            spec.campaign,
            spec.seed,
            spec.events.len(),
            spec.ops,
        )
    }
}

/// One event as a reproducer line. An inject is written as the
/// [`inject`] that arms it: component, countdown and effect.
fn write_event(event: &Disruption) -> String {
    let mut fields = vec![("at_ns", event.at.as_nanos().to_string())];
    let kind = |name: &str| ("kind", quote(name));
    match &event.kind {
        DisruptionKind::ComponentReboot(name) => {
            fields.extend([kind("component_reboot"), ("component", quote(name))]);
        }
        DisruptionKind::FullReboot => fields.push(kind("full_reboot")),
        DisruptionKind::Inject(fault) => {
            fields.extend([
                kind("inject"),
                ("component", quote(&fault.component)),
                ("after", fault.after_calls.to_string()),
            ]);
            let fault_name = |name: &str| ("fault", quote(name));
            match fault.kind {
                FaultKind::Panic => fields.push(fault_name("panic")),
                FaultKind::Hang => fields.push(fault_name("hang")),
                FaultKind::LeakPerOp { bytes } => {
                    fields.extend([fault_name("leak"), ("bytes", bytes.to_string())]);
                }
                FaultKind::BitFlip { offset, bit } => fields.extend([
                    fault_name("bit_flip"),
                    ("offset", offset.to_string()),
                    ("bit", bit.to_string()),
                ]),
            }
        }
        DisruptionKind::Fail(name) => fields.extend([kind("fail"), ("component", quote(name))]),
        DisruptionKind::RejuvenateAll => fields.push(kind("rejuvenate_all")),
    }
    inline(&fields)
}

fn read_event(v: &Json) -> Result<Disruption, String> {
    let at = Nanos::from_nanos(num(v, "at_ns")?);
    Ok(match v.get("kind")?.as_str()? {
        "component_reboot" => Disruption::component_reboot(at, &text(v, "component")?),
        "full_reboot" => Disruption::full_reboot(at),
        "fail" => Disruption::fail(at, &text(v, "component")?),
        "rejuvenate_all" => Disruption::rejuvenate_all(at),
        "inject" => {
            let fault = match v.get("fault")?.as_str()? {
                "panic" => FaultKind::Panic,
                "hang" => FaultKind::Hang,
                "leak" => FaultKind::LeakPerOp {
                    bytes: num(v, "bytes")?,
                },
                "bit_flip" => FaultKind::BitFlip {
                    offset: num(v, "offset")?,
                    bit: num(v, "bit")?,
                },
                other => return Err(format!("unknown fault {other:?}")),
            };
            inject(at, &text(v, "component")?, num(v, "after")?, fault)
        }
        other => return Err(format!("unknown event kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::sweep;
    use crate::laws::{self, laws};

    // The JSON laws run under their older names in `json::tests`, the
    // shrinker's in `shrink::tests`.
    laws!(ComponentFamily:
        foreign_family_documents_are_rejected,
        traced_reruns_agree_and_a_plant_leaves_tails,
        shrinking_preserves_the_violation_kind,
    );

    #[test]
    fn sweep_is_deterministic_across_runs_and_scheduling() {
        laws::a_small_sweep_passes_and_reruns_identically::<ComponentFamily>();
    }

    #[test]
    fn adding_a_workload_does_not_perturb_existing_seeds() {
        let seeds_of_kv = |workloads: Vec<WorkloadKind>| -> Vec<u64> {
            let family = ComponentFamily {
                workloads,
                budget: 3,
                plant: false,
            };
            let report = sweep(&family, 42, 3, false).expect("sweep");
            report
                .outcomes
                .iter()
                .filter(|o| o.spec.workload == WorkloadKind::Kv)
                .map(|o| o.spec.seed)
                .collect()
        };
        assert_eq!(
            seeds_of_kv(vec![WorkloadKind::Echo, WorkloadKind::Kv]),
            seeds_of_kv(vec![WorkloadKind::Kv])
        );
    }
}
