//! The chaos harness, written once over [`Family`].
//!
//! A campaign *family* is one way of breaking the system and judging the
//! recovery: single-system fault schedules ([`crate::ComponentFamily`]),
//! instance-scoped panics in a cluster ([`crate::FleetFamily`]), faults in
//! the recovery plane itself ([`crate::RecursiveFamily`]), pipelines under
//! backend recovery ([`crate::MeshFamily`]). Everything around that is the
//! same for all of them and lives here: the fan-out [`sweep`] (parallel ≡
//! sequential), shrink-on-failure, the reproducer (the shrunk spec), the
//! traced re-run ([`Traced`]), the text report, and the plant battery.
//!
//! What stays with the family is what differs observably. *Seed
//! derivation* is the family's ([`Family::specs`]): the component family
//! derives per workload and then per campaign so that adding a workload
//! never perturbs another's seeds, the class-based families derive flat
//! over `class_index * campaigns + c` and print that index. *Candidate
//! order* is the family's ([`Family::shrink_pass`]): the report prints the
//! number of executions the shrinker spent, so the order of its moves is
//! output.

use std::fmt;

use vampos_bench::parallel_map;
use vampos_cluster::Fleet;
use vampos_sim::derive_seed;
use vampos_telemetry::{MetricsRegistry, SpanDump, SpanKind, TelemetrySink};
use vampos_ukernel::OsError;

use crate::json::Json;
use crate::shrink::{shrink, Kinds, Shrinker};

/// Spans per tail `--replay` prints: the last window of activity before
/// the faulted run quiesced.
pub const SPAN_TAIL: usize = 24;

/// One spec's faulted run re-executed with telemetry attached: everything
/// `--replay`, `--trace-out` and `--metrics-out` show of it. The run is a
/// pure function of the spec, so none of this is stored in a reproducer.
pub struct Traced {
    /// The hub of record: the system's hub, or a cluster's fleet hub.
    pub hub: TelemetrySink,
    /// The run's Chrome trace (a cluster's: one process per instance).
    pub trace: String,
    /// The run's metrics, merged across every hub.
    pub metrics: MetricsRegistry,
}

impl Traced {
    /// What a fleet recorded of the run it just made. Panics unless it was
    /// booted with telemetry, which every family's traced run does.
    pub(crate) fn of_fleet(fleet: &Fleet) -> Traced {
        let built = "a traced run boots its fleet with telemetry";
        Traced {
            hub: fleet.fleet_telemetry().expect(built).clone(),
            trace: fleet.chrome_trace_json().expect(built),
            metrics: fleet.merged_metrics().expect(built),
        }
    }

    /// The last [`SPAN_TAIL`] runtime spans and the last [`SPAN_TAIL`]
    /// journey spans of the hub of record, oldest first: journeys get their
    /// own window so the runtime one stays recovery-only.
    pub fn tails(&self) -> (Vec<SpanDump>, Vec<SpanDump>) {
        let hub = self.hub.hub();
        (
            hub.tail_where(SPAN_TAIL, |s| s.kind() != SpanKind::Journey),
            hub.tail_where(SPAN_TAIL, |s| s.kind() == SpanKind::Journey),
        )
    }
}

/// One planted self-test: a spec built to flip one oracle.
pub struct Plant<F: Family> {
    /// The name `--plant-kind` selects it by.
    pub name: &'static str,
    /// The oracle it must flip.
    pub expected: &'static str,
    /// Whether that oracle must be the *only* one to fire. A plant that
    /// derails the whole recovery (a stalled ladder) may drag other
    /// accounting sideways and only needs its oracle among those firing.
    pub strict: bool,
    /// Builds the planted spec from a derived seed and a campaign index.
    pub spec: Box<dyn Fn(u64, u64) -> F::Spec>,
}

/// One campaign family: what it generates, how it runs and judges a spec,
/// how a spec shrinks, and how spec and verdict are written down.
pub trait Family: Sized {
    /// CLI name and the reproducer's `"family"` discriminator.
    const NAME: &'static str;
    /// How the replay verdict counts this family's oracles ("all four").
    const ORACLES: &'static str;
    /// Executions the shrinker may spend per failing campaign.
    const SHRINK_BUDGET: usize;
    /// A fully self-contained campaign.
    type Spec: Clone + Send;
    /// What one execution reports: the violations plus whatever the
    /// summary line and class table read.
    type Report: Send;
    /// One oracle violation.
    type Violation: fmt::Debug;

    /// The sweep's specs; generation order is report order.
    fn specs(&self, seed: u64, campaigns: u64) -> Vec<Self::Spec>;

    /// The named planted self-tests (none: `--plant` is not a battery).
    fn plants(&self) -> Vec<Plant<Self>> {
        Vec::new()
    }

    /// Runs one spec and evaluates every oracle. An error means the
    /// campaign never became meaningful, not that an oracle fired.
    fn execute(spec: &Self::Spec) -> Result<Self::Report, OsError>;

    /// Re-runs one spec's faulted run with telemetry attached. Telemetry
    /// only records, so this is the run [`Family::execute`] judged.
    fn traced(spec: &Self::Spec) -> Result<Traced, OsError>;

    /// The violations of a report (empty = every oracle silent).
    fn violations(report: &Self::Report) -> &[Self::Violation];

    /// The oracle a violation came from.
    fn kind(violation: &Self::Violation) -> &'static str;

    /// A violation as the replay verdict prints it.
    fn describe(violation: &Self::Violation) -> String {
        format!("{violation:?}")
    }

    /// A violation as the sweep report prints it under its campaign.
    fn sweep_line(violation: &Self::Violation) -> String {
        Self::describe(violation)
    }

    /// One pass of this family's candidate moves, in this family's order.
    fn shrink_pass(shrinker: &mut Shrinker<'_, Self::Spec>);

    /// Serializes a spec with [`json::object`] (stable field order).
    fn write_spec(spec: &Self::Spec) -> String;

    /// Reads a spec back, refusing values no sweep could have written.
    fn read_spec(doc: &Json) -> Result<Self::Spec, String>;

    /// The stable one-line summary the sweep prints per campaign.
    fn summary_line(outcome: &Outcome<Self>) -> String;

    /// The per-class table a class-based family prints between its
    /// campaign lines and the trailer, built on [`SweepReport::by_class`].
    fn class_table(_report: &SweepReport<Self>) -> Option<String> {
        None
    }

    /// The reproducer's file name under `--out`.
    fn repro_file_name(spec: &Self::Spec) -> String;

    /// The line `--replay` opens with.
    fn banner(spec: &Self::Spec) -> String;
}

/// The oracle names a report violated.
pub fn kinds<F: Family>(report: &F::Report) -> Kinds {
    F::violations(report).iter().map(F::kind).collect()
}

/// One campaign run end to end by the sweep: the report plus the
/// shrinking artifacts of a failure.
pub struct Outcome<F: Family> {
    /// The executed spec.
    pub spec: F::Spec,
    /// What the execution reported.
    pub report: F::Report,
    /// The minimized reproducer, when the campaign failed.
    pub shrunk: Option<F::Spec>,
    /// Executions the shrinker spent.
    pub shrink_runs: usize,
}

impl<F: Family> Outcome<F> {
    /// Whether every oracle was silent.
    pub fn passed(&self) -> bool {
        F::violations(&self.report).is_empty()
    }

    /// The violated oracles, sorted and comma-separated.
    pub fn oracles(&self) -> String {
        Vec::from_iter(kinds::<F>(&self.report)).join(",")
    }

    /// The reproducer of a failing campaign: its shrunk spec, serialized.
    /// Everything else is re-derived from it ([`Family::traced`]).
    pub fn reproducer_json(&self) -> Option<String> {
        self.shrunk.as_ref().map(F::write_spec)
    }
}

/// The family a reproducer belongs to. Documents without a `"family"` key
/// are component reproducers from before the key existed.
pub fn family_of(doc: &Json) -> Result<&str, String> {
    doc.get_opt("family").map_or(Ok("component"), Json::as_str)
}

/// Reads family `F`'s spec out of a parsed reproducer; another family's
/// document is refused by name. Keys the family does not read are ignored:
/// an older binary's reproducer (spec plus span windows) replays as its spec.
pub fn parse_spec<F: Family>(doc: &Json) -> Result<F::Spec, String> {
    let family = family_of(doc)?;
    if family != F::NAME {
        return Err(format!("not a {} reproducer: family {family:?}", F::NAME));
    }
    F::read_spec(doc)
}

/// Runs one campaign end to end: execute, and shrink on failure. Only the
/// *original* spec's simulation error propagates: an erroring shrink
/// candidate counts as non-reproducing.
pub fn run_outcome<F: Family>(spec: F::Spec) -> Result<Outcome<F>, OsError> {
    let report = F::execute(&spec)?;
    let target = kinds::<F>(&report);
    let mut outcome = Outcome {
        spec,
        report,
        shrunk: None,
        shrink_runs: 0,
    };
    if target.is_empty() {
        return Ok(outcome);
    }
    let (shrunk, runs) = shrink::<F>(&outcome.spec, &target, F::SHRINK_BUDGET, |candidate| {
        F::execute(candidate).map_or_else(|_| Kinds::new(), |report| kinds::<F>(&report))
    });
    outcome.shrunk = Some(shrunk);
    outcome.shrink_runs = runs;
    Ok(outcome)
}

/// The result of a whole sweep, in generation order.
pub struct SweepReport<F: Family> {
    /// Every campaign's outcome.
    pub outcomes: Vec<Outcome<F>>,
}

impl<F: Family> SweepReport<F> {
    /// Campaigns that violated at least one oracle.
    pub fn failures(&self) -> impl Iterator<Item = &Outcome<F>> {
        self.outcomes.iter().filter(|o| !o.passed())
    }

    /// The full, deterministic text report: one line per campaign with
    /// its violations under it, the family's class table between blank
    /// lines if it has one, and a trailer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for outcome in &self.outcomes {
            out.push_str(&F::summary_line(outcome));
            out.push('\n');
            for violation in F::violations(&outcome.report) {
                out.push_str(&format!("  {}\n", F::sweep_line(violation)));
            }
        }
        if let Some(table) = F::class_table(self) {
            out.push_str(&format!("\n{table}\n"));
        }
        let failed = self.failures().count();
        out.push_str(&format!(
            "{} campaign(s), {} passed, {} failed\n",
            self.outcomes.len(),
            self.outcomes.len() - failed,
            failed,
        ));
        out
    }

    /// The outcomes grouped by class, in first-seen order.
    pub fn by_class(
        &self,
        class: impl Fn(&F::Spec) -> &'static str,
    ) -> Vec<(&'static str, Vec<&Outcome<F>>)> {
        let mut groups: Vec<(&str, Vec<&Outcome<F>>)> = Vec::new();
        for outcome in &self.outcomes {
            let name = class(&outcome.spec);
            match groups.iter_mut().find(|group| group.0 == name) {
                Some(group) => group.1.push(outcome),
                None => groups.push((name, vec![outcome])),
            }
        }
        groups
    }
}

/// Runs the family's specs for `(seed, campaigns)`, fanned out over worker
/// threads or — `sequential` — on the calling thread. Every campaign
/// builds its own simulated systems and [`parallel_map`] preserves input
/// order, so both ways render byte-identical reports. The first simulation
/// error of any campaign, in generation order, fails the sweep.
pub fn sweep<F: Family>(
    family: &F,
    seed: u64,
    campaigns: u64,
    sequential: bool,
) -> Result<SweepReport<F>, OsError> {
    let specs = family.specs(seed, campaigns);
    let outcomes = if sequential {
        specs.into_iter().map(run_outcome::<F>).collect()
    } else {
        parallel_map(specs, run_outcome::<F>)
    };
    Ok(SweepReport {
        outcomes: outcomes.into_iter().collect::<Result<_, _>>()?,
    })
}

/// The spec order of the class-based families: class-major, campaign
/// `class_index * campaigns + c` seeded with `derive_seed(seed, idx)`. The
/// flat index is also the campaign number the report prints.
pub fn per_class<C: Copy, S>(
    classes: &[C],
    seed: u64,
    campaigns: u64,
    generate: impl Fn(u64, u64, C) -> S,
) -> Vec<S> {
    let mut specs = Vec::new();
    for (ci, &class) in classes.iter().enumerate() {
        for c in 0..campaigns {
            let idx = ci as u64 * campaigns + c;
            specs.push(generate(derive_seed(seed, idx), idx, class));
        }
    }
    specs
}

/// Runs every planted self-test of the family (plant `i` at
/// `derive_seed(seed, i)`, campaign `i`) and renders one `OK  `/`FAIL`
/// line per plant plus a tally — the proof that a clean sweep means "the
/// recovery held", not "the oracles slept". The flag is whether every
/// plant flipped its oracle; a plant whose oracles misfire is a `FAIL`
/// line, not an error.
pub fn plant_battery<F: Family>(family: &F, seed: u64) -> Result<(String, bool), OsError> {
    let plants = family.plants();
    let mut out = String::new();
    let mut awake = 0;
    for (i, plant) in plants.iter().enumerate() {
        let spec = (plant.spec)(derive_seed(seed, i as u64), i as u64);
        let observed = kinds::<F>(&F::execute(&spec)?);
        let ok = observed.contains(plant.expected) && (!plant.strict || observed.len() == 1);
        awake += usize::from(ok);
        out.push_str(&format!(
            "{} plant {}: expected [{}], observed {observed:?}\n",
            if ok { "OK  " } else { "FAIL" },
            plant.name,
            plant.expected,
        ));
    }
    out.push_str(&format!(
        "{awake}/{} plants flipped exactly their oracle\n",
        plants.len()
    ));
    Ok((out, awake == plants.len()))
}
