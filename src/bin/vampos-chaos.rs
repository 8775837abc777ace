//! `vampos-chaos`: seeded, deterministic fault campaigns with
//! recovery-correctness oracles.
//!
//! ```text
//! vampos-chaos --seed 42 --campaigns 100 --workload kv
//! vampos-chaos --seed 7 --workload all --budget 6 --out target/chaos
//! vampos-chaos --family fleet --seed 7 --campaigns 20 --instances 4
//! vampos-chaos --family recursive --seed 42 --campaigns 100
//! vampos-chaos --family recursive --class ninep-stall --campaigns 10
//! vampos-chaos --family recursive --plant      # oracle self-test battery
//! vampos-chaos --family mesh --seed 42 --campaigns 4
//! vampos-chaos --family mesh --class kv-reboot --campaigns 8
//! vampos-chaos --family mesh --plant           # three-plant battery
//! vampos-chaos --family mesh --plant-kind acked-loss   # exits 1 iff caught
//! vampos-chaos --replay chaos-repro-kv-3.json
//! vampos-chaos --seed 1 --campaigns 2 --workload kv --plant   # self-test
//! ```
//!
//! Four campaign families implement `vampos::chaos::Family` and share one
//! harness — sweep, shrink, reproducer, plant battery and replay are
//! written once; this binary's only per-family code is flag parsing and
//! the dispatch on the family name:
//!
//! * `component` (default) — single-system fault schedules (panics, hangs,
//!   leaks, bit flips, timed reboots) against a fault-free twin, checked by
//!   four oracles (state equivalence, replay consistency, isolation,
//!   liveness);
//! * `fleet` — instance-scoped panics against a multi-instance cluster,
//!   checked by the fleet equivalence + liveness oracles;
//! * `recursive` — faults aimed at the *recovery machinery itself* (9P
//!   server, virtio rings, failure detector, balancer, checkpoint/replay,
//!   reboot engine), survived by the component → instance → fleet
//!   escalation ladder and checked by three oracles (ladder convergence,
//!   no acknowledged loss, rung attribution);
//! * `mesh` — multi-component request pipelines (front fleet → auth / KV /
//!   SQL backends with deadlines, retries, idempotency keys, and hedging)
//!   under front and backend recovery, checked against a fault-free twin by
//!   three oracles (pipeline equivalence, no acknowledged loss, retry
//!   budgets).
//!
//! Failing campaigns are shrunk to a minimal reproducer written under
//! `--out`: the shrunk spec and nothing else (the family is encoded in the
//! file). A run is a pure function of its spec, so `--replay` re-runs it
//! traced and prints that run's span and journey tails, and `--trace-out`
//! / `--metrics-out` export the same traced run, for any family.
//!
//! Output is byte-identical for a given seed: campaigns fan out over worker
//! threads but results are reported in campaign order with no wall-clock
//! timestamps. Exit codes: 0 all oracles silent, 1 violations found, 2
//! usage or I/O error (including a planted self-test whose oracle did not
//! fire).

use std::path::PathBuf;
use std::process::ExitCode;

use vampos::bench::cli::{self, Cli, Failure};
use vampos::chaos::json::{parse_value, Json};
use vampos::chaos::{
    family_of, parse_spec, plant_battery, sweep, ComponentFamily, Family, FleetFamily, MeshFamily,
    RecursiveFamily, SpanDump, Traced, WorkloadKind,
};
use vampos::cluster::FaultClass;
use vampos::mesh::MeshFaultClass;
use vampos::sim::derive_seed;
use vampos::ukernel::OsError;

struct Args {
    family: String,
    seed: u64,
    campaigns: u64,
    workloads: Vec<WorkloadKind>,
    budget: usize,
    plant: bool,
    classes: Vec<FaultClass>,
    mesh_classes: Vec<MeshFaultClass>,
    plant_kind: Option<String>,
    instances: usize,
    sequential: bool,
    replay: Option<PathBuf>,
    out_dir: PathBuf,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

const USAGE: &str = "\
usage: vampos-chaos [--family component|fleet|recursive|mesh]
                    [--seed N] [--campaigns K] [--workload echo|kv|http|sql|all]
                    [--class CLASS|all] [--instances N]
                    [--budget B] [--plant] [--plant-kind KIND]
                    [--sequential] [--out DIR]
                    [--trace-out FILE] [--metrics-out FILE]
       vampos-chaos --replay FILE [--trace-out FILE] [--metrics-out FILE]

--workload selects the component family's application; --class filters the
recursive family's recovery-plane fault classes (ninep-corrupt, ninep-stall,
virtio-drop, virtio-dup, detector-false-negative, detector-false-positive,
balancer-stale-view, checkpoint-corrupt, replay-divergence,
reboot-during-reboot) or the mesh family's recovery scenarios (front-reboot,
front-rejuvenate, rolling-front, kv-rejuvenate, kv-reboot, sql-reboot,
auth-rejuvenate, detector-misfire); --instances sizes the fleet family's
cluster.
--plant runs the oracle self-test: component plants a state divergence every
campaign must catch (exit 1); fleet, recursive and mesh run their plant
battery (each plant must flip its oracle; a sleeping oracle exits 2).
--plant-kind runs a single named plant of the family (fleet: divergence;
recursive: ladder-stall, acked-loss, misattributed-rung; mesh: wrong-value,
acked-loss, retry-storm) and exits 1 iff an oracle caught it — wired as
`!`-negated CI steps so a sleeping oracle fails the build.
--trace-out writes a Chrome trace-event JSON (load in Perfetto / chrome://tracing)
--metrics-out writes Prometheus text exposition (or a JSON dump for .json paths)
Both exports re-execute one deterministic spec with telemetry attached, for
any family: the first failing campaign's shrunk reproducer in sweep mode (the
first campaign when all pass), the planted spec under --plant-kind, or the
replayed spec under --replay, which prints the same run's span and journey
tails. A plant battery or a sweep of 0 campaigns has no such run: exit 2.
";

fn parse_args(cli: &mut Cli) -> Result<Args, String> {
    let mut args = Args {
        family: ComponentFamily::NAME.to_owned(),
        seed: 42,
        campaigns: 100,
        workloads: vec![WorkloadKind::Kv],
        budget: 4,
        plant: false,
        classes: FaultClass::ALL.to_vec(),
        mesh_classes: MeshFaultClass::ALL.to_vec(),
        plant_kind: None,
        instances: 4,
        sequential: false,
        replay: None,
        out_dir: PathBuf::from("."),
        trace_out: None,
        metrics_out: None,
    };
    let mut class: Option<String> = None;
    while let Some(flag) = cli.flag()? {
        match flag {
            "--family" => args.family = cli.value()?,
            "--seed" => args.seed = cli.value()?,
            "--campaigns" => args.campaigns = cli.population(0)? as u64,
            "--budget" => args.budget = cli.population(0)?,
            "--workload" => {
                args.workloads = cli.named(|name| match name {
                    "all" => Some(WorkloadKind::ALL.to_vec()),
                    one => WorkloadKind::parse(one).map(|kind| vec![kind]),
                })?;
            }
            "--class" => class = Some(cli.value()?),
            "--instances" => args.instances = cli.population(1)?,
            "--plant" => args.plant = true,
            "--plant-kind" => args.plant_kind = Some(cli.value()?),
            "--sequential" => args.sequential = true,
            "--out" => args.out_dir = cli.path()?,
            "--trace-out" => args.trace_out = Some(cli.path()?),
            "--metrics-out" => args.metrics_out = Some(cli.path()?),
            "--replay" => args.replay = Some(cli.path()?),
            _ => return Err(cli.unknown()),
        }
    }
    // Class names are family-scoped; flags arrive in any order, so the
    // name is matched against both alphabets and paired with the family
    // once that is known.
    if let Some(name) = class.filter(|name| name != "all") {
        let recursive = FaultClass::from_name(&name);
        let mesh = MeshFaultClass::from_name(&name);
        if recursive.is_none() && mesh.is_none() {
            return Err(format!("unknown fault class {name:?}"));
        }
        if (args.family == RecursiveFamily::NAME && recursive.is_none())
            || (args.family == MeshFamily::NAME && mesh.is_none())
        {
            return Err(format!(
                "fault class {name:?} does not belong to the selected family"
            ));
        }
        args.classes = recursive.map_or(args.classes, |class| vec![class]);
        args.mesh_classes = mesh.map_or(args.mesh_classes, |class| vec![class]);
    }
    Ok(args)
}

/// The one place a family name — from `--family` or from a reproducer's
/// `"family"` key — becomes a type.
fn dispatch(args: &Args, family: &str, reproducer: Option<&Json>) -> Result<ExitCode, String> {
    match family {
        ComponentFamily::NAME => run(
            &ComponentFamily {
                workloads: args.workloads.clone(),
                budget: args.budget,
                plant: args.plant,
            },
            args,
            reproducer,
        ),
        FleetFamily::NAME => run(
            &FleetFamily {
                instances: args.instances,
                budget: args.budget,
            },
            args,
            reproducer,
        ),
        RecursiveFamily::NAME => run(
            &RecursiveFamily {
                classes: args.classes.clone(),
            },
            args,
            reproducer,
        ),
        MeshFamily::NAME => run(
            &MeshFamily {
                classes: args.mesh_classes.clone(),
            },
            args,
            reproducer,
        ),
        other => Err(format!("unknown family {other:?}")),
    }
}

/// The export flag given, if any: a mode with no single run to export
/// refuses it by name before anything runs.
fn export_flag(args: &Args) -> Option<&'static str> {
    let trace = args.trace_out.as_ref().map(|_| "--trace-out");
    trace.or(args.metrics_out.as_ref().map(|_| "--metrics-out"))
}

/// Writes the requested exports of a traced run, which is made only if one
/// is requested. The run is deterministic, so the files are byte-identical
/// across invocations with the same spec.
fn export(args: &Args, traced: impl FnOnce() -> Result<Traced, OsError>) -> Result<(), String> {
    if export_flag(args).is_none() {
        return Ok(());
    }
    let mut traced = traced().map_err(|e| format!("traced run failed: {e}"))?;
    if let Some(path) = &args.trace_out {
        cli::write(path, &traced.trace, "telemetry")?;
    }
    if let Some(path) = &args.metrics_out {
        cli::write(path, traced.metrics.render_for(path), "telemetry")?;
    }
    Ok(())
}

/// Prints one tail of the traced run as an indented timeline: the last
/// thing the faulted system did before it quiesced (`span`), and the
/// request journeys in flight at that point (`journey`).
fn print_tail(tail: &[SpanDump], label: &str) {
    if tail.is_empty() {
        return;
    }
    println!("{label} tail ({} span(s), oldest first):", tail.len());
    for span in tail {
        println!(
            "  {:>12} ns  {}{} :: {}  [{} ns]",
            span.start_ns,
            "  ".repeat(span.depth as usize),
            span.track,
            span.name,
            span.dur_ns,
        );
    }
}

/// Prints a report's violations and the line that sums them up; exit 1
/// iff there were any.
fn verdict<F: Family>(
    report: &F::Report,
    silent: String,
    caught: impl Fn(usize) -> String,
) -> ExitCode {
    let violations = F::violations(report);
    for violation in violations {
        println!("  {}", F::describe(violation));
    }
    if violations.is_empty() {
        println!("{silent}");
        return ExitCode::SUCCESS;
    }
    println!("{}", caught(violations.len()));
    ExitCode::from(1)
}

fn replay<F: Family>(args: &Args, doc: &Json) -> Result<ExitCode, String> {
    let spec = parse_spec::<F>(doc)?;
    println!("{}", F::banner(&spec));
    let traced = F::traced(&spec).map_err(|e| format!("replay failed: {e}"))?;
    let (spans, journeys) = traced.tails();
    print_tail(&spans, "span");
    print_tail(&journeys, "journey");
    let report = F::execute(&spec).map_err(|e| format!("replay failed: {e}"))?;
    export(args, || Ok(traced))?;
    let silent = format!(
        "{} oracles silent: the reproducer no longer fails",
        F::ORACLES
    );
    Ok(verdict::<F>(&report, silent, |n| {
        format!("{n} violation(s) reproduced")
    }))
}

/// `--plant-kind`: one planted campaign, exit 1 iff at least one oracle
/// caught it. CI runs these as `!`-negated steps, so a sleeping oracle
/// (exit 0) fails the build.
fn single_plant<F: Family>(family: &F, name: &str, args: &Args) -> Result<ExitCode, String> {
    let plants = family.plants();
    if plants.is_empty() {
        return Err(format!("the {} family has no named plants", F::NAME));
    }
    let plant = plants
        .iter()
        .find(|plant| plant.name == name)
        .ok_or_else(|| format!("unknown plant kind {name:?}"))?;
    let spec = (plant.spec)(derive_seed(args.seed, 0), 0);
    let report = F::execute(&spec).map_err(|e| format!("planted campaign failed to run: {e}"))?;
    export(args, || F::traced(&spec))?;
    let slipped = format!("plant {name} slipped past every oracle (harness defect)");
    Ok(verdict::<F>(&report, slipped, |n| {
        format!("plant {name} caught by {n} violation(s)")
    }))
}

fn run<F: Family>(family: &F, args: &Args, reproducer: Option<&Json>) -> Result<ExitCode, String> {
    if let Some(doc) = reproducer {
        return replay::<F>(args, doc);
    }
    if let Some(name) = &args.plant_kind {
        return single_plant(family, name, args);
    }
    // `--plant` is the battery for a family with named plants: a plant
    // that does not flip its oracle means an oracle is asleep, which is a
    // harness defect (exit 2), not a campaign failure. The component
    // family has none; its `--plant` is a field of the family value and
    // turns the sweep below into one whose every campaign must fail.
    let battery = args.plant && !family.plants().is_empty();
    if let Some(flag) = export_flag(args).filter(|_| battery || args.campaigns == 0) {
        return Err(format!(
            "{flag}: a plant battery or a sweep of 0 campaigns has no single run to export"
        ));
    }
    if battery {
        let (text, awake) = plant_battery(family, args.seed)
            .map_err(|e| format!("plant battery failed to run: {e}"))?;
        print!("{text}");
        return Ok(if awake {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        });
    }

    let report = sweep(family, args.seed, args.campaigns, args.sequential)
        .map_err(|e| format!("sweep failed: {e}"))?;
    print!("{}", report.render());
    let mut exit = ExitCode::SUCCESS;
    for outcome in report.failures() {
        exit = ExitCode::from(1);
        let Some(json) = outcome.reproducer_json() else {
            continue;
        };
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
        let file = args.out_dir.join(F::repro_file_name(&outcome.spec));
        cli::write(&file, json, "reproducer")?;
    }

    // Telemetry exports instrument one deterministic spec: the first
    // failure's shrunk reproducer when the sweep found one, otherwise the
    // first campaign.
    let export_spec = report
        .failures()
        .find_map(|o| o.shrunk.as_ref())
        .or_else(|| report.outcomes.first().map(|o| &o.spec));
    if let Some(spec) = export_spec {
        export(args, || F::traced(spec))?;
    }
    Ok(exit)
}

fn main() -> ExitCode {
    // Exit 1 means "violations found", so nothing else may use it: a sweep
    // that could not run exits 2 like the unusable input it usually is.
    cli::run("vampos-chaos", USAGE, parse_args, |args| {
        let outcome = match &args.replay {
            None => dispatch(&args, &args.family, None),
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
                .and_then(|text| parse_value(&text))
                .and_then(|doc| dispatch(&args, family_of(&doc)?, Some(&doc))),
        };
        outcome.map_err(Failure::Input)
    })
}
