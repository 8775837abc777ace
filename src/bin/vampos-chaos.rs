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
//! `--out`, replayable with `--replay` (the family is encoded in the file).
//!
//! Output is byte-identical for a given seed: campaigns fan out over worker
//! threads but results are reported in campaign order with no wall-clock
//! timestamps. Exit codes: 0 all oracles silent, 1 violations found, 2
//! usage or I/O error (including a planted self-test whose oracle did not
//! fire).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vampos::chaos::json::{self, parse_value, Json};
use vampos::chaos::{
    family_of, parse_spec, plant_battery, sweep, ComponentFamily, Family, FleetFamily, MeshFamily,
    RecursiveFamily, WorkloadKind,
};
use vampos::cluster::FaultClass;
use vampos::mesh::MeshFaultClass;
use vampos::sim::derive_seed;

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

fn usage() -> String {
    "usage: vampos-chaos [--family component|fleet|recursive|mesh]\n\
     \x20                   [--seed N] [--campaigns K] [--workload echo|kv|http|sql|all]\n\
     \x20                   [--class CLASS|all] [--instances N]\n\
     \x20                   [--budget B] [--plant] [--plant-kind KIND]\n\
     \x20                   [--sequential] [--out DIR]\n\
     \x20                   [--trace-out FILE] [--metrics-out FILE]\n\
     \x20      vampos-chaos --replay FILE [--trace-out FILE] [--metrics-out FILE]\n\
     \n\
     --workload selects the component family's application; --class filters the\n\
     recursive family's recovery-plane fault classes (ninep-corrupt, ninep-stall,\n\
     virtio-drop, virtio-dup, detector-false-negative, detector-false-positive,\n\
     balancer-stale-view, checkpoint-corrupt, replay-divergence,\n\
     reboot-during-reboot) or the mesh family's recovery scenarios (front-reboot,\n\
     front-rejuvenate, rolling-front, kv-rejuvenate, kv-reboot, sql-reboot,\n\
     auth-rejuvenate, detector-misfire); --instances sizes the fleet family's\n\
     cluster.\n\
     --plant runs the oracle self-test: component plants a state divergence every\n\
     campaign must catch (exit 1); fleet, recursive and mesh run their plant\n\
     battery (each plant must flip its oracle; a sleeping oracle exits 2).\n\
     --plant-kind runs a single named plant of the family (fleet: divergence;\n\
     recursive: ladder-stall, acked-loss, misattributed-rung; mesh: wrong-value,\n\
     acked-loss, retry-storm) and exits 1 iff an oracle caught it — wired as\n\
     `!`-negated CI steps so a sleeping oracle fails the build.\n\
     --trace-out writes a Chrome trace-event JSON (load in Perfetto / chrome://tracing)\n\
     --metrics-out writes Prometheus text exposition (or a JSON dump for .json paths)\n\
     Both exports re-execute one deterministic spec with telemetry attached: the\n\
     first failing campaign's shrunk reproducer in sweep mode (the first campaign\n\
     when all pass), or the replayed spec in --replay mode (component family only).\n"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
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
    let mut class = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--family" => args.family = value("--family")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--campaigns" => {
                args.campaigns = value("--campaigns")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--budget" => {
                args.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--workload" => {
                let name = value("--workload")?;
                args.workloads = if name == "all" {
                    WorkloadKind::ALL.to_vec()
                } else {
                    vec![WorkloadKind::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--class" => class = Some(value("--class")?),
            "--instances" => {
                args.instances = value("--instances")?.parse().map_err(|e| format!("{e}"))?;
                if args.instances == 0 {
                    return Err("--instances must be at least 1".to_owned());
                }
            }
            "--plant" => args.plant = true,
            "--plant-kind" => args.plant_kind = Some(value("--plant-kind")?),
            "--sequential" => args.sequential = true,
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    // Class names are family-scoped; flags arrive in any order, so the
    // name is matched against both alphabets and paired with the family
    // once that is known.
    if let Some(name) = class.filter(|name| name != "all") {
        let recursive = FaultClass::from_name(&name);
        let mesh = MeshFaultClass::from_name(&name);
        if recursive.is_none() && mesh.is_none() {
            return Err(format!("unknown fault class {name:?}\n{}", usage()));
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
        ComponentFamily::NAME => go(
            &ComponentFamily {
                workloads: args.workloads.clone(),
                budget: args.budget,
                plant: args.plant,
            },
            args,
            reproducer,
        ),
        FleetFamily::NAME => go(
            &FleetFamily {
                instances: args.instances,
                budget: args.budget,
            },
            args,
            reproducer,
        ),
        RecursiveFamily::NAME => go(
            &RecursiveFamily {
                classes: args.classes.clone(),
            },
            args,
            reproducer,
        ),
        MeshFamily::NAME => go(
            &MeshFamily {
                classes: args.mesh_classes.clone(),
            },
            args,
            reproducer,
        ),
        other => Err(format!("unknown family {other:?}\n{}", usage())),
    }
}

fn go<F: Family>(family: &F, args: &Args, reproducer: Option<&Json>) -> Result<ExitCode, String> {
    // A telemetry export the family cannot produce is refused before
    // anything runs, not after a verdict that would read as success.
    if F::TELEMETRY.is_none() && (args.trace_out.is_some() || args.metrics_out.is_some()) {
        return Err(
            "--trace-out/--metrics-out exports are component-family only \
             (fleet, recursive and mesh reproducers embed their span tails instead)"
                .to_owned(),
        );
    }
    match reproducer {
        Some(doc) => replay::<F>(args, doc),
        None => run(family, args),
    }
}

/// Re-executes `spec` faulted with a telemetry sink attached and writes the
/// requested exports. The run is deterministic, so the files are
/// byte-identical across invocations with the same spec.
fn export_telemetry<F: Family>(spec: &F::Spec, args: &Args) -> Result<(), String> {
    let wanted = args.trace_out.is_some() || args.metrics_out.is_some();
    let Some(traced) = F::TELEMETRY.filter(|_| wanted) else {
        return Ok(());
    };
    let sink = traced(spec);
    let write = |path: &Path, data: &str| -> Result<(), String> {
        std::fs::write(path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("telemetry written: {}", path.display());
        Ok(())
    };
    if let Some(path) = &args.trace_out {
        write(path, &sink.with(|hub| hub.chrome_trace_json()))?;
    }
    if let Some(path) = &args.metrics_out {
        let dump = if path.extension().is_some_and(|e| e == "json") {
            sink.with(|hub| hub.metrics_json())
        } else {
            sink.with(|hub| hub.prometheus_text())
        };
        write(path, &dump)?;
    }
    Ok(())
}

/// Prints one of the reproducer's embedded tails as an indented timeline:
/// the last thing the faulted system did before the oracles fired
/// (`span_tail`), and the request journeys in flight at that point
/// (`journey_tail`).
fn print_tail(doc: &Json, key: &str, label: &str) {
    let tail = match json::tail(doc, key) {
        Ok(tail) => tail,
        Err(e) => {
            eprintln!("warning: unreadable {key}: {e}");
            return;
        }
    };
    if tail.is_empty() {
        return;
    }
    println!(
        "embedded {label} tail ({} span(s), oldest first):",
        tail.len()
    );
    for span in &tail {
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
    print_tail(doc, "span_tail", "span");
    print_tail(doc, "journey_tail", "journey");
    let report = F::execute(&spec).map_err(|e| format!("replay failed: {e}"))?;
    export_telemetry::<F>(&spec, args)?;
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
fn single_plant<F: Family>(family: &F, name: &str, seed: u64) -> Result<ExitCode, String> {
    let plants = family.plants();
    if plants.is_empty() {
        return Err(format!("the {} family has no named plants", F::NAME));
    }
    let plant = plants
        .iter()
        .find(|plant| plant.name == name)
        .ok_or_else(|| format!("unknown plant kind {name:?}\n{}", usage()))?;
    let spec = (plant.spec)(derive_seed(seed, 0), 0);
    let report = F::execute(&spec).map_err(|e| format!("planted campaign failed to run: {e}"))?;
    let slipped = format!("plant {name} slipped past every oracle (harness defect)");
    Ok(verdict::<F>(&report, slipped, |n| {
        format!("plant {name} caught by {n} violation(s)")
    }))
}

fn run<F: Family>(family: &F, args: &Args) -> Result<ExitCode, String> {
    if let Some(name) = &args.plant_kind {
        return single_plant(family, name, args.seed);
    }
    // `--plant` is the battery for a family with named plants: a plant
    // that does not flip its oracle means an oracle is asleep, which is a
    // harness defect (exit 2), not a campaign failure. The component
    // family has none; its `--plant` is a field of the family value and
    // turns the sweep below into one whose every campaign must fail.
    if args.plant && !family.plants().is_empty() {
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
        let file = args.out_dir.join(F::repro_file_name(&outcome.spec));
        std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&file, json))
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        println!("reproducer written: {}", file.display());
    }

    // Telemetry exports instrument one deterministic spec: the first
    // failure's shrunk reproducer when the sweep found one, otherwise the
    // first campaign.
    let export_spec = report
        .failures()
        .find_map(|o| o.shrunk.as_ref())
        .or_else(|| report.outcomes.first().map(|o| &o.spec));
    if let Some(spec) = export_spec {
        export_telemetry::<F>(spec, args)?;
    }
    Ok(exit)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match &args.replay {
        None => dispatch(&args, &args.family, None),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = parse_value(&text)?;
            dispatch(&args, family_of(&doc)?, Some(&doc))
        }
    });
    result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        ExitCode::from(2)
    })
}
