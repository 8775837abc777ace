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
//! Four campaign families share the harness:
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

use vampos::chaos::json::parse_value;
use vampos::chaos::{
    execute_spec, from_json, journey_tail_from_json, mesh_from_json, recursive_from_json,
    run_fleet_campaign, run_fleet_sweep, run_mesh_plants, run_mesh_sweep, run_recursive_plants,
    run_recursive_sweep, run_sweep, run_with_sink, span_tail_from_json, CampaignSpec,
    MeshSweepConfig, RecursiveSweepConfig, SweepConfig, TelemetrySink, WorkloadKind,
};
use vampos::cluster::{run_recursive_campaign, FaultClass};
use vampos::mesh::{generate_mesh_spec, run_mesh_campaign, MeshFaultClass, MeshPlantKind};
use vampos::sim::derive_seed;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Component,
    Fleet,
    Recursive,
    Mesh,
}

struct Args {
    family: Family,
    sweep: SweepConfig,
    classes: Vec<FaultClass>,
    mesh_classes: Vec<MeshFaultClass>,
    class_raw: Option<String>,
    plant_kind: Option<MeshPlantKind>,
    instances: usize,
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
     --plant runs the oracle self-test: component/fleet plant a state divergence\n\
     every campaign must catch; recursive and mesh run their three-plant battery\n\
     (each plant must flip exactly its oracle; a sleeping oracle exits 2).\n\
     --plant-kind (mesh only: wrong-value, acked-loss, retry-storm) runs a single\n\
     planted campaign and exits 1 iff its oracle caught the plant — wired as\n\
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
        family: Family::Component,
        sweep: SweepConfig::default(),
        classes: FaultClass::ALL.to_vec(),
        mesh_classes: MeshFaultClass::ALL.to_vec(),
        class_raw: None,
        plant_kind: None,
        instances: 4,
        replay: None,
        out_dir: PathBuf::from("."),
        trace_out: None,
        metrics_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--family" => {
                let name = value("--family")?;
                args.family = match name.as_str() {
                    "component" => Family::Component,
                    "fleet" => Family::Fleet,
                    "recursive" => Family::Recursive,
                    "mesh" => Family::Mesh,
                    other => return Err(format!("unknown family {other:?}\n{}", usage())),
                };
            }
            "--seed" => args.sweep.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--campaigns" => {
                args.sweep.campaigns = value("--campaigns")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--budget" => {
                args.sweep.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--workload" => {
                let name = value("--workload")?;
                args.sweep.workloads = if name == "all" {
                    WorkloadKind::ALL.to_vec()
                } else {
                    vec![WorkloadKind::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--class" => {
                // Class names are family-scoped; parse against both the
                // recursive and mesh alphabets and validate the pairing
                // once the family is known (flags arrive in any order).
                let name = value("--class")?;
                if name == "all" {
                    args.classes = FaultClass::ALL.to_vec();
                    args.mesh_classes = MeshFaultClass::ALL.to_vec();
                } else {
                    let recursive = FaultClass::from_name(&name);
                    let mesh = MeshFaultClass::from_name(&name);
                    if recursive.is_none() && mesh.is_none() {
                        return Err(format!("unknown fault class {name:?}\n{}", usage()));
                    }
                    if let Some(class) = recursive {
                        args.classes = vec![class];
                    }
                    if let Some(class) = mesh {
                        args.mesh_classes = vec![class];
                    }
                }
                args.class_raw = Some(name);
            }
            "--instances" => {
                args.instances = value("--instances")?.parse().map_err(|e| format!("{e}"))?;
                if args.instances == 0 {
                    return Err("--instances must be at least 1".to_owned());
                }
            }
            "--plant" => args.sweep.plant = true,
            "--plant-kind" => {
                let name = value("--plant-kind")?;
                args.plant_kind = Some(
                    MeshPlantKind::from_name(&name)
                        .ok_or_else(|| format!("unknown plant kind {name:?}\n{}", usage()))?,
                );
            }
            "--sequential" => args.sweep.sequential = true,
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.family != Family::Component
        && (args.trace_out.is_some() || args.metrics_out.is_some())
        && args.replay.is_none()
    {
        return Err(
            "--trace-out/--metrics-out sweep exports are component-family only \
             (recursive and mesh reproducers embed their span tail instead)"
                .to_owned(),
        );
    }
    if let Some(name) = args.class_raw.as_deref().filter(|n| *n != "all") {
        let known = match args.family {
            Family::Recursive => FaultClass::from_name(name).is_some(),
            Family::Mesh => MeshFaultClass::from_name(name).is_some(),
            Family::Component | Family::Fleet => true,
        };
        if !known {
            return Err(format!(
                "fault class {name:?} does not belong to the selected family"
            ));
        }
    }
    if args.plant_kind.is_some() && args.family != Family::Mesh {
        return Err("--plant-kind is mesh-family only".to_owned());
    }
    Ok(args)
}

/// Re-executes `spec` faulted with a telemetry sink attached and writes the
/// requested exports. The run is deterministic, so the files are
/// byte-identical across invocations with the same spec.
fn export_telemetry(
    spec: &CampaignSpec,
    trace_out: Option<&Path>,
    metrics_out: Option<&Path>,
) -> Result<(), String> {
    if trace_out.is_none() && metrics_out.is_none() {
        return Ok(());
    }
    let sink = TelemetrySink::default();
    run_with_sink(spec, true, Some(&sink));
    let write = |path: &Path, data: &str| -> Result<(), String> {
        std::fs::write(path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("telemetry written: {}", path.display());
        Ok(())
    };
    if let Some(path) = trace_out {
        write(path, &sink.with(|hub| hub.chrome_trace_json()))?;
    }
    if let Some(path) = metrics_out {
        let dump = if path.extension().is_some_and(|e| e == "json") {
            sink.with(|hub| hub.metrics_json())
        } else {
            sink.with(|hub| hub.prometheus_text())
        };
        write(path, &dump)?;
    }
    Ok(())
}

/// Prints the reproducer's embedded span tail as an indented timeline —
/// the last thing the faulted system did before the oracles fired.
fn print_span_tail(text: &str) {
    let tail = match span_tail_from_json(text) {
        Ok(tail) => tail,
        Err(e) => {
            eprintln!("warning: unreadable span_tail: {e}");
            return;
        }
    };
    if tail.is_empty() {
        return;
    }
    println!("embedded span tail ({} span(s), oldest first):", tail.len());
    print_tail_entries(&tail);
}

/// Prints the reproducer's embedded journey tail — the request journeys in
/// flight when the campaign failed, showing which traffic the broken
/// recovery plane delayed or killed.
fn print_journey_tail(text: &str) {
    let tail = match journey_tail_from_json(text) {
        Ok(tail) => tail,
        Err(e) => {
            eprintln!("warning: unreadable journey_tail: {e}");
            return;
        }
    };
    if tail.is_empty() {
        return;
    }
    println!(
        "embedded journey tail ({} span(s), oldest first):",
        tail.len()
    );
    print_tail_entries(&tail);
}

fn print_tail_entries(tail: &[vampos::chaos::SpanDump]) {
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

fn replay(args: &Args, path: &PathBuf) -> Result<bool, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    // The family discriminator picks the replay engine; documents without
    // one are component-family reproducers from before the field existed.
    let doc = parse_value(&text)?;
    let family = doc.get_opt("family").and_then(|f| f.as_str().ok());
    if family == Some("mesh") {
        let spec = mesh_from_json(&text)?;
        println!(
            "replaying mesh {} campaign #{} (seed {:#018x}, {} client(s) x {} request(s), plant {})",
            spec.class.name(),
            spec.campaign,
            spec.seed,
            spec.clients,
            spec.requests_per_client,
            spec.plant.map_or("none", |p| p.name()),
        );
        print_span_tail(&text);
        print_journey_tail(&text);
        let report = run_mesh_campaign(&spec).map_err(|e| format!("replay failed: {e}"))?;
        return if report.violations.is_empty() {
            println!("all three oracles silent: the reproducer no longer fails");
            Ok(true)
        } else {
            for v in &report.violations {
                println!("  {v:?}");
            }
            println!("{} violation(s) reproduced", report.violations.len());
            Ok(false)
        };
    }
    if family == Some("recursive") {
        let spec = recursive_from_json(&text)?;
        println!(
            "replaying recursive {} campaign #{} (seed {:#018x}, target {}, plant {})",
            spec.class.name(),
            spec.campaign,
            spec.seed,
            spec.target,
            spec.plant.name(),
        );
        print_span_tail(&text);
        print_journey_tail(&text);
        let report = run_recursive_campaign(&spec).map_err(|e| format!("replay failed: {e}"))?;
        return if report.violations.is_empty() {
            println!("all three oracles silent: the reproducer no longer fails");
            Ok(true)
        } else {
            for v in &report.violations {
                println!("  {v:?}");
            }
            println!("{} violation(s) reproduced", report.violations.len());
            Ok(false)
        };
    }
    let spec = from_json(&text)?;
    println!(
        "replaying {} campaign #{} (seed {:#018x}, {} event(s), {} op(s))",
        spec.workload.name(),
        spec.campaign,
        spec.seed,
        spec.events.len(),
        spec.ops,
    );
    print_span_tail(&text);
    let violations = execute_spec(&spec);
    export_telemetry(
        &spec,
        args.trace_out.as_deref(),
        args.metrics_out.as_deref(),
    )?;
    if violations.is_empty() {
        println!("all four oracles silent: the reproducer no longer fails");
        Ok(true)
    } else {
        for v in &violations {
            println!("  {}: {}", v.kind.name(), v.detail);
        }
        println!("{} violation(s) reproduced", violations.len());
        Ok(false)
    }
}

fn write_reproducer(out_dir: &Path, file_name: &str, json: &str) -> Result<(), String> {
    let file = out_dir.join(file_name);
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&file, json))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("reproducer written: {}", file.display());
    Ok(())
}

/// The recursive family's `--plant` mode: the three-plant battery. Every
/// plant must flip exactly the oracle it targets — a plant that does not
/// fire means an oracle is asleep, which is a harness defect (exit 2),
/// not a campaign failure.
fn run_recursive_plant_battery(seed: u64) -> ExitCode {
    let checks = match run_recursive_plants(seed) {
        Ok(checks) => checks,
        Err(e) => {
            eprintln!("plant battery failed to run: {e}");
            return ExitCode::from(2);
        }
    };
    let mut exit = ExitCode::SUCCESS;
    for check in &checks {
        println!(
            "{} plant {}: {}",
            if check.ok { "OK  " } else { "FAIL" },
            check.plant.name(),
            check.detail,
        );
        if !check.ok {
            exit = ExitCode::from(2);
        }
    }
    println!(
        "{}/{} plants flipped exactly their oracle",
        checks.iter().filter(|c| c.ok).count(),
        checks.len(),
    );
    exit
}

fn run_recursive_family(args: &Args) -> ExitCode {
    if args.sweep.plant {
        return run_recursive_plant_battery(args.sweep.seed);
    }
    let cfg = RecursiveSweepConfig {
        seed: args.sweep.seed,
        campaigns: args.sweep.campaigns,
        classes: args.classes.clone(),
        sequential: args.sweep.sequential,
    };
    let report = match run_recursive_sweep(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    let mut exit = ExitCode::SUCCESS;
    for outcome in report.failures() {
        exit = ExitCode::from(1);
        let Some(json) = outcome.reproducer_json() else {
            continue;
        };
        let name = format!(
            "chaos-recursive-{}-{}.json",
            outcome.report.spec.class.name(),
            outcome.report.spec.campaign,
        );
        if let Err(e) = write_reproducer(&args.out_dir, &name, &json) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    exit
}

/// The mesh family's `--plant` mode: the three-plant battery, same exit
/// discipline as the recursive battery (a sleeping oracle exits 2).
fn run_mesh_plant_battery(seed: u64) -> ExitCode {
    let checks = match run_mesh_plants(seed) {
        Ok(checks) => checks,
        Err(e) => {
            eprintln!("plant battery failed to run: {e}");
            return ExitCode::from(2);
        }
    };
    let mut exit = ExitCode::SUCCESS;
    for check in &checks {
        println!(
            "{} plant {}: {}",
            if check.ok { "OK  " } else { "FAIL" },
            check.plant.name(),
            check.detail,
        );
        if !check.ok {
            exit = ExitCode::from(2);
        }
    }
    println!(
        "{}/{} plants flipped exactly their oracle",
        checks.iter().filter(|c| c.ok).count(),
        checks.len(),
    );
    exit
}

/// The mesh family's `--plant-kind` mode: one planted campaign, exit 1 iff
/// at least one oracle caught it. CI runs these as `!`-negated steps, so a
/// sleeping oracle (exit 0) fails the build.
fn run_mesh_single_plant(seed: u64, kind: MeshPlantKind) -> ExitCode {
    let spec = generate_mesh_spec(
        derive_seed(seed, 0),
        0,
        MeshFaultClass::KvRejuvenate,
        Some(kind),
    );
    match run_mesh_campaign(&spec) {
        Ok(report) if report.violations.is_empty() => {
            println!(
                "plant {} slipped past every oracle (harness defect)",
                kind.name()
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for v in &report.violations {
                println!("  {v:?}");
            }
            println!(
                "plant {} caught by {} violation(s)",
                kind.name(),
                report.violations.len()
            );
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("planted campaign failed to run: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_mesh_family(args: &Args) -> ExitCode {
    if let Some(kind) = args.plant_kind {
        return run_mesh_single_plant(args.sweep.seed, kind);
    }
    if args.sweep.plant {
        return run_mesh_plant_battery(args.sweep.seed);
    }
    let cfg = MeshSweepConfig {
        seed: args.sweep.seed,
        campaigns: args.sweep.campaigns,
        classes: args.mesh_classes.clone(),
        sequential: args.sweep.sequential,
    };
    let report = match run_mesh_sweep(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    let mut exit = ExitCode::SUCCESS;
    for outcome in report.failures() {
        exit = ExitCode::from(1);
        let Some(json) = outcome.reproducer_json() else {
            continue;
        };
        let name = format!(
            "chaos-mesh-{}-{}.json",
            outcome.report.spec.class.name(),
            outcome.report.spec.campaign,
        );
        if let Err(e) = write_reproducer(&args.out_dir, &name, &json) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    exit
}

fn run_fleet_family(args: &Args) -> ExitCode {
    if args.sweep.plant {
        // Fleet plant: a deliberate post-run state divergence in campaign 0
        // that the equivalence oracle must catch.
        let mut spec = vampos::chaos::generate_fleet_spec(
            derive_seed(args.sweep.seed, 0),
            0,
            args.instances,
            args.sweep.budget,
        );
        spec.plant = true;
        return match run_fleet_campaign(&spec) {
            Ok(outcome) if outcome.violations.is_empty() => {
                eprintln!("FAIL: the fleet oracles missed a planted divergence");
                ExitCode::from(2)
            }
            Ok(outcome) => {
                println!(
                    "OK   planted divergence caught by {} violation(s)",
                    outcome.violations.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("planted campaign failed to run: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcomes = match run_fleet_sweep(
        args.sweep.seed,
        args.sweep.campaigns,
        args.instances,
        args.sweep.budget,
    ) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = 0usize;
    for outcome in &outcomes {
        if outcome.violations.is_empty() {
            println!(
                "PASS fleet #{} seed={:#018x} faults={} reboots={}",
                outcome.spec.campaign,
                outcome.spec.seed,
                outcome.spec.faults.len(),
                outcome.recovery_reboots,
            );
        } else {
            failed += 1;
            println!(
                "FAIL fleet #{} seed={:#018x} faults={}",
                outcome.spec.campaign,
                outcome.spec.seed,
                outcome.spec.faults.len(),
            );
            for v in &outcome.violations {
                println!("  {v:?}");
            }
        }
    }
    println!(
        "{} campaign(s), {} passed, {} failed",
        outcomes.len(),
        outcomes.len() - failed,
        failed,
    );
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprint!("{msg}");
            eprintln!();
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.replay {
        return match replay(&args, path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }

    match args.family {
        Family::Recursive => return run_recursive_family(&args),
        Family::Mesh => return run_mesh_family(&args),
        Family::Fleet => return run_fleet_family(&args),
        Family::Component => {}
    }

    let report = run_sweep(&args.sweep);
    print!("{}", report.render());

    let mut exit = ExitCode::SUCCESS;
    for outcome in report.failures() {
        exit = ExitCode::from(1);
        let Some(json) = outcome.reproducer_json() else {
            continue;
        };
        let name = format!(
            "chaos-repro-{}-{}.json",
            outcome.spec.workload.name(),
            outcome.spec.campaign,
        );
        if let Err(e) = write_reproducer(&args.out_dir, &name, &json) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }

    // Telemetry exports instrument one deterministic spec: the first
    // failure's shrunk reproducer when the sweep found one, otherwise the
    // first campaign.
    let export_spec = report
        .failures()
        .next()
        .and_then(|o| o.shrunk.clone())
        .or_else(|| report.outcomes.first().map(|o| o.spec.clone()));
    if let Some(spec) = export_spec {
        if let Err(msg) = export_telemetry(
            &spec,
            args.trace_out.as_deref(),
            args.metrics_out.as_deref(),
        ) {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    exit
}
