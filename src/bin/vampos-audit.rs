//! `vampos-audit`: SLO audit gate over the recovery-forensics pipeline.
//!
//! ```text
//! vampos-audit fleet     --baseline FILE [--seed S] [--report FILE]
//!                        [--plant phase-budget|p99] [--write-baseline FILE]
//! vampos-audit recursive --baseline FILE [--seed S] [--report FILE]
//!                        [--plant phase-budget|p99] [--write-baseline FILE]
//! ```
//!
//! Runs a pinned forensic scenario on the virtual clock, reduces its span
//! store with [`vampos::telemetry::analyze`], and diffs the observed
//! numbers against a committed JSON baseline of SLO budgets:
//!
//! * per-recovery phase budgets (`failure_detect` / `checkpoint_restore` /
//!   `log_replay` / `resume`, worst single recovery),
//! * a journey p99 latency ceiling,
//! * acknowledged loss (must stay 0),
//! * telemetry evictions (must stay 0 — the span store must hold the run),
//! * exact rung-attribution counts per escalation rung.
//!
//! `fleet` drives the `repro fleet` scenario at N=16 (32 clients x 120
//! requests, rolling rejuvenation, recovery-aware balancing); `recursive`
//! replays the known-converging stalled-9P recursive chaos campaign, which
//! must also report zero oracle violations. Everything runs on the virtual
//! clock, so two same-seed invocations are byte-identical — stdout, the
//! `--report` analysis JSON, and `--write-baseline` output included.
//!
//! `--plant` deterministically inflates the named observation so CI can
//! prove the gate actually fails closed. `--write-baseline` records the
//! observed numbers with 1.5x headroom on budgets/ceilings (rung counts
//! are exact) instead of auditing. Exit codes: 0 pass, 1 regression or
//! run error, 2 usage error — which includes a `--baseline` that is
//! unreadable, malformed or missing a key: it is validated before the
//! scenario runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vampos::bench::cli::{self, Cli, Failure};
use vampos::chaos::json::{parse_value, Json};
use vampos::cluster::{
    generate_recursive_spec, run_recursive_campaign_traced, FaultClass, Fleet, FleetConfig,
    FleetLoad, FleetPlan, PlantKind, Policy,
};
use vampos::sim::derive_seed;
use vampos::telemetry::analyze;
use vampos::telemetry::analyze::{Analysis, PHASES};

/// Which observation `--plant` inflates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plant {
    None,
    PhaseBudget,
    P99,
}

struct Args {
    scenario: &'static str,
    seed: u64,
    /// The budgets to audit against; absent under `--write-baseline`.
    baseline: Option<Baseline>,
    report: Option<PathBuf>,
    plant: Plant,
    write_baseline: Option<PathBuf>,
}

const USAGE: &str = "\
usage: vampos-audit <fleet|recursive> [--baseline FILE] [--seed S]
                    [--report FILE] [--plant phase-budget|p99]
                    [--write-baseline FILE]
";

fn parse_args(cli: &mut Cli) -> Result<Args, String> {
    let scenario = match cli.flag()? {
        Some("fleet") => "fleet",
        Some("recursive") => "recursive",
        Some(other) => return Err(format!("unknown scenario {other:?}")),
        None => return Err("a scenario (fleet or recursive) is required".to_owned()),
    };
    let mut args = Args {
        scenario,
        seed: 42,
        baseline: None,
        report: None,
        plant: Plant::None,
        write_baseline: None,
    };
    let mut baseline = None;
    while let Some(flag) = cli.flag()? {
        match flag {
            "--seed" => args.seed = cli.value()?,
            "--baseline" => baseline = Some(cli.path()?),
            "--report" => args.report = Some(cli.path()?),
            "--plant" => {
                args.plant = cli.named(|name| match name {
                    "phase-budget" => Some(Plant::PhaseBudget),
                    "p99" => Some(Plant::P99),
                    _ => None,
                })?;
            }
            "--write-baseline" => args.write_baseline = Some(cli.path()?),
            _ => return Err(cli.unknown()),
        }
    }
    // The baseline is input like the flags are: read it before the scenario
    // runs, and call one that cannot be audited against a usage error.
    if args.write_baseline.is_none() {
        let path = baseline.ok_or("either --baseline or --write-baseline is required")?;
        args.baseline = Some(Baseline::load(&path)?);
    }
    Ok(args)
}

/// Everything one audited run observes.
struct Observed {
    analysis: Analysis,
    /// Worst single-recovery time per phase, indexed like [`PHASES`].
    phase_max_ns: [u64; 4],
    /// Journey p99 latency in virtual nanoseconds.
    p99_ns: u64,
    /// Responses acked with content the recovered state contradicts.
    acked_loss: u64,
    /// Spans/instants dropped by any bounded telemetry hub.
    evicted: u64,
    /// Oracle violations (recursive scenario only; always 0 for fleet).
    violations: usize,
}

/// What a traced fleet recorded of the run it just made: its span store
/// analysed and its hubs' evictions. The oracle fields are the caller's.
fn observe(fleet: &Fleet) -> Observed {
    let processes = fleet.span_processes().expect("telemetry was enabled");
    let metrics = fleet.merged_metrics().expect("telemetry was enabled");
    let analysis = analyze(&processes);
    Observed {
        phase_max_ns: analysis.phase_max_ns(),
        p99_ns: analysis.journeys.latency.p99,
        acked_loss: 0,
        evicted: metrics
            .counter_value("vampos_telemetry_evicted_total", &[])
            .unwrap_or(0),
        violations: 0,
        analysis,
    }
}

fn run_fleet(seed: u64) -> Result<Observed, String> {
    let instances = 16;
    let config = FleetConfig {
        instances,
        seed,
        telemetry: true,
        ..FleetConfig::default()
    };
    let load = FleetLoad {
        clients: 32,
        requests_per_client: 120,
        ..FleetLoad::default()
    };
    let plan = FleetPlan::named("rolling", instances).expect("a listed plan");
    let mut fleet = Fleet::new(config).map_err(|e| format!("fleet boot failed: {e}"))?;
    fleet
        .run(&load, Policy::RecoveryAware, plan)
        .map_err(|e| format!("fleet run failed: {e}"))?;
    Ok(observe(&fleet))
}

fn run_recursive(seed: u64) -> Result<Observed, String> {
    // The known-converging deepest ladder walk: a stalled 9P server that
    // must escalate component -> instance -> fleet failover.
    let spec = generate_recursive_spec(
        derive_seed(seed, 1),
        1,
        FaultClass::NinepStall,
        PlantKind::None,
    );
    let (report, fleet) = run_recursive_campaign_traced(&spec)
        .map_err(|e| format!("recursive campaign failed: {e}"))?;
    let mut observed = observe(&fleet);
    observed.acked_loss = report.acked_bad;
    observed.violations = report.violations.len();
    Ok(observed)
}

/// Inflates the planted observation far past any committed budget while
/// staying a pure function of the real run, so the planted failure is
/// itself reproducible.
fn apply_plant(obs: &mut Observed, plant: Plant) {
    match plant {
        Plant::None => {}
        Plant::PhaseBudget => {
            for ns in &mut obs.phase_max_ns {
                *ns = *ns * 1_000 + 1_000_000;
            }
        }
        Plant::P99 => obs.p99_ns = obs.p99_ns * 1_000 + 1_000_000,
    }
}

fn render_baseline(scenario: &str, seed: u64, obs: &Observed) -> String {
    // Budgets and ceilings get 1.5x headroom over the observed run so
    // benign jitter from future refactors does not trip the gate; rung
    // counts are the attribution oracle and stay exact.
    let headroom = |ns: u64| ns + ns / 2;
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"kind\": \"{scenario}\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"phase_budget_ns\": {\n");
    for (n, (name, ns)) in PHASES.iter().zip(obs.phase_max_ns).enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            name,
            headroom(ns),
            if n + 1 < PHASES.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"journey_p99_ceiling_ns\": {},\n",
        headroom(obs.p99_ns)
    ));
    out.push_str("  \"acked_loss_max\": 0,\n");
    out.push_str("  \"telemetry_evicted_max\": 0,\n");
    out.push_str("  \"rung_counts\": {\n");
    for (n, r) in obs.analysis.rungs.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            r.rung,
            r.count,
            if n + 1 < obs.analysis.rungs.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// One audit check: named comparison, pass/fail, printed verdict line.
fn check(failures: &mut u64, name: &str, pass: bool, detail: String) {
    if pass {
        println!("  PASS {name}: {detail}");
    } else {
        *failures += 1;
        println!("  FAIL {name}: {detail}");
    }
}

/// The SLO budgets of a baseline file, every key present and well-typed.
struct Baseline {
    /// Where it was read from, for the verdict header.
    path: PathBuf,
    /// Per-phase budget, indexed like [`PHASES`].
    phase_budget_ns: [u64; 4],
    journey_p99_ceiling_ns: u64,
    acked_loss_max: u64,
    telemetry_evicted_max: u64,
    rung_counts: BTreeMap<String, u64>,
}

impl Baseline {
    /// Reads and validates the baseline at `path`. A baseline that cannot
    /// be audited against is a usage error, found before the scenario runs.
    fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::parse(path, &text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(path: &Path, text: &str) -> Result<Baseline, String> {
        let json = parse_value(text)?;
        let budgets = json.get("phase_budget_ns")?;
        let mut phase_budget_ns = [0; 4];
        for (budget, name) in phase_budget_ns.iter_mut().zip(PHASES) {
            *budget = budgets.get(name)?.as_u64()?;
        }
        let Json::Obj(rungs) = json.get("rung_counts")? else {
            return Err("rung_counts must be an object".to_owned());
        };
        Ok(Baseline {
            path: path.to_owned(),
            phase_budget_ns,
            journey_p99_ceiling_ns: json.get("journey_p99_ceiling_ns")?.as_u64()?,
            acked_loss_max: json.get("acked_loss_max")?.as_u64()?,
            telemetry_evicted_max: json.get("telemetry_evicted_max")?.as_u64()?,
            rung_counts: rungs
                .iter()
                .map(|(rung, count)| Ok((rung.clone(), count.as_u64()?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

fn audit(baseline: &Baseline, obs: &Observed) -> u64 {
    let mut failures = 0;
    for ((name, ns), budget) in PHASES
        .iter()
        .zip(obs.phase_max_ns)
        .zip(baseline.phase_budget_ns)
    {
        check(
            &mut failures,
            &format!("phase {name}"),
            ns <= budget,
            format!("max {ns}ns vs budget {budget}ns"),
        );
    }
    let ceiling = baseline.journey_p99_ceiling_ns;
    check(
        &mut failures,
        "journey p99 latency",
        obs.p99_ns <= ceiling,
        format!("{}ns vs ceiling {}ns", obs.p99_ns, ceiling),
    );
    let acked_max = baseline.acked_loss_max;
    check(
        &mut failures,
        "acked loss",
        obs.acked_loss <= acked_max,
        format!("{} vs max {}", obs.acked_loss, acked_max),
    );
    let evicted_max = baseline.telemetry_evicted_max;
    check(
        &mut failures,
        "telemetry evictions",
        obs.evicted <= evicted_max,
        format!("{} vs max {}", obs.evicted, evicted_max),
    );
    check(
        &mut failures,
        "oracle violations",
        obs.violations == 0,
        format!("{} (must be 0)", obs.violations),
    );
    // Rung attribution is exact both ways: a rung in the baseline must
    // fire exactly its recorded count, and a rung the baseline never saw
    // is itself a regression.
    for (rung, &want) in &baseline.rung_counts {
        let got = obs
            .analysis
            .rungs
            .iter()
            .find(|r| r.rung == *rung)
            .map(|r| r.count)
            .unwrap_or(0);
        check(
            &mut failures,
            &format!("rung {rung}"),
            got == want,
            format!("count {got} vs baseline {want}"),
        );
    }
    for r in &obs.analysis.rungs {
        if !baseline.rung_counts.contains_key(&r.rung) {
            check(
                &mut failures,
                &format!("rung {}", r.rung),
                false,
                format!("count {} not in baseline", r.count),
            );
        }
    }
    failures
}

fn run(args: &Args) -> Result<u64, String> {
    let mut obs = match args.scenario {
        "fleet" => run_fleet(args.seed)?,
        _ => run_recursive(args.seed)?,
    };
    println!(
        "vampos-audit {}: seed {:#x}{}",
        args.scenario,
        args.seed,
        match args.plant {
            Plant::None => String::new(),
            Plant::PhaseBudget => ", plant phase-budget (phase times inflated)".to_owned(),
            Plant::P99 => ", plant p99 (journey p99 inflated)".to_owned(),
        }
    );
    apply_plant(&mut obs, args.plant);
    print!("{}", obs.analysis.render());
    if let Some(path) = &args.report {
        cli::write(path, obs.analysis.to_json(), "analysis report")?;
    }
    if let Some(path) = &args.write_baseline {
        let text = render_baseline(args.scenario, args.seed, &obs);
        cli::write(path, text, "baseline")?;
        return Ok(0);
    }
    let baseline = args
        .baseline
        .as_ref()
        .expect("parse_args loads one unless --write-baseline is given");
    println!("== audit vs {} ==", baseline.path.display());
    let failures = audit(baseline, &obs);
    if failures == 0 {
        println!("verdict: PASS");
    } else {
        println!("verdict: FAIL ({failures} regression(s))");
    }
    Ok(failures)
}

fn main() -> ExitCode {
    cli::run("vampos-audit", USAGE, parse_args, |args| match run(&args) {
        Ok(0) => Ok(ExitCode::SUCCESS),
        Ok(_) => Ok(ExitCode::FAILURE),
        Err(msg) => Err(Failure::Run(msg)),
    })
}
