//! `vampos-fleet`: drive a deterministic multi-instance fleet from the
//! command line.
//!
//! Boots N MiniHttpd unikernel instances on one shared virtual clock, runs
//! a client population through the chosen balancing policy while the
//! chosen maintenance plan fires, and prints per-instance and aggregate
//! results. `--shape` picks how clients time requests: the open-loop grid
//! (default), closed-loop clients that think for `--think-us` after each
//! response, a diurnal triangle wave of period `--period-ms`, or bursts of
//! `--burst` requests. `--no-keepalive` closes every connection after its
//! response, siege's default mode, keeping server connection tables
//! bounded by in-flight requests. `--trace-out` writes a
//! Perfetto-loadable Chrome trace with one process track per instance.
//! `--metrics-out` writes the run's metrics merged across every instance
//! hub and the fleet hub. Output is byte-identical for a given argument
//! list. Flag syntax, exit codes and the export formats are the shared
//! conventions of [`vampos::bench::cli`]; [`USAGE`] lists the flags.

use std::path::PathBuf;
use std::process::ExitCode;

use vampos::bench::cli::{self, Cli, Failure};
use vampos::cluster::{ArrivalShape, Fleet, FleetConfig, FleetLoad, FleetPlan, Policy};
use vampos::sim::Nanos;

struct Args {
    instances: usize,
    clients: usize,
    requests: usize,
    seed: u64,
    policy: Policy,
    plan: &'static str,
    shape: &'static str,
    think: Nanos,
    period: Nanos,
    burst: usize,
    keepalive: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

const USAGE: &str = "\
usage: vampos-fleet [--instances N] [--clients C] [--requests R] [--seed S]
                    [--policy round-robin|least-outstanding|recovery-aware]
                    [--plan none|rolling|rolling-full|simultaneous]
                    [--shape open|closed|diurnal|bursty] [--think-us US]
                    [--period-ms MS] [--burst B]
                    [--no-keepalive] [--trace-out FILE] [--metrics-out FILE]
";

fn parse_args(cli: &mut Cli) -> Result<Args, String> {
    let mut args = Args {
        instances: 4,
        clients: 16,
        requests: 100,
        seed: 0x1234_5678,
        policy: Policy::RecoveryAware,
        plan: "rolling",
        shape: "open",
        think: Nanos::from_millis(4),
        period: Nanos::from_millis(256),
        burst: 8,
        keepalive: true,
        trace_out: None,
        metrics_out: None,
    };
    while let Some(flag) = cli.flag()? {
        match flag {
            "--instances" => args.instances = cli.population(1)?,
            "--clients" => args.clients = cli.population(0)?,
            "--requests" => args.requests = cli.population(0)?,
            "--seed" => args.seed = cli.value()?,
            "--policy" => args.policy = cli.named(Policy::from_name)?,
            "--plan" => args.plan = cli.one_of(&FleetPlan::NAMES)?,
            "--shape" => args.shape = cli.one_of(&["open", "closed", "diurnal", "bursty"])?,
            "--think-us" => args.think = cli.duration(Nanos::MICRO)?,
            "--period-ms" => args.period = cli.duration(Nanos::MILLI)?,
            "--burst" => args.burst = cli.population(1)?,
            "--no-keepalive" => args.keepalive = false,
            "--trace-out" => args.trace_out = Some(cli.path()?),
            "--metrics-out" => args.metrics_out = Some(cli.path()?),
            _ => return Err(cli.unknown()),
        }
    }
    cli::request_budget(args.clients, args.requests)?;
    Ok(args)
}

fn run(args: Args) -> Result<ExitCode, Failure> {
    let config = FleetConfig {
        instances: args.instances,
        seed: args.seed,
        telemetry: args.trace_out.is_some() || args.metrics_out.is_some(),
        ..FleetConfig::default()
    };
    let shape = match args.shape {
        "closed" => ArrivalShape::ClosedLoop,
        "diurnal" => ArrivalShape::Diurnal {
            period: args.period,
        },
        "bursty" => ArrivalShape::Bursty { burst: args.burst },
        _ => ArrivalShape::OpenLoop,
    };
    let load = FleetLoad {
        clients: args.clients,
        requests_per_client: args.requests,
        think_time: args.think,
        shape,
        keepalive: args.keepalive,
        ..FleetLoad::default()
    };
    let mut fleet = Fleet::new(config)?;
    let plan = FleetPlan::named(args.plan, args.instances).expect("--plan took one of NAMES");
    let report = fleet.run(&load, args.policy, plan)?;

    println!(
        "fleet: {} instance(s), {} clients x {} requests ({} arrivals, think {}), \
         policy {}, plan {}, seed {:#x}",
        args.instances,
        args.clients,
        args.requests,
        shape.name(),
        args.think,
        args.policy.name(),
        args.plan,
        args.seed
    );
    println!("inst      ok    fail  reconnects");
    for (i, inst) in report.per_instance.iter().enumerate() {
        println!(
            "{i:>4}  {:>6}  {:>6}  {:>10}",
            inst.successes(),
            inst.failures(),
            inst.reconnects
        );
    }
    println!(
        "total: {}/{} ok ({:.1}%), p50 {:.2}us, p99 {:.2}us, {} retried, {} redirected, \
         {} component / {} full reboot(s), {} of virtual time",
        report.successes(),
        report.requests(),
        report.success_pct(),
        report.p50_us(),
        report.p99_us(),
        report.retried,
        report.redirects,
        report.component_reboots,
        report.full_reboots,
        report.duration
    );

    if let Some(path) = &args.trace_out {
        let trace = fleet
            .chrome_trace_json()
            .expect("telemetry was enabled for --trace-out");
        cli::write(path, trace, "trace").map_err(Failure::Run)?;
    }
    if let Some(path) = &args.metrics_out {
        let mut metrics = fleet
            .merged_metrics()
            .expect("telemetry was enabled for --metrics-out");
        cli::write(path, metrics.render_for(path), "metrics").map_err(Failure::Run)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::run("vampos-fleet", USAGE, parse_args, run)
}
