//! `vampos-fleet`: drive a deterministic multi-instance fleet from the
//! command line.
//!
//! ```text
//! vampos-fleet [--instances N] [--clients C] [--requests R] [--seed S]
//!              [--policy round-robin|least-outstanding|recovery-aware]
//!              [--plan none|rolling|rolling-full|simultaneous]
//!              [--shape open|closed|diurnal|bursty] [--think-us US]
//!              [--period-ms MS] [--burst B]
//!              [--no-keepalive] [--trace-out FILE] [--metrics-out FILE]
//! ```
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
//! Perfetto-loadable Chrome trace
//! with one process track per instance. `--metrics-out` writes the run's
//! metrics merged across every instance hub and the fleet hub — Prometheus
//! text exposition, or a JSON dump when the file ends `.json` (same
//! convention as `vampos-chaos`). Output is byte-identical for a
//! given argument list. Exit codes: 0 success, 1 run error, 2 usage error.

use std::process::ExitCode;

use vampos::cluster::{ArrivalShape, Fleet, FleetConfig, FleetLoad, FleetPlan, Policy};
use vampos::sim::Nanos;

/// Rolling schedule matching the `repro fleet` experiment: one instance at
/// a time, spaced wider than the ~48 ms rejuvenation window.
const START: Nanos = Nanos::from_millis(20);
const SPACING: Nanos = Nanos::from_millis(60);
const DRAIN_LEAD: Nanos = Nanos::from_millis(8);

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
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn usage() -> String {
    "usage: vampos-fleet [--instances N] [--clients C] [--requests R] [--seed S]\n\
     \x20                   [--policy round-robin|least-outstanding|recovery-aware]\n\
     \x20                   [--plan none|rolling|rolling-full|simultaneous]\n\
     \x20                   [--shape open|closed|diurnal|bursty] [--think-us US]\n\
     \x20                   [--period-ms MS] [--burst B]\n\
     \x20                   [--no-keepalive] [--trace-out FILE] [--metrics-out FILE]\n"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
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
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--instances" => args.instances = value()?.parse().map_err(|e| format!("{e}"))?,
            "--clients" => args.clients = value()?.parse().map_err(|e| format!("{e}"))?,
            "--requests" => args.requests = value()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("{e}"))?,
            "--policy" => {
                args.policy = match value()? {
                    "round-robin" => Policy::RoundRobin,
                    "least-outstanding" => Policy::LeastOutstanding,
                    "recovery-aware" => Policy::RecoveryAware,
                    other => return Err(format!("unknown policy {other:?}")),
                }
            }
            "--plan" => {
                let v = value()?;
                args.plan = match v {
                    "none" => "none",
                    "rolling" => "rolling",
                    "rolling-full" => "rolling-full",
                    "simultaneous" => "simultaneous",
                    other => return Err(format!("unknown plan {other:?}")),
                }
            }
            "--shape" => {
                let v = value()?;
                args.shape = match v {
                    "open" => "open",
                    "closed" => "closed",
                    "diurnal" => "diurnal",
                    "bursty" => "bursty",
                    other => return Err(format!("unknown shape {other:?}")),
                }
            }
            "--think-us" => {
                args.think = Nanos::from_micros(value()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--period-ms" => {
                args.period = Nanos::from_millis(value()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--burst" => args.burst = value()?.parse().map_err(|e| format!("{e}"))?,
            "--no-keepalive" => args.keepalive = false,
            "--trace-out" => args.trace_out = Some(value()?.to_owned()),
            "--metrics-out" => args.metrics_out = Some(value()?.to_owned()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.instances == 0 {
        return Err("--instances must be at least 1".to_owned());
    }
    if args.burst == 0 {
        return Err("--burst must be at least 1".to_owned());
    }
    Ok(args)
}

fn plan_for(name: &str, instances: usize) -> FleetPlan {
    match name {
        "rolling" => FleetPlan::rolling_rejuvenation(instances, START, SPACING, DRAIN_LEAD),
        "rolling-full" => FleetPlan::rolling_full_reboot(instances, START, SPACING),
        "simultaneous" => FleetPlan::simultaneous_rejuvenation(instances, START + SPACING),
        _ => FleetPlan::none(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("vampos-fleet: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };

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
    let run = || -> Result<(), vampos::ukernel::OsError> {
        let mut fleet = Fleet::new(config)?;
        let plan = plan_for(args.plan, args.instances);
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
            std::fs::write(path, trace)
                .map_err(|e| vampos::ukernel::OsError::Io(format!("cannot write {path}: {e}")))?;
            println!("trace written: {path}");
        }
        if let Some(path) = &args.metrics_out {
            let mut reg = fleet
                .merged_metrics()
                .expect("telemetry was enabled for --metrics-out");
            let dump = if path.ends_with(".json") {
                reg.to_json()
            } else {
                vampos::telemetry::prometheus::render(&mut reg)
            };
            std::fs::write(path, dump)
                .map_err(|e| vampos::ukernel::OsError::Io(format!("cannot write {path}: {e}")))?;
            println!("metrics written: {path}");
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vampos-fleet: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
