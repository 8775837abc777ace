//! `vampos-mesh`: drive a deterministic service-mesh pipeline from the
//! command line.
//!
//! Boots a MiniHttpd front fleet plus the standard backend registry (a
//! warm replicated auth KV, a pinned durable KV, a single SQL instance) on
//! one shared virtual clock, fans every ingress request across the
//! auth → kv:put → kv:get → sql:insert pipeline, and prints per-stage and
//! end-to-end results. `--config` picks the maintenance scenario the run
//! rides through (the same four the `repro mesh` experiment reports):
//! `fault-free`, `reboot` (a KV replica and a front instance rejuvenate
//! mid-run), `recovery` (the failure detector misfires and reboots a
//! healthy component), or `rolling` (a rolling front wave plus a KV
//! window). `--no-policy` disarms the per-hop recovery policies (single
//! attempt, no backoff, no hedging) for A/B runs against the armed
//! default. `--trace-out` writes a Perfetto-loadable Chrome trace with one
//! process track per instance (mesh pipeline spans included);
//! `--metrics-out` writes the merged metrics. Output is byte-identical for
//! a given argument list — CI diffs two same-seed runs. Flag syntax, exit
//! codes and the export formats are the shared conventions of
//! [`vampos::bench::cli`]; [`USAGE`] lists the flags.

use std::path::PathBuf;
use std::process::ExitCode;

use vampos::bench::cli::{self, Cli, Failure};
use vampos::cluster::{FleetConfig, FleetLoad, Policy};
use vampos::mesh::{Mesh, MeshConfig, MeshPlan, MeshTopology};

struct Args {
    front: usize,
    replicas: usize,
    clients: usize,
    requests: usize,
    seed: u64,
    policy: Policy,
    config: &'static str,
    armed: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

const USAGE: &str = "\
usage: vampos-mesh [--front N] [--replicas R] [--clients C] [--requests K] [--seed S]
                   [--policy round-robin|least-outstanding|recovery-aware]
                   [--config fault-free|reboot|recovery|rolling] [--no-policy]
                   [--trace-out FILE] [--metrics-out FILE]
";

fn parse_args(cli: &mut Cli) -> Result<Args, String> {
    let mut args = Args {
        front: 3,
        replicas: 2,
        clients: 4,
        requests: 32,
        seed: 0x1234_5678,
        policy: Policy::RecoveryAware,
        config: "fault-free",
        armed: true,
        trace_out: None,
        metrics_out: None,
    };
    while let Some(flag) = cli.flag()? {
        match flag {
            "--front" => args.front = cli.population(1)?,
            "--replicas" => args.replicas = cli.population(1)?,
            "--clients" => args.clients = cli.population(0)?,
            "--requests" => args.requests = cli.population(0)?,
            "--seed" => args.seed = cli.value()?,
            "--policy" => args.policy = cli.named(Policy::from_name)?,
            "--config" => args.config = cli.one_of(&MeshPlan::SCENARIOS.map(|(name, _)| name))?,
            "--no-policy" => args.armed = false,
            "--trace-out" => args.trace_out = Some(cli.path()?),
            "--metrics-out" => args.metrics_out = Some(cli.path()?),
            _ => return Err(cli.unknown()),
        }
    }
    cli::request_budget(args.clients, args.requests)?;
    Ok(args)
}

fn run(args: Args) -> Result<ExitCode, Failure> {
    let mut mesh = Mesh::new(MeshConfig {
        front: FleetConfig {
            instances: args.front,
            seed: args.seed,
            telemetry: args.trace_out.is_some() || args.metrics_out.is_some(),
            ..FleetConfig::default()
        },
        topology: MeshTopology::standard(args.replicas, args.armed),
    })?;
    let load = FleetLoad {
        clients: args.clients,
        requests_per_client: args.requests,
        ..FleetLoad::default()
    };
    let span_ns = load.think_time.as_nanos() * args.requests as u64;
    let plan = MeshPlan::scenario(args.config, args.front, span_ns)
        .expect("--config took one of SCENARIOS");
    let report = mesh.run(&load, args.policy, plan)?;

    println!(
        "mesh: {} front instance(s), {} replica(s), {} clients x {} requests, \
         policy {}, config {}, hops {}, seed {:#x}",
        args.front,
        args.replicas,
        args.clients,
        args.requests,
        args.policy.name(),
        args.config,
        if args.armed { "armed" } else { "no-policy" },
        args.seed
    );
    println!("stage            hops      ok     p50 us     p99 us  retries  hedges  cached");
    for stage in &report.stages {
        println!(
            "{:<14} {:>6}  {:>6}  {:>9.2}  {:>9.2}  {:>7}  {:>6}  {:>6}",
            stage.label,
            stage.records.len(),
            stage.records.iter().filter(|r| r.ok).count(),
            stage.p50_us(),
            stage.p99_us(),
            stage.retries(),
            stage.hedges(),
            stage.records.iter().filter(|r| r.cached).count(),
        );
    }
    println!(
        "e2e: {}/{} acked ({:.1}%), p50 {:.2}us, p99 {:.2}us, {} retried, {} hedged",
        report.acked(),
        report.journeys.len(),
        report.success_pct(),
        report.e2e_p50_us(),
        report.e2e_p99_us(),
        report.retries,
        report.hedges,
    );
    println!(
        "front: {}/{} ok, {} component / {} full reboot(s), {} of virtual time",
        report.front.successes(),
        report.front.requests(),
        report.front.component_reboots,
        report.front.full_reboots,
        report.front.duration,
    );

    if let Some(path) = &args.trace_out {
        let trace = mesh
            .fleet()
            .chrome_trace_json()
            .expect("telemetry was enabled for --trace-out");
        cli::write(path, trace, "trace").map_err(Failure::Run)?;
    }
    if let Some(path) = &args.metrics_out {
        let mut metrics = mesh
            .fleet()
            .merged_metrics()
            .expect("telemetry was enabled for --metrics-out");
        cli::write(path, metrics.render_for(path), "metrics").map_err(Failure::Run)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::run("vampos-mesh", USAGE, parse_args, run)
}
