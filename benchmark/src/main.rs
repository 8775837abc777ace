//! `hostbench`: the host-clock benchmark of the VampOS-RS simulator.
//!
//! ```text
//! hostbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//! ```
//!
//! One invocation runs one workload in this process, on one thread.
//! `--trace 0` runs a discarded warm-up rep and then 5 to 7 timed reps (as
//! many as `--seconds` allows) and prints the end-to-end metrics;
//! `--trace 1` runs a warm-up, then untraced and traced reps in turn, then
//! the layer probes, writes every span to `DIR/<workload>.trace.json` and prints the
//! per-layer metrics computed from that file. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `benchmark/run.sh` builds and calls this; see `benchmark/README.md`.
//! Exit codes: 0 measured, 1 could not measure, 2 usage error.

mod metrics;
mod probes;
mod stats;
mod surface;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{derive_per_layer, is_count, MetricDef, END_TO_END};
use probes::ProbeTotals;
use stats::{median, Spread};
use trace::{Recorder, Trace};
use workloads::{run_rep, Rep, Workload};

/// Timed reps per untraced run: never fewer (a median needs them), never
/// more (the driver's time cap), `--seconds` decides in between.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 7;
/// Untraced + traced rep pairs per traced run.
const MAX_TRACE_PAIRS: u32 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> &'static str {
    "usage: hostbench --workload fleet_steady|fleet_rolling_audit|mesh_rolling|single_recovery\n\
     \x20                [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::FleetSteady,
        seed: 0x1234_5678,
        seconds: 20,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(MetricDef, f64)>,
    /// Human-readable lines printed above the result line.
    notes: Vec<String>,
    /// Extra members of the result file (`"key":value` fragments).
    extra: Vec<String>,
}

/// One full-size rep that ran to the end, or why it did not.
fn attempt(args: &Args, twin: bool, rec: &mut Recorder, failures: &mut Vec<String>) -> Option<Rep> {
    match run_rep(args.workload, args.seed, twin, rec) {
        Ok(rep) => Some(rep),
        Err(e) => {
            failures.push(format!("rep aborted: {e}"));
            None
        }
    }
}

/// Totals `attempted` / `failed` over reps: a rep that failed a check, or
/// did not finish, fails all its ops; reps that disagree on the virtual
/// outcome fail the whole run.
fn tally(workload: Workload, reps: &[Option<Rep>], failures: &mut Vec<String>) -> (u64, u64) {
    let nominal = workloads::nominal_ops(workload);
    let mut attempted = 0;
    let mut failed = 0;
    for rep in reps {
        match rep {
            Some(rep) => {
                attempted += rep.ops;
                if !rep.failures.is_empty() {
                    failed += rep.ops;
                    failures.extend(rep.failures.iter().cloned());
                }
            }
            None => {
                attempted += nominal;
                failed += nominal;
            }
        }
    }
    let mut done = reps.iter().flatten();
    if let Some(first) = done.next() {
        let virt = |r: &Rep| {
            (
                r.digest,
                r.ok_ops,
                r.virt_p99_us.to_bits(),
                r.virt_span_s.to_bits(),
            )
        };
        if done.any(|r| virt(r) != virt(first)) {
            failures.push("reps of one run disagree on virt_digest".to_owned());
            failed = attempted;
        }
    }
    (attempted, failed)
}

fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let mut rec = Recorder::new(false);
    let mut failures = Vec::new();
    // The warm-up fills caches and the allocator; for `single_recovery` it
    // also runs the fault-free twin. Its timings are discarded, its
    // correctness is not.
    let mut reps = vec![attempt(args, true, &mut rec, &mut failures)];
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while reps.len() <= MIN_REPS || (reps.len() <= MAX_REPS && started.elapsed() < budget) {
        reps.push(attempt(args, false, &mut rec, &mut failures));
    }

    let (attempted, failed) = tally(args.workload, &reps, &mut failures);
    let timed: Vec<&Rep> = reps[1..].iter().flatten().collect();
    let first = *timed.first().ok_or("no timed rep finished")?;
    let rates: Vec<f64> = timed
        .iter()
        .map(|r| r.ops as f64 / (r.timed_ns as f64 / 1e9))
        .collect();
    let rep_seconds: Vec<f64> = timed.iter().map(|r| r.timed_ns as f64 / 1e9).collect();
    let setups: Vec<f64> = reps
        .iter()
        .flatten()
        .map(|r| r.setup_ns as f64 / 1e9)
        .collect();

    let values = [
        median(&rates),
        median(&setups),
        peak_rss_mib()?,
        first.virt_success_pct(),
        first.virt_p99_us,
        first.virt_span_s,
    ];
    let mut notes = vec![
        format!(
            "reps: 1 warm-up + {} timed, {} {}s each, {} virtual latency samples",
            timed.len(),
            first.ops,
            args.workload.op(),
            first.virt_samples
        ),
        format!("virt_digest {:016x}", first.digest),
        format!(
            "failed_ops_ratio {} ({failed} of {attempted} ops)",
            failed as f64 / attempted as f64
        ),
    ];
    let mut extra = vec![
        format!("\"reps\":{}", timed.len()),
        format!("\"virt_digest\":\"{:016x}\"", first.digest),
        format!("\"virt_samples\":{}", first.virt_samples),
    ];
    for (name, samples) in [
        ("sim_ops_per_s", &rates),
        ("rep_timed_s", &rep_seconds),
        ("setup_s", &setups),
    ] {
        let s = Spread::of(samples);
        notes.push(format!(
            "{name} over reps: n={} min={} q1={} median={} q3={} max={}",
            s.n, s.min, s.q1, s.median, s.q3, s.max
        ));
        let values: Vec<String> = samples.iter().map(f64::to_string).collect();
        extra.push(format!(
            "\"{name}_reps\":{{\"n\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{},\"values\":[{}]}}",
            s.n,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            values.join(",")
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        failures,
        metrics: END_TO_END.into_iter().zip(values).collect(),
        notes,
        extra,
    })
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut rec = Recorder::new(false);
    let mut failures = Vec::new();
    // A discarded warm-up, as in the untraced run, so that both sides of
    // `trace.overhead_ratio` are steady-state reps.
    let mut reps = vec![attempt(args, false, &mut rec, &mut failures)];
    rec.set_tracing(true);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    for pair in 0..MAX_TRACE_PAIRS {
        if pair > 0 && started.elapsed() * 2 > budget {
            break;
        }
        // Reps speed up as a process ages; swapping the order every pair
        // keeps that trend out of `trace.overhead_ratio`.
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            rec.set_rep(reps.len() as u32);
            if traced {
                reps.push(attempt(args, false, &mut rec, &mut failures));
            } else {
                // Only the enclosing span is stored, so the file holds
                // both sides of the ratio.
                let open = rec.enter("rep.untraced");
                rec.set_tracing(false);
                reps.push(attempt(args, false, &mut rec, &mut failures));
                rec.set_tracing(true);
                rec.exit(open, 1);
            }
        }
    }
    let (attempted, failed) = tally(args.workload, &reps, &mut failures);
    let reboots = reps
        .iter()
        .flatten()
        .next()
        .ok_or("no traced rep finished")?
        .component_reboots;
    rec.count("rep.component_reboots", reboots);

    rec.set_rep(0);
    let mut totals = ProbeTotals {
        attempted,
        failed,
        failures,
    };
    probes::run_scenarios(args.workload, args.seed, &mut rec, &mut totals)?;
    let issued = rec
        .counted("steady.issued")
        .ok_or("the steady fleet scenario recorded no issued count")?;
    probes::run_layer_probes(args.seed, issued, &mut rec, &mut totals)?;

    // Spans leave memory only now; the table is computed from the file.
    let path = args
        .out
        .join(format!("{}.trace.json", args.workload.name()));
    let written = rec.into_trace(args.workload.name(), args.seed);
    std::fs::write(&path, written.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let trace = Trace::from_json(&text)?;
    let layers = derive_per_layer(&trace)?;

    let self_ns = trace.self_times_ns();
    let rep_self: Vec<f64> = trace
        .spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "rep")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    let mut notes = vec![
        format!(
            "trace: {} spans, {} counts in {}",
            trace.spans.len(),
            trace.counts.len(),
            path.display()
        ),
        format!(
            "rep self time (checks, digests, drops outside any layer span): median {} ms",
            median(&rep_self)
        ),
    ];
    for layer in &layers {
        if layer.spans > 0 {
            notes.push(format!(
                "{}: median over {} spans",
                layer.def.name, layer.spans
            ));
        } else if is_count(layer.def.name) {
            notes.push(format!("{}: a count, exact for the seed", layer.def.name));
        }
    }
    Ok(Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        failures: totals.failures,
        metrics: layers.into_iter().map(|l| (l.def, l.value)).collect(),
        notes,
        extra: vec![format!("\"trace_file\":\"{}\"", path.display())],
    })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn result_line(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (n, (def, value)) in outcome.metrics.iter().enumerate() {
        let sep = if n == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    line.push_str("}}");
    line
}

fn report(args: &Args, outcome: &Outcome) -> Result<(), String> {
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for failure in &outcome.failures {
        println!("  FAILED CHECK: {failure}");
    }
    for (def, value) in &outcome.metrics {
        println!(
            "{} {value} {} ({} is better)",
            def.name,
            def.unit,
            def.better.name()
        );
    }
    let line = result_line(outcome);
    let kind = if args.trace { "layers" } else { "result" };
    let path = args
        .out
        .join(format!("{}.{kind}.json", args.workload.name()));
    let mut doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},",
        args.workload.name(),
        args.seed
    );
    for member in &outcome.extra {
        doc.push_str(member);
        doc.push(',');
    }
    let _ = writeln!(doc, "\"result\":{line}}}");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let outcome = if args.trace {
        run_traced(args)?
    } else {
        run_untraced(args)?
    };
    if outcome.metrics.iter().any(|(_, v)| !v.is_finite()) {
        return Err("a metric is not a finite number".to_owned());
    }
    report(args, &outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("hostbench: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hostbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
