//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [fig5|table3|fig6|fig7|table4|table5|fleet|recursive|mesh|fig8|ablations|all]
//!       [--list] [--quick] [--sequential] [--json[=PATH]]
//!       [--trace-out PATH] [--metrics-out PATH]
//! ```
//!
//! `--list` prints every experiment's name and description and exits.
//!
//! `--quick` scales the workloads down (used by CI); the default sizes
//! follow the paper where tractable. All timings are *virtual* time from
//! the simulation's cost model — compare shapes and ratios with the paper,
//! not absolute numbers.
//!
//! `--trace-out` / `--metrics-out` run a canonical instrumented scenario —
//! a SQLite-shaped system serving file syscalls through an injected 9PFS
//! panic, an administrative reboot, and aging-driven rejuvenation — and
//! write a Perfetto-loadable Chrome trace (`--trace-out`) and Prometheus
//! text exposition, or a JSON dump for `.json` paths (`--metrics-out`).
//! Virtual time makes both exports byte-identical across runs.
//!
//! By default independent experiments render concurrently on worker
//! threads and print in the fixed order above; `--sequential` forces the
//! single-threaded path. The two paths produce byte-identical output —
//! every experiment builds its own deterministic simulation. `--json` runs
//! both paths, verifies that equivalence, writes per-experiment wall-clock
//! timings to `BENCH.json` (or `PATH`), and exits non-zero on mismatch.
//! Exit codes: 0 success, 1 a failed export or mismatch, 2 usage error.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vampos_bench::cli::{self, Cli, Failure};
use vampos_bench::experiments::{
    ablations, fig5, fig6, fig7, fig8, fleet, mesh, recursive, table3, table4, table5,
};
use vampos_bench::format::{bytes, render_table, us};
use vampos_bench::parallel::{parallel_map, worker_count};
use vampos_sim::Nanos;

/// One table/figure: a stable key and a renderer producing its full text
/// (heading included), so sections can run on any thread and still print
/// in the fixed order of this list.
struct Section {
    key: &'static str,
    desc: &'static str,
    render: fn(bool) -> String,
}

const SECTIONS: [Section; 11] = [
    Section {
        key: "fig5",
        desc: "system call execution times across the five configurations",
        render: render_fig5,
    },
    Section {
        key: "table3",
        desc: "log space overheads in system calls, normal vs shrunk",
        render: render_table3,
    },
    Section {
        key: "fig6",
        desc: "component reboot times with replay counts and snapshot sizes",
        render: render_fig6,
    },
    Section {
        key: "fig7",
        desc: "application execution time and memory utilisation",
        render: render_fig7,
    },
    Section {
        key: "table4",
        desc: "throughput across log-shrink-threshold settings",
        render: render_table4,
    },
    Section {
        key: "table5",
        desc: "request successes across rejuvenation, VampOS vs full reboot",
        render: render_table5,
    },
    Section {
        key: "fleet",
        desc: "Table V at cluster scale: routing policies over rolling rejuvenation, N = 16/64/256",
        render: render_fleet,
    },
    Section {
        key: "recursive",
        desc: "recovery-machinery faults: escalation-ladder success rate and rung histogram",
        render: render_recursive,
    },
    Section {
        key: "mesh",
        desc: "service-mesh pipelines: retry/deadline/hedging policies vs bare hops under recovery",
        render: render_mesh,
    },
    Section {
        key: "fig8",
        desc: "Redis GET latency across failure recovery",
        render: render_fig8,
    },
    Section {
        key: "ablations",
        desc: "what MPK isolation, log shrinking and key virtualisation each buy",
        render: render_ablations,
    },
];

const USAGE: &str = "\
usage: repro [fig5|table3|fig6|fig7|table4|table5|fleet|recursive|mesh|fig8|ablations|all]
             [--list] [--quick] [--sequential] [--json[=PATH]]
             [--trace-out PATH] [--metrics-out PATH]
";

#[derive(Default)]
struct Args {
    /// The experiment named, if one was.
    which: Option<String>,
    list: bool,
    quick: bool,
    sequential: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

fn parse_args(cli: &mut Cli) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(arg) = cli.flag()? {
        match arg {
            "--list" => args.list = true,
            "--quick" => args.quick = true,
            "--sequential" => args.sequential = true,
            "--json" => args.json = Some(cli.inline().unwrap_or("BENCH.json").into()),
            "--trace-out" => args.trace_out = Some(cli.path()?),
            "--metrics-out" => args.metrics_out = Some(cli.path()?),
            word if !word.starts_with('-') && args.which.is_none() => {
                args.which = Some(word.to_owned());
            }
            _ => return Err(cli.unknown()),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<ExitCode, Failure> {
    if args.list {
        println!("experiments:");
        for s in &SECTIONS {
            println!("  {:<10} {}", s.key, s.desc);
        }
        println!("  {:<10} every experiment above, in that order", "all");
        return Ok(ExitCode::SUCCESS);
    }
    let which = args.which.as_deref().unwrap_or("all");
    let selected: Vec<&Section> = SECTIONS
        .iter()
        .filter(|s| which == "all" || which == s.key)
        .collect();
    if selected.is_empty() {
        return Err(Failure::Input(format!(
            "unknown experiment {which:?}; expected \
             fig5|table3|fig6|fig7|table4|table5|fleet|recursive|mesh|fig8|ablations|all \
             (see --list)"
        )));
    }
    if args.trace_out.is_some() || args.metrics_out.is_some() {
        export_telemetry(args.trace_out.as_deref(), args.metrics_out.as_deref())
            .map_err(Failure::Run)?;
        // Telemetry export is its own mode: no section was named, don't
        // also run the full evaluation.
        if args.which.is_none() {
            return Ok(ExitCode::SUCCESS);
        }
    }
    if let Some(path) = &args.json {
        let identical = write_bench_json(path, &selected, args.quick).map_err(Failure::Run)?;
        return Ok(if identical {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    for text in render_all(&selected, args.quick, args.sequential) {
        print!("{text}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::run("repro", USAGE, parse_args, run)
}

/// Renders the selected sections, concurrently unless `sequential`, and
/// returns their text in selection order.
fn render_all(selected: &[&Section], quick: bool, sequential: bool) -> Vec<String> {
    if sequential {
        selected.iter().map(|s| (s.render)(quick)).collect()
    } else {
        parallel_map(selected.to_vec(), |s| (s.render)(quick))
    }
}

/// Runs `f` and returns its result with the wall-clock milliseconds it took.
#[expect(
    clippy::disallowed_types,
    reason = "D002: BENCH.json reports host time; no simulated byte is derived from it"
)]
fn wall_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Runs the selected sections both sequentially and in parallel, checks
/// the outputs are byte-identical, and writes per-experiment wall-clock
/// timings — plus the fleet drive-engine comparison — to `path`. Returns
/// whether they were (after an error message per section if not).
fn write_bench_json(path: &Path, selected: &[&Section], quick: bool) -> Result<bool, String> {
    // Warm-up at quick scale: touches every section's code paths so the
    // first timed pass doesn't pay cold-start costs (page faults, lazy
    // allocator arenas) that the second pass then doesn't — the timings
    // below should compare scheduling, not cache temperature.
    for s in selected {
        let _ = (s.render)(true);
    }
    let timed = |sequential: bool| -> (Vec<String>, Vec<f64>, f64) {
        let (each, total): (Vec<(String, f64)>, f64) = wall_ms(|| {
            if sequential {
                selected
                    .iter()
                    .map(|s| wall_ms(|| (s.render)(quick)))
                    .collect()
            } else {
                parallel_map(selected.to_vec(), |s| wall_ms(|| (s.render)(quick)))
            }
        });
        let (texts, times) = each.into_iter().unzip();
        (texts, times, total)
    };

    let (seq_texts, seq_ms, seq_total) = timed(true);
    let (par_texts, par_ms, par_total) = timed(false);
    let identical = seq_texts == par_texts;
    if !identical {
        for (section, (s, p)) in selected.iter().zip(seq_texts.iter().zip(&par_texts)) {
            if s != p {
                eprintln!("output mismatch in {}", section.key);
            }
        }
    }

    let engine = fleet_engine_block(quick);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let host_cores = worker_count(usize::MAX);
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    // On a single-core host the "parallel" pass degenerates to sequential
    // execution plus scheduling overhead, so speedup numbers say nothing
    // about the workload — flag that in the artifact and to the operator.
    let _ = writeln!(json, "  \"parallel_timings_reliable\": {},", host_cores > 1);
    if host_cores == 1 {
        eprintln!(
            "repro: warning: single-core host — parallel timings are not \
             meaningful (parallel_timings_reliable: false)"
        );
    }
    let _ = writeln!(json, "  \"outputs_identical\": {identical},");
    let _ = writeln!(json, "{engine}");
    let _ = writeln!(json, "  \"sequential_total_ms\": {seq_total:.1},");
    let _ = writeln!(json, "  \"parallel_total_ms\": {par_total:.1},");
    let _ = writeln!(
        json,
        "  \"speedup\": {:.2},",
        if par_total > 0.0 {
            seq_total / par_total
        } else {
            1.0
        }
    );
    let _ = writeln!(json, "  \"experiments\": [");
    for (i, section) in selected.iter().enumerate() {
        let comma = if i + 1 < selected.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"sequential_ms\": {:.1}, \"parallel_ms\": {:.1}}}{comma}",
            section.key, seq_ms[i], par_ms[i]
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {}: sequential {seq_total:.0}ms, parallel {par_total:.0}ms \
         on {} worker(s), outputs identical: {identical}",
        path.display(),
        worker_count(usize::MAX)
    );
    Ok(identical)
}

fn heading(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n=== {title} ===");
}

/// Times the fleet sweep for BENCH.json and returns the `"fleet_engine"`
/// JSON fragment (no trailing newline): **sweep_heap_ms** is the
/// wall-clock of the full five-configuration fleet sweep per fleet size,
/// the `repro fleet` workload itself.
fn fleet_engine_block(quick: bool) -> String {
    let (sizes, cpi, sweep_rpc): (&[usize], usize, usize) = if quick {
        (&[4, 16], 2, 200)
    } else {
        (&[16, 64, 256], 4, 1024)
    };
    let sweeps: Vec<(usize, f64)> = sizes
        .iter()
        .map(|&n| (n, wall_ms(|| fleet::run_sized(&[n], cpi, sweep_rpc)).1))
        .collect();

    let mut json = String::new();
    let _ = writeln!(json, "  \"fleet_engine\": {{");
    let _ = writeln!(
        json,
        "    \"sweep\": {{\"clients_per_instance\": {cpi}, \
         \"requests_per_client\": {sweep_rpc}, \"configs\": 5}},"
    );
    let _ = writeln!(json, "    \"sweep_heap_ms\": {{");
    for (i, (n, ms)) in sweeps.iter().enumerate() {
        let comma = if i + 1 < sweeps.len() { "," } else { "" };
        let _ = writeln!(json, "      \"n{n}\": {ms:.1}{comma}");
    }
    let _ = writeln!(json, "    }}");
    let _ = write!(json, "  }},");
    json
}

/// Runs the canonical instrumented scenario and writes the requested
/// telemetry exports. The scenario exercises every span kind the collector
/// knows: cross-component calls and syscalls from file I/O, a full
/// fault-triggered recovery (detect → checkpoint-restore → replay → resume)
/// from an injected 9PFS panic, an administrative VFS reboot, and
/// aging-driven rejuvenation.
fn export_telemetry(trace_out: Option<&Path>, metrics_out: Option<&Path>) -> Result<(), String> {
    use vampos_core::{ComponentSet, InjectedFault, Mode, System, TelemetrySink};
    use vampos_oslib::vfs::OpenFlags;

    let sink = TelemetrySink::default();
    let scenario = || -> Result<(), vampos_ukernel::OsError> {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::sqlite())
            .seed(42)
            .telemetry(sink.clone())
            .build()?;
        let fd = sys
            .os()
            .open("/telemetry.db", OpenFlags::RDWR | OpenFlags::CREAT)?;
        for i in 0..16u8 {
            sys.os().write(fd, &[i; 32])?;
        }
        sys.os().fsync(fd)?;
        // Fail-stop 9PFS mid-write: the runtime detects the panic, reboots
        // the component, replays its log, and re-executes the call.
        sys.inject_fault(InjectedFault::panic_next("9pfs"));
        sys.os().write(fd, b"post-fault")?;
        // Administrative recovery paths on top of the fault-triggered one.
        sys.reboot_component("vfs")?;
        sys.rejuvenate_aged(1)?;
        sys.os().fsync(fd)?;
        sys.os().close(fd)?;
        Ok(())
    };
    scenario().map_err(|e| format!("telemetry scenario failed: {e}"))?;
    if let Some(path) = trace_out {
        cli::write(path, sink.with(|hub| hub.chrome_trace_json()), "telemetry")?;
    }
    if let Some(path) = metrics_out {
        let metrics = sink.with(|hub| hub.metrics_mut().render_for(path));
        cli::write(path, metrics, "telemetry")?;
    }
    Ok(())
}

fn render_fig5(quick: bool) -> String {
    let trials = if quick { 20 } else { 100 };
    let mut out = String::new();
    heading(
        &mut out,
        &format!("Fig. 5 — system call execution times ({trials} trials, mean us [sd])"),
    );
    let result = fig5::run(trials);
    let header = [
        "syscall",
        "hops",
        "Unikraft",
        "VampOS-Noop",
        "VampOS-DaS",
        "VampOS-FSm",
        "VampOS-NETm",
    ];
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.syscall.to_owned(), r.transitions.to_string()];
            row.extend(
                r.per_mode
                    .iter()
                    .map(|m| format!("{} [{}]", us(m.mean_us), us(m.sd_us))),
            );
            row
        })
        .collect();
    let _ = write!(out, "{}", render_table(&header, &rows));
    out
}

fn render_table3(_quick: bool) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Table III — log space overheads in system calls (records)",
    );
    let result = table3::run();
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.syscall.to_owned(),
                r.normal.to_string(),
                r.shrunk.to_string(),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(&["syscall", "normal", "shrunk"], &rows)
    );
    out
}

fn render_fig6(quick: bool) -> String {
    let (requests, trials) = if quick { (100, 3) } else { (1_000, 10) };
    let mut out = String::new();
    heading(
        &mut out,
        &format!("Fig. 6 — component reboot times ({requests} warm-up GETs, {trials} trials)"),
    );
    let result = fig6::run(requests, trials);
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.component.clone(),
                format!("{:.3}ms", r.mean_ms),
                format!("{:.3}ms", r.sd_ms),
                r.replayed.to_string(),
                bytes(r.snapshot_bytes),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(&["component", "mean", "sd", "replayed", "snapshot"], &rows)
    );
    out
}

fn render_fig7(quick: bool) -> String {
    let scale = if quick {
        fig7::Fig7Scale::quick()
    } else {
        fig7::Fig7Scale::default()
    };
    let mut out = String::new();
    heading(&mut out, &format!(
        "Fig. 7a — application execution time (sqlite {} inserts, nginx {} GETs, redis {} SETs, echo {} msgs)",
        scale.sqlite_inserts, scale.http_requests, scale.kv_sets, scale.echo_messages
    ));
    let result = fig7::run(scale);
    let header = ["app", "Unikraft", "Noop", "DaS", "FSm", "NETm"];
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.app.to_owned()];
            row.extend(
                r.cells
                    .iter()
                    .map(|c| format!("{:.1}ms ({:.2}x)", c.exec_ms, c.relative)),
            );
            row
        })
        .collect();
    let _ = write!(out, "{}", render_table(&header, &rows));

    heading(
        &mut out,
        "Fig. 7b — memory utilisation (total / VampOS overhead)",
    );
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.app.to_owned()];
            row.extend(
                r.cells
                    .iter()
                    .map(|c| format!("{} / {}", bytes(c.mem_total), bytes(c.mem_overhead))),
            );
            row
        })
        .collect();
    let _ = write!(out, "{}", render_table(&header, &rows));
    out
}

fn render_table4(quick: bool) -> String {
    let ops = if quick { 400 } else { 5_000 };
    let mut out = String::new();
    heading(
        &mut out,
        &format!(
            "Table IV — throughput over log-shrink-threshold changes ({ops} ops, req/s virtual)"
        ),
    );
    let result = table4::run(ops);
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.threshold.to_string(),
                format!("{:.0}", r.sqlite_rps),
                format!("{:.0}", r.nginx_rps),
                format!("{:.0}", r.redis_rps),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(&["threshold", "SQLite", "Nginx", "Redis"], &rows)
    );
    out
}

fn render_table5(quick: bool) -> String {
    let (clients, interval) = if quick {
        (40, Nanos::from_secs(10))
    } else {
        (100, Nanos::from_secs(30))
    };
    let mut out = String::new();
    heading(
        &mut out,
        &format!(
            "Table V — request successes across rejuvenation ({clients} siege clients, {interval} interval)"
        ),
    );
    let result = table5::run(clients, interval);
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_owned(),
                r.successes.to_string(),
                r.failures.to_string(),
                format!("{:.1}%", r.success_pct),
                r.reboots.to_string(),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(&["config", "success", "fails", "ratio", "reboots"], &rows)
    );
    out
}

fn render_fleet(quick: bool) -> String {
    // Full scale: 4 clients/instance × 1024 requests each is 1 048 576
    // virtual requests per configuration at N = 256; the rolling plan
    // compresses into a fixed virtual span (spacing ∝ 1/N), which is the
    // regime the event-heap engine exists for.
    let (sizes, cpi, rpc): (&[usize], usize, usize) = if quick {
        (&[4, 16], 2, 200)
    } else {
        (&[16, 64, 256], 4, 1024)
    };
    let mut out = String::new();
    heading(
        &mut out,
        &format!(
            "Fleet — Table V at cluster scale ({cpi} clients/instance x {rpc} requests, \
             rolling plan in a fixed virtual span)"
        ),
    );
    let result = fleet::run_sized(sizes, cpi, rpc);
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.instances.to_string(),
                r.config.to_owned(),
                r.issued.to_string(),
                r.successes.to_string(),
                r.failures.to_string(),
                format!("{:.1}%", r.success_pct),
                us(r.p50_us),
                us(r.p99_us),
                r.retried.to_string(),
                r.reboots.to_string(),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(
            &[
                "N", "config", "requests", "success", "fails", "ratio", "p50", "p99", "retried",
                "reboots"
            ],
            &rows
        )
    );

    // Arrival shapes: the same recovery-aware + rolling fleet under
    // closed-loop clients and the diurnal/bursty drifts.
    let (shape_n, shape_rpc) = if quick { (4, 120) } else { (16, 1024) };
    heading(
        &mut out,
        &format!("Fleet — arrival shapes (aware+rolling, N = {shape_n}, {cpi} clients/instance)"),
    );
    let shape_rows: Vec<Vec<String>> = fleet::run_shapes(shape_n, cpi, shape_rpc)
        .iter()
        .map(|r| {
            vec![
                r.shape.to_owned(),
                r.issued.to_string(),
                r.successes.to_string(),
                r.failures.to_string(),
                format!("{:.1}%", r.success_pct),
                us(r.p50_us),
                us(r.p99_us),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(
            &["shape", "requests", "success", "fails", "ratio", "p50", "p99"],
            &shape_rows
        )
    );
    out
}

fn render_recursive(quick: bool) -> String {
    // Full scale: 16 campaigns per class per seed over seeds {42, 1337} =
    // 320 supervised fleet runs; quick keeps CI inside a few seconds.
    let (seeds, campaigns): (&[u64], u64) = if quick { (&[42], 2) } else { (&[42, 1337], 16) };
    let mut out = String::new();
    heading(
        &mut out,
        &format!(
            "Recursive recovery — escalation ladder under recovery-plane faults \
             ({campaigns} campaigns/class/seed, seeds {seeds:?})"
        ),
    );
    let result = recursive::run(seeds, campaigns);
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.class.to_owned(),
                r.runs.to_string(),
                r.passed.to_string(),
                format!("{:.1}%", 100.0 * r.passed as f64 / r.runs.max(1) as f64),
                r.rung_counts[0].to_string(),
                r.rung_counts[1].to_string(),
                r.rung_counts[2].to_string(),
                r.condemned.to_string(),
                r.requests.to_string(),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(
            &[
                "fault class",
                "runs",
                "pass",
                "rate",
                "r:comp",
                "r:inst",
                "r:fleet",
                "condemned",
                "requests"
            ],
            &rows
        )
    );
    out
}

fn render_mesh(quick: bool) -> String {
    // The single SQL replica caps journey throughput (~1.1ms serial
    // service each); 4 open-loop clients stay under that capacity so
    // failures measure recovery windows, not steady-state overload.
    let (clients, rpc) = if quick { (4, 16) } else { (4, 96) };
    let mut out = String::new();
    heading(
        &mut out,
        &format!(
            "Mesh — pipelines under recovery ({clients} clients x {rpc} requests, \
             armed policies vs bare hops)"
        ),
    );
    let result = mesh::run(clients, rpc, 42);
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_owned(),
                if r.armed { "armed" } else { "none" }.to_owned(),
                r.issued.to_string(),
                r.acked.to_string(),
                format!("{:.1}%", r.success_pct),
                us(r.e2e_p50_us),
                us(r.e2e_p99_us),
                r.retries.to_string(),
                r.hedges.to_string(),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(
            &[
                "config", "policies", "requests", "acked", "ratio", "e2e-p50", "e2e-p99",
                "retries", "hedges"
            ],
            &rows
        )
    );

    heading(&mut out, "Mesh — per-stage latency (armed runs)");
    let stage_rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .filter(|r| r.armed)
        .flat_map(|r| {
            r.stages.iter().map(|s| {
                vec![
                    r.config.to_owned(),
                    s.label.clone(),
                    us(s.p50_us),
                    us(s.p99_us),
                    s.retries.to_string(),
                    s.hedges.to_string(),
                    s.cached.to_string(),
                ]
            })
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        render_table(
            &["config", "stage", "p50", "p99", "retries", "hedges", "cached"],
            &stage_rows
        )
    );
    out
}

fn render_fig8(quick: bool) -> String {
    let (keys, duration, interval) = if quick {
        (2_000, Nanos::from_secs(12), Nanos::from_millis(500))
    } else {
        (100_000, Nanos::from_secs(60), Nanos::from_secs(1))
    };
    let mut out = String::new();
    heading(
        &mut out,
        &format!(
            "Fig. 8 — Redis GET latency across failure recovery ({keys} keys; 9PFS fail-stop at t={})",
            (duration / 3)
        ),
    );
    let result = fig8::run(keys, duration, interval);
    for series in &result.series {
        let _ = writeln!(
            out,
            "\n  {} (recovery downtime: {}):",
            series.config, series.recovery_downtime
        );
        let rows: Vec<Vec<String>> = series
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.1}s", p.at.as_secs_f64()),
                    us(p.latency.as_micros_f64()),
                    if p.ok { "ok" } else { "FAIL" }.to_owned(),
                ]
            })
            .collect();
        let _ = write!(out, "{}", render_table(&["t", "latency", "status"], &rows));
    }
    out
}

fn render_ablations(_quick: bool) -> String {
    let mut out = String::new();
    heading(&mut out, "Ablations — what each design choice buys");
    let r = ablations::run();
    let _ = writeln!(
        out,
        "  MPK isolation:       open() {} isolated vs {} unisolated ({:+.1}%)",
        us(r.open_isolated_us),
        us(r.open_unisolated_us),
        (r.open_isolated_us / r.open_unisolated_us - 1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "  log shrinking:       {} live records with shrinking vs {} without (100 sessions)",
        r.log_records_shrunk, r.log_records_unshrunk
    );
    let _ = writeln!(out, "  reboot vs log size:");
    for (entries, downtime) in &r.reboot_vs_log {
        let _ = writeln!(out, "    {entries:>5} entries -> {downtime}");
    }
    let _ = writeln!(
        out,
        "  key virtualisation:  {} remaps for 24 domains on 16 hardware keys",
        r.virtualisation_remaps
    );
    out
}
