//! What a traced run does after its traced reps: one rep of each *other*
//! workload at probe size (so every per-layer metric has a value whichever
//! workload is being traced), the comparison runs three ratio metrics need,
//! and the layer probes: direct calls into one layer's public functions,
//! timed in batches and sized by the deterministic counts of the runs above.
//!
//! Spans here carry rep id 0. A span covers a batch of calls when one call
//! is too short to time (two clock reads cost about 40 ns); the per-layer
//! table divides by the span's `calls`.

use crate::surface::{self as sim, AppKind, BalancerPolicy, FleetShape, Res};
use crate::trace::Recorder;
use crate::workloads::{
    fleet_audit_shape, fleet_rep, fleet_steady_shape, lone_plans, mesh_rep, mesh_shape, single_rep,
    FleetNames, Rep, Size, Workload, AUDIT_NAMES, AUDIT_REQUESTS_PER_CLIENT, STEADY_NAMES,
};

/// The audit load at half length: `telemetry.perfetto.growth_x2` is the
/// export time at 256 requests per client over the time at 128.
const AUDIT_HALF_NAMES: FleetNames = FleetNames {
    boot: "cluster.fleet_new.telemetry_half",
    run: "cluster.fleet_run.telemetry_half",
    merge: "cluster.report_merge.telemetry_half",
    perfetto: "telemetry.perfetto.half",
    counts: "audit_half",
};

/// The audit load with telemetry off: the base of `telemetry.run.slowdown`.
const AUDIT_OFF_NAMES: FleetNames = FleetNames {
    boot: "cluster.fleet_new.telemetry_off",
    run: "cluster.fleet_run.telemetry_off",
    merge: "cluster.report_merge.telemetry_off",
    perfetto: "",
    counts: "audit_off",
};

/// Ops attempted and failed by everything in this module, for the run's
/// `attempted` / `failed` totals.
#[derive(Debug, Default)]
pub struct ProbeTotals {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl ProbeTotals {
    fn add(&mut self, what: &str, rep: Rep) {
        self.attempted += rep.ops;
        if !rep.failures.is_empty() {
            self.failed += rep.ops;
            for f in rep.failures {
                self.failures.push(format!("{what}: {f}"));
            }
        }
    }

    /// A probe's own sanity check: one attempted op, failed if `!pass`.
    fn check(&mut self, what: &str, pass: bool) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            self.failures.push(format!("probe {what} failed its check"));
        }
    }
}

/// Runs the scenarios `native`'s own traced reps did not cover.
pub fn run_scenarios(
    native: Workload,
    seed: u64,
    rec: &mut Recorder,
    totals: &mut ProbeTotals,
) -> Res<()> {
    if native != Workload::FleetSteady {
        let rep = fleet_rep(&fleet_steady_shape(Size::Probe), &STEADY_NAMES, seed, rec)?;
        totals.add("fleet_steady probe", rep);
    }
    if native != Workload::FleetRollingAudit {
        let shape = fleet_audit_shape(AUDIT_REQUESTS_PER_CLIENT);
        totals.add(
            "fleet_rolling_audit probe",
            fleet_rep(&shape, &AUDIT_NAMES, seed, rec)?,
        );
    }
    let half = fleet_audit_shape(AUDIT_REQUESTS_PER_CLIENT / 2);
    totals.add(
        "audit half",
        fleet_rep(&half, &AUDIT_HALF_NAMES, seed, rec)?,
    );
    let off = FleetShape {
        telemetry: false,
        ..fleet_audit_shape(AUDIT_REQUESTS_PER_CLIENT)
    };
    totals.add(
        "audit telemetry-off",
        fleet_rep(&off, &AUDIT_OFF_NAMES, seed, rec)?,
    );

    let mesh_size = if native == Workload::MeshRolling {
        Size::Full
    } else {
        let rep = mesh_rep(&mesh_shape(Size::Probe), seed, rec)?;
        totals.add("mesh_rolling probe", rep);
        Size::Probe
    };
    mesh_depth1(mesh_size, seed, rec, totals)?;

    if native != Workload::SingleRecovery {
        let rep = single_rep(&lone_plans(Size::Probe), seed, false, rec)?;
        totals.add("single_recovery probe", rep);
    }
    Ok(())
}

/// The mesh's front load through the empty pipeline: what a journey costs
/// before any backend hop.
fn mesh_depth1(size: Size, seed: u64, rec: &mut Recorder, totals: &mut ProbeTotals) -> Res<()> {
    let shape = mesh_shape(size);
    let mut mesh = sim::mesh_boot(&shape, seed, true)?;
    let load = shape.load();
    let plan = sim::mesh_rolling_plan(&shape, false);
    let (report, _) = rec.time("mesh.run.depth1", shape.journeys(), || {
        sim::mesh_run(&mut mesh, &load, plan)
    });
    let summary = sim::mesh_reduce(&report?);
    totals.attempted += summary.journeys;
    totals.failed += summary.journeys - summary.acked;
    Ok(())
}

/// Calls per span for the nanosecond-scale probes.
const BATCH: u64 = 1_000;

/// The layer probes, bottom layer first.
pub fn run_layer_probes(
    seed: u64,
    issued: u64,
    rec: &mut Recorder,
    totals: &mut ProbeTotals,
) -> Res<()> {
    sim_probes(seed, rec, totals);
    mem_probes(rec)?;
    funclog_probes(rec);
    httpd_probes(seed, rec, totals)?;
    app_probes(seed, rec, totals)?;
    core_probes(seed, rec)?;
    cluster_probes(seed, issued, rec, totals)?;
    telemetry_probes(rec, totals);
    Ok(())
}

fn sim_probes(seed: u64, rec: &mut Recorder, totals: &mut ProbeTotals) {
    // 1M samples: far past the 4,096-sample spill into the sketch.
    let samples = sim::seeded_samples(seed, 1_000_000);
    let mut h = sim::histogram_new();
    for chunk in samples.chunks(10_000) {
        rec.time("sim.histogram_record", chunk.len() as u64, || {
            sim::histogram_record(&mut h, chunk)
        });
    }
    // 64 instances x 2,048 samples: the merge at the end of a fleet run.
    let shards = sim::stat_shards(&samples, 64, 2_048);
    for _ in 0..50 {
        let ((n, _p99), _) = rec.time("sim.stat_merge", 1, || sim::stat_merge(&shards));
        totals.check("sim.stat_merge", n == 64 * 2_048);
    }
    // 100k records: `LoadReport::latency_histogram` at the end of a load.
    let report = sim::load_report_of(&samples[..100_000]);
    for _ in 0..20 {
        let (n, _) = rec.time("workloads.report_histogram", 1, || {
            sim::load_report_histogram(&report)
        });
        totals.check("workloads.report_histogram", n == 100_000);
    }
}

fn mem_probes(rec: &mut Recorder) -> Res<()> {
    let (mut arena, snap) = sim::arena_warmed(1 << 20)?;
    for i in 0..200u32 {
        sim::arena_dirty(&mut arena, i as u8)?;
        rec.time("mem.snapshot", 1, || {
            std::hint::black_box(sim::arena_snapshot(&mut arena));
        });
    }
    for i in 0..200u32 {
        sim::arena_dirty(&mut arena, i as u8)?;
        let (restored, _) = rec.time("mem.restore", 1, || sim::arena_restore(&mut arena, &snap));
        restored?;
    }
    Ok(())
}

fn funclog_probes(rec: &mut Recorder) {
    let mut log = sim::funclog_filled(320, 16);
    for _ in 0..20 {
        rec.time("core.funclog_append", BATCH, || {
            sim::funclog_append_touches(&mut log, 0, BATCH)
        });
    }
    // Sessions 1..=300 still hold their 16 entries; close them ten at a time.
    for first in (1..=300).step_by(10) {
        rec.time("core.funclog_close", 10, || {
            sim::funclog_close_sessions(&mut log, first, 10)
        });
    }
    for _ in 0..50 {
        let mut one = sim::funclog_filled(1, 128);
        rec.time("core.funclog_compact", 1, || {
            std::hint::black_box(sim::funclog_compact(&mut one, 0));
        });
    }
}

/// One GET at a time on a lone web server, each of its three layer calls
/// in its own span under the request's span.
fn httpd_probes(seed: u64, rec: &mut Recorder, totals: &mut ProbeTotals) -> Res<()> {
    for _ in 0..10 {
        let (lone, _) = rec.time("core.boot_httpd", 1, || sim::lone_boot(AppKind::Http, seed));
        lone?;
    }
    let mut lone = sim::lone_boot(AppKind::Http, seed)?;
    let conn = sim::lone_connect(&mut lone)?;
    let request = sim::lone_request_bytes(AppKind::Http, 0);
    let mut ok = 0;
    const GETS: u64 = 2_000;
    for _ in 0..GETS {
        let open = rec.enter("apps.httpd_get");
        let (sent, _) = rec.time("host.net_send", 1, || sim::net_send(&lone, conn, &request));
        sent?;
        sim::wire_delay(&lone, 0);
        let (polled, _) = rec.time("apps.httpd_poll", 1, || sim::app_poll(&mut lone));
        polled?;
        sim::wire_delay(&lone, 0);
        let (response, _) = rec.time("host.net_recv", 1, || sim::net_recv(&lone, conn));
        rec.exit(open, 1);
        ok += u64::from(response?.starts_with(b"HTTP/1.1 200"));
    }
    totals.attempted += GETS;
    totals.failed += GETS - ok;

    // The same, now warmed, system serves the reboot probes.
    for _ in 0..200 {
        let (r, _) = rec.time("core.reboot_component", 1, || {
            sim::reboot_component(&mut lone, "vfs")
        });
        r?;
    }
    // Ten requests between sweeps, so each sweep replays a log the size
    // a paced rejuvenation meets, not the empty one a back-to-back sweep
    // leaves behind. `calls` is the number of components the sweep rebooted.
    for _ in 0..100 {
        for _ in 0..10 {
            sim::net_send(&lone, conn, &request)?;
            sim::app_poll(&mut lone)?;
            sim::net_recv(&lone, conn)?;
        }
        let open = rec.enter("core.rejuvenate_all");
        let rebooted = sim::rejuvenate_all(&mut lone);
        rec.exit(open, *rebooted.as_ref().unwrap_or(&1));
        rebooted?;
    }
    for _ in 0..10 {
        let (r, _) = rec.time("core.full_reboot", 1, || sim::full_reboot(&mut lone));
        r?;
    }
    Ok(())
}

/// One request end to end (send, `App::poll`, receive) on a lone booted
/// system per span; inclusive of `core`, `oslib` and `host`.
fn app_probes(seed: u64, rec: &mut Recorder, totals: &mut ProbeTotals) -> Res<()> {
    const REQUESTS: usize = 2_000;
    for (kind, span) in [
        (AppKind::Kv, "apps.kv_set"),
        (AppKind::Echo, "apps.echo_msg"),
    ] {
        let mut lone = sim::lone_boot(kind, seed)?;
        let conn = sim::lone_connect(&mut lone)?;
        let mut answered = 0;
        for i in 0..REQUESTS {
            let request = sim::lone_request_bytes(kind, i);
            let (response, _) = rec.time(span, 1, || -> Res<Vec<u8>> {
                sim::net_send(&lone, conn, &request)?;
                sim::wire_delay(&lone, request.len());
                sim::app_poll(&mut lone)?;
                sim::wire_delay(&lone, request.len());
                sim::net_recv(&lone, conn)
            });
            answered += u64::from(!response?.is_empty());
        }
        totals.attempted += REQUESTS as u64;
        totals.failed += REQUESTS as u64 - answered;
    }
    let mut db = sim::lone_boot(AppKind::Sql, seed)?;
    sim::sql_execute(&mut db, "CREATE TABLE items (id, body)")?;
    for i in 0..REQUESTS {
        let statement = sim::lone_request_bytes(AppKind::Sql, i);
        let statement = String::from_utf8(statement).map_err(|e| e.to_string())?;
        let (r, _) = rec.time("apps.sql_insert", 1, || {
            sim::sql_execute(&mut db, &statement)
        });
        r?;
    }
    totals.attempted += REQUESTS as u64;
    Ok(())
}

fn core_probes(seed: u64, rec: &mut Recorder) -> Res<()> {
    let mut lone = sim::lone_boot(AppKind::Sql, seed)?;
    for _ in 0..20 {
        let (r, _) = rec.time("core.file_syscalls", 100, || {
            sim::file_syscalls(&mut lone, 100)
        });
        r?;
    }
    for _ in 0..100 {
        let (r, _) = rec.time("core.panic_retry", 1, || sim::panic_and_retry(&mut lone));
        r?;
    }
    Ok(())
}

fn cluster_probes(seed: u64, issued: u64, rec: &mut Recorder, totals: &mut ProbeTotals) -> Res<()> {
    // One push + pop pair per issued request, at the depth the steady
    // fleet's heap holds (one pending arrival per client).
    let mut heap = sim::event_heap(256);
    let mut left = issued;
    while left > 0 {
        let pairs = left.min(4_096);
        rec.time("cluster.heap_cycle", pairs, || {
            sim::event_heap_cycle(&mut heap, pairs)
        });
        left -= pairs;
    }

    let shape = fleet_steady_shape(Size::Probe);
    let n = shape.instances;
    let (fleet, _) = rec.time(STEADY_NAMES.boot, n as u64, || {
        sim::fleet_boot(sim::fleet_config(&shape, seed))
    });
    let mut fleet = fleet?;
    for (policy, route, migrate) in [
        (
            BalancerPolicy::RecoveryAware,
            "cluster.route.recovery-aware",
            "cluster.migrate.recovery-aware",
        ),
        (
            BalancerPolicy::LeastOutstanding,
            "cluster.route.least-outstanding",
            "cluster.migrate.least-outstanding",
        ),
    ] {
        for _ in 0..10 {
            rec.time(route, BATCH, || {
                std::hint::black_box(sim::balancer_route(&mut fleet, policy, BATCH));
            });
            rec.time(migrate, BATCH, || {
                std::hint::black_box(sim::balancer_should_migrate(&mut fleet, policy, BATCH));
            });
        }
    }

    // The same 4,096 GETs on one instance, then round-robin over all 64:
    // the difference is what 64 private working sets cost.
    let conns = (0..n)
        .map(|i| sim::instance_connect(&mut fleet, i))
        .collect::<Res<Vec<_>>>()?;
    let laps = 4_096 / n;
    let mut ok = 0;
    for _ in 0..laps {
        let (served, _) = rec.time("cluster.instance_get.lone", n as u64, || -> Res<u64> {
            let mut served = 0;
            for _ in 0..n {
                served += u64::from(sim::instance_get(&mut fleet, 0, conns[0])?);
            }
            Ok(served)
        });
        ok += served?;
    }
    for _ in 0..laps {
        let (served, _) = rec.time(
            "cluster.instance_get.roundrobin",
            n as u64,
            || -> Res<u64> {
                let mut served = 0;
                for (i, &conn) in conns.iter().enumerate() {
                    served += u64::from(sim::instance_get(&mut fleet, i, conn)?);
                }
                Ok(served)
            },
        );
        ok += served?;
    }
    let gets = 2 * (laps * n) as u64;
    totals.attempted += gets;
    totals.failed += gets - ok;
    Ok(())
}

fn telemetry_probes(rec: &mut Recorder, totals: &mut ProbeTotals) {
    // 50,000 spans: under the hub's 65,536-record bound, so none evicts.
    let mut hub = sim::hub_new();
    for batch in 0..50 {
        rec.time("telemetry.hub_push_span", BATCH, || {
            sim::hub_push_spans(&mut hub, batch * BATCH, BATCH)
        });
    }
    totals.check("telemetry.hub_push_span", sim::hub_evicted(&hub) == 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::derive_counts;

    /// Counts, and the per-layer metrics that are ratios of counts, are
    /// functions of the seed alone: two traced runs must agree on them
    /// exactly. Run with `cargo test --release`; a debug build takes
    /// minutes over the audit scenario.
    #[test]
    fn count_type_layer_metrics_repeat_exactly() {
        const SEED: u64 = 0x1234_5678;
        let traced = || {
            let mut rec = Recorder::new(true);
            let mut totals = ProbeTotals::default();
            // `single_recovery` at probe size stands in for the traced reps.
            let rep = single_rep(&lone_plans(Size::Probe), SEED, false, &mut rec).expect("rep");
            assert_eq!(rep.failures, Vec::<String>::new());
            rec.count("rep.component_reboots", rep.component_reboots);
            run_scenarios(Workload::SingleRecovery, SEED, &mut rec, &mut totals).expect("probes");
            assert_eq!(totals.failures, Vec::<String>::new());
            let trace = rec.into_trace("test", SEED);
            let metrics = derive_counts(&trace).expect("count metrics");
            (trace.counts, metrics)
        };
        let (counts, metrics) = traced();
        assert!(metrics.len() >= 7, "count-type metrics: {metrics:?}");
        assert_eq!((counts, metrics), traced());
    }
}
