//! The four workloads: what one rep does, which of its calls are set-up and
//! which are timed, and the correctness checks every rep must pass.
//!
//! Every rep boots fresh, does identical fixed work and is a pure function
//! of the seed on the virtual clock, so reps of one run must agree on
//! `digest` bit for bit. Sizes are constants: host time follows events
//! simulated, so numbers are comparable across commits only at equal sizes.

use crate::stats::Fnv1a;
use crate::surface::{self as sim, AppKind, FleetShape, MeshShape, Res};
use crate::trace::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetRollingAudit,
    MeshRolling,
    SingleRecovery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::FleetRollingAudit,
        Workload::MeshRolling,
        Workload::SingleRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetRollingAudit => "fleet_rolling_audit",
            Workload::MeshRolling => "mesh_rolling",
            Workload::SingleRecovery => "single_recovery",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one simulated operation is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::MeshRolling => "journey",
            _ => "request",
        }
    }
}

/// Simulated operations one full-size rep attempts; what a rep that did
/// not finish is charged with.
pub fn nominal_ops(workload: Workload) -> u64 {
    match workload {
        Workload::FleetSteady => fleet_steady_shape(Size::Full).requests(),
        Workload::FleetRollingAudit => fleet_audit_shape(AUDIT_REQUESTS_PER_CLIENT).requests(),
        Workload::MeshRolling => mesh_shape(Size::Full).journeys(),
        Workload::SingleRecovery => lone_plans(Size::Full)
            .iter()
            .map(|p| p.requests as u64)
            .sum(),
    }
}

/// Full size is what the end-to-end metrics are measured at. Probe size is
/// what a traced run uses for the three workloads that are *not* the one
/// being traced, so every per-layer metric has a value in every traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Probe,
}

/// 64 instances, 256 keep-alive clients (the `repro fleet` sweep's 4
/// clients per instance), open-loop grid, no plan, telemetry off.
pub fn fleet_steady_shape(size: Size) -> FleetShape {
    FleetShape {
        instances: 64,
        clients: 256,
        requests_per_client: match size {
            Size::Full => 512,
            Size::Probe => 64,
        },
        telemetry: false,
        rolling: false,
    }
}

/// 16 instances under rolling rejuvenation with telemetry on: the
/// `vampos-audit fleet` scenario, longer. The probe keeps the full size
/// because `telemetry.perfetto.growth_x2` is defined at 256 vs 128
/// requests per client.
pub fn fleet_audit_shape(requests_per_client: usize) -> FleetShape {
    FleetShape {
        instances: 16,
        clients: 64,
        requests_per_client,
        telemetry: true,
        rolling: true,
    }
}

pub const AUDIT_REQUESTS_PER_CLIENT: usize = 256;

/// Span and count names of one use of the fleet scenario. The scenario runs
/// under several geometries in a traced run; distinct names keep their
/// spans apart in the trace file.
#[derive(Debug, Clone, Copy)]
pub struct FleetNames {
    pub boot: &'static str,
    pub run: &'static str,
    pub merge: &'static str,
    pub perfetto: &'static str,
    /// Prefix of the deterministic counts (`<prefix>.issued`, ...).
    pub counts: &'static str,
}

pub const STEADY_NAMES: FleetNames = FleetNames {
    boot: "cluster.fleet_new",
    run: "cluster.fleet_run",
    merge: "cluster.report_merge",
    perfetto: "",
    counts: "steady",
};

pub const AUDIT_NAMES: FleetNames = FleetNames {
    boot: "cluster.fleet_new.telemetry",
    run: "cluster.fleet_run.telemetry",
    merge: "cluster.report_merge.telemetry",
    perfetto: "telemetry.perfetto",
    counts: "audit",
};
/// Eight component reboots per rejuvenated nginx instance.
const AUDIT_COMPONENT_REBOOTS: u64 = 128;

/// 3 front instances, 2 replicas, 4 clients: the largest population under
/// the ~1.1 ms serial SQL ceiling.
pub fn mesh_shape(size: Size) -> MeshShape {
    MeshShape {
        front: 3,
        replicas: 2,
        clients: 4,
        journeys_per_client: match size {
            Size::Full => 4096,
            Size::Probe => 512,
        },
    }
}

/// Requests and rejuvenation firings of one lone system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LonePlan {
    pub app: AppKind,
    pub requests: usize,
    /// `rejuvenate_all` firings, one per [`REJUVENATE_EVERY_MS`] of virtual
    /// time, capped at 10,000 and sized so that every one of them comes
    /// due inside the run: `Schedule::pending()` must be 0 afterwards.
    pub firings: u64,
}

/// Fig. 7 request counts; a tenth of them at probe size.
pub fn lone_plans(size: Size) -> [LonePlan; 4] {
    let div = match size {
        Size::Full => 1,
        Size::Probe => 10,
    };
    [
        (AppKind::Kv, 100_000, 10_000),
        (AppKind::Sql, 10_000, 250),
        (AppKind::Http, 10_000, 10_000),
        (AppKind::Echo, 10_000, 900),
    ]
    .map(|(app, requests, firings)| LonePlan {
        app,
        requests: requests / div,
        firings: firings / div as u64,
    })
}

/// Virtual time between whole-system rejuvenations in `single_recovery`:
/// just wider than the ≈48 ms of virtual time one `rejuvenate_all` takes.
/// At anything shorter every firing is overdue by the time the previous one
/// ends, `Schedule::fire_due` drains the whole schedule inside one call
/// before the dozenth request, and the log replayed is always the same few
/// entries; at 50 ms the rejuvenations interleave with the load.
const REJUVENATE_EVERY_MS: u64 = 50;

/// What one rep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Simulated operations attempted (requests, or journeys for the mesh).
    pub ops: u64,
    /// Operations the simulated system acknowledged OK.
    pub ok_ops: u64,
    /// Host time before the rep's first simulated event.
    pub setup_ns: u64,
    /// Host time of the rep's timed calls.
    pub timed_ns: u64,
    /// Simulated latency p99 over `virt_samples` merged samples.
    pub virt_p99_us: f64,
    pub virt_samples: u64,
    /// Virtual time the rep covered.
    pub virt_span_s: f64,
    /// FNV-1a of the rendered reports.
    pub digest: u64,
    pub component_reboots: u64,
    /// Correctness checks that failed, as messages. Any entry fails the rep.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn virt_success_pct(&self) -> f64 {
        self.ok_ops as f64 * 100.0 / self.ops as f64
    }
}

fn check(failures: &mut Vec<String>, pass: bool, what: impl FnOnce() -> String) {
    if !pass {
        failures.push(what());
    }
}

fn digest_of(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv1a::default();
    for part in parts {
        h.write(part);
        h.write(&[0xff]);
    }
    h.finish()
}

/// Runs one full-size rep of `workload`. `twin` additionally runs the
/// fault-free twin of `single_recovery` and requires equal state digests;
/// the other workloads ignore it.
pub fn run_rep(workload: Workload, seed: u64, twin: bool, rec: &mut Recorder) -> Res<Rep> {
    let size = Size::Full;
    let open = rec.enter("rep");
    let rep = match workload {
        Workload::FleetSteady => fleet_rep(&fleet_steady_shape(size), &STEADY_NAMES, seed, rec),
        Workload::FleetRollingAudit => fleet_rep(
            &fleet_audit_shape(AUDIT_REQUESTS_PER_CLIENT),
            &AUDIT_NAMES,
            seed,
            rec,
        ),
        Workload::MeshRolling => mesh_rep(&mesh_shape(size), seed, rec),
        Workload::SingleRecovery => single_rep(&lone_plans(size), seed, twin, rec),
    };
    rec.exit(open, 1);
    rep
}

/// `fleet_steady` and `fleet_rolling_audit`: the same cluster layer used
/// two ways. With telemetry on, the exporters `vampos-audit` and
/// `vampos-fleet --trace-out` run are part of the timed work.
pub fn fleet_rep(
    shape: &FleetShape,
    names: &FleetNames,
    seed: u64,
    rec: &mut Recorder,
) -> Res<Rep> {
    let requests = shape.requests();
    let ((cfg, load, plan), inputs_ns) = rec.time("workloads.inputs", 1, || {
        (
            sim::fleet_config(shape, seed),
            sim::fleet_load(shape),
            sim::fleet_plan(shape),
        )
    });
    let (fleet, boot_ns) = rec.time(names.boot, shape.instances as u64, || sim::fleet_boot(cfg));
    let mut fleet = fleet?;

    let (report, run_ns) = rec.time(names.run, requests, || {
        sim::fleet_run(&mut fleet, &load, plan)
    });
    let report = report?;
    let (summary, merge_ns) = rec.time(names.merge, 1, || sim::fleet_reduce(&report));
    let mut timed_ns = run_ns + merge_ns;

    let mut failures = Vec::new();
    check(&mut failures, summary.issued == summary.completed, || {
        format!(
            "issued {} != completed {}",
            summary.issued, summary.completed
        )
    });
    check(
        &mut failures,
        summary.requests == requests + summary.retried,
        || {
            format!(
                "{} requests recorded, expected {requests} + {} retried",
                summary.requests, summary.retried
            )
        },
    );
    let prefix = names.counts;
    rec.count(&format!("{prefix}.requests"), summary.requests);
    rec.count(&format!("{prefix}.issued"), summary.issued);
    rec.count(&format!("{prefix}.completed"), summary.completed);
    rec.count(&format!("{prefix}.plan_ops"), shape.plan_ops());
    rec.count(&format!("{prefix}.redirects"), summary.redirects);

    let mut digest_parts: Vec<Vec<u8>> = vec![summary.rendered.clone().into_bytes()];
    if shape.telemetry {
        let audit = audit_exports(&fleet, names, rec)?;
        timed_ns += audit.timed_ns;
        check(&mut failures, audit.evicted == 0, || {
            format!("{} telemetry records evicted", audit.evicted)
        });
        check(&mut failures, audit.journeys == summary.requests, || {
            format!(
                "analyzer saw {} journeys for {} requests",
                audit.journeys, summary.requests
            )
        });
        check(&mut failures, audit.exposition.is_ok(), || {
            format!("Prometheus exposition invalid: {:?}", audit.exposition)
        });
        check(
            &mut failures,
            summary.component_reboots == AUDIT_COMPONENT_REBOOTS,
            || {
                format!(
                    "{} component reboots, expected {AUDIT_COMPONENT_REBOOTS}",
                    summary.component_reboots
                )
            },
        );
        digest_parts.extend(audit.rendered);
    }

    let parts: Vec<&[u8]> = digest_parts.iter().map(Vec::as_slice).collect();
    Ok(Rep {
        ops: summary.requests,
        ok_ops: summary.successes,
        setup_ns: inputs_ns + boot_ns,
        timed_ns,
        virt_p99_us: summary.p99_us,
        virt_samples: summary.latency_samples,
        virt_span_s: summary.span_s,
        digest: digest_of(&parts),
        component_reboots: summary.component_reboots,
        failures,
    })
}

struct AuditExports {
    timed_ns: u64,
    evicted: u64,
    journeys: u64,
    exposition: Res<()>,
    /// Analysis rendering, Prometheus text, Chrome trace: all hashed.
    rendered: Vec<Vec<u8>>,
}

/// The whole telemetry layer after a run, in `vampos-audit`'s order; the
/// Chrome trace stays in memory.
fn audit_exports(fleet: &sim::Fleet, names: &FleetNames, rec: &mut Recorder) -> Res<AuditExports> {
    let open = rec.enter("telemetry.span_processes");
    let processes = sim::fleet_span_processes(fleet);
    let spans = processes.as_deref().map_or(1, sim::span_total);
    let mut timed_ns = rec.exit(open, spans);
    let processes = processes?;

    let (analysis, ns) = rec.time("telemetry.analyze", spans, || {
        sim::analyze_spans(&processes)
    });
    timed_ns += ns;
    let (metrics, ns) = rec.time("telemetry.merged_metrics", 1, || {
        sim::fleet_merged_metrics(fleet)
    });
    timed_ns += ns;
    let mut metrics = metrics?;
    let (exposition, ns) = rec.time("telemetry.prometheus_render", 1, || {
        sim::prometheus_render(&mut metrics)
    });
    timed_ns += ns;
    let (trace, ns) = rec.time(names.perfetto, spans, || sim::fleet_chrome_trace(fleet));
    timed_ns += ns;
    let trace = trace?;

    let prefix = names.counts;
    rec.count(&format!("{prefix}.spans"), spans);
    rec.count(
        &format!("{prefix}.evicted"),
        sim::telemetry_evicted(&metrics),
    );
    rec.count(&format!("{prefix}.perfetto_bytes"), trace.len() as u64);
    Ok(AuditExports {
        timed_ns,
        evicted: sim::telemetry_evicted(&metrics),
        journeys: sim::analysis_journeys(&analysis),
        exposition: sim::prometheus_validate(&exposition),
        rendered: vec![
            sim::analysis_render(&analysis).into_bytes(),
            exposition.into_bytes(),
            trace.into_bytes(),
        ],
    })
}

/// `mesh_rolling`: auth → kv:put → kv:get → sql:insert journeys while a
/// rolling front wave and a KV replica rejuvenation fire.
pub fn mesh_rep(shape: &MeshShape, seed: u64, rec: &mut Recorder) -> Res<Rep> {
    let ((load, plan), inputs_ns) = rec.time("workloads.inputs", 1, || {
        (shape.load(), sim::mesh_rolling_plan(shape, true))
    });
    let (mesh, boot_ns) = rec.time("mesh.new", 1, || sim::mesh_boot(shape, seed, false));
    let mut mesh = mesh?;

    let (report, run_ns) = rec.time("mesh.run", shape.journeys(), || {
        sim::mesh_run(&mut mesh, &load, plan)
    });
    let report = report?;
    let (summary, reduce_ns) = rec.time("mesh.report_reduce", 1, || sim::mesh_reduce(&report));

    let mut failures = Vec::new();
    check(&mut failures, summary.journeys == shape.journeys(), || {
        format!(
            "{} journey outcomes (acked + failed), expected {}",
            summary.journeys,
            shape.journeys()
        )
    });
    check(&mut failures, summary.acked_with_failed_stage == 0, || {
        format!(
            "{} acked journeys have a failed stage",
            summary.acked_with_failed_stage
        )
    });
    rec.count("mesh.hops_attempted", summary.hops_attempted);
    rec.count("mesh.hops_ok", summary.hops_ok);
    rec.count("mesh.hops_cached", summary.hops_cached);

    Ok(Rep {
        ops: summary.journeys,
        ok_ops: summary.acked,
        setup_ns: inputs_ns + boot_ns,
        timed_ns: run_ns + reduce_ns,
        virt_p99_us: summary.p99_us,
        virt_samples: summary.latency_samples,
        virt_span_s: summary.span_s,
        digest: digest_of(&[summary.rendered.as_bytes()]),
        component_reboots: summary.component_reboots,
        failures,
    })
}

/// `single_recovery`: four lone systems, each serving its Fig. 7 load while
/// the whole system is rejuvenated every 50 ms of virtual time. The paper's
/// mechanism (checkpoint restore, log replay, funclog shrink) does the work.
pub fn single_rep(plans: &[LonePlan], seed: u64, twin: bool, rec: &mut Recorder) -> Res<Rep> {
    let mut setup_ns = 0;
    let mut systems = Vec::with_capacity(plans.len());
    for plan in plans {
        let (lone, ns) = rec.time("core.boot_system", 1, || sim::lone_boot(plan.app, seed));
        setup_ns += ns;
        let (schedule, ns) = rec.time("workloads.inputs", 1, || {
            sim::rejuvenation_schedule_ms(REJUVENATE_EVERY_MS, plan.firings)
        });
        setup_ns += ns;
        systems.push((plan, lone?, schedule));
    }

    let mut timed_ns = 0;
    let mut failures = Vec::new();
    let mut reports = Vec::with_capacity(plans.len());
    let mut component_reboots = 0;
    for (plan, lone, schedule) in &mut systems {
        let (report, ns) = rec.time(load_span(plan.app), plan.requests as u64, || {
            sim::lone_load(lone, plan.requests, schedule)
        });
        timed_ns += ns;
        reports.push((plan.app, report?));
        component_reboots += sim::lone_component_reboots(lone);
        let pending = sim::schedule_pending(schedule);
        check(&mut failures, pending == 0, || {
            format!(
                "{}: {pending} rejuvenations never came due",
                plan.app.name()
            )
        });
    }
    let (summary, ns) = rec.time("workloads.report_reduce", 1, || sim::loads_reduce(&reports));
    timed_ns += ns;
    check(&mut failures, summary.successes == summary.requests, || {
        format!("{}/{} requests served", summary.successes, summary.requests)
    });

    if twin {
        for (plan, lone, _) in &systems {
            let mut fresh = sim::lone_boot(plan.app, seed)?;
            let mut none = sim::rejuvenation_schedule_ms(REJUVENATE_EVERY_MS, 0);
            sim::lone_load(&mut fresh, plan.requests, &mut none)?;
            let (want, got) = (
                sim::lone_state_digests(&fresh),
                sim::lone_state_digests(lone),
            );
            check(&mut failures, want == got, || {
                format!(
                    "{}: state digests differ from the fault-free twin: {got:x?} vs {want:x?}",
                    plan.app.name()
                )
            });
        }
    }

    Ok(Rep {
        ops: summary.requests,
        ok_ops: summary.successes,
        setup_ns,
        timed_ns,
        virt_p99_us: summary.p99_us,
        virt_samples: summary.latency_samples,
        virt_span_s: summary.span_s,
        digest: digest_of(&[
            summary.rendered.as_bytes(),
            &component_reboots.to_le_bytes(),
        ]),
        component_reboots,
        failures,
    })
}

fn load_span(app: AppKind) -> &'static str {
    match app {
        AppKind::Kv => "workloads.load.kv",
        AppKind::Sql => "workloads.load.sql",
        AppKind::Http => "workloads.load.httpd",
        AppKind::Echo => "workloads.load.echo",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn full_sizes_are_the_documented_ones() {
        let ops: Vec<u64> = Workload::ALL.into_iter().map(nominal_ops).collect();
        assert_eq!(ops, [131_072, 16_384, 16_384, 130_000]);
    }
}
