//! Campaign execution: boot a fresh simulated system, drive the workload
//! with the spec's disruption schedule, and collect every observable the
//! oracles compare.
//!
//! A campaign is always executed twice from identical initial conditions —
//! once with the schedule (the *faulted* run) and once without (the
//! *fault-free twin*). Both runs issue exactly the same count-based request
//! stream, so any divergence in logical state is attributable to recovery,
//! not to clock-dependent load generation.

use std::collections::{BTreeMap, BTreeSet};

use vampos_apps::{App, Echo, MiniHttpd, MiniKv, MiniSql};
use vampos_core::{ComponentSet, Mode, System};
use vampos_host::HostHandle;
use vampos_sim::Nanos;
use vampos_telemetry::TelemetrySink;
use vampos_ukernel::OsError;
use vampos_workloads::{EchoLoad, HttpLoad, KvLoad, LoadReport, Schedule, SqlLoad};

use crate::spec::{CampaignSpec, WorkloadKind};

/// Quiesce requests appended after the main stream (also the [`CampaignSpec::tail`]
/// default the generator uses).
pub const DEFAULT_TAIL: usize = 16;

/// Everything one run exposes to the oracles.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Successful requests in the main + tail stream (plant excluded).
    pub successes: usize,
    /// Total requests issued in the main + tail stream.
    pub requests: usize,
    /// Client reconnects the drive performed.
    pub reconnects: u64,
    /// The application's logical state digest after the run quiesced.
    pub app_digest: u64,
    /// Per-component state digests (every field; `BootImage::state_digest`).
    pub component_digests: BTreeMap<String, u64>,
    /// Components that went through a reboot (composite labels split).
    pub rebooted_components: BTreeSet<String>,
    /// MPK policy violations the runtime counted.
    pub mpk_violations: u64,
    /// Downtime windows, in order (component name, duration).
    pub downtime: Vec<(String, Nanos)>,
    /// Component reboots performed.
    pub component_reboots: u64,
    /// Full reboots performed.
    pub full_reboots: u64,
    /// Log entries replayed across all restorations.
    pub replayed_entries: u64,
    /// Armed faults that never fired (fired == 0) by the end of the run.
    pub unfired_faults: Vec<String>,
    /// Scheduled disruptions that never came due.
    pub pending_disruptions: usize,
    /// Total arena bytes (sizes the snapshot-restore term of the recovery
    /// cost bound).
    pub arena_bytes: usize,
    /// Message hops per target component (the generator's exercise probe).
    pub hops_by_target: BTreeMap<String, u64>,
    /// Virtual time the main drive covered, relative to its own start
    /// (boot and plant excluded). Schedules fire on this same relative
    /// clock, so the generator sizes its event window from it.
    pub duration: Nanos,
    /// A drive-level error (fail-stop, storage error), if any. The run
    /// still reports whatever state it reached.
    pub error: Option<String>,
}

fn component_set(workload: WorkloadKind) -> ComponentSet {
    match workload {
        WorkloadKind::Echo => ComponentSet::echo(),
        WorkloadKind::Kv => ComponentSet::redis(),
        WorkloadKind::Http => ComponentSet::nginx(),
        WorkloadKind::Sql => ComponentSet::sqlite(),
    }
}

fn build_system(spec: &CampaignSpec, sink: Option<&TelemetrySink>) -> Result<System, String> {
    let host = HostHandle::new();
    if spec.workload == WorkloadKind::Http {
        host.with(|w| w.ninep_mut().put_file("/www/index.html", &[b'x'; 180]));
    }
    let mut builder = System::builder()
        .mode(Mode::vampos_das())
        .components(component_set(spec.workload))
        .seed(spec.seed)
        .host(host);
    if let Some(sink) = sink {
        builder = builder.telemetry(sink.clone());
    }
    builder.build().map_err(|e| format!("boot failed: {e:?}"))
}

fn http_load() -> HttpLoad {
    HttpLoad {
        clients: 1,
        duration: Nanos::ZERO, // unused by run_requests
        think_time: Nanos::from_millis(5),
        path: "/index.html".to_owned(),
        remote: false,
    }
}

/// Boots `app` and drives `main` under `schedule` — and, for a planted
/// run, `planted` under an empty one — booking the main stream's report
/// and the app's final digest into `result`.
fn drive<A: App>(
    sys: &mut System,
    mut app: A,
    schedule: &mut Schedule,
    plant: bool,
    result: &mut RunResult,
    main: impl FnOnce(&mut System, &mut A, &mut Schedule) -> Result<LoadReport, OsError>,
    planted: impl FnOnce(&mut System, &mut A, &mut Schedule) -> Result<LoadReport, OsError>,
) -> Result<(), String> {
    app.boot(sys)
        .map_err(|e| format!("app boot failed: {e:?}"))?;
    let report = main(sys, &mut app, schedule).map_err(|e| format!("drive failed: {e:?}"))?;
    result.successes = report.successes();
    result.reconnects = report.reconnects;
    result.duration = report.duration;
    if plant {
        planted(sys, &mut app, &mut Schedule::default())
            .map_err(|e| format!("plant failed: {e:?}"))?;
    }
    result.app_digest = app.state_digest();
    Ok(())
}

/// Runs one spec. `faulted` selects whether the schedule (and the planted
/// extra request) apply; the twin is the same call with `faulted = false`.
pub fn run(spec: &CampaignSpec, faulted: bool) -> RunResult {
    run_with_sink(spec, faulted, None)
}

/// [`run`] with an optional telemetry sink attached to the simulated
/// system. The sink observes every cross-component call, syscall, and
/// recovery the run performs; virtual time makes the collected spans
/// byte-identical across repeated executions of the same spec.
pub fn run_with_sink(
    spec: &CampaignSpec,
    faulted: bool,
    sink: Option<&TelemetrySink>,
) -> RunResult {
    let disruptions = if faulted {
        spec.events.clone()
    } else {
        Vec::new()
    };
    let mut schedule = Schedule::new(disruptions);
    let plant = faulted && spec.plant;
    let requests = spec.ops + spec.tail;

    let mut result = RunResult {
        requests,
        ..RunResult::default()
    };

    let mut sys = match build_system(spec, sink) {
        Ok(sys) => sys,
        Err(e) => {
            result.error = Some(e);
            return result;
        }
    };

    // Each arm builds its app, the main load and the planted extra request.
    let echo = |messages| EchoLoad {
        messages,
        ..EchoLoad::default()
    };
    let sql = |inserts| SqlLoad {
        inserts,
        item_len: 1,
    };
    let drive_outcome = match spec.workload {
        WorkloadKind::Echo => drive(
            &mut sys,
            Echo::new(),
            &mut schedule,
            plant,
            &mut result,
            |sys, app, schedule| echo(requests).run_with_disruptions(sys, app, schedule),
            |sys, app, schedule| echo(1).run_with_disruptions(sys, app, schedule),
        ),
        WorkloadKind::Kv => drive(
            &mut sys,
            MiniKv::new(spec.aof),
            &mut schedule,
            plant,
            &mut result,
            |sys, app, schedule| {
                KvLoad::default().run_sets_with_disruptions(sys, app, requests, schedule)
            },
            // A longer value for key 0000 than the main stream writes:
            // guaranteed to change the stored bytes.
            |sys, app, schedule| {
                KvLoad {
                    value_len: KvLoad::default().value_len + 2,
                    ..KvLoad::default()
                }
                .run_sets_with_disruptions(sys, app, 1, schedule)
            },
        ),
        WorkloadKind::Http => drive(
            &mut sys,
            MiniHttpd::default(),
            &mut schedule,
            plant,
            &mut result,
            |sys, app, schedule| http_load().run_requests(sys, app, requests, schedule),
            |sys, app, schedule| http_load().run_requests(sys, app, 1, schedule),
        ),
        WorkloadKind::Sql => drive(
            &mut sys,
            MiniSql::new(),
            &mut schedule,
            plant,
            &mut result,
            |sys, app, schedule| sql(requests).run_with_disruptions(sys, app, schedule),
            // Re-insert row 0: a duplicate row the twin lacks.
            |sys, app, schedule| sql(1).run_with_disruptions(sys, app, schedule),
        ),
    };
    result.error = drive_outcome.err();

    // Harvest system-side observables (even after a drive error — the
    // counters still tell the oracles what happened before the failure).
    for name in sys.component_names() {
        let counters = sys.component_counters(&name).unwrap_or_default();
        if counters.recoveries > 0 {
            result.rebooted_components.insert(name.clone());
        }
        if counters.hops > 0 {
            result.hops_by_target.insert(name.clone(), counters.hops);
        }
        if let Some(d) = sys.state_digest(&name) {
            result.component_digests.insert(name, d);
        }
    }
    let stats = sys.stats();
    result.mpk_violations = stats.mpk_violations;
    result.component_reboots = stats.component_reboots;
    result.full_reboots = stats.full_reboots;
    result.replayed_entries = stats.replayed_entries;
    result.downtime = stats
        .downtime
        .iter()
        .map(|w| (w.component.to_string(), w.duration()))
        .collect();
    result.unfired_faults = sys
        .armed_faults()
        .iter()
        .filter(|f| f.fired == 0)
        .map(|f| format!("{:?} on {}", f.kind, f.component))
        .collect();
    result.pending_disruptions = schedule.pending();
    result.arena_bytes = sys.memory_report().arenas;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_workloads::Disruption;

    fn base(workload: WorkloadKind) -> CampaignSpec {
        CampaignSpec {
            workload,
            seed: 7,
            campaign: 0,
            ops: 24,
            tail: 8,
            aof: false,
            plant: false,
            events: Vec::new(),
        }
    }

    #[test]
    fn clean_runs_are_fully_successful_for_every_workload() {
        for workload in WorkloadKind::ALL {
            let r = run(&base(workload), false);
            assert_eq!(r.error, None, "{workload:?}");
            assert_eq!(r.successes, r.requests, "{workload:?}");
            assert_eq!(r.mpk_violations, 0, "{workload:?}");
            assert_eq!(r.component_reboots, 0, "{workload:?}");
        }
    }

    #[test]
    fn twin_runs_are_bit_identical() {
        for workload in WorkloadKind::ALL {
            let a = run(&base(workload), false);
            let b = run(&base(workload), false);
            assert_eq!(a.app_digest, b.app_digest, "{workload:?}");
            assert_eq!(a.component_digests, b.component_digests, "{workload:?}");
            assert_eq!(a.duration, b.duration, "{workload:?}");
        }
    }

    #[test]
    fn faulted_flag_controls_the_schedule() {
        let mut spec = base(WorkloadKind::Kv);
        spec.events
            .push(Disruption::component_reboot(Nanos::from_nanos(1), "vfs"));
        let twin = run(&spec, false);
        assert_eq!(twin.component_reboots, 0);
        let faulted = run(&spec, true);
        assert_eq!(faulted.component_reboots, 1);
        assert!(faulted.rebooted_components.contains("vfs"));
        // The reboot was invisible to the application.
        assert_eq!(faulted.app_digest, twin.app_digest);
        assert_eq!(faulted.successes, twin.successes);
    }

    #[test]
    fn plant_changes_the_app_digest_only_in_the_faulted_run() {
        for workload in WorkloadKind::ALL {
            let mut spec = base(workload);
            spec.plant = true;
            let twin = run(&spec, false);
            let faulted = run(&spec, true);
            assert_ne!(faulted.app_digest, twin.app_digest, "{workload:?}");
        }
    }

    #[test]
    fn exercise_probe_sees_message_hops() {
        let r = run(&base(WorkloadKind::Kv), false);
        assert!(
            r.hops_by_target.contains_key("lwip"),
            "hops: {:?}",
            r.hops_by_target
        );
    }
}
