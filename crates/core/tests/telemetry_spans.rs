//! Integration tests of the telemetry layer over the real component stack:
//! recovery-span structure (one span per reboot, four ordered phases),
//! trigger attribution, deterministic export, sink neutrality and the
//! runtime's own counters.

use vampos_core::{
    ComponentSet, InjectedFault, Mode, RecoveryPhase, SpanKind, System, TelemetrySink,
};
use vampos_oslib::vfs::OpenFlags;
use vampos_oslib::{NinePFs, Vfs};
use vampos_telemetry::validate_exposition;

fn instrumented() -> (System, TelemetrySink) {
    let sink = TelemetrySink::default();
    let sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .seed(7)
        .telemetry(sink.clone())
        .build()
        .expect("boot");
    (sys, sink)
}

/// File I/O through an injected 9PFS panic (fault-triggered recovery) and
/// an administrative VFS reboot — two full recoveries, different triggers.
fn drive(sys: &mut System) {
    let fd = sys
        .os()
        .open("/spans.db", OpenFlags::RDWR | OpenFlags::CREAT)
        .expect("open");
    sys.os().write(fd, b"before").expect("write");
    sys.inject_fault(InjectedFault::panic_next("9pfs"));
    sys.os().write(fd, b"across the fault").expect("write");
    sys.reboot_component("vfs").expect("admin reboot");
    sys.os().write(fd, b"after").expect("write");
    sys.os().close(fd).expect("close");
}

#[test]
fn every_reboot_yields_one_recovery_span_with_four_ordered_phases() {
    let (mut sys, sink) = instrumented();
    drive(&mut sys);
    let reboots = sys.stats().component_reboots;
    assert_eq!(reboots, 2, "one fault-triggered + one admin reboot");

    sink.with(|hub| {
        let recoveries: Vec<_> = hub
            .spans()
            .filter(|s| s.kind() == SpanKind::Recovery)
            .collect();
        // DaS runs every component in its own group, so one recovery span
        // per rebooted component.
        assert_eq!(recoveries.len() as u64, reboots);

        let expected: Vec<&str> = RecoveryPhase::ALL.iter().map(|p| p.name()).collect();
        for recovery in &recoveries {
            let phases: Vec<_> = hub
                .spans()
                .filter(|s| s.kind() == SpanKind::Phase && s.parent() == Some(recovery.id))
                .collect();
            let names: Vec<&str> = phases.iter().map(|p| p.name()).collect();
            assert_eq!(
                names,
                expected,
                "recovery of {:?} must decompose into the four phases in order",
                recovery.track()
            );
            for pair in phases.windows(2) {
                assert!(
                    pair[0].end <= pair[1].start,
                    "phases {:?} and {:?} overlap",
                    pair[0].name(),
                    pair[1].name()
                );
            }
            for phase in &phases {
                assert!(
                    recovery.start <= phase.start && phase.end <= recovery.end,
                    "phase {:?} escapes its recovery span",
                    phase.name()
                );
            }
        }
    });
}

#[test]
fn recovery_spans_carry_their_trigger() {
    let (mut sys, sink) = instrumented();
    drive(&mut sys);
    sink.with(|hub| {
        let trigger = |track: &str| -> String {
            hub.spans()
                .find(|s| s.kind() == SpanKind::Recovery && s.track() == track)
                .and_then(|s| s.attrs.iter().find(|(k, _)| *k == "trigger"))
                .map(|(_, v)| v.to_string())
                .unwrap_or_else(|| panic!("no recovery span for {track}"))
        };
        assert_eq!(trigger("9pfs"), "panic");
        assert_eq!(trigger("vfs"), "admin");
    });
}

#[test]
fn mpk_denials_land_as_instants_and_trigger_an_attributed_recovery() {
    let (mut sys, sink) = instrumented();
    sys.trigger_wild_write("9pfs", "vfs")
        .expect_err("isolation must catch the wild write");
    sink.with(|hub| {
        let denial = hub
            .instants()
            .find(|i| i.name() == "mpk_denial")
            .expect("denial recorded as an instant");
        let recovery = hub
            .spans()
            .find(|s| s.kind() == SpanKind::Recovery && s.track() == "9pfs")
            .expect("the denial reboots the faulting component");
        assert!(
            denial.at <= recovery.start,
            "detection precedes the recovery span"
        );
        let trigger = recovery.attrs.iter().find(|(k, _)| *k == "trigger");
        assert_eq!(trigger.and_then(|(_, v)| v.text()), Some("mpk-violation"));
    });
}

#[test]
fn exports_are_byte_identical_across_identical_runs() {
    let render = || {
        let (mut sys, sink) = instrumented();
        drive(&mut sys);
        (
            sink.with(|hub| hub.chrome_trace_json()),
            sink.with(|hub| hub.prometheus_text()),
            sink.with(|hub| hub.metrics_json()),
        )
    };
    let (trace_a, prom_a, json_a) = render();
    let (trace_b, prom_b, json_b) = render();
    assert_eq!(trace_a, trace_b);
    assert_eq!(prom_a, prom_b);
    assert_eq!(json_a, json_b);
    validate_exposition(&prom_a).expect("exposition format");
    assert!(trace_a.contains("\"checkpoint_restore\""));
    assert!(prom_a.contains("vampos_component_reboots_total"));
}

/// What a run leaves behind on the system itself: clock, statistics, the
/// per-component counters and every state digest.
fn observables(sys: &System) -> String {
    let components: Vec<_> = sys
        .component_names()
        .into_iter()
        .map(|c| (sys.component_counters(&c), sys.state_digest(&c), c))
        .collect();
    format!("{} {:?} {components:?}", sys.clock().now(), sys.stats())
}

#[test]
fn a_sink_perturbs_nothing() {
    let (mut with_sink, _sink) = instrumented();
    drive(&mut with_sink);
    let mut without_sink = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .seed(7)
        .build()
        .expect("boot");
    drive(&mut without_sink);
    assert_eq!(observables(&with_sink), observables(&without_sink));
}

/// Checks every component's counters against what the hub recorded: call
/// spans on its track, recovery spans whose `+`-joined label names it.
fn assert_counters_match_the_hub(sys: &System, sink: &TelemetrySink) {
    sink.with(|hub| {
        for component in sys.component_names() {
            let counters = sys.component_counters(&component).expect("linked");
            let calls = hub
                .spans()
                .filter(|s| s.kind() == SpanKind::Call && *s.track() == *component)
                .count();
            let recoveries = hub
                .spans()
                .filter(|s| s.kind() == SpanKind::Recovery)
                .filter(|s| s.track().split('+').any(|member| member == component))
                .count();
            assert_eq!(counters.hops, calls as u64, "hops of {component}");
            assert_eq!(
                counters.recoveries, recoveries as u64,
                "recoveries of {component}"
            );
        }
        let denials = hub.instants().filter(|i| i.name() == "mpk_denial").count();
        assert_eq!(sys.stats().mpk_violations, denials as u64);
    });
}

#[test]
fn counters_equal_the_hubs_span_counts() {
    let (mut sys, sink) = instrumented();
    drive(&mut sys);
    sys.trigger_wild_write("9pfs", "vfs")
        .expect_err("isolation must catch the wild write");
    // Aborted recoveries open a span and count like completed ones.
    sys.arm_reboot_interrupt("9pfs");
    sys.reboot_component("9pfs")
        .expect_err("interrupted reboot");
    sys.corrupt_boot_checkpoint("vfs");
    sys.reboot_component("vfs").expect_err("corrupt checkpoint");
    assert_eq!(sys.component_counters("vfs").unwrap().recoveries, 2);
    assert_eq!(sys.component_counters("9pfs").unwrap().recoveries, 3);
    assert_eq!(sys.stats().mpk_violations, 1);
    assert_eq!(sys.component_counters("nope"), None);
    assert_counters_match_the_hub(&sys, &sink);

    // A composite reboot is one span and one recovery per member.
    let sink = TelemetrySink::default();
    let mut merged = System::builder()
        .mode(Mode::vampos_fsm())
        .components(ComponentSet::sqlite())
        .telemetry(sink.clone())
        .build()
        .expect("boot");
    let outcome = merged.reboot_component("vfs").expect("composite reboot");
    assert_eq!(outcome.component, "vfs+9pfs");
    for member in ["vfs", "9pfs"] {
        assert_eq!(merged.component_counters(member).unwrap().recoveries, 1);
    }
    assert_counters_match_the_hub(&merged, &sink);

    // A version swap and an update are recoveries on the same path: one
    // span and one count each, under their own trigger.
    let sink = TelemetrySink::default();
    let mut sys = System::builder()
        .components(ComponentSet::sqlite())
        .alternate(Box::new(NinePFs::new()))
        .telemetry(sink.clone())
        .build()
        .expect("boot");
    sys.inject_fault(InjectedFault::panic_deterministic("9pfs"));
    sys.os().create("/swapped").expect("the alternate serves");
    sys.update_component("vfs", Box::new(Vfs::new()))
        .expect("update");
    assert_eq!(sys.stats().version_swaps, 1);
    assert_eq!(sys.stats().component_reboots, 3);
    assert_eq!(sys.component_counters("9pfs").unwrap().recoveries, 2);
    assert_eq!(sys.component_counters("vfs").unwrap().recoveries, 1);
    assert_counters_match_the_hub(&sys, &sink);
    let triggers: Vec<String> = sink.with(|hub| {
        hub.spans()
            .filter(|s| s.kind() == SpanKind::Recovery)
            .flat_map(|s| s.attrs.iter().find(|(k, _)| *k == "trigger"))
            .map(|(_, trigger)| trigger.to_string())
            .collect()
    });
    assert_eq!(triggers, ["panic", "version-swap", "update"]);
}
