//! Integration tests of the telemetry layer over the real component stack:
//! recovery-span structure (one span per reboot, four ordered phases),
//! trigger attribution, deterministic export, and legacy-trace neutrality.

use vampos_core::{
    ComponentSet, InjectedFault, Mode, RecoveryPhase, SpanKind, System, TelemetrySink,
};
use vampos_oslib::vfs::OpenFlags;
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
            .filter(|s| s.kind == SpanKind::Recovery)
            .collect();
        // DaS runs every component in its own group, so one recovery span
        // per rebooted component.
        assert_eq!(recoveries.len() as u64, reboots);

        let expected: Vec<&str> = RecoveryPhase::ALL.iter().map(|p| p.name()).collect();
        for recovery in &recoveries {
            let phases: Vec<_> = hub
                .spans()
                .filter(|s| s.kind == SpanKind::Phase && s.parent == Some(recovery.id))
                .collect();
            let names: Vec<&str> = phases.iter().map(|p| &*p.name).collect();
            assert_eq!(
                names, expected,
                "recovery of {:?} must decompose into the four phases in order",
                recovery.track
            );
            for pair in phases.windows(2) {
                assert!(
                    pair[0].end <= pair[1].start,
                    "phases {:?} and {:?} overlap",
                    pair[0].name,
                    pair[1].name
                );
            }
            for phase in &phases {
                assert!(
                    recovery.start <= phase.start && phase.end <= recovery.end,
                    "phase {:?} escapes its recovery span",
                    phase.name
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
                .find(|s| s.kind == SpanKind::Recovery && &*s.track == track)
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
            .find(|i| &*i.name == "mpk_denial")
            .expect("denial recorded as an instant");
        let recovery = hub
            .spans()
            .find(|s| s.kind == SpanKind::Recovery && &*s.track == "9pfs")
            .expect("the denial reboots the faulting component");
        assert!(
            denial.at <= recovery.start,
            "detection precedes the recovery span"
        );
        let trigger = recovery.attrs.iter().find(|(k, _)| *k == "trigger");
        assert_eq!(trigger.map(|(_, v)| v.as_str()), Some("mpk-violation"));
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

#[test]
fn the_legacy_event_trace_is_unchanged_by_the_sink() {
    let (mut with_sink, _sink) = instrumented();
    drive(&mut with_sink);
    let mut without_sink = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .seed(7)
        .build()
        .expect("boot");
    drive(&mut without_sink);
    let a: Vec<_> = with_sink.trace().iter().cloned().collect();
    let b: Vec<_> = without_sink.trace().iter().cloned().collect();
    assert_eq!(a, b, "telemetry must not perturb the legacy ring buffer");
    assert_eq!(
        with_sink.state_digest("vfs"),
        without_sink.state_digest("vfs")
    );
}
