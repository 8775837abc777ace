//! The crash-only oracle (Microreboot: the recovery path *is* the boot path,
//! or it rots): a system brought back by any recovery path from an idle
//! state is the system a fresh boot builds, for every component set and
//! every VampOS mode.

use vampos_core::{ComponentSet, Mode, RecoveryPhase, SpanKind, System, TelemetrySink};
use vampos_oslib::{Lwip, NinePFs, OpenFlags, Vfs};
use vampos_ukernel::ComponentBox;

const SETS: [fn() -> ComponentSet; 4] = [
    ComponentSet::sqlite,
    ComponentSet::nginx,
    ComponentSet::redis,
    ComponentSet::echo,
];
const MODES: [fn() -> Mode; 4] = [
    Mode::vampos_das,
    Mode::vampos_fsm,
    Mode::vampos_netm,
    Mode::vampos_noop,
];

fn boot(set: &ComponentSet, mode: &Mode) -> System {
    System::builder()
        .components(set.clone())
        .mode(mode.clone())
        .build()
        .expect("boot")
}

/// What a recovery must reproduce, per component: logical state, live log
/// entries and the host bytes behind the arena. `AgingEntry::rejuvenations`
/// is left out on purpose: it counts reboots over the system's lifetime, so
/// a recovered system differs from a fresh one there by design.
fn image(sys: &System) -> Vec<(String, Option<u64>, usize, Option<usize>)> {
    let entry = |name: String| {
        let digest = sys.state_digest(&name);
        let resident = sys.arena_resident_bytes(&name);
        (name.clone(), digest, sys.log_len(&name), resident)
    };
    sys.component_names().into_iter().map(entry).collect()
}

/// A stateful built-in whose constructor `vampos_oslib` exports, fresh.
fn fresh(component: &str) -> Option<ComponentBox> {
    match component {
        "vfs" => Some(Box::new(Vfs::new())),
        "9pfs" => Some(Box::new(NinePFs::new())),
        "lwip" => Some(Box::new(Lwip::new())),
        _ => None,
    }
}

/// Pipe traffic everywhere, file traffic where a 9P root is mounted; every
/// descriptor is closed again, so the system ends idle but aged.
fn churn(sys: &mut System) {
    let (rd, wr) = sys.os().pipe().expect("pipe");
    sys.os().write(wr, b"through the pipe").expect("pipe write");
    assert_eq!(sys.os().read(rd, 64).expect("pipe read").len(), 16);
    sys.os().close(rd).expect("close");
    sys.os().close(wr).expect("close");
    if sys.component_set().contains("9pfs") {
        let flags = OpenFlags::RDWR | OpenFlags::CREAT;
        let fd = sys.os().open("/churn.db", flags).expect("open");
        sys.os().write(fd, b"page0page1").expect("write");
        sys.os().fsync(fd).expect("fsync");
        sys.os().close(fd).expect("close");
    }
}

fn for_every_configuration(check: impl Fn(&ComponentSet, &Mode, &str)) {
    for set in SETS.map(|set| set()) {
        for mode in MODES.map(|mode| mode()) {
            let label = format!("{} / {}", set.name(), mode.label());
            check(&set, &mode, &label);
        }
    }
}

#[test]
fn a_system_recovered_from_idle_is_a_freshly_booted_one() {
    for_every_configuration(|set, mode, label| {
        let fresh_boot = image(&boot(set, mode));

        let mut sys = boot(set, mode);
        sys.full_reboot().expect("full reboot");
        assert_eq!(image(&sys), fresh_boot, "{label}: full_reboot");
        sys.rejuvenate_all().expect("rejuvenation");
        assert_eq!(
            image(&sys),
            fresh_boot,
            "{label}: full_reboot + rejuvenate_all"
        );

        let mut sys = boot(set, mode);
        sys.rejuvenate_all().expect("rejuvenation");
        assert_eq!(image(&sys), fresh_boot, "{label}: rejuvenate_all");

        for component in set.components() {
            let Some(replacement) = fresh(component) else {
                continue;
            };
            let mut sys = boot(set, mode);
            sys.update_component(component, replacement)
                .expect("update");
            assert_eq!(image(&sys), fresh_boot, "{label}: update of {component}");
        }
    });
}

#[test]
fn a_full_reboot_of_an_aged_system_is_a_fresh_boot() {
    for_every_configuration(|set, mode, label| {
        let fresh_boot = image(&boot(set, mode));
        let mut sys = boot(set, mode);
        for _ in 0..2 {
            churn(&mut sys);
            sys.rejuvenate_all().expect("rejuvenation");
        }
        churn(&mut sys);
        sys.full_reboot().expect("full reboot");
        assert_eq!(image(&sys), fresh_boot, "{label}");
    });
}

/// What the hub and the counters saw of one recovery of `component`.
fn recovery_record(
    set: &ComponentSet,
    mode: &Mode,
    recover: impl FnOnce(&mut System),
) -> (u64, u64, Vec<String>) {
    let sink = TelemetrySink::default();
    let mut sys = System::builder()
        .components(set.clone())
        .mode(mode.clone())
        .telemetry(sink.clone())
        .build()
        .expect("boot");
    churn(&mut sys);
    recover(&mut sys);
    let phases = sink.with(|hub| {
        hub.spans()
            .filter(|s| s.kind() == SpanKind::Phase)
            .map(|s| s.name().to_string())
            .collect()
    });
    let stats = sys.stats();
    (stats.component_reboots, stats.replayed_entries, phases)
}

#[test]
fn an_update_to_the_same_implementation_is_a_reboot() {
    for_every_configuration(|set, mode, label| {
        for component in set.components() {
            let Some(replacement) = fresh(component) else {
                continue;
            };
            let rebooted = recovery_record(set, mode, |sys| {
                sys.reboot_component(component).expect("reboot");
            });
            let updated = recovery_record(set, mode, |sys| {
                sys.update_component(component, replacement)
                    .expect("update");
            });
            assert_eq!(updated, rebooted, "{label}: {component}");
            assert_eq!(rebooted.0, 1, "{label}: {component}");
            for phase in RecoveryPhase::ALL {
                assert!(
                    updated.2.iter().any(|name| name == phase.name()),
                    "{label}: update of {component} has no {} phase",
                    phase.name()
                );
            }
        }
    });
}
