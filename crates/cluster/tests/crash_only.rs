//! The crash-only oracle at the fleet tier: an idle instance taken through
//! any recovery the fleet performs is the instance [`Instance::boot`]
//! builds, system and application alike.

use vampos_apps::App;
use vampos_cluster::{
    EscalationLadder, Fleet, FleetConfig, FleetLoad, FleetOpKind, FleetPlan, Instance, Policy,
    RecoveryFault, Rung,
};
use vampos_sim::{Nanos, SimClock};

type Image = (Vec<(String, Option<u64>, usize, Option<usize>)>, u64);

/// Every component's logical state, live log entries and resident arena
/// bytes, plus the application's digest.
fn image(inst: &Instance) -> Image {
    let entry = |name: String| {
        let digest = inst.sys.state_digest(&name);
        let resident = inst.sys.arena_resident_bytes(&name);
        (name.clone(), digest, inst.sys.log_len(&name), resident)
    };
    let components = inst.sys.component_names().into_iter().map(entry);
    (components.collect(), inst.app.state_digest())
}

fn booted(cfg: &FleetConfig) -> Instance {
    let image = cfg.image().expect("image");
    Instance::boot(0, cfg, &image, SimClock::default()).expect("boot")
}

#[test]
fn an_instance_recovered_from_idle_is_a_freshly_booted_one() {
    let cfg = FleetConfig {
        instances: 1,
        ..FleetConfig::default()
    };
    let fresh = image(&booted(&cfg));
    let at = Nanos::from_millis(1);

    // What `Rung::Component` and a `RejuvenateComponents` op do.
    let mut inst = booted(&cfg);
    inst.rejuvenate(at).expect("rejuvenation");
    assert_eq!(image(&inst), fresh, "component rung");

    // What `Rung::Instance` and a `FullReboot` op do — here on top of the
    // component rung, the order the ladder escalates in.
    inst.full_reboot(at).expect("full reboot");
    assert_eq!(image(&inst), fresh, "component rung, then instance rung");
    let mut inst = booted(&cfg);
    inst.full_reboot(at).expect("full reboot");
    assert_eq!(image(&inst), fresh, "instance rung");

    // The same through the drive loop: a rolling full-reboot plan over an
    // idle fleet of one.
    let mut fleet = Fleet::new(cfg).expect("boot");
    let idle = FleetLoad {
        requests_per_client: 0,
        ..FleetLoad::default()
    };
    let plan = FleetPlan::rolling_full_reboot(1, Nanos::from_millis(1), Nanos::from_millis(1));
    let report = fleet
        .run(&idle, Policy::RecoveryAware, plan)
        .expect("plan run");
    assert_eq!(report.full_reboots, 1);
    assert_eq!(image(&fleet.instances()[0]), fresh, "plan full reboot");
}

/// The ladder's own rungs, fired by the drive loop: a fault on the recovery
/// plane of an otherwise idle instance fails a scheduled rejuvenation, and
/// the rung that repairs it must leave a freshly booted instance behind.
#[test]
fn the_rung_that_repairs_an_idle_instance_leaves_a_freshly_booted_one() {
    let cfg = FleetConfig {
        instances: 1,
        ..FleetConfig::default()
    };
    let fresh = image(&booted(&cfg));
    let idle = FleetLoad {
        requests_per_client: 0,
        ..FleetLoad::default()
    };
    let vfs = || "vfs".to_owned();
    // An interrupted reboot is repaired by the component rung; a corrupt
    // checkpoint defeats that rung too and takes the instance rung.
    let cases = [
        (
            RecoveryFault::RebootDuringReboot { component: vfs() },
            vec![Rung::Component],
        ),
        (
            RecoveryFault::CheckpointCorrupt { component: vfs() },
            vec![Rung::Component, Rung::Instance],
        ),
    ];
    for (fault, rungs) in cases {
        let mut plan = FleetPlan::none().with(
            Nanos::from_millis(1),
            0,
            FleetOpKind::RecoveryFault(fault.clone()),
        );
        for (i, _) in rungs.iter().enumerate() {
            let at = Nanos::from_millis(2 + i as u64);
            plan.push(at, 0, FleetOpKind::RejuvenateComponents);
        }
        let mut fleet = Fleet::new(cfg.clone()).expect("boot");
        let mut ladder = EscalationLadder::new(1).with_threshold(1);
        fleet
            .run_supervised(&idle, Policy::RecoveryAware, plan, &mut ladder)
            .expect("supervised run");
        assert_eq!(ladder.rungs_for(0), rungs, "{fault:?}");
        assert_eq!(image(&fleet.instances()[0]), fresh, "{fault:?}");
    }
}
