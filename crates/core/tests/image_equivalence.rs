//! A system booted from a shared [`Image`] is the system a standalone
//! build makes: the image holds only what its configuration fixes, and
//! every boot from it does the per-system work — and charges the clock —
//! exactly as a standalone build does.

use std::rc::Rc;

use vampos_core::{ComponentSet, Image, MemoryReport, Mode, System};
use vampos_mem::ArenaLayout;
use vampos_mpk::Pkru;
use vampos_oslib::funcs::process;
use vampos_sim::{Nanos, SimClock};
use vampos_ukernel::{CallContext, Component, ComponentDescriptor, FnDecl, FnId, OsError, Value};

fn sets() -> [ComponentSet; 4] {
    [
        ComponentSet::sqlite(),
        ComponentSet::nginx(),
        ComponentSet::redis(),
        ComponentSet::echo(),
    ]
}

fn modes() -> [Mode; 5] {
    [
        Mode::vampos_das(),
        Mode::vampos_noop(),
        Mode::vampos_fsm(),
        Mode::vampos_netm(),
        Mode::unikraft(),
    ]
}

/// Per component: its name, state digest, PKRU and log length.
type Components = Vec<(String, Option<u64>, Pkru, usize)>;

/// What a freshly booted system shows: its components, when it finished
/// booting and its memory.
fn observe(sys: &mut System) -> (Components, Nanos, MemoryReport) {
    let components = sys
        .component_names()
        .into_iter()
        .map(|name| {
            let pkru = sys.pkru_for(&name).expect("linked component");
            let (digest, log_len) = (sys.state_digest(&name), sys.log_len(&name));
            (name, digest, pkru, log_len)
        })
        .collect();
    (components, sys.booted_at(), sys.memory_report())
}

#[test]
fn systems_booted_from_one_image_equal_standalone_builds() {
    for set in sets() {
        for mode in modes() {
            let image = Rc::new(Image::new(set.clone(), mode.clone()).expect("image"));
            let shared = SimClock::default();
            let standalone = SimClock::default();
            for twin in 0..2 {
                let mut from_image = System::builder()
                    .image(Rc::clone(&image))
                    .clock(shared.clone())
                    .build()
                    .expect("boot from the image");
                let mut built = System::builder()
                    .mode(mode.clone())
                    .components(set.clone())
                    .clock(standalone.clone())
                    .build()
                    .expect("standalone build");
                let what = format!("{} / {} #{twin}", set.name(), mode.label());
                assert_eq!(observe(&mut from_image), observe(&mut built), "{what}");
                assert_eq!(shared.now(), standalone.now(), "{what}: clock after boot");
                assert_eq!(from_image.mode(), image.mode(), "{what}");
                assert_eq!(from_image.component_set(), image.component_set());
            }
        }
    }
}

/// A stateful component without checkpoint-based init (VAMP-E201).
#[derive(Clone, Hash)]
struct NoCheckpoint {
    desc: ComponentDescriptor,
}

impl Component for NoCheckpoint {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }
    fn call(
        &mut self,
        _ctx: &mut dyn CallContext,
        _func: FnId,
        _args: &[Value],
    ) -> Result<Value, OsError> {
        Ok(Value::Unit)
    }
}

#[test]
fn an_image_with_error_findings_refuses_every_boot_unless_allowed() {
    let broken = NoCheckpoint {
        desc: ComponentDescriptor::new("nockpt", ArenaLayout::small())
            .stateful()
            .interface(&[FnDecl::new("poke").logged()]),
    };
    let image = Image::with_extras(
        ComponentSet::echo(),
        Mode::vampos_das(),
        vec![Box::new(broken)],
    )
    .expect("an image is built whatever its analysis finds");
    assert!(!image.report().is_clean());
    let image = Rc::new(image);
    for _ in 0..2 {
        let refused = System::builder().image(Rc::clone(&image)).build();
        match refused {
            Err(OsError::AnalysisRejected { errors, report }) => {
                assert_eq!(errors, image.report().error_count());
                assert!(report.contains("VAMP-E201"), "{report}");
            }
            other => panic!("expected AnalysisRejected, got {other:?}"),
        }
    }
    for _ in 0..2 {
        let mut sys = System::builder()
            .image(Rc::clone(&image))
            .allow_analysis_errors()
            .build()
            .expect("opted out");
        assert_eq!(sys.syscall("nockpt", "poke", &[]), Ok(Value::Unit));
    }
}

/// PROCESS's functions numbered in another order: `getpid` is `FnId(1)`,
/// which is `getppid` in the built-in table.
const RENUMBERED: &[FnDecl] = &[
    FnDecl::new(process::GETPPID),
    FnDecl::new(process::GETPID),
    FnDecl::new(process::GETTID),
];

/// A second version of PROCESS whose `getpid` answers [`NEW_PID`].
#[derive(Clone, Hash)]
struct RenumberedProcess {
    desc: ComponentDescriptor,
}

const NEW_PID: u64 = 7;

impl Component for RenumberedProcess {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }
    fn call(
        &mut self,
        _ctx: &mut dyn CallContext,
        func: FnId,
        _args: &[Value],
    ) -> Result<Value, OsError> {
        Ok(Value::U64(if func == FnId(1) { NEW_PID } else { 0 }))
    }
}

#[test]
fn a_swap_relinks_only_the_swapping_system() {
    let image = Rc::new(Image::new(ComponentSet::nginx(), Mode::vampos_das()).expect("image"));
    let boot = || {
        System::builder()
            .image(Rc::clone(&image))
            .build()
            .expect("boot")
    };
    let (mut swapped, mut sibling) = (boot(), boot());
    let v2 = RenumberedProcess {
        desc: ComponentDescriptor::new("process", ArenaLayout::small()).interface(RENUMBERED),
    };
    swapped
        .update_component("process", Box::new(v2))
        .expect("update");
    // The swapping system's facade reaches `getpid` at its new number…
    assert_eq!(swapped.os().getpid(), Ok(NEW_PID));
    // …and its sibling's still reaches the built-in one at its old number:
    // with the swapped system's table it would call `getppid`, which
    // answers 0.
    assert_eq!(sibling.os().getpid(), Ok(1));
    // A system booted after the swap links from the image as before.
    assert_eq!(boot().os().getpid(), Ok(1));
}
