//! Tests for the §VIII extension features: graceful degradation,
//! multi-version component recovery, live component updates, and
//! aging-driven rejuvenation.

use vampos_core::{ComponentSet, InjectedFault, Mode, System};
use vampos_host::HostHandle;
use vampos_mem::{ArenaLayout, MemoryArena};
use vampos_oslib::vfs::OpenFlags;
use vampos_ukernel::{
    CallContext, Component, ComponentBox, ComponentDescriptor, FnDecl, FnId, OsError, RuntimeData,
    Value,
};

fn staged_host() -> HostHandle {
    let host = HostHandle::new();
    host.with(|w| w.ninep_mut().put_file("/f", &vec![b'd'; 256]));
    host
}

// ---------- graceful degradation ----------

#[test]
fn graceful_degradation_condemns_only_the_failed_component() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(staged_host())
        .graceful_degradation(true)
        .build()
        .unwrap();
    let fd = sys.os().open("/f", OpenFlags::RDWR).unwrap();

    // A deterministic fault in SYSINFO: recovery fails, but only SYSINFO
    // dies — the rest keeps serving.
    sys.inject_fault(InjectedFault::panic_deterministic("sysinfo"));
    let err = sys.os().uname().unwrap_err();
    assert!(matches!(err, OsError::FailStop { .. }));

    assert!(sys.is_degraded());
    assert!(
        !sys.has_failed(),
        "graceful mode must not fail-stop globally"
    );
    assert_eq!(sys.condemned_components(), vec!["sysinfo".to_owned()]);

    // The condemned component stays down…
    assert!(matches!(
        sys.os().uname(),
        Err(OsError::ComponentUnavailable { .. })
    ));
    // …while file I/O (the salvage path of §VIII's Redis example) works.
    assert_eq!(sys.os().read(fd, 4).unwrap(), b"dddd");
    let dump = sys.os().create("/salvage").unwrap();
    sys.os().write(dump, b"rescued state").unwrap();
    sys.os().fsync(dump).unwrap();
    assert_eq!(
        sys.host()
            .with(|w| w.ninep().read_file("/salvage"))
            .unwrap(),
        b"rescued state"
    );
}

#[test]
fn full_reboot_clears_degradation() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .graceful_degradation(true)
        .build()
        .unwrap();
    sys.inject_fault(InjectedFault::panic_deterministic("user"));
    let _ = sys.os().getuid();
    assert!(sys.is_degraded());
    sys.full_reboot().unwrap();
    assert!(!sys.is_degraded());
    assert_eq!(sys.os().getuid().unwrap(), 0);
}

#[test]
fn without_graceful_mode_the_system_fail_stops() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .build()
        .unwrap();
    sys.inject_fault(InjectedFault::panic_deterministic("user"));
    let _ = sys.os().getuid();
    assert!(sys.has_failed());
    assert!(matches!(sys.os().getpid(), Err(OsError::FailStop { .. })));
}

// ---------- multi-version components ----------

mod counter {
    vampos_ukernel::interface! {
        BUMP = "bump": logged;
        VALUE = "value": replay_safe;
    }
}

/// A counter component whose v1 has a deterministic bug in `bump`.
#[derive(Clone, Hash)]
struct Counter {
    desc: ComponentDescriptor,
    count: u64,
    buggy: bool,
}

impl Counter {
    fn new(buggy: bool) -> Self {
        Counter {
            desc: ComponentDescriptor::new("counter", ArenaLayout::small())
                .stateful()
                .checkpoint_init()
                .interface(counter::FUNCTIONS),
            count: 0,
            buggy,
        }
    }
}

impl Component for Counter {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }
    fn call(
        &mut self,
        _ctx: &mut dyn CallContext,
        func: FnId,
        _args: &[Value],
    ) -> Result<Value, OsError> {
        match func {
            counter::id::BUMP => {
                // v1's deterministic bug: the fifth increment crashes —
                // every time, including after a reboot-and-replay.
                if self.buggy && self.count == 4 {
                    return Err(OsError::Panic {
                        component: "counter".into(),
                        reason: "deterministic overflow bug in v1".into(),
                    });
                }
                self.count += 1;
                Ok(Value::U64(self.count))
            }
            counter::id::VALUE => Ok(Value::U64(self.count)),
            _ => unreachable!("counter declares no function {func:?}"),
        }
    }
}

#[test]
fn alternate_version_recovers_a_deterministic_bug() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(Counter::new(true)))
        .alternate(Box::new(Counter::new(false)))
        .build()
        .unwrap();
    for i in 1..=4 {
        assert_eq!(sys.syscall("counter", "bump", &[]).unwrap(), Value::U64(i));
    }
    // The fifth bump hits the bug; a plain reboot replays the same inputs
    // and hits it again — then the v2 alternate is swapped in, restored
    // from the log, and the call succeeds.
    assert_eq!(sys.syscall("counter", "bump", &[]).unwrap(), Value::U64(5));
    assert!(!sys.has_failed());
    assert_eq!(sys.stats().version_swaps, 1);
    assert!(sys.stats().component_reboots >= 1);
    // State carried over: the counter kept its history.
    assert_eq!(sys.syscall("counter", "value", &[]).unwrap(), Value::U64(5));
}

#[test]
fn without_an_alternate_the_deterministic_bug_fail_stops() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(Counter::new(true)))
        .build()
        .unwrap();
    for _ in 0..4 {
        sys.syscall("counter", "bump", &[]).unwrap();
    }
    assert!(matches!(
        sys.syscall("counter", "bump", &[]),
        Err(OsError::FailStop { .. })
    ));
    assert!(sys.has_failed());
}

// ---------- live component updates ----------

#[test]
fn update_component_preserves_state_across_the_swap() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(Counter::new(true)))
        .build()
        .unwrap();
    for _ in 0..3 {
        sys.syscall("counter", "bump", &[]).unwrap();
    }
    // Update v1 → v2 before the bug ever fires (a patch deployment).
    let outcome = sys
        .update_component("counter", Box::new(Counter::new(false)))
        .unwrap();
    assert_eq!(outcome.replayed, 3);
    assert_eq!(sys.stats().component_updates, 1);
    assert_eq!(sys.syscall("counter", "value", &[]).unwrap(), Value::U64(3));
    // The buggy fifth bump is gone in v2.
    sys.syscall("counter", "bump", &[]).unwrap();
    assert_eq!(sys.syscall("counter", "bump", &[]).unwrap(), Value::U64(5));
    assert!(!sys.has_failed());
}

#[test]
fn update_rejects_a_differently_named_component() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(Counter::new(true)))
        .build()
        .unwrap();
    let err = sys
        .update_component("counter", Box::new(vampos_oslib::Process::new()))
        .unwrap_err();
    assert!(matches!(err, OsError::Io(_)));
}

/// A counter that carries runtime data across reboots, and whose `picky`
/// build refuses whatever an older version extracted.
#[derive(Clone, Hash)]
struct RuntimeCounter {
    inner: Counter,
    picky: bool,
}

impl Component for RuntimeCounter {
    fn descriptor(&self) -> &ComponentDescriptor {
        self.inner.descriptor()
    }
    fn call(
        &mut self,
        ctx: &mut dyn CallContext,
        func: FnId,
        args: &[Value],
    ) -> Result<Value, OsError> {
        self.inner.call(ctx, func, args)
    }
    fn extract_runtime(&mut self) -> Option<RuntimeData> {
        Some(Box::new(std::mem::take(&mut self.inner.count)))
    }
    fn restore_runtime(
        &mut self,
        data: RuntimeData,
        _arena: &mut MemoryArena,
    ) -> Result<(), OsError> {
        if self.picky {
            return Err(OsError::Inval);
        }
        self.inner.count = *data.downcast().map_err(|_| OsError::Inval)?;
        Ok(())
    }
}

#[test]
fn a_refused_update_leaves_the_old_version_serving() {
    let runtime_counter = |picky| RuntimeCounter {
        inner: Counter::new(false),
        picky,
    };
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(runtime_counter(false)))
        .build()
        .unwrap();
    for _ in 0..3 {
        sys.syscall("counter", "bump", &[]).unwrap();
    }
    let err = sys
        .update_component("counter", Box::new(runtime_counter(true)))
        .unwrap_err();
    assert_eq!(err, OsError::Inval);
    assert!(!sys.has_failed());
    assert_eq!(sys.stats().component_updates, 0);
    assert_eq!(sys.syscall("counter", "value", &[]), Ok(Value::U64(3)));
    // And the old version still reboots from its own checkpoint and log.
    sys.reboot_component("counter").unwrap();
    assert_eq!(sys.syscall("counter", "value", &[]), Ok(Value::U64(3)));
}

#[test]
fn a_reboot_whose_runtime_restore_is_refused_keeps_the_component() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(RuntimeCounter {
            inner: Counter::new(false),
            picky: true,
        }))
        .build()
        .unwrap();
    sys.syscall("counter", "bump", &[]).unwrap();
    assert_eq!(sys.reboot_component("counter"), Err(OsError::Inval));
    // Down, not gone: the next full reboot finds a component to boot.
    assert!(matches!(
        sys.syscall("counter", "value", &[]),
        Err(OsError::ComponentUnavailable { .. })
    ));
    sys.full_reboot().unwrap();
    assert_eq!(sys.syscall("counter", "value", &[]), Ok(Value::U64(0)));
}

/// A component that overrides no hook: the calls it has served live in a
/// field no log records, which only a reboot that discards the component
/// clears.
#[derive(Clone, Hash)]
struct Tally {
    desc: ComponentDescriptor,
    calls: u64,
}

impl Component for Tally {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }
    fn call(
        &mut self,
        _ctx: &mut dyn CallContext,
        _func: FnId,
        _args: &[Value],
    ) -> Result<Value, OsError> {
        self.calls += 1;
        Ok(Value::U64(self.calls))
    }
}

#[test]
fn a_reboot_discards_state_no_hook_clears() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(Tally {
            desc: ComponentDescriptor::new("tally", ArenaLayout::small())
                .interface(&[FnDecl::new("tally")]),
            calls: 0,
        }))
        .build()
        .unwrap();
    let tally = |sys: &mut System| sys.syscall("tally", "tally", &[]);
    for i in 1..=3 {
        assert_eq!(tally(&mut sys), Ok(Value::U64(i)));
    }
    sys.reboot_component("tally").unwrap();
    assert_eq!(tally(&mut sys), Ok(Value::U64(1)));
    for _ in 0..2 {
        tally(&mut sys).unwrap();
    }
    sys.full_reboot().unwrap();
    assert_eq!(tally(&mut sys), Ok(Value::U64(1)));
}

/// Runs `work` on two systems built alike: one then reboots `component`
/// twice, the other updates it to `replacement` and reboots it once. An
/// update stores a boot image, so both must end in the same state, arena
/// bytes and aging included.
fn update_matches_two_reboots<T: PartialEq + std::fmt::Debug>(
    set: fn() -> ComponentSet,
    work: impl Fn(&mut System) -> T,
    component: &str,
    replacement: ComponentBox,
) -> [(System, T); 2] {
    let worked = || {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(set())
            .host(staged_host())
            .build()
            .unwrap();
        let out = work(&mut sys);
        (sys, out)
    };
    let (mut rebooted, rebooted_out) = worked();
    rebooted.reboot_component(component).unwrap();
    rebooted.reboot_component(component).unwrap();
    let (mut updated, updated_out) = worked();
    updated.update_component(component, replacement).unwrap();
    updated.reboot_component(component).unwrap();
    assert_eq!(updated_out, rebooted_out);

    for name in rebooted.component_names() {
        assert_eq!(
            updated.state_digest(&name),
            rebooted.state_digest(&name),
            "{name}"
        );
        assert_eq!(
            updated.arena_resident_bytes(&name),
            rebooted.arena_resident_bytes(&name),
            "{name}"
        );
    }
    assert_eq!(updated.aging_report(), rebooted.aging_report());
    assert_eq!(updated.memory_report(), rebooted.memory_report());
    [(updated, updated_out), (rebooted, rebooted_out)]
}

#[test]
fn the_checkpoint_an_update_stores_is_a_boot_image() {
    // VFS's runtime restore allocates nothing.
    let file_work = |sys: &mut System| {
        let fd = sys
            .os()
            .open("/db.sqlite", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        sys.os().write(fd, b"page0").unwrap();
        let scratch = sys.os().create("/journal").unwrap();
        sys.os().write(scratch, b"begin").unwrap();
        sys.os().close(scratch).unwrap();
        fd
    };
    let vfs = Box::new(vampos_oslib::Vfs::new());
    for (mut sys, fd) in update_matches_two_reboots(ComponentSet::sqlite, file_work, "vfs", vfs) {
        // The descriptor opened before either recovery survived both.
        assert_eq!(sys.os().write(fd, b"page1"), Ok(5));
    }

    // LWIP's allocates a block per accepted connection, which the image
    // must not hold: a later reboot would restore them as orphans.
    let accepted = |sys: &mut System| {
        let listen = sys.os().socket().unwrap();
        sys.os().bind(listen, 80).unwrap();
        sys.os().listen(listen, 8).unwrap();
        (0..4)
            .map(|_| {
                sys.host().with(|w| w.network_mut().connect(80));
                sys.os().accept(listen).unwrap()
            })
            .collect::<Vec<_>>()
    };
    let lwip = Box::new(vampos_oslib::Lwip::new());
    update_matches_two_reboots(ComponentSet::nginx, accepted, "lwip", lwip);
}

#[test]
fn an_update_replaces_a_corrupt_checkpoint() {
    let mut sys = System::builder()
        .components(ComponentSet::sqlite())
        .build()
        .unwrap();
    sys.corrupt_boot_checkpoint("vfs");
    sys.update_component("vfs", Box::new(vampos_oslib::Vfs::new()))
        .unwrap();
    sys.reboot_component("vfs").unwrap();
}

// ---------- aging-driven rejuvenation ----------

#[test]
fn aging_report_and_targeted_rejuvenation() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(staged_host())
        .build()
        .unwrap();
    sys.inject_fault(InjectedFault::leak_per_op("vfs", 2048));
    // PROCESS is not checkpoint-init: its reboot is a bare arena reset.
    sys.inject_fault(InjectedFault::leak_per_op("process", 4096));
    let fd = sys.os().open("/f", OpenFlags::RDWR).unwrap();
    for _ in 0..20 {
        sys.os().pread(fd, 8, 0).unwrap();
    }
    for _ in 0..5 {
        sys.os().getpid().unwrap();
    }
    let report = sys.aging_report();
    let vfs = report.iter().find(|e| e.component == "vfs").unwrap();
    assert!(vfs.leaked_bytes >= 20 * 2048, "leaked {}", vfs.leaked_bytes);
    let process = report.iter().find(|e| e.component == "process").unwrap();
    assert_eq!(process.leaked_bytes, 5 * 4096);
    let ninepfs = report.iter().find(|e| e.component == "9pfs").unwrap();
    assert_eq!(ninepfs.leaked_bytes, 0);

    // Targeted rejuvenation reboots exactly the aged components.
    let outcomes = sys.rejuvenate_aged(20_000).unwrap();
    let rebooted: Vec<&str> = outcomes.iter().map(|o| o.component.as_str()).collect();
    assert_eq!(rebooted, ["process", "vfs"]);
    let report = sys.aging_report();
    for name in ["process", "vfs"] {
        let entry = report.iter().find(|e| e.component == name).unwrap();
        assert_eq!(entry.leaked_bytes, 0, "{name}");
        assert_eq!(entry.rejuvenations, 1, "{name}");
    }
    // And the fd still works afterwards.
    assert_eq!(sys.os().pread(fd, 4, 0).unwrap(), b"dddd");
}

// ---------- dependency-aware scheduling model ----------

vampos_ukernel::call_sites! {
    GETPID = "process", "getpid";
    GETPPID = "process", "getppid";
}

/// A component that calls PROCESS without declaring the dependency.
#[derive(Clone, Hash)]
struct Undeclared {
    desc: ComponentDescriptor,
}

impl Undeclared {
    fn new(declare: bool) -> Self {
        let mut desc = ComponentDescriptor::new("chatty", ArenaLayout::small())
            .interface(&[FnDecl::new("relay")])
            .calls(&CALLS[..1]);
        if declare {
            desc = desc.depends_on(&["process"]);
        }
        Undeclared { desc }
    }
}

impl Component for Undeclared {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }
    fn call(
        &mut self,
        ctx: &mut dyn CallContext,
        _func: FnId,
        _args: &[Value],
    ) -> Result<Value, OsError> {
        ctx.invoke(GETPID, &[])
    }
}

#[test]
fn undeclared_dependencies_mispredict_and_cost_more() {
    let run = |declare: bool| {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::echo())
            .extra_component(Box::new(Undeclared::new(declare)))
            .build()
            .unwrap();
        let t0 = sys.clock().now();
        sys.syscall("chatty", "relay", &[]).unwrap();
        (sys.clock().now() - t0, sys.stats().das_mispredicts)
    };
    let (declared_time, declared_miss) = run(true);
    let (undeclared_time, undeclared_miss) = run(false);
    assert_eq!(declared_miss, 0);
    assert_eq!(undeclared_miss, 1);
    assert!(
        undeclared_time > declared_time,
        "mispredicted dispatch must pay the ring scan: {undeclared_time} vs {declared_time}"
    );
}

#[test]
fn built_in_call_graph_is_fully_declared() {
    // The nine components' declared dependencies must cover every hop a
    // real workload performs — zero mispredicts end to end.
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::nginx())
        .host(host)
        .build()
        .unwrap();
    let listen = sys.os().socket().unwrap();
    sys.os().bind(listen, 80).unwrap();
    sys.os().listen(listen, 8).unwrap();
    let client = sys.host().with(|w| w.network_mut().connect(80));
    let conn = sys.os().accept(listen).unwrap();
    sys.host()
        .with(|w| w.network_mut().send(client, b"ping").unwrap());
    sys.os().recv(conn, 64).unwrap();
    sys.os().send(conn, b"pong").unwrap();
    let fd = sys.os().open("/f", OpenFlags::RDWR).unwrap();
    sys.os().write(fd, b"x").unwrap();
    sys.os().close(fd).unwrap();
    assert_eq!(sys.stats().das_mispredicts, 0);
}

// ---------- linking ----------

#[test]
fn a_call_of_an_undeclared_function_fails_at_resolution_and_costs_nothing() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(Counter::new(false)))
        .build()
        .unwrap();
    sys.syscall("counter", "bump", &[]).unwrap();
    let (t0, stats) = (sys.clock().now(), sys.stats().clone());
    let hops = sys.component_counters("counter").unwrap().hops;
    assert_eq!(
        sys.syscall("counter", "reset", &[]),
        Err(OsError::UnknownFunc {
            component: "counter".into(),
            func: "reset".into(),
        })
    );
    assert_eq!(
        sys.syscall("nope", "bump", &[]),
        Err(OsError::UnknownComponent("nope".into()))
    );
    // Neither call reached a slot: no time, hop or message was charged.
    assert_eq!(sys.clock().now(), t0);
    assert_eq!(sys.component_counters("counter").unwrap().hops, hops);
    assert_eq!(sys.stats().msg_hops, stats.msg_hops);
    assert_eq!(sys.syscall("counter", "value", &[]), Ok(Value::U64(1)));
}

/// How a [`Diverging`] component's replay departs from its logged run.
#[derive(Clone, Copy, Debug, Hash)]
enum Divergence {
    /// It replays the downcalls it made.
    None,
    /// It makes one more downcall than it logged.
    Extra,
    /// It calls another function than the one it logged.
    Other,
}

/// A stateful component whose `step` calls `getpid` once, and whose replay
/// of `step` makes the downcalls its [`Divergence`] says.
#[derive(Clone, Hash)]
struct Diverging {
    desc: ComponentDescriptor,
    divergence: Divergence,
}

impl Diverging {
    fn new(divergence: Divergence) -> Self {
        Diverging {
            desc: ComponentDescriptor::new("diverging", ArenaLayout::small())
                .stateful()
                .checkpoint_init()
                .interface(&[FnDecl::new("step").logged()])
                .depends_on(&["process"])
                .calls(CALLS),
            divergence,
        }
    }
}

impl Component for Diverging {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }
    fn call(
        &mut self,
        ctx: &mut dyn CallContext,
        _func: FnId,
        _args: &[Value],
    ) -> Result<Value, OsError> {
        let divergence = if ctx.is_replay() {
            self.divergence
        } else {
            Divergence::None
        };
        match divergence {
            Divergence::None => ctx.invoke(GETPID, &[]),
            Divergence::Extra => {
                ctx.invoke(GETPID, &[])?;
                ctx.invoke(GETPID, &[])
            }
            Divergence::Other => ctx.invoke(GETPPID, &[]),
        }
    }
}

#[test]
fn a_replay_that_departs_from_its_logged_downcalls_is_refused() {
    let stepped = |divergence| {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::echo())
            .extra_component(Box::new(Diverging::new(divergence)))
            .build()
            .unwrap();
        assert_eq!(sys.syscall("diverging", "step", &[]), Ok(Value::U64(1)));
        assert_eq!(
            sys.log_entries("diverging").next().unwrap().downcalls.len(),
            1
        );
        sys
    };
    let mut faithful = stepped(Divergence::None);
    assert_eq!(faithful.reboot_component("diverging").unwrap().replayed, 1);

    for (divergence, expected) in [
        (
            Divergence::Extra,
            "unrecorded downcall process.getpid during replay",
        ),
        (
            Divergence::Other,
            "replay expected process.getpid, component called process.getppid",
        ),
    ] {
        let mut sys = stepped(divergence);
        match sys.reboot_component("diverging") {
            Err(OsError::ReplayMismatch { component, detail }) => {
                assert_eq!(component, "diverging");
                assert!(detail.contains(expected), "{divergence:?}: {detail}");
            }
            other => panic!("{divergence:?}: expected a replay mismatch, got {other:?}"),
        }
        assert!(sys.has_failed(), "{divergence:?}");
    }
}
