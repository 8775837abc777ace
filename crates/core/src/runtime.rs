//! The VampOS runtime: [`System`], its builder, boot sequence, and the
//! message-passing invoke path (§V-A, §V-C, §V-D).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use vampos_host::HostHandle;
use vampos_mem::{MemoryArena, Snapshot};
use vampos_mpk::{AccessKind, DomainId, KeyRegistry, Pkru};
use vampos_sim::{CostModel, Name, Nanos, SimClock, SimRng};
use vampos_telemetry::{Collector, TelemetrySink};
use vampos_ukernel::{
    names, CallContext, CallSite, Component, ComponentBox, ComponentDescriptor, OsError, Session,
    Value,
};

use crate::config::{ComponentSet, Mode, SchedulerKind};
use crate::faults::{FaultKind, FaultPlan, FaultTarget, InjectedFault};
use crate::funclog::{DownRec, FunctionLog, LogEntry, Recording};
use crate::image::{self, slot_of, Binding, Bound, Described, Image};
use crate::os::Os;
use crate::stats::{ComponentCounters, SystemStats};

/// Message-domain memory reserved per component in VampOS mode (message
/// buffers; the function logs are accounted separately by actual size).
pub const MSG_DOMAIN_BYTES: usize = 256 << 10;

pub(crate) struct Slot {
    /// The descriptor's name: every span, log entry and downcall record
    /// that mentions the component shares this allocation.
    pub(crate) name: Name,
    pub(crate) comp: Option<ComponentBox>,
    /// The component as constructed (§V-E): every reboot copies it over
    /// the live one, so no field of the old component's state survives.
    /// Shared with the image the system booted from, until a swap
    /// installs one of the slot's own.
    pub(crate) boot_image: Rc<dyn Component>,
    pub(crate) desc: ComponentDescriptor,
    /// The descriptor's call sites, bound in index order: the image's
    /// table, until a swap relinks the system into tables of its own.
    pub(crate) sites: Rc<[Binding]>,
    /// The component's memory (§V-D): built from the descriptor, and
    /// reset, snapshotted and restored here, never by the component.
    pub(crate) arena: MemoryArena,
    pub(crate) log: FunctionLog,
    pub(crate) up: bool,
    pub(crate) domain: DomainId,
    /// Merge-group id (slots sharing a group interact by direct calls).
    pub(crate) group: usize,
    pub(crate) boot_snapshot: Option<Snapshot>,
    pub(crate) reboots: u64,
    /// Calls and recoveries begun on this slot, telemetry or not.
    pub(crate) counters: ComponentCounters,
    /// Permanently down (graceful degradation after unrecoverable failure).
    pub(crate) condemned: bool,
    /// The stored boot checkpoint fails validation (chaos fault injection);
    /// the next component reboot aborts at the restore phase. Cleared by a
    /// full reboot, which recaptures the checkpoint from scratch.
    pub(crate) checkpoint_corrupt: bool,
}

impl Described for Slot {
    fn desc(&self) -> &ComponentDescriptor {
        &self.desc
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("name", &self.name)
            .field("up", &self.up)
            .field("group", &self.group)
            .field("log_len", &self.log.len())
            .finish()
    }
}

/// A simulated unikernel-linked application instance.
///
/// `System` owns the component slots, the virtual clock, the cost model, the
/// protection-key registry and the failure machinery. Applications issue
/// syscalls through [`System::os`]; experiments reboot components through
/// [`System::reboot_component`] and inject faults through
/// [`System::inject_fault`].
///
/// # Example
///
/// ```
/// use vampos_core::{ComponentSet, Mode, System};
/// use vampos_oslib::OpenFlags;
///
/// let mut sys = System::builder()
///     .mode(Mode::vampos_das())
///     .components(ComponentSet::sqlite())
///     .build()?;
/// let fd = sys.os().open("/db.sqlite", OpenFlags::RDWR | OpenFlags::CREAT)?;
/// sys.os().write(fd, b"page0")?;
/// sys.reboot_component("vfs")?;
/// sys.os().write(fd, b"page1")?; // fd survived the reboot
/// # Ok::<(), vampos_ukernel::OsError>(())
/// ```
pub struct System {
    pub(crate) clock: SimClock,
    pub(crate) costs: CostModel,
    pub(crate) rng: SimRng,
    /// The image the system booted from: its mode and component set.
    pub(crate) image: Rc<Image>,
    pub(crate) host: HostHandle,
    pub(crate) slots: Vec<Slot>,
    /// The application's name as a caller (`names::APP`).
    pub(crate) app: Name,
    /// The [`Os`] facade's call sites, bound in index order (the image's
    /// table, until a swap relinks the system).
    pub(crate) os_sites: Rc<[Binding]>,
    pub(crate) mpk: KeyRegistry,
    pub(crate) auto_recover: bool,
    pub(crate) graceful: bool,
    pub(crate) alternates: BTreeMap<String, ComponentBox>,
    pub(crate) faults: FaultPlan,
    pub(crate) stats: SystemStats,
    pub(crate) failed: bool,
    pub(crate) retry_depth: u32,
    pub(crate) booted_at: Nanos,
    pub(crate) telemetry: Option<TelemetrySink>,
    pub(crate) pending_recovery: Option<PendingRecovery>,
    /// Failure-detector false-negative window: while positive, detected
    /// failures are counted but *not* recovered (the error propagates raw
    /// and the slot stays down). Chaos fault injection.
    pub(crate) detector_suppressed: u32,
    /// Components whose next reboot aborts partway (reboot-during-reboot
    /// chaos fault injection); each entry is consumed by one aborted reboot.
    pub(crate) reboot_interrupts: BTreeSet<String>,
}

/// Detection context stashed by the failure paths so the recovery span the
/// [`System::recover`] that follows opens can name its trigger and be
/// back-dated to when detection started.
pub(crate) struct PendingRecovery {
    pub(crate) kind: &'static str,
    pub(crate) detect_start: Nanos,
    pub(crate) detect_end: Nanos,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.mode().label())
            .field("set", &self.component_set().name())
            .field("components", &self.slots.len())
            .field("failed", &self.failed)
            .finish()
    }
}

/// Builder for [`System`].
pub struct SystemBuilder {
    mode: Mode,
    set: ComponentSet,
    seed: u64,
    image: Option<Rc<Image>>,
    host: Option<HostHandle>,
    auto_recover: bool,
    extra: Vec<ComponentBox>,
    graceful: bool,
    alternates: Vec<ComponentBox>,
    allow_analysis_errors: bool,
    telemetry: Option<TelemetrySink>,
    clock: Option<SimClock>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("mode", &self.mode.label())
            .field("set", &self.set.name())
            .field("extra", &self.extra.len())
            .finish()
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            mode: Mode::vampos_das(),
            set: ComponentSet::echo(),
            seed: 0x5EED,
            image: None,
            host: None,
            auto_recover: true,
            extra: Vec::new(),
            graceful: false,
            alternates: Vec::new(),
            allow_analysis_errors: false,
            telemetry: None,
            clock: None,
        }
    }
}

impl SystemBuilder {
    /// Sets the execution mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the component set.
    pub fn components(mut self, set: ComponentSet) -> Self {
        self.set = set;
        self
    }

    /// Boots from `image`, shared with every other system booted from it:
    /// the image fixes the mode, the component set and the extra
    /// components, and those set on the builder are not used.
    pub fn image(mut self, image: Rc<Image>) -> Self {
        self.image = Some(image);
        self
    }

    /// Seeds the deterministic RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an existing host world (to pre-stage files or share the
    /// network with a workload generator).
    pub fn host(mut self, host: HostHandle) -> Self {
        self.host = Some(host);
        self
    }

    /// Enables/disables automatic in-line recovery on detected failures.
    pub fn auto_recover(mut self, on: bool) -> Self {
        self.auto_recover = on;
        self
    }

    /// Attaches a telemetry sink: every cross-component call, syscall and
    /// recovery is recorded as a timestamped span (with per-component
    /// metrics) in the sink's [`vampos_telemetry::TelemetryHub`].
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Attaches an existing virtual clock instead of starting a fresh one
    /// at zero. `SimClock` clones share a single timeline, so several
    /// systems built with clones of the same clock advance each other —
    /// the multiplexing a multi-instance fleet needs. The system boots at
    /// the clock's *current* time (`booted_at` records it).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Enables graceful degradation (§VIII): an unrecoverable component is
    /// condemned (permanently down) instead of fail-stopping the whole
    /// system, so the application can salvage state through the survivors.
    pub fn graceful_degradation(mut self, on: bool) -> Self {
        self.graceful = on;
        self
    }

    /// Registers an alternate implementation (multi-version execution,
    /// §VIII): when a failure recurs after recovery — a deterministic bug
    /// in the original code — the alternate is swapped in, restored from
    /// the same log, and the in-flight call is re-executed once more.
    pub fn alternate(mut self, comp: ComponentBox) -> Self {
        self.alternates.push(comp);
        self
    }

    /// Boots the system even when pre-boot static analysis finds
    /// error-severity problems. Intended for experiments that deliberately
    /// construct broken configurations (fault-injection studies, analyzer
    /// tests); production configurations should fix the findings instead.
    pub fn allow_analysis_errors(mut self) -> Self {
        self.allow_analysis_errors = true;
        self
    }

    /// Links an additional, user-defined component into the unikernel.
    /// The component gets its own protection domain, message domain and
    /// function log, and participates in reboots and rejuvenation exactly
    /// like the built-in components.
    pub fn extra_component(mut self, comp: ComponentBox) -> Self {
        self.extra.push(comp);
        self
    }

    /// Boots the system from its image: the one given
    /// ([`SystemBuilder::image`]), or else one built from the builder's
    /// mode, component set and extra components. The boot refuses an image
    /// whose analysis found errors, then registers protection domains,
    /// clones the image's components (each slot keeps the image's copy as
    /// its boot image), mounts the root file system (when the set includes
    /// 9PFS) and captures boot checkpoints.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] for a set naming an unknown component,
    /// [`OsError::AnalysisRejected`], or a failure to register protection
    /// keys or of the boot syscalls.
    pub fn build(self) -> Result<System, OsError> {
        let image = match self.image {
            Some(image) => image,
            None => Rc::new(Image::with_extras(self.set, self.mode, self.extra)?),
        };
        // Pre-boot static analysis over the full configuration (built-ins
        // plus user-defined extras), run once per image. Error-severity
        // findings abort the boot unless the caller opted out.
        let report = image.report();
        if !report.is_clean() && !self.allow_analysis_errors {
            return Err(OsError::AnalysisRejected {
                errors: report.error_count(),
                report: report.render(),
            });
        }
        let host = self.host.unwrap_or_default();
        let hang_threshold = image
            .mode()
            .vamp_config()
            .map(|c| c.hang_threshold)
            .unwrap_or(Nanos::SECOND);

        let mut mpk = KeyRegistry::hardware();
        let mpk_error = |e: vampos_mpk::MpkError| OsError::Io(e.to_string());
        mpk.register(names::APP).map_err(mpk_error)?;
        let mut slots: Vec<Slot> = Vec::with_capacity(image.components.len());
        for (idx, boot) in image.components.iter().enumerate() {
            let desc = boot.descriptor();
            let name = desc.name();
            // A merged component shares the protection domain of the first
            // member of its group (§V-F: "a single MPK tag manages the
            // memory domain" of a merged component).
            let group = image.groups[idx];
            let domain = if group == idx {
                mpk.register(name).map_err(mpk_error)?
            } else {
                slots[group].domain
            };
            slots.push(Slot {
                name: desc.name().clone(),
                comp: Some(boot.clone_box()),
                boot_image: Rc::clone(boot),
                arena: MemoryArena::new(name, *desc.layout()),
                desc: desc.clone(),
                sites: Rc::clone(&image.sites[idx]),
                log: FunctionLog::new(),
                up: true,
                domain,
                group,
                boot_snapshot: None,
                reboots: 0,
                counters: ComponentCounters::default(),
                condemned: false,
                checkpoint_corrupt: false,
            });
        }
        mpk.register(names::MSG_DOMAIN).map_err(mpk_error)?;
        mpk.register(names::SCHED).map_err(mpk_error)?;

        let mut sys = System {
            clock: self.clock.unwrap_or_default(),
            costs: CostModel::default(),
            rng: SimRng::seed_from(self.seed),
            os_sites: Rc::clone(&image.os_sites),
            image,
            host,
            slots,
            app: Name::from(names::APP),
            mpk,
            auto_recover: self.auto_recover,
            graceful: self.graceful,
            alternates: self
                .alternates
                .into_iter()
                .map(|c| (c.descriptor().name().as_str().to_owned(), c))
                .collect(),
            faults: FaultPlan::new(hang_threshold),
            stats: SystemStats::default(),
            failed: false,
            retry_depth: 0,
            booted_at: Nanos::ZERO,
            telemetry: self.telemetry,
            pending_recovery: None,
            detector_suppressed: 0,
            reboot_interrupts: BTreeSet::new(),
        };
        sys.mount_and_checkpoint(true)?;
        sys.booted_at = sys.clock.now();
        Ok(sys)
    }
}

impl System {
    /// Starts building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// The tail every boot ends with, first or full reboot: mount the root
    /// file system through the regular (logged) path, then capture the
    /// boot-phase checkpoints (§V-E) of the checkpoint-init components. A
    /// first boot pays for each capture; a full reboot passes
    /// `charge_capture: false` because `CostModel::full_boot` is the whole
    /// VM's measured boot time, captures included.
    pub(crate) fn mount_and_checkpoint(&mut self, charge_capture: bool) -> Result<(), OsError> {
        if self.slot("9pfs").is_some() {
            self.syscall(
                names::VFS,
                vampos_oslib::funcs::vfs::MOUNT,
                &[Value::from("9pfs"), Value::from("/")],
            )?;
        }
        for idx in 0..self.slots.len() {
            if self.slots[idx].desc.uses_checkpoint_init() {
                let snap = self.slots[idx].arena.snapshot();
                if charge_capture {
                    self.clock
                        .advance(self.costs.snapshot_capture(snap.byte_len()));
                }
                self.slots[idx].boot_snapshot = Some(snap);
            }
        }
        Ok(())
    }

    /// The virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// When this system finished booting. Zero unless the builder attached
    /// a shared, already-advanced clock ([`SystemBuilder::clock`]).
    pub fn booted_at(&self) -> Nanos {
        self.booted_at
    }

    /// The active cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The execution mode.
    pub fn mode(&self) -> &Mode {
        self.image.mode()
    }

    /// The component set.
    pub fn component_set(&self) -> &ComponentSet {
        self.image.component_set()
    }

    /// The host world handle (stage fixtures, drive workload clients).
    pub fn host(&self) -> &HostHandle {
        &self.host
    }

    /// Collected statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.telemetry.as_ref()
    }

    /// Hands one observability event to the attached telemetry hub; without
    /// a sink `f` never runs, so what it would compute costs nothing.
    pub(crate) fn emit(&self, f: impl FnOnce(&mut dyn Collector)) {
        if let Some(sink) = &self.telemetry {
            sink.with(|hub| f(hub));
        }
    }

    /// True once the system has fail-stopped (§II-B).
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// Number of MPK protection domains registered (tags in §VI terms).
    pub fn mpk_tags(&self) -> usize {
        self.mpk.domain_count()
    }

    /// The POSIX-ish syscall facade.
    pub fn os(&mut self) -> Os<'_> {
        Os::new(self)
    }

    /// Arms an injected fault, resolving its names once: a fault on a
    /// component or function the system does not link never fires.
    pub fn inject_fault(&mut self, fault: InjectedFault) {
        let target = fault_target(&self.slots, &fault);
        self.faults.arm(fault, target);
    }

    /// The faults still armed on the system, in arm order. A liveness
    /// oracle can check that every armed fault either fired
    /// ([`InjectedFault::fired`] > 0) or was consumed (absent here).
    pub fn armed_faults(&self) -> &[InjectedFault] {
        self.faults.faults()
    }

    /// Arms a failure-detector false-negative window (chaos fault
    /// injection): the next `n` detected failures are counted in
    /// [`SystemStats::missed_detections`](crate::SystemStats) but not
    /// recovered — the error propagates raw and the faulty component stays
    /// down until something else (e.g. an escalation rung) reboots it.
    pub fn suppress_detection(&mut self, n: u32) {
        self.detector_suppressed = n;
    }

    /// Remaining suppressed-detection budget.
    pub fn detector_suppressed(&self) -> u32 {
        self.detector_suppressed
    }

    /// Marks `component`'s stored boot checkpoint as failing validation
    /// (chaos fault injection): the next component reboot aborts at the
    /// checkpoint-restore phase. A full reboot recaptures the checkpoint
    /// and clears the flag. Unknown names are ignored.
    pub fn corrupt_boot_checkpoint(&mut self, component: &str) {
        if let Some(idx) = self.slot(component) {
            self.slots[idx].checkpoint_corrupt = true;
        }
    }

    /// Corrupts the newest live entry of `component`'s function log (chaos
    /// fault injection): the next reboot's replay deterministically
    /// diverges from the logged return value. Returns whether an entry was
    /// corrupted (false for unknown names or empty logs).
    pub fn corrupt_replay_log(&mut self, component: &str) -> bool {
        match self.slot(component) {
            Some(idx) => self.slots[idx].log.corrupt_newest_ret(),
            None => false,
        }
    }

    /// Arms a reboot-during-reboot interrupt for `component` (chaos fault
    /// injection): its next reboot aborts between the checkpoint-restore
    /// and replay phases, as if a second reboot request preempted it. The
    /// interrupt is consumed by the aborted attempt, so a follow-up reboot
    /// runs to completion.
    pub fn arm_reboot_interrupt(&mut self, component: &str) {
        self.reboot_interrupts.insert(component.to_owned());
    }

    /// The slot `name` is linked into.
    fn slot(&self, name: &str) -> Option<usize> {
        slot_of(&self.slots, name)
    }

    /// [`System::slot`], or the error naming an unknown component.
    pub(crate) fn index_of(&self, name: &str) -> Result<usize, OsError> {
        self.slot(name)
            .ok_or_else(|| OsError::UnknownComponent(name.to_owned()))
    }

    /// [`System::index_of`], for a component that can be rebooted alone.
    pub(crate) fn rebootable_index(&self, name: &str) -> Result<usize, OsError> {
        let idx = self.index_of(name)?;
        if !self.slots[idx].desc.is_rebootable() {
            return Err(OsError::Unrebootable {
                component: name.to_owned(),
            });
        }
        Ok(idx)
    }

    /// Whether `component` can be rebooted alone (`None` for unknown
    /// names). Host-shared components such as VIRTIO cannot (§VIII).
    pub fn is_rebootable(&self, component: &str) -> Option<bool> {
        self.slot(component)
            .map(|i| self.slots[i].desc.is_rebootable())
    }

    /// Whether the hang detector ignores `component` (`None` for unknown
    /// names). Event-waiting components such as LWIP are exempt (§V-A).
    pub fn is_hang_exempt(&self, component: &str) -> Option<bool> {
        self.slot(component)
            .map(|i| self.slots[i].desc.is_hang_exempt())
    }

    /// Current live log entries of a component.
    pub fn log_len(&self, component: &str) -> usize {
        self.slot(component)
            .map(|i| self.slots[i].log.len())
            .unwrap_or(0)
    }

    /// Current log records (entries + recorded downcall returns) of a
    /// component — the unit Table III counts.
    pub fn log_records(&self, component: &str) -> usize {
        self.slot(component)
            .map(|i| self.slots[i].log.record_count())
            .unwrap_or(0)
    }

    /// A component's live log entries in replay order (none for unknown
    /// names).
    pub fn log_entries(&self, component: &str) -> impl Iterator<Item = &LogEntry> + '_ {
        self.slot(component)
            .into_iter()
            .flat_map(|i| self.slots[i].log.iter())
    }

    /// Total log records across all components.
    pub fn total_log_records(&self) -> usize {
        self.slots.iter().map(|s| s.log.record_count()).sum()
    }

    /// Total log bytes across all components.
    pub fn total_log_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.log.byte_len()).sum()
    }

    /// Memory utilisation report (Fig. 7b): arenas + VampOS overhead
    /// (message domains + function logs).
    pub fn memory_report(&self) -> MemoryReport {
        let arenas = self.slots.iter().map(|s| s.arena.footprint()).sum();
        let (msg_domains, logs) = if self.mode().is_vampos() {
            (self.slots.len() * MSG_DOMAIN_BYTES, self.total_log_bytes())
        } else {
            (0, 0)
        };
        MemoryReport {
            arenas,
            msg_domains,
            logs,
        }
    }

    /// Host bytes backing a component's arena: the regions something has
    /// written, where [`MemoryReport::arenas`] counts logical sizes. `None`
    /// for unknown names.
    pub fn arena_resident_bytes(&self, component: &str) -> Option<usize> {
        let idx = self.slot(component)?;
        Some(self.slots[idx].arena.resident_bytes())
    }

    /// A component's current state digest (testing / corruption checks).
    pub fn state_digest(&self, component: &str) -> Option<u64> {
        let idx = self.slot(component)?;
        self.slots[idx].comp.as_ref().map(|c| c.state_digest())
    }

    /// Per-component reboot count.
    pub fn reboot_count(&self, component: &str) -> u64 {
        self.slot(component)
            .map(|i| self.slots[i].reboots)
            .unwrap_or(0)
    }

    /// A component's exact call and recovery counts (`None` for unknown
    /// names). Kept whether or not a telemetry sink is attached.
    pub fn component_counters(&self, component: &str) -> Option<ComponentCounters> {
        let idx = self.slot(component)?;
        Some(self.slots[idx].counters)
    }

    /// Names of all linked components, in boot order.
    pub fn component_names(&self) -> Vec<String> {
        self.slots.iter().map(|s| s.name.to_string()).collect()
    }

    /// Issues a syscall from the application layer by name: the front
    /// door for callers that hold no call site. It binds the call the way
    /// the linker binds a declared site, then takes the same hop.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] / [`OsError::UnknownFunc`] when the
    /// names resolve to nothing (no time is charged); component errors;
    /// after a fail-stop every call returns [`OsError::FailStop`].
    pub fn syscall(&mut self, target: &str, func: &str, args: &[Value]) -> Result<Value, OsError> {
        let binding = self.bind(None, target, func);
        self.syscall_bound(&binding, func, args)
    }

    /// Issues the [`Os`] facade's call `site`, bound when the system was
    /// linked.
    pub(crate) fn os_call(&mut self, site: CallSite, args: &[Value]) -> Result<Value, OsError> {
        let binding = self.os_sites[site.index()].clone();
        self.syscall_bound(&binding, site.func(), args)
    }

    fn syscall_bound(
        &mut self,
        binding: &Binding,
        func: &str,
        args: &[Value],
    ) -> Result<Value, OsError> {
        let start = self.clock.now();
        self.emit(|c| c.syscall_begin(func, start));
        let result = self.invoke_bound(None, binding, args);
        let end = self.clock.now();
        let ok = result.is_ok();
        self.emit(|c| c.syscall_end(end, ok));
        result
    }

    /// Binds `callee`'s call from `caller` again, to the function of that
    /// name in the slot's current descriptor.
    pub(crate) fn rebind(&self, caller: Option<usize>, callee: &Bound) -> Binding {
        let desc = &self.slots[callee.slot].desc;
        let func = desc
            .fn_id_of(&callee.name)
            .ok_or_else(|| OsError::UnknownFunc {
                component: self.slots[callee.slot].name.to_string(),
                func: callee.name.to_string(),
            })?;
        let vampos = self.mode().is_vampos();
        Ok(image::bound(&self.slots, vampos, caller, callee.slot, func))
    }

    /// Binds a call of `target`'s `func` from `caller` by name.
    fn bind(&self, caller: Option<usize>, target: &str, func: &str) -> Binding {
        image::bind(&self.slots, self.mode().is_vampos(), caller, target, func)
    }

    /// Links the system again after a swap installed a descriptor, which
    /// may number its functions, declare its calls and log differently:
    /// binds every call site into tables of the system's own, and resolves
    /// every armed fault's names. The image and its other systems keep
    /// theirs.
    pub(crate) fn link(&mut self) {
        let (sites, os_sites) = image::link(&self.slots, self.mode().is_vampos());
        for (slot, sites) in self.slots.iter_mut().zip(sites) {
            slot.sites = sites;
        }
        self.os_sites = os_sites;
        let slots = &self.slots;
        self.faults.relink(|fault| fault_target(slots, fault));
    }

    /// Simulates an out-of-interface wild write: the faulty component
    /// `from` stores through a corrupted pointer into `to`'s memory (§V-D).
    ///
    /// With isolation on, the MPK check faults, the failure detector fires,
    /// and (under auto-recovery) `from` is rebooted; `to` is untouched.
    /// With isolation off, `to`'s arena is silently corrupted.
    ///
    /// # Errors
    ///
    /// [`OsError::ProtectionFault`] when isolation caught the access.
    pub fn trigger_wild_write(&mut self, from: &str, to: &str) -> Result<(), OsError> {
        let from_idx = self.index_of(from)?;
        let to_idx = self.index_of(to)?;
        let isolation = self
            .mode()
            .vamp_config()
            .map(|c| c.isolation)
            .unwrap_or(false);
        // The faulting store is checked against the PKRU the scheduler
        // installed for `from`'s thread: may it write pages tagged with
        // `to`'s protection key?
        let victim_key = self
            .mpk
            .physical(self.slots[to_idx].domain)
            .map_err(|e| OsError::Io(e.to_string()))?;
        let pkru = self.pkru_for(from)?;
        let permitted = pkru.permits(victim_key, AccessKind::Write);
        if isolation && !permitted {
            self.stats.mpk_switches += 1;
            self.stats.mpk_violations += 1;
            let at = self.clock.now();
            let (culprit, victim) = (&self.slots[from_idx].name, &self.slots[to_idx].name);
            self.emit(|c| c.mpk_violation(culprit, victim, at));
            self.stats.failures += 1;
            self.emit(|c| c.failure_detected(culprit, "mpk-violation", at));
            if self.auto_recover && self.slots[from_idx].desc.is_rebootable() {
                // The denial trapped at the faulting store: detection is
                // the zero-length window an unprompted recovery gets.
                self.recover(from_idx, "mpk-violation")?;
            }
            return Err(OsError::ProtectionFault(format!(
                "{from} attempted write into memory of {to}"
            )));
        }
        // Unprotected (or intra-merge): corrupt the victim's heap.
        let arena = &mut self.slots[to_idx].arena;
        arena
            .write(arena.heap_base(), &[0xFFu8; 64])
            .map_err(|e| OsError::Io(e.to_string()))
    }

    /// The PKRU value the thread scheduler installs when dispatching the
    /// named component (§V-D): full access to the component's own domain,
    /// read access to the message domain, everything else denied.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] for unknown names.
    pub fn pkru_for(&mut self, component: &str) -> Result<Pkru, OsError> {
        let tid = self.index_of(component)?;
        let own = self
            .mpk
            .physical(self.slots[tid].domain)
            .map_err(|e| OsError::Io(e.to_string()))?;
        let msgdom = self
            .mpk
            .domain(names::MSG_DOMAIN)
            .and_then(|d| self.mpk.physical(d).ok())
            .ok_or_else(|| OsError::Io("message domain unregistered".into()))?;
        Ok(Pkru::deny_all()
            .allowing(own, AccessKind::Write)
            .allowing(msgdom, AccessKind::Read))
    }

    /// The live-component count the round-robin scheduler walks: component
    /// threads + the application thread + the message thread.
    fn live_threads(&self) -> usize {
        self.slots.iter().filter(|s| s.up).count() + 2
    }

    fn charge_request_hop(&mut self, caller: Option<usize>, callee: &Bound, bytes: usize) {
        let Bound {
            slot: target,
            logged,
            predicted,
            ..
        } = *callee;
        match self.image.mode() {
            Mode::Unikraft => {
                self.clock.advance(self.costs.direct_call);
            }
            Mode::VampOs(cfg) => {
                let same_group = caller
                    .map(|c| self.slots[c].group == self.slots[target].group)
                    .unwrap_or(false);
                if same_group {
                    // Intra-merge: plain function call; logging retained.
                    let mut c = self.costs.direct_call;
                    if logged {
                        c += self.costs.log_append + self.costs.log_byte * bytes as u64;
                    }
                    self.clock.advance(c);
                    return;
                }
                let wait = match cfg.scheduler {
                    SchedulerKind::RoundRobin => self.costs.rr_wait(self.live_threads()),
                    SchedulerKind::DependencyAware => {
                        // The scheduler dispatches using the statically
                        // declared component correlations (§V-C). A hop to
                        // a target outside the caller's dependencies is a
                        // mispredict: the scheduler falls back to scanning
                        // the ring.
                        let mut w = if predicted {
                            self.costs.das_wait()
                        } else {
                            self.stats.das_mispredicts += 1;
                            self.costs.rr_wait(self.live_threads())
                        };
                        if logged {
                            // The scheduler dispatches the message thread to
                            // persist the arguments before the callee runs.
                            w += self.costs.msg_thread_dispatch;
                        }
                        w
                    }
                };
                let mut c = wait + self.costs.message_hop_cost(bytes, logged);
                if cfg.isolation {
                    c += self.costs.mpk_switch * 2;
                    self.stats.mpk_switches += 2;
                }
                self.clock.advance(c);
                self.stats.msg_hops += 1;
                self.stats.ctx_switches += 1;
            }
        }
    }

    fn charge_reply_hop(&mut self, caller: Option<usize>, target: usize, bytes: usize) {
        match self.image.mode() {
            Mode::Unikraft => {}
            Mode::VampOs(cfg) => {
                let same_group = caller
                    .map(|c| self.slots[c].group == self.slots[target].group)
                    .unwrap_or(false);
                if same_group {
                    return;
                }
                let wait = match cfg.scheduler {
                    SchedulerKind::RoundRobin => self.costs.rr_wait(self.live_threads()),
                    SchedulerKind::DependencyAware => self.costs.das_wait(),
                };
                self.clock
                    .advance(wait + self.costs.message_hop_cost(bytes, false));
                self.stats.msg_hops += 1;
                self.stats.ctx_switches += 1;
            }
        }
    }

    /// The checks a call makes before any cost is charged: the system is
    /// up, the site reaches a slot, and the slot can take the call.
    pub(crate) fn invoke_bound(
        &mut self,
        caller: Option<usize>,
        binding: &Binding,
        args: &[Value],
    ) -> Result<Value, OsError> {
        if self.failed {
            return Err(OsError::FailStop {
                reason: "system previously fail-stopped".to_owned(),
            });
        }
        let callee = binding.as_ref().map_err(OsError::clone)?;
        let slot = &self.slots[callee.slot];
        if !slot.up {
            return Err(OsError::ComponentUnavailable {
                component: slot.name.to_string(),
            });
        }
        if slot.comp.is_none() {
            // The target's (conceptual) thread is blocked inside a call and
            // our simulation cannot re-enter it; VampOS would attach a fresh
            // thread (§V-A). The component DAG keeps this from happening on
            // legitimate paths.
            return Err(OsError::Io(format!("re-entrant call into {}", slot.name)));
        }
        self.invoke_resolved(caller, callee, args)
    }

    fn invoke_resolved(
        &mut self,
        caller: Option<usize>,
        callee: &Bound,
        args: &[Value],
    ) -> Result<Value, OsError> {
        let Bound {
            slot: tid,
            func: id,
            name: ref func,
            logged,
            ..
        } = *callee;

        // Fault injection fires at message-pull time.
        match self.faults.on_call(tid, id) {
            None => {}
            Some(FaultKind::Panic) => {
                let err = OsError::Panic {
                    component: self.slots[tid].name.to_string(),
                    reason: "injected fail-stop fault".to_owned(),
                };
                return self.handle_failure(err, caller, callee, args);
            }
            Some(FaultKind::Hang) => {
                self.clock.advance(self.faults.hang_threshold());
                self.stats.ctx_switches += 1;
                if self.slots[tid].desc.is_hang_exempt() {
                    // The detector ignores event-waiting components (§V-A);
                    // the caller just sees a very slow call.
                    return Err(OsError::WouldBlock);
                }
                let err = OsError::Hang {
                    component: self.slots[tid].name.to_string(),
                };
                return self.handle_failure(err, caller, callee, args);
            }
            Some(FaultKind::LeakPerOp { bytes }) => {
                let _ = self.slots[tid].arena.leak(bytes);
            }
            Some(FaultKind::BitFlip { offset, bit }) => {
                let _ = self.slots[tid]
                    .arena
                    .flip_bit(vampos_mem::Addr(offset), bit);
            }
        }

        let args_bytes: usize = args.iter().map(Value::byte_len).sum();
        let hop_start = self.clock.now();
        self.charge_request_hop(caller, callee, args_bytes);
        self.slots[tid].counters.hops += 1;
        let caller_name = caller.map_or(&self.app, |c| &self.slots[c].name);
        let target = &self.slots[tid].name;
        self.emit(|c| c.call_begin(caller_name, target, func, hop_start));

        let mut comp = self.slots[tid]
            .comp
            .take()
            .expect("checked by invoke_bound");
        let mut ctx = Ctx {
            sys: self,
            me: tid,
            pending: logged.then(Recording::default),
            replay: None,
        };
        let result = comp.call(&mut ctx, id, args);
        let recording = ctx.pending.take().unwrap_or_default();
        self.slots[tid].comp = Some(comp);

        let outcome = match result {
            Ok(ret) => {
                let ret_bytes = ret.byte_len();
                self.charge_reply_hop(caller, tid, ret_bytes);
                if logged {
                    let payload = args_bytes + ret_bytes + recording.bytes;
                    self.append_log(caller, callee, args, &ret, recording.downcalls, payload);
                }
                Ok(ret)
            }
            Err(err) if err.is_failure() => {
                let err = match err {
                    // Components report their own crashes generically; pin
                    // the component name for the detector.
                    OsError::Panic { reason, .. } => OsError::Panic {
                        component: self.slots[tid].name.to_string(),
                        reason,
                    },
                    other => other,
                };
                self.handle_failure(err, caller, callee, args)
            }
            Err(err) => {
                self.charge_reply_hop(caller, tid, 8);
                Err(err)
            }
        };
        let end = self.clock.now();
        let ok = outcome.is_ok();
        self.emit(|c| c.call_end(end, ok));
        outcome
    }

    fn append_log(
        &mut self,
        caller: Option<usize>,
        callee: &Bound,
        args: &[Value],
        ret: &Value,
        downcalls: Vec<DownRec>,
        payload: usize,
    ) {
        let tid = callee.slot;
        let cfg = self
            .mode()
            .vamp_config()
            .expect("only VampOS modes log calls");
        let (log_shrinking, shrink_threshold) = (cfg.log_shrinking, cfg.shrink_threshold);
        let caller_name = caller.map_or(&self.app, |c| &self.slots[c].name).clone();
        let slot = &mut self.slots[tid];
        let event = match callee.session {
            Session::Custom => {
                let comp = slot.comp.as_ref().expect("component present");
                comp.session_event(callee.func, args, ret)
            }
            role => role.event(args, ret),
        };
        let removed = slot.log.append_sized(
            caller_name,
            &callee.name,
            args,
            ret,
            downcalls,
            event,
            log_shrinking,
            payload,
        );
        self.stats.log_appended += 1;
        self.stats.log_removed += removed as u64;
        if removed > 0 {
            self.clock
                .advance(self.costs.log_shrink_scan * (removed as u64 + slot.log.len() as u64));
            let at = self.clock.now();
            let name = &self.slots[tid].name;
            self.emit(|c| c.log_shrunk(name, removed, at));
        }
        // Threshold-triggered compaction of still-open sessions (§V-F).
        if log_shrinking && self.slots[tid].log.len() > shrink_threshold {
            self.compact_component_log(tid);
        }
        let slot = &self.slots[tid];
        self.emit(|c| c.log_stats(&slot.name, slot.log.byte_len(), slot.log.record_count()));
    }

    fn compact_component_log(&mut self, tid: usize) {
        let sessions = self.slots[tid].log.touched_sessions();
        let scan = self.costs.log_shrink_scan * self.slots[tid].log.len() as u64;
        self.clock.advance(scan);
        let mut removed_total = 0usize;
        for session in sessions {
            let decision = self.slots[tid]
                .comp
                .as_ref()
                .expect("component present")
                .synthesize_touch(session);
            removed_total += self.slots[tid].log.compact_session(session, decision);
        }
        if removed_total > 0 {
            self.clock.advance(self.costs.compaction_pause);
            self.stats.log_removed += removed_total as u64;
            let name = &self.slots[tid].name;
            let at = self.clock.now();
            self.emit(|c| c.log_shrunk(name, removed_total, at));
        }
    }
}

/// Memory utilisation breakdown (Fig. 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Component arena footprints (the application-independent baseline).
    pub arenas: usize,
    /// Message-domain buffers (VampOS overhead).
    pub msg_domains: usize,
    /// Function-log bytes (VampOS overhead).
    pub logs: usize,
}

impl MemoryReport {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.arenas + self.msg_domains + self.logs
    }

    /// VampOS-attributable overhead bytes.
    pub fn vampos_overhead(&self) -> usize {
        self.msg_domains + self.logs
    }
}

/// What `fault`'s names resolve to among `slots`.
fn fault_target(slots: &[Slot], fault: &InjectedFault) -> Option<FaultTarget> {
    let slot = slot_of(slots, &fault.component)?;
    let func = match &fault.func {
        Some(func) => Some(slots[slot].desc.fn_id(func)?),
        None => None,
    };
    Some(FaultTarget { slot, func })
}

/// The live call context handed to an executing component.
pub(crate) struct Ctx<'a> {
    pub(crate) sys: &'a mut System,
    pub(crate) me: usize,
    /// Downcall records for the in-flight logged entry.
    pub(crate) pending: Option<Recording>,
    /// Replay state during encapsulated restoration.
    pub(crate) replay: Option<ReplayState>,
}

/// Replay bookkeeping: the logged entry being replayed, whose recorded
/// downcalls are served in order from a cursor and whose return value is
/// the allocation hint. Nothing is copied out of the log but the values the
/// component is handed.
pub(crate) struct ReplayState {
    pub(crate) entry: Rc<LogEntry>,
    /// The next recorded downcall to serve.
    pub(crate) next: usize,
    pub(crate) component: Name,
}

impl CallContext for Ctx<'_> {
    fn invoke(&mut self, site: CallSite, args: &[Value]) -> Result<Value, OsError> {
        let me = &self.sys.slots[self.me];
        debug_assert_eq!(me.desc.call_sites().get(site.index()), Some(&site));
        let binding = &me.sites[site.index()];
        if let Some(replay) = &mut self.replay {
            // Encapsulated restoration: answer from the return-value log
            // instead of invoking the (running) component — §V-B.
            let (target, func) = (site.target(), site.func());
            let Some(rec) = replay.entry.downcalls.get(replay.next) else {
                return Err(OsError::ReplayMismatch {
                    component: replay.component.to_string(),
                    detail: format!("unrecorded downcall {target}.{func} during replay"),
                });
            };
            replay.next += 1;
            // A bound site and its records share their names, which
            // compare by pointer.
            let same = match binding {
                Ok(callee) => {
                    rec.target == self.sys.slots[callee.slot].name && rec.func == callee.name
                }
                Err(_) => rec.target == *target && rec.func == *func,
            };
            if !same {
                return Err(OsError::ReplayMismatch {
                    component: replay.component.to_string(),
                    detail: format!(
                        "replay expected {}.{}, component called {target}.{func}",
                        rec.target, rec.func
                    ),
                });
            }
            self.sys.clock.advance(self.sys.costs.direct_call);
            return rec.ret.clone();
        }
        let binding = binding.clone();
        let result = self.sys.invoke_bound(Some(self.me), &binding, args);
        if let Some(pending) = &mut self.pending {
            // The record shares the names the slot and descriptor tables
            // hold.
            let (target, func) = match binding {
                Ok(callee) => (self.sys.slots[callee.slot].name.clone(), callee.name),
                Err(_) => (Name::from(site.target()), Name::from(site.func())),
            };
            pending.push(DownRec {
                target,
                func,
                ret: result.clone(),
            });
        }
        result
    }

    fn now(&self) -> Nanos {
        self.sys.clock.now()
    }

    fn charge(&mut self, cost: Nanos) {
        self.sys.clock.advance(cost);
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.sys.rng
    }

    fn costs(&self) -> &CostModel {
        &self.sys.costs
    }

    fn arena(&mut self) -> &mut MemoryArena {
        &mut self.sys.slots[self.me].arena
    }

    fn host(&self) -> &HostHandle {
        &self.sys.host
    }

    fn is_replay(&self) -> bool {
        self.replay.is_some()
    }

    fn replay_hint(&self) -> Option<&Value> {
        self.replay.as_ref().map(|r| &r.entry.ret)
    }

    fn trace_instant(&mut self, name: &str, detail: fmt::Arguments<'_>) {
        // Replayed downcalls must not re-emit their original instants: the
        // replay already renders as a `log_replay` phase span.
        if self.replay.is_some() {
            return;
        }
        let track = &self.sys.slots[self.me].name;
        let at = self.sys.clock.now();
        self.sys.emit(|c| c.instant(track, name, detail, at));
    }
}
