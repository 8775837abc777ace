//! The fleet itself: N instances on one shared clock, a client population,
//! and the event-heap run loop that interleaves requests with the
//! maintenance plan.
//!
//! One private loop, `Fleet::drive`, runs everything off one
//! [`crate::engine::EventHeap`]: plan operations, client arrivals, request
//! completions, and recovery-window closes are heap events popped in the
//! deterministic `(time, class, actor, sequence)` order. [`Fleet::run`],
//! [`Fleet::run_supervised`] (the same loop with an escalation ladder
//! catching failures) and [`Fleet::run_with`] (the same loop handing every
//! dispatched request to a continuation — the mesh's stage pipeline) are
//! its only entry points.

use std::cell::Ref;
use std::rc::Rc;

use vampos_core::{ComponentSet, Image, Mode};
use vampos_host::ClientConnId;
use vampos_sim::{Name, Nanos, SimClock};
use vampos_telemetry::metrics::{CounterId, HistogramId};
use vampos_telemetry::perfetto::{render_processes, ProcessRefs};
use vampos_telemetry::{
    AttrValue, Collector, MetricsRegistry, SpanKind, SpanRecord, TelemetryHub, TelemetrySink,
    ThinName,
};
use vampos_ukernel::OsError;
use vampos_workloads::{exchange, LoadReport, RequestRecord};

use crate::balancer::{Balancer, Policy};
use crate::engine::{ArrivalShape, EventClass, EventHeap};
use crate::instance::{HopCost, Instance};
use crate::ladder::{EscalationLadder, Rung};
use crate::plan::{FleetOp, FleetOpKind, FleetPlan, RecoveryFault};
use crate::report::FleetRunReport;

/// Static fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of instances (at least 1).
    pub instances: usize,
    /// Fleet seed; instance `i` boots with
    /// [`vampos_sim::derive_seed`]`(seed, i)`.
    pub seed: u64,
    /// OS configuration every instance runs.
    pub mode: Mode,
    /// Component set every instance runs.
    pub set: ComponentSet,
    /// Attach a telemetry sink to every instance (fleet traces), plus a
    /// fleet-level sink recording plan operations and recovery windows.
    pub telemetry: bool,
    /// Files staged into every instance's host 9P server.
    pub files: Vec<(String, Vec<u8>)>,
}

impl FleetConfig {
    /// The image every instance boots from: the set and mode, built,
    /// analysed and linked once.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] when the set names an unknown
    /// component.
    pub fn image(&self) -> Result<Rc<Image>, OsError> {
        Ok(Rc::new(Image::new(self.set.clone(), self.mode.clone())?))
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            instances: 4,
            seed: 0x1234_5678,
            mode: Mode::vampos_das(),
            set: ComponentSet::nginx(),
            telemetry: false,
            files: vec![("/www/index.html".to_owned(), vec![b'x'; 180])],
        }
    }
}

/// Client-side deadline: a response slower than this counts as a failed
/// transaction even though the server eventually served it.
pub(crate) const CLIENT_TIMEOUT: Nanos = Nanos::from_millis(2);

/// Most records a run's reports are pre-sized for, fleet-wide (24 MiB).
const PRESIZE_CEILING: usize = 1 << 20;

/// An HTTP load: every client issues `requests_per_client` GETs, timed by
/// [`ArrivalShape`]. The default open-loop grid (one request every
/// `think_time`, clients staggered across one think interval) offers every
/// policy and plan the *identical* request stream — the property the
/// policy comparison and the determinism checks rest on. Closed-loop and
/// the drifting shapes trade that invariance for realism: their arrivals
/// react to (or clump around) what the fleet actually does.
#[derive(Debug, Clone)]
pub struct FleetLoad {
    /// Concurrent keep-alive clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Per-client pause between request due times (open loop) or after
    /// each response (closed loop).
    pub think_time: Nanos,
    /// Path requested.
    pub path: String,
    /// Clients on a separate machine (higher network RTT).
    pub remote: bool,
    /// How clients time their requests.
    pub shape: ArrivalShape,
    /// Keep connections open between a client's requests (the default).
    /// `false` is siege's non-keepalive mode: every transaction closes its
    /// connection, so each server's connection table stays bounded by
    /// in-flight requests instead of the whole client population.
    pub keepalive: bool,
}

impl Default for FleetLoad {
    fn default() -> Self {
        FleetLoad {
            clients: 16,
            requests_per_client: 30,
            think_time: Nanos::from_millis(4),
            path: "/index.html".to_owned(),
            remote: false,
            shape: ArrivalShape::OpenLoop,
            keepalive: true,
        }
    }
}

struct FleetClient {
    conn: Option<(usize, ClientConnId)>,
    /// Sticky home: the instance the first route assigned. Recovery-aware
    /// clients displaced by a maintenance window return here the moment
    /// the window closes (see [`Balancer::should_return_home`]).
    home: Option<usize>,
    sent: usize,
    ever_connected: bool,
}

#[derive(Default)]
struct Counters {
    retried: u64,
    redirects: u64,
    issued: u64,
    completed: u64,
}

/// One run's drive state: what the loop and the dispatcher share.
struct Run<'a> {
    load: &'a FleetLoad,
    started: Nanos,
    one_way: Nanos,
    /// Per-instance `(component_reboots, full_reboots)` before the run.
    baseline: Vec<(u64, u64)>,
    /// Requests each instance served (or failed) during the run.
    reports: Vec<LoadReport>,
    clients: Vec<FleetClient>,
    balancer: Balancer,
    counters: Counters,
    request: String,
}

impl Run<'_> {
    /// Client `idx`'s first due time: the population is staggered across
    /// one think interval.
    fn first_due(&self, idx: usize) -> Nanos {
        let n = self.clients.len() as u64;
        self.started + Nanos::from_nanos(self.load.think_time.as_nanos() * idx as u64 / n)
    }
}

/// One routing attempt of a request journey, accumulated locally while the
/// instance borrow is live and flushed to the fleet hub afterwards.
struct JourneyHop {
    label: ThinName,
    start: Nanos,
    end: Nanos,
    served: bool,
    cost: HopCost,
}

/// Records an attempt on `inst` that died before service (reset
/// connection, failed connect or poll): a failed transaction in its
/// `report` and, under forensics, a zero-length hop with a zero
/// decomposition.
fn note_dead_attempt(
    inst: &Instance,
    report: &mut LoadReport,
    due: Nanos,
    hops: Option<&mut Vec<JourneyHop>>,
) {
    report.records.push(RequestRecord {
        start: due,
        end: due,
        ok: false,
    });
    if let Some(hops) = hops {
        hops.push(JourneyHop {
            label: inst.shared_label().clone(),
            start: due,
            end: due,
            served: false,
            cost: HopCost::default(),
        });
    }
}

/// The body of an HTTP response (empty when the header never ended).
pub(crate) fn http_body(response: &[u8]) -> &[u8] {
    response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(&[], |p| &response[p + 4..])
}

/// Emits the instance-local `serve` journey span covering the server
/// occupancy window. Called at the same logical point (response booked) by
/// the fleet dispatcher and by [`crate::single::run_single`], so the
/// fleet-of-1 instance trace stays byte-identical to the bare loop's.
pub(crate) fn note_serve_span(
    sink: Option<&TelemetrySink>,
    journey: u64,
    busy_from: Nanos,
    arrival: Nanos,
    service: Nanos,
) {
    let Some(sink) = sink else {
        return;
    };
    sink.with(|hub| {
        hub.push_span(
            "journeys",
            "serve",
            SpanKind::Journey,
            busy_from,
            busy_from + service,
            None,
            [
                ("journey", AttrValue::U64(journey)),
                (
                    "queue_ns",
                    AttrValue::U64(busy_from.saturating_sub(arrival).as_nanos()),
                ),
                ("service_ns", AttrValue::U64(service.as_nanos())),
            ],
        );
    });
}

/// The booked outcome of one front-tier dispatch — what a
/// [`Fleet::run_with`] continuation (the mesh pipeline) needs to carry the
/// journey across further hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontOutcome {
    /// Completion time the client observes (`due` for requests that died
    /// before service).
    pub end: Nanos,
    /// Served inside the client timeout.
    pub ok: bool,
    /// The server produced a valid response (regardless of the deadline).
    pub served: bool,
    /// Instance that handled (or killed) the final attempt.
    pub instance: usize,
    /// Latency decomposition of the final attempt (zero when it died
    /// before service).
    pub cost: HopCost,
}

impl FrontOutcome {
    /// An attempt that died before service: zero-length, zero
    /// decomposition.
    fn failed(due: Nanos, instance: usize) -> FrontOutcome {
        FrontOutcome {
            end: due,
            ok: false,
            served: false,
            instance,
            cost: HopCost::default(),
        }
    }
}

/// The journey metric series of the fleet hub, each resolved at its first
/// update (resolving creates the series) and updated by id from then on.
#[derive(Debug, Default)]
struct JourneySeries {
    /// `vampos_journeys_total{ok="false"}` and `{ok="true"}`.
    total: [Option<CounterId>; 2],
    latency: Option<HistogramId>,
    stall: Option<HistogramId>,
}

/// A deterministic fleet of unikernel instances sharing one virtual clock.
pub struct Fleet {
    clock: SimClock,
    instances: Vec<Instance>,
    fleet_sink: Option<TelemetrySink>,
    journey_series: JourneySeries,
}

impl Fleet {
    /// Boots the fleet: every instance boots from one image
    /// ([`FleetConfig::image`]), sequentially on the shared clock, so
    /// instance `i`'s [`vampos_core::System::booted_at`] reflects its
    /// position in the boot order. The image is freed with the last
    /// instance.
    ///
    /// # Errors
    ///
    /// Propagates the first boot failure.
    pub fn new(cfg: FleetConfig) -> Result<Fleet, OsError> {
        let clock = SimClock::default();
        let image = cfg.image()?;
        let mut instances = Vec::with_capacity(cfg.instances.max(1));
        for id in 0..cfg.instances.max(1) {
            instances.push(Instance::boot(id, &cfg, &image, clock.clone())?);
        }
        let fleet_sink = cfg.telemetry.then(TelemetrySink::new);
        Ok(Fleet {
            clock,
            instances,
            fleet_sink,
            journey_series: JourneySeries::default(),
        })
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The instances, indexed by id.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Mutable access to the instances (oracles, tests).
    pub fn instances_mut(&mut self) -> &mut [Instance] {
        &mut self.instances
    }

    /// The fleet-level telemetry sink (plan operations and recovery
    /// windows), when the fleet was built with [`FleetConfig::telemetry`].
    pub fn fleet_telemetry(&self) -> Option<&TelemetrySink> {
        self.fleet_sink.as_ref()
    }

    fn start_run<'a>(&mut self, load: &'a FleetLoad, policy: Policy) -> Run<'a> {
        let baseline = self
            .instances
            .iter()
            .map(|i| (i.sys.stats().component_reboots, i.sys.stats().full_reboots))
            .collect();
        let n_clients = load.clients.max(1);
        // A hint, not a bound: records grow past it, and the product of two
        // in-range counts can ask for more memory than the host has.
        let expected = n_clients
            .saturating_mul(load.requests_per_client)
            .min(PRESIZE_CEILING);
        let per_instance_cap = expected / self.instances.len() + 16;
        for inst in &mut self.instances {
            // Downtime from boot or a previous run is history, not a
            // reason to drain now.
            inst.ack_downtime();
        }
        Run {
            load,
            started: self.clock.now(),
            one_way: self.instances[0].sys.costs().net_rtt(0, load.remote) / 2,
            baseline,
            reports: (0..self.instances.len())
                .map(|_| LoadReport::with_capacity(per_instance_cap))
                .collect(),
            clients: (0..n_clients)
                .map(|_| FleetClient {
                    conn: None,
                    home: None,
                    sent: 0,
                    ever_connected: false,
                })
                .collect(),
            balancer: Balancer::new(policy),
            counters: Counters::default(),
            request: format!("GET {} HTTP/1.1\r\nHost: vampos\r\n\r\n", load.path),
        }
    }

    fn finish_run(&mut self, run: Run) -> FleetRunReport {
        let mut component_reboots = 0;
        let mut full_reboots = 0;
        for (inst, (comp0, full0)) in self.instances.iter().zip(&run.baseline) {
            component_reboots += inst.sys.stats().component_reboots - comp0;
            full_reboots += inst.sys.stats().full_reboots - full0;
        }
        let mut report = FleetRunReport {
            per_instance: run.reports,
            retried: run.counters.retried,
            redirects: run.counters.redirects,
            issued: run.counters.issued,
            completed: run.counters.completed,
            component_reboots,
            full_reboots,
            duration: Nanos::ZERO,
        };
        report.stamp_duration(self.clock.now().saturating_sub(run.started));
        report
    }

    /// Runs `load` under `policy` while firing `plan` on the event heap.
    ///
    /// Requests and maintenance operations interleave on the shared clock
    /// in the heap's `(time, class, actor, sequence)` order; a request
    /// finding its connection reset records the failed transaction and is
    /// re-issued once through the balancer (`retried`). The heap drains
    /// completely before the run returns, so a plan never outlives its run
    /// and closed-loop clients always observe their last response.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures (fail-stop).
    pub fn run(
        &mut self,
        load: &FleetLoad,
        policy: Policy,
        plan: FleetPlan,
    ) -> Result<FleetRunReport, OsError> {
        self.drive(load, policy, plan, None, |_, _, front| Ok(front.end))
    }

    /// [`Fleet::run`] with the escalation ladder supervising recovery:
    /// request and maintenance failures that `run` would propagate (and
    /// abort the run on) are caught, recorded as failed transactions, and
    /// fed to `ladder`; when an instance's consecutive-failure streak
    /// crosses the ladder's threshold the next rung fires — component
    /// rejuvenation, then a full instance reboot, then permanent fleet
    /// failover. This is the entry point the `recursive` chaos family
    /// drives: its faults corrupt the recovery machinery itself, so the
    /// run loop cannot assume any single recovery mechanism works.
    ///
    /// With a ladder that never fires (no failures) the request stream and
    /// records match [`Fleet::run`] exactly — the supervision is purely
    /// additive.
    ///
    /// # Errors
    ///
    /// Only instance *boot* problems propagate; everything mid-run is
    /// absorbed by the ladder.
    pub fn run_supervised(
        &mut self,
        load: &FleetLoad,
        policy: Policy,
        plan: FleetPlan,
        ladder: &mut EscalationLadder,
    ) -> Result<FleetRunReport, OsError> {
        self.drive(
            load,
            policy,
            plan,
            Some(ladder),
            |_, _, front| Ok(front.end),
        )
    }

    /// [`Fleet::run`] with a continuation: every dispatched request is
    /// handed to `then(journey, due, &front)`, which returns when the
    /// client finally observes the journey's end — [`Fleet::run`] itself
    /// is the identity continuation `front.end`. The mesh carries the
    /// journey across its stage pipeline there, on the shared clock and in
    /// arrival order.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures (fail-stop), the
    /// continuation's included.
    pub fn run_with(
        &mut self,
        load: &FleetLoad,
        policy: Policy,
        plan: FleetPlan,
        then: impl FnMut(u64, Nanos, &FrontOutcome) -> Result<Nanos, OsError>,
    ) -> Result<FleetRunReport, OsError> {
        self.drive(load, policy, plan, None, then)
    }

    /// The one drive loop. With a `ladder`, failures are reported to it
    /// (and its rungs fired) instead of aborting the run.
    fn drive(
        &mut self,
        load: &FleetLoad,
        policy: Policy,
        plan: FleetPlan,
        mut ladder: Option<&mut EscalationLadder>,
        mut then: impl FnMut(u64, Nanos, &FrontOutcome) -> Result<Nanos, OsError>,
    ) -> Result<FleetRunReport, OsError> {
        let mut run = self.start_run(load, policy);
        let started = run.started;
        let ops = plan.into_firing_order();

        let mut heap = EventHeap::default();
        // Plan events are pushed in firing order, so among themselves they
        // pop in exactly `ops` order and a plain cursor recovers the op.
        for op in &ops {
            heap.push(started + op.at, EventClass::Plan, op.instance as u64);
        }
        if load.requests_per_client > 0 {
            for i in 0..run.clients.len() {
                heap.push(run.first_due(i), EventClass::Arrival, i as u64);
            }
        }

        let mut op_idx = 0;
        while let Some(ev) = heap.pop() {
            match ev.class {
                EventClass::Plan => {
                    let op = &ops[op_idx];
                    op_idx += 1;
                    if let Err(err) = self.fire_op(op, started, &mut run.balancer) {
                        let Some(ladder) = ladder.as_deref_mut() else {
                            return Err(err);
                        };
                        let at = self.clock.now();
                        let reason = format!("plan op failed: {err}");
                        if let Some(rung) = ladder.note_failure(op.instance, at, &reason) {
                            self.fire_rung(op.instance, rung, at, &reason);
                        }
                    }
                    self.note_op_fired(op, started, &mut heap);
                }
                EventClass::Arrival => {
                    let idx = ev.actor as usize;
                    self.clock.advance_to(ev.at);
                    run.counters.issued += 1;
                    let front = self.dispatch(&mut run, idx, ev.at, ladder.as_deref_mut())?;
                    let end = then(run.counters.issued, ev.at, &front)?;
                    let sent = &mut run.clients[idx].sent;
                    *sent += 1;
                    if load.shape == ArrivalShape::ClosedLoop {
                        heap.push(end.max(ev.at), EventClass::Completion, ev.actor);
                    } else {
                        run.counters.completed += 1;
                        if *sent < load.requests_per_client {
                            let next = load.shape.next_due(ev.at, started, *sent, load.think_time);
                            heap.push(next, EventClass::Arrival, ev.actor);
                        }
                    }
                }
                EventClass::Completion => {
                    run.counters.completed += 1;
                    debug_assert!(run.counters.completed <= run.counters.issued);
                    if run.clients[ev.actor as usize].sent < load.requests_per_client {
                        heap.push(ev.at + load.think_time, EventClass::Arrival, ev.actor);
                    }
                }
                EventClass::Window => {
                    if let Some(sink) = &self.fleet_sink {
                        let label = self.instances[ev.actor as usize].label();
                        sink.with(|hub| {
                            let label = format_args!("{label}");
                            Collector::instant(hub, "fleet", "window_close", label, ev.at);
                        });
                    }
                }
            }
        }
        debug_assert_eq!(run.counters.issued, run.counters.completed);

        Ok(self.finish_run(run))
    }

    /// Performs one rung's recovery action against `instance`
    /// ([`Rung::act`]) and records the per-rung telemetry span
    /// (`rung:<rung>:<reason>` on the fleet track). Rung actions never
    /// propagate errors: a recovery attempt that itself fails is exactly
    /// what the next rung is for.
    fn fire_rung(&mut self, instance: usize, rung: Rung, at: Nanos, reason: &str) {
        let label = Name::from(self.instances[instance].label());
        if let Some(sink) = &self.fleet_sink {
            let kind = format!("rung:{}:{}", rung.name(), reason);
            sink.with(|hub| {
                Collector::instant(hub, "fleet", rung.name(), format_args!("{label}"), at);
                hub.metrics_mut().counter_add(
                    "vampos_fleet_rungs_total",
                    &[("rung", rung.name())],
                    1,
                );
                hub.recovery_begin(&label, &kind, at);
            });
        }
        let _ = rung.act(&mut self.instances[instance], at);
        if let Some(sink) = &self.fleet_sink {
            let end = self.clock.now().max(at);
            sink.with(|hub| {
                hub.recovery_end(&label, end, 0, 0);
            });
        }
    }

    /// Fires one plan op at its scheduled time. The balancer is here for
    /// [`RecoveryFault::BalancerStaleView`], the one op that targets it
    /// rather than an instance.
    fn fire_op(
        &mut self,
        op: &FleetOp,
        started: Nanos,
        balancer: &mut Balancer,
    ) -> Result<(), OsError> {
        let at = started + op.at;
        self.clock.advance_to(at);
        let inst = &mut self.instances[op.instance];
        match &op.kind {
            FleetOpKind::Drain => inst.set_draining(true),
            FleetOpKind::Resume => inst.set_draining(false),
            FleetOpKind::RejuvenateComponents => inst.rejuvenate(at)?,
            FleetOpKind::FullReboot => inst.full_reboot(at)?,
            FleetOpKind::Inject(fault) => inst.sys.inject_fault(fault.clone()),
            FleetOpKind::RecoveryFault(fault) => match fault {
                RecoveryFault::Ninep(glitch) => inst
                    .sys
                    .host()
                    .with(|w| w.ninep_mut().inject_glitch(*glitch)),
                RecoveryFault::Ring(glitch) => inst
                    .sys
                    .host()
                    .with(|w| w.inject_ninep_ring_glitch(*glitch)),
                RecoveryFault::DetectorFalseNegative { window } => {
                    inst.sys.suppress_detection(*window);
                }
                RecoveryFault::DetectorFalsePositive { component } => {
                    // The needless reboot runs right here; its downtime
                    // window is deliberately *not* acked — the
                    // recovery-aware balancer must discover it through the
                    // detector and drain around it.
                    let _ = inst.sys.spurious_detection(component)?;
                }
                RecoveryFault::BalancerStaleView { window } => {
                    balancer.freeze_view(&self.instances, at + *window);
                }
                RecoveryFault::CheckpointCorrupt { component } => {
                    inst.sys.corrupt_boot_checkpoint(component);
                }
                RecoveryFault::ReplayDivergence { component } => {
                    let _ = inst.sys.corrupt_replay_log(component);
                }
                RecoveryFault::RebootDuringReboot { component } => {
                    inst.sys.arm_reboot_interrupt(component);
                }
            },
        }
        Ok(())
    }

    /// Fleet-level telemetry for a fired plan op: an instant on the
    /// `fleet` track, a recovery span covering the maintenance window, and
    /// a [`EventClass::Window`] heap event marking its close. Bookkeeping
    /// only — nothing here touches the clock or instance state.
    fn note_op_fired(&mut self, op: &FleetOp, started: Nanos, heap: &mut EventHeap) {
        let Some(sink) = &self.fleet_sink else {
            return;
        };
        let at = started + op.at;
        let inst = &self.instances[op.instance];
        let label = inst.label();
        let (name, window) = match &op.kind {
            FleetOpKind::Drain => ("drain", None),
            FleetOpKind::Resume => ("resume", None),
            FleetOpKind::RejuvenateComponents => ("rejuvenate", Some(inst.recovery_until())),
            FleetOpKind::FullReboot => ("full_reboot", Some(inst.recovery_until())),
            FleetOpKind::Inject(_) => ("inject", None),
            FleetOpKind::RecoveryFault(fault) => (fault.name(), None),
        };
        sink.with(|hub| {
            Collector::instant(hub, "fleet", name, format_args!("{label}"), at);
            hub.metrics_mut()
                .counter_add("vampos_fleet_ops_total", &[("kind", name)], 1);
        });
        if let Some(end) = window {
            let close = end.max(at);
            let label = Name::from(label);
            sink.with(|hub| {
                hub.recovery_begin(&label, "plan", at);
                hub.recovery_end(&label, close, 0, 0);
            });
            heap.push(close, EventClass::Window, op.instance as u64);
        }
    }

    /// Issues client `idx`'s request due at `due`, retrying once through
    /// the balancer if the connection turns out to be server-reset.
    /// Returns the booked outcome; its `end` is the completion time the
    /// client observes (equal to `due` for requests that die before
    /// service).
    ///
    /// Without a `ladder`, a connect or poll failure aborts the run. With
    /// one, it becomes a failed transaction: the connection is dropped,
    /// every outcome is reported to the ladder, and a failure streak that
    /// crosses its threshold fires the next rung before this returns.
    fn dispatch(
        &mut self,
        run: &mut Run,
        idx: usize,
        due: Nanos,
        mut ladder: Option<&mut EscalationLadder>,
    ) -> Result<FrontOutcome, OsError> {
        let Run {
            load,
            one_way,
            reports,
            clients,
            balancer,
            counters,
            request,
            ..
        } = run;
        let (c, one_way) = (&mut clients[idx], *one_way);
        // The journey id is the fleet-wide issue sequence number — minted
        // once per arrival (retries keep it), identical across the heap
        // engine, the tick reference, and the bare single-system loop.
        let journey = counters.issued;
        let forensics = self.fleet_sink.is_some();
        let mut hops: Vec<JourneyHop> = Vec::new();
        let mut attempts = 0;
        // The failure to report to the ladder: `(instance, reason)`.
        let mut failure: Option<(usize, String)> = None;
        let outcome = loop {
            // A connection the server lost is a failed transaction, found
            // out immediately (TCP reset): record it, then re-issue once
            // through the balancer.
            if let Some((i, conn)) = c.conn {
                if self.instances[i].conn_dead(conn) {
                    let hops = forensics.then_some(&mut hops);
                    note_dead_attempt(&self.instances[i], &mut reports[i], due, hops);
                    c.conn = None;
                    if attempts == 0 {
                        attempts += 1;
                        counters.retried += 1;
                        continue;
                    }
                    failure = Some((i, "connection reset twice".to_owned()));
                    break FrontOutcome::failed(due, i);
                }
                if balancer.should_migrate(&mut self.instances, i, due)
                    || balancer.should_return_home(&self.instances, i, c.home, due)
                {
                    self.instances[i].close(conn);
                    c.conn = None;
                    counters.redirects += 1;
                }
            }

            let target = match c.conn {
                Some((i, _)) => i,
                None => balancer
                    .home_target(&self.instances, c.home, due)
                    .unwrap_or_else(|| balancer.route(&mut self.instances, due)),
            };
            if c.home.is_none() {
                c.home = Some(target);
            }
            let (inst, report) = (&mut self.instances[target], &mut reports[target]);
            let t0 = inst.sys.clock().now();
            let conn = match c.conn {
                Some((_, conn)) => conn,
                None => match inst.connect() {
                    Ok(conn) => {
                        if c.ever_connected {
                            report.reconnects += 1;
                        }
                        c.ever_connected = true;
                        c.conn = Some((target, conn));
                        conn
                    }
                    Err(err) if ladder.is_none() => return Err(err),
                    Err(err) => {
                        note_dead_attempt(inst, report, due, forensics.then_some(&mut hops));
                        failure = Some((target, format!("connect failed: {err}")));
                        break FrontOutcome::failed(due, target);
                    }
                },
            };
            let sent = exchange(
                &mut inst.sys,
                &mut inst.app,
                conn,
                request.as_bytes(),
                one_way,
            );
            let response = match sent {
                Ok(response) => response,
                Err(err) if ladder.is_none() => return Err(err),
                Err(err) => {
                    inst.observe_detector(due);
                    note_dead_attempt(inst, report, due, forensics.then_some(&mut hops));
                    c.conn = None;
                    failure = Some((target, format!("poll failed: {err}")));
                    break FrontOutcome::failed(due, target);
                }
            };
            let served = response.starts_with(b"HTTP/1.1 200") && !inst.conn_dead(conn);

            // Book the request against the instance's FIFO service queue:
            // whatever the exchange cost beyond the two flights is server
            // occupancy.
            let booked = inst.book_work(t0, due, one_way, one_way + one_way);
            let ok = served && booked.end.saturating_sub(due) <= CLIENT_TIMEOUT;
            if served {
                inst.note_service(due, &booked);
                note_serve_span(
                    inst.sys.telemetry(),
                    journey,
                    booked.busy_from,
                    booked.arrival,
                    booked.service(),
                );
                if !load.keepalive {
                    inst.close(conn);
                    c.conn = None;
                }
                if let Some(ladder) = ladder.as_deref_mut() {
                    // A served response is a ladder success even when it
                    // blows the client deadline: the recovery plane worked,
                    // only the queue was long. The acked-loss oracle
                    // separately checks that what the client acknowledged
                    // was the truth.
                    ladder.note_success(target);
                    if ladder
                        .expected_body()
                        .is_some_and(|expected| http_body(&response) != expected)
                    {
                        ladder.note_acked_bad();
                    }
                }
            } else {
                c.conn = None;
                failure = Some((target, "request not served".to_owned()));
            }
            report.records.push(RequestRecord {
                start: due,
                end: booked.end,
                ok,
            });
            if forensics {
                hops.push(JourneyHop {
                    label: inst.shared_label().clone(),
                    start: due,
                    end: booked.end,
                    served,
                    cost: booked.cost,
                });
            }
            break FrontOutcome {
                end: booked.end,
                ok,
                served,
                instance: target,
                cost: booked.cost,
            };
        };
        self.note_journey(journey, due, outcome.end, outcome.ok, &hops);
        if let (Some(ladder), Some((target, reason))) = (ladder, failure) {
            if let Some(rung) = ladder.note_failure(target, due, &reason) {
                self.fire_rung(target, rung, self.clock.now(), &reason);
            }
        }
        Ok(outcome)
    }

    /// Records the fleet-level journey root and its hop spans, plus the
    /// journey metrics, on the fleet hub. Bookkeeping only: nothing here
    /// touches the clock or instance state.
    fn note_journey(
        &mut self,
        journey: u64,
        due: Nanos,
        end: Nanos,
        ok: bool,
        hops: &[JourneyHop],
    ) {
        let Some(sink) = &self.fleet_sink else {
            return;
        };
        let series = &mut self.journey_series;
        let stall: u64 = hops.iter().map(|h| h.cost.stall_ns).sum();
        sink.with(|hub| {
            let root = hub.push_span(
                "journeys",
                "journey",
                SpanKind::Journey,
                due,
                end,
                None,
                [
                    ("journey", AttrValue::U64(journey)),
                    ("ok", AttrValue::Bool(ok)),
                    ("hops", AttrValue::U64(hops.len() as u64)),
                ],
            );
            for h in hops {
                hub.push_span(
                    "journeys",
                    "hop",
                    SpanKind::Journey,
                    h.start,
                    h.end,
                    Some(root),
                    [
                        ("journey", AttrValue::U64(journey)),
                        ("instance", h.label.clone().into()),
                        ("served", AttrValue::Bool(h.served)),
                        ("wire_ns", AttrValue::U64(h.cost.wire_ns)),
                        ("queue_ns", AttrValue::U64(h.cost.queue_ns)),
                        ("stall_ns", AttrValue::U64(h.cost.stall_ns)),
                        ("service_ns", AttrValue::U64(h.cost.service_ns)),
                    ],
                );
            }
            let metrics = hub.metrics_mut();
            let total = *series.total[usize::from(ok)].get_or_insert_with(|| {
                let ok = if ok { "true" } else { "false" };
                metrics.counter("vampos_journeys_total", &[("ok", ok)])
            });
            metrics.add(total, 1);
            let latency = *series
                .latency
                .get_or_insert_with(|| metrics.histogram("vampos_journey_latency_us", &[]));
            metrics.record(latency, end.saturating_sub(due));
            let stall_us = *series
                .stall
                .get_or_insert_with(|| metrics.histogram("vampos_journey_stall_us", &[]));
            metrics.record(stall_us, Nanos::from_nanos(stall));
        });
    }

    /// Sends one probe GET to every instance over a fresh connection;
    /// returns whether each answered `200 OK`. Liveness oracle helper.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures.
    pub fn probe(&mut self, path: &str) -> Result<Vec<bool>, OsError> {
        let one_way = self.instances[0].sys.costs().net_rtt(0, false) / 2;
        let request = format!("GET {path} HTTP/1.1\r\nHost: vampos\r\n\r\n");
        let probe =
            |inst: &mut Instance| Ok(inst.probe(&request, one_way)?.starts_with(b"HTTP/1.1 200"));
        self.instances.iter_mut().map(probe).collect()
    }

    /// Multi-process Chrome trace: one Perfetto process (pid `id + 1`,
    /// named `instance-NN`) per instance, plus a trailing `fleet` process
    /// (pid `instances + 1`) carrying plan operations and recovery
    /// windows. `None` unless the fleet was built with
    /// [`FleetConfig::telemetry`].
    pub fn chrome_trace_json(&self) -> Option<String> {
        // The records are rendered where they sit: every hub stays borrowed
        // while the one document is written.
        let mut hubs: Vec<(u64, &str, Ref<'_, TelemetryHub>)> = self
            .instances
            .iter()
            .zip(1..)
            .map(|(inst, pid)| Some((pid, inst.label(), inst.sys.telemetry()?.hub())))
            .collect::<Option<_>>()?;
        if let Some(sink) = &self.fleet_sink {
            hubs.push((self.instances.len() as u64 + 1, "fleet", sink.hub()));
        }
        let processes: Vec<ProcessRefs<'_>> = hubs
            .iter()
            .map(|(pid, name, hub)| hub.process(*pid, Some(name)))
            .collect();
        Some(render_processes(&processes))
    }

    /// Single-process Chrome trace of one instance, byte-compatible with
    /// [`vampos_telemetry::TelemetryHub::chrome_trace_json`].
    pub fn instance_trace(&self, id: usize) -> Option<String> {
        self.instances
            .get(id)?
            .sys
            .telemetry()
            .map(|sink| sink.with(|hub| hub.chrome_trace_json()))
    }

    /// Per-process span exports for [`vampos_telemetry::analyze`]: one
    /// `(label, spans)` entry per instance plus a trailing `fleet` entry.
    /// `None` unless the fleet was built with [`FleetConfig::telemetry`].
    pub fn span_processes(&self) -> Option<Vec<(String, Vec<SpanRecord>)>> {
        let mut out: Vec<(String, Vec<SpanRecord>)> = self
            .instances
            .iter()
            .map(|inst| {
                inst.sys
                    .telemetry()
                    .map(|sink| (inst.label().to_owned(), sink.hub().export_spans()))
            })
            .collect::<Option<Vec<_>>>()?;
        if let Some(sink) = &self.fleet_sink {
            out.push(("fleet".to_owned(), sink.hub().export_spans()));
        }
        Some(out)
    }

    /// The run's metrics folded across every instance hub and the fleet
    /// hub (counters and gauges sum, histograms merge). `None` unless the
    /// fleet was built with [`FleetConfig::telemetry`].
    pub fn merged_metrics(&self) -> Option<MetricsRegistry> {
        let mut merged = MetricsRegistry::default();
        for inst in &self.instances {
            let sink = inst.sys.telemetry()?;
            sink.with(|hub| merged.merge(hub.metrics()));
        }
        if let Some(sink) = &self.fleet_sink {
            sink.with(|hub| merged.merge(hub.metrics()));
        }
        Some(merged)
    }
}

#[cfg(test)]
mod tick_reference;
