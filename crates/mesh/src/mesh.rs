//! The mesh itself: a front-tier [`Fleet`] plus backend service replicas
//! on one shared virtual clock. [`Mesh::run`] is [`Fleet::run_with`] with a
//! continuation that fans every served ingress request across the
//! topology's stage pipeline.
//!
//! # Determinism
//!
//! The front tier's own drive loop runs the whole show — same event heap,
//! same total order (`(time, class, actor, seq)`) — so a depth-1 mesh run
//! is byte-identical to the equivalent plain fleet run; the equivalence
//! proptest holds it to exactly that. Backend maintenance ops are not heap
//! events: they fire lazily, in `(at, service, replica)` order, whenever
//! pipeline work first reaches their scheduled grid time (and any
//! stragglers drain before the report is built). Journey processing order
//! is the arrival order, so the whole run is a pure function of
//! `(config, load, policy, plan, plant)`.
//!
//! # Journey digests
//!
//! Every journey folds the winning response bytes of each stage into an
//! order-sensitive FNV-1a digest ([`DigestBuilder`]). Responses are pure
//! value functions of the journey id (warmed auth reads, read-your-write
//! kv, per-journey sql rows), so a faulted run's digests must match a
//! fault-free twin's journey-for-journey — the pipeline-equivalence
//! oracle of the mesh chaos family.

use std::rc::Rc;

use vampos_cluster::{
    Fleet, FleetConfig, FleetLoad, FleetOpKind, FleetPlan, FrontOutcome, HopCost, Policy,
};
use vampos_core::Image;
use vampos_sim::{Nanos, SimClock};
use vampos_telemetry::metrics::{CounterId, HistogramId};
use vampos_telemetry::{AttrValue, Collector, SpanKind, TelemetrySink, ThinName};
use vampos_ukernel::digest::DigestBuilder;
use vampos_ukernel::OsError;

use crate::backend::{self, expected_response, BackendInstance, HopServe};
use crate::report::{JourneyOutcome, MeshRunReport, StageRecord, StageReport};
use crate::topology::{MeshTopology, Routing, ServiceKind, StageOp, SVC_KV};

/// Digest perturbation the wrong-value plant applies — any non-zero
/// constant works; the twin comparison only checks equality.
const WRONG_VALUE_TWIST: u64 = 0x00DE_FEC8_ED00_C0DE;

/// Extra attempts the retry-storm plant books past the budget.
const STORM_EXTRA_ATTEMPTS: u32 = 2;

/// Router overhead between the front tier and the first stage, and again
/// on the way back.
const ROUTE_COST: Nanos = Nanos::from_micros(2);

/// Full mesh configuration.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Front-tier fleet (instances, seed, mode, component set, telemetry).
    pub front: FleetConfig,
    /// Service registry and stage pipeline.
    pub topology: MeshTopology,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            front: FleetConfig::default(),
            topology: MeshTopology::standard(2, true),
        }
    }
}

/// What a backend maintenance operation does to its target replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendOpKind {
    /// Component-level rejuvenation ([`vampos_core::System::rejuvenate_all`]);
    /// app state survives.
    Rejuvenate,
    /// Conventional full reboot; the app re-boots from durable state and
    /// the idempotency table is lost.
    FullReboot,
    /// A spurious failure-detector firing against one component — the
    /// recovery plane needlessly reboots a healthy component.
    SpuriousReboot {
        /// Component the detector accuses.
        component: String,
    },
}

impl BackendOpKind {
    /// Stable name used in telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            BackendOpKind::Rejuvenate => "rejuvenate",
            BackendOpKind::FullReboot => "full_reboot",
            BackendOpKind::SpuriousReboot { .. } => "spurious_reboot",
        }
    }

    /// Performs the op on `replica` at grid time `at` and books its
    /// window. Component-level ops (rejuvenation, a spurious detector
    /// firing — the needless reboot the pipeline must ride out) preserve
    /// app memory; a full reboot crashes and re-boots the app (kv replays
    /// its AOF, sql reloads its database file) and loses the idempotency
    /// table with it.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered reboot failures.
    pub fn apply(&self, replica: &mut BackendInstance, at: Nanos) -> Result<(), OsError> {
        match self {
            BackendOpKind::Rejuvenate => replica.rejuvenate(at),
            BackendOpKind::FullReboot => replica.full_reboot(at),
            BackendOpKind::SpuriousReboot { component } => {
                replica.maintain(at, |sys, _| sys.spurious_detection(component).map(drop))
            }
        }
    }
}

/// One scheduled backend maintenance operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendOp {
    /// Firing time, relative to the start of the run.
    pub at: Nanos,
    /// Target service index in [`MeshTopology::services`].
    pub service: usize,
    /// Target replica.
    pub replica: usize,
    /// The action.
    pub kind: BackendOpKind,
}

/// A mesh maintenance plan: front-tier fleet ops plus backend ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeshPlan {
    /// Operations against the front tier ([`Fleet`] semantics).
    pub front: FleetPlan,
    /// Operations against backend replicas.
    pub backend: Vec<BackendOp>,
}

impl MeshPlan {
    /// The empty plan.
    pub fn none() -> MeshPlan {
        MeshPlan::default()
    }

    /// Appends a backend operation.
    pub fn push_backend(&mut self, at: Nanos, service: usize, replica: usize, kind: BackendOpKind) {
        self.backend.push(BackendOp {
            at,
            service,
            replica,
            kind,
        });
    }

    /// The `(name, label)` of every [`MeshPlan::scenario`]: `vampos-mesh
    /// --config` takes the name, the `repro mesh` table prints the label,
    /// and `scenario` answers to both.
    pub const SCENARIOS: [(&'static str, &'static str); 4] = [
        ("fault-free", "fault-free"),
        ("reboot", "component-reboot"),
        ("recovery", "recovery-plane"),
        ("rolling", "rolling-rejuv"),
    ];

    /// A recovery scenario over the standard topology, scaled to the
    /// load's virtual span `span_ns` so its windows land while traffic is
    /// in flight: `reboot` rejuvenates a KV replica and then front
    /// instance `1 % front`; `recovery` has the failure detector misfire
    /// against a healthy `lwip` on a KV replica; `rolling` rolls a
    /// rejuvenation wave over the `front` instances while a KV replica
    /// takes its own window. `None` for a name outside
    /// [`MeshPlan::SCENARIOS`].
    pub fn scenario(name: &str, front: usize, span_ns: u64) -> Option<MeshPlan> {
        let (name, _) = Self::SCENARIOS
            .iter()
            .find(|(short, label)| name == *short || name == *label)?;
        let at = |num: u64, den: u64| Nanos::from_nanos(span_ns * num / den);
        let mut plan = MeshPlan::none();
        match *name {
            "reboot" => {
                plan.push_backend(at(1, 4), SVC_KV, 0, BackendOpKind::Rejuvenate);
                plan.front
                    .push(at(1, 2), 1 % front, FleetOpKind::RejuvenateComponents);
            }
            "recovery" => {
                let component = "lwip".to_owned();
                let misfire = BackendOpKind::SpuriousReboot { component };
                plan.push_backend(at(1, 4), SVC_KV, 0, misfire);
            }
            "rolling" => {
                plan.front = FleetPlan::rolling_rejuvenation(front, at(1, 8), at(1, 6), at(1, 24));
                plan.push_backend(at(2, 3), SVC_KV, 0, BackendOpKind::Rejuvenate);
            }
            _ => {}
        }
        Some(plan)
    }

    /// Backend ops in firing order: `(at, service, replica)`, stable.
    fn backend_firing_order(&self) -> Vec<BackendOp> {
        let mut ops = self.backend.clone();
        ops.sort_by_key(|op| (op.at, op.service, op.replica));
        ops
    }
}

/// Which invariant a planted run deliberately breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshPlantKind {
    /// Perturb the planted journey's digest: the pipeline-equivalence
    /// oracle (and only it) must fire.
    WrongValue,
    /// Acknowledge the planted journey with fabricated (correct-looking)
    /// responses while applying nothing: the no-acknowledged-loss oracle
    /// (and only it) must fire.
    AckedLoss,
    /// Book more attempts than the policy allows on the planted journey:
    /// the retry-budget oracle (and only it) must fire.
    RetryStorm,
}

impl MeshPlantKind {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            MeshPlantKind::WrongValue => "wrong-value",
            MeshPlantKind::AckedLoss => "acked-loss",
            MeshPlantKind::RetryStorm => "retry-storm",
        }
    }

    /// Parses a [`MeshPlantKind::name`].
    pub fn from_name(name: &str) -> Option<MeshPlantKind> {
        [
            MeshPlantKind::WrongValue,
            MeshPlantKind::AckedLoss,
            MeshPlantKind::RetryStorm,
        ]
        .into_iter()
        .find(|p| p.name() == name)
    }
}

/// A deliberate violation planted into one journey of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshPlant {
    /// Which invariant to break.
    pub kind: MeshPlantKind,
    /// Journey id to break it on (1-based issue order).
    pub journey: u64,
}

/// A front-tier fleet plus backend service replicas on one shared clock.
pub struct Mesh {
    fleet: Fleet,
    clock: SimClock,
    topology: MeshTopology,
    backends: Vec<Vec<BackendInstance>>,
    backend_one_way: Nanos,
}

impl Mesh {
    /// Boots the mesh: the front fleet first, then every backend replica
    /// in registry order, all on the fleet's clock. The replicas of every
    /// service of one kind boot from one image ([`backend::image`]).
    ///
    /// # Errors
    ///
    /// Propagates the first boot failure.
    pub fn new(cfg: MeshConfig) -> Result<Mesh, OsError> {
        let seed = cfg.front.seed;
        let fleet = Fleet::new(cfg.front)?;
        let clock = fleet.clock().clone();
        let mut backends = Vec::with_capacity(cfg.topology.services.len());
        let mut images: Vec<(ServiceKind, Rc<Image>)> = Vec::with_capacity(2);
        for (svc_idx, spec) in cfg.topology.services.iter().enumerate() {
            let image = match images.iter().find(|(kind, _)| *kind == spec.kind) {
                Some((_, image)) => Rc::clone(image),
                None => {
                    let image = backend::image(spec.kind)?;
                    images.push((spec.kind, Rc::clone(&image)));
                    image
                }
            };
            let mut replicas = Vec::with_capacity(spec.replicas.max(1));
            for replica in 0..spec.replicas.max(1) {
                let clock = clock.clone();
                replicas.push(backend::boot(spec, svc_idx, replica, seed, &image, clock)?);
            }
            backends.push(replicas);
        }
        let backend_one_way = backends
            .first()
            .and_then(|r| r.first())
            .map(|b| b.sys.costs().net_rtt(0, false) / 2)
            .unwrap_or(Nanos::ZERO);
        Ok(Mesh {
            fleet,
            clock,
            topology: cfg.topology,
            backends,
            backend_one_way,
        })
    }

    /// The front-tier fleet (trace and metrics export, probes).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The topology the mesh was booted with.
    pub fn topology(&self) -> &MeshTopology {
        &self.topology
    }

    /// The backend replicas of service `service`.
    pub fn backends(&self, service: usize) -> &[BackendInstance] {
        &self.backends[service]
    }

    /// Whether every durable write of `journey` is present where the
    /// pipeline's write stages put it: `(stage label, present)` per write
    /// stage. The no-acknowledged-loss oracle calls this for every acked
    /// journey after the run.
    pub fn write_state_present(&mut self, journey: u64) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        for stage in &self.topology.stages {
            if !stage.op.is_write() {
                continue;
            }
            let label = format!(
                "{}:{}",
                self.topology.services[stage.service].name,
                stage.op.short()
            );
            let replicas = &mut self.backends[stage.service];
            let pinned = journey as usize % replicas.len();
            let inst = &mut replicas[pinned];
            out.push((label, inst.app.holds(&mut inst.sys, stage.op, journey)));
        }
        out
    }

    /// Runs a load with a maintenance plan. See the module docs for the
    /// event order; the result is a pure function of the inputs.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures (fail-stop).
    pub fn run(
        &mut self,
        load: &FleetLoad,
        policy: Policy,
        plan: MeshPlan,
    ) -> Result<MeshRunReport, OsError> {
        self.run_inner(load, policy, plan, None)
    }

    /// [`Mesh::run`] with a deliberate violation planted into one journey
    /// — the chaos family's oracle self-test.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered system failures (fail-stop).
    pub fn run_planted(
        &mut self,
        load: &FleetLoad,
        policy: Policy,
        plan: MeshPlan,
        plant: MeshPlant,
    ) -> Result<MeshRunReport, OsError> {
        self.run_inner(load, policy, plan, Some(plant))
    }

    fn run_inner(
        &mut self,
        load: &FleetLoad,
        policy: Policy,
        plan: MeshPlan,
        plant: Option<MeshPlant>,
    ) -> Result<MeshRunReport, OsError> {
        let started = self.clock.now();
        let mut pipeline = Pipeline {
            clock: &self.clock,
            topology: &self.topology,
            backends: &mut self.backends,
            one_way: self.backend_one_way,
            sink: self.fleet.fleet_telemetry().cloned(),
            stage_labels: (0..self.topology.stages.len())
                .map(|i| ThinName::from(self.topology.stage_label(i)))
                .collect(),
            series: MeshSeries {
                total: [None; 2],
                stage_latency: vec![None; self.topology.stages.len()],
            },
            started,
            ops: plan.backend_firing_order(),
            cursor: 0,
            plant,
            stages: (0..self.topology.stages.len())
                .map(|i| StageReport {
                    label: self.topology.stage_label(i),
                    records: Vec::new(),
                })
                .collect(),
            journeys: Vec::new(),
        };
        let mut front = self
            .fleet
            .run_with(load, policy, plan.front, |journey, due, front| {
                pipeline.carry(journey, due, front)
            })?;
        // Straggler backend ops scheduled past the last pipeline touch. The
        // run lasts until they are done.
        pipeline.fire_ops_until(Nanos::from_nanos(u64::MAX))?;
        front.stamp_duration(self.clock.now().saturating_sub(started));

        let Pipeline {
            stages, journeys, ..
        } = pipeline;
        let retries = stages.iter().map(StageReport::retries).sum();
        let hedges = stages.iter().map(StageReport::hedges).sum();
        Ok(MeshRunReport {
            front,
            stages,
            journeys,
            retries,
            hedges,
        })
    }
}

/// The per-journey mesh metric series of the fleet hub, each resolved at
/// its first update (resolving creates the series) and updated by id from
/// then on.
#[derive(Debug)]
struct MeshSeries {
    /// `vampos_mesh_journeys_total{ok="false"}` and `{ok="true"}`.
    total: [Option<CounterId>; 2],
    /// `vampos_mesh_stage_latency_us{stage=…}`, by stage index.
    stage_latency: Vec<Option<HistogramId>>,
}

/// One run's state behind the front tier: the backend replicas, their
/// maintenance schedule, and the stage and journey records so far.
struct Pipeline<'a> {
    clock: &'a SimClock,
    topology: &'a MeshTopology,
    backends: &'a mut [Vec<BackendInstance>],
    one_way: Nanos,
    sink: Option<TelemetrySink>,
    /// Stage labels as every `mesh_hop` span's `stage` shares them.
    stage_labels: Vec<ThinName>,
    series: MeshSeries,
    started: Nanos,
    /// Backend ops in firing order; `cursor` is the next one to fire.
    ops: Vec<BackendOp>,
    cursor: usize,
    plant: Option<MeshPlant>,
    stages: Vec<StageReport>,
    journeys: Vec<JourneyOutcome>,
}

impl Pipeline<'_> {
    /// The [`Fleet::run_with`] continuation: carries one dispatched
    /// ingress request across the stage pipeline and returns when the
    /// client observes the journey's end.
    fn carry(&mut self, journey: u64, due: Nanos, front: &FrontOutcome) -> Result<Nanos, OsError> {
        let (end, acked, digest) = if front.served && !self.topology.stages.is_empty() {
            let (end, pipe_ok, digest) = self.run_stages(journey, due, front)?;
            (end, front.ok && pipe_ok, digest)
        } else {
            // Front failure, or a depth-1 topology: the journey
            // terminates at the front tier, exactly where [`Fleet::run`]
            // would leave it.
            (front.end, front.ok && front.served, 0)
        };
        self.journeys.push(JourneyOutcome {
            journey,
            start: due,
            end,
            acked,
            digest,
        });
        Ok(end)
    }

    /// Fans one served ingress request across the stage pipeline. Returns
    /// `(end, ok, digest)`: when the final response reached the client,
    /// whether every hop beat a deadline, and the folded response digest.
    fn run_stages(
        &mut self,
        journey: u64,
        due: Nanos,
        front: &FrontOutcome,
    ) -> Result<(Nanos, bool, u64), OsError> {
        let topology = self.topology;
        let planted = |kind| {
            self.plant
                .is_some_and(|p| p.kind == kind && p.journey == journey)
        };
        let (storm, wrong_value) = (
            planted(MeshPlantKind::RetryStorm),
            planted(MeshPlantKind::WrongValue),
        );
        let mut hop_due = front.end + ROUTE_COST;
        let mut digest = DigestBuilder::new();
        let mut records: Vec<(usize, StageRecord)> = Vec::with_capacity(topology.stages.len());
        let mut pipe_ok = true;

        for (si, stage) in topology.stages.iter().enumerate() {
            let policy = stage.policy;
            let replicas = self.backends[stage.service].len();
            let mut att_due = hop_due;
            let mut winner: Option<HopServe> = None;
            let mut attempts = 0;
            let mut hedged = false;

            for attempt in 1..=policy.max_attempts.max(1) {
                attempts = attempt;
                self.fire_ops_until(att_due)?;
                let replica = match stage.routing {
                    Routing::Pinned => journey as usize % replicas,
                    Routing::Replicated => (journey as usize + attempt as usize - 1) % replicas,
                };
                let mut best =
                    self.serve_attempt(stage.service, replica, journey, stage.op, att_due)?;
                if let Some(after) = policy.hedge_after {
                    let hedge_due = att_due + after;
                    if stage.routing == Routing::Replicated && replicas > 1 && best.end > hedge_due
                    {
                        self.fire_ops_until(hedge_due)?;
                        let hedge_replica = (journey as usize + attempt as usize) % replicas;
                        let hedge = self.serve_attempt(
                            stage.service,
                            hedge_replica,
                            journey,
                            stage.op,
                            hedge_due,
                        )?;
                        hedged = true;
                        if hedge.end < best.end {
                            best = hedge;
                        }
                    }
                }
                if best.end.saturating_sub(att_due) <= policy.deadline {
                    winner = Some(best);
                    break;
                }
                // Abandoned: the client walks away at the deadline and
                // re-issues after the (doubling) backoff. The server still
                // finishes the work it booked.
                att_due = att_due + policy.deadline + policy.backoff_after(attempt);
            }

            if storm && si == 0 {
                attempts = policy.max_attempts.max(1) + STORM_EXTRA_ATTEMPTS;
            }

            // A hop that exhausted its budget fails the journey at the
            // last attempt's deadline, and later stages never run.
            let ok = winner.is_some();
            let (end, cost, cached) = match winner {
                Some(best) => {
                    digest = digest.bytes(&best.response);
                    (best.end, best.cost, best.cached)
                }
                None => (att_due, HopCost::default(), false),
            };
            records.push((
                si,
                StageRecord {
                    journey,
                    start: hop_due,
                    end,
                    ok,
                    attempts,
                    hedged,
                    cost,
                    cached,
                },
            ));
            hop_due = end;
            if !ok {
                pipe_ok = false;
                break;
            }
        }

        let mut value = digest.finish();
        if wrong_value {
            value ^= WRONG_VALUE_TWIST;
        }
        let end = hop_due + ROUTE_COST;
        self.note_journey(journey, due, end, front.ok && pipe_ok, &records);
        for (si, rec) in records {
            self.stages[si].records.push(rec);
        }
        Ok((end, pipe_ok, value))
    }

    /// One attempt against one replica — or, for the acked-loss plant's
    /// target journey, a fabricated correct-looking response that applies
    /// nothing anywhere.
    fn serve_attempt(
        &mut self,
        service: usize,
        replica: usize,
        journey: u64,
        op: StageOp,
        att_due: Nanos,
    ) -> Result<HopServe, OsError> {
        let one_way = self.one_way;
        if self.plant.is_some_and(|p| {
            p.kind == MeshPlantKind::AckedLoss
                && p.journey == journey
                && (op.is_write() || op == StageOp::KvGet)
        }) {
            return Ok(HopServe {
                end: att_due + one_way + one_way,
                response: expected_response(op, journey),
                cost: HopCost {
                    wire_ns: (one_way + one_way).as_nanos(),
                    ..HopCost::default()
                },
                cached: false,
            });
        }
        let inst = &mut self.backends[service][replica];
        backend::serve(inst, journey, op, att_due, one_way)
    }

    /// Fires every backend op scheduled at or before `until` (grid time),
    /// in `(at, service, replica)` order.
    fn fire_ops_until(&mut self, until: Nanos) -> Result<(), OsError> {
        while let Some(op) = self.ops.get(self.cursor) {
            let at = self.started + op.at;
            if at > until {
                break;
            }
            self.cursor += 1;
            self.clock.advance_to(at);
            let inst = &mut self.backends[op.service][op.replica];
            op.kind.apply(inst, at)?;
            if let Some(sink) = &self.sink {
                let name = op.kind.name();
                sink.with(|hub| {
                    let detail = format_args!("{name} {}", inst.label());
                    hub.instant("mesh", "backend_op", detail, at);
                    hub.metrics_mut().counter_add(
                        "vampos_mesh_backend_ops_total",
                        &[("kind", name)],
                        1,
                    );
                });
            }
        }
        Ok(())
    }

    /// Emits the journey's mesh spans and metrics on the fleet sink: a
    /// pipeline root span threading the same journey id the front tier's
    /// journey span carries, with one child span per executed hop carrying
    /// the full wire/queue/stall/service decomposition.
    fn note_journey(
        &mut self,
        journey: u64,
        due: Nanos,
        end: Nanos,
        acked: bool,
        records: &[(usize, StageRecord)],
    ) {
        let Some(sink) = &self.sink else {
            return;
        };
        let (labels, series) = (&self.stage_labels, &mut self.series);
        sink.with(|hub| {
            let root = hub.push_span(
                "mesh",
                "pipeline",
                SpanKind::Journey,
                due,
                end,
                None,
                [
                    ("journey", AttrValue::U64(journey)),
                    ("acked", AttrValue::Bool(acked)),
                    ("stages", AttrValue::U64(records.len() as u64)),
                ],
            );
            for (si, rec) in records {
                hub.push_span(
                    "mesh",
                    "mesh_hop",
                    SpanKind::Journey,
                    rec.start,
                    rec.end,
                    Some(root),
                    [
                        ("journey", AttrValue::U64(journey)),
                        ("stage", labels[*si].clone().into()),
                        ("ok", AttrValue::Bool(rec.ok)),
                        ("attempts", AttrValue::U64(u64::from(rec.attempts))),
                        ("hedged", AttrValue::Bool(rec.hedged)),
                        ("cached", AttrValue::Bool(rec.cached)),
                        ("wire_ns", AttrValue::U64(rec.cost.wire_ns)),
                        ("queue_ns", AttrValue::U64(rec.cost.queue_ns)),
                        ("stall_ns", AttrValue::U64(rec.cost.stall_ns)),
                        ("service_ns", AttrValue::U64(rec.cost.service_ns)),
                    ],
                );
            }
            let metrics = hub.metrics_mut();
            let total = *series.total[usize::from(acked)].get_or_insert_with(|| {
                let ok = if acked { "true" } else { "false" };
                metrics.counter("vampos_mesh_journeys_total", &[("ok", ok)])
            });
            metrics.add(total, 1);
            for (si, rec) in records {
                let label = &*labels[*si];
                if rec.attempts > 1 {
                    metrics.counter_add(
                        "vampos_mesh_retries_total",
                        &[("stage", label)],
                        u64::from(rec.attempts - 1),
                    );
                }
                if rec.hedged {
                    metrics.counter_add("vampos_mesh_hedges_total", &[("stage", label)], 1);
                }
                if rec.ok {
                    let latency = *series.stage_latency[*si].get_or_insert_with(|| {
                        metrics.histogram("vampos_mesh_stage_latency_us", &[("stage", label)])
                    });
                    metrics.record(latency, rec.end.saturating_sub(rec.start));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scenario_answers_to_its_name_and_its_label_and_to_nothing_else() {
        for (name, label) in MeshPlan::SCENARIOS {
            let plan = MeshPlan::scenario(name, 3, 1_000_000).expect(name);
            assert_eq!(MeshPlan::scenario(label, 3, 1_000_000), Some(plan.clone()));
            assert_eq!(plan == MeshPlan::none(), name == "fault-free", "{name}");
        }
        assert_eq!(MeshPlan::scenario("reboot ", 3, 1_000_000), None);
    }

    #[test]
    fn the_reboot_scenario_targets_a_front_instance_that_exists() {
        for (front, target) in [(1, 0), (2, 1), (3, 1)] {
            let plan = MeshPlan::scenario("reboot", front, 1_000_000).expect("listed");
            assert_eq!(plan.front.ops()[0].instance, target, "front {front}");
        }
    }
}
