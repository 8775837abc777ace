//! The pinned surface: every call the benchmark makes into `crates/*`.
//!
//! Nothing outside this module names a simulator crate. When a layer's API
//! moves (ROADMAP item 2 reworks the drive loops and the instance model),
//! this file is the one place the benchmark has to follow it, and
//! `benchmark/README.md` lists the functions used here. Only entry points
//! the CLIs and the Criterion benches already use appear; `FrontDrive`,
//! `run_tick_reference`, `run_supervised` and `BackendInstance` do not.
//!
//! The functions are thin on purpose: callers wrap each one in a span, so
//! a function here is one call (or one fixed batch of calls) into one layer.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use vampos_apps::{App, Echo, MiniHttpd, MiniKv, MiniSql};
use vampos_cluster::{
    Balancer, EventClass, EventHeap, FleetConfig, FleetLoad, FleetPlan, FleetRunReport, Policy,
};
use vampos_core::{ComponentSet, FunctionLog, InjectedFault, Mode, System};
use vampos_host::{ClientConnId, HostHandle};
use vampos_mem::{Addr, ArenaLayout, MemoryArena, Snapshot};
use vampos_mesh::{BackendOpKind, Mesh, MeshConfig, MeshPlan, MeshRunReport, MeshTopology};
use vampos_oslib::OpenFlags;
use vampos_sim::{Histogram, Nanos, SimRng, Summary};
use vampos_telemetry::{
    analyze, prometheus, Analysis, MetricsRegistry, SpanKind, SpanRecord, TelemetryHub,
};
use vampos_ukernel::{SessionEvent, TouchSynthesis, Value};
use vampos_workloads::{
    Disruption, EchoLoad, HttpLoad, KvLoad, LoadReport, RequestRecord, Schedule, SqlLoad,
};

pub use vampos_chaos::json::Json;
// Handles callers keep between spans, so they never name a simulator crate.
pub use vampos_cluster::Fleet;

/// Errors cross this boundary as text: the benchmark only reports them.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Parses a JSON document with the tree's one parser.
pub fn parse_json(text: &str) -> Res<Json> {
    vampos_chaos::json::parse_value(text)
}

// ---------------------------------------------------------------- inputs

/// The document every front instance serves: `len` printable bytes drawn
/// from `seed`. Content only; the length (and so the simulated cost of
/// serving it) is fixed by the workload.
pub fn seeded_document(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SimRng::seed_from(seed);
    (0..len).map(|_| b' ' + rng.gen_range(95) as u8).collect()
}

/// `n` latency-like samples (400–600) for the statistics probes.
pub fn seeded_samples(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| 400.0 + 200.0 * rng.gen_f64()).collect()
}

// ----------------------------------------------------------------- cluster

/// Rolling schedule of `vampos-fleet` / `vampos-audit` / `repro fleet`.
const ROLL_START: Nanos = Nanos::from_millis(20);
const ROLL_SPACING: Nanos = Nanos::from_millis(60);
const ROLL_DRAIN_LEAD: Nanos = Nanos::from_millis(8);

const DOC_PATH: &str = "/www/index.html";
const DOC_LEN: usize = 180;

/// Geometry of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShape {
    pub instances: usize,
    pub clients: usize,
    pub requests_per_client: usize,
    pub telemetry: bool,
    /// Rolling rejuvenation of every instance instead of no plan.
    pub rolling: bool,
}

impl FleetShape {
    pub fn requests(&self) -> u64 {
        (self.clients * self.requests_per_client) as u64
    }

    /// Operations in the maintenance plan (4 per instance when rolling:
    /// drain, rejuvenate, undrain and the window close are plan events).
    pub fn plan_ops(&self) -> u64 {
        fleet_plan(self).len() as u64
    }
}

pub fn fleet_config(shape: &FleetShape, seed: u64) -> FleetConfig {
    FleetConfig {
        instances: shape.instances,
        seed,
        telemetry: shape.telemetry,
        files: vec![(DOC_PATH.to_owned(), seeded_document(seed, DOC_LEN))],
        ..FleetConfig::default()
    }
}

pub fn fleet_load(shape: &FleetShape) -> FleetLoad {
    FleetLoad {
        clients: shape.clients,
        requests_per_client: shape.requests_per_client,
        ..FleetLoad::default()
    }
}

pub fn fleet_plan(shape: &FleetShape) -> FleetPlan {
    if shape.rolling {
        FleetPlan::rolling_rejuvenation(shape.instances, ROLL_START, ROLL_SPACING, ROLL_DRAIN_LEAD)
    } else {
        FleetPlan::none()
    }
}

pub fn fleet_boot(cfg: FleetConfig) -> Res<Fleet> {
    Fleet::new(cfg).map_err(text)
}

pub fn fleet_run(fleet: &mut Fleet, load: &FleetLoad, plan: FleetPlan) -> Res<FleetRunReport> {
    fleet.run(load, Policy::RecoveryAware, plan).map_err(text)
}

/// What the benchmark keeps of a [`FleetRunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    pub requests: u64,
    pub successes: u64,
    pub issued: u64,
    pub completed: u64,
    pub retried: u64,
    pub redirects: u64,
    pub component_reboots: u64,
    pub latency_samples: u64,
    pub p99_us: f64,
    pub span_s: f64,
    /// The report as `vampos-fleet` prints it; hashed into `virt_digest`.
    pub rendered: String,
}

/// The end-of-run report merge: `latency_histogram`, `latency_summary`
/// and `p99_us` over the per-instance reports, plus the rendering.
pub fn fleet_reduce(report: &FleetRunReport) -> FleetSummary {
    let mut merged = report.latency_histogram();
    let summary = report.latency_summary();
    let p99_us = report.p99_us();
    let mut rendered = String::new();
    for (i, inst) in report.per_instance.iter().enumerate() {
        let _ = writeln!(
            rendered,
            "{i:>4}  {:>6}  {:>6}  {:>10}",
            inst.successes(),
            inst.failures(),
            inst.reconnects
        );
    }
    let _ = writeln!(
        rendered,
        "total: {}/{} ok, p50 {:.2}us, p99 {:.2}us, mean {:.4}us, max {:.2}us, {} retried, \
         {} redirected, {} component / {} full reboot(s), {} issued / {} completed, {}",
        report.successes(),
        report.requests(),
        merged.percentile(50.0),
        p99_us,
        summary.mean(),
        summary.max(),
        report.retried,
        report.redirects,
        report.component_reboots,
        report.full_reboots,
        report.issued,
        report.completed,
        report.duration
    );
    FleetSummary {
        requests: report.requests() as u64,
        successes: report.successes() as u64,
        issued: report.issued,
        completed: report.completed,
        retried: report.retried,
        redirects: report.redirects,
        component_reboots: report.component_reboots,
        latency_samples: merged.len() as u64,
        p99_us,
        span_s: report.duration.as_secs_f64(),
        rendered,
    }
}

pub fn fleet_span_processes(fleet: &Fleet) -> Res<Vec<(String, Vec<SpanRecord>)>> {
    fleet.span_processes().ok_or_else(telemetry_off)
}

pub fn fleet_merged_metrics(fleet: &Fleet) -> Res<MetricsRegistry> {
    fleet.merged_metrics().ok_or_else(telemetry_off)
}

pub fn fleet_chrome_trace(fleet: &Fleet) -> Res<String> {
    fleet.chrome_trace_json().ok_or_else(telemetry_off)
}

fn telemetry_off() -> String {
    "fleet was booted without telemetry".to_owned()
}

pub fn span_total(processes: &[(String, Vec<SpanRecord>)]) -> u64 {
    processes.iter().map(|(_, spans)| spans.len() as u64).sum()
}

pub fn analyze_spans(processes: &[(String, Vec<SpanRecord>)]) -> Analysis {
    analyze(processes)
}

pub fn analysis_journeys(analysis: &Analysis) -> u64 {
    analysis.journeys.journeys
}

pub fn analysis_render(analysis: &Analysis) -> String {
    analysis.render()
}

pub fn prometheus_render(metrics: &mut MetricsRegistry) -> String {
    prometheus::render(metrics)
}

pub fn prometheus_validate(exposition: &str) -> Res<()> {
    prometheus::validate_exposition(exposition)
}

pub fn telemetry_evicted(metrics: &MetricsRegistry) -> u64 {
    metrics
        .counter_value("vampos_telemetry_evicted_total", &[])
        .unwrap_or(0)
}

/// One keep-alive client connection to instance `i`'s web server.
pub fn instance_connect(fleet: &mut Fleet, i: usize) -> Res<ClientConnId> {
    let inst = &mut fleet.instances_mut()[i];
    let conn = inst
        .sys
        .host()
        .with(|w| w.network_mut().connect(vampos_apps::httpd::HTTP_PORT));
    inst.app.poll(&mut inst.sys).map_err(text)?;
    Ok(conn)
}

/// One GET on instance `i` over `conn`, the way the fleet's dispatch
/// serves it: send, advance the wire, poll the app, advance, receive.
pub fn instance_get(fleet: &mut Fleet, i: usize, conn: ClientConnId) -> Res<bool> {
    let inst = &mut fleet.instances_mut()[i];
    http_get(&mut inst.sys, &mut inst.app, conn)
}

fn http_get(sys: &mut System, app: &mut MiniHttpd, conn: ClientConnId) -> Res<bool> {
    let one_way = sys.costs().net_rtt(0, false) / 2;
    sys.host()
        .with(|w| w.network_mut().send(conn, HTTP_GET))
        .map_err(text)?;
    sys.clock().advance(one_way);
    app.poll(sys).map_err(text)?;
    sys.clock().advance(one_way);
    let response = sys
        .host()
        .with(|w| w.network_mut().recv(conn))
        .map_err(text)?;
    Ok(response.starts_with(b"HTTP/1.1 200"))
}

const HTTP_GET: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: vampos\r\n\r\n";

/// `calls` `Balancer::route` decisions over the fleet's instances.
pub fn balancer_route(fleet: &mut Fleet, policy: BalancerPolicy, calls: u64) -> usize {
    let mut balancer = Balancer::new(policy.into());
    let at = fleet.clock().now();
    let mut last = 0;
    for _ in 0..calls {
        last = balancer.route(fleet.instances_mut(), at);
    }
    last
}

/// `calls` `Balancer::should_migrate` decisions, the current instance
/// walking round the fleet.
pub fn balancer_should_migrate(fleet: &mut Fleet, policy: BalancerPolicy, calls: u64) -> u64 {
    let balancer = Balancer::new(policy.into());
    let at = fleet.clock().now();
    let n = fleet.instances().len();
    let mut migrations = 0;
    for k in 0..calls as usize {
        migrations += u64::from(balancer.should_migrate(fleet.instances_mut(), k % n, at));
    }
    migrations
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerPolicy {
    RecoveryAware,
    LeastOutstanding,
}

impl From<BalancerPolicy> for Policy {
    fn from(p: BalancerPolicy) -> Policy {
        match p {
            BalancerPolicy::RecoveryAware => Policy::RecoveryAware,
            BalancerPolicy::LeastOutstanding => Policy::LeastOutstanding,
        }
    }
}

/// An event heap holding `depth` arrivals one think time apart.
pub fn event_heap(depth: u64) -> EventHeap {
    let mut heap = EventHeap::default();
    for actor in 0..depth {
        heap.push(Nanos::from_micros(actor), EventClass::Arrival, actor);
    }
    heap
}

/// `pairs` pop-then-push rounds at constant depth: each popped arrival is
/// re-armed one think time later, as `Fleet::run` does per issued request.
pub fn event_heap_cycle(heap: &mut EventHeap, pairs: u64) {
    for _ in 0..pairs {
        let ev = heap.pop().expect("heap was primed");
        heap.push(ev.at + Nanos::from_millis(4), EventClass::Arrival, ev.actor);
    }
}

// -------------------------------------------------------------------- mesh

/// Service index of the pinned KV service in the standard registry.
const SVC_KV: usize = 1;

/// Geometry of one mesh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshShape {
    pub front: usize,
    pub replicas: usize,
    pub clients: usize,
    pub journeys_per_client: usize,
}

impl MeshShape {
    pub fn journeys(&self) -> u64 {
        (self.clients * self.journeys_per_client) as u64
    }

    pub fn load(&self) -> FleetLoad {
        FleetLoad {
            clients: self.clients,
            requests_per_client: self.journeys_per_client,
            ..FleetLoad::default()
        }
    }
}

/// Boots the front fleet plus the standard backend registry, or the
/// empty depth-1 pipeline over the same front fleet.
pub fn mesh_boot(shape: &MeshShape, seed: u64, depth1: bool) -> Res<Mesh> {
    let front = FleetShape {
        instances: shape.front,
        clients: shape.clients,
        requests_per_client: shape.journeys_per_client,
        telemetry: false,
        rolling: false,
    };
    Mesh::new(MeshConfig {
        front: fleet_config(&front, seed),
        topology: if depth1 {
            MeshTopology::depth1()
        } else {
            MeshTopology::standard(shape.replicas, true)
        },
        ..MeshConfig::default()
    })
    .map_err(text)
}

/// The plan `vampos-mesh --config rolling` builds: a rolling front wave
/// plus one KV replica rejuvenation, scaled to the load's virtual span.
///
/// `backends: false` keeps only the front wave, for the depth-1 pipeline
/// that has no KV service to rejuvenate.
pub fn mesh_rolling_plan(shape: &MeshShape, backends: bool) -> MeshPlan {
    let load = shape.load();
    let span_ns = load.think_time.as_nanos() * shape.journeys_per_client as u64;
    let at = |num: u64, den: u64| Nanos::from_nanos(span_ns * num / den);
    let mut plan = MeshPlan::none();
    plan.front = FleetPlan::rolling_rejuvenation(shape.front, at(1, 8), at(1, 6), at(1, 24));
    if backends {
        plan.push_backend(at(2, 3), SVC_KV, 0, BackendOpKind::Rejuvenate);
    }
    plan
}

pub fn mesh_run(mesh: &mut Mesh, load: &FleetLoad, plan: MeshPlan) -> Res<MeshRunReport> {
    mesh.run(load, Policy::RecoveryAware, plan).map_err(text)
}

/// What the benchmark keeps of a [`MeshRunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MeshSummary {
    pub journeys: u64,
    pub acked: u64,
    /// Acked journeys with a stage record that is not OK (must be 0).
    pub acked_with_failed_stage: u64,
    /// Front requests plus every stage attempt, retries included.
    pub hops_attempted: u64,
    /// Front requests and stage records that ended OK.
    pub hops_ok: u64,
    /// Idempotent replays: retried writes answered from the record.
    pub hops_cached: u64,
    pub component_reboots: u64,
    pub latency_samples: u64,
    pub p99_us: f64,
    pub span_s: f64,
    /// The report as `vampos-mesh` prints it, plus the journey digests.
    pub rendered: String,
}

pub fn mesh_reduce(report: &MeshRunReport) -> MeshSummary {
    let acked_ids: BTreeSet<u64> = report
        .journeys
        .iter()
        .filter(|j| j.acked)
        .map(|j| j.journey)
        .collect();
    let mut failed_stage_journeys = BTreeSet::new();
    let mut hops_attempted = report.front.requests() as u64;
    let mut hops_ok = report.front.successes() as u64;
    let mut hops_cached = 0;
    let mut rendered = String::new();
    for stage in &report.stages {
        let mut ok = 0u64;
        let mut cached = 0u64;
        for r in &stage.records {
            hops_attempted += u64::from(r.attempts.max(1));
            ok += u64::from(r.ok);
            cached += u64::from(r.cached);
            if !r.ok && acked_ids.contains(&r.journey) {
                failed_stage_journeys.insert(r.journey);
            }
        }
        hops_ok += ok;
        hops_cached += cached;
        let _ = writeln!(
            rendered,
            "{:<14} {:>6}  {:>6}  {:>9.2}  {:>9.2}  {:>7}  {:>6}  {:>6}",
            stage.label,
            stage.records.len(),
            ok,
            stage.p50_us(),
            stage.p99_us(),
            stage.retries(),
            stage.hedges(),
            cached
        );
    }
    let mut e2e = report.e2e_histogram();
    let p99_us = e2e.percentile(99.0);
    let mut journey_digest = crate::stats::Fnv1a::default();
    for j in &report.journeys {
        journey_digest.write(&j.journey.to_le_bytes());
        journey_digest.write(&j.end.as_nanos().to_le_bytes());
        journey_digest.write(&[u8::from(j.acked)]);
        journey_digest.write(&j.digest.to_le_bytes());
    }
    let _ = writeln!(
        rendered,
        "e2e: {}/{} acked, p50 {:.2}us, p99 {:.2}us, {} retried, {} hedged, journeys {:016x}",
        report.acked(),
        report.journeys.len(),
        e2e.percentile(50.0),
        p99_us,
        report.retries,
        report.hedges,
        journey_digest.finish()
    );
    let _ = writeln!(
        rendered,
        "front: {}/{} ok, {} component / {} full reboot(s), {}",
        report.front.successes(),
        report.front.requests(),
        report.front.component_reboots,
        report.front.full_reboots,
        report.front.duration
    );
    MeshSummary {
        journeys: report.journeys.len() as u64,
        acked: report.acked() as u64,
        acked_with_failed_stage: failed_stage_journeys.len() as u64,
        hops_attempted,
        hops_ok,
        hops_cached,
        component_reboots: report.front.component_reboots,
        latency_samples: e2e.len() as u64,
        p99_us,
        span_s: report.front.duration.as_secs_f64(),
        rendered,
    }
}

// ------------------------------------------------------- core, apps, host

/// Which application a lone system runs (Fig. 7's four).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    Kv,
    Sql,
    Http,
    Echo,
}

impl AppKind {
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Kv => "kv",
            AppKind::Sql => "sql",
            AppKind::Http => "httpd",
            AppKind::Echo => "echo",
        }
    }

    fn component_set(self) -> ComponentSet {
        match self {
            AppKind::Kv => ComponentSet::redis(),
            AppKind::Sql => ComponentSet::sqlite(),
            AppKind::Http => ComponentSet::nginx(),
            AppKind::Echo => ComponentSet::echo(),
        }
    }
}

enum LoneApp {
    Kv(MiniKv),
    Sql(MiniSql),
    Http(MiniHttpd),
    Echo(Echo),
}

impl LoneApp {
    fn as_app(&mut self) -> &mut dyn App {
        match self {
            LoneApp::Kv(a) => a,
            LoneApp::Sql(a) => a,
            LoneApp::Http(a) => a,
            LoneApp::Echo(a) => a,
        }
    }

    fn state_digest(&self) -> u64 {
        match self {
            LoneApp::Kv(a) => a.state_digest(),
            LoneApp::Sql(a) => a.state_digest(),
            LoneApp::Http(a) => a.state_digest(),
            LoneApp::Echo(a) => a.state_digest(),
        }
    }
}

/// One `System` in `Mode::vampos_das()` with its application booted; no
/// cluster around it.
pub struct Lone {
    kind: AppKind,
    sys: System,
    app: LoneApp,
}

/// Fig. 7 payload sizes.
const ECHO_PAYLOAD: usize = 159;
/// Think time of the chaos campaigns' HTTP client.
const HTTP_THINK: Nanos = Nanos::from_millis(5);

/// `System::builder()…build()` plus `App::boot`.
pub fn lone_boot(kind: AppKind, seed: u64) -> Res<Lone> {
    let host = HostHandle::new();
    host.with(|w| {
        w.ninep_mut()
            .put_file(DOC_PATH, &seeded_document(seed, DOC_LEN));
        w.ninep_mut().put_file("/f", &seeded_document(seed, 4096));
    });
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(kind.component_set())
        .host(host)
        .seed(seed)
        .build()
        .map_err(text)?;
    let mut app = match kind {
        // Component reboots keep the store, so VampOS runs without the AOF
        // (Fig. 7's configuration).
        AppKind::Kv => LoneApp::Kv(MiniKv::new(false)),
        AppKind::Sql => LoneApp::Sql(MiniSql::new()),
        AppKind::Http => LoneApp::Http(MiniHttpd::default()),
        AppKind::Echo => LoneApp::Echo(Echo::new()),
    };
    app.as_app().boot(&mut sys).map_err(text)?;
    Ok(Lone { kind, sys, app })
}

/// `firings` whole-system rejuvenations, one every `every_ms` of virtual
/// time.
pub fn rejuvenation_schedule_ms(every_ms: u64, firings: u64) -> Schedule {
    Schedule::new(
        (1..=firings)
            .map(|k| Disruption::rejuvenate_all(Nanos::from_millis(every_ms * k)))
            .collect(),
    )
}

pub fn schedule_pending(schedule: &Schedule) -> u64 {
    schedule.pending() as u64
}

/// Runs `requests` of the application's Fig. 7 request through the
/// `workloads` crate's count-based entry point while `schedule` fires.
pub fn lone_load(lone: &mut Lone, requests: usize, schedule: &mut Schedule) -> Res<LoadReport> {
    let sys = &mut lone.sys;
    match &mut lone.app {
        LoneApp::Kv(app) => {
            KvLoad::default().run_sets_with_disruptions(sys, app, requests, schedule)
        }
        LoneApp::Sql(db) => SqlLoad {
            inserts: requests,
            item_len: 1,
        }
        .run_with_disruptions(sys, db, schedule),
        LoneApp::Http(app) => HttpLoad {
            clients: 1,
            duration: Nanos::ZERO, // unused by run_requests
            think_time: HTTP_THINK,
            path: "/index.html".to_owned(),
            remote: false,
        }
        .run_requests(sys, app, requests, schedule),
        LoneApp::Echo(app) => EchoLoad {
            messages: requests,
            payload_len: ECHO_PAYLOAD,
            connections: 1,
            remote: false,
        }
        .run_with_disruptions(sys, app, schedule),
    }
    .map_err(text)
}

pub fn lone_component_reboots(lone: &Lone) -> u64 {
    lone.sys.stats().component_reboots
}

/// Application digest plus every component's state digest, by name: what
/// the fault-free twin must agree on.
pub fn lone_state_digests(lone: &Lone) -> Vec<(String, u64)> {
    let mut out = vec![(format!("app:{}", lone.kind.name()), lone.app.state_digest())];
    for name in lone.sys.component_names() {
        if let Some(d) = lone.sys.state_digest(&name) {
            out.push((name, d));
        }
    }
    out
}

/// What the benchmark keeps of a set of [`LoadReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    pub requests: u64,
    pub successes: u64,
    pub reconnects: u64,
    pub latency_samples: u64,
    pub p99_us: f64,
    pub span_s: f64,
    pub rendered: String,
}

/// Merges per-application reports the way the fleet merges per-instance
/// ones: `LoadReport::latency_histogram` + `Histogram::merge`.
pub fn loads_reduce(reports: &[(AppKind, LoadReport)]) -> LoadSummary {
    let mut merged = Histogram::new();
    let mut rendered = String::new();
    let mut requests = 0;
    let mut successes = 0;
    let mut reconnects = 0;
    let mut span = Nanos::ZERO;
    for (kind, report) in reports {
        let mut h = report.latency_histogram();
        merged.merge(&h);
        requests += report.records.len() as u64;
        successes += report.successes() as u64;
        reconnects += report.reconnects;
        span += report.duration;
        let _ = writeln!(
            rendered,
            "{:<6} {}/{} ok, {} reconnects, p50 {:.2}us, p99 {:.2}us, max {:.2}us, {}",
            kind.name(),
            report.successes(),
            report.records.len(),
            report.reconnects,
            h.percentile(50.0),
            h.percentile(99.0),
            report.max_latency().as_micros_f64(),
            report.duration
        );
    }
    LoadSummary {
        requests,
        successes,
        reconnects,
        latency_samples: merged.len() as u64,
        p99_us: merged.percentile(99.0),
        span_s: span.as_secs_f64(),
        rendered,
    }
}

/// A keep-alive client connection to the lone system's application.
pub fn lone_connect(lone: &mut Lone) -> Res<ClientConnId> {
    let port = match lone.kind {
        AppKind::Kv => vampos_apps::kv::KV_PORT,
        AppKind::Http => vampos_apps::httpd::HTTP_PORT,
        AppKind::Echo => vampos_apps::echo::ECHO_PORT,
        AppKind::Sql => return Err("MiniSql is embedded: no connection".to_owned()),
    };
    let conn = lone.sys.host().with(|w| w.network_mut().connect(port));
    lone.app.as_app().poll(&mut lone.sys).map_err(text)?;
    Ok(conn)
}

/// The request bytes request number `i` of the application's load sends.
pub fn lone_request_bytes(kind: AppKind, i: usize) -> Vec<u8> {
    match kind {
        AppKind::Kv => format!("SET {:04} vvv\n", i % 10_000).into_bytes(),
        AppKind::Http => HTTP_GET.to_vec(),
        AppKind::Echo => vec![b'm'; ECHO_PAYLOAD],
        AppKind::Sql => format!("INSERT INTO items VALUES ({i}, 'x')").into_bytes(),
    }
}

/// `HostNetwork::send` from the client side.
pub fn net_send(lone: &Lone, conn: ClientConnId, bytes: &[u8]) -> Res<()> {
    lone.sys
        .host()
        .with(|w| w.network_mut().send(conn, bytes))
        .map_err(text)
}

/// `HostNetwork::recv` on the client side.
pub fn net_recv(lone: &Lone, conn: ClientConnId) -> Res<Vec<u8>> {
    lone.sys
        .host()
        .with(|w| w.network_mut().recv(conn))
        .map_err(text)
}

/// `App::poll`: the application serves whatever arrived.
pub fn app_poll(lone: &mut Lone) -> Res<usize> {
    lone.app.as_app().poll(&mut lone.sys).map_err(text)
}

/// Advances the virtual clock by half a local round trip.
pub fn wire_delay(lone: &Lone, bytes: usize) {
    let one_way = lone.sys.costs().net_rtt(bytes, false) / 2;
    lone.sys.clock().advance(one_way);
}

/// One embedded SQL statement (MiniSql has no socket).
pub fn sql_execute(lone: &mut Lone, statement: &str) -> Res<()> {
    match &mut lone.app {
        LoneApp::Sql(db) => db.execute(&mut lone.sys, statement).map(drop).map_err(text),
        _ => Err("not a MiniSql system".to_owned()),
    }
}

/// `calls` rounds of open + read(16) + close of `/f` through `System::os()`.
pub fn file_syscalls(lone: &mut Lone, calls: u64) -> Res<()> {
    for _ in 0..calls {
        let mut os = lone.sys.os();
        let fd = os.open("/f", OpenFlags::RDWR).map_err(text)?;
        os.read(fd, 16).map_err(text)?;
        os.close(fd).map_err(text)?;
    }
    Ok(())
}

pub fn reboot_component(lone: &mut Lone, name: &str) -> Res<()> {
    lone.sys.reboot_component(name).map(drop).map_err(text)
}

/// `System::rejuvenate_all`; returns how many components it rebooted.
pub fn rejuvenate_all(lone: &mut Lone) -> Res<u64> {
    lone.sys
        .rejuvenate_all()
        .map(|outcomes| outcomes.len() as u64)
        .map_err(text)
}

/// `System::full_reboot` plus the application's crash and re-boot.
pub fn full_reboot(lone: &mut Lone) -> Res<()> {
    lone.sys.full_reboot().map_err(text)?;
    lone.app.as_app().crash();
    lone.app.as_app().boot(&mut lone.sys).map_err(text)
}

/// Arms a one-shot 9PFS panic and issues the `stat` that trips it; returns
/// only after in-line recovery re-executed the call.
pub fn panic_and_retry(lone: &mut Lone) -> Res<()> {
    lone.sys.inject_fault(InjectedFault::panic_next("9pfs"));
    lone.sys.os().stat("/f").map(drop).map_err(text)
}

/// A function log holding `sessions` open sessions of `touches` writes.
pub fn funclog_filled(sessions: u64, touches: usize) -> FunctionLog {
    let mut log = FunctionLog::new();
    for s in 0..sessions {
        log.append(
            "app",
            "open",
            &[Value::from("/f")],
            &Value::U64(s),
            Vec::new(),
            SessionEvent::Open(vec![s]),
            true,
        );
        for _ in 0..touches {
            funclog_touch(&mut log, s);
        }
    }
    log
}

fn funclog_touch(log: &mut FunctionLog, session: u64) {
    log.append(
        "app",
        "write",
        &[Value::U64(session), Value::Bytes(vec![0; 64])],
        &Value::U64(64),
        Vec::new(),
        SessionEvent::Touch(session),
        true,
    );
}

/// `calls` `FunctionLog::append` of a 64-byte write touching `session`.
pub fn funclog_append_touches(log: &mut FunctionLog, session: u64, calls: u64) {
    for _ in 0..calls {
        funclog_touch(log, session);
    }
}

/// Closes sessions `first..first + calls`: each `append(Close)` cancels
/// that session's entries.
pub fn funclog_close_sessions(log: &mut FunctionLog, first: u64, calls: u64) {
    for s in first..first + calls {
        log.append(
            "app",
            "close",
            &[Value::U64(s)],
            &Value::Unit,
            Vec::new(),
            SessionEvent::Close(vec![s]),
            true,
        );
    }
}

/// `FunctionLog::compact_session`; returns the entries it removed.
pub fn funclog_compact(log: &mut FunctionLog, session: u64) -> usize {
    log.compact_session(
        session,
        TouchSynthesis::Replace {
            func: "vfs_set_offset".into(),
            args: vec![Value::U64(session), Value::U64(8192)],
            ret: Value::Unit,
        },
    )
}

// --------------------------------------------------------------------- mem

/// A 1 MiB-heap arena with live state and a primed snapshot cache.
pub fn arena_warmed(heap: usize) -> Res<(MemoryArena, Snapshot)> {
    let mut arena = MemoryArena::new("bench", ArenaLayout::heap_only(heap));
    let block = arena.alloc(heap / 2).map_err(text)?;
    arena.write(block.addr(), &vec![0xAB; 4096]).map_err(text)?;
    let snap = arena.snapshot();
    Ok((arena, snap))
}

/// Dirties 64 bytes of the heap (`salt` varies the bytes).
pub fn arena_dirty(arena: &mut MemoryArena, salt: u8) -> Res<()> {
    let addr = Addr(arena.heap_base().0 + 7);
    arena.write(addr, &[salt; 64]).map_err(text)
}

pub fn arena_snapshot(arena: &mut MemoryArena) -> Snapshot {
    arena.snapshot()
}

pub fn arena_restore(arena: &mut MemoryArena, snap: &Snapshot) -> Res<()> {
    arena.restore(snap).map_err(text)
}

// --------------------------------------------------------------------- sim

pub fn histogram_new() -> Histogram {
    Histogram::new()
}

pub fn histogram_record(h: &mut Histogram, samples: &[f64]) {
    for &x in samples {
        h.record(x);
    }
}

/// Per-instance statistics of `shards` reports of `per_shard` samples.
pub fn stat_shards(samples: &[f64], shards: usize, per_shard: usize) -> Vec<(Histogram, Summary)> {
    samples
        .chunks(per_shard)
        .take(shards)
        .map(|chunk| {
            let mut h = Histogram::new();
            let mut s = Summary::new();
            for &x in chunk {
                h.record(x);
                s.record(x);
            }
            (h, s)
        })
        .collect()
}

/// `Histogram::merge` + `Summary::merge` of every shard; returns the
/// merged sample count and p99.
pub fn stat_merge(shards: &[(Histogram, Summary)]) -> (u64, f64) {
    let mut h = Histogram::new();
    let mut s = Summary::new();
    for (hs, ss) in shards {
        h.merge(hs);
        s.merge(ss);
    }
    (s.count(), h.percentile(99.0))
}

// --------------------------------------------------------------- workloads

/// A load report of `n` successful requests with the given latencies (µs).
pub fn load_report_of(latencies_us: &[f64]) -> LoadReport {
    let mut report = LoadReport::with_capacity(latencies_us.len());
    let mut at = Nanos::ZERO;
    for &us in latencies_us {
        let end = at + Nanos::from_nanos((us * 1_000.0) as u64);
        report.records.push(RequestRecord {
            start: at,
            end,
            ok: true,
        });
        at = end;
    }
    report.duration = at;
    report
}

/// `LoadReport::latency_histogram`; returns its sample count.
pub fn load_report_histogram(report: &LoadReport) -> u64 {
    report.latency_histogram().len() as u64
}

// --------------------------------------------------------------- telemetry

/// `calls` `TelemetryHub::push_span` of a `serve` journey span, shaped
/// like the ones the fleet's dispatch records.
pub fn hub_push_spans(hub: &mut TelemetryHub, first: u64, calls: u64) {
    for journey in first..first + calls {
        let start = Nanos::from_micros(journey * 500);
        hub.push_span(
            "journeys",
            "serve",
            SpanKind::Journey,
            start,
            start + Nanos::from_micros(59),
            None,
            vec![
                ("journey", journey.to_string()),
                ("queue_ns", "0".to_owned()),
                ("service_ns", "59000".to_owned()),
            ],
        );
    }
}

pub fn hub_new() -> TelemetryHub {
    TelemetryHub::new()
}

pub fn hub_evicted(hub: &TelemetryHub) -> u64 {
    hub.evicted()
}
