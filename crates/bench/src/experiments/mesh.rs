//! Mesh experiment — multi-component request pipelines under recovery.
//!
//! Every front-tier experiment measures one hop; this one measures the
//! whole journey. A three-instance MiniHttpd front fans each ingress
//! request across the standard pipeline (warm auth lookup → KV put → KV
//! get → SQL insert) and the run is repeated over four recovery scenarios:
//!
//! * **fault-free** — the no-maintenance baseline;
//! * **component-reboot** — a KV replica rejuvenates its components
//!   mid-run, then a front instance does the same;
//! * **recovery-plane** — the failure detector misfires and reboots a
//!   healthy `lwip` on a KV replica (the recovery machinery *is* the
//!   fault);
//! * **rolling-rejuv** — a rolling rejuvenation wave over the front tier
//!   while both KV replicas take staggered rejuvenation windows.
//!
//! Each scenario runs twice: **armed** (per-hop deadlines, bounded retry
//! with exponential backoff, idempotent replay, hedged auth reads) and
//! **no-policy** (single attempt per hop, same deadline). The armed rows
//! must ack at least as many journeys as the no-policy rows — that delta
//! is what the client-side recovery policies buy. Latency columns come
//! from the per-stage wire/queue/stall/service decomposition the mesh
//! books on every hop.
//!
//! All runs share one derived-seed discipline, so the table is
//! byte-identical across invocations and across the sequential/parallel
//! render paths.

use vampos_cluster::{FleetConfig, FleetLoad, Policy};
use vampos_mesh::{Mesh, MeshConfig, MeshPlan, MeshTopology};

use crate::parallel::parallel_map;

/// Front instances (matches the mesh chaos family).
const FRONT_INSTANCES: usize = 3;
/// Replicas per replicated backend service.
const REPLICAS: usize = 2;

/// The four recovery scenarios ([`MeshPlan::scenario`], by the label the
/// table prints), in report order.
pub const CONFIGS: [&str; 4] = [
    "fault-free",
    "component-reboot",
    "recovery-plane",
    "rolling-rejuv",
];

/// Per-stage latency and recovery-policy workload for one run.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage label (`kv:put`).
    pub label: String,
    /// Median hop latency over successful hops, microseconds.
    pub p50_us: f64,
    /// 99th-percentile hop latency, microseconds.
    pub p99_us: f64,
    /// Retry attempts beyond the first.
    pub retries: u64,
    /// Hedges raced.
    pub hedges: u64,
    /// Idempotency-table replays among winning attempts.
    pub cached: u64,
}

/// One (scenario, policy-arming) run.
#[derive(Debug, Clone)]
pub struct MeshRow {
    /// Scenario name from [`CONFIGS`].
    pub config: &'static str,
    /// Whether retry/deadline/hedging policies were armed.
    pub armed: bool,
    /// Ingress requests issued.
    pub issued: u64,
    /// Journeys acked end-to-end.
    pub acked: usize,
    /// Journeys issued (equals `issued` — every ingress gets a verdict).
    pub journeys: usize,
    /// End-to-end success rate, percent.
    pub success_pct: f64,
    /// Median end-to-end latency over acked journeys, microseconds.
    pub e2e_p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub e2e_p99_us: f64,
    /// Retry attempts across all stages.
    pub retries: u64,
    /// Hedges raced across all stages.
    pub hedges: u64,
    /// Per-stage breakdown, pipeline order.
    pub stages: Vec<StageStat>,
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct MeshResult {
    /// Front clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// One row per (scenario, arming), scenario-major with armed first.
    pub rows: Vec<MeshRow>,
}

fn run_case(config: &'static str, armed: bool, clients: usize, rpc: usize, seed: u64) -> MeshRow {
    let mut mesh = Mesh::new(MeshConfig {
        front: FleetConfig {
            instances: FRONT_INSTANCES,
            seed,
            ..FleetConfig::default()
        },
        topology: MeshTopology::standard(REPLICAS, armed),
    })
    .expect("mesh boot");
    let load = FleetLoad {
        clients,
        requests_per_client: rpc,
        ..FleetLoad::default()
    };
    // Scaled to the load's virtual span, so the recovery windows land
    // while traffic is in flight.
    let span_ns = load.think_time.as_nanos() * rpc as u64;
    let plan = MeshPlan::scenario(config, FRONT_INSTANCES, span_ns).expect("one of CONFIGS");
    let report = mesh
        .run(&load, Policy::RecoveryAware, plan)
        .expect("mesh run");
    MeshRow {
        config,
        armed,
        issued: report.front.issued,
        acked: report.acked(),
        journeys: report.journeys.len(),
        success_pct: report.success_pct(),
        e2e_p50_us: report.e2e_p50_us(),
        e2e_p99_us: report.e2e_p99_us(),
        retries: report.retries,
        hedges: report.hedges,
        stages: report
            .stages
            .iter()
            .map(|s| StageStat {
                label: s.label.clone(),
                p50_us: s.p50_us(),
                p99_us: s.p99_us(),
                retries: s.retries(),
                hedges: s.hedges(),
                cached: s.records.iter().filter(|r| r.cached).count() as u64,
            })
            .collect(),
    }
}

/// Runs all four scenarios, armed and no-policy, fanned out over workers
/// (each case boots its own mesh, so outputs stay byte-identical to a
/// sequential sweep).
pub fn run(clients: usize, requests_per_client: usize, seed: u64) -> MeshResult {
    let cases: Vec<(&'static str, bool)> = CONFIGS
        .iter()
        .flat_map(|&config| [(config, true), (config, false)])
        .collect();
    let rows = parallel_map(cases, |(config, armed)| {
        run_case(config, armed, clients, requests_per_client, seed)
    });
    MeshResult {
        clients,
        requests_per_client,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_policies_never_lose_to_bare_hops_and_fault_free_is_clean() {
        let result = run(4, 12, 42);
        assert_eq!(result.rows.len(), 2 * CONFIGS.len());
        for config in CONFIGS {
            let row_for = |armed: bool| {
                result
                    .rows
                    .iter()
                    .find(|r| r.config == config && r.armed == armed)
                    .expect("row")
            };
            let (armed, bare) = (row_for(true), row_for(false));
            assert_eq!(armed.journeys as u64, armed.issued);
            assert!(
                armed.success_pct >= bare.success_pct,
                "{config}: armed {:.1}% < no-policy {:.1}%",
                armed.success_pct,
                bare.success_pct
            );
            assert_eq!(armed.stages.len(), 4, "{config}: stage count");
            if config == "fault-free" {
                assert!(
                    (armed.success_pct - 100.0).abs() < 1e-9,
                    "fault-free armed run dropped journeys: {armed:?}"
                );
            }
        }
        // The faulted scenarios must exercise the policies somewhere.
        assert!(
            result
                .rows
                .iter()
                .any(|r| r.armed && r.config != "fault-free" && r.retries > 0),
            "no faulted armed run retried"
        );
    }

    #[test]
    fn the_experiment_is_deterministic() {
        let a = run(3, 8, 7);
        let b = run(3, 8, 7);
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.acked, y.acked);
            assert_eq!(x.retries, y.retries);
            assert_eq!(x.hedges, y.hedges);
            assert_eq!(x.e2e_p99_us, y.e2e_p99_us);
        }
    }
}
