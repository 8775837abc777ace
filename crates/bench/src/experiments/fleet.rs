//! Fleet experiment — Table V taken to cluster scale.
//!
//! The paper's Table V shows one unikernel surviving component-by-component
//! rejuvenation. Operators run N of them behind a balancer, which is where
//! recovery-awareness pays: a balancer that treats "component mid-reboot"
//! as *drained* rather than *down* can roll rejuvenation across the fleet
//! without losing a request. This experiment sweeps fleet sizes
//! N ∈ {16, 64, 256} — over a million virtual requests per configuration
//! at N = 256 — over five configurations:
//!
//! * recovery-aware routing + rolling component rejuvenation (the system),
//! * least-outstanding and round-robin routing over the same rolling plan
//!   (ablations: reactive and blind routing),
//! * rolling full-reboot failover (the Unikraft-style baseline), and
//! * undrained simultaneous rejuvenation (the naive cron-job baseline).
//!
//! The maintenance plan rolls across the fleet inside a *fixed* virtual
//! span regardless of N (spacing ∝ 1/N), so the sweep isolates what the
//! event-heap engine buys: simulation cost scales with requests dispatched,
//! not with elapsed virtual time × N. At N = 256 the ~48 ms rejuvenation
//! windows overlap a few instances deep — exactly the regime where
//! recovery-aware routing has to work, and the tick-polling loop this
//! engine replaced became unusable.
//!
//! Every (size, configuration) pair is an independent deterministic fleet
//! seeded from [`super::EXP_SEED`], so the sweep fans out over workers and
//! stays byte-identical to a sequential run.

// The sweep keeps the named plans' start and drain lead; the spacing is
// its own ([`spacing`]).
use vampos_cluster::{
    ArrivalShape, Fleet, FleetConfig, FleetLoad, FleetPlan, Policy,
    ROLLING_DRAIN_LEAD as DRAIN_LEAD, ROLLING_START as START,
};
use vampos_sim::Nanos;

use super::EXP_SEED;
use crate::parallel::parallel_map;

/// One (fleet size, configuration) outcome.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Fleet size.
    pub instances: usize,
    /// Configuration label.
    pub config: &'static str,
    /// Arrival events the engine dispatched.
    pub issued: u64,
    /// Successful requests.
    pub successes: usize,
    /// Failed requests (timeouts and dead connections).
    pub failures: usize,
    /// Success ratio in percent.
    pub success_pct: f64,
    /// Median latency over successful requests, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency over successful requests, microseconds.
    pub p99_us: f64,
    /// Requests re-issued after a dead connection.
    pub retried: u64,
    /// Proactive migrations the policy ordered.
    pub redirects: u64,
    /// Reboots performed across the fleet (component + full).
    pub reboots: u64,
}

/// The full fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Fleet sizes swept.
    pub sizes: Vec<usize>,
    /// Clients per instance.
    pub clients_per_instance: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Rows grouped by size, configurations in a fixed order.
    pub rows: Vec<FleetRow>,
}

/// One arrival-shape outcome (recovery-aware routing + rolling plan).
#[derive(Debug, Clone)]
pub struct ShapeRow {
    /// Arrival-shape name ([`ArrivalShape::name`]).
    pub shape: &'static str,
    /// Arrival events the engine dispatched.
    pub issued: u64,
    /// Successful requests.
    pub successes: usize,
    /// Failed requests.
    pub failures: usize,
    /// Success ratio in percent.
    pub success_pct: f64,
    /// Median latency over successful requests, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency over successful requests, microseconds.
    pub p99_us: f64,
}

/// Open-loop think time: each client offers one request every 4 ms.
const THINK: Nanos = Nanos::from_millis(4);
/// Load left after the last plan op so every reboot window sees traffic.
const SLACK: Nanos = Nanos::from_millis(200);

/// Rolling spacing for a fixed-span schedule: the whole plan (plus
/// [`START`] and [`SLACK`]) fits inside the client span `rpc × THINK`
/// regardless of N, so spacing shrinks ∝ 1/N and large fleets overlap
/// their reboot windows instead of stretching virtual time.
fn spacing(instances: usize, requests_per_client: usize) -> Nanos {
    let span = THINK * requests_per_client as u64;
    let spacing = span.saturating_sub(START + SLACK) / instances.max(1) as u64;
    debug_assert!(
        spacing > DRAIN_LEAD,
        "load too short for a rolling plan over {instances} instances"
    );
    spacing
}

/// One configuration: label, routing policy, maintenance-plan constructor.
type Config = (&'static str, Policy, fn(usize, Nanos) -> FleetPlan);

/// The five configurations, in render order.
const CONFIGS: [Config; 5] = [
    ("aware+rolling", Policy::RecoveryAware, rolling),
    ("least-out+rolling", Policy::LeastOutstanding, rolling),
    ("round-robin+rolling", Policy::RoundRobin, rolling),
    ("full-reboot failover", Policy::RoundRobin, rolling_full),
    ("simultaneous rejuv", Policy::RoundRobin, simultaneous),
];

fn rolling(n: usize, spacing: Nanos) -> FleetPlan {
    FleetPlan::rolling_rejuvenation(n, START, spacing, DRAIN_LEAD)
}

fn rolling_full(n: usize, spacing: Nanos) -> FleetPlan {
    FleetPlan::rolling_full_reboot(n, START, spacing)
}

fn simultaneous(n: usize, spacing: Nanos) -> FleetPlan {
    FleetPlan::simultaneous_rejuvenation(n, START + spacing)
}

fn load(instances: usize, clients_per_instance: usize, requests_per_client: usize) -> FleetLoad {
    FleetLoad {
        clients: clients_per_instance * instances,
        requests_per_client,
        think_time: THINK,
        ..FleetLoad::default()
    }
}

fn boot(instances: usize) -> Fleet {
    Fleet::new(FleetConfig {
        instances,
        seed: EXP_SEED,
        ..FleetConfig::default()
    })
    .expect("fleet boot")
}

fn run_one(instances: usize, config: usize, cpi: usize, rpc: usize) -> FleetRow {
    let (label, policy, plan) = CONFIGS[config];
    let mut fleet = boot(instances);
    let report = fleet
        .run(
            &load(instances, cpi, rpc),
            policy,
            plan(instances, spacing(instances, rpc)),
        )
        .expect("fleet run");
    FleetRow {
        instances,
        config: label,
        issued: report.issued,
        successes: report.successes(),
        failures: report.failures(),
        success_pct: report.success_pct(),
        p50_us: report.p50_us(),
        p99_us: report.p99_us(),
        retried: report.retried,
        redirects: report.redirects,
        reboots: report.component_reboots + report.full_reboots,
    }
}

/// Sweeps the given fleet sizes over all five configurations; every
/// (size, configuration) pair is an independent fleet and runs on its own
/// worker.
pub fn run_sized(
    sizes: &[usize],
    clients_per_instance: usize,
    requests_per_client: usize,
) -> FleetResult {
    let units: Vec<(usize, usize)> = sizes
        .iter()
        .flat_map(|&n| (0..CONFIGS.len()).map(move |c| (n, c)))
        .collect();
    let rows = parallel_map(units, |(n, c)| {
        run_one(n, c, clients_per_instance, requests_per_client)
    });
    FleetResult {
        sizes: sizes.to_vec(),
        clients_per_instance,
        requests_per_client,
        rows,
    }
}

/// Runs the standard sweep: N ∈ {16, 64, 256} with 4 clients per instance
/// and 1024 requests per client — 1 048 576 virtual requests per
/// configuration at N = 256.
pub fn run(clients_per_instance: usize) -> FleetResult {
    run_sized(&[16, 64, 256], clients_per_instance, 1024)
}

/// Runs the recovery-aware + rolling configuration under each arrival
/// shape at one fleet size: the open-loop reference grid, closed-loop
/// clients (offered load reacts to service), and the diurnal/bursty
/// drifts. One independent fleet per shape, fanned out over workers.
pub fn run_shapes(instances: usize, cpi: usize, rpc: usize) -> Vec<ShapeRow> {
    let shapes = [
        ArrivalShape::OpenLoop,
        ArrivalShape::ClosedLoop,
        ArrivalShape::Diurnal { period: THINK * 64 },
        ArrivalShape::Bursty { burst: 8 },
    ];
    parallel_map(shapes.to_vec(), move |shape| {
        let mut fleet = boot(instances);
        let fleet_load = FleetLoad {
            shape,
            ..load(instances, cpi, rpc)
        };
        let plan = rolling(instances, spacing(instances, rpc));
        let report = fleet
            .run(&fleet_load, Policy::RecoveryAware, plan)
            .expect("fleet run");
        ShapeRow {
            shape: shape.name(),
            issued: report.issued,
            successes: report.successes(),
            failures: report.failures(),
            success_pct: report.success_pct(),
            p50_us: report.p50_us(),
            p99_us: report.p99_us(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_aware_rolling_beats_both_baselines_at_n4() {
        let result = run_sized(&[4], 4, 200);
        let row = |label: &str| {
            result
                .rows
                .iter()
                .find(|r| r.config == label)
                .unwrap_or_else(|| panic!("missing row {label}"))
        };
        let aware = row("aware+rolling");
        let full = row("full-reboot failover");
        let simultaneous = row("simultaneous rejuv");
        assert_eq!(aware.failures, 0, "aware lost {}", aware.failures);
        assert!(
            aware.success_pct > full.success_pct,
            "aware {} vs full {}",
            aware.success_pct,
            full.success_pct
        );
        assert!(
            aware.success_pct > simultaneous.success_pct,
            "aware {} vs simultaneous {}",
            aware.success_pct,
            simultaneous.success_pct
        );
        assert!(full.failures > 0);
        assert!(simultaneous.failures > 0);
        assert_eq!(aware.reboots, 8 * 4);
        assert_eq!(full.reboots, 4);
    }

    #[test]
    fn every_shape_finishes_its_offered_load() {
        for row in run_shapes(4, 2, 120) {
            assert_eq!(
                row.issued,
                8 * 120,
                "shape {} issued {}",
                row.shape,
                row.issued
            );
            assert!(
                row.success_pct > 95.0,
                "shape {}: {}%",
                row.shape,
                row.success_pct
            );
        }
    }
}
