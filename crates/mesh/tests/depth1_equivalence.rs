//! A depth-1 mesh (empty topology: no backend services, no stages) must
//! be *transparent*: its front-tier report byte-identical to the
//! equivalent plain [`Fleet::run`] under the same config, load, policy,
//! and plan. This pins the mesh's [`Fleet::run_with`] continuation to
//! zero simulation perturbation, which is what makes every depth-N
//! measurement attributable to the pipeline itself rather than to
//! drive-loop skew.

use proptest::prelude::*;

use vampos_cluster::{Fleet, FleetConfig, FleetLoad, FleetPlan, Policy};
use vampos_mesh::{Mesh, MeshConfig, MeshPlan, MeshTopology};
use vampos_sim::Nanos;

fn front_config(instances: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        instances,
        seed,
        ..FleetConfig::default()
    }
}

fn plan_for(kind: u8, instances: usize) -> FleetPlan {
    let start = Nanos::from_millis(5);
    let spacing = Nanos::from_millis(60);
    match kind % 3 {
        0 => FleetPlan::none(),
        1 => FleetPlan::rolling_rejuvenation(instances, start, spacing, Nanos::from_millis(2)),
        _ => FleetPlan::rolling_full_reboot(instances, start, spacing),
    }
}

fn policy_for(kind: u8) -> Policy {
    match kind % 3 {
        0 => Policy::RoundRobin,
        1 => Policy::LeastOutstanding,
        _ => Policy::RecoveryAware,
    }
}

/// Runs the same (config, load, policy, plan) through a depth-1 mesh and
/// a plain fleet, each freshly booted, and asserts byte identity of the
/// front-tier report.
fn assert_depth1_transparent(
    instances: usize,
    seed: u64,
    load: &FleetLoad,
    policy: Policy,
    plan_kind: u8,
) {
    let mut mesh = Mesh::new(MeshConfig {
        front: front_config(instances, seed),
        topology: MeshTopology::depth1(),
    })
    .expect("mesh boot");
    let mesh_report = mesh
        .run(
            load,
            policy,
            MeshPlan {
                front: plan_for(plan_kind, instances),
                backend: Vec::new(),
            },
        )
        .expect("mesh run");

    let mut fleet = Fleet::new(front_config(instances, seed)).expect("fleet boot");
    let fleet_report = fleet
        .run(load, policy, plan_for(plan_kind, instances))
        .expect("fleet run");

    assert_eq!(
        mesh_report.front, fleet_report,
        "depth-1 mesh diverges from plain fleet at N={instances}, seed={seed:#x}, plan={plan_kind}"
    );
    // No pipeline: nothing to retry or hedge, and the journey ledger
    // mirrors the front's issue counter exactly.
    assert_eq!(mesh_report.retries, 0);
    assert_eq!(mesh_report.hedges, 0);
    assert!(mesh_report.stages.is_empty());
    assert_eq!(mesh_report.journeys.len() as u64, fleet_report.issued);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    /// Byte identity of the front report over random loads, seeds,
    /// policies, and plans — no retries armed, front routed straight.
    #[test]
    fn depth1_mesh_is_byte_identical_to_plain_fleet(
        size_pick in 0usize..3,
        seed in any::<u64>(),
        clients in 1usize..16,
        requests in 0usize..24,
        think_us in 100u64..6_000,
        policy_kind in 0u8..3,
        plan_kind in 0u8..3,
    ) {
        let instances = [1, 3, 8][size_pick];
        let load = FleetLoad {
            clients,
            requests_per_client: requests,
            think_time: Nanos::from_micros(think_us),
            ..FleetLoad::default()
        };
        assert_depth1_transparent(instances, seed, &load, policy_for(policy_kind), plan_kind);
    }
}

// Pinned-seed regressions, promoted to named always-run tests (the
// vendored proptest shim ignores `*.proptest-regressions` files).

#[test]
fn regression_single_front_rolling_full_reboot() {
    let load = FleetLoad {
        clients: 7,
        requests_per_client: 13,
        think_time: Nanos::from_micros(400),
        ..FleetLoad::default()
    };
    assert_depth1_transparent(1, 0xD1_5EA5E, &load, Policy::LeastOutstanding, 2);
}

#[test]
fn regression_wide_front_recovery_aware_rolling_rejuvenation() {
    let load = FleetLoad {
        clients: 15,
        requests_per_client: 9,
        think_time: Nanos::from_micros(5_500),
        ..FleetLoad::default()
    };
    assert_depth1_transparent(8, 0xCAFE_F00D, &load, Policy::RecoveryAware, 1);
}
