//! Cross-commit golden for the three telemetry exports.
//!
//! CI's trace and metrics diffs run one binary twice, so they cannot see a
//! format drift *between* commits. This pins the bytes themselves: FNV-1a
//! of the Chrome trace, the Prometheus exposition and the analyzer's
//! rendering for a small fixed fleet (N = 4 under a rolling plan). The
//! constants were recorded at commit `45f890d`, before the exporter was
//! rewritten to stream; a change that moves one of them has changed what
//! `vampos-audit` and `vampos-fleet --trace-out` write.

use vampos_cluster::{Fleet, FleetConfig, FleetLoad, FleetPlan, Policy};
use vampos_sim::Nanos;
use vampos_telemetry::{analyze, prometheus};
use vampos_ukernel::digest::fnv1a;

const N: usize = 4;

#[test]
fn exports_of_a_fixed_fleet_hash_to_the_recorded_constants() {
    let mut fleet = Fleet::new(FleetConfig {
        instances: N,
        telemetry: true,
        ..FleetConfig::default()
    })
    .expect("fleet boot");
    let load = FleetLoad {
        clients: 4 * N,
        requests_per_client: 64,
        think_time: Nanos::from_millis(4),
        ..FleetLoad::default()
    };
    let plan = FleetPlan::rolling_rejuvenation(
        N,
        Nanos::from_millis(20),
        Nanos::from_millis(60),
        Nanos::from_millis(8),
    );
    let report = fleet
        .run(&load, Policy::RecoveryAware, plan)
        .expect("fleet run");
    assert_eq!(report.failures(), 0);
    assert_eq!(report.component_reboots, 8 * N as u64);

    let trace = fleet.chrome_trace_json().expect("telemetry enabled");
    let mut metrics = fleet.merged_metrics().expect("telemetry enabled");
    let exposition = prometheus::render(&mut metrics);
    let analysis = analyze(&fleet.span_processes().expect("telemetry enabled")).render();

    let got = (
        trace.len(),
        fnv1a(trace.as_bytes()),
        fnv1a(exposition.as_bytes()),
        fnv1a(analysis.as_bytes()),
    );
    assert_eq!(
        got,
        (
            4_858_980,
            0xe8ff_fd18_3759_7fe1,
            0x3f4c_ed8e_a6b5_3411,
            0x1280_68f3_ff14_38d3,
        ),
        "(Chrome trace bytes, trace, Prometheus exposition, analysis rendering)"
    );
}
