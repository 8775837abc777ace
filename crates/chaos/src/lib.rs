//! `vampos-chaos`: a seeded, fully deterministic fault-campaign engine for
//! the VampOS-RS reproduction.
//!
//! A *campaign* takes a seed and a fault budget; generates a randomized
//! schedule of injected faults and administrative disruptions; runs the
//! faulted execution against a fault-free twin issuing the identical
//! request stream; and checks recovery-correctness oracles. Four campaign
//! *families* implement [`Family`] and share one harness ([`family`]):
//!
//! * [`ComponentFamily`] — one system under panics, hangs, leaks, bit
//!   flips and timed reboots; four oracles (state equivalence, replay
//!   consistency, isolation, liveness),
//! * [`FleetFamily`] — instance-scoped panics in a cluster; fleet
//!   equivalence and liveness,
//! * [`RecursiveFamily`] — faults in the recovery plane itself; ladder
//!   convergence, no acknowledged loss, rung attribution,
//! * [`MeshFamily`] — request pipelines under front and backend recovery;
//!   pipeline equivalence, no acknowledged loss, retry budgets.
//!
//! Failing campaigns are shrunk to a minimal JSON reproducer that
//! `vampos-chaos --replay <file>` re-executes bit-for-bit. Campaign sweeps
//! fan out over worker threads with per-seed isolation and byte-identical
//! output.
//!
//! ```
//! use vampos_chaos::{sweep, ComponentFamily, WorkloadKind};
//!
//! let family = ComponentFamily {
//!     workloads: vec![WorkloadKind::Echo],
//!     ..ComponentFamily::default()
//! };
//! let report = sweep(&family, 7, 2, false).expect("sweep");
//! assert_eq!(report.failures().count(), 0);
//! ```

pub mod drive;
pub mod engine;
pub mod family;
pub mod fleet;
pub mod gen;
pub mod json;
pub mod mesh;
pub mod oracle;
pub mod recursive;
pub mod shrink;
pub mod spec;

pub use drive::{run_with_sink, RunResult};
pub use engine::ComponentFamily;
pub use family::{
    family_of, kinds, parse_spec, plant_battery, run_outcome, sweep, Family, Outcome, Plant,
    SweepReport, Traced,
};
pub use fleet::{
    generate_fleet_spec, FleetCampaignReport, FleetCampaignSpec, FleetFamily, InstanceFault,
};
pub use gen::generate_spec;
pub use mesh::MeshFamily;
pub use oracle::{OracleKind, Violation};
pub use recursive::RecursiveFamily;
pub use shrink::{shrink, Shrinker};
pub use spec::{CampaignSpec, WorkloadKind};
pub use vampos_telemetry::{SpanDump, TelemetrySink};

#[cfg(test)]
mod laws;
