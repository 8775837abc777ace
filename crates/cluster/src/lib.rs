//! The VampOS-RS fleet layer: many simulated unikernel instances behind one
//! load balancer, all on a single shared virtual clock.
//!
//! The paper evaluates recovery inside *one* unikernel. Operators, however,
//! run fleets — and the operational payoff of component-level reboots shows
//! up at the fleet boundary: an instance whose `vfs` is mid-reboot is not
//! *down*, it is *briefly slow*, and a balancer that knows the difference
//! routes around the reboot window instead of burning requests against it.
//! This crate builds that experiment deterministically:
//!
//! * [`Fleet`] — N independent [`vampos_core::System`]s (each with its own
//!   [`vampos_host::HostHandle`] and [`vampos_apps::MiniHttpd`]), multiplexed
//!   on one [`vampos_sim::SimClock`] so every cross-instance ordering is a
//!   deterministic function of the seed. [`Fleet::run`] drives everything
//!   off a single event heap — plan operations, arrivals, completions and
//!   recovery windows pop in `(time, class, actor, sequence)` order — so
//!   simulation cost scales with work performed, not virtual time × N.
//! * [`Replica`] — one served unikernel and its FIFO occupancy, recovered
//!   in place or as a whole VM: a fleet [`Instance`] here, a backend
//!   replica in the mesh.
//! * [`ArrivalShape`] — how clients time requests: the open-loop reference
//!   grid, closed-loop clients with think time, and diurnal/bursty drifts.
//! * [`Balancer`] / [`Policy`] — pluggable routing: round-robin,
//!   least-outstanding, and *recovery-aware* (drains an instance while any
//!   of its components is inside a reboot window, re-admits it on resume).
//! * [`FleetPlan`] — scheduled maintenance: rolling component-level
//!   rejuvenation with drains, plus the two baselines it is measured
//!   against (rolling full-reboot failover and undrained simultaneous
//!   rejuvenation), and instance-scoped fault injection for chaos runs.
//! * [`FleetRunReport`] — per-instance [`vampos_workloads::LoadReport`]s
//!   aggregated with [`vampos_sim::Summary::merge`] /
//!   [`vampos_sim::Histogram::merge`].
//! * [`oracle`] — fleet-level liveness and faulted-vs-twin equivalence
//!   checks for chaos campaigns.
//!
//! # Example
//!
//! ```
//! use vampos_cluster::{Fleet, FleetConfig, FleetLoad, FleetPlan, Policy};
//! use vampos_sim::Nanos;
//!
//! let mut fleet = Fleet::new(FleetConfig {
//!     instances: 4,
//!     ..FleetConfig::default()
//! })
//! .unwrap();
//! let load = FleetLoad {
//!     clients: 8,
//!     requests_per_client: 10,
//!     ..FleetLoad::default()
//! };
//! // One instance at a time, spaced wider than the ~48 ms reboot window.
//! let plan = FleetPlan::rolling_rejuvenation(
//!     4,
//!     Nanos::from_millis(5),
//!     Nanos::from_millis(60),
//!     Nanos::from_millis(2),
//! );
//! let report = fleet.run(&load, Policy::RecoveryAware, plan).unwrap();
//! assert_eq!(report.failures(), 0);
//! ```

pub mod balancer;
pub mod engine;
pub mod fleet;
pub mod instance;
pub mod ladder;
pub mod oracle;
pub mod plan;
pub mod recursive;
pub mod report;
pub mod single;

pub use balancer::{Balancer, Policy};
pub use engine::{ArrivalShape, Event, EventClass, EventHeap};
pub use fleet::{Fleet, FleetConfig, FleetLoad, FrontOutcome};
pub use instance::{Booking, HopCost, Instance, Replica};
pub use ladder::{EscalationLadder, Rung, RungEvent};
pub use oracle::{check_equivalence, check_liveness, FleetViolation};
pub use plan::{
    FleetOp, FleetOpKind, FleetPlan, RecoveryFault, ROLLING_DRAIN_LEAD, ROLLING_SPACING,
    ROLLING_START,
};
pub use recursive::{
    expected_rungs, generate_recursive_spec, run_recursive_campaign, run_recursive_campaign_traced,
    FaultClass, PlantKind, RecursiveCampaignReport, RecursiveCampaignSpec, RecursiveViolation,
};
pub use report::FleetRunReport;
pub use single::run_single;
// The one send/poll/recv, shared with the load generators a layer down.
pub use vampos_workloads::exchange;
