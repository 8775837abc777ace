//! # VampOS-RS
//!
//! A Rust reproduction of *"Reboot-Based Recovery of Unikernels at the
//! Component Level"* (Wada & Yamada, DSN 2024): a simulated unikernel whose
//! OS components interact by message passing, are isolated by (simulated)
//! Intel MPK protection keys, and can be **rebooted individually** — with
//! checkpoint-based initialization and encapsulated log replay restoring the
//! state of the rebooted component while the application and the remaining
//! components keep running.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`sim`] — virtual clock, cost model, RNG, statistics;
//! * [`mem`] — component memory arenas, buddy allocator, snapshots, aging;
//! * [`mpk`] — simulated Memory Protection Keys;
//! * [`host`] — the "host side": 9P file server, network peer, virtio rings;
//! * [`ukernel`] — the component framework (descriptors, value ABI, errors);
//! * [`analyze`] — pre-boot static analysis of component configurations;
//! * [`oslib`] — the nine Unikraft-style components (VFS, 9PFS, LWIP, ...);
//! * [`core`] — the VampOS runtime itself (message passing, scheduling,
//!   logging/replay, protection domains, checkpointing, reboot engine);
//! * [`telemetry`] — recovery-span tracing, per-component metrics, and
//!   deterministic Perfetto / Prometheus exporters;
//! * [`apps`] — Echo, MiniHttpd, MiniKv and MiniSql sample applications;
//! * [`workloads`] — client-side load generators used by the experiments;
//! * [`cluster`] — the fleet layer: N instances behind a recovery-aware
//!   balancer on one shared clock, with rolling rejuvenation plans,
//!   fleet-level oracles, and the component → instance → fleet
//!   escalation ladder the `recursive` chaos family exercises;
//! * [`mesh`] — the service-mesh layer: multi-component request pipelines
//!   (front fleet → auth / KV / SQL backend services) with per-hop
//!   deadlines, bounded retries, idempotency keys, and hedged requests,
//!   measured end to end under component-level recovery;
//! * [`bench`] — the experiment harness, and the command-line kit
//!   ([`bench::cli`]) every binary of this package parses with.
//!
//! # Quickstart
//!
//! ```
//! use vampos::prelude::*;
//!
//! // Boot a VampOS unikernel with SQLite's component set (file-system
//! // components included).
//! let mut system = System::builder()
//!     .mode(Mode::vampos_das())
//!     .components(ComponentSet::sqlite())
//!     .build()
//!     .expect("boot");
//!
//! // Run some syscalls through the message-passing unikernel layer.
//! let fd = system.os().open("/motd", OpenFlags::RDWR | OpenFlags::CREAT).unwrap();
//! system.os().write(fd, b"hello").unwrap();
//!
//! // Reboot the VFS component alone; the fd (and its offset) survive
//! // because VampOS replays the function-call log after the reboot.
//! system.reboot_component("vfs").unwrap();
//! system.os().write(fd, b" world").unwrap();
//! assert_eq!(system.os().fstat(fd).unwrap(), 11);
//! ```

pub use vampos_analyze as analyze;
pub use vampos_apps as apps;
pub use vampos_bench as bench;
pub use vampos_chaos as chaos;
pub use vampos_cluster as cluster;
pub use vampos_core as core;
pub use vampos_host as host;
pub use vampos_mem as mem;
pub use vampos_mesh as mesh;
pub use vampos_mpk as mpk;
pub use vampos_oslib as oslib;
pub use vampos_sim as sim;
pub use vampos_telemetry as telemetry;
pub use vampos_ukernel as ukernel;
pub use vampos_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use vampos_analyze::{analyze, AnalysisInput, AnalysisReport, Diagnostic, Severity};
    pub use vampos_cluster::{
        generate_recursive_spec, run_recursive_campaign, EscalationLadder, FaultClass, Fleet,
        FleetConfig, FleetLoad, FleetPlan, FleetRunReport, Policy, RecursiveCampaignReport,
        RecursiveCampaignSpec, Rung,
    };
    pub use vampos_core::{
        analyze_configuration, ComponentSet, FullRebootOutcome, Mode, RebootOutcome, System,
        SystemBuilder, Whence,
    };
    pub use vampos_mesh::{
        generate_mesh_spec, run_mesh_campaign, HopPolicy, Mesh, MeshConfig, MeshFaultClass,
        MeshPlan, MeshRunReport, MeshTopology,
    };
    pub use vampos_oslib::vfs::OpenFlags;
    pub use vampos_sim::{CostModel, Nanos, SimClock, SimRng};
    pub use vampos_telemetry::{Collector, RecoveryPhase, SpanDump, TelemetryHub, TelemetrySink};
    pub use vampos_ukernel::{ComponentName, OsError, Value};
}
