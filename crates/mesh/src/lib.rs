//! # vampos-mesh
//!
//! A deterministic service-mesh layer over the [`vampos_cluster`] fleet:
//! multi-component request pipelines with per-hop deadlines, bounded
//! retry, idempotency keys, and hedged requests — all under the same
//! component-level reboot recovery the rest of the workspace studies.
//!
//! One ingress request served by the front tier (MiniHttpd fleet) fans
//! across a typed pipeline of backend services — an auth check against a
//! warmed kv store, a journey write and read-back against an AOF-durable
//! kv store, and a durable SQL insert — each hop governed by a
//! [`HopPolicy`]. The journey id threads every hop, serves as the
//! idempotency key that makes retries after a mid-pipeline reboot safe,
//! and labels the telemetry spans that decompose each stage into
//! wire/queue/stall/service time.
//!
//! Everything is a pure function of the seed: reports are byte-identical
//! across runs and between sequential and parallel sweeps. The
//! [`campaign`] module pits faulted pipelines against fault-free twins —
//! the mesh chaos family's oracles (pipeline equivalence, no acknowledged
//! loss, retry budgets) live there.

pub mod backend;
pub mod campaign;
pub mod mesh;
pub mod policy;
pub mod report;
pub mod topology;

pub use backend::{BackendApp, BackendInstance, HopServe};
pub use campaign::{
    generate_mesh_spec, run_mesh_campaign, run_mesh_campaign_traced, MeshCampaignReport,
    MeshChaosSpec, MeshFaultClass, MeshViolation, FRONT_INSTANCES,
};
pub use mesh::{BackendOp, BackendOpKind, Mesh, MeshConfig, MeshPlan, MeshPlant, MeshPlantKind};
pub use policy::HopPolicy;
pub use report::{JourneyOutcome, MeshRunReport, StageRecord, StageReport};
pub use topology::{MeshTopology, Routing, ServiceKind, ServiceSpec, StageOp, StageSpec};
