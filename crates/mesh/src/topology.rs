//! Pipeline topology: the logical services behind the front tier and the
//! typed stage sequence every acknowledged ingress request fans across.
//!
//! A topology is pure data — which backend services exist (name, kind,
//! replica count, durability), and the ordered stages the router drives
//! after the front tier serves the ingress request. The [`crate::Mesh`]
//! boots one [`vampos_cluster::Replica`] ([`crate::BackendInstance`]) per
//! replica and the run loop walks [`MeshTopology::stages`] in order for
//! every served journey.

use crate::policy::HopPolicy;

/// Service indices in [`MeshTopology::standard`] registry order.
pub(crate) const SVC_AUTH: usize = 0;
pub(crate) const SVC_KV: usize = 1;
pub(crate) const SVC_SQL: usize = 2;

/// Keys pre-warmed into every auth replica at boot; the auth stage reads
/// `key:{journey % AUTH_KEYS}`, so its responses are identical on every
/// replica — the property that makes the stage safely hedgeable.
pub const AUTH_KEYS: usize = 64;

/// Value length of the pre-warmed auth keys.
pub const AUTH_VALUE_LEN: usize = 24;

/// What application a backend service runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// A [`vampos_apps::MiniKv`] store served over the simulated network.
    Kv,
    /// An embedded [`vampos_apps::MiniSql`] database (no network hop; the
    /// wire time is charged in the booking arithmetic instead).
    Sql,
}

/// One logical backend service in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSpec {
    /// Registry name (`auth`, `kv`, `sql`, …) — also the span label prefix.
    pub name: &'static str,
    /// Application the replicas run.
    pub kind: ServiceKind,
    /// Replica count (at least 1).
    pub replicas: usize,
    /// Append-only-file durability for [`ServiceKind::Kv`] replicas: a
    /// full reboot replays the AOF, so acked writes survive. Required for
    /// any kv service a plan may full-reboot.
    pub aof: bool,
    /// Pre-warm [`AUTH_KEYS`] identical keys into every replica at boot,
    /// making read responses replica-independent.
    pub warm: bool,
}

/// The typed operation a stage performs for journey `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOp {
    /// `GET key:{j % AUTH_KEYS}` against a warmed kv service — the
    /// stateless auth/session check.
    AuthCheck,
    /// `SET j:{j} v:{j}` — the journey's write.
    KvPut,
    /// `GET j:{j}` — read-your-write within the same journey.
    KvGet,
    /// `INSERT INTO events VALUES ({j}, 'j{j}')` — the durable record.
    SqlInsert,
    /// `SELECT COUNT(*) FROM events WHERE id={j}` — a read-only probe.
    SqlCount,
}

impl StageOp {
    /// Whether the op mutates service state — write ops consult the
    /// idempotency table so a retried request is applied at most once.
    pub fn is_write(&self) -> bool {
        matches!(self, StageOp::KvPut | StageOp::SqlInsert)
    }

    /// Short stable name used in stage labels and span attributes.
    pub fn short(&self) -> &'static str {
        match self {
            StageOp::AuthCheck => "check",
            StageOp::KvPut => "put",
            StageOp::KvGet => "get",
            StageOp::SqlInsert => "insert",
            StageOp::SqlCount => "count",
        }
    }
}

/// How attempts map to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Every attempt of journey `j` hits replica `j % replicas` — required
    /// for stateful stages (read-your-write must land where the write
    /// did). Hedging is disabled: a duplicate against the same FIFO
    /// server cannot finish earlier.
    Pinned,
    /// Attempt `a` hits replica `(j + a - 1) % replicas`; a hedge races
    /// the next replica. Sound only when responses are
    /// replica-independent (warmed reads).
    Replicated,
}

/// One stage of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// Index into [`MeshTopology::services`].
    pub service: usize,
    /// The typed operation.
    pub op: StageOp,
    /// Attempt-to-replica mapping.
    pub routing: Routing,
    /// Deadline / retry / hedging policy for this hop.
    pub policy: HopPolicy,
}

/// A full mesh topology: the service registry plus the stage pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshTopology {
    /// Logical services, boot order.
    pub services: Vec<ServiceSpec>,
    /// Pipeline stages, execution order.
    pub stages: Vec<StageSpec>,
}

impl MeshTopology {
    /// The empty pipeline: ingress requests terminate at the front tier.
    /// A depth-1 mesh run is byte-identical to the equivalent plain
    /// [`vampos_cluster::Fleet::run`] (the equivalence proptest holds it
    /// to exactly that).
    pub fn depth1() -> MeshTopology {
        MeshTopology {
            services: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// The standard four-stage pipeline behind the front tier:
    /// auth check (warmed kv, replicated + hedgeable), journey write and
    /// read-back (pinned kv with AOF durability), and a durable SQL
    /// insert. `armed` selects real per-hop policies
    /// ([`HopPolicy::standard`]) or the single-attempt no-policy baseline
    /// the repro experiment measures against.
    pub fn standard(replicas: usize, armed: bool) -> MeshTopology {
        let replicas = replicas.max(1);
        let policy = |p: HopPolicy| {
            if armed {
                p
            } else {
                HopPolicy::none(p.deadline)
            }
        };
        MeshTopology {
            services: vec![
                ServiceSpec {
                    name: "auth",
                    kind: ServiceKind::Kv,
                    replicas,
                    aof: false,
                    warm: true,
                },
                ServiceSpec {
                    name: "kv",
                    kind: ServiceKind::Kv,
                    replicas,
                    aof: true,
                    warm: false,
                },
                ServiceSpec {
                    name: "sql",
                    kind: ServiceKind::Sql,
                    replicas: 1,
                    aof: false,
                    warm: false,
                },
            ],
            stages: vec![
                StageSpec {
                    service: 0,
                    op: StageOp::AuthCheck,
                    routing: Routing::Replicated,
                    policy: policy(HopPolicy::standard_hedged()),
                },
                StageSpec {
                    service: 1,
                    op: StageOp::KvPut,
                    routing: Routing::Pinned,
                    policy: policy(HopPolicy::standard()),
                },
                StageSpec {
                    service: 1,
                    op: StageOp::KvGet,
                    routing: Routing::Pinned,
                    policy: policy(HopPolicy::standard()),
                },
                StageSpec {
                    service: 2,
                    op: StageOp::SqlInsert,
                    routing: Routing::Pinned,
                    policy: policy(HopPolicy::standard()),
                },
            ],
        }
    }

    /// Stable display label for stage `i`: `service:op` (`kv:put`).
    pub fn stage_label(&self, i: usize) -> String {
        let stage = &self.stages[i];
        format!("{}:{}", self.services[stage.service].name, stage.op.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth1_has_no_services_or_stages() {
        let t = MeshTopology::depth1();
        assert!(t.services.is_empty());
        assert!(t.stages.is_empty());
    }

    #[test]
    fn the_standard_pipeline_is_well_formed() {
        let t = MeshTopology::standard(2, true);
        assert_eq!(t.stages.len(), 4);
        for stage in &t.stages {
            assert!(stage.service < t.services.len());
            let svc = &t.services[stage.service];
            // Hedging requires replica-independent responses.
            if stage.routing == Routing::Replicated {
                assert!(svc.warm, "replicated routing over unwarmed state");
            }
            // Stateful kv stages must pin; only warmed reads replicate.
            if stage.op.is_write() {
                assert_eq!(stage.routing, Routing::Pinned);
            }
        }
        // The full-rebootable kv service is AOF-durable.
        assert!(t.services[1].aof);
    }

    #[test]
    fn disarmed_policies_are_single_attempt_no_hedge() {
        let t = MeshTopology::standard(2, false);
        for stage in &t.stages {
            assert_eq!(stage.policy.max_attempts, 1);
            assert!(stage.policy.hedge_after.is_none());
        }
    }

    #[test]
    fn stage_labels_are_service_scoped() {
        let t = MeshTopology::standard(2, true);
        let labels: Vec<String> = (0..t.stages.len()).map(|i| t.stage_label(i)).collect();
        assert_eq!(labels, ["auth:check", "kv:put", "kv:get", "sql:insert"]);
    }
}
