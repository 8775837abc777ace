//! Recovery-correctness oracles.
//!
//! Each oracle compares the faulted run against its fault-free twin (or
//! against an invariant) and reports violations. A campaign passes only
//! when all four are silent:
//!
//! 1. **State equivalence** — after recovery quiesces, the application's
//!    logical state (and its request-success count) matches the twin's.
//!    The paper's core claim: a component reboot is invisible above the
//!    unikernel layer.
//! 2. **Replay consistency** — every component that went through a reboot
//!    ends with the same logical state digest as the twin's never-rebooted
//!    instance: checkpoint + encapsulated log replay reconstructed the
//!    state exactly.
//! 3. **Isolation** — recovery never tripped an MPK policy violation.
//! 4. **Liveness** — the drive finished, every scheduled disruption came
//!    due, every armed fault fired, and every downtime window stayed
//!    within the cost-model recovery bound (no silent wedging or
//!    pathological recovery).
//!
//! Oracles 1 and 2 are skipped when the schedule contains a *full* reboot:
//! a conventional reboot legitimately resets connections, drops in-flight
//! requests, and rebuilds kernel-object tables — precisely the baseline
//! behaviour the paper contrasts against.

use vampos_core::VampConfig;
use vampos_sim::{CostModel, Nanos};

use crate::drive::RunResult;
use crate::spec::CampaignSpec;

/// Which oracle a violation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// Application state diverged from the twin.
    StateEquivalence,
    /// A rebooted component's digest diverged from the twin.
    ReplayConsistency,
    /// The runtime denied an MPK access.
    Isolation,
    /// The run wedged, left schedule entries unfired, or blew the
    /// recovery-time bound.
    Liveness,
}

impl OracleKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::StateEquivalence => "state-equivalence",
            OracleKind::ReplayConsistency => "replay-consistency",
            OracleKind::Isolation => "isolation",
            OracleKind::Liveness => "liveness",
        }
    }
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated oracle.
    pub kind: OracleKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    fn new(kind: OracleKind, detail: String) -> Self {
        Violation { kind, detail }
    }
}

/// The recovery-time bound for one component downtime window.
///
/// Derived from the cost model, deliberately generous (×4 on the modeled
/// terms plus a fixed margin): it exists to catch *pathological* recovery —
/// a window that scales with something it shouldn't — not to assert the
/// model's constants.
fn component_downtime_bound(costs: &CostModel, arena_bytes: usize, replayed: u64) -> Nanos {
    let arena_kib = (arena_bytes / 1024) as u64 + 16;
    // A hang is only detected after the hang threshold elapses, and that
    // wait is part of the observed window.
    let hang_threshold = VampConfig::default().hang_threshold;
    hang_threshold
        + costs.detector_check
        + (costs.ctx_switch + costs.thread_spawn) * 64
        + costs.snapshot_restore_per_kib * arena_kib * 4
        + (costs.replay_entry + costs.direct_call * 8) * replayed * 4
        + Nanos::from_millis(1)
}

/// Runs all four oracles.
pub fn check(spec: &CampaignSpec, faulted: &RunResult, twin: &RunResult) -> Vec<Violation> {
    let mut violations = Vec::new();
    let full_reboot = spec.has_full_reboot();

    // Oracle 1: application-state equivalence.
    if !full_reboot {
        if faulted.successes != twin.successes {
            violations.push(Violation::new(
                OracleKind::StateEquivalence,
                format!(
                    "request successes diverged: faulted {}/{} vs twin {}/{}",
                    faulted.successes, faulted.requests, twin.successes, twin.requests
                ),
            ));
        }
        if faulted.app_digest != twin.app_digest {
            violations.push(Violation::new(
                OracleKind::StateEquivalence,
                format!(
                    "app state digest diverged: faulted {:#018x} vs twin {:#018x}",
                    faulted.app_digest, twin.app_digest
                ),
            ));
        }
    }

    // Oracle 2: replay consistency for every rebooted component.
    if !full_reboot {
        for component in &faulted.rebooted_components {
            match (
                faulted.component_digests.get(component),
                twin.component_digests.get(component),
            ) {
                (Some(f), Some(t)) if f != t => violations.push(Violation::new(
                    OracleKind::ReplayConsistency,
                    format!(
                        "component {component:?} digest diverged after reboot: \
                         faulted {f:#018x} vs twin {t:#018x}"
                    ),
                )),
                (None, _) | (_, None) => violations.push(Violation::new(
                    OracleKind::ReplayConsistency,
                    format!("component {component:?} has no digest in one of the runs"),
                )),
                _ => {}
            }
        }
    }

    // Oracle 3: isolation.
    if faulted.mpk_violations > 0 {
        violations.push(Violation::new(
            OracleKind::Isolation,
            format!(
                "{} MPK policy violation(s) traced during recovery",
                faulted.mpk_violations
            ),
        ));
    }

    // Oracle 4: liveness.
    if let Some(error) = &faulted.error {
        violations.push(Violation::new(
            OracleKind::Liveness,
            format!("drive did not finish: {error}"),
        ));
    }
    if faulted.pending_disruptions > 0 {
        violations.push(Violation::new(
            OracleKind::Liveness,
            format!(
                "{} scheduled disruption(s) never came due",
                faulted.pending_disruptions
            ),
        ));
    }
    for fault in &faulted.unfired_faults {
        violations.push(Violation::new(
            OracleKind::Liveness,
            format!("armed fault never fired: {fault}"),
        ));
    }
    let costs = CostModel::default();
    let full_boot_bound = costs.full_boot * 4 + Nanos::from_millis(1);
    for (component, duration) in &faulted.downtime {
        let bound = if component == "*" {
            full_boot_bound
        } else {
            component_downtime_bound(&costs, faulted.arena_bytes, faulted.replayed_entries)
        };
        if *duration > bound {
            violations.push(Violation::new(
                OracleKind::Liveness,
                format!(
                    "downtime of {component:?} was {duration}, above the recovery bound {bound}"
                ),
            ));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadKind;
    use std::collections::{BTreeMap, BTreeSet};

    fn clean_result() -> RunResult {
        RunResult {
            successes: 10,
            requests: 10,
            reconnects: 0,
            app_digest: 0xAB,
            component_digests: BTreeMap::from([("vfs".to_owned(), 1u64)]),
            rebooted_components: BTreeSet::new(),
            mpk_violations: 0,
            downtime: Vec::new(),
            component_reboots: 0,
            full_reboots: 0,
            replayed_entries: 0,
            unfired_faults: Vec::new(),
            pending_disruptions: 0,
            arena_bytes: 1 << 20,
            hops_by_target: BTreeMap::new(),
            duration: Nanos::from_secs(1),
            error: None,
        }
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            workload: WorkloadKind::Kv,
            seed: 1,
            campaign: 0,
            ops: 8,
            tail: 2,
            aof: false,
            plant: false,
            events: Vec::new(),
        }
    }

    #[test]
    fn identical_runs_pass() {
        assert_eq!(check(&spec(), &clean_result(), &clean_result()), vec![]);
    }

    #[test]
    fn each_oracle_fires_on_its_own_divergence() {
        let twin = clean_result();

        let mut diverged = clean_result();
        diverged.app_digest = 0xCD;
        let v = check(&spec(), &diverged, &twin);
        assert!(v.iter().any(|v| v.kind == OracleKind::StateEquivalence));

        let mut rebooted = clean_result();
        rebooted.rebooted_components.insert("vfs".to_owned());
        rebooted.component_digests.insert("vfs".to_owned(), 2);
        let v = check(&spec(), &rebooted, &twin);
        assert!(v.iter().any(|v| v.kind == OracleKind::ReplayConsistency));

        let mut mpk = clean_result();
        mpk.mpk_violations = 1;
        let v = check(&spec(), &mpk, &twin);
        assert!(v.iter().any(|v| v.kind == OracleKind::Isolation));

        let mut wedged = clean_result();
        wedged.pending_disruptions = 2;
        wedged.unfired_faults.push("Panic on vfs".to_owned());
        wedged.error = Some("boom".to_owned());
        let v = check(&spec(), &wedged, &twin);
        assert_eq!(
            v.iter().filter(|v| v.kind == OracleKind::Liveness).count(),
            3
        );
    }

    #[test]
    fn downtime_above_the_bound_is_a_liveness_violation() {
        let twin = clean_result();
        let mut slow = clean_result();
        slow.downtime.push(("vfs".to_owned(), Nanos::from_secs(30)));
        let v = check(&spec(), &slow, &twin);
        assert!(v.iter().any(|v| v.kind == OracleKind::Liveness));
        // A µs-scale reboot is comfortably inside the bound.
        let mut fast = clean_result();
        fast.downtime
            .push(("vfs".to_owned(), Nanos::from_micros(40)));
        assert_eq!(check(&spec(), &fast, &twin), vec![]);
    }

    #[test]
    fn full_reboot_waives_equivalence_but_not_isolation() {
        let mut spec = spec();
        spec.aof = true;
        spec.events.push(vampos_workloads::Disruption::full_reboot(
            vampos_sim::Nanos::from_nanos(1),
        ));
        let twin = clean_result();
        let mut diverged = clean_result();
        diverged.app_digest = 0xCD;
        diverged.successes = 7;
        diverged.mpk_violations = 3;
        let v = check(&spec, &diverged, &twin);
        assert!(!v.iter().any(|v| v.kind == OracleKind::StateEquivalence));
        assert!(v.iter().any(|v| v.kind == OracleKind::Isolation));
    }
}
