//! Recursive-recovery campaigns: fault-inject the recovery machinery
//! itself and check that the escalation ladder converges.
//!
//! Ordinary chaos campaigns ([`crate::oracle`], `vampos-chaos --family
//! component|fleet`) assume the recovery plane is sound: panics land in
//! *components* and the reboot engine, 9P server, virtio rings, failure
//! detector and balancer all do their jobs. The `recursive` family drops
//! that assumption — each campaign arms exactly one
//! [`RecoveryFault`](crate::plan::RecoveryFault) against one instance of a
//! three-instance fleet and drives an open-loop client population through
//! [`Fleet::run_supervised`], where the [`EscalationLadder`] is the only
//! thing standing between a broken recovery mechanism and a dead fleet.
//!
//! Three oracles judge the run:
//!
//! * **ladder convergence** — every non-condemned instance answers a probe
//!   after the run, and the ladder fired at most [`MAX_RUNGS`] rungs;
//! * **no acknowledged loss** — no response acked to a client contradicted
//!   the canonical content (checked in-line against a pre-run probe body),
//!   and post-recovery probe bodies still match it;
//! * **rung attribution** — the rung sequence fired against the faulted
//!   instance equals the per-class expectation ([`expected_rungs`]).
//!   Evaluated only when the run converged: a diverged ladder's rung tail
//!   is already reported by the convergence oracle.
//!
//! Each oracle has a planted self-test ([`PlantKind`]) that flips it — and
//! only it — so a sweep that never fires an oracle can still prove the
//! oracles are awake.

use vampos_core::InjectedFault;
use vampos_host::{NinePGlitch, RingGlitch};
use vampos_sim::{Nanos, SimRng};
use vampos_ukernel::OsError;

use crate::balancer::Policy;
use crate::fleet::{http_body, Fleet, FleetConfig, FleetLoad};
use crate::instance::Instance;
use crate::ladder::{EscalationLadder, Rung};
use crate::plan::{FleetOpKind, FleetPlan, RecoveryFault};

/// Most rungs any converging campaign may fire: the deepest expected
/// ladder walk (stalled 9P server: component → instance → fleet) plus one
/// of slack.
pub const MAX_RUNGS: usize = 4;

/// The recovery-plane fault a recursive campaign injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// 9P RPC corruption window (loud errors until the session is
    /// re-established).
    NinepCorrupt,
    /// 9P server stalled for good — the one class that must walk the
    /// whole ladder to fleet failover.
    NinepStall,
    /// Virtio descriptor dropped by the host peer (sticky ring desync).
    VirtioDrop,
    /// Virtio descriptor acknowledged twice (sticky ring desync).
    VirtioDup,
    /// Failure detector misses a real component panic.
    DetectorFalseNegative,
    /// Failure detector reboots a healthy component.
    DetectorFalsePositive,
    /// Balancer routes on a frozen pre-maintenance view of the fleet.
    BalancerStaleView,
    /// Boot checkpoint fails validation on the next reboot attempt.
    CheckpointCorrupt,
    /// Newest replay-log record corrupted; the next reboot's replay
    /// diverges and the system fail-stops.
    ReplayDivergence,
    /// A reboot interrupted midway by a second reboot request.
    RebootDuringReboot,
}

impl FaultClass {
    /// Every class, in report order.
    pub const ALL: [FaultClass; 10] = [
        FaultClass::NinepCorrupt,
        FaultClass::NinepStall,
        FaultClass::VirtioDrop,
        FaultClass::VirtioDup,
        FaultClass::DetectorFalseNegative,
        FaultClass::DetectorFalsePositive,
        FaultClass::BalancerStaleView,
        FaultClass::CheckpointCorrupt,
        FaultClass::ReplayDivergence,
        FaultClass::RebootDuringReboot,
    ];

    /// Stable display name (reports, reproducers, CLI).
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::NinepCorrupt => "ninep-corrupt",
            FaultClass::NinepStall => "ninep-stall",
            FaultClass::VirtioDrop => "virtio-drop",
            FaultClass::VirtioDup => "virtio-dup",
            FaultClass::DetectorFalseNegative => "detector-false-negative",
            FaultClass::DetectorFalsePositive => "detector-false-positive",
            FaultClass::BalancerStaleView => "balancer-stale-view",
            FaultClass::CheckpointCorrupt => "checkpoint-corrupt",
            FaultClass::ReplayDivergence => "replay-divergence",
            FaultClass::RebootDuringReboot => "reboot-during-reboot",
        }
    }

    /// Parses a [`FaultClass::name`] back.
    pub fn from_name(name: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// The rung sequence the ladder is expected to fire against the faulted
/// instance for each class — the rung-attribution oracle's table.
pub fn expected_rungs(class: FaultClass) -> &'static [Rung] {
    match class {
        // A session re-establishment (component rung) clears the glitch.
        FaultClass::NinepCorrupt => &[Rung::Component],
        // Nothing short of failover helps: the component rung cannot
        // un-stall the server and the full reboot's remount stalls too.
        FaultClass::NinepStall => &[Rung::Component, Rung::Instance, Rung::Fleet],
        // Only the full reboot's host device reset resynchronizes rings.
        FaultClass::VirtioDrop => &[Rung::Component, Rung::Instance],
        FaultClass::VirtioDup => &[Rung::Component, Rung::Instance],
        // The missed failure leaves the component down; rejuvenation
        // brings it back.
        FaultClass::DetectorFalseNegative => &[Rung::Component],
        // A needless reboot is a recovery *window*, not a failure streak.
        FaultClass::DetectorFalsePositive => &[],
        // Stale routing queues requests (timeouts), but every one is
        // eventually served — no rung fires.
        FaultClass::BalancerStaleView => &[],
        // Component reboots keep failing checkpoint validation until the
        // full reboot recaptures checkpoints.
        FaultClass::CheckpointCorrupt => &[Rung::Component, Rung::Instance],
        // Replay keeps diverging until the full reboot clears the logs.
        FaultClass::ReplayDivergence => &[Rung::Component, Rung::Instance],
        // The interrupt is consumed by the aborted attempt; the ladder's
        // own component rung then succeeds.
        FaultClass::RebootDuringReboot => &[Rung::Component],
    }
}

/// Planted self-tests: each flips exactly one oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantKind {
    /// No plant — the real campaign.
    None,
    /// Stalled 9P server with the fleet rung disabled: the ladder hammers
    /// the instance rung forever and never reaches a serving state —
    /// only the convergence oracle fires.
    LadderStall,
    /// Silent 9P read corruption with no failure signal: responses are
    /// acked with garbled bodies and no rung ever fires — only the
    /// acked-loss oracle fires.
    AckedLoss,
    /// Corruption window with a ladder that starts at the instance rung:
    /// it converges (the remount re-establishes the session), but the
    /// recovery is attributed to the wrong rung — only the attribution
    /// oracle fires.
    MisattributedRung,
}

impl PlantKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            PlantKind::None => "none",
            PlantKind::LadderStall => "ladder-stall",
            PlantKind::AckedLoss => "acked-loss",
            PlantKind::MisattributedRung => "misattributed-rung",
        }
    }

    /// Parses a [`PlantKind::name`] back.
    pub fn from_name(name: &str) -> Option<PlantKind> {
        [
            PlantKind::None,
            PlantKind::LadderStall,
            PlantKind::AckedLoss,
            PlantKind::MisattributedRung,
        ]
        .into_iter()
        .find(|p| p.name() == name)
    }
}

/// Components a recovery fault may name: the file-path pair every request
/// exercises (same soundness argument as the component/fleet families).
const TARGET_COMPONENTS: [&str; 2] = ["vfs", "9pfs"];

/// A fully self-contained recursive campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecursiveCampaignSpec {
    /// Fleet size.
    pub instances: usize,
    /// The per-campaign seed (already derived).
    pub seed: u64,
    /// Index within its sweep (labeling only).
    pub campaign: u64,
    /// Open-loop clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// The recovery-plane fault under test.
    pub class: FaultClass,
    /// The faulted instance.
    pub target: usize,
    /// Fault arming time, nanoseconds from run start.
    pub at_ns: u64,
    /// Component named by component-scoped classes.
    pub component: String,
    /// Corruption window for [`FaultClass::NinepCorrupt`].
    pub glitch_count: u32,
    /// Garbled reads for the [`PlantKind::AckedLoss`] plant.
    pub silent_count: u32,
    /// Planted self-test, if any.
    pub plant: PlantKind,
}

/// Outcome of one recursive campaign.
#[derive(Debug, Clone)]
pub struct RecursiveCampaignReport {
    /// The spec that ran.
    pub spec: RecursiveCampaignSpec,
    /// Oracle violations (empty = the ladder held).
    pub violations: Vec<RecursiveViolation>,
    /// Rung sequence fired against the faulted instance.
    pub rungs: Vec<Rung>,
    /// Rungs fired fleet-wide.
    pub total_rungs: usize,
    /// Instances permanently failed over.
    pub condemned: usize,
    /// Responses acked with a body contradicting the canonical content.
    pub acked_bad: u64,
    /// Total requests recorded.
    pub requests: usize,
    /// Failed transactions (deadline misses and hard failures).
    pub failures: usize,
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecursiveViolation {
    /// Ladder convergence: a surviving instance cannot serve, or the
    /// ladder fired more rungs than any converging walk needs.
    LadderDiverged {
        /// Rungs fired fleet-wide.
        rungs_fired: usize,
        /// Non-condemned instances that failed the post-run probe.
        unserved: Vec<usize>,
    },
    /// No acknowledged loss: a client acked content that post-recovery
    /// state (or the canonical body) contradicts.
    AckedLoss {
        /// Served responses whose body contradicted the canonical
        /// content.
        acked_bad: u64,
        /// A post-recovery probe served a body that no longer matches.
        probe_mismatch: bool,
    },
    /// Rung attribution: the fired rung sequence does not match the
    /// injected fault class.
    RungMisattributed {
        /// The faulted instance.
        instance: usize,
        /// What the class expects.
        expected: Vec<Rung>,
        /// What actually fired.
        actual: Vec<Rung>,
    },
}

/// Generates one recursive campaign spec — a pure function of its
/// arguments. [`PlantKind::LadderStall`] and
/// [`PlantKind::MisattributedRung`] override `class` with the fault that
/// exhibits them (stall and corruption window respectively);
/// [`PlantKind::AckedLoss`] keeps the class label but the plan swaps the
/// fault for silent read corruption.
pub fn generate_recursive_spec(
    seed: u64,
    campaign: u64,
    class: FaultClass,
    plant: PlantKind,
) -> RecursiveCampaignSpec {
    let class = match plant {
        PlantKind::LadderStall => FaultClass::NinepStall,
        PlantKind::MisattributedRung => FaultClass::NinepCorrupt,
        _ => class,
    };
    let mut rng = SimRng::seed_from(seed);
    let instances = 3;
    let clients = 2 * instances;
    let requests_per_client = rng.gen_between(36, 60) as usize;
    // The open-loop grid fixes the span. The fault lands between 20% and
    // 35% of it: late enough that the target has live log entries and
    // established connections, early enough that the remaining requests
    // can drive the ladder through every expected rung — the deepest walk
    // (stall: component → instance → fleet) pays for a failed full-reboot
    // attempt (~50 ms virtual) before the fleet rung can fire.
    let span_ns = FleetLoad::default().think_time.as_nanos() * requests_per_client as u64;
    let at_ns = rng.gen_between(span_ns / 5, span_ns * 7 / 20);
    RecursiveCampaignSpec {
        instances,
        seed,
        campaign,
        clients,
        requests_per_client,
        class,
        target: rng.gen_range(instances as u64) as usize,
        at_ns,
        component: TARGET_COMPONENTS[rng.gen_range(TARGET_COMPONENTS.len() as u64) as usize]
            .to_owned(),
        glitch_count: rng.gen_between(64, 128) as u32,
        silent_count: rng.gen_between(2, 5) as u32,
        plant,
    }
}

impl RecursiveCampaignSpec {
    fn config(&self) -> FleetConfig {
        FleetConfig {
            instances: self.instances,
            seed: self.seed,
            ..FleetConfig::default()
        }
    }

    fn load(&self) -> FleetLoad {
        FleetLoad {
            clients: self.clients,
            requests_per_client: self.requests_per_client,
            ..FleetLoad::default()
        }
    }

    /// The ladder this campaign runs under (plants reshape it).
    fn ladder(&self, canonical_body: Vec<u8>) -> EscalationLadder {
        let ladder = EscalationLadder::new(self.instances).with_expected_body(canonical_body);
        match self.plant {
            PlantKind::LadderStall => ladder.with_max_rung(Rung::Instance),
            PlantKind::MisattributedRung => ladder.with_start_rung(Rung::Instance),
            _ => ladder,
        }
    }

    /// The rung sequence the attribution oracle expects on the target.
    /// The acked-loss plant swaps the fault for silent corruption, whose
    /// correct attribution is *no rungs* — the loss oracle, not the
    /// attribution oracle, is supposed to fire.
    fn expected_target_rungs(&self) -> &'static [Rung] {
        match self.plant {
            PlantKind::AckedLoss => &[],
            _ => expected_rungs(self.class),
        }
    }

    /// The maintenance plan: the class's [`RecoveryFault`] armed on the
    /// target at `at_ns`, then — for classes that only bite when a
    /// failure or a reboot runs — one trigger op on the same target.
    pub fn plan(&self) -> FleetPlan {
        let at = Nanos::from_nanos(self.at_ns);
        let component = self.component.clone();
        let rejuvenate = Some((at, FleetOpKind::RejuvenateComponents));
        let (fault, trigger) = match self.class {
            _ if self.plant == PlantKind::AckedLoss => {
                let count = self.silent_count;
                (
                    RecoveryFault::Ninep(NinePGlitch::CorruptSilent { count }),
                    None,
                )
            }
            FaultClass::NinepCorrupt => {
                let count = self.glitch_count;
                (RecoveryFault::Ninep(NinePGlitch::Corrupt { count }), None)
            }
            FaultClass::NinepStall => (RecoveryFault::Ninep(NinePGlitch::Stall), None),
            FaultClass::VirtioDrop => (RecoveryFault::Ring(RingGlitch::DropNext), None),
            FaultClass::VirtioDup => (RecoveryFault::Ring(RingGlitch::DupNext), None),
            // The blinded detector needs a real failure to miss.
            FaultClass::DetectorFalseNegative => (
                RecoveryFault::DetectorFalseNegative { window: 1 },
                Some((
                    at,
                    FleetOpKind::Inject(InjectedFault::panic_next(&component)),
                )),
            ),
            FaultClass::DetectorFalsePositive => {
                (RecoveryFault::DetectorFalsePositive { component }, None)
            }
            // Freeze the (all-healthy) view first, then open a real
            // recovery window the balancer cannot see.
            FaultClass::BalancerStaleView => (
                RecoveryFault::BalancerStaleView {
                    window: Nanos::from_millis(20),
                },
                Some((
                    at + Nanos::from_millis(1),
                    FleetOpKind::RejuvenateComponents,
                )),
            ),
            FaultClass::CheckpointCorrupt => {
                (RecoveryFault::CheckpointCorrupt { component }, rejuvenate)
            }
            FaultClass::ReplayDivergence => {
                (RecoveryFault::ReplayDivergence { component }, rejuvenate)
            }
            FaultClass::RebootDuringReboot => {
                (RecoveryFault::RebootDuringReboot { component }, rejuvenate)
            }
        };
        let mut plan = FleetPlan::none().with(at, self.target, FleetOpKind::RecoveryFault(fault));
        if let Some((when, op)) = trigger {
            plan.push(when, self.target, op);
        }
        plan
    }
}

/// One fresh-connection probe of `inst`: did it answer `200 OK`, and with
/// what body? Errors (connect or poll) count as a failed probe, not a
/// crashed campaign — a dead instance is exactly what the convergence
/// oracle wants to see.
fn probe_instance(inst: &mut Instance, one_way: Nanos, request: &str) -> (bool, Vec<u8>) {
    let response = inst.probe(request, one_way).unwrap_or_default();
    (
        response.starts_with(b"HTTP/1.1 200"),
        http_body(&response).to_vec(),
    )
}

/// Runs one recursive campaign under the escalation ladder and evaluates
/// the three oracles. No fault-free twin: the oracles are self-contained
/// (canonical content comes from a pre-fault probe of the same fleet).
///
/// # Errors
///
/// Propagates boot failures and a fleet that cannot serve *before* any
/// fault is armed (both mean the campaign never became meaningful).
pub fn run_recursive_campaign(
    spec: &RecursiveCampaignSpec,
) -> Result<RecursiveCampaignReport, OsError> {
    run_campaign(spec, false).map(|(report, _)| report)
}

/// [`run_recursive_campaign`] with telemetry attached, handing back the
/// fleet it ran on for its `fleet_telemetry()` / `span_processes()` /
/// `chrome_trace_json()` / `merged_metrics()`. Telemetry only records: the
/// simulation itself is byte-identical to the untraced run.
///
/// # Errors
///
/// Same conditions as [`run_recursive_campaign`].
pub fn run_recursive_campaign_traced(
    spec: &RecursiveCampaignSpec,
) -> Result<(RecursiveCampaignReport, Fleet), OsError> {
    run_campaign(spec, true)
}

fn run_campaign(
    spec: &RecursiveCampaignSpec,
    telemetry: bool,
) -> Result<(RecursiveCampaignReport, Fleet), OsError> {
    let load = spec.load();
    let request = format!("GET {} HTTP/1.1\r\nHost: vampos\r\n\r\n", load.path);
    let mut cfg = spec.config();
    cfg.telemetry = telemetry;
    let mut fleet = Fleet::new(cfg)?;
    let one_way = fleet.instances()[0].sys.costs().net_rtt(0, false) / 2;

    // Canonical content: what the fleet serves before any fault exists.
    let (ok, canonical) = probe_instance(&mut fleet.instances_mut()[0], one_way, &request);
    if !ok || canonical.is_empty() {
        return Err(OsError::Io(
            "recursive campaign: pre-fault probe failed".to_owned(),
        ));
    }

    let mut ladder = spec.ladder(canonical.clone());
    let report = fleet.run_supervised(&load, Policy::RecoveryAware, spec.plan(), &mut ladder)?;

    // Post-recovery probes, one per surviving instance; condemned
    // instances are failover victims, not convergence failures.
    let mut unserved = Vec::new();
    let mut probe_mismatch = false;
    for i in 0..spec.instances {
        if ladder.is_condemned(i) {
            continue;
        }
        let (ok, body) = probe_instance(&mut fleet.instances_mut()[i], one_way, &request);
        if !ok {
            unserved.push(i);
        } else if body != canonical {
            probe_mismatch = true;
        }
    }

    let mut violations = Vec::new();
    let converged = unserved.is_empty() && ladder.total_rungs() <= MAX_RUNGS;
    if !converged {
        violations.push(RecursiveViolation::LadderDiverged {
            rungs_fired: ladder.total_rungs(),
            unserved: unserved.clone(),
        });
    }
    if ladder.acked_bad() > 0 || probe_mismatch {
        violations.push(RecursiveViolation::AckedLoss {
            acked_bad: ladder.acked_bad(),
            probe_mismatch,
        });
    }
    // Attribution is only meaningful for a converged run: a diverged
    // ladder's rung tail is the convergence oracle's finding.
    let rungs = ladder.rungs_for(spec.target);
    if converged && rungs != spec.expected_target_rungs() {
        violations.push(RecursiveViolation::RungMisattributed {
            instance: spec.target,
            expected: spec.expected_target_rungs().to_vec(),
            actual: rungs.clone(),
        });
    }

    Ok((
        RecursiveCampaignReport {
            spec: spec.clone(),
            violations,
            rungs,
            total_rungs: ladder.total_rungs(),
            condemned: ladder.condemned_count(),
            acked_bad: ladder.acked_bad(),
            requests: report.requests(),
            failures: report.failures(),
        },
        fleet,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_sim::derive_seed;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a = generate_recursive_spec(42, 0, FaultClass::NinepStall, PlantKind::None);
        let b = generate_recursive_spec(42, 0, FaultClass::NinepStall, PlantKind::None);
        assert_eq!(a, b);
        let c = generate_recursive_spec(43, 0, FaultClass::NinepStall, PlantKind::None);
        assert_ne!(a, c);
    }

    #[test]
    fn the_expectation_table_exercises_every_rung() {
        let mut seen = Vec::new();
        for class in FaultClass::ALL {
            seen.extend_from_slice(expected_rungs(class));
        }
        for rung in [Rung::Component, Rung::Instance, Rung::Fleet] {
            assert!(seen.contains(&rung), "no class exercises {rung:?}");
        }
    }

    #[test]
    fn every_class_arms_the_fault_it_is_named_after() {
        let arms = |class, plant| {
            let spec = generate_recursive_spec(derive_seed(7, 0), 0, class, plant);
            let plan = spec.plan();
            let (armed, trigger) = plan.ops().split_first().expect("an armed fault");
            let FleetOpKind::RecoveryFault(fault) = &armed.kind else {
                panic!("{class:?} arms {:?} first", armed.kind);
            };
            let at = Nanos::from_nanos(spec.at_ns);
            assert_eq!((armed.at, armed.instance), (at, spec.target), "{class:?}");
            assert!(trigger.len() <= 1, "{class:?}: {trigger:?}");
            assert!(trigger.iter().all(|op| op.instance == spec.target));
            fault.name()
        };
        for class in FaultClass::ALL {
            assert_eq!(arms(class, PlantKind::None), class.name());
        }
        let plant = arms(FaultClass::NinepCorrupt, PlantKind::AckedLoss);
        assert_eq!(plant, "ninep-corrupt-silent");
    }

    #[test]
    fn a_corruption_window_converges_via_the_component_rung() {
        let spec = generate_recursive_spec(
            derive_seed(42, 0),
            0,
            FaultClass::NinepCorrupt,
            PlantKind::None,
        );
        let report = run_recursive_campaign(&spec).expect("campaign");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.rungs, vec![Rung::Component]);
    }

    #[test]
    fn a_stalled_server_walks_the_whole_ladder_to_failover() {
        let spec = generate_recursive_spec(
            derive_seed(42, 1),
            1,
            FaultClass::NinepStall,
            PlantKind::None,
        );
        let report = run_recursive_campaign(&spec).expect("campaign");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(
            report.rungs,
            vec![Rung::Component, Rung::Instance, Rung::Fleet]
        );
        assert_eq!(report.condemned, 1);
    }

    #[test]
    fn a_planted_ladder_stall_flips_only_the_convergence_oracle() {
        let spec = generate_recursive_spec(
            derive_seed(42, 2),
            2,
            FaultClass::NinepStall,
            PlantKind::LadderStall,
        );
        let report = run_recursive_campaign(&spec).expect("campaign");
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, RecursiveViolation::LadderDiverged { .. })),
            "the convergence oracle missed a ladder that cannot fail over: {:?}",
            report.violations
        );
        assert!(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, RecursiveViolation::AckedLoss { .. })),
            "loud failures are not acknowledged loss: {:?}",
            report.violations
        );
        assert!(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, RecursiveViolation::RungMisattributed { .. })),
            "attribution must stay quiet on a diverged run: {:?}",
            report.violations
        );
    }

    #[test]
    fn planted_silent_corruption_flips_only_the_acked_loss_oracle() {
        let spec = generate_recursive_spec(
            derive_seed(42, 3),
            3,
            FaultClass::NinepCorrupt,
            PlantKind::AckedLoss,
        );
        let report = run_recursive_campaign(&spec).expect("campaign");
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, RecursiveViolation::AckedLoss { .. })),
            "the loss oracle missed acked garbage: {:?}",
            report.violations
        );
        assert_eq!(
            report.violations.len(),
            1,
            "only the loss oracle should fire: {:?}",
            report.violations
        );
        assert!(report.acked_bad > 0);
    }

    #[test]
    fn a_planted_rung_skip_flips_only_the_attribution_oracle() {
        let spec = generate_recursive_spec(
            derive_seed(42, 4),
            4,
            FaultClass::NinepCorrupt,
            PlantKind::MisattributedRung,
        );
        let report = run_recursive_campaign(&spec).expect("campaign");
        assert_eq!(
            report.violations.len(),
            1,
            "only the attribution oracle should fire: {:?}",
            report.violations
        );
        assert!(
            matches!(
                &report.violations[0],
                RecursiveViolation::RungMisattributed { actual, .. }
                    if actual == &vec![Rung::Instance]
            ),
            "{:?}",
            report.violations
        );
    }
}
