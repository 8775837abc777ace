//! Scheduled fleet maintenance: rolling rejuvenation, reboot baselines,
//! and instance-scoped fault injection.

use vampos_core::InjectedFault;
use vampos_host::{NinePGlitch, RingGlitch};
use vampos_sim::Nanos;

/// A fault aimed at the *recovery machinery itself* rather than at a
/// component's business logic: the 9P server, the virtio rings, the
/// failure detector, the balancer's view of the fleet, checkpoints, the
/// replay log, and the reboot engine. These are what the `recursive` chaos
/// family injects; the escalation ladder is what is supposed to survive
/// them.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryFault {
    /// The host's 9P server misbehaves: a loud corruption window (cleared
    /// by a fresh `Attach`, part of component-level recovery), silently
    /// garbled reads only an end-to-end content oracle can catch, or a
    /// stall that outlasts even a full reboot's remount.
    Ninep(NinePGlitch),
    /// The host side of the 9P virtio ring drops or double-acknowledges
    /// the next descriptor; the ring stays desynchronized until a
    /// host-device reset (full reboot).
    Ring(RingGlitch),
    /// The failure detector misses the next `window` real failures:
    /// errors propagate raw, the slot is marked down, and no recovery
    /// runs until the ladder steps in.
    DetectorFalseNegative {
        /// Failures missed.
        window: u32,
    },
    /// The failure detector fires with no underlying failure, triggering
    /// a needless reboot of `component` and an unscheduled recovery
    /// window the balancer must drain around.
    DetectorFalsePositive {
        /// Component the detector wrongly accuses.
        component: String,
    },
    /// The balancer's view of the fleet freezes for `window`: drains and
    /// recovery windows opened after the snapshot are invisible, so it
    /// keeps routing to instances that are mid-maintenance.
    BalancerStaleView {
        /// How long the stale snapshot keeps answering eligibility.
        window: Nanos,
    },
    /// `component`'s boot checkpoint fails validation on the next reboot
    /// attempt; only a full reboot (which recaptures checkpoints) clears
    /// the corruption.
    CheckpointCorrupt {
        /// Component whose checkpoint is corrupted.
        component: String,
    },
    /// The newest live entry in `component`'s function log is corrupted,
    /// so the next reboot's replay diverges from the recorded returns and
    /// the system fail-stops until a full reboot clears the logs.
    ReplayDivergence {
        /// Component whose log record is corrupted.
        component: String,
    },
    /// The next reboot of `component` is interrupted midway by a second
    /// reboot request: the attempt aborts (state restored, slot down) and
    /// the interrupt is consumed, so the *following* reboot succeeds.
    RebootDuringReboot {
        /// Component whose reboot is interrupted.
        component: String,
    },
}

impl RecoveryFault {
    /// Short display name used in telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryFault::Ninep(NinePGlitch::Corrupt { .. }) => "ninep-corrupt",
            RecoveryFault::Ninep(NinePGlitch::CorruptSilent { .. }) => "ninep-corrupt-silent",
            RecoveryFault::Ninep(NinePGlitch::Stall) => "ninep-stall",
            RecoveryFault::Ring(RingGlitch::DropNext) => "virtio-drop",
            RecoveryFault::Ring(RingGlitch::DupNext) => "virtio-dup",
            RecoveryFault::DetectorFalseNegative { .. } => "detector-false-negative",
            RecoveryFault::DetectorFalsePositive { .. } => "detector-false-positive",
            RecoveryFault::BalancerStaleView { .. } => "balancer-stale-view",
            RecoveryFault::CheckpointCorrupt { .. } => "checkpoint-corrupt",
            RecoveryFault::ReplayDivergence { .. } => "replay-divergence",
            RecoveryFault::RebootDuringReboot { .. } => "reboot-during-reboot",
        }
    }
}

/// What a fleet operation does to its target instance.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOpKind {
    /// Stop routing new work to the instance (recovery-aware policy only).
    Drain,
    /// Re-admit the instance.
    Resume,
    /// Rejuvenate every rebootable component, one by one
    /// ([`vampos_core::System::rejuvenate_all`]).
    RejuvenateComponents,
    /// Conventional full reboot; the app re-boots afterwards and every
    /// client connection is reset.
    FullReboot,
    /// Arm a fault on the instance (chaos campaigns).
    Inject(InjectedFault),
    /// Arm a fault on the instance's *recovery plane* (recursive chaos
    /// campaigns).
    RecoveryFault(RecoveryFault),
}

/// One scheduled operation against one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOp {
    /// Firing time, relative to the start of the run carrying the plan.
    pub at: Nanos,
    /// Target instance index.
    pub instance: usize,
    /// The action.
    pub kind: FleetOpKind,
}

/// A maintenance plan: operations fired in `(at, instance,
/// insertion-order)` order.
///
/// This is exactly the event heap's total order restricted to plan events
/// (time, then instance id, then sequence), which is what lets the heap
/// engine and the tick-loop reference model fire the same plan in the same
/// order. The sort is *stable*, so operations on the same instance at the
/// same instant fire in the order the constructor pushed them —
/// rejuvenation before the matching resume, for example.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetPlan {
    ops: Vec<FleetOp>,
}

/// First operation of the named plans: gives the load a ramp before
/// maintenance starts.
pub const ROLLING_START: Nanos = Nanos::from_millis(20);
/// Gap between consecutive instances of the named rolling plans: one at a
/// time, wider than the ~48 ms rejuvenation window.
pub const ROLLING_SPACING: Nanos = Nanos::from_millis(60);
/// Drain lead ahead of each rolling rejuvenation.
pub const ROLLING_DRAIN_LEAD: Nanos = Nanos::from_millis(8);

impl FleetPlan {
    /// The names [`FleetPlan::named`] knows, `none` first.
    pub const NAMES: [&'static str; 4] = ["none", "rolling", "rolling-full", "simultaneous"];

    /// The empty plan.
    pub fn none() -> Self {
        FleetPlan::default()
    }

    /// The maintenance scenario `vampos-fleet --plan` and `vampos-audit`
    /// call by name, over `instances` instances on the `ROLLING_*`
    /// schedule; `None` for a name outside [`FleetPlan::NAMES`].
    pub fn named(name: &str, instances: usize) -> Option<Self> {
        let (start, spacing) = (ROLLING_START, ROLLING_SPACING);
        match name {
            "none" => Some(FleetPlan::none()),
            "rolling" => Some(FleetPlan::rolling_rejuvenation(
                instances,
                start,
                spacing,
                ROLLING_DRAIN_LEAD,
            )),
            "rolling-full" => Some(FleetPlan::rolling_full_reboot(instances, start, spacing)),
            "simultaneous" => Some(FleetPlan::simultaneous_rejuvenation(
                instances,
                start + spacing,
            )),
            _ => None,
        }
    }

    /// Appends an operation.
    pub fn push(&mut self, at: Nanos, instance: usize, kind: FleetOpKind) {
        self.ops.push(FleetOp { at, instance, kind });
    }

    /// Builder-style [`FleetPlan::push`].
    #[must_use]
    pub fn with(mut self, at: Nanos, instance: usize, kind: FleetOpKind) -> Self {
        self.push(at, instance, kind);
        self
    }

    /// Rolling component-level rejuvenation: instance `i` is drained at
    /// `start + i*spacing`, rejuvenated `drain_lead` later (once its
    /// in-flight work quiesced), and re-admitted immediately after the
    /// rejuvenation sweep — the recovery window itself keeps the
    /// recovery-aware policy away until it closes.
    pub fn rolling_rejuvenation(
        instances: usize,
        start: Nanos,
        spacing: Nanos,
        drain_lead: Nanos,
    ) -> Self {
        let mut plan = FleetPlan::none();
        for i in 0..instances {
            let t = start + spacing * i as u64;
            plan.push(t, i, FleetOpKind::Drain);
            plan.push(t + drain_lead, i, FleetOpKind::RejuvenateComponents);
            plan.push(t + drain_lead, i, FleetOpKind::Resume);
        }
        plan
    }

    /// Baseline 1 — fleet-wide full-reboot failover: each instance takes a
    /// conventional full reboot in turn, with no drains; clients discover
    /// the reset connections the hard way.
    pub fn rolling_full_reboot(instances: usize, start: Nanos, spacing: Nanos) -> Self {
        let mut plan = FleetPlan::none();
        for i in 0..instances {
            plan.push(start + spacing * i as u64, i, FleetOpKind::FullReboot);
        }
        plan
    }

    /// Baseline 2 — undrained simultaneous rejuvenation: every instance
    /// rejuvenates at the same scheduled instant, so every reboot window
    /// overlaps and no healthy instance is left to absorb traffic.
    pub fn simultaneous_rejuvenation(instances: usize, at: Nanos) -> Self {
        let mut plan = FleetPlan::none();
        for i in 0..instances {
            plan.push(at, i, FleetOpKind::RejuvenateComponents);
        }
        plan
    }

    /// The scheduled operations, in insertion order.
    pub fn ops(&self) -> &[FleetOp] {
        &self.ops
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consumes the plan into firing order: `(at, instance)`, stable.
    pub(crate) fn into_firing_order(mut self) -> Vec<FleetOp> {
        self.ops.sort_by_key(|op| (op.at, op.instance));
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_plan_drains_before_rejuvenating() {
        let plan = FleetPlan::rolling_rejuvenation(
            2,
            Nanos::from_millis(10),
            Nanos::from_millis(20),
            Nanos::from_millis(5),
        );
        let ops = plan.into_firing_order();
        assert_eq!(ops.len(), 6);
        assert_eq!(ops[0].kind, FleetOpKind::Drain);
        assert_eq!(ops[0].instance, 0);
        assert_eq!(ops[1].kind, FleetOpKind::RejuvenateComponents);
        assert_eq!(ops[2].kind, FleetOpKind::Resume);
        assert_eq!(ops[3].instance, 1);
        assert!(ops[3].at > ops[2].at);
    }

    #[test]
    fn every_listed_name_is_a_plan_and_nothing_else_is() {
        for name in FleetPlan::NAMES {
            let plan = FleetPlan::named(name, 3).expect(name);
            assert_eq!(plan.is_empty(), name == "none", "{name}");
        }
        assert_eq!(FleetPlan::named("Rolling", 3), None);
        let rolling = FleetPlan::named("rolling", 2).expect("listed");
        assert_eq!(rolling.ops()[0].at, ROLLING_START);
        assert_eq!(rolling.ops()[1].at, ROLLING_START + ROLLING_DRAIN_LEAD);
        assert_eq!(rolling.ops()[3].at, ROLLING_START + ROLLING_SPACING);
    }

    #[test]
    fn simultaneous_plan_schedules_every_instance_at_once() {
        let plan = FleetPlan::simultaneous_rejuvenation(3, Nanos::from_millis(7));
        assert_eq!(plan.len(), 3);
        assert!(plan.ops().iter().all(|op| op.at == Nanos::from_millis(7)));
    }
}
