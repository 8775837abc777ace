//! Seeded campaign generation.
//!
//! The generator first runs a fault-free *probe* of the workload to learn
//! two things the schedule must respect: how long the drive takes in
//! virtual time (events must land inside the run, or the liveness oracle
//! would flag them as unreachable), and which components the workload
//! actually exercises (an injected fault on a component that never receives
//! a call would never fire).
//!
//! Soundness rules — every generated schedule must be *survivable*, so that
//! any oracle violation indicts the recovery machinery and not the
//! generator:
//!
//! * fault targets are exercised ∩ rebootable (a panic on an unrebootable
//!   component like `virtio` is a designed fail-stop, not a bug),
//! * no hangs on hang-exempt components (`lwip` turns a hang into a
//!   `WouldBlock` error surfaced to the driver — also by design),
//! * no deterministic panics (they re-fire on the post-recovery retry until
//!   the runtime gives up — again a designed fail-stop),
//! * at most one crash-type inject (panic or hang) per campaign: a second
//!   one can fire *during* the first's recovery retry, which the runtime
//!   escalates to a terminal "failure recurred after recovery" fail-stop —
//!   correct behaviour, but not a recovery bug,
//! * at most one inject per component: [`FaultPlan::on_call`] fires one
//!   fault per call, first match wins, and a persistent leak stays armed —
//!   so an earlier inject on the same component would shadow a later one
//!   forever, and the liveness oracle would flag the shadowed fault as
//!   never having fired,
//! * every bit flip is paired with a later reboot of the same component, so
//!   the corrupted arena is rebuilt before the run ends,
//! * full reboots only for MiniKv with the AOF on (every other
//!   configuration legitimately loses state across one — §VII-C's point).

use vampos_core::FaultKind;
use vampos_sim::{Nanos, SimRng};
use vampos_workloads::Disruption;

use crate::drive;
use crate::spec::{inject, CampaignSpec, WorkloadKind};

/// Calls a component must receive during the probe (per main-stream
/// request, scaled) before the generator will aim an injected fault at it.
const EXERCISE_FRACTION: usize = 2; // threshold = ops / EXERCISE_FRACTION

/// Generates one campaign spec.
///
/// `seed` is the final per-campaign seed (already derived); `budget` caps
/// the number of scheduled events. The generated spec is a pure function of
/// its arguments.
pub fn generate_spec(
    workload: WorkloadKind,
    seed: u64,
    campaign: u64,
    budget: usize,
    plant: bool,
) -> CampaignSpec {
    let mut rng = SimRng::seed_from(seed);
    let ops = rng.gen_between(24, 64) as usize;
    let aof = workload == WorkloadKind::Kv && rng.chance(0.4);
    let mut spec = CampaignSpec {
        workload,
        seed,
        campaign,
        ops,
        tail: drive::DEFAULT_TAIL,
        aof,
        plant,
        events: Vec::new(),
    };

    // Probe: a fault-free twin of this exact spec.
    let probe = drive::run(&spec, false);
    let duration_ns = probe.duration.as_nanos().max(1_000);
    // Events land in the first 80% of the clean run so the remaining
    // requests (stretched further by recovery time) can trigger any armed
    // fault before the drive ends.
    let window_ns = (duration_ns * 4 / 5).max(1);
    let threshold = (ops / EXERCISE_FRACTION).max(1) as u64;
    let exercised: Vec<String> = probe
        .hops_by_target
        .iter()
        .filter(|&(_, &hops)| hops >= threshold)
        .map(|(name, _)| name.clone())
        .collect();
    // Rebootability is a static property of the component set; ask a
    // freshly built system rather than hard-coding names here.
    let sys = vampos_core::System::builder()
        .mode(vampos_core::Mode::vampos_das())
        .components(match workload {
            WorkloadKind::Echo => vampos_core::ComponentSet::echo(),
            WorkloadKind::Kv => vampos_core::ComponentSet::redis(),
            WorkloadKind::Http => vampos_core::ComponentSet::nginx(),
            WorkloadKind::Sql => vampos_core::ComponentSet::sqlite(),
        })
        .build()
        .expect("component set boots");
    let reboot_targets: Vec<String> = exercised
        .iter()
        .filter(|name| sys.is_rebootable(name) == Some(true))
        .cloned()
        .collect();
    let hang_targets: Vec<String> = reboot_targets
        .iter()
        .filter(|name| sys.is_hang_exempt(name) == Some(false))
        .cloned()
        .collect();
    if reboot_targets.is_empty() {
        // Nothing safe to aim at (degenerate workload): an event-free
        // campaign still checks the no-fault path end to end.
        return spec;
    }

    let events = rng.gen_between(1, budget.max(1) as u64 + 1) as usize;
    let mut crash_budget = 1usize;
    let mut injected: Vec<&str> = Vec::new();
    for _ in 0..events {
        if spec.events.len() >= budget {
            break;
        }
        let at_ns = rng.gen_between(1, window_ns + 1);
        let at = Nanos::from_nanos(at_ns);
        let target = &reboot_targets[rng.gen_range(reboot_targets.len() as u64) as usize];
        // Weighted action choice; arms that are unavailable in this
        // configuration fall through to a component reboot.
        let event = match rng.gen_range(10) {
            0..=2 => Disruption::component_reboot(at, target),
            3..=4 => Disruption::fail(at, target),
            5 => Disruption::rejuvenate_all(at),
            6 if spec.workload == WorkloadKind::Kv && spec.aof && !plant => {
                Disruption::full_reboot(at)
            }
            6 => Disruption::component_reboot(at, target),
            _ => {
                let after = rng.gen_range(4);
                let fault = match rng.gen_range(4) {
                    0 | 1 if crash_budget == 0 => FaultKind::LeakPerOp {
                        bytes: rng.gen_between(64, 4096) as usize,
                    },
                    0 => FaultKind::Panic,
                    1 if !hang_targets.is_empty() => FaultKind::Hang,
                    1 => FaultKind::Panic,
                    2 => FaultKind::LeakPerOp {
                        bytes: rng.gen_between(64, 4096) as usize,
                    },
                    _ => FaultKind::BitFlip {
                        offset: rng.gen_range(4096),
                        bit: rng.gen_range(8) as u8,
                    },
                };
                let component = if fault == FaultKind::Hang {
                    &hang_targets[rng.gen_range(hang_targets.len() as u64) as usize]
                } else {
                    target
                };
                if injected.contains(&component.as_str()) {
                    // A second inject would be shadowed (see module docs);
                    // degrade to a plain reboot of the same component.
                    spec.events
                        .push(Disruption::component_reboot(at, component));
                    continue;
                }
                injected.push(component);
                if matches!(fault, FaultKind::Panic | FaultKind::Hang) {
                    crash_budget -= 1;
                }
                if let FaultKind::BitFlip { .. } = fault {
                    // Pair the flip with a later reboot of the same
                    // component so the corrupted arena is rebuilt.
                    let reboot_at = rng.gen_between(at_ns, window_ns + 2);
                    spec.events.push(Disruption::component_reboot(
                        Nanos::from_nanos(reboot_at),
                        component,
                    ));
                }
                inject(at, component, after, fault)
            }
        };
        spec.events.push(event);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_workloads::DisruptionKind;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for workload in WorkloadKind::ALL {
            let a = generate_spec(workload, 42, 3, 4, false);
            let b = generate_spec(workload, 42, 3, 4, false);
            assert_eq!(a, b, "{workload:?}");
            let c = generate_spec(workload, 43, 3, 4, false);
            assert_ne!(a, c, "different seeds must differ ({workload:?})");
        }
    }

    #[test]
    fn schedules_respect_the_soundness_rules() {
        for workload in WorkloadKind::ALL {
            for seed in 0..40u64 {
                let spec = generate_spec(workload, seed, 0, 5, false);
                assert!(spec.events.len() <= 5 + 5, "budget blown: {spec:?}");
                let injects = || {
                    spec.events.iter().filter_map(|e| match &e.kind {
                        DisruptionKind::Inject(fault) => Some(fault),
                        _ => None,
                    })
                };
                let crash_injects = injects()
                    .filter(|f| matches!(f.kind, FaultKind::Panic | FaultKind::Hang))
                    .count();
                assert!(crash_injects <= 1, "nested-retry hazard: {spec:?}");
                let mut inject_targets: Vec<&str> =
                    injects().map(|f| f.component.as_str()).collect();
                let total = inject_targets.len();
                inject_targets.sort_unstable();
                inject_targets.dedup();
                assert_eq!(total, inject_targets.len(), "shadowed inject: {spec:?}");
                for event in &spec.events {
                    match &event.kind {
                        DisruptionKind::ComponentReboot(c) | DisruptionKind::Fail(c) => {
                            assert_ne!(&**c, "virtio", "unrebootable target: {spec:?}");
                        }
                        DisruptionKind::Inject(fault) => {
                            assert_ne!(fault.component, "virtio", "unrebootable target: {spec:?}");
                            if fault.kind == FaultKind::Hang {
                                assert_ne!(fault.component, "lwip", "hang-exempt target: {spec:?}");
                            }
                        }
                        DisruptionKind::FullReboot => {
                            assert_eq!(spec.workload, WorkloadKind::Kv, "{spec:?}");
                            assert!(spec.aof, "full reboot without AOF: {spec:?}");
                        }
                        DisruptionKind::RejuvenateAll => {}
                    }
                }
            }
        }
    }

    #[test]
    fn bit_flips_are_paired_with_a_later_reboot() {
        let mut flips = 0;
        for seed in 0..80u64 {
            let spec = generate_spec(WorkloadKind::Kv, seed, 0, 6, false);
            for event in &spec.events {
                let DisruptionKind::Inject(fault) = &event.kind else {
                    continue;
                };
                if let FaultKind::BitFlip { .. } = fault.kind {
                    flips += 1;
                    let reboot = DisruptionKind::ComponentReboot(fault.component.as_str().into());
                    assert!(
                        spec.events
                            .iter()
                            .any(|e| e.at >= event.at && e.kind == reboot),
                        "unpaired flip in {spec:?}"
                    );
                }
            }
        }
        assert!(flips > 0, "the sweep never generated a bit flip");
    }
}
