//! Fleet-level correctness oracles for chaos campaigns.
//!
//! * **Liveness** — after a run, every scheduled operation fired, every
//!   armed fault was consumed, the request accounting balances, and every
//!   instance still answers a probe request.
//! * **Equivalence** — a fleet that absorbed component-level faults must
//!   end in the same per-component (and application) state as a fault-free
//!   twin that served the identical request stream: component-level
//!   recovery is invisible at the fleet boundary.

use std::fmt;

use vampos_ukernel::OsError;

use crate::fleet::{Fleet, FleetLoad};
use crate::report::FleetRunReport;

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetViolation {
    /// An armed fault never fired.
    ArmedFaultLeft {
        /// Instance holding the fault.
        instance: usize,
        /// Faults still armed.
        count: usize,
    },
    /// The request accounting does not balance.
    RequestCountMismatch {
        /// `clients * requests_per_client + retried`.
        expected: usize,
        /// Records actually collected.
        got: usize,
    },
    /// An instance failed its post-run probe.
    InstanceUnresponsive {
        /// The silent instance.
        instance: usize,
    },
    /// A component's state digest diverged from the twin's.
    DigestMismatch {
        /// Instance the component lives on.
        instance: usize,
        /// Component name.
        component: String,
    },
    /// The application state diverged from the twin's.
    AppDivergence {
        /// The diverging instance.
        instance: usize,
    },
}

impl fmt::Display for FleetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetViolation::ArmedFaultLeft { instance, count } => {
                write!(f, "instance {instance}: {count} armed fault(s) never fired")
            }
            FleetViolation::RequestCountMismatch { expected, got } => {
                write!(
                    f,
                    "request accounting: expected {expected} records, got {got}"
                )
            }
            FleetViolation::InstanceUnresponsive { instance } => {
                write!(f, "instance {instance} unresponsive after the run")
            }
            FleetViolation::DigestMismatch {
                instance,
                component,
            } => {
                write!(
                    f,
                    "instance {instance}: component '{component}' state diverged from twin"
                )
            }
            FleetViolation::AppDivergence { instance } => {
                write!(
                    f,
                    "instance {instance}: application state diverged from twin"
                )
            }
        }
    }
}

/// Checks fleet liveness after a run (see module docs).
///
/// The probe sends one real request to every instance, advancing the
/// simulation and the per-instance request counters — run
/// [`check_equivalence`] *before* this if both oracles apply.
///
/// # Errors
///
/// Propagates probe failures (an instance that fail-stopped).
pub fn check_liveness(
    fleet: &mut Fleet,
    load: &FleetLoad,
    report: &FleetRunReport,
) -> Result<Vec<FleetViolation>, OsError> {
    let mut violations = Vec::new();
    for (instance, inst) in fleet.instances().iter().enumerate() {
        let count = inst.sys.armed_faults().len();
        if count > 0 {
            violations.push(FleetViolation::ArmedFaultLeft { instance, count });
        }
    }
    let expected = load.clients.max(1) * load.requests_per_client + report.retried as usize;
    let got = report.requests();
    if got != expected {
        violations.push(FleetViolation::RequestCountMismatch { expected, got });
    }
    for (instance, ok) in fleet.probe(&load.path)?.into_iter().enumerate() {
        if !ok {
            violations.push(FleetViolation::InstanceUnresponsive { instance });
        }
    }
    Ok(violations)
}

/// Compares a faulted fleet against its fault-free twin, instance by
/// instance: every component state digest and every application digest
/// must match. Valid when both fleets served the identical request stream
/// under a time-independent policy and the faults were component-level
/// (recovered in place, no connections lost).
pub fn check_equivalence(faulted: &Fleet, twin: &Fleet) -> Vec<FleetViolation> {
    let mut violations = Vec::new();
    for (instance, (a, b)) in faulted.instances().iter().zip(twin.instances()).enumerate() {
        for name in a.sys.component_names() {
            if a.sys.state_digest(&name) != b.sys.state_digest(&name) {
                violations.push(FleetViolation::DigestMismatch {
                    instance,
                    component: name,
                });
            }
        }
        if vampos_apps::App::state_digest(&a.app) != vampos_apps::App::state_digest(&b.app) {
            violations.push(FleetViolation::AppDivergence { instance });
        }
    }
    violations
}
