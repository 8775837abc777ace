//! Builder-level static analysis tests: `build()` must reject
//! configurations with error-severity findings before any component runs,
//! `allow_analysis_errors()` must opt out, and the analyzer's derived PKRU
//! policies must match what the runtime actually loads.

use vampos_analyze::{analyze, codes};
use vampos_core::{analysis, ComponentSet, Mode, System};
use vampos_mem::ArenaLayout;
use vampos_ukernel::{CallContext, Component, ComponentDescriptor, FnDecl, FnId, OsError, Value};

/// A deliberately broken extra component: stateful, rebootable, logged —
/// but without checkpoint-based init (VAMP-E201).
#[derive(Clone, Hash)]
struct NoCheckpoint {
    desc: ComponentDescriptor,
}

impl NoCheckpoint {
    fn new() -> Self {
        NoCheckpoint {
            desc: ComponentDescriptor::new("nockpt", ArenaLayout::small())
                .stateful()
                .interface(&[FnDecl::new("poke").logged()]),
        }
    }
}

impl Component for NoCheckpoint {
    fn descriptor(&self) -> &ComponentDescriptor {
        &self.desc
    }
    fn call(
        &mut self,
        _ctx: &mut dyn CallContext,
        _func: FnId,
        _args: &[Value],
    ) -> Result<Value, OsError> {
        Ok(Value::Unit)
    }
}

#[test]
fn build_rejects_error_findings() {
    let err = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(NoCheckpoint::new()))
        .build()
        .unwrap_err();
    match err {
        OsError::AnalysisRejected { errors, report } => {
            assert!(errors >= 1);
            assert!(report.contains("VAMP-E201"), "{report}");
            assert!(report.contains("nockpt"), "{report}");
        }
        other => panic!("expected AnalysisRejected, got {other}"),
    }
}

#[test]
fn allow_analysis_errors_boots_anyway() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .extra_component(Box::new(NoCheckpoint::new()))
        .allow_analysis_errors()
        .build()
        .expect("opt-out must boot the broken configuration");
    assert_eq!(sys.syscall("nockpt", "poke", &[]).unwrap(), Value::Unit);
}

#[test]
fn shipped_sets_boot_through_the_analyzer() {
    for set in [
        ComponentSet::sqlite(),
        ComponentSet::nginx(),
        ComponentSet::redis(),
        ComponentSet::echo(),
    ] {
        System::builder()
            .mode(Mode::vampos_das())
            .components(set)
            .build()
            .expect("shipped sets must pass analysis");
    }
}

#[test]
fn runtime_pkru_policies_are_least_privilege() {
    // Feed the PKRU values the booted runtime reports back into the
    // analyzer: they must exactly match the statically derived minimum.
    for mode in [Mode::vampos_das(), Mode::vampos_fsm(), Mode::vampos_netm()] {
        let set = ComponentSet::nginx();
        let mut sys = System::builder()
            .mode(mode.clone())
            .components(set.clone())
            .build()
            .unwrap();
        let mut input = analysis::analysis_input(&set, &mode).unwrap();
        for &name in set.components() {
            input = input.policy(name, sys.pkru_for(name).unwrap());
        }
        let report = analyze(&input);
        assert!(
            !report.has(codes::E301_PKRU_OVER_WIDE),
            "{} / {}: {}",
            set.name(),
            mode.label(),
            report.render()
        );
    }
}
