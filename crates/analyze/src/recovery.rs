//! Recoverability lint: checkpoint-based init, replay coverage of the
//! declared interface, and hang-detection exemptions.

use crate::diagnostic::{codes, Diagnostic};
use crate::input::AnalysisInput;

/// Runs the recoverability checks.
pub fn run(input: &AnalysisInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for d in input.descriptors() {
        let name = d.name().as_str();

        // §V-E: a stateful component's init makes downcalls; rebooting it
        // without a boot checkpoint would disturb the components it calls.
        if d.is_stateful() && d.is_rebootable() && !d.uses_checkpoint_init() {
            out.push(
                Diagnostic::error(
                    codes::E201_STATEFUL_WITHOUT_CHECKPOINT,
                    Some(name.to_owned()),
                    format!("stateful `{name}` is rebootable but does not use checkpoint-based initialization; re-running init during recovery would downcall into running components"),
                )
                .with_suggestion("add .checkpoint_init() to the descriptor"),
            );
        }

        // §V-B: every function of a stateful component must either be
        // logged (so replay re-executes it) or be declared replay-safe
        // (read-only, host-owned effect, or rebuilt from runtime-data
        // extraction).
        if d.is_stateful() {
            let mut uncovered: Vec<&str> = d
                .functions()
                .iter()
                .filter(|f| !f.decl.logged && !f.decl.replay_safe)
                .map(|f| f.decl.name)
                .collect();
            uncovered.sort_unstable();
            if !uncovered.is_empty() {
                out.push(
                    Diagnostic::error(
                        codes::E202_UNLOGGED_STATEFUL_EXPORT,
                        Some(name.to_owned()),
                        format!(
                            "stateful `{name}` exports {} without logging them or declaring them replay-safe; restoration after a reboot would miss their effects",
                            uncovered
                                .iter()
                                .map(|f| format!("`{f}`"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                    .with_suggestion("mark the functions `logged` in the interface table or, if they do not change component state, `replay_safe`"),
                );
            }
        }

        // A hang-exempt component's hangs go undetected; only crash/fault
        // detection triggers its recovery (LWIP accepts this, §VI).
        if d.is_hang_exempt() && d.is_rebootable() {
            out.push(
                Diagnostic::warning(
                    codes::W204_HANG_EXEMPT_REBOOTABLE,
                    Some(name.to_owned()),
                    format!("`{name}` is exempt from hang detection; a hang inside it will never trigger its reboot"),
                )
                .with_suggestion("confirm the component legitimately blocks on external events; otherwise remove .hang_exempt()"),
            );
        }

        // Stateful, rebootable, and declares no interface: nothing tells us
        // how its state would be restored.
        if d.is_stateful() && d.is_rebootable() && d.functions().is_empty() {
            out.push(
                Diagnostic::warning(
                    codes::W205_STATEFUL_LOGS_NOTHING,
                    Some(name.to_owned()),
                    format!("stateful `{name}` logs no functions and declares no interface; the analyzer cannot verify its restoration"),
                )
                .with_suggestion("declare the interface with .interface(...) so replay coverage can be checked"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_mem::ArenaLayout;
    use vampos_ukernel::{ComponentDescriptor, FnDecl};

    fn desc(name: &'static str) -> ComponentDescriptor {
        ComponentDescriptor::new(name, ArenaLayout::small())
    }

    const OPEN: FnDecl = FnDecl::new("open").logged().opens();

    #[test]
    fn covered_stateful_component_is_clean() {
        let input = AnalysisInput::new("t").component(
            desc("fs").stateful().checkpoint_init().interface(&[
                OPEN,
                FnDecl::new("close").logged().closes(),
                FnDecl::new("fstat").replay_safe(),
            ]),
        );
        assert!(run(&input).is_empty());
    }

    #[test]
    fn missing_checkpoint_is_an_error() {
        let input = AnalysisInput::new("t").component(desc("fs").stateful().interface(&[OPEN]));
        let out = run(&input);
        assert!(out
            .iter()
            .any(|d| d.code == codes::E201_STATEFUL_WITHOUT_CHECKPOINT));
    }

    #[test]
    fn unrebootable_stateful_component_needs_no_checkpoint() {
        let input =
            AnalysisInput::new("t").component(desc("drv").stateful().unrebootable().host_shared());
        assert!(!run(&input)
            .iter()
            .any(|d| d.code == codes::E201_STATEFUL_WITHOUT_CHECKPOINT));
    }

    #[test]
    fn uncovered_export_is_an_error() {
        let input = AnalysisInput::new("t").component(
            desc("fs")
                .stateful()
                .checkpoint_init()
                .interface(&[OPEN, FnDecl::new("truncate")]),
        );
        let out = run(&input);
        let e202: Vec<_> = out
            .iter()
            .filter(|d| d.code == codes::E202_UNLOGGED_STATEFUL_EXPORT)
            .collect();
        assert_eq!(e202.len(), 1);
        assert!(e202[0].message.contains("`truncate`"));
        assert!(!e202[0].message.contains("`open`"));
    }

    #[test]
    fn hang_exemption_warns() {
        let input = AnalysisInput::new("t").component(desc("net").hang_exempt());
        assert!(run(&input)
            .iter()
            .any(|d| d.code == codes::W204_HANG_EXEMPT_REBOOTABLE));
    }

    #[test]
    fn silent_stateful_component_warns() {
        let input = AnalysisInput::new("t").component(desc("blob").stateful().checkpoint_init());
        assert!(run(&input)
            .iter()
            .any(|d| d.code == codes::W205_STATEFUL_LOGS_NOTHING));
    }
}
