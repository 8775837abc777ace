//! End-to-end analyzer tests: one deliberately broken configuration per
//! diagnostic code, plus property tests of the cycle detector — random
//! forward-edge DAGs must never be reported cyclic, and an injected
//! back-edge must always be.

use proptest::prelude::*;

use vampos_analyze::{analyze, codes, AnalysisInput, Severity};
use vampos_mem::ArenaLayout;
use vampos_mpk::{minimal_component_pkru, AccessKind};
use vampos_ukernel::{ComponentDescriptor, FnDecl};

fn desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::new(name.to_owned(), ArenaLayout::small())
}

const OPEN: FnDecl = FnDecl::new("open").logged().opens();

// ---------- pass family 1: dependency graph ----------

#[test]
fn e101_cycle_is_rejected() {
    let input = AnalysisInput::new("broken").components([
        desc("a").depends_on(&["b"]),
        desc("b").depends_on(&["c"]),
        desc("c").depends_on(&["a"]),
    ]);
    let report = analyze(&input);
    assert!(!report.is_clean());
    let finding = report
        .with_code(codes::E101_DEPENDENCY_CYCLE)
        .next()
        .expect("cycle must be reported");
    assert_eq!(finding.severity, Severity::Error);
    // The message names the full cycle path.
    for name in ["a", "b", "c"] {
        assert!(finding.message.contains(name), "{}", finding.message);
    }
}

#[test]
fn w102_dangling_dependency_is_a_warning_not_an_error() {
    let input = AnalysisInput::new("broken").component(desc("a").depends_on(&["ghost"]));
    let report = analyze(&input);
    assert!(report.has(codes::W102_DANGLING_DEPENDENCY));
    assert!(report.is_clean(), "dangling deps must not block boot");
}

#[test]
fn w103_unrebootable_dependency_of_rebootable_component_warns() {
    let input = AnalysisInput::new("broken").components([
        desc("fs").depends_on(&["drv"]),
        desc("drv").unrebootable().host_shared(),
    ]);
    let report = analyze(&input);
    assert!(report.has(codes::W103_UNREBOOTABLE_ON_RECOVERY_PATH));
    assert!(report.is_clean());
}

#[test]
fn e104_duplicate_component_is_rejected() {
    let input = AnalysisInput::new("broken").components([desc("a"), desc("a")]);
    assert!(analyze(&input).has(codes::E104_DUPLICATE_COMPONENT));
}

// ---------- pass family 2: recoverability ----------

#[test]
fn e201_stateful_component_without_checkpoint_is_rejected() {
    let input = AnalysisInput::new("broken").component(desc("fs").stateful().interface(&[OPEN]));
    let report = analyze(&input);
    assert!(report.has(codes::E201_STATEFUL_WITHOUT_CHECKPOINT));
    assert!(!report.is_clean());
}

#[test]
fn e202_unlogged_stateful_export_is_rejected() {
    // `truncate` mutates component state but is neither logged nor declared
    // replay-safe: a reboot would lose its effect.
    let input = AnalysisInput::new("broken").component(
        desc("fs")
            .stateful()
            .checkpoint_init()
            .interface(&[OPEN, FnDecl::new("truncate")]),
    );
    let report = analyze(&input);
    let finding = report
        .with_code(codes::E202_UNLOGGED_STATEFUL_EXPORT)
        .next()
        .expect("uncovered export must be reported");
    assert!(finding.message.contains("truncate"));
    assert!(!report.is_clean());
}

#[test]
fn e202_covers_every_function_of_a_stateful_component() {
    // No export list: every declared function is part of the interface,
    // so each one that is neither logged nor replay-safe is reported, and
    // only those.
    mod fs {
        vampos_ukernel::interface! {
            OPEN = "open": logged, opens;
            FSTAT = "fstat": replay_safe;
            TRUNCATE = "truncate";
            CHMOD = "chmod";
        }
    }
    let stateful = desc("fs").stateful().checkpoint_init();
    let report =
        analyze(&AnalysisInput::new("broken").component(stateful.interface(fs::FUNCTIONS)));
    let findings: Vec<_> = report
        .with_code(codes::E202_UNLOGGED_STATEFUL_EXPORT)
        .collect();
    assert_eq!(findings.len(), 1);
    assert!(findings[0]
        .message
        .contains("exports `chmod`, `truncate` without"));
    // A stateless component's functions need neither flag.
    let stateless = desc("fs").interface(fs::FUNCTIONS);
    assert!(analyze(&AnalysisInput::new("t").component(stateless)).is_clean());
}

#[test]
fn w204_hang_exempt_component_warns() {
    let input = AnalysisInput::new("t").component(desc("net").hang_exempt());
    let report = analyze(&input);
    assert!(report.has(codes::W204_HANG_EXEMPT_REBOOTABLE));
    assert!(report.is_clean());
}

#[test]
fn w205_silent_stateful_component_warns() {
    let input = AnalysisInput::new("t").component(desc("blob").stateful().checkpoint_init());
    let report = analyze(&input);
    assert!(report.has(codes::W205_STATEFUL_LOGS_NOTHING));
    assert!(report.is_clean());
}

// ---------- pass family 3: protection keys ----------

#[test]
fn e301_over_wide_pkru_grant_is_rejected() {
    let input = AnalysisInput::new("broken").components([desc("a"), desc("b")]);
    let plan = input.key_plan().unwrap();
    let minimal = minimal_component_pkru(plan.key_of("a").unwrap(), plan.msg_domain);
    // Grant `a` write access to `b`'s domain on top of its minimal policy.
    let wide = minimal.allowing(plan.key_of("b").unwrap(), AccessKind::Write);
    let report = analyze(&input.policy("a", wide));
    let finding = report
        .with_code(codes::E301_PKRU_OVER_WIDE)
        .next()
        .expect("over-wide grant must be reported");
    assert_eq!(finding.component.as_deref(), Some("a"));
    assert!(!report.is_clean());
}

#[test]
fn e301_minimal_policies_pass() {
    let mut input = AnalysisInput::new("ok").components([desc("a"), desc("b")]);
    let plan = input.key_plan().unwrap();
    for name in ["a", "b"] {
        let minimal = minimal_component_pkru(plan.key_of(name).unwrap(), plan.msg_domain);
        input = input.policy(name, minimal);
    }
    assert!(analyze(&input).is_clean());
}

#[test]
fn e302_key_exhaustion_without_virtualization_is_rejected() {
    // 14 components + app + message domain + scheduler = 17 domains > 16.
    let names: Vec<String> = (0..14).map(|i| format!("c{i:02}")).collect();
    let input = AnalysisInput::new("broken").components(names.iter().map(|n| desc(n)));
    let report = analyze(&input);
    assert!(report.has(codes::E302_KEY_EXHAUSTION));
    assert!(!report.is_clean());

    let virtualized = AnalysisInput::new("ok")
        .components(names.iter().map(|n| desc(n)))
        .virtualized(true);
    assert!(analyze(&virtualized).is_clean());
}

#[test]
fn w303_full_key_budget_warns() {
    let names: Vec<String> = (0..13).map(|i| format!("c{i:02}")).collect();
    let input = AnalysisInput::new("t").components(names.iter().map(|n| desc(n)));
    let report = analyze(&input);
    assert!(report.has(codes::W303_KEY_PRESSURE));
    assert!(report.is_clean());
}

// ---------- pass family 4: host-shared state ----------

#[test]
fn e401_host_shared_rebootable_component_is_rejected() {
    let input = AnalysisInput::new("broken").component(desc("drv").host_shared());
    let report = analyze(&input);
    let finding = report
        .with_code(codes::E401_HOST_SHARED_REBOOTABLE)
        .next()
        .expect("host-shared rebootable component must be reported");
    assert_eq!(finding.component.as_deref(), Some("drv"));
    assert!(!report.is_clean());

    // Either remedy clears the finding.
    let unrebootable = AnalysisInput::new("ok").component(desc("drv").host_shared().unrebootable());
    assert!(analyze(&unrebootable).is_clean());
    let handshake = AnalysisInput::new("ok").component(desc("drv").host_shared().host_handshake());
    assert!(analyze(&handshake).is_clean());
}

#[test]
fn w402_unexplained_unrebootable_component_warns() {
    let input = AnalysisInput::new("t").component(desc("blob").unrebootable());
    let report = analyze(&input);
    assert!(report.has(codes::W402_UNEXPLAINED_UNREBOOTABLE));
    assert!(report.is_clean());
}

// ---------- report plumbing ----------

#[test]
fn json_report_carries_every_finding() {
    let input = AnalysisInput::new("broken")
        .components([desc("a").depends_on(&["a"]), desc("drv").host_shared()]);
    let report = analyze(&input);
    let json = report.to_json();
    assert!(json.contains("VAMP-E101"));
    assert!(json.contains("VAMP-E401"));
    assert!(json.contains(&format!("\"errors\":{}", report.error_count())));
}

// ---------- cycle-detector property tests ----------

/// Builds descriptors for `n` components with the given directed edges.
fn graph_input(n: usize, edges: &[(usize, usize)]) -> AnalysisInput {
    let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let mut descriptors = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let deps: Vec<&str> = edges
            .iter()
            .filter(|&&(from, _)| from == i)
            .map(|&(_, to)| names[to].as_str())
            .collect();
        descriptors.push(desc(name).depends_on(&deps));
    }
    AnalysisInput::new("prop").components(descriptors)
}

proptest! {
    /// Orienting every random edge from the lower to the higher index makes
    /// the graph a DAG by construction; the detector must never report a
    /// cycle on it (no false positives).
    #[test]
    fn random_forward_dags_are_never_reported_cyclic(
        n in 2usize..10,
        raw in proptest::collection::vec((0usize..10, 0usize..10), 0..30),
    ) {
        let edges: Vec<(usize, usize)> = raw
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let report = analyze(&graph_input(n, &edges));
        prop_assert!(
            !report.has(codes::E101_DEPENDENCY_CYCLE),
            "false cycle on a forward-edge DAG: {}",
            report.render()
        );
    }

    /// A dependency chain `n0 -> n1 -> ... -> n(k)` plus one back-edge from
    /// a later node to an earlier one always contains a cycle; the detector
    /// must always find it (no false negatives).
    #[test]
    fn injected_back_edges_are_always_detected(
        n in 2usize..10,
        from_raw in 1usize..10,
        to_raw in 0usize..10,
    ) {
        let from = 1 + from_raw % (n - 1).max(1);
        let from = from.min(n - 1);
        let to = to_raw % (from + 1); // to <= from closes the chain into a loop
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((from, to));
        let report = analyze(&graph_input(n, &edges));
        prop_assert!(
            report.has(codes::E101_DEPENDENCY_CYCLE),
            "missed cycle with back-edge {from}->{to} over a {n}-node chain: {}",
            report.render()
        );
    }
}
