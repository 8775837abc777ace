//! End-to-end tests of the chaos harness: sweep determinism across worker
//! fan-out, the plant → shrink → JSON → replay round trip the CLI exposes,
//! and the reproducers the pre-`Family` code wrote (`tests/fixtures/`,
//! recorded at commit c5aa6c3), which the one generic path must regenerate
//! byte for byte.

use vampos_chaos::json::parse_value;
use vampos_chaos::{
    parse_spec, run_outcome, sweep, CampaignSpec, ComponentFamily, Family, MeshFamily, OracleKind,
    RecursiveFamily, SweepReport, WorkloadKind,
};
use vampos_sim::derive_seed;
use vampos_telemetry::validate_exposition;

fn component_sweep(
    seed: u64,
    campaigns: u64,
    family: ComponentFamily,
    sequential: bool,
) -> SweepReport<ComponentFamily> {
    sweep(&family, seed, campaigns, sequential).expect("component campaigns cannot error")
}

fn planted_kv() -> ComponentFamily {
    ComponentFamily {
        plant: true,
        ..ComponentFamily::default()
    }
}

#[test]
fn seeded_sweep_passes_and_is_deterministic_across_runs_and_fanout() {
    let all = || ComponentFamily {
        workloads: WorkloadKind::ALL.to_vec(),
        ..ComponentFamily::default()
    };
    let first = component_sweep(42, 4, all(), false);
    assert_eq!(
        first.failures().count(),
        0,
        "clean sweep must pass every oracle:\n{}",
        first.render()
    );
    // Byte-identical reports: same campaigns, same digests, same order —
    // whether campaigns ran on worker threads or inline.
    assert_eq!(
        first.render(),
        component_sweep(42, 4, all(), false).render()
    );
    assert_eq!(first.render(), component_sweep(42, 4, all(), true).render());
}

/// The isolation oracle reads exact counters, so a run is never too long to
/// vouch for: this one makes more hops than the 65,536-event ring the
/// oracle used to read held, and reported as dropped evidence.
#[test]
fn a_long_fault_free_run_passes_every_oracle() {
    let spec = CampaignSpec {
        workload: WorkloadKind::Kv,
        seed: 1,
        campaign: 0,
        ops: 6_000,
        tail: 16,
        aof: false,
        plant: false,
        events: Vec::new(),
    };
    let faulted = vampos_chaos::drive::run(&spec, true);
    let twin = vampos_chaos::drive::run(&spec, false);
    let hops: u64 = faulted.hops_by_target.values().sum();
    assert!(hops >= 66_000, "only {hops} hops");
    assert_eq!(faulted.hops_by_target, twin.hops_by_target);
    assert_eq!(vampos_chaos::oracle::check(&spec, &faulted, &twin), vec![]);
}

#[test]
fn different_seeds_generate_different_campaigns() {
    let render = |seed| component_sweep(seed, 2, ComponentFamily::default(), false).render();
    assert_ne!(render(1), render(2));
}

#[test]
fn planted_divergence_shrinks_to_a_reproducer_that_replays() {
    let report = component_sweep(42, 1, planted_kv(), false);
    let failure = report
        .failures()
        .next()
        .expect("a planted campaign must fail");
    assert!(failure
        .report
        .iter()
        .any(|v| v.kind == OracleKind::StateEquivalence));

    // The reproducer is the minimized spec, which round-trips through
    // JSON losslessly; its traced re-run has a span tail to show...
    let json = failure
        .reproducer_json()
        .expect("failures carry a reproducer");
    let doc = parse_value(&json).expect("reproducer parses");
    let spec = parse_spec::<ComponentFamily>(&doc).expect("reproducer reads back");
    assert_eq!(Some(&spec), failure.shrunk.as_ref());
    assert_eq!(ComponentFamily::write_spec(&spec), json);
    let traced = ComponentFamily::traced(&spec).expect("component campaigns cannot error");
    assert!(!traced.tails().0.is_empty(), "a failing run leaves a tail");

    // ...and still reproduces the planted divergence when replayed, the
    // exact path `vampos-chaos --replay` takes.
    let replayed = ComponentFamily::execute(&spec).expect("component campaigns cannot error");
    assert!(
        replayed
            .iter()
            .any(|v| v.kind == OracleKind::StateEquivalence),
        "replay lost the violation: {replayed:?}"
    );
}

/// The telemetry export the CLI performs: re-run one spec traced, render
/// both exporters.
fn export(spec: &CampaignSpec) -> (String, String) {
    let mut traced = ComponentFamily::traced(spec).expect("component campaigns cannot error");
    let exposition = vampos_telemetry::prometheus::render(&mut traced.metrics);
    (traced.trace, exposition)
}

#[test]
fn telemetry_exports_are_byte_identical_across_sequential_and_parallel_sweeps() {
    let parallel = component_sweep(42, 2, planted_kv(), false);
    let sequential = component_sweep(42, 2, planted_kv(), true);

    // Reproducers are identical whether campaigns ran on worker threads
    // or inline.
    assert_eq!(parallel.outcomes.len(), sequential.outcomes.len());
    for (p, s) in parallel.outcomes.iter().zip(&sequential.outcomes) {
        assert_eq!(p.reproducer_json(), s.reproducer_json());
    }

    // The exported trace and exposition for the same shrunk spec are
    // byte-identical across both sweeps' reproducers and across repeated
    // exports, and the exposition passes the format check.
    let first_shrunk = |report: &SweepReport<ComponentFamily>| {
        let failure = report.failures().next().expect("planted sweeps fail");
        failure.shrunk.clone().expect("failures shrink")
    };
    let (spec_p, spec_s) = (first_shrunk(&parallel), first_shrunk(&sequential));
    assert_eq!(spec_p, spec_s);
    let (trace_a, prom_a) = export(&spec_p);
    let (trace_b, prom_b) = export(&spec_s);
    assert_eq!(trace_a, trace_b);
    assert_eq!(prom_a, prom_b);
    validate_exposition(&prom_a).expect("exposition format");
    assert!(trace_a.starts_with("{\"traceEvents\":["));
}

fn fixture(path: &str) -> String {
    let path = format!("{}/tests/fixtures/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs every plant of the battery at seed 42 to a full outcome and
/// compares reproducer and summary line with what `run_*_outcome` produced
/// before the harness was made generic. No recursive or mesh campaign
/// fails naturally, so this is the one place their shrink → reproducer
/// path (candidate order, run counts, field order) is pinned. The
/// reproducers are that recording minus the span windows it embedded: a
/// reproducer is the shrunk spec and nothing else.
fn planted_outcomes_match_their_fixtures<F: Family>(family: &F) {
    for (i, plant) in family.plants().iter().enumerate() {
        let spec = (plant.spec)(derive_seed(42, i as u64), i as u64);
        let outcome = run_outcome::<F>(spec).expect("planted campaign runs");
        let stem = format!("plants/{}-{}", F::NAME, plant.name);
        let reproducer = outcome.reproducer_json().expect("plants fail");
        assert_eq!(reproducer, fixture(&format!("{stem}.json")), "{stem}.json");
        let shrunk = outcome.shrunk.as_ref().expect("failures shrink");
        assert_eq!(reproducer, F::write_spec(shrunk), "{stem}: spec only");
        assert_eq!(
            F::summary_line(&outcome) + "\n",
            fixture(&format!("{stem}.summary")),
            "{stem}.summary"
        );
    }
}

#[test]
fn planted_recursive_outcomes_regenerate_the_recorded_reproducers() {
    planted_outcomes_match_their_fixtures(&RecursiveFamily { classes: vec![] });
}

#[test]
fn planted_mesh_outcomes_regenerate_the_recorded_reproducers() {
    planted_outcomes_match_their_fixtures(&MeshFamily { classes: vec![] });
}
