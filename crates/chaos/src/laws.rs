//! The laws every [`Family`] obeys, written once and instantiated per
//! family from each family module's tests (so a failure names the family).
//!
//! [`Lab`] is the test bench a family brings: a tiny sweep that passes,
//! the specs its JSON must round-trip, and the magnitudes its shrinker
//! moves.

use std::fmt::Debug;

use vampos_cluster::FaultClass;
use vampos_core::FaultKind;
use vampos_mesh::MeshFaultClass;
use vampos_sim::{derive_seed, Nanos};
use vampos_telemetry::prometheus;
use vampos_workloads::Disruption;

use crate::family::{parse_spec, plant_battery, sweep, Family};
use crate::json::parse_value;
use crate::shrink::{shrink, Kinds};
use crate::spec::{inject, CampaignSpec, WorkloadKind};
use crate::{
    generate_fleet_spec, generate_spec, ComponentFamily, FleetCampaignSpec, FleetFamily,
    MeshFamily, RecursiveFamily,
};

/// Instantiates laws for one family: `laws!(MeshFamily: law_a, law_b)`
/// expands to one `#[test]` per law, named after it.
macro_rules! laws {
    ($family:ty: $($law:ident),* $(,)?) => {
        $(#[test]
        fn $law() {
            $crate::laws::$law::<$family>();
        })*
    };
}
pub(crate) use laws;

pub(crate) trait Lab: Family<Spec: PartialEq + Debug> {
    /// The family value of the tiny sweep and the plant battery.
    fn family() -> Self;
    /// Campaigns (per workload or class) of the tiny sweep.
    const CAMPAIGNS: u64;
    /// Specs whose JSON must round-trip: every class, plant and variant.
    fn samples() -> Vec<Self::Spec>;
    /// A spec built to fail: the family's first named plant.
    fn planted() -> Self::Spec {
        let plant = Self::family().plants().remove(0);
        (plant.spec)(derive_seed(9, 0), 0)
    }
    /// The magnitude the synthetic bug of the shrink law watches, and
    /// whether every other magnitude has reached its floor.
    fn gauge(spec: &Self::Spec) -> (u64, bool);
    /// The bug reproduces while the watched magnitude is at least this.
    const THRESHOLD: u64;
}

/// Reads family `F`'s spec out of a reproducer's text.
pub(crate) fn read<F: Family>(text: &str) -> Result<F::Spec, String> {
    parse_spec::<F>(&parse_value(text)?)
}

/// One spec per class (or workload) of `family` plus one per plant.
fn clean_and_planted<F: Family>(family: &F) -> Vec<F::Spec> {
    let mut specs = family.specs(9, 1);
    for (i, plant) in (0..).zip(family.plants()) {
        specs.push((plant.spec)(derive_seed(9, i), i));
    }
    specs
}

/// A component spec with every event kind and a seed `f64` cannot hold.
pub(crate) fn sample_campaign() -> CampaignSpec {
    let at = |i: u64| Nanos::from_nanos(500_000 * i);
    let flip = FaultKind::BitFlip {
        offset: 4096,
        bit: 7,
    };
    let events = vec![
        Disruption::component_reboot(at(1), "9pfs"),
        inject(at(2), "vfs", 3, flip),
        inject(at(3), "lwip", 0, FaultKind::LeakPerOp { bytes: 512 }),
        inject(at(4), "vfs", 1, FaultKind::Panic),
        inject(at(5), "9pfs", 2, FaultKind::Hang),
        Disruption::full_reboot(at(6)),
        Disruption::fail(at(7), "timer"),
        Disruption::rejuvenate_all(at(8)),
    ];
    CampaignSpec {
        workload: WorkloadKind::Kv,
        seed: u64::MAX - 3,
        campaign: 17,
        ops: 48,
        tail: 16,
        aof: true,
        plant: false,
        events,
    }
}

impl Lab for ComponentFamily {
    fn family() -> Self {
        ComponentFamily {
            workloads: vec![WorkloadKind::Kv, WorkloadKind::Echo],
            budget: 3,
            plant: false,
        }
    }
    const CAMPAIGNS: u64 = 3;

    fn samples() -> Vec<CampaignSpec> {
        let variant = |workload, plant| CampaignSpec {
            workload,
            plant,
            ..sample_campaign()
        };
        let both = |workload| [variant(workload, false), variant(workload, true)];
        WorkloadKind::ALL.into_iter().flat_map(both).collect()
    }

    /// No named plants: `plant` is an argument of the generator.
    fn planted() -> CampaignSpec {
        generate_spec(WorkloadKind::Kv, derive_seed(9, 0), 0, 3, true)
    }

    fn gauge(spec: &CampaignSpec) -> (u64, bool) {
        (spec.ops as u64, spec.events.is_empty())
    }
    const THRESHOLD: u64 = 8;
}

impl Lab for FleetFamily {
    fn family() -> Self {
        FleetFamily {
            instances: 3,
            budget: 2,
        }
    }
    const CAMPAIGNS: u64 = 2;

    fn samples() -> Vec<FleetCampaignSpec> {
        let mut specs = clean_and_planted(&Self::family());
        specs.push(generate_fleet_spec(9, 0, 1, 0));
        specs
    }

    fn gauge(spec: &FleetCampaignSpec) -> (u64, bool) {
        let rest = spec.clients == 2 && spec.faults.is_empty();
        (spec.requests_per_client as u64, rest)
    }
    const THRESHOLD: u64 = 8;
}

impl Lab for RecursiveFamily {
    fn family() -> Self {
        RecursiveFamily {
            classes: vec![FaultClass::NinepCorrupt, FaultClass::DetectorFalsePositive],
        }
    }
    const CAMPAIGNS: u64 = 1;

    fn samples() -> Vec<Self::Spec> {
        clean_and_planted(&RecursiveFamily {
            classes: FaultClass::ALL.to_vec(),
        })
    }

    fn gauge(spec: &Self::Spec) -> (u64, bool) {
        let rest = spec.at_ns == 1 && spec.requests_per_client == 4 && spec.silent_count == 1;
        (spec.glitch_count.into(), rest)
    }
    const THRESHOLD: u64 = 4;
}

impl Lab for MeshFamily {
    fn family() -> Self {
        MeshFamily {
            classes: vec![MeshFaultClass::KvRejuvenate, MeshFaultClass::AuthRejuvenate],
        }
    }
    const CAMPAIGNS: u64 = 1;

    fn samples() -> Vec<Self::Spec> {
        clean_and_planted(&MeshFamily {
            classes: MeshFaultClass::ALL.to_vec(),
        })
    }

    fn gauge(spec: &Self::Spec) -> (u64, bool) {
        let rest = spec.at_ns == 1 && spec.clients == 2;
        (spec.requests_per_client as u64, rest)
    }
    const THRESHOLD: u64 = 8;
}

/// Spec → JSON → spec is the identity, and serialization is stable.
pub(crate) fn every_class_and_plant_round_trips_through_json<F: Lab>() {
    for spec in F::samples() {
        let text = F::write_spec(&spec);
        assert_eq!(read::<F>(&text).unwrap(), spec, "{text}");
        assert_eq!(text, F::write_spec(&spec), "serialization is stable");
    }
}

/// Every other family's documents are refused by name.
pub(crate) fn foreign_family_documents_are_rejected<F: Lab>() {
    fn documents<G: Lab>() -> (&'static str, Vec<String>) {
        (G::NAME, G::samples().iter().map(G::write_spec).collect())
    }
    let families = [
        documents::<ComponentFamily>(),
        documents::<FleetFamily>(),
        documents::<RecursiveFamily>(),
        documents::<MeshFamily>(),
    ];
    for text in families
        .iter()
        .filter(|f| f.0 != F::NAME)
        .flat_map(|f| &f.1)
    {
        let err = read::<F>(text).unwrap_err();
        assert!(err.contains("not a ") && err.contains(F::NAME), "{err}");
    }
}

/// The traced re-run is a pure function of the spec — two calls agree on
/// tails, trace and rendered metrics — and a planted run leaves a tail to
/// read, which is why a reproducer stores none of it.
pub(crate) fn traced_reruns_agree_and_a_plant_leaves_tails<F: Lab>() {
    let spec = F::planted();
    let run = || {
        let mut traced = F::traced(&spec).expect("a planted campaign runs");
        let metrics = prometheus::render(&mut traced.metrics);
        (traced.tails(), traced.trace, metrics)
    };
    let first = run();
    assert_ne!(first.0, (Vec::new(), Vec::new()), "no tail: {spec:?}");
    assert_eq!(run(), first, "same spec, same forensics");
}

/// The tiny sweep passes, renders the same twice in a row, and renders the
/// same on worker threads as on the calling thread.
pub(crate) fn a_small_sweep_passes_and_reruns_identically<F: Lab>() {
    let run = |sequential| sweep(&F::family(), 42, F::CAMPAIGNS, sequential).expect("sweep");
    let first = run(false);
    assert!(!first.outcomes.is_empty());
    let text = first.render();
    assert_eq!(first.failures().count(), 0, "{text}");
    assert_eq!(run(false).render(), text, "same seed, same report");
    assert_eq!(run(true).render(), text, "parallel vs sequential");
}

/// Every named plant flips its oracle.
pub(crate) fn the_plant_battery_reports_every_plant_awake<F: Lab>() {
    let family = F::family();
    let (text, awake) = plant_battery(&family, 42).expect("plants");
    assert!(awake, "{text}");
    assert_eq!(text.lines().count(), family.plants().len() + 1, "{text}");
}

fn first_spec<F: Lab>() -> F::Spec {
    F::samples().into_iter().next().expect("a lab has specs")
}

/// Nothing to reproduce: the spec comes back untouched at zero cost.
pub(crate) fn a_passing_spec_is_left_alone<F: Lab>() {
    let spec = first_spec::<F>();
    let (out, runs) = shrink::<F>(&spec, &Kinds::new(), 100, |_| panic!("nothing to run"));
    assert_eq!(runs, 0);
    assert_eq!(out, spec);
}

/// A bug that reproduces while one magnitude stays at or above a
/// threshold — and turns into a *different* violation below it — shrinks
/// to the last reproducing value; every other magnitude reaches its floor.
pub(crate) fn shrinking_preserves_the_violation_kind<F: Lab>() {
    let spec = first_spec::<F>();
    assert!(F::gauge(&spec).0 >= 2 * F::THRESHOLD, "nothing to shrink");
    let (out, runs) = shrink::<F>(&spec, &Kinds::from(["the-bug"]), 200, |candidate| {
        if F::gauge(candidate).0 >= F::THRESHOLD {
            Kinds::from(["the-bug"])
        } else {
            Kinds::from(["another-bug"])
        }
    });
    assert!(runs <= 200);
    let (watched, rest_at_floor) = F::gauge(&out);
    // Halving stops at the last reproducing value.
    assert!(
        (F::THRESHOLD..2 * F::THRESHOLD).contains(&watched),
        "{out:?}"
    );
    assert!(rest_at_floor, "{out:?}");
}

/// A bug that always reproduces costs exactly the budget, never more.
pub(crate) fn respects_the_run_budget<F: Lab>() {
    let mut calls = 0;
    let (_, runs) = shrink::<F>(&first_spec::<F>(), &Kinds::from(["the-bug"]), 3, |_| {
        calls += 1;
        Kinds::from(["the-bug"])
    });
    assert_eq!((runs, calls), (3, 3));
}
