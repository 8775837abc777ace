//! Property: a [`Schedule`] fires in a total order that does not depend on
//! how the caller assembled the disruption vector.
//!
//! `Schedule::new` sorts by firing time with a deterministic tiebreak on the
//! action itself, so two schedules holding the same disruptions — in any
//! input order — fire identically. Chaos-campaign replay depends on this:
//! a reproducer file must replay the exact run that produced it even though
//! the generator and the JSON parser assemble the vector differently.
//!
//! Firing walks that order with a cursor; the tests at the end pin what the
//! cursor must keep: the unfired tail, and a failed disruption consumed
//! rather than retried.

use proptest::collection::vec;
use proptest::prelude::*;
use vampos_apps::{App, Echo};
use vampos_core::{ComponentSet, InjectedFault, Mode, System};
use vampos_sim::{Nanos, SimRng};
use vampos_workloads::{Disruption, Schedule};

const COMPONENTS: [&str; 4] = ["vfs", "9pfs", "lwip", "user"];

/// One generatable disruption. Firing times are drawn from a tiny window so
/// same-timestamp collisions — the case the tiebreak exists for — are the
/// norm, not the exception.
fn disruption() -> impl Strategy<Value = Disruption> {
    (0u64..4, 0u64..5, 0usize..COMPONENTS.len()).prop_map(|(at, kind, comp)| {
        let at = Nanos::from_millis(at);
        let name = COMPONENTS[comp];
        match kind {
            0 => Disruption::component_reboot(at, name),
            1 => Disruption::full_reboot(at),
            2 => Disruption::inject(at, InjectedFault::panic_next(name)),
            3 => Disruption::fail(at, name),
            _ => Disruption::rejuvenate_all(at),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn firing_order_is_invariant_under_input_permutation(
        items in vec(disruption(), 0..12),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let reference = Schedule::new(items.clone());

        // Times must be nondecreasing: the tiebreak never reorders across
        // distinct firing times.
        let times: Vec<Nanos> = reference.items().iter().map(|d| d.at).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));

        // The vendored proptest has no prop_shuffle, so permute manually
        // with a deterministic RNG — several permutations per case.
        let mut rng = SimRng::seed_from(shuffle_seed);
        for _ in 0..4 {
            let mut permuted = items.clone();
            rng.shuffle(&mut permuted);
            let schedule = Schedule::new(permuted);
            prop_assert_eq!(schedule.items(), reference.items());
        }

        // Rebuilding from the already-sorted order is a fixpoint.
        let rebuilt = Schedule::new(reference.items().to_vec());
        prop_assert_eq!(rebuilt.items(), reference.items());
    }
}

/// An echo server on a system holding every component the generator names.
fn booted() -> (System, Echo) {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::nginx())
        .build()
        .unwrap();
    let mut app = Echo::new();
    app.boot(&mut sys).unwrap();
    (sys, app)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_partial_firing_leaves_the_reference_tail(
        items in vec(disruption(), 0..12),
        cut in 0u64..5,
    ) {
        let reference = Schedule::new(items.clone());
        let now = Nanos::from_millis(cut);
        let due = reference.items().iter().take_while(|d| d.at <= now).count();

        let (mut sys, mut app) = booted();
        let mut schedule = Schedule::new(items);
        prop_assert_eq!(schedule.fire_due(now, &mut sys, &mut app).unwrap(), due);
        prop_assert_eq!(schedule.items(), &reference.items()[due..]);
        prop_assert_eq!(schedule.pending(), schedule.items().len());
    }
}

#[test]
fn a_failed_disruption_is_consumed_not_retried() {
    let (mut sys, mut app) = booted();
    let at = Nanos::from_millis(1);
    // Same instant: the reboot ranks first and fails (no such component).
    let mut schedule = Schedule::new(vec![
        Disruption::fail(at, "user"),
        Disruption::component_reboot(at, "nonexistent"),
    ]);
    assert!(schedule.fire_due(at, &mut sys, &mut app).is_err());
    assert_eq!(schedule.pending(), 1);
    assert_eq!(schedule.items(), [Disruption::fail(at, "user")]);
    assert_eq!(sys.stats().failures, 0, "the failure fired before its turn");

    assert_eq!(schedule.fire_due(at, &mut sys, &mut app).unwrap(), 1);
    assert_eq!(schedule.pending(), 0);
    assert_eq!(sys.stats().failures, 1);
    assert_eq!(schedule.fire_due(at, &mut sys, &mut app).unwrap(), 0);
}

#[test]
fn a_disruption_is_at_most_32_bytes() {
    // A load run's schedule is built before its first simulated event, so
    // its size is setup work: `single_recovery` builds two 10,000-firing
    // schedules per rep, and at 96 bytes a disruption they cost more host
    // time than the four boots beside them.
    assert!(std::mem::size_of::<Disruption>() <= 32);
}
