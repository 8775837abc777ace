//! Request-journey span graphs are well-formed trees.
//!
//! Every arrival the fleet balancer dispatches mints one journey: a root
//! span on the fleet hub's `journeys` track plus one `hop` child per
//! routing attempt, and a `serve` span on the serving instance's hub. These
//! properties hold the graph's shape — parentage, containment, hop
//! decomposition arithmetic, and the cross-hub journey-id linkage the
//! Perfetto flow events are derived from — over N ∈ {1, 4, 16}, all
//! policies, all maintenance plans, and random seeds.

use std::collections::BTreeMap;

use proptest::prelude::*;

use vampos_cluster::{Fleet, FleetConfig, FleetLoad, FleetPlan, Policy};
use vampos_sim::Nanos;
use vampos_telemetry::{AttrValue, SpanKind, SpanRecord};

fn config(instances: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        instances,
        seed,
        telemetry: true,
        ..FleetConfig::default()
    }
}

fn plan_for(kind: u8, instances: usize) -> FleetPlan {
    let start = Nanos::from_millis(5);
    let spacing = Nanos::from_millis(60);
    match kind % 4 {
        0 => FleetPlan::none(),
        1 => FleetPlan::rolling_rejuvenation(instances, start, spacing, Nanos::from_millis(2)),
        2 => FleetPlan::rolling_full_reboot(instances, start, spacing),
        _ => FleetPlan::simultaneous_rejuvenation(instances, start + spacing),
    }
}

fn policy_for(kind: u8) -> Policy {
    match kind % 3 {
        0 => Policy::RoundRobin,
        1 => Policy::LeastOutstanding,
        _ => Policy::RecoveryAware,
    }
}

fn attr_value<'a>(span: &'a SpanRecord, key: &str) -> &'a AttrValue {
    span.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("span {} {:?} lacks attr {key}", span.id, span.name()))
}

/// The attribute as the exports render it.
fn attr(span: &SpanRecord, key: &str) -> String {
    attr_value(span, key).to_string()
}

fn attr_u64(span: &SpanRecord, key: &str) -> u64 {
    attr_value(span, key)
        .as_u64()
        .unwrap_or_else(|| panic!("attr {key} of span {} is not a number", span.id))
}

/// Runs one fleet configuration and asserts every journey invariant.
fn assert_journeys_well_formed(
    instances: usize,
    seed: u64,
    load: &FleetLoad,
    policy: Policy,
    plan_kind: u8,
) {
    let mut fleet = Fleet::new(config(instances, seed)).expect("fleet boot");
    let report = fleet
        .run(load, policy, plan_for(plan_kind, instances))
        .expect("run");
    let processes = fleet.span_processes().expect("telemetry enabled");
    let (fleet_label, fleet_spans) = processes.last().expect("fleet process");
    assert_eq!(fleet_label, "fleet", "fleet hub must export last");

    // Index the roots; journey ids must be unique.
    let mut roots: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
    let mut journey_ids: BTreeMap<String, u64> = BTreeMap::new();
    for s in fleet_spans {
        if s.kind() == SpanKind::Journey && s.name() == "journey" {
            assert_eq!(s.parent(), None, "journey roots must be parentless");
            assert!(s.start <= s.end, "root {} runs backwards", s.id);
            let jid = attr(s, "journey");
            assert!(
                journey_ids.insert(jid, s.id).is_none(),
                "duplicate journey id on root {}",
                s.id
            );
            roots.insert(s.id, s);
        }
    }
    assert_eq!(
        roots.len() as u64,
        report.issued,
        "one journey root per dispatched arrival"
    );

    // Hops: every one a child of a root, same journey id, contained in the
    // root's interval, with a decomposition that adds up.
    let mut hops_of: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in fleet_spans {
        if s.kind() != SpanKind::Journey || s.name() != "hop" {
            continue;
        }
        let parent = s.parent().expect("hop without a parent root");
        let root = roots
            .get(&parent)
            .unwrap_or_else(|| panic!("hop {} parented to non-root {parent}", s.id));
        assert_eq!(
            attr(s, "journey"),
            attr(root, "journey"),
            "hop {} crossed journeys",
            s.id
        );
        assert!(
            root.start <= s.start && s.start <= s.end && s.end <= root.end,
            "hop {} escapes its root's interval",
            s.id
        );
        let (wire, queue, stall, service) = (
            attr_u64(s, "wire_ns"),
            attr_u64(s, "queue_ns"),
            attr_u64(s, "stall_ns"),
            attr_u64(s, "service_ns"),
        );
        assert!(stall <= queue, "hop {} stalls longer than it queues", s.id);
        if attr(s, "served") == "true" {
            assert_eq!(
                s.end.saturating_sub(s.start).as_nanos(),
                wire + queue + service,
                "served hop {} decomposition does not cover its duration",
                s.id
            );
        } else {
            assert_eq!(
                (s.start, wire, queue, stall, service),
                (s.end, 0, 0, 0, 0),
                "failed hop {} must be zero-length with a zero decomposition",
                s.id
            );
        }
        hops_of.entry(parent).or_default().push(s);
    }

    for (root_id, root) in &roots {
        let hops = hops_of.remove(root_id).unwrap_or_default();
        assert_eq!(
            hops.len() as u64,
            attr_u64(root, "hops"),
            "root {root_id} hop count disagrees with its attr"
        );
        // push_span ids are monotonic, so the max-id child is the final
        // routing attempt: it decides the journey's end and outcome.
        if let Some(last) = hops.iter().max_by_key(|s| s.id) {
            assert_eq!(
                last.end, root.end,
                "journey {root_id} does not end with its final hop"
            );
            // `ok` is the client-level verdict: it also charges deadline
            // misses, so a served final hop may still fail the journey —
            // but a successful journey must end in a served hop.
            if attr(root, "ok") == "true" {
                assert_eq!(
                    attr(last, "served"),
                    "true",
                    "successful journey {root_id} must end in a served hop"
                );
            }
        }
    }

    // Instance-side serve spans: one per served hop, linked by journey id —
    // the cross-process edges the Perfetto flow events render. No orphans:
    // every journey-tagged span anywhere must name a known journey.
    let served_hops = fleet_spans
        .iter()
        .filter(|s| {
            s.kind() == SpanKind::Journey && s.name() == "hop" && attr(s, "served") == "true"
        })
        .count();
    let mut serve_spans = 0usize;
    for (label, spans) in &processes[..processes.len() - 1] {
        for s in spans {
            if s.kind() != SpanKind::Journey {
                continue;
            }
            assert_eq!(s.name(), "serve", "unexpected journey span on {label}");
            serve_spans += 1;
            assert!(
                journey_ids.contains_key(&attr(s, "journey")),
                "serve span {} on {label} references an unknown journey",
                s.id
            );
            assert_eq!(
                s.end.saturating_sub(s.start).as_nanos(),
                attr_u64(s, "service_ns"),
                "serve span {} on {label} must cover exactly its service time",
                s.id
            );
        }
    }
    assert_eq!(
        serve_spans, served_hops,
        "every served hop must have exactly one instance-side serve span"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    /// Journey graphs are well-formed trees at N ∈ {1, 4, 16} over random
    /// loads, seeds, policies and maintenance plans.
    #[test]
    fn journey_span_graphs_are_well_formed_trees(
        size_pick in 0usize..3,
        seed in any::<u64>(),
        clients in 1usize..20,
        requests in 0usize..30,
        think_us in 100u64..6_000,
        policy_kind in 0u8..3,
        plan_kind in 0u8..4,
    ) {
        let instances = [1, 4, 16][size_pick];
        let load = FleetLoad {
            clients,
            requests_per_client: requests,
            think_time: Nanos::from_micros(think_us),
            ..FleetLoad::default()
        };
        assert_journeys_well_formed(instances, seed, &load, policy_for(policy_kind), plan_kind);
    }
}

// Pinned corners of the envelope, promoted to named always-run tests (the
// in-workspace proptest shim ignores `*.proptest-regressions` files).

#[test]
fn regression_single_instance_full_reboots_fail_journeys_cleanly() {
    // N=1 under full reboots: journeys that arrive inside the reboot
    // window have nowhere to go, so their failed hops must stay zero-length
    // and the roots must still form a tree.
    let load = FleetLoad {
        clients: 9,
        requests_per_client: 14,
        think_time: Nanos::from_micros(350),
        ..FleetLoad::default()
    };
    assert_journeys_well_formed(1, 0xB31A_0139, &load, Policy::LeastOutstanding, 2);
}

#[test]
fn regression_widest_fleet_under_recovery_aware_rejuvenation() {
    // The N=16 rolling-rejuvenation case the audit gate pins: retries and
    // drain redirects must keep every hop parented to its root.
    let load = FleetLoad {
        clients: 23,
        requests_per_client: 11,
        think_time: Nanos::from_micros(5_900),
        ..FleetLoad::default()
    };
    assert_journeys_well_formed(16, 0x1381_5DD7, &load, Policy::RecoveryAware, 1);
}

#[test]
fn regression_zero_request_load_mints_no_journeys() {
    let load = FleetLoad {
        clients: 5,
        requests_per_client: 0,
        think_time: Nanos::from_micros(1_000),
        ..FleetLoad::default()
    };
    assert_journeys_well_formed(4, 0xEAAE_A316, &load, Policy::RoundRobin, 1);
}
