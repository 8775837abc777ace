//! Unit tests of the Chrome-trace renderer, and the renderer it replaced.

use proptest::collection::vec;
use proptest::prelude::*;
use vampos_sim::Nanos;

use super::*;
use crate::hub::{parent_id, Attrs, InstantSite, SpanKind, SpanSite};
use crate::text::escape;

/// The exporter as it stood before it streamed (commit `45f890d`): one
/// `format!` per event into a `Vec<String>`, joined at the end, every
/// attribute value rendered with `to_string()`. Kept as the byte-for-byte
/// oracle of [`render_processes`]; CI's same-seed diffs run one binary
/// twice and cannot see a format drift between commits.
mod reference {
    use std::collections::BTreeMap;

    use super::ProcessRefs;

    /// Escapes a string for embedding in a JSON string literal.
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Formats integer nanoseconds as a microsecond JSON number token with
    /// nanosecond precision (`2500` ns → `2.500`).
    fn reference_micros(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }

    fn reference_args(pairs: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
        }
        out.push('}');
        out
    }

    pub(super) fn render_processes(processes: &[ProcessRefs<'_>]) -> String {
        let mut events: Vec<String> = Vec::new();
        let mut all_tids: Vec<BTreeMap<&str, u64>> = Vec::with_capacity(processes.len());

        // Metadata first (process names, then per-process thread names), so
        // the single-process layout stays unchanged: thread_name block, spans,
        // instants.
        for p in processes {
            let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
            for s in p.spans.iter() {
                tids.entry(s.track()).or_insert(0);
            }
            for i in p.instants.iter() {
                tids.entry(i.track()).or_insert(0);
            }
            for (n, (_, tid)) in tids.iter_mut().enumerate() {
                *tid = n as u64 + 1;
            }
            if let Some(name) = p.name {
                events.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                    p.pid,
                    escape(name)
                ));
            }
            for (track, tid) in &tids {
                events.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    p.pid,
                    tid,
                    escape(track)
                ));
            }
            all_tids.push(tids);
        }
        for (p, tids) in processes.iter().zip(&all_tids) {
            for s in p.spans.iter() {
                let tid = tids[s.track()];
                let mut args: Vec<(&str, String)> = vec![("id", s.id.to_string())];
                if let Some(parent) = s.parent() {
                    args.push(("parent", parent.to_string()));
                }
                args.extend(s.attrs.iter().map(|(k, v)| (*k, v.to_string())));
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{}}}",
                    escape(s.name()),
                    s.kind().name(),
                    reference_micros(s.start.as_nanos()),
                    reference_micros(s.duration().as_nanos()),
                    p.pid,
                    tid,
                    reference_args(&args)
                ));
            }
        }
        for (p, tids) in processes.iter().zip(&all_tids) {
            for i in p.instants.iter() {
                let tid = tids[i.track()];
                let mut args: Vec<(&str, String)> = Vec::new();
                if let Some(parent) = i.parent() {
                    args.push(("parent", parent.to_string()));
                }
                args.extend(i.attrs.iter().map(|(k, v)| (*k, v.to_string())));
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\",\"args\":{}}}",
                    escape(i.name()),
                    reference_micros(i.at.as_nanos()),
                    p.pid,
                    tid,
                    reference_args(&args)
                ));
            }
        }

        // Journey flow events: every span carrying a `journey` attribute is a
        // hop of that journey, and Perfetto draws arrows between the hops when
        // they share a flow id — across processes, so a request's path from
        // the fleet balancer through instance serve windows is one chain.
        // Groups are keyed and emitted in journey-value order; members sort by
        // `(start, pid, tid, span id)`. A journey with a single anchored span
        // emits no flow events at all (an arrow needs two ends).
        let mut flows: BTreeMap<String, Vec<(u64, u32, u64, u64)>> = BTreeMap::new();
        for (p, tids) in processes.iter().zip(&all_tids) {
            for s in p.spans.iter() {
                if let Some((_, journey)) = s.attrs.iter().find(|(k, _)| *k == "journey") {
                    flows.entry(journey.to_string()).or_default().push((
                        s.start.as_nanos(),
                        p.pid,
                        tids[s.track()],
                        s.id,
                    ));
                }
            }
        }
        for (journey, members) in flows.iter_mut() {
            if members.len() < 2 {
                continue;
            }
            members.sort_unstable();
            let last = members.len() - 1;
            for (n, (start, pid, tid, _)) in members.iter().enumerate() {
                let (ph, bind) = match n {
                    0 => ("s", ""),
                    n if n == last => ("f", ",\"bp\":\"e\""),
                    _ => ("t", ",\"bp\":\"e\""),
                };
                events.push(format!(
                    "{{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"{}\",\"id\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}{}}}",
                    ph,
                    escape(journey),
                    reference_micros(*start),
                    pid,
                    tid,
                    bind
                ));
            }
        }

        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Renders spans and instants as one unnamed process with pid 1, the
/// layout of [`crate::TelemetryHub::chrome_trace_json`].
fn chrome_trace(spans: &[SpanRecord], instants: &[InstantRecord]) -> String {
    render_processes(&[ProcessRefs {
        pid: 1,
        name: None,
        spans: spans.into(),
        instants: instants.into(),
    }])
}

fn span(id: u64, parent: Option<u64>, track: &str, name: &str, start: u64, end: u64) -> SpanRecord {
    let kind = if name == "recovery" {
        SpanKind::Recovery
    } else {
        SpanKind::Call
    };
    SpanRecord {
        id,
        parent: parent_id(parent),
        site: SpanSite::new(track, name, kind),
        start: Nanos::from_nanos(start),
        end: Nanos::from_nanos(end),
        attrs: Attrs::default(),
    }
}

fn journey_span(id: u64, journey: &str, start: u64) -> SpanRecord {
    let mut s = span(id, None, "journeys", "hop", start, start + 3);
    s.site = SpanSite::new("journeys", "hop", SpanKind::Journey);
    s.attrs = Attrs::from([("journey", journey.to_owned().into())]);
    s
}

/// An owned process, as tests build them; [`render`] borrows it.
#[derive(Debug)]
struct Process {
    pid: u32,
    name: &'static str,
    spans: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
}

/// Renders owned processes with `renderer`; an empty name is no name.
/// Each process's records are handed over in export order — spans by
/// `(start, id)`, instants by timestamp, ties in storage order, as a hub
/// sorted them before the renderer did — which the reference renders as
/// given and the streamed renderer keeps.
fn render(processes: &[Process], renderer: fn(&[ProcessRefs<'_>]) -> String) -> String {
    let sorted: Vec<(Vec<SpanRecord>, Vec<InstantRecord>)> = processes
        .iter()
        .map(|p| {
            let mut spans = p.spans.clone();
            spans.sort_by_key(|s| (s.start, s.id));
            let mut instants = p.instants.clone();
            instants.sort_by_key(|i| i.at);
            (spans, instants)
        })
        .collect();
    let refs: Vec<ProcessRefs<'_>> = processes
        .iter()
        .zip(&sorted)
        .map(|(p, (spans, instants))| ProcessRefs {
            pid: p.pid,
            name: (!p.name.is_empty()).then_some(p.name),
            spans: spans[..].into(),
            instants: instants[..].into(),
        })
        .collect();
    renderer(&refs)
}

#[test]
fn timestamps_are_microseconds_with_nanosecond_remainder() {
    let micros = |ns| {
        let mut out = String::new();
        push_micros(&mut out, ns);
        out
    };
    assert_eq!(micros(0), "0.000");
    assert_eq!(micros(2_500), "2.500");
    assert_eq!(micros(1_000_042), "1000.042");
}

#[test]
fn tracks_get_stable_tids_in_name_order() {
    let s1 = span(0, None, "zeta", "recovery", 0, 10);
    let s2 = span(1, None, "alpha", "call", 5, 8);
    let json = chrome_trace(&[s1, s2], &[]);
    let alpha = json.find("\"name\":\"alpha\"").unwrap();
    let zeta = json.find("\"name\":\"zeta\"").unwrap();
    assert!(alpha < zeta, "metadata should list alpha (tid 1) first");
    assert!(json.contains("\"tid\":1,\"args\":{\"name\":\"alpha\"}"));
    assert!(json.contains("\"tid\":2,\"args\":{\"name\":\"zeta\"}"));
}

#[test]
fn complete_events_have_ts_dur_pid() {
    let s = span(3, Some(1), "9pfs", "recovery", 1_500, 4_000);
    let json = chrome_trace(&[s], &[]);
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ts\":1.500"));
    assert!(json.contains("\"dur\":2.500"));
    assert!(json.contains("\"pid\":1"));
    assert!(json.contains("\"parent\":\"1\""));
}

#[test]
fn instants_are_thread_scoped() {
    let i = InstantRecord {
        site: InstantSite::new("lwip", "mpk_denial"),
        at: Nanos::from_nanos(77),
        parent: parent_id(None),
        attrs: Attrs::from([("region_owner", "9pfs".to_owned().into())]),
    };
    let json = chrome_trace(&[], &[i]);
    assert!(json.contains("\"ph\":\"i\""));
    assert!(json.contains("\"s\":\"t\""));
    assert!(json.contains("\"region_owner\":\"9pfs\""));
}

#[test]
fn output_is_identical_for_identical_input() {
    let s = span(0, None, "vfs", "call", 10, 20);
    let a = chrome_trace(std::slice::from_ref(&s), &[]);
    let b = chrome_trace(&[s], &[]);
    assert_eq!(a, b);
}

#[test]
fn single_unnamed_process_matches_chrome_trace_bytes() {
    let s1 = span(0, None, "vfs", "call", 10, 20);
    let s2 = span(1, Some(0), "9pfs", "recovery", 12, 18);
    let i = InstantRecord {
        site: InstantSite::new("vfs", "failure_detected"),
        at: Nanos::from_nanos(15),
        parent: parent_id(Some(0)),
        attrs: Attrs::default(),
    };
    let single = chrome_trace(&[s1.clone(), s2.clone()], std::slice::from_ref(&i));
    let multi = render(
        &[Process {
            pid: 1,
            name: "",
            spans: vec![s1, s2],
            instants: vec![i],
        }],
        render_processes,
    );
    assert_eq!(single, multi);
}

#[test]
fn fleet_export_gives_each_instance_its_own_pid() {
    let processes = [
        Process {
            pid: 1,
            name: "instance-00",
            spans: vec![span(0, None, "vfs", "call", 0, 5)],
            instants: Vec::new(),
        },
        Process {
            pid: 2,
            name: "instance-01",
            spans: vec![span(0, None, "vfs", "call", 3, 9)],
            instants: Vec::new(),
        },
    ];
    let json = render(&processes, render_processes);
    assert!(json.contains(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"instance-00\"}}"
    ));
    assert!(json.contains(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"instance-01\"}}"
    ));
    // Same track name on both instances, but distinct pids.
    assert!(json.contains("\"pid\":1,\"tid\":1,\"args\":{\"name\":\"vfs\"}"));
    assert!(json.contains("\"pid\":2,\"tid\":1,\"args\":{\"name\":\"vfs\"}"));
    let a = render(&processes, render_processes);
    assert_eq!(json, a, "fleet export is deterministic");
}

#[test]
fn journey_spans_are_linked_by_flow_events_across_processes() {
    let hop = journey_span(0, "7", 0);
    let serve = journey_span(0, "7", 4);
    let processes = [
        Process {
            pid: 1,
            name: "fleet",
            spans: vec![hop],
            instants: Vec::new(),
        },
        Process {
            pid: 2,
            name: "instance-00",
            spans: vec![serve],
            instants: Vec::new(),
        },
    ];
    let json = render(&processes, render_processes);
    assert!(json.contains(
        "{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"s\",\"id\":\"7\",\"ts\":0.000,\"pid\":1,\"tid\":1}"
    ));
    assert!(json.contains(
        "{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"f\",\"id\":\"7\",\"ts\":0.004,\"pid\":2,\"tid\":1,\"bp\":\"e\"}"
    ));
    // The start event comes before the finish event.
    assert!(json.find("\"ph\":\"s\"").unwrap() < json.find("\"ph\":\"f\"").unwrap());
    let again = render(&processes, render_processes);
    assert_eq!(json, again, "flow emission is deterministic");
}

#[test]
fn three_hop_journeys_use_step_events_and_singletons_emit_none() {
    let mut spans: Vec<SpanRecord> = [(0u64, 0u64), (1, 5), (2, 9)]
        .into_iter()
        .map(|(id, start)| journey_span(id, "3", start))
        .collect();
    spans.push(journey_span(9, "4", 20));
    let json = chrome_trace(&spans, &[]);
    assert!(json.contains("\"ph\":\"s\",\"id\":\"3\""));
    assert!(json.contains("\"ph\":\"t\",\"id\":\"3\",\"ts\":0.005"));
    assert!(json.contains("\"ph\":\"f\",\"id\":\"3\",\"ts\":0.009"));
    assert!(
        !json.contains("\"id\":\"4\""),
        "single-hop journeys emit no flow events"
    );
}

#[test]
fn records_render_in_export_order_whatever_their_storage_order() {
    let spans = [
        span(2, None, "vfs", "call", 30, 40),
        span(0, None, "9pfs", "call", 10, 20),
        span(1, Some(0), "vfs", "recovery", 10, 15),
    ];
    let instant = |name, at| InstantRecord {
        site: InstantSite::new("vfs", name),
        at: Nanos::from_nanos(at),
        parent: parent_id(None),
        attrs: Attrs::default(),
    };
    let instants = [instant("late", 9), instant("early", 3), instant("tie", 9)];
    let mut sorted_spans = spans.clone();
    sorted_spans.sort_by_key(|s| (s.start, s.id));
    let sorted_instants = [
        instants[1].clone(),
        instants[0].clone(),
        instants[2].clone(),
    ];
    assert_eq!(
        chrome_trace(&spans, &instants),
        chrome_trace(&sorted_spans, &sorted_instants)
    );
}

#[test]
fn spans_without_journey_attrs_emit_no_flow_events() {
    let s1 = span(0, None, "vfs", "call", 10, 20);
    let s2 = span(1, Some(0), "9pfs", "recovery", 12, 18);
    let json = chrome_trace(&[s1, s2], &[]);
    assert!(!json.contains("\"cat\":\"journey\""));
}

#[test]
fn escape_handles_quotes_and_control_chars() {
    assert_eq!(escape("a\"b"), "a\\\"b");
    assert_eq!(escape("a\\b"), "a\\\\b");
    assert_eq!(escape("a\nb"), "a\\nb");
    assert_eq!(escape("a\u{1}b"), "a\\u0001b");
}

#[test]
fn journeys_emit_in_string_order_of_their_decimal_ids() {
    // "10" sorts before "2": 49k flow lines of a fleet export sit in this
    // order, so a numeric key would silently reorder all of them.
    let spans = [
        journey_span(0, "2", 0),
        journey_span(1, "2", 5),
        journey_span(2, "10", 7),
        journey_span(3, "10", 9),
    ];
    let json = chrome_trace(&spans, &[]);
    let flow_start = |journey: &str| {
        json.find(&format!("\"ph\":\"s\",\"id\":\"{journey}\""))
            .unwrap()
    };
    assert!(flow_start("10") < flow_start("2"));
    assert_eq!(
        json,
        reference::render_processes(&[ProcessRefs {
            pid: 1,
            name: None,
            spans: spans[..].into(),
            instants: Records::from(&[][..]),
        }])
    );
}

#[test]
fn a_typed_journey_id_and_its_text_form_one_flow() {
    let mut spans = [
        journey_span(0, "10", 0),
        journey_span(1, "2", 1),
        journey_span(2, "10", 5),
        journey_span(3, "2", 6),
    ];
    spans[1].attrs = Attrs::from([("journey", AttrValue::U64(2))]);
    spans[2].attrs = Attrs::from([("journey", AttrValue::U64(10))]);
    let json = chrome_trace(&spans, &[]);
    assert!(json.contains("\"ph\":\"s\",\"id\":\"10\",\"ts\":0.000"));
    assert!(json.contains("\"ph\":\"f\",\"id\":\"10\",\"ts\":0.005"));
    assert!(json.contains("\"ph\":\"s\",\"id\":\"2\",\"ts\":0.001"));
    assert!(json.contains("\"ph\":\"f\",\"id\":\"2\",\"ts\":0.006"));
    let flow_start = |journey: &str| {
        json.find(&format!("\"ph\":\"s\",\"id\":\"{journey}\""))
            .unwrap()
    };
    assert!(flow_start("10") < flow_start("2"));
    assert_eq!(
        json,
        reference::render_processes(&[ProcessRefs {
            pid: 1,
            name: None,
            spans: spans[..].into(),
            instants: Records::from(&[][..]),
        }])
    );
}

#[test]
fn empty_exports_match_the_reference() {
    for processes in [
        Vec::new(),
        vec![Process {
            pid: 1,
            name: "",
            spans: Vec::new(),
            instants: Vec::new(),
        }],
        vec![Process {
            pid: 4,
            name: "idle",
            spans: Vec::new(),
            instants: Vec::new(),
        }],
    ] {
        assert_eq!(
            render(&processes, render_processes),
            render(&processes, reference::render_processes)
        );
    }
}

/// Fragments that names and attribute values are assembled from: every
/// character class the JSON escaper distinguishes, plus multi-byte UTF-8
/// on both sides of an escape.
const FRAGMENTS: [&str; 14] = [
    "vfs", "9pfs", "", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "日本", "\u{7f}", "😀",
];
/// Journey ids: few enough that groups of 1, 2, 3 and more spans all
/// occur, and `"10"` / `"2"` order differently as strings and as numbers.
/// A numeric id is drawn as `U64` or as text, and both must join one flow.
/// The last four share a first byte or eight with another id, so the
/// renderer's 8-byte sort key ties across journeys.
const JOURNEYS: [&str; 11] = [
    "2",
    "10",
    "7",
    "1",
    "100",
    "0",
    "\"q\n",
    "12345678",
    "123456789",
    "1234567890",
    "7\0",
];
/// Numbers of every width the pair table splits differently.
const NUMBERS: [u64; 8] = [0, 9, 10, 99, 100, 12_345, 4_294_967_296, u64::MAX];
const KINDS: [SpanKind; 5] = [
    SpanKind::Call,
    SpanKind::Syscall,
    SpanKind::Recovery,
    SpanKind::Phase,
    SpanKind::Journey,
];

fn text() -> impl Strategy<Value = String> {
    vec(0..FRAGMENTS.len(), 0..4)
        .prop_map(|picks| picks.into_iter().map(|p| FRAGMENTS[p]).collect())
}

fn attrs() -> impl Strategy<Value = Vec<(&'static str, AttrValue)>> {
    let keys = ["caller", "detail", "k\"ey"];
    let value = (0u8..4, text(), 0..NUMBERS.len(), any::<bool>());
    vec((0..keys.len(), value), 0..3).prop_map(move |pairs| {
        pairs
            .into_iter()
            .map(|(k, (variant, v, number, flag))| {
                let value = match variant {
                    0 => AttrValue::from(v),
                    1 => AttrValue::Text(v.as_str().into()),
                    2 => AttrValue::U64(NUMBERS[number]),
                    _ => AttrValue::Bool(flag),
                };
                (keys[k], value)
            })
            .collect()
    })
}

fn parent() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), 0u64..50).prop_map(|(some, id)| some.then_some(id))
}

fn spans() -> impl Strategy<Value = Vec<SpanRecord>> {
    let one = (
        (0u64..1_000, parent(), text(), text(), 0..KINDS.len()),
        (
            0u64..5_000_000,
            0u64..5_000,
            attrs(),
            0..2 * JOURNEYS.len(),
            any::<bool>(),
        ),
    );
    vec(one, 0..12).prop_map(|spans| {
        spans
            .into_iter()
            .map(
                |((id, parent, track, name, kind), (start, dur, mut attrs, journey, typed))| {
                    if let Some(journey) = JOURNEYS.get(journey) {
                        let value = match journey.parse() {
                            Ok(n) if typed => AttrValue::U64(n),
                            _ => AttrValue::from(*journey),
                        };
                        attrs.push(("journey", value));
                    }
                    SpanRecord {
                        id,
                        parent: parent_id(parent),
                        site: SpanSite::new(&track, &name, KINDS[kind]),
                        start: Nanos::from_nanos(start),
                        end: Nanos::from_nanos(start + dur),
                        attrs: attrs.into_iter().collect(),
                    }
                },
            )
            .collect()
    })
}

fn instants() -> impl Strategy<Value = Vec<InstantRecord>> {
    vec((text(), text(), 0u64..5_000_000, parent(), attrs()), 0..6).prop_map(|instants| {
        instants
            .into_iter()
            .map(|(track, name, at, parent, attrs)| InstantRecord {
                site: InstantSite::new(&track, &name),
                at: Nanos::from_nanos(at),
                parent: parent_id(parent),
                attrs: attrs.into_iter().collect(),
            })
            .collect()
    })
}

fn processes() -> impl Strategy<Value = Vec<Process>> {
    let names = ["", "fleet", "instance-\"00\""];
    vec((1u32..40, 0..names.len(), spans(), instants()), 0..4).prop_map(move |processes| {
        processes
            .into_iter()
            .map(|(pid, name, spans, instants)| Process {
                pid,
                name: names[name],
                spans,
                instants,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_export_matches_the_reference_byte_for_byte(processes in processes()) {
        prop_assert_eq!(
            render(&processes, render_processes),
            render(&processes, reference::render_processes)
        );
    }
}
