//! Chrome trace-event JSON export (loads in Perfetto / `chrome://tracing`).
//!
//! Layout: one *thread* (track) per component, named via `ph:"M"`
//! `thread_name` metadata. Spans are `ph:"X"` complete events with `ts` /
//! `dur` in microseconds; Perfetto nests same-track slices by containment,
//! so recovery-phase child spans render inside their recovery slice.
//! Instants are `ph:"i"` thread-scoped events.
//!
//! Determinism: tracks are assigned `tid`s in sorted-name order, events are
//! emitted sorted by `(start, id)`, and timestamps are formatted from
//! integer nanoseconds as `<µs>.<3-digit-ns-remainder>` — no float
//! formatting anywhere, so two same-seed runs serialize byte-identically.
//!
//! There is one renderer, [`render_processes`]. It borrows the records it
//! renders and writes every event straight into one `String` sized from the
//! record count: a fleet export is tens of MiB, and neither the records nor
//! the events exist a second time while it is built.

use std::collections::BTreeMap;

use crate::hub::{AttrValue, InstantRecord, SpanRecord};
use crate::text::{push_escaped, push_u64};

/// Output bytes reserved per span or instant. Fleet exports measure ≈ 150
/// (flow events included); one reallocation of a 70 MiB buffer costs more
/// than the slack does.
const BYTES_PER_RECORD: usize = 200;

/// One process track group of an export: a `pid`, an optional
/// `process_name` metadata label, and the process's spans and instants,
/// already in export order (spans by `(start, id)`, instants by timestamp).
/// Fleet exports use one process per unikernel instance.
#[derive(Debug, Clone, Copy)]
pub struct ProcessRefs<'a> {
    /// Trace-event `pid` for every event of this process.
    pub pid: u64,
    /// Rendered as `process_name` metadata when present.
    pub name: Option<&'a str>,
    /// Finished spans, sorted by `(start, id)`.
    pub spans: &'a [&'a SpanRecord],
    /// Instants, sorted by timestamp.
    pub instants: &'a [&'a InstantRecord],
}

/// Renders spans and instants (already sorted by the caller) as a Chrome
/// trace-event JSON document: `{"traceEvents": [...]}`. The same bytes as
/// [`render_processes`] over a single unnamed process with pid 1.
pub fn chrome_trace(spans: &[&SpanRecord], instants: &[&InstantRecord]) -> String {
    render_processes(&[ProcessRefs {
        pid: 1,
        name: None,
        spans,
        instants,
    }])
}

/// Appends integer nanoseconds as a microsecond JSON number token with
/// nanosecond precision (`2500` ns → `2.500`).
fn push_micros(out: &mut String, ns: u64) {
    push_u64(out, ns / 1_000);
    let rem = (ns % 1_000) as u32;
    out.push('.');
    for digit in [rem / 100, rem / 10 % 10, rem % 10] {
        out.push(char::from_digit(digit, 10).expect("a decimal digit"));
    }
}

/// Appends `,"pid":P,"tid":T`.
fn push_pid_tid(out: &mut String, pid: u64, tid: u64) {
    out.push_str(",\"pid\":");
    push_u64(out, pid);
    out.push_str(",\"tid\":");
    push_u64(out, tid);
}

/// Appends one `ph:"M"` metadata event naming a process or a thread.
fn push_metadata(out: &mut String, what: &str, pid: u64, tid: u64, name: &str) {
    out.push_str("{\"name\":\"");
    out.push_str(what);
    out.push_str("\",\"ph\":\"M\"");
    push_pid_tid(out, pid, tid);
    out.push_str(",\"args\":{\"name\":\"");
    push_escaped(out, name);
    out.push_str("\"}},\n");
}

/// Appends the `"k":"v"` members of an `args` object; `first` says whether
/// a member still has to open the object without a leading comma.
fn push_attrs(out: &mut String, mut first: bool, attrs: &[(&'static str, AttrValue)]) {
    for (k, v) in attrs {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        push_escaped(out, k);
        out.push_str("\":\"");
        push_escaped(out, v);
        out.push('"');
    }
}

/// Appends `"parent":"N"` when there is a parent; returns whether the
/// `args` object is still empty.
fn push_parent(out: &mut String, first: bool, parent: Option<u64>) -> bool {
    let Some(parent) = parent else {
        return first;
    };
    if !first {
        out.push(',');
    }
    out.push_str("\"parent\":\"");
    push_u64(out, parent);
    out.push('"');
    false
}

/// Renders several processes — one per fleet instance — in a single Chrome
/// trace-event JSON document. Track `tid`s restart per process, and each
/// named process gets `process_name` metadata, so Perfetto groups every
/// instance's component tracks under its own process row.
pub fn render_processes(processes: &[ProcessRefs<'_>]) -> String {
    let records: usize = processes
        .iter()
        .map(|p| p.spans.len() + p.instants.len())
        .sum();
    let mut out = String::with_capacity(64 + records * BYTES_PER_RECORD);
    out.push_str("{\"traceEvents\":[\n");
    let header = out.len();

    // Every event below ends in ",\n"; the last separator is cut off at the
    // end. Metadata first (process names, then per-process thread names),
    // so the single-process layout is: thread_name block, spans, instants.
    let mut all_tids: Vec<BTreeMap<&str, u64>> = Vec::with_capacity(processes.len());
    for p in processes {
        let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
        for s in p.spans {
            tids.entry(&s.track).or_insert(0);
        }
        for i in p.instants {
            tids.entry(&i.track).or_insert(0);
        }
        for (n, (_, tid)) in tids.iter_mut().enumerate() {
            *tid = n as u64 + 1;
        }
        if let Some(name) = p.name {
            push_metadata(&mut out, "process_name", p.pid, 0, name);
        }
        for (track, tid) in &tids {
            push_metadata(&mut out, "thread_name", p.pid, *tid, track);
        }
        all_tids.push(tids);
    }

    // Journey flow members, collected while the spans render: every span
    // carrying a `journey` attribute is a hop of that journey.
    let mut flows: Vec<(&str, u64, u64, u64, u64)> = Vec::new();
    for (p, tids) in processes.iter().zip(&all_tids) {
        for s in p.spans {
            let tid = tids[&*s.track];
            out.push_str("{\"name\":\"");
            push_escaped(&mut out, &s.name);
            out.push_str("\",\"cat\":\"");
            out.push_str(s.kind.name());
            out.push_str("\",\"ph\":\"X\",\"ts\":");
            push_micros(&mut out, s.start.as_nanos());
            out.push_str(",\"dur\":");
            push_micros(&mut out, s.duration().as_nanos());
            push_pid_tid(&mut out, p.pid, tid);
            out.push_str(",\"args\":{\"id\":\"");
            push_u64(&mut out, s.id);
            out.push('"');
            push_parent(&mut out, false, s.parent);
            push_attrs(&mut out, false, &s.attrs);
            out.push_str("}},\n");
            if let Some((_, journey)) = s.attrs.iter().find(|(k, _)| *k == "journey") {
                flows.push((journey, s.start.as_nanos(), p.pid, tid, s.id));
            }
        }
    }
    for (p, tids) in processes.iter().zip(&all_tids) {
        for i in p.instants {
            out.push_str("{\"name\":\"");
            push_escaped(&mut out, &i.name);
            out.push_str("\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":");
            push_micros(&mut out, i.at.as_nanos());
            push_pid_tid(&mut out, p.pid, tids[&*i.track]);
            out.push_str(",\"s\":\"t\",\"args\":{");
            let first = push_parent(&mut out, true, i.parent);
            push_attrs(&mut out, first, &i.attrs);
            out.push_str("}},\n");
        }
    }

    // Journey flow events: Perfetto draws arrows between the hops of one
    // flow id — across processes, so a request's path from the fleet
    // balancer through instance serve windows is one chain. Journeys emit
    // in order of the attribute *string* (`"10"` before `"2"`): the export
    // is pinned byte for byte, so the key must stay a `&str`. Members sort
    // by `(start, pid, tid, span id)`. A journey with a single anchored
    // span emits no flow events at all (an arrow needs two ends).
    flows.sort_unstable();
    for members in flows.chunk_by(|a, b| a.0 == b.0) {
        if members.len() < 2 {
            continue;
        }
        let last = members.len() - 1;
        for (n, (journey, start, pid, tid, _)) in members.iter().enumerate() {
            let ph = match n {
                0 => "s",
                n if n == last => "f",
                _ => "t",
            };
            out.push_str("{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"");
            out.push_str(ph);
            out.push_str("\",\"id\":\"");
            push_escaped(&mut out, journey);
            out.push_str("\",\"ts\":");
            push_micros(&mut out, *start);
            push_pid_tid(&mut out, *pid, *tid);
            if n > 0 {
                out.push_str(",\"bp\":\"e\"");
            }
            out.push_str("},\n");
        }
    }

    if out.len() > header {
        out.truncate(out.len() - ",\n".len());
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests;
