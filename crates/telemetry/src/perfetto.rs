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
//! renders and writes every event straight into one `String` sized from
//! the record count: a fleet export is tens of MiB, and neither the records
//! nor the events exist a second time while it is built. It puts one
//! process's records in export order at a time, so what it holds besides
//! the output is one hub's references, not the fleet's. What repeats is
//! rendered once: each span kind's `cat`/`ph` fragment is a constant, and
//! each track's `pid`/`tid` fragment is rendered when the track is first
//! seen, then found by the address of the track's shared name.

use std::collections::VecDeque;

use crate::hub::{AttrValue, InstantRecord, SpanKind, SpanRecord};
use crate::text::{push_escaped, push_micros, push_u64, Digits};

/// Output bytes reserved per span or instant. Fleet exports measure ≈ 150
/// (flow events included); one reallocation of a 70 MiB buffer costs more
/// than the slack does.
const BYTES_PER_RECORD: usize = 200;

/// Borrowed records of one kind, in any order: a slice, or the two halves
/// of a hub's ring buffer.
#[derive(Debug)]
pub struct Records<'a, T> {
    front: &'a [T],
    back: &'a [T],
}

impl<T> Clone for Records<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Records<'_, T> {}

impl<'a, T> Records<'a, T> {
    fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    /// The records, in storage order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a T> {
        self.front.iter().chain(self.back)
    }
}

impl<'a> Records<'a, SpanRecord> {
    /// The spans in export order: by `(start, id)`.
    pub(crate) fn sorted(&self) -> Vec<&'a SpanRecord> {
        let mut spans: Vec<&SpanRecord> = self.iter().collect();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

impl<'a> Records<'a, InstantRecord> {
    /// The instants in export order: by timestamp, then storage order.
    fn sorted(&self) -> Vec<&'a InstantRecord> {
        let mut instants: Vec<&InstantRecord> = self.iter().collect();
        instants.sort_by_key(|i| i.at);
        instants
    }
}

impl<'a, T> From<&'a [T]> for Records<'a, T> {
    fn from(records: &'a [T]) -> Self {
        Records {
            front: records,
            back: &[],
        }
    }
}

impl<'a, T> From<&'a VecDeque<T>> for Records<'a, T> {
    fn from(records: &'a VecDeque<T>) -> Self {
        let (front, back) = records.as_slices();
        Records { front, back }
    }
}

/// One process track group of an export: a `pid`, an optional
/// `process_name` metadata label, and the process's spans and instants in
/// any order; the renderer sorts them (spans by `(start, id)`, instants by
/// timestamp). Fleet exports use one process per unikernel instance.
#[derive(Debug, Clone, Copy)]
pub struct ProcessRefs<'a> {
    /// Trace-event `pid` for every event of this process.
    pub pid: u64,
    /// Rendered as `process_name` metadata when present.
    pub name: Option<&'a str>,
    /// Finished spans.
    pub spans: Records<'a, SpanRecord>,
    /// Instants.
    pub instants: Records<'a, InstantRecord>,
}

/// What a complete event of each kind writes between its name and its
/// `ts` value.
fn span_fragment(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Call => "\",\"cat\":\"call\",\"ph\":\"X\",\"ts\":",
        SpanKind::Syscall => "\",\"cat\":\"syscall\",\"ph\":\"X\",\"ts\":",
        SpanKind::Recovery => "\",\"cat\":\"recovery\",\"ph\":\"X\",\"ts\":",
        SpanKind::Phase => "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":",
        SpanKind::Journey => "\",\"cat\":\"journey\",\"ph\":\"X\",\"ts\":",
    }
}

/// One track of one process, with the fragments its events repeat.
struct Track {
    tid: u64,
    /// `,"pid":P,"tid":T,"args":{"id":"` — what a span writes after `dur`.
    span_prefix: String,
    /// `,"pid":P,"tid":T,"s":"t","args":{` — what an instant writes after
    /// `ts`.
    instant_prefix: String,
}

/// The tracks of one process, found by the address of a record's `track`
/// string. A hub shares one allocation per track name, so a process has
/// as many addresses as tracks; records that name a track through an
/// allocation of their own still find its one `tid` by text.
struct Tracks {
    /// `(address, index into tracks)`, sorted by address.
    by_addr: Vec<(usize, usize)>,
    tracks: Vec<Track>,
}

fn addr(track: &str) -> usize {
    track.as_ptr() as usize
}

impl Tracks {
    /// Assigns `p`'s tracks their `tid`s (sorted-name order, from 1) and
    /// writes their metadata events — the process name first, if any.
    fn of(p: &ProcessRefs<'_>, out: &mut String) -> Tracks {
        let mut by_addr: Vec<(usize, &str)> = Vec::new();
        let records = p.spans.iter().map(|s| s.track());
        for track in records.chain(p.instants.iter().map(|i| i.track())) {
            if let Err(at) = by_addr.binary_search_by_key(&addr(track), |e| e.0) {
                by_addr.insert(at, (addr(track), track));
            }
        }
        let mut names: Vec<&str> = by_addr.iter().map(|e| e.1).collect();
        names.sort_unstable();
        names.dedup();
        if let Some(name) = p.name {
            push_metadata(out, "process_name", p.pid, 0, name);
        }
        let mut tracks = Vec::with_capacity(names.len());
        for (n, name) in names.iter().enumerate() {
            let tid = n as u64 + 1;
            push_metadata(out, "thread_name", p.pid, tid, name);
            let pid_tid = format!(",\"pid\":{},\"tid\":{tid}", p.pid);
            tracks.push(Track {
                tid,
                span_prefix: format!("{pid_tid},\"args\":{{\"id\":\""),
                instant_prefix: format!("{pid_tid},\"s\":\"t\",\"args\":{{"),
            });
        }
        let by_addr = by_addr
            .into_iter()
            .map(|(a, name)| (a, names.binary_search(&name).expect("a listed name")))
            .collect();
        Tracks { by_addr, tracks }
    }

    fn get(&self, track: &str) -> &Track {
        let at = self
            .by_addr
            .binary_search_by_key(&addr(track), |e| e.0)
            .expect("every record's track was registered");
        &self.tracks[self.by_addr[at].1]
    }
}

/// Appends one `ph:"M"` metadata event naming a process or a thread.
fn push_metadata(out: &mut String, what: &str, pid: u64, tid: u64, name: &str) {
    out.push_str("{\"name\":\"");
    out.push_str(what);
    out.push_str("\",\"ph\":\"M\",\"pid\":");
    push_u64(out, pid);
    out.push_str(",\"tid\":");
    push_u64(out, tid);
    out.push_str(",\"args\":{\"name\":\"");
    push_escaped(out, name);
    out.push_str("\"}},\n");
}

/// Appends the `"k":"v"` members of an `args` object, each after a comma
/// unless `first` says the object is still empty. Returns the first
/// `journey` value, which makes the record a hop of that journey's flow.
fn push_attrs<'a>(
    out: &mut String,
    mut first: bool,
    attrs: &'a [(&'static str, AttrValue)],
) -> Option<&'a AttrValue> {
    let mut journey = None;
    for (k, v) in attrs {
        out.push_str(if first { "\"" } else { ",\"" });
        first = false;
        push_escaped(out, k);
        out.push_str("\":\"");
        v.with_text(|text| push_escaped(out, text));
        out.push('"');
        if journey.is_none() && *k == "journey" {
            journey = Some(v);
        }
    }
    journey
}

/// Appends `"parent":"N"` (after a comma unless `first`) when there is a
/// parent; returns whether the `args` object is still empty.
fn push_parent(out: &mut String, first: bool, parent: Option<u64>) -> bool {
    let Some(parent) = parent else {
        return first;
    };
    out.push_str(if first {
        "\"parent\":\""
    } else {
        ",\"parent\":\""
    });
    push_u64(out, parent);
    out.push('"');
    false
}

/// A journey id as flow events name it: its decimal text. Flows group and
/// sort by that text as bytes, so a number sorts where its digits would
/// (`10` before `2`) and `U64(10)` joins `Text("10")`.
enum FlowId<'a> {
    Number(Digits),
    Text(&'a str),
}

impl<'a> FlowId<'a> {
    fn of(v: &'a AttrValue) -> FlowId<'a> {
        match v {
            AttrValue::Text(s) => FlowId::Text(s),
            AttrValue::U64(n) => FlowId::Number(Digits::new(*n)),
            AttrValue::Bool(b) => FlowId::Text(if *b { "true" } else { "false" }),
        }
    }

    fn text(&self) -> &str {
        match self {
            FlowId::Number(digits) => digits.as_str(),
            FlowId::Text(s) => s,
        }
    }
}

/// One span of a journey flow: its id, `(start, pid, tid, span id)`.
type FlowMember<'a> = (FlowId<'a>, [u64; 4]);

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
    let tracks: Vec<Tracks> = processes.iter().map(|p| Tracks::of(p, &mut out)).collect();

    // Journey flow members, collected while the spans render: every span
    // carrying a `journey` attribute is a hop of that journey.
    // Each process's references are sorted in its turn and dropped after.
    let mut flows: Vec<FlowMember<'_>> = Vec::new();
    for (p, tracks) in processes.iter().zip(&tracks) {
        for s in p.spans.sorted() {
            let track = tracks.get(s.track());
            out.push_str("{\"name\":\"");
            push_escaped(&mut out, s.name());
            out.push_str(span_fragment(s.kind()));
            push_micros(&mut out, s.start.as_nanos());
            out.push_str(",\"dur\":");
            push_micros(&mut out, s.duration().as_nanos());
            out.push_str(&track.span_prefix);
            push_u64(&mut out, s.id);
            out.push('"');
            push_parent(&mut out, false, s.parent());
            let journey = push_attrs(&mut out, false, &s.attrs);
            out.push_str("}},\n");
            if let Some(journey) = journey {
                let member = [s.start.as_nanos(), p.pid, track.tid, s.id];
                flows.push((FlowId::of(journey), member));
            }
        }
    }
    for (p, tracks) in processes.iter().zip(&tracks) {
        for i in p.instants.sorted() {
            out.push_str("{\"name\":\"");
            push_escaped(&mut out, i.name());
            out.push_str("\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":");
            push_micros(&mut out, i.at.as_nanos());
            out.push_str(&tracks.get(i.track()).instant_prefix);
            let first = push_parent(&mut out, true, i.parent());
            push_attrs(&mut out, first, &i.attrs);
            out.push_str("}},\n");
        }
    }

    // Journey flow events: Perfetto draws arrows between the hops of one
    // flow id — across processes, so a request's path from the fleet
    // balancer through instance serve windows is one chain. Journeys emit
    // in byte order of their decimal *text* (`"10"` before `"2"`): the
    // export is pinned byte for byte. Members sort by `(start, pid, tid,
    // span id)`. A journey with a single anchored span emits no flow
    // events at all (an arrow needs two ends).
    flows.sort_unstable_by(|a, b| a.0.text().cmp(b.0.text()).then(a.1.cmp(&b.1)));
    for members in flows.chunk_by(|a, b| a.0.text() == b.0.text()) {
        if members.len() < 2 {
            continue;
        }
        let last = members.len() - 1;
        for (n, (journey, [start, pid, tid, _])) in members.iter().enumerate() {
            out.push_str(match n {
                0 => "{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"s\",\"id\":\"",
                n if n == last => {
                    "{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"f\",\"id\":\""
                }
                _ => "{\"name\":\"journey\",\"cat\":\"journey\",\"ph\":\"t\",\"id\":\"",
            });
            push_escaped(&mut out, journey.text());
            out.push_str("\",\"ts\":");
            push_micros(&mut out, *start);
            out.push_str(",\"pid\":");
            push_u64(&mut out, *pid);
            out.push_str(",\"tid\":");
            push_u64(&mut out, *tid);
            out.push_str(if n > 0 { ",\"bp\":\"e\"},\n" } else { "},\n" });
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
