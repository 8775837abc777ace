//! The [`TelemetryHub`]: a structured, bounded span-and-metrics collector.
//!
//! The hub turns the [`Collector`] narration into three artifacts:
//!
//! * finished [`SpanRecord`]s (a bounded deque; oldest evicted first),
//! * [`InstantRecord`] point events attached to their enclosing span,
//! * a [`MetricsRegistry`] of per-component counters/gauges/histograms.
//!
//! Because the runtime's span pairs are strictly LIFO (see [`Collector`]),
//! the hub keeps a plain stack of open spans; `*_end` calls pop it.
//! [`TelemetrySink`] is the shared handle the runtime holds: a
//! `Rc<RefCell<_>>` wrapper matching the simulator's single-threaded,
//! `!Send` clock discipline.

use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::rc::Rc;

use vampos_sim::{Name, Nanos};

use crate::collector::{Collector, RecoveryPhase};
use crate::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use crate::perfetto;
use crate::text::Digits;

/// Bound on retained finished spans, and on retained instants.
const SPAN_CAPACITY: usize = 1 << 16;

/// Detail lists a hub keeps per `(track, event)` for instants to share.
const RECENT_DETAILS: usize = 8;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A cross-component call.
    Call,
    /// An application-layer syscall.
    Syscall,
    /// A component (or whole-application) recovery.
    Recovery,
    /// One phase inside a recovery.
    Phase,
    /// One request journey (or one hop of it) across the fleet.
    Journey,
}

impl SpanKind {
    /// Stable category name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Call => "call",
            SpanKind::Syscall => "syscall",
            SpanKind::Recovery => "recovery",
            SpanKind::Phase => "phase",
            SpanKind::Journey => "journey",
        }
    }
}

/// The value of a span or instant attribute: text the record owns, a name
/// it shares (the `caller` of a call span, the `instance` of a hop), or a
/// number or flag kept as one until an exporter renders it. Renders —
/// and compares — as its text: decimal digits for [`AttrValue::U64`],
/// `true`/`false` for [`AttrValue::Bool`], so `U64(10)` equals
/// `Owned("10")`.
#[derive(Debug, Clone)]
pub enum AttrValue {
    /// Text the record owns.
    Owned(String),
    /// Text shared with other records (a name from the hub's string table,
    /// an instance or stage label).
    Shared(Rc<str>),
    /// An unsigned number.
    U64(u64),
    /// A flag.
    Bool(bool),
}

impl AttrValue {
    /// The text of an [`AttrValue::Owned`] or [`AttrValue::Shared`] value;
    /// `None` for a number or a flag (render those with `Display`).
    pub fn text(&self) -> Option<&str> {
        match self {
            AttrValue::Owned(s) => Some(s),
            AttrValue::Shared(s) => Some(s),
            AttrValue::U64(_) | AttrValue::Bool(_) => None,
        }
    }

    /// The number of an [`AttrValue::U64`] value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Runs `f` over the rendered text, with no allocation.
    pub(crate) fn with_text<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        match self {
            AttrValue::Owned(s) => f(s),
            AttrValue::Shared(s) => f(s),
            AttrValue::U64(n) => f(Digits::new(*n).as_str()),
            AttrValue::Bool(b) => f(if *b { "true" } else { "false" }),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_text(|text| f.write_str(text))
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Owned(s)
    }
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        self.with_text(|a| other.with_text(|b| a == b))
    }
}

impl Eq for AttrValue {}

/// One attribute of a record: its key and value.
pub type Attr = (&'static str, AttrValue);

/// Attributes of a record, in emission order: one pointer to a list that
/// records share, so the copy of a record [`TelemetryHub::export_spans`]
/// hands out costs a reference count whatever the attributes hold. An
/// empty list allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attrs(Option<Rc<Box<[Attr]>>>);

impl Deref for Attrs {
    type Target = [Attr];

    fn deref(&self) -> &[Attr] {
        self.0.as_deref().map_or(&[], |list| list)
    }
}

impl FromIterator<Attr> for Attrs {
    fn from_iter<I: IntoIterator<Item = Attr>>(iter: I) -> Self {
        let list: Box<[Attr]> = iter.into_iter().collect();
        Attrs((!list.is_empty()).then(|| Rc::new(list)))
    }
}

impl<const N: usize> From<[Attr; N]> for Attrs {
    fn from(list: [Attr; N]) -> Self {
        list.into_iter().collect()
    }
}

/// A track, span or event name of a record: one pointer to text that
/// every record naming it shares. A hub interns its names, so it holds
/// one allocation per distinct name however many records carry it.
/// Derefs, compares and orders as its text.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ThinName(Rc<Box<str>>);

impl ThinName {
    /// The name's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for ThinName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for ThinName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ThinName {
    fn from(s: &str) -> Self {
        ThinName(Rc::new(Box::from(s)))
    }
}

impl fmt::Display for ThinName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for ThinName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The `parent` a record without one stores: ids count up from 0, so no
/// span is ever given this one.
const NO_PARENT: u64 = u64::MAX;

/// The stored form of a record's parent.
pub(crate) fn parent_id(parent: Option<u64>) -> u64 {
    parent.unwrap_or(NO_PARENT)
}

fn parent_of(stored: u64) -> Option<u64> {
    (stored != NO_PARENT).then_some(stored)
}

/// A finished span: a named interval on a component track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique, monotonically increasing id (creation order).
    pub id: u64,
    /// Id of the enclosing span open at creation time; read it through
    /// [`SpanRecord::parent`].
    pub(crate) parent: u64,
    /// Track (component) the span renders on.
    pub track: ThinName,
    /// Span name (function, `recovery`, or a recovery-phase name).
    pub name: ThinName,
    /// What the span measured.
    pub kind: SpanKind,
    /// Start timestamp (virtual).
    pub start: Nanos,
    /// End timestamp (virtual); `end >= start` always.
    pub end: Nanos,
    /// Structured attributes, in emission order.
    pub attrs: Attrs,
}

impl SpanRecord {
    /// Id of the enclosing span open at creation time, if any.
    pub fn parent(&self) -> Option<u64> {
        parent_of(self.parent)
    }

    /// Span duration.
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// A point event attached to a track (and, when one was open, a span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantRecord {
    /// Track (component) the instant renders on.
    pub track: ThinName,
    /// Event name (e.g. `failure_detected`, `mpk_denial`).
    pub name: ThinName,
    /// Timestamp (virtual).
    pub at: Nanos,
    /// Id of the span that was innermost-open when the event fired; read
    /// it through [`InstantRecord::parent`].
    pub(crate) parent: u64,
    /// Structured attributes, in emission order.
    pub attrs: Attrs,
}

impl InstantRecord {
    /// Id of the span that was innermost-open when the event fired, if any.
    pub fn parent(&self) -> Option<u64> {
        parent_of(self.parent)
    }
}

/// A compact view of one span — what `vampos-chaos --replay` prints as
/// the trailing span window of a traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDump {
    /// Track (component) name.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Start timestamp in virtual nanoseconds.
    pub start_ns: u64,
    /// Duration in virtual nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth (number of retained ancestors).
    pub depth: u32,
}

/// Index of a string in the hub's [`Names`] table.
type NameId = usize;

/// The per-call metric series labelled by one name (a component, or a
/// syscall function). Each is resolved when it is first updated and reached
/// by id from then on; resolving creates the series, so none is resolved
/// ahead of its first update. Beside them, the attribute list every call
/// span from the name shares: `[("caller", Shared(name))]`.
#[derive(Debug, Default)]
struct NameSeries {
    caller_attrs: Option<Attrs>,
    calls_in: Option<CounterId>,
    calls_out: Option<CounterId>,
    call_latency: Option<HistogramId>,
    syscalls: Option<CounterId>,
    syscall_latency: Option<HistogramId>,
    log_shrunk: Option<CounterId>,
    log_bytes: Option<GaugeId>,
    log_records: Option<GaugeId>,
}

/// The hub's string table. A hub sees a few dozen distinct track, span and
/// event names (components, functions, recovery phases), so records share
/// one [`ThinName`] per name instead of owning a copy each, and an event looks
/// each of its names up once — the lookup also finds the name's metric
/// series and, for a caller, the attribute list of its call spans.
#[derive(Debug, Default)]
struct Names {
    ids: BTreeMap<ThinName, NameId>,
    strings: Vec<ThinName>,
    series: Vec<NameSeries>,
    /// The runtime's [`Name`]s seen so far, by allocation: a runtime passes
    /// the same few dozen allocations on every call, so a pointer match
    /// finds the id without comparing text. At most one entry per id, so
    /// the list stays as short as the table. Holding the `Name` keeps its
    /// address from being reused; only lookups depend on an address, never
    /// an order.
    by_alloc: Vec<(Name, NameId)>,
}

impl Names {
    fn intern(&mut self, s: &str) -> NameId {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let shared = ThinName::from(s);
        self.strings.push(shared.clone());
        self.series.push(NameSeries::default());
        self.ids.insert(shared, self.strings.len() - 1);
        self.strings.len() - 1
    }

    /// [`Names::intern`] by allocation first, by text on a miss. A name
    /// whose text arrives in a new allocation takes over its id's entry.
    fn intern_name(&mut self, name: &Name) -> NameId {
        if let Some(id) = self.find_alloc(name) {
            return id;
        }
        let id = self.intern(name);
        match self.by_alloc.iter_mut().find(|(_, known)| *known == id) {
            Some(entry) => entry.0 = name.clone(),
            None => self.by_alloc.push((name.clone(), id)),
        }
        id
    }

    /// [`Names::intern`] for text the runtime lends out of one of its
    /// [`Name`]s (a component's track): by allocation when that `Name` has
    /// been seen, by text otherwise.
    fn intern_borrowed(&mut self, s: &str) -> NameId {
        self.find_alloc(s).unwrap_or_else(|| self.intern(s))
    }

    /// The id of the held [`Name`] whose text is `s` itself — the same
    /// address and length, so necessarily the same bytes.
    fn find_alloc(&self, s: &str) -> Option<NameId> {
        let (_, id) = self
            .by_alloc
            .iter()
            .find(|(n, _)| std::ptr::eq(n.as_str(), s))?;
        Some(*id)
    }

    fn get(&self, id: NameId) -> ThinName {
        self.strings[id].clone()
    }

    fn shared(&mut self, s: &str) -> ThinName {
        let id = self.intern(s);
        self.get(id)
    }

    /// The attributes of a call span from `caller`.
    fn caller_attrs(&mut self, caller: NameId) -> Attrs {
        let strings = &self.strings;
        self.series[caller]
            .caller_attrs
            .get_or_insert_with(|| {
                Attrs::from([("caller", AttrValue::Shared(Rc::from(&*strings[caller])))])
            })
            .clone()
    }
}

/// What instants share of their details. A detail is formatted into one
/// reused buffer, then looked up among the lists recently stored for its
/// `(track, event)`: a repeated detail shares the list its first
/// occurrence built and allocates nothing. Each pair keeps at most
/// [`RECENT_DETAILS`] lists, most recent first, so the table is bounded
/// by the configuration's names, not by the run length.
#[derive(Debug, Default)]
struct Details {
    text: String,
    recent: BTreeMap<(NameId, NameId), Vec<Attrs>>,
}

impl Details {
    fn attrs(&mut self, track: NameId, event: NameId, detail: fmt::Arguments<'_>) -> Attrs {
        self.text.clear();
        // Writing into a `String` fails only if a `Display` impl does.
        let _ = self.text.write_fmt(detail);
        if self.text.is_empty() {
            return Attrs::default();
        }
        let recent = self
            .recent
            .entry((track, event))
            .or_insert_with(|| Vec::with_capacity(RECENT_DETAILS));
        let text = self.text.as_str();
        let hit = recent
            .iter()
            .position(|attrs| attrs.first().is_some_and(|(_, v)| v.text() == Some(text)));
        match hit {
            Some(at) => recent[..=at].rotate_right(1),
            None => {
                if recent.len() == RECENT_DETAILS {
                    recent.pop();
                }
                let attrs = Attrs::from([("detail", AttrValue::Owned(text.to_owned()))]);
                recent.insert(0, attrs);
            }
        }
        recent[0].clone()
    }
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    track: NameId,
    name: NameId,
    kind: SpanKind,
    start: Nanos,
    attrs: Attrs,
}

/// What closing a span leaves for its `*_end` caller; the record itself is
/// already stored, at the back of `finished`.
#[derive(Debug, Clone, Copy)]
struct Closed {
    track: NameId,
    name: NameId,
    duration: Nanos,
}

/// The structured collector: span trees, instants, and metrics.
#[derive(Debug, Default)]
pub struct TelemetryHub {
    next_id: u64,
    names: Names,
    open: Vec<OpenSpan>,
    finished: VecDeque<SpanRecord>,
    instants: VecDeque<InstantRecord>,
    evicted: u64,
    metrics: MetricsRegistry,
    details: Details,
}

impl TelemetryHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        TelemetryHub::default()
    }

    fn push_finished(&mut self, record: SpanRecord) {
        if self.finished.len() == SPAN_CAPACITY {
            self.finished.pop_front();
            self.note_eviction();
        }
        self.finished.push_back(record);
    }

    fn push_instant(&mut self, record: InstantRecord) {
        if self.instants.len() == SPAN_CAPACITY {
            self.instants.pop_front();
            self.note_eviction();
        }
        self.instants.push_back(record);
    }

    /// Every eviction is also a metric, so audit runs can prove from the
    /// Prometheus exposition alone that no span/instant was dropped.
    fn note_eviction(&mut self) {
        self.evicted += 1;
        self.metrics
            .counter_add("vampos_telemetry_evicted_total", &[], 1);
    }

    /// Records an already-finished span with an explicit parent, bypassing
    /// the LIFO open-span stack. Journey roots and hops use this: they are
    /// emitted after the fact (once a request's completion time is known),
    /// so they never nest with the runtime's call/recovery span pairs.
    /// Returns the new span's id, for parenting follow-up spans. `attrs`
    /// is any list of values an [`AttrValue`] converts from: an array of
    /// typed values, or a `Vec` of formatted `String`s.
    #[allow(clippy::too_many_arguments)]
    pub fn push_span<V: Into<AttrValue>>(
        &mut self,
        track: &str,
        name: &str,
        kind: SpanKind,
        start: Nanos,
        end: Nanos,
        parent: Option<u64>,
        attrs: impl IntoIterator<Item = (&'static str, V)>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let track = self.names.shared(track);
        let name = self.names.shared(name);
        self.push_finished(SpanRecord {
            id,
            parent: parent_id(parent),
            track,
            name,
            kind,
            start,
            end: end.max(start),
            attrs: attrs.into_iter().map(|(k, v)| (k, v.into())).collect(),
        });
        id
    }

    fn open_span(
        &mut self,
        track: NameId,
        name: NameId,
        kind: SpanKind,
        start: Nanos,
        attrs: Attrs,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map_or(NO_PARENT, |s| s.id);
        self.open.push(OpenSpan {
            id,
            parent,
            track,
            name,
            kind,
            start,
            attrs,
        });
    }

    /// Pops the innermost open span and stores its record; `*_end` callers
    /// that enrich the record reach it through `finished.back_mut()`.
    fn close_span(&mut self, expected: SpanKind, end: Nanos) -> Option<Closed> {
        let span = self.open.pop()?;
        debug_assert_eq!(
            span.kind, expected,
            "unbalanced span stack: closing {:?} but innermost open is {} ({:?})",
            expected, self.names.strings[span.name], span.kind
        );
        let end = end.max(span.start);
        let record = SpanRecord {
            id: span.id,
            parent: span.parent,
            track: self.names.get(span.track),
            name: self.names.get(span.name),
            kind: span.kind,
            start: span.start,
            end,
            attrs: span.attrs,
        };
        self.push_finished(record);
        Some(Closed {
            track: span.track,
            name: span.name,
            duration: end.saturating_sub(span.start),
        })
    }

    /// Appends outcome attributes to the span `close_span` just stored,
    /// after the ones it opened with.
    fn extend_last<const N: usize>(&mut self, outcome: [(&'static str, AttrValue); N]) {
        if let Some(stored) = self.finished.back_mut() {
            stored.attrs = stored.attrs.iter().cloned().chain(outcome).collect();
        }
    }

    fn attach_instant(&mut self, track: NameId, name: ThinName, at: Nanos, attrs: Attrs) {
        let parent = self.open.last().map_or(NO_PARENT, |s| s.id);
        self.push_instant(InstantRecord {
            track: self.names.get(track),
            name,
            at,
            parent,
            attrs,
        });
    }

    /// Finished spans, in completion order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.finished.iter()
    }

    /// Instant events, in emission order.
    pub fn instants(&self) -> impl Iterator<Item = &InstantRecord> {
        self.instants.iter()
    }

    /// Number of spans currently open (non-zero only mid-call).
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Records evicted because the bounded buffers overflowed.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The aggregated metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The aggregated metrics, mutably (percentile queries need `&mut`).
    /// Add to the registry, never replace it: the hub holds ids of series
    /// it has resolved in it.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Borrows the retained spans and instants in export order — spans by
    /// `(start, id)`, instants by timestamp. What every exporter renders
    /// from; fleet exports take one such view per instance hub and hand
    /// them to [`perfetto::render_processes`] as one pid-track each.
    pub fn sorted_records(&self) -> (Vec<&SpanRecord>, Vec<&InstantRecord>) {
        let mut instants: Vec<&InstantRecord> = self.instants.iter().collect();
        instants.sort_by_key(|i| i.at);
        (self.sorted_spans(), instants)
    }

    fn sorted_spans(&self) -> Vec<&SpanRecord> {
        let mut spans: Vec<&SpanRecord> = self.finished.iter().collect();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Renders retained spans and instants as Chrome trace-event JSON
    /// (loads in Perfetto / `chrome://tracing`): one track per component,
    /// recovery phases as nested slices, instants as thread-scoped points.
    pub fn chrome_trace_json(&self) -> String {
        let (spans, instants) = self.sorted_records();
        perfetto::chrome_trace(&spans, &instants)
    }

    /// Clones the retained spans in export order, for consumers that
    /// outlive the hub borrow ([`crate::analyze()`] input, chaos forensics).
    pub fn export_spans(&self) -> Vec<SpanRecord> {
        self.sorted_spans().into_iter().cloned().collect()
    }

    /// Renders the metrics as Prometheus text exposition.
    pub fn prometheus_text(&mut self) -> String {
        crate::prometheus::render(&mut self.metrics)
    }

    /// Renders the metrics as a deterministic JSON dump.
    pub fn metrics_json(&mut self) -> String {
        self.metrics.to_json()
    }

    /// The last `n` finished spans matching `keep`, ordered by
    /// `(start, id)`. Nesting depth is computed against *all* retained
    /// spans, so a filtered dump keeps the nesting of the full trace
    /// (ancestors evicted from the bounded buffer stop the depth walk).
    /// Chaos replays print the runtime span tail and the journey tail
    /// separately with it.
    pub fn tail_where(&self, n: usize, keep: impl Fn(&SpanRecord) -> bool) -> Vec<SpanDump> {
        let mut sorted: Vec<&SpanRecord> = self.finished.iter().filter(|s| keep(s)).collect();
        sorted.sort_by_key(|s| (s.start, s.id));
        let parents: BTreeMap<u64, Option<u64>> =
            self.finished.iter().map(|s| (s.id, s.parent())).collect();
        let skip = sorted.len().saturating_sub(n);
        sorted
            .into_iter()
            .skip(skip)
            .map(|s| {
                let mut depth = 0u32;
                let mut cursor = s.parent();
                while let Some(id) = cursor {
                    depth += 1;
                    cursor = parents.get(&id).copied().flatten();
                }
                SpanDump {
                    track: s.track.to_string(),
                    name: s.name.to_string(),
                    start_ns: s.start.as_nanos(),
                    dur_ns: s.duration().as_nanos(),
                    depth,
                }
            })
            .collect()
    }

    fn innermost_recovery(&self) -> Option<(u64, NameId)> {
        self.open
            .iter()
            .rev()
            .find(|s| s.kind == SpanKind::Recovery)
            .map(|s| (s.id, s.track))
    }

    /// All track names referenced by retained spans and instants, sorted.
    pub fn tracks(&self) -> BTreeSet<String> {
        let mut tracks: BTreeSet<String> = BTreeSet::new();
        for s in &self.finished {
            tracks.insert(s.track.to_string());
        }
        for i in &self.instants {
            tracks.insert(i.track.to_string());
        }
        tracks
    }
}

impl Collector for TelemetryHub {
    fn call_begin(&mut self, caller: &Name, target: &Name, func: &Name, at: Nanos) {
        let track = self.names.intern_name(target);
        let name = self.names.intern_name(func);
        let caller_id = self.names.intern_name(caller);
        let attrs = self.names.caller_attrs(caller_id);
        self.open_span(track, name, SpanKind::Call, at, attrs);
        let (caller, target) = (caller.as_str(), target.as_str());
        let metrics = &mut self.metrics;
        let calls_in = *self.names.series[track].calls_in.get_or_insert_with(|| {
            metrics.counter(
                "vampos_calls_total",
                &[("component", target), ("direction", "in")],
            )
        });
        metrics.add(calls_in, 1);
        let calls_out = *self.names.series[caller_id]
            .calls_out
            .get_or_insert_with(|| {
                metrics.counter(
                    "vampos_calls_total",
                    &[("component", caller), ("direction", "out")],
                )
            });
        metrics.add(calls_out, 1);
    }

    fn call_end(&mut self, at: Nanos, ok: bool) {
        if let Some(span) = self.close_span(SpanKind::Call, at) {
            let component = self.names.strings[span.track].as_str();
            let metrics = &mut self.metrics;
            let latency = *self.names.series[span.track]
                .call_latency
                .get_or_insert_with(|| {
                    metrics.histogram("vampos_call_latency_us", &[("component", component)])
                });
            metrics.record(latency, span.duration);
            if !ok {
                self.metrics.counter_add(
                    "vampos_call_errors_total",
                    &[("component", component)],
                    1,
                );
            }
        }
    }

    fn syscall_begin(&mut self, func: &str, at: Nanos) {
        let track = self.names.intern("app");
        let name = self.names.intern(func);
        self.open_span(track, name, SpanKind::Syscall, at, Attrs::default());
        let metrics = &mut self.metrics;
        let syscalls = *self.names.series[name]
            .syscalls
            .get_or_insert_with(|| metrics.counter("vampos_syscalls_total", &[("func", func)]));
        metrics.add(syscalls, 1);
    }

    fn syscall_end(&mut self, at: Nanos, ok: bool) {
        if let Some(span) = self.close_span(SpanKind::Syscall, at) {
            let func = self.names.strings[span.name].as_str();
            let metrics = &mut self.metrics;
            let latency = *self.names.series[span.name]
                .syscall_latency
                .get_or_insert_with(|| {
                    metrics.histogram("vampos_syscall_latency_us", &[("func", func)])
                });
            metrics.record(latency, span.duration);
            if !ok {
                self.metrics
                    .counter_add("vampos_syscall_errors_total", &[("func", func)], 1);
            }
        }
    }

    fn recovery_begin(&mut self, component: &Name, trigger: &str, at: Nanos) {
        let track = self.names.intern(component);
        let name = self.names.intern("recovery");
        self.open_span(
            track,
            name,
            SpanKind::Recovery,
            at,
            Attrs::from([("trigger", trigger.to_owned().into())]),
        );
    }

    fn recovery_phase(&mut self, member: &str, phase: RecoveryPhase, start: Nanos, end: Nanos) {
        let (parent, track) = match self.innermost_recovery() {
            Some((id, track)) => (id, track),
            None => (NO_PARENT, self.names.intern(member)),
        };
        let id = self.next_id;
        self.next_id += 1;
        let name = self.names.shared(phase.name());
        self.push_finished(SpanRecord {
            id,
            parent,
            track: self.names.get(track),
            name,
            kind: SpanKind::Phase,
            start,
            end: end.max(start),
            attrs: Attrs::from([("member", member.to_owned().into())]),
        });
        self.metrics.observe(
            "vampos_recovery_phase_us",
            &[("component", member), ("phase", phase.name())],
            end.saturating_sub(start),
        );
    }

    fn recovery_end(&mut self, component: &Name, at: Nanos, replayed: usize, snap_bytes: usize) {
        let component = component.as_str();
        if let Some(span) = self.close_span(SpanKind::Recovery, at) {
            self.extend_last([
                ("replayed", AttrValue::U64(replayed as u64)),
                ("snapshot_bytes", AttrValue::U64(snap_bytes as u64)),
            ]);
            self.metrics.counter_add(
                "vampos_component_reboots_total",
                &[("component", component)],
                1,
            );
            self.metrics.counter_add(
                "vampos_replayed_entries_total",
                &[("component", component)],
                replayed as u64,
            );
            self.metrics.counter_add(
                "vampos_snapshot_restored_bytes_total",
                &[("component", component)],
                snap_bytes as u64,
            );
            self.metrics.observe(
                "vampos_recovery_downtime_us",
                &[("component", component)],
                span.duration,
            );
        }
    }

    fn recovery_abort(&mut self, component: &str, at: Nanos, error: &str) {
        if self.close_span(SpanKind::Recovery, at).is_some() {
            self.extend_last([("error", error.to_owned().into())]);
            self.metrics.counter_add(
                "vampos_recovery_aborts_total",
                &[("component", component)],
                1,
            );
        }
    }

    fn failure_detected(&mut self, component: &Name, kind: &str, at: Nanos) {
        let component = component.as_str();
        let track = self.names.intern(component);
        let name = self.names.shared("failure_detected");
        self.attach_instant(
            track,
            name,
            at,
            Attrs::from([("kind", kind.to_owned().into())]),
        );
        self.metrics.counter_add(
            "vampos_failures_total",
            &[("component", component), ("kind", kind)],
            1,
        );
    }

    fn mpk_violation(&mut self, component: &Name, region_owner: &Name, at: Nanos) {
        let component = component.as_str();
        let track = self.names.intern(component);
        let name = self.names.shared("mpk_denial");
        self.attach_instant(
            track,
            name,
            at,
            Attrs::from([("region_owner", region_owner.to_string().into())]),
        );
        self.metrics
            .counter_add("vampos_mpk_denials_total", &[("component", component)], 1);
    }

    fn log_shrunk(&mut self, component: &Name, removed: usize, at: Nanos) {
        let component = component.as_str();
        let track = self.names.intern(component);
        let name = self.names.shared("log_shrunk");
        self.attach_instant(
            track,
            name,
            at,
            Attrs::from([("removed", AttrValue::U64(removed as u64))]),
        );
        let metrics = &mut self.metrics;
        let shrunk = *self.names.series[track].log_shrunk.get_or_insert_with(|| {
            metrics.counter(
                "vampos_log_shrunk_entries_total",
                &[("component", component)],
            )
        });
        metrics.add(shrunk, removed as u64);
    }

    fn log_stats(&mut self, component: &str, live_bytes: usize, live_records: usize) {
        let id = self.names.intern_borrowed(component);
        let metrics = &mut self.metrics;
        let series = &mut self.names.series[id];
        let bytes = *series.log_bytes.get_or_insert_with(|| {
            metrics.gauge("vampos_log_bytes_live", &[("component", component)])
        });
        metrics.set(bytes, live_bytes as u64);
        let records = *series.log_records.get_or_insert_with(|| {
            metrics.gauge("vampos_log_records_live", &[("component", component)])
        });
        metrics.set(records, live_records as u64);
    }

    fn full_reboot(&mut self, start: Nanos, end: Nanos, connections_reset: u64) {
        self.push_span(
            "*",
            "full_reboot",
            SpanKind::Recovery,
            start,
            end,
            None,
            [("connections_reset", AttrValue::U64(connections_reset))],
        );
        self.metrics
            .counter_add("vampos_full_reboots_total", &[], 1);
        self.metrics
            .counter_add("vampos_connections_reset_total", &[], connections_reset);
        self.metrics.observe(
            "vampos_recovery_downtime_us",
            &[("component", "*")],
            end.saturating_sub(start),
        );
    }

    fn instant(&mut self, track: &str, name: &str, detail: fmt::Arguments<'_>, at: Nanos) {
        let track = self.names.intern_borrowed(track);
        let name = self.names.intern(name);
        let attrs = self.details.attrs(track, name, detail);
        self.attach_instant(track, self.names.get(name), at, attrs);
    }

    fn note(&mut self, text: &str, at: Nanos) {
        // Free-form text: interning it would grow the table without bound.
        let track = self.names.intern("system");
        self.attach_instant(track, ThinName::from(text), at, Attrs::default());
    }
}

/// A cloneable, shared handle to a [`TelemetryHub`].
///
/// The runtime stores one of these (when telemetry is enabled) and calls
/// [`TelemetrySink::with`] to emit; harnesses keep a clone to export after
/// the run. Like [`vampos_sim::SimClock`], the sink is `!Send` — the whole
/// simulation is single-threaded by construction.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    hub: Rc<RefCell<TelemetryHub>>,
}

impl TelemetrySink {
    /// Creates a sink over a fresh, empty hub.
    pub fn new() -> Self {
        TelemetrySink::default()
    }

    /// Runs `f` with exclusive access to the hub.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from inside another `with` closure.
    pub fn with<R>(&self, f: impl FnOnce(&mut TelemetryHub) -> R) -> R {
        f(&mut self.hub.borrow_mut())
    }

    /// Borrows the hub for as long as the guard lives: exporters render
    /// several hubs' records in one document without copying them.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a [`TelemetrySink::with`] closure.
    pub fn hub(&self) -> Ref<'_, TelemetryHub> {
        self.hub.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Nanos {
        Nanos::from_nanos(n)
    }

    fn n(s: &str) -> Name {
        Name::from(s)
    }

    #[test]
    fn call_spans_nest_and_record_latency() {
        let mut hub = TelemetryHub::new();
        hub.call_begin(&n("app"), &n("9pfs"), &n("read"), ns(100));
        hub.call_begin(&n("9pfs"), &n("virtio"), &n("ninep"), ns(150));
        hub.call_end(ns(180), true);
        hub.call_end(ns(250), true);
        let spans: Vec<&SpanRecord> = hub.spans().collect();
        assert_eq!(spans.len(), 2);
        // Inner span finishes first.
        assert_eq!(&*spans[0].track, "virtio");
        assert_eq!(spans[0].parent(), Some(spans[1].id));
        assert_eq!(&*spans[1].track, "9pfs");
        assert_eq!(spans[1].parent(), None);
        assert_eq!(spans[1].duration(), ns(150));
        assert_eq!(hub.open_spans(), 0);
    }

    #[test]
    fn recovery_spans_carry_phases_and_outcome_attrs() {
        let mut hub = TelemetryHub::new();
        hub.recovery_begin(&n("9pfs"), "panic", ns(1_000));
        hub.recovery_phase("9pfs", RecoveryPhase::FailureDetect, ns(1_000), ns(1_200));
        hub.recovery_phase(
            "9pfs",
            RecoveryPhase::CheckpointRestore,
            ns(1_200),
            ns(1_500),
        );
        hub.recovery_phase("9pfs", RecoveryPhase::LogReplay, ns(1_500), ns(2_000));
        hub.recovery_phase("9pfs", RecoveryPhase::Resume, ns(2_000), ns(2_100));
        hub.recovery_end(&n("9pfs"), ns(2_100), 7, 4096);
        let spans: Vec<&SpanRecord> = hub.spans().collect();
        assert_eq!(spans.len(), 5);
        let recovery = spans.iter().find(|s| s.kind == SpanKind::Recovery).unwrap();
        assert_eq!(&*recovery.name, "recovery");
        assert!(recovery
            .attrs
            .contains(&("trigger", "panic".to_owned().into())));
        assert!(recovery
            .attrs
            .contains(&("replayed", "7".to_owned().into())));
        for phase in spans.iter().filter(|s| s.kind == SpanKind::Phase) {
            assert_eq!(phase.parent(), Some(recovery.id));
            assert_eq!(&*phase.track, "9pfs");
        }
    }

    #[test]
    fn instants_attach_to_the_innermost_open_span() {
        let mut hub = TelemetryHub::new();
        hub.mpk_violation(&n("lwip"), &n("9pfs"), ns(5));
        hub.call_begin(&n("app"), &n("lwip"), &n("send"), ns(10));
        hub.failure_detected(&n("lwip"), "panic", ns(20));
        hub.call_end(ns(30), false);
        let instants: Vec<&InstantRecord> = hub.instants().collect();
        assert_eq!(instants[0].parent(), None);
        assert!(instants[1].parent().is_some());
        let errors = hub
            .metrics()
            .counter_value("vampos_call_errors_total", &[("component", "lwip")]);
        assert_eq!(errors, Some(1));
    }

    #[test]
    fn tail_orders_by_start_and_computes_depth() {
        let mut hub = TelemetryHub::new();
        hub.recovery_begin(&n("vfs"), "admin", ns(100));
        hub.recovery_phase("vfs", RecoveryPhase::LogReplay, ns(150), ns(180));
        hub.recovery_end(&n("vfs"), ns(200), 0, 0);
        let tail = hub.tail_where(10, |_| true);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].name, "recovery");
        assert_eq!(tail[0].depth, 0);
        assert_eq!(tail[1].name, "log_replay");
        assert_eq!(tail[1].depth, 1);
        let just_one = hub.tail_where(1, |_| true);
        assert_eq!(just_one.len(), 1);
        assert_eq!(just_one[0].name, "log_replay");
    }

    #[test]
    fn sink_is_shared_between_clones() {
        let sink = TelemetrySink::new();
        let other = sink.clone();
        sink.with(|hub| hub.note("hello", ns(1)));
        assert_eq!(other.with(|hub| hub.instants().count()), 1);
    }

    #[test]
    fn push_span_takes_explicit_parents_and_skips_the_stack() {
        let mut hub = TelemetryHub::new();
        hub.call_begin(&n("app"), &n("vfs"), &n("read"), ns(10));
        let root = hub.push_span(
            "journeys",
            "journey",
            SpanKind::Journey,
            ns(100),
            ns(200),
            None,
            [("journey", AttrValue::U64(7))],
        );
        let hop = hub.push_span(
            "journeys",
            "hop",
            SpanKind::Journey,
            ns(100),
            ns(200),
            Some(root),
            [] as [(&str, AttrValue); 0],
        );
        // The call span is still open: push_span must not disturb it.
        assert_eq!(hub.open_spans(), 1);
        hub.call_end(ns(300), true);
        let spans: Vec<&SpanRecord> = hub.spans().collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id, root);
        assert_eq!(spans[0].parent(), None);
        assert_eq!(spans[1].id, hop);
        assert_eq!(spans[1].parent(), Some(root));
        let journeys = hub.tail_where(10, |s| s.kind == SpanKind::Journey);
        assert_eq!(journeys.len(), 2);
        assert_eq!(journeys[0].name, "journey");
        assert_eq!(journeys[1].depth, 1);
    }

    #[test]
    fn evictions_surface_as_a_metric() {
        let mut hub = TelemetryHub::new();
        for i in 0..(super::SPAN_CAPACITY as u64 + 3) {
            hub.push_span(
                "t",
                "s",
                SpanKind::Journey,
                ns(i),
                ns(i + 1),
                None,
                [] as [(&str, AttrValue); 0],
            );
        }
        assert_eq!(hub.evicted(), 3);
        assert_eq!(
            hub.metrics()
                .counter_value("vampos_telemetry_evicted_total", &[]),
            Some(3)
        );
    }

    #[test]
    fn full_reboot_records_a_star_track_span() {
        let mut hub = TelemetryHub::new();
        hub.full_reboot(ns(0), ns(5_000), 3);
        let spans: Vec<&SpanRecord> = hub.spans().collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(&*spans[0].track, "*");
        assert_eq!(&*spans[0].name, "full_reboot");
        assert_eq!(
            hub.metrics()
                .counter_value("vampos_connections_reset_total", &[]),
            Some(3)
        );
    }

    #[test]
    fn records_cost_what_they_hold() {
        assert!(std::mem::size_of::<SpanRecord>() <= 64);
        assert!(std::mem::size_of::<InstantRecord>() <= 40);
        assert_eq!(std::mem::size_of::<ThinName>(), 8);
        assert_eq!(std::mem::size_of::<Attrs>(), 8);
    }

    #[test]
    fn repeated_details_share_one_list() {
        let mut hub = TelemetryHub::new();
        let details = [
            "9p 16B",
            "net-tx 284B",
            "net-rx",
            "net-rx-batch",
            "9p 4096B",
        ];
        for round in 0..3u64 {
            for (k, detail) in details.iter().enumerate() {
                let at = ns(round * 10 + k as u64);
                hub.instant("virtio", "virtio_kick", format_args!("{detail}"), at);
            }
        }
        hub.instant("virtio", "other", format_args!("9p 16B"), ns(99));
        hub.instant("virtio", "virtio_kick", format_args!(""), ns(100));
        let instants: Vec<&InstantRecord> = hub.instants().collect();
        for (k, detail) in details.iter().enumerate() {
            let first = &instants[k];
            assert_eq!(
                &*first.attrs,
                &[("detail", AttrValue::from(detail.to_string()))]
            );
            for later in [&instants[k + 5], &instants[k + 10]] {
                assert!(std::ptr::eq(first.attrs.as_ptr(), later.attrs.as_ptr()));
            }
        }
        // Another event keeps lists of its own; an empty detail keeps none.
        assert!(!std::ptr::eq(
            instants[15].attrs.as_ptr(),
            instants[0].attrs.as_ptr()
        ));
        assert_eq!(instants[15].attrs, instants[0].attrs);
        assert!(instants[16].attrs.is_empty());
    }

    #[test]
    fn detail_lists_are_bounded_per_event() {
        let mut hub = TelemetryHub::new();
        for n in 0..(RECENT_DETAILS as u64 + 1) {
            hub.instant("9pfs", "9p_rpc", format_args!("{n}"), ns(n));
        }
        // The oldest list left the table, so its detail builds a new one.
        hub.instant("9pfs", "9p_rpc", format_args!("0"), ns(100));
        let instants: Vec<&InstantRecord> = hub.instants().collect();
        let (first, last) = (instants[0], instants[RECENT_DETAILS + 1]);
        assert_eq!(first.attrs, last.attrs);
        assert!(!std::ptr::eq(first.attrs.as_ptr(), last.attrs.as_ptr()));
        assert!(hub
            .details
            .recent
            .values()
            .all(|lists| lists.len() <= RECENT_DETAILS));
    }
}
