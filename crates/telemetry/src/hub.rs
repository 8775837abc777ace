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
use crate::perfetto::{self, ProcessRefs, Records};
use crate::text::Digits;

/// Bound on retained finished spans, and on retained instants.
const SPAN_CAPACITY: usize = 1 << 16;

/// Detail lists a hub keeps per `(track, event)` for instants to share.
const RECENT_DETAILS: usize = 8;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// The value of a span or instant attribute: text, or a number or flag
/// kept as one until an exporter renders it. Text is a [`ThinName`], so a
/// value shared with other records (a name from the hub's string table, an
/// instance or stage label) is a reference-count bump, and every value is
/// 16 bytes. Renders — and compares — as its text: decimal digits for
/// [`AttrValue::U64`], `true`/`false` for [`AttrValue::Bool`], so `U64(10)`
/// equals `Text("10")`.
#[derive(Debug, Clone)]
pub enum AttrValue {
    /// Text, owned or shared with other records.
    Text(ThinName),
    /// An unsigned number.
    U64(u64),
    /// A flag.
    Bool(bool),
}

impl AttrValue {
    /// The text of an [`AttrValue::Text`] value; `None` for a number or a
    /// flag (render those with `Display`).
    pub fn text(&self) -> Option<&str> {
        match self {
            AttrValue::Text(s) => Some(s),
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
            AttrValue::Text(s) => f(s),
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

impl From<ThinName> for AttrValue {
    fn from(s: ThinName) -> Self {
        AttrValue::Text(s)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Text(s.into())
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Text(s.into())
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

/// A name or a text value of a record: one pointer to text that every
/// record naming it shares. A hub interns its names, so it holds one
/// allocation per distinct name however many records carry it. Derefs,
/// compares and orders as its text.
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

impl From<String> for ThinName {
    fn from(s: String) -> Self {
        ThinName(Rc::new(s.into_boxed_str()))
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

/// Where spans are recorded: the track they render on, their name and
/// their kind. A hub interns one per distinct triple (its site table), so
/// the records of one site share one allocation and a record names its
/// site with one pointer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SpanSite {
    pub(crate) track: ThinName,
    pub(crate) name: ThinName,
    pub(crate) kind: SpanKind,
}

impl SpanSite {
    #[cfg(test)]
    pub(crate) fn new(track: &str, name: &str, kind: SpanKind) -> Rc<SpanSite> {
        Rc::new(SpanSite {
            track: track.into(),
            name: name.into(),
            kind,
        })
    }
}

/// Where instants are recorded: their track and their event name; shared
/// like a [`SpanSite`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct InstantSite {
    pub(crate) track: ThinName,
    pub(crate) name: ThinName,
}

impl InstantSite {
    #[cfg(test)]
    pub(crate) fn new(track: &str, name: &str) -> Rc<InstantSite> {
        Rc::new(InstantSite {
            track: track.into(),
            name: name.into(),
        })
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
    /// Track, name and kind; read them through [`SpanRecord::track`],
    /// [`SpanRecord::name`] and [`SpanRecord::kind`].
    pub(crate) site: Rc<SpanSite>,
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

    /// Track (component) the span renders on.
    pub fn track(&self) -> &str {
        &self.site.track
    }

    /// Span name (function, `recovery`, or a recovery-phase name).
    pub fn name(&self) -> &str {
        &self.site.name
    }

    /// What the span measured.
    pub fn kind(&self) -> SpanKind {
        self.site.kind
    }

    /// Span duration.
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// A point event attached to a track (and, when one was open, a span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantRecord {
    /// Track and event name; read them through [`InstantRecord::track`]
    /// and [`InstantRecord::name`].
    pub(crate) site: Rc<InstantSite>,
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

    /// Track (component) the instant renders on.
    pub fn track(&self) -> &str {
        &self.site.track
    }

    /// Event name (e.g. `failure_detected`, `mpk_denial`).
    pub fn name(&self) -> &str {
        &self.site.name
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
/// span from the name shares: `[("caller", Text(name))]`.
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

    /// The attributes of a call span from `caller`.
    fn caller_attrs(&mut self, caller: NameId) -> Attrs {
        let strings = &self.strings;
        self.series[caller]
            .caller_attrs
            .get_or_insert_with(|| Attrs::from([("caller", strings[caller].clone().into())]))
            .clone()
    }
}

/// One `(track, event)` pair of instants: the site its records share,
/// and the detail lists recently stored for it, most recent first. A
/// detail is formatted into the hub's reused buffer, then looked up among
/// these: a repeated detail shares the list its first occurrence built and
/// allocates nothing. A pair keeps at most [`RECENT_DETAILS`] lists, so
/// the table is bounded by the configuration's names, not by the run
/// length.
#[derive(Debug)]
struct InstantSlot {
    site: Rc<InstantSite>,
    recent: Vec<Attrs>,
}

impl InstantSlot {
    fn detail(&mut self, text: &str) -> Attrs {
        let hit = self
            .recent
            .iter()
            .position(|attrs| attrs.first().is_some_and(|(_, v)| v.text() == Some(text)));
        match hit {
            Some(at) => self.recent[..=at].rotate_right(1),
            None => {
                if self.recent.len() == RECENT_DETAILS {
                    self.recent.pop();
                }
                let attrs = Attrs::from([("detail", text.into())]);
                self.recent.insert(0, attrs);
            }
        }
        self.recent[0].clone()
    }
}

/// The hub's site table: one [`SpanSite`] per `(track, name, kind)` and
/// one [`InstantSlot`] per `(track, event)`, keyed by name ids. A warm
/// event finds its site by comparing integers, never text, and allocates
/// nothing; every record of a site shares it.
#[derive(Debug, Default)]
struct Sites {
    spans: BTreeMap<(NameId, NameId, SpanKind), Rc<SpanSite>>,
    instants: BTreeMap<(NameId, NameId), InstantSlot>,
    /// [`TelemetryHub::push_span`]'s sites by the address of the literals
    /// that name them: a journey hop passes the same two literals every
    /// time, so a pointer match finds its site without looking up any
    /// text. A `'static` string is never freed, so its address names it
    /// for good.
    literals: Vec<(&'static str, &'static str, SpanKind, Rc<SpanSite>)>,
}

impl Sites {
    fn span(&mut self, names: &Names, track: NameId, name: NameId, kind: SpanKind) -> Rc<SpanSite> {
        let site = self.spans.entry((track, name, kind)).or_insert_with(|| {
            Rc::new(SpanSite {
                track: names.get(track),
                name: names.get(name),
                kind,
            })
        });
        Rc::clone(site)
    }

    fn literal(
        &mut self,
        names: &mut Names,
        track: &'static str,
        name: &'static str,
        kind: SpanKind,
    ) -> Rc<SpanSite> {
        let known = self
            .literals
            .iter()
            .find(|(t, n, k, _)| std::ptr::eq(*t, track) && std::ptr::eq(*n, name) && *k == kind);
        if let Some((.., site)) = known {
            return Rc::clone(site);
        }
        let (t, n) = (names.intern(track), names.intern(name));
        let site = self.span(names, t, n, kind);
        self.literals.push((track, name, kind, Rc::clone(&site)));
        site
    }

    fn instant(&mut self, names: &Names, track: NameId, name: NameId) -> &mut InstantSlot {
        self.instants
            .entry((track, name))
            .or_insert_with(|| InstantSlot {
                site: Rc::new(InstantSite {
                    track: names.get(track),
                    name: names.get(name),
                }),
                recent: Vec::new(),
            })
    }
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    track: NameId,
    name: NameId,
    site: Rc<SpanSite>,
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
    sites: Sites,
    /// The buffer [`Collector::instant`] formats a detail into.
    detail: String,
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
    /// Returns the new span's id, for parenting follow-up spans. `track`
    /// and `name` are literals, found by address in the site table. `attrs`
    /// is any list of values an [`AttrValue`] converts from: an array of
    /// typed values, or a `Vec` of formatted `String`s.
    #[allow(clippy::too_many_arguments)]
    pub fn push_span<V: Into<AttrValue>>(
        &mut self,
        track: &'static str,
        name: &'static str,
        kind: SpanKind,
        start: Nanos,
        end: Nanos,
        parent: Option<u64>,
        attrs: impl IntoIterator<Item = (&'static str, V)>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let site = self.sites.literal(&mut self.names, track, name, kind);
        self.push_finished(SpanRecord {
            id,
            parent: parent_id(parent),
            site,
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
        let site = self.sites.span(&self.names, track, name, kind);
        self.open.push(OpenSpan {
            id,
            parent,
            track,
            name,
            site,
            start,
            attrs,
        });
    }

    /// Pops the innermost open span and stores its record; `*_end` callers
    /// that enrich the record reach it through `finished.back_mut()`.
    fn close_span(&mut self, expected: SpanKind, end: Nanos) -> Option<Closed> {
        let span = self.open.pop()?;
        debug_assert_eq!(
            span.site.kind, expected,
            "unbalanced span stack: closing {:?} but innermost open is {} ({:?})",
            expected, span.site.name, span.site.kind
        );
        let end = end.max(span.start);
        let record = SpanRecord {
            id: span.id,
            parent: span.parent,
            site: span.site,
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

    fn attach_instant(&mut self, site: Rc<InstantSite>, at: Nanos, attrs: Attrs) {
        let parent = self.open.last().map_or(NO_PARENT, |s| s.id);
        self.push_instant(InstantRecord {
            site,
            at,
            parent,
            attrs,
        });
    }

    /// [`TelemetryHub::attach_instant`] at the site of `(track, event)`.
    fn attach_at(&mut self, track: NameId, event: &str, at: Nanos, attrs: Attrs) {
        let event = self.names.intern(event);
        let site = Rc::clone(&self.sites.instant(&self.names, track, event).site);
        self.attach_instant(site, at, attrs);
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

    /// Borrows the retained spans and instants as one process of a Chrome
    /// trace: what every exporter renders from. Fleet exports take one per
    /// instance hub and hand them to [`perfetto::render_processes`], which
    /// sorts each in its turn.
    pub fn process<'a>(&'a self, pid: u64, name: Option<&'a str>) -> ProcessRefs<'a> {
        ProcessRefs {
            pid,
            name,
            spans: Records::from(&self.finished),
            instants: Records::from(&self.instants),
        }
    }

    /// Renders retained spans and instants as Chrome trace-event JSON
    /// (loads in Perfetto / `chrome://tracing`): one track per component,
    /// recovery phases as nested slices, instants as thread-scoped points.
    pub fn chrome_trace_json(&self) -> String {
        perfetto::render_processes(&[self.process(1, None)])
    }

    /// Clones the retained spans in export order, for consumers that
    /// outlive the hub borrow ([`crate::analyze()`] input, chaos forensics).
    pub fn export_spans(&self) -> Vec<SpanRecord> {
        let spans = Records::from(&self.finished).sorted();
        spans.into_iter().cloned().collect()
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
                    track: s.track().to_string(),
                    name: s.name().to_string(),
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
            .find(|s| s.site.kind == SpanKind::Recovery)
            .map(|s| (s.id, s.track))
    }

    /// All track names referenced by retained spans and instants, sorted.
    pub fn tracks(&self) -> BTreeSet<String> {
        let mut tracks: BTreeSet<String> = BTreeSet::new();
        for s in &self.finished {
            tracks.insert(s.track().to_string());
        }
        for i in &self.instants {
            tracks.insert(i.track().to_string());
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
            Attrs::from([("trigger", trigger.into())]),
        );
    }

    fn recovery_phase(&mut self, member: &str, phase: RecoveryPhase, start: Nanos, end: Nanos) {
        let (parent, track) = match self.innermost_recovery() {
            Some((id, track)) => (id, track),
            None => (NO_PARENT, self.names.intern(member)),
        };
        let id = self.next_id;
        self.next_id += 1;
        let name = self.names.intern(phase.name());
        let site = self.sites.span(&self.names, track, name, SpanKind::Phase);
        self.push_finished(SpanRecord {
            id,
            parent,
            site,
            start,
            end: end.max(start),
            attrs: Attrs::from([("member", member.into())]),
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
            self.extend_last([("error", error.into())]);
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
        self.attach_at(
            track,
            "failure_detected",
            at,
            Attrs::from([("kind", kind.into())]),
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
        self.attach_at(
            track,
            "mpk_denial",
            at,
            Attrs::from([("region_owner", region_owner.as_str().into())]),
        );
        self.metrics
            .counter_add("vampos_mpk_denials_total", &[("component", component)], 1);
    }

    fn log_shrunk(&mut self, component: &Name, removed: usize, at: Nanos) {
        let component = component.as_str();
        let track = self.names.intern(component);
        self.attach_at(
            track,
            "log_shrunk",
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
        self.detail.clear();
        // Writing into a `String` fails only if a `Display` impl does.
        let _ = self.detail.write_fmt(detail);
        let slot = self.sites.instant(&self.names, track, name);
        let attrs = if self.detail.is_empty() {
            Attrs::default()
        } else {
            slot.detail(&self.detail)
        };
        let site = Rc::clone(&slot.site);
        self.attach_instant(site, at, attrs);
    }

    fn note(&mut self, text: &str, at: Nanos) {
        // Free-form text: interning it would grow the tables without bound.
        let track = self.names.intern("system");
        let site = InstantSite {
            track: self.names.get(track),
            name: ThinName::from(text),
        };
        self.attach_instant(Rc::new(site), at, Attrs::default());
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
        assert_eq!(spans[0].track(), "virtio");
        assert_eq!(spans[0].parent(), Some(spans[1].id));
        assert_eq!(spans[1].track(), "9pfs");
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
        let recovery = spans
            .iter()
            .find(|s| s.kind() == SpanKind::Recovery)
            .unwrap();
        assert_eq!(recovery.name(), "recovery");
        assert!(recovery
            .attrs
            .contains(&("trigger", "panic".to_owned().into())));
        assert!(recovery
            .attrs
            .contains(&("replayed", "7".to_owned().into())));
        for phase in spans.iter().filter(|s| s.kind() == SpanKind::Phase) {
            assert_eq!(phase.parent(), Some(recovery.id));
            assert_eq!(phase.track(), "9pfs");
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
        let journeys = hub.tail_where(10, |s| s.kind() == SpanKind::Journey);
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
        assert_eq!(spans[0].track(), "*");
        assert_eq!(spans[0].name(), "full_reboot");
        assert_eq!(
            hub.metrics()
                .counter_value("vampos_connections_reset_total", &[]),
            Some(3)
        );
    }

    #[test]
    fn records_cost_what_they_hold() {
        assert!(std::mem::size_of::<SpanRecord>() <= 48);
        assert!(std::mem::size_of::<InstantRecord>() <= 32);
        assert_eq!(std::mem::size_of::<AttrValue>(), 16);
        assert_eq!(std::mem::size_of::<Attr>(), 32);
        assert_eq!(std::mem::size_of::<ThinName>(), 8);
        assert_eq!(std::mem::size_of::<Attrs>(), 8);
    }

    #[test]
    fn a_repeated_site_shares_one_handle() {
        let mut hub = TelemetryHub::new();
        let (app, vfs, ninep) = (n("app"), n("vfs"), n("9pfs"));
        for round in 0..2 {
            let at = ns(round * 100);
            // The same name on two tracks.
            hub.call_begin(&app, &vfs, &n("read"), at);
            hub.call_end(at + ns(10), true);
            hub.call_begin(&app, &ninep, &n("read"), at + ns(20));
            hub.call_end(at + ns(30), true);
            // The same track and name under two kinds.
            hub.syscall_begin("read", at + ns(40));
            hub.syscall_end(at + ns(50), true);
            hub.call_begin(&vfs, &n("app"), &n("read"), at + ns(60));
            hub.call_end(at + ns(70), true);
            // Journey spans, and instants.
            let root = hub.push_span(
                "journeys",
                "journey",
                SpanKind::Journey,
                at,
                at + ns(80),
                None,
                [("journey", AttrValue::U64(round))],
            );
            hub.push_span(
                "journeys",
                "hop",
                SpanKind::Journey,
                at,
                at + ns(80),
                Some(root),
                [("journey", AttrValue::U64(round))],
            );
            hub.instant("virtio", "virtio_kick", format_args!("9p"), at);
            hub.failure_detected(&vfs, "panic", at);
        }
        let spans: Vec<&SpanRecord> = hub.spans().collect();
        let expected = [
            ("vfs", "read", SpanKind::Call),
            ("9pfs", "read", SpanKind::Call),
            ("app", "read", SpanKind::Syscall),
            ("app", "read", SpanKind::Call),
            ("journeys", "journey", SpanKind::Journey),
            ("journeys", "hop", SpanKind::Journey),
        ];
        assert_eq!(spans.len(), 2 * expected.len());
        for (k, (track, name, kind)) in expected.into_iter().enumerate() {
            let (first, again) = (spans[k], spans[k + expected.len()]);
            assert_eq!(
                (first.track(), first.name(), first.kind()),
                (track, name, kind)
            );
            assert!(Rc::ptr_eq(&first.site, &again.site), "{track}/{name}");
            for other in &spans[..k] {
                assert!(!Rc::ptr_eq(&first.site, &other.site), "{track}/{name}");
            }
        }
        // Sites share their names with the hub's string table.
        assert!(std::ptr::eq(spans[0].name(), spans[1].name()));
        let instants: Vec<&InstantRecord> = hub.instants().collect();
        assert_eq!(
            (instants[0].track(), instants[0].name()),
            ("virtio", "virtio_kick")
        );
        assert_eq!(
            (instants[1].track(), instants[1].name()),
            ("vfs", "failure_detected")
        );
        assert!(Rc::ptr_eq(&instants[0].site, &instants[2].site));
        assert!(Rc::ptr_eq(&instants[1].site, &instants[3].site));
        assert!(!Rc::ptr_eq(&instants[0].site, &instants[1].site));
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
            .sites
            .instants
            .values()
            .all(|slot| slot.recent.len() <= RECENT_DETAILS));
    }
}
