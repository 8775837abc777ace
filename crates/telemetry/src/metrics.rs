//! Per-component metrics: counters, gauges, and latency histograms.
//!
//! The registry is deliberately schemaless — emission sites name the metric
//! and its labels inline, and everything lands in `BTreeMap`s so iteration
//! (and therefore every export) is in stable lexicographic order. Latency
//! observations reuse [`vampos_sim::Histogram`], the log-linear sketch from
//! the stats layer, recording **microseconds** (the convention
//! [`vampos_sim::Histogram::record_nanos`] established).

use std::collections::BTreeMap;
use std::path::Path;

use vampos_sim::{Histogram, Nanos};

use crate::text::escape;

/// A sorted list of `(label name, label value)` pairs identifying a series.
pub type LabelSet = Vec<(&'static str, String)>;

/// Help strings for every metric the runtime emits, keyed by metric name.
/// Exporters fall back to the metric name itself for unknown metrics.
pub const METRIC_HELP: &[(&str, &str)] = &[
    (
        "vampos_call_errors_total",
        "Cross-component calls that returned an error, by callee.",
    ),
    (
        "vampos_call_latency_us",
        "Cross-component call latency in virtual microseconds, by callee.",
    ),
    (
        "vampos_calls_total",
        "Cross-component calls, by component and direction (in/out).",
    ),
    (
        "vampos_component_reboots_total",
        "Completed component-level recoveries, by component.",
    ),
    (
        "vampos_connections_reset_total",
        "TCP connections reset by whole-application reboots.",
    ),
    (
        "vampos_failures_total",
        "Failure-detector firings, by component and failure kind.",
    ),
    (
        "vampos_full_reboots_total",
        "Whole-application reboots (the baseline VampOS avoids).",
    ),
    (
        "vampos_journey_latency_us",
        "End-to-end request-journey latency in virtual microseconds.",
    ),
    (
        "vampos_journey_stall_us",
        "Recovery-induced stall inside request journeys, in virtual microseconds.",
    ),
    (
        "vampos_journeys_total",
        "Request journeys completed, by outcome (ok=true/false).",
    ),
    (
        "vampos_log_bytes_live",
        "Live function-log bytes, by component.",
    ),
    (
        "vampos_log_records_live",
        "Live function-log records, by component.",
    ),
    (
        "vampos_log_shrunk_entries_total",
        "Log entries removed by session-aware shrinking, by component.",
    ),
    (
        "vampos_mesh_backend_ops_total",
        "Mesh backend maintenance operations fired, by kind.",
    ),
    (
        "vampos_mesh_hedges_total",
        "Mesh hedged requests raced against a slow replica, by stage.",
    ),
    (
        "vampos_mesh_journeys_total",
        "Mesh pipeline journeys completed, by end-to-end outcome.",
    ),
    (
        "vampos_mesh_retries_total",
        "Mesh hop retry attempts beyond the first, by stage.",
    ),
    (
        "vampos_mesh_stage_latency_us",
        "Mesh per-stage hop latency in microseconds, by stage.",
    ),
    (
        "vampos_mpk_denials_total",
        "MPK access-check denials, by offending component.",
    ),
    (
        "vampos_recovery_aborts_total",
        "Recoveries that failed (e.g. replay mismatch), by component.",
    ),
    (
        "vampos_recovery_downtime_us",
        "Recovery downtime windows in virtual microseconds, by component.",
    ),
    (
        "vampos_recovery_phase_us",
        "Recovery phase durations in virtual microseconds, by component and phase.",
    ),
    (
        "vampos_replayed_entries_total",
        "Log entries replayed during encapsulated restoration, by component.",
    ),
    (
        "vampos_snapshot_restored_bytes_total",
        "Checkpoint bytes restored during recoveries, by component.",
    ),
    (
        "vampos_syscall_errors_total",
        "Application syscalls that returned an error, by function.",
    ),
    (
        "vampos_syscall_latency_us",
        "Application syscall latency in virtual microseconds, by function.",
    ),
    (
        "vampos_syscalls_total",
        "Application syscalls, by function.",
    ),
    (
        "vampos_telemetry_evicted_total",
        "Telemetry records dropped because the bounded span/instant buffers overflowed.",
    ),
];

/// Looks up the help string for `name`, falling back to the name itself.
pub fn metric_help(name: &str) -> &str {
    METRIC_HELP
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| *h)
        .unwrap_or(name)
}

fn label_key(labels: &[(&'static str, &str)]) -> LabelSet {
    let mut key: LabelSet = labels.iter().map(|(k, v)| (*k, (*v).to_owned())).collect();
    key.sort_by(|a, b| a.0.cmp(b.0));
    key
}

/// One kind of series — counters, gauges or histograms. The ordered maps
/// are only the *index*: they fix the export order (families by name,
/// series by sorted label set) and map each series to a cell. The values
/// sit in `cells`, so a caller that resolved a series once updates it by
/// position, without building a label key or walking either map again.
///
/// Every index entry holds a distinct, valid position in `cells`, and
/// series are never removed, so a position stays valid for the registry's
/// lifetime.
#[derive(Debug, Clone)]
pub(crate) struct Series<T> {
    pub(crate) index: BTreeMap<&'static str, BTreeMap<LabelSet, usize>>,
    pub(crate) cells: Vec<T>,
}

impl<T> Default for Series<T> {
    fn default() -> Self {
        Series {
            index: BTreeMap::new(),
            cells: Vec::new(),
        }
    }
}

impl<T: Default> Series<T> {
    /// The cell of `name{labels}`, created at `T::default()` if new.
    fn resolve(&mut self, name: &'static str, labels: LabelSet) -> usize {
        let cells = &mut self.cells;
        *self
            .index
            .entry(name)
            .or_default()
            .entry(labels)
            .or_insert_with(|| {
                cells.push(T::default());
                cells.len() - 1
            })
    }

    fn get(&self, name: &str, labels: &[(&'static str, &str)]) -> Option<&T> {
        let cell = *self.index.get(name)?.get(&label_key(labels))?;
        Some(&self.cells[cell])
    }

    /// Folds every series of `other` into this one with `fold`.
    fn merge(&mut self, other: &Series<T>, fold: impl Fn(&mut T, &T)) {
        for (name, series) in &other.index {
            for (labels, &theirs) in series {
                let ours = self.resolve(name, labels.clone());
                fold(&mut self.cells[ours], &other.cells[theirs]);
            }
        }
    }
}

/// A counter series resolved by [`MetricsRegistry::counter`]. Ids are only
/// meaningful to the registry that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// A gauge series resolved by [`MetricsRegistry::gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// A histogram series resolved by [`MetricsRegistry::histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Registry of counters, gauges, and histograms in stable iteration order.
///
/// Emission sites that fire once per simulated call resolve their series
/// once ([`MetricsRegistry::counter`] and friends) and update it by id;
/// everything else names the series inline ([`MetricsRegistry::counter_add`]
/// and friends), which resolves and updates in one step. Resolving *creates*
/// the series, so resolve a series when it is first updated, not earlier:
/// a counter that never fired must stay absent from the exports.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    pub(crate) counters: Series<u64>,
    pub(crate) gauges: Series<u64>,
    pub(crate) histograms: Series<Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Resolves the counter `name{labels}`, creating it at zero.
    pub fn counter(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> CounterId {
        CounterId(self.counters.resolve(name, label_key(labels)))
    }

    /// Resolves the gauge `name{labels}`, creating it at zero.
    pub fn gauge(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> GaugeId {
        GaugeId(self.gauges.resolve(name, label_key(labels)))
    }

    /// Resolves the histogram `name{labels}`, creating it empty.
    pub fn histogram(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> HistogramId {
        HistogramId(self.histograms.resolve(name, label_key(labels)))
    }

    /// Adds `delta` to a resolved counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters.cells[id.0] += delta;
    }

    /// Sets a resolved gauge to `value`.
    pub fn set(&mut self, id: GaugeId, value: u64) {
        self.gauges.cells[id.0] = value;
    }

    /// Records a duration into a resolved histogram (as µs).
    pub fn record(&mut self, id: HistogramId, d: Nanos) {
        self.histograms.cells[id.0].record_nanos(d);
    }

    /// Adds `delta` to the counter `name{labels}` (created at zero).
    pub fn counter_add(&mut self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        let id = self.counter(name, labels);
        self.add(id, delta);
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        let id = self.gauge(name, labels);
        self.set(id, value);
    }

    /// Records a duration into the histogram `name{labels}` (as µs).
    pub fn observe(&mut self, name: &'static str, labels: &[(&'static str, &str)], d: Nanos) {
        let id = self.histogram(name, labels);
        self.record(id, d);
    }

    /// Current value of a counter series, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&'static str, &str)]) -> Option<u64> {
        self.counters.get(name, labels).copied()
    }

    /// Current value of a gauge series, if it exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&'static str, &str)]) -> Option<u64> {
        self.gauges.get(name, labels).copied()
    }

    /// Number of observations in a histogram series (0 when absent).
    pub fn histogram_len(&self, name: &str, labels: &[(&'static str, &str)]) -> usize {
        self.histograms.get(name, labels).map_or(0, Histogram::len)
    }

    /// Folds `other` into this registry: counters and gauges add (a fleet
    /// export sums per-instance totals), histograms merge sketch-exactly
    /// via [`vampos_sim::Histogram::merge`]. Both iteration orders are
    /// lexicographic, so merging is deterministic regardless of how many
    /// registries fold in.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.counters
            .merge(&other.counters, |ours, theirs| *ours += theirs);
        self.gauges
            .merge(&other.gauges, |ours, theirs| *ours += theirs);
        self.histograms.merge(&other.histograms, Histogram::merge);
    }

    /// Renders the registry in the format `path` asks for: the JSON dump
    /// of [`MetricsRegistry::to_json`] when it ends `.json`, Prometheus
    /// text exposition otherwise. Every `--metrics-out` goes through here.
    pub fn render_for(&mut self, path: &Path) -> String {
        if path.extension().is_some_and(|ext| ext == "json") {
            self.to_json()
        } else {
            crate::prometheus::render(self)
        }
    }

    /// Renders the registry as a deterministic JSON document:
    /// `{"counters": {...}, "gauges": {...}, "summaries": {...}}` with
    /// series keyed by a `k=v,k=v` label string in sorted order.
    pub fn to_json(&mut self) -> String {
        fn label_string(labels: &LabelSet) -> String {
            labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        }
        /// One `"section": {family: {series: value}}` object; `value`
        /// renders a cell.
        fn section<T>(
            out: &mut String,
            series: &mut Series<T>,
            mut value: impl FnMut(&mut T) -> String,
        ) {
            let mut first_family = true;
            for (name, family) in &series.index {
                if !first_family {
                    out.push(',');
                }
                first_family = false;
                out.push_str(&format!("\n    \"{}\": {{", escape(name)));
                let mut first = true;
                for (labels, &cell) in family {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!(
                        "\n      \"{}\": {}",
                        escape(&label_string(labels)),
                        value(&mut series.cells[cell])
                    ));
                }
                out.push_str("\n    }");
            }
        }
        let mut out = String::from("{\n  \"counters\": {");
        section(&mut out, &mut self.counters, |v| v.to_string());
        out.push_str("\n  },\n  \"gauges\": {");
        section(&mut out, &mut self.gauges, |v| v.to_string());
        out.push_str("\n  },\n  \"summaries\": {");
        section(&mut out, &mut self.histograms, |hist| {
            format!(
                "{{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                hist.len(),
                hist.mean(),
                hist.percentile(50.0),
                hist.percentile(90.0),
                hist.percentile(99.0),
                hist.max(),
            )
        });
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = MetricsRegistry::new();
        m.counter_add("vampos_calls_total", &[("component", "vfs")], 1);
        m.counter_add("vampos_calls_total", &[("component", "vfs")], 2);
        m.counter_add("vampos_calls_total", &[("component", "lwip")], 5);
        assert_eq!(
            m.counter_value("vampos_calls_total", &[("component", "vfs")]),
            Some(3)
        );
        assert_eq!(
            m.counter_value("vampos_calls_total", &[("component", "lwip")]),
            Some(5)
        );
        assert_eq!(m.counter_value("vampos_calls_total", &[]), None);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut m = MetricsRegistry::new();
        m.counter_add("x", &[("a", "1"), ("b", "2")], 1);
        m.counter_add("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(m.counter_value("x", &[("a", "1"), ("b", "2")]), Some(2));
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("vampos_log_bytes_live", &[("component", "vfs")], 100);
        m.gauge_set("vampos_log_bytes_live", &[("component", "vfs")], 40);
        assert_eq!(
            m.gauge_value("vampos_log_bytes_live", &[("component", "vfs")]),
            Some(40)
        );
    }

    #[test]
    fn observations_land_in_microseconds() {
        let mut m = MetricsRegistry::new();
        m.observe("lat", &[], Nanos::from_micros(12));
        assert_eq!(m.histogram_len("lat", &[]), 1);
        let json = m.to_json();
        assert!(json.contains("\"mean\": 12"), "json was: {json}");
    }

    #[test]
    fn json_dump_is_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.counter_add("b_total", &[("c", "x")], 2);
            m.counter_add("a_total", &[], 1);
            m.gauge_set("g", &[("c", "y")], 7);
            m.observe("h_us", &[], Nanos::from_micros(3));
            m.to_json()
        };
        assert_eq!(build(), build());
        assert!(build().find("a_total").unwrap() < build().find("b_total").unwrap());
        // Label values go through the shared escaper: short escapes for
        // tab and carriage return (no series in the tree holds either).
        let mut m = MetricsRegistry::new();
        m.counter_add("t_total", &[("c", "a\tb\r\"\u{1}")], 1);
        assert!(m.to_json().contains(r#""c=a\tb\r\"\u0001": 1"#));
    }

    #[test]
    fn the_path_picks_the_export_format() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a_total", &[], 1);
        assert_eq!(m.render_for(Path::new("out/m.json")), m.to_json());
        for prom in ["m.prom", "m.json.txt", "json", "m"] {
            let text = m.render_for(Path::new(prom));
            assert!(text.starts_with("# HELP a_total"), "{prom}: {text}");
        }
    }

    #[test]
    fn merge_adds_counters_and_gauges_and_folds_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c_total", &[("i", "0")], 2);
        a.gauge_set("g", &[], 5);
        a.observe("h_us", &[], Nanos::from_micros(10));
        let mut b = MetricsRegistry::new();
        b.counter_add("c_total", &[("i", "0")], 3);
        b.counter_add("c_total", &[("i", "1")], 1);
        b.gauge_set("g", &[], 7);
        b.observe("h_us", &[], Nanos::from_micros(30));
        a.merge(&b);
        assert_eq!(a.counter_value("c_total", &[("i", "0")]), Some(5));
        assert_eq!(a.counter_value("c_total", &[("i", "1")]), Some(1));
        assert_eq!(a.gauge_value("g", &[]), Some(12));
        assert_eq!(a.histogram_len("h_us", &[]), 2);
    }

    #[test]
    fn every_help_entry_is_sorted_and_unique() {
        for w in METRIC_HELP.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
        assert!(metric_help("vampos_calls_total").contains("calls"));
        assert_eq!(metric_help("unknown_metric"), "unknown_metric");
    }
}
