//! Deterministic observability for VampOS-RS.
//!
//! The runtime narrates itself through the [`Collector`] trait: every
//! cross-component call and every recovery becomes a *span* with start/end
//! virtual timestamps, recoveries decompose into the paper's phases
//! (`failure_detect` → `checkpoint_restore` → `log_replay` → `resume`), and
//! MPK denials / detector firings become point events attached to the
//! enclosing span. One collector ships with the workspace, the
//! [`TelemetryHub`]: it retains structured [`SpanRecord`]s and
//! [`InstantRecord`]s, aggregates a [`MetricsRegistry`] of per-component
//! counters, gauges and histograms, and exports Chrome-trace-event JSON
//! ([`TelemetryHub::chrome_trace_json`], loads in Perfetto /
//! `chrome://tracing`), Prometheus text exposition
//! ([`TelemetryHub::prometheus_text`]) and a JSON metrics dump
//! ([`TelemetryHub::metrics_json`]).
//!
//! Everything is keyed off the simulation clock and emitted in stable
//! order, so two runs of the same seed produce **byte-identical** exports —
//! the property the chaos CI job asserts with a plain `diff`.
//!
//! # Example
//!
//! ```
//! use vampos_sim::{Name, SimClock};
//! use vampos_telemetry::{Collector, RecoveryPhase, TelemetrySink};
//!
//! let sink = TelemetrySink::default();
//! let clock = SimClock::new();
//! let ninep = Name::from("9pfs");
//! sink.with(|hub| {
//!     let t0 = clock.now();
//!     hub.recovery_begin(&ninep, "panic", t0);
//!     let t1 = clock.advance(vampos_sim::Nanos::from_micros(3));
//!     hub.recovery_phase(&ninep, RecoveryPhase::CheckpointRestore, t0, t1);
//!     hub.recovery_end(&ninep, t1, 4, 4096);
//! });
//! let trace = sink.with(|hub| hub.chrome_trace_json());
//! assert!(trace.contains("\"checkpoint_restore\""));
//! ```

#![warn(missing_docs)]

pub mod analyze;
mod collector;
mod hub;
pub mod metrics;
pub mod perfetto;
pub mod prometheus;
pub mod text;

pub use analyze::{analyze, Analysis};
pub use collector::{Collector, RecoveryPhase};
pub use hub::{
    AttrValue, InstantRecord, SpanDump, SpanKind, SpanRecord, TelemetryHub, TelemetrySink, ThinName,
};
pub use metrics::{MetricsRegistry, METRIC_HELP};
pub use prometheus::validate_exposition;
