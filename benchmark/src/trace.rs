//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Recorder::time`] (or an [`Recorder::enter`] / [`Recorder::exit`] pair
//! when spans nest). The stopwatch always runs, because the end-to-end
//! metrics need the elapsed times; a span is *stored* only while tracing is
//! on, so the untraced run differs from the traced one by exactly the
//! bookkeeping whose overhead `trace.overhead_ratio` reports. Spans stay in
//! memory and are written once, at the end of the run, as [`Trace::to_json`];
//! the per-layer table is computed from what [`Trace::from_json`] reads back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::surface::{parse_json, Json};

/// One timed call (or batch of `calls` identical calls) into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if the benchmark nested this one.
    pub parent: Option<usize>,
    /// Which rep of the run the span belongs to (0 = probes).
    pub rep: u32,
    /// Layer calls the span covers; per-call time is duration / calls.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been entered and not yet exited.
#[derive(Debug)]
#[must_use = "an entered span must be passed to Recorder::exit"]
pub struct Open {
    name: &'static str,
    started: Instant,
    slot: Option<usize>,
}

/// Stopwatch plus in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    rep: u32,
    /// Indices of the stored spans currently open, innermost last.
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: BTreeMap<String, u64>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            tracing,
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switches span storage on or off; the stopwatch is unaffected.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Labels the spans that follow with `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let parent = self.stack.last().copied();
        let slot = self.tracing.then(|| {
            // Reserve the slot now so children can name it as their parent.
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns: 0,
                end_ns: 0,
                parent,
                rep: self.rep,
                calls: 0,
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open {
            name,
            started: Instant::now(),
            slot,
        }
    }

    /// Closes `open`, which covered `calls` layer calls, and returns the
    /// elapsed host nanoseconds.
    pub fn exit(&mut self, open: Open, calls: u64) -> u64 {
        let ended = Instant::now();
        let elapsed = nanos(ended.duration_since(open.started));
        if let Some(slot) = open.slot {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(slot), "span {} exited out of order", open.name);
            let span = &mut self.spans[slot];
            span.start_ns = nanos(open.started.duration_since(self.epoch));
            span.end_ns = span.start_ns + elapsed;
            span.calls = calls;
        }
        elapsed
    }

    /// Times `f` as one span covering `calls` layer calls.
    pub fn time<R>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.enter(name);
        let out = f();
        let ns = self.exit(open, calls);
        (out, ns)
    }

    /// Records a deterministic count beside the spans (work done, bytes
    /// produced, ...). A later value for the same name replaces the earlier.
    pub fn count(&mut self, name: &str, value: u64) {
        if self.tracing {
            self.counts.insert(name.to_owned(), value);
        }
    }

    /// The value last recorded under `name`, if any.
    pub fn counted(&self, name: &str) -> Option<u64> {
        self.counts.get(name).copied()
    }

    pub fn into_trace(self, workload: &str, seed: u64) -> Trace {
        assert!(
            self.stack.is_empty(),
            "spans left open at the end of the run"
        );
        Trace {
            workload: workload.to_owned(),
            seed,
            spans: self.spans,
            counts: self.counts,
        }
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What a traced run leaves behind: the contents of `<workload>.trace.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    pub workload: String,
    pub seed: u64,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<String, u64>,
}

impl Trace {
    /// Per-span self time: the span's duration minus the part of its
    /// interval its direct children cover. Overlapping children are merged
    /// first, so an instant covered twice is subtracted once.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Host nanoseconds per call of every span named `name`, in span order.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .map(|s| s.duration_ns() as f64 / s.calls as f64)
            .collect()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"clock\":\"host monotonic, ns since recorder start\",\"counts\":{{",
            self.workload, self.seed
        );
        for (n, (name, value)) in self.counts.iter().enumerate() {
            let sep = if n == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{value}");
        }
        out.push_str("},\"spans\":[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { ",\n" };
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{},\"calls\":{}}}",
                span.name, span.start_ns, span.end_ns, span.rep, span.calls
            );
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<Trace, String> {
        let doc = parse_json(text)?;
        let mut counts = BTreeMap::new();
        match doc.get("counts")? {
            Json::Obj(map) => {
                for (name, value) in map {
                    counts.insert(name.clone(), value.as_u64()?);
                }
            }
            other => return Err(format!("counts is not an object: {other:?}")),
        }
        let mut spans = Vec::new();
        for item in doc.get("spans")?.as_arr()? {
            let parent = match item.get("parent")? {
                Json::Null => None,
                idx => Some(usize::try_from(idx.as_u64()?).map_err(|e| e.to_string())?),
            };
            if parent.is_some_and(|p| p >= spans.len()) {
                return Err(format!("span {} names a later parent", spans.len()));
            }
            spans.push(Span {
                name: item.get("name")?.as_str()?.to_owned(),
                start_ns: item.get("start_ns")?.as_u64()?,
                end_ns: item.get("end_ns")?.as_u64()?,
                parent,
                rep: u32::try_from(item.get("rep")?.as_u64()?).map_err(|e| e.to_string())?,
                calls: item.get("calls")?.as_u64()?,
            });
        }
        Ok(Trace {
            workload: doc.get("workload")?.as_str()?.to_owned(),
            seed: doc.get("seed")?.as_u64()?,
            spans,
            counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            rep: 1,
            calls: 1,
        }
    }

    fn trace(spans: Vec<Span>) -> Trace {
        Trace {
            workload: "t".to_owned(),
            seed: 1,
            spans,
            counts: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let t = trace(vec![
            span("rep", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ]);
        assert_eq!(t.self_times_ns(), vec![40, 12, 40, 8]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let t = trace(vec![
            span("rep", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // Entirely inside `a`: adds nothing to the covered interval.
            span("c", 20, 30, Some(0)),
        ]);
        // Children cover [10, 80) once: 70 ns, not 50 + 40 + 10.
        assert_eq!(t.self_times_ns()[0], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let t = trace(vec![
            span("rep", 10, 20, None),
            span("late", 15, 40, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 5);
    }

    #[test]
    fn recorder_nests_spans_and_stores_only_while_tracing() {
        let mut rec = Recorder::new(true);
        rec.set_rep(3);
        let outer = rec.enter("outer");
        let (value, inner_ns) = rec.time("inner", 4, || 7);
        let outer_ns = rec.exit(outer, 1);
        assert_eq!(value, 7);
        assert!(outer_ns >= inner_ns);
        rec.set_tracing(false);
        let (_, _) = rec.time("unstored", 1, || ());
        rec.count("ignored.while.off", 1);
        rec.set_tracing(true);
        rec.count("kept", 9);
        let t = rec.into_trace("w", 5);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "outer");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!((t.spans[1].rep, t.spans[1].calls), (3, 4));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.counts.get("kept"), Some(&9));
        assert_eq!(t.counts.len(), 1);
    }

    #[test]
    fn trace_file_round_trips() {
        let mut t = trace(vec![span("rep", 0, 100, None), span("a", 10, 30, Some(0))]);
        t.counts.insert("x.count".to_owned(), 42);
        let back = Trace::from_json(&t.to_json()).expect("parse");
        assert_eq!(back, t);
        assert_eq!(back.per_call_ns("a"), vec![20.0]);
    }

    #[test]
    fn malformed_trace_is_an_error_not_a_panic() {
        assert!(Trace::from_json("{\"spans\":[]}").is_err());
        let forward = "{\"workload\":\"w\",\"seed\":1,\"counts\":{},\"spans\":[\
            {\"id\":0,\"name\":\"a\",\"start_ns\":0,\"end_ns\":1,\"parent\":3,\"rep\":0,\"calls\":1}]}";
        assert!(Trace::from_json(forward).is_err());
    }
}
