//! A lightweight, bounded event trace.
//!
//! The VampOS runtime emits [`TraceEvent`]s for the interesting transitions
//! (message hops, reboots, detector firings, MPK violations). Tests assert on
//! the trace; the `repro` harness can dump it for debugging. The trace is a
//! bounded ring buffer so long experiments cannot exhaust memory.

use std::collections::VecDeque;

use crate::name::Name;

/// One traced simulation event.
///
/// Component identity is carried as a name rather than a typed id so that
/// this substrate crate stays independent of the component framework; the
/// names are [`Name`]s shared with the runtime's slot table, so recording
/// an event allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message hop `caller → target` for function `func`.
    MessageHop {
        /// Sending component.
        caller: Name,
        /// Receiving component.
        target: Name,
        /// Invoked interface function.
        func: Name,
    },
    /// A component reboot began.
    RebootStart {
        /// Component being rebooted.
        component: Name,
    },
    /// A component reboot finished; `replayed` log entries were replayed.
    RebootDone {
        /// Component that was rebooted.
        component: Name,
        /// Number of log entries replayed during encapsulated restoration.
        replayed: usize,
    },
    /// The failure detector flagged a component.
    FailureDetected {
        /// Component that failed.
        component: Name,
        /// Human-readable failure kind (panic / hang / mpk-violation / ...).
        kind: String,
    },
    /// An MPK access check denied an access.
    MpkViolation {
        /// Component whose thread performed the access.
        component: Name,
        /// Owner of the region that was illegally touched.
        region_owner: Name,
    },
    /// Session-aware log shrinking removed entries.
    LogShrunk {
        /// Component whose log was shrunk.
        component: Name,
        /// Entries removed by this shrink.
        removed: usize,
    },
    /// Free-form annotation (used sparingly by tests and apps).
    Note(String),
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// # Example
///
/// ```
/// use vampos_sim::{EventTrace, TraceEvent};
///
/// let mut t = EventTrace::with_capacity(2);
/// t.push(TraceEvent::Note("a".into()));
/// t.push(TraceEvent::Note("b".into()));
/// t.push(TraceEvent::Note("c".into()));
/// assert_eq!(t.len(), 2); // "a" was evicted
/// ```
#[derive(Debug, Clone)]
pub struct EventTrace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    enabled: bool,
    evicted: u64,
    suppressed: u64,
}

impl Default for EventTrace {
    fn default() -> Self {
        EventTrace::with_capacity(4096)
    }
}

impl EventTrace {
    /// Creates a trace that retains at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventTrace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            enabled: true,
            evicted: 0,
            suppressed: 0,
        }
    }

    /// Enables or disables recording. Disabled pushes are counted as
    /// suppressed.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (evicting the oldest when full).
    pub fn push(&mut self, event: TraceEvent) {
        if !self.enabled {
            self.suppressed += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(event);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of retained events evicted by ring overflow so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of pushes discarded while recording was disabled.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Total events lost for any reason: [`EventTrace::evicted`] +
    /// [`EventTrace::suppressed`]. Kept for callers that only care whether
    /// the trace is complete.
    pub fn dropped(&self) -> u64 {
        self.evicted + self.suppressed
    }

    /// Iterates retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Clears all retained events (the loss counters are kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Counts retained events matching `pred`.
    pub fn count_matching(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(s: &str) -> TraceEvent {
        TraceEvent::Note(s.to_owned())
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut t = EventTrace::default();
        t.push(note("one"));
        t.push(note("two"));
        let got: Vec<_> = t.iter().cloned().collect();
        assert_eq!(got, vec![note("one"), note("two")]);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = EventTrace::with_capacity(3);
        for i in 0..5 {
            t.push(note(&i.to_string()));
        }
        let got: Vec<_> = t.iter().cloned().collect();
        assert_eq!(got, vec![note("2"), note("3"), note("4")]);
        assert_eq!(t.evicted(), 2);
        assert_eq!(t.suppressed(), 0);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn disabled_trace_counts_suppressions() {
        let mut t = EventTrace::default();
        t.set_enabled(false);
        t.push(note("x"));
        assert!(t.is_empty());
        assert_eq!(t.suppressed(), 1);
        assert_eq!(t.evicted(), 0);
        assert_eq!(t.dropped(), 1);
        t.set_enabled(true);
        t.push(note("y"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn eviction_and_suppression_are_counted_separately() {
        let mut t = EventTrace::with_capacity(1);
        t.push(note("a"));
        t.push(note("b")); // evicts "a"
        t.set_enabled(false);
        t.push(note("c")); // suppressed
        t.push(note("d")); // suppressed
        assert_eq!(t.evicted(), 1);
        assert_eq!(t.suppressed(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn count_matching_filters() {
        let mut t = EventTrace::default();
        t.push(TraceEvent::RebootStart {
            component: "vfs".into(),
        });
        t.push(TraceEvent::RebootDone {
            component: "vfs".into(),
            replayed: 3,
        });
        t.push(note("misc"));
        let reboots = t.count_matching(|e| matches!(e, TraceEvent::RebootDone { .. }));
        assert_eq!(reboots, 1);
    }

    #[test]
    fn clear_keeps_loss_counters() {
        let mut t = EventTrace::with_capacity(1);
        t.push(note("a"));
        t.push(note("b"));
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.evicted(), 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut t = EventTrace::with_capacity(0);
        t.push(note("a"));
        assert_eq!(t.len(), 1);
    }
}
