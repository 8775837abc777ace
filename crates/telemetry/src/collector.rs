//! The [`Collector`] trait: the runtime's narration interface.
//!
//! The VampOS runtime does not know how its events are consumed. It calls
//! the domain-specific methods below at each interesting transition and the
//! collector decides what to retain: [`crate::TelemetryHub`] builds
//! timestamped span trees and metrics out of all of them.
//!
//! Every method has a no-op default so collectors implement only what they
//! can represent.

use std::fmt;

use vampos_sim::{Name, Nanos};

/// The phases a component recovery decomposes into (§V of the paper):
/// detection, checkpoint restore (§V-E), encapsulated log replay (§V-B),
/// and resumption of the component thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPhase {
    /// Failure detection: detector check + stopping the failed thread.
    FailureDetect,
    /// Restoring the boot-phase memory checkpoint.
    CheckpointRestore,
    /// Replaying the function log with downcalls answered from the log.
    LogReplay,
    /// Runtime-data restoration and thread resumption.
    Resume,
}

impl RecoveryPhase {
    /// All phases, in execution order.
    pub const ALL: [RecoveryPhase; 4] = [
        RecoveryPhase::FailureDetect,
        RecoveryPhase::CheckpointRestore,
        RecoveryPhase::LogReplay,
        RecoveryPhase::Resume,
    ];

    /// The stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::FailureDetect => "failure_detect",
            RecoveryPhase::CheckpointRestore => "checkpoint_restore",
            RecoveryPhase::LogReplay => "log_replay",
            RecoveryPhase::Resume => "resume",
        }
    }
}

/// A consumer of runtime observability events.
///
/// Span-like pairs (`call_begin`/`call_end`, `syscall_begin`/`syscall_end`,
/// `recovery_begin`/`recovery_end`-or-`recovery_abort`) are strictly LIFO:
/// the runtime's in-line recovery recurses through the failed call, so the
/// enclosing span always outlives its children. Collectors may therefore
/// keep a plain stack.
///
/// Component and function names that a collector may retain arrive as
/// [`Name`]s, so retaining one is a reference-count bump, not a copy.
pub trait Collector {
    /// A cross-component call `caller → target` for `func` began; `at` is
    /// the span start (before the request hop was charged).
    fn call_begin(&mut self, _caller: &Name, _target: &Name, _func: &Name, _at: Nanos) {}

    /// The innermost open call finished (reply hop charged, log appended).
    fn call_end(&mut self, _at: Nanos, _ok: bool) {}

    /// An application-layer syscall began.
    fn syscall_begin(&mut self, _func: &str, _at: Nanos) {}

    /// The innermost open syscall finished.
    fn syscall_end(&mut self, _at: Nanos, _ok: bool) {}

    /// A recovery of `component` (composite labels join members with `+`)
    /// began. `trigger` names the cause: `panic`, `hang`, `mpk-violation`,
    /// `admin` (explicit reboot / rejuvenation), `version-swap`, `update`.
    /// For failure-triggered recoveries `at` backdates the span to the
    /// start of detection.
    fn recovery_begin(&mut self, _component: &Name, _trigger: &str, _at: Nanos) {}

    /// One phase of the innermost open recovery covered `[start, end]` on
    /// `member` (for composites, phases repeat per member).
    fn recovery_phase(&mut self, _member: &str, _phase: RecoveryPhase, _start: Nanos, _end: Nanos) {
    }

    /// The innermost open recovery completed.
    fn recovery_end(
        &mut self,
        _component: &Name,
        _at: Nanos,
        _replayed: usize,
        _snap_bytes: usize,
    ) {
    }

    /// The innermost open recovery failed (e.g. a replay mismatch); the
    /// system is about to fail-stop or degrade.
    fn recovery_abort(&mut self, _component: &str, _at: Nanos, _error: &str) {}

    /// The failure detector flagged `component`.
    fn failure_detected(&mut self, _component: &Name, _kind: &str, _at: Nanos) {}

    /// An MPK access check denied `component` access to `region_owner`'s
    /// memory.
    fn mpk_violation(&mut self, _component: &Name, _region_owner: &Name, _at: Nanos) {}

    /// Session-aware log shrinking removed `removed` entries.
    fn log_shrunk(&mut self, _component: &Name, _removed: usize, _at: Nanos) {}

    /// The component's live log is now `live_bytes` / `live_records` large
    /// (emitted after appends and compactions; gauges, not events).
    fn log_stats(&mut self, _component: &str, _live_bytes: usize, _live_records: usize) {}

    /// A whole-application reboot covered `[start, end]`.
    fn full_reboot(&mut self, _start: Nanos, _end: Nanos, _connections_reset: u64) {}

    /// A point event on `track` (host-boundary kicks, detector probes).
    /// `detail` is formatted by the collector, if it keeps it, so a caller
    /// whose event nobody records formats nothing.
    fn instant(&mut self, _track: &str, _name: &str, _detail: fmt::Arguments<'_>, _at: Nanos) {}

    /// Free-form annotation.
    fn note(&mut self, _text: &str, _at: Nanos) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable_and_ordered() {
        let names: Vec<&str> = RecoveryPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "failure_detect",
                "checkpoint_restore",
                "log_replay",
                "resume"
            ]
        );
        assert!(RecoveryPhase::FailureDetect < RecoveryPhase::Resume);
    }
}
