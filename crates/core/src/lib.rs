//! The VampOS runtime — the paper's primary contribution, rebuilt in Rust.
//!
//! VampOS (Wada & Yamada, DSN 2024) performs **reboot-based recovery of a
//! unikernel at the component level**: components interact by message
//! passing so one can be stopped alone (§V-A); each component's memory is an
//! MPK protection domain so errors do not propagate (§V-D); function calls
//! into stateful components are logged together with the return values of
//! their downcalls (§V-B); a reboot restores the boot-phase checkpoint
//! (§V-E) and replays the log *encapsulated* — downcalls answered from the
//! log, so running components are untouched; dependency-aware scheduling
//! (§V-C), component merging and session-aware log shrinking (§V-F) keep
//! the overheads down.
//!
//! The entry point is [`System`]:
//!
//! ```
//! use vampos_core::{ComponentSet, InjectedFault, Mode, System};
//!
//! let mut sys = System::builder()
//!     .mode(Mode::vampos_das())
//!     .components(ComponentSet::sqlite())
//!     .build()?;
//!
//! // Inject a fail-stop fault into 9PFS; the next file operation hits it,
//! // VampOS reboots just that component, restores it by replaying the log,
//! // and re-executes the in-flight call — the application never notices.
//! sys.inject_fault(InjectedFault::panic_next("9pfs"));
//! let fd = sys.os().create("/data.db")?;
//! assert_eq!(sys.stats().component_reboots, 1);
//! # let _ = fd;
//! # Ok::<(), vampos_ukernel::OsError>(())
//! ```

pub mod analysis;
pub mod config;
pub mod faults;
pub mod funclog;
pub mod image;
pub mod os;
pub mod reboot;
pub mod resilience;
pub mod runtime;
pub mod stats;

pub use analysis::analyze_configuration;
pub use config::{ComponentSet, Mode, SchedulerKind, VampConfig};
pub use faults::{FaultKind, InjectedFault};
pub use funclog::{DownRec, FunctionLog, LogEntry};
pub use image::Image;
pub use os::{Os, Whence};
pub use reboot::{FullRebootOutcome, RebootOutcome};
pub use resilience::AgingEntry;
pub use runtime::{MemoryReport, System, SystemBuilder};
pub use stats::{ComponentCounters, DowntimeWindow, SystemStats};
pub use vampos_telemetry::{
    Collector, RecoveryPhase, SpanDump, SpanKind, SpanRecord, TelemetryHub, TelemetrySink,
};
