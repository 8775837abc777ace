//! The four evaluation applications of the paper (§VI), as Rust state
//! machines over the simulated unikernel's POSIX surface:
//!
//! * [`Echo`] — "a simple server that sends the same messages received from
//!   clients" (port 7),
//! * [`MiniHttpd`] — the Nginx stand-in: a keep-alive HTTP/1.1 static file
//!   server over LWIP + VFS + 9PFS (port 80),
//! * [`MiniKv`] — the Redis stand-in: an in-memory key-value store with an
//!   optional Append-Only-File persisted through `write` + `fsync`
//!   (port 6379),
//! * [`MiniSql`] — the SQLite stand-in: an embedded relational store with a
//!   journal, issuing file I/O for every statement (no network).
//!
//! All state the applications keep lives **above** the unikernel layer, so a
//! VampOS component reboot must preserve it — that is precisely the paper's
//! claim under test. The [`App`] trait gives the workloads a uniform driver
//! interface.

pub mod echo;
pub mod httpd;
pub mod kv;
pub mod sql;

pub use echo::Echo;
pub use httpd::MiniHttpd;
pub use kv::MiniKv;
pub use sql::{MiniSql, QueryResult};

use vampos_core::System;
use vampos_ukernel::OsError;

/// A server application the workload generators can drive.
pub trait App {
    /// The application's name (matches its [`ComponentSet`]).
    ///
    /// [`ComponentSet`]: vampos_core::ComponentSet
    fn name(&self) -> &'static str;

    /// Boots the application on a freshly booted system: opens listening
    /// sockets and restores persistent state (e.g. replays an AOF).
    ///
    /// # Errors
    ///
    /// Propagates syscall failures.
    fn boot(&mut self, sys: &mut System) -> Result<(), OsError>;

    /// Discards all volatile in-memory state, as a process crash / VM
    /// restart would. Called by [`App::full_reboot`] before [`App::boot`];
    /// only state recoverable from storage may survive.
    fn crash(&mut self);

    /// Restarts the whole VM — the one recipe behind every full reboot,
    /// scheduled or escalated: [`System::full_reboot`], then
    /// [`App::crash`] and [`App::boot`]. The VM went down whether or not
    /// the restart succeeded, so the application crashes and attempts its
    /// boot regardless.
    ///
    /// # Errors
    ///
    /// The first failure, the system's before the application's.
    fn full_reboot(&mut self, sys: &mut System) -> Result<(), OsError> {
        let rebooted = sys.full_reboot().map(drop);
        self.crash();
        rebooted.and(self.boot(sys))
    }

    /// Processes all pending work (accepts connections, serves buffered
    /// requests). Returns the number of requests served this call.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered syscall failures.
    fn poll(&mut self, sys: &mut System) -> Result<usize, OsError>;

    /// A deterministic digest of the application's *logical* state — the
    /// observable the recovery-correctness oracles compare between a
    /// faulted run and its fault-free twin. Implementations must cover the
    /// state the paper claims component reboots preserve (stored key-values,
    /// table rows, request counters) and must exclude incidental runtime
    /// details (fd numbers, connection ids) that legitimately differ after
    /// a recovery. Iteration over unordered containers must be sorted so
    /// the digest is stable across processes.
    fn state_digest(&self) -> u64;
}
