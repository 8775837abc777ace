//! The component framework of VampOS-RS.
//!
//! Unikraft structures a unikernel as a set of components, each implementing
//! one OS function (VFS, network stack, file-system backend, …) behind a
//! well-defined interface, selected at compile time and linked with the
//! application. VampOS exploits exactly that structure: "unikernels offer
//! numerous components, and the interfaces between components are
//! well-defined" (§IV).
//!
//! This crate defines that structure for the simulation:
//!
//! * [`Value`] — the typed argument/return ABI crossing component interfaces
//!   (and therefore the unit of function-call logging),
//! * [`OsError`] — the error surface: POSIX-ish errors plus the framework's
//!   failure signals (panic, hang, protection fault, unavailable component),
//! * [`Component`] — the trait every unikernel component implements,
//!   including the hooks VampOS needs: runtime-data extraction (§V-B),
//!   session tagging for log shrinking (§V-F); every component is `Clone`,
//!   its own [`BootImage`] for checkpoint-based initialization (§V-E),
//! * [`ComponentDescriptor`] — static metadata: statefulness, dependencies
//!   (for dependency-aware scheduling), the interface table a component
//!   dispatches on ([`FnId`]; each function's [`FnDecl`], declared with
//!   [`interface!`]: logged (paper Table II), replay-safe, and its
//!   [`Session`] role), the outbound [`CallSite`]s the runtime links once
//!   (numbered by [`call_sites!`]), rebootability (VIRTIO: no),
//!   hang-detector exemption (LWIP).
//!
//! The runtime that wires components together by message passing lives in
//! `vampos-core`; applications call through it.

pub mod component;
pub mod digest;
pub mod error;
pub mod value;

pub use component::{
    BootImage, CallContext, CallSite, Component, ComponentBox, ComponentDescriptor, ComponentName,
    FnDecl, FnId, FnInfo, RuntimeData, Session, SessionEvent, TouchSynthesis,
};
pub use error::OsError;
pub use value::Value;

/// Canonical component names used across the workspace.
pub mod names {
    /// POSIX file/network API layer.
    pub const VFS: &str = "vfs";
    /// 9P file-system backend.
    pub const NINEPFS: &str = "9pfs";
    /// TCP/IP protocol stack.
    pub const LWIP: &str = "lwip";
    /// Low-level packet interface.
    pub const NETDEV: &str = "netdev";
    /// Virtio device driver (shared state with the host; unrebootable).
    pub const VIRTIO: &str = "virtio";
    /// Process-related calls (`getpid`, ...).
    pub const PROCESS: &str = "process";
    /// System information (`uname`, ...).
    pub const SYSINFO: &str = "sysinfo";
    /// User information (`getuid`, ...).
    pub const USER: &str = "user";
    /// Time-related operations.
    pub const TIMER: &str = "timer";
    /// The application pseudo-domain (for MPK tag accounting).
    pub const APP: &str = "app";
    /// The message domain (buffers + logs), isolated from components.
    pub const MSG_DOMAIN: &str = "msgdom";
    /// The thread scheduler's own domain.
    pub const SCHED: &str = "sched";
}
