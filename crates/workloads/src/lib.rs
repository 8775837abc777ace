//! Client-side load generators for the VampOS-RS evaluation.
//!
//! Each generator drives an application in **virtual time**: clients send
//! requests through the host network peer, the application's `poll` advances
//! the simulation clock by the modeled processing costs, and per-request
//! success/latency records accumulate in a [`LoadReport`]. Scheduled
//! *disruptions* (component reboots, full reboots, fault injections) fire at
//! their virtual timestamps, so the generators reproduce the paper's
//! rejuvenation (§VII-D) and failure-recovery (§VII-E) scenarios.
//!
//! * [`HttpLoad`] — the siege-like generator of §VII-D (N clients issuing
//!   GETs over keep-alive connections),
//! * [`KvLoad`] — the redis-benchmark-like SET workload of §VII-C plus the
//!   1-per-second GET latency probe of Fig. 8,
//! * [`SqlLoad`] — SQLite's insert workload,
//! * [`EchoLoad`] — Echo's message workload.

pub mod disruption;
pub mod echo;
pub mod http;
pub mod kv;
pub mod report;
pub mod sql;
mod wire;

pub use disruption::{Disruption, DisruptionKind, Schedule};
pub use echo::EchoLoad;
pub use http::HttpLoad;
pub use kv::{KvLoad, LatencyPoint};
pub use report::{LoadReport, RequestRecord};
pub use sql::SqlLoad;
pub use wire::{conn_dead, connect, exchange};
