//! Deterministic simulation substrate for VampOS-RS.
//!
//! The whole reproduction runs as a *discrete-cost simulation*: components
//! execute real logic (file descriptor tables, TCP state machines, function
//! logs, snapshots) on a single OS thread, while **time is virtual**. Every
//! modeled action — a message hop, a context switch, an MPK register write, a
//! snapshot restore — advances a [`SimClock`] by an amount taken from a
//! [`CostModel`].
//!
//! This crate provides the pieces that everything else builds on:
//!
//! * [`Nanos`] / [`SimClock`] — virtual time,
//! * [`SimRng`] — a deterministic, seedable random number generator,
//! * [`CostModel`] — the tunable constants of the performance model,
//! * [`Name`] — the shared string every component and function name is
//!   carried as,
//! * [`stats`] — summary statistics and histograms used by the benchmark
//!   harness.
//!
//! # Example
//!
//! ```
//! use vampos_sim::{SimClock, Nanos};
//!
//! let clock = SimClock::new();
//! clock.advance(Nanos::from_micros(3));
//! assert_eq!(clock.now().as_micros_f64(), 3.0);
//! ```

pub mod cost;
pub mod name;
pub mod rng;
pub mod stats;
pub mod time;

pub use cost::CostModel;
pub use name::Name;
pub use rng::{derive_seed, SimRng};
pub use stats::{Histogram, Summary};
pub use time::{Nanos, SimClock};
