//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§VII), each returning a structured result that the `repro`
//! binary renders and the integration tests assert shape properties on.
//!
//! | Module | Reproduces |
//! |--------|------------|
//! | [`experiments::fig5`] | Fig. 5 — system-call execution times across the five configurations |
//! | [`experiments::table3`] | Table III — log space overheads per system call |
//! | [`experiments::fig6`] | Fig. 6 — component reboot times |
//! | [`experiments::fig7`] | Fig. 7 — real-world application overheads (time + memory) |
//! | [`experiments::table4`] | Table IV — throughput over log-shrink-threshold changes |
//! | [`experiments::table5`] | Table V — request successes across software rejuvenation |
//! | [`experiments::fig8`] | Fig. 8 — Redis request latency across failure recovery |
//! | [`experiments::ablations`] | design-choice ablations beyond the paper |
//!
//! Workload sizes default to the paper's parameters where tractable and are
//! uniformly scalable otherwise; every result records the parameters used.
//!
//! The crate is also where the harness code every binary links lives:
//! [`cli`] (argument cursor, exit codes, export writer), [`format`] and
//! [`parallel`].

pub mod cli;
pub mod experiments;
pub mod format;
pub mod parallel;

pub use experiments::{ablations, fig5, fig6, fig7, fig8, table3, table4, table5};
pub use parallel::parallel_map;
