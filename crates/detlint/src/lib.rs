//! # vampos-detlint — the workspace determinism linter
//!
//! Every correctness claim in this repository — chaos twin equivalence,
//! fleet same-seed diffs, seq-vs-parallel byte-identity — rests on the
//! deterministic crates executing identically for the same seed. That
//! property has historically been a *convention*, and it broke at least
//! once: MiniHttpd's `HashMap` iteration order diverged same-seed runs
//! under multi-connection polling. This crate makes "deterministic crate"
//! a *checked* property: a dependency-free, line/token-level static pass
//! over the sources of the deterministic crates that flags the constructs
//! which make same-seed runs diverge.
//!
//! ## Rules
//!
//! | Rule | Name | Catches |
//! |------|------|---------|
//! | D001 | hash-ordered-container | `std::collections::{HashMap, HashSet}`, `RandomState`, `DefaultHasher` |
//! | D002 | wall-clock | `std::time::{Instant, SystemTime}` (the virtual `SimClock` is the only clock) |
//! | D003 | ambient-nondeterminism | `thread_rng`, the `rand`/`getrandom` crates, `std::env`, `/dev/urandom` paths |
//! | D004 | thread-primitive | `std::thread`, `mpsc`, `Mutex`/`RwLock`/`Condvar`/`Barrier`, atomics |
//! | D005 | unused-allow | stale or malformed `detlint: allow` annotations |
//!
//! ## Suppression
//!
//! A finding is suppressed in-source, with a mandatory justification:
//!
//! ```text
//! use std::collections::HashMap; // detlint: allow(D001, reason = "lookup-only; iteration order never observed")
//! ```
//!
//! An annotation on its own line covers the next code-bearing line. An
//! annotation without a reason is rejected — the finding still fires and
//! the malformed annotation adds a D005. An annotation that suppresses
//! nothing is a D005 too, so the suppression set can never rot.
//!
//! ## No external parser
//!
//! The build environment is fully offline (the workspace vendors even its
//! proptest stand-in), so the scanner is hand-rolled: a
//! line-level lexer separates code from comments and string literals, a
//! small `use`-tree expander resolves imports (brace groups, `as` renames,
//! globs) to absolute paths, and rules match on resolved paths — `Arc` in
//! `std::sync` stays legal while `Mutex` next door does not, and this
//! repository's own `rng` modules never collide with the banned `rand`
//! crate.

pub mod allow;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use allow::{Allow, MalformedAllow};
pub use report::{Finding, Report, Suppressed};
pub use rules::RuleCode;
pub use scan::{lint_source, FileReport};
pub use workspace::{
    collect_files, find_workspace_root, lint_workspace, DetlintError, DETERMINISTIC_CRATES,
};
