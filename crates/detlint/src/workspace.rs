//! Workspace discovery and the deterministic-crate file walk.
//!
//! Determinism is a *property of specific crates*: everything reachable
//! from a same-seed run — the simulation core, the apps, the chaos and
//! fleet layers — must execute identically across processes. The crates
//! listed in [`DETERMINISTIC_CRATES`] are that set. Deliberately outside
//! it: `bench` (wall-clock timing and the scoped-thread `parallel_map`
//! live there by design), `analyze` and `detlint` (host-side tools),
//! and the vendored `proptest` stand-in.

use crate::report::Report;
use crate::scan::lint_source;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose sources must be free of same-seed-divergence hazards.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "apps",
    "chaos",
    "cluster",
    "core",
    "host",
    "mem",
    "mesh",
    "mpk",
    "oslib",
    "sim",
    "telemetry",
    "ukernel",
    "workloads",
];

/// Errors from the workspace walk.
#[derive(Debug)]
pub enum DetlintError {
    /// No workspace root found walking up from the start directory.
    NoWorkspaceRoot(PathBuf),
    /// A deterministic crate directory is missing.
    MissingCrate(String),
    /// Filesystem error reading sources.
    Io(PathBuf, io::Error),
}

impl std::fmt::Display for DetlintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetlintError::NoWorkspaceRoot(start) => write!(
                f,
                "no workspace root (Cargo.toml with [workspace]) found above {}",
                start.display()
            ),
            DetlintError::MissingCrate(name) => {
                write!(f, "deterministic crate `crates/{name}` not found")
            }
            DetlintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for DetlintError {}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every `.rs` file under the deterministic crates' `src/` and
/// `tests/` trees, sorted for deterministic scan order. Returned paths are
/// workspace-relative labels paired with absolute paths.
pub fn collect_files(root: &Path) -> Result<Vec<(String, PathBuf)>, DetlintError> {
    let mut files = Vec::new();
    for name in DETERMINISTIC_CRATES {
        let crate_dir = root.join("crates").join(name);
        if !crate_dir.is_dir() {
            return Err(DetlintError::MissingCrate((*name).to_owned()));
        }
        for sub in ["src", "tests"] {
            let dir = crate_dir.join(sub);
            if dir.is_dir() {
                walk(&dir, &mut files)?;
            }
        }
    }
    let mut labeled: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let label = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            (label, p)
        })
        .collect();
    labeled.sort();
    Ok(labeled)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), DetlintError> {
    let entries = fs::read_dir(dir).map_err(|e| DetlintError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| DetlintError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every deterministic crate under `root` and returns the merged,
/// sorted report.
pub fn lint_workspace(root: &Path) -> Result<Report, DetlintError> {
    let files = collect_files(root)?;
    let mut report = Report {
        files_scanned: files.len(),
        crates: DETERMINISTIC_CRATES
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        ..Report::default()
    };
    for (label, path) in &files {
        let source = fs::read_to_string(path).map_err(|e| DetlintError::Io(path.clone(), e))?;
        let file_report = lint_source(label, &source);
        report.findings.extend(file_report.findings);
        report.suppressed.extend(file_report.suppressed);
    }
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_crate_list_is_sorted_and_excludes_tools() {
        let mut sorted = DETERMINISTIC_CRATES.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, DETERMINISTIC_CRATES);
        for tool in ["bench", "analyze", "detlint", "proptest"] {
            assert!(!DETERMINISTIC_CRATES.contains(&tool));
        }
    }

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates").join("sim").is_dir());
    }
}
