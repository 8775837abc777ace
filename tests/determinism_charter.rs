//! The determinism charter's tier-1 gate.
//!
//! `clippy.toml` states the charter (DESIGN §14) and CI's clippy step
//! enforces it on every crate; clippy is not part of `cargo test`, so this
//! holds the two edits that would disarm it without touching a line clippy
//! checks: dropping an entry from `clippy.toml`, and opting a fourth site
//! out of the lints.

use std::collections::BTreeMap;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every path the charter bans, by rule.
const CHARTER: [(&str, &[&str]); 4] = [
    (
        "D001",
        &[
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState",
            "std::hash::DefaultHasher",
        ],
    ),
    ("D002", &["std::time::Instant", "std::time::SystemTime"]),
    (
        "D003",
        &[
            "std::env::var",
            "std::env::var_os",
            "std::env::vars",
            "std::env::vars_os",
            "std::env::args",
            "std::env::args_os",
            "std::env::current_dir",
            "std::env::current_exe",
            "std::env::temp_dir",
        ],
    ),
    (
        "D004",
        &[
            "std::thread::spawn",
            "std::thread::scope",
            "std::thread::sleep",
            "std::thread::yield_now",
            "std::thread::park",
            "std::thread::current",
            "std::thread::available_parallelism",
            "std::thread::Builder",
            "std::thread::JoinHandle",
            "std::sync::mpsc::channel",
            "std::sync::mpsc::sync_channel",
            "std::sync::mpsc::Sender",
            "std::sync::mpsc::SyncSender",
            "std::sync::mpsc::Receiver",
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
            "std::sync::Barrier",
            "std::sync::atomic::fence",
            "std::sync::atomic::AtomicBool",
            "std::sync::atomic::AtomicI8",
            "std::sync::atomic::AtomicI16",
            "std::sync::atomic::AtomicI32",
            "std::sync::atomic::AtomicI64",
            "std::sync::atomic::AtomicIsize",
            "std::sync::atomic::AtomicU8",
            "std::sync::atomic::AtomicU16",
            "std::sync::atomic::AtomicU32",
            "std::sync::atomic::AtomicU64",
            "std::sync::atomic::AtomicUsize",
            "std::sync::atomic::AtomicPtr",
        ],
    ),
];

#[test]
fn clippy_toml_bans_every_charter_path_under_its_rule() {
    let toml = read(&Path::new(ROOT).join("clippy.toml"));
    for (rule, paths) in CHARTER {
        for path in paths {
            let entry = format!("{{ path = \"{path}\", reason = \"{rule}: ");
            assert!(toml.contains(&entry), "clippy.toml lost `{entry}…`");
        }
    }
}

/// The lints' name, split so that this file does not mention it.
const LINTS: &str = concat!("clippy::", "disallowed_");

/// The three opt-outs, all in `vampos-bench`: file, mentions of [`LINTS`].
const OPT_OUTS: [(&str, usize); 3] = [
    ("crates/bench/src/bin/repro.rs", 1),
    ("crates/bench/src/cli.rs", 1),
    ("crates/bench/src/parallel.rs", 2),
];

#[test]
fn the_lints_are_suppressed_at_the_three_bench_sites_and_nowhere_else() {
    // File -> (mentions, mentions inside an `expect` that gives a reason).
    // A plain substring search is exact: the lints' name has no other use.
    let mut found = BTreeMap::new();
    for dir in ["crates", "src", "tests", "examples"] {
        visit(&Path::new(ROOT).join(dir), &mut |path, text| {
            let mentions = text.matches(LINTS).count();
            if mentions > 0 {
                let file = path.strip_prefix(ROOT).expect("under the root");
                let excused: usize = text
                    .split("[expect(")
                    .skip(1)
                    .filter_map(|rest| rest.split_once(")]"))
                    .filter(|(attr, _)| attr.contains("reason = \""))
                    .map(|(attr, _)| attr.matches(LINTS).count())
                    .sum();
                found.insert(file.display().to_string(), (mentions, excused));
            }
        });
    }
    let expected: BTreeMap<String, (usize, usize)> = OPT_OUTS
        .iter()
        .map(|&(file, mentions)| (file.to_owned(), (mentions, mentions)))
        .collect();
    assert_eq!(found, expected);
}

/// Calls `f` with every `.rs` file under `dir` and its text.
fn visit(dir: &Path, f: &mut impl FnMut(&Path, &str)) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            visit(&path, f);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            f(&path, &read(&path));
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
