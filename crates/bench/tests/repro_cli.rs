//! `repro`'s rows of the command-line conventions table (the other five
//! binaries' rows are in the root package's `tests/fleet_mesh_cli.rs`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run repro")
}

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    dir
}

#[test]
fn a_misspelt_flag_is_a_usage_error_not_the_full_evaluation() {
    let dir = workdir("repro-hostile");
    for (args, named) in [
        (&["--quik"][..], "unknown argument \"--quik\""),
        (&["fig5", "table3"], "unknown argument \"table3\""),
        (&["fig9"], "unknown experiment \"fig9\""),
        (&["--trace-out"], "--trace-out needs a value"),
        (&["--quick=1"], "--quick takes no value"),
    ] {
        let out = repro(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

#[test]
fn help_and_list_win_over_everything() {
    let dir = workdir("repro-help");
    let out = repro(&dir, &["fig5", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: repro"));
    let out = repro(&dir, &["fig9", "--list", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("experiments:\n"));
    assert!(!dir.join("BENCH.json").exists());
}

#[test]
fn both_spellings_of_an_export_flag_write_the_same_bytes_and_nothing_else_runs() {
    let dir = workdir("repro-export");
    let spaced = repro(&dir, &["--trace-out", "a.json", "--metrics-out", "a.prom"]);
    let joined = repro(
        &dir,
        &["--trace-out=b.json", "--metrics-out=b.metrics.json"],
    );
    for out in [&spaced, &joined] {
        assert_eq!(out.status.code(), Some(0));
    }
    // Export-only mode: the two announcements and no experiment.
    assert_eq!(
        String::from_utf8_lossy(&spaced.stdout),
        "telemetry written: a.json\ntelemetry written: a.prom\n"
    );
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect(file);
    assert_eq!(read("a.json"), read("b.json"));
    assert!(read("a.prom").starts_with("# HELP "));
    assert!(read("b.metrics.json").starts_with("{\n  \"counters\": {"));
}
