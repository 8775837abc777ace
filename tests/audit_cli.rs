//! `vampos-audit` validates its baseline before it runs the scenario.
//!
//! A baseline that cannot be audited against is bad input, not a
//! regression: the gate must say so with the usage-error code (2) instead
//! of simulating the whole fleet and then exiting with the regression code
//! (1), which CI reads as "the SLOs moved".

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `vampos-audit fleet --baseline <file holding text>`.
fn audit_against(file: &str, text: &str) -> Output {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, text).expect("write the baseline under test");
    Command::new(env!("CARGO_BIN_EXE_vampos-audit"))
        .args(["fleet", "--baseline"])
        .arg(&path)
        .output()
        .expect("run vampos-audit")
}

fn assert_usage_error_before_the_run(out: &Output, complaint: &str) {
    assert_eq!(out.status.code(), Some(2), "usage-error exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(complaint), "stderr was: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "the scenario must not have run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

fn committed_baseline() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/fleet-n16.json"
    ))
    .expect("read the committed fleet baseline")
}

#[test]
fn truncated_baseline_is_a_usage_error() {
    let truncated = &committed_baseline()[..120];
    let out = audit_against("audit-truncated.json", truncated);
    assert_usage_error_before_the_run(&out, "unexpected end of input");
}

#[test]
fn baseline_missing_a_key_is_a_usage_error() {
    let incomplete: String = committed_baseline()
        .lines()
        .filter(|line| !line.contains("journey_p99_ceiling_ns"))
        .map(|line| format!("{line}\n"))
        .collect();
    let out = audit_against("audit-incomplete.json", &incomplete);
    assert_usage_error_before_the_run(&out, "missing key \"journey_p99_ceiling_ns\"");
}

/// The JSON parser bounds its recursion: no stack overflow, a usage error.
#[test]
fn bottomless_baseline_is_a_usage_error() {
    let out = audit_against("audit-deep.json", &"[".repeat(200_000));
    assert_usage_error_before_the_run(&out, "nesting deeper than 64 at byte 64");
}
