//! `vampos-fleet`, `vampos-mesh` and `vampos-audit` at their command lines
//! — and the conventions all five binaries of this package share.
//!
//! The expected output lives in `tests/fixtures/cli/42/` and was recorded
//! from the binaries at commit 9d591a7 with `--seed 42`, when each still
//! parsed its own flags and wrote its own exports. CI's fleet and mesh
//! diffs compare two runs of one binary; these compare the binary against
//! that recording, stdout and exported files alike. (`repro` belongs to
//! `vampos-bench`; its rows of the conventions table are in
//! `crates/bench/tests/repro_cli.rs`.)

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/cli/42");

fn exe(binary: &str) -> &'static str {
    match binary {
        "vampos-fleet" => env!("CARGO_BIN_EXE_vampos-fleet"),
        "vampos-mesh" => env!("CARGO_BIN_EXE_vampos-mesh"),
        "vampos-chaos" => env!("CARGO_BIN_EXE_vampos-chaos"),
        "vampos-audit" => env!("CARGO_BIN_EXE_vampos-audit"),
        "vampos-lint" => env!("CARGO_BIN_EXE_vampos-lint"),
        other => panic!("no binary {other}"),
    }
}

/// A fresh working directory for one test, so relative export paths echo
/// the way the fixtures recorded them.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    dir
}

fn run(binary: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(exe(binary))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {binary}: {e}"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The recorded command set: fixture name (its prefix names the binary),
/// arguments after `--seed S`, files the command exports.
const COMMANDS: [(&str, &str, &[&str]); 13] = [
    ("fleet-default", "", &[]),
    (
        "fleet-none-least-outstanding",
        "--plan none --policy least-outstanding",
        &[],
    ),
    ("fleet-closed", "--shape closed --think-us 500", &[]),
    (
        "fleet-bursty",
        "--shape bursty --burst 4 --no-keepalive",
        &[],
    ),
    (
        "fleet-export-prom",
        "--instances 2 --clients 2 --requests 8 \
         --trace-out fleet-trace.json --metrics-out fleet-metrics.prom",
        &["fleet-trace.json", "fleet-metrics.prom"],
    ),
    (
        // The other spelling of a value: `--k=v`.
        "fleet-export-json",
        "--instances=2 --clients=2 --requests=8 --metrics-out=fleet-metrics.json",
        &["fleet-metrics.json"],
    ),
    ("mesh-fault-free", "--config fault-free", &[]),
    ("mesh-reboot", "--config reboot", &[]),
    ("mesh-recovery", "--config recovery", &[]),
    ("mesh-rolling", "--config rolling", &[]),
    ("mesh-no-policy", "--config rolling --no-policy", &[]),
    (
        "mesh-export-prom",
        "--clients 2 --requests 4 --config reboot \
         --trace-out mesh-trace.json --metrics-out mesh-metrics.prom",
        &["mesh-trace.json", "mesh-metrics.prom"],
    ),
    (
        "mesh-export-json",
        "--clients 2 --requests 4 --config=reboot --metrics-out mesh-metrics.json",
        &["mesh-metrics.json"],
    ),
];

/// Runs the command set with `--seed seed` against the one recording,
/// made at seed 42. No simulated value draws from the seed, so another
/// seed's stdout is the recording with the banner's `seed 0x2a` rewritten
/// to its own, and its exports are the recorded bytes.
fn the_command_set_prints_and_exports_what_the_parent_did(seed: u64) {
    let banner = format!("seed {seed:#x}");
    let seed = seed.to_string();
    let dir = workdir(&format!("fleet-mesh-cli-{seed}"));
    let recorded = Path::new(FIXTURES);
    for (name, args, exports) in COMMANDS {
        let binary = format!("vampos-{}", name.split('-').next().expect("a prefix"));
        let args: Vec<&str> = ["--seed", &seed]
            .into_iter()
            .chain(args.split_whitespace())
            .collect();
        let out = run(&binary, &dir, &args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name}: stderr was: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let expected = read(&recorded.join(format!("{name}.stdout")));
        assert_eq!(expected.matches("seed 0x2a").count(), 1, "{name}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected.replace("seed 0x2a", &banner),
            "{name}"
        );
        for file in exports {
            assert!(
                read(&dir.join(file)) == read(&recorded.join(file)),
                "{name}: {file} differs from the recording"
            );
        }
    }
}

#[test]
fn seed_42_prints_and_exports_what_the_parent_did() {
    the_command_set_prints_and_exports_what_the_parent_did(42);
}

#[test]
fn seed_1337_prints_and_exports_what_the_parent_did() {
    the_command_set_prints_and_exports_what_the_parent_did(1337);
}

/// `vampos-audit`'s two passing scenarios, recorded from the binary at
/// d25efb1 (default seed only: the recursive scenario's spec generator
/// draws from it). The recursive one walks the ladder's instance rung over
/// a failed restart, so it is the pin that tells a full reboot that crashes
/// the application regardless from one that gives up first.
#[test]
fn the_audit_scenarios_print_what_the_parent_did() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (scenario, baseline) in [
        ("fleet", "baselines/fleet-n16.json"),
        ("recursive", "baselines/recursive-ninep-stall.json"),
    ] {
        // From the repository root, so the echoed baseline path matches.
        let out = run("vampos-audit", root, &[scenario, "--baseline", baseline]);
        assert_eq!(out.status.code(), Some(0), "{scenario}");
        let expected = read(&Path::new(FIXTURES).join(format!("audit-{scenario}.stdout")));
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{scenario}");
    }
}

/// Command lines no binary may panic on, abort on, run something else for
/// or let pass: binary, arguments, what stderr must name.
const HOSTILE: [(&str, &str, &str); 16] = [
    (
        "vampos-fleet",
        "--instances x",
        "--instances: invalid digit",
    ),
    (
        "vampos-fleet",
        "--clients 18446744073709551615 --requests 1",
        "--clients: 18446744073709551615 exceeds",
    ),
    (
        // Each count is inside the ceiling; their product was a 103 GB
        // allocation and an abort.
        "vampos-fleet",
        "--clients 65536 --requests 65536 --instances 1",
        "--clients x --requests: 65536 x 65536 exceeds",
    ),
    (
        "vampos-mesh",
        "--clients 65536 --requests 65536",
        "--clients x --requests: 65536 x 65536 exceeds",
    ),
    (
        // Wrapped silently in release, panicked in debug.
        "vampos-fleet",
        "--think-us 18446744073709551615",
        "--think-us: 18446744073709551615 overflows",
    ),
    (
        "vampos-fleet",
        "--shape diurnal --period-ms 18446744073709552",
        "--period-ms: 18446744073709552 overflows",
    ),
    (
        "vampos-mesh",
        "--replicas 4294967296",
        "--replicas: 4294967296 exceeds",
    ),
    (
        "vampos-chaos",
        "--family fleet --instances 99999999",
        "--instances: 99999999 exceeds",
    ),
    (
        "vampos-chaos",
        "--instances 0",
        "--instances must be at least 1",
    ),
    ("vampos-chaos", "--bogus", "unknown argument \"--bogus\""),
    ("vampos-fleet", "--bogus", "unknown argument \"--bogus\""),
    ("vampos-mesh", "stray", "unknown argument \"stray\""),
    ("vampos-lint", "--jsno", "unknown argument \"--jsno\""),
    ("vampos-fleet", "--seed", "--seed needs a value"),
    (
        "vampos-fleet",
        "--no-keepalive=1",
        "--no-keepalive takes no value",
    ),
    (
        "vampos-chaos",
        "--replay deep.json",
        "nesting deeper than 64 at byte 64",
    ),
];

#[test]
fn hostile_command_lines_are_usage_errors_that_name_the_culprit() {
    let dir = workdir("cli-hostile");
    std::fs::write(dir.join("deep.json"), "[".repeat(200_000)).expect("write the deep file");
    for (binary, args, named) in HOSTILE {
        let args: Vec<&str> = args.split(' ').collect();
        let out = run(binary, &dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{binary} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{binary} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{binary} {args:?} wrote to stdout");
    }
}

#[test]
fn help_is_usage_on_stdout_and_success_everywhere() {
    let dir = workdir("cli-help");
    for binary in [
        "vampos-fleet",
        "vampos-mesh",
        "vampos-chaos",
        "vampos-audit",
        "vampos-lint",
    ] {
        for args in [&["--help"][..], &["-h"], &["--seed", "1", "--help"]] {
            let out = run(binary, &dir, args);
            assert_eq!(out.status.code(), Some(0), "{binary} {args:?}");
            let usage = String::from_utf8_lossy(&out.stdout);
            assert!(usage.starts_with(&format!("usage: {binary}")), "{usage}");
            assert!(out.stderr.is_empty(), "{binary} {args:?}");
        }
    }
}
