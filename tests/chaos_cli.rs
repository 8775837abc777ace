//! `vampos-chaos` at its command line: what it prints, what it writes and
//! how it exits.
//!
//! The expected output lives in `crates/chaos/tests/fixtures/` and was
//! recorded from the binary at commit c5aa6c3, before the four families
//! were folded into one `Family` trait. CI's chaos diffs compare parallel
//! against sequential within one binary; these compare the binary against
//! that recording, so a refactor that moves a byte fails here. (Since a
//! reproducer became its spec, the eight recorded reproducers are that
//! recording minus the span windows it embedded and the replay recordings
//! minus the word `embedded`; `legacy/` keeps one old document whole.)

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use vampos::chaos::{run_outcome, Family, FleetFamily};
use vampos::sim::derive_seed;
use vampos::telemetry::validate_exposition;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/chaos/tests/fixtures");

fn fixture(path: &str) -> String {
    let path = format!("{FIXTURES}/{path}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A fresh working directory for one test, so relative `--out` paths echo
/// the way the fixtures recorded them.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    dir
}

fn chaos(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vampos-chaos"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run vampos-chaos")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_exit(out: &Output, code: i32, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(code),
        "{what}: stderr was: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Exit 2, the complaint on stderr, nothing on stdout.
fn assert_usage_error(out: &Output, complaint: &str) {
    assert_exit(out, 2, complaint);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(complaint), "stderr was: {stderr}");
    assert!(out.stdout.is_empty(), "stdout was: {}", stdout(out));
}

/// The acceptance command set: fixture name, exit code, arguments.
const COMMANDS: [(&str, i32, &str); 11] = [
    ("component-all", 0, "--campaigns 25 --workload all"),
    (
        "component-plant",
        1,
        "--campaigns 3 --workload all --plant --out out-plant",
    ),
    (
        "component-telemetry",
        0,
        "--campaigns 5 --workload kv --trace-out trace.json --metrics-out metrics.prom",
    ),
    ("fleet", 0, "--family fleet --campaigns 20 --instances 4"),
    ("recursive", 0, "--family recursive --campaigns 10"),
    ("recursive-plant", 0, "--family recursive --plant"),
    ("mesh", 0, "--family mesh --campaigns 5"),
    ("mesh-plant", 0, "--family mesh --plant"),
    (
        "mesh-plant-wrong-value",
        1,
        "--family mesh --plant-kind wrong-value",
    ),
    (
        "mesh-plant-acked-loss",
        1,
        "--family mesh --plant-kind acked-loss",
    ),
    (
        "mesh-plant-retry-storm",
        1,
        "--family mesh --plant-kind retry-storm",
    ),
];

fn the_command_set_prints_what_the_parent_printed(seed: &str) {
    let dir = workdir(&format!("chaos-cli-{seed}"));
    for (name, code, args) in COMMANDS {
        let args: Vec<&str> = ["--seed", seed]
            .into_iter()
            .chain(args.split(' '))
            .collect();
        let out = chaos(&dir, &args);
        assert_exit(&out, code, name);
        assert_eq!(
            stdout(&out),
            fixture(&format!("cli/{seed}/{name}.stdout")),
            "{name}"
        );
    }
    assert!(dir.join("trace.json").is_file() && dir.join("metrics.prom").is_file());
}

#[test]
fn seed_42_prints_what_the_parent_printed() {
    the_command_set_prints_what_the_parent_printed("42");
}

#[test]
fn seed_1337_prints_what_the_parent_printed() {
    the_command_set_prints_what_the_parent_printed("1337");
}

#[test]
fn planted_component_sweeps_write_the_recorded_reproducers() {
    let dir = workdir("chaos-cli-repro");
    let out = chaos(
        &dir,
        &[
            "--seed",
            "1",
            "--campaigns",
            "2",
            "--workload",
            "kv",
            "--plant",
        ],
    );
    assert_exit(&out, 1, "every planted campaign fails");
    for name in ["chaos-repro-kv-0.json", "chaos-repro-kv-1.json"] {
        let written = std::fs::read_to_string(dir.join(name)).expect(name);
        assert_eq!(written, fixture(&format!("repro/{name}")), "{name}");
    }
}

/// A reproducer is its spec: banner, tails and verdict are re-derived at
/// replay. The documents are the parent's minus the span windows it
/// embedded, the recorded stdout is the parent's (which printed those
/// windows) minus the word `embedded`.
#[test]
fn every_recorded_reproducer_replays_to_the_recorded_verdict() {
    let dir = workdir("chaos-cli-replay");
    for path in [
        "repro/chaos-repro-kv-0",
        "repro/chaos-repro-kv-1",
        "plants/recursive-ladder-stall",
        "plants/recursive-acked-loss",
        "plants/recursive-misattributed-rung",
        "plants/mesh-wrong-value",
        "plants/mesh-acked-loss",
        "plants/mesh-retry-storm",
    ] {
        let out = chaos(&dir, &["--replay", &format!("{FIXTURES}/{path}.json")]);
        assert_exit(&out, 1, path);
        let name = path.rsplit('/').next().expect("a file name");
        assert_eq!(
            stdout(&out),
            fixture(&format!("replay/{name}.stdout")),
            "{path}"
        );
    }
}

/// The one old-format document kept: the spec plus the span windows older
/// binaries embedded. The extra keys are ignored and the tails re-derived,
/// so it replays exactly like its re-recorded twin.
#[test]
fn a_legacy_reproducer_with_embedded_tails_replays_like_its_spec() {
    let dir = workdir("chaos-cli-legacy");
    let legacy = fixture("legacy/recursive-ladder-stall.json");
    let twin = fixture("plants/recursive-ladder-stall.json");
    let spec = twin.strip_suffix("\n}\n").expect("an object");
    assert!(legacy.starts_with(spec) && legacy.contains("\"journey_tail\": ["));
    let out = replay(&dir, "legacy.json", &legacy, &[]);
    assert_exit(&out, 1, "the legacy document still reproduces");
    assert_eq!(
        stdout(&out),
        fixture("replay/recursive-ladder-stall.stdout")
    );
}

/// Every family's replay exports the traced run it printed the tails of:
/// same spec, same bytes, an exposition the format check accepts and a
/// trace that opens like one.
#[test]
fn every_family_replays_to_byte_identical_exports() {
    let dir = workdir("chaos-cli-exports");
    let plant = FleetFamily {
        instances: 3,
        budget: 2,
    }
    .plants()
    .remove(0);
    let fleet = FleetFamily::write_spec(&(plant.spec)(derive_seed(7, 0), 0));
    std::fs::write(dir.join("fleet.json"), fleet).expect("write the fleet reproducer");
    let recorded = |path: &str| format!("{FIXTURES}/{path}.json");
    for (family, reproducer) in [
        ("component", recorded("repro/chaos-repro-kv-0")),
        ("fleet", "fleet.json".to_owned()),
        ("recursive", recorded("plants/recursive-acked-loss")),
        ("mesh", recorded("plants/mesh-retry-storm")),
    ] {
        let export = |round: &str| {
            let trace = format!("{family}-{round}.trace.json");
            let metrics = format!("{family}-{round}.prom");
            let flags = ["--trace-out", &trace, "--metrics-out", &metrics];
            let out = chaos(&dir, &[&["--replay", &reproducer], &flags[..]].concat());
            assert_exit(&out, 1, family);
            let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect("an export");
            (read(&trace), read(&metrics))
        };
        let (trace, metrics) = export("a");
        assert!(trace.starts_with("{\"traceEvents\":["), "{family}");
        validate_exposition(&metrics).unwrap_or_else(|e| panic!("{family}: {e}"));
        assert_eq!(export("b"), (trace, metrics), "{family}");
    }
}

#[test]
fn a_failing_fleet_campaign_replays_from_its_reproducer() {
    let dir = workdir("chaos-cli-fleet");
    let family = FleetFamily {
        instances: 3,
        budget: 2,
    };
    let plant = family.plants().remove(0);
    let outcome = run_outcome::<FleetFamily>((plant.spec)(derive_seed(7, 0), 0)).expect("run");
    let name = FleetFamily::repro_file_name(&outcome.spec);
    assert_eq!(name, "chaos-fleet-0.json");
    let json = outcome.reproducer_json().expect("the plant fails");
    std::fs::write(dir.join(&name), json).expect("write the reproducer");

    let out = chaos(&dir, &["--replay", &name]);
    assert_exit(&out, 1, "the planted divergence reproduces");
    let text = stdout(&out);
    assert!(text.starts_with("replaying fleet campaign #0 "), "{text}");
    assert!(text.ends_with("violation(s) reproduced\n"), "{text}");

    // The family's one named plant, and its sequential sweep.
    let out = chaos(&dir, &["--family", "fleet", "--plant-kind", "divergence"]);
    assert_exit(&out, 1, "caught");
    let sweep = ["--family", "fleet", "--campaigns", "3", "--instances", "3"];
    let parallel = chaos(&dir, &sweep);
    assert_exit(&parallel, 0, "a clean fleet sweep");
    let sequential = chaos(&dir, &[&sweep[..], &["--sequential"]].concat());
    assert_eq!(stdout(&parallel), stdout(&sequential));
}

#[test]
fn named_plants_resolve_through_the_family() {
    let dir = workdir("chaos-cli-plants");
    let out = chaos(
        &dir,
        &["--family", "recursive", "--plant-kind", "acked-loss"],
    );
    assert_exit(&out, 1, "the recursive family's plants are named too");
    assert!(stdout(&out).ends_with("plant acked-loss caught by 1 violation(s)\n"));

    let out = chaos(&dir, &["--plant-kind", "acked-loss"]);
    assert_usage_error(&out, "the component family has no named plants");
    let out = chaos(&dir, &["--family", "mesh", "--plant-kind", "ladder-stall"]);
    assert_usage_error(&out, "unknown plant kind \"ladder-stall\"");
}

#[test]
fn bad_flags_are_usage_errors() {
    let dir = workdir("chaos-cli-flags");
    let out = chaos(&dir, &["--family", "swarm"]);
    assert_usage_error(&out, "unknown family \"swarm\"");
    let out = chaos(&dir, &["--family", "mesh", "--class", "ninep-stall"]);
    assert_usage_error(&out, "does not belong to the selected family");
    let out = chaos(&dir, &["--class", "gremlins"]);
    assert_usage_error(&out, "unknown fault class \"gremlins\"");
    // Used to abort allocating the sweep's specs (SIGABRT).
    let out = chaos(
        &dir,
        &[
            "--family",
            "recursive",
            "--campaigns",
            "18446744073709551615",
        ],
    );
    assert_usage_error(&out, "--campaigns: 18446744073709551615 exceeds");
}

/// An export flag either writes its file or is refused by name: no mode
/// exits 0 having skipped it.
#[test]
fn exports_are_written_or_refused_never_skipped() {
    let dir = workdir("chaos-cli-exports-refused");
    let out = chaos(&dir, &["--campaigns", "0", "--trace-out", "t.json"]);
    assert_usage_error(
        &out,
        "--trace-out: a plant battery or a sweep of 0 campaigns has no",
    );
    let battery = ["--family", "mesh", "--plant", "--metrics-out", "m.prom"];
    let out = chaos(&dir, &battery);
    assert_usage_error(
        &out,
        "--metrics-out: a plant battery or a sweep of 0 campaigns has no",
    );
    assert!(!dir.join("t.json").exists() && !dir.join("m.prom").exists());

    // A named plant is one spec: its traced run is exported.
    let plant = ["--family", "recursive", "--plant-kind", "ladder-stall"];
    let out = chaos(&dir, &[&plant[..], &["--trace-out", "plant.json"]].concat());
    assert_exit(&out, 1, "caught");
    assert!(stdout(&out).starts_with("telemetry written: plant.json\n"));
    let trace = std::fs::read_to_string(dir.join("plant.json")).expect("the export");
    assert!(trace.starts_with("{\"traceEvents\":["));

    // So is a mesh replay, which older binaries refused.
    let mesh = format!("{FIXTURES}/plants/mesh-wrong-value.json");
    let out = chaos(&dir, &["--replay", &mesh, "--trace-out", "mesh.json"]);
    assert_exit(&out, 1, "the plant reproduces");
    let trace = std::fs::read_to_string(dir.join("mesh.json")).expect("the export");
    assert!(trace.starts_with("{\"traceEvents\":["));
}

/// Replays `text` saved as `file`.
fn replay(dir: &Path, file: &str, text: &str, more: &[&str]) -> Output {
    std::fs::write(dir.join(file), text).expect("write the reproducer under test");
    chaos(dir, &[&["--replay", file], more].concat())
}

#[test]
fn hostile_reproducers_are_usage_errors() {
    let dir = workdir("chaos-cli-hostile");
    let recursive = fixture("plants/recursive-acked-loss.json");
    let mesh = fixture("plants/mesh-wrong-value.json");

    let cut = recursive.find("\"class\"").expect("the field");
    let out = replay(&dir, "truncated.json", &recursive[..cut], &[]);
    assert_usage_error(&out, "unexpected end of input");

    // Used to abort with `capacity overflow` (exit 101)...
    let huge = recursive.replace("\"instances\": 3", "\"instances\": 18446744073709551615");
    assert_ne!(huge, recursive);
    let out = replay(&dir, "instances.json", &huge, &[]);
    assert_usage_error(&out, "instances 18446744073709551615");

    // ...to die allocating five terabytes (SIGABRT)...
    let huge = mesh.replace("\"replicas\": 2", "\"replicas\": 4294967296");
    assert_ne!(huge, mesh);
    let out = replay(&dir, "replicas.json", &huge, &[]);
    assert_usage_error(&out, "replicas 4294967296");

    // ...and to replay a different campaign after `as u32`.
    let field = recursive.find("\"glitch_count\": ").expect("the field") + 16;
    let digits = recursive[field..].find(',').expect("not the last field");
    let mut wide = recursive.clone();
    wide.replace_range(field..field + digits, "4294967297");
    let out = replay(&dir, "glitches.json", &wide, &[]);
    assert_usage_error(&out, "glitch_count 4294967297");

    // ...and to replay 4.3 G requests, each count inside its ceiling...
    let grid = mesh
        .replace("\"clients\": 6", "\"clients\": 65536")
        .replace(
            "\"requests_per_client\": 24",
            "\"requests_per_client\": 65536",
        );
    let out = replay(&dir, "grid.json", &grid, &[]);
    assert_usage_error(
        &out,
        "clients x requests_per_client: 65536 x 65536 exceeds the request ceiling 16777216",
    );

    // ...and to overflow the stack one `[` at a time (SIGABRT).
    let out = replay(&dir, "deep.json", &"[".repeat(200_000), &[]);
    assert_usage_error(&out, "nesting deeper than 64 at byte 64");

    // ...and to replay a 15-request campaign (release) or abort on the
    // addition (debug) when `ops + tail` wrapped, or to never return.
    let component = fixture("repro/chaos-repro-kv-0.json");
    for (field, value) in [
        ("\"ops\": 1,", "18446744073709551615"),
        ("\"ops\": 1,", "4000000000000"),
        ("\"tail\": 16,", "18446744073709551615"),
    ] {
        let key = field.split(':').next().expect("a key");
        let hostile = component.replace(field, &format!("{key}: {value},"));
        assert_ne!(hostile, component);
        let out = replay(&dir, "requests.json", &hostile, &[]);
        let name = key.trim_matches('"');
        let complaint = format!("{name} {value} exceeds the population ceiling 65536");
        assert_usage_error(&out, &complaint);
    }
}
