//! `vampos-lint`: static analysis over the built-in component sets.
//!
//! Runs the full analyzer on every (component set × execution mode)
//! combination the repository ships, including the PKRU least-privilege
//! check against the policies the runtime actually loads, and prints a
//! human-readable report (or JSON with `--json`). Exits 1 when any
//! configuration has error-severity findings, so CI can gate on it, and 2
//! on an argument it does not know.
//!
//! ```text
//! cargo run --bin vampos-lint [-- --json]
//! ```

use std::process::ExitCode;

use vampos::analyze::{analyze, AnalysisReport};
use vampos::bench::cli::{self, Cli};
use vampos::core::{analysis, ComponentSet, Mode, System};

fn sets() -> Vec<ComponentSet> {
    vec![
        ComponentSet::sqlite(),
        ComponentSet::nginx(),
        ComponentSet::redis(),
        ComponentSet::echo(),
    ]
}

fn modes() -> Vec<Mode> {
    vec![
        Mode::vampos_noop(),
        Mode::vampos_das(),
        Mode::vampos_fsm(),
        Mode::vampos_netm(),
    ]
}

/// Analyzes one configuration, feeding the analyzer the PKRU policies the
/// booted runtime reports for each component.
fn lint(set: &ComponentSet, mode: &Mode) -> AnalysisReport {
    let mut input = match analysis::analysis_input(set, mode) {
        Ok(input) => input,
        Err(e) => panic!("cannot describe set {}: {e}", set.name()),
    };
    match System::builder()
        .mode(mode.clone())
        .components(set.clone())
        .build()
    {
        Ok(mut sys) => {
            for &name in set.components() {
                if let Ok(pkru) = sys.pkru_for(name) {
                    input = input.policy(name, pkru);
                }
            }
        }
        Err(e) => eprintln!(
            "note: {} / {} did not boot ({e}); linting descriptors only",
            set.name(),
            mode.label()
        ),
    }
    analyze(&input)
}

const USAGE: &str = "usage: vampos-lint [--json]\n";

/// Whether `--json` was given; the only flag there is.
fn parse_args(cli: &mut Cli) -> Result<bool, String> {
    let mut json = false;
    while let Some(flag) = cli.flag()? {
        if flag != "--json" {
            return Err(cli.unknown());
        }
        json = true;
    }
    Ok(json)
}

fn report(json: bool) -> ExitCode {
    let mut total_errors = 0;
    let mut total_warnings = 0;
    let mut json_items = Vec::new();

    for set in sets() {
        for mode in modes() {
            let report = lint(&set, &mode);
            total_errors += report.error_count();
            total_warnings += report.warning_count();
            if json {
                json_items.push(format!(
                    "{{\"set\":\"{}\",\"mode\":\"{}\",\"report\":{}}}",
                    set.name(),
                    mode.label(),
                    report.to_json()
                ));
            } else {
                println!("== {} / {} ==", set.name(), mode.label());
                println!("{}", report.render());
                println!();
            }
        }
    }

    if json {
        println!("[{}]", json_items.join(","));
    } else {
        println!("total: {total_errors} error(s), {total_warnings} warning(s)");
    }
    if total_errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    cli::run("vampos-lint", USAGE, parse_args, |json| Ok(report(json)))
}
