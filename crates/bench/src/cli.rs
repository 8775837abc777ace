//! The command-line kit behind every binary of the workspace
//! (`vampos-fleet`, `-mesh`, `-chaos`, `-audit`, `-lint`, `repro`). A binary
//! keeps its `Args`, its usage text and its report; it reads flags with
//! [`Cli`] — `--k v` or `--k=v` — and hands [`run`] a `parse` and a `body`:
//!
//! * `--help` / `-h` anywhere prints the usage on stdout and exits 0;
//! * a `parse` error prints `name: message` and the usage on stderr and
//!   exits 2, with nothing on stdout;
//! * a `body` error exits 2 for unusable input ([`Failure::Input`]) and 1
//!   when the run itself failed ([`Failure::Run`]);
//! * exports go through [`write`]; a `--metrics-out` path ending `.json`
//!   gets the JSON dump, any other Prometheus text
//!   (`vampos_telemetry::MetricsRegistry::render_for`).

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use vampos_sim::Nanos;
use vampos_ukernel::OsError;

/// The largest fleet, replica set or client population any experiment in
/// the tree drives. A flag or a reproducer asking for more is refused
/// before a single instance is allocated.
pub const MAX_POPULATION: usize = 65_536;

/// The most requests (clients x requests per client) one run issues: each
/// leaves a record until the report is printed, so two counts that are
/// each inside [`MAX_POPULATION`] can still multiply to more memory than
/// the host has. 2^24 is 128 times the largest run in the tree.
pub const MAX_REQUESTS: usize = 1 << 24;

/// Refuses a client population whose run would issue more than
/// [`MAX_REQUESTS`] requests.
pub fn request_budget(clients: usize, requests: usize) -> Result<(), String> {
    match clients.checked_mul(requests) {
        Some(total) if total <= MAX_REQUESTS => Ok(()),
        _ => Err(format!(
            "--clients x --requests: {clients} x {requests} exceeds the request ceiling {MAX_REQUESTS}"
        )),
    }
}

/// A cursor over the arguments after `argv[0]`. Every error names the flag
/// it is about.
#[derive(Debug)]
pub struct Cli<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The argument [`Cli::flag`] returned last.
    flag: &'a str,
    /// The `v` of `--k=v`, until a reader takes it.
    inline: Option<&'a str>,
}

impl<'a> Cli<'a> {
    /// A cursor at the first of `argv` (the program name already skipped).
    pub fn new(argv: &'a [String]) -> Self {
        Cli {
            rest: argv.iter(),
            flag: "",
            inline: None,
        }
    }

    /// The next argument — the `--k` of `--k`, `--k v` and `--k=v`, or a
    /// bare word — or `None` once all are read. The caller matches what it
    /// knows and answers the rest with [`Cli::unknown`].
    pub fn flag(&mut self) -> Result<Option<&'a str>, String> {
        if self.inline.is_some() {
            return Err(format!("{} takes no value", self.flag));
        }
        let Some(arg) = self.rest.next() else {
            return Ok(None);
        };
        (self.flag, self.inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
            _ => (arg.as_str(), None),
        };
        Ok(Some(self.flag))
    }

    /// The complaint about an argument the binary does not know.
    pub fn unknown(&self) -> String {
        format!("unknown argument {:?}", self.flag)
    }

    /// The `v` of `--k=v`, for a flag whose value is optional.
    pub fn inline(&mut self) -> Option<&'a str> {
        self.inline.take()
    }

    fn raw(&mut self) -> Result<&'a str, String> {
        self.inline()
            .or_else(|| self.rest.next().map(String::as_str))
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The flag's value, parsed: `"{flag}: {parse error}"` if it does not.
    pub fn value<T: FromStr<Err: Display>>(&mut self) -> Result<T, String> {
        let parsed = self.raw()?.parse();
        parsed.map_err(|e| format!("{}: {e}", self.flag))
    }

    /// The flag's value, as a path.
    pub fn path(&mut self) -> Result<PathBuf, String> {
        self.raw().map(PathBuf::from)
    }

    /// The flag's value, resolved by a `from_name`: `"unknown {flag}
    /// {value:?}"` if it is none.
    pub fn named<T>(&mut self, from_name: impl Fn(&str) -> Option<T>) -> Result<T, String> {
        let name = self.raw()?;
        let what = self.flag.trim_start_matches('-');
        from_name(name).ok_or_else(|| format!("unknown {what} {name:?}"))
    }

    /// The flag's value, which must be one of `names`.
    pub fn one_of(&mut self, names: &[&'static str]) -> Result<&'static str, String> {
        self.named(|name| names.iter().copied().find(|known| *known == name))
    }

    /// The flag's value as a count the run allocates by — instances,
    /// replicas, clients, requests per client, events per schedule:
    /// between `min` and [`MAX_POPULATION`].
    pub fn population(&mut self, min: usize) -> Result<usize, String> {
        let n: usize = self.value()?;
        let flag = self.flag;
        if n < min {
            return Err(format!("{flag} must be at least {min}"));
        }
        if n > MAX_POPULATION {
            let ceiling = format!("the population ceiling {MAX_POPULATION}");
            return Err(format!("{flag}: {n} exceeds {ceiling}"));
        }
        Ok(n)
    }

    /// The flag's value as a count of `unit`s (`Nanos::MICRO` for a
    /// `--…-us` flag), refused if it is more nanoseconds than a `u64`
    /// holds.
    pub fn duration(&mut self, unit: Nanos) -> Result<Nanos, String> {
        let n: u64 = self.value()?;
        n.checked_mul(unit.as_nanos())
            .map(Nanos::from_nanos)
            .ok_or_else(|| format!("{}: {n} overflows u64 nanoseconds", self.flag))
    }
}

/// Why a binary's `body` gave up.
#[derive(Debug)]
pub enum Failure {
    /// Input only the run could judge (a reproducer, a combination of
    /// flags) is unusable: exit 2.
    Input(String),
    /// The run itself failed: exit 1.
    Run(String),
}

impl From<OsError> for Failure {
    fn from(e: OsError) -> Self {
        Failure::Run(format!("run failed: {e}"))
    }
}

/// A binary's `main`: parses the process arguments with `parse`, runs
/// `body` on the result, and maps every way out to the exit code the
/// module documentation lists. `usage` ends with a newline.
pub fn run<A>(
    name: &str,
    usage: &str,
    parse: impl FnOnce(&mut Cli) -> Result<A, String>,
    body: impl FnOnce(A) -> Result<ExitCode, Failure>,
) -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "D003: the one read of the command line; everything below takes the parsed config"
    )]
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
        print!("{usage}");
        return ExitCode::SUCCESS;
    }
    let (code, msg) = match parse(&mut Cli::new(&argv)).map(body) {
        Ok(Ok(code)) => return code,
        Err(msg) => (2, format!("{msg}\n{usage}")),
        Ok(Err(Failure::Input(msg))) => (2, msg),
        Ok(Err(Failure::Run(msg))) => (1, msg),
    };
    eprintln!("{name}: {msg}");
    ExitCode::from(code)
}

/// Writes an export to `path` and announces it on stdout as `"{label}
/// written: {path}"` (the lines CI diffs and the fixtures pin).
pub fn write(path: &Path, data: impl AsRef<[u8]>, label: &str) -> Result<(), String> {
    std::fs::write(path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{label} written: {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_owned).collect()
    }

    #[test]
    fn values_follow_their_flag_or_an_equals_sign() {
        let argv = split("--seed 7 --seed=9 word --flag");
        let mut cli = Cli::new(&argv);
        assert_eq!(cli.flag(), Ok(Some("--seed")));
        assert_eq!(cli.value::<u64>(), Ok(7));
        assert_eq!(cli.flag(), Ok(Some("--seed")));
        assert_eq!(cli.value::<u64>(), Ok(9));
        assert_eq!(cli.flag(), Ok(Some("word")));
        assert_eq!(cli.flag(), Ok(Some("--flag")));
        assert_eq!(cli.unknown(), "unknown argument \"--flag\"");
        assert_eq!(cli.flag(), Ok(None));
    }

    #[test]
    fn errors_name_the_flag() {
        let argv = split("--n x --n --quick=1 --next");
        let mut cli = Cli::new(&argv);
        cli.flag().unwrap();
        let err = cli.value::<usize>().unwrap_err();
        assert_eq!(err, "--n: invalid digit found in string");
        cli.flag().unwrap();
        // The next argument is the value, whatever it looks like.
        assert_eq!(cli.path(), Ok(PathBuf::from("--quick=1")));
        cli.flag().unwrap();
        assert_eq!(cli.value::<u8>().unwrap_err(), "--next needs a value");

        let argv = split("--quick=1 --next");
        let mut cli = Cli::new(&argv);
        assert_eq!(cli.flag(), Ok(Some("--quick")));
        assert_eq!(cli.flag().unwrap_err(), "--quick takes no value");
    }

    #[test]
    fn names_resolve_or_are_unknown() {
        let argv = split("--plan rolling --plan=sideways --json=out.json --json");
        let mut cli = Cli::new(&argv);
        cli.flag().unwrap();
        assert_eq!(cli.one_of(&["none", "rolling"]), Ok("rolling"));
        cli.flag().unwrap();
        let err = cli.one_of(&["none", "rolling"]).unwrap_err();
        assert_eq!(err, "unknown plan \"sideways\"");
        cli.flag().unwrap();
        assert_eq!(cli.inline(), Some("out.json"));
        cli.flag().unwrap();
        assert_eq!(cli.inline(), None);
    }

    #[test]
    fn populations_are_bounded_both_ways() {
        let argv = split("--n 0 --n 0 --n 65536 --n 65537 --n 18446744073709551615 --n -1");
        let mut cli = Cli::new(&argv);
        let mut next = |min| {
            cli.flag().unwrap();
            cli.population(min)
        };
        assert_eq!(next(0), Ok(0));
        assert_eq!(next(1).unwrap_err(), "--n must be at least 1");
        assert_eq!(next(1), Ok(MAX_POPULATION));
        assert_eq!(
            next(1).unwrap_err(),
            "--n: 65537 exceeds the population ceiling 65536"
        );
        let err = next(1).unwrap_err();
        assert!(
            err.starts_with("--n: 18446744073709551615 exceeds"),
            "{err}"
        );
        assert_eq!(next(1).unwrap_err(), "--n: invalid digit found in string");
    }

    #[test]
    fn durations_and_request_totals_stop_where_they_would_overflow() {
        let argv = split("--us 500 --ms 18446744073709 --ms 18446744073710 --us x");
        let mut cli = Cli::new(&argv);
        let mut next = |unit| {
            cli.flag().unwrap();
            cli.duration(unit)
        };
        assert_eq!(next(Nanos::MICRO), Ok(Nanos::from_micros(500)));
        assert_eq!(next(Nanos::MILLI), Ok(Nanos::from_millis(18446744073709)));
        assert_eq!(
            next(Nanos::MILLI).unwrap_err(),
            "--ms: 18446744073710 overflows u64 nanoseconds"
        );
        assert_eq!(
            next(Nanos::MICRO).unwrap_err(),
            "--us: invalid digit found in string"
        );

        assert_eq!(request_budget(MAX_POPULATION, 256), Ok(()));
        assert_eq!(
            request_budget(MAX_POPULATION, 257).unwrap_err(),
            "--clients x --requests: 65536 x 257 exceeds the request ceiling 16777216"
        );
        assert!(request_budget(usize::MAX, 2).is_err());
    }
}
