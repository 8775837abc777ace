//! Structured diagnostics: codes, severities, and the analysis report.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; no action needed.
    Info,
    /// Suspicious but permitted; the configuration still boots.
    Warning,
    /// A violated invariant; [`is_clean`](crate::AnalysisReport::is_clean)
    /// fails and `SystemBuilder::build` rejects the set.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Diagnostic codes, one per checkable invariant.
///
/// Codes are grouped by pass family: `1xx` dependency graph, `2xx`
/// recoverability, `3xx` PKRU policy, `4xx` host-shared state. `E` codes are
/// [`Severity::Error`], `W` codes [`Severity::Warning`].
pub mod codes {
    /// Dependency cycle among components.
    pub const E101_DEPENDENCY_CYCLE: &str = "VAMP-E101";
    /// `depends_on` names a component outside the set.
    pub const W102_DANGLING_DEPENDENCY: &str = "VAMP-W102";
    /// An unrebootable component sits on other components' recovery paths.
    pub const W103_UNREBOOTABLE_ON_RECOVERY_PATH: &str = "VAMP-W103";
    /// Two components share a name (protection domains would collide).
    pub const E104_DUPLICATE_COMPONENT: &str = "VAMP-E104";

    /// Stateful rebootable component without checkpoint-based init.
    pub const E201_STATEFUL_WITHOUT_CHECKPOINT: &str = "VAMP-E201";
    /// Function of a stateful component neither logged nor declared
    /// replay-safe.
    pub const E202_UNLOGGED_STATEFUL_EXPORT: &str = "VAMP-E202";
    /// Hang-exempt component relies on other detectors for recovery.
    pub const W204_HANG_EXEMPT_REBOOTABLE: &str = "VAMP-W204";
    /// Stateful rebootable component that declares no interface.
    pub const W205_STATEFUL_LOGS_NOTHING: &str = "VAMP-W205";

    /// PKRU grant wider than the derived least-privilege policy.
    pub const E301_PKRU_OVER_WIDE: &str = "VAMP-E301";
    /// More protection domains than hardware keys, no virtualisation.
    pub const E302_KEY_EXHAUSTION: &str = "VAMP-E302";
    /// Domain count at the hardware-key limit (no headroom).
    pub const W303_KEY_PRESSURE: &str = "VAMP-W303";

    /// Host-shared component rebootable without a host re-handshake.
    pub const E401_HOST_SHARED_REBOOTABLE: &str = "VAMP-E401";
    /// Unrebootable component with no declared host sharing to justify it.
    pub const W402_UNEXPLAINED_UNREBOOTABLE: &str = "VAMP-W402";
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`VAMP-Exxx` / `VAMP-Wxxx`), see [`codes`].
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// The component the finding is about, when attributable to one.
    pub component: Option<String>,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when a concrete fix exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(
        code: &'static str,
        component: impl Into<Option<String>>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            component: component.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(
        code: &'static str,
        component: impl Into<Option<String>>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            component: component.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a fix suggestion.
    #[must_use]
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    /// Renders one human-readable line (plus a suggestion line if present).
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.code);
        if let Some(c) = &self.component {
            out.push_str(&format!(" `{c}`"));
        }
        out.push_str(&format!(": {}", self.message));
        if let Some(s) = &self.suggestion {
            out.push_str(&format!("\n  suggestion: {s}"));
        }
        out
    }

    /// Renders the diagnostic as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"code\":{},", json_str(self.code)));
        out.push_str(&format!(
            "\"severity\":{},",
            json_str(&self.severity.to_string())
        ));
        match &self.component {
            Some(c) => out.push_str(&format!("\"component\":{},", json_str(c))),
            None => out.push_str("\"component\":null,"),
        }
        out.push_str(&format!("\"message\":{},", json_str(&self.message)));
        match &self.suggestion {
            Some(s) => out.push_str(&format!("\"suggestion\":{}", json_str(s))),
            None => out.push_str("\"suggestion\":null"),
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// JSON string escaping (quotes, backslashes, control characters). Its own
/// copy (not `vampos_telemetry::text`): a `vampos-telemetry` edge from this
/// crate would rewrite the committed `benchmark/Cargo.lock`.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The outcome of one analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Builds a report, ordering findings by descending severity then code.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.component.cmp(&b.component))
        });
        AnalysisReport { diagnostics }
    }

    /// All findings, errors first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the set passed (no errors; warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Findings carrying `code`.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Merges another report into this one (re-sorting).
    #[must_use]
    pub fn merged(self, other: AnalysisReport) -> Self {
        let mut all = self.diagnostics;
        all.extend(other.diagnostics);
        AnalysisReport::new(all)
    }

    /// Renders a human-readable multi-line report.
    pub fn render(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no findings".to_owned();
        }
        let body = self
            .diagnostics
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n");
        format!(
            "{body}\n{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let items = self
            .diagnostics
            .iter()
            .map(Diagnostic::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[{items}]}}",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_orders_errors_first() {
        let r = AnalysisReport::new(vec![
            Diagnostic::warning(codes::W102_DANGLING_DEPENDENCY, None, "w"),
            Diagnostic::error(codes::E101_DEPENDENCY_CYCLE, Some("a".into()), "e"),
        ]);
        assert_eq!(r.diagnostics()[0].severity, Severity::Error);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        assert!(r.has(codes::E101_DEPENDENCY_CYCLE));
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic::error(codes::E101_DEPENDENCY_CYCLE, None, "a \"quoted\"\npath\\x");
        let j = d.to_json();
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\\\\x"));
        assert!(j.contains("\"component\":null"));
    }

    #[test]
    fn render_includes_suggestion() {
        let d = Diagnostic::error(
            codes::E201_STATEFUL_WITHOUT_CHECKPOINT,
            Some("vfs".into()),
            "m",
        )
        .with_suggestion("add .checkpoint_init()");
        let r = d.render();
        assert!(r.contains("error[VAMP-E201] `vfs`: m"));
        assert!(r.contains("suggestion: add .checkpoint_init()"));
    }

    #[test]
    fn clean_report_renders_no_findings() {
        let r = AnalysisReport::default();
        assert!(r.is_clean());
        assert_eq!(r.render(), "no findings");
        assert_eq!(
            r.to_json(),
            "{\"errors\":0,\"warnings\":0,\"diagnostics\":[]}"
        );
    }
}
